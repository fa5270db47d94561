"""Density operators, projective measurements, and matrix information measures.

Bases are unitary matrices whose columns are the basis vectors, matching the
eigenvector layout returned by numpy's eigh.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .probability import SUM_TOL, _as_array, _clamp, _entropy, _memo

HERMITIAN_TOL = 1e-9
TRACE_TOL = 1e-9
EIGENVALUE_TOL = 1e-9   # eigenvalues in [-tol, 0) are rounding noise
PURE_THRESHOLD = 1.0 - 1e-9

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {
    "1": np.eye(2, dtype=complex),
    "x": PAULI_X,
    "y": PAULI_Y,
    "z": PAULI_Z,
}


def as_hermitian(matrix, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate near-Hermiticity and return the symmetrized matrix (M + M*)/2."""
    return _as_matrices(matrix, 2, "hermitian", tol)


def as_density(matrix, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate a density operator: Hermitian, unit trace, positive semidefinite.

    The trace is renormalized to exactly 1 when within tolerance; eigenvalues
    down to -EIGENVALUE_TOL are accepted as rounding noise.
    """
    return _as_matrices(matrix, 2, "density", tol)


def as_basis(matrix, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate an orthonormal basis given as the columns of a unitary matrix."""
    return _as_matrices(matrix, 2, "basis", tol)


def pure_state(vector) -> np.ndarray:
    """Density operator of a normalized state vector."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    if v.size == 0 or not np.all(np.isfinite(v)):
        raise ValidationError("expected a nonempty finite state vector")
    norm = float(np.linalg.norm(v))
    if norm <= 0.0:
        raise ValidationError("state vector has zero norm")
    v = v / norm
    return np.outer(v, v.conj())


def bloch_state(r) -> np.ndarray:
    """Qubit density operator with the given Bloch vector (|r| <= 1)."""
    vec = np.asarray(r, dtype=float)
    if vec.shape != (3,) or not np.all(np.isfinite(vec)):
        raise ValidationError("expected a finite Bloch vector of length 3")
    length = float(np.linalg.norm(vec))
    if length > 1.0 + EIGENVALUE_TOL:
        raise ValidationError(f"Bloch vector has length {length!r} > 1")
    return (np.eye(2, dtype=complex)
            + vec[0] * PAULI_X + vec[1] * PAULI_Y + vec[2] * PAULI_Z) / 2.0


def bloch_vector(rho) -> np.ndarray:
    """Bloch vector (Tr rho*sx, Tr rho*sy, Tr rho*sz) of a qubit state."""
    state = as_density(rho)
    if state.shape != (2, 2):
        raise ValidationError("Bloch vector is defined for qubit states only")
    return np.array([float(np.trace(state @ s).real) for s in (PAULI_X, PAULI_Y, PAULI_Z)])


def computational_basis(n: int) -> np.ndarray:
    if n < 1:
        raise ValidationError("dimension must be >= 1")
    return np.eye(n, dtype=complex)


def rotate_basis(axis: str, angle: float) -> np.ndarray:
    """Eigenbasis of the spin observable tilted by `angle` from z toward `axis`.

    axis "x" gives the direction (sin a, 0, cos a), "y" gives
    (0, sin a, cos a), and "z" stays at (0, 0, 1) for every angle. The +1
    eigenvector is the first column; each column's first nonzero component is
    made real and positive.
    """
    directions = {
        "x": np.array([np.sin(angle), 0.0, np.cos(angle)]),
        "y": np.array([0.0, np.sin(angle), np.cos(angle)]),
        "z": np.array([0.0, 0.0, 1.0]),
    }
    if axis not in directions:
        raise ValidationError(f"axis must be one of x, y, z, got {axis!r}")
    return spin_basis(directions[axis])


def spin_basis(direction) -> np.ndarray:
    """Eigenbasis of n.sigma for a unit Bloch direction n, +1 eigenvector first."""
    n_hat = np.asarray(direction, dtype=float)
    if n_hat.shape != (3,) or not np.all(np.isfinite(n_hat)):
        raise ValidationError("expected a finite direction vector of length 3")
    length = float(np.linalg.norm(n_hat))
    if length <= 0.0:
        raise ValidationError("direction vector has zero norm")
    n_hat = n_hat / length
    observable = n_hat[0] * PAULI_X + n_hat[1] * PAULI_Y + n_hat[2] * PAULI_Z
    _, vectors = np.linalg.eigh(observable)
    basis = vectors[:, ::-1]  # +1 eigenvector first
    return _fix_column_phases(basis)


def basis_projectors(basis) -> list[np.ndarray]:
    """Rank-1 projectors onto the columns of a basis."""
    u = as_basis(basis)
    return [np.outer(u[:, i], u[:, i].conj()) for i in range(u.shape[1])]


def born_probabilities(rho, basis) -> np.ndarray:
    """Outcome distribution p_i = <u_i|rho|u_i> of a projective measurement."""
    return _born(*_state_and_basis(rho, basis))


def luders_update(rho, basis) -> np.ndarray:
    """Post-measurement state sum_i P_i rho P_i when the outcome is not read.

    Kills the off-diagonal blocks in the measured basis; measuring in an
    eigenbasis of rho leaves it unchanged.
    """
    state, u = _state_and_basis(rho, basis)
    diag = np.diag(u.conj().T @ state @ u).real
    return u @ np.diag(diag.astype(complex)) @ u.conj().T


def spectrum(rho) -> np.ndarray:
    """Eigenvalues of a density operator, descending, as a clean distribution."""
    return _spectrum(as_density(rho))


def von_neumann_entropy(rho) -> float:
    """Entropy of the spectrum, in bits."""
    return float(_entropy(spectrum(rho)))


def purity(rho) -> float:
    return _purity(as_density(rho))


def total_information(rho) -> float:
    """Tr(rho - I/n)^2 = purity - 1/n: basis-independent information content.

    Zero for the maximally mixed state, 1 - 1/n for every pure state.
    """
    state = as_density(rho)
    return _purity(state) - 1.0 / state.shape[0]


def is_pure(rho) -> bool:
    return purity(rho) > PURE_THRESHOLD


def hs_inner_product(a, b) -> float:
    """Hilbert-Schmidt inner product Tr(AB) of two Hermitian matrices."""
    ha, hb = _hermitian_pair(a, b)
    value = complex(np.einsum("ij,ji->", ha, hb))
    if abs(value.imag) > HERMITIAN_TOL:
        raise ValidationError("inner product has a non-negligible imaginary part")
    return value.real


def hs_distance(a, b) -> float:
    """Hilbert-Schmidt distance sqrt(Tr (A-B)^2)."""
    ha, hb = _hermitian_pair(a, b)
    diff = ha - hb
    return float(np.sqrt(max(np.einsum("ij,ji->", diff, diff).real, 0.0)))


def smallest_eigenvalue(matrix) -> float:
    """Minimum eigenvalue of a Hermitian matrix (diagnostic; nothing is repaired)."""
    return float(np.linalg.eigvalsh(as_hermitian(matrix))[0])


def random_density(n: int, seed: int, rank: int | None = None) -> np.ndarray:
    """Seeded random density operator of the given rank (Ginibre construction)."""
    if n < 1:
        raise ValidationError("dimension must be >= 1")
    r = n if rank is None else rank
    if not 1 <= r <= n:
        raise ValidationError(f"rank must be in 1..{n}, got {r}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_basis(n: int, seed: int) -> np.ndarray:
    """Seeded Haar-random orthonormal basis (QR with phase fixing)."""
    if n < 1:
        raise ValidationError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def _state_and_basis(rho, basis) -> tuple[np.ndarray, np.ndarray]:
    """Validate a state and a measurement basis of the same dimension."""
    state, u = as_density(rho), as_basis(basis)
    if u.shape[0] != state.shape[0]:
        raise ValidationError(
            f"basis dimension {u.shape[0]} does not match state dimension {state.shape[0]}")
    return state, u


def _hermitian_pair(a, b) -> np.ndarray:
    return _as_matrices([a, b], 3, "hermitian")


def _as_matrices(values, ndim: int, kind: str, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """The one matrix validator: a finite square matrix (ndim 2) or a stack of them (ndim 3).

    kind "basis" checks orthonormal columns; "hermitian" returns (M + M*)/2;
    "density" also renormalizes a trace within TRACE_TOL of 1 and rejects
    eigenvalues below -EIGENVALUE_TOL. Each distinct input is checked once.
    """
    return _memo(_check_matrices, _as_array(values, complex, "matrices"), ndim, kind, tol)


def _check_matrices(arr: np.ndarray, ndim: int, kind: str, tol: float) -> np.ndarray:
    if arr.ndim != ndim or arr.shape[-1] != arr.shape[-2] or arr.size == 0:
        raise ValidationError(f"expected a nonempty square matrix{'' if ndim == 2 else ' stack'}")
    # The squared Frobenius norm is finite unless an entry is not (or it overflows):
    # one call, where isfinite needs two, and none of the warnings a deviation
    # computed from an infinite entry would raise.
    if not np.vdot(arr, arr).real < np.inf and not np.isfinite(arr).all():
        raise ValidationError("matrix entries must be finite")
    if kind == "basis":
        if np.abs(arr.conj().swapaxes(-1, -2) @ arr - np.eye(arr.shape[-1])).max() > tol:
            raise ValidationError("basis columns are not orthonormal within tolerance")
        return arr
    adjoint = arr.conj().swapaxes(-1, -2)
    if np.abs(arr - adjoint).max() > tol:
        raise ValidationError("matrix is not Hermitian within tolerance")
    arr = arr + adjoint
    arr /= 2.0
    if kind == "density":
        traces = arr.trace(axis1=-2, axis2=-1).real
        drift = abs(traces - 1.0)
        if np.count_nonzero(drift > TRACE_TOL):
            raise ValidationError(f"trace is {float(np.ravel(traces)[np.argmax(drift)])!r}, not 1")
        arr /= traces[..., None, None]
        smallest = np.linalg.eigvalsh(arr)[..., 0]
        if np.count_nonzero(smallest < -EIGENVALUE_TOL):
            raise ValidationError(f"matrix is not positive semidefinite: min eigenvalue {np.min(smallest):.3e}")
    return arr


# Kernels below take a state from as_density and a basis from as_basis. Born weights
# and spectra clamp at EIGENVALUE_TOL, the negative eigenvalue as_density accepts,
# and batch over a stack of bases or states.

def _born(state: np.ndarray, u: np.ndarray) -> np.ndarray:
    diag = np.einsum("...ji,jk,...ki->...i", u.conj(), state, u).real
    return _clamp(diag, diag.ndim, "probability vector", EIGENVALUE_TOL, SUM_TOL, axis=-1)


def _spectrum(state: np.ndarray) -> np.ndarray:
    values = np.linalg.eigvalsh(state)[..., ::-1]
    return _clamp(values, values.ndim, "probability vector", EIGENVALUE_TOL, SUM_TOL, axis=-1)


def _purity(state: np.ndarray) -> float:
    return float(np.einsum("ij,ji->", state, state).real)


def _fix_column_phases(matrix: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Rotate each column so its first nonzero component is real positive."""
    out = matrix.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = np.flatnonzero(np.abs(col) > tol)
        if idx.size:
            lead = col[idx[0]]
            out[:, j] = col * (lead.conjugate() / abs(lead))
    return out
