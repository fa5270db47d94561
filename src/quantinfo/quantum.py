"""Density operators, projective measurements, and matrix information measures.

Bases are unitary matrices whose columns are the basis vectors, matching the
eigenvector layout returned by numpy's eigh.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .probability import TOL, _as_array, _check_size, _divide_out, _entropy, _is_int, _memo, _renormalize, _seed, _spell

_SQRT_TINY = 2.0**-511  # smallest norm whose square is a normal float
_NORM2_CAP = float(np.finfo(float).max) / 4.0  # a matrix stack's squared norm stays below this

# one read-only (4, 2, 2) stack of 1, x, y, z; the named Paulis are views of it
_PAULI_1XYZ = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
_PAULI_1XYZ.flags.writeable = False
_PAULI_XYZ = _PAULI_1XYZ[1:]
PAULI_X, PAULI_Y, PAULI_Z = _PAULI_XYZ
PAULIS = dict(zip("1xyz", _PAULI_1XYZ))


def as_hermitian(matrix) -> np.ndarray:
    """Validate Hermiticity within TOL and return the symmetrized matrix (M + M*)/2.

    Rejects a squared Frobenius norm from a quarter of the float maximum up (entries
    from about 6.7e153), so no sum or product formed from the matrix overflows."""
    return _as_matrices(matrix, 2, "hermitian")


def as_density(matrix) -> np.ndarray:
    """Validate a density operator: Hermitian, unit trace, positive semidefinite.

    A trace within TOL of 1 is divided out by as_distribution's rule, n being the dimension:
    only past rounding, so a checked state passes unchanged. Eigenvalues down to -TOL pass
    as rounding noise; the size bound is as_hermitian's."""
    return _as_matrices(matrix, 2, "density")


def as_basis(matrix) -> np.ndarray:
    """Validate an orthonormal basis (within TOL) given as the columns of a unitary matrix."""
    return _as_matrices(matrix, 2, "basis")


def pure_state(vector) -> np.ndarray:
    """Density operator of a normalized state vector; a matrix is rejected, not flattened."""
    v = _as_array(vector, complex, "state vector")
    if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)):
        raise ValidationError("expected a nonempty finite 1-d state vector")
    v = _unit(v, "state vector")
    return np.outer(v, v.conj())


def _unit(v: np.ndarray, what: str) -> np.ndarray:
    """v / |v| for a finite vector; a zero vector is rejected.

    The direct norm sums squares, which underflow below about 1e-154 (losing bits,
    or all of them) and overflow above about 1e154. Only then is v first divided by
    its largest real or imaginary part, so every other vector keeps its direct bits.
    """
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    if not _SQRT_TINY <= norm < np.inf:
        # real division by the parts: a complex one takes 1/scale, which overflows
        parts = np.ascontiguousarray(v).view(float)
        scale = np.max(np.abs(parts))
        if scale == 0.0:
            raise ValidationError(f"{what} has zero norm")
        v = (parts / scale).view(v.dtype)
        norm = np.linalg.norm(v)
    return v / norm


def bloch_state(r) -> np.ndarray:
    """Qubit density operator with the given Bloch vector (|r| <= 1)."""
    vec = _as_array(r, float, "Bloch vector")
    if vec.shape != (3,) or not np.all(np.isfinite(vec)):
        raise ValidationError("expected a finite Bloch vector of length 3")
    with np.errstate(over="ignore"):  # a huge entry overflows to inf, which fails below
        length = float(np.linalg.norm(vec))
    if length > 1.0 + TOL:
        raise ValidationError(f"Bloch vector has length {length!r} > 1")
    return (np.eye(2, dtype=complex)
            + vec[0] * PAULI_X + vec[1] * PAULI_Y + vec[2] * PAULI_Z) / 2.0


def bloch_vector(rho) -> np.ndarray:
    """Bloch vector (Tr rho*sx, Tr rho*sy, Tr rho*sz) of a qubit state."""
    state = as_density(rho)
    if state.shape != (2, 2):
        raise ValidationError("Bloch vector is defined for qubit states only")
    return _trace_product(state, _PAULI_XYZ)


def spin_basis(direction) -> np.ndarray:
    """Eigenbasis of n.sigma for a unit Bloch direction n, +1 eigenvector first."""
    n_hat = _as_array(direction, float, "direction vector")
    if n_hat.shape != (3,) or not np.all(np.isfinite(n_hat)):
        raise ValidationError("expected a finite direction vector of length 3")
    n_hat = _unit(n_hat, "direction vector")
    observable = n_hat[0] * PAULI_X + n_hat[1] * PAULI_Y + n_hat[2] * PAULI_Z
    _, vectors = np.linalg.eigh(observable)
    basis = vectors[:, ::-1]  # +1 eigenvector first
    return _fix_column_phases(basis)


def basis_projectors(basis) -> list[np.ndarray]:
    """Rank-1 projectors onto the columns of a basis."""
    u = as_basis(basis)
    return list(u.T[:, :, None] * u.T.conj()[:, None, :])


def born_probabilities(rho, basis) -> np.ndarray:
    """Outcome distribution p_i = <u_i|rho|u_i> of a projective measurement."""
    return _renormalize(_born(*_state_and_basis(rho, basis)))


def luders_update(rho, basis) -> np.ndarray:
    """Post-measurement state sum_i P_i rho P_i when the outcome is not read.

    Kills the off-diagonal blocks in the measured basis; measuring in an
    eigenbasis of rho leaves it unchanged.
    """
    state, u = _state_and_basis(rho, basis)
    return (u * _renormalize(_born(state, u))) @ u.conj().T


def spectrum(rho) -> np.ndarray:
    """Eigenvalues of a density operator, descending, as a clean distribution."""
    return _spectrum(as_density(rho))


def von_neumann_entropy(rho) -> float:
    """Entropy of the spectrum, in bits."""
    return float(_entropy(spectrum(rho)))


def purity(rho) -> float:
    state = as_density(rho)
    return float(_trace_product(state, state))


def total_information(rho) -> float:
    """Tr(rho - I/n)^2 = purity - 1/n: basis-independent information content.

    Zero for the maximally mixed state, 1 - 1/n for every pure state.
    """
    state = as_density(rho)
    return float(_trace_product(state, state)) - 1.0 / state.shape[0]


def is_pure(rho) -> bool:
    return 1.0 - purity(rho) <= TOL


def hs_inner_product(a, b) -> float:
    """Hilbert-Schmidt inner product Tr(AB) of two Hermitian matrices; its imaginary part is rounding."""
    ha, hb = _as_matrices([a, b], 3, "hermitian")
    return float(_trace_product(ha, hb))


def hs_distance(a, b) -> float:
    """Hilbert-Schmidt distance sqrt(Tr (A-B)^2)."""
    ha, hb = _as_matrices([a, b], 3, "hermitian")
    diff = ha - hb
    return float(np.sqrt(max(_trace_product(diff, diff), 0.0)))


def smallest_eigenvalue(matrix) -> float:
    """Minimum eigenvalue of a Hermitian matrix (diagnostic; nothing is repaired)."""
    return float(np.linalg.eigvalsh(as_hermitian(matrix))[0])


def random_density(n: int, seed: int, rank: int | None = None) -> np.ndarray:
    """Seeded random density operator of the given rank (Ginibre construction)."""
    _check_size(n, "dimension")
    r = n if rank is None else rank
    if not (_is_int(r) and 1 <= r <= n):
        raise ValidationError(f"rank must be an integer in 1..{n}, got {_spell(r)}")
    g = _ginibre(np.random.default_rng(_seed(seed)), n, r)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_basis(n: int, seed: int) -> np.ndarray:
    """Seeded Haar-random orthonormal basis (QR with phase fixing)."""
    _check_size(n, "dimension")
    return _haar_basis(np.random.default_rng(_seed(seed)), n)


def _haar_basis(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random n x n unitary from rng: QR of a complex Ginibre matrix, R's diagonal phases moved into Q."""
    q, r = np.linalg.qr(_ginibre(rng, n, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _ginibre(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Complex Gaussian (Ginibre) matrices of shape (*lead, rows, cols).

    Each (rows, cols) block takes its real part, then its imaginary part, from rng's stream."""
    draws = rng.standard_normal((*shape[:-2], 2, *shape[-2:]))
    return draws[..., 0, :, :] + 1j * draws[..., 1, :, :]


def _state_and_basis(rho, basis) -> tuple[np.ndarray, np.ndarray]:
    """Validate a state and a measurement basis of the same dimension."""
    state, u = as_density(rho), as_basis(basis)
    if u.shape[0] != state.shape[0]:
        raise ValidationError(
            f"basis dimension {u.shape[0]} does not match state dimension {state.shape[0]}")
    return state, u


def _as_matrices(values, ndim: int, kind: str) -> np.ndarray:
    """The one matrix validator: a square matrix (ndim 2) or a stack (ndim 3), squared norm below _NORM2_CAP.

    kind "basis" checks orthonormal columns; "hermitian" returns (M + M*)/2;
    "effect" also rejects eigenvalues below -TOL, and "density" first divides out a trace
    within TOL of 1 past rounding (probability._divide_out). Each distinct input is checked once.
    """
    return _memo(_check_matrices, _as_array(values, complex, "matrices"), ndim, kind)


def _check_matrices(arr: np.ndarray, ndim: int, kind: str) -> np.ndarray:
    if arr.ndim != ndim or arr.shape[-1] != arr.shape[-2] or arr.size == 0:
        raise ValidationError(f"expected a nonempty square matrix{'' if ndim == 2 else ' stack'}")
    # One squared Frobenius norm tests every entry: it reaches the cap when an entry is
    # not finite, or when a difference or product formed from the matrices downstream
    # could overflow (|A - B|^2 <= 2(|A|^2 + |B|^2), and the entries of AB are at most |A| |B|).
    if not np.vdot(arr, arr).real < _NORM2_CAP:
        if not np.isfinite(arr).all():
            raise ValidationError("matrix entries must be finite")
        raise ValidationError(f"matrix entries too large: squared norm must be below {_NORM2_CAP:.3e}")
    if kind == "basis":
        if np.abs(arr.conj().swapaxes(-1, -2) @ arr - np.eye(arr.shape[-1])).max() > TOL:
            raise ValidationError("basis columns are not orthonormal within tolerance")
        return arr
    adjoint = arr.conj().swapaxes(-1, -2)
    if np.abs(arr - adjoint).max() > TOL:
        raise ValidationError("matrix is not Hermitian within tolerance")
    arr = arr + adjoint
    arr /= 2.0
    if kind == "density":
        traces = arr.trace(axis1=-2, axis2=-1).real
        drift = abs(traces - 1.0)
        if np.count_nonzero(drift > TOL):
            raise ValidationError(f"trace is {float(np.ravel(traces)[np.argmax(drift)])!r}, not 1")
        _divide_out(arr, traces if ndim == 2 else traces[..., None, None], arr.shape[-1])
    if kind != "hermitian":
        smallest = np.linalg.eigvalsh(arr)[..., 0]
        negative = smallest < -TOL
        if np.count_nonzero(negative):
            first = int(np.argmax(negative))  # a stack names its first failing member
            raise ValidationError(f"matrix{'' if ndim == 2 else f' {first}'} is not positive semidefinite: "
                                  f"min eigenvalue {np.ravel(smallest)[first]:.3e}")
    return arr


# Kernels below take a state from as_density and a basis from as_basis, batch over a stack
# of either, and reject nothing. Born weights and spectra drift by the validators' windows:
# _spectrum repairs its rows, _born returns raw weights that are repaired where a distribution forms.

def _born(state: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.einsum("...ji,...jk,...ki->...i", u.conj(), state, u).real


def _spectrum(state: np.ndarray) -> np.ndarray:
    return _renormalize(np.linalg.eigvalsh(state)[..., ::-1])


def _trace_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr(AB), broadcast over leading axes: every trace of a product in the package sums here, in one order."""
    return np.einsum("...ij,...ji->...", a, b).real


def _fix_column_phases(matrix: np.ndarray) -> np.ndarray:
    """Rotate each unit column so its first component of modulus above 1e-12 is real positive.

    Leading axes batch. The modulus is hypot(re, im), which scalar abs computes:
    np.abs of a complex array rounds some moduli differently in the last bit.
    """
    rows = np.argmax(np.abs(matrix) > 1e-12, axis=-2)
    # plain indexing, an open grid over any leading axes, costs less than take_along_axis
    lead = matrix[(*np.indices((*rows.shape[:-1], 1), sparse=True)[:-1], rows, np.arange(rows.shape[-1]))]
    return matrix * (lead.conj() / np.hypot(lead.real, lead.imag))[..., None, :]
