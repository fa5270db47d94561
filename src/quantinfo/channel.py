"""Classical-quantum channels: ensembles, measurements, and information bounds.

An ensemble encodes a classical letter into a quantum state; a measurement
turns the stored letter back into a classical outcome. holevo_chi bounds the
extractable information from above, accessible_information searches for the
best projective readout from below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .probability import (
    _clamp,
    _conditional_entropy,
    _entropy,
    _mutual_information,
    as_distribution,
)
from .quantum import (
    _as_matrices,
    _spectrum,
    EIGENVALUE_TOL,
    HERMITIAN_TOL,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    basis_projectors,
    pure_state,
    random_density,
    spin_basis,
)

QUBIT_GRID = (180, 360)  # polar x azimuthal points of the exhaustive qubit scan


@dataclass(frozen=True)
class CqEnsemble:
    """Classical letters with priors, each encoded as a density operator.

    states is the checked (letters, n, n) stack; states[a] is letter a's state.
    """

    letters: tuple[str, ...]
    priors: np.ndarray
    states: np.ndarray

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def size(self) -> int:
        return len(self.states)

    def average_state(self) -> np.ndarray:
        return np.einsum("a,aij->ij", self.priors, self.states)


@dataclass(frozen=True)
class AccessibleInfo:
    """Best projective readout found by a seeded search (a lower bound)."""

    value: float
    effects: tuple[np.ndarray, ...]
    method: str


@dataclass(frozen=True)
class WrongBasisReport:
    """Entropy accounting for reading stored bits in a tilted basis."""

    joint: np.ndarray
    source_entropy: float
    outcome_entropy: float
    conditional: float
    mutual: float


def cq_ensemble(priors, states, letters=None) -> CqEnsemble:
    """Validate and assemble a classical-quantum ensemble."""
    dist = as_distribution(priors)
    checked = _as_matrices(states, 3, "density")
    if dist.size != len(checked):
        raise ValidationError(
            f"{dist.size} priors for {len(checked)} states")
    if letters is None:
        names = tuple(f"a{i}" for i in range(len(checked)))
    else:
        names = tuple(str(s) for s in letters)
        if len(names) != len(checked):
            raise ValidationError(f"{len(names)} letters for {len(checked)} states")
    return CqEnsemble(names, dist, checked)


def as_povm(effects, dim: int | None = None) -> list[np.ndarray]:
    """Validate a POVM: Hermitian positive effects that sum to the identity."""
    return list(_povm(effects, dim))


def joint_distribution(ensemble: CqEnsemble, effects) -> np.ndarray:
    """Joint table p(letter, outcome) = prior * Tr(rho_letter E_outcome)."""
    born = np.einsum("aij,kji->ak", ensemble.states, _povm(effects, ensemble.dim)).real
    return _joint(ensemble.priors, born)


def measured_information(ensemble: CqEnsemble, effects) -> float:
    """Mutual information between the stored letter and the readout outcome."""
    return float(_mutual_information(joint_distribution(ensemble, effects)))


def holevo_chi(ensemble: CqEnsemble) -> float:
    """S(average state) - sum_a p_a S(rho_a): the readout information ceiling."""
    entropies = _entropy(_spectrum(ensemble.states))
    return float(_entropy(_spectrum(ensemble.average_state())) - ensemble.priors @ entropies)


def specification_information(ensemble: CqEnsemble) -> float:
    """Shannon entropy of the priors: bits needed to specify the prepared letter."""
    return float(_entropy(ensemble.priors))


def accessible_information(
    ensemble: CqEnsemble,
    seed: int = 0,
    restarts: int = 8,
    steps: int = 200,
) -> AccessibleInfo:
    """Search for the best projective readout of an ensemble.

    Qubit ensembles get an exhaustive 180 x 360 polar x azimuthal grid of
    spin readouts, then nested local grids around the best point, so the
    qubit result is deterministic and seed-independent.
    Higher dimensions use seeded random-restart hill climbing over bases and
    report a lower bound. POVMs are excluded by design; the search covers
    projective measurements only.
    """
    if ensemble.dim == 2:
        direction = _best_qubit_direction(ensemble)
        effects = tuple(basis_projectors(spin_basis(direction)))
        return AccessibleInfo(measured_information(ensemble, effects), effects, "grid")
    if restarts < 1 or steps < 1:
        raise ValidationError("search budget must allow at least one restart and step")
    basis = _hill_climb_basis(ensemble, seed, restarts, steps)
    effects = tuple(basis_projectors(basis))
    return AccessibleInfo(measured_information(ensemble, effects), effects, "hill-climb")


def wrong_basis_demo(theta: float, priors=(0.5, 0.5)) -> WrongBasisReport:
    """Store a bit in the computational basis, read it out tilted by theta.

    The readout direction is tilted by theta from z in the x-z plane, so for
    equiprobable bits the recovered information is 1 - H2(cos^2(theta/2)).
    """
    dist = as_distribution(priors)
    if dist.size != 2:
        raise ValidationError("the stored letter is a single bit: need two priors")
    ensemble = cq_ensemble(dist, [pure_state([1, 0]), pure_state([0, 1])], ("0", "1"))
    effects = basis_projectors(spin_basis([np.sin(theta), 0.0, np.cos(theta)]))
    joint = joint_distribution(ensemble, effects)
    return WrongBasisReport(
        joint=joint,
        source_entropy=float(_entropy(dist)),
        outcome_entropy=float(_entropy(joint.sum(axis=0))),
        conditional=float(_conditional_entropy(joint)),
        mutual=float(_mutual_information(joint)),
    )


def random_ensemble(n: int, size: int, seed: int) -> CqEnsemble:
    """Seeded random ensemble: Dirichlet priors over Ginibre states."""
    if size < 1:
        raise ValidationError("ensemble size must be >= 1")
    rng = np.random.default_rng(seed)
    priors = rng.dirichlet(np.ones(size))
    child_seeds = rng.integers(0, 2**63 - 1, size=size)
    states = [random_density(n, int(s)) for s in child_seeds]
    return cq_ensemble(priors, states)


def random_povm(n: int, outcomes: int, seed: int) -> list[np.ndarray]:
    """Seeded random POVM: Ginibre blocks whitened to sum to the identity."""
    if outcomes < 1:
        raise ValidationError("a POVM needs at least one outcome")
    if n < 1:
        raise ValidationError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(outcomes):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        blocks.append(g @ g.conj().T)
    total = sum(blocks)
    values, vectors = np.linalg.eigh(total)
    whitener = vectors @ np.diag(values ** -0.5) @ vectors.conj().T
    return as_povm([whitener @ block @ whitener for block in blocks])


def _povm(effects, dim: int | None) -> np.ndarray:
    """as_povm's checks; returns the checked (outcomes, n, n) stack."""
    checked = _as_matrices(effects, 3, "hermitian")
    n = checked.shape[1]
    if dim is not None and n != dim:
        raise ValidationError(f"effects are {n}-dimensional, expected {dim}")
    smallest = np.linalg.eigvalsh(checked)[:, 0]
    negative = np.flatnonzero(smallest < -EIGENVALUE_TOL)
    if negative.size:
        raise ValidationError(f"effect {negative[0]} is not positive semidefinite: "
                              f"min eigenvalue {smallest[negative[0]]:.3e}")
    if np.max(np.abs(checked.sum(axis=0) - np.eye(n))) > HERMITIAN_TOL:
        raise ValidationError("effects do not sum to the identity")
    return checked


def _joint(priors: np.ndarray, born: np.ndarray) -> np.ndarray:
    """Joint tables p(letter, outcome) from (..., letter, outcome) Born weights.

    The weights are clamped once at EIGENVALUE_TOL, the negative eigenvalue a
    checked state or effect may carry, and each row is rescaled to its prior:
    effects sum to the identity only within HERMITIAN_TOL.
    """
    weights = _clamp(born, born.ndim, "Born weight", EIGENVALUE_TOL)
    return priors[:, None] * weights / np.einsum("...k->...", weights)[..., None]


def _qubit_born(bloch: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Born weights (1 +- r_a . n_k)/2 of spin readouts along (K, 3) directions."""
    return (1.0 + (directions @ bloch.T)[..., None] * np.array([1.0, -1.0])) / 2.0


def _direction(theta, phi) -> np.ndarray:
    """Unit vectors at polar angle theta and azimuth phi, broadcast together."""
    sin_theta = np.sin(theta)
    return np.stack(np.broadcast_arrays(
        sin_theta * np.cos(phi), sin_theta * np.sin(phi), np.cos(theta)), axis=-1)


def _best_qubit_direction(ensemble: CqEnsemble) -> np.ndarray:
    paulis = np.stack([PAULI_X, PAULI_Y, PAULI_Z])
    bloch = np.einsum("aij,sji->as", ensemble.states, paulis).real

    def best(thetas: np.ndarray, phis: np.ndarray) -> tuple[float, float]:
        born = _qubit_born(bloch, _direction(thetas[:, None], phis).reshape(-1, 3))
        k = int(np.argmax(_mutual_information(_joint(ensemble.priors, born))))
        return thetas[k // phis.size], phis[k % phis.size]

    theta, phi = best(np.linspace(0.0, np.pi, QUBIT_GRID[0]),
                      np.linspace(0.0, 2.0 * np.pi, QUBIT_GRID[1], endpoint=False))
    span_theta = np.pi / (QUBIT_GRID[0] - 1)
    span_phi = 2.0 * np.pi / QUBIT_GRID[1]
    offsets = np.linspace(-1.0, 1.0, 33)
    for _ in range(5):  # each local grid spans one step of the grid before it
        theta, phi = best(theta + span_theta * offsets, phi + span_phi * offsets)
        span_theta /= 16.0
        span_phi /= 16.0
    return _direction(theta, phi)


def _hill_climb_basis(ensemble: CqEnsemble, seed: int, restarts: int, steps: int) -> np.ndarray:
    n = ensemble.dim
    priors = ensemble.priors
    states = ensemble.states

    def score(basis: np.ndarray) -> float:
        # p(a, i) = prior_a <u_i| rho_a |u_i>, computed without revalidation
        born = np.einsum("ji,ajk,ki->ai", basis.conj(), states, basis).real
        return _mutual_information(_joint(priors, born))

    seeds = np.random.SeedSequence(seed).spawn(restarts)
    best_value = -np.inf
    best_basis: np.ndarray | None = None
    for child in seeds:
        rng = np.random.default_rng(child)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(g)
        basis = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        current = score(basis)
        step = 0.5
        for _ in range(steps):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            generator = (g + g.conj().T) / 2.0
            values, vectors = np.linalg.eigh(step * generator)
            rotation = vectors @ np.diag(np.exp(1j * values)) @ vectors.conj().T
            candidate = rotation @ basis
            candidate_value = score(candidate)
            if candidate_value > current:
                basis, current = candidate, candidate_value
            else:
                step *= 0.95
        if current > best_value:
            best_value, best_basis = current, basis
    assert best_basis is not None
    return best_basis
