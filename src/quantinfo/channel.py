"""Classical-quantum channels: ensembles, measurements, and information bounds.

An ensemble encodes a classical letter into a quantum state; a measurement
turns the stored letter back into a classical outcome. holevo_chi bounds the
extractable information from above, accessible_information searches for the
best projective readout from below.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .probability import (
    _check_size,
    _conditional_entropy,
    _entropy,
    _finite_scalar,
    _is_int,
    _mutual_information,
    _spell,
    TOL,
    as_distribution,
)
from .quantum import (
    _PAULI_XYZ,
    _as_matrices,
    _born,
    _ginibre,
    _haar_basis,
    _spectrum,
    _trace_product,
    basis_projectors,
    pure_state,
    random_density,
    spin_basis,
)

QUBIT_GRID = (180, 360)  # polar x azimuthal points of the exhaustive qubit scan
_LOCAL_GRIDS = (5, 33)   # rounds of local grids after the scan, and points per axis of each
_GRID_DIRECTIONS = QUBIT_GRID[0] * QUBIT_GRID[1] + _LOCAL_GRIDS[0] * _LOCAL_GRIDS[1] ** 2
_GRID_BLOCK_WEIGHTS = 2**14  # Born weights the qubit search scores at once
_GRID_MAX_WEIGHTS = 2**24    # Born weights one qubit search may score: up to 119 letters
HILL_CLIMB_RESTARTS = 8  # random starting bases of the search above dimension 2
HILL_CLIMB_STEPS = 200   # rotations tried from each starting basis
# Each of the restarts x (steps + 1) bases the hill climb scores costs about (letters + 4)(n^3 + 128)
# operations, fitted to measured times: letters x n Born weights of n^2 terms, a per-letter overhead of
# about 128 terms, and a rotation (eigh, two products) worth four letters. 2**27 admits 534 qutrit
# letters, or n = 23 at two, each about 0.6 s on a 2-vCPU VM.
_HILL_CLIMB_MAX_COST = 2**27


class CqEnsemble(NamedTuple):
    """Classical letters with priors, each encoded as a density operator.

    states is the checked (letters, n, n) stack; states[a] is letter a's state.
    As a named tuple its len() is 3, the field count; size is the letter count.
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


class AccessibleInfo(NamedTuple):
    """Best projective readout found by a seeded search (a lower bound)."""

    value: float
    effects: tuple[np.ndarray, ...]
    method: str


class WrongBasisReport(NamedTuple):
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


def as_povm(effects) -> list[np.ndarray]:
    """Validate a POVM: Hermitian positive effects that sum to the identity."""
    return list(_povm(effects, None))


def joint_distribution(ensemble: CqEnsemble, effects) -> np.ndarray:
    """Joint table p(letter, outcome) = prior * Tr(rho_letter E_outcome)."""
    born = _trace_product(ensemble.states[:, None], _povm(effects, ensemble.dim))
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


def accessible_information(ensemble: CqEnsemble, seed: int = 0) -> AccessibleInfo:
    """Search for the best projective readout of an ensemble.

    Qubit ensembles get an exhaustive 180 x 360 polar x azimuthal grid of
    spin readouts, then nested local grids around the best point, so the
    qubit result is deterministic and seed-independent. No grid is built: each
    block of directions is formed, scored and dropped, so working memory stays
    flat in the letter count while time grows linearly, up to _GRID_MAX_WEIGHTS.
    Higher dimensions use seeded hill climbing over bases (HILL_CLIMB_RESTARTS
    x HILL_CLIMB_STEPS) and report a lower bound; an ensemble whose climb would
    cost more than _HILL_CLIMB_MAX_COST operations, counted in letters and in
    dimension, is rejected before any scoring. POVMs are excluded by design.
    """
    if not (_is_int(seed) and seed >= 0):
        raise ValidationError(f"seed must be a nonnegative integer, got {_spell(seed)}")
    if ensemble.dim == 2:
        weights = 2 * ensemble.size * _GRID_DIRECTIONS  # two outcomes per letter and direction
        if weights > _GRID_MAX_WEIGHTS:
            raise ValidationError(f"{ensemble.size} qubit letters need {weights} Born weights, more than "
                                  f"the search's cap of {_GRID_MAX_WEIGHTS}")
        basis, method = spin_basis(_best_qubit_direction(ensemble)), "grid"
    else:
        n = ensemble.dim
        cost = HILL_CLIMB_RESTARTS * (HILL_CLIMB_STEPS + 1) * (ensemble.size + 4) * (n**3 + 128)
        if cost > _HILL_CLIMB_MAX_COST:
            raise ValidationError(f"{ensemble.size} letters in dimension {n} need {cost} hill-climb operations, "
                                  f"more than the search's cap of {_HILL_CLIMB_MAX_COST}")
        basis, method = _hill_climb_basis(ensemble, seed), "hill-climb"
    effects = tuple(basis_projectors(basis))
    return AccessibleInfo(measured_information(ensemble, effects), effects, method)


def wrong_basis_demo(theta: float, priors=(0.5, 0.5)) -> WrongBasisReport:
    """Store a bit in the computational basis, read it out tilted by theta.

    The readout direction is tilted by theta from z in the x-z plane, so for
    equiprobable bits the recovered information is 1 - H2(cos^2(theta/2)).
    """
    theta = _finite_scalar(theta, f"tilt angle must be finite, got {_spell(theta, str)}")
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
    _check_size(size, "ensemble size")
    rng = np.random.default_rng(seed)
    priors = rng.dirichlet(np.ones(size))
    child_seeds = rng.integers(0, 2**63 - 1, size=size)
    states = [random_density(n, int(s)) for s in child_seeds]
    return cq_ensemble(priors, states)


def random_povm(n: int, outcomes: int, seed: int) -> list[np.ndarray]:
    """Seeded random POVM: Ginibre blocks whitened to sum to the identity."""
    _check_size(outcomes, "number of POVM outcomes")
    _check_size(n, "dimension")
    g = _ginibre(np.random.default_rng(seed), outcomes, n, n)
    blocks = g @ g.conj().swapaxes(-1, -2)
    values, vectors = np.linalg.eigh(sum(blocks))
    whitener = vectors @ np.diag(values ** -0.5) @ vectors.conj().T
    return as_povm(whitener @ blocks @ whitener)


def _povm(effects, dim: int | None) -> np.ndarray:
    """as_povm's checks; returns the checked (outcomes, n, n) stack."""
    checked = _as_matrices(effects, 3, "hermitian")
    n = checked.shape[1]
    if dim is not None and n != dim:
        raise ValidationError(f"effects are {n}-dimensional, expected {dim}")
    smallest = np.linalg.eigvalsh(checked)[:, 0]
    negative = np.flatnonzero(smallest < -TOL)
    if negative.size:
        raise ValidationError(f"effect {negative[0]} is not positive semidefinite: "
                              f"min eigenvalue {smallest[negative[0]]:.3e}")
    if np.max(np.abs(checked.sum(axis=0) - np.eye(n))) > TOL:
        raise ValidationError("effects do not sum to the identity")
    return checked


def _joint(priors: np.ndarray, born: np.ndarray) -> np.ndarray:
    """Joint tables p(letter, outcome) from (..., letter, outcome) Born weights.

    Negative weights are zeroed and each row is rescaled to its prior; nothing is
    rejected. Not _renormalize: einsum sums the qubit grid's many short rows several
    times faster than add.reduce, and scaling a row to its prior rounds only once.
    """
    weights = np.where(born < 0.0, 0.0, born)
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
    bloch = _trace_product(ensemble.states[:, None], _PAULI_XYZ)

    block = max(1, _GRID_BLOCK_WEIGHTS // (2 * len(bloch)))

    def best(thetas: np.ndarray, phis: np.ndarray) -> tuple[float, float]:
        # no grid is built: each block's directions are sliced from the rows it covers
        top, top_k = -np.inf, 0
        for start in range(0, thetas.size * phis.size, block):
            first, skip = divmod(start, phis.size)  # the block's first row, and its column there
            covering = thetas[first:first + (skip + block - 1) // phis.size + 1, None]
            born = _qubit_born(bloch, _direction(covering, phis).reshape(-1, 3)[skip:skip + block])
            scores = _mutual_information(_joint(ensemble.priors, born))
            k = int(np.argmax(scores))
            if scores[k] > top:  # strict, so the first maximum wins, as in one pass
                top, top_k = scores[k], start + k
        return thetas[top_k // phis.size], phis[top_k % phis.size]

    theta, phi = best(np.linspace(0.0, np.pi, QUBIT_GRID[0]),
                      np.linspace(0.0, 2.0 * np.pi, QUBIT_GRID[1], endpoint=False))
    span_theta = np.pi / (QUBIT_GRID[0] - 1)
    span_phi = 2.0 * np.pi / QUBIT_GRID[1]
    offsets = np.linspace(-1.0, 1.0, _LOCAL_GRIDS[1])
    for _ in range(_LOCAL_GRIDS[0]):  # each local grid spans one step of the grid before it
        theta, phi = best(theta + span_theta * offsets, phi + span_phi * offsets)
        span_theta /= 16.0
        span_phi /= 16.0
    return _direction(theta, phi)


def _hill_climb_basis(ensemble: CqEnsemble, seed: int) -> np.ndarray:
    n = ensemble.dim
    priors = ensemble.priors
    states = ensemble.states

    def score(basis: np.ndarray) -> float:
        return _mutual_information(_joint(priors, _born(states, basis)))

    seeds = np.random.SeedSequence(seed).spawn(HILL_CLIMB_RESTARTS)
    best_value = -np.inf
    best_basis: np.ndarray | None = None
    for child in seeds:
        rng = np.random.default_rng(child)
        basis = _haar_basis(rng, n)
        current = score(basis)
        step = 0.5
        for _ in range(HILL_CLIMB_STEPS):
            g = _ginibre(rng, n, n)
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
