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
    _conditional_entropy,
    _entropy,
    _mutual_information,
    as_distribution,
    as_joint_distribution,
)
from .quantum import (
    _spectrum,
    EIGENVALUE_TOL,
    HERMITIAN_TOL,
    as_density,
    as_hermitian,
    basis_projectors,
    bloch_vector,
    pure_state,
    random_density,
    spin_basis,
    von_neumann_entropy,
)


@dataclass(frozen=True)
class CqEnsemble:
    """Classical letters with priors, each encoded as a density operator."""

    letters: tuple[str, ...]
    priors: np.ndarray
    states: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.states[0].shape[0]

    @property
    def size(self) -> int:
        return len(self.states)

    def average_state(self) -> np.ndarray:
        out = np.zeros_like(self.states[0])
        for weight, state in zip(self.priors, self.states):
            out = out + weight * state
        return out


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
    checked = tuple(as_density(rho) for rho in states)
    if len(checked) == 0:
        raise ValidationError("ensemble needs at least one state")
    if dist.size != len(checked):
        raise ValidationError(
            f"{dist.size} priors for {len(checked)} states")
    dim = checked[0].shape[0]
    if any(rho.shape[0] != dim for rho in checked):
        raise ValidationError("ensemble states have mismatched dimensions")
    if letters is None:
        names = tuple(f"a{i}" for i in range(len(checked)))
    else:
        names = tuple(str(s) for s in letters)
        if len(names) != len(checked):
            raise ValidationError(f"{len(names)} letters for {len(checked)} states")
    return CqEnsemble(names, dist, checked)


def as_povm(effects, dim: int | None = None) -> list[np.ndarray]:
    """Validate a POVM: Hermitian positive effects that sum to the identity."""
    checked = [as_hermitian(e) for e in effects]
    if not checked:
        raise ValidationError("a POVM needs at least one effect")
    n = checked[0].shape[0]
    if dim is not None and n != dim:
        raise ValidationError(f"effects are {n}-dimensional, expected {dim}")
    if any(e.shape[0] != n for e in checked):
        raise ValidationError("effects have mismatched dimensions")
    for i, effect in enumerate(checked):
        smallest = float(np.linalg.eigvalsh(effect)[0])
        if smallest < -EIGENVALUE_TOL:
            raise ValidationError(
                f"effect {i} is not positive semidefinite: min eigenvalue {smallest:.3e}")
    total = sum(checked)
    if np.max(np.abs(total - np.eye(n))) > HERMITIAN_TOL:
        raise ValidationError("effects do not sum to the identity")
    return checked


def joint_distribution(ensemble: CqEnsemble, effects) -> np.ndarray:
    """Joint table p(letter, outcome) = prior * Tr(rho_letter E_outcome)."""
    povm = as_povm(effects, ensemble.dim)
    rows = []
    for weight, rho in zip(ensemble.priors, ensemble.states):
        outcome_probs = np.array(
            [np.einsum("ij,ji->", rho, e).real for e in povm])
        # effects sum to I only within HERMITIAN_TOL: rescale before the sum window
        rows.append(weight * as_distribution(
            outcome_probs / outcome_probs.sum(), entry_tol=EIGENVALUE_TOL))
    return as_joint_distribution(np.array(rows), entry_tol=0.0)


def measured_information(ensemble: CqEnsemble, effects) -> float:
    """Mutual information between the stored letter and the readout outcome."""
    return _mutual_information(joint_distribution(ensemble, effects))


def holevo_chi(ensemble: CqEnsemble) -> float:
    """S(average state) - sum_a p_a S(rho_a): the readout information ceiling."""
    chi = von_neumann_entropy(ensemble.average_state())
    for weight, rho in zip(ensemble.priors, ensemble.states):
        chi -= weight * _entropy(_spectrum(rho))
    return float(chi)


def specification_information(ensemble: CqEnsemble) -> float:
    """Shannon entropy of the priors: bits needed to specify the prepared letter."""
    return _entropy(ensemble.priors)


def accessible_information(
    ensemble: CqEnsemble,
    seed: int = 0,
    restarts: int = 8,
    steps: int = 200,
    grid: tuple[int, int] = (180, 360),
) -> AccessibleInfo:
    """Search for the best projective readout of an ensemble.

    Qubit ensembles get an exhaustive polar x azimuthal grid (default
    180 x 360) followed by coordinate-wise golden-section refinement of the
    best cell, so the qubit result is deterministic and seed-independent.
    Higher dimensions use seeded random-restart hill climbing over bases and
    report a lower bound. POVMs are excluded by design; the search covers
    projective measurements only.
    """
    if ensemble.dim == 2:
        if grid[0] < 1 or grid[1] < 1:
            raise ValidationError("grid must have at least one point per axis")
        direction = _best_qubit_direction(ensemble, grid)
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
        source_entropy=_entropy(dist),
        outcome_entropy=_entropy(joint.sum(axis=0)),
        conditional=_conditional_entropy(joint),
        mutual=_mutual_information(joint),
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


def _qubit_mutual_information(priors, overlaps) -> np.ndarray:
    """Vectorized MI between letters and a two-outcome spin readout.

    overlaps has shape (letters, K): the Bloch overlap r_a . n_k for each
    candidate direction.
    """
    conditional = np.clip((1.0 + overlaps) / 2.0, 0.0, 1.0)
    outcome = priors @ conditional
    return _binary_entropy(outcome) - priors @ _binary_entropy(conditional)


def _binary_entropy(x: np.ndarray) -> np.ndarray:
    arr = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    out = np.zeros_like(arr)
    interior = (arr > 0.0) & (arr < 1.0)
    v = arr[interior]
    out[interior] = -v * np.log2(v) - (1.0 - v) * np.log2(1.0 - v)
    return out


def _best_qubit_direction(ensemble: CqEnsemble, grid: tuple[int, int]) -> np.ndarray:
    bloch = np.array([bloch_vector(rho) for rho in ensemble.states])
    priors = ensemble.priors

    def value(theta: float, phi: float) -> float:
        direction = np.array([
            np.sin(theta) * np.cos(phi),
            np.sin(theta) * np.sin(phi),
            np.cos(theta),
        ])
        return float(_qubit_mutual_information(priors, (bloch @ direction)[:, None])[0])

    thetas = np.linspace(0.0, np.pi, grid[0])
    phis = np.linspace(0.0, 2.0 * np.pi, grid[1], endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    directions = np.stack([
        np.sin(tt) * np.cos(pp),
        np.sin(tt) * np.sin(pp),
        np.cos(tt),
    ]).reshape(3, -1)
    scores = _qubit_mutual_information(priors, bloch @ directions)
    best = int(np.argmax(scores))
    theta = tt.reshape(-1)[best]
    phi = pp.reshape(-1)[best]
    span_theta = np.pi / max(grid[0] - 1, 1)
    span_phi = 2.0 * np.pi / grid[1]
    for _ in range(4):  # alternate golden-section sweeps on the best cell
        theta = _golden_max(lambda t: value(t, phi), theta - span_theta, theta + span_theta)
        phi = _golden_max(lambda f: value(theta, f), phi - span_phi, phi + span_phi)
        span_theta /= 4.0
        span_phi /= 4.0
    return np.array([np.sin(theta) * np.cos(phi),
                     np.sin(theta) * np.sin(phi),
                     np.cos(theta)])


def _golden_max(fn, lo: float, hi: float, iterations: int = 50) -> float:
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iterations):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return (a + b) / 2.0


def _hill_climb_basis(ensemble: CqEnsemble, seed: int, restarts: int, steps: int) -> np.ndarray:
    n = ensemble.dim
    priors = ensemble.priors
    states = np.stack(ensemble.states)

    def score(basis: np.ndarray) -> float:
        # p(a, i) = prior_a <u_i| rho_a |u_i>, computed without revalidation
        conditional = np.einsum("ji,ajk,ki->ai", basis.conj(), states, basis).real
        conditional = np.clip(conditional, 0.0, None)
        conditional /= conditional.sum(axis=1, keepdims=True)
        return _mutual_information((priors[:, None] * conditional).T)

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
