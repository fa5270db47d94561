from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quantinfo import (
    ValidationError,
    accessible_information,
    as_povm,
    basis_projectors,
    bloch_state,
    bloch_vector,
    build_mubs,
    cq_ensemble,
    holevo_chi,
    joint_distribution,
    measured_information,
    mutual_information,
    pure_state,
    random_basis,
    random_density,
    random_distribution,
    random_doubly_stochastic,
    random_ensemble,
    random_povm,
    specification_information,
    spin_basis,
    von_neumann_entropy,
    wrong_basis_demo,
)
from quantinfo import channel, probability
from quantinfo.channel import QUBIT_GRID, _direction, _joint, _qubit_born
from quantinfo.probability import TOL, _mutual_information
from quantinfo.quantum import PAULI_X, PAULI_Y, PAULI_Z
from test_quantum import ZERO_PLUS_CHI, assert_same_bits, reference_random_density

ZERO = pure_state([1, 0])
ONE = pure_state([0, 1])
PLUS = pure_state([1, 1])

ZERO_PLUS = cq_ensemble([0.5, 0.5], [ZERO, PLUS], ("0", "+"))
TRINE = cq_ensemble([1 / 3] * 3, [bloch_state([np.sin(a), 0.0, np.cos(a)])
                                  for a in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)])


def reference_binary_entropy(x):
    arr = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    out = np.zeros_like(arr)
    interior = (arr > 0.0) & (arr < 1.0)
    v = arr[interior]
    out[interior] = -v * np.log2(v) - (1.0 - v) * np.log2(1.0 - v)
    return out


def reference_qubit_mutual_information(priors, overlaps):
    """Binary-entropy MI of a spin readout; overlaps[a, k] = r_a . n_k."""
    conditional = np.clip((1.0 + overlaps) / 2.0, 0.0, 1.0)
    return (reference_binary_entropy(priors @ conditional)
            - priors @ reference_binary_entropy(conditional))


def reference_holevo_chi(ensemble):
    """S(average) - sum_a p_a S(rho_a), one von Neumann entropy per state."""
    return von_neumann_entropy(ensemble.average_state()) - sum(
        p * von_neumann_entropy(rho) for p, rho in zip(ensemble.priors, ensemble.states))


def bloch_of(ensemble):
    return np.array([bloch_vector(rho) for rho in ensemble.states])


def sampled_directions(count, seed):
    directions = np.random.default_rng(seed).standard_normal((count, 3))
    return directions / np.linalg.norm(directions, axis=1, keepdims=True)


class TestEnsembleValidation:
    def test_default_letters(self):
        ens = cq_ensemble([0.5, 0.5], [ZERO, ONE])
        assert ens.letters == ("a0", "a1")
        assert ens.dim == 2
        assert ens.size == 2

    def test_average_state(self):
        avg = ZERO_PLUS.average_state()
        assert np.allclose(avg, 0.5 * ZERO + 0.5 * PLUS, atol=1e-12)

    def test_prior_count_mismatch(self):
        with pytest.raises(ValidationError):
            cq_ensemble([0.5, 0.25, 0.25], [ZERO, ONE])

    def test_letter_count_mismatch(self):
        with pytest.raises(ValidationError):
            cq_ensemble([0.5, 0.5], [ZERO, ONE], ("only",))

    def test_state_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="mismatched dimensions"):
            cq_ensemble([0.5, 0.5], [ZERO, np.eye(3) / 3])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            cq_ensemble([], [])


class TestPovmValidation:
    def test_basis_projectors_form_a_povm(self):
        effects = as_povm(basis_projectors(np.eye(3, dtype=complex)))
        assert len(effects) == 3

    def test_not_summing_to_identity(self):
        with pytest.raises(ValidationError):
            as_povm([np.eye(2) / 2, np.eye(2) / 4])

    def test_negative_effect(self):
        with pytest.raises(ValidationError):
            as_povm([np.diag([1.5, -0.5]), np.diag([-0.5, 1.5])])

    @pytest.mark.parametrize("check", [as_povm, lambda effects: joint_distribution(ZERO_PLUS, effects)],
                             ids=["as-povm", "joint-distribution"])
    def test_positivity_names_the_first_failing_effect(self, check):
        # the matrix check judges positivity for effects as for states, before the sum rule
        with pytest.raises(ValidationError) as caught:
            check([np.eye(2) / 2, np.diag([0.7, 0.5]), np.diag([-0.2, 0.0])])
        assert str(caught.value) == "matrix 2 is not positive semidefinite: min eigenvalue -2.000e-01"
        check([np.diag([1.0, 1.0 + TOL]), np.diag([0.0, -TOL])])  # -TOL is rounding noise

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="mismatched dimensions"):
            as_povm([np.eye(2) / 2, np.eye(3) / 3])

    @pytest.mark.parametrize("measure", [joint_distribution, measured_information])
    def test_effects_of_another_dimension_rejected(self, measure):
        with pytest.raises(ValidationError, match="^effects are 3-dimensional, expected 2$"):
            measure(ZERO_PLUS, basis_projectors(np.eye(3, dtype=complex)))

    def test_random_povm_is_valid_and_seeded(self):
        effects = random_povm(3, 4, seed=5)
        assert len(effects) == 4
        again = random_povm(3, 4, seed=5)
        for a, b in zip(effects, again):
            assert np.array_equal(a, b)


def reference_random_povm(n, outcomes, seed):
    """random_povm one Ginibre block at a time: the batched form must match its bits."""
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(outcomes):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        blocks.append(g @ g.conj().T)
    values, vectors = np.linalg.eigh(sum(blocks))
    whitener = vectors @ np.diag(values ** -0.5) @ vectors.conj().T
    return as_povm([whitener @ block @ whitener for block in blocks])


def test_random_povm_matches_block_by_block_draws():
    for seed in range(2000):
        n, outcomes = 2 + seed % 5, 1 + seed // 5 % 6
        effects = random_povm(n, outcomes, seed)
        reference = reference_random_povm(n, outcomes, seed)
        assert isinstance(effects, list) and len(effects) == len(reference) == outcomes
        for effect, want in zip(effects, reference):
            assert_same_bits(effect, want)


def test_random_povm_matches_one_batched_draw():
    # the spelling random_povm had before the shared Ginibre draw: one (outcomes, 2, n, n) call
    for seed in range(2000):
        n, outcomes = 1 + seed % 8, 1 + seed // 8 % 5
        draws = np.random.default_rng(seed).standard_normal((outcomes, 2, n, n))
        g = draws[:, 0] + 1j * draws[:, 1]
        blocks = g @ g.conj().swapaxes(-1, -2)
        values, vectors = np.linalg.eigh(sum(blocks))
        whitener = vectors @ np.diag(values ** -0.5) @ vectors.conj().T
        reference = as_povm(whitener @ blocks @ whitener)
        effects = random_povm(n, outcomes, seed)
        assert len(effects) == len(reference) == outcomes
        for effect, want in zip(effects, reference):
            assert_same_bits(effect, want)


def test_random_ensemble_matches_two_draw_states():
    for seed in range(2000):
        n, size = 1 + seed % 8, 1 + seed // 8 % 4
        rng = np.random.default_rng(seed)
        priors = rng.dirichlet(np.ones(size))
        child_seeds = rng.integers(0, 2**63 - 1, size=size)
        reference = cq_ensemble(priors, [reference_random_density(n, int(s)) for s in child_seeds])
        ensemble = random_ensemble(n, size, seed)
        assert ensemble.letters == reference.letters
        assert_same_bits(ensemble.priors, reference.priors)
        assert_same_bits(ensemble.states, reference.states)


def reference_hill_climb_basis(ensemble, seed):
    """The hill climb with its own Born einsum and its rotations' two Gaussian draws, as spelled
    before both moved to the shared kernels."""
    n, priors, states = ensemble.dim, ensemble.priors, ensemble.states

    def score(basis):
        born = np.einsum("ji,ajk,ki->ai", basis.conj(), states, basis).real
        return _mutual_information(_joint(priors, born))

    best_value, best_basis = -np.inf, None
    for child in np.random.SeedSequence(seed).spawn(channel.HILL_CLIMB_RESTARTS):
        rng = np.random.default_rng(child)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(g)
        basis = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        current, step = score(basis), 0.5
        for _ in range(channel.HILL_CLIMB_STEPS):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            values, vectors = np.linalg.eigh(step * (g + g.conj().T) / 2.0)
            candidate = vectors @ np.diag(np.exp(1j * values)) @ vectors.conj().T @ basis
            candidate_value = score(candidate)
            if candidate_value > current:
                basis, current = candidate, candidate_value
            else:
                step *= 0.95
        if current > best_value:
            best_value, best_basis = current, basis
    return best_basis


@pytest.mark.parametrize("n, size, seed", [(3, 3, 0), (4, 3, 1)])
def test_hill_climb_matches_its_own_spelling(n, size, seed):
    ensemble = random_ensemble(n, size, seed=7000 + seed)
    assert_same_bits(channel._hill_climb_basis(ensemble, seed), reference_hill_climb_basis(ensemble, seed))


class TestJointDistribution:
    def test_letter_marginal_equals_priors(self):
        for i in range(20):
            ens = random_ensemble(2 + i % 3, 2 + i % 3, seed=400 + i)
            effects = random_povm(ens.dim, 3, seed=500 + i)
            joint = joint_distribution(ens, effects)
            assert joint.sum(axis=1) == pytest.approx(ens.priors, abs=1e-12)

    def test_orthogonal_bits_read_perfectly(self):
        ens = cq_ensemble([0.5, 0.5], [ZERO, ONE])
        joint = joint_distribution(ens, basis_projectors(np.eye(2, dtype=complex)))
        assert np.allclose(joint, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)
        assert measured_information(ens, basis_projectors(np.eye(2, dtype=complex))) == (
            pytest.approx(1.0, abs=1e-12))


class TestHolevoBound:
    def test_zero_plus_chi(self):
        assert holevo_chi(ZERO_PLUS) == pytest.approx(ZERO_PLUS_CHI, abs=1e-9)

    def test_orthogonal_pure_states_reach_prior_entropy(self):
        ens = cq_ensemble([0.5, 0.5], [ZERO, ONE])
        assert holevo_chi(ens) == pytest.approx(specification_information(ens), abs=1e-12)

    def test_identical_states_carry_nothing(self):
        ens = cq_ensemble([0.3, 0.7], [ZERO, ZERO])
        assert holevo_chi(ens) == pytest.approx(0.0, abs=1e-12)

    def test_one_pure_letter_gives_positive_zero(self):
        ens = cq_ensemble([1.0], [ZERO])
        for value in (holevo_chi(ens), specification_information(ens)):
            assert value == 0.0 and np.copysign(1.0, value) == 1.0

    def test_measured_information_never_exceeds_chi(self):
        for i in range(30):
            n = 2 + i % 2
            ens = random_ensemble(n, 2 + i % 3, seed=600 + i)
            chi = holevo_chi(ens)
            povm = random_povm(n, 2 + i % 4, seed=700 + i)
            assert measured_information(ens, povm) <= chi + 1e-9
            projective = basis_projectors(random_basis(n, seed=800 + i))
            assert measured_information(ens, projective) <= chi + 1e-9

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_matches_per_state_entropies(self, n):
        for i in range(5):
            ens = random_ensemble(n, 1 + i, seed=50 * n + i)
            assert abs(holevo_chi(ens) - reference_holevo_chi(ens)) < 1e-14

    def test_coarse_graining_cannot_gain_information(self):
        for i in range(10):
            ens = random_ensemble(2, 3, seed=900 + i)
            effects = random_povm(2, 3, seed=1000 + i)
            merged = [effects[0] + effects[1], effects[2]]
            assert measured_information(ens, merged) <= (
                measured_information(ens, effects) + 1e-12)


class TestAccessibleInformation:
    def test_zero_plus_frozen_values(self):
        result = accessible_information(ZERO_PLUS)
        assert result.method == "grid"
        assert result.value == pytest.approx(1.0 - ZERO_PLUS_CHI, abs=1e-9)
        gap = holevo_chi(ZERO_PLUS) - result.value
        assert gap > 0.19

    def test_trine_frozen_value(self):
        result = accessible_information(TRINE)
        assert result.value == pytest.approx(0.459148, abs=1e-6)
        assert result.value == pytest.approx(
            measured_information(TRINE, result.effects), abs=1e-12)

    def test_qubit_search_is_deterministic(self):
        first = accessible_information(ZERO_PLUS, seed=0)
        second = accessible_information(ZERO_PLUS, seed=99)
        assert first.value == second.value
        for a, b in zip(first.effects, second.effects):
            assert np.array_equal(a, b)

    def test_orthogonal_bits_recovered_exactly(self):
        ens = cq_ensemble([0.5, 0.5], [ZERO, ONE])
        assert accessible_information(ens).value == pytest.approx(1.0, abs=1e-9)

    def test_effects_form_a_povm(self):
        result = accessible_information(ZERO_PLUS)
        assert all(e.shape == (2, 2) for e in as_povm(result.effects))

    def test_result_is_attainable(self):
        result = accessible_information(ZERO_PLUS)
        assert measured_information(ZERO_PLUS, result.effects) == pytest.approx(
            result.value, abs=1e-12)

    def test_hill_climb_respects_the_bound(self):
        ens = random_ensemble(3, 3, seed=42)
        result = accessible_information(ens, seed=1)
        assert result.method == "hill-climb"
        assert 0.0 <= result.value <= holevo_chi(ens) + 1e-9

    def test_hill_climb_is_seeded(self):
        ens = random_ensemble(3, 2, seed=7)
        first = accessible_information(ens, seed=3)
        second = accessible_information(ens, seed=3)
        assert first.value == second.value
        for a, b in zip(first.effects, second.effects):
            assert np.array_equal(a, b)

    def test_hill_climb_approaches_orthogonal_readout(self):
        states = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]),
                  np.diag([0.0, 0.0, 1.0])]
        ens = cq_ensemble([1 / 3] * 3, states)
        result = accessible_information(ens, seed=0)
        assert result.value <= np.log2(3) + 1e-9
        assert result.value > 1.5

    @pytest.mark.parametrize("n", [2, 3])
    def test_negative_seed_rejected_in_every_dimension(self, n):
        ens = random_ensemble(n, 2, seed=1)
        for seed in (-1, None, 1.5, True):
            with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
                accessible_information(ens, seed=seed)


class TestQubitScorer:
    ENSEMBLES = [ZERO_PLUS, TRINE, cq_ensemble([0.5, 0.5], [ZERO, ONE])] + [
        random_ensemble(2, 2 + i % 4, seed=1200 + i) for i in range(6)]

    @pytest.mark.parametrize("index", range(len(ENSEMBLES)))
    def test_matches_binary_entropy_reference(self, index):
        ens = self.ENSEMBLES[index]
        bloch = bloch_of(ens)
        directions = sampled_directions(200, seed=index)
        scores = _mutual_information(_joint(ens.priors, _qubit_born(bloch, directions)))
        expected = reference_qubit_mutual_information(ens.priors, bloch @ directions.T)
        assert np.max(np.abs(scores - expected)) < 1e-14

    @pytest.mark.parametrize("index", range(len(ENSEMBLES)))
    def test_born_weights_equal_joint_distribution(self, index):
        ens = self.ENSEMBLES[index]
        directions = sampled_directions(10, seed=100 + index)
        tables = _joint(ens.priors, _qubit_born(bloch_of(ens), directions))
        for direction, table in zip(directions, tables):
            effects = basis_projectors(spin_basis(direction))
            assert np.max(np.abs(table - joint_distribution(ens, effects))) < 1e-14


def reference_best_qubit_direction(ensemble):
    """The qubit grid search with every direction of a grid scored in one pass."""
    paulis = np.stack([PAULI_X, PAULI_Y, PAULI_Z])
    bloch = np.einsum("aij,sji->as", ensemble.states, paulis).real

    def best(thetas, phis):
        born = _qubit_born(bloch, _direction(thetas[:, None], phis).reshape(-1, 3))
        k = int(np.argmax(_mutual_information(_joint(ensemble.priors, born))))
        return thetas[k // phis.size], phis[k % phis.size]

    theta, phi = best(np.linspace(0.0, np.pi, QUBIT_GRID[0]),
                      np.linspace(0.0, 2.0 * np.pi, QUBIT_GRID[1], endpoint=False))
    span_theta = np.pi / (QUBIT_GRID[0] - 1)
    span_phi = 2.0 * np.pi / QUBIT_GRID[1]
    offsets = np.linspace(-1.0, 1.0, 33)
    for _ in range(5):
        theta, phi = best(theta + span_theta * offsets, phi + span_phi * offsets)
        span_theta /= 16.0
        span_phi /= 16.0
    return _direction(theta, phi)


BOUNDED_CHILD = """
import json, sys, time
import numpy as np
from quantinfo import *

np.linalg.eigh(np.eye(3) @ np.eye(3))  # BLAS and LAPACK reserve their buffers before the peak is read
if sys.platform == "linux":  # RLIMIT_AS and /proc/self/status are Linux's; elsewhere the case runs unbounded
    import resource
    with open("/proc/self/status") as status:
        peak = next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmPeak:"))
    resource.setrlimit(resource.RLIMIT_AS, (peak + {headroom}, resource.getrlimit(resource.RLIMIT_AS)[1]))
{source}
print(json.dumps(out))
"""


def run_bounded(source: str, headroom_mb: int):
    """Run source in a child whose address space may grow only headroom_mb past its peak after
    `import quantinfo`, and return the JSON-able `out` that source sets.

    RLIMIT_AS binds the child alone, and only on Linux; a case past its bound ends in MemoryError,
    failing here. The child turns every warning into an error, as the in-process suite does."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(p for p in (str(Path(channel.__file__).resolve().parents[1]),
                                                     os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-W", "error", "-c",
                           BOUNDED_CHILD.format(headroom=headroom_mb * 2**20, source=source)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def traced_peak(call):
    """Peak bytes traced while call() runs, above what was held when it started."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        if started:
            tracemalloc.stop()


class TestBlockedQubitGrid:
    TIES = [cq_ensemble([0.5, 0.5], [ZERO, ONE]), cq_ensemble([0.3, 0.7], [ZERO, ZERO]),
            cq_ensemble([1.0], [np.eye(2) / 2]), cq_ensemble([1.0], [PLUS]), ZERO_PLUS, TRINE]
    SEEDED = [random_ensemble(2, 1 + i % 6, seed=1300 + i) for i in range(24)] + [
        random_ensemble(2, 16, seed=1324)]
    ENSEMBLES = TIES + SEEDED

    @staticmethod
    def assert_matches_one_pass(ens):
        effects = tuple(basis_projectors(spin_basis(reference_best_qubit_direction(ens))))
        result = accessible_information(ens)
        assert result.value == measured_information(ens, effects)
        assert all(np.array_equal(a, b) for a, b in zip(result.effects, effects, strict=True))

    @pytest.mark.parametrize("index", range(len(ENSEMBLES)),
                             ids=["orthogonal", "identical", "maximally-mixed", "one-letter",
                                  "zero-plus", "trine"] + [f"seeded-{i}" for i in range(25)])
    def test_matches_one_pass_scorer(self, index):
        self.assert_matches_one_pass(self.ENSEMBLES[index])

    @pytest.mark.parametrize("weights", [2**10, 2**16, 2**20])
    def test_block_size_changes_no_bit(self, weights, monkeypatch):
        monkeypatch.setattr(channel, "_GRID_BLOCK_WEIGHTS", weights)
        self.assert_matches_one_pass(random_ensemble(2, 3, seed=1325))

    @pytest.mark.parametrize("letters", [2, 16, 119])
    def test_working_memory_is_flat_in_the_letter_count(self, letters):
        # one bound for every count up to the cap; no grid is built, and a single pass
        # over the grid would hold every direction's tables, about 4.5 MB more per letter
        ens = random_ensemble(2, letters, seed=1400 + letters)
        assert traced_peak(lambda: accessible_information(ens)) < 2**20


class TestQubitLetterCap:
    # 70,245 directions score two Born weights per letter at 8 work units each: 2**27 units admit 119 letters
    LARGEST = probability._WORK_CAP // (16 * channel._GRID_DIRECTIONS)

    def test_cap_counts_every_scored_weight(self):
        assert channel._GRID_DIRECTIONS == QUBIT_GRID[0] * QUBIT_GRID[1] + 5 * 33 ** 2
        assert self.LARGEST == 119

    def test_largest_accepted_count_finishes(self):
        # about 0.6 s on a 2-vCPU VM; the child's peak grew about 40 MB
        seconds, value, chi = run_bounded(
            f"ens = random_ensemble(2, {self.LARGEST}, seed=1500)\n"
            "start = time.perf_counter()\nresult = accessible_information(ens)\n"
            "out = [time.perf_counter() - start, result.value, holevo_chi(ens)]", headroom_mb=64)
        assert seconds < 10.0
        assert 0.0 <= value <= chi

    def test_next_count_rejected_before_the_search(self, monkeypatch):
        def unreachable(ensemble):
            raise AssertionError("the grid search ran")

        monkeypatch.setattr(channel, "_best_qubit_direction", unreachable)
        with pytest.raises(ValidationError) as caught:
            accessible_information(random_ensemble(2, self.LARGEST + 1, seed=1501))
        assert str(caught.value) == ("120 qubit letters need 134870400 work units, "
                                     "more than the work cap of 134217728")


class TestHillClimbCap:
    # the cost counts letters and dimension: 534 qutrit letters, or n = 23 at two letters
    @pytest.mark.parametrize("n, letters", [(3, 534), (23, 2)], ids=["letters", "dimension"])
    def test_largest_accepted_input_finishes(self, n, letters):
        # about 0.5 s on a 2-vCPU VM; the child's peak grew about 40 MB
        seconds, value, chi, method = run_bounded(
            f"ens = random_ensemble({n}, {letters}, seed=1600)\n"
            "start = time.perf_counter()\nresult = accessible_information(ens)\n"
            "out = [time.perf_counter() - start, result.value, holevo_chi(ens), result.method]", headroom_mb=64)
        assert seconds < 10.0
        assert method == "hill-climb"
        assert 0.0 <= value <= chi + 1e-9

    @pytest.mark.parametrize("n, letters, message", [
        (3, 535, "535 letters in dimension 3 need 134340360 work units"),
        (24, 2, "2 letters in dimension 24 need 134608896 work units"),
    ], ids=["letters", "dimension"])
    def test_next_input_rejected_before_the_search(self, n, letters, message, monkeypatch):
        def unreachable(ensemble, seed):
            raise AssertionError("the hill climb ran")

        monkeypatch.setattr(channel, "_hill_climb_basis", unreachable)
        with pytest.raises(ValidationError) as caught:
            accessible_information(random_ensemble(n, letters, seed=1601))
        assert str(caught.value) == message + ", more than the work cap of 134217728"


class TestWrongBasisDemo:
    def test_aligned_readout_is_lossless(self):
        report = wrong_basis_demo(0.0)
        assert report.mutual == pytest.approx(1.0, abs=1e-12)
        assert report.conditional == pytest.approx(0.0, abs=1e-12)

    def test_sixty_degree_tilt(self):
        report = wrong_basis_demo(np.pi / 3)
        assert np.allclose(report.joint, [[0.375, 0.125], [0.125, 0.375]], atol=1e-12)
        assert report.mutual == pytest.approx(0.188722, abs=1e-5)
        assert report.conditional == pytest.approx(0.811278, abs=1e-5)
        assert report.source_entropy == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_readout_erases_everything(self):
        report = wrong_basis_demo(np.pi / 2)
        assert report.mutual == pytest.approx(0.0, abs=1e-12)
        assert report.conditional == pytest.approx(1.0, abs=1e-12)

    def test_entropy_bookkeeping_is_consistent(self):
        report = wrong_basis_demo(0.7, priors=(0.8, 0.2))
        assert report.joint.sum(axis=1) == pytest.approx([0.8, 0.2], abs=1e-12)
        assert report.mutual == pytest.approx(
            report.source_entropy - report.conditional, abs=1e-12)
        assert mutual_information(report.joint) == pytest.approx(report.mutual, abs=1e-14)

    def test_needs_exactly_two_priors(self):
        with pytest.raises(ValidationError):
            wrong_basis_demo(0.3, priors=(0.5, 0.25, 0.25))

    @pytest.mark.parametrize("theta", [np.inf, -np.inf, np.nan])
    def test_non_finite_theta_rejected_without_warning(self, theta):
        # pytest turns RuntimeWarning into an error, so sin(inf) would fail this test
        with pytest.raises(ValidationError, match="tilt angle must be finite"):
            wrong_basis_demo(theta)


class TestRandomEnsemble:
    def test_valid_and_seeded(self):
        ens = random_ensemble(3, 4, seed=11)
        assert ens.size == 4 and ens.dim == 3
        again = random_ensemble(3, 4, seed=11)
        assert np.array_equal(ens.priors, again.priors)
        for a, b in zip(ens.states, again.states):
            assert np.array_equal(a, b)

    def test_bad_size_rejected(self):
        with pytest.raises(ValidationError):
            random_ensemble(2, 0, seed=0)


@pytest.mark.parametrize("make", [
    lambda: random_distribution(2.5, 0),
    lambda: random_doubly_stochastic(2.0, 0),
    lambda: random_density(2.5, 0),
    lambda: random_density(3, 0, rank=1.5),
    lambda: random_basis(True, 0),
    lambda: random_ensemble(2, 2.0, 0),
    lambda: random_povm(2.0, 2, 0),
    lambda: random_povm(2, True, 0),
], ids=["distribution", "doubly-stochastic", "density-n", "density-rank", "basis",
        "ensemble-size", "povm-n", "povm-outcomes"])
def test_generator_sizes_must_be_integers(make):
    with pytest.raises(ValidationError, match="integer"):
        make()


SEEDED = {
    "distribution": lambda seed: random_distribution(3, seed),
    "doubly-stochastic": lambda seed: random_doubly_stochastic(3, seed),
    "density": lambda seed: random_density(2, seed),
    "basis": lambda seed: random_basis(2, seed),
    "ensemble": lambda seed: random_ensemble(2, 2, seed),
    "povm": lambda seed: random_povm(2, 2, seed),
    "accessible": lambda seed: accessible_information(ZERO_PLUS, seed),
}


@pytest.mark.parametrize("seed", [-1, np.int64(-5), 1.5, "a", None, True, [1, 2]],
                         ids=["negative", "numpy-negative", "float", "string", "none", "bool", "list"])
@pytest.mark.parametrize("draw", SEEDED.values(), ids=SEEDED.keys())
def test_seeds_must_be_nonnegative_integers(draw, seed):
    # numpy raised its own ValueError or TypeError for some, and took None as fresh entropy
    with pytest.raises(ValidationError, match=r"^seed must be a nonnegative integer, got "):
        draw(seed)
    assert draw(np.uint64(7)) is not None
