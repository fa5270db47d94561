from __future__ import annotations

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
    computational_basis,
    cq_ensemble,
    holevo_chi,
    joint_distribution,
    measured_information,
    mutual_information,
    pure_state,
    random_basis,
    random_ensemble,
    random_povm,
    specification_information,
    spin_basis,
    von_neumann_entropy,
    wrong_basis_demo,
)
from quantinfo.channel import _joint, _qubit_born
from quantinfo.probability import _mutual_information

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
        effects = as_povm(basis_projectors(computational_basis(3)))
        assert len(effects) == 3

    def test_not_summing_to_identity(self):
        with pytest.raises(ValidationError):
            as_povm([np.eye(2) / 2, np.eye(2) / 4])

    def test_negative_effect(self):
        with pytest.raises(ValidationError):
            as_povm([np.diag([1.5, -0.5]), np.diag([-0.5, 1.5])])

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="mismatched dimensions"):
            as_povm([np.eye(2) / 2, np.eye(3) / 3])

    def test_declared_dimension_enforced(self):
        with pytest.raises(ValidationError):
            as_povm([np.eye(2)], dim=3)

    def test_random_povm_is_valid_and_seeded(self):
        effects = random_povm(3, 4, seed=5)
        assert len(effects) == 4
        again = random_povm(3, 4, seed=5)
        for a, b in zip(effects, again):
            assert np.array_equal(a, b)


class TestJointDistribution:
    def test_letter_marginal_equals_priors(self):
        for i in range(20):
            ens = random_ensemble(2 + i % 3, 2 + i % 3, seed=400 + i)
            effects = random_povm(ens.dim, 3, seed=500 + i)
            joint = joint_distribution(ens, effects)
            assert joint.sum(axis=1) == pytest.approx(ens.priors, abs=1e-12)

    def test_orthogonal_bits_read_perfectly(self):
        ens = cq_ensemble([0.5, 0.5], [ZERO, ONE])
        joint = joint_distribution(ens, basis_projectors(computational_basis(2)))
        assert np.allclose(joint, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)
        assert measured_information(ens, basis_projectors(computational_basis(2))) == (
            pytest.approx(1.0, abs=1e-12))


class TestHolevoBound:
    def test_zero_plus_chi(self):
        assert holevo_chi(ZERO_PLUS) == pytest.approx(0.600878, abs=1e-4)

    def test_orthogonal_pure_states_reach_prior_entropy(self):
        ens = cq_ensemble([0.5, 0.5], [ZERO, ONE])
        assert holevo_chi(ens) == pytest.approx(specification_information(ens), abs=1e-12)

    def test_identical_states_carry_nothing(self):
        ens = cq_ensemble([0.3, 0.7], [ZERO, ZERO])
        assert holevo_chi(ens) == pytest.approx(0.0, abs=1e-12)

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
        assert result.value == pytest.approx(0.39912, abs=1e-3)
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
        as_povm(result.effects, dim=2)

    def test_result_is_attainable(self):
        result = accessible_information(ZERO_PLUS)
        assert measured_information(ZERO_PLUS, result.effects) == pytest.approx(
            result.value, abs=1e-12)

    def test_hill_climb_respects_the_bound(self):
        ens = random_ensemble(3, 3, seed=42)
        result = accessible_information(ens, seed=1, restarts=2, steps=60)
        assert result.method == "hill-climb"
        assert 0.0 <= result.value <= holevo_chi(ens) + 1e-9

    def test_hill_climb_is_seeded(self):
        ens = random_ensemble(3, 2, seed=7)
        first = accessible_information(ens, seed=3, restarts=2, steps=40)
        second = accessible_information(ens, seed=3, restarts=2, steps=40)
        assert first.value == second.value
        for a, b in zip(first.effects, second.effects):
            assert np.array_equal(a, b)

    def test_hill_climb_approaches_orthogonal_readout(self):
        states = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]),
                  np.diag([0.0, 0.0, 1.0])]
        ens = cq_ensemble([1 / 3] * 3, states)
        result = accessible_information(ens, seed=0, restarts=4, steps=200)
        assert result.value <= np.log2(3) + 1e-9
        assert result.value > 1.5

    def test_empty_budget_rejected(self):
        ens = random_ensemble(3, 2, seed=1)
        with pytest.raises(ValidationError):
            accessible_information(ens, restarts=0)
        with pytest.raises(ValidationError):
            accessible_information(ens, steps=0)


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
