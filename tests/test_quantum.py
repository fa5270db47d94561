from __future__ import annotations

import numpy as np
import pytest

from quantinfo import (
    ValidationError,
    as_basis,
    as_density,
    as_hermitian,
    basis_projectors,
    bloch_state,
    bloch_vector,
    born_probabilities,
    build_mubs,
    computational_basis,
    hs_distance,
    hs_inner_product,
    is_pure,
    luders_update,
    majorizes,
    pure_state,
    purity,
    quadratic_information,
    random_basis,
    random_density,
    rotate_basis,
    shannon_entropy,
    smallest_eigenvalue,
    spectrum,
    spin_basis,
    total_information,
    von_neumann_entropy,
)

MIXED_ZERO_PLUS = 0.5 * pure_state([1, 0]) + 0.5 * pure_state([1, 1])


class TestValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            as_hermitian([[0, 1], [0, 0]])

    def test_symmetrizes_rounding_noise(self):
        noisy = np.array([[1.0, 1e-12j], [0.0, 0.0]])
        out = as_hermitian(noisy)
        assert np.allclose(out, out.conj().T)

    def test_density_trace_enforced(self):
        with pytest.raises(ValidationError):
            as_density(np.eye(2))

    def test_density_negative_eigenvalue_rejected(self):
        with pytest.raises(ValidationError):
            as_density(np.diag([1.5, -0.5]))

    def test_density_accepts_eigenvalue_noise(self):
        as_density(np.diag([1.0 + 5e-10, -5e-10]))

    def test_basis_orthonormality_enforced(self):
        with pytest.raises(ValidationError):
            as_basis(np.array([[1, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("check, member", [
        (as_hermitian, np.eye(2) / 2),
        (as_density, np.eye(2) / 2),
        (as_basis, np.eye(2)),
        (lambda stack: born_probabilities(stack, np.eye(2)), np.eye(2) / 2),
        (lambda stack: born_probabilities(np.eye(2) / 2, stack), np.eye(2)),
        (total_information, np.eye(2) / 2),
    ], ids=["as_hermitian", "as_density", "as_basis", "born_state", "born_basis",
            "total_information"])
    def test_stack_rejected_by_single_matrix_entry_points(self, check, member):
        # the validators check stacks internally; a public single-matrix
        # entry point still refuses a stack of valid members
        check(member)
        with pytest.raises(ValidationError):
            check(np.stack([member, member]))

    def test_bloch_length_enforced(self):
        with pytest.raises(ValidationError):
            bloch_state([0.8, 0.8, 0.8])

    def test_bloch_round_trip(self):
        r = [0.3, -0.2, 0.4]
        assert np.allclose(bloch_vector(bloch_state(r)), r, atol=1e-12)


class TestBornProbabilities:
    def test_bloch_state_in_pauli_bases(self):
        rho = bloch_state([0.3, 0.0, 0.4])
        z, x, y = build_mubs(2)
        assert born_probabilities(rho, z) == pytest.approx([0.7, 0.3], abs=1e-12)
        assert born_probabilities(rho, x) == pytest.approx([0.65, 0.35], abs=1e-12)
        assert born_probabilities(rho, y) == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_majorized_by_spectrum(self):
        for i in range(50):
            n = 2 + i % 4
            rho = random_density(n, seed=2000 + i)
            basis = random_basis(n, seed=2100 + i)
            assert majorizes(spectrum(rho), born_probabilities(rho, basis))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            born_probabilities(random_density(3, seed=1), computational_basis(2))


class TestLudersUpdate:
    def test_kills_coherences(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        x_basis = build_mubs(2)[1]
        assert np.allclose(luders_update(rho, x_basis), np.eye(2) / 2, atol=1e-12)

    def test_eigenbasis_measurement_is_identity(self):
        for i in range(10):
            rho = random_density(4, seed=2200 + i)
            _, vectors = np.linalg.eigh(rho)
            assert np.allclose(luders_update(rho, vectors), rho, atol=1e-12)

    def test_idempotent(self):
        rho = random_density(3, seed=9)
        basis = random_basis(3, seed=10)
        once = luders_update(rho, basis)
        assert np.allclose(luders_update(once, basis), once, atol=1e-12)

    def test_spectrum_spreads(self):
        for i in range(50):
            n = 2 + i % 3
            rho = random_density(n, seed=2300 + i)
            basis = random_basis(n, seed=2400 + i)
            assert majorizes(spectrum(rho), spectrum(luders_update(rho, basis)))


class TestSpectrumAndEntropy:
    def test_half_zero_half_plus_spectrum(self):
        expected = [(1 + 2 ** -0.5) / 2, (1 - 2 ** -0.5) / 2]
        assert spectrum(MIXED_ZERO_PLUS) == pytest.approx(expected, abs=1e-12)

    def test_half_zero_half_plus_entropy(self):
        assert von_neumann_entropy(MIXED_ZERO_PLUS) == pytest.approx(0.600878, abs=1e-5)

    def test_pure_state_entropy_zero(self):
        for n in (2, 3, 5, 7):
            assert von_neumann_entropy(random_density(n, seed=n, rank=1)) < 1e-9

    def test_maximally_mixed(self):
        for n in (2, 3, 4):
            rho = np.eye(n) / n
            assert von_neumann_entropy(rho) == pytest.approx(np.log2(n), abs=1e-12)
            assert total_information(rho) == pytest.approx(0.0, abs=1e-15)

    def test_entropy_equals_entropy_of_spectrum(self):
        rho = random_density(5, seed=31)
        assert von_neumann_entropy(rho) == pytest.approx(
            shannon_entropy(spectrum(rho)), abs=1e-12)

    def test_unitary_invariance(self):
        rho = random_density(4, seed=32)
        u = random_basis(4, seed=33)
        rotated = u @ rho @ u.conj().T
        assert von_neumann_entropy(rotated) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-10)
        assert total_information(rotated) == pytest.approx(
            total_information(rho), abs=1e-10)


class TestPurityAndTotalInformation:
    def test_bloch_example(self):
        rho = bloch_state([0.3, 0.0, 0.4])
        assert purity(rho) == pytest.approx(0.625, abs=1e-12)
        assert total_information(rho) == pytest.approx(0.125, abs=1e-12)

    def test_pure_states_hit_the_ceiling(self):
        for n in (2, 3, 5, 7):
            rho = random_density(n, seed=40 + n, rank=1)
            assert total_information(rho) == pytest.approx(1 - 1 / n, abs=1e-12)
            assert is_pure(rho)

    def test_mixed_state_below_ceiling(self):
        rho = random_density(4, seed=50)
        assert not is_pure(rho)
        assert 0.0 <= total_information(rho) < 1 - 1 / 4

    def test_distance_to_maximally_mixed_squared(self):
        for i in range(10):
            n = 2 + i % 4
            rho = random_density(n, seed=2500 + i)
            assert hs_distance(rho, np.eye(n) / n) ** 2 == pytest.approx(
                total_information(rho), abs=1e-12)


class TestHilbertSchmidt:
    def test_cross_basis_projectors(self):
        z, x, _ = build_mubs(2)
        p = basis_projectors(z)[0]
        q = basis_projectors(x)[0]
        assert hs_inner_product(p, q) == pytest.approx(0.5, abs=1e-12)

    def test_inner_product_is_symmetric(self):
        a = as_hermitian(random_density(3, seed=60))
        b = as_hermitian(random_density(3, seed=61))
        assert hs_inner_product(a, b) == pytest.approx(hs_inner_product(b, a), abs=1e-14)

    def test_distance_is_a_metric_on_examples(self):
        a = random_density(3, seed=62)
        b = random_density(3, seed=63)
        c = random_density(3, seed=64)
        assert hs_distance(a, a) == pytest.approx(0.0, abs=1e-12)
        assert hs_distance(a, b) == pytest.approx(hs_distance(b, a), abs=1e-14)
        assert hs_distance(a, c) <= hs_distance(a, b) + hs_distance(b, c) + 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            hs_inner_product(np.eye(2), np.eye(3))


class TestBases:
    def test_rotate_basis_z_is_computational(self):
        assert np.allclose(rotate_basis("z", 0.0), np.eye(2), atol=1e-12)
        assert np.allclose(rotate_basis("z", 1.3), np.eye(2), atol=1e-12)

    def test_rotate_basis_to_x_gives_plus_minus(self):
        basis = rotate_basis("x", np.pi / 2)
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        assert np.allclose(basis[:, 0], plus, atol=1e-12)
        assert np.allclose(basis[:, 1], minus, atol=1e-12)

    def test_rotate_basis_bad_axis(self):
        with pytest.raises(ValidationError):
            rotate_basis("q", 0.1)

    def test_spin_basis_diagonalizes_the_observable(self):
        rng = np.random.default_rng(65)
        for _ in range(10):
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            basis = spin_basis(direction)
            pauli = (direction[0] * np.array([[0, 1], [1, 0]])
                     + direction[1] * np.array([[0, -1j], [1j, 0]])
                     + direction[2] * np.array([[1, 0], [0, -1]]))
            values = np.diag(basis.conj().T @ pauli @ basis).real
            assert values == pytest.approx([1.0, -1.0], abs=1e-12)

    def test_spin_basis_phase_convention(self):
        basis = spin_basis([0.2, -0.5, 0.6])
        for j in range(2):
            lead = basis[np.flatnonzero(np.abs(basis[:, j]) > 1e-12)[0], j]
            assert abs(lead.imag) < 1e-12
            assert lead.real > 0

    def test_random_basis_is_unitary_and_seeded(self):
        u = random_basis(5, seed=70)
        assert np.allclose(u.conj().T @ u, np.eye(5), atol=1e-12)
        assert np.array_equal(u, random_basis(5, seed=70))
        assert not np.array_equal(u, random_basis(5, seed=71))


class TestRandomDensity:
    def test_valid_and_seeded(self):
        rho = random_density(4, seed=80)
        as_density(rho)
        assert np.array_equal(rho, random_density(4, seed=80))
        assert not np.array_equal(rho, random_density(4, seed=81))

    def test_rank_control(self):
        rho = random_density(5, seed=82, rank=2)
        eigenvalues = np.linalg.eigvalsh(rho)
        assert (eigenvalues > 1e-12).sum() == 2

    def test_bad_rank_rejected(self):
        with pytest.raises(ValidationError):
            random_density(3, seed=0, rank=4)


class TestSmallestEigenvalue:
    def test_reports_without_repairing(self):
        value = smallest_eigenvalue(np.diag([1.2, -0.2]))
        assert value == pytest.approx(-0.2, abs=1e-12)
