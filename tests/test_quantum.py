from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from quantinfo.probability import _memo
from quantinfo.quantum import EIGENVALUE_TOL, HERMITIAN_TOL, TRACE_TOL, _check_matrices
from test_probability import assert_same_outcome

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


class TestValidationMemo:
    """Each distinct input is checked once; the memo must never change a verdict."""

    def test_in_place_edit_is_checked_again(self):
        rho = random_density(3, seed=71)
        as_density(rho)
        rho[0, 0] += 1.0  # trace 2: no longer a density operator
        with pytest.raises(ValidationError):
            as_density(rho)

    def test_rejected_input_raises_every_time(self):
        bad = np.diag([1.5, -0.5])
        for _ in range(2):
            with pytest.raises(ValidationError):
                as_density(bad)

    @pytest.mark.parametrize("loose_first", [True, False])
    def test_tolerance_is_part_of_the_key(self, loose_first):
        skew = 2e-7 if loose_first else 3e-7  # a fresh input for each order
        x = np.array([[0.5, skew], [0.0, 0.5]])  # skew away from Hermitian

        def loose():
            assert as_density(x, tol=1e-6)[0, 1] == pytest.approx(skew / 2, abs=1e-20)

        def strict():
            with pytest.raises(ValidationError):
                as_density(x)

        order = (loose, strict) if loose_first else (strict, loose)
        for check in order + order:
            check()

    def test_array_tolerance_gives_the_float_verdict(self):
        # a 0-d array cannot be hashed into a key; the check must still run
        x = np.array([[0.5, 4e-7], [0.0, 0.5]])
        for _ in range(2):
            np.testing.assert_array_equal(as_density(x, tol=np.array(1e-6)),
                                          as_density(x, tol=1e-6))
            with pytest.raises(ValidationError):
                as_density(x, tol=np.array(1e-7))

    def test_entry_larger_than_the_budget_is_checked_not_stored(self):
        as_density(random_density(2, seed=74))
        newest, size = next(reversed(_memo._entries)), _memo.size
        # n = 200: key and value together pass the budget; n = 300: the key alone
        for n in (200, 300):
            assert as_density(np.eye(n) / n)[0, 0] == pytest.approx(1.0 / n, abs=1e-18)
            with pytest.raises(ValidationError):
                as_density(np.eye(n))
        assert next(reversed(_memo._entries)) is newest and _memo.size == size

    @pytest.mark.parametrize("check, make", [
        (as_density, lambda: random_density(3, seed=72)),
        (as_basis, lambda: random_basis(3, seed=73)),
    ])
    def test_writing_to_a_result_changes_no_later_result(self, check, make):
        # the first result is the one the check computed (for a basis, the
        # caller's own array); the later ones are memo hits
        results = []
        for _ in range(3):
            out = check(make())
            results.append(out.copy())
            out[:] = 0.0
        for later in results[1:]:
            np.testing.assert_array_equal(later, results[0])


def reference_check_matrices(arr, ndim, kind, tol):
    """_check_matrices as it was before it tested finiteness through one norm: isfinite first."""
    if arr.ndim != ndim or arr.shape[-1] != arr.shape[-2] or arr.size == 0:
        raise ValidationError(f"expected a nonempty square matrix{'' if ndim == 2 else ' stack'}")
    if not np.isfinite(arr).all():
        raise ValidationError("matrix entries must be finite")
    if kind == "basis":
        if np.abs(arr.conj().swapaxes(-1, -2) @ arr - np.eye(arr.shape[-1])).max() > tol:
            raise ValidationError("basis columns are not orthonormal within tolerance")
        return arr
    adjoint = arr.conj().swapaxes(-1, -2)
    if np.abs(arr - adjoint).max() > tol:
        raise ValidationError("matrix is not Hermitian within tolerance")
    arr = (arr + adjoint) / 2.0
    if kind == "density":
        traces = np.trace(arr, axis1=-2, axis2=-1).real
        drift = abs(traces - 1.0)
        if np.count_nonzero(drift > TRACE_TOL):
            raise ValidationError(f"trace is {float(np.ravel(traces)[np.argmax(drift)])!r}, not 1")
        arr = arr / traces[..., None, None]
        smallest = np.linalg.eigvalsh(arr)[..., 0]
        if np.count_nonzero(smallest < -EIGENVALUE_TOL):
            raise ValidationError(f"matrix is not positive semidefinite: min eigenvalue {np.min(smallest):.3e}")
    return arr


INF, NAN = np.inf, np.nan
MATRIX_EDGES = {
    "nan-entry": ([[0.5, NAN], [0.0, 0.5]], 2),
    "inf-off-diagonal": ([[0.5, INF], [0.0, 0.5]], 2),
    "hermitian-inf-diagonal": ([[INF, 0.0], [0.0, 0.5]], 2),
    "hermitian-inf-pair": ([[0.5, INF], [INF, 0.5]], 2),
    "-inf-diagonal": ([[-INF, 0.0], [0.0, 1.0]], 2),
    "inf-and-nan-parts": ([[complex(INF, NAN), 0.0], [0.0, 0.5]], 2),
    "imaginary-inf": ([[0.5, complex(0.0, INF)], [complex(0.0, -INF), 0.5]], 2),
    "large-finite": ([[1e200, 0.0], [0.0, 1e200]], 2),
    "symmetrizing-overflows": ([[1e308, 0.0], [0.0, 0.0]], 2),
    "stack-one-nan": ([np.eye(2) / 2, [[0.5, 0.0], [0.0, NAN]], np.eye(2) / 2], 3),
    "stack-one-inf-diagonal": ([np.eye(2) / 2, [[INF, 0.0], [0.0, 0.5]]], 3),
    "stack-one-skew": ([np.eye(2) / 2, [[0.5, 0.1], [0.0, 0.5]]], 3),
    "stack-one-trace": ([np.eye(2) / 2, np.eye(2)], 3),
    "not-hermitian": ([[0.5, 0.1], [0.0, 0.5]], 2),
    "skew-at-tol": ([[0.5, 2.0 ** -30], [0.0, 0.5]], 2),
    "negative-zero": ([[-0.0, complex(-0.0, -0.0)], [complex(-0.0, 0.0), 1.0]], 2),
    "trace-off": ([[0.6, 0.0], [0.0, 0.6]], 2),
    "trace-noise": ([[0.5 + 4e-10, 0.0], [0.0, 0.5]], 2),
    "negative-eigenvalue": ([[1.5, 0.0], [0.0, -0.5]], 2),
    "eigenvalue-noise": ([[1.0 + 5e-10, 0.0], [0.0, -5e-10]], 2),
    "orthonormal": ([[1.0, 0.0], [0.0, 1.0]], 2),
    "not-orthonormal": ([[1.0, 1.0], [0.0, 0.0]], 2),
    "wrong-shape": ([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]], 2),
    "empty": (np.zeros((0, 0)), 2),
    "wrong-ndim": (np.eye(2) / 2, 3),
}


class TestMatrixCheckMatchesReference:
    """Testing finiteness through one norm keeps every verdict, message and output bit."""

    @pytest.mark.parametrize("kind", ["hermitian", "density", "basis"])
    @pytest.mark.parametrize("case", list(MATRIX_EDGES))
    def test_edge_cases(self, case, kind):
        values, ndim = MATRIX_EDGES[case]
        arr = np.asarray(values, dtype=complex)
        for tol in (HERMITIAN_TOL, 2.0 ** -30):
            assert_same_outcome(_check_matrices, reference_check_matrices, arr, ndim, kind, tol)

    def test_seeded_inputs(self):
        for i in range(120):
            n = 1 + i % 5
            rho = random_density(n, seed=3000 + i, rank=1 + i % n)
            u = random_basis(n, seed=4000 + i)
            stack = np.stack([random_density(n, seed=5000 + 3 * i + j) for j in range(3)])
            for arr, ndim, kind in ((rho, 2, "density"), (rho, 2, "hermitian"), (u, 2, "basis"),
                                    (stack, 3, "density"), (stack * 1.01, 3, "density"),
                                    (u + 1e-10, 2, "basis")):
                assert_same_outcome(_check_matrices, reference_check_matrices,
                                    arr, ndim, kind, HERMITIAN_TOL)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_property_with_injected_specials(self, data):
        n = data.draw(st.integers(1, 4))
        count = data.draw(st.integers(1, 3))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        kind = data.draw(st.sampled_from(["hermitian", "density", "basis"]))
        make = random_basis if kind == "basis" else random_density
        arr = np.stack([make(n, seed=seed + j) for j in range(count)])
        specials = st.sampled_from([NAN, INF, -INF, complex(INF, NAN), complex(0.0, INF),
                                    -0.0, 1e200, 1e308, 1e-10])
        for _ in range(data.draw(st.integers(0, 3))):
            b, i, j = (data.draw(st.integers(0, k - 1)) for k in (count, n, n))
            value = data.draw(specials)
            arr[b, i, j] = value
            if data.draw(st.booleans()):  # keep the pair Hermitian
                arr[b, j, i] = np.conj(value)
        if count == 1 and data.draw(st.booleans()):
            arr = arr[0]
        tol = data.draw(st.sampled_from([HERMITIAN_TOL, 1e-6]))
        assert_same_outcome(_check_matrices, reference_check_matrices, arr, arr.ndim, kind, tol)


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
