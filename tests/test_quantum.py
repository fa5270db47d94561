from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantinfo import (
    ValidationError,
    as_basis,
    as_density,
    as_hermitian,
    as_povm,
    basis_projectors,
    bloch_state,
    bloch_vector,
    born_probabilities,
    born_table,
    build_mubs,
    hs_distance,
    hs_inner_product,
    information_by_basis,
    information_sum,
    is_pure,
    joint_eigenstate,
    luders_update,
    majorizes,
    pauli_product,
    proposition_information,
    pure_state,
    purity,
    quadratic_information,
    random_basis,
    random_density,
    shannon_entropy,
    smallest_eigenvalue,
    spectrum,
    spin_basis,
    total_information,
    von_neumann_entropy,
)
from quantinfo import entangle, quantum
from quantinfo.probability import TOL, _checked, _renormalize
from quantinfo.quantum import PAULI_X, PAULI_Y, PAULI_Z, _born, _check_matrices, _fix_column_phases
from test_probability import assert_same_outcome, outcome

MIXED_ZERO_PLUS = 0.5 * pure_state([1, 0]) + 0.5 * pure_state([1, 1])
# h((1 + 1/sqrt2)/2): the entropy of MIXED_ZERO_PLUS, the Holevo chi of |0>/|+> at equal priors,
# and 1 minus that ensemble's accessible information (Levitin 1995)
ZERO_PLUS_CHI = -sum(p * math.log2(p) for p in ((1.0 + math.sqrt(0.5)) / 2.0, (1.0 - math.sqrt(0.5)) / 2.0))
NORM2_CAP = np.finfo(float).max / 4.0
TOO_LARGE = "matrix entries too large: squared norm must be below 4.494e+307"


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

    @pytest.mark.parametrize("vector", [
        [[1, 0], [0, 1]], [[1, 0]], 1.0, [], [1, np.nan], [[1, 0], [1]]],
        ids=["matrix", "row", "scalar", "empty", "nan", "ragged"])
    def test_pure_state_takes_only_a_vector(self, vector):
        with pytest.raises(ValidationError):
            pure_state(vector)

    @pytest.mark.parametrize("call, message", [
        (lambda: pure_state([0, 0]), "state vector has zero norm"),
        (lambda: bloch_state([0.1, 0.2]), "expected a finite Bloch vector of length 3"),
        (lambda: bloch_state([0.0, np.nan, 0.0]), "expected a finite Bloch vector of length 3"),
        (lambda: bloch_state([1e200, 0.0, 0.0]), "Bloch vector has length inf > 1"),
        (lambda: bloch_vector(np.eye(3) / 3), "Bloch vector is defined for qubit states only"),
        (lambda: spin_basis([[0.0, 0.0, 1.0]]), "expected a finite direction vector of length 3"),
        (lambda: spin_basis([0.0, 0.0, 0.0]), "direction vector has zero norm"),
        (lambda: bloch_state(["a", 0, 0]), "Bloch vector: mismatched dimensions or non-numeric entries"),
        (lambda: spin_basis(["a", 0, 1]),
         "direction vector: mismatched dimensions or non-numeric entries"),
        (lambda: spin_basis({"x": 1}), "direction vector: mismatched dimensions or non-numeric entries"),
    ], ids=["zero-vector", "bloch-length", "bloch-nan", "bloch-overflow", "bloch-of-qutrit",
            "direction-shape", "zero-direction", "bloch-not-numbers", "direction-not-numbers",
            "direction-dict"])
    def test_rejection_names_its_reason(self, call, message):
        with pytest.raises(ValidationError) as caught:
            call()
        assert str(caught.value) == message

    @pytest.mark.parametrize("call, expected", [
        (lambda: pure_state([1e-170, 0]), lambda: pure_state([1, 0])),
        (lambda: spin_basis([0, 0, 1e-300]), lambda: spin_basis([0, 0, 1])),
        (lambda: pure_state([1e200, 1e200]), lambda: pure_state([1, 1])),
        (lambda: spin_basis([1e200, 0, 0]), lambda: spin_basis([1, 0, 0])),
        (lambda: pure_state([1e-160, 1e-160]), lambda: pure_state([1, 1])),
        (lambda: pure_state([5e-324j, 5e-324]), lambda: pure_state([1j, 1])),
    ], ids=["state-underflow", "direction-underflow", "state-overflow", "direction-overflow",
            "state-subnormal-sum", "state-subnormal-complex"])
    def test_norm_survives_extreme_magnitudes(self, call, expected):
        # each vector's squared norm is subnormal, zero or infinite, yet its direction
        # is well defined and must come out exactly as for the rescaled vector
        np.testing.assert_array_equal(call(), expected())

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

    @pytest.mark.parametrize("matrix", [
        [[0.5, 1e308], [1e308, 0.5]],
        [[0.4, 1e308, 0.0], [1e308, 0.3, 0.0], [0.0, 0.0, 0.3]],
        [[1e200, 0.0], [0.0, -1e200]],
    ], ids=["2x2-pair", "3x3-pair", "opposite-diagonal"])
    def test_huge_entries_rejected_as_density(self, matrix):
        # the symmetrized sum used to overflow to a NaN state or a LinAlgError
        (result, caught) = outcome(as_density, matrix)
        assert result == (ValidationError, TOO_LARGE)
        assert caught == set()

    def test_huge_hermitian_rejected(self):
        # rejected whatever its skew, with no warning on the way
        for huge in ([[1e308, 1.7e308 + 1.7e308j], [1.7e308 - 1.7e308j, -1.79e308]],
                     [[0.0, 1.7e308], [-1.7e308, 0.0]], [[1e308, 2e-9], [0.0, 0.0]],
                     [[6.71e153, 0.0], [0.0, 0.0]]):
            assert outcome(as_hermitian, huge) == ((ValidationError, TOO_LARGE), set())
        # just below the bound: symmetrized exactly, the skew judged at the full tolerance
        matrix = np.array([[6e153, 1e153 + 1e153j], [1e153 - 1e153j, -1e153]])
        (out, caught) = outcome(as_hermitian, matrix)
        assert caught == set()
        np.testing.assert_array_equal(out, matrix)
        (result, caught) = outcome(as_hermitian, [[6e153, 2e-9], [0.0, 0.0]])
        assert (result, caught) == ((ValidationError, "matrix is not Hermitian within tolerance"), set())
        assert as_hermitian([[6e153, 5e-10], [0.0, 0.0]])[0, 1] == 2.5e-10

    def test_density_check_is_idempotent(self):
        # checking a checked state, or stack, again returns its bits unchanged
        for i in range(600):
            n = 1 + i % 8
            rho = random_density(n, seed=6000 + i) * (1.0 + (i % 6) * 1e-10)  # trace drift up to 5e-10
            stack = np.stack([rho, random_density(n, seed=7000 + i)])
            for arr, ndim in ((rho, 2), (stack, 3)):
                once = _check_matrices(arr, ndim, "density")
                assert _check_matrices(once.copy(), ndim, "density").tobytes() == once.tobytes()

    def test_bloch_length_enforced(self):
        with pytest.raises(ValidationError):
            bloch_state([0.8, 0.8, 0.8])

    @pytest.mark.parametrize("length, accepted", [
        (1.0 + TOL, True), (float(np.nextafter(1.0 + TOL, 2.0)), False)], ids=["at-tol", "past-tol"])
    def test_bloch_length_edge(self, length, accepted):
        # a length past 1 by at most TOL passes, as every deviation is judged
        for axis in np.eye(3):
            if accepted:
                assert np.trace(bloch_state(length * axis)).real == 1.0
            else:
                with pytest.raises(ValidationError) as caught:
                    bloch_state(length * axis)
                assert str(caught.value) == f"Bloch vector has length {length!r} > 1"

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

    def test_entry_larger_than_the_budget_is_checked_not_stored(self):
        as_density(random_density(2, seed=74))
        before = _checked.cache_info()
        # an n x n state takes 16 n^2 bytes, past the per-entry cap from n = 23
        for n in (32, 200, 300):
            assert as_density(np.eye(n) / n)[0, 0] == pytest.approx(1.0 / n, abs=1e-18)
            with pytest.raises(ValidationError):
                as_density(np.eye(n))
        after = _checked.cache_info()
        assert (after.currsize, after.misses) == (before.currsize, before.misses)

    @pytest.mark.parametrize("check, make", [
        (as_density, lambda: random_density(3, seed=72)),
        (as_basis, lambda: random_basis(3, seed=73)),
    ])
    def test_writing_to_a_result_changes_no_later_result(self, check, make):
        # the first call is a miss and the later ones are hits; each returns
        # its own copy of the stored result
        results = []
        for _ in range(3):
            out = check(make())
            results.append(out.copy())
            out[:] = 0.0
        for later in results[1:]:
            np.testing.assert_array_equal(later, results[0])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_property_memo_keeps_every_verdict(self, data):
        # valid, on a tolerance edge or invalid: called twice, a validator returns
        # what its check returns on a copy, or raises the check's message
        validate, kind = data.draw(st.sampled_from(
            [(as_density, "density"), (as_basis, "basis"), (as_hermitian, "hermitian")]))
        n = data.draw(st.integers(1, 4))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        arr = (random_basis if kind == "basis" else random_density)(n, seed=seed)
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        arr[i, j] += data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e6])) * TOL
        want = outcome(_check_matrices, arr.copy(), 2, kind)[0]
        results = [outcome(validate, arr)[0] for _ in range(2)]
        for got in results:
            if isinstance(want, tuple):
                assert got == want
            else:
                assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
                assert got.flags.writeable and not np.shares_memory(got, arr)
        if not isinstance(want, tuple):
            assert not np.shares_memory(*results)


def reference_check_matrices(arr, ndim, kind, tol):
    """_check_matrices as it was before it tested finiteness and size through one norm: isfinite first.

    It does not reject entries past the size bound, so it agrees with _check_matrices only below it.
    """
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
        if np.count_nonzero(drift > TOL):
            raise ValidationError(f"trace is {float(np.ravel(traces)[np.argmax(drift)])!r}, not 1")
        off = drift > arr.shape[-1] * np.finfo(float).eps  # a smaller drift is rounding: not divided
        if off.any():
            arr = arr / np.where(off, traces, 1.0)[..., None, None]
    if kind in ("density", "effect"):
        smallest = np.ravel(np.linalg.eigvalsh(arr)[..., 0])
        negative = np.flatnonzero(smallest < -TOL)
        if negative.size:
            member = "matrix" if arr.ndim == 2 else f"matrix {negative[0]}"  # a stack names its first failure
            raise ValidationError(f"{member} is not positive semidefinite: min eigenvalue {smallest[negative[0]]:.3e}")
    return arr


def reference_at_hermitian_tol(arr, ndim, kind):
    return reference_check_matrices(arr, ndim, kind, TOL)


INF, NAN = np.inf, np.nan
PAST_TOL = np.nextafter(TOL, 1.0)
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
    "below-norm-bound": ([[6.7e153, 0.0], [0.0, 0.0]], 2),
    "at-norm-bound": ([[6.71e153, 0.0], [0.0, 0.0]], 2),
    "stack-one-nan": ([np.eye(2) / 2, [[0.5, 0.0], [0.0, NAN]], np.eye(2) / 2], 3),
    "stack-one-inf-diagonal": ([np.eye(2) / 2, [[INF, 0.0], [0.0, 0.5]]], 3),
    "stack-one-skew": ([np.eye(2) / 2, [[0.5, 0.1], [0.0, 0.5]]], 3),
    "stack-one-trace": ([np.eye(2) / 2, np.eye(2)], 3),
    "not-hermitian": ([[0.5, 0.1], [0.0, 0.5]], 2),
    "skew-at-tol": ([[0.5, TOL], [0.0, 0.5]], 2),
    "skew-past-tol": ([[0.5, PAST_TOL], [0.0, 0.5]], 2),
    "gram-at-tol": ([[1.0, TOL], [0.0, 1.0]], 2),
    "gram-past-tol": ([[1.0, PAST_TOL], [0.0, 1.0]], 2),
    "negative-zero": ([[-0.0, complex(-0.0, -0.0)], [complex(-0.0, 0.0), 1.0]], 2),
    "trace-off": ([[0.6, 0.0], [0.0, 0.6]], 2),
    "trace-noise": ([[0.5 + 4e-10, 0.0], [0.0, 0.5]], 2),
    "trace-at-rounding": ([[0.5 + 2.0**-52, 0.0], [0.0, 0.5 + 2.0**-52]], 2),  # off 1 by n epsilons: kept
    "trace-past-rounding": ([[0.5 + 2.0**-52, 0.0], [0.0, 0.5 + 2.0**-51]], 2),
    "stack-one-trace-past-rounding": ([np.diag([0.5 + 2.0**-52] * 2), np.diag([0.5 + 2.0**-52, 0.5 + 2.0**-51])], 3),
    "negative-eigenvalue": ([[1.5, 0.0], [0.0, -0.5]], 2),
    "eigenvalue-noise": ([[1.0 + 5e-10, 0.0], [0.0, -5e-10]], 2),
    "orthonormal": ([[1.0, 0.0], [0.0, 1.0]], 2),
    "not-orthonormal": ([[1.0, 1.0], [0.0, 0.0]], 2),
    "wrong-shape": ([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]], 2),
    "empty": (np.zeros((0, 0)), 2),
    "wrong-ndim": (np.eye(2) / 2, 3),
}


def huge_entries(arr):
    """Finite entries whose squared norm reaches the bound (about 6.7e153 for one entry)."""
    return bool(np.isfinite(arr).all()) and not np.vdot(arr, arr).real < NORM2_CAP


def assert_huge_outcome(arr, ndim, kind):
    """Rejected as too large, whatever the kind, with no warning."""
    assert outcome(_check_matrices, arr, ndim, kind) == ((ValidationError, TOO_LARGE), set())


def assert_matches_reference(arr, ndim, kind):
    """The reference's outcome below the size bound; past it, the rejection only _check_matrices makes."""
    if huge_entries(arr):
        assert_huge_outcome(arr, ndim, kind)
    else:
        assert_same_outcome(_check_matrices, reference_at_hermitian_tol, arr, ndim, kind)


class TestMatrixCheckMatchesReference:
    """Testing finiteness through one norm keeps every verdict, message and output bit.

    Finite entries whose squared norm reaches a quarter of the float maximum
    are the exception: _check_matrices rejects them, where the reference
    accepts some and may overflow on them with a warning.
    """

    @pytest.mark.parametrize("kind", ["hermitian", "density", "basis", "effect"])
    @pytest.mark.parametrize("case", list(MATRIX_EDGES))
    def test_edge_cases(self, case, kind):
        values, ndim = MATRIX_EDGES[case]
        assert_matches_reference(np.asarray(values, dtype=complex), ndim, kind)

    def test_seeded_inputs(self):
        for i in range(120):
            n = 1 + i % 5
            rho = random_density(n, seed=3000 + i, rank=1 + i % n)
            u = random_basis(n, seed=4000 + i)
            stack = np.stack([random_density(n, seed=5000 + 3 * i + j) for j in range(3)])
            for arr, ndim, kind in ((rho, 2, "density"), (rho, 2, "hermitian"), (u, 2, "basis"),
                                    (stack, 3, "density"), (stack * 1.01, 3, "density"),
                                    (u + 1e-10, 2, "basis")):
                assert_same_outcome(_check_matrices, reference_at_hermitian_tol, arr, ndim, kind)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_property_with_injected_specials(self, data):
        n = data.draw(st.integers(1, 4))
        count = data.draw(st.integers(1, 3))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        kind = data.draw(st.sampled_from(["hermitian", "density", "basis", "effect"]))
        make = random_basis if kind == "basis" else random_density
        arr = np.stack([make(n, seed=seed + j) for j in range(count)])
        specials = st.sampled_from([NAN, INF, -INF, complex(INF, NAN), complex(0.0, INF),
                                    -0.0, 1e200, 1e308, 6.7e153, 6.71e153, 1e-10])
        for _ in range(data.draw(st.integers(0, 3))):
            b, i, j = (data.draw(st.integers(0, k - 1)) for k in (count, n, n))
            value = data.draw(specials)
            arr[b, i, j] = value
            if data.draw(st.booleans()):  # keep the pair Hermitian
                arr[b, j, i] = np.conj(value)
        if count == 1 and data.draw(st.booleans()):
            arr = arr[0]
        assert_matches_reference(arr, arr.ndim, kind)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_property_matrix_functions_reject_or_stay_finite(data):
    # at every scale of the entries, a function taking a Hermitian matrix rejects it
    # or returns finite numbers, and no overflow warning is raised on the way
    n = data.draw(st.integers(1, 3))
    exponent = data.draw(st.one_of(st.integers(0, 307), st.floats(153.0, 155.0)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    g = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
    h = (g + g.conj().T) * (0.5 * 10.0 ** exponent)
    eye = np.eye(n)
    top = float(np.linalg.eigvalsh(h)[-1])
    calls = {
        "as_hermitian": lambda: as_hermitian(h),
        "smallest_eigenvalue": lambda: smallest_eigenvalue(h),
        "hs_inner_product": lambda: hs_inner_product(h, h.T),
        "hs_distance": lambda: hs_distance(h, -h),
        "proposition_information": lambda: proposition_information(eye / n, h),
        "joint_eigenstate": lambda: joint_eigenstate(np.kron(h, eye), np.kron(eye, h), (top, top)),
        "as_povm": lambda: as_povm([h, eye - h]),
    }
    for name, call in calls.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = call()
            except ValidationError:
                continue
        assert np.isfinite(np.asarray(result, dtype=complex)).all(), name


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
            born_probabilities(random_density(3, seed=1), np.eye(2, dtype=complex))


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


# a valid qubit measurement of each kind, an invalid one and the invalid one's own message
BASIS_CASE = (np.eye(2), np.ones((2, 2)), "basis columns are not orthonormal within tolerance")
MUB_SET_CASE = (build_mubs(2), build_mubs(2)[:2], "a complete MUB set for dimension 2 has 3 bases")
QUESTION_CASE = (np.diag([1.0, 0.0]), [[0.0, 1.0], [0.0, 0.0]], "matrix is not Hermitian within tolerance")
STATE_AND_MEASUREMENT = [(born_probabilities, BASIS_CASE), (luders_update, BASIS_CASE), (born_table, MUB_SET_CASE),
                         (information_by_basis, MUB_SET_CASE), (information_sum, MUB_SET_CASE),
                         (proposition_information, QUESTION_CASE)]


@pytest.mark.parametrize("call, case", STATE_AND_MEASUREMENT, ids=[call.__name__ for call, _ in STATE_AND_MEASUREMENT])
def test_a_state_and_its_measurement_are_checked_in_one_order(call, case):
    # the state first, then the measurement, then one dimension test with one message
    qubit_measurement, bad_measurement, message = case
    qutrit = np.eye(3) / 3
    for rho, measurement, expected in (
            (qutrit, qubit_measurement, "measurement is 2-dimensional but the state is 3-dimensional"),
            (qutrit, bad_measurement, message),
            (np.eye(3), bad_measurement, "trace is 3.0, not 1")):
        with pytest.raises(ValidationError) as caught:
            call(rho, measurement)
        assert str(caught.value) == expected


class TestSpectrumAndEntropy:
    def test_half_zero_half_plus_spectrum(self):
        expected = [(1 + 2 ** -0.5) / 2, (1 - 2 ** -0.5) / 2]
        assert spectrum(MIXED_ZERO_PLUS) == pytest.approx(expected, abs=1e-12)

    def test_half_zero_half_plus_entropy(self):
        assert von_neumann_entropy(MIXED_ZERO_PLUS) == pytest.approx(ZERO_PLUS_CHI, abs=1e-9)

    def test_pure_state_entropy_zero(self):
        for n in (2, 3, 5, 7):
            assert von_neumann_entropy(random_density(n, seed=n, rank=1)) < 1e-9

    def test_basis_state_entropy_is_positive_zero(self):
        value = von_neumann_entropy(pure_state([1, 0]))
        assert value == 0.0 and np.copysign(1.0, value) == 1.0

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

    @pytest.mark.parametrize("coherence, pure", [(2.0 ** -27, True), (2.0 ** -28, False)],
                             ids=["at-tol", "past-tol"])
    def test_purity_edge(self, coherence, pure):
        # 1 - purity is 9007199 * 2**-53, the last multiple of 2**-53 at or below TOL, then
        # the next one; the first passes as every deviation within TOL does
        drift = 4503600 * 2.0 ** -53
        rho = np.array([[1.0 - drift, coherence], [coherence, drift]])
        assert 1.0 - purity(rho) == (9007199 if pure else 9007200) * 2.0 ** -53
        assert is_pure(rho) == pure

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
        assert np.allclose(spin_basis([0, 0, 1]), np.eye(2), atol=1e-12)

    def test_rotate_basis_to_x_gives_plus_minus(self):
        basis = spin_basis([1, 0, 0])
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        assert np.allclose(basis[:, 0], plus, atol=1e-12)
        assert np.allclose(basis[:, 1], minus, atol=1e-12)

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


def assert_same_bits(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def reference_fix_column_phases(matrix):
    """The column phase rule one column at a time, with the scalar abs: the whole-array form must match its bits."""
    out = matrix.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        out[:, j] = col * (lead.conjugate() / abs(lead))
    return out


ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def quadratic_phase_bases(n):
    """The n non-computational Wootters-Fields bases for odd prime n, one at a time, before any phase fix."""
    l = np.arange(n)
    for k in range(n):
        phase = (k * l[:, None] ** 2 + l[:, None] * l[None, :]) % n
        yield np.exp(2j * np.pi * phase / n) / np.sqrt(n)


def phase_rule_inputs():
    """12,279 matrices: 5,000 Haar bases at n = 2-10; 5,000 spin eigenbases, one in five along
    a signed axis; the 279 non-identity MUB bases for the odd primes 3-43; and 2,000 unit
    columns whose first entry is 0, +-1e-13 or 2e-12."""
    for seed in range(5000):
        yield random_basis(2 + seed % 9, seed)
    rng = np.random.default_rng(24)
    for i in range(5000):
        x, y, z = (-1) ** (i // 3) * np.eye(3)[i % 3] if i % 5 == 0 else rng.standard_normal(3)
        yield np.linalg.eigh(x * PAULI_X + y * PAULI_Y + z * PAULI_Z)[1][:, ::-1]
    for n in ODD_PRIMES:
        yield from quadratic_phase_bases(n)
    for seed in range(2000):
        rng = np.random.default_rng(seed)
        col = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        col /= np.linalg.norm(col)
        col[0] = (0.0, 1e-13, -1e-13, 2e-12)[seed % 4]
        yield col[:, None]


class TestWholeArrayForms:
    """The phase rule and the projectors, pinned bit for bit to their one-column-at-a-time forms."""

    def test_phase_rule_matches_the_column_loop(self):
        count = 0
        for matrix in phase_rule_inputs():
            assert_same_bits(_fix_column_phases(matrix), reference_fix_column_phases(matrix))
            count += 1
        assert count == 12279

    def test_phase_rule_batches_over_leading_axes(self):
        stack = np.stack([random_basis(5, seed) for seed in range(6)]).reshape(2, 3, 5, 5)
        fixed = _fix_column_phases(stack)
        for index in np.ndindex(2, 3):
            assert_same_bits(fixed[index], reference_fix_column_phases(stack[index]))

    def test_phase_rule_matches_the_column_loop_inside_its_callers(self, monkeypatch):
        # spin_basis on the axes and 200 seeded directions, and joint_eigenstate on four
        # commuting pairs: every matrix they hand the phase rule gets the column loop's bytes
        seen = []

        def checked(matrix):
            fixed = _fix_column_phases(matrix)
            assert_same_bits(fixed, reference_fix_column_phases(matrix))
            seen.append(matrix.shape)
            return fixed

        monkeypatch.setattr(quantum, "_fix_column_phases", checked)
        monkeypatch.setattr(entangle, "_fix_column_phases", checked)
        rng = np.random.default_rng(28)
        for direction in [*np.eye(3), *-np.eye(3), *rng.standard_normal((200, 3))]:
            spin_basis(direction)
        for (a, b), answers in itertools.product([("xx", "yy"), ("xx", "zz"), ("yy", "zz"), ("zx", "xz")],
                                                 itertools.product((1, -1), repeat=2)):
            joint_eigenstate(pauli_product(*a), pauli_product(*b), answers)
        assert seen == [(2, 2)] * 206 + [(4, 1)] * 16

    def test_projectors_match_outer_products(self):
        for seed in range(2000):
            u = random_basis(1 + seed % 8, seed)
            projectors = basis_projectors(u)
            assert isinstance(projectors, list) and len(projectors) == len(u)
            for i, projector in enumerate(projectors):
                assert_same_bits(projector, np.outer(u[:, i], u[:, i].conj()))


def reference_random_density(n, seed, rank=None):
    """random_density with its real and imaginary parts drawn by two calls, as it was spelled
    before the shared Ginibre draw: the shared draw must match its bits."""
    rng = np.random.default_rng(seed)
    r = n if rank is None else rank
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def reference_random_basis(n, seed):
    """random_basis with its two draws spelled out, as reference_random_density."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def born_inputs(count, rng, states):
    """count (states, basis) pairs at n = 1-8: a checked stack of `states` Ginibre states of
    every rank, and a Haar basis, or for every third pair a stack of n + 1 bases."""
    for i in range(count):
        n, rank = 1 + i % 8, 1 + i // 8 % (1 + i % 8)
        g = rng.standard_normal((states + n + 1, n, n)) + 1j * rng.standard_normal((states + n + 1, n, n))
        rho = g[:states, :, :rank] @ g[:states, :, :rank].conj().swapaxes(-1, -2)
        checked = _check_matrices(rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None], 3, "density")
        bases = np.linalg.qr(g[states:])[0]
        yield checked, bases if i % 3 == 0 else bases[0]


class TestSharedPrimitives:
    """The one Gaussian draw and the one Born contraction, pinned bit for bit to the spellings they replaced."""

    def test_random_density_matches_two_draws(self):
        for seed in range(2000):
            n = 1 + seed % 8
            rank = None if seed % 3 == 0 else 1 + seed // 8 % n
            assert_same_bits(random_density(n, seed, rank), reference_random_density(n, seed, rank))

    def test_random_basis_matches_two_draws(self):
        for seed in range(2000):
            n = 1 + seed % 8
            assert_same_bits(random_basis(n, seed), reference_random_basis(n, seed))

    def test_born_matches_the_one_state_contraction(self):
        # the contraction with the state unbroadcast, which _born spelled before it batched over states
        def reference(state, u):
            return np.einsum("...ji,jk,...ki->...i", u.conj(), state, u).real

        for (state,), u in born_inputs(6000, np.random.default_rng(25), states=1):
            assert_same_bits(_born(state, u), reference(state, u))
            if u.ndim == 2:  # the public weights: validated again, then renormalized
                assert_same_bits(born_probabilities(state, u), _renormalize(reference(as_density(state), u)))

    def test_born_matches_the_hill_climb_contraction(self):
        # a stack of letters' states under one basis, as the hill climb scored them with its own einsum
        for states, bases in born_inputs(6000, np.random.default_rng(26), states=3):
            u = bases if bases.ndim == 2 else bases[-1]
            assert_same_bits(_born(states, u), np.einsum("ji,ajk,ki->ai", u.conj(), states, u).real)


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
