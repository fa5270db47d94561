from __future__ import annotations

import math
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quantinfo
from quantinfo import (
    ValidationError,
    apply_doubly_stochastic,
    as_distribution,
    as_doubly_stochastic,
    as_joint_distribution,
    born_probabilities,
    conditional_entropy,
    grouping_residual,
    majorizes,
    mutual_information,
    quadratic_information,
    random_distribution,
    random_doubly_stochastic,
    shannon_entropy,
    spectrum,
    surprise,
)
from quantinfo.probability import (
    ENTRY_TOL,
    TOL,
    _clamp,
    _conditional_entropy,
    _entropy,
    _as_array,
    _checked,
    _memo,
    _mutual_information,
)

# Every call site of the shared clamp: build an input whose one noisy entry is
# `entry` and whose total is 1 + drift, and return (output, that entry's output).
CLAMP_SITES = {
    "vector": (ENTRY_TOL, True, lambda e, d: _pick(
        as_distribution([0.6 + d - e, 0.4, e]), 2)),
    "joint-table": (ENTRY_TOL, True, lambda e, d: _pick(
        as_joint_distribution([[0.3 + d - e, 0.2], [0.5, e]]), (1, 1))),
    "doubly-stochastic": (ENTRY_TOL, False, lambda e, d: _pick(
        as_doubly_stochastic([[1.0 + d - e, e], [e, 1.0 + d - e]]), (0, 1))),
    "born": (TOL, True, lambda e, d: _pick(
        born_probabilities(np.diag([1.0 + d - e, e]), np.eye(2)), 1)),
    "spectrum": (TOL, True, lambda e, d: _pick(
        spectrum(np.diag([1.0 + d - e, e])), -1)),
}


def _pick(out, index):
    return out, out[index]


class TestValidation:
    def test_clamps_rounding_noise(self):
        dist = as_distribution([1.0 - 1e-13, -1e-13, 1e-13])
        assert dist[1] == 0.0
        assert dist.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_real_negatives(self):
        with pytest.raises(ValidationError):
            as_distribution([1.1, -0.1])

    def test_renormalizes_tiny_sum_drift(self):
        dist = as_distribution([0.5 + 2e-10, 0.5])
        assert dist.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_sum_drift(self):
        with pytest.raises(ValidationError):
            as_distribution([0.5, 0.6])

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValidationError):
            as_distribution([])
        with pytest.raises(ValidationError):
            as_distribution([0.5, np.nan])

    @pytest.mark.parametrize("validate, values, message", [
        (as_distribution, [1e308, 1e308], "probability vector sums to inf, not 1"),
        (as_joint_distribution, [[np.inf, 0.59, 1e308, 1e308], [0.25] * 4],
         "joint probability table entries must be finite"),
        (as_distribution, [10**400, 0], "probability vector: mismatched dimensions or non-numeric entries"),
    ], ids=["sum-overflows", "inf-beside-huge-entries", "int-past-float-range"])
    def test_huge_entries_rejected_without_warning(self, validate, values, message):
        assert outcome(validate, values) == ((ValidationError, message), set())


class TestValidationMemo:
    """Each distinct input is checked once; the memo must never change a verdict."""

    def test_rejected_input_raises_every_time(self):
        for bad, check in (([0.5, 0.6], as_distribution),
                           ([[0.6, 0.5], [0.4, 0.5]], as_doubly_stochastic)):
            for _ in range(2):
                with pytest.raises(ValidationError):
                    check(bad)

    def test_distribution_checks_bypass_the_memo(self):
        # a distribution check costs less than a memo miss, so none is stored or looked up
        before = _checked.cache_info()
        for i in range(100):
            p = random_distribution(2 + i % 5, seed=1300 + i)
            as_distribution(p)
            as_joint_distribution(np.outer(p, p))
            as_doubly_stochastic(random_doubly_stochastic(2 + i % 5, seed=1400 + i))
        after = _checked.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_writing_to_a_result_changes_no_later_result(self):
        p = np.array([0.25, 0.75 + 1e-10])
        results = []
        for _ in range(3):
            out = as_distribution(p)
            results.append(out.copy())
            out[:] = 0.0
        for later in results[1:]:
            np.testing.assert_array_equal(later, results[0])

    def test_threads_share_one_memo(self):
        # more distinct inputs than the memo keeps, so eviction runs while eight
        # threads hit and miss the module memo through a cheap check
        pool = [random_distribution(2 + i % 7, seed=1200 + i) for i in range(300)]
        args = (1, "probability vector", "total")
        expected = [_clamp(p, *args) for p in pool]
        wrong = []
        before = _checked.cache_info()

        def worker(seed):
            for k in np.random.default_rng(seed).integers(0, len(pool), 1500):
                result = _memo(_clamp, pool[k], *args)
                if not (result.flags.writeable and np.array_equal(result, expected[k])):
                    wrong.append(int(k))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        after = _checked.cache_info()
        assert after.hits > before.hits and after.misses > before.misses + after.maxsize
        assert after.currsize == after.maxsize


@pytest.mark.parametrize("site", list(CLAMP_SITES))
def test_clamp_edges(site):
    tol, renormalizes, call = CLAMP_SITES[site]
    _, clamped = call(-0.5 * tol, 0.0)
    assert clamped == 0.0
    with pytest.raises(ValidationError):
        call(-2.0 * tol, 0.0)
    out, _ = call(0.0, 0.9e-9)
    if renormalizes:
        assert out.sum() == pytest.approx(1.0, abs=1e-15)
    else:  # row and column sums cannot both be rescaled; the drift is accepted
        assert np.all(np.abs(out.sum(axis=0) - 1.0) < 1e-9)
        assert np.all(np.abs(out.sum(axis=1) - 1.0) < 1e-9)
    with pytest.raises(ValidationError):
        call(0.0, 1.1e-9)


def reference_clamp(values, ndim, what, sum_tol=None, axis=None):
    """_clamp as it was before its accept-first test: each check in turn.

    A total within count float64 epsilons of 1, count the entries it sums, is an earlier
    division's rounding and is not divided out."""
    arr = _as_array(values, float, what).copy()
    if arr.ndim != ndim or arr.size == 0:
        raise ValidationError(f"expected a nonempty {ndim}-d {what}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} entries must be finite")
    if (arr < -ENTRY_TOL).any():
        raise ValidationError(f"negative {what} entry: min {arr.min():.3e}")
    arr[arr < 0.0] = 0.0
    if sum_tol is None:
        return arr
    with np.errstate(over="ignore"):  # a total past the float maximum is rejected, not warned about
        totals = arr.sum(axis=axis, keepdims=True)
    drift = abs(totals - 1.0)
    if np.count_nonzero(drift >= sum_tol):
        raise ValidationError(f"{what} sums to {float(totals.flat[drift.argmax()])!r}, not 1")
    count = arr.size if axis is None else arr.shape[axis]
    return arr / np.where(drift <= count * np.finfo(float).eps, 1.0, totals)


# reference_clamp's arguments for each of _clamp's sum rules, at the windows _clamp reads
REFERENCE_SUM_ARGS = {None: (), "total": (TOL,), "rows": (TOL, -1)}


def reference_at_sum_tol(values, ndim, what, sums):
    return reference_clamp(values, ndim, what, *REFERENCE_SUM_ARGS[sums])


def reference_entropy(probs):
    """_entropy as an einsum over a zeros_like log buffer, as it was computed before."""
    logs = np.log2(probs, out=np.zeros_like(probs), where=probs > 0.0)
    return 0.0 - np.einsum("...i,...i->...", probs, logs)


def outcome(fn, *args):
    """(the result or the exception's type and message, the distinct warnings raised on the way)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
        except Exception as exc:
            result = (type(exc), str(exc))
    return result, {(w.category, str(w.message)) for w in caught}


def assert_same_outcome(fn, reference, *args):
    """Same verdict, message, warnings and output bits as the reference."""
    (got, got_warnings), (want, want_warnings) = outcome(fn, *args), outcome(reference, *args)
    assert got_warnings == want_warnings
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray), got
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


V = "probability vector"
# A total of 1 + k * 2**-52 is exact, and so is its drift from 1: the largest such
# drift below TOL and the smallest at or above it.
INSIDE_TOL = np.floor(TOL / 2.0 ** -52) * 2.0 ** -52
OUTSIDE_TOL = INSIDE_TOL + 2.0 ** -52
# A total n float64 epsilons off 1, n the entries it sums, is rounding and kept; one epsilon more is divided.
EPS = 2.0 ** -52
CLAMP_EDGES = {
    "nan": ([0.5, np.nan, 0.5], 1, V, "total"),
    "nan-and-negative": ([-0.5, np.nan, 1.5], 1, V, "total"),
    "+inf": ([0.5, np.inf], 1, V, "total"),
    "-inf": ([-np.inf, 1.0], 1, V, "total"),
    "+inf-and--inf": ([np.inf, -np.inf, 1.0], 1, V, "total"),
    "+inf-unsummed": ([np.inf, 0.5], 1, "matrix", None),
    "sum-overflows": ([1e308, 1e308], 1, V, "total"),
    "sum-overflows-unsummed": ([1e308, 1e308], 1, "matrix", None),
    "row-sum-overflows": ([[0.5, 0.5], [1e308, 1e308]], 2, V, "rows"),
    "negative-zero": ([-0.0, 1.0], 1, V, "total"),
    "negative-zero-alone": ([-0.0], 1, V, "total"),
    "negative-zero-unsummed": ([[-0.0, 1.0], [0.5, -0.0]], 2, "matrix", None),
    "at-entry-tol": ([1.0 + ENTRY_TOL, -ENTRY_TOL], 1, V, "total"),
    "past-entry-tol": ([1.0 + 2 * ENTRY_TOL, -2 * ENTRY_TOL], 1, V, "total"),
    "total-inside-sum-tol": ([0.5, 0.5 + INSIDE_TOL], 1, V, "total"),
    "total-outside-sum-tol": ([0.5, 0.5 + OUTSIDE_TOL], 1, V, "total"),
    "table-inside-sum-tol": ([[0.25, 0.25], [0.25, 0.25 + INSIDE_TOL]], 2,
                             "joint probability table", "total"),
    "table-outside-sum-tol": ([[0.25, 0.25], [0.25, 0.25 + OUTSIDE_TOL]], 2,
                              "joint probability table", "total"),
    "rows-inside-sum-tol": ([[0.5, 0.5], [0.5, 0.5 + INSIDE_TOL]], 2, V, "rows"),
    "rows-outside-sum-tol": ([[0.5, 0.5], [0.5, 0.5 + OUTSIDE_TOL]], 2, V, "rows"),
    "total-at-rounding": ([0.5, 0.5 + 2 * EPS], 1, V, "total"),
    "total-past-rounding": ([0.5, 0.5 + 3 * EPS], 1, V, "total"),
    "total-below-at-rounding": ([0.5, 0.5 - 2 * EPS], 1, V, "total"),
    "table-at-rounding": ([[0.25, 0.25], [0.25, 0.25 + 4 * EPS]], 2, "joint probability table", "total"),
    "table-past-rounding": ([[0.25, 0.25], [0.25, 0.25 + 5 * EPS]], 2, "joint probability table", "total"),
    "rows-at-rounding": ([[0.5, 0.5], [0.5, 0.5 + 2 * EPS]], 2, V, "rows"),
    "rows-past-rounding": ([[0.5, 0.5], [0.5, 0.5 + 3 * EPS]], 2, V, "rows"),
    "rows-sum-to-one-together": ([[0.25, 0.25], [0.25, 0.25]], 2, V, "rows"),
    "rows-one-drifts": ([[0.5, 0.5], [0.7, 0.7], [0.2, 0.8]], 2, V, "rows"),
    "rows-one-nan": ([[0.5, 0.5], [np.nan, 1.0]], 2, V, "rows"),
    "rows-one-negative": ([[0.5, 0.5], [1.5, -0.5]], 2, V, "rows"),
    "rows-one-clamped": ([[0.5, 0.5], [1.0 + 1e-13, -1e-13]], 2, V, "rows"),
    "single-row-axis": ([0.25, 0.75 + 1e-10], 1, V, "rows"),
    "joint-table": ([[0.3, 0.2], [0.5 + 1e-10, -1e-13]], 2, "joint probability table", "total"),
    "wrong-ndim": ([[0.5, 0.5]], 1, V, "total"),
    "empty": ([], 1, V, "total"),
    "ragged": ([[0.5], [0.25, 0.25]], 2, V, "total"),
}


class TestClampMatchesReference:
    """The accept-first clamp keeps every verdict, message and output bit."""

    @pytest.mark.parametrize("case", list(CLAMP_EDGES))
    def test_edge_cases(self, case):
        assert_same_outcome(_clamp, reference_at_sum_tol, *CLAMP_EDGES[case])

    def test_sum_tol_rows_straddle_the_window(self):
        for rows in ("total", "table", "rows"):
            _clamp(*CLAMP_EDGES[f"{rows}-inside-sum-tol"])
            with pytest.raises(ValidationError, match="sums to"):
                _clamp(*CLAMP_EDGES[f"{rows}-outside-sum-tol"])

    def test_rounding_is_kept_and_one_epsilon_more_divided(self):
        for rows in ("total", "table", "rows"):
            at, past = CLAMP_EDGES[f"{rows}-at-rounding"], CLAMP_EDGES[f"{rows}-past-rounding"]
            assert _clamp(*at).tobytes() == np.array(at[0]).tobytes()
            assert _clamp(*past).tobytes() != np.array(past[0]).tobytes()

    def test_seeded_inputs(self):
        rng = np.random.default_rng(1234)
        for i in range(300):
            shape = (1 + i % 4, 1 + i % 7) if i % 3 else (1 + i % 9,)
            values = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1]) * (1.0 + rng.normal(0, 1e-9))
            values[values < 0.05] -= rng.uniform(0.0, 2e-12)
            args = (values, values.ndim, V, "rows" if values.ndim == 2 else "total")
            assert_same_outcome(_clamp, reference_at_sum_tol, *args)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_property_with_injected_specials(self, data):
        rows = data.draw(st.integers(1, 4))
        cols = data.draw(st.integers(1, 6))
        values = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).dirichlet(
            np.ones(cols), size=rows)
        values *= data.draw(st.sampled_from([1.0, 1.0 + 1e-10, 1.0 - 2e-9, 0.5, 2.0]))
        specials = st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, -ENTRY_TOL,
                                    -2 * ENTRY_TOL, -1e-13, 1e308, 1.0])
        for _ in range(data.draw(st.integers(0, 3))):
            values.flat[data.draw(st.integers(0, values.size - 1))] = data.draw(specials)
        if data.draw(st.booleans()):
            values = values[0]
        sums = data.draw(st.sampled_from([None, "total", "rows"]))
        assert_same_outcome(_clamp, reference_at_sum_tol, values, values.ndim, V, sums)


class TestEntropyMatchesReference:
    """A fresh zeros buffer in place of zeros_like keeps every entropy bit."""

    EDGES = {
        "certain": [1.0, 0.0, 0.0],
        "zeros-and-negative-zero": [0.5, -0.0, 0.0, 0.5],
        "all-zero": [0.0, 0.0],
        "single": [1.0],
        "subnormal": [1.0, 5e-324],
        "stack": [[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.2, 0.3, 0.5]],
    }

    @staticmethod
    def assert_same_bits(probs):
        got, want = _entropy(probs), reference_entropy(probs)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("case", list(EDGES))
    def test_edge_cases(self, case):
        self.assert_same_bits(np.array(self.EDGES[case]))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 64),
           st.sampled_from([(), (3,), (2, 4)]), st.floats(0.0, 0.9))
    def test_property_same_bits(self, seed, n, lead, zero_share):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(n), size=lead)
        probs[rng.random(probs.shape) < zero_share] = 0.0
        self.assert_same_bits(probs)
        self.assert_same_bits(probs[..., ::-1])  # a strided view, as _spectrum passes
        if probs.ndim == 2:
            self.assert_same_bits(probs.T)


HUGE = 10 ** 5000  # past the 4,300 digits Python will turn into a string
HUGE_CALLS = {
    "mub-dim": lambda: quantinfo.build_mubs(HUGE),
    "mub-odd-dim": lambda: quantinfo.build_mubs(HUGE + 1),
    "mub-negative-dim": lambda: quantinfo.build_mubs(-HUGE),
    "typical-set-block": lambda: quantinfo.typical_set([0.5, 0.5], HUGE, 0.1),
    "one-letter-block": lambda: quantinfo.typical_set([1.0], HUGE, 0.1),
    "question-rate-block": lambda: quantinfo.block_question_rate([0.5, 0.5], HUGE),
    "negative-block": lambda: quantinfo.typical_set([0.5, 0.5], -HUGE, 0.1),
    "dimension": lambda: quantinfo.random_density(-HUGE, seed=0),
    "rank": lambda: quantinfo.random_density(2, seed=0, rank=HUGE),
    "outcome": lambda: surprise([0.5, 0.5], HUGE),
    "seed": lambda: quantinfo.accessible_information(
        quantinfo.cq_ensemble([1.0], [np.eye(2) / 2]), seed=-HUGE),
}


@pytest.mark.parametrize("call", HUGE_CALLS.values(), ids=HUGE_CALLS.keys())
def test_rejecting_a_huge_integer_names_its_size(call):
    # spelling the integer out raised ValueError from inside the message
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=f"<{HUGE.bit_length()}-bit integer>"):
        call()
    assert time.perf_counter() - start < 0.1


REAL_ONLY_CALLS = {
    "entropy": (lambda: shannon_entropy(np.array([0.5 + 0.7j, 0.5 - 3j])),
                "probability vector entries must be real, got an imaginary part of 3.000e+00"),
    "distribution": (lambda: as_distribution(np.array([0.5 + 1j, 0.5])),
                     "probability vector entries must be real, got an imaginary part of 1.000e+00"),
    "bloch-state": (lambda: quantinfo.bloch_state(np.array([0, 0, 0.5j])),
                    "Bloch vector entries must be real, got an imaginary part of 5.000e-01"),
    "spin-basis": (lambda: quantinfo.spin_basis(np.array([1j, 0, 1])),
                   "direction vector entries must be real, got an imaginary part of 1.000e+00"),
    "complex-scalar": (lambda: _as_array(np.complex64(0.5 + 0.25j), float, "value"),
                       "value entries must be real, got an imaginary part of 2.500e-01"),
    "list-of-complex-arrays": (lambda: as_joint_distribution([np.array([0.5, 0j]), np.array([0, 0.5 + 2e-9j])]),
                               "joint probability table entries must be real, got an imaginary part of 2.000e-09"),
    "nan-imaginary-part": (lambda: as_distribution(np.array([0.5 + np.nan * 1j, 0.5])),
                           "probability vector entries must be real, got an imaginary part of nan"),
}


@pytest.mark.parametrize("call, message", REAL_ONLY_CALLS.values(), ids=REAL_ONLY_CALLS.keys())
def test_complex_input_is_rejected_not_truncated(call, message):
    # numpy's float cast keeps the real part and only warns (ComplexWarning)
    assert outcome(call) == ((ValidationError, message), set())


@pytest.mark.parametrize("imag, accepted", [
    (INSIDE_TOL, True), (-INSIDE_TOL, True), (OUTSIDE_TOL, False), (-OUTSIDE_TOL, False),
], ids=["inside", "inside-negative", "outside", "outside-negative"])
def test_imaginary_parts_share_the_verdict_window(imag, accepted):
    got, warned = outcome(as_distribution, np.array([0.25 + imag * 1j, 0.75]))
    assert warned == set()
    if accepted:
        assert got.tobytes() == as_distribution([0.25, 0.75]).tobytes()
        assert np.array_equal(quantinfo.bloch_state(np.array([0, 0, 1 + imag * 1j])), quantinfo.bloch_state([0, 0, 1]))
    else:
        assert got == (ValidationError, f"probability vector entries must be real, got an imaginary part of {abs(imag):.3e}")


SCALAR_PARAMETERS = {
    "norm": (lambda x: quadratic_information([0.5, 0.5], norm=x), "normalization constant must be positive"),
    "theta": (lambda x: quantinfo.wrong_basis_demo(x), "tilt angle must be finite, got "),
    "epsilon": (lambda x: quantinfo.typical_set([0.5, 0.5], 4, x), "epsilon must be positive"),
}
NOT_SCALARS = {"string": "abc", "numeric-string": "0.5", "numeric-bytes": b"0.5", "none": None, "array": np.array([0.1, 0.2]), "int-past-float-range": 10 ** 400,
               "bool": True, "numpy-bool": np.True_, "bool-array": np.array(True)}


@pytest.mark.parametrize("value", NOT_SCALARS.values(), ids=NOT_SCALARS.keys())
@pytest.mark.parametrize("call, message", SCALAR_PARAMETERS.values(), ids=SCALAR_PARAMETERS.keys())
def test_scalar_parameters_reject_what_is_not_a_finite_real(call, message, value):
    (error, text), warned = outcome(call, value)
    assert (error, warned) == (ValidationError, set())
    assert text.startswith(message)


class TestShannonEntropy:
    def test_three_outcome_value(self):
        assert shannon_entropy([0.5, 1 / 3, 1 / 6]) == pytest.approx(1.459148, abs=1e-5)

    def test_uniform_is_log_n(self):
        for n in (2, 3, 5, 8):
            assert shannon_entropy(np.full(n, 1.0 / n)) == pytest.approx(np.log2(n), abs=1e-12)

    def test_deterministic_is_zero(self):
        assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0

    @pytest.mark.parametrize("entropy, deterministic", [
        (shannon_entropy, [1.0, 0.0]),
        (shannon_entropy, [1.0]),
        (mutual_information, [[1.0, 0.0], [0.0, 0.0]]),
    ], ids=["shannon-two", "shannon-one", "mutual"])
    def test_deterministic_zero_is_positive(self, entropy, deterministic):
        value = entropy(deterministic)
        assert value == 0.0 and np.copysign(1.0, value) == 1.0

    def test_invariant_under_permutation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = rng.dirichlet(np.ones(5))
            assert shannon_entropy(p) == pytest.approx(
                shannon_entropy(p[rng.permutation(5)]), abs=1e-12)

    def test_bounds(self):
        for i in range(50):
            n = 2 + i % 6
            p = random_distribution(n, seed=100 + i)
            assert -1e-12 <= shannon_entropy(p) <= np.log2(n) + 1e-12


class TestSurprise:
    def test_value(self):
        assert surprise([0.5, 1 / 3, 1 / 6], 2) == pytest.approx(2.584962, abs=1e-5)

    def test_zero_probability_rejected(self):
        with pytest.raises(ValidationError):
            surprise([1.0, 0.0], 1)

    def test_certain_outcome_is_positive_zero(self):
        # -log2(1) is -0.0; a certain outcome carries +0.0 bits, as entropy does
        assert math.copysign(1.0, surprise([1.0], 0)) == 1.0
        assert math.copysign(1.0, surprise([1.0, 0.0], 0)) == 1.0

    def test_out_of_range_rejected(self):
        # a float or a bool is not an index, even where it would pick an entry
        for outcome in (2, -1, 1.5, True, np.float64(1.0)):
            with pytest.raises(ValidationError, match="outcome index must be an integer"):
                surprise([0.5, 0.5], outcome)
        assert surprise([0.5, 0.5], np.int64(1)) == 1.0

    def test_entropy_is_average_surprise(self):
        p = random_distribution(6, seed=42)
        avg = sum(p[i] * surprise(p, i) for i in range(6))
        assert avg == pytest.approx(shannon_entropy(p), abs=1e-12)


class TestQuadraticInformation:
    def test_deterministic_qubit_outcome(self):
        assert quadratic_information([1.0, 0.0]) == pytest.approx(0.5, abs=1e-15)

    def test_biased_qubit_outcome(self):
        assert quadratic_information([0.65, 0.35]) == pytest.approx(0.045, abs=1e-12)

    def test_uniform_is_zero(self):
        assert quadratic_information([0.25] * 4) == pytest.approx(0.0, abs=1e-15)

    def test_norm_scales(self):
        base = quadratic_information([0.7, 0.3])
        assert quadratic_information([0.7, 0.3], norm=3.0) == pytest.approx(3 * base, abs=1e-12)

    def test_norm_must_be_positive(self):
        with pytest.raises(ValidationError):
            quadratic_information([0.5, 0.5], norm=0.0)

    def test_range(self):
        for i in range(50):
            n = 2 + i % 6
            value = quadratic_information(random_distribution(n, seed=200 + i))
            assert -1e-15 <= value <= 1.0 - 1.0 / n + 1e-12


class TestGroupingResidual:
    def test_worked_instance_both_sides(self):
        # H(1/2,1/3,1/6) = H(1/2,1/2) + (1/2) H(2/3,1/3), all equal to 1.459148
        lhs = shannon_entropy([0.5, 1 / 3, 1 / 6])
        rhs = shannon_entropy([0.5, 0.5]) + 0.5 * shannon_entropy([2 / 3, 1 / 3])
        assert lhs == pytest.approx(1.459148, abs=1e-5)
        assert rhs == pytest.approx(1.459148, abs=1e-5)
        assert grouping_residual([0.5, 1 / 3, 1 / 6]) == pytest.approx(0.0, abs=1e-12)

    def test_vanishes_on_seeded_distributions(self):
        worst = max(
            abs(grouping_residual(random_distribution(2 + i % 7, seed=300 + i)))
            for i in range(300))
        assert worst < 1e-12

    def test_two_outcomes_merge_to_certainty(self):
        assert grouping_residual([0.3, 0.7]) == pytest.approx(0.0, abs=1e-15)

    def test_zero_tail_rejected(self):
        with pytest.raises(ValidationError):
            grouping_residual([1.0, 0.0, 0.0])

    def test_single_outcome_rejected(self):
        with pytest.raises(ValidationError):
            grouping_residual([1.0])


class TestJointMeasures:
    # storing equiprobable bits and reading them at 60 degrees gives the
    # joint table [[3/8, 1/8], [1/8, 3/8]]
    TILTED = [[0.375, 0.125], [0.125, 0.375]]

    def test_conditional_entropy_value(self):
        assert conditional_entropy(self.TILTED) == pytest.approx(0.811278, abs=1e-6)

    def test_mutual_information_value(self):
        assert mutual_information(self.TILTED) == pytest.approx(0.188722, abs=1e-6)

    def test_product_table_has_zero_mutual_information(self):
        joint = np.outer([0.3, 0.7], [0.2, 0.5, 0.3])
        assert mutual_information(joint) == pytest.approx(0.0, abs=1e-12)
        assert conditional_entropy(joint) == pytest.approx(
            shannon_entropy([0.3, 0.7]), abs=1e-12)

    def test_perfect_correlation(self):
        joint = [[0.5, 0.0], [0.0, 0.5]]
        assert conditional_entropy(joint) == pytest.approx(0.0, abs=1e-15)
        assert mutual_information(joint) == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_column_ignored(self):
        joint = [[0.5, 0.0, 0.0], [0.5, 0.0, 0.0]]
        assert conditional_entropy(joint) == pytest.approx(1.0, abs=1e-12)

    def test_chain_rule_against_definition(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            table = rng.dirichlet(np.ones(12)).reshape(3, 4)
            # independent route: H(A|B) = H(A,B) - H(B)
            h_joint = shannon_entropy(table.reshape(-1))
            h_b = shannon_entropy(table.sum(axis=0))
            assert conditional_entropy(table) == pytest.approx(h_joint - h_b, abs=1e-12)
            h_a = shannon_entropy(table.sum(axis=1))
            assert mutual_information(table) == pytest.approx(
                h_a + h_b - h_joint, abs=1e-12)

    def test_rejects_bad_tables(self):
        with pytest.raises(ValidationError):
            conditional_entropy([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValidationError):
            mutual_information([0.5, 0.5])


def reference_conditional_entropy(table):
    """Column loop: sum_b p(b) H(A | B = b), zero-probability columns skipped."""
    h = 0.0
    for col in table.T:
        pb = float(col.sum())
        if pb > 0.0:
            pos = col[col > 0.0] / pb
            h -= pb * float((pos * np.log2(pos)).sum())
    return h


class TestBatchedKernels:
    @pytest.mark.parametrize("shape", [(40, 1, 1), (40, 3, 2), (40, 2, 5), (7, 4, 6)])
    def test_match_column_loop_on_stacks(self, shape):
        rng = np.random.default_rng(sum(shape))
        k, a, b = shape
        tables = rng.dirichlet(np.ones(a * b), size=k).reshape(shape)
        if b > 1:
            tables[::3, :, 0] = 0.0  # zero-probability columns
        if a > 1:
            tables[1::4, 0, :] = 0.0  # and rows
        tables /= tables.sum(axis=(1, 2), keepdims=True)
        conditional = _conditional_entropy(tables)
        mutual = _mutual_information(tables)
        assert conditional.shape == mutual.shape == (k,)
        for table, h, i in zip(tables, conditional, mutual):
            expected = reference_conditional_entropy(table)
            assert h == pytest.approx(expected, abs=1e-14)
            assert i == pytest.approx(shannon_entropy(table.sum(axis=1)) - expected, abs=1e-14)

    def test_entropy_batches_over_leading_axes(self):
        probs = np.random.default_rng(3).dirichlet(np.ones(5), size=(4, 6))
        probs[0, 0, :2] = 0.0
        probs[0, 0] /= probs[0, 0].sum()
        batched = _entropy(probs)
        assert batched.shape == (4, 6)
        for row, h in zip(probs.reshape(-1, 5), batched.ravel()):
            assert h == pytest.approx(shannon_entropy(row), abs=1e-14)


def reference_majorizes(p, q, tol=1e-9):
    """Majorization with np.pad zero-padding, as the library computed it before."""
    a = np.sort(as_distribution(p))[::-1]
    b = np.sort(as_distribution(q))[::-1]
    size = max(a.size, b.size)
    a = np.pad(a, (0, size - a.size))
    b = np.pad(b, (0, size - b.size))
    return bool(np.all(np.cumsum(a) >= np.cumsum(b) - tol))


class TestMajorization:
    def test_matches_padded_reference(self):
        rng = np.random.default_rng(1300)
        for i in range(300):
            p = random_distribution(1 + i % 6, seed=1300 + i)
            q = random_distribution(1 + rng.integers(6), seed=1600 + i)
            if i % 3 == 0:  # near-ties: q is p mixed a little toward uniform
                q = 0.999 * p + 0.001 / p.size
            assert majorizes(p, q) == reference_majorizes(p, q)
            assert majorizes(q, p) == reference_majorizes(q, p)

    def test_known_orderings(self):
        assert majorizes([0.7, 0.3], [0.5, 0.5])
        assert not majorizes([0.5, 0.5], [0.7, 0.3])
        assert majorizes([1.0, 0.0], [0.9, 0.1])

    def test_uniform_majorized_by_everything(self):
        for i in range(30):
            n = 2 + i % 5
            p = random_distribution(n, seed=400 + i)
            assert majorizes(p, np.full(n, 1.0 / n))

    def test_reflexive(self):
        p = random_distribution(5, seed=5)
        assert majorizes(p, p)

    def test_incomparable_pair(self):
        a = [0.6, 0.25, 0.15]
        b = [0.5, 0.5, 0.0]
        assert not majorizes(a, b)
        assert not majorizes(b, a)

    def test_padding_shorter_vector(self):
        assert majorizes([1.0], [0.5, 0.5])
        assert not majorizes([0.5, 0.5], [1.0])

    def test_mixing_is_majorized(self):
        for i in range(100):
            n = 2 + i % 6
            p = random_distribution(n, seed=500 + i)
            s = random_doubly_stochastic(n, seed=600 + i)
            assert majorizes(p, apply_doubly_stochastic(s, p))


class TestDoublyStochastic:
    def test_validation_accepts_permutation(self):
        as_doubly_stochastic([[0, 1], [1, 0]])

    def test_validation_rejects_row_drift(self):
        with pytest.raises(ValidationError):
            as_doubly_stochastic([[0.6, 0.5], [0.4, 0.5]])

    def test_validation_rejects_negative(self):
        with pytest.raises(ValidationError):
            as_doubly_stochastic([[1.2, -0.2], [-0.2, 1.2]])

    @pytest.mark.parametrize("matrix", [[[0.5, 0.5]], [[1.0], [0.0]]], ids=["row", "column"])
    def test_validation_rejects_non_square(self, matrix):
        with pytest.raises(ValidationError, match="^expected a nonempty square matrix$"):
            as_doubly_stochastic(matrix)

    def test_random_is_doubly_stochastic(self):
        for i in range(20):
            n = 1 + i % 6
            s = random_doubly_stochastic(n, seed=700 + i)
            assert np.allclose(s.sum(axis=0), 1.0, atol=1e-12)
            assert np.allclose(s.sum(axis=1), 1.0, atol=1e-12)
            assert s.min() >= 0.0

    def test_random_is_deterministic_per_seed(self):
        assert np.array_equal(random_doubly_stochastic(4, seed=9),
                              random_doubly_stochastic(4, seed=9))
        assert not np.array_equal(random_doubly_stochastic(4, seed=9),
                                  random_doubly_stochastic(4, seed=10))

    def test_size_one_is_trivial(self):
        assert np.array_equal(random_doubly_stochastic(1, seed=3), [[1.0]])

    def test_apply_preserves_uniform(self):
        s = random_doubly_stochastic(5, seed=12)
        assert np.allclose(apply_doubly_stochastic(s, np.full(5, 0.2)),
                           np.full(5, 0.2), atol=1e-12)

    def test_apply_rejects_size_mismatch(self):
        with pytest.raises(ValidationError):
            apply_doubly_stochastic(random_doubly_stochastic(3, seed=1), [0.5, 0.5])


class TestSchurMonotonicity:
    def test_entropy_never_drops_and_quadratic_never_rises(self):
        for i in range(200):
            n = 2 + i % 7
            p = random_distribution(n, seed=800 + i)
            mixed = apply_doubly_stochastic(random_doubly_stochastic(n, seed=900 + i), p)
            assert shannon_entropy(mixed) >= shannon_entropy(p) - 1e-12
            assert quadratic_information(mixed) <= quadratic_information(p) + 1e-12


class TestRandomDistribution:
    def test_deterministic_per_seed(self):
        assert np.array_equal(random_distribution(5, seed=1), random_distribution(5, seed=1))
        assert not np.array_equal(random_distribution(5, seed=1), random_distribution(5, seed=2))

    def test_valid(self):
        p = random_distribution(9, seed=77)
        assert p.min() >= 0.0
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
