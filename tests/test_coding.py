from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantinfo import (
    ValidationError,
    block_question_rate,
    question_strategy,
    random_distribution,
    shannon_entropy,
    typical_set,
)
from quantinfo import probability
from test_channel import run_bounded


def brute_force_typical(probs, block_length, epsilon):
    """Independent oracle: walk every sequence of the product source."""
    probs = list(probs)
    entropy = shannon_entropy(probs)
    count = 0
    total = 0.0
    for seq in itertools.product(range(len(probs)), repeat=block_length):
        prob = math.prod(probs[s] for s in seq)
        if prob == 0.0:
            continue
        per_symbol = -math.log2(prob) / block_length
        if abs(per_symbol - entropy) <= epsilon:
            count += 1
            total += prob
    return count, total


class TestTypicalSet:
    def test_frozen_census(self):
        report = typical_set([0.8, 0.2], 10, 0.1)
        # per-letter surprise is -log2 0.8 + 0.2k for k letters of weight 0.2, and H = -log2 0.8 + 0.4:
        # only the k = 2 sequences fall in the window
        assert report.count == math.comb(10, 2)
        assert report.rate == pytest.approx(math.log2(math.comb(10, 2)) / 10, abs=1e-12)
        assert report.rate == pytest.approx(0.549, abs=1e-3)

    def test_matches_brute_force(self):
        cases = [
            ([0.8, 0.2], 10, 0.1),
            ([0.8, 0.2], 8, 0.2),
            ([0.5, 0.3, 0.2], 6, 0.15),
            ([0.6, 0.3, 0.1], 5, 0.3),
            ([0.4, 0.3, 0.2, 0.1], 4, 0.25),
            ([0.7, 0.3, 0.0], 6, 0.2),
        ]
        for probs, block, eps in cases:
            report = typical_set(probs, block, eps)
            count, total = brute_force_typical(probs, block, eps)
            assert report.count == count
            assert report.total_probability == pytest.approx(total, abs=1e-12)

    def test_deterministic_source(self):
        report = typical_set([1.0, 0.0], 10, 0.01)
        assert report.count == 1
        assert report.rate == 0.0
        assert report.total_probability == pytest.approx(1.0, abs=1e-15)

    def test_empty_window(self):
        report = typical_set([0.8, 0.2], 3, 1e-6)
        assert report.count == 0
        assert report.rate == float("-inf")
        assert report.total_probability == 0.0

    def test_total_probability_at_most_one(self):
        for i in range(10):
            p = random_distribution(3, seed=1000 + i)
            report = typical_set(p, 6, 0.5)
            assert report.total_probability <= 1.0 + 1e-12

    def test_convergence_is_not_monotone_on_coarse_grid(self):
        # the mass in the window dips between N=8 and N=12 before climbing:
        # small-N windows catch extra binomial shells
        totals = {n: typical_set([0.8, 0.2], n, 0.2).total_probability
                  for n in (8, 12, 16, 20)}
        assert totals[12] < totals[8]
        assert totals[12] < totals[16] < totals[20]

    def test_cap_counts_type_classes(self):
        # 2^25 sequences but only 26 classes; every sequence has surprise 1 = H
        report = typical_set([0.5, 0.5], 25, 0.1)
        assert report.count == 2 ** 25
        assert report.total_probability == 1.0
        # 6 letters at 4,096 work units a class: k = 17 has 26,334 classes, k = 18 has 33,649
        assert 4096 * math.comb(22, 5) <= probability._WORK_CAP < 4096 * math.comb(23, 5)
        typical_set([1 / 6] * 6, 17, 0.1)
        with pytest.raises(ValidationError) as caught:
            typical_set([1 / 6] * 6, 18, 0.1)
        assert str(caught.value) == ("33649 type classes of 6^18 sequences need 137826304 work units, "
                                     "more than the work cap of 134217728")

    def test_cap_is_exact(self, monkeypatch):
        # 6 classes at N = 5 for two letters
        monkeypatch.setattr(probability, "_WORK_CAP", 6 * 4096)
        assert typical_set([0.8, 0.2], 5, 0.5).count > 0
        monkeypatch.setattr(probability, "_WORK_CAP", 6 * 4096 - 1)
        with pytest.raises(ValidationError, match="6 type classes"):
            typical_set([0.8, 0.2], 5, 0.5)

    def test_sequence_count_beyond_exact_floats_rejected(self):
        typical_set([0.5, 0.5], 53, 0.1)
        with pytest.raises(ValidationError, match="2\\^53"):
            typical_set([0.5, 0.5], 54, 0.1)
        # three letters: 3^33 < 2^53 < 3^34
        typical_set([0.2, 0.3, 0.5], 33, 0.1)
        with pytest.raises(ValidationError, match="3\\^34 sequences exceed 2\\^53"):
            typical_set([0.2, 0.3, 0.5], 34, 0.1)
        # a numpy block length: 3^40 wraps to a negative int64 unless n^k is a Python int
        with pytest.raises(ValidationError, match="3\\^40 sequences exceed 2\\^53"):
            typical_set([0.2, 0.3, 0.5], np.int64(40), 0.1)

    def test_huge_block_length_rejected_fast(self):
        # 3^k is an exact integer of 0.48 k digits; without the k > 53 test,
        # k = 10^7 takes about 4 s and fails here before k = 10^9 can hang
        for check in (lambda k: typical_set([0.2, 0.3, 0.5], k, 0.1),
                      lambda k: block_question_rate([0.2, 0.3, 0.5], k)):
            for k in (10 ** 7, 10 ** 9):
                start = time.perf_counter()
                with pytest.raises(ValidationError, match=f"3\\^{k} sequences exceed 2\\^53"):
                    check(k)
                assert time.perf_counter() - start < 0.05
        # one letter has one sequence at every block length
        assert typical_set([1.0], 10 ** 9, 0.1).count == 1

    def test_block_length_past_2_to_53_rejected_for_one_letter(self):
        # one letter passes the sequence-count rule at any length; past about 1.8e308
        # the block length stopped converting to a float and raised OverflowError
        assert typical_set([1.0], 2 ** 53, 0.1).count == 1
        for check in (lambda k: typical_set([1.0], k, 0.1),
                      lambda k: block_question_rate([1.0, 0.0], k)):
            for k in (2 ** 53 + 1, 10 ** 400):
                start = time.perf_counter()
                with pytest.raises(ValidationError, match=f"^block length {k} exceeds 2\\^53$"):
                    check(k)
                assert time.perf_counter() - start < 0.1

    def test_bad_parameters_rejected(self):
        for block in (0, 2.5, 2.0, True):
            with pytest.raises(ValidationError, match="block length must be an integer"):
                typical_set([0.5, 0.5], block, 0.1)
        with pytest.raises(ValidationError):
            typical_set([0.5, 0.5], 5, 0.0)


def reference_block_rate(p, block_length):
    """Oracle: Huffman over the whole n^k product source, built with np.kron."""
    block = np.asarray(p, dtype=float)
    for _ in range(block_length - 1):
        block = np.kron(block, p)
    return question_strategy(block).average_length / block_length


def dyadic(n):
    """1/2, 1/4, ..., with the last two letters tied."""
    if n == 1:
        return np.ones(1)
    p = 2.0 ** -np.arange(1, n + 1)
    p[-1] *= 2.0
    return p


def exhaustive_optimal_average(probs):
    """Oracle: best average length over all complete binary prefix codes."""
    n = len(probs)
    best = math.inf
    scale = 2 ** (n - 1)
    for lengths in itertools.product(range(1, n), repeat=n):
        if sum(scale >> l for l in lengths) != scale:
            continue
        best = min(best, sum(p * l for p, l in zip(probs, lengths)))
    return best


class TestQuestionStrategy:
    def test_three_symbol_merge_trace(self):
        # hand merge: 0.3+0.2 -> 0.5, then join with the original 0.5
        code = question_strategy([0.5, 0.3, 0.2])
        assert code.lengths == (1, 2, 2)
        assert code.average_length == pytest.approx(1.5, abs=1e-12)

    def test_dyadic_is_exact(self):
        code = question_strategy([0.25, 0.25, 0.25, 0.25])
        assert code.lengths == (2, 2, 2, 2)
        assert code.average_length == pytest.approx(2.0, abs=1e-15)

    def test_forced_single_question(self):
        code = question_strategy([0.9, 0.1])
        assert code.lengths == (1, 1)
        assert code.average_length == pytest.approx(1.0, abs=1e-15)

    def test_single_symbol_needs_no_questions(self):
        code = question_strategy([1.0])
        assert code.lengths == (0,)
        assert code.codewords == ("",)
        assert code.average_length == 0.0

    def test_zero_probability_symbol_is_never_asked(self):
        code = question_strategy([0.5, 0.5, 0.0])
        assert code.lengths == (1, 1, 0)
        assert code.codewords == ("0", "1", None)
        assert code.average_length == 1.0
        # one possible outcome needs no question, on the closed end of [H, H + 1)
        code = question_strategy([0.0, 1.0])
        assert code.codewords == (None, "")
        assert code.average_length == 0.0
        assert block_question_rate([0.5, 0.5, 0.0], 8) == 1.0

    def test_codewords_are_prefix_free(self):
        for i in range(20):
            n = 2 + i % 7
            code = question_strategy(random_distribution(n, seed=1100 + i))
            words = code.codewords
            assert len(set(words)) == n
            for a, b in itertools.permutations(words, 2):
                assert not b.startswith(a) or a == b
            assert all(len(w) == l for w, l in zip(words, code.lengths))

    def test_kraft_sum(self):
        for i in range(20):
            n = 2 + i % 7
            code = question_strategy(random_distribution(n, seed=1200 + i))
            assert sum(2.0 ** -l for l in code.lengths) <= 1.0 + 1e-12

    def test_matches_exhaustive_optimum(self):
        for i in range(15):
            n = 3 + i % 3
            p = random_distribution(n, seed=1300 + i)
            code = question_strategy(p)
            assert code.average_length == pytest.approx(
                exhaustive_optimal_average(list(p)), abs=1e-12)

    def test_shannon_window(self):
        for i in range(30):
            n = 2 + i % 9
            p = random_distribution(n, seed=1400 + i)
            h = shannon_entropy(p)
            assert h <= question_strategy(p).average_length < h + 1.0

    def test_deterministic_tie_break(self):
        first = question_strategy([0.25, 0.25, 0.25, 0.25])
        second = question_strategy([0.25, 0.25, 0.25, 0.25])
        assert first == second


class TestBlockQuestionRate:
    def test_single_block_is_plain_average(self):
        p = [0.9, 0.1]
        assert block_question_rate(p, 1) == pytest.approx(
            question_strategy(p).average_length, abs=1e-15)
        assert block_question_rate(p, 1) == pytest.approx(1.0, abs=1e-15)

    def test_pair_block_merge_trace(self):
        # (0.81, 0.09, 0.09, 0.01): merge 0.01+0.09 -> 0.1, 0.09+0.1 -> 0.19,
        # 0.19+0.81 -> 1; lengths (1, 3, 2, 3), average 1.29
        assert block_question_rate([0.9, 0.1], 2) == pytest.approx(0.645, abs=1e-12)

    def test_window_shrinks_with_block_length(self):
        for i in range(10):
            n = 2 + i % 4
            p = random_distribution(n, seed=1500 + i)
            h = shannon_entropy(p)
            for k in (1, 2, 4):
                rate = block_question_rate(p, k)
                assert h <= rate < h + 1.0 / k

    def test_non_increasing_along_doublings(self):
        for i in range(10):
            p = random_distribution(2 + i % 3, seed=1600 + i)
            r1 = block_question_rate(p, 1)
            r2 = block_question_rate(p, 2)
            r4 = block_question_rate(p, 4)
            assert r1 + 1e-12 >= r2 >= r4 - 1e-12

    def test_cap_counts_type_classes(self):
        # 10 letters at k = 9 are 10^9 sequences in 48,620 classes
        with pytest.raises(ValidationError, match="48620 type classes"):
            block_question_rate([0.1] * 10, 9)
        # the largest accepted block, about 0.4 s on a 2-vCPU VM; the child's peak grew about 15 MB
        p = random_distribution(6, seed=1700)
        seconds, rate = run_bounded(
            "start = time.perf_counter()\nrate = block_question_rate(random_distribution(6, seed=1700), 17)\n"
            "out = [time.perf_counter() - start, rate]", headroom_mb=32)
        h = shannon_entropy(p)
        assert seconds < 10.0
        assert h <= rate < h + 1.0 / 17
        with pytest.raises(ValidationError, match="33649 type classes"):
            block_question_rate(p, 18)

    def test_sequence_count_beyond_exact_floats_rejected(self):
        # 1,101 classes, but multiplicities up to C(1100, 550) overflow a float
        with pytest.raises(ValidationError, match="2\\^53"):
            block_question_rate([0.5, 0.5], 1100)
        h = shannon_entropy([0.2, 0.3, 0.5])
        assert h <= block_question_rate([0.2, 0.3, 0.5], 33) < h + 1.0 / 33
        with pytest.raises(ValidationError, match="3\\^34 sequences exceed 2\\^53"):
            block_question_rate([0.2, 0.3, 0.5], 34)

    def test_long_binary_block_is_fast(self):
        start = time.perf_counter()
        rate = block_question_rate([0.8, 0.2], 18)
        assert time.perf_counter() - start < 0.5
        h = shannon_entropy([0.8, 0.2])
        assert h <= rate < h + 1.0 / 18

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_product_source_huffman(self, n):
        # every block length with n^k <= 2^12, on seeded, zero-padded, uniform
        # and dyadic sources
        sources = [random_distribution(n, seed=1800 + n), np.full(n, 1.0 / n),
                   dyadic(n)]
        if n > 1:
            sources.append(np.append(random_distribution(n - 1, seed=1900 + n), 0.0))
        for p in sources:
            for k in itertools.takewhile(lambda k: n ** k <= 2 ** 12, range(1, 13)):
                assert block_question_rate(p, k) == pytest.approx(
                    reference_block_rate(p, k), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.0, 7.0, 0.125]),
                    min_size=1, max_size=6).filter(lambda w: sum(w) > 0),
           st.integers(min_value=1, max_value=12))
    def test_property_matches_product_source_huffman(self, weights, k):
        p = np.array(weights) / sum(weights)
        while p.size ** k > 2 ** 12:
            k -= 1
        assert block_question_rate(p, k) == pytest.approx(
            reference_block_rate(p, k), abs=1e-12)

    def test_bad_block_rejected(self):
        for block in (0, 2.5, 2.0, True):
            with pytest.raises(ValidationError, match="block length must be an integer"):
                block_question_rate([0.5, 0.5], block)


class TestZeroProbabilityLetters:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 12), min_size=0, max_size=4),
           st.lists(st.integers(0, 6), min_size=1, max_size=3),
           st.integers(1, 6),
           st.sampled_from([0.05, 0.2, 0.5]))
    def test_property_zeros_change_nothing(self, counts, slots, k, epsilon):
        # counts over 64 make every sum exact, so renormalizing leaves the letters as they are
        p = [c / 64 for c in counts] + [1.0 - sum(counts) / 64]
        padded = list(p)
        for slot in slots:
            padded.insert(slot % (len(padded) + 1), 0.0)
        code, padded_code = question_strategy(p), question_strategy(padded)
        assert padded_code.average_length == code.average_length
        asked = [i for i, x in enumerate(padded) if x > 0.0]
        assert [padded_code.codewords[i] for i in asked] == list(code.codewords)
        assert all(padded_code.codewords[i] is None and padded_code.lengths[i] == 0
                   for i in range(len(padded)) if i not in asked)
        assert block_question_rate(padded, k) == block_question_rate(p, k)
        assert typical_set(padded, k, epsilon) == typical_set(p, k, epsilon)
