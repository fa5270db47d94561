"""Typical sets and optimal yes/no question strategies for iid sources.

Question strategies are binary prefix codes: each codeword spells out the
answers to an adaptive sequence of yes/no questions that pins down the
outcome, so the average codeword length is the average number of questions.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .probability import _entropy, as_distribution

ENUMERATION_CAP = 2 ** 24  # desk-scale tool, not a production compressor


@dataclass(frozen=True)
class TypicalSetReport:
    """Exact census of the weakly typical length-N sequences of an iid source."""

    block_length: int
    epsilon: float
    count: int
    rate: float
    total_probability: float


@dataclass(frozen=True)
class PrefixCode:
    """Binary prefix code, one codeword per source symbol.

    Lengths satisfy the Kraft inequality. A single-symbol source gets the
    empty codeword (no questions needed). The Shannon window
    H(p) <= average_length < H(p) + 1 holds whenever at least two symbols
    carry probability; a lone positive symbol padded with explicit
    zero-probability symbols forces average_length = 1 > H + epsilon, since
    every symbol must still receive a codeword.
    """

    lengths: tuple[int, ...]
    codewords: tuple[str, ...]
    average_length: float


def typical_set(p, block_length: int, epsilon: float, cap: int = ENUMERATION_CAP) -> TypicalSetReport:
    """Count the weakly typical sequences of length block_length exactly.

    A sequence x is typical when |(-1/N) log2 P(x) - H(p)| <= epsilon.
    Sequences containing a zero-probability letter have infinite per-letter
    surprise and are never typical. The census runs over letter-count type
    classes, so it is exact for every block length with n^N <= cap.
    """
    probs = as_distribution(p)
    n = probs.size
    if block_length < 1:
        raise ValidationError("block length must be >= 1")
    if not (np.isfinite(epsilon) and epsilon > 0.0):
        raise ValidationError("epsilon must be positive")
    if n ** block_length > cap:
        raise ValidationError(
            f"{n}^{block_length} sequences exceed the enumeration cap {cap}")
    entropy = _entropy(probs)
    count = 0
    total = 0.0
    for counts in _compositions(block_length, n):
        if any(c > 0 and probs[i] == 0.0 for i, c in enumerate(counts)):
            continue
        log_prob = sum(c * math.log2(probs[i]) for i, c in enumerate(counts) if c)
        if abs(-log_prob / block_length - entropy) <= epsilon:
            multiplicity = _multinomial(block_length, counts)
            count += multiplicity
            total += multiplicity * math.prod(
                probs[i] ** c for i, c in enumerate(counts) if c)
    rate = math.log2(count) / block_length if count else float("-inf")
    return TypicalSetReport(block_length, float(epsilon), count, rate, total)


def question_strategy(p) -> PrefixCode:
    """Optimal questioning strategy for a single draw, as a Huffman code.

    Ties are broken deterministically: the two lowest-weight nodes merge,
    equal weights resolved by lowest original symbol index first and then by
    order of creation, so repeated runs give identical trees. Zero-probability
    symbols still receive codewords and end up deepest in the tree.
    """
    probs = as_distribution(p)
    n = probs.size
    if n == 1:
        return PrefixCode((0,), ("",), 0.0)
    # heap entries are (weight, tie order, node id); leaves get order 0..n-1,
    # merged nodes continue upward from n
    heap = [(float(w), i, i) for i, w in enumerate(probs)]
    heapq.heapify(heap)
    children: dict[int, tuple[int, int]] = {}
    next_id = n
    while len(heap) > 1:
        w1, _, a = heapq.heappop(heap)
        w2, _, b = heapq.heappop(heap)
        children[next_id] = (a, b)
        heapq.heappush(heap, (w1 + w2, next_id, next_id))
        next_id += 1
    root = heap[0][2]
    lengths = [0] * n
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if node < n:
            lengths[node] = depth
        else:
            a, b = children[node]
            stack.append((a, depth + 1))
            stack.append((b, depth + 1))
    average = float(np.dot(probs, lengths))
    return PrefixCode(tuple(lengths), _canonical_codewords(lengths), average)


def block_question_rate(p, block_length: int, cap: int = ENUMERATION_CAP) -> float:
    """Questions per symbol of the optimal strategy on block_length-fold blocks.

    Equals the Huffman average length of the product source divided by the
    block length, so it lies in [H(p), H(p) + 1/block_length) for sources
    with at least two supported symbols.
    """
    probs = as_distribution(p)
    if block_length < 1:
        raise ValidationError("block length must be >= 1")
    if probs.size ** block_length > cap:
        raise ValidationError(
            f"{probs.size}^{block_length} block outcomes exceed the enumeration cap {cap}")
    block = probs
    for _ in range(block_length - 1):
        block = np.kron(block, probs)
    return question_strategy(block).average_length / block_length


def _compositions(total: int, parts: int):
    """Yield all tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _multinomial(total: int, counts) -> int:
    result = 1
    remaining = total
    for c in counts:
        result *= math.comb(remaining, c)
        remaining -= c
    return result


def _canonical_codewords(lengths) -> tuple[str, ...]:
    """Assign canonical codewords (sorted by length, then symbol index)."""
    order = sorted(range(len(lengths)), key=lambda i: (lengths[i], i))
    codes = [""] * len(lengths)
    code = 0
    prev = 0
    for idx in order:
        length = lengths[idx]
        code <<= length - prev
        codes[idx] = format(code, "b").zfill(length) if length else ""
        code += 1
        prev = length
    return tuple(codes)
