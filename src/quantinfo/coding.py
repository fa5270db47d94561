"""Typical sets and optimal yes/no question strategies for iid sources.

Question strategies are binary prefix codes: each codeword spells out the
answers to an adaptive sequence of yes/no questions that pins down the
outcome, so the average codeword length is the average number of questions.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .probability import _check_size, _check_work, _entropy, _finite_scalar, _spell, as_distribution


class TypicalSetReport(NamedTuple):
    """Exact census of the weakly typical length-N sequences of an iid source."""

    block_length: int
    epsilon: float
    count: int
    rate: float
    total_probability: float


class PrefixCode(NamedTuple):
    """Binary prefix code, one codeword per source symbol that can occur.

    A zero-probability symbol is never asked about: its length is 0 and its
    codeword None. The other lengths satisfy the Kraft inequality, and a
    single possible symbol gets the empty codeword (no questions needed), so
    H(p) <= average_length < H(p) + 1 holds for every source.
    """

    lengths: tuple[int, ...]
    codewords: tuple[str | None, ...]
    average_length: float


def typical_set(p, block_length: int, epsilon: float) -> TypicalSetReport:
    """Count the weakly typical sequences of length block_length exactly.

    A sequence x is typical when |(-1/N) log2 P(x) - H(p)| <= epsilon.
    Sequences containing a zero-probability letter have infinite per-letter
    surprise and are never typical, so such letters are dropped first. The
    census runs over letter-count type classes of the other letters, so it is
    exact for every block length whose classes fit the work cap (and
    N <= 2^53, n^N <= 2^53).
    """
    probs = _possible(p)
    message = "epsilon must be positive"
    epsilon = _finite_scalar(epsilon, message)
    if not epsilon > 0.0:
        raise ValidationError(message)
    classes = _type_classes(probs, block_length)
    entropy = _entropy(probs)
    count = 0
    total = 0.0
    for log_weight, multiplicity in classes:
        if abs(-log_weight / block_length - entropy) <= epsilon:
            count += multiplicity
            total += multiplicity * 2.0 ** log_weight
    rate = math.log2(count) / block_length if count else float("-inf")
    return TypicalSetReport(block_length, float(epsilon), count, rate, total)


def question_strategy(p) -> PrefixCode:
    """Optimal questioning strategy for a single draw, as a Huffman code.

    Ties are broken deterministically: the two lowest-weight nodes merge,
    equal weights resolved by lowest original symbol index first and then by
    order of creation, so repeated runs give identical trees. Zero-probability
    symbols are left out of the tree: they get length 0 and codeword None.
    """
    dist = as_distribution(p)
    asked = np.flatnonzero(dist).tolist()
    n = len(asked)
    # heap entries are (weight, tie order, node id); leaves get order 0..n-1,
    # merged nodes continue upward from n
    heap = [(w, k, k) for k, w in enumerate(dist[asked].tolist())]
    heapq.heapify(heap)
    children = []  # entries 2j and 2j + 1 are the two nodes merged into node n + j
    while len(heap) > 1:
        w1, _, a = heapq.heappop(heap)
        w2, _, b = heapq.heappop(heap)
        node = n + len(children) // 2
        children += (a, b)
        heapq.heappush(heap, (w1 + w2, node, node))
    # a parent's id exceeds its children's, so one pass down from the root fills every depth
    depths = [0] * (n + len(children) // 2)
    for j in reversed(range(len(children))):
        depths[children[j]] = depths[n + j // 2] + 1
    del depths[n:]
    lengths = [0] * dist.size
    codewords: list[str | None] = [None] * dist.size
    for i, depth, word in zip(asked, depths, _canonical_codewords(depths)):
        lengths[i], codewords[i] = depth, word
    return PrefixCode(tuple(lengths), tuple(codewords), float(np.dot(dist[asked], depths)))


def block_question_rate(p, block_length: int) -> float:
    """Questions per symbol of the optimal strategy on block_length-fold blocks.

    Equals the Huffman average length of the product source divided by the
    block length, so it lies in [H(p), H(p) + 1/block_length). Zero-probability
    letters are dropped first: a block holding one never occurs, so it is
    never asked about. The product source has one weight per type class, so
    the tree is built over (weight, multiplicity) runs, and as many classes
    are accepted as the work cap admits.
    """
    probs = _possible(p)
    runs = sorted((2.0 ** log_weight, multiplicity)
                  for log_weight, multiplicity in _type_classes(probs, block_length))
    return _run_length_huffman(runs) / block_length


def _possible(p) -> np.ndarray:
    """The validated distribution without its zero-probability letters."""
    probs = as_distribution(p)
    return probs[probs > 0.0]


def _type_classes(probs: np.ndarray, block_length: int) -> list[tuple[float, int]]:
    """(log2 weight, multiplicity) of each type class of length-block_length sequences.

    A type class holds the sequences with one tuple of letter counts; they
    share the weight prod p_i^c_i, and there are block_length! / prod c_i!
    of them. Classes come in lexicographic order of the counts. The log
    weight sums c_i log2 p_i over the letters in order, which must all be
    positive. Rejects block lengths that are not integers in [1, 2^53], more
    than 2^53 sequences (multiplicities stay exact as floats) and more
    classes than the work cap admits.
    """
    n = probs.size
    _check_size(block_length, "block length")
    # k first: two letters pass 2^53 past k = 53, and n^k costs time growing with k; a numpy k would wrap it
    if n > 1 and block_length > 53 or n ** int(block_length) > 2 ** 53:
        raise ValidationError(f"{n}^{_spell(block_length, str)} sequences exceed 2^53")
    if block_length > 2 ** 53:  # one letter only: past 2^53 the block length is not exact as a float
        raise ValidationError(f"block length {_spell(block_length, str)} exceeds 2^53")
    classes = math.comb(block_length + n - 1, n - 1)
    # 4,096 units a class: the slowest block rate admitted, 6 letters at k = 17 (26,334 classes), took 0.4 s
    _check_work(4096 * classes, f"{classes} type classes of {n}^{block_length} sequences")
    logs = [math.log2(x) for x in probs.tolist()]
    # one letter at a time: (log2 weight so far, multiplicity so far, letters
    # left); a class whose letters are all placed is finished, since every
    # later letter counts 0
    finished = []
    partial = [(0.0, 1, block_length)]
    for log_prob in logs[:-1]:
        finished += [(log_weight + left * log_prob, multiplicity)
                     for log_weight, multiplicity, left in partial]
        partial = [(log_weight + c * log_prob if c else log_weight,
                    multiplicity * math.comb(left, c), left - c)
                   for log_weight, multiplicity, left in partial for c in range(left)]
    return finished + [(log_weight + left * logs[-1], multiplicity)
                       for log_weight, multiplicity, left in partial]


def _run_length_huffman(runs) -> float:
    """Average codeword length of a Huffman code over sorted (weight, multiplicity) runs.

    The average length is the sum of the merged weights. A lone node merges
    with one node of the next lightest run, and the run's remaining m nodes
    merge into m // 2 nodes of twice the weight in one step (Moffat and
    Turpin, IEEE Trans. IT 44(4), 1998). Merged runs are created in
    nondecreasing weight order, so a FIFO beside the sorted leaves replaces
    the heap.
    """
    leaves: deque[tuple[float, int]] = deque()
    for weight, multiplicity in runs:
        if leaves and leaves[-1][0] == weight:
            multiplicity += leaves.pop()[1]
        leaves.append((weight, multiplicity))
    merged: deque[tuple[float, int]] = deque()
    single = None  # weight of a lone node waiting for its partner
    total = 0.0
    while leaves or merged:
        if merged and not (leaves and leaves[0][0] <= merged[0][0]):
            weight, multiplicity = merged.popleft()
        else:
            weight, multiplicity = leaves.popleft()
        if single is not None:
            single += weight
            total += single
            merged.append((single, 1))
            multiplicity -= 1
        if multiplicity > 1:
            pairs = multiplicity // 2
            double = 2.0 * weight
            total += double * pairs
            if merged and merged[-1][0] == double:
                pairs += merged.pop()[1]
            merged.append((double, pairs))
        single = weight if multiplicity % 2 else None
    return total


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
