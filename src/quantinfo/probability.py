"""Information measures on finite probability distributions.

All entropies are in bits (log base 2), and 0*log(0) is taken as 0 throughout.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from .errors import ValidationError

ENTRY_TOL = 1e-12  # negative entries no worse than this are clamped to zero
SUM_TOL = 1e-9     # vectors whose sum deviates from 1 by this much are rejected

_MEMO_BYTES = 2 ** 20        # keys plus values the validator memo may hold
_MEMO_ENTRY_BYTES = 640      # allowance for the Python objects around one entry


def as_distribution(p, *, entry_tol: float = ENTRY_TOL, sum_tol: float = SUM_TOL) -> np.ndarray:
    """Validate a probability vector and return it exactly normalized.

    Entries in [-entry_tol, 0) are rounding noise and clamp to zero; a sum
    within sum_tol of 1 is renormalized. Anything further off is rejected
    rather than silently repaired.
    """
    what = "probability vector"
    return _memo(_clamp, _as_array(p, float, what), 1, what, entry_tol, sum_tol)


def as_joint_distribution(table, *, entry_tol: float = ENTRY_TOL, sum_tol: float = SUM_TOL) -> np.ndarray:
    """Validate a 2-d joint probability table; same clamping rules as vectors."""
    what = "joint probability table"
    return _memo(_clamp, _as_array(table, float, what), 2, what, entry_tol, sum_tol)


def shannon_entropy(p) -> float:
    """Shannon entropy in bits."""
    return float(_entropy(as_distribution(p)))


def surprise(p, outcome: int) -> float:
    """Surprise -log2 p[outcome] of a single outcome, in bits.

    A zero-probability outcome has no defined surprise and is rejected.
    """
    probs = as_distribution(p)
    if not 0 <= outcome < probs.size:
        raise ValidationError(f"outcome index {outcome} out of range for {probs.size} outcomes")
    if probs[outcome] == 0.0:
        raise ValidationError("surprise of a zero-probability outcome is undefined")
    return float(-np.log2(probs[outcome]))


def quadratic_information(p, norm: float = 1.0) -> float:
    """Quadratic deviation from the uniform distribution, norm * sum((p_i - 1/n)^2).

    Ranges from 0 (uniform) to norm * (1 - 1/n) (deterministic) for the
    default norm = 1.
    """
    if not (np.isfinite(norm) and norm > 0.0):
        raise ValidationError("normalization constant must be positive")
    return float(_quadratic(as_distribution(p), norm))


def grouping_residual(p) -> float:
    """Residual of the entropy grouping identity when the last two outcomes merge.

    For (p_1, ..., p_{n-1}, q1, q2) this is

        H(p_1, ..., q1, q2) - H(p_1, ..., q1+q2) - (q1+q2) H(q1/(q1+q2), q2/(q1+q2))

    and is zero in exact arithmetic for every distribution.
    """
    probs = as_distribution(p)
    if probs.size < 2:
        raise ValidationError("grouping needs at least two outcomes to merge")
    q1, q2 = float(probs[-2]), float(probs[-1])
    tail = q1 + q2
    if tail <= 0.0:
        raise ValidationError("merged outcomes have zero total probability")
    merged = probs[:-1].copy()
    merged[-1] = tail
    lhs = _entropy(probs)
    rhs = _entropy(merged) + tail * _entropy(np.array([q1 / tail, q2 / tail]))
    return float(lhs - rhs)


def conditional_entropy(joint) -> float:
    """H(A|B) for a joint table with rows indexed by A and columns by B.

    Zero-probability columns contribute nothing.
    """
    return float(_conditional_entropy(as_joint_distribution(joint)))


def mutual_information(joint) -> float:
    """H(A) - H(A|B) for a joint table with rows indexed by A."""
    return float(_mutual_information(as_joint_distribution(joint)))


def majorizes(p, q, tol: float = 1e-9) -> bool:
    """True if p majorizes q (descending partial sums of p dominate q's).

    Vectors of different lengths are compared after padding with zeros. The
    uniform distribution is majorized by everything of its length.
    """
    a, b = as_distribution(p), as_distribution(q)
    padded = np.zeros((2, max(a.size, b.size)))
    padded[0, :a.size] = np.sort(a)[::-1]
    padded[1, :b.size] = np.sort(b)[::-1]
    sums = np.cumsum(padded, axis=1)
    return bool((sums[0] >= sums[1] - tol).all())


def as_doubly_stochastic(matrix, *, entry_tol: float = ENTRY_TOL, sum_tol: float = SUM_TOL) -> np.ndarray:
    """Validate a square matrix with nonnegative entries and unit row/column sums."""
    return _memo(_doubly_stochastic, _as_array(matrix, float, "matrix"), entry_tol, sum_tol)


def apply_doubly_stochastic(matrix, p) -> np.ndarray:
    """Mix a distribution through a doubly stochastic matrix (Schur averaging)."""
    s = as_doubly_stochastic(matrix)
    probs = as_distribution(p)
    if s.shape[0] != probs.size:
        raise ValidationError(f"matrix is {s.shape[0]}x{s.shape[0]} but distribution has {probs.size} entries")
    mixed = s @ probs
    return mixed / mixed.sum()


def random_doubly_stochastic(n: int, seed: int, permutations: int | None = None) -> np.ndarray:
    """Seeded random convex combination of permutation matrices (Birkhoff form).

    At least n permutation matrices enter the combination so that generic
    draws have full support.
    """
    if n < 1:
        raise ValidationError("matrix size must be >= 1")
    k = n + 1 if permutations is None else permutations
    if k < n:
        raise ValidationError(f"need at least {n} permutation matrices, got {k}")
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(k))
    out = np.zeros((n, n))
    rows = np.arange(n)
    for w in weights:
        out[rows, rng.permutation(n)] += w
    return out


def random_distribution(n: int, seed: int) -> np.ndarray:
    """Seeded draw from the flat Dirichlet measure on the n-simplex."""
    if n < 1:
        raise ValidationError("distribution size must be >= 1")
    return np.random.default_rng(seed).dirichlet(np.ones(n))


def _clamp(values, ndim: int, what: str, entry_tol: float, sum_tol: float | None = None,
           axis: int | None = None) -> np.ndarray:
    """The one clamp routine behind the probability validators.

    Rejects a ragged or wrong-shaped array, non-finite entries and entries
    below -entry_tol, and zeroes the rest of the negatives. Given sum_tol, a
    total within sum_tol of 1 is renormalized and one further off is
    rejected; the total is the whole array's, or each last-axis row's for
    axis=-1.

    A valid array is accepted by whole-array reductions alone: a NaN or -inf
    fails the minimum test, a +inf the maximum or sum test. Only an array
    that fails them is run through the entry checks one by one, which pick
    the error message.
    """
    arr = _as_array(values, float, what, copy=True)
    if arr.ndim != ndim or arr.size == 0:
        raise ValidationError(f"expected a nonempty {ndim}-d {what}")
    low = np.minimum.reduce(arr, axis=None)
    if low >= -entry_tol:
        if low < 0.0:
            arr[arr < 0.0] = 0.0
        if sum_tol is None:
            if np.maximum.reduce(arr, axis=None) < np.inf:
                return arr
        elif axis is None or arr.ndim == 1:
            total = np.add.reduce(arr, axis=None)
            if abs(total - 1.0) < sum_tol:
                arr /= total
                return arr
        else:
            totals = np.add.reduce(arr, axis=axis, keepdims=True)
            if np.maximum.reduce(abs(totals - 1.0), axis=None) < sum_tol:
                arr /= totals
                return arr
    return _clamp_entries(arr, what, entry_tol, sum_tol, axis)


def _clamp_entries(arr: np.ndarray, what: str, entry_tol: float, sum_tol: float | None,
                   axis: int | None) -> np.ndarray:
    """_clamp's checks one at a time, in order, for an array its fast test did not accept."""
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} entries must be finite")
    if (arr < -entry_tol).any():
        raise ValidationError(f"negative {what} entry: min {arr.min():.3e}")
    arr[arr < 0.0] = 0.0
    if sum_tol is None:
        return arr
    totals = arr.sum(axis=axis, keepdims=True)
    drift = abs(totals - 1.0)
    if np.count_nonzero(drift >= sum_tol):
        raise ValidationError(f"{what} sums to {float(totals.flat[drift.argmax()])!r}, not 1")
    return arr / totals


def _doubly_stochastic(matrix: np.ndarray, entry_tol: float, sum_tol: float) -> np.ndarray:
    arr = _clamp(matrix, 2, "matrix", entry_tol)
    if arr.shape[0] != arr.shape[1]:
        raise ValidationError("expected a nonempty square matrix")
    if np.any(np.abs(arr.sum(axis=0) - 1.0) >= sum_tol):
        raise ValidationError("column sums deviate from 1")
    if np.any(np.abs(arr.sum(axis=1) - 1.0) >= sum_tol):
        raise ValidationError("row sums deviate from 1")
    return arr


class _Memo:
    """Results of passed checks, keyed by the exact content of the checked array.

    The key holds the array's raw bytes (not a digest, so no collision can
    hand one input another's verdict), its dtype and shape, the check and the
    check's other arguments. A rejected input stores nothing, so it is
    checked, and raises, again on every call. Stored values are read-only
    and a hit returns a copy. An entry costs its key's bytes, its value's
    bytes (none when the check returned its input: the value is then a view
    of the key's bytes) and _MEMO_ENTRY_BYTES. Past the budget the least
    recently used entries are evicted; an entry larger than the budget, or
    one whose arguments cannot be hashed (a 0-d array tolerance), is checked
    but not stored.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.size = 0
        self._entries: OrderedDict[tuple, tuple[np.ndarray, int]] = OrderedDict()
        self._lock = threading.Lock()

    def __call__(self, check, arr: np.ndarray, *args):
        if arr.nbytes + _MEMO_ENTRY_BYTES > self.budget:
            return check(arr, *args)
        raw = arr.tobytes()
        key = (check, arr.dtype, arr.shape, args, raw)
        try:
            entry = self._entries.get(key)  # single dict operations are atomic; the lock guards size
        except TypeError:  # an unhashable argument, such as a 0-d array tolerance
            return check(arr, *args)
        if entry is not None:
            try:
                self._entries.move_to_end(key)
            except KeyError:  # another thread evicted it after the lookup
                pass
            return entry[0].copy()
        result = check(arr, *args)
        if result is arr:
            value = np.frombuffer(raw, arr.dtype).reshape(arr.shape)
            size = len(raw) + _MEMO_ENTRY_BYTES
        else:
            value = result.copy()
            value.flags.writeable = False
            size = len(raw) + value.nbytes + _MEMO_ENTRY_BYTES
        if size <= self.budget:
            with self._lock:
                if self._entries.setdefault(key, (value, size))[0] is value:
                    self.size += size
                while self.size > self.budget:
                    self.size -= self._entries.popitem(last=False)[1][1]
        return result


_memo = _Memo(_MEMO_BYTES)


def _as_array(values, dtype, what: str, copy: bool = False) -> np.ndarray:
    """np.asarray, or a C-ordered copy, that rejects a ragged list such as matrices of two sizes."""
    try:
        return np.array(values, dtype=dtype, order="C") if copy else np.asarray(values, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what}: mismatched dimensions or non-numeric entries") from exc


# Kernels below take arrays that a validator above has already checked. The
# entropies reduce over the last axis (the last two for tables) and batch over
# any leading axes; they sum with einsum, which is several times faster than
# ndarray.sum over a short last axis.

def _entropy(probs: np.ndarray):
    # np.zeros costs less than zeros_like. einsum, not multiply and add.reduce: a
    # different summation order moves entropies in the last bit, enough to flip the
    # qubit grid search between near-tied directions
    logs = np.log2(probs, out=np.zeros(probs.shape), where=probs > 0.0)
    return -np.einsum("...i,...i->...", probs, logs)


def _quadratic(probs: np.ndarray, norm: float = 1.0):
    return norm * ((probs - 1.0 / probs.shape[-1]) ** 2).sum(axis=-1)


def _conditional_entropy(table: np.ndarray):
    """H(A|B) = H(A,B) - H(B) with A on the second-to-last axis."""
    joint = table.reshape(*table.shape[:-2], -1)
    return _entropy(joint) - _entropy(np.einsum("...ab->...b", table))


def _mutual_information(table: np.ndarray):
    return _entropy(np.einsum("...ab->...a", table)) - _conditional_entropy(table)
