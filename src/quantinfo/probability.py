"""Information measures on finite probability distributions.

All entropies are in bits (log base 2), and 0*log(0) is taken as 0 throughout.
"""

from __future__ import annotations

import functools
from typing import NoReturn

import numpy as np

from .errors import ValidationError

TOL = 1e-9         # the library's one verdict window: a deviation d passes if d <= TOL
ENTRY_TOL = 1e-12  # negative entries no worse than this are clamped to zero

_MEMO_ENTRIES = 64           # passed checks the validator memo keeps
_MEMO_MAX_BYTES = 8 * 1024   # larger arrays (a complete MUB set past n = 7) are never stored
_WORK_CAP = 2**27  # work units one call may spend; each capped site states its cost in them (README, "Size caps")


def as_distribution(p) -> np.ndarray:
    """Validate a probability vector and return it normalized.

    Entries in [-ENTRY_TOL, 0) are rounding noise and clamp to zero. A sum
    within TOL of 1 is divided out unless it is off by n float64 epsilons or
    less, the rounding a division leaves, so a checked vector passes unchanged.
    Anything further off is rejected rather than silently repaired.
    """
    return _clamp(p, 1, "probability vector", "total")


def as_joint_distribution(table) -> np.ndarray:
    """Validate a 2-d joint probability table by as_distribution's rules, n being its entry count."""
    return _clamp(table, 2, "joint probability table", "total")


def shannon_entropy(p) -> float:
    """Shannon entropy in bits."""
    return float(_entropy(as_distribution(p)))


def surprise(p, outcome: int) -> float:
    """Surprise -log2 p[outcome] of a single outcome, in bits.

    A zero-probability outcome has no defined surprise and is rejected.
    """
    probs = as_distribution(p)
    if not (_is_int(outcome) and 0 <= outcome < probs.size):
        raise ValidationError(f"outcome index must be an integer in [0, {probs.size}), got {_spell(outcome)}")
    if probs[outcome] == 0.0:
        raise ValidationError("surprise of a zero-probability outcome is undefined")
    # 0.0 - x, as in _entropy: a certain outcome has surprise +0.0, which -x turns into -0.0
    return float(0.0 - np.log2(probs[outcome]))


def quadratic_information(p, norm: float = 1.0) -> float:
    """Quadratic deviation from the uniform distribution, norm * sum((p_i - 1/n)^2).

    Ranges from 0 (uniform) to norm * (1 - 1/n) (deterministic) for the
    default norm = 1.
    """
    message = "normalization constant must be positive"
    norm = _finite_scalar(norm, message)
    if not norm > 0.0:
        raise ValidationError(message)
    return float(norm * _quadratic(as_distribution(p)))


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


def majorizes(p, q) -> bool:
    """True if p majorizes q (descending partial sums of p dominate q's, within TOL).

    Vectors of different lengths are compared after padding with zeros. The
    uniform distribution is majorized by everything of its length.
    """
    a, b = as_distribution(p), as_distribution(q)
    padded = np.zeros((2, max(a.size, b.size)))
    padded[0, :a.size] = np.sort(a)[::-1]
    padded[1, :b.size] = np.sort(b)[::-1]
    sums = np.cumsum(padded, axis=1)
    return bool((sums[0] >= sums[1] - TOL).all())


def as_doubly_stochastic(matrix) -> np.ndarray:
    """Validate a square matrix with nonnegative entries and unit row/column sums (within TOL)."""
    arr = _clamp(matrix, 2, "matrix", None)
    if arr.shape[0] != arr.shape[1]:
        raise ValidationError("expected a nonempty square matrix")
    if np.any(np.abs(arr.sum(axis=0) - 1.0) > TOL):
        raise ValidationError("column sums deviate from 1")
    if np.any(np.abs(arr.sum(axis=1) - 1.0) > TOL):
        raise ValidationError("row sums deviate from 1")
    return arr


def apply_doubly_stochastic(matrix, p) -> np.ndarray:
    """Mix a distribution through a doubly stochastic matrix (Schur averaging)."""
    s = as_doubly_stochastic(matrix)
    probs = as_distribution(p)
    if s.shape[0] != probs.size:
        raise ValidationError(f"matrix is {s.shape[0]}x{s.shape[0]} but distribution has {probs.size} entries")
    return _renormalize(s @ probs)


def random_doubly_stochastic(n: int, seed: int) -> np.ndarray:
    """Seeded random convex combination of permutation matrices (Birkhoff form).

    n + 1 permutation matrices enter the combination so that generic draws
    have full support.
    """
    _check_size(n, "matrix size")
    rng = np.random.default_rng(_seed(seed))
    weights = rng.dirichlet(np.ones(n + 1))
    out = np.zeros((n, n))
    rows = np.arange(n)
    for w in weights:
        out[rows, rng.permutation(n)] += w
    return out


def random_distribution(n: int, seed: int) -> np.ndarray:
    """Seeded draw from the flat Dirichlet measure on the n-simplex."""
    _check_size(n, "distribution size")
    return np.random.default_rng(_seed(seed)).dirichlet(np.ones(n))


# Entries near the float maximum can sum to inf. Such an input gets its
# ValidationError alone, with no overflow warning from either sum first. As a
# decorator, errstate costs less per call than as a with statement or than a
# maximum test before the sum.
@np.errstate(over="ignore")
def _clamp(values, ndim: int, what: str, sums: str | None) -> np.ndarray:
    """The one clamp routine behind the probability validators.

    Rejects a ragged or wrong-shaped array, non-finite entries and entries
    below -ENTRY_TOL, and zeroes the rest of the negatives. sums is the sum
    rule: "total" accepts a whole-array total within TOL of 1, "rows" each
    last-axis row's, and a total further off is rejected; None checks no sum.
    An accepted total is divided out only past rounding (_divide_out).

    A valid array is accepted by whole-array reductions alone: a NaN or -inf
    fails the minimum test, a +inf the maximum or sum test. Only an array
    that fails them is run through the entry checks one by one, which pick
    the error message.
    """
    arr = _as_array(values, float, what, copy=True)
    if arr.ndim != ndim or arr.size == 0:
        raise ValidationError(f"expected a nonempty {ndim}-d {what}")
    low = np.minimum.reduce(arr, axis=None)
    if low >= -ENTRY_TOL:
        if low < 0.0:
            arr[arr < 0.0] = 0.0
        if sums is None:
            if np.maximum.reduce(arr, axis=None) < np.inf:
                return arr
        elif sums == "total":
            total = float(np.add.reduce(arr, axis=None))
            if abs(total - 1.0) <= TOL:
                return _divide_out(arr, total, arr.size)
        else:
            totals = np.add.reduce(arr, axis=-1, keepdims=True)
            if np.maximum.reduce(abs(totals - 1.0), axis=None) <= TOL:
                return _divide_out(arr, totals, arr.shape[-1])
    _clamp_entries(arr, what, sums)


def _divide_out(arr: np.ndarray, totals, count: int) -> np.ndarray:
    """arr divided in place by each total (a float, or an array broadcasting against arr) off 1 by more
    than count float64 epsilons, count the entries a total sums. A closer total is the rounding an
    earlier division leaves and is kept, so a checked value, checked again, comes back bit for bit."""
    off = abs(totals - 1.0) > count * 2.0**-52
    if isinstance(totals, float):
        if off:
            arr /= totals
    elif np.count_nonzero(off):
        arr /= np.where(off, totals, 1.0)
    return arr


def _clamp_entries(arr: np.ndarray, what: str, sums: str | None) -> NoReturn:
    """_clamp's checks one at a time, in order, to pick the error for an array its fast test did not accept."""
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} entries must be finite")
    if (arr < -ENTRY_TOL).any():
        raise ValidationError(f"negative {what} entry: min {arr.min():.3e}")
    arr[arr < 0.0] = 0.0
    totals = arr.sum(axis=None if sums == "total" else -1, keepdims=True)
    raise ValidationError(f"{what} sums to {float(totals.flat[abs(totals - 1.0).argmax()])!r}, not 1")


def _memo(check, arr: np.ndarray, *args):
    """check(arr, *args), run once per distinct input that passes it.

    It serves the matrix checks and the complete-MUB-set check, whose
    eigvalsh and overlap scans cost more than a miss. A distribution check
    costs less than a miss, so the probability validators call _clamp directly.

    The key holds the array's raw bytes (not a digest, so no collision can
    hand one input another's verdict), its dtype and shape, the check and the
    check's other arguments. lru_cache stores no exception, so a rejected
    input is checked, and raises, again on every call. The cache keeps the
    _MEMO_ENTRIES most recently used results; an array above _MEMO_MAX_BYTES
    is checked on every call and never stored. Every call returns a copy.
    """
    if arr.nbytes > _MEMO_MAX_BYTES:
        return check(arr, *args).copy()
    return _checked(check, arr.dtype, arr.shape, args, arr.tobytes()).copy()


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _checked(check, dtype, shape, args, raw):
    result = check(np.frombuffer(raw, dtype).reshape(shape), *args)
    result.flags.writeable = False
    return result


def _is_int(value) -> bool:
    """True for an int or a numpy integer; a bool, a float or anything else is not a size or index."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_size(n, what: str) -> None:
    if not (_is_int(n) and n >= 1):
        raise ValidationError(f"{what} must be an integer >= 1, got {_spell(n)}")


def _seed(seed):
    """seed if it is a nonnegative integer; None (fresh entropy), a bool, a float or a list is rejected."""
    if not (_is_int(seed) and seed >= 0):
        raise ValidationError(f"seed must be a nonnegative integer, got {_spell(seed)}")
    return seed


def _check_work(units: int, what: str) -> None:
    """Reject a call whose work, units of the one budget counted on Python ints, passes _WORK_CAP."""
    if units > _WORK_CAP:
        raise ValidationError(f"{what} need {_spell(units)} work units, more than the work cap of {_WORK_CAP}")


def _spell(value, form=repr) -> str:
    """form(value) for a rejection message, or the bit length of an int too long to print (over 4,300 digits)."""
    try:
        return form(value)
    except ValueError:
        return f"<{value.bit_length()}-bit integer>"


def _as_array(values, dtype, what: str, copy: bool = False) -> np.ndarray:
    """np.asarray, or a C-ordered copy, that rejects a ragged list such as matrices of two sizes.

    For dtype float a complex input passes only if every imaginary part is within TOL,
    the window a Hermitian part gets; numpy's cast would drop it with a mere warning.
    """
    imag = 0.0
    try:
        arr = np.asarray(values)
        if dtype is float and arr.dtype.kind == "c":
            imag, arr = np.max(np.abs(arr.imag), initial=0.0), arr.real
        arr = np.array(arr, dtype=dtype, order="C") if copy else np.asarray(arr, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past the float range
        raise ValidationError(f"{what}: mismatched dimensions or non-numeric entries") from exc
    if not imag <= TOL:  # a NaN fails too
        raise ValidationError(f"{what} entries must be real, got an imaginary part of {imag:.3e}")
    return arr


def _finite_scalar(value, message: str) -> float:
    """A finite real number as a float, converted as _as_array converts; anything else
    (a bool, a string, None, an array, an int past the float range, inf) raises message."""
    if isinstance(value, (str, bytes)):  # numpy would read "0.5" as 0.5
        raise ValidationError(message)
    try:
        arr = _as_array(value, float, message)
    except ValidationError:
        raise ValidationError(message) from None
    if arr.ndim or not np.isfinite(arr) or np.asarray(value).dtype == bool:
        raise ValidationError(message)
    return float(arr)


# Kernels below take arrays that a validator above has already checked. The
# entropies reduce over the last axis (the last two for tables) and batch over
# any leading axes; they sum with einsum, which is several times faster than
# ndarray.sum over a short last axis.

def _renormalize(values: np.ndarray) -> np.ndarray:
    """A copy of values with negatives zeroed and each last-axis row rescaled to sum to 1; never raises.

    Rows are summed by add.reduce, as _clamp sums them: einsum adds three or more entries
    in another order, which moves the last bit.
    """
    arr = np.where(values < 0.0, 0.0, values)
    return arr / np.add.reduce(arr, axis=-1, keepdims=True)


def _entropy(probs: np.ndarray):
    # np.zeros costs less than zeros_like. einsum, not multiply and add.reduce: a
    # different summation order moves entropies in the last bit, enough to flip the
    # qubit grid search between near-tied directions
    logs = np.log2(probs, out=np.zeros(probs.shape), where=probs > 0.0)
    # 0.0 - x, not -x: a deterministic distribution sums to +0.0, which -x turns into -0.0
    return 0.0 - np.einsum("...i,...i->...", probs, logs)


def _quadratic(probs: np.ndarray):
    return ((probs - 1.0 / probs.shape[-1]) ** 2).sum(axis=-1)


def _conditional_entropy(table: np.ndarray):
    """H(A|B) = H(A,B) - H(B) with A on the second-to-last axis."""
    joint = table.reshape(*table.shape[:-2], -1)
    return _entropy(joint) - _entropy(np.einsum("...ab->...b", table))


def _mutual_information(table: np.ndarray):
    return _entropy(np.einsum("...ab->...a", table)) - _conditional_entropy(table)
