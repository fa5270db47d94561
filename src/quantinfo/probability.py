"""Information measures on finite probability distributions.

All entropies are in bits (log base 2), and 0*log(0) is taken as 0 throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

ENTRY_TOL = 1e-12  # negative entries no worse than this are clamped to zero
SUM_TOL = 1e-9     # vectors whose sum deviates from 1 by this much are rejected


def as_distribution(p, *, entry_tol: float = ENTRY_TOL, sum_tol: float = SUM_TOL) -> np.ndarray:
    """Validate a probability vector and return it exactly normalized.

    Entries in [-entry_tol, 0) are rounding noise and clamp to zero; a sum
    within sum_tol of 1 is renormalized. Anything further off is rejected
    rather than silently repaired.
    """
    return _clamp(p, 1, "probability vector", entry_tol, sum_tol)


def as_joint_distribution(table, *, entry_tol: float = ENTRY_TOL, sum_tol: float = SUM_TOL) -> np.ndarray:
    """Validate a 2-d joint probability table; same clamping rules as vectors."""
    return _clamp(table, 2, "joint probability table", entry_tol, sum_tol)


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
    return _quadratic(as_distribution(p), norm)


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
    merged = np.append(probs[:-2], tail)
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
    a = np.sort(as_distribution(p))[::-1]
    b = np.sort(as_distribution(q))[::-1]
    size = max(a.size, b.size)
    a = np.pad(a, (0, size - a.size))
    b = np.pad(b, (0, size - b.size))
    return bool(np.all(np.cumsum(a) >= np.cumsum(b) - tol))


def as_doubly_stochastic(matrix, *, entry_tol: float = ENTRY_TOL, sum_tol: float = SUM_TOL) -> np.ndarray:
    """Validate a square matrix with nonnegative entries and unit row/column sums."""
    arr = _clamp(matrix, 2, "matrix", entry_tol)
    if arr.shape[0] != arr.shape[1]:
        raise ValidationError("expected a nonempty square matrix")
    if np.any(np.abs(arr.sum(axis=0) - 1.0) >= sum_tol):
        raise ValidationError("column sums deviate from 1")
    if np.any(np.abs(arr.sum(axis=1) - 1.0) >= sum_tol):
        raise ValidationError("row sums deviate from 1")
    return arr


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


def _clamp(values, ndim: int, what: str, entry_tol: float, sum_tol: float | None = None) -> np.ndarray:
    """The one clamp routine behind the probability validators.

    Rejects a wrong shape, non-finite entries and entries below -entry_tol,
    and zeroes the rest of the negatives. Given sum_tol, a total within
    sum_tol of 1 is renormalized and one further off is rejected.
    """
    arr = np.asarray(values, dtype=float).copy()
    if arr.ndim != ndim or arr.size == 0:
        raise ValidationError(f"expected a nonempty {ndim}-d {what}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} entries must be finite")
    if np.any(arr < -entry_tol):
        raise ValidationError(f"negative {what} entry: min {arr.min():.3e}")
    arr[arr < 0.0] = 0.0
    if sum_tol is None:
        return arr
    total = float(arr.sum())
    if abs(total - 1.0) >= sum_tol:
        raise ValidationError(f"{what} sums to {total!r}, not 1")
    return arr / total


# Kernels below take arrays that a validator above has already checked. The
# entropies reduce over the last axis (the last two for tables) and batch over
# any leading axes; they sum with einsum, which is several times faster than
# ndarray.sum over a short last axis.

def _entropy(probs: np.ndarray):
    logs = np.log2(probs, out=np.zeros_like(probs), where=probs > 0.0)
    return -np.einsum("...i,...i->...", probs, logs)


def _quadratic(probs: np.ndarray, norm: float = 1.0) -> float:
    return float(norm * ((probs - 1.0 / probs.size) ** 2).sum())


def _conditional_entropy(table: np.ndarray):
    """H(A|B) = H(A,B) - H(B) with A on the second-to-last axis."""
    joint = table.reshape(*table.shape[:-2], -1)
    return _entropy(joint) - _entropy(np.einsum("...ab->...b", table))


def _mutual_information(table: np.ndarray):
    return _entropy(np.einsum("...ab->...a", table)) - _conditional_entropy(table)
