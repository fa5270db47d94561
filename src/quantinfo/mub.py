"""Mutually unbiased bases: construction, verification, state reconstruction.

A set of bases is mutually unbiased when every cross-basis projector pair
satisfies Tr(PQ) = 1/n; a dimension admits at most n+1 such bases, and that
complete number is constructible here for n = 2 and odd prime n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .probability import ENTRY_TOL, SUM_TOL, _clamp, _quadratic
from .quantum import _as_matrices, _born, _fix_column_phases, as_density

UNBIASED_TOL = 1e-9
HYPERPLANE_MAX_ENTRIES = 2 ** 22  # complex entries in the deviation operators or their Gram matrix


@dataclass(frozen=True)
class DeviationReport:
    """Worst-case deviation over all cross-basis projector pairs.

    worst_pair is (basis_j, vector_i, basis_k, vector_m) for the offending
    pair of projectors.
    """

    max_deviation: float
    worst_pair: tuple[int, int, int, int]
    tol: float
    passed: bool


def build_mubs(n: int) -> list[np.ndarray]:
    """Complete set of n+1 mutually unbiased bases for n = 2 or an odd prime.

    For n = 2 these are the three Pauli eigenbases. For odd prime n the k-th
    non-computational basis has vector m with components
    exp(2*pi*i*(k*l^2 + m*l)/n)/sqrt(n); quadratic Gauss sums make distinct k
    unbiased. Composite and even dimensions beyond 2 are rejected. Every
    vector's first nonzero component is real positive.
    """
    if n == 2:
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        z = np.eye(2, dtype=complex)
        x = np.array([[1, 1], [1, -1]], dtype=complex) * inv_sqrt2
        y = np.array([[1, 1], [1j, -1j]], dtype=complex) * inv_sqrt2
        return [z, x, y]
    if n < 2 or not _is_odd_prime(n):
        raise ValidationError(
            f"complete MUB sets are constructed only for n = 2 and odd primes, got {n}")
    bases = [np.eye(n, dtype=complex)]
    l = np.arange(n)
    for k in range(n):
        phase = (k * l[:, None] ** 2 + l[:, None] * l[None, :]) % n
        basis = np.exp(2j * np.pi * phase / n) / np.sqrt(n)
        bases.append(_fix_column_phases(basis))
    return bases


def verify_unbiased(bases, tol: float = UNBIASED_TOL) -> DeviationReport:
    """Exhaustive check of |Tr(P Q) - 1/n| over all cross-basis projector pairs."""
    return _overlap_report(_common_dimension(bases), tol)


def hyperplane_orthogonality(bases, tol: float = UNBIASED_TOL) -> DeviationReport:
    """Exhaustive check of |Tr(Pbar Qbar)| over all cross-basis pairs.

    Pbar = P - I/n is the traceless part of a projector; for unbiased bases
    the deviation operators of different bases are Hilbert-Schmidt
    orthogonal. Computed from the deviation operators themselves, not from
    the overlap shortcut used by verify_unbiased, so the two checks stay
    independent: Tr(Pbar Qbar) = vec(Pbar) . vec(Qbar^T) fills one Gram matrix.
    Sets whose operators or Gram matrix would exceed HYPERPLANE_MAX_ENTRIES
    are rejected before either is built (a complete set passes up to n = 43).
    """
    checked = _common_dimension(bases)
    count, n = checked.shape[:2]
    if max(count * n ** 3, (count * n) ** 2) > HYPERPLANE_MAX_ENTRIES:
        raise ValidationError(
            f"{count} bases of dimension {n} exceed the hyperplane check's cap of "
            f"{HYPERPLANE_MAX_ENTRIES} complex entries")
    vectors = np.concatenate(checked, axis=1)  # column b*n + i is vector i of basis b
    ops = np.einsum("ar,br->rab", vectors, vectors.conj()) - np.eye(n) / n
    gram = ops.reshape(len(ops), -1) @ ops.transpose(0, 2, 1).reshape(len(ops), -1).T
    # scan[j, k, i, m] = |Tr(Pbar_ji Qbar_km)| over j < k, first maximum wins
    scan = np.abs(gram.real).reshape(count, n, count, n).transpose(0, 2, 1, 3)
    scan[~np.triu(np.ones((count, count), dtype=bool), 1)] = -1.0
    j, k, i, m = (int(x) for x in np.unravel_index(np.argmax(scan), scan.shape))
    worst = float(scan[j, k, i, m])
    worst_pair = (j, i, k, m) if worst > 0.0 else (0, 0, 0, 0)
    return DeviationReport(worst, worst_pair, tol, worst < tol)


def information_sum(rho, bases) -> float:
    """Sum of quadratic information over the outcome statistics of a MUB set.

    For a complete set of n+1 mutually unbiased bases this equals
    Tr(rho - I/n)^2 identically, which is what makes the quadratic measure
    basis-set invariant while the Shannon sum is not.
    """
    state = as_density(rho)
    checked = _complete_set(bases)
    n = state.shape[0]
    if checked.shape[1] != n:
        raise ValidationError(
            f"bases are {checked.shape[1]}-dimensional but the state is {n}-dimensional")
    return float(_quadratic(_born(state, checked)).sum())


def reconstruct(prob_lists, bases) -> np.ndarray:
    """Rebuild a state from the outcome statistics of a complete MUB set.

    rho = I/n + sum_j sum_i (p_i^j - 1/n) (P_i^j - I/n). With exact Born
    statistics this returns the original state; with noisy statistics it
    stays Hermitian with unit trace but may be indefinite. Positivity is
    deliberately not enforced; use smallest_eigenvalue to diagnose.
    """
    checked = _complete_set(bases)
    n = checked.shape[1]
    dists = _clamp(prob_lists, 2, "probability vector", ENTRY_TOL, SUM_TOL, axis=-1)
    if len(dists) != n + 1:
        raise ValidationError(f"need {n + 1} outcome distributions, got {len(dists)}")
    if dists.shape[1] != n:
        raise ValidationError(f"each outcome distribution must have {n} entries")
    deviations = dists - 1.0 / n
    rho = (np.einsum("ji,jai,jbi->ab", deviations, checked, checked.conj())
           + np.eye(n) * (1.0 - deviations.sum()) / n)
    return (rho + rho.conj().T) / 2.0


def _common_dimension(bases) -> np.ndarray:
    """Validate at least two bases of one dimension as a (count, n, n) stack."""
    checked = _as_matrices(bases, 3, "basis")
    if len(checked) < 2:
        raise ValidationError("need at least two bases")
    return checked


def _complete_set(bases) -> np.ndarray:
    """Validate a complete set: n+1 bases of dimension n, mutually unbiased."""
    checked = _common_dimension(bases)
    n = checked.shape[1]
    if len(checked) != n + 1:
        raise ValidationError(f"a complete MUB set for dimension {n} has {n + 1} bases")
    report = _overlap_report(checked, UNBIASED_TOL)
    if not report.passed:
        raise ValidationError(
            f"bases are not mutually unbiased: deviation {report.max_deviation:.3e}")
    return checked


def _overlap_report(checked: np.ndarray, tol: float) -> DeviationReport:
    # one product of basis j with all later bases, not a (count n)^2 Gram
    # matrix; the first maximum in (j, k, i, m) order wins
    count, n = checked.shape[:2]
    worst = 0.0
    worst_pair = (0, 0, 0, 0)
    for j in range(count - 1):
        deviation = np.abs(np.abs(checked[j].conj().T @ checked[j + 1:]) ** 2 - 1.0 / n)
        k, i, m = np.unravel_index(np.argmax(deviation), deviation.shape)
        if deviation[k, i, m] > worst:
            worst = float(deviation[k, i, m])
            worst_pair = (j, int(i), j + 1 + int(k), int(m))
    return DeviationReport(worst, worst_pair, tol, worst < tol)


def _is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True
