"""Mutually unbiased bases: construction, verification, state reconstruction.

A set of bases is mutually unbiased when every cross-basis projector pair
satisfies Tr(PQ) = 1/n; a dimension admits at most n+1 such bases, and that
complete number is constructible here for n = 2 and odd prime n.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .probability import TOL, _as_array, _clamp, _is_int, _memo, _quadratic, _renormalize, _spell
from .quantum import _as_matrices, _born, _check_matrices, _fix_column_phases, as_density

HYPERPLANE_MAX_ENTRIES = 2 ** 22  # complex entries in the hyperplane check's count * n^3 operators


class DeviationReport(NamedTuple):
    """Worst-case deviation over all cross-basis projector pairs.

    worst_pair is (basis_j, vector_i, basis_k, vector_m) for the offending
    pair of projectors; passed means max_deviation <= TOL.
    """

    max_deviation: float
    worst_pair: tuple[int, int, int, int]
    passed: bool


def build_mubs(n: int) -> list[np.ndarray]:
    """Complete set of n+1 mutually unbiased bases for n = 2 or an odd prime.

    For n = 2 these are the three Pauli eigenbases. For odd prime n the k-th
    non-computational basis has vector m with components
    exp(2*pi*i*(k*l^2 + m*l)/n)/sqrt(n); quadratic Gauss sums make distinct k
    unbiased. An odd n past the hyperplane check's cap (n > 45) is rejected
    before trial division tests it for primality, and then composite and even
    n beyond 2. Every vector's first nonzero component is real positive.
    """
    if _is_int(n) and n > 2 and n % 2:
        _check_hyperplane_size(int(n) + 1, int(n))  # a Python int, so a numpy n cannot wrap
    if not _is_int(n) or n != 2 and not _is_odd_prime(n):
        raise ValidationError(
            f"complete MUB sets are constructed only for n = 2 and odd primes, got {_spell(n)}")
    if n == 2:
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        z = np.eye(2, dtype=complex)
        x = np.array([[1, 1], [1, -1]], dtype=complex) * inv_sqrt2
        y = np.array([[1, 1], [1j, -1j]], dtype=complex) * inv_sqrt2
        return [z, x, y]
    k, l, m = np.ogrid[:n, :n, :n]  # basis k, component l, vector m
    bases = np.exp(2j * np.pi * ((k * l ** 2 + l * m) % n) / n) / np.sqrt(n)
    return [np.eye(n, dtype=complex), *_fix_column_phases(bases)]


def verify_unbiased(bases) -> DeviationReport:
    """Exhaustive check of |Tr(P Q) - 1/n| over all cross-basis projector pairs."""
    return _overlap_report(_common_dimension(bases))


def hyperplane_orthogonality(bases) -> DeviationReport:
    """Exhaustive check of |Tr(Pbar Qbar)| over all cross-basis pairs.

    Pbar = P - I/n is the traceless part of a projector; for unbiased bases
    the deviation operators of different bases are Hilbert-Schmidt
    orthogonal. Computed from the deviation operators themselves, not from
    the overlap shortcut used by verify_unbiased, so the two checks stay
    independent; only the worst-pair scan is shared. The operators are
    Hermitian, so Tr(Pbar Qbar) = vec(Pbar)* . vec(Qbar): one product of each
    basis's operators with those of all later bases. Sets whose operators
    would exceed HYPERPLANE_MAX_ENTRIES are rejected before they are built
    (a complete set passes up to n = 43).
    """
    checked = _common_dimension(bases)
    count, n = checked.shape[:2]
    _check_hyperplane_size(count, n)
    # row b*n + i is vec(Pbar) for vector i of basis b; the one large array, so I/n goes in place
    ops = np.einsum("bar,bcr->brac", checked, checked.conj(), order="C").reshape(count * n, n * n)
    ops -= np.eye(n).ravel() / n
    return _overlap_report(checked, lambda j: np.abs(
        (ops[j * n:(j + 1) * n].conj() @ ops[(j + 1) * n:].T).real).reshape(n, -1, n).transpose(1, 0, 2))


def information_sum(rho, bases) -> float:
    """Sum of quadratic information over the outcome statistics of a MUB set.

    For a complete set of n+1 mutually unbiased bases this equals
    Tr(rho - I/n)^2 identically, which is what makes the quadratic measure
    basis-set invariant while the Shannon sum is not.
    """
    return float(information_by_basis(rho, bases).sum())


def information_by_basis(rho, bases) -> np.ndarray:
    """Quadratic information of the outcome statistics in each basis of a complete MUB set.

    The entries sum to information_sum(rho, bases).
    """
    state = as_density(rho)
    checked = _complete_set(bases)
    n = state.shape[0]
    if checked.shape[1] != n:
        raise ValidationError(
            f"bases are {checked.shape[1]}-dimensional but the state is {n}-dimensional")
    return _quadratic(_renormalize(_born(state, checked)))


def reconstruct(prob_lists, bases) -> np.ndarray:
    """Rebuild a state from the outcome statistics of a complete MUB set.

    rho = I/n + sum_j sum_i (p_i^j - 1/n) (P_i^j - I/n). With exact Born
    statistics this returns the original state; with noisy statistics it
    stays Hermitian with unit trace but may be indefinite. Positivity is
    deliberately not enforced; use smallest_eigenvalue to diagnose.
    """
    checked = _complete_set(bases)
    n = checked.shape[1]
    dists = _clamp(prob_lists, 2, "probability vector", "rows")
    if len(dists) != n + 1:
        raise ValidationError(f"need {n + 1} outcome distributions, got {len(dists)}")
    if dists.shape[1] != n:
        raise ValidationError(f"each outcome distribution must have {n} entries")
    deviations = dists - 1.0 / n
    rho = (np.einsum("ji,jai,jbi->ab", deviations, checked, checked.conj())
           + np.eye(n) * (1.0 - deviations.sum()) / n)
    return (rho + rho.conj().T) / 2.0


def _check_hyperplane_size(count: int, n: int) -> None:
    if count * n ** 3 > HYPERPLANE_MAX_ENTRIES:
        raise ValidationError(
            f"{_spell(count)} bases of dimension {_spell(n)} exceed the hyperplane check's cap of "
            f"{HYPERPLANE_MAX_ENTRIES} complex entries")


def _common_dimension(bases) -> np.ndarray:
    """Validate at least two bases of one dimension as a (count, n, n) stack."""
    checked = _as_matrices(bases, 3, "basis")
    if len(checked) < 2:
        raise ValidationError("need at least two bases")
    return checked


def _complete_set(bases) -> np.ndarray:
    """Validate a complete set: n+1 bases of dimension n, mutually unbiased.

    Each distinct set is checked once; the basis check runs inside this
    one rather than through _as_matrices, so a set is stored once.
    """
    return _memo(_check_complete_set, _as_array(bases, complex, "matrices"))


def _check_complete_set(arr: np.ndarray) -> np.ndarray:
    checked = _check_matrices(arr, 3, "basis")
    n = checked.shape[1]
    if len(checked) != n + 1:
        raise ValidationError(f"a complete MUB set for dimension {n} has {n + 1} bases")
    report = _overlap_report(checked)
    if not report.passed:
        raise ValidationError(
            f"bases are not mutually unbiased: deviation {report.max_deviation:.3e}")
    return checked


def _overlap_report(checked: np.ndarray, deviation=None) -> DeviationReport:
    # deviation(j)[k, i, m] compares vector i of basis j with vector m of basis j + 1 + k (|<u|v>|^2 - 1/n
    # unless given): one product per basis, no (count n)^2 Gram matrix; the first maximum in (j, k, i, m) wins
    count, n = checked.shape[:2]
    if deviation is None:
        def deviation(j):
            return np.abs(np.abs(checked[j].conj().T @ checked[j + 1:]) ** 2 - 1.0 / n)
    worst = 0.0
    worst_pair = (0, 0, 0, 0)
    for j in range(count - 1):
        scan = deviation(j)
        k, i, m = np.unravel_index(np.argmax(scan), scan.shape)
        if scan[k, i, m] > worst:
            worst = float(scan[k, i, m])
            worst_pair = (j, int(i), j + 1 + int(k), int(m))
    return DeviationReport(worst, worst_pair, worst <= TOL)


def _is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True
