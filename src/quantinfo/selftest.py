"""Acceptance checks: every gate the package promises, runnable as one suite.

Each criterion function returns a CheckResult; run_all executes them in
order. The CLI selftest subcommand and the acceptance test module both call
into this file, so the printed table and the test suite can never disagree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import channel, coding, entangle, mub, probability, quantum


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed_s: float = 0.0  # wall time of the check, set by run_all


def format_line(result: CheckResult) -> str:
    status = "PASS" if result.passed else "FAIL"
    return f"{status}  {result.name}: {result.detail}"


def check_information_sum_identity() -> CheckResult:
    """Quadratic information summed over a complete MUB set equals Tr(rho - I/n)^2."""
    worst = 0.0
    for n in (2, 3, 5, 7):
        bases = mub.build_mubs(n)
        for i in range(100):
            rho = quantum.random_density(n, seed=1000 * n + i, rank=(i % n) + 1)
            gap = abs(mub.information_sum(rho, bases) - quantum.total_information(rho))
            worst = max(worst, gap)
    return CheckResult(
        "information-sum identity",
        worst < 1e-9,
        f"100 states per dim in (2,3,5,7), max |sum - itot| = {worst:.3e} (< 1e-9)")


def check_reconstruction_round_trip() -> CheckResult:
    """Born statistics over a complete MUB set rebuild the exact state."""
    worst = 0.0
    for n in (2, 3, 5):
        bases = mub.build_mubs(n)
        for i in range(50):
            rho = quantum.random_density(n, seed=2000 * n + i, rank=(i % n) + 1)
            stats = [quantum.born_probabilities(rho, u) for u in bases]
            worst = max(worst, quantum.hs_distance(mub.reconstruct(stats, bases), rho))
    return CheckResult(
        "reconstruction round-trip",
        worst < 1e-9,
        f"50 states per dim in (2,3,5), max HS distance = {worst:.3e} (< 1e-9)")


def check_mub_construction() -> CheckResult:
    """Constructed bases are unbiased and hyperplane-orthogonal to 1e-12."""
    worst = 0.0
    for n in (2, 3, 5, 7):
        bases = mub.build_mubs(n)
        worst = max(worst, mub.verify_unbiased(bases).max_deviation)
        worst = max(worst, mub.hyperplane_orthogonality(bases).max_deviation)
    return CheckResult(
        "mub construction",
        worst < 1e-12,
        f"dims (2,3,5,7), max unbiasedness/orthogonality deviation = {worst:.3e} (< 1e-12)")


def check_grouping_identity() -> CheckResult:
    """Entropy grouping residual vanishes; the worked 3-outcome instance matches."""
    worst = 0.0
    for i in range(1000):
        n = 2 + i % 7
        worst = max(worst, abs(probability.grouping_residual(
            probability.random_distribution(n, seed=3000 + i))))
    instance = [0.5, 1.0 / 3.0, 1.0 / 6.0]
    lhs = probability.shannon_entropy(instance)
    rhs = (probability.shannon_entropy([0.5, 0.5])
           + 0.5 * probability.shannon_entropy([2.0 / 3.0, 1.0 / 3.0]))
    instance_ok = (abs(lhs - 1.459148) < 1e-5
                   and abs(rhs - 1.459148) < 1e-5
                   and abs(probability.grouping_residual(instance)) < 1e-12)
    return CheckResult(
        "grouping identity",
        worst < 1e-12 and instance_ok,
        f"1000 seeded dists, max residual = {worst:.3e} (< 1e-12); "
        f"H(1/2,1/3,1/6) = {lhs:.6f} vs split {rhs:.6f} (= 1.459148 +/- 1e-5)")


def check_holevo_bound() -> CheckResult:
    """Measured information never beats chi; the named qubit pair hits its numbers."""
    worst_excess = -np.inf
    for i in range(200):
        n = 2 if i < 100 else 3
        ensemble = channel.random_ensemble(n, size=2 + i % 3, seed=4000 + i)
        povm = channel.random_povm(n, outcomes=2 + i % 4, seed=5000 + i)
        excess = channel.measured_information(ensemble, povm) - channel.holevo_chi(ensemble)
        worst_excess = max(worst_excess, excess)
    pair = channel.cq_ensemble(
        [0.5, 0.5],
        [quantum.pure_state([1, 0]), quantum.pure_state([1, 1])],
        ("zero", "plus"))
    chi = channel.holevo_chi(pair)
    found = channel.accessible_information(pair)
    ok = (worst_excess < 1e-9
          and abs(chi - 0.600878) < 1e-4
          and abs(found.value - 0.39912) < 1e-3
          and chi - found.value > 0.19)
    return CheckResult(
        "holevo bound",
        ok,
        f"200 ensemble/POVM pairs dims 2-3, max MI - chi = {worst_excess:.3e} (< 1e-9); "
        f"|0>/|+>: chi = {chi:.6f} (0.600878 +/- 1e-4), "
        f"accessible = {found.value:.5f} (0.39912 +/- 1e-3), gap > 0.19")


def check_measurement_majorization() -> CheckResult:
    """Unread measurement spreads the spectrum: majorization plus entropy bounds."""
    ok = True
    worst_h = np.inf
    worst_i = -np.inf
    for i in range(200):
        n = 2 + i % 3
        rho = quantum.random_density(n, seed=6000 + i, rank=(i % n) + 1)
        basis = quantum.random_basis(n, seed=7000 + i)
        before = quantum.spectrum(rho)
        after = quantum.spectrum(quantum.luders_update(rho, basis))
        ok = ok and probability.majorizes(before, after)
        born = quantum.born_probabilities(rho, basis)
        h_gap = probability.shannon_entropy(born) - quantum.von_neumann_entropy(rho)
        i_gap = (probability.quadratic_information(born)
                 - quantum.total_information(rho))
        worst_h = min(worst_h, h_gap)
        worst_i = max(worst_i, i_gap)
    ok = ok and worst_h > -1e-9 and worst_i < 1e-9
    return CheckResult(
        "measurement majorization",
        ok,
        f"200 state/basis pairs dims 2-4, min H(born) - S = {worst_h:.3e} (> -1e-9), "
        f"max I(born) - Itot = {worst_i:.3e} (< 1e-9), spectrum majorization everywhere")


def check_schur_monotonicity() -> CheckResult:
    """Doubly stochastic mixing never lowers H or raises the quadratic measure."""
    worst_h = np.inf
    worst_i = -np.inf
    for i in range(500):
        n = 2 + i % 7
        p = probability.random_distribution(n, seed=8000 + i)
        s = probability.random_doubly_stochastic(n, seed=9000 + i)
        mixed = probability.apply_doubly_stochastic(s, p)
        worst_h = min(worst_h, probability.shannon_entropy(mixed) - probability.shannon_entropy(p))
        worst_i = max(worst_i, probability.quadratic_information(mixed)
                      - probability.quadratic_information(p))
    ok = worst_h > -1e-12 and worst_i < 1e-12
    return CheckResult(
        "schur monotonicity",
        ok,
        f"500 seeded mixings, min H gain = {worst_h:.3e} (> -1e-12), "
        f"max I gain = {worst_i:.3e} (< 1e-12)")


def check_coding_windows() -> CheckResult:
    """Block question rates sit in the Shannon window; the frozen census matches."""
    ok = True
    for i in range(20):
        n = 2 + i % 5
        p = probability.random_distribution(n, seed=10_000 + i)
        entropy = probability.shannon_entropy(p)
        for k in (1, 2, 4, 8, 16) if n <= 3 else (1, 2, 4):
            rate = coding.block_question_rate(p, k)
            ok = ok and entropy <= rate < entropy + 1.0 / k
    report = coding.typical_set([0.8, 0.2], 10, 0.1)
    ok = ok and report.count == 45
    return CheckResult(
        "coding windows",
        ok,
        f"20 seeded dists, k in (1,2,4) (and 8, 16 for 2 or 3 symbols), every rate in [H, H + 1/k); "
        f"typical_set((0.8,0.2), 10, 0.1).count = {report.count} (= 45)")


def check_shannon_basis_dependence() -> CheckResult:
    """A unitary shifts the MUB Shannon sum while the quadratic total stays put."""
    bases = mub.build_mubs(2)
    rho = quantum.bloch_state([0.0, 0.0, 0.9])
    unitary = quantum.spin_basis([1.0, 1.0, 1.0])  # maps the z direction onto (1,1,1)/sqrt(3)
    rotated = unitary @ rho @ unitary.conj().T

    def shannon_sum(state):
        return sum(probability.shannon_entropy(
            quantum.born_probabilities(state, u)) for u in bases)

    shift = abs(shannon_sum(rotated) - shannon_sum(rho))
    drift = abs(quantum.total_information(rotated) - quantum.total_information(rho))
    ok = shift > 0.01 and drift < 1e-9
    return CheckResult(
        "shannon basis dependence",
        ok,
        f"r=(0,0,0.9) rotated to the diagonal: Shannon sum shifts {shift:.4f} bits (> 0.01) "
        f"while the quadratic total drifts {drift:.3e} (< 1e-9)")


def check_two_qubit_questions() -> CheckResult:
    """Joint eigenstates and the individual/correlation information split."""
    bell = entangle.joint_eigenstate(
        entangle.pauli_product("x", "x"), entangle.pauli_product("y", "y"), (1, -1))
    target = np.zeros(4, dtype=complex)
    target[0] = target[3] = 1.0 / np.sqrt(2.0)
    fidelity = float((target.conj() @ bell @ target).real)
    bell_split = entangle.info_split(bell)
    product = entangle.joint_eigenstate(
        entangle.pauli_product("x", "x"), entangle.pauli_product("x", "1"), (1, 1))
    product_split = entangle.info_split(product)
    ok = (fidelity > 1.0 - 1e-9
          and abs(bell_split.individual) < 1e-9
          and abs(bell_split.correlation - 1.5) < 1e-9
          and abs(product_split.individual - 1.0) < 1e-9
          and abs(product_split.correlation - 0.5) < 1e-9)
    return CheckResult(
        "two-qubit questions",
        ok,
        f"xx/yy answers (+1,-1): fidelity with (|00>+|11>)/sqrt2 = {fidelity:.12f} (> 1 - 1e-9); "
        f"splits {bell_split.individual:.2e}/{bell_split.correlation:.6f} and "
        f"{product_split.individual:.6f}/{product_split.correlation:.6f} (0/1.5 and 1/0.5)")


def check_pure_state_totals() -> CheckResult:
    """Every pure state carries the full quadratic total and zero entropy."""
    worst_i = 0.0
    worst_s = 0.0
    for n in (2, 3, 5, 7):
        for i in range(5):
            rho = quantum.random_density(n, seed=11_000 * n + i, rank=1)
            worst_i = max(worst_i, abs(quantum.total_information(rho) - (1.0 - 1.0 / n)))
            worst_s = max(worst_s, quantum.von_neumann_entropy(rho))
    ok = worst_i < 1e-12 and worst_s < 1e-9
    return CheckResult(
        "pure state totals",
        ok,
        f"5 pure states per dim in (2,3,5,7), max |Itot - (1 - 1/n)| = {worst_i:.3e} (< 1e-12), "
        f"max entropy = {worst_s:.3e} (< 1e-9)")


ALL_CHECKS = (
    check_information_sum_identity,
    check_reconstruction_round_trip,
    check_mub_construction,
    check_grouping_identity,
    check_holevo_bound,
    check_measurement_majorization,
    check_schur_monotonicity,
    check_coding_windows,
    check_shannon_basis_dependence,
    check_two_qubit_questions,
    check_pure_state_totals,
)


def run_all() -> list[CheckResult]:
    results = []
    for check in ALL_CHECKS:
        start = time.perf_counter()
        result = check()
        results.append(replace(result, elapsed_s=time.perf_counter() - start))
    return results
