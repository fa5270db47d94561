"""Acceptance checks: every gate the package promises, runnable as one suite.

Each identity is one row of ALL_CHECKS, judged by `run`. The CLI selftest
subcommand and the acceptance tests (a test and a property per row) read the
same rows, so the printed table and the test suite can never disagree.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from typing import NamedTuple

import numpy as np

from . import channel, coding, entangle, mub, probability, quantum


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    elapsed_s: float = 0.0  # wall time of the check, set by run
    worst: tuple = ()  # per bound: {"bound", "value", "case"}, the case's deviation is the value


class Check:
    """One identity. Its cases are (n, i) for n in dims and i in range(count), (i,)
    without dims, or (n,) without count. Bound j, "< limit" or "> limit", judges
    entry j of deviation(*case) over every case. The template's positional fields
    take each bound's worst value with the bound; its named fields take the values
    that the frozen example returns with its verdict. A bound that fails appends
    itself, its worst value and that value's case to the detail.
    """

    def __init__(self, name, template, deviation=None, bounds=(), dims=(), count=0, example=None):
        self.name, self.template, self.deviation, self.bounds = name, template, deviation, bounds
        self.dims, self.count, self.example = dims, count, example

    def cases(self) -> list[tuple]:
        if self.deviation is None:
            return []
        return list(itertools.product(*filter(None, (self.dims, range(self.count)))))


def holds(value: float, bound: str) -> bool:
    """Whether value meets a bound written "< limit" or "> limit"; NaN meets none."""
    op, limit = bound.split()
    return value < float(limit) if op == "<" else value > float(limit)


def run(check: Check) -> CheckResult:
    start = time.perf_counter()
    cases = check.cases()
    deviations = [check.deviation(*case) for case in cases]
    passed, named = check.example() if check.example else (True, {})
    worst, fields, failures = [], [], []
    for j, bound in enumerate(check.bounds):
        # the value furthest toward failing, the first on ties; NaN is the worst of all
        sign = 1.0 if bound.startswith("<") else -1.0
        keys = [math.inf if math.isnan(d[j]) else sign * d[j] for d in deviations]
        k = keys.index(max(keys))
        value = deviations[k][j]
        worst.append({"bound": bound, "value": value, "case": cases[k]})
        fields.append(f"{value:.3e} ({bound})")
        if not holds(value, bound):
            passed = False
            failures.append(f"; fails {bound}: {value:.3e} at case {cases[k]}")
    return CheckResult(check.name, passed, check.template.format(*fields, **named) + "".join(failures),
                       time.perf_counter() - start, tuple(worst))


def format_line(result: CheckResult) -> str:
    status = "PASS" if result.passed else "FAIL"
    return f"{status}  {result.name}: {result.detail}"


_bases = functools.cache(mub.build_mubs)  # built on first use, not at import


def _information_sum(n, i):
    """Quadratic information summed over a complete MUB set equals Tr(rho - I/n)^2."""
    rho = quantum.random_density(n, seed=1000 * n + i, rank=(i % n) + 1)
    return (abs(mub.information_sum(rho, _bases(n)) - quantum.total_information(rho)),)


def _round_trip(n, i):
    """Born statistics over a complete MUB set rebuild the exact state."""
    rho = quantum.random_density(n, seed=2000 * n + i, rank=(i % n) + 1)
    return (quantum.hs_distance(mub.reconstruct(mub.born_table(rho, _bases(n)), _bases(n)), rho),)


def _mub_construction(n):
    """Constructed bases are unbiased and hyperplane-orthogonal."""
    return (max(mub.verify_unbiased(_bases(n)).max_deviation,
                mub.hyperplane_orthogonality(_bases(n)).max_deviation),)


def _grouping(i):
    """The entropy grouping residual vanishes."""
    return (abs(probability.grouping_residual(
        probability.random_distribution(2 + i % 7, seed=3000 + i))),)


def _grouping_example():
    instance = [0.5, 1.0 / 3.0, 1.0 / 6.0]
    lhs = probability.shannon_entropy(instance)
    rhs = (probability.shannon_entropy([0.5, 0.5])
           + 0.5 * probability.shannon_entropy([2.0 / 3.0, 1.0 / 3.0]))
    exact = 2.0 / 3.0 + math.log2(3.0) / 2.0  # 1/2 + (1/3) log2 3 + (1/6) log2 6
    passed = (abs(lhs - exact) < 1e-12 and abs(rhs - exact) < 1e-12
              and abs(probability.grouping_residual(instance)) < 1e-12)
    return passed, {"lhs": lhs, "rhs": rhs, "exact": exact}


def _holevo(i):
    """Measured information never beats chi."""
    n = 2 + i // 100 % 2  # qubits for i < 100, then qutrits
    ensemble = channel.random_ensemble(n, size=2 + i % 3, seed=4000 + i)
    povm = channel.random_povm(n, outcomes=2 + i % 4, seed=5000 + i)
    return (channel.measured_information(ensemble, povm) - channel.holevo_chi(ensemble),)


def _holevo_example():
    pair = channel.cq_ensemble(
        [0.5, 0.5], [quantum.pure_state([1, 0]), quantum.pure_state([1, 1])], ("zero", "plus"))
    chi = channel.holevo_chi(pair)
    found = channel.accessible_information(pair).value
    # chi is h((1 + 1/sqrt2)/2), the entropy of the average state; the accessible value is 1 - chi (Levitin 1995)
    exact = -sum(p * math.log2(p) for p in ((1.0 + math.sqrt(0.5)) / 2.0, (1.0 - math.sqrt(0.5)) / 2.0))
    passed = abs(chi - exact) < 1e-9 and abs(found - (1.0 - exact)) < 1e-9 and chi - found > 0.19
    return passed, {"chi": chi, "accessible": found, "exact": exact, "exact_accessible": 1.0 - exact}


def _majorization(i):
    """Unread measurement spreads the spectrum: majorization plus entropy bounds."""
    n = 2 + i % 3
    rho = quantum.random_density(n, seed=6000 + i, rank=(i % n) + 1)
    basis = quantum.random_basis(n, seed=7000 + i)
    before = quantum.spectrum(rho)
    after = quantum.spectrum(quantum.luders_update(rho, basis))
    failures = int(not probability.majorizes(before, after))
    born = quantum.born_probabilities(rho, basis)
    h_gap = probability.shannon_entropy(born) - quantum.von_neumann_entropy(rho)
    i_gap = probability.quadratic_information(born) - quantum.total_information(rho)
    return h_gap, i_gap, failures


def _schur(i):
    """Doubly stochastic mixing never lowers H or raises the quadratic measure."""
    n = 2 + i % 7
    p = probability.random_distribution(n, seed=8000 + i)
    s = probability.random_doubly_stochastic(n, seed=9000 + i)
    mixed = probability.apply_doubly_stochastic(s, p)
    return (probability.shannon_entropy(mixed) - probability.shannon_entropy(p),
            probability.quadratic_information(mixed) - probability.quadratic_information(p))


def _coding(i):
    """Block question rates sit in the Shannon window [H, H + 1/k)."""
    n = 2 + i % 5
    p = probability.random_distribution(n, seed=10_000 + i)
    entropy = probability.shannon_entropy(p)
    return (sum(not entropy <= coding.block_question_rate(p, k) < entropy + 1.0 / k
                for k in ((1, 2, 4, 8, 16) if n <= 3 else (1, 2, 4))),)


def _coding_example():
    count = coding.typical_set([0.8, 0.2], 10, 0.1).count
    # k letters of weight 0.2 cost -log2 0.8 + 0.2k bits a letter, H = -log2 0.8 + 0.4: only k = 2 is typical
    return count == math.comb(10, 2), {"count": count}


@functools.cache
def _sic(n):
    """The n^2 effects of a SIC measurement, built on first use: the qubit tetrahedron, or the
    qutrit Hesse SIC, the Weyl-Heisenberg orbit X^a Z^b of (0, 1, -1)/sqrt2."""
    if n == 2:
        corners = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3.0)
        return np.array([quantum.bloch_state(r) / 2.0 for r in corners])
    fiducial = np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)
    phases = np.exp(2j * np.pi / 3.0 * np.arange(3))  # the diagonal of Z
    return np.array([quantum.pure_state(np.roll(phases ** b * fiducial, a)) / 3.0
                     for a in range(3) for b in range(3)])


def _shannon_sum(table):
    return sum(map(probability.shannon_entropy, table))


def _two_design(n, i):
    """Sum p^2 over a complete MUB set is 1 + Tr rho^2, and over a SIC (1 + Tr rho^2)/(n(n+1)):
    both sets are 2-designs. Sum p^3 is rotation-invariant over the qubit MUBs only."""
    rho = quantum.random_density(n, seed=12_000 * n + i, rank=(i % n) + 1)
    purity = quantum.purity(rho)
    table = mub.born_table(rho, _bases(n))
    residual = abs((table ** 2).sum() - (1.0 + purity))
    if n <= 3:
        sic = channel.joint_distribution(channel.cq_ensemble([1.0], [rho]), _sic(n))
        residual = max(residual, abs((sic ** 2).sum() - (1.0 + purity) / (n * (n + 1))))
    drift = 0.0  # checked at n = 2, the only dimension where it holds
    if n == 2:
        u = quantum.random_basis(2, seed=13_000 + i)
        drift = abs((mub.born_table(u @ rho @ u.conj().T, _bases(2)) ** 3).sum() - (table ** 3).sum())
    return residual, drift


def _two_design_example():
    """Two pure qutrit states share sum p^2 but not sum p^3, sum p^4 or the Shannon sum;
    a qubit rotation shifts the Shannon sum while the quadratic total stays put."""
    basis_state, fiducial = (mub.born_table(quantum.pure_state(v), _bases(3)) for v in ([1, 0, 0], [0, 1, -1]))
    q3, q4 = (abs((basis_state ** q).sum() - (fiducial ** q).sum()) for q in (3, 4))
    shannon = abs(_shannon_sum(basis_state) - _shannon_sum(fiducial))
    rho = quantum.bloch_state([0.0, 0.0, 0.9])
    unitary = quantum.spin_basis([1.0, 1.0, 1.0])  # maps the z direction onto (1,1,1)/sqrt(3)
    rotated = unitary @ rho @ unitary.conj().T
    shift = abs(_shannon_sum(mub.born_table(rotated, _bases(2))) - _shannon_sum(mub.born_table(rho, _bases(2))))
    drift = abs(quantum.total_information(rotated) - quantum.total_information(rho))
    passed = q3 > 0.3 and q4 > 0.6 and shannon > 0.7 and shift > 0.01 and drift < 1e-9
    return passed, {"q3": q3, "q4": q4, "shannon": shannon, "shift": shift, "drift": drift}


def _floor_slacks(rho):
    """Bits above each floor for a state's Shannon entropies over build_mubs(n): the complete-set
    collision floor -(n+1) log2((1 + Tr rho^2)/(n+1)), the pair floor log2 n + S (the two lowest
    entropies make the lowest pair sum) and the log bound log2 n - S <= log2(n Tr rho^2)."""
    n = rho.shape[0]
    entropies = sorted(map(probability.shannon_entropy, mub.born_table(rho, _bases(n))))
    purity, entropy = quantum.purity(rho), quantum.von_neumann_entropy(rho)
    return (sum(entropies) + (n + 1) * math.log2((1.0 + purity) / (n + 1)),
            entropies[0] + entropies[1] - math.log2(n) - entropy,
            math.log2(n * purity) - (math.log2(n) - entropy))


def _shannon_floors(n, i):
    """Larsen's coincidence sum with H >= H_2 bounds the Shannon sum over a complete MUB set;
    Maassen-Uffink with the entropy term (Berta et al. 2010) bounds every pair; S >= S_2."""
    return _floor_slacks(quantum.random_density(n, seed=14_000 * n + i, rank=1 + i % n))


def _shannon_floors_example():
    """I/n meets all three floors. The basis-0 eigenstate meets the pair floor, but its Shannon sum
    n log2 n stays above the collision floor (n+1) log2((n+1)/2) (Sanchez-Ruiz 1995)."""
    dims = (2, 3, 5, 7)
    mixed = max(abs(slack) for n in dims for slack in _floor_slacks(np.eye(n) / n))
    eigen = [_floor_slacks(quantum.pure_state(np.eye(n)[0])) for n in dims]
    pair = max(abs(slacks[1]) for slacks in eigen)
    miss = max(abs(slacks[0] - n * math.log2(n) + (n + 1) * math.log2((n + 1) / 2.0))
               for n, slacks in zip(dims, eigen))
    passed = mixed < 1e-12 and pair < 1e-12 and miss < 1e-12
    return passed, {"mixed": mixed, "pair": pair, "sums": "/".join(f"{slacks[0]:.3f}" for slacks in eigen)}


def _two_qubit_example():
    """Joint eigenstates and the individual/correlation information split."""
    bell = entangle.joint_eigenstate(
        entangle.pauli_product("x", "x"), entangle.pauli_product("y", "y"), (1, -1))
    target = np.zeros(4, dtype=complex)
    target[0] = target[3] = 1.0 / np.sqrt(2.0)
    fidelity = float((target.conj() @ bell @ target).real)
    bell_split = entangle.info_split(bell)
    product_split = entangle.info_split(entangle.joint_eigenstate(
        entangle.pauli_product("x", "x"), entangle.pauli_product("x", "1"), (1, 1)))
    # A certain yes/no question carries (1 - 1/2)^2 + (0 - 1/2)^2 = 1/2, a coin flip 0. The Bell state answers
    # xx, yy and zz with certainty and each spin alone at random: (0, 3 * 1/2). |++> answers spin 1 and spin 2
    # along x and the xx correlation with certainty, and every other question at random: (2 * 1/2, 1/2).
    misses = (bell_split.individual, bell_split.correlation - 1.5,
              product_split.individual - 1.0, product_split.correlation - 0.5)
    passed = fidelity > 1.0 - 1e-12 and all(abs(miss) < 1e-12 for miss in misses)
    return passed, {"fidelity": fidelity, "bell": bell_split, "product": product_split}


def _pure_state(n, i):
    """Every pure state carries the full quadratic total and zero entropy."""
    rho = quantum.random_density(n, seed=11_000 * n + i, rank=1)
    return (abs(quantum.total_information(rho) - (1.0 - 1.0 / n)),
            quantum.von_neumann_entropy(rho))


ALL_CHECKS = (
    Check("information-sum identity", "100 states per dim in (2,3,5,7), max |sum - itot| = {}",
          _information_sum, ("< 1e-9",), dims=(2, 3, 5, 7), count=100),
    Check("reconstruction round-trip", "50 states per dim in (2,3,5), max HS distance = {}",
          _round_trip, ("< 1e-9",), dims=(2, 3, 5), count=50),
    Check("mub construction", "dims (2,3,5,7), max unbiasedness/orthogonality deviation = {}",
          _mub_construction, ("< 1e-12",), dims=(2, 3, 5, 7)),
    Check("grouping identity", "1000 seeded dists, max residual = {}; "
          "H(1/2,1/3,1/6) = {lhs:.6f} vs split {rhs:.6f} (2/3 + log2(3)/2 = {exact:.10f} +/- 1e-12)",
          _grouping, ("< 1e-12",), count=1000, example=_grouping_example),
    Check("holevo bound", "200 ensemble/POVM pairs dims 2-3, max MI - chi = {}; "
          "|0>/|+>: chi = {chi:.10f} (h((1 + 1/sqrt2)/2) = {exact:.10f} +/- 1e-9), "
          "accessible = {accessible:.10f} (1 - h = {exact_accessible:.10f} +/- 1e-9), gap > 0.19",
          _holevo, ("< 1e-9",), count=200, example=_holevo_example),
    Check("measurement majorization", "200 state/basis pairs dims 2-4, min H(born) - S = {}, "
          "max I(born) - Itot = {}, spectrum majorization everywhere",
          _majorization, ("> -1e-9", "< 1e-9", "< 1"), count=200),
    Check("schur monotonicity", "500 seeded mixings, min H gain = {}, max I gain = {}",
          _schur, ("> -1e-12", "< 1e-12"), count=500),
    Check("coding windows", "20 seeded dists, k in (1,2,4) (and 8, 16 for 2 or 3 symbols), "
          "every rate in [H, H + 1/k); typical_set((0.8,0.2), 10, 0.1).count = {count} (= C(10,2))",
          _coding, ("< 1",), count=20, example=_coding_example),
    Check("two-design sums", "50 states per dim in (2,3,5,7), max |sum p^2 - (1 + Tr rho^2)| over the "
          "MUBs and, scaled by 1/(n(n+1)), the n = 2, 3 SICs = {}, max qubit sum p^3 drift under rotation = {}; "
          "|0> vs (|1>-|2>)/sqrt2: sum p^3 moves {q3:.4f} (> 0.3), sum p^4 {q4:.4f} (> 0.6), Shannon sum "
          "{shannon:.4f} bits (> 0.7); r=(0,0,0.9) rotated to the diagonal: Shannon sum shifts {shift:.4f} bits "
          "(> 0.01) while the quadratic total drifts {drift:.3e} (< 1e-9)",
          _two_design, ("< 1e-12", "< 1e-12"), dims=(2, 3, 5, 7), count=50, example=_two_design_example),
    Check("shannon floors", "50 states per dim in (2,3,5,7), min bits above the complete-set collision floor "
          "= {}, above the pair floor over every pair of bases = {}, min log2(n Tr rho^2) - (log2 n - S) = {}; "
          "I/n: max |slack| = {mixed:.1e} (< 1e-12); basis-0 eigenstate: pair slack {pair:.1e} (< 1e-12), "
          "collision-floor slack {sums} bits at n = 2/3/5/7 (n log2 n - (n+1) log2((n+1)/2) +/- 1e-12)",
          _shannon_floors, ("> -1e-12", "> -1e-12", "> -1e-12"), dims=(2, 3, 5, 7), count=50,
          example=_shannon_floors_example),
    Check("two-qubit questions", "xx/yy answers (+1,-1): fidelity with (|00>+|11>)/sqrt2 = "
          "{fidelity:.12f} (> 1 - 1e-12); splits {bell.individual:.2e}/{bell.correlation:.6f} "
          "and {product.individual:.6f}/{product.correlation:.6f} (0/1.5 and 1/0.5 +/- 1e-12)",
          example=_two_qubit_example),
    Check("pure state totals", "5 pure states per dim in (2,3,5,7), "
          "max |Itot - (1 - 1/n)| = {}, max entropy = {}",
          _pure_state, ("< 1e-12", "< 1e-9"), dims=(2, 3, 5, 7), count=5),
)


def run_all() -> list[CheckResult]:
    return [run(check) for check in ALL_CHECKS]
