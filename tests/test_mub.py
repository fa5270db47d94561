from __future__ import annotations

import time

import numpy as np
import pytest

from quantinfo import (
    ValidationError,
    bloch_state,
    born_probabilities,
    born_table,
    build_mubs,
    hs_distance,
    hyperplane_orthogonality,
    information_by_basis,
    information_sum,
    quadratic_information,
    random_basis,
    random_density,
    reconstruct,
    smallest_eigenvalue,
    total_information,
    verify_unbiased,
)
from quantinfo import mub
from quantinfo.probability import TOL, _checked
from test_channel import run_bounded
from test_quantum import ODD_PRIMES, assert_same_bits, quadratic_phase_bases, reference_fix_column_phases


def reference_hyperplane(bases):
    """Four-loop |Tr(Pbar Qbar)| scan, first maximum wins.

    Returns the maximum, its (j, i, k, m) pair and every pair's value.
    """
    n = bases[0].shape[0]
    identity = np.eye(n) / n
    ops = [[np.outer(u[:, i], u[:, i].conj()) - identity for i in range(n)] for u in bases]
    worst = 0.0
    worst_pair = (0, 0, 0, 0)
    values = {}
    for j in range(len(bases)):
        for k in range(j + 1, len(bases)):
            for i in range(n):
                for m in range(n):
                    value = abs(np.einsum("ab,ba->", ops[j][i], ops[k][m]).real)
                    values[(j, i, k, m)] = value
                    if value > worst:
                        worst = float(value)
                        worst_pair = (j, i, k, m)
    return worst, worst_pair, values


def reference_unbiased(bases):
    """Pairwise |<u|v>|^2 - 1/n scan, first maximum wins: (max deviation, (j, i, k, m))."""
    n = bases[0].shape[0]
    worst = 0.0
    worst_pair = (0, 0, 0, 0)
    for j in range(len(bases)):
        for k in range(j + 1, len(bases)):
            deviation = np.abs(np.abs(bases[j].conj().T @ bases[k]) ** 2 - 1.0 / n)
            i, m = np.unravel_index(np.argmax(deviation), deviation.shape)
            if deviation[i, m] > worst:
                worst = float(deviation[i, m])
                worst_pair = (j, int(i), k, int(m))
    return worst, worst_pair


def rotated_set(n, seed=0, angle=1e-7):
    """build_mubs(n) with one basis turned by a small seeded unitary exp(i*angle*H)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    values, vectors = np.linalg.eigh((g + g.conj().T) / 2.0)
    unitary = vectors @ np.diag(np.exp(1j * angle * values)) @ vectors.conj().T
    bases = build_mubs(n)
    bases[1] = unitary @ bases[1]
    return bases


class TestConstruction:
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 11])
    def test_complete_set_size(self, n):
        bases = build_mubs(n)
        assert len(bases) == n + 1
        for u in bases:
            assert u.shape == (n, n)
            assert np.allclose(u.conj().T @ u, np.eye(n), atol=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 4, 6, 9, 15, 2.0, 3.0, True])
    def test_unsupported_dimensions_rejected(self, n):
        with pytest.raises(ValidationError):
            build_mubs(n)

    def test_oversized_set_rejected_before_it_is_built(self):
        # the hyperplane check's cap: 44 * 43^3 operator entries pass, 48 * 47^3 do not
        assert len(build_mubs(43)) == 44
        # 1010 bases of 1009^2 entries would be about 16 GB; for odd n the cap comes before
        # trial division, which took 1.85 s to clear 10^15 + 37
        for n in (47, 1009, 10 ** 15 + 37, 2 ** 61 - 1, np.int64(10 ** 15 + 37), 49, 51):
            start = time.perf_counter()
            with pytest.raises(ValidationError, match="cap"):
                build_mubs(n)
            assert time.perf_counter() - start < 0.1
        # 46 * 45^3 entries fit under the cap, so 45 still reaches the primality test
        with pytest.raises(ValidationError, match="only for n = 2 and odd primes, got 45$"):
            build_mubs(45)

    @pytest.mark.parametrize("n", ODD_PRIMES)
    def test_matches_the_basis_by_basis_construction(self, n):
        bases = build_mubs(n)
        reference = [np.eye(n, dtype=complex), *map(reference_fix_column_phases, quadratic_phase_bases(n))]
        assert len(bases) == len(reference) == n + 1
        for basis, want in zip(bases, reference):
            assert_same_bits(basis, want)
            assert basis.flags.c_contiguous and basis.flags.writeable

    def test_qutrit_cross_overlaps_are_exactly_flat(self):
        bases = build_mubs(3)
        for j in range(4):
            for k in range(j + 1, 4):
                overlap = np.abs(bases[j].conj().T @ bases[k]) ** 2
                assert np.allclose(overlap, 1 / 3, atol=1e-14)

    def test_phase_convention(self):
        for n in (2, 3, 5):
            for u in build_mubs(n):
                for j in range(n):
                    lead = u[np.flatnonzero(np.abs(u[:, j]) > 1e-12)[0], j]
                    assert abs(lead.imag) < 1e-12
                    assert lead.real > 0

    def test_deviation_operators_span_traceless_hermitians(self):
        # n+1 bases give n^2+n deviation operators P - I/n; their real span
        # must cover the full (n^2-1)-dimensional traceless Hermitian space
        # or reconstruction could not be exact.
        for n in (2, 3, 5):
            rows = []
            for u in build_mubs(n):
                for i in range(n):
                    op = np.outer(u[:, i], u[:, i].conj()) - np.eye(n) / n
                    rows.append(np.concatenate([op.real.ravel(), op.imag.ravel()]))
            assert np.linalg.matrix_rank(np.array(rows), tol=1e-9) == n ** 2 - 1


class TestVerification:
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 11, 13, 17])
    def test_constructed_sets_pass_both_checks(self, n):
        bases = build_mubs(n)
        overlap = verify_unbiased(bases)
        hyperplane = hyperplane_orthogonality(bases)
        assert overlap.passed and overlap.max_deviation < 1e-12
        assert hyperplane.passed and hyperplane.max_deviation < 1e-12

    def test_relabeled_copy_fails_with_half_deviation(self):
        z = np.eye(2, dtype=complex)
        swapped = z[:, ::-1]
        report = verify_unbiased([z, swapped])
        assert not report.passed
        assert report.max_deviation == pytest.approx(0.5, abs=1e-12)
        j, i, k, m = report.worst_pair
        assert (j, k) == (0, 1)
        # every pair of these three ties at exactly 1/2: the first pair wins
        assert verify_unbiased([z, swapped, z]).worst_pair == (0, 0, 1, 0)

    def test_too_many_bases_reported_not_raised(self):
        bases = build_mubs(2) + [np.eye(2, dtype=complex)]
        report = verify_unbiased(bases)
        assert not report.passed
        assert report.max_deviation == pytest.approx(0.5, abs=1e-12)

    def test_single_basis_rejected(self):
        with pytest.raises(ValidationError):
            verify_unbiased([np.eye(3, dtype=complex)])

    def test_mismatched_dimensions_rejected(self):
        with pytest.raises(ValidationError):
            verify_unbiased([np.eye(2, dtype=complex), np.eye(3, dtype=complex)])

    def test_hyperplane_rejects_oversized_set(self):
        # 48 * 47^3 deviation-operator entries exceed 2^22
        with pytest.raises(ValidationError, match="cap"):
            hyperplane_orthogonality([np.eye(47, dtype=complex)] * 48)

    def test_hyperplane_memory_is_the_operators(self):
        # the largest accepted set: its deviation operators take 53 MiB; forming
        # a (44 * 43)^2 Gram matrix from them and a transposed copy peaks at 165 MiB.
        # About 0.7 s on a 2-vCPU VM; the child's peak grew about 91 MB
        seconds, traced, passed = run_bounded(
            "import tracemalloc\nbases = build_mubs(43)\ntracemalloc.start()\nstart = time.perf_counter()\n"
            "report = hyperplane_orthogonality(bases)\n"
            "out = [time.perf_counter() - start, tracemalloc.get_traced_memory()[1], report.passed]",
            headroom_mb=128)
        assert seconds < 10.0
        assert traced < 128 * 2**20
        assert passed

    def test_hyperplane_matches_overlap_verdict(self):
        z = np.eye(2, dtype=complex)
        tilted = np.array([[np.cos(0.3), -np.sin(0.3)],
                           [np.sin(0.3), np.cos(0.3)]], dtype=complex)
        overlap = verify_unbiased([z, tilted])
        hyperplane = hyperplane_orthogonality([z, tilted])
        assert not overlap.passed
        assert not hyperplane.passed


class TestHyperplaneAgainstReference:
    @pytest.mark.parametrize("rotated", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_matches_four_loop_scan(self, n, rotated):
        bases = rotated_set(n, seed=n) if rotated else build_mubs(n)
        worst, pair, values = reference_hyperplane(bases)
        report = hyperplane_orthogonality(bases)
        assert abs(report.max_deviation - worst) < 1e-15
        if worst > 1e-12:
            # pairs within rounding of the maximum are ties: for qubits
            # Pbar_1 = -Pbar_0, so all four (i, m) of a basis pair tie exactly
            ties = [p for p, v in values.items() if v > worst - 1e-15]
            if len(ties) == 1:
                assert report.worst_pair == pair
            else:
                assert report.worst_pair in ties
        j, _, k, _ = report.worst_pair
        assert j < k or report.worst_pair == (0, 0, 0, 0)
        assert report.passed == (not rotated)

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 11])
    def test_unbiased_matches_pairwise_scan(self, n):
        bases = rotated_set(n, seed=n)
        worst, pair = reference_unbiased(bases)
        report = verify_unbiased(bases)
        assert abs(report.max_deviation - worst) < 1e-15
        assert report.worst_pair == pair

    def test_relabeled_copy_reports_a_failing_pair(self):
        z = np.eye(2, dtype=complex)
        bases = [z, z[:, ::-1]]
        overlap = verify_unbiased(bases)
        assert (overlap.max_deviation, overlap.worst_pair) == reference_unbiased(bases)
        report = hyperplane_orthogonality(bases)
        worst, _, _ = reference_hyperplane(bases)
        assert not report.passed
        assert report.max_deviation == pytest.approx(worst, abs=1e-15)
        j, i, k, m = report.worst_pair
        assert j < k
        pbar = np.outer(bases[j][:, i], bases[j][:, i].conj()) - np.eye(2) / 2
        qbar = np.outer(bases[k][:, m], bases[k][:, m].conj()) - np.eye(2) / 2
        assert abs(np.trace(pbar @ qbar).real) > TOL


class TestInformationSum:
    def test_matches_total_information(self):
        for n in (2, 3, 5, 7):
            bases = build_mubs(n)
            for i in range(20):
                rho = random_density(n, seed=100 * n + i, rank=i % n + 1)
                assert information_sum(rho, bases) == pytest.approx(
                    total_information(rho), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_meets_total_information_inside_the_eigenvalue_window(self, n):
        # diag(1 + t, 0, ..., -t) passes as_density for t <= TOL, and so does each rotated copy; its negative
        # Born weights are kept, so the sum stays on Tr(rho - I/n)^2 (clipping them moved it by up to 2t)
        bases = build_mubs(n)
        for t in (TOL / 2, 0.999 * TOL):
            window = np.diag([1.0 + t, *[0.0] * (n - 2), -t]).astype(complex)
            for i in range(11):
                u = random_basis(n, seed=18_000 * n + i) if i else np.eye(n)
                rho = u @ window @ u.conj().T
                assert smallest_eigenvalue(rho) < -t / 2
                assert abs(information_sum(rho, bases) - total_information(rho)) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 11])
    def test_equals_sum_of_per_basis_terms(self, n):
        bases = build_mubs(n)
        for i in range(5):
            rho = random_density(n, seed=200 * n + i, rank=i % n + 1)
            per_basis = sum(quadratic_information(born_probabilities(rho, u)) for u in bases)
            assert abs(information_sum(rho, bases) - per_basis) < 1e-14

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_by_basis_terms_are_the_summed_terms(self, n):
        bases = build_mubs(n)
        for i in range(5):
            rho = random_density(n, seed=300 * n + i, rank=i % n + 1)
            terms = information_by_basis(rho, bases)
            assert terms.shape == (n + 1,)
            assert information_sum(rho, bases) == float(terms.sum())
            assert terms == pytest.approx(
                [quadratic_information(born_probabilities(rho, u)) for u in bases], abs=1e-15)

    def test_bloch_example_per_basis_split(self):
        rho = bloch_state([0.3, 0.0, 0.4])
        bases = build_mubs(2)
        per_basis = [quadratic_information(born_probabilities(rho, u)) for u in bases]
        assert per_basis == pytest.approx([0.08, 0.045, 0.0], abs=1e-12)
        assert information_sum(rho, bases) == pytest.approx(0.125, abs=1e-12)

    def test_maximally_mixed_state_sums_to_zero(self):
        assert information_sum(np.eye(3) / 3, build_mubs(3)) == pytest.approx(
            0.0, abs=1e-15)

    def test_incomplete_set_rejected(self):
        with pytest.raises(ValidationError):
            information_sum(np.eye(2) / 2, build_mubs(2)[:2])

    def test_biased_set_rejected(self):
        z = np.eye(2, dtype=complex)
        with pytest.raises(ValidationError):
            information_sum(np.eye(2) / 2, [z, z[:, ::-1], build_mubs(2)[1]])

    def test_one_set_is_checked_once(self, monkeypatch):
        calls = []
        check = mub._check_complete_set

        def counted(arr):
            calls.append(arr.shape)
            return check(arr)

        monkeypatch.setattr(mub, "_check_complete_set", counted)
        bases = build_mubs(5)
        for i in range(5):
            rho = random_density(5, seed=380 + i)
            assert information_sum(rho, bases) == pytest.approx(total_information(rho), abs=1e-12)
        assert calls == [(6, 5, 5)]

    def test_relabeled_set_rejected_after_the_real_one(self):
        # same content size and shape as the accepted set, so only the memo key
        # (the bytes) tells them apart
        real = build_mubs(5)
        rho = random_density(5, seed=310)
        assert information_sum(rho, real) == pytest.approx(total_information(rho), abs=1e-12)
        fake = list(real)
        fake[2] = real[1][:, ::-1]
        with pytest.raises(ValidationError, match="not mutually unbiased"):
            information_sum(rho, fake)

    def test_memo_stays_under_its_byte_budget(self, monkeypatch):
        # a complete set at n = 31 (0.5 MB) is past the per-entry cap, and so is
        # the state: each call checks them again and stores nothing
        calls = []
        check = mub._check_complete_set

        def counted(arr):
            calls.append(arr.shape)
            return check(arr)

        monkeypatch.setattr(mub, "_check_complete_set", counted)
        n = 31
        bases = build_mubs(n)
        before = _checked.cache_info()
        for i in range(3):
            u = random_basis(n, seed=320 + i)
            rotated = [u @ b for b in bases]
            rho = random_density(n, seed=360 + i)
            for _ in range(2):
                assert information_sum(rho, rotated) == pytest.approx(
                    total_information(rho), abs=1e-9)
        assert calls == [(n + 1, n, n)] * 6
        after = _checked.cache_info()
        assert after.misses == before.misses and after.currsize <= after.maxsize
        rotated[2] = rotated[1][:, ::-1]
        with pytest.raises(ValidationError, match="not mutually unbiased"):
            information_sum(rho, rotated)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            information_sum(np.eye(3) / 3, build_mubs(2))
        bases = build_mubs(3)
        bases[1] = bases[1][:, :2]  # a 3x2 member
        with pytest.raises(ValidationError, match="mismatched dimensions"):
            information_sum(np.eye(3) / 3, bases)


class TestBornTable:
    """born_table is the per-basis loop of born_probabilities, read in one contraction."""

    @staticmethod
    def loop(rho, bases):
        return np.array([born_probabilities(rho, u) for u in bases])

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_bytes_equal_the_per_basis_loop(self, n):
        bases = build_mubs(n)
        for i in range(300):
            rho = random_density(n, seed=15_000 * n + i, rank=1 + i % n)
            table = born_table(rho, bases)
            assert table.shape == (n + 1, n)
            assert table.tobytes() == self.loop(rho, bases).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_information_by_basis_keeps_its_formula(self, n):
        # the quadratic measure of each row of the loop's table, as information_by_basis computed it before
        bases = build_mubs(n)
        for i in range(50):
            rho = random_density(n, seed=16_000 * n + i, rank=1 + i % n)
            expected = ((self.loop(rho, bases) - 1.0 / n) ** 2).sum(axis=-1)
            assert information_by_basis(rho, bases).tobytes() == expected.tobytes()
            assert information_sum(rho, bases) == float(expected.sum())

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_reconstruct_inverts_it(self, n):
        bases = build_mubs(n)
        for i in range(50):
            rho = random_density(n, seed=17_000 * n + i, rank=1 + i % n)
            assert np.abs(reconstruct(born_table(rho, bases), bases) - rho).max() < 1e-12

    def test_rejects_what_information_by_basis_rejects(self):
        z = np.eye(2, dtype=complex)
        qubit, qutrit = np.eye(2) / 2, np.eye(3) / 3
        for rho, bases, message in (
                (qubit, build_mubs(2)[:2], "a complete MUB set for dimension 2 has 3 bases"),
                (qubit, [z, z[:, ::-1], build_mubs(2)[1]], "bases are not mutually unbiased: deviation "),
                (qutrit, build_mubs(2), "measurement is 2-dimensional but the state is 3-dimensional")):
            for call in (born_table, information_by_basis):
                with pytest.raises(ValidationError) as caught:
                    call(rho, bases)
                assert str(caught.value).startswith(message), call


class TestReconstruction:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_round_trip(self, n):
        bases = build_mubs(n)
        for i in range(20):
            rho = random_density(n, seed=300 * n + i)
            stats = [born_probabilities(rho, u) for u in bases]
            rebuilt = reconstruct(stats, bases)
            assert hs_distance(rebuilt, rho) < 1e-9

    def test_pure_state_round_trip(self):
        bases = build_mubs(2)
        rho = bloch_state([0.6, 0.0, 0.8])
        stats = [born_probabilities(rho, u) for u in bases]
        assert hs_distance(reconstruct(stats, bases), rho) < 1e-12

    def test_noisy_statistics_stay_hermitian_unit_trace(self):
        bases = build_mubs(2)
        rho = bloch_state([0.6, 0.0, 0.8])
        stats = [np.array(born_probabilities(rho, u)) for u in bases]
        for probs in stats:
            probs += [0.01, -0.01]
        rebuilt = reconstruct(stats, bases)
        assert np.allclose(rebuilt, rebuilt.conj().T)
        assert np.trace(rebuilt).real == pytest.approx(1.0, abs=1e-12)

    def test_noise_on_a_pure_state_goes_indefinite(self):
        # pushing statistics of a boundary state outward must surface as a
        # negative eigenvalue rather than being silently repaired
        bases = build_mubs(2)
        stats = [np.array(born_probabilities(bloch_state([0, 0, 1]), u)) for u in bases]
        stats[0] = np.array([1.0, 0.0])
        stats[1] = np.array([0.55, 0.45])
        stats[2] = np.array([0.55, 0.45])
        rebuilt = reconstruct(stats, bases)
        assert smallest_eigenvalue(rebuilt) < -1e-6

    def test_wrong_number_of_distributions_rejected(self):
        bases = build_mubs(2)
        with pytest.raises(ValidationError):
            reconstruct([[0.5, 0.5]] * 2, bases)

    def test_wrong_outcome_count_rejected(self):
        bases = build_mubs(2)
        with pytest.raises(ValidationError):
            reconstruct([[0.5, 0.25, 0.25]] * 3, bases)
        with pytest.raises(ValidationError, match="mismatched dimensions"):
            reconstruct([[0.5, 0.5], [1.0], [0.5, 0.5]], bases)

    def test_biased_bases_rejected(self):
        z = np.eye(2, dtype=complex)
        with pytest.raises(ValidationError):
            reconstruct([[0.5, 0.5]] * 3, [z, z[:, ::-1], build_mubs(2)[1]])
