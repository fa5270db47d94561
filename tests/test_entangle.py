from __future__ import annotations

import itertools

import numpy as np
import pytest

from quantinfo import (
    InfoSplit,
    ValidationError,
    as_povm,
    hs_distance,
    info_split,
    joint_eigenstate,
    pauli_product,
    proposition_information,
    pure_state,
    random_basis,
    random_density,
    total_information,
)
from quantinfo.entangle import _question_stack
from quantinfo.probability import TOL, _quadratic, _renormalize
from quantinfo.quantum import PAULIS, _as_matrices, _fix_column_phases, _trace_product, as_density
from test_quantum import assert_same_bits

BELL_PHI_PLUS = pure_state(np.array([1, 0, 0, 1]) / np.sqrt(2))
PLUS_PLUS = pure_state(np.array([1, 1, 1, 1]) / 2)


class TestPauliProduct:
    def test_xx_spectrum(self):
        values = np.linalg.eigvalsh(pauli_product("x", "x"))
        assert values == pytest.approx([-1, -1, 1, 1], abs=1e-12)

    def test_identity_component(self):
        op = pauli_product("z", "1")
        assert np.allclose(op, np.diag([1, 1, -1, -1]), atol=1e-12)

    def test_bad_label(self):
        with pytest.raises(ValidationError):
            pauli_product("x", "w")

    @pytest.mark.parametrize("label", list("1xyz"))
    def test_paulis_are_read_only(self, label):
        # a write to a shared Pauli would change every later product
        with pytest.raises(ValueError):
            PAULIS[label][0, 0] = 5.0
        np.testing.assert_array_equal(pauli_product("1", "z"), np.diag([1, -1, 1, -1]))


class TestJointEigenstate:
    def test_xx_yy_picks_a_bell_state(self):
        rho = joint_eigenstate(pauli_product("x", "x"), pauli_product("y", "y"), (1, -1))
        assert hs_distance(rho, BELL_PHI_PLUS) < 1e-9

    def test_xx_x1_picks_the_product_state(self):
        rho = joint_eigenstate(pauli_product("x", "x"), pauli_product("x", "1"), (1, 1))
        assert hs_distance(rho, PLUS_PLUS) < 1e-9

    def test_all_four_bell_states_are_reachable(self):
        xx = pauli_product("x", "x")
        zz = pauli_product("z", "z")
        seen = []
        for sx in (1, -1):
            for sz in (1, -1):
                rho = joint_eigenstate(xx, zz, (sx, sz))
                assert total_information(rho) == pytest.approx(0.75, abs=1e-12)
                seen.append(rho)
        for i in range(4):
            for j in range(i + 1, 4):
                assert hs_distance(seen[i], seen[j]) > 0.5

    def test_noncommuting_pair_rejected(self):
        with pytest.raises(ValidationError, match="commute"):
            joint_eigenstate(pauli_product("x", "1"), pauli_product("z", "1"), (1, 1))

    def test_degenerate_answers_name_the_dimension(self):
        with pytest.raises(ValidationError, match="dimension 2"):
            joint_eigenstate(pauli_product("x", "x"), pauli_product("1", "1"), (1, 1))

    def test_absent_eigenvalue_rejected(self):
        with pytest.raises(ValidationError):
            joint_eigenstate(pauli_product("x", "x"), pauli_product("y", "y"), (2, 1))
        with pytest.raises(ValidationError, match="on that eigenspace"):
            # 3 is an eigenvalue of the second observable, just not on the
            # first observable's +1 eigenspace
            joint_eigenstate(np.diag([1.0, 1.0, -1.0, -1.0]),
                             np.diag([1.0, 2.0, 3.0, 4.0]), (1, 3))

    @pytest.mark.parametrize("drift", [1.1e-9, 1e-8, 9.9e-7, 1.1e-6])
    def test_answer_past_tol_is_not_an_eigenvalue(self, drift):
        with pytest.raises(ValidationError, match="is not an eigenvalue of the first observable"):
            joint_eigenstate(pauli_product("x", "x"), pauli_product("y", "y"), (1 + drift, 1))

    def test_eigenvalues_past_tol_apart_are_not_merged(self):
        # 1 and 1 + 1e-7 are two eigenvalues, so answer 1 picks one eigenvector
        rho = joint_eigenstate(np.diag([1.0, 1.0 + 1e-7, -1.0, -1.0]),
                               np.diag([1.0, 1.0, -1.0, -1.0]), (1, 1))
        assert hs_distance(rho, pure_state([1, 0, 0, 0])) == 0.0

    def test_xx_yy_plus_plus_is_the_triplet_bell_state(self):
        rho = joint_eigenstate(pauli_product("x", "x"), pauli_product("y", "y"), (1, 1))
        psi_plus = pure_state(np.array([0, 1, 1, 0]) / np.sqrt(2))
        assert hs_distance(rho, psi_plus) < 1e-9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            joint_eigenstate(pauli_product("x", "x"), np.eye(2), (1, 1))

    @pytest.mark.parametrize("answers", [1, (1,), ("a", 1), "11", ["1", "-1"], [True, True], (np.inf, 1)],
                             ids=["scalar", "one", "not-a-number", "string", "numeric-strings", "bools", "infinite"])
    def test_answers_must_be_a_pair(self, answers):
        with pytest.raises(ValidationError, match="^answers must be a pair of eigenvalues$"):
            joint_eigenstate(pauli_product("x", "x"), pauli_product("y", "y"), answers)

    def test_eigenvector_leaking_out_of_the_eigenspace_is_rejected(self):
        # the commutator is 1e-9, inside TOL, and both eigenvalues of the first observable
        # match answer 1; the second then picks (1, -1)/sqrt(2), which the first stretches
        with pytest.raises(ValidationError, match=r"^joint eigenvector residual 5\.000e-01 too large$"):
            joint_eigenstate(np.diag([1.0, 1.0 + 2e-9]), [[0.0, 0.5], [0.5, 0.0]], (1, 0))


class TestPropositionInformation:
    def test_certain_answer(self):
        rho = pure_state([1, 0])
        q = np.diag([1.0, 0.0])
        assert proposition_information(rho, q) == pytest.approx(0.5, abs=1e-12)
        assert proposition_information(rho, np.diag([0.0, 1.0])) == pytest.approx(
            0.5, abs=1e-12)

    def test_coin_flip_answer(self):
        rho = pure_state(np.array([1, 1]) / np.sqrt(2))
        assert proposition_information(rho, np.diag([1.0, 0.0])) == pytest.approx(
            0.0, abs=1e-15)

    def test_intermediate_answer(self):
        rho = np.diag([0.8, 0.2]).astype(complex)
        assert proposition_information(rho, np.diag([1.0, 0.0])) == pytest.approx(
            2 * 0.3 ** 2, abs=1e-12)

    def test_answer_noise_within_the_eigenvalue_window(self):
        # as_density accepts an eigenvalue of -5e-10, so p_yes = -5e-10 clamps to 0
        rho = np.diag([1.0 + 5e-10, -5e-10])
        assert proposition_information(rho, np.diag([0.0, 1.0])) == 0.5

    def test_non_projector_rejected(self):
        with pytest.raises(ValidationError):
            proposition_information(pure_state([1, 0]), np.diag([0.5, 0.5]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            proposition_information(BELL_PHI_PLUS, np.diag([1.0, 0.0]))


class TestQuestionSets:
    def test_individual_set(self):
        labels, stack = _question_stack()
        assert labels[:6] == tuple(f"spin {k} up along {axis}" for axis in "xyz" for k in (1, 2))
        for q in stack[:6, 0]:
            assert np.allclose(q @ q, q, atol=1e-12)
            assert np.trace(q).real == pytest.approx(2.0, abs=1e-12)

    def test_correlation_set(self):
        labels, stack = _question_stack()
        assert labels[6:] == ("spins agree along x", "spins agree along y", "spins agree along z")
        assert stack.shape == (9, 2, 4, 4)
        for q in stack[6:, 0]:
            assert np.allclose(q @ q, q, atol=1e-12)
            assert np.trace(q).real == pytest.approx(2.0, abs=1e-12)

    def test_each_row_is_a_yes_no_measurement(self):
        # every (Q, I - Q) row is a two-outcome POVM whose "no" effect is the complement of "yes"
        for yes, no in _question_stack()[1]:
            assert_same_bits(np.array(as_povm([yes, no])), np.stack([yes, no]))
            assert_same_bits(no, np.eye(4) - yes)

    def test_projectors_match_the_loops_they_replace(self):
        # the individual questions were kron(up, 1) and kron(1, up) with up = (1 + sigma) / 2,
        # the correlation questions (I + kron(sigma, sigma)) / 2, each in a loop over the axes;
        # the stack's "yes" half keeps their bits
        eye = np.eye(2, dtype=complex)
        labels, projectors = [], []
        for axis in "xyz":
            up = (eye + PAULIS[axis]) / 2.0
            labels += [f"spin 1 up along {axis}", f"spin 2 up along {axis}"]
            projectors += [np.kron(up, eye), np.kron(eye, up)]
        for axis in "xyz":
            labels.append(f"spins agree along {axis}")
            projectors.append((np.eye(4, dtype=complex) + np.kron(PAULIS[axis], PAULIS[axis])) / 2.0)
        got_labels, stack = _question_stack()
        assert got_labels == tuple(labels)
        assert_same_bits(stack[:, 0], np.stack(projectors))

    def test_stack_is_read_only(self):
        _, stack = _question_stack()
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 0, 0] = 0.0

    def test_correlation_projector_contains_bell_state(self):
        for q in _question_stack()[1][6:, 0]:
            overlap = np.einsum("ij,ji->", BELL_PHI_PLUS, q).real
            assert overlap == pytest.approx(1.0, abs=1e-12) or overlap == pytest.approx(
                0.0, abs=1e-12)


class TestInfoSplit:
    def test_bell_state_is_all_correlation(self):
        split = info_split(BELL_PHI_PLUS)
        assert isinstance(split, InfoSplit)
        # each single-spin answer is a coin flip, and the yes and no weights are read alike
        assert split.individual_terms == tuple((label, 0.0) for label, _ in split.individual_terms)
        assert split.individual == pytest.approx(0.0, abs=1e-12)
        assert split.correlation == pytest.approx(1.5, abs=1e-12)
        for _, value in split.correlation_terms:
            assert value == pytest.approx(0.5, abs=1e-12)

    def test_product_state_favors_individual_questions(self):
        split = info_split(PLUS_PLUS)
        assert split.individual == pytest.approx(1.0, abs=1e-12)
        assert split.correlation == pytest.approx(0.5, abs=1e-12)

    def test_maximally_mixed_state_answers_nothing(self):
        split = info_split(np.eye(4) / 4)
        assert split.individual == pytest.approx(0.0, abs=1e-15)
        assert split.correlation == pytest.approx(0.0, abs=1e-15)

    def test_term_labels_carry_the_axes(self):
        split = info_split(BELL_PHI_PLUS)
        assert len(split.individual_terms) == 6
        assert len(split.correlation_terms) == 3
        assert dict(split.correlation_terms).keys() == {
            "spins agree along x", "spins agree along y", "spins agree along z"}

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValidationError, match=r"two-qubit \(4x4\) state"):
            info_split(np.eye(2) / 2)

    def test_terms_match_one_question_at_a_time(self):
        # the nine questions are asked in one batched einsum; each term keeps the bits
        # of asking its "yes" projector alone
        labels, stack = _question_stack()
        questions = tuple(zip(labels, stack[:, 0]))
        for seed in range(50):
            rho = random_density(4, seed=seed, rank=1 + seed % 4)
            split = info_split(rho)
            terms = split.individual_terms + split.correlation_terms
            assert terms == tuple(
                (label, proposition_information(rho, q)) for label, q in questions)
            assert split.individual == sum(v for _, v in terms[:6])


    def test_terms_stay_within_rounding_of_the_complemented_answer(self):
        # the parent formula read Tr(rho Q) and completed it with 1 - yes; the effect stack reads
        # Tr(rho (I - Q)) as its own trace, which moves a term by at most two float64 epsilons (4.4e-16)
        labels, stack = _question_stack()
        worst = 0.0
        for seed in range(500):
            rho = random_density(4, seed=90000 + seed, rank=1 + seed % 4)
            split = info_split(rho)
            got = np.array([v for _, v in split.individual_terms + split.correlation_terms])
            alone = np.array([proposition_information(rho, q) for q in stack[:, 0]])
            assert_same_bits(alone, got)
            worst = max(worst, np.max(np.abs(got - reference_question_information(as_density(rho), stack[:, 0]))))
        assert worst <= 2 * np.finfo(float).eps


def reference_question_information(state, questions):
    """The quadratic measure of each question as it was computed before the (yes, no) effect stack."""
    yes = _trace_product(state, questions)
    return _quadratic(_renormalize(np.stack([yes, 1.0 - yes], axis=-1)))

def reference_joint_eigenstate(obs_a, obs_b, answers):
    """joint_eigenstate as it was written with one eigenspace step per observable, before the loop."""
    a, b = _as_matrices([obs_a, obs_b], 3, "hermitian")
    if np.max(np.abs(a @ b - b @ a)) > TOL:
        raise ValidationError("observables do not commute")
    try:
        want_a, want_b = (float(x) for x in answers)
    except (TypeError, ValueError):
        raise ValidationError("answers must be a pair of eigenvalues") from None

    values_a, vectors_a = np.linalg.eigh(a)
    keep = np.abs(values_a - want_a) <= TOL
    if not keep.any():
        raise ValidationError(f"{want_a} is not an eigenvalue of the first observable")
    subspace = vectors_a[:, keep]

    restricted = subspace.conj().T @ b @ subspace
    values_b, vectors_b = np.linalg.eigh((restricted + restricted.conj().T) / 2.0)
    keep_b = np.abs(values_b - want_b) <= TOL
    dim = int(keep_b.sum())
    if dim == 0:
        raise ValidationError(
            f"{want_b} is not an eigenvalue of the second observable on that eigenspace")
    if dim != 1:
        raise ValidationError(
            f"joint eigenspace has dimension {dim}, not 1: answers do not pin down a state")
    vector = subspace @ vectors_b[:, keep_b][:, 0]

    residual = max(
        float(np.linalg.norm(a @ vector - want_a * vector)),
        float(np.linalg.norm(b @ vector - want_b * vector)),
    )
    if residual > TOL:
        raise ValidationError(f"joint eigenvector residual {residual:.3e} too large")
    return pure_state(_fix_column_phases(vector[:, None])[:, 0])


def joint_outcome(function, a, b, answers):
    """(state, None) or (None, the rejection message)."""
    try:
        return function(a, b, answers), None
    except ValidationError as exc:
        return None, str(exc)


def assert_loop_matches_reference(a, b, answers) -> str:
    """Same verdict and message as the reference, states within 1e-15 per entry; returns the message."""
    state, message = joint_outcome(joint_eigenstate, a, b, answers)
    want, want_message = joint_outcome(reference_joint_eigenstate, a, b, answers)
    assert message == want_message
    if message is None:
        assert np.max(np.abs(state - want)) <= 1e-15
    return message or "state"


def message_kinds(messages) -> set[str]:
    """Each message without its first word (the answer or "joint"), so answers of one kind collapse."""
    return {m if m in ("state", "observables do not commute") else m.split(" ", 1)[1] for m in messages}


def test_loop_matches_reference_on_pauli_pairs():
    # all 256 pairs of two-qubit Pauli products, with every answer pair from {1, -1, 0.5}
    products = [pauli_product(f, s) for f, s in itertools.product("1xyz", repeat=2)]
    messages = [assert_loop_matches_reference(a, b, answers)
                for a, b in itertools.product(products, repeat=2)
                for answers in itertools.product((1, -1, 0.5), repeat=2)]
    assert len(messages) == 256 * 9
    assert message_kinds(messages) == {
        "state", "observables do not commute", "is not an eigenvalue of the first observable",
        "is not an eigenvalue of the second observable on that eigenspace",
        "eigenspace has dimension 2, not 1: answers do not pin down a state",
        "eigenspace has dimension 4, not 1: answers do not pin down a state"}


def test_loop_matches_reference_on_seeded_commuting_pairs():
    # a shared eigenbasis with small integer eigenvalues: degenerate spaces, exact answers,
    # answers inside the TOL window, near misses just past it and absent values
    offsets = (0.0, 0.5 * TOL, -0.5 * TOL, 2.0 * TOL, 0.5)
    messages = []
    for seed in range(3000):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 5
        u = random_basis(n, seed=seed)
        values = rng.integers(-2, 3, size=(2, n))
        a, b = ((u * v) @ u.conj().T for v in values)
        k = int(rng.integers(n))
        answers = values[:, k] + rng.choice(offsets, size=2, p=(0.6, 0.1, 0.1, 0.1, 0.1))
        messages.append(assert_loop_matches_reference(a, b, answers))
    kinds = message_kinds(messages)
    assert {"state", "is not an eigenvalue of the first observable",
            "is not an eigenvalue of the second observable on that eigenspace"} <= kinds
    assert any(kind.startswith("eigenspace has dimension") for kind in kinds)
