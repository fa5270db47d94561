from __future__ import annotations

import json

import numpy as np
import pytest

from quantinfo import (
    ValidationError,
    bloch_state,
    cq_ensemble,
    ensemble_from_json,
    ensemble_to_json,
    load_ensemble,
    load_state,
    pure_state,
    random_density,
    state_from_json,
    state_to_json,
)
from test_quantum import assert_same_bits


class TestStateDocuments:
    def test_round_trip(self):
        rho = random_density(3, seed=1)
        doc = state_to_json(rho)
        assert doc["dim"] == 3
        assert np.allclose(state_from_json(doc), rho, atol=0)

    def test_round_trip_through_text(self):
        rho = random_density(2, seed=2)
        text = json.dumps(state_to_json(rho))
        assert np.allclose(state_from_json(json.loads(text)), rho, atol=1e-15)

    def test_bloch_form(self):
        doc = {"bloch": [0.3, 0.0, 0.4]}
        assert np.allclose(state_from_json(doc), bloch_state([0.3, 0.0, 0.4]), atol=1e-15)

    def test_bad_bloch_length(self):
        with pytest.raises(ValidationError):
            state_from_json({"bloch": [0.1, 0.2]})

    def test_missing_fields(self):
        with pytest.raises(ValidationError):
            state_from_json({"dim": 2})
        with pytest.raises(ValidationError):
            state_from_json([1, 2, 3])

    def test_dim_cross_check(self):
        doc = state_to_json(np.eye(2) / 2)
        doc["dim"] = 3
        with pytest.raises(ValidationError):
            state_from_json(doc)

    @pytest.mark.parametrize("dim", ["abc", None, 2.7, 2.0, True, [2]])
    @pytest.mark.parametrize("doc", [state_to_json(np.eye(2) / 2), {"bloch": [0.0, 0.0, 1.0]}],
                             ids=["matrix", "bloch"])
    def test_dim_must_be_an_integer(self, doc, dim):
        with pytest.raises(ValidationError, match='"dim" must be an integer'):
            state_from_json({**doc, "dim": dim})

    @pytest.mark.parametrize("dim", [np.int64(2), np.int32(2)])
    def test_numpy_integer_dim_accepted(self, dim):
        # a Python caller's dim passes as every size check passes it; JSON yields no numpy integer
        doc = state_to_json(np.eye(2) / 2)
        assert_same_bits(state_from_json({**doc, "dim": dim}), state_from_json(doc))

    def test_bloch_dim_cross_check(self):
        assert state_from_json({"bloch": [0.0, 0.0, 1.0], "dim": 2}).shape == (2, 2)
        with pytest.raises(ValidationError, match='"dim" is 3'):
            state_from_json({"bloch": [0.0, 0.0, 1.0], "dim": 3})

    def test_entries_must_be_pairs(self):
        with pytest.raises(ValidationError):
            state_from_json({"matrix": [[0.5, 0.0], [0.0, 0.5]]})

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            state_from_json({"matrix": [[[1.0, 0.0], [0.0, 0.0]]]})

    def test_encoder_rejects_non_square(self):
        with pytest.raises(ValidationError):
            state_to_json(np.ones((2, 3)))


def signed_zero_matrix(seed):
    """A complex n x n matrix (n = 1-5) with exact zeros of both signs in its real and imaginary parts."""
    rng = np.random.default_rng(seed)
    n = 1 + seed % 5
    matrix = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    matrix.real[rng.random((n, n)) < 0.3] = 0.0
    matrix.real[rng.random((n, n)) < 0.3] = -0.0
    matrix.imag[rng.random((n, n)) < 0.3] = 0.0
    matrix.imag[rng.random((n, n)) < 0.3] = -0.0
    return matrix


def test_state_text_matches_entry_by_entry_floats():
    for seed in range(2000):
        matrix = signed_zero_matrix(seed)
        reference = {"dim": len(matrix),
                     "matrix": [[[float(x.real), float(x.imag)] for x in row] for row in matrix]}
        assert json.dumps(state_to_json(matrix)) == json.dumps(reference)


def test_ensemble_priors_keep_their_bits():
    for seed in range(200):
        priors = np.random.default_rng(seed).dirichlet(np.ones(3))
        priors[seed % 3] = (0.0, -0.0)[seed % 2]
        ensemble = cq_ensemble(priors / priors.sum(), [random_density(2, seed + k) for k in range(3)])
        reference = [float(p) for p in ensemble.priors]
        assert json.dumps(ensemble_to_json(ensemble)["priors"]) == json.dumps(reference)
    assert ensemble_to_json(cq_ensemble([1.0, -0.0], [np.eye(2) / 2] * 2))["priors"] == [1.0, -0.0]


class TestEnsembleDocuments:
    def test_round_trip(self):
        ens = cq_ensemble([0.5, 0.5], [pure_state([1, 0]), pure_state([1, 1])], ("0", "+"))
        doc = ensemble_to_json(ens)
        back = ensemble_from_json(doc)
        assert back.letters == ens.letters
        assert back.priors == pytest.approx(ens.priors, abs=0)
        for a, b in zip(back.states, ens.states):
            assert np.allclose(a, b, atol=0)

    def test_letters_are_optional(self):
        doc = {
            "priors": [1.0],
            "states": [state_to_json(np.eye(2) / 2)],
        }
        assert ensemble_from_json(doc).letters == ("a0",)

    def test_missing_fields(self):
        with pytest.raises(ValidationError):
            ensemble_from_json({"priors": [1.0]})
        with pytest.raises(ValidationError):
            ensemble_from_json({"states": []})
        with pytest.raises(ValidationError):
            ensemble_from_json("not a dict")

    @pytest.mark.parametrize("letters", [5, "ab", {"a": 1}])
    def test_letters_must_be_a_list(self, letters):
        doc = {"priors": [0.5, 0.5], "states": [state_to_json(np.eye(2) / 2)] * 2,
               "letters": letters}
        with pytest.raises(ValidationError, match='"letters" must be a list'):
            ensemble_from_json(doc)

    def test_invalid_member_state_surfaces(self):
        doc = {"priors": [1.0], "states": [state_to_json(np.eye(2))]}
        with pytest.raises(ValidationError):
            ensemble_from_json(doc)


class TestMatrixEntries:
    @pytest.mark.parametrize("matrix, message", [
        ([[[1, 0, 5]]], '"matrix" must be a nonempty square list of rows of [re, im] pairs'),
        ([[[1, 0]]] * 2, '"matrix" must be a nonempty square list of rows of [re, im] pairs'),
        ([[[0.5, 0], [0, 0]], [[0, 0]]], "matrix: mismatched dimensions or non-numeric entries"),
        ([[[1, "a"]]], "matrix: mismatched dimensions or non-numeric entries"),
    ], ids=["three-numbers", "not-square", "ragged-rows", "not-a-number"])
    def test_rejected_matrix_names_its_reason(self, matrix, message):
        with pytest.raises(ValidationError) as caught:
            state_from_json({"matrix": matrix})
        assert str(caught.value) == message

    def test_pairs_keep_their_bits(self):
        pairs = [[[0.1, -0.0], [-0.0, 0.0]], [[-0.0, 0.0], [0.9, -0.0]]]
        rho = state_from_json({"matrix": pairs})
        assert rho.dtype == complex
        assert rho.tobytes() == np.array(pairs).tobytes()  # -0.0 included

    def test_numeric_strings_are_numbers(self):
        # as for "priors": the validators convert what numpy converts
        assert np.array_equal(state_from_json({"matrix": [[["1", "0"]]]}), [[1 + 0j]])
        assert np.array_equal(state_from_json({"bloch": ["0", "0", "1"]}), bloch_state([0, 0, 1]))


@pytest.mark.parametrize("decode, doc, message", [
    (state_from_json, {"matrix": []},
     '"matrix" must be a nonempty square list of rows of [re, im] pairs'),
    (state_from_json, {"bloch": ["a", 0, 0]},
     "Bloch vector: mismatched dimensions or non-numeric entries"),
    (ensemble_from_json, {"priors": [], "states": []},
     '"states" must be a nonempty list of state documents'),
], ids=["empty-matrix", "bloch-not-numbers", "no-states"])
def test_rejected_document_names_its_reason(decode, doc, message):
    with pytest.raises(ValidationError) as caught:
        decode(doc)
    assert str(caught.value) == message


class TestFileLoading:
    def test_load_state(self, tmp_path):
        path = tmp_path / "state.json"
        rho = random_density(2, seed=3)
        path.write_text(json.dumps(state_to_json(rho)))
        assert np.allclose(load_state(str(path)), rho, atol=1e-15)

    def test_load_ensemble(self, tmp_path):
        path = tmp_path / "ens.json"
        ens = cq_ensemble([0.25, 0.75], [pure_state([1, 0]), pure_state([0, 1])])
        path.write_text(json.dumps(ensemble_to_json(ens)))
        loaded = load_ensemble(str(path))
        assert loaded.priors == pytest.approx([0.25, 0.75], abs=1e-15)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_state(str(tmp_path / "nope.json"))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_state(str(path))
