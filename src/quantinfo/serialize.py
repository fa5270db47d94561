"""JSON interchange for states and ensembles.

Complex numbers are [re, im] pairs and matrices are row-major nested lists.
A state document is {"dim": n, "matrix": [[[re, im], ...], ...]} or, for a
qubit, {"bloch": [rx, ry, rz]}. An ensemble document is {"priors": [...],
"states": [<state document>, ...]} with an optional "letters" list.
"""

from __future__ import annotations

import json

import numpy as np

from .channel import CqEnsemble, cq_ensemble
from .errors import ValidationError
from .probability import _as_array, _is_int
from .quantum import bloch_state


def state_to_json(matrix) -> dict:
    """Encode a square complex matrix as a state document (matrix form)."""
    arr = _as_array(matrix, complex, "matrix")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise ValidationError("expected a nonempty square matrix")
    return {
        "dim": int(arr.shape[0]),
        "matrix": np.stack((arr.real, arr.imag), axis=-1).tolist(),
    }


def state_from_json(doc) -> np.ndarray:
    """Decode a state document into a complex matrix (not yet validated as a state)."""
    if not isinstance(doc, dict):
        raise ValidationError("state document must be a JSON object")
    if "bloch" in doc:
        arr = bloch_state(doc["bloch"])
    elif "matrix" not in doc:
        raise ValidationError('state document needs a "matrix" or "bloch" field')
    else:
        pairs = _as_array(doc["matrix"], float, "matrix", copy=True)
        if pairs.ndim != 3 or pairs.shape[1:] != (pairs.shape[0], 2) or pairs.size == 0:
            raise ValidationError('"matrix" must be a nonempty square list of rows of [re, im] pairs')
        arr = pairs.view(complex)[..., 0]  # each pair's two floats, bit for bit
    dim = doc.get("dim", arr.shape[0])
    if not _is_int(dim):  # a JSON true is a Python bool, an int subclass
        raise ValidationError(f'"dim" must be an integer, got {dim!r}')
    if dim != arr.shape[0]:
        raise ValidationError(f'"dim" is {dim} but the matrix is {arr.shape[0]}x{arr.shape[1]}')
    return arr


def ensemble_to_json(ensemble: CqEnsemble) -> dict:
    return {
        "letters": list(ensemble.letters),
        "priors": ensemble.priors.tolist(),
        "states": [state_to_json(rho) for rho in ensemble.states],
    }


def ensemble_from_json(doc) -> CqEnsemble:
    if not isinstance(doc, dict):
        raise ValidationError("ensemble document must be a JSON object")
    for field in ("priors", "states"):
        if field not in doc:
            raise ValidationError(f'ensemble document needs a "{field}" field')
    if not isinstance(doc["states"], list) or not doc["states"]:
        raise ValidationError('"states" must be a nonempty list of state documents')
    states = [state_from_json(s) for s in doc["states"]]
    letters = doc.get("letters")
    if letters is not None and not isinstance(letters, list):
        raise ValidationError('"letters" must be a list of names')
    return cq_ensemble(doc["priors"], states, letters)


def load_state(path: str) -> np.ndarray:
    return state_from_json(_load_json(path))


def load_ensemble(path: str) -> CqEnsemble:
    return ensemble_from_json(_load_json(path))


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # ValueError covers JSON and UTF-8 decode errors
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None
