"""Two-qubit observables, joint eigenstates, and question-information accounting.

A proposition is a yes/no question represented by a projector; its
information content is the quadratic measure of the (yes, no) outcome
distribution, which reaches 1/2 exactly when the answer is certain either
way. Individual questions ask about one spin along x, y, or z; correlation
questions ask whether the two spins agree along a common axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .probability import _quadratic, as_distribution
from .quantum import (
    EIGENVALUE_TOL, HERMITIAN_TOL, PAULIS, _hermitian_pair, as_density, as_hermitian, pure_state)

COMMUTATOR_TOL = 1e-9
EIGENVALUE_MATCH_TOL = 1e-6


@dataclass(frozen=True)
class InfoSplit:
    """Quadratic information of a two-qubit state, split by question type."""

    individual: float
    correlation: float
    individual_terms: tuple[tuple[str, float], ...]
    correlation_terms: tuple[tuple[str, float], ...]


def pauli_product(first: str, second: str) -> np.ndarray:
    """Tensor product of single-qubit Pauli operators, labels from {1, x, y, z}."""
    try:
        a = PAULIS[first]
        b = PAULIS[second]
    except KeyError as exc:
        raise ValidationError(
            f"Pauli labels must be one of 1, x, y, z, got {exc.args[0]!r}") from None
    return np.kron(a, b)


def joint_eigenstate(obs_a, obs_b, answers) -> np.ndarray:
    """Unique common eigenstate of two commuting observables, as a pure state.

    answers gives the requested eigenvalue of each observable. Rejected when
    the observables fail to commute, when an eigenvalue is absent, or when
    the joint eigenspace is not one-dimensional (its dimension is named in
    the error).
    """
    a, b = _hermitian_pair(obs_a, obs_b)
    if np.max(np.abs(a @ b - b @ a)) > COMMUTATOR_TOL:
        raise ValidationError("observables do not commute")
    try:
        want_a, want_b = (float(x) for x in answers)
    except (TypeError, ValueError):
        raise ValidationError("answers must be a pair of eigenvalues") from None

    values_a, vectors_a = np.linalg.eigh(a)
    keep = np.abs(values_a - want_a) < EIGENVALUE_MATCH_TOL
    if not keep.any():
        raise ValidationError(f"{want_a} is not an eigenvalue of the first observable")
    subspace = vectors_a[:, keep]

    restricted = subspace.conj().T @ b @ subspace
    values_b, vectors_b = np.linalg.eigh((restricted + restricted.conj().T) / 2.0)
    keep_b = np.abs(values_b - want_b) < EIGENVALUE_MATCH_TOL
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
    if residual > COMMUTATOR_TOL:
        raise ValidationError(f"joint eigenvector residual {residual:.3e} too large")
    lead = vector[np.flatnonzero(np.abs(vector) > 1e-12)[0]]
    vector = vector * (lead.conjugate() / abs(lead))
    return pure_state(vector)


def proposition_information(rho, question) -> float:
    """Quadratic information carried by one yes/no question (a projector).

    Zero when the answer is a coin flip, 1/2 when it is certain.
    """
    state = as_density(rho)
    q = as_hermitian(question)
    if q.shape != state.shape:
        raise ValidationError("question and state must have equal dimensions")
    if np.max(np.abs(q @ q - q)) > HERMITIAN_TOL:
        raise ValidationError("question must be a projector")
    return _question_information(state, q)


def individual_questions() -> tuple[tuple[str, np.ndarray], ...]:
    """The six single-spin questions: spin k up along w, for k in {1,2}, w in {x,y,z}."""
    eye = np.eye(2, dtype=complex)
    out = []
    for axis in "xyz":
        up = (eye + PAULIS[axis]) / 2.0
        out.append((f"spin 1 up along {axis}", np.kron(up, eye)))
        out.append((f"spin 2 up along {axis}", np.kron(eye, up)))
    return tuple(out)


def correlation_questions() -> tuple[tuple[str, np.ndarray], ...]:
    """The three joint questions: do the spins agree along a common axis?"""
    eye4 = np.eye(4, dtype=complex)
    return tuple(
        (f"spins agree along {axis}",
         (eye4 + np.kron(PAULIS[axis], PAULIS[axis])) / 2.0)
        for axis in "xyz")


def info_split(rho) -> InfoSplit:
    """Split a two-qubit state's question information into individual and correlation parts.

    A Bell state concentrates everything in the correlation questions (0, 3/2);
    a pure product state polarized along x gives (1, 1/2).
    """
    state = as_density(rho)
    if state.shape != (4, 4):
        raise ValidationError("info_split is defined for two-qubit states")
    individual = tuple(
        (label, _question_information(state, q)) for label, q in individual_questions())
    correlation = tuple(
        (label, _question_information(state, q)) for label, q in correlation_questions())
    return InfoSplit(
        individual=float(sum(v for _, v in individual)),
        correlation=float(sum(v for _, v in correlation)),
        individual_terms=individual,
        correlation_terms=correlation,
    )


def _question_information(state: np.ndarray, question: np.ndarray) -> float:
    """Quadratic measure 2 (p_yes - 1/2)^2 of a checked state and projector."""
    yes = float(np.einsum("ij,ji->", state, question).real)
    return float(_quadratic(as_distribution([yes, 1.0 - yes], entry_tol=EIGENVALUE_TOL)))
