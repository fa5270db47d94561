"""Two-qubit observables, joint eigenstates, and question-information accounting.

A proposition is a yes/no question represented by a projector; its
information content is the quadratic measure of the (yes, no) outcome
distribution, which reaches 1/2 exactly when the answer is certain either
way. Individual questions ask about one spin along x, y, or z; correlation
questions ask whether the two spins agree along a common axis.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .probability import TOL, _finite_scalar, _quadratic, _renormalize
from .quantum import (
    PAULIS, _as_matrices, _fix_column_phases, _state_and, _trace_product, as_density, as_hermitian, pure_state)


class InfoSplit(NamedTuple):
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
    a, b = _as_matrices([obs_a, obs_b], 3, "hermitian")
    if np.max(np.abs(a @ b - b @ a)) > TOL:
        raise ValidationError("observables do not commute")
    message = "answers must be a pair of eigenvalues"
    try:
        want_a, want_b = (_finite_scalar(x, message) for x in answers)
    except (TypeError, ValueError):
        raise ValidationError(message) from None

    # subspace's orthonormal columns span the eigenspace found so far, starting from the whole space
    subspace = np.eye(len(a), dtype=complex)
    for observable, want, where in ((a, want_a, "the first observable"),
                                    (b, want_b, "the second observable on that eigenspace")):
        restricted = subspace.conj().T @ observable @ subspace
        values, vectors = np.linalg.eigh((restricted + restricted.conj().T) / 2.0)
        keep = np.abs(values - want) <= TOL
        if not keep.any():
            raise ValidationError(f"{want} is not an eigenvalue of {where}")
        subspace = subspace @ vectors[:, keep]
    dim = subspace.shape[1]
    if dim != 1:
        raise ValidationError(
            f"joint eigenspace has dimension {dim}, not 1: answers do not pin down a state")
    vector = subspace[:, 0]

    residual = max(
        float(np.linalg.norm(a @ vector - want_a * vector)),
        float(np.linalg.norm(b @ vector - want_b * vector)),
    )
    if residual > TOL:
        raise ValidationError(f"joint eigenvector residual {residual:.3e} too large")
    return pure_state(_fix_column_phases(subspace)[:, 0])


def proposition_information(rho, question) -> float:
    """Quadratic information carried by one yes/no question (a projector).

    Zero when the answer is a coin flip, 1/2 when it is certain.
    """
    state, q = _state_and(rho, question, as_hermitian)
    if np.max(np.abs(q @ q - q)) > TOL:
        raise ValidationError("question must be a projector")
    return float(_quadratic(_renormalize(_trace_product(state, np.array((q, np.eye(len(q)) - q))))))


def info_split(rho) -> InfoSplit:
    """Split a two-qubit state's question information into individual and correlation parts.

    A Bell state concentrates everything in the correlation questions (0, 3/2);
    a pure product state polarized along x gives (1, 1/2).
    """
    state = as_density(rho)
    if state.shape != (4, 4):
        raise ValidationError("entangle expects a two-qubit (4x4) state")
    labels, questions = _question_stack()
    terms = tuple(zip(labels, map(float, _quadratic(_renormalize(_trace_product(state, questions))))))
    individual, correlation = terms[:6], terms[6:]  # six single-spin questions, then three joint ones
    return InfoSplit(
        individual=float(sum(v for _, v in individual)),
        correlation=float(sum(v for _, v in correlation)),
        individual_terms=individual,
        correlation_terms=correlation,
    )


@functools.cache
def _question_stack() -> tuple[tuple[str, ...], np.ndarray]:
    """The nine questions' labels and a read-only (9, 2, 4, 4) stack of effects (I +- P) / 2, P a Pauli product."""
    labels, pairs = zip(
        ("spin 1 up along x", "x1"), ("spin 2 up along x", "1x"),
        ("spin 1 up along y", "y1"), ("spin 2 up along y", "1y"),
        ("spin 1 up along z", "z1"), ("spin 2 up along z", "1z"),
        ("spins agree along x", "xx"), ("spins agree along y", "yy"), ("spins agree along z", "zz"))
    stack = np.stack([(np.eye(4, dtype=complex) + sign * pauli_product(*pair)) / 2.0
                      for pair in pairs for sign in (1.0, -1.0)]).reshape(9, 2, 4, 4)
    stack.flags.writeable = False
    return labels, stack

