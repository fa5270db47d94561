"""Validators reject, kernels repair.

The public functions validate their inputs once; the kernels behind them
(_born, _spectrum, _joint) reject nothing. _born returns raw Born weights;
the others, and every caller that forms a distribution from _born or from
_trace_product, zero rounding negatives and rescale rows. These tests pin that split:
inputs every validator accepts must come out as clean distributions, and no
kernel may call the boundary clamp again.
"""

from __future__ import annotations

import ast
import types
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import quantinfo
from quantinfo import (
    apply_doubly_stochastic,
    as_basis,
    as_density,
    as_distribution,
    as_doubly_stochastic,
    as_hermitian,
    as_joint_distribution,
    as_povm,
    born_probabilities,
    cq_ensemble,
    holevo_chi,
    hs_inner_product,
    joint_distribution,
    measured_information,
    random_basis,
    random_density,
    random_distribution,
    random_doubly_stochastic,
    random_ensemble,
    random_povm,
    spectrum,
)
from quantinfo.probability import TOL, _clamp

# the validators that may call probability._clamp, as (module, function)
CLAMP_CALLERS = {
    ("probability", "as_distribution"),
    ("probability", "as_joint_distribution"),
    ("probability", "as_doubly_stochastic"),
    ("mub", "reconstruct"),
    ("cli", "_cli_distribution"),
}
KERNELS = {
    ("probability", "_renormalize"),
    ("quantum", "_born"),
    ("quantum", "_spectrum"),
    ("channel", "_joint"),
}


def source_functions():
    """(module, function, node) for every top-level function of the package."""
    for path in sorted(Path(quantinfo.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield path.stem, node.name, node


def test_only_validators_call_clamp():
    callers = {
        (module, name)
        for module, name, node in source_functions()
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and getattr(call.func, "id", getattr(call.func, "attr", None)) == "_clamp"}
    assert callers == CLAMP_CALLERS


def test_only_the_checks_divide_out_a_total():
    # a kernel divides every time: its input is raw arithmetic, not a checked value, so its totals are
    # no earlier division's rounding; and the rounding threshold is spelled in the helper alone
    def divides_out(call):
        return isinstance(call, ast.Call) and getattr(call.func, "id", getattr(call.func, "attr", None)) == "_divide_out"

    def epsilons(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                and isinstance(node.right, ast.UnaryOp) and getattr(node.right.operand, "value", None) == 52)

    assert call_sites(divides_out) == (
        3, [("probability", "_clamp"), ("probability", "_clamp"), ("quantum", "_check_matrices")])
    assert call_sites(epsilons) == (1, [("probability", "_divide_out")])


def contracts_trace(call) -> bool:
    """Whether call is an np.einsum of two operands whose last index pairs swap and are summed away."""
    if not (isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "einsum"
            and call.args and isinstance(call.args[0], ast.Constant)):
        return False
    inputs, _, output = call.args[0].value.replace(" ", "").partition("->")
    operands = inputs.split(",")
    if len(operands) != 2 or min(map(len, operands)) < 2:
        return False
    (i, j), (k, l) = operands[0][-2:], operands[1][-2:]
    return (i, j) == (l, k) and i != j and i not in output and j not in output


def call_sites(matches):
    """(number of matching calls anywhere in the package, (module, function) of each inside a top-level function)."""
    calls = [call for path in sorted(Path(quantinfo.__file__).parent.glob("*.py"))
             for call in ast.walk(ast.parse(path.read_text())) if matches(call)]
    sites = [(module, name) for module, name, node in source_functions()
             for call in ast.walk(node) if matches(call)]
    return len(calls), sites


def test_one_trace_kernel():
    # every Tr(AB) in the package (purity, Born and Bloch weights, question answers) sums in one order
    assert call_sites(contracts_trace) == (1, [("quantum", "_trace_product")])


def test_one_gaussian_draw():
    # every seeded state, basis, POVM and hill-climb rotation takes its real, then its imaginary parts
    # from the stream in one layout
    def draws(call):
        return isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "standard_normal"

    assert call_sites(draws) == (1, [("quantum", "_ginibre")])


def test_one_born_contraction():
    # <u_i|rho|u_i> is spelled once; the only other three-operand einsum is the MUB reconstruction
    def three_operands(call):
        return (isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "einsum"
                and bool(call.args) and isinstance(call.args[0], ast.Constant)
                and call.args[0].value.partition("->")[0].count(",") == 2)

    assert call_sites(three_operands) == (2, [("mub", "reconstruct"), ("quantum", "_born")])


def test_one_eigenspace_step():
    # joint_eigenstate narrows to each observable's eigenspace in one loop, so eigh appears once
    node = {(module, name): node for module, name, node in source_functions()}[
        ("entangle", "joint_eigenstate")]
    assert sum(isinstance(n, ast.Attribute) and n.attr == "eigh" for n in ast.walk(node)) == 1


# constructions written as the array formula they implement
WHOLE_ARRAY_FORMS = {
    ("quantum", "_fix_column_phases"),
    ("quantum", "basis_projectors"),
    ("mub", "build_mubs"),
    ("channel", "random_povm"),
    ("serialize", "state_to_json"),
}


def test_constructions_loop_over_nothing():
    found = {(module, name): node for module, name, node in source_functions()}
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    for key in WHOLE_ARRAY_FORMS:
        assert not any(isinstance(n, loops) for n in ast.walk(found[key])), key
    # the quadratic kernel takes no norm: quadratic_information scales its result
    kernel = found[("probability", "_quadratic")]
    assert [arg.arg for arg in kernel.args.args] == ["probs"]


def test_no_function_takes_a_tolerance():
    # every window is a module constant, and the entry-by-entry pass behind _clamp
    # only picks the error message for an input the fast test already refused
    knobs = []
    for path in sorted(Path(quantinfo.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                knobs += [(path.stem, getattr(node, "name", "<lambda>"), arg.arg)
                          for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg)
                          if arg and (arg.arg.lower() == "tol" or arg.arg.lower().endswith("_tol"))]
    assert knobs == []
    entries = {(module, name): node for module, name, node in source_functions()}[
        ("probability", "_clamp_entries")]
    assert not any(isinstance(n, ast.Return) for n in ast.walk(entries))
    assert isinstance(entries.body[-1], ast.Raise)


def test_one_verdict_window():
    # every verdict reads probability.TOL; only the negative-entry clamp keeps a window of its own
    assigned, imported = set(), set()
    for path in sorted(Path(quantinfo.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom):
                imported |= {(path.stem, alias.asname or alias.name) for alias in node.names}
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name):
                    assigned.add((path.stem, target.id))
    window = lambda name: name == "TOL" or name.endswith(("_TOL", "THRESHOLD"))
    assert {key for key in assigned if window(key[1])} == {
        ("probability", "TOL"), ("probability", "ENTRY_TOL")}
    assert {name for _, name in imported if window(name)} == {"TOL"}


def test_public_surface_is_pinned():
    # every public name earns its place (README, Library); adding or removing one edits this set
    exported = {name for name, value in vars(quantinfo).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == {
        "AccessibleInfo", "CqEnsemble", "DeviationReport", "InfoSplit", "PrefixCode",
        "TypicalSetReport", "ValidationError", "WrongBasisReport",
        "accessible_information", "apply_doubly_stochastic", "as_basis", "as_density",
        "as_distribution", "as_doubly_stochastic", "as_hermitian", "as_joint_distribution",
        "as_povm", "basis_projectors", "bloch_state", "bloch_vector", "block_question_rate",
        "born_probabilities", "born_table", "build_mubs", "conditional_entropy", "cq_ensemble",
        "ensemble_from_json", "ensemble_to_json", "grouping_residual", "holevo_chi",
        "hs_distance", "hs_inner_product", "hyperplane_orthogonality", "info_split",
        "information_by_basis", "information_sum", "is_pure", "joint_distribution",
        "joint_eigenstate", "load_ensemble", "load_state", "luders_update", "majorizes",
        "measured_information", "mutual_information", "pauli_product",
        "proposition_information", "pure_state", "purity", "quadratic_information",
        "question_strategy", "random_basis", "random_density", "random_distribution",
        "random_doubly_stochastic", "random_ensemble", "random_povm", "reconstruct",
        "shannon_entropy", "smallest_eigenvalue", "specification_information", "spectrum",
        "spin_basis", "state_from_json", "state_to_json", "surprise", "total_information",
        "typical_set", "verify_unbiased", "von_neumann_entropy", "wrong_basis_demo",
    }


def test_kernels_raise_nothing():
    found = {(module, name): node for module, name, node in source_functions()}
    assert KERNELS <= found.keys()
    for key in KERNELS:
        assert not any(isinstance(n, ast.Raise) for n in ast.walk(found[key])), key


class TestOnceFalselyRejected:
    """Inputs the validators accept, which a kernel's own clamp used to reject."""

    def test_born_weights_of_a_basis_inside_its_window(self):
        basis = np.eye(4) + 0.45e-9 * np.ones((4, 4))
        as_basis(basis)
        probs = born_probabilities(np.full((4, 4), 0.25), basis)
        assert np.all(probs >= 0.0) and abs(probs.sum() - 1.0) < 1e-15

    def test_negative_born_weight_of_a_checked_state_and_effect(self):
        t = 0.9e-9
        ensemble = cq_ensemble([1.0], [np.diag([1.0 + t, -t])])
        effects = [np.diag([1.0 + t, 0.0]), np.diag([-t, 1.0])]
        table = joint_distribution(ensemble, effects)
        assert np.all(table >= 0.0) and abs(table.sum() - 1.0) < 1e-15
        assert measured_information(ensemble, effects) == 0.0

    def test_inner_product_of_large_hermitian_matrices(self):
        for seed in range(200):
            g = np.random.default_rng(seed).standard_normal((2, 4, 4, 2)) @ [1.0, 1.0j]
            a, b = 1e5 * (g + g.conj().swapaxes(-1, -2)) / 2.0
            assert hs_inner_product(a, b) == np.einsum("ij,ji->", a, b).real


def unitary(rng, n, first_column=None):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if first_column is not None:
        g[:, 0] = first_column
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# Each input sits at `reach` (at most 0.9) of its validator's window and is
# aligned so that the drifts add up: the state's largest eigenvalue lies along
# the vector the basis stretches, and the negative part of an effect lies along
# that same eigenvector.

def edge_state(frame, reach, negatives, rng):
    """Eigenvalues 1..negatives at -reach * TOL, the largest first, trace 1 + reach * TOL."""
    n = len(frame)
    values = np.full(n, -reach * TOL)
    keep = np.r_[0, 1 + negatives:n]
    positive = np.sort(rng.dirichlet(np.ones(keep.size)))[::-1]
    values[keep] = positive * (1.0 + negatives * reach * TOL)
    return (1.0 + reach * TOL) * (frame * values) @ frame.conj().T


def edge_basis(u, reach):
    """u (I + eps J), J all ones: its Gram matrix is off the identity by reach * TOL."""
    n = len(u)
    return u @ (np.eye(n) + 0.5 * reach * TOL * np.ones((n, n)))


def edge_povm(frame, reach):
    """Projectors on the frame with E1 - t P0 and (1 + t) P0, t = reach * TOL.

    All effects are scaled by 1 + reach * TOL, so their sum is off the identity too.
    """
    effects = np.einsum("ik,jk->kij", frame, frame.conj())
    effects[1] -= reach * TOL * effects[0]
    effects[0] *= 1.0 + reach * TOL
    return effects * (1.0 + reach * TOL)


def assert_clean_rows(table, row_sums=1.0):
    assert np.all(table >= 0.0)
    assert np.all(np.abs(table.sum(axis=-1, keepdims=True) - row_sums) < 1e-15)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(2, 7), st.integers(1, 4), st.floats(0.0, 0.9), st.integers(0, 2 ** 32 - 1))
def test_property_kernels_never_reject_validated_inputs(data, n, letters, reach, seed):
    rng = np.random.default_rng(seed)
    u = unitary(rng, n)
    frame = u @ unitary(rng, n, first_column=1.0)
    negatives = data.draw(st.integers(1, n - 1))
    states = [edge_state(frame, reach, negatives, rng)] + [
        edge_state(unitary(rng, n), reach, negatives, rng) for _ in range(letters - 1)]
    basis = edge_basis(u, reach)
    effects = edge_povm(frame, reach)
    for state in states:
        as_density(state)
    as_basis(basis)
    as_povm(effects)

    assert_clean_rows(born_probabilities(states[0], basis))
    assert_clean_rows(spectrum(states[0]))
    ensemble = cq_ensemble(rng.dirichlet(np.ones(letters)), states)
    table = joint_distribution(ensemble, effects)
    assert_clean_rows(table, ensemble.priors[:, None])
    assert abs(table.sum() - 1.0) < 1e-15
    assert np.isfinite(measured_information(ensemble, effects))
    assert np.isfinite(holevo_chi(ensemble))


# each check, and a seeded input of size n scaled by d, so its sums, traces or Gram matrix are off 1
# by d - 1, at most TOL (reconstruct's rows are scaled by factors spread from 2 - d to d)
FIXED_POINT_CHECKS = {
    "as_distribution": (as_distribution, lambda n, s, d: random_distribution(n, s) * d),
    "as_joint_distribution": (
        as_joint_distribution, lambda n, s, d: random_distribution(n * (1 + s % 3), s).reshape(n, -1) * d),
    "as_doubly_stochastic": (as_doubly_stochastic, lambda n, s, d: random_doubly_stochastic(n, s) * d),
    "as_density": (as_density, lambda n, s, d: random_density(n, s, rank=1 + s % n) * d),
    "as_hermitian": (as_hermitian, lambda n, s, d: random_density(n, s) + (d - 1.0) * np.triu(np.ones((n, n)), 1)),
    "as_basis": (as_basis, lambda n, s, d: random_basis(n, s) * np.sqrt(d)),
    "as_povm": (lambda e: np.array(as_povm(e)), lambda n, s, d: np.array(random_povm(n, 1 + s % 3, s)) * d),
    "reconstruct-rows": (
        lambda rows: _clamp(rows, 2, "probability vector", "rows"),
        lambda n, s, d: (np.array([random_distribution(n, 10000 * s + j) for j in range(n + 1)])
                         * np.linspace(2.0 - d, d, n + 1)[:, None])),
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(list(FIXED_POINT_CHECKS)), st.integers(1, 8), st.integers(0, 2 ** 32 - 1),
       st.floats(-0.999, 0.999))
def test_property_a_checked_value_checks_again_unchanged(name, n, seed, reach):
    # a total is divided out only past an earlier division's rounding, so check(check(x)) is check(x)
    check, draw = FIXED_POINT_CHECKS[name]
    once = check(draw(n, seed, 1.0 + reach * TOL))
    assert check(once).tobytes() == once.tobytes()


def test_kernel_outputs_pass_a_later_check_unchanged():
    # a kernel divides every time, so what it returns is a checked value: a later check keeps every bit
    moved = []
    for seed in range(500):
        letters = 2 + seed % 3
        table = joint_distribution(random_ensemble(2, letters, seed), random_povm(2, letters, seed))
        if as_joint_distribution(table).tobytes() != table.tobytes():
            moved.append(("joint", 2, seed))
        for n in range(1, 9):
            rho = random_density(n, seed, rank=1 + seed % n)
            outputs = {
                "spectrum": spectrum(rho),
                "born": born_probabilities(rho, random_basis(n, seed)),
                "schur": apply_doubly_stochastic(random_doubly_stochastic(n, seed), random_distribution(n, seed)),
            }
            moved += [(name, n, seed) for name, out in outputs.items()
                      if as_distribution(out).tobytes() != out.tobytes()]
    assert moved == []
