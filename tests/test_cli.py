from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import quantinfo
import quantinfo.cli as cli_module
from quantinfo import (
    ValidationError, as_distribution, bloch_state, born_table, build_mubs, cq_ensemble, ensemble_to_json,
    load_ensemble, pure_state, purity, random_basis, random_density, random_distribution, random_ensemble,
    shannon_entropy, state_from_json, state_to_json)
from quantinfo.cli import build_parser, run
from quantinfo.entangle import InfoSplit
from quantinfo.mub import DeviationReport
from quantinfo.probability import TOL
from quantinfo.selftest import CheckResult
from test_quantum import ZERO_PLUS_CHI

# one accepted argument list per subcommand
VALID_ARGS = {
    "entropy": ["--dist", "0.5,0.5"],
    "bzinfo": ["--dist", "0.5,0.5"],
    "grouping": ["--dist", "0.5,0.5"],
    "itot": ["--bloch", "0,0,0"],
    "mub-verify": ["--dim", "3"],
    "mub-sum": ["--bloch", "0,0,0"],
    "reconstruct": ["--probs", "1,0;0.5,0.5;0.5,0.5"],
    "holevo": ["--ensemble", "e.json"],
    "accessible": ["--ensemble", "e.json"],
    "wrongbasis": ["--theta", "1"],
    "coding": ["--dist", "0.5,0.5", "--block", "2", "--epsilon", "0.1"],
    "questions": ["--dist", "0.5,0.5"],
    "majorize": ["--p", "1,0", "--q", "0.5,0.5"],
    "entangle": ["--obs", "xx,yy", "--answers", "1,1"],
    "selftest": [],
}


def cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_json(capsys, *argv):
    code, out, err = cli(capsys, *argv, "--json")
    payload = strict_json(out)
    return code, payload, err


def strict_json(text):
    """json.loads refusing NaN and Infinity, which RFC 8259 JSON has no token for."""
    def refuse(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.fixture()
def ensemble_file(tmp_path):
    ens = cq_ensemble([0.5, 0.5], [pure_state([1, 0]), pure_state([1, 1])], ("0", "+"))
    path = tmp_path / "zero_plus.json"
    path.write_text(json.dumps(ensemble_to_json(ens)))
    return str(path)


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, out, _ = cli(capsys, "entropy", "--dist", "0.5,0.5")
        assert code == 0
        assert "H = 1.000000 bits" in out

    def test_validation_failure_is_one(self, capsys):
        code, out, err = cli(capsys, "entropy", "--dist", "0.5,0.6")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_usage_error_is_two(self, capsys):
        code, _, _ = cli(capsys, "no-such-command")
        assert code == 2
        code, _, _ = cli(capsys, "entropy")
        assert code == 2

    def test_help_is_zero(self, capsys):
        code, out, _ = cli(capsys, "--help")
        assert code == 0
        assert "subcommand" in out or "usage" in out


def module_env():
    src = str(Path(quantinfo.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_module_entry_point_runs_main():
    done = subprocess.run(
        [sys.executable, "-m", "quantinfo.cli", "entropy", "--dist", "0.5,0.5", "--json"],
        capture_output=True, text=True, env=module_env(), timeout=60)
    assert done.returncode == 0
    assert json.loads(done.stdout)["entropy_bits"] == 1.0


def test_cli_start_imports_no_dataclasses():
    # the result types are named tuples; a subprocess, since pytest itself imports dataclasses
    done = subprocess.run(
        [sys.executable, "-c", "import sys, quantinfo.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env=module_env(), timeout=60)
    assert (done.returncode, done.stdout) == (0, "False\n")


def test_cli_reads_no_field_of_the_records_it_serialises():
    # mub-verify, entangle and selftest emit each record's _asdict(), so field names live only in the record
    fields = set(DeviationReport._fields + InfoSplit._fields + CheckResult._fields)
    tree = ast.parse(Path(cli_module.__file__).read_text())
    assert {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)} & fields == set()


UNREADABLE_FILES = {
    "nested-100000-deep": b"[" * 100_000 + b"]" * 100_000,
    "5000-digit-integer": b'{"dim": 1' + b"0" * 4999 + b"}",
    "utf-16-byte-order-mark": b"\xff\xfe" + '{"bloch": [0, 0, 1]}'.encode("utf-16-le"),
}


@pytest.mark.parametrize("command", ["itot --state", "holevo --ensemble"])
@pytest.mark.parametrize("content", UNREADABLE_FILES.values(), ids=UNREADABLE_FILES.keys())
def test_unreadable_json_file_is_rejected(capsys, tmp_path, command, content):
    # a RecursionError, a plain ValueError and a UnicodeDecodeError ended in a traceback
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = cli(capsys, *command.split(), str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path} is not valid JSON: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["mub-verify", "--dim", str(2 ** 61 - 1)], "2305843009213693952 bases of dimension 2305843009213693951 need"),
    (["coding", "--dist", "1", "--block", "1" + "0" * 400, "--epsilon", "0.1"], "exceeds 2^53"),
    (["questions", "--dist", "1", "--block", "1" + "0" * 400], "exceeds 2^53"),
], ids=["mub-verify-mersenne-61", "coding-one-letter", "questions-one-letter"])
def test_huge_sizes_are_rejected_fast(capsys, argv, message):
    # trial division of 2^61 - 1 ran past 30 s; a 401-digit block length raised OverflowError
    start = time.perf_counter()
    code, out, err = cli(capsys, *argv)
    assert time.perf_counter() - start < 0.1
    assert (code, out) == (1, "")
    assert err.startswith("error:") and message in err


def test_reconstruct_counts_distributions_before_building_bases():
    # two 211-entry distributions: a complete set for n = 211 would take
    # tens of seconds and hundreds of MB to build and check
    probs = ";".join([",".join(["1"] + ["0"] * 210)] * 2)
    done = subprocess.run(
        [sys.executable, "-m", "quantinfo.cli", "reconstruct", "--probs", probs],
        capture_output=True, text=True, env=module_env(), timeout=20)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error:")
    assert "need 212 outcome distributions, got 2" in done.stderr


def test_closed_stdout_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "quantinfo.cli", "entropy", "--dist", "0.5,0.5"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=module_env(), timeout=60)
    finally:
        os.close(write_end)
    assert "Traceback" not in done.stderr
    assert done.returncode == 1


@pytest.mark.parametrize("argv, message", [
    (["entropy", "--dist", ","], "probabilities is empty"),
    (["entangle", "--obs", "xx", "--answers=1,1"],
     "--obs expects two two-letter Pauli products, e.g. 'xx,yy'"),
    (["entangle", "--obs", "xx,yy", "--answers", "1"], "answers must be a pair of eigenvalues"),
    (["entropy", "--dist", "0.5,,0.5,"], "could not parse probabilities: '0.5,,0.5,'"),
    (["reconstruct", "--probs", "1,0;;0.5,0.5;0.5,0.5;"],
     "could not parse outcome distributions: '1,0;;0.5,0.5;0.5,0.5;'"),
], ids=["empty-dist", "one-observable", "one-answer", "blank-dist-piece", "blank-probs-group"])
def test_rejected_arguments_name_their_reason(capsys, argv, message):
    assert cli(capsys, *argv) == (1, "", f"error: {message}\n")


class TestDistributionWindow:
    def test_small_drift_rejected(self, capsys):
        # the command line has no window of its own: 1e-7 off 1 is past TOL
        assert cli(capsys, "entropy", "--dist", "0.5000001,0.5") == (
            1, "", "error: probability vector sums to 1.0000000999999998, not 1\n")

    def test_exact_input_gets_no_warning(self, capsys):
        _, _, err = cli(capsys, "entropy", "--dist", "0.5,0.5")
        assert err == ""

    def test_large_drift_rejected(self, capsys):
        assert cli(capsys, "entropy", "--dist", "0.5,0.6") == (
            1, "", "error: probability vector sums to 1.1, not 1\n")

    def test_unparseable_rejected(self, capsys):
        code, _, _ = cli(capsys, "entropy", "--dist", "0.5,zebra")
        assert code == 1

    @pytest.mark.parametrize("argv, message", [
        (["wrongbasis", "--theta", "1", "--priors", "0.5,0.6"], "prior vector sums to 1.1, not 1"),
        (["majorize", "--p", "1,0", "--q", "0.5,0.4"], "q sums to 0.9, not 1"),
        (["reconstruct", "--probs", "1,0;0.5,0.6;0.5,0.5"],
         "outcome distribution 1 sums to 1.1, not 1"),
        (["entropy", "--dist=-0.1,1.1"], "negative probability vector entry: min -1.000e-01"),
        (["entropy", "--dist", "nan,1"], "probability vector entries must be finite"),
    ], ids=["priors", "majorize-q", "reconstruct-group", "negative", "nan"])
    def test_rejection_names_the_vector(self, capsys, argv, message):
        assert cli(capsys, *argv) == (1, "", f"error: {message}\n")


def run_quietly(*argv):
    """cli.run in process with stdout and stderr captured, for use inside hypothesis tests."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


@st.composite
def cli_vectors(draw):
    """Float lists near the simplex: sums just inside and just outside TOL, tiny negatives, NaN."""
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8))
    values = [w / sum(weights) for w in weights]
    values[0] += draw(st.sampled_from(
        [0.0, 5e-10, -5e-10, 9.9e-10, -9.9e-10, 1.1e-9, -1.1e-9, 1e-7, -1e-7, 0.1]))
    extra = draw(st.sampled_from([[], [0.0], [-5e-13], [-1e-12], [-2e-12], [float("nan")],
                                  [float("inf")]]))
    position = draw(st.integers(0, len(values)))
    return values[:position] + extra + values[position:]


@settings(max_examples=200, deadline=None)
@given(st.one_of(cli_vectors(), st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4)))
def test_property_cli_vectors_follow_the_library_rule(values):
    # one rule: the command line accepts a vector exactly when as_distribution does,
    # and echoes as_distribution's result bit for bit
    try:
        expected = as_distribution(values)
    except ValidationError:
        expected = None
    code, out, err = run_quietly("entropy", f"--dist={','.join(map(repr, values))}", "--json")
    if expected is None:
        assert (code, out) == (1, "") and err.startswith("error: ")
    else:
        assert (code, err) == (0, "")
        assert np.array(json.loads(out)["dist"]).tobytes() == expected.tobytes()


def written(n, seed):
    """A seeded distribution as a command line writes it, each entry by repr(float(x))."""
    return ",".join(repr(float(x)) for x in random_distribution(n, seed))


def echo_case(command, s):
    """(argv, the JSON keys that echo a probability vector) for the s-th seeded run of command."""
    n, seed = 2 + s % 6, 77000 + s
    if command == "majorize":
        return ["majorize", "--p", written(n, seed), "--q", written(n, seed + 1)], ("p", "q")
    if command == "wrongbasis":
        return ["wrongbasis", "--theta", "1", "--priors", written(2, seed)], ("priors",)
    if command == "reconstruct":
        n = (2, 3, 5, 7)[s % 4]
        return ["reconstruct", "--probs", ";".join(written(n, 10 * seed + j) for j in range(n + 1))], ("probs",)
    extra = ["--block", "2", "--epsilon", "0.1"] if command == "coding" else []
    return [command, "--dist", written(n, seed), *extra], ("dist",)


@pytest.mark.parametrize("command", [
    "entropy", "bzinfo", "grouping", "questions", "majorize", "wrongbasis", "coding", "reconstruct"])
def test_echo_is_the_vector_every_number_was_computed_from(command):
    # a command checks each vector once and the library checks it again: the second check keeps every
    # bit, so the --json echo is the vector behind every printed number
    moved = []
    for s in range(200):
        argv, keys = echo_case(command, s)
        code, out, err = run_quietly(*argv, "--json")
        assert (code, err) == (0, "")
        payload = strict_json(out)
        for key in keys:
            for echo in map(np.array, payload[key] if key == "probs" else [payload[key]]):
                if as_distribution(echo).tobytes() != echo.tobytes():
                    moved.append((s, key))
    assert moved == []


class TestScalarCommands:
    def test_entropy_worked_example(self, capsys):
        code, payload, _ = cli_json(
            capsys, "entropy", "--dist", "0.5,0.3333333333333333,0.1666666666666667")
        assert code == 0
        assert payload["entropy_bits"] == pytest.approx(2 / 3 + math.log2(3) / 2, abs=1e-12)
        assert payload["command"] == "entropy"

    def test_tol_is_a_usage_error_where_it_changes_nothing(self, capsys):
        # verdict tolerances and the search budget are fixed: no subcommand takes them
        parser = build_parser()
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(action.choices) == set(VALID_ARGS)
        for command, args in VALID_ARGS.items():
            parser.parse_args([command, *args])
            for option in ("--tol", "--restarts", "--steps"):
                code, out, _ = cli(capsys, command, *args, option, "1")
                assert code == 2 and out == "", (command, option)

    def test_bzinfo(self, capsys):
        code, payload, _ = cli_json(capsys, "bzinfo", "--dist", "0.65,0.35")
        assert code == 0
        assert payload["information"] == pytest.approx(0.045, abs=1e-12)

    def test_bzinfo_norm(self, capsys):
        _, payload, _ = cli_json(capsys, "bzinfo", "--dist", "0.65,0.35", "--norm", "2")
        assert payload["information"] == pytest.approx(0.09, abs=1e-12)
        assert payload["norm"] == 2.0

    def test_grouping(self, capsys):
        code, payload, _ = cli_json(
            capsys, "grouping", "--dist", "0.5,0.3333333333333333,0.1666666666666667")
        assert code == 0
        assert payload["entropy_bits"] == pytest.approx(2 / 3 + math.log2(3) / 2, abs=1e-12)
        assert abs(payload["residual"]) < 1e-9


class TestStateCommands:
    def test_itot_bloch(self, capsys):
        code, payload, _ = cli_json(capsys, "itot", "--bloch", "0.3,0,0.4")
        assert code == 0
        assert payload["purity"] == pytest.approx(0.625, abs=1e-12)
        assert payload["total_information"] == pytest.approx(0.125, abs=1e-12)
        assert payload["state"]["dim"] == 2

    def test_itot_state_file(self, capsys, tmp_path):
        from quantinfo import state_to_json

        path = tmp_path / "state.json"
        path.write_text(json.dumps(state_to_json(np.eye(3) / 3)))
        code, payload, _ = cli_json(capsys, "itot", "--state", str(path))
        assert code == 0
        assert payload["total_information"] == pytest.approx(0.0, abs=1e-12)

    def test_itot_missing_file(self, capsys):
        code, _, err = cli(capsys, "itot", "--state", "/nonexistent/state.json")
        assert code == 1
        assert "error:" in err

    def test_itot_requires_exactly_one_source(self, capsys):
        code, _, _ = cli(capsys, "itot", "--bloch", "0,0,0", "--state", "x.json")
        assert code == 2


class TestMubCommands:
    def test_verify_dim_seven(self, capsys):
        code, payload, _ = cli_json(capsys, "mub-verify", "--dim", "7")
        assert code == 0
        assert payload["bases"] == 8
        assert payload["unbiasedness"]["passed"]
        assert payload["hyperplane_orthogonality"]["passed"]
        assert payload["unbiasedness"]["max_deviation"] < 1e-12

    def test_verify_text_mode(self, capsys):
        code, out, _ = cli(capsys, "mub-verify", "--dim", "3")
        assert code == 0
        assert out.count("pass") == 2

    def test_verify_oversized_dim_fails_fast(self, capsys):
        code, out, err = cli(capsys, "mub-verify", "--dim", "101")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_verify_composite_dim_fails(self, capsys):
        code, _, err = cli(capsys, "mub-verify", "--dim", "6")
        assert code == 1
        assert "odd prime" in err

    def test_mub_sum_bloch(self, capsys):
        code, payload, _ = cli_json(capsys, "mub-sum", "--bloch", "0.3,0,0.4")
        assert code == 0
        assert payload["per_basis"] == pytest.approx([0.08, 0.045, 0.0], abs=1e-12)
        assert payload["sum"] == pytest.approx(0.125, abs=1e-12)
        assert payload["difference"] < 1e-12

    def test_mub_sum_oversized_state_fails_fast(self, capsys, tmp_path):
        path = tmp_path / "mixed47.json"
        path.write_text(json.dumps(state_to_json(np.eye(47) / 47)))
        code, out, err = cli(capsys, "mub-sum", "--state", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_reconstruct_round_trip(self, capsys):
        code, payload, _ = cli_json(
            capsys, "reconstruct", "--probs", "0.7,0.3;0.65,0.35;0.5,0.5")
        assert code == 0
        rebuilt = np.array([[complex(re, im) for re, im in row]
                            for row in payload["state"]["matrix"]])
        assert np.allclose(rebuilt, bloch_state([0.3, 0.0, 0.4]), atol=1e-12)
        assert payload["smallest_eigenvalue"] == pytest.approx(0.25, abs=1e-12)

    def test_reconstruct_flags_indefinite_statistics(self, capsys):
        code, payload, _ = cli_json(
            capsys, "reconstruct", "--probs", "1,0;0.55,0.45;0.55,0.45")
        assert code == 0
        assert payload["smallest_eigenvalue"] < -1e-6

    def test_reconstruct_needs_several_groups(self, capsys):
        code, _, _ = cli(capsys, "reconstruct", "--probs", "0.7,0.3")
        assert code == 1

    def test_reconstruct_without_distributions_rejected(self, capsys):
        for probs in (";", ""):
            code, out, err = cli(capsys, "reconstruct", "--probs", probs)
            assert (code, out) == (1, "")
            assert err.startswith("error: no outcome distributions")

    def test_reconstruct_counts_before_building_bases(self, capsys, monkeypatch):
        def unbuilt(n):
            raise AssertionError(f"build_mubs({n}) called")
        monkeypatch.setattr(quantinfo.mub, "build_mubs", unbuilt)
        for probs, message in (("1,0,0;0,1,0", "need 4 outcome distributions, got 2"),
                               ("0.7,0.3;0.65,0.35;0.5,0.3,0.2",
                                "each outcome distribution must have 2 entries")):
            code, _, err = cli(capsys, "reconstruct", "--probs", probs)
            assert code == 1
            assert message in err


def mub_sum_payload(*argv):
    """mub-sum --json on a source; its per-basis terms add up to its sum, which meets Tr(rho - I/n)^2."""
    code, out, err = run_quietly("mub-sum", *argv, "--json")
    assert (code, err) == (0, ""), argv
    payload = strict_json(out)
    assert payload["difference"] <= TOL
    assert float(np.sum(payload["per_basis"])) == payload["sum"]
    return payload


def mub_sum_text(payload):
    return [*(f"basis {i}: I = {value:.6f}" for i, value in enumerate(payload["per_basis"])),
            f"sum over {len(payload['per_basis'])} bases = {payload['sum']:.6f}",
            f"Tr(rho - I/n)^2       = {payload['direct']:.6f}",
            f"|difference| = {payload['difference']:.3e}"]


def bloch_argv(r):
    return [f"--bloch={','.join(map(repr, map(float, r)))}"]


def generated_state(n, seed, rank, window=0.0):
    """random_density(n, seed, rank), or for window > 0 diag(1 + window, 0, ..., -window), Haar-rotated for
    an odd seed, whose eigenvalue -window as_density accepts up to TOL."""
    if not window:
        return random_density(n, seed=seed, rank=rank)
    u = random_basis(n, seed=seed) if seed % 2 else np.eye(n)
    return u @ np.diag([1.0 + window, *[0.0] * (n - 2), -window]) @ u.conj().T


def state_file_argv(directory, n, seed, rank, window=0.0):
    path = directory / f"state_{n}_{seed}_{rank}_{window!r}.json"
    path.write_text(json.dumps(state_to_json(generated_state(n, seed, rank, window))))
    return ["--state", str(path)]


def exact_statistics(n, seed, rank):
    """(a state, its Born statistics over build_mubs(n) as --probs writes them, each entry by repr)."""
    rho = random_density(n, seed=seed, rank=rank)
    return rho, ";".join(",".join(map(repr, row)) for row in born_table(rho, build_mubs(n)).tolist())


def reconstruct_payload(probs):
    code, out, err = run_quietly("reconstruct", f"--probs={probs}", "--json")
    assert (code, err) == (0, "")
    return strict_json(out)


def reconstruct_text(payload):
    rebuilt = state_from_json(payload["state"])
    return [*("  ".join(f"{x.real:+.6f}{x.imag:+.6f}j" for x in row) for row in rebuilt),
            f"smallest eigenvalue = {payload['smallest_eigenvalue']:.6e}"]


directions = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.0)
bloch_lengths = st.one_of(st.floats(0.0, 1.0), st.sampled_from([1.0, 1.0 + 5e-10, 1.0 + TOL]))
seeds, ranks = st.integers(0, 2**20), st.integers(0, 6)  # a state of dimension n has rank 1 + r % n
windows = st.sampled_from([0.0, TOL / 2, 0.999 * TOL])  # the negative eigenvalue of a generated state


class TestMubPropertiesThroughTheCli:
    """Generated accepted inputs of mub-sum and reconstruct, each through cli.run --json."""

    @settings(max_examples=200, deadline=None)
    @given(direction=directions, length=bloch_lengths)
    def test_mub_sum_bloch(self, direction, length):
        r = np.array(direction) / np.linalg.norm(direction) * length
        assume(np.linalg.norm(r) <= 1.0 + TOL)  # a length of 1 + TOL can round past the window
        mub_sum_payload(*bloch_argv(r))

    @settings(max_examples=200, deadline=None)
    @given(n=st.sampled_from([3, 5, 7]), seed=seeds, rank=ranks, window=windows)
    def test_mub_sum_state_file(self, tmp_path_factory, n, seed, rank, window):
        mub_sum_payload(*state_file_argv(tmp_path_factory.getbasetemp(), n, seed, 1 + rank % n, window))

    @settings(max_examples=200, deadline=None)
    @given(n=st.sampled_from([2, 3, 5]), seed=seeds, rank=ranks)
    def test_reconstruct_exact_statistics(self, n, seed, rank):
        rho, probs = exact_statistics(n, seed, 1 + rank % n)
        assert np.abs(state_from_json(reconstruct_payload(probs)["state"]) - rho).max() <= 1e-9

    def test_mub_sum_meets_tol_at_the_bloch_window_edge(self):
        # |r| = 1 + TOL is accepted with an eigenvalue of -TOL/2; the sum still meets Tr(rho - I/2)^2 = |r|^2/2
        _, out, _ = run_quietly("mub-sum", *bloch_argv((0.0, 0.0, 1.0 + TOL)), "--json")
        assert strict_json(out)["difference"] <= TOL

    def test_text_prints_the_json_values(self, tmp_path):
        for argv in (bloch_argv((0.6, -0.0, -0.8)), state_file_argv(tmp_path, 7, 21, 3)):
            assert run_quietly("mub-sum", *argv) == (0, "\n".join(mub_sum_text(mub_sum_payload(*argv))) + "\n", "")
        _, probs = exact_statistics(5, 22, 2)
        assert run_quietly("reconstruct", f"--probs={probs}") == (
            0, "\n".join(reconstruct_text(reconstruct_payload(probs))) + "\n", "")


def itot_payload(*argv):
    """itot --json on a source: total information is purity - 1/n bit for bit, and purity lies where the
    eigenvalue window allows. A unit-trace state has Tr rho^2 >= (Tr rho)^2 / n = 1/n; with every eigenvalue
    at least -TOL, the convex Tr rho^2 peaks at a vertex, one eigenvalue 1 + (n - 1) TOL and the rest -TOL."""
    code, out, err = run_quietly("itot", *argv, "--json")
    assert (code, err) == (0, ""), argv
    payload = strict_json(out)
    n = payload["state"]["dim"]
    assert payload["total_information"] == payload["purity"] - 1.0 / n
    assert 1.0 / n - 1e-15 <= payload["purity"] <= (1.0 + (n - 1) * TOL) ** 2 + (n - 1) * TOL ** 2 + 1e-15
    return payload


def itot_text(payload):
    return [f"dim = {payload['state']['dim']}", f"purity = {payload['purity']:.6f}",
            f"total information = {payload['total_information']:.6f}"]


def ensemble_file_argv(directory, n, seed, ranks, window):
    """An ensemble file of len(ranks) letters with Dirichlet priors; letter i is generated_state(n, seed + i,
    1 + ranks[i] % n, window), so a window puts a negative eigenvalue in every letter."""
    priors = np.random.default_rng(seed).dirichlet(np.ones(len(ranks)))
    states = [generated_state(n, seed + i, 1 + r % n, window) for i, r in enumerate(ranks)]
    path = directory / f"ensemble_{n}_{seed}_{'_'.join(map(str, ranks))}_{window!r}.json"
    path.write_text(json.dumps(ensemble_to_json(cq_ensemble(priors, states))))
    return ["--ensemble", str(path)]


def holevo_payload(n, *argv):
    """holevo --json on an ensemble file of dimension n: -TOL <= chi <= min(H(priors), log2 n) + TOL, and the
    specification information is H(priors)."""
    code, out, err = run_quietly("holevo", *argv, "--json")
    assert (code, err) == (0, ""), argv
    payload = strict_json(out)
    entropy = shannon_entropy(load_ensemble(argv[-1]).priors)
    assert payload["specification_information"] == entropy
    assert -TOL <= payload["holevo_chi"] <= min(entropy, math.log2(n)) + TOL
    return payload


def holevo_text(n, payload):
    return [f"letters: {', '.join(payload['letters'])} (dim {n})",
            f"specification information = {payload['specification_information']:.6f} bits",
            f"Holevo chi = {payload['holevo_chi']:.6f} bits"]


def questions(payload):
    return payload["individual_terms"] + payload["correlation_terms"]


def entangle_payload(*argv):
    """entangle --json on a state file: each question carries at most 1/2, and the nine carry at most the
    2(Tr rho^2 - 1/4) that all fifteen Pauli questions carry together."""
    code, out, err = run_quietly("entangle", *argv, "--json")
    assert (code, err) == (0, ""), argv
    payload = strict_json(out)
    assert all(value <= 0.5 + 1e-15 for _, value in questions(payload))
    ceiling = 2.0 * (purity(state_from_json(payload["state"])) - 0.25)
    assert payload["individual"] + payload["correlation"] <= ceiling + TOL
    return payload


def entangle_text(payload):
    return [*(f"{label}: I = {value:.6f}" for label, value in questions(payload)),
            f"individual total  = {payload['individual']:.6f}",
            f"correlation total = {payload['correlation']:.6f}"]


class TestStatePropertiesThroughTheCli:
    """Generated accepted inputs of itot, holevo and entangle --state, each through cli.run --json."""

    @settings(max_examples=200, deadline=None)
    @given(direction=directions, length=bloch_lengths)
    def test_itot_bloch(self, direction, length):
        r = np.array(direction) / np.linalg.norm(direction) * length
        assume(np.linalg.norm(r) <= 1.0 + TOL)  # a length of 1 + TOL can round past the window
        itot_payload(*bloch_argv(r))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 7), seed=seeds, rank=ranks, window=windows)
    def test_itot_state_file(self, tmp_path_factory, n, seed, rank, window):
        itot_payload(*state_file_argv(tmp_path_factory.getbasetemp(), n, seed, 1 + rank % n, window))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 4), seed=seeds, ranks=st.lists(ranks, min_size=1, max_size=6), window=windows)
    def test_holevo(self, tmp_path_factory, n, seed, ranks, window):
        holevo_payload(n, *ensemble_file_argv(tmp_path_factory.getbasetemp(), n, seed, ranks, window))

    @settings(max_examples=200, deadline=None)
    @given(seed=seeds, rank=ranks, window=windows)
    def test_entangle_state_file(self, tmp_path_factory, seed, rank, window):
        entangle_payload(*state_file_argv(tmp_path_factory.getbasetemp(), 4, seed, 1 + rank % 4, window))

    def test_text_prints_the_json_values(self, tmp_path):
        for argv in (bloch_argv((0.6, -0.0, -0.8)), state_file_argv(tmp_path, 5, 23, 2, TOL / 2)):
            assert run_quietly("itot", *argv) == (0, "\n".join(itot_text(itot_payload(*argv))) + "\n", "")
        argv = ensemble_file_argv(tmp_path, 3, 24, [0, 1, 2], 0.0)
        assert run_quietly("holevo", *argv) == (0, "\n".join(holevo_text(3, holevo_payload(3, *argv))) + "\n", "")
        argv = state_file_argv(tmp_path, 4, 25, 2)
        assert run_quietly("entangle", *argv) == (0, "\n".join(entangle_text(entangle_payload(*argv))) + "\n", "")


class TestChannelCommands:
    def test_holevo(self, capsys, ensemble_file):
        code, payload, _ = cli_json(capsys, "holevo", "--ensemble", ensemble_file)
        assert code == 0
        assert payload["letters"] == ["0", "+"]
        assert payload["holevo_chi"] == pytest.approx(ZERO_PLUS_CHI, abs=1e-9)
        assert payload["specification_information"] == pytest.approx(1.0, abs=1e-12)

    def test_accessible(self, capsys, ensemble_file):
        code, payload, _ = cli_json(capsys, "accessible", "--ensemble", ensemble_file)
        assert code == 0
        assert payload["method"] == "grid"
        assert payload["accessible_information"] == pytest.approx(1.0 - ZERO_PLUS_CHI, abs=1e-9)
        assert payload["gap"] > 0.19

    def test_accessible_repeat_runs_are_identical(self, capsys, ensemble_file):
        _, first, _ = cli(capsys, "accessible", "--ensemble", ensemble_file, "--json")
        _, second, _ = cli(capsys, "accessible", "--ensemble", ensemble_file, "--json")
        assert first == second

    def test_accessible_negative_seed_rejected(self, capsys, tmp_path):
        path = tmp_path / "three.json"
        path.write_text(json.dumps(ensemble_to_json(random_ensemble(3, 2, seed=5))))
        code, out, err = cli(capsys, "accessible", "--ensemble", str(path), "--seed", "-1")
        assert (code, out) == (1, "")
        assert err.startswith("error: seed must be a nonnegative integer")

    def test_accessible_rejects_qubit_letters_past_the_cap(self, capsys, tmp_path):
        path = tmp_path / "letters.json"
        path.write_text(json.dumps(ensemble_to_json(random_ensemble(2, 120, seed=5))))
        code, out, err = cli(capsys, "accessible", "--ensemble", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: 120 qubit letters need 134870400 work units")

    def test_accessible_rejects_qutrit_letters_past_the_cap(self, capsys, tmp_path, monkeypatch):
        def unreachable(ensemble, seed):
            raise AssertionError("the hill climb ran")

        monkeypatch.setattr(quantinfo.channel, "_hill_climb_basis", unreachable)
        path = tmp_path / "letters.json"
        path.write_text(json.dumps(ensemble_to_json(random_ensemble(3, 535, seed=5))))
        code, out, err = cli(capsys, "accessible", "--ensemble", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: 535 letters in dimension 3 need 134340360 work units")

    def test_ensemble_with_non_integer_dim_rejected(self, capsys, tmp_path):
        doc = ensemble_to_json(random_ensemble(2, 2, seed=5))
        doc["states"][0]["dim"] = "abc"
        path = tmp_path / "bad_dim.json"
        path.write_text(json.dumps(doc))
        code, out, err = cli(capsys, "holevo", "--ensemble", str(path))
        assert (code, out) == (1, "")
        assert err.startswith('error: "dim" must be an integer')

    def test_missing_ensemble_file(self, capsys):
        code, _, err = cli(capsys, "holevo", "--ensemble", "/nonexistent.json")
        assert code == 1
        assert "cannot read" in err

    def test_wrongbasis(self, capsys):
        code, payload, _ = cli_json(
            capsys, "wrongbasis", "--theta", str(np.pi / 3))
        assert code == 0
        assert payload["mutual_information"] == pytest.approx(0.188722, abs=1e-5)
        assert payload["conditional_entropy"] == pytest.approx(0.811278, abs=1e-5)
        assert np.allclose(payload["joint"], [[0.375, 0.125], [0.125, 0.375]], atol=1e-12)

    @pytest.mark.parametrize("theta, priors", [
        ("0", "1,-0"), ("-0", "1,-0"), ("1.5707963267948966", "1,-0"), ("3", "1,-0"),
        ("1", "0.5,0.5"), ("0.7", "0.8,0.2"), ("3.141592653589793", "0,1")])
    def test_wrongbasis_joint_keeps_its_bits(self, capsys, theta, priors):
        # a prior of -0 gives a row of signed zeros
        _, payload, _ = cli_json(capsys, "wrongbasis", "--theta", theta, "--priors", priors)
        joint = quantinfo.wrong_basis_demo(float(theta), [float(p) for p in priors.split(",")]).joint
        assert json.dumps(payload["joint"]) == json.dumps([list(map(float, row)) for row in joint])

    def test_wrongbasis_infinite_theta_rejected(self, capsys):
        code, out, err = cli(capsys, "wrongbasis", "--theta", "inf")
        assert (code, out) == (1, "")
        assert err.startswith("error: tilt angle must be finite")


class TestCodingCommands:
    def test_coding_census(self, capsys):
        code, payload, _ = cli_json(
            capsys, "coding", "--dist", "0.8,0.2", "--block", "10", "--epsilon", "0.1")
        assert code == 0
        assert payload["count"] == math.comb(10, 2)
        assert payload["rate"] == pytest.approx(0.549, abs=1e-3)

    def test_empty_typical_set_rate_is_null(self, capsys):
        # no sequence is typical, so the rate is -inf: null in JSON, unchanged in the text
        argv = ("coding", "--dist", "0.9,0.1", "--block", "1", "--epsilon", "0.1")
        code, payload, _ = cli_json(capsys, *argv)
        assert (code, payload["count"], payload["rate"]) == (0, 0, None)
        assert "rate = -inf bits/symbol" in cli(capsys, *argv)[1]

    def test_coding_bad_block(self, capsys):
        code, _, _ = cli(capsys, "coding", "--dist", "0.8,0.2",
                         "--block", "0", "--epsilon", "0.1")
        assert code == 1

    def test_questions_single_symbols(self, capsys):
        code, payload, _ = cli_json(capsys, "questions", "--dist", "0.5,0.25,0.25")
        assert code == 0
        assert payload["lengths"] == [1, 2, 2]
        assert payload["average_length"] == pytest.approx(1.5, abs=1e-12)
        assert payload["kraft_sum"] == pytest.approx(1.0, abs=1e-12)
        assert sorted(payload["codewords"], key=len) == ["0", "10", "11"]

    def test_questions_skip_impossible_symbols(self, capsys):
        code, payload, _ = cli_json(capsys, "questions", "--dist", "0.5,0.5,0")
        assert code == 0
        assert payload["lengths"] == [1, 1, 0]
        assert payload["codewords"] == ["0", "1", None]
        assert (payload["average_length"], payload["kraft_sum"]) == (1.0, 1.0)
        code, out, _ = cli(capsys, "questions", "--dist", "0,1")
        assert code == 0
        assert out.splitlines()[:3] == [
            "symbol 0: p = 0.000000, never asked",
            "symbol 1: p = 1.000000, 0 questions, answers (none)",
            "average questions = 0.000000"]

    def test_questions_block_rate(self, capsys):
        code, payload, _ = cli_json(
            capsys, "questions", "--dist", "0.9,0.1", "--block", "2")
        assert code == 0
        assert payload["rate"] == pytest.approx(0.645, abs=1e-12)

    def test_questions_bad_block(self, capsys):
        code, _, _ = cli(capsys, "questions", "--dist", "0.5,0.5", "--block", "0")
        assert code == 1

    def test_majorize(self, capsys):
        code, payload, _ = cli_json(
            capsys, "majorize", "--p", "0.5,0.5", "--q", "0.25,0.25,0.25,0.25")
        assert code == 0
        assert payload["p_majorizes_q"] is True
        assert payload["q_majorizes_p"] is False


class TestEntangleCommand:
    def test_bell_state_from_observables(self, capsys):
        code, payload, _ = cli_json(
            capsys, "entangle", "--obs", "xx,yy", "--answers", "1,-1")
        assert code == 0
        assert payload["individual"] == pytest.approx(0.0, abs=1e-12)
        assert payload["correlation"] == pytest.approx(1.5, abs=1e-12)

    def test_state_file(self, capsys, tmp_path):
        from quantinfo import state_to_json

        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(state_to_json(np.eye(4) / 4)))
        code, payload, _ = cli_json(capsys, "entangle", "--state", str(path))
        assert code == 0
        assert payload["individual"] == pytest.approx(0.0, abs=1e-12)
        assert payload["correlation"] == pytest.approx(0.0, abs=1e-12)

    def test_obs_needs_answers(self, capsys):
        code, _, err = cli(capsys, "entangle", "--obs", "xx,yy")
        assert code == 1
        assert "requires --answers" in err

    def test_single_qubit_state_rejected(self, capsys, tmp_path):
        from quantinfo import state_to_json

        path = tmp_path / "qubit.json"
        path.write_text(json.dumps(state_to_json(np.eye(2) / 2)))
        code, out, err = cli(capsys, "entangle", "--state", str(path))
        assert (code, out, err) == (1, "", "error: entangle expects a two-qubit (4x4) state\n")

    def test_obs_and_state_are_exclusive(self, capsys):
        code, _, _ = cli(capsys, "entangle", "--obs", "xx,yy",
                         "--state", "x.json", "--answers", "1,1")
        assert code == 2


class TestDeterministicEntropies:
    """A deterministic distribution has entropy +0.0, printed without a minus sign."""

    @pytest.mark.parametrize("argv, line", [
        (["entropy", "--dist", "1"], "H = 0.000000 bits"),
        (["grouping", "--dist", "0,1"], "H = 0.000000 bits"),
        (["questions", "--dist", "1", "--block", "5"],
         "entropy = 0.000000 bits (window [H, H + 1/5))"),
    ], ids=["entropy", "grouping", "questions-block"])
    def test_no_negative_zero(self, capsys, argv, line):
        code, out, _ = cli(capsys, *argv)
        assert code == 0
        assert line in out.splitlines()
        code, out, _ = cli(capsys, *argv, "--json")
        assert '"entropy_bits": 0.0' in out
        assert np.copysign(1.0, json.loads(out)["entropy_bits"]) == 1.0


class TestHandlerHooks:
    """Each subcommand runs a module-level _cmd_* function, looked up when the parser is built."""

    def test_every_handler_is_a_module_attribute(self):
        action = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
        for command, subparser in action.choices.items():
            handler = subparser.get_default("handler")
            assert handler.__name__.startswith("_cmd_"), command
            assert getattr(cli_module, handler.__name__) is handler, command

    def test_run_calls_a_patched_handler(self, capsys, monkeypatch):
        calls = []
        original = cli_module._cmd_entropy

        def recording(args):
            calls.append(args.dist)
            return original(args)
        monkeypatch.setattr(cli_module, "_cmd_entropy", recording)
        code, out, _ = cli(capsys, "entropy", "--dist", "0.5,0.5")
        assert (code, out, calls) == (0, "H = 1.000000 bits\n", ["0.5,0.5"])


class TestSelftestCommand:
    def test_all_checks_pass(self, capsys):
        code, out, _ = cli(capsys, "selftest")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1].endswith("checks passed")
        check_lines = lines[:-1]
        assert len(check_lines) >= 11
        assert all(line.startswith("PASS") for line in check_lines)

    @pytest.fixture(scope="class")
    def json_run(self):
        # one selftest --json run, shared by the tests that read its payload
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(["selftest", "--json"])
        return code, json.loads(out.getvalue())

    def test_json_payload(self, json_run):
        code, payload = json_run
        assert code == 0
        assert payload["passed"] is True
        assert len(payload["checks"]) >= 11
        assert all(check["elapsed_s"] >= 0.0 for check in payload["checks"])

    def test_worst_cases_replay(self, json_run):
        # each bound's worst value comes back exactly from its row's deviation at its case
        code, payload = json_run
        assert code == 0
        rows = quantinfo.selftest.ALL_CHECKS
        assert [check["name"] for check in payload["checks"]] == [row.name for row in rows]
        for check, row in zip(payload["checks"], rows):
            assert [entry["bound"] for entry in check["worst"]] == list(row.bounds)
            for j, entry in enumerate(check["worst"]):
                assert row.deviation(*entry["case"])[j] == entry["value"], (row.name, entry)
        assert payload["checks"][-2]["worst"] == []  # two-qubit questions: a frozen example only

    def test_a_failed_check_exits_one(self, capsys, monkeypatch):
        failed = quantinfo.selftest.CheckResult("broken", False, "detail", 0.0)
        monkeypatch.setattr(quantinfo.selftest, "run_all", lambda: [failed])
        code, out, _ = cli(capsys, "selftest")
        assert (code, out) == (1, "FAIL  broken: detail\n0/1 checks passed\n")
        code, payload, _ = cli_json(capsys, "selftest")
        assert (code, payload["passed"]) == (1, False)


README = Path(__file__).resolve().parents[1] / "README.md"
E_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?e[-+]\d+")


def readme_examples(text):
    """(argv, expected output lines) for each `$ quantinfo` line in the README's code blocks."""
    examples = []
    for block in re.findall(r"^```\w*\n(.*?)^```", text, re.M | re.S):
        current = None
        for line in block.splitlines():
            if line.startswith("$ quantinfo "):
                current = []
                examples.append((shlex.split(line)[2:], current))
            elif current is not None:
                current.append(line)
    return examples


def without_noise(line):
    # an e-notation number below 1e-12 is rounding noise: any two such values match
    return E_NUMBER.sub(lambda m: "~0" if abs(float(m.group())) < 1e-12 else m.group(), line)


def lines_match(expected, actual):
    """Line-by-line comparison in which an expected '...' line skips any number of lines."""
    if not expected:
        return not actual
    if expected[0] == "...":
        return any(lines_match(expected[1:], actual[i:]) for i in range(len(actual) + 1))
    return (bool(actual) and without_noise(expected[0]) == without_noise(actual[0])
            and lines_match(expected[1:], actual[1:]))


def test_readme_examples(capsys, tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    ensemble = next(block for block in re.findall(r"^```json\n(.*?)^```", text, re.M | re.S)
                    if '"letters"' in block)
    (tmp_path / "zero_plus.json").write_text(ensemble)
    monkeypatch.chdir(tmp_path)
    examples = readme_examples(text)
    assert len(examples) == 17
    for argv, expected in examples:
        code, out, err = cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert lines_match(expected, out.splitlines()), (argv, out)
