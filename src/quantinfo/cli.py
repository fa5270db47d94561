"""Command-line front end.

Every subcommand maps onto one library operation. Exit codes: 0 on success,
1 when an input fails validation, 2 on usage errors. --json switches any
subcommand to a single machine-readable object with all inputs echoed, in
which a non-finite number (an empty typical set's rate) is null.

Each _cmd_* handler returns one record, a list that run() alone renders. A
(key, value, text) triple is a result in both modes: the JSON object gets
key: value and the text gets the line text.format(value). A dict holds
JSON-only keys (echoed inputs, term lists, effects) and a str is a text-only
line (table rows). run() starts every object with "command", adds items in
record order, and exits 1 when the object's top-level "passed" is false.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import channel, coding, entangle, mub, probability, quantum, selftest
from .errors import ValidationError
from .serialize import load_ensemble, load_state, state_to_json


def main() -> None:
    sys.exit(run())


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        record = args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload, lines = {"command": args.command}, []
    for item in record:
        if isinstance(item, str):
            lines.append(item)
        elif isinstance(item, dict):
            payload.update(item)
        else:
            key, value, text = item
            payload[key] = value
            lines.append(text.format(value))
    try:
        if args.json:
            print(json.dumps(_finite_or_null(payload), allow_nan=False))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0 if payload.get("passed", True) else 1


def _finite_or_null(value):
    """The payload with each non-finite float as None, printed as null: JSON has no NaN or Infinity."""
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantinfo",
        description="Classical and quantum information measures, cross-verified.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit one machine-readable JSON object")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", parents=[common],
                       help="Shannon entropy of a distribution, in bits")
    p.add_argument("--dist", required=True, help="comma-separated probabilities")
    p.set_defaults(handler=_cmd_entropy)

    p = sub.add_parser("bzinfo", parents=[common],
                       help="quadratic information sum((p_i - 1/n)^2)")
    p.add_argument("--dist", required=True, help="comma-separated probabilities")
    p.add_argument("--norm", type=float, default=1.0, help="normalization constant")
    p.set_defaults(handler=_cmd_bzinfo)

    p = sub.add_parser("grouping", parents=[common],
                       help="entropy grouping residual when the last two outcomes merge")
    p.add_argument("--dist", required=True, help="comma-separated probabilities")
    p.set_defaults(handler=_cmd_grouping)

    p = sub.add_parser("itot", parents=[common],
                       help="total information Tr(rho - I/n)^2 of a state")
    _add_state_arguments(p)
    p.set_defaults(handler=_cmd_itot)

    p = sub.add_parser("mub-verify", parents=[common],
                       help="build a complete MUB set and verify it exhaustively")
    p.add_argument("--dim", type=int, required=True, help="2 or an odd prime")
    p.set_defaults(handler=_cmd_mub_verify)

    p = sub.add_parser("mub-sum", parents=[common],
                       help="per-basis quadratic information summed over a complete MUB set")
    _add_state_arguments(p)
    p.set_defaults(handler=_cmd_mub_sum)

    p = sub.add_parser("reconstruct", parents=[common],
                       help="rebuild a state from MUB outcome statistics")
    p.add_argument("--probs", required=True,
                   help="n+1 outcome distributions, semicolon-separated, e.g. '0.7,0.3;0.65,0.35;0.5,0.5'")
    p.set_defaults(handler=_cmd_reconstruct)

    p = sub.add_parser("holevo", parents=[common],
                       help="Holevo bound of an ensemble file")
    p.add_argument("--ensemble", required=True, help="path to an ensemble JSON file")
    p.set_defaults(handler=_cmd_holevo)

    p = sub.add_parser("accessible", parents=[common],
                       help="search for the best projective readout of an ensemble")
    p.add_argument("--ensemble", required=True, help="path to an ensemble JSON file")
    p.add_argument("--seed", type=int, default=0, help="search seed (dims > 2)")
    p.set_defaults(handler=_cmd_accessible)

    p = sub.add_parser("wrongbasis", parents=[common],
                       help="entropy accounting for reading stored bits in a tilted basis")
    p.add_argument("--theta", type=float, required=True, help="tilt angle in radians")
    p.add_argument("--priors", default="0.5,0.5", help="bit priors (default equiprobable)")
    p.set_defaults(handler=_cmd_wrongbasis)

    p = sub.add_parser("coding", parents=[common],
                       help="exact census of the weakly typical sequences")
    p.add_argument("--dist", required=True, help="comma-separated source probabilities")
    p.add_argument("--block", type=int, required=True, help="sequence length N")
    p.add_argument("--epsilon", type=float, required=True, help="typicality window in bits")
    p.set_defaults(handler=_cmd_coding)

    p = sub.add_parser("questions", parents=[common],
                       help="optimal yes/no question strategy (a Huffman code)")
    p.add_argument("--dist", required=True, help="comma-separated probabilities")
    p.add_argument("--block", type=int, default=1,
                   help="questions per symbol on blocks of this length (default 1)")
    p.set_defaults(handler=_cmd_questions)

    p = sub.add_parser("majorize", parents=[common],
                       help="does distribution p majorize distribution q?")
    p.add_argument("--p", required=True, help="comma-separated probabilities")
    p.add_argument("--q", required=True, help="comma-separated probabilities")
    p.set_defaults(handler=_cmd_majorize)

    p = sub.add_parser("entangle", parents=[common],
                       help="two-qubit question information split")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--obs", help="two Pauli products, e.g. 'xx,yy'")
    group.add_argument("--state", help="path to a state JSON file")
    p.add_argument("--answers",
                   help="requested eigenvalues, e.g. '1,-1' (with --obs); "
                        "write --answers=-1,1 when the first value is negative")
    p.set_defaults(handler=_cmd_entangle)

    p = sub.add_parser("selftest", parents=[common],
                       help="run the acceptance checks and print a pass/fail table")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def _add_state_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--state", help="path to a state JSON file")
    group.add_argument("--bloch", help="qubit Bloch vector 'rx,ry,rz'")


def _parse_floats(text: str, what: str) -> list[float]:
    pieces = text.split(",")
    if not any(piece.strip() for piece in pieces):
        raise ValidationError(f"{what} is empty")
    try:
        return [float(piece) for piece in pieces]  # a blank piece beside a number fails here
    except ValueError:
        raise ValidationError(f"could not parse {what}: {text!r}") from None


def _cli_distribution(text: str, what: str = "probability vector") -> list[float]:
    """Parse a probability vector and check it by as_distribution's rule, naming it what."""
    return probability._clamp(_parse_floats(text, "probabilities"), 1, what, "total").tolist()


def _resolve_state(args) -> np.ndarray:
    if args.state is not None:
        return quantum.as_density(load_state(args.state))
    return quantum.bloch_state(_parse_floats(args.bloch, "Bloch vector"))


def _matrix_lines(matrix: np.ndarray) -> list[str]:
    return ["  ".join(f"{x.real:+.6f}{x.imag:+.6f}j" for x in row) for row in matrix]


def _cmd_entropy(args):
    dist = _cli_distribution(args.dist)
    return [{"dist": dist}, ("entropy_bits", probability.shannon_entropy(dist), "H = {:.6f} bits")]


def _cmd_bzinfo(args):
    dist = _cli_distribution(args.dist)
    value = probability.quadratic_information(dist, norm=args.norm)
    return [{"dist": dist, "norm": args.norm}, ("information", value, "I = {:.6f}")]


def _cmd_grouping(args):
    dist = _cli_distribution(args.dist)
    residual = probability.grouping_residual(dist)
    return [{"dist": dist},
            ("entropy_bits", probability.shannon_entropy(dist), "H = {:.6f} bits"),
            ("residual", residual, "grouping residual = {:.3e}")]


def _cmd_itot(args):
    rho = _resolve_state(args)
    return [{"state": state_to_json(rho)}, f"dim = {rho.shape[0]}",
            ("purity", quantum.purity(rho), "purity = {:.6f}"),
            ("total_information", quantum.total_information(rho), "total information = {:.6f}")]


def _verdict(key: str, label: str, report) -> tuple:
    deviation, _, passed = report
    return key, report._asdict(), (
        f"{label} = {deviation:.3e} ({'pass' if passed else 'FAIL'} at tol {probability.TOL:g})")


def _cmd_mub_verify(args):
    bases = mub.build_mubs(args.dim)
    return [{"dim": args.dim},
            ("bases", len(bases), f"built {{}} bases for dim {args.dim}"),
            _verdict("unbiasedness", "unbiasedness: max |Tr(PQ) - 1/n|", mub.verify_unbiased(bases)),
            _verdict("hyperplane_orthogonality", "hyperplane orthogonality: max |Tr(Pbar Qbar)|",
                     mub.hyperplane_orthogonality(bases))]


def _cmd_mub_sum(args):
    rho = _resolve_state(args)
    n = rho.shape[0]
    informations = mub.information_by_basis(rho, mub.build_mubs(n))
    per_basis = informations.tolist()
    total = float(informations.sum())
    direct = quantum.total_information(rho)
    return [{"state": state_to_json(rho), "per_basis": per_basis},
            *(f"basis {i}: I = {v:.6f}" for i, v in enumerate(per_basis)),
            ("sum", total, f"sum over {n + 1} bases = {{:.6f}}"),
            ("direct", direct, "Tr(rho - I/n)^2       = {:.6f}"),
            ("difference", abs(total - direct), "|difference| = {:.3e}")]


def _cmd_reconstruct(args):
    groups = args.probs.split(";")
    if not any(piece.strip() for piece in groups):
        raise ValidationError("no outcome distributions given")
    if not all(piece.strip() for piece in groups):
        raise ValidationError(f"could not parse outcome distributions: {args.probs!r}")
    dists = [_cli_distribution(piece, f"outcome distribution {i}") for i, piece in enumerate(groups)]
    # count before building: a complete set for n costs O(n^4) to check
    n = len(dists[0])
    if len(dists) != n + 1:
        raise ValidationError(f"need {n + 1} outcome distributions, got {len(dists)}")
    if any(len(d) != n for d in dists):
        raise ValidationError(f"each outcome distribution must have {n} entries")
    rho = mub.reconstruct(dists, mub.build_mubs(n))
    smallest = quantum.smallest_eigenvalue(rho)
    indefinite = smallest < -probability.TOL
    return [{"probs": dists, "state": state_to_json(rho)}, *_matrix_lines(rho),
            ("smallest_eigenvalue", smallest, "smallest eigenvalue = {:.6e}"
             + ("  (indefinite: statistics are not exactly quantum)" if indefinite else ""))]


def _cmd_holevo(args):
    ensemble = load_ensemble(args.ensemble)
    chi = channel.holevo_chi(ensemble)
    # JSON puts chi first, the text last
    return [{"ensemble": args.ensemble, "letters": list(ensemble.letters), "holevo_chi": chi},
            f"letters: {', '.join(ensemble.letters)} (dim {ensemble.dim})",
            ("specification_information", channel.specification_information(ensemble),
             "specification information = {:.6f} bits"),
            f"Holevo chi = {chi:.6f} bits"]


def _cmd_accessible(args):
    ensemble = load_ensemble(args.ensemble)
    found = channel.accessible_information(ensemble, seed=args.seed)
    chi = channel.holevo_chi(ensemble)
    return [{"ensemble": args.ensemble, "seed": args.seed, "method": found.method},
            ("accessible_information", found.value,
             f"accessible information >= {{:.6f}} bits ({found.method} search)"),
            ("holevo_chi", chi, "Holevo chi = {:.6f} bits"),
            ("gap", chi - found.value, "gap = {:.6f} bits"),
            {"effects": [state_to_json(e) for e in found.effects]}]


def _cmd_wrongbasis(args):
    priors = _cli_distribution(args.priors, "prior vector")
    report = channel.wrong_basis_demo(args.theta, priors)
    return [{"theta": args.theta, "priors": priors,
             "joint": report.joint.tolist()},
            ("source_entropy", report.source_entropy, "H(A)   = {:.6f} bits"),
            ("outcome_entropy", report.outcome_entropy, "H(B)   = {:.6f} bits"),
            ("conditional_entropy", report.conditional, "H(A|B) = {:.6f} bits"),
            ("mutual_information", report.mutual, "H(A:B) = {:.6f} bits")]


def _cmd_coding(args):
    dist = _cli_distribution(args.dist)
    report = coding.typical_set(dist, args.block, args.epsilon)
    return [{"dist": dist, "block": args.block, "epsilon": args.epsilon},
            ("count", report.count, "typical sequences: {}"),
            ("rate", report.rate, "rate = {:.6f} bits/symbol"),
            ("total_probability", report.total_probability, "total probability = {:.6f}")]


def _cmd_questions(args):
    dist = _cli_distribution(args.dist)
    entropy = probability.shannon_entropy(dist)
    if args.block != 1:
        return [{"dist": dist, "block": args.block},
                ("rate", coding.block_question_rate(dist, args.block),
                 f"questions per symbol on blocks of {args.block} = {{:.6f}}"),
                ("entropy_bits", entropy,
                 f"entropy = {{:.6f}} bits (window [H, H + 1/{args.block}))")]
    code = coding.question_strategy(dist)
    return [{"dist": dist, "block": 1, "lengths": list(code.lengths),
             "codewords": list(code.codewords)},
            *(f"symbol {i}: p = {p:.6f}, never asked" if word is None else
              f"symbol {i}: p = {p:.6f}, {length} questions, answers {word or '(none)'}"
              for i, (p, length, word) in enumerate(zip(dist, code.lengths, code.codewords))),
            ("average_length", code.average_length, "average questions = {:.6f}"),
            ("entropy_bits", entropy, "entropy = {:.6f} bits (window [H, H+1))"),
            ("kraft_sum", sum(2.0 ** -len(word) for word in code.codewords if word is not None),
             "Kraft sum = {:.6f}")]


def _cmd_majorize(args):
    p = _cli_distribution(args.p, "p")
    q = _cli_distribution(args.q, "q")
    return [{"p": p, "q": q},
            ("p_majorizes_q", probability.majorizes(p, q), "p majorizes q: {}"),
            ("q_majorizes_p", probability.majorizes(q, p), "q majorizes p: {}")]


def _cmd_entangle(args):
    if args.obs is not None:
        if args.answers is None:
            raise ValidationError("--obs requires --answers")
        labels = [piece.strip() for piece in args.obs.split(",")]
        if len(labels) != 2 or any(len(lbl) != 2 for lbl in labels):
            raise ValidationError("--obs expects two two-letter Pauli products, e.g. 'xx,yy'")
        answers = _parse_floats(args.answers, "answers")
        observables = [entangle.pauli_product(lbl[0], lbl[1]) for lbl in labels]
        rho = entangle.joint_eigenstate(observables[0], observables[1], answers)
        source = {"obs": labels, "answers": answers}
    else:
        rho = _resolve_state(args)
        source = {"state_file": args.state}
    split = entangle.info_split(rho)
    individual, correlation, *term_groups = split
    # JSON puts the totals before the terms, the text after them
    return [source, {"state": state_to_json(rho), **split._asdict()},
            *(f"{label}: I = {value:.6f}" for terms in term_groups for label, value in terms),
            f"individual total  = {individual:.6f}",
            f"correlation total = {correlation:.6f}"]


def _cmd_selftest(args):
    results = selftest.run_all()
    checks = [r._asdict() for r in results]
    passes = sum(check["passed"] for check in checks)
    return [{"passed": passes == len(checks), "checks": checks},
            *map(selftest.format_line, results),
            f"{passes}/{len(checks)} checks passed"]


if __name__ == "__main__":
    main()
