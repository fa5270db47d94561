"""Command-line front end.

Every subcommand maps onto one library operation. Exit codes: 0 on success,
1 when an input fails validation, 2 on usage errors. --json switches any
subcommand to a single machine-readable object with all inputs echoed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import channel, coding, entangle, mub, probability, quantum, selftest
from .errors import ValidationError
from .serialize import load_ensemble, load_state, state_to_json

CLI_SUM_TOL = 1e-6  # looser than the library window; renormalizes with a warning


def main() -> None:
    sys.exit(run())


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, lines, code = args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.json:
            print(json.dumps(payload))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantinfo",
        description="Classical and quantum information measures, cross-verified.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit one machine-readable JSON object")
    with_tol = argparse.ArgumentParser(add_help=False, parents=[common])
    with_tol.add_argument("--tol", type=float, default=1e-9,
                          help="comparison tolerance (default 1e-9)")
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

    p = sub.add_parser("mub-verify", parents=[with_tol],
                       help="build a complete MUB set and verify it exhaustively")
    p.add_argument("--dim", type=int, required=True, help="2 or an odd prime")
    p.set_defaults(handler=_cmd_mub_verify)

    p = sub.add_parser("mub-sum", parents=[common],
                       help="per-basis quadratic information summed over a complete MUB set")
    _add_state_arguments(p)
    p.set_defaults(handler=_cmd_mub_sum)

    p = sub.add_parser("reconstruct", parents=[with_tol],
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
    p.add_argument("--restarts", type=int, default=8, help="hill-climb restarts (dims > 2)")
    p.add_argument("--steps", type=int, default=200, help="hill-climb steps per restart")
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

    p = sub.add_parser("majorize", parents=[with_tol],
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
    try:
        values = [float(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise ValidationError(f"could not parse {what}: {text!r}") from None
    if not values:
        raise ValidationError(f"{what} is empty")
    return values


def _cli_distribution(text: str, what: str = "probabilities") -> list[float]:
    """Parse a probability vector with the CLI's looser normalization window."""
    values = _parse_floats(text, what)
    total = sum(values)
    if abs(total - 1.0) > CLI_SUM_TOL:
        raise ValidationError(f"{what} sum to {total!r}, more than {CLI_SUM_TOL} away from 1")
    if abs(total - 1.0) > 1e-12:
        print(f"warning: normalizing {what} (sum = {total!r})", file=sys.stderr)
    return [v / total for v in values]


def _resolve_state(args) -> np.ndarray:
    if args.state is not None:
        return quantum.as_density(load_state(args.state))
    return quantum.bloch_state(_parse_floats(args.bloch, "Bloch vector"))


def _matrix_lines(matrix: np.ndarray) -> list[str]:
    return ["  ".join(f"{x.real:+.6f}{x.imag:+.6f}j" for x in row) for row in matrix]


def _cmd_entropy(args):
    dist = _cli_distribution(args.dist)
    value = probability.shannon_entropy(dist)
    payload = {"command": "entropy", "dist": dist, "entropy_bits": value}
    return payload, [f"H = {value:.6f} bits"], 0


def _cmd_bzinfo(args):
    dist = _cli_distribution(args.dist)
    value = probability.quadratic_information(dist, norm=args.norm)
    payload = {"command": "bzinfo", "dist": dist, "norm": args.norm, "information": value}
    return payload, [f"I = {value:.6f}"], 0


def _cmd_grouping(args):
    dist = _cli_distribution(args.dist)
    residual = probability.grouping_residual(dist)
    full = probability.shannon_entropy(dist)
    payload = {"command": "grouping", "dist": dist, "entropy_bits": full, "residual": residual}
    return payload, [
        f"H = {full:.6f} bits",
        f"grouping residual = {residual:.3e}",
    ], 0


def _cmd_itot(args):
    rho = _resolve_state(args)
    value = quantum.total_information(rho)
    pure = quantum.purity(rho)
    payload = {"command": "itot", "state": state_to_json(rho),
               "purity": pure, "total_information": value}
    return payload, [
        f"dim = {rho.shape[0]}",
        f"purity = {pure:.6f}",
        f"total information = {value:.6f}",
    ], 0


def _cmd_mub_verify(args):
    bases = mub.build_mubs(args.dim)
    # the hyperplane check's size cap rejects an oversized set before the overlap scan
    hyper = mub.hyperplane_orthogonality(bases, tol=args.tol)
    unbiased = mub.verify_unbiased(bases, tol=args.tol)
    payload = {
        "command": "mub-verify", "dim": args.dim, "tol": args.tol,
        "bases": len(bases),
        "unbiasedness": {"max_deviation": unbiased.max_deviation,
                         "worst_pair": list(unbiased.worst_pair),
                         "passed": unbiased.passed},
        "hyperplane_orthogonality": {"max_deviation": hyper.max_deviation,
                                     "worst_pair": list(hyper.worst_pair),
                                     "passed": hyper.passed},
    }
    lines = [
        f"built {len(bases)} bases for dim {args.dim}",
        f"unbiasedness: max |Tr(PQ) - 1/n| = {unbiased.max_deviation:.3e} "
        f"({'pass' if unbiased.passed else 'FAIL'} at tol {args.tol:g})",
        f"hyperplane orthogonality: max |Tr(Pbar Qbar)| = {hyper.max_deviation:.3e} "
        f"({'pass' if hyper.passed else 'FAIL'} at tol {args.tol:g})",
    ]
    return payload, lines, 0


def _cmd_mub_sum(args):
    rho = _resolve_state(args)
    n = rho.shape[0]
    bases = mub.build_mubs(n)
    per_basis = [probability.quadratic_information(quantum.born_probabilities(rho, u))
                 for u in bases]
    total = mub.information_sum(rho, bases)
    direct = quantum.total_information(rho)
    payload = {"command": "mub-sum", "state": state_to_json(rho), "per_basis": per_basis,
               "sum": total, "direct": direct,
               "difference": abs(total - direct)}
    lines = [f"basis {i}: I = {v:.6f}" for i, v in enumerate(per_basis)]
    lines += [
        f"sum over {n + 1} bases = {total:.6f}",
        f"Tr(rho - I/n)^2       = {direct:.6f}",
        f"|difference| = {abs(total - direct):.3e}",
    ]
    return payload, lines, 0


def _cmd_reconstruct(args):
    groups = [piece for piece in args.probs.split(";") if piece.strip()]
    dists = [_cli_distribution(piece, f"outcome distribution {i}")
             for i, piece in enumerate(groups)]
    if len(dists) < 2:
        raise ValidationError("need n+1 semicolon-separated outcome distributions")
    n = len(dists[0])
    bases = mub.build_mubs(n)
    rho = mub.reconstruct(dists, bases)
    smallest = quantum.smallest_eigenvalue(rho)
    payload = {"command": "reconstruct", "probs": dists, "tol": args.tol,
               "state": state_to_json(rho), "smallest_eigenvalue": smallest}
    lines = _matrix_lines(rho)
    lines.append(f"smallest eigenvalue = {smallest:.6e}"
                 + ("  (indefinite: statistics are not exactly quantum)" if smallest < -args.tol else ""))
    return payload, lines, 0


def _cmd_holevo(args):
    ensemble = load_ensemble(args.ensemble)
    chi = channel.holevo_chi(ensemble)
    spec_info = channel.specification_information(ensemble)
    payload = {"command": "holevo", "ensemble": args.ensemble,
               "letters": list(ensemble.letters), "holevo_chi": chi,
               "specification_information": spec_info}
    return payload, [
        f"letters: {', '.join(ensemble.letters)} (dim {ensemble.dim})",
        f"specification information = {spec_info:.6f} bits",
        f"Holevo chi = {chi:.6f} bits",
    ], 0


def _cmd_accessible(args):
    ensemble = load_ensemble(args.ensemble)
    found = channel.accessible_information(
        ensemble, seed=args.seed, restarts=args.restarts, steps=args.steps)
    chi = channel.holevo_chi(ensemble)
    payload = {"command": "accessible", "ensemble": args.ensemble,
               "seed": args.seed, "restarts": args.restarts, "steps": args.steps,
               "method": found.method, "accessible_information": found.value, "holevo_chi": chi,
               "gap": chi - found.value,
               "effects": [state_to_json(e) for e in found.effects]}
    lines = [
        f"accessible information >= {found.value:.6f} bits ({found.method} search)",
        f"Holevo chi = {chi:.6f} bits",
        f"gap = {chi - found.value:.6f} bits",
    ]
    return payload, lines, 0


def _cmd_wrongbasis(args):
    priors = _cli_distribution(args.priors, "priors")
    report = channel.wrong_basis_demo(args.theta, priors)
    payload = {"command": "wrongbasis", "theta": args.theta, "priors": priors,
               "joint": [list(map(float, row)) for row in report.joint],
               "source_entropy": report.source_entropy,
               "outcome_entropy": report.outcome_entropy,
               "conditional_entropy": report.conditional,
               "mutual_information": report.mutual}
    lines = [
        f"H(A)   = {report.source_entropy:.6f} bits",
        f"H(B)   = {report.outcome_entropy:.6f} bits",
        f"H(A|B) = {report.conditional:.6f} bits",
        f"H(A:B) = {report.mutual:.6f} bits",
    ]
    return payload, lines, 0


def _cmd_coding(args):
    dist = _cli_distribution(args.dist)
    report = coding.typical_set(dist, args.block, args.epsilon)
    payload = {"command": "coding", "dist": dist, "block": args.block,
               "epsilon": args.epsilon, "count": report.count, "rate": report.rate,
               "total_probability": report.total_probability}
    lines = [
        f"typical sequences: {report.count}",
        f"rate = {report.rate:.6f} bits/symbol",
        f"total probability = {report.total_probability:.6f}",
    ]
    return payload, lines, 0


def _cmd_questions(args):
    dist = _cli_distribution(args.dist)
    entropy = probability.shannon_entropy(dist)
    if args.block == 1:
        code = coding.question_strategy(dist)
        kraft = sum(2.0 ** -length for length in code.lengths)
        payload = {"command": "questions", "dist": dist, "block": 1,
                   "lengths": list(code.lengths), "codewords": list(code.codewords),
                   "average_length": code.average_length, "entropy_bits": entropy,
                   "kraft_sum": kraft}
        lines = [f"symbol {i}: p = {p:.6f}, {length} questions, answers {word or '(none)'}"
                 for i, (p, length, word) in enumerate(zip(dist, code.lengths, code.codewords))]
        lines += [
            f"average questions = {code.average_length:.6f}",
            f"entropy = {entropy:.6f} bits (window [H, H+1))",
            f"Kraft sum = {kraft:.6f}",
        ]
        return payload, lines, 0
    rate = coding.block_question_rate(dist, args.block)
    payload = {"command": "questions", "dist": dist, "block": args.block,
               "rate": rate, "entropy_bits": entropy}
    lines = [
        f"questions per symbol on blocks of {args.block} = {rate:.6f}",
        f"entropy = {entropy:.6f} bits (window [H, H + 1/{args.block}))",
    ]
    return payload, lines, 0


def _cmd_majorize(args):
    p = _cli_distribution(args.p, "p")
    q = _cli_distribution(args.q, "q")
    forward = probability.majorizes(p, q, tol=args.tol)
    backward = probability.majorizes(q, p, tol=args.tol)
    payload = {"command": "majorize", "p": p, "q": q, "tol": args.tol,
               "p_majorizes_q": forward, "q_majorizes_p": backward}
    return payload, [
        f"p majorizes q: {forward}",
        f"q majorizes p: {backward}",
    ], 0


def _cmd_entangle(args):
    if args.obs is not None:
        if args.answers is None:
            raise ValidationError("--obs requires --answers")
        labels = [piece.strip() for piece in args.obs.split(",")]
        if len(labels) != 2 or any(len(lbl) != 2 for lbl in labels):
            raise ValidationError("--obs expects two two-letter Pauli products, e.g. 'xx,yy'")
        answers = _parse_floats(args.answers, "answers")
        if len(answers) != 2:
            raise ValidationError("--answers expects two eigenvalues")
        observables = [entangle.pauli_product(lbl[0], lbl[1]) for lbl in labels]
        rho = entangle.joint_eigenstate(observables[0], observables[1], answers)
        source = {"obs": labels, "answers": answers}
    else:
        rho = quantum.as_density(load_state(args.state))
        if rho.shape != (4, 4):
            raise ValidationError("entangle expects a two-qubit (4x4) state")
        source = {"state_file": args.state}
    split = entangle.info_split(rho)
    payload = {"command": "entangle", **source, "state": state_to_json(rho),
               "individual": split.individual, "correlation": split.correlation,
               "individual_terms": [[label, value] for label, value in split.individual_terms],
               "correlation_terms": [[label, value] for label, value in split.correlation_terms]}
    lines = [f"{label}: I = {value:.6f}" for label, value in split.individual_terms]
    lines += [f"{label}: I = {value:.6f}" for label, value in split.correlation_terms]
    lines += [
        f"individual total  = {split.individual:.6f}",
        f"correlation total = {split.correlation:.6f}",
    ]
    return payload, lines, 0


def _cmd_selftest(args):
    results = selftest.run_all()
    passed = all(r.passed for r in results)
    payload = {"command": "selftest", "passed": passed,
               "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                          for r in results]}
    lines = [selftest.format_line(r) for r in results]
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return payload, lines, 0 if passed else 1


if __name__ == "__main__":
    main()
