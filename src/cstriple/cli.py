"""Command-line front end: verify, search, minimize, sharpness, fuzz.

Exit codes: 0 when everything passed, 1 when a check was refuted, a
counterexample was found or a fuzzed state broke a guarantee, 2 on usage or
structural errors and when the manifest cannot be written.

With ``--json PATH`` each subcommand writes a run manifest whose content is
fully determined by the arguments (including the seed); reruns produce
byte-identical files except for the elapsed_ms fields inside verifier
reports.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__, explorer, verifier
from .explorer import MacroState, PreconditionError, SearchConfig
from .poly import StructuralError

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")


def rational(text: str) -> Fraction:
    """argparse type for exact rationals: "num/den" or integer syntax."""
    if not _RATIONAL_RE.fullmatch(text.strip()):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a rational; use integer or num/den syntax"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"{text!r} has denominator zero") from None


def rational_triple(text: str) -> tuple[Fraction, Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"{text!r} must be three comma-separated rationals")
    return tuple(rational(part) for part in parts)


def coordinate_order(text: str) -> tuple[int, int, int]:
    if sorted(text) != ["1", "2", "3"]:
        raise argparse.ArgumentTypeError(
            f"{text!r} must be a permutation of the digits 123"
        )
    return tuple(int(ch) for ch in text)


def _finish(args: argparse.Namespace, config: dict, reports: list[dict], ok: bool) -> int:
    """Print the overall status, write the manifest if asked, return the exit code.

    The manifest goes to a temporary file next to ``--json PATH`` that then
    replaces it, so a failed write never leaves a truncated manifest behind.
    """
    status = "pass" if ok else "fail"
    print(f"overall: {status}")
    if args.json:
        manifest = {
            "tool": "cstriple",
            "version": __version__,
            "command": args.command,
            "config": config,
            "reports": reports,
            "overall_status": status,
        }
        path = Path(args.json)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
            os.replace(tmp, path)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            print(f"error: cannot write {args.json}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    return 0 if ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    names = [args.check] if args.check else list(verifier.CHECK_NAMES)
    reports = [verifier.run_check(name) for name in names]
    for report in reports:
        line = f"{report.check:26s} {report.status:9s} terms={report.term_count}"
        if report.witness:
            line += f"  witness: {report.witness}"
        print(line)
    ok = all(r.status == verifier.STATUS_VERIFIED for r in reports)
    return _finish(args, {"checks": names}, [r.to_dict() for r in reports], ok)


def _sampling_config(args: argparse.Namespace) -> SearchConfig:
    return SearchConfig(
        sample_count=args.samples,
        seed=args.seed,
        numerator_bound=args.num_bound,
        denominator_bound=args.den_bound,
        zero_probability=args.zero_prob,
    )


def _cmd_search(args: argparse.Namespace) -> int:
    cfg = _sampling_config(args)
    poly = explorer.resolve_target(args.target, args.c)
    # The all-ones point is a known equality case of every target; it rides
    # along as a fixed probe so each run pins the exact value 0 there.
    probe = {name: 1 for name in poly.varset.names}
    report = explorer.random_search(poly, cfg, probes=[probe], label=args.target)

    def point_text(point) -> str:
        return " ".join(f"{n}={v}" for n, v in zip(report.variables, point))

    print(f"target={report.target} samples={report.samples_run} seed={report.seed}")
    print(f"min = {report.min_value} at {point_text(report.argmin)}")
    print(f"counterexamples: {len(report.counterexamples)}")
    for point, value in report.counterexamples[:3]:
        print(f"  {point_text(point)} -> {value}")
    config = cfg.to_dict()
    config["target"] = args.target
    config["c"] = str(args.c) if args.c is not None else None
    return _finish(args, config, [report.to_dict()], not report.counterexamples)


def _cmd_minimize(args: argparse.Namespace) -> int:
    state = MacroState(args.p, args.z)
    trace = explorer.greedy_minimize_z(state, order=args.order)
    classification = explorer.case_classify(trace.final)

    def triple(values) -> str:
        return "(" + ",".join(str(v) for v in values) + ")"

    print(f"initial: p={triple(state.p)} z={triple(state.z)} d={trace.initial.d_value()}")
    for step in trace.steps:
        print(
            f"  lower {step.coordinate}: {step.old_value} -> {step.new_value}"
            f"   d: {step.d_before} -> {step.d_after}"
        )
    print(
        f"final: z={triple(trace.final.z)} d={trace.final.d_value()} "
        f"case {classification.label} (permutation {classification.permutation}, "
        f"closed form {classification.closed_form_value})"
    )
    payload = trace.to_dict()
    payload["classification"] = classification.to_dict()
    config = {
        "p": [str(v) for v in args.p],
        "z": [str(v) for v in args.z],
        "order": list(args.order),
    }
    ok = not explorer.failed_guarantees(trace, classification)
    return _finish(args, config, [payload], ok)


def _cmd_sharpness(args: argparse.Namespace) -> int:
    witness = explorer.sharpness_witness(args.c)
    print(
        f"c={witness.c}: value {witness.value} < 0 at "
        f"b=({','.join(map(str, witness.b))}) k=({','.join(map(str, witness.k))})"
    )
    return _finish(args, {"c": str(witness.c)}, [witness.to_dict()], witness.value < 0)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    cfg = _sampling_config(args)
    summary = explorer.minimize_fuzz(cfg, require_negative_product=args.negative_product)
    print(
        f"states={summary.samples_run} seed={summary.seed} "
        f"passed={summary.passed} failed={summary.failed}"
    )
    print("cases: " + " ".join(f"{k}={v}" for k, v in summary.case_counts.items()))
    broken = [f"{k}={v}" for k, v in summary.failures.items() if v]
    if broken:
        print("failures: " + " ".join(broken))
    config = cfg.to_dict()
    config["negative_product"] = args.negative_product
    return _finish(args, config, [summary.to_dict()], summary.failed == 0)


def _add_sampling_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--samples", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--num-bound", type=int, default=100)
    parser.add_argument("--den-bound", type=int, default=100)
    parser.add_argument("--zero-prob", type=rational, default=Fraction(1, 16))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstriple",
        description=(
            "Exact verification toolkit for a three-factor Cauchy-Schwarz-type "
            "inequality: symbolic identity replay and exact-rational search."
        ),
    )
    parser.add_argument("--version", action="version", version=f"cstriple {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="replay the symbolic identity checks")
    group = p_verify.add_mutually_exclusive_group()
    group.add_argument("--check", choices=verifier.CHECK_NAMES, help="run one named check")
    group.add_argument("--all", action="store_true", help="run every check (default)")
    p_verify.add_argument("--json", metavar="PATH", help="write the run manifest as JSON")
    p_verify.set_defaults(func=_cmd_verify)

    p_search = sub.add_parser("search", help="seeded exact-rational counterexample search")
    p_search.add_argument("--target", required=True, choices=explorer.TARGET_NAMES)
    p_search.add_argument(
        "--c",
        type=rational,
        default=None,
        help="bracket constant for target d-k (default 1/2)",
    )
    _add_sampling_options(p_search)
    p_search.add_argument("--json", metavar="PATH")
    p_search.set_defaults(func=_cmd_search)

    p_min = sub.add_parser("minimize", help="replay the greedy z-minimization on one state")
    # argparse's stock negative-number detector rejects "-1,-1,-1", which
    # would otherwise be mistaken for an option string; widen it.
    p_min._negative_number_matcher = re.compile(r"^-\d")
    p_min.add_argument("--p", type=rational_triple, required=True, metavar="r1,r2,r3")
    p_min.add_argument("--z", type=rational_triple, required=True, metavar="r1,r2,r3")
    p_min.add_argument(
        "--order",
        type=coordinate_order,
        default=(3, 2, 1),
        help="coordinate lowering order, e.g. 321 (default) or 123",
    )
    p_min.add_argument("--json", metavar="PATH")
    p_min.set_defaults(func=_cmd_minimize)

    p_sharp = sub.add_parser(
        "sharpness", help="exhibit a counterexample for a bracket constant above 1/2"
    )
    p_sharp.add_argument("--c", type=rational, required=True)
    p_sharp.add_argument("--json", metavar="PATH")
    p_sharp.set_defaults(func=_cmd_sharpness)

    p_fuzz = sub.add_parser(
        "fuzz", help="run the greedy minimizer and classifier on seeded random feasible states"
    )
    _add_sampling_options(p_fuzz)
    p_fuzz.add_argument(
        "--negative-product",
        action="store_true",
        help="draw only states with p1*p2*p3 < 0, the case the proof has to work for",
    )
    p_fuzz.add_argument("--json", metavar="PATH")
    p_fuzz.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StructuralError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
