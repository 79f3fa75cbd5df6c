"""Command-line front end: verify, search, minimize, sharpness, fuzz.

Exit codes: 0 when everything passed, 1 when a check was refuted, a
counterexample was found or a fuzzed state broke a guarantee, 2 on usage or
structural errors and when the manifest or stdout cannot be written (a help
or version text included).  Only the named subcommand's parser is built;
help and error texts are those of the full parser.

With ``--json PATH`` each subcommand writes a run manifest whose content is
fully determined by the arguments (including the seed); reruns produce
byte-identical files except for the elapsed_ms fields inside verifier
reports.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__, verifier
from .corpus import TARGET_NAMES
from .poly import PreconditionError, StructuralError

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")
# argparse's stock negative-number detector (-1, -0.5) takes "-1/3" and
# "-1,-1,-1" for option strings; this one lets every option value start
# with a minus sign followed by a digit.
_NEGATIVE_NUMBER = re.compile(r"^-\d")
_encode_scalar = json.JSONEncoder().encode


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


def manifest_path(text: str) -> str:
    """argparse type for ``--json``: an empty path would write no manifest,
    and one whose last component as typed is empty, "." or ".." ("/",
    "results/", "nodir/..") names no file (``pathlib`` would drop a trailing
    "/" or "."); nor can an existing directory ("..", "src") be written, so
    each exits before the command runs."""
    if not text:
        raise argparse.ArgumentTypeError("the manifest path is empty")
    name = os.path.basename(text)
    with contextlib.suppress(OSError):  # e.g. a name too long: the write reports it
        if name not in ("", ".") and Path(text).is_dir():
            raise argparse.ArgumentTypeError(f"the manifest path {text!r} is a directory")
    if name in ("", ".", ".."):
        raise argparse.ArgumentTypeError(f"the manifest path {text!r} names no file")
    return text


def _json_text(value, indent: str, out: list[str]) -> None:
    """Append to ``out`` the text of ``json.dumps(value, indent=2)`` for
    ``value`` nested at ``indent``; dict keys must be str.

    ``indent`` sends ``json.dumps`` to its pure-Python encoder; this writes
    the same bytes with the C encoders, several times faster on a manifest
    with hundreds of hits.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
        return
    if not (value and isinstance(value, (dict, list, tuple))):
        out.append(_encode_scalar(value))  # numbers, True/False/None, [] and {}
        return
    inner = indent + "  "
    separator = "\n" + inner
    if isinstance(value, dict):
        out.append("{")
        for key, item in value.items():
            out.append(separator + encode_basestring_ascii(key) + ": ")
            _json_text(item, inner, out)
            separator = ",\n" + inner
        out.append("\n" + indent + "}")
    else:
        out.append("[")
        for item in value:
            out.append(separator)
            _json_text(item, inner, out)
            separator = ",\n" + inner
        out.append("\n" + indent + "]")


def manifest_text(value) -> str:
    """``json.dumps(value, indent=2)``, byte for byte."""
    out: list[str] = []
    _json_text(value, "", out)
    return "".join(out)


def _finish(args: argparse.Namespace, config: dict, reports: list[dict], ok: bool) -> int:
    """Print the overall status, write the manifest if asked, return the exit code.

    The manifest goes to a temporary file next to ``--json PATH`` that then
    replaces it, so a failed write never leaves a truncated manifest behind.
    The temporary name has a fixed length, so any valid manifest name works.
    """
    status = "pass" if ok else "fail"
    print(f"overall: {status}")
    if args.json:
        manifest = {
            "tool": "cstriple", "version": __version__, "command": args.command,
            "config": config, "reports": reports, "overall_status": status,
        }
        path = Path(args.json)
        tmp = path.with_name(f".cstriple-{os.getpid()}.tmp")
        try:
            tmp.write_text(manifest_text(manifest) + "\n", encoding="utf-8")
            os.replace(tmp, path)
        except OSError as exc:
            with contextlib.suppress(OSError):  # not there
                tmp.unlink()
            print(f"error: cannot write {args.json}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    return 0 if ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    names = [args.check] if args.check else list(verifier.CHECK_NAMES)
    reports = verifier.run_all(names)
    for report in reports:
        line = f"{report.check:26s} {report.status:9s} terms={report.term_count}"
        if report.witness:
            line += f"  witness: {report.witness}"
        print(line)
    ok = all(r.status == verifier.STATUS_VERIFIED for r in reports)
    return _finish(args, {"checks": names}, [r.to_dict() for r in reports], ok)


def _sampling_config(args: argparse.Namespace):
    from .explorer import SearchConfig
    return SearchConfig(args.samples, args.seed, args.num_bound, args.den_bound, args.zero_prob)


def _cmd_search(args: argparse.Namespace) -> int:
    from . import explorer
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
    from . import explorer
    state = explorer.MacroState(args.p, args.z)
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
    config = dict(p=[str(v) for v in args.p], z=[str(v) for v in args.z], order=list(args.order))
    ok = not explorer.failed_guarantees(trace, classification)
    return _finish(args, config, [payload], ok)


def _cmd_sharpness(args: argparse.Namespace) -> int:
    from . import explorer
    witness = explorer.sharpness_witness(args.c)
    print(
        f"c={witness.c}: value {witness.value} < 0 at "
        f"b=({','.join(map(str, witness.b))}) k=({','.join(map(str, witness.k))})"
    )
    return _finish(args, {"c": str(witness.c)}, [witness.to_dict()], witness.value < 0)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from . import explorer
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


def _sampling_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--samples", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--num-bound", type=int, default=100)
    parser.add_argument("--den-bound", type=int, default=100)
    parser.add_argument("--zero-prob", type=rational, default=Fraction(1, 16))


def _verify_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--check", choices=verifier.CHECK_NAMES, help="run one named check")
    group.add_argument("--all", action="store_true", help="run every check (default)")


def _search_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--target", required=True, choices=TARGET_NAMES)
    parser.add_argument("--c", type=rational, help="bracket constant for target d-k (default 1/2)")
    _sampling_options(parser)


def _minimize_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=rational_triple, required=True, metavar="r1,r2,r3")
    parser.add_argument("--z", type=rational_triple, required=True, metavar="r1,r2,r3")
    parser.add_argument(
        "--order", type=coordinate_order, default=(3, 2, 1),
        help="coordinate lowering order, e.g. 321 (default) or 123",
    )


def _fuzz_options(parser: argparse.ArgumentParser) -> None:
    _sampling_options(parser)
    parser.add_argument(
        "--negative-product", action="store_true",
        help="draw only states with p1*p2*p3 < 0, the case the proof has to work for",
    )


# name -> (help, add-options function, handler), in the order --help lists them.
_COMMANDS = {
    "verify": ("replay the symbolic identity checks", _verify_options, _cmd_verify),
    "search": ("seeded exact-rational counterexample search", _search_options, _cmd_search),
    "minimize": ("replay the greedy z-minimization on one state", _minimize_options, _cmd_minimize),
    "sharpness": (
        "exhibit a counterexample for a bracket constant above 1/2",
        lambda parser: parser.add_argument("--c", type=rational, required=True), _cmd_sharpness,
    ),
    "fuzz": (
        "run the greedy minimizer and classifier on seeded random feasible states",
        _fuzz_options, _cmd_fuzz,
    ),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``cstriple`` parser with every subcommand, or with only ``command``."""
    parser = argparse.ArgumentParser(
        prog="cstriple",
        description=(
            "Exact verification toolkit for a three-factor Cauchy-Schwarz-type "
            "inequality: symbolic identity replay and exact-rational search."
        ),
    )
    parser.add_argument("--version", action="version", version=f"cstriple {__version__}")
    # Built alone, a subcommand's top-level usage line (unrecognized arguments)
    # still lists them all; the full parser's own errors name "command".
    metavar = "{" + ",".join(_COMMANDS) + "}" if command else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in [command] if command else _COMMANDS:
        help_text, add_options, handler = _COMMANDS[name]
        subparser = sub.add_parser(name, help=help_text)
        add_options(subparser)
        subparser.add_argument(
            "--json", type=manifest_path, metavar="PATH", help="write the run manifest as JSON"
        )
        subparser.set_defaults(func=handler)
        subparser._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        try:
            with contextlib.redirect_stdout(io.StringIO()) as printed:
                args = parser.parse_args(argv)
        finally:  # --help and --version print here, then raise SystemExit(0)
            print(printed.getvalue(), end="", flush=True)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (StructuralError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # stdout is a closed pipe or a full device
        print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        # What stdout still buffers would fail again at shutdown: send it nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        with contextlib.suppress(OSError, ValueError):  # a stdout with no fd
            os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
