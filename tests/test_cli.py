"""End-to-end tests of the command-line front end: exit codes, output, and
manifest stability."""

import argparse
import errno
import json
import os
import random
import re
import stat
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
from cstriple import cli, corpus, explorer


def run(argv, capsys, parse=cli.main):
    """``(exit code, stdout, stderr)`` of ``parse(argv)``, whether the code
    is returned or, by argparse, raised as ``SystemExit``."""
    try:
        code = parse(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def usage_error(last_line):
    """argparse's stderr for a usage error that ends in ``last_line``.  Its
    own wording is left open: the usage lines, which wrap with the terminal
    width, and after an invalid choice the list of choices, quoted by 3.13.0
    and unquoted by 3.13.13."""
    choices = r" \(choose from [^\n]*\)" if "invalid choice: " in last_line else ""
    usage = r"usage: cstriple[^\n]*\n(?: +[^\n]*\n)*"
    return re.compile(usage + re.escape(last_line) + choices + "\n")


# The command line's contract: argv, exit code, stderr and stdout.  Every
# line that cstriple writes itself is pinned exactly, argparse's last line
# around a cstriple message included; a stderr pattern leaves open only
# argparse's own wording (``usage_error``).
CLI_ROWS = [
    (["verify"], 0, "",
     "lagrange                   verified  terms=0\n"
     "key-identity               verified  terms=0\n"
     "constraint-factorization   verified  terms=0\n"
     "k-equivalence              verified  terms=0\n"
     "case-formulas              verified  terms=0\n"
     "sharpness-reduction        verified  terms=0\n"
     "weak-implication           verified  terms=0\n"
     "overall: pass\n"),
    (["verify", "--check", "key-identity"], 0, "",
     "key-identity               verified  terms=0\noverall: pass\n"),
    (["verify", "--check", "bogus"], 2,
     usage_error("cstriple verify: error: argument --check: invalid choice: 'bogus'"), ""),
    (["search", "--target", "d-k", "--c", "-1/3", "--samples", "50", "--seed", "1"], 0, "",
     "target=d-k samples=50 seed=1\nmin = 0 at k1=1 k2=1 k3=1 b1=1 b2=1 b3=1\n"
     "counterexamples: 0\noverall: pass\n"),
    (["search", "--target", "d-tilde", "--samples", "10", "--seed", "1", "--zero-prob", "1"], 2,
     "error: zero_probability 1 would evaluate only the zero point\n", ""),
    # A misplaced c is reported first: the target is resolved before the check.
    (["search", "--target", "cs", "--c", "1", "--zero-prob", "1", "--samples", "1", "--seed", "0"],
     2, "error: constant c only applies to target 'd-k', not 'cs'\n", ""),
    (["search", "--target", "weak", "--c", "1", "--samples", "10", "--seed", "1"], 2,
     "error: constant c only applies to target 'd-k', not 'weak'\n", ""),
    # The rational syntax is ASCII: an Arabic-Indic "3/5" is no rational.
    *(
        (["search", "--target", "d-k", "--c", bad, "--samples", "10", "--seed", "1"], 2,
         usage_error(f"cstriple search: error: argument --c: {message}"), "")
        for bad, message in (
            ("0.7", "'0.7' is not a rational; use integer or num/den syntax"),
            ("\u0663/\u0665", "'\u0663/\u0665' is not a rational; use integer or num/den syntax"),
            ("1/0", "'1/0' has denominator zero"),
        )
    ),
    (["search", "--target", "nope", "--samples", "10", "--seed", "0"], 2,
     usage_error("cstriple search: error: argument --target: invalid choice: 'nope'"), ""),
    # A unique prefix of an option is no spelling of it.
    (["search", "--tar", "d-tilde"], 2,
     usage_error("cstriple search: error: the following arguments are required: "
                 "--target, --samples, --seed"), ""),
    (["minimize", "--p", "-1,-1,-1", "--z", "1,1,1", "--order", "123"], 0, "",
     "initial: p=(-1,-1,-1) z=(1,1,1) d=8\n"
     "  lower z1: 1 -> 0   d: 8 -> 5\n"
     "  lower z2: 1 -> 0   d: 5 -> 2\n"
     "final: z=(0,0,1) d=2 case iii (permutation (3, 1, 2), closed form 2)\n"
     "overall: pass\n"),
    (["minimize", "--p", "-2,1,1", "--z", "1,0,0"], 2,
     "error: infeasible start: constraint value -1 < 0\n", ""),
    (["minimize", "--p", "1,1,1", "--z", "-1,1/2,0"], 2,
     "error: z must be nonnegative, got (-1, 1/2, 0)\n", ""),
    # Two coordinates, and an Arabic-Indic 3, which the ASCII syntax refuses;
    # an order with a repeated or a missing digit.
    *(
        (["minimize", "--z", "0,0,0", *argv], 2,
         usage_error(f"cstriple minimize: error: argument {message}"), "")
        for argv, message in (
            (["--p", "1,2"], "--p: '1,2' must be three comma-separated rationals"),
            (["--p", "\u0663,1,1"],
             "--p: '\u0663' is not a rational; use integer or num/den syntax"),
            (["--p", "-1,-1,-1", "--order", "112"],
             "--order: '112' must be a permutation of the digits 123"),
            (["--p", "-1,-1,-1", "--order", "12"],
             "--order: '12' must be a permutation of the digits 123"),
        )
    ),
    (["sharpness", "--c", "3/5"], 0, "",
     "c=3/5: value -9/5 < 0 at b=(1,1,1) k=(0,0,7)\noverall: pass\n"),
    (["sharpness", "--c", "1/2"], 2,
     "error: no witness exists for c = 1/2: the inequality holds for c <= 1/2\n", ""),
    (["sharpness", "--c", "-1/2"], 2,
     "error: no witness exists for c = -1/2: the inequality holds for c <= 1/2\n", ""),
    (["fuzz", "--samples", "10", "--seed", "1"], 0, "",
     "states=10 seed=1 passed=10 failed=0\ncases: i=0 ii=0 iii=6 iv=4 mixed=0\noverall: pass\n"),
    (["fuzz", "--samples", "1", "--seed", "0", "--zero-prob", "1", "--negative-product"], 2,
     "error: rejection sampling: zero_probability 1 admits no p1*p2*p3 < 0\n", ""),
    # The top-level errors name the command argument, not the brace list of
    # the subcommands, which the usage line shows.
    ([], 2, usage_error("cstriple: error: the following arguments are required: command"), ""),
    (["nope"], 2, usage_error("cstriple: error: argument command: invalid choice: 'nope'"), ""),
    (["frobnicate"], 2,
     usage_error("cstriple: error: argument command: invalid choice: 'frobnicate'"), ""),
]


@pytest.mark.parametrize(
    "argv, code, err, out", CLI_ROWS, ids=[" ".join(row[0]) or "no-arguments" for row in CLI_ROWS]
)
def test_the_command_line_contract(argv, code, err, out, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got_code, got_out, got_err = run(argv, capsys)
    assert (got_code, got_out) == (code, out)
    if isinstance(err, str):
        assert got_err == err
    else:
        assert err.fullmatch(got_err), got_err


def test_verify_all_passes(capsys, tmp_path):
    manifest_path = tmp_path / "verify.json"
    code, out, _ = run(["verify", "--all", "--json", str(manifest_path)], capsys)
    assert code == 0
    assert out.count("verified") == 7
    assert "overall: pass" in out
    manifest = json.loads(manifest_path.read_text())
    assert manifest["tool"] == "cstriple"
    assert manifest["command"] == "verify"
    assert manifest["overall_status"] == "pass"
    assert [r["check"] for r in manifest["reports"]] == [
        "lagrange",
        "key-identity",
        "constraint-factorization",
        "k-equivalence",
        "case-formulas",
        "sharpness-reduction",
        "weak-implication",
    ]
    assert all(r["status"] == "verified" for r in manifest["reports"])


def test_verify_manifest_is_stable_modulo_elapsed(capsys, tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    run(["verify", "--all", "--json", str(first)], capsys)
    run(["verify", "--all", "--json", str(second)], capsys)

    def scrubbed(path):
        payload = json.loads(path.read_text())
        for report in payload["reports"]:
            report["elapsed_ms"] = 0
        return payload

    assert scrubbed(first) == scrubbed(second)


def test_search_d_tilde_clean(capsys, tmp_path):
    manifest_path = tmp_path / "search.json"
    code, out, _ = run(
        [
            "search", "--target", "d-tilde", "--samples", "1000",
            "--seed", "42", "--json", str(manifest_path),
        ],
        capsys,
    )
    assert code == 0
    assert "counterexamples: 0" in out
    manifest = json.loads(manifest_path.read_text())
    report = manifest["reports"][0]
    assert report["counterexample_count"] == 0
    assert report["min_value"] == "0"
    assert report["probes"][0]["value"] == "0"
    assert report["probes"][0]["point"] == {n: "1" for n in report["variables"]}


def test_search_manifest_byte_identical(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["search", "--target", "cs", "--samples", "300", "--seed", "5"]
    run(argv + ["--json", str(first)], capsys)
    run(argv + ["--json", str(second)], capsys)
    assert first.read_bytes() == second.read_bytes()


FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize(
    "fixture, target",
    [
        ("search_dtilde_seed0.json", ["--target", "d-tilde"]),
        ("search_dk5_seed0.json", ["--target", "d-k", "--c", "5"]),
    ],
)
def test_search_manifest_matches_golden_file(capsys, tmp_path, fixture, target):
    # Every manifest byte is pinned: the RNG stream, the argmin, the hit
    # list and the JSON layout.  The d-k file has hits, the d-tilde one none.
    out = tmp_path / fixture
    run(["search", *target, "--samples", "300", "--seed", "0", "--json", str(out)], capsys)
    assert out.read_bytes() == (FIXTURES / fixture).read_bytes()


def test_search_dk_counterexamples_exit_one(capsys, tmp_path):
    manifest_path = tmp_path / "dk.json"
    code, out, _ = run(
        [
            "search", "--target", "d-k", "--c", "3/5", "--samples", "2000",
            "--seed", "1", "--json", str(manifest_path),
        ],
        capsys,
    )
    assert code == 1
    assert "overall: fail" in out
    manifest = json.loads(manifest_path.read_text())
    assert manifest["overall_status"] == "fail"
    assert manifest["reports"][0]["counterexample_count"] > 0


@pytest.mark.parametrize("samples", ["200", "1500"])
def test_a_search_builds_fractions_only_for_what_it_prints(capsys, tmp_path, monkeypatch, samples):
    # The hits stay ints from the fold to the manifest text: however many
    # there are, the CLI builds Fraction points for the argmin, the probe
    # and the 3 hits it prints, and no more.
    built, reports = [], []
    fractions, search = explorer._fractions, explorer.random_search

    def counted_fractions(pairs):
        built.append(pairs)
        return fractions(pairs)

    def kept_search(*args):
        reports.append(search(*args))
        return reports[-1]

    monkeypatch.setattr(explorer, "_fractions", counted_fractions)
    monkeypatch.setattr(explorer, "random_search", kept_search)
    manifest_path = tmp_path / "dk.json"
    code, out, _ = run(
        ["search", "--target", "d-k", "--c", "5", "--samples", samples, "--seed", "0",
         "--json", str(manifest_path)],
        capsys,
    )
    assert code == 1
    assert len(built) == 5
    (report,) = reports
    manifest = json.loads(manifest_path.read_text())["reports"][0]
    assert len(report.hits) == manifest["counterexample_count"] > 3
    assert out.count(" -> ") == 3
    # The Fraction view lists each negative sample, in order, with its value
    # as the polynomial itself (not the compiled evaluator) gives it.
    poly = explorer.resolve_target("d-k", Fraction(5))
    cfg = explorer.SearchConfig(int(samples), 0)
    bounds = cfg.zero_probability, cfg.numerator_bound, cfg.denominator_bound
    draw = explorer._generated_draw(*bounds, len(report.variables))
    expected = []
    for index in range(cfg.sample_count):
        point = fractions(explorer.sample_point(random.Random(), 0, index, draw))
        value = poly.evaluate(dict(zip(report.variables, point)))
        expected += [(point, value)] * (value < 0)
    assert report.counterexamples == expected
    assert [hit["value"] for hit in manifest["counterexamples"]] == [str(v) for _, v in expected]


def test_unwritable_json_path_exits_two(capsys, tmp_path, monkeypatch):
    # a name too long to stat is not refused while parsing; the write is
    code, out, err = run(
        ["verify", "--check", "lagrange", "--json", str(tmp_path / ("a" * 300 + ".json"))],
        capsys,
    )
    assert code == 2
    assert "overall: pass" in out
    assert "cannot write" in err
    # a directory that exists while parsing but is gone by the write
    folder = tmp_path / "gone"
    folder.mkdir()
    target = folder / "verify.json"
    run_all = cli.verifier.run_all

    def remove_then_run(names):
        folder.rmdir()
        return run_all(names)

    monkeypatch.setattr(cli.verifier, "run_all", remove_then_run)
    code, out, err = run(["verify", "--check", "lagrange", "--json", str(target)], capsys)
    assert code == 2
    assert "overall: pass" in out
    assert err.startswith(f"error: cannot write {target}: ")
    assert list(tmp_path.iterdir()) == []


def test_a_long_valid_manifest_name_is_written(capsys, tmp_path):
    # The temporary file's name does not grow with the target's, so a
    # 250-byte name, under the usual 255-byte limit, is written.
    target = tmp_path / ("a" * 245 + ".json")
    code, out, err = run(["verify", "--check", "lagrange", "--json", str(target)], capsys)
    assert (code, err) == (0, "")
    assert json.loads(target.read_text(encoding="utf-8"))["overall_status"] == "pass"
    assert list(tmp_path.iterdir()) == [target]


def test_failed_replace_exits_two_and_leaves_no_temporary_file(capsys, tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError(13, "Permission denied")

    monkeypatch.setattr(cli.os, "replace", refuse)
    target = tmp_path / "verify.json"
    code, out, err = run(["verify", "--check", "lagrange", "--json", str(target)], capsys)
    assert code == 2
    assert "overall: pass" in out
    assert err == f"error: cannot write {target}: Permission denied\n"
    assert list(tmp_path.iterdir()) == []


def test_json_through_a_symlink_writes_its_target(capsys, tmp_path):
    # The link stays a link; its target, existing or not yet, gets the manifest.
    (tmp_path / "real.json").write_text("stale\n", encoding="utf-8")
    for link, target in (("link.json", "real.json"), ("dangling.json", "new.json")):
        (tmp_path / link).symlink_to(target)
        code, out, err = run(
            ["verify", "--check", "lagrange", "--json", str(tmp_path / link)], capsys
        )
        assert (code, err) == (0, "")
        assert (tmp_path / link).is_symlink()
        manifest = json.loads((tmp_path / target).read_text(encoding="utf-8"))
        assert manifest["overall_status"] == "pass"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "dangling.json", "link.json", "new.json", "real.json"
    ]


def test_json_to_a_fifo_writes_through_it(capsys, tmp_path):
    # A FIFO (or a device such as /dev/null) is written to, not replaced by
    # a regular file.  While ``writer`` is open the reader blocks until the
    # command has written and closed, then reads to the end.
    fifo = tmp_path / "manifest.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    writer = os.open(fifo, os.O_WRONLY)
    os.set_blocking(reader, True)
    received = []

    def read_all():
        with open(reader, "rb") as pipe:
            received.append(pipe.read())

    thread = threading.Thread(target=read_all, daemon=True)
    thread.start()
    try:
        code, out, err = run(["verify", "--check", "lagrange", "--json", str(fifo)], capsys)
    finally:
        os.close(writer)
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert (code, err) == (0, "")
    assert json.loads(received[0])["overall_status"] == "pass"
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no limit on the digits of integer text"
)
def test_a_result_too_long_to_print_exits_two(capsys, tmp_path):
    # d = p1*p2*p3 + ... has about 4500 digits, over the default limit of
    # 4300 that int-to-text conversion enforces: one error line, no
    # traceback and no manifest.
    x = "9" * 1500
    target = tmp_path / "min.json"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(
            ["minimize", "--p", f"-{x},{x},{x}", "--z", f"{x},0,0", "--json", str(target)],
            capsys,
        )
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "4300" in err
    assert list(tmp_path.iterdir()) == []


def test_empty_json_path_exits_two_before_running(capsys, tmp_path):
    # An empty path would run, print "overall: pass" and write nothing; a
    # path whose last component is empty ("/", ".") used to die in a
    # traceback with exit code 1, the "refuted" code; an existing directory
    # ("..", tmp_path) and a file in a missing directory used to run the
    # command first and fail on the write.  The directory is the one the
    # write goes to, so a link into a missing directory is refused too, and
    # so is the directory as typed, which the write also has to pass through.
    missing = f"{tmp_path}/missing/x.json"
    (tmp_path / "link.json").symlink_to(missing)
    (tmp_path / "file").write_text("")
    for argv in (
        ["verify", "--check", "lagrange"],
        ["search", "--target", "d-tilde", "--samples", "10", "--seed", "1"],
        ["minimize", "--p", "-1,-1,-1", "--z", "1,1,1"],
        ["sharpness", "--c", "1"],
        ["fuzz", "--samples", "10", "--seed", "1"],
    ):
        for path, message in (
            ("", "the manifest path is empty"),
            ("/", "the manifest path '/' names no file"),
            (".", "the manifest path '.' names no file"),
            ("./", "the manifest path './' names no file"),
            ("..", "the manifest path '..' is a directory"),
            (str(tmp_path), f"the manifest path {str(tmp_path)!r} is a directory"),
            # pathlib drops a trailing "/" or "." and would write "results"
            *(
                (path, f"the manifest path {path!r} names no file")
                for path in (f"{tmp_path}/results/", f"{tmp_path}/results/.", f"{tmp_path}/x/..")
            ),
            *(
                (path, f"the manifest path {path!r} is in no existing directory")
                for path in (
                    missing,
                    f"{tmp_path}/link.json",
                    f"{tmp_path}/file/x.json",
                    # realpath collapses ".." after a missing or non-directory part
                    f"{tmp_path}/missing/../x.json",
                    f"{tmp_path}/file/../x.json",
                )
            ),
        ):
            code, out, err = run(argv + ["--json", path], capsys)
            assert (code, out) == (2, "")
            assert err.endswith(f"cstriple {argv[0]}: error: argument --json: {message}\n")
    assert sorted(tmp_path.iterdir()) == [tmp_path / "file", tmp_path / "link.json"]
    assert (tmp_path / "file").read_text() == ""


def _cstriple_writing_to(stdout, unbuffered: str, argv: list[str]) -> subprocess.CompletedProcess:
    """``python -m cstriple *argv`` in a fresh interpreter with its stdout on
    the file descriptor ``stdout``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED=unbuffered)
    return subprocess.run(
        [sys.executable, "-m", "cstriple", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("sink", ["closed-pipe", "dev-full"])
def test_a_failed_stdout_write_exits_two(sink, unbuffered):
    # Not a traceback with exit 1 ("refuted"), nor "Exception ignored" at
    # shutdown with exit 120.  argparse's own help and version texts neither:
    # from Python 3.11 on it drops a failed write of them and exits 0.
    if sink == "closed-pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
        reason = os.strerror(errno.EPIPE)
    else:
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full here")
        write_end = os.open("/dev/full", os.O_WRONLY)
        reason = os.strerror(errno.ENOSPC)
    try:
        results = {
            " ".join(argv): _cstriple_writing_to(write_end, unbuffered, argv)
            for argv in (["verify", "--all"], ["--help"], ["--version"], ["verify", "--help"])
        }
    finally:
        os.close(write_end)
    expected = (2, f"error: cannot write output: {reason}\n")
    assert {argv: (r.returncode, r.stderr) for argv, r in results.items()} == dict.fromkeys(
        results, expected
    )


def test_minimize_hand_trace(capsys, tmp_path):
    manifest_path = tmp_path / "min.json"
    code, out, _ = run(
        ["minimize", "--p", "-1,-1,-1", "--z", "1,1,1", "--json", str(manifest_path)],
        capsys,
    )
    assert code == 0
    assert "lower z3: 1 -> 0" in out
    assert "case iii" in out
    manifest = json.loads(manifest_path.read_text())
    payload = manifest["reports"][0]
    assert payload["case"] == "iii"
    assert payload["final"]["z"] == ["1", "0", "0"]
    assert payload["final"]["d"] == "2"
    assert payload["classification"]["closed_form_value"] == "2"


@pytest.mark.parametrize(
    "fixture, argv",
    [
        ("minimize_pinned.json", ["--p", "-1/2,-2/3,-3/4", "--z", "1/2,2/3,3/4"]),
        ("minimize_lowered.json", ["--p", "3/5,-7/4,-2/9", "--z", "5/6,2,9/7", "--order", "123"]),
    ],
)
def test_minimize_manifest_matches_golden_file(capsys, tmp_path, fixture, argv):
    out = tmp_path / fixture
    code, _, _ = run(["minimize", *argv, "--json", str(out)], capsys)
    assert code == 0
    assert out.read_bytes() == (FIXTURES / fixture).read_bytes()


def test_minimize_non_vertex_prints_the_values_as_text(capsys, monkeypatch):
    monkeypatch.setattr(explorer, "greedy_minimize_z", helpers.end_off_vertex)
    code, out, err = run(["minimize", "--p", "-1,1,1", "--z", "1,0,0"], capsys)
    assert (code, out) == (2, "")
    assert err == (
        "error: not a vertex: some z_i is neither 0 nor -p_i at p=(-1, 1, 1), z=(5, 0, 0)\n"
    )


def test_sharpness_witness_commands(capsys, tmp_path):
    manifest_path = tmp_path / "sharp.json"
    code, out, _ = run(["sharpness", "--c", "1", "--json", str(manifest_path)], capsys)
    assert code == 0
    assert "value -1" in out
    manifest = json.loads(manifest_path.read_text())
    witness = manifest["reports"][0]
    assert witness["value"] == "-1"
    assert witness["k"] == ["0", "0", "3"]
    assert witness["b"] == ["1", "1", "1"]


# The argument lists whose output a parser of one subcommand could change:
# help, usage errors inside a subcommand and at the top level.
PARITY_ARGV = [
    ["--help"],
    *([name, "--help"] for name in ("verify", "search", "minimize", "sharpness", "fuzz")),
    ["verify", "--all", "--bogus"],
    ["search", "--target", "d-tilde", "--samples", "10", "--seed", "1", "--bogus"],
    ["minimize", "--p", "-1,-1,-1", "--z", "1,1,1", "extra"],
    ["sharpness", "--c", "1", "--bogus"],
    ["fuzz", "--samples", "10", "--seed", "1", "--bogus"],
    ["verify", "--check", "nope"],
    ["search", "--target", "d-tilde", "--samples", "ten", "--seed", "1"],
    ["search", "--target", "d-tilde", "--samples", "10"],
    ["minimize", "--p", "1,2", "--z", "1,1,1"],
    ["minimize", "--p", "-1,-1,-1"],
    ["sharpness", "--c", "0.7"],
    ["sharpness"],
    ["fuzz", "--samples", "10", "--seed", "-1/2"],
    ["fuzz", "--seed", "1"],
    [],
    ["nope"],
    ["--version"],
    ["verify", "--version"],
]


@pytest.mark.parametrize("argv", PARITY_ARGV, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_prints_what_the_full_parser_prints(argv, capsys, monkeypatch):
    # main builds only the subcommand named by argv[0]; the full parser is
    # the reference for exit code, stdout and stderr.
    monkeypatch.setenv("COLUMNS", "80")
    expected = run(argv, capsys, cli.build_parser().parse_args)
    assert expected[0] != 0 or expected[1]  # each case exits before running
    assert run(argv, capsys) == expected


# A unique prefix of an option is no spelling of it, on the lazy and the
# full path alike: the first two argv ran a search and wrote a manifest.
ABBREVIATED_ARGV = [
    (
        ["search", "--tar", "d-tilde", "--sam", "2", "--se", "0"],
        "cstriple search: error: the following arguments are required: "
        "--target, --samples, --seed\n",
    ),
    (
        ["sharpness", "--c", "1", "--js", "x.json"],
        "cstriple: error: unrecognized arguments: --js x.json\n",
    ),
    (["--vers"], "cstriple: error: the following arguments are required: command\n"),
]


@pytest.mark.parametrize(
    "argv, last_line", ABBREVIATED_ARGV, ids=[" ".join(argv) for argv, _ in ABBREVIATED_ARGV]
)
def test_an_abbreviated_option_is_refused(argv, last_line, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for parse in (cli.main, cli.build_parser().parse_args):
        code, out, err = run(argv, capsys, parse)
        assert (code, out) == (2, "")
        assert err.startswith("usage: cstriple")
        assert err.endswith(last_line)
    assert list(tmp_path.iterdir()) == []


def test_a_verify_run_builds_two_parsers(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert cli.main(["verify", "--check", "lagrange"]) == 0
    assert len(built) == 2  # the top level and verify's, not all five subcommands'
    monkeypatch.undo()
    (commands,) = [a.choices for a in cli.build_parser()._actions if a.dest == "command"]
    assert list(commands) == ["verify", "search", "minimize", "sharpness", "fuzz"]


def test_exit_code_matches_manifest_status(capsys, tmp_path):
    cases = [
        (["verify", "--check", "lagrange"], 0),
        (["sharpness", "--c", "2"], 0),
        (["search", "--target", "d-k", "--c", "1", "--samples", "400", "--seed", "3"], 1),
    ]
    for argv, expected in cases:
        manifest_path = tmp_path / "m.json"
        code, _, _ = run(argv + ["--json", str(manifest_path)], capsys)
        assert code == expected
        manifest = json.loads(manifest_path.read_text())
        assert (manifest["overall_status"] == "pass") == (code == 0)


FUZZ_ARGS = ["--samples", "300", "--seed", "4", "--num-bound", "9", "--den-bound", "7"]


def test_fuzz_manifest_is_the_library_summary(capsys, tmp_path):
    manifest_path = tmp_path / "fuzz.json"
    argv = ["fuzz", *FUZZ_ARGS, "--zero-prob", "1/8", "--negative-product"]
    code, out, _ = run(argv + ["--json", str(manifest_path)], capsys)
    assert code == 0
    assert "passed=300 failed=0" in out
    manifest = json.loads(manifest_path.read_text())
    cfg = explorer.SearchConfig(300, 4, 9, 7, Fraction(1, 8))
    assert manifest["command"] == "fuzz"
    assert manifest["config"] == {**cfg.to_dict(), "negative_product": True}
    expected = explorer.minimize_fuzz(cfg, require_negative_product=True)
    assert manifest["reports"] == [expected.to_dict()]
    assert manifest["overall_status"] == "pass"


def test_fuzz_exits_one_on_a_failed_guarantee(capsys, tmp_path, monkeypatch):
    # No int d equals 1/2, so every state breaks the closed-form guarantee alone.
    monkeypatch.setattr(corpus, "case_value", lambda label, q1, q2, q3: Fraction(1, 2))
    manifest_path = tmp_path / "fuzz.json"
    code, out, _ = run(["fuzz", *FUZZ_ARGS, "--json", str(manifest_path)], capsys)
    assert code == 1
    assert "failures: closed_form=300" in out
    manifest = json.loads(manifest_path.read_text())
    assert manifest["overall_status"] == "fail"
    assert manifest["reports"][0]["failed"] == 300
    assert manifest["config"]["negative_product"] is False


def test_fuzz_exits_one_on_a_non_vertex_final_state(capsys, monkeypatch):
    helpers.end_fuzz_off_vertex(monkeypatch)
    code, out, _ = run(["fuzz", "--samples", "3", "--seed", "0"], capsys)
    assert code == 1
    assert "mixed=3" in out
    assert "failures: vertex=3" in out


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_manifest_text_matches_json_dumps_on_fixtures(fixture):
    value = json.loads((FIXTURES / fixture).read_text())
    assert cli.manifest_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [
        [],
        {},
        {"a": [], "b": {}, "c": [[], [{}]], "d": {"e": {"f": []}}},
        ["caf\u00e9 \u2264 \U0001d53c", "quote \" backslash \\ tab \t"],
        [True, False, None, 0, -1, -(10**30), 10**30, 0.5],
        ("tuple", ("nested",)),
        {"a": "1/2", "b": {"c": "", "d": {"e": "caf\u00e9"}, "f": 3}, "g": ["h", {"i": "-7"}, "j"],
         "k": [{"l": "m"}, "n", [{"o": "\"q\\"}]], "p": "last"},
    ],
    ids=["empty-list", "empty-dict", "nested-empties", "non-ascii", "constants-numbers", "tuples",
         "str-values"],
)
def test_manifest_text_matches_json_dumps(value):
    assert cli.manifest_text(value) == json.dumps(value, indent=2)


def test_manifest_text_refuses_what_a_manifest_never_holds():
    for value in (Fraction(1, 2), {1: "int key"}, {"nested": [{"a", "set"}]}):
        with pytest.raises(TypeError):
            cli.manifest_text(value)
