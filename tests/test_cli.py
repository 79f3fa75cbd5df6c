"""End-to-end tests of the command-line front end: exit codes, output, and
manifest stability."""

import argparse
import errno
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
from cstriple import cli, explorer


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_verify_single_check(capsys):
    code, out, _ = run(["verify", "--check", "key-identity"], capsys)
    assert code == 0
    assert "key-identity" in out


def test_verify_default_runs_all(capsys):
    code, out, _ = run(["verify"], capsys)
    assert code == 0
    assert out.count("verified") == 7


def test_verify_rejects_unknown_check(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "--check", "bogus"])
    assert excinfo.value.code == 2


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


def test_search_zero_prob_one_exits_two(capsys):
    code, _, err = run(
        ["search", "--target", "d-tilde", "--samples", "10", "--seed", "1", "--zero-prob", "1"],
        capsys,
    )
    assert code == 2
    assert "zero_probability" in err


def test_unwritable_json_path_exits_two(capsys, tmp_path):
    target = tmp_path / "missing" / "verify.json"
    code, out, err = run(["verify", "--check", "lagrange", "--json", str(target)], capsys)
    assert code == 2
    assert "overall: pass" in out
    assert err.startswith(f"error: cannot write {target}: ")
    # a name too long to stat is not refused while parsing; the write is
    code, out, err = run(
        ["verify", "--check", "lagrange", "--json", str(tmp_path / ("a" * 300 + ".json"))],
        capsys,
    )
    assert code == 2
    assert "overall: pass" in out
    assert "cannot write" in err


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


def test_empty_json_path_exits_two_before_running(capsys, tmp_path):
    # An empty path would run, print "overall: pass" and write nothing; a
    # path whose last component is empty ("/", ".") used to die in a
    # traceback with exit code 1, the "refuted" code; an existing directory
    # ("..", tmp_path) used to run the command first and fail on the write.
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
        ):
            with pytest.raises(SystemExit) as excinfo:
                cli.main(argv + ["--json", path])
            assert excinfo.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert f"argument --json: {message}" in err
    assert list(tmp_path.iterdir()) == []


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


def test_search_c_flag_requires_dk_target(capsys):
    code, _, err = run(["search", "--target", "weak", "--c", "1", "--samples", "10", "--seed", "1"], capsys)
    assert code == 2
    assert "error" in err


def test_search_accepts_a_negative_rational_constant(capsys):
    code, out, _ = run(
        ["search", "--target", "d-k", "--c", "-1/3", "--samples", "50", "--seed", "1"], capsys
    )
    assert code == 0
    assert "overall: pass" in out


def test_search_rejects_bad_rational(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["search", "--target", "d-k", "--c", "0.7", "--samples", "10", "--seed", "1"])
    assert excinfo.value.code == 2


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


def test_minimize_respects_order_flag(capsys):
    code, out, _ = run(["minimize", "--p", "-1,-1,-1", "--z", "1,1,1", "--order", "123"], capsys)
    assert code == 0
    assert "lower z1" in out


def test_minimize_infeasible_state_is_structural(capsys):
    code, _, err = run(["minimize", "--p", "-2,1,1", "--z", "1,0,0"], capsys)
    assert code == 2
    assert "infeasible" in err


def test_minimize_negative_z_prints_the_values_as_text(capsys):
    code, out, err = run(["minimize", "--p", "1,1,1", "--z", "-1,1/2,0"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: z must be nonnegative, got (-1, 1/2, 0)\n"


def test_minimize_non_vertex_prints_the_values_as_text(capsys, monkeypatch):
    monkeypatch.setattr(explorer, "greedy_minimize_z", helpers.end_off_vertex)
    code, out, err = run(["minimize", "--p", "-1,1,1", "--z", "1,0,0"], capsys)
    assert (code, out) == (2, "")
    assert err == (
        "error: not a vertex: some z_i is neither 0 nor -p_i at p=(-1, 1, 1), z=(5, 0, 0)\n"
    )


def test_minimize_rejects_malformed_triple(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["minimize", "--p", "1,2", "--z", "0,0,0"])
    assert excinfo.value.code == 2


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

    code, out, _ = run(["sharpness", "--c", "3/5"], capsys)
    assert code == 0
    assert "-9/5" in out


def test_sharpness_at_half_errors(capsys):
    code, _, err = run(["sharpness", "--c", "1/2"], capsys)
    assert code == 2
    assert "no witness" in err


def test_sharpness_takes_a_negative_rational(capsys):
    code, _, err = run(["sharpness", "--c", "-1/2"], capsys)
    assert code == 2
    assert "no witness exists for c = -1/2" in err


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate"])
    assert excinfo.value.code == 2


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


def _outcome(parse, argv, capsys):
    try:
        code = parse(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("argv", PARITY_ARGV, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_prints_what_the_full_parser_prints(argv, capsys, monkeypatch):
    # main builds only the subcommand named by argv[0]; the full parser is
    # the reference for exit code, stdout and stderr.
    monkeypatch.setenv("COLUMNS", "80")
    expected = _outcome(cli.build_parser().parse_args, argv, capsys)
    assert expected[0] != 0 or expected[1]  # each case exits before running
    assert _outcome(cli.main, argv, capsys) == expected


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command\n"),
        (["nope"], "argument command: invalid choice: 'nope'"),
    ],
    ids=["no-arguments", "nope"],
)
def test_the_top_level_errors_name_the_command_argument(argv, message, capsys):
    # Not the brace list of the subcommands, which the usage line shows.
    code, out, err = _outcome(cli.main, argv, capsys)
    assert (code, out) == (2, "")
    assert message in err


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
    monkeypatch.setattr(explorer, "failed_guarantees", lambda trace, result: ["closed_form"])
    manifest_path = tmp_path / "fuzz.json"
    code, out, _ = run(["fuzz", *FUZZ_ARGS, "--json", str(manifest_path)], capsys)
    assert code == 1
    assert "failures: closed_form=300" in out
    manifest = json.loads(manifest_path.read_text())
    assert manifest["overall_status"] == "fail"
    assert manifest["reports"][0]["failed"] == 300
    assert manifest["config"]["negative_product"] is False


def test_fuzz_exits_one_on_a_non_vertex_final_state(capsys, monkeypatch):
    monkeypatch.setattr(explorer, "greedy_minimize_z", helpers.end_off_vertex)
    code, out, _ = run(["fuzz", "--samples", "3", "--seed", "0"], capsys)
    assert code == 1
    assert "mixed=3" in out
    assert "failures: vertex=3" in out


def test_fuzz_rejection_exhaustion_exits_two(capsys):
    argv = ["fuzz", "--samples", "1", "--seed", "0", "--zero-prob", "1", "--negative-product"]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "rejection sampling" in err


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
    ],
    ids=["empty-list", "empty-dict", "nested-empties", "non-ascii", "constants-numbers", "tuples"],
)
def test_manifest_text_matches_json_dumps(value):
    assert cli.manifest_text(value) == json.dumps(value, indent=2)


def test_manifest_text_refuses_what_a_manifest_never_holds():
    for value in (Fraction(1, 2), {1: "int key"}, {"nested": [{"a", "set"}]}):
        with pytest.raises(TypeError):
            cli.manifest_text(value)
