"""End-to-end tests of the command-line front end: exit codes, output, and
manifest stability."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

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
    # a directory in the way fails the replace; no temporary file is left
    code, _, err = run(["verify", "--check", "lagrange", "--json", str(tmp_path)], capsys)
    assert code == 2
    assert "cannot write" in err
    assert list(tmp_path.iterdir()) == []


def test_search_c_flag_requires_dk_target(capsys):
    code, _, err = run(["search", "--target", "weak", "--c", "1", "--samples", "10", "--seed", "1"], capsys)
    assert code == 2
    assert "error" in err


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


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate"])
    assert excinfo.value.code == 2


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


def test_fuzz_rejection_exhaustion_exits_two(capsys):
    argv = ["fuzz", "--samples", "1", "--seed", "0", "--zero-prob", "1", "--negative-product"]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "rejection sampling" in err
