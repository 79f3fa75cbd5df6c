"""The names the ``cstriple`` package exports at its top level, and the
modules each command imports."""

import importlib
import os
import subprocess
import sys
from inspect import ismodule
from pathlib import Path

import pytest

import cstriple
from cstriple import cli, corpus, explorer, poly

# Defining module -> the names ``cstriple`` re-exports from it.
EXPORTS = {
    "poly": (
        "Polynomial",
        "PreconditionError",
        "StructuralError",
        "VarSet",
        "compile_evaluator",
        "format_polynomial",
        "parse_polynomial",
    ),
    "verifier": ("Report", "run_all", "run_check"),
    "explorer": (
        "CaseClassification",
        "FuzzSummary",
        "MacroState",
        "MinimizeTrace",
        "SearchConfig",
        "SearchReport",
        "SharpnessWitness",
        "case_classify",
        "greedy_minimize_z",
        "minimize_fuzz",
        "random_search",
        "resolve_target",
        "sharpness_witness",
    ),
}


def test_every_exported_name_resolves():
    for module_name, names in EXPORTS.items():
        module = importlib.import_module(f"cstriple.{module_name}")
        for name in names:
            assert getattr(cstriple, name) is getattr(module, name), name
    assert cstriple.__version__ == "0.1.0"


def test_no_unlisted_name_is_exported():
    listed = {name for names in EXPORTS.values() for name in names}
    public = {
        name
        for name, value in vars(cstriple).items()
        if not name.startswith("_") and not ismodule(value)
    }
    assert public <= listed


def test_moved_names_are_re_exported_by_explorer():
    assert explorer.PreconditionError is poly.PreconditionError
    assert explorer.TARGET_NAMES is corpus.TARGET_NAMES


def test_search_still_refuses_an_unknown_target(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["search", "--target", "nope", "--samples", "10", "--seed", "0"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


def test_dir_lists_every_exported_name():
    listed = {name for names in EXPORTS.values() for name in names}
    assert listed <= set(dir(cstriple))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cstriple.no_such_name  # noqa: B018


def _run_fresh(script, *args):
    """The stdout lines of ``script`` run in a fresh interpreter on this
    checkout's ``cstriple``."""
    src = str(Path(cstriple.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


# Runs in a fresh interpreter: ``verify`` must leave the explorer, and the
# dataclasses and inspect modules no command needs, unimported; the first
# lazy name loads the explorer.
_COLD_VERIFY = """
import sys
import cstriple
from cstriple import cli

code = cli.main(["verify", "--all", "--json", sys.argv[1]])
print(code, *sorted(m for m in ("cstriple.explorer", "dataclasses", "inspect") if m in sys.modules))
cstriple.SearchConfig
print("cstriple.explorer" in sys.modules)
"""


def test_verify_imports_no_explorer_and_no_dataclasses(tmp_path):
    *_, loaded, explorer_after = _run_fresh(_COLD_VERIFY, str(tmp_path / "verify.json"))
    assert loaded == "0"
    assert explorer_after == "True"


# The explorer's records are named tuples and slotted classes, so the other
# four commands leave dataclasses and inspect unimported too.
_COLD_EXPLORE = """
import sys
from cstriple import cli

codes = [
    cli.main(["search", "--target", "d-tilde", "--samples", "20", "--seed", "0"]),
    cli.main(["minimize", "--p", "-1,-1,-1", "--z", "1,1,1"]),
    cli.main(["sharpness", "--c", "1"]),
    cli.main(["fuzz", "--samples", "20", "--seed", "0"]),
]
print(*codes, *sorted(m for m in ("dataclasses", "inspect") if m in sys.modules))
"""


def test_explorer_commands_import_no_dataclasses_and_no_inspect():
    *_, loaded = _run_fresh(_COLD_EXPLORE)
    assert loaded == "0 0 0 0"
