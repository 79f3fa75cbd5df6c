"""That the ``cstriple`` package exports only its version, the modules
each command imports, that the README's examples run, and that the
package imports only the standard library."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from inspect import ismodule
from pathlib import Path

import pytest

import cstriple
from cstriple import cli


def test_the_package_exports_only_its_version():
    # Every name is imported from the module that defines it.
    public = {
        name
        for name, value in vars(cstriple).items()
        if not name.startswith("_") and not ismodule(value)
    }
    assert public == set()
    assert cstriple.__version__ == "0.1.0"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cstriple.no_such_name  # noqa: B018


def test_readme_library_example_runs():
    # The README's "Library use" block, run as written, so a library change
    # that breaks the documented use fails here.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["value"] == 87
    assert namespace["evaluate"]((1, 1, 2, 1, 3, 1, 1, 1, 1, 1, 1, 1)) == (87, 1)
    assert namespace["witness"].value == Fraction(-9, 5)
    assert len(namespace["search"].counterexamples) == 5
    assert namespace["report"].status == "verified"


def test_readme_command_lines_parse(tmp_path):
    # Every line of the README's "Command line" block, bracketed options
    # included and PATH a file, so a renamed option fails here, and each
    # option spelled in full, not as an abbreviation argparse would take.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert len(lines) == 7
    manifest = str(tmp_path / "run.json")
    for line in lines:
        program, *argv = line.replace("[", "").replace("]", "").split()
        assert program == "cstriple"
        parser = cli.build_parser()
        args = parser.parse_args([manifest if a == "PATH" else a for a in argv])
        assert args.command == argv[0]
        subparser = parser._subparsers._group_actions[0].choices[argv[0]]
        assert all(a in subparser._option_string_actions for a in argv if a.startswith("--"))


def _python(*args):
    """``python *args`` in a fresh interpreter on this checkout's ``cstriple``."""
    src = str(Path(cstriple.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def _run_fresh(script, *args):
    """The stdout lines of ``script`` run in a fresh interpreter."""
    result = _python("-c", script, *args)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_python_m_cstriple_runs_the_command_line():
    result = _python("-m", "cstriple", "verify", "--check", "lagrange")
    assert result.returncode == 0, result.stderr
    assert "overall: pass" in result.stdout
    result = _python("-m", "cstriple", "search", "--target", "nope", "--samples", "1", "--seed", "0")
    assert result.returncode == 2
    assert "invalid choice" in result.stderr and "nope" in result.stderr


# Runs in a fresh interpreter: ``import cstriple`` must load no submodule,
# and ``verify`` must leave the explorer, and the dataclasses and inspect
# modules no command needs, unimported.
_COLD_VERIFY = """
import sys
import cstriple

print(*sorted(m for m in sys.modules if m.startswith("cstriple.")))
from cstriple import cli

code = cli.main(["verify", "--all", "--json", sys.argv[1]])
print(code, *sorted(m for m in ("cstriple.explorer", "dataclasses", "inspect") if m in sys.modules))
"""


def test_verify_imports_no_explorer_and_no_dataclasses(tmp_path):
    package_loaded, *_, loaded = _run_fresh(_COLD_VERIFY, str(tmp_path / "verify.json"))
    assert package_loaded == ""
    assert loaded == "0"


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


def test_runtime_imports_only_the_standard_library():
    # The package has no runtime dependencies: every absolute import in
    # src/cstriple names a standard-library module.
    foreign = []
    for path in sorted(Path(cstriple.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert foreign == []
