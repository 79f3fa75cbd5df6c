"""The names the ``cstriple`` package exports at its top level."""

import importlib
from inspect import ismodule

import cstriple

# Defining module -> the names ``cstriple`` re-exports from it.
EXPORTS = {
    "poly": (
        "Polynomial",
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
        "PreconditionError",
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
