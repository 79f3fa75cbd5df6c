"""Exact verification toolkit for a three-factor Cauchy-Schwarz-type inequality.

Everything runs on exact rational arithmetic: canonical sparse polynomials
for the symbolic identity checks, plain integer numerator/denominator pairs
in the search loop (Fractions only for the reported minimum, hits and
probes), and Fractions in the minimization tools.  See the README for the
math and the CLI.

The ``explorer`` names load on first use (PEP 562), ``compile_evaluator``
among them, so ``cstriple verify`` never imports the module it does not run.
"""

__version__ = "0.1.0"

from .poly import (  # noqa: F401
    Polynomial,
    PreconditionError,
    StructuralError,
    VarSet,
    format_polynomial,
)
from .verifier import Report, run_all, run_check  # noqa: F401

# The names re-exported from ``explorer``, which loads on the first lookup.
_EXPLORER_NAMES = {
    "CaseClassification", "FuzzSummary", "MacroState", "MinimizeTrace", "SearchConfig",
    "SearchReport", "SharpnessWitness", "case_classify", "compile_evaluator", "greedy_minimize_z",
    "minimize_fuzz", "random_search", "resolve_target", "sharpness_witness",
}


def __getattr__(name: str):
    if name in _EXPLORER_NAMES:
        from . import explorer

        return getattr(explorer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _EXPLORER_NAMES)
