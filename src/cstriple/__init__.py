"""Exact verification toolkit for a three-factor Cauchy-Schwarz-type inequality.

Everything runs on exact rational arithmetic: canonical sparse polynomials
for the symbolic identity checks, plain integer numerator/denominator pairs
in the search loop (Fractions only for the reported minimum, hits and
probes), and Fractions in the minimization tools.  See the README for the
math and the CLI.
"""

__version__ = "0.1.0"

from .poly import (  # noqa: F401
    Polynomial,
    StructuralError,
    VarSet,
    compile_evaluator,
    format_polynomial,
    parse_polynomial,
)
from .verifier import Report, run_all, run_check  # noqa: F401
from .explorer import (  # noqa: F401
    CaseClassification,
    FuzzSummary,
    MacroState,
    MinimizeTrace,
    PreconditionError,
    SearchConfig,
    SearchReport,
    SharpnessWitness,
    case_classify,
    greedy_minimize_z,
    minimize_fuzz,
    random_search,
    resolve_target,
    sharpness_witness,
)
