"""Symbolic replay of the proof: every identity is checked by exact expansion.

Each check expands a difference of two polynomial sides in canonical sparse
form and reports ``verified`` exactly when the difference cancels to the
zero polynomial.  There is no numeric tolerance anywhere; a single wrong
coefficient leaves a nonzero term behind and flips the status to
``refuted`` with the surviving difference as witness.

The seven checks:

  lagrange                  classical Lagrange identity in six variables,
                            and the search target cs_diff as sum cross_i^2
  key-identity              (b1*b2*b3)^2 * d_tilde  ==  d_value(*macro(*ab)),
                            d of the macro variables (the collapse that
                            makes the minimization tractable)
  constraint-factorization  the feasibility product of the macro variables
                            is the perfect square (a1*a2*a3*b1*b2*b3)^2
  k-equivalence             d_tilde at a_i = k_i*b_i equals the k-form
  case-formulas             the four closed forms of the vertex case split:
                            d evaluated at the pinned z (each z_i set to
                            -p_i or 0), and for case (iv) the feasibility
                            product at z = 0; plus the case-(ii) discriminant
                            as a completed square in p3
  sharpness-reduction       the k-form at k1 = k2 = 0, with the variable C
                            as bracket constant, is (1-2C)*b1^2*b2^2*b3^2*k3^2
                            plus a product of three positive factors
  weak-implication          the dropped bracket is exhibited as
                            1/2 * sum b_i^2 * cross_i^2

Note on key-identity: the raw change of variables only makes sense where
all b_i are nonzero, but after clearing y1*y2*y3 = (b1*b2*b3)^2 the claim
becomes a polynomial identity valid everywhere, which is what gets checked.

Every side of every check is a component of ``corpus.identities(varset)``,
and ``corpus.CHECKS`` names the VarSet of each check; this module only
expands them.  ``run_all`` shares one dict of ``corpus.build_identities``
by VarSet among its checks, so each VarSet is built once per replay; a
check run alone builds its whole VarSet.  No build outlives its replay,
so a formula swapped into ``corpus`` between two replays (the
source-mutation gate in tests/test_corpus_mutants.py does exactly that)
is built and checked by the next replay, never a stale copy.

All checks are pure and deterministic; only ``elapsed_ms`` varies between
runs.
"""

from __future__ import annotations

import time
from typing import Iterable, NamedTuple

from . import corpus
from .poly import Polynomial, StructuralError

STATUS_VERIFIED = "verified"
STATUS_REFUTED = "refuted"
STATUS_ERROR = "error"

# (component name, lhs, rhs): the check asserts lhs == rhs exactly.
Component = tuple[str, Polynomial, Polynomial]


class Report(NamedTuple):
    """Outcome of one identity check, an immutable named tuple.

    ``term_count`` is the number of terms surviving in the expanded
    difference (0 exactly when verified); ``witness`` carries the surviving
    difference as text and is present iff the check is refuted.
    """

    check: str
    status: str
    witness: str | None
    term_count: int
    elapsed_ms: int

    def to_dict(self) -> dict:
        """The manifest entry: every field, in field order."""
        return self._asdict()


def check_equal(check: str, components: Iterable[Component]) -> Report:
    """Expand each component difference and fold the outcomes into a Report."""
    start = time.perf_counter()
    witness: str | None = None
    term_count = 0
    status = STATUS_VERIFIED
    try:
        for name, lhs, rhs in components:
            diff = lhs - rhs
            term_count += diff.term_count
            if not diff.is_zero() and status == STATUS_VERIFIED:
                status = STATUS_REFUTED
                witness = f"{name}: {diff}"
    except StructuralError:
        status = STATUS_ERROR
        witness = None
        term_count = 0
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return Report(check, status, witness, term_count, elapsed_ms)


# -- the replay ---------------------------------------------------------------

CHECK_NAMES = tuple(corpus.CHECKS)


def identity_components(check: str, builds: dict | None = None) -> list[Component]:
    """The exact (lhs, rhs) pairs whose equality the named check asserts, read
    from ``builds``: one replay's ``corpus.build_identities`` by VarSet, filled here."""
    try:
        varset = corpus.CHECKS[check]
    except KeyError:
        raise StructuralError(
            f"unknown check {check!r}; valid names: {', '.join(CHECK_NAMES)}"
        ) from None
    builds = {} if builds is None else builds
    if varset not in builds:
        builds[varset] = corpus.build_identities(varset)
    return builds[varset][check]


def run_check(check: str, builds: dict | None = None) -> Report:
    return check_equal(check, identity_components(check, builds))


def run_all(checks: Iterable[str] = CHECK_NAMES) -> list[Report]:
    """Run ``checks`` in order on one dict of the corpus builds."""
    builds: dict = {}
    return [run_check(name, builds) for name in checks]
