"""Symbolic replay of the proof: every identity is checked by exact expansion.

Each check expands a difference of two polynomial sides in canonical sparse
form and reports ``verified`` exactly when the difference cancels to the
zero polynomial.  There is no numeric tolerance anywhere; a single wrong
coefficient leaves a nonzero term behind and flips the status to
``refuted`` with the surviving difference as witness.

The seven checks:

  lagrange                  classical Lagrange identity in six variables,
                            and the search target cs_diff as sum cross_i^2
  key-identity              (b1*b2*b3)^2 * d_tilde  ==  d composed with the
                            macro substitution (the collapse that makes the
                            minimization tractable)
  constraint-factorization  the feasibility product maps to the perfect
                            square (a1*a2*a3*b1*b2*b3)^2
  k-equivalence             d_tilde with a_i -> k_i*b_i equals the k-form
  case-formulas             the four closed forms of the vertex case split:
                            d evaluated at the pinned z (each z_i set to
                            -p_i or 0), and for case (iv) the feasibility
                            product at z = 0; plus the case-(ii) discriminant
  sharpness-reduction       specializing k1 = k2 = 0 in the C-parametric
                            k-form leaves (1-2C)*b1^2*b2^2*b3^2*k3^2 plus a
                            product of three positive factors
  weak-implication          the dropped bracket is exhibited as
                            1/2 * sum b_i^2 * cross_i^2

Note on key-identity: the raw change of variables only makes sense where
all b_i are nonzero, but after clearing y1*y2*y3 = (b1*b2*b3)^2 the claim
becomes a polynomial identity valid everywhere, which is what gets checked.

All checks are pure and deterministic; only ``elapsed_ms`` varies between
runs.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, NamedTuple

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


# -- component builders -------------------------------------------------------


def _lagrange_components() -> list[Component]:
    parts = corpus.build_lagrange_and_cs()
    cross_sum = sum((cross**2 for _, cross in corpus.cross_products()), Polynomial.zero(corpus.AB))
    return [
        ("lagrange", parts.lagrange_lhs, parts.lagrange_rhs),
        ("cs-difference", parts.cs_diff, cross_sum),
    ]


def _key_identity_components() -> list[Component]:
    d_tilde = corpus.build_inequality().d_tilde
    y_product = Polynomial.monomial(corpus.AB, {"b1": 2, "b2": 2, "b3": 2})
    collapsed = corpus.build_d().substitute(corpus.build_macro_substitution())
    return [("key-identity", y_product * d_tilde, collapsed)]


def _constraint_components() -> list[Component]:
    image = corpus.build_constraint().substitute(corpus.build_macro_substitution())
    square = Polynomial.monomial(
        corpus.AB, {"a1": 2, "a2": 2, "a3": 2, "b1": 2, "b2": 2, "b3": 2}
    )
    return [("constraint-factorization", image, square)]


def _ratio_substitution() -> dict[str, Polynomial]:
    """AB -> KB with a_i -> k_i*b_i and b_i -> b_i."""
    k1, k2, k3, b1, b2, b3 = corpus.variables(corpus.KB)
    return dict(zip(corpus.AB.names, (k1 * b1, k2 * b2, k3 * b3, b1, b2, b3)))


def _k_equivalence_components() -> list[Component]:
    d_tilde = corpus.build_inequality().d_tilde
    return [
        ("k-equivalence", d_tilde.substitute(_ratio_substitution()), corpus.build_k_form())
    ]


def _case_formula_components() -> list[Component]:
    p1, p2, p3, _, _, _ = corpus.variables(corpus.MACRO)
    p = (p1, p2, p3)

    # The pinned coordinates come first: z_i = -p_i for them, 0 for the rest.
    case_i = corpus.d_value(p, (-p1, -p2, -p3))
    case_ii = corpus.d_value(p, (-p1, -p2, 0))
    case_iii = corpus.d_value(p, (-p1, 0, 0))
    case_iv = corpus.feasibility_value(p, (0, 0, 0))

    # Case (ii) is a convex quadratic in p3; read its coefficients off the
    # expanded polynomial and form the discriminant from those.
    quad_a = case_ii.coefficient_of("p3", 2)
    quad_b = case_ii.coefficient_of("p3", 1)
    quad_c = case_ii.coefficient_of("p3", 0)
    discriminant = quad_b**2 - 4 * quad_a * quad_c

    return [
        ("case-i", case_i, corpus.case_value("i", *p)),
        ("case-ii", case_ii, corpus.case_value("ii", *p)),
        (
            "case-ii-discriminant",
            discriminant,
            -p1 * p2 * (4 * p1**2 + 7 * p1 * p2 + 4 * p2**2),
        ),
        ("case-iii", case_iii, corpus.case_value("iii", *p)),
        ("case-iv", case_iv, corpus.case_value("iv", *p)),
    ]


def _sharpness_components() -> list[Component]:
    parametric = corpus.build_k_form(parametric=True)
    _, _, k3, b1, b2, b3, c = corpus.variables(corpus.KBC)
    zero = Polynomial.zero(corpus.KBC)
    specialized = parametric.substitute(
        dict(zip(corpus.KBC.names, (zero, zero, k3, b1, b2, b3, c)))
    )

    expected = (1 - 2 * c) * (b1 * b2 * b3) ** 2 * k3**2 + (b1**2 + b2**2) * (
        b1**2 + b3**2
    ) * (b2**2 + b3**2)
    return [("sharpness-reduction", specialized, expected)]


def _weak_implication_components() -> list[Component]:
    parts = corpus.build_inequality()
    half_square_sum = Polynomial.zero(corpus.AB)
    for b, cross in corpus.cross_products():
        half_square_sum = half_square_sum + corpus.HALF * b**2 * cross**2
    return [("weak-implication", parts.weak - parts.d_tilde, half_square_sum)]


_COMPONENT_BUILDERS: dict[str, Callable[[], list[Component]]] = {
    "lagrange": _lagrange_components,
    "key-identity": _key_identity_components,
    "constraint-factorization": _constraint_components,
    "k-equivalence": _k_equivalence_components,
    "case-formulas": _case_formula_components,
    "sharpness-reduction": _sharpness_components,
    "weak-implication": _weak_implication_components,
}
CHECK_NAMES = tuple(_COMPONENT_BUILDERS)


def identity_components(check: str) -> list[Component]:
    """The exact (lhs, rhs) pairs whose equality the named check asserts."""
    try:
        builder = _COMPONENT_BUILDERS[check]
    except KeyError:
        raise StructuralError(
            f"unknown check {check!r}; valid names: {', '.join(CHECK_NAMES)}"
        ) from None
    return builder()


def run_check(check: str) -> Report:
    return check_equal(check, identity_components(check))


def run_all() -> list[Report]:
    return [run_check(name) for name in CHECK_NAMES]

