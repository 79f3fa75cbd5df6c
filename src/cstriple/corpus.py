"""Every formula the toolkit reasons about, as plain arithmetic over any ring.

The central object is the difference polynomial of the three-factor
inequality

    (a1^2+b2^2+b3^2)(a2^2+b3^2+b1^2)(a3^2+b1^2+b2^2)
        >= (a1*b1+a2*b2+a3*b3)^2 (b1^2+b2^2+b3^2)
           + 1/2 [ b1^2(a2*b3-a3*b2)^2 + b2^2(a3*b1-a1*b3)^2
                   + b3^2(a1*b2-a2*b1)^2 ]

together with its supporting cast: the classical Lagrange identity, the
macro change of variables

    x_i = a1*a2*a3/a_i,  y_i = b1*b2*b3/b_i,
    p_i = (x_i - y_i)*y_i,  z_i = y_i^2

(each quotient is a monomial, so every image is an honest polynomial and
the whole pipeline stays denominator-free), the collapsed form

    d = p1*p2*p3 + c1*z1 + c2*z2 + c3*z3,
    c1 = p2^2 + p2*p3 + p3^2   (and cyclically),

the feasibility product (p1+z1)(p2+z2)(p3+z3), and the single-ratio form in
k_i = a_i/b_i whose bracket constant may be a number or a variable.

``cross_products``, ``inequality``, ``lagrange``, ``macro``, ``k_form``,
``c_values``, ``d_value``, ``feasibility_value`` and ``case_value`` are the
single definition of each formula.  They take their variables as arguments
and use only ``+``, ``-``, ``*`` and ``**``, so they run on any ring values:
the explorer applies them to Fractions and ints.  A change of variables is
function application: ``d_value(*macro(*ab))`` is d in the a's and b's.

The identities the verifier proves are stated here too, in the same
arithmetic: ``identities(varset)`` returns the function (``ab_identities``
and its siblings) that gives ``{check: [(component, lhs, rhs)]}`` over one
VarSet's variables.  The verifier expands them as Polynomials
(``build_identities``); tests/test_grid_proof.py evaluates them on ints.

This module is the only place that maps a name to a formula.
``TARGETS`` maps each polynomial ``cstriple search`` can sample to its
VarSet and formula; ``explorer.resolve_target`` applies the formula to
``variables(varset)``, the variables of the VarSet in order.  ``CHECKS``
maps each check of the replay to the VarSet whose identities state it.

All formulas are pure and deterministic: repeated builds return identical
canonical term maps.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .poly import Polynomial, StructuralError, VarSet

AB = VarSet(("a1", "a2", "a3", "b1", "b2", "b3"))
KB = VarSet(("k1", "k2", "k3", "b1", "b2", "b3"))
# KB plus a degree-1 symbol C standing in for the bracket constant 1/2.
KBC = VarSet(("k1", "k2", "k3", "b1", "b2", "b3", "C"))
MACRO = VarSet(("p1", "p2", "p3", "z1", "z2", "z3"))

HALF = Fraction(1, 2)


def variables(varset: VarSet) -> tuple[Polynomial, ...]:
    """Every variable of ``varset`` as a Polynomial, in VarSet order."""
    return tuple(Polynomial.variable(varset, name) for name in varset.names)


class InequalityParts(NamedTuple):
    lhs: Polynomial
    rhs: Polynomial
    d_tilde: Polynomial
    weak: Polynomial
    lagrange: LagrangeParts


class LagrangeParts(NamedTuple):
    lagrange_lhs: Polynomial
    lagrange_rhs: Polynomial
    cs_diff: Polynomial
    dot_squared: Polynomial
    bnorm: Polynomial
    crosses: tuple[tuple[Polynomial, Polynomial], ...]


def cross_products(a1, a2, a3, b1, b2, b3):
    """The three (b_i, cross_i) pairs of the bracket term.

    cross_1 = a2*b3 - a3*b2 and cyclically; the bracket of the inequality
    is (1/2) * sum b_i^2 * cross_i^2.
    """
    return (
        (b1, a2 * b3 - a3 * b2),
        (b2, a3 * b1 - a1 * b3),
        (b3, a1 * b2 - a2 * b1),
    )


def inequality(a1, a2, a3, b1, b2, b3) -> InequalityParts:
    """Left side, right side, and difference of the three-factor inequality,
    ``weak``: lhs - dot_squared * bnorm, no bracket, and the ``lagrange`` parts
    the right side is built from."""
    lag = lagrange(a1, a2, a3, b1, b2, b3)
    lhs = (a1**2 + b2**2 + b3**2) * (a2**2 + b3**2 + b1**2) * (a3**2 + b1**2 + b2**2)
    bracket = sum(b**2 * cross**2 for b, cross in lag.crosses)
    cs_rhs = lag.dot_squared * lag.bnorm
    rhs = cs_rhs + HALF * bracket
    return InequalityParts(lhs=lhs, rhs=rhs, d_tilde=lhs - rhs, weak=lhs - cs_rhs, lagrange=lag)


def lagrange(a1, a2, a3, b1, b2, b3) -> LagrangeParts:
    """The classical Lagrange identity and the Cauchy-Schwarz difference;
    the Lagrange remainder is the sum of the ``cross_products`` squared.  The
    parts ``inequality`` builds on: (a1*b1+a2*b2+a3*b3)^2, |b|^2, ``crosses``."""
    anorm = a1**2 + a2**2 + a3**2
    bnorm = b1**2 + b2**2 + b3**2
    norms = anorm * bnorm
    dot_squared = (a1 * b1 + a2 * b2 + a3 * b3) ** 2
    crosses = cross_products(a1, a2, a3, b1, b2, b3)
    cross_sum = sum(cross**2 for _, cross in crosses)
    return LagrangeParts(
        norms, dot_squared + cross_sum, norms - dot_squared, dot_squared, bnorm, crosses
    )


def macro(a1, a2, a3, b1, b2, b3):
    """The macro change of variables as the triples ``(p, z)``.

    With x_i and y_i rewritten as monomials (x1 = a2*a3, y1 = b2*b3,
    cyclically), p_i = (x_i - y_i)*y_i and z_i = y_i^2.
    """
    x = (a2 * a3, a1 * a3, a1 * a2)
    y = (b2 * b3, b1 * b3, b1 * b2)
    return tuple((xi - yi) * yi for xi, yi in zip(x, y)), tuple(yi**2 for yi in y)


def c_values(p1, p2, p3):
    """c1, c2, c3 = p2^2 + p2*p3 + p3^2 and cyclically, over any ring."""
    return (
        p2 * p2 + p2 * p3 + p3 * p3,
        p1 * p1 + p1 * p3 + p3 * p3,
        p2 * p2 + p2 * p1 + p1 * p1,
    )


def d_value(p, z, c=None):
    """d = p1*p2*p3 + c1*z1 + c2*z2 + c3*z3 for triples ``p`` and ``z``; ``c``
    defaults to ``c_values(*p)``, and a caller holding ``p`` fixed may pass it."""
    c1, c2, c3 = c_values(*p) if c is None else c
    return p[0] * p[1] * p[2] + c1 * z[0] + c2 * z[1] + c3 * z[2]


def feasibility_value(p, z):
    """The feasibility product (p1+z1)(p2+z2)(p3+z3) for triples ``p`` and ``z``."""
    return (p[0] + z[0]) * (p[1] + z[1]) * (p[2] + z[2])


# Vertex case by the number of pinned coordinates (z_i = -p_i).
CASE_LABELS = ("iv", "iii", "ii", "i")


def case_value(label: str, q1, q2, q3):
    """Closed form of d at a vertex of case ``label``: three (i), two (ii),
    one (iii) or none (iv) of the z_i pinned at -p_i, with the p values
    permuted so the pinned ones come first as q1, q2, q3.  Case iv is the
    value of d at z = 0."""
    if label == "i":
        return -(q1 + q2) * (q1 + q3) * (q2 + q3)
    if label == "ii":
        return -q1 * q2 * (q1 + q2) - q1 * q2 * q3 + (-q1 - q2) * q3 * q3
    if label == "iii":
        return -q1 * (q2 * q2 + q3 * q3)
    if label == "iv":
        return q1 * q2 * q3
    raise StructuralError(f"unknown case {label!r}; valid: {', '.join(CASE_LABELS)}")


def k_form(k1, k2, k3, b1, b2, b3, c=HALF):
    """Difference of the inequality rewritten in the ratios k_i = a_i/b_i,

        (k1^2*b1^2+b2^2+b3^2)(k2^2*b2^2+b3^2+b1^2)(k3^2*b3^2+b1^2+b2^2)
          - (k1*b1^2+k2*b2^2+k3*b3^2)^2 (b1^2+b2^2+b3^2)
          - c * b1^2*b2^2*b3^2 [ (k1-k2)^2 + (k2-k3)^2 + (k1-k3)^2 ]

    with the bracket constant ``c``: a number, or the variable C of KBC,
    which turns sharpness of the constant into a polynomial statement in C.
    """
    lhs = (
        (k1**2 * b1**2 + b2**2 + b3**2)
        * (k2**2 * b2**2 + b3**2 + b1**2)
        * (k3**2 * b3**2 + b1**2 + b2**2)
    )
    dot = k1 * b1**2 + k2 * b2**2 + k3 * b3**2
    bnorm = b1**2 + b2**2 + b3**2
    bracket = (k1 - k2) ** 2 + (k2 - k3) ** 2 + (k1 - k3) ** 2
    return lhs - (dot**2 * bnorm + c * (b1 * b2 * b3) ** 2 * bracket)


# Each search target: name -> (VarSet, formula); d-k's takes the bracket constant too.
TARGETS = {
    "d-tilde": (AB, lambda *ab: inequality(*ab).d_tilde),
    "d-k": (KB, k_form),
    "weak": (AB, lambda *ab: inequality(*ab).weak),
    "cs": (AB, lambda *ab: lagrange(*ab).cs_diff),
}
TARGET_NAMES = tuple(TARGETS)


# -- the proof's identities: {check: [(component, lhs, rhs)]} per VarSet --------


def ab_identities(a1, a2, a3, b1, b2, b3):
    ineq = inequality(a1, a2, a3, b1, b2, b3)
    lag = ineq.lagrange
    p, z = macro(a1, a2, a3, b1, b2, b3)
    square = (a1 * a2 * a3 * b1 * b2 * b3) ** 2
    half_squares = sum(HALF * b**2 * cross**2 for b, cross in lag.crosses)
    return {
        "lagrange": [
            ("lagrange", lag.lagrange_lhs, lag.lagrange_rhs),
            ("cs-difference", lag.cs_diff, sum(cross**2 for _, cross in lag.crosses)),
        ],
        "key-identity": [("key-identity", (b1 * b2 * b3) ** 2 * ineq.d_tilde, d_value(p, z))],
        "constraint-factorization": [
            ("constraint-factorization", feasibility_value(p, z), square)
        ],
        "weak-implication": [("weak-implication", ineq.weak - ineq.d_tilde, half_squares)],
    }


def kb_identities(k1, k2, k3, b1, b2, b3):
    d_tilde = inequality(k1 * b1, k2 * b2, k3 * b3, b1, b2, b3).d_tilde
    return {"k-equivalence": [("k-equivalence", d_tilde, k_form(k1, k2, k3, b1, b2, b3))]}


def kbc_identities(k1, k2, k3, b1, b2, b3, c):
    remainder = (b1**2 + b2**2) * (b1**2 + b3**2) * (b2**2 + b3**2)
    expected = (1 - 2 * c) * (b1 * b2 * b3) ** 2 * k3**2 + remainder
    specialized = k_form(0, 0, k3, b1, b2, b3, c)
    return {"sharpness-reduction": [("sharpness-reduction", specialized, expected)]}


def macro_identities(p1, p2, p3, z1, z2, z3):
    p = (p1, p2, p3)
    case_ii = d_value(p, (-p1, -p2, 0))
    # case_ii = a*p3^2 + b*p3 - p1*p2*(p1+p2); the completed square shows its
    # discriminant b^2 + 4a*p1*p2*(p1+p2) is -p1*p2*(4p1^2 + 7p1p2 + 4p2^2).
    a, b = -(p1 + p2), -p1 * p2
    completed = (2 * a * p3 + b) ** 2 + p1 * p2 * (4 * p1**2 + 7 * p1 * p2 + 4 * p2**2)
    return {
        "case-formulas": [
            ("case-i", d_value(p, (-p1, -p2, -p3)), case_value("i", *p)),
            ("case-ii", case_ii, case_value("ii", *p)),
            ("case-ii-discriminant", 4 * a * case_ii, completed),
            ("case-iii", d_value(p, (-p1, 0, 0)), case_value("iii", *p)),
            ("case-iv", feasibility_value(p, (0, 0, 0)), case_value("iv", *p)),
        ]
    }


# Each check, in report order, and the VarSet whose identities state it.
CHECKS = {
    "lagrange": AB,
    "key-identity": AB,
    "constraint-factorization": AB,
    "k-equivalence": KB,
    "case-formulas": MACRO,
    "sharpness-reduction": KBC,
    "weak-implication": AB,
}


def identities(varset: VarSet):
    """The identities function of ``varset``, looked up when called."""
    return {
        AB: ab_identities, KB: kb_identities, KBC: kbc_identities, MACRO: macro_identities
    }[varset]


def build_identities(varset: VarSet) -> dict[str, list[tuple[str, Polynomial, Polynomial]]]:
    return identities(varset)(*variables(varset))
