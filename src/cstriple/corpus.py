"""Constructors for every polynomial the toolkit reasons about.

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

(each quotient is a monomial, so every image below is an honest polynomial
and the whole pipeline stays denominator-free), the collapsed form

    d = p1*p2*p3 + c1*z1 + c2*z2 + c3*z3,
    c1 = p2^2 + p2*p3 + p3^2   (and cyclically),

the feasibility product (p1+z1)(p2+z2)(p3+z3), and the single-ratio form in
k_i = a_i/b_i whose sharpness constant can be left symbolic.

``c_values``, ``d_value``, ``feasibility_value`` and ``case_value`` are the
single definition of c_i, d, the feasibility product and the four
vertex-case closed forms.  They are plain arithmetic over any ring values:
the verifier applies them to MACRO polynomials and proves them, the
explorer applies them to Fractions and ints and runs them.

Each builder unpacks ``variables(varset)``, the variables in VarSet order.
``InequalityParts.weak`` drops the bracket, read off d_tilde's own build.

``TARGET_NAMES`` lists the polynomials ``cstriple search`` can sample, by
the names ``explorer.resolve_target`` looks up.

All builders are pure and deterministic: repeated calls return identical
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

TARGET_NAMES = ("d-tilde", "d-k", "weak", "cs")


def variables(varset: VarSet) -> tuple[Polynomial, ...]:
    """Every variable of ``varset`` as a Polynomial, in VarSet order."""
    return tuple(Polynomial.variable(varset, name) for name in varset.names)


class InequalityParts(NamedTuple):
    lhs: Polynomial
    rhs: Polynomial
    d_tilde: Polynomial
    weak: Polynomial


class LagrangeParts(NamedTuple):
    lagrange_lhs: Polynomial
    lagrange_rhs: Polynomial
    cs_diff: Polynomial


def cross_products() -> list[tuple[Polynomial, Polynomial]]:
    """The three (b_i, cross_i) pairs of the bracket term.

    cross_1 = a2*b3 - a3*b2 and cyclically; the bracket of the inequality
    is (1/2) * sum b_i^2 * cross_i^2.
    """
    a1, a2, a3, b1, b2, b3 = variables(AB)
    return [
        (b1, a2 * b3 - a3 * b2),
        (b2, a3 * b1 - a1 * b3),
        (b3, a1 * b2 - a2 * b1),
    ]


def build_inequality() -> InequalityParts:
    """Left side, right side, and difference of the three-factor inequality,
    and ``weak``: lhs - (a1*b1+a2*b2+a3*b3)^2 (b1^2+b2^2+b3^2), no bracket."""
    a1, a2, a3, b1, b2, b3 = variables(AB)
    lhs = (a1**2 + b2**2 + b3**2) * (a2**2 + b3**2 + b1**2) * (a3**2 + b1**2 + b2**2)
    dot = a1 * b1 + a2 * b2 + a3 * b3
    bnorm = b1**2 + b2**2 + b3**2
    bracket = Polynomial.zero(AB)
    for b, cross in cross_products():
        bracket = bracket + b**2 * cross**2
    cs_rhs = dot**2 * bnorm
    rhs = cs_rhs + HALF * bracket
    return InequalityParts(lhs=lhs, rhs=rhs, d_tilde=lhs - rhs, weak=lhs - cs_rhs)


def build_lagrange_and_cs() -> LagrangeParts:
    """The classical Lagrange identity and the Cauchy-Schwarz difference;
    the Lagrange remainder is the sum of the ``cross_products`` squared."""
    a1, a2, a3, b1, b2, b3 = variables(AB)
    anorm = a1**2 + a2**2 + a3**2
    bnorm = b1**2 + b2**2 + b3**2
    dot = a1 * b1 + a2 * b2 + a3 * b3
    cross_sum = sum((cross**2 for _, cross in cross_products()), Polynomial.zero(AB))
    return LagrangeParts(
        lagrange_lhs=anorm * bnorm,
        lagrange_rhs=dot**2 + cross_sum,
        cs_diff=anorm * bnorm - dot**2,
    )


def build_macro_substitution() -> dict[str, Polynomial]:
    """The macro change of variables MACRO -> AB, as the images that
    ``Polynomial.substitute`` takes.

    With x_i and y_i rewritten as monomials (x1 = a2*a3, y1 = b2*b3,
    cyclically), the images are

        p_i -> (x_i - y_i)*y_i      z_i -> y_i^2.
    """
    a1, a2, a3, b1, b2, b3 = variables(AB)
    x = [a2 * a3, a1 * a3, a1 * a2]
    y = [b2 * b3, b1 * b3, b1 * b2]
    images = {}
    for i in range(3):
        images[f"p{i + 1}"] = (x[i] - y[i]) * y[i]
        images[f"z{i + 1}"] = y[i] ** 2
    return images


def c_values(p1, p2, p3):
    """c1, c2, c3 = p2^2 + p2*p3 + p3^2 and cyclically, over any ring."""
    return (
        p2 * p2 + p2 * p3 + p3 * p3,
        p1 * p1 + p1 * p3 + p3 * p3,
        p2 * p2 + p2 * p1 + p1 * p1,
    )


def d_value(p, z):
    """d = p1*p2*p3 + c1*z1 + c2*z2 + c3*z3 for triples ``p`` and ``z``."""
    c1, c2, c3 = c_values(*p)
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


def build_d() -> Polynomial:
    """The collapsed difference d = p1*p2*p3 + c1*z1 + c2*z2 + c3*z3."""
    p1, p2, p3, z1, z2, z3 = variables(MACRO)
    return d_value((p1, p2, p3), (z1, z2, z3))


def build_constraint() -> Polynomial:
    """The feasibility product (p1+z1)(p2+z2)(p3+z3)."""
    p1, p2, p3, z1, z2, z3 = variables(MACRO)
    return feasibility_value((p1, p2, p3), (z1, z2, z3))


def build_k_form(parametric: bool = False, c: Fraction | int | None = None) -> Polynomial:
    """Difference of the inequality rewritten in the ratios k_i = a_i/b_i.

        (k1^2*b1^2+b2^2+b3^2)(k2^2*b2^2+b3^2+b1^2)(k3^2*b3^2+b1^2+b2^2)
          - (k1*b1^2+k2*b2^2+k3*b3^2)^2 (b1^2+b2^2+b3^2)
          - c * b1^2*b2^2*b3^2 [ (k1-k2)^2 + (k2-k3)^2 + (k1-k3)^2 ]

    over KB, with the bracket constant ``c`` (default 1/2).  With
    ``parametric`` the constant is instead the variable C of KBC (a genuine
    degree-1 symbol), which turns sharpness of the constant into a
    polynomial statement in C.
    """
    if parametric and c is not None:
        raise StructuralError("a parametric k-form takes no bracket constant")
    k1, k2, k3, b1, b2, b3, *symbol = variables(KBC if parametric else KB)
    lhs = (
        (k1**2 * b1**2 + b2**2 + b3**2)
        * (k2**2 * b2**2 + b3**2 + b1**2)
        * (k3**2 * b3**2 + b1**2 + b2**2)
    )
    dot = k1 * b1**2 + k2 * b2**2 + k3 * b3**2
    bnorm = b1**2 + b2**2 + b3**2
    bracket = (k1 - k2) ** 2 + (k2 - k3) ** 2 + (k1 - k3) ** 2
    constant = symbol[0] if parametric else Polynomial.constant(KB, HALF if c is None else c)
    rhs = dot**2 * bnorm + constant * (b1 * b2 * b3) ** 2 * bracket
    return lhs - rhs

