"""Tests for the expression builders: every stated value is recomputed from
an independent hand oracle inside the test, never asserted blind."""

from fractions import Fraction
from pathlib import Path

import pytest

import helpers
from cstriple import corpus
from cstriple.explorer import resolve_target
from cstriple.poly import Polynomial, StructuralError

FIXTURES = Path(__file__).parent / "fixtures"

POINT_123 = {"a1": 1, "a2": 2, "a3": 3, "b1": 1, "b2": 1, "b3": 1}
POINT_ONES = {name: 1 for name in corpus.AB.names}


def test_d_tilde_vanishes_on_zero_factor_point():
    parts = corpus.build_inequality()
    point = {"a1": 1, "a2": 0, "a3": 0, "b1": 0, "b2": 1, "b3": 0}
    # the factor a2^2 + b3^2 + b1^2 vanishes, and so does every rhs term
    assert parts.lhs.evaluate(point) == 0
    assert parts.rhs.evaluate(point) == 0
    assert parts.d_tilde.evaluate(point) == 0


def test_d_tilde_equality_at_all_ones():
    parts = corpus.build_inequality()
    # lhs = 3^3 = 27, rhs = 3^2 * 3 + 0 = 27
    assert parts.lhs.evaluate(POINT_ONES) == 27
    assert parts.rhs.evaluate(POINT_ONES) == 27
    assert parts.d_tilde.evaluate(POINT_ONES) == 0


def test_d_tilde_hand_oracle_at_123():
    # lhs = (1+1+1)(4+1+1)(9+1+1) = 3*6*11 = 198
    # rhs = (1+2+3)^2 * 3 + 1/2 * ((2-3)^2 + (3-1)^2 + (1-2)^2) = 108 + 3 = 111
    parts = corpus.build_inequality()
    assert parts.lhs.evaluate(POINT_123) == 3 * 6 * 11
    assert parts.rhs.evaluate(POINT_123) == 36 * 3 + Fraction(1, 2) * (1 + 4 + 1)
    assert parts.d_tilde.evaluate(POINT_123) == 198 - 111


def test_lagrange_identity_and_cs_difference():
    parts = corpus.build_lagrange_and_cs()
    assert (parts.lagrange_lhs - parts.lagrange_rhs).is_zero()
    aligned = {"a1": 1, "a2": 0, "a3": 0, "b1": 1, "b2": 0, "b3": 0}
    orthogonal = {"a1": 1, "a2": 0, "a3": 0, "b1": 0, "b2": 1, "b3": 0}
    assert parts.cs_diff.evaluate(aligned) == 0
    assert parts.cs_diff.evaluate(orthogonal) == 1


def test_macro_substitution_images():
    images = corpus.build_macro_substitution()
    # z1 -> y1^2 = (b2*b3)^2
    assert images["z1"] == Polynomial.monomial(corpus.AB, {"b2": 2, "b3": 2})
    # p1 -> (x1 - y1)*y1 = a2*a3*b2*b3 - b2^2*b3^2
    expected = Polynomial.monomial(corpus.AB, {"a2": 1, "a3": 1, "b2": 1, "b3": 1}) - (
        Polynomial.monomial(corpus.AB, {"b2": 2, "b3": 2})
    )
    assert images["p1"] == expected
    # at a=(1,2,3), b=(1,1,1): x1 = 6, y1 = 1, so p1 = (6-1)*1 = 5
    assert images["p1"].evaluate(POINT_123) == 5


def test_macro_images_at_123_collapse_to_known_state():
    images = corpus.build_macro_substitution()
    values = {name: images[name].evaluate(POINT_123) for name in corpus.MACRO.names}
    # x = (6, 3, 2), y = (1, 1, 1): p = (5, 2, 1), z = (1, 1, 1)
    assert [values[f"p{i}"] for i in (1, 2, 3)] == [5, 2, 1]
    assert [values[f"z{i}"] for i in (1, 2, 3)] == [1, 1, 1]


def test_proof_polynomials_have_int_coefficients():
    lagrange = corpus.build_lagrange_and_cs()
    inequality = corpus.build_inequality()
    polys = [
        corpus.build_d(),
        corpus.build_constraint(),
        *corpus.build_macro_substitution().values(),
        lagrange.lagrange_lhs,
        lagrange.lagrange_rhs,
        inequality.lhs,
        inequality.weak,
    ]
    assert all(type(c) is int for poly in polys for c in poly.terms.values())


def test_d_values():
    d = corpus.build_d()
    assert d.evaluate({"p1": 0, "p2": 0, "p3": 0, "z1": 1, "z2": 1, "z3": 1}) == 0
    # c1 = 4+2+1 = 7, c2 = 25+5+1 = 31, c3 = 4+10+25 = 39; 10+7+31+39 = 87,
    # matching d_tilde at a=(1,2,3), b=(1,1,1) where y1*y2*y3 = 1
    assert d.evaluate({"p1": 5, "p2": 2, "p3": 1, "z1": 1, "z2": 1, "z3": 1}) == 87
    # case-(iii) shape: -p1*(p2^2 + p3^2) = 1*2 = 2
    assert d.evaluate({"p1": -1, "p2": -1, "p3": -1, "z1": 1, "z2": 0, "z3": 0}) == 2


def test_constraint_values_and_factorization():
    constraint = corpus.build_constraint()
    assert (
        constraint.evaluate({"p1": -1, "p2": -1, "p3": -1, "z1": 1, "z2": 1, "z3": 1})
        == 0
    )
    assert constraint.evaluate({"p1": 1, "p2": 1, "p3": 1, "z1": 0, "z2": 0, "z3": 0}) == 1
    image = constraint.substitute(corpus.build_macro_substitution())
    square = Polynomial.monomial(
        corpus.AB, {"a1": 2, "a2": 2, "a3": 2, "b1": 2, "b2": 2, "b3": 2}
    )
    assert image == square


def test_k_form_values():
    d_k = corpus.build_k_form()
    ones = {name: 1 for name in corpus.KB.names}
    assert d_k.evaluate(ones) == 0
    k123 = {"k1": 1, "k2": 2, "k3": 3, "b1": 1, "b2": 1, "b3": 1}
    assert d_k.evaluate(k123) == 87


def test_parametric_k_form_specializes_to_plain():
    parametric = corpus.build_k_form(parametric=True)
    assert parametric.varset == corpus.KBC
    fixed = parametric.substitute(helpers.constant_substitution(Fraction(1, 2)))
    assert fixed == corpus.build_k_form()


@pytest.mark.parametrize("c", [Fraction(1, 2), 5, Fraction(7, 3), 0, -1])
def test_k_form_with_constant_matches_parametric_substitution(c):
    parametric = corpus.build_k_form(parametric=True)
    expected = parametric.substitute(helpers.constant_substitution(c))
    assert corpus.build_k_form(c=c) == expected
    assert resolve_target("d-k", c) == expected


def test_parametric_k_form_takes_no_constant():
    with pytest.raises(StructuralError):
        corpus.build_k_form(parametric=True, c=1)


def test_weak_difference_drops_exactly_the_bracket():
    parts = corpus.build_inequality()
    weak, d_tilde = parts.weak, parts.d_tilde
    bracket = Polynomial.zero(corpus.AB)
    for b, cross in corpus.cross_products():
        bracket = bracket + Fraction(1, 2) * b**2 * cross**2
    assert weak - d_tilde == bracket
    # 198 - 108 = 90 and the all-ones equality point
    assert weak.evaluate(POINT_123) == 90
    assert weak.evaluate(POINT_ONES) == 0


def test_d_tilde_homogeneity_and_symmetries():
    helpers.check_dtilde_invariances()


def test_d_macro_permutation_invariance():
    helpers.check_d_permutation_invariance()


def test_builders_are_deterministic():
    assert corpus.build_inequality().d_tilde == corpus.build_inequality().d_tilde
    assert corpus.build_d() == corpus.build_d()
    assert corpus.build_constraint() == corpus.build_constraint()
    assert corpus.build_k_form(True) == corpus.build_k_form(True)
    first = corpus.build_macro_substitution()
    second = corpus.build_macro_substitution()
    assert set(first) == set(corpus.MACRO.names)
    assert all(first[n] == second[n] for n in corpus.MACRO.names)


GOLDEN = {
    "d_tilde.txt": (lambda: corpus.build_inequality().d_tilde, corpus.AB),
    "d.txt": (corpus.build_d, corpus.MACRO),
    "constraint.txt": (corpus.build_constraint, corpus.MACRO),
    "d_k.txt": (corpus.build_k_form, corpus.KB),
    "d_k_parametric.txt": (lambda: corpus.build_k_form(True), corpus.KBC),
    "weak_difference.txt": (lambda: corpus.build_inequality().weak, corpus.AB),
}


def test_golden_polynomial_fixtures():
    for filename, (builder, varset) in GOLDEN.items():
        poly = builder()
        text = (FIXTURES / filename).read_text(encoding="utf-8").strip()
        assert str(poly) == text, f"{filename} drifted"
        assert poly.varset == varset
