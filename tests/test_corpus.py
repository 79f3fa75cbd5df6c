"""Tests for the corpus formulas: every stated value is recomputed from
an independent hand oracle inside the test, never asserted blind."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
from cstriple import corpus
from cstriple.explorer import resolve_target
from cstriple.poly import Polynomial

FIXTURES = Path(__file__).parent / "fixtures"

POINT_123 = {"a1": 1, "a2": 2, "a3": 3, "b1": 1, "b2": 1, "b3": 1}
POINT_ONES = {name: 1 for name in corpus.AB.names}


def test_d_tilde_vanishes_on_zero_factor_point():
    parts = helpers.inequality_parts()
    point = {"a1": 1, "a2": 0, "a3": 0, "b1": 0, "b2": 1, "b3": 0}
    # the factor a2^2 + b3^2 + b1^2 vanishes, and so does every rhs term
    assert parts.lhs.evaluate(point) == 0
    assert parts.rhs.evaluate(point) == 0
    assert parts.d_tilde.evaluate(point) == 0


def test_d_tilde_equality_at_all_ones():
    parts = helpers.inequality_parts()
    # lhs = 3^3 = 27, rhs = 3^2 * 3 + 0 = 27
    assert parts.lhs.evaluate(POINT_ONES) == 27
    assert parts.rhs.evaluate(POINT_ONES) == 27
    assert parts.d_tilde.evaluate(POINT_ONES) == 0


def test_d_tilde_hand_oracle_at_123():
    # lhs = (1+1+1)(4+1+1)(9+1+1) = 3*6*11 = 198
    # rhs = (1+2+3)^2 * 3 + 1/2 * ((2-3)^2 + (3-1)^2 + (1-2)^2) = 108 + 3 = 111
    parts = helpers.inequality_parts()
    assert parts.lhs.evaluate(POINT_123) == 3 * 6 * 11
    assert parts.rhs.evaluate(POINT_123) == 36 * 3 + Fraction(1, 2) * (1 + 4 + 1)
    assert parts.d_tilde.evaluate(POINT_123) == 198 - 111


def test_lagrange_identity_and_cs_difference():
    parts = helpers.lagrange_parts()
    assert (parts.lagrange_lhs - parts.lagrange_rhs).is_zero()
    aligned = {"a1": 1, "a2": 0, "a3": 0, "b1": 1, "b2": 0, "b3": 0}
    orthogonal = {"a1": 1, "a2": 0, "a3": 0, "b1": 0, "b2": 1, "b3": 0}
    assert parts.cs_diff.evaluate(aligned) == 0
    assert parts.cs_diff.evaluate(orthogonal) == 1


def test_macro_substitution_images():
    p, z = helpers.macro_images()
    _, a2, a3, _, b2, b3 = corpus.variables(corpus.AB)
    # z1 = y1^2 = (b2*b3)^2
    assert z[0] == b2**2 * b3**2
    # p1 = (x1 - y1)*y1 = a2*a3*b2*b3 - b2^2*b3^2
    assert p[0] == a2 * a3 * b2 * b3 - b2**2 * b3**2
    # at a=(1,2,3), b=(1,1,1): x1 = 6, y1 = 1, so p1 = (6-1)*1 = 5
    assert p[0].evaluate(POINT_123) == 5


def test_macro_images_at_123_collapse_to_known_state():
    p, z = helpers.macro_images()
    # x = (6, 3, 2), y = (1, 1, 1): p = (5, 2, 1), z = (1, 1, 1)
    assert [image.evaluate(POINT_123) for image in p] == [5, 2, 1]
    assert [image.evaluate(POINT_123) for image in z] == [1, 1, 1]
    assert corpus.macro(*POINT_123.values()) == ((5, 2, 1), (1, 1, 1))


def test_proof_polynomials_have_int_coefficients():
    lagrange = helpers.lagrange_parts()
    inequality = helpers.inequality_parts()
    p, z = helpers.macro_images()
    polys = [
        corpus.d_value(*helpers.macro_triples()),
        corpus.feasibility_value(*helpers.macro_triples()),
        *p,
        *z,
        lagrange.lagrange_lhs,
        lagrange.lagrange_rhs,
        inequality.lhs,
        inequality.weak,
    ]
    assert all(type(c) is int for poly in polys for c in poly.terms.values())


def test_d_values():
    d = corpus.d_value(*helpers.macro_triples())
    assert d.evaluate({"p1": 0, "p2": 0, "p3": 0, "z1": 1, "z2": 1, "z3": 1}) == 0
    # c1 = 4+2+1 = 7, c2 = 25+5+1 = 31, c3 = 4+10+25 = 39; 10+7+31+39 = 87,
    # matching d_tilde at a=(1,2,3), b=(1,1,1) where y1*y2*y3 = 1
    assert d.evaluate({"p1": 5, "p2": 2, "p3": 1, "z1": 1, "z2": 1, "z3": 1}) == 87
    # case-(iii) shape: -p1*(p2^2 + p3^2) = 1*2 = 2
    assert d.evaluate({"p1": -1, "p2": -1, "p3": -1, "z1": 1, "z2": 0, "z3": 0}) == 2
    # At z = 0, d is p1*p2*p3 for every p: a positive product needs no lowering.
    (p1, p2, p3), _ = helpers.macro_triples()
    assert corpus.d_value((p1, p2, p3), (0, 0, 0)) == p1 * p2 * p3


def test_d_value_with_its_c_passed_in_is_the_same_value():
    # A caller holding p fixed passes c_values(*p) once; in every ring the
    # value, and its type, is that of the default.
    rng = random.Random(28)
    triples = [helpers.macro_triples()]
    for _ in range(100):
        triples.append(([rng.randint(-9, 9) for _ in range(3)],
                        [rng.randint(0, 9) for _ in range(3)]))
        triples.append(([helpers.rand_fraction(rng, 9) for _ in range(3)],
                        [abs(helpers.rand_fraction(rng, 9)) for _ in range(3)]))
    for p, z in triples:
        given, default = corpus.d_value(p, z, corpus.c_values(*p)), corpus.d_value(p, z)
        assert given == default and type(given) is type(default)
    # The c passed in is the one used: d = 1 + 5*z1 at p = (1, 1, 1), c = (5, 0, 0).
    assert corpus.d_value((1, 1, 1), (1, 1, 1), (5, 0, 0)) == 6


def test_constraint_values_and_factorization():
    constraint = corpus.feasibility_value(*helpers.macro_triples())
    assert (
        constraint.evaluate({"p1": -1, "p2": -1, "p3": -1, "z1": 1, "z2": 1, "z3": 1})
        == 0
    )
    assert constraint.evaluate({"p1": 1, "p2": 1, "p3": 1, "z1": 0, "z2": 0, "z3": 0}) == 1
    p, z = helpers.macro_images()
    image = corpus.feasibility_value(p, z)
    a1, a2, a3, b1, b2, b3 = corpus.variables(corpus.AB)
    assert image == a1**2 * a2**2 * a3**2 * b1**2 * b2**2 * b3**2
    # function application is the change of variables substitute makes
    assert constraint.substitute(dict(zip(corpus.MACRO.names, p + z))) == image


def test_k_form_values():
    d_k = helpers.k_form_polynomial()
    ones = {name: 1 for name in corpus.KB.names}
    assert d_k.evaluate(ones) == 0
    k123 = {"k1": 1, "k2": 2, "k3": 3, "b1": 1, "b2": 1, "b3": 1}
    assert d_k.evaluate(k123) == 87


def test_parametric_k_form_specializes_to_plain():
    parametric = corpus.k_form(*corpus.variables(corpus.KBC))
    assert parametric.varset == corpus.KBC
    fixed = parametric.substitute(helpers.constant_substitution(Fraction(1, 2)))
    assert fixed == helpers.k_form_polynomial()


@pytest.mark.parametrize("c", [Fraction(1, 2), 5, Fraction(7, 3), 0, -1])
def test_k_form_with_constant_matches_parametric_substitution(c):
    parametric = corpus.k_form(*corpus.variables(corpus.KBC))
    expected = parametric.substitute(helpers.constant_substitution(c))
    assert helpers.k_form_polynomial(c) == expected
    assert resolve_target("d-k", c) == expected


def test_parametric_k_form_takes_no_constant():
    # The variable C is the constant of the parametric k-form: there is no
    # seventh slot left for a number, and no parametric switch.
    with pytest.raises(TypeError):
        corpus.k_form(*corpus.variables(corpus.KBC), 1)
    with pytest.raises(TypeError):
        corpus.k_form(*corpus.variables(corpus.KB), parametric=True)


def test_weak_difference_drops_exactly_the_bracket():
    parts = helpers.inequality_parts()
    weak, d_tilde = parts.weak, parts.d_tilde
    bracket = Polynomial(corpus.AB)
    for b, cross in corpus.cross_products(*corpus.variables(corpus.AB)):
        bracket = bracket + Fraction(1, 2) * b**2 * cross**2
    assert weak - d_tilde == bracket
    # 198 - 108 = 90 and the all-ones equality point
    assert weak.evaluate(POINT_123) == 90
    assert weak.evaluate(POINT_ONES) == 0


def test_builders_are_deterministic():
    assert helpers.inequality_parts().d_tilde == helpers.inequality_parts().d_tilde
    assert corpus.d_value(*helpers.macro_triples()) == corpus.d_value(*helpers.macro_triples())
    assert helpers.k_form_polynomial() == helpers.k_form_polynomial()
    assert helpers.lagrange_parts() == helpers.lagrange_parts()
    first, second = helpers.macro_images(), helpers.macro_images()
    assert [len(triple) for triple in first] == [3, 3]
    assert first == second


GOLDEN = {
    "d_tilde.txt": (lambda: helpers.inequality_parts().d_tilde, corpus.AB),
    "d.txt": (lambda: corpus.d_value(*helpers.macro_triples()), corpus.MACRO),
    "constraint.txt": (lambda: corpus.feasibility_value(*helpers.macro_triples()), corpus.MACRO),
    "d_k.txt": (helpers.k_form_polynomial, corpus.KB),
    "d_k_parametric.txt": (lambda: corpus.k_form(*corpus.variables(corpus.KBC)), corpus.KBC),
    "weak_difference.txt": (lambda: helpers.inequality_parts().weak, corpus.AB),
}


def test_golden_polynomial_fixtures():
    for filename, (builder, varset) in GOLDEN.items():
        poly = builder()
        text = (FIXTURES / filename).read_text(encoding="utf-8").strip()
        assert str(poly) == text, f"{filename} drifted"
        assert poly.varset == varset


def _flat(value) -> list:
    """The numbers or polynomials of a formula's result, nested tuples
    (NamedTuples included) read in order."""
    if isinstance(value, tuple):
        return [x for item in value for x in _flat(item)]
    return [value]


# name -> (VarSet, the formula, its build over the VarSet's variables)
FORMULAS = {
    "inequality": (corpus.AB, corpus.inequality, helpers.inequality_parts),
    "lagrange": (corpus.AB, corpus.lagrange, helpers.lagrange_parts),
    "macro": (corpus.AB, corpus.macro, helpers.macro_images),
    "k_form-c5": (
        corpus.KB, lambda *kb: corpus.k_form(*kb, 5), lambda: helpers.k_form_polynomial(5)
    ),
    "k_form-C": (
        corpus.KBC, corpus.k_form, lambda: corpus.k_form(*corpus.variables(corpus.KBC))
    ),
}


@pytest.mark.parametrize("name", FORMULAS)
def test_formula_on_numbers_equals_its_built_polynomial_evaluated(name):
    # One formula, any ring: on Fractions it is the value of its expansion.
    varset, formula, build = FORMULAS[name]
    built = _flat(build())
    assert all(isinstance(poly, Polynomial) and poly.varset == varset for poly in built)
    rng = random.Random(name)
    for _ in range(40):
        values = [helpers.rand_fraction(rng, 20) for _ in varset.names]
        point = dict(zip(varset.names, values))
        assert _flat(formula(*values)) == [poly.evaluate(point) for poly in built]
