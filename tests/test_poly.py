"""Unit and property tests for the exact polynomial kernel."""

import random
from fractions import Fraction

import pytest

import helpers
from cstriple.poly import (
    Polynomial,
    StructuralError,
    Substitution,
    VarSet,
    compile_evaluator,
    format_polynomial,
    parse_polynomial,
)

XY = VarSet(("x", "y"))
X1Y1 = VarSet(("x1", "y1"))


def test_varset_rejects_duplicates_and_bad_names():
    with pytest.raises(StructuralError):
        VarSet(("x", "x"))
    with pytest.raises(StructuralError):
        VarSet(())
    with pytest.raises(StructuralError):
        VarSet(("2x",))


def test_normalize_cancellation_to_zero():
    poly = Polynomial(XY, [((2, 0), 1), ((2, 0), -1)])
    assert poly.is_zero()
    assert poly.terms == {}


def test_normalize_merges_like_monomials():
    poly = Polynomial(XY, [((1, 0), 2), ((1, 0), 3)])
    assert poly == Polynomial(XY, {(1, 0): 5})


def test_normalize_drops_explicit_zero_terms():
    poly = Polynomial(XY, [((1, 1), Fraction(1, 2)), ((0, 0), 0)])
    assert poly.terms == {(1, 1): Fraction(1, 2)}


def test_constructor_rejects_bad_exponent_vectors():
    with pytest.raises(StructuralError):
        Polynomial(XY, [((1, 0, 0), 1)])
    with pytest.raises(StructuralError):
        Polynomial(XY, [((-1, 0), 1)])


def test_difference_of_squares():
    x = Polynomial.variable(XY, "x")
    y = Polynomial.variable(XY, "y")
    assert (x + y) * (x - y) == x**2 - y**2


def test_binomial_square_and_power_zero():
    x = Polynomial.variable(XY, "x")
    assert (x + 1) ** 2 == x**2 + 2 * x + 1
    assert (x + 1) ** 0 == Polynomial.constant(XY, 1)
    with pytest.raises(StructuralError):
        (x + 1) ** -1


def test_dot_product_square_has_six_terms():
    # (a1*b1 + a2*b2 + a3*b3)^2: three squares plus the 3 = C(3,2) cross
    # terms 2*a_i*b_i*a_j*b_j, all distinct monomials.
    varset = VarSet(("a1", "a2", "a3", "b1", "b2", "b3"))
    dot = Polynomial.zero(varset)
    for i in (1, 2, 3):
        dot = dot + Polynomial.monomial(varset, {f"a{i}": 1, f"b{i}": 1})
    assert (dot**2).term_count == 3 + 3


def test_arith_rejects_varset_mismatch():
    p = Polynomial.variable(XY, "x")
    q = Polynomial.variable(X1Y1, "x1")
    with pytest.raises(StructuralError):
        p + q
    with pytest.raises(StructuralError):
        p * q


def test_substitute_macro_product_example():
    source = VarSet(("x1", "x2", "x3"))
    target = VarSet(("a1", "a2", "a3"))
    images = {
        "x1": Polynomial.monomial(target, {"a2": 1, "a3": 1}),
        "x2": Polynomial.monomial(target, {"a1": 1, "a3": 1}),
        "x3": Polynomial.monomial(target, {"a1": 1, "a2": 1}),
    }
    sub = Substitution(source, target, images)
    product = Polynomial.monomial(source, {"x1": 1, "x2": 1, "x3": 1})
    assert product.substitute(sub) == Polynomial.monomial(
        target, {"a1": 2, "a2": 2, "a3": 2}
    )


def test_substitute_collapses_p_plus_z():
    source = VarSet(("p1", "z1"))
    x1 = Polynomial.variable(X1Y1, "x1")
    y1 = Polynomial.variable(X1Y1, "y1")
    sub = Substitution(source, X1Y1, {"p1": (x1 - y1) * y1, "z1": y1**2})
    p_plus_z = Polynomial.variable(source, "p1") + Polynomial.variable(source, "z1")
    assert p_plus_z.substitute(sub) == x1 * y1


def test_identity_substitution_is_identity():
    rng = random.Random(11)
    sub = Substitution.identity(helpers.XYZW)
    for _ in range(20):
        poly = helpers.rand_polynomial(rng)
        assert poly.substitute(sub) == poly


def test_substitution_requires_every_image():
    with pytest.raises(StructuralError):
        Substitution(XY, XY, {"x": Polynomial.variable(XY, "x")})
    with pytest.raises(StructuralError):
        Substitution(
            XY,
            XY,
            {
                "x": Polynomial.variable(XY, "x"),
                "y": Polynomial.variable(XY, "y"),
                "extra": Polynomial.variable(XY, "x"),
            },
        )


def test_substitute_requires_matching_source():
    sub = Substitution.identity(XY)
    poly = Polynomial.variable(X1Y1, "x1")
    with pytest.raises(StructuralError):
        poly.substitute(sub)


def test_evaluate_examples():
    x = Polynomial.variable(XY, "x")
    y = Polynomial.variable(XY, "y")
    assert (x**2 + y**2).evaluate({"x": 3, "y": 4}) == 25
    assert Polynomial.zero(XY).evaluate({"x": 17, "y": -5}) == 0
    with pytest.raises(StructuralError):
        (x + y).evaluate({"x": 1})


def test_homogeneous_degree():
    x = Polynomial.variable(XY, "x")
    y = Polynomial.variable(XY, "y")
    assert (x**2 * y + y**3).homogeneous_degree() == 3
    assert (x + 1).homogeneous_degree() is None
    with pytest.raises(StructuralError):
        Polynomial.zero(XY).homogeneous_degree()


def test_coefficient_of_extracts_quadratic_coefficients():
    x = Polynomial.variable(XY, "x")
    y = Polynomial.variable(XY, "y")
    quadratic = (2 * y + 1) * x**2 + 5 * x - y**3
    assert quadratic.coefficient_of("x", 2) == 2 * y + 1
    assert quadratic.coefficient_of("x", 1) == Polynomial.constant(XY, 5)
    assert quadratic.coefficient_of("x", 0) == -(y**3)


def test_format_examples():
    varset = VarSet(("a1", "b2", "b3"))
    poly = Polynomial.monomial(varset, {"a1": 2, "b2": 2}, 3) + Polynomial.monomial(
        varset, {"b3": 4}, Fraction(-1, 2)
    )
    assert format_polynomial(poly) == "3*a1^2*b2^2 - 1/2*b3^4"
    assert str(Polynomial.zero(varset)) == "0"
    assert str(Polynomial.constant(varset, Fraction(-3, 7))) == "-3/7"
    x = Polynomial.variable(varset, "a1")
    assert str(x - 1) == "a1 - 1"
    assert str(-x) == "-a1"


def test_parse_examples():
    varset = VarSet(("a1", "b2", "b3"))
    parsed = parse_polynomial("3*a1^2*b2^2 - 1/2*b3^4", varset)
    expected = Polynomial.monomial(varset, {"a1": 2, "b2": 2}, 3) + Polynomial.monomial(
        varset, {"b3": 4}, Fraction(-1, 2)
    )
    assert parsed == expected
    assert parse_polynomial("0", varset).is_zero()
    assert parse_polynomial("1*a1 + 1", varset) == Polynomial.variable(varset, "a1") + 1
    assert parse_polynomial("a1*a1", varset) == Polynomial.monomial(varset, {"a1": 2})
    with pytest.raises(StructuralError):
        parse_polynomial("a1 + q7", varset)
    with pytest.raises(StructuralError):
        parse_polynomial("a1 ++ 1", varset)
    with pytest.raises(StructuralError):
        parse_polynomial("", varset)


def test_format_parse_round_trip_random():
    rng = random.Random(321)
    for _ in range(200):
        poly = helpers.rand_polynomial(rng)
        assert parse_polynomial(format_polynomial(poly), poly.varset) == poly


def test_sorted_terms_graded_lex_descending():
    x = Polynomial.variable(XY, "x")
    y = Polynomial.variable(XY, "y")
    poly = y**3 + x * y + x**2 + 1
    order = [mono for mono, _ in poly.sorted_terms()]
    assert order == [(0, 3), (2, 0), (1, 1), (0, 0)]


def test_normalization_is_idempotent():
    rng = random.Random(17)
    for _ in range(100):
        poly = helpers.rand_polynomial(rng)
        assert Polynomial(poly.varset, poly.terms) == poly


def test_ring_axioms_thousand_triples():
    assert helpers.check_ring_axioms(triples=1000) == 1000


def test_substitution_homomorphism_five_hundred_cases():
    assert helpers.check_substitution_homomorphism(cases=500) == 500


def test_eval_subst_commutation_five_hundred_cases():
    assert helpers.check_eval_subst_commutation(cases=500) == 500


def test_compiled_evaluator_matches_reference():
    rng = random.Random(1234)
    for _ in range(300):
        poly = helpers.rand_polynomial(rng)
        evaluate = compile_evaluator(poly)
        point = helpers.rand_point(rng, poly.varset)
        ordered = [point[name] for name in poly.varset.names]
        assert evaluate(ordered) == poly.evaluate(point)
    with pytest.raises(StructuralError):
        compile_evaluator(Polynomial.variable(XY, "x"))([Fraction(1)])
