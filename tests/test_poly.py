"""Unit and property tests for the exact polynomial kernel."""

import random
from enum import IntEnum
from fractions import Fraction

import pytest

import helpers
from cstriple.explorer import compile_evaluator
from cstriple.poly import (
    Polynomial,
    PreconditionError,
    StructuralError,
    VarSet,
    format_polynomial,
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
    with pytest.raises(StructuralError, match=r"^unknown variable 'q'$"):
        Polynomial.variable(XY, "q")


def test_normalize_cancellation_to_zero():
    x = Polynomial.variable(XY, "x")
    poly = x**2 - x**2
    assert poly.is_zero()
    assert poly.terms == {}
    assert poly == Polynomial(XY)


def test_normalize_merges_like_monomials():
    x = Polynomial.variable(XY, "x")
    poly = 2 * x + 3 * x
    assert poly == Polynomial(XY, {(1, 0): 5})


def test_normalize_drops_explicit_zero_terms():
    poly = Polynomial(XY, {(1, 1): Fraction(1, 2), (0, 0): 0})
    assert poly.terms == {(1, 1): Fraction(1, 2)}
    assert Polynomial(XY, {(1, 0): 0, (0, 1): Fraction(0)}).terms == {}


def test_constructor_rejects_bad_exponent_vectors():
    with pytest.raises(StructuralError):
        Polynomial(XY, {(1, 0, 0): 1})
    with pytest.raises(StructuralError):
        Polynomial(XY, {(-1, 0): 1})


def test_constructor_refuses_exponents_that_are_not_ints():
    x = VarSet(("x",))
    # The string is not compared with 0 first (a TypeError), and True is
    # not taken for the exponent 1.
    for mono in (("1",), (True,), (1.0,), (None,)):
        with pytest.raises(StructuralError):
            Polynomial(x, {mono: 1})


def test_coefficients_refuse_what_is_not_an_exact_rational():
    # 0.1 is not taken for 3602879701896397/36028797018963968, True not for 1.
    for bad in (0.1, True, "abc", "1/0", None):
        with pytest.raises(PreconditionError):
            Polynomial.constant(XY, bad)
        with pytest.raises(PreconditionError):
            Polynomial(XY, {(1, 0): bad})
    assert Polynomial.constant(XY, 2).terms == {(0, 0): Fraction(2)}


def test_evaluate_refuses_what_is_not_an_exact_rational():
    x = Polynomial.variable(XY, "x")
    for bad in (0.1, False, "abc", "1/0"):
        with pytest.raises(PreconditionError):
            x.evaluate({"x": bad, "y": 1})
    value = x.evaluate({"x": Fraction(1, 10), "y": 0})
    assert value == Fraction(1, 10) and type(value) is Fraction
    assert type(x.evaluate({"x": 3, "y": 0})) is Fraction


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


def test_power_refuses_a_bool_exponent():
    # As the constructor refuses the exponent (True,), x ** True is not x
    # and x ** False is not 1; an IntEnum member is no int either.
    x = Polynomial.variable(XY, "x")
    for bad in (True, False, IntEnum("N", {"TWO": 2}).TWO):
        with pytest.raises(StructuralError):
            x**bad


def test_power_is_the_repeated_product_and_never_multiplies_by_one(monkeypatch):
    x = Polynomial.variable(XY, "x")
    y = Polynomial.variable(XY, "y")
    base = 2 * x - Fraction(1, 3) * y + 1
    one = Polynomial.constant(XY, 1)
    mul = Polynomial.__mul__
    products = []

    def counting_mul(self, other):
        products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    expected = one
    for n in range(10):
        products.clear()
        assert base**n == expected
        assert not any(one in pair for pair in products)
        # the repeated product, starting from base itself
        assert len(products) == max(n - 1, 0)
        expected = mul(expected, base)


def test_integer_coefficients_stay_int():
    x = Polynomial.variable(XY, "x")
    y = Polynomial.variable(XY, "y")
    poly = (x - 2 * y + 3) ** 4 * (x + y) - 5 * x
    assert all(type(c) is int for c in poly.terms.values())
    # evaluate is exact over the rationals: a Fraction even at an int point
    assert type(poly.evaluate({"x": 2, "y": -1})) is Fraction
    assert type(Polynomial(XY).evaluate({"x": 1, "y": 1})) is Fraction
    # a Fraction with denominator 1 is the same coefficient as its int
    for as_int, as_fraction in (
        (Polynomial.constant(XY, 3), Polynomial.constant(XY, Fraction(3))),
        (poly, Polynomial(XY, {m: Fraction(c) for m, c in poly.terms.items()})),
    ):
        assert as_int == as_fraction
        assert hash(as_int) == hash(as_fraction)
        assert str(as_int) == str(as_fraction)


def test_dot_product_square_has_six_terms():
    # (a1*b1 + a2*b2 + a3*b3)^2: three squares plus the 3 = C(3,2) cross
    # terms 2*a_i*b_i*a_j*b_j, all distinct monomials.
    varset = VarSet(("a1", "a2", "a3", "b1", "b2", "b3"))
    a1, a2, a3, b1, b2, b3 = (Polynomial.variable(varset, name) for name in varset.names)
    dot = a1 * b1 + a2 * b2 + a3 * b3
    assert (dot**2).term_count == 3 + 3


def test_arith_rejects_varset_mismatch():
    p = Polynomial.variable(XY, "x")
    q = Polynomial.variable(X1Y1, "x1")
    with pytest.raises(StructuralError):
        p + q
    with pytest.raises(StructuralError):
        p * q
    # An equal VarSet that is another object is the same variable set.
    twin = Polynomial.variable(VarSet(("x", "y")), "y")
    assert p * twin == Polynomial(XY, {(1, 1): 1})


def test_scalar_operands_act_as_the_constant_polynomial():
    rng = random.Random(1515)
    for _ in range(300):
        p = helpers.rand_polynomial(rng)
        for c in (rng.randint(-9, 9), helpers.rand_fraction(rng, 9)):
            const = Polynomial.constant(p.varset, c)
            assert p * c == p * const
            assert c * p == const * p
            assert p + c == p + const
            assert c + p == const + p
            assert p - c == p - const
            assert c - p == const - p
        for zero in (0, Fraction(0)):
            assert (p * zero).terms == {}
            assert (zero * p).terms == {}
            assert p + zero == p
            assert zero - p == -p


def test_scalar_operands_refuse_bools_and_floats():
    x = Polynomial.variable(XY, "x")
    for combine in (
        lambda: x * True,
        lambda: True * x,
        lambda: x + True,
        lambda: x - False,
        lambda: False - x,
    ):
        with pytest.raises(PreconditionError):
            combine()
    for combine in (lambda: x * 1.5, lambda: 1.5 * x, lambda: x + 0.5):
        with pytest.raises(TypeError):
            combine()


def test_substitute_macro_product_example():
    source = VarSet(("x1", "x2", "x3"))
    target = VarSet(("a1", "a2", "a3"))
    x1, x2, x3 = (Polynomial.variable(source, name) for name in source.names)
    a1, a2, a3 = (Polynomial.variable(target, name) for name in target.names)
    images = {"x1": a2 * a3, "x2": a1 * a3, "x3": a1 * a2}
    assert (x1 * x2 * x3).substitute(images) == a1**2 * a2**2 * a3**2


def test_substitute_collapses_p_plus_z():
    source = VarSet(("p1", "z1"))
    x1 = Polynomial.variable(X1Y1, "x1")
    y1 = Polynomial.variable(X1Y1, "y1")
    images = {"p1": (x1 - y1) * y1, "z1": y1**2}
    p_plus_z = Polynomial.variable(source, "p1") + Polynomial.variable(source, "z1")
    assert p_plus_z.substitute(images) == x1 * y1


def test_identity_substitution_is_identity():
    rng = random.Random(11)
    identity = {name: Polynomial.variable(helpers.XYZW, name) for name in helpers.XYZW}
    for _ in range(20):
        poly = helpers.rand_polynomial(rng)
        assert poly.substitute(identity) == poly


def test_substitution_requires_every_image():
    # y does not occur in x, so only the checks on the map can refuse these.
    x, y = Polynomial.variable(XY, "x"), Polynomial.variable(XY, "y")
    for images in (
        {"x": x},
        {"x": x, "y": y, "extra": x},
        # every image must live on one target VarSet
        {"x": x, "y": Polynomial.variable(X1Y1, "y1")},
    ):
        with pytest.raises(StructuralError):
            x.substitute(images)


def test_substitute_requires_matching_source():
    identity = {name: Polynomial.variable(XY, name) for name in XY}
    poly = Polynomial.variable(X1Y1, "x1")
    with pytest.raises(StructuralError):
        poly.substitute(identity)


def test_evaluate_examples():
    x = Polynomial.variable(XY, "x")
    y = Polynomial.variable(XY, "y")
    assert (x**2 + y**2).evaluate({"x": 3, "y": 4}) == 25
    assert Polynomial(XY).evaluate({"x": 17, "y": -5}) == 0
    with pytest.raises(StructuralError):
        (x + y).evaluate({"x": 1})


def test_homogeneous_degree():
    x = Polynomial.variable(XY, "x")
    y = Polynomial.variable(XY, "y")
    assert helpers.homogeneous_degree(x**2 * y + y**3) == 3
    assert helpers.homogeneous_degree(x + 1) is None
    with pytest.raises(StructuralError):
        helpers.homogeneous_degree(Polynomial(XY))


def test_format_examples():
    varset = VarSet(("a1", "b2", "b3"))
    a1, b2, b3 = (Polynomial.variable(varset, name) for name in varset.names)
    poly = 3 * a1**2 * b2**2 + Fraction(-1, 2) * b3**4
    assert format_polynomial(poly) == "3*a1^2*b2^2 - 1/2*b3^4"
    assert str(Polynomial(varset)) == "0"
    assert str(Polynomial.constant(varset, Fraction(-3, 7))) == "-3/7"
    x = Polynomial.variable(varset, "a1")
    assert str(x - 1) == "a1 - 1"
    assert str(-x) == "-a1"


def test_canonical_text_is_injective_random():
    # Golden files are compared as text, so distinct polynomials must print
    # differently and equal ones, however built, the same.
    rng = random.Random(321)
    polys = [helpers.rand_polynomial(rng) for _ in range(200)]
    for p in polys:
        reversed_terms = Polynomial(p.varset, dict(reversed(p.terms.items())))
        assert reversed_terms == p and str(reversed_terms) == str(p)
    texts = [format_polynomial(p) for p in polys]
    assert any(p == q for i, p in enumerate(polys) for q in polys[:i])
    for p, p_text in zip(polys, texts):
        for q, q_text in zip(polys, texts):
            assert (p_text == q_text) == (p == q)


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


def test_compiled_evaluator_matches_reference():
    rng = random.Random(1234)
    for _ in range(300):
        poly = helpers.rand_polynomial(rng)
        evaluate = compile_evaluator(poly)
        point = helpers.rand_point(rng, poly.varset)
        num, den = evaluate(helpers.pairs(point[name] for name in poly.varset.names))
        assert den > 0
        assert Fraction(num, den) == poly.evaluate(point)
    with pytest.raises(StructuralError):
        compile_evaluator(Polynomial.variable(XY, "x"))((1, 1))


def _evaluates_exactly(poly, point):
    num, den = compile_evaluator(poly)(helpers.pairs(point[n] for n in poly.varset.names))
    return den > 0 and Fraction(num, den) == poly.evaluate(point)


def test_compiled_evaluator_edge_polynomials():
    point = {"x": Fraction(-3, 4), "y": Fraction(5, 7)}
    zero = Polynomial(XY)
    assert _evaluates_exactly(zero, point)
    assert compile_evaluator(zero)((1, 2, 3, 4)) == (0, 1)
    assert _evaluates_exactly(Polynomial.constant(XY, Fraction(-7, 3)), point)
    # y occurs in no term, yet still takes its pair of the input
    x, y = Polynomial.variable(XY, "x"), Polynomial.variable(XY, "y")
    only_x = Fraction(-5, 6) * x**3 + Fraction(2, 9) * x - 4
    assert str(only_x) == "-5/6*x^3 + 2/9*x - 4"
    assert helpers.degree_in(only_x, "y") == 0
    assert _evaluates_exactly(only_x, point)
    assert _evaluates_exactly(only_x, {"x": Fraction(0), "y": Fraction(1, 9)})
    # negative and non-integer coefficients, unreduced input pairs
    mixed = Fraction(-3, 4) * x**2 * y + Fraction(5, 6) * x * y**3 - 7 * y**2 + Fraction(1, 2)
    assert str(mixed) == "5/6*x*y^3 - 3/4*x^2*y - 7*y^2 + 1/2"
    assert _evaluates_exactly(mixed, point)
    assert Fraction(*compile_evaluator(mixed)((-6, 8, 10, 14))) == mixed.evaluate(point)


def test_compiled_evaluator_rejects_wrong_arity():
    evaluate = compile_evaluator(Polynomial.variable(XY, "x"))
    for values in ((), (1, 1), (1, 1, 2), (1, 1, 2, 3, 4, 5)):
        with pytest.raises(StructuralError):
            evaluate(values)
    with pytest.raises(StructuralError):
        compile_evaluator(Polynomial(XY))((0, 1))


def test_compiled_evaluator_handles_thousands_of_terms():
    # 3060 terms: every monomial of total degree <= 14 in four variables.
    # Each sum is its own generated statement (one per trie edge where the
    # terms split), which keeps compile() from nesting deeply.
    xyzw = helpers.XYZW
    terms = {}
    for a in range(15):
        for b in range(15 - a):
            for c in range(15 - a - b):
                for d in range(15 - a - b - c):
                    i = len(terms)
                    terms[(a, b, c, d)] = Fraction((-1) ** i * (i + 1), i % 7 + 1)
    poly = Polynomial(xyzw, terms)
    assert poly.term_count == 3060
    rng = random.Random(77)
    for _ in range(3):
        assert _evaluates_exactly(poly, helpers.rand_point(rng, xyzw, bound=5))
