"""Tests for the symbolic identity checks: positive runs, deliberate
mutations, numeric cross-validation, and the report contract."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
from cstriple import corpus, verifier
from cstriple.poly import Polynomial, StructuralError, compile_evaluator

FIXTURES = Path(__file__).parent / "fixtures"


def test_all_checks_verified():
    reports = verifier.run_all()
    assert [r.check for r in reports] == list(verifier.CHECK_NAMES)
    for report in reports:
        assert report.status == verifier.STATUS_VERIFIED
        assert report.term_count == 0
        assert report.witness is None
        assert report.elapsed_ms >= 0


def test_unknown_check_name_is_structural():
    with pytest.raises(StructuralError):
        verifier.run_check("bogus")


def test_key_identity_spot_value():
    # both sides at a=(1,2,3), b=(1,1,1): (b1*b2*b3)^2 * 87 = 87 = d(5,2,1,1,1,1)
    point = {"a1": 1, "a2": 2, "a3": 3, "b1": 1, "b2": 1, "b3": 1}
    ((_, lhs, rhs),) = verifier.identity_components("key-identity")
    assert lhs.evaluate(point) == 87
    assert rhs.evaluate(point) == 87


def test_constraint_factorization_spot_values():
    ((_, lhs, rhs),) = verifier.identity_components("constraint-factorization")
    point = {"a1": 1, "a2": 2, "a3": 3, "b1": 1, "b2": 1, "b3": 1}
    assert lhs.evaluate(point) == (1 * 2 * 3 * 1 * 1 * 1) ** 2 == rhs.evaluate(point)
    boundary = {"a1": 0, "a2": 2, "a3": 3, "b1": 1, "b2": 5, "b3": 1}
    assert lhs.evaluate(boundary) == 0


def test_k_equivalence_spot_value():
    ((_, lhs, rhs),) = verifier.identity_components("k-equivalence")
    point = {"k1": 1, "k2": 2, "k3": 3, "b1": 1, "b2": 1, "b3": 1}
    assert lhs.evaluate(point) == 87
    assert rhs.evaluate(point) == 87


def test_case_formula_components():
    components = {name: (lhs, rhs) for name, lhs, rhs in verifier.identity_components("case-formulas")}
    assert set(components) == {
        "case-i",
        "case-ii",
        "case-ii-discriminant",
        "case-iii",
        "case-iv",
    }
    point = {"p1": -1, "p2": -2, "p3": -3, "z1": 0, "z2": 0, "z3": 0}
    # case (i) at p=(-1,-2,-3): -(p1+p2)(p1+p3)(p2+p3) = -(-3)(-4)(-5) = 60
    lhs, rhs = components["case-i"]
    assert lhs.evaluate(point) == 60 == rhs.evaluate(point)
    # case (iii) at p=(-1,-1,-1): -p1*(p2^2+p3^2) = 2
    lhs, rhs = components["case-iii"]
    p_ones = {"p1": -1, "p2": -1, "p3": -1, "z1": 0, "z2": 0, "z3": 0}
    assert lhs.evaluate(p_ones) == 2 == rhs.evaluate(p_ones)


def test_case_ii_discriminant_closed_form():
    # Independent construction of -p1*p2*(4*p1^2 + 7*p1*p2 + 4*p2^2).
    p1 = Polynomial.variable(corpus.MACRO, "p1")
    p2 = Polynomial.variable(corpus.MACRO, "p2")
    expected = -p1 * p2 * (4 * p1**2 + 7 * p1 * p2 + 4 * p2**2)
    components = {name: (lhs, rhs) for name, lhs, rhs in verifier.identity_components("case-formulas")}
    lhs, rhs = components["case-ii-discriminant"]
    assert rhs == expected
    assert lhs == expected


def test_sharpness_reduction_numerics():
    ((_, lhs, rhs),) = verifier.identity_components("sharpness-reduction")
    # C = 1, b = (1,1,1), k3 = 3: (1-2)*9 + 8 = -1
    point = {"k1": 0, "k2": 0, "k3": 3, "b1": 1, "b2": 1, "b3": 1, "C": 1}
    assert lhs.evaluate(point) == -1
    assert rhs.evaluate(point) == -1
    # with C fixed to 1/2 the k3^2 term collapses and k3 disappears
    fixed = rhs.substitute(helpers.constant_substitution(Fraction(1, 2)))
    assert fixed.degree_in("k3") <= 0


def test_weak_implication_numerics():
    ((_, dropped, half_squares),) = verifier.identity_components("weak-implication")
    point = {"a1": 1, "a2": 2, "a3": 3, "b1": 1, "b2": 1, "b3": 1}
    # 90 - 87 = 3 = 1/2 * (1 + 4 + 1)
    assert dropped.evaluate(point) == 3
    assert half_squares.evaluate(point) == 3
    proportional = {"a1": 2, "a2": 4, "a3": 6, "b1": 1, "b2": 2, "b3": 3}
    assert dropped.evaluate(proportional) == 0


def test_lagrange_perturbed_cross_term_refuted():
    ((name, lhs, rhs),) = verifier.identity_components("lagrange")
    # double the a1^2*b2^2 coefficient on the left side
    mutated = lhs + Polynomial.monomial(corpus.AB, {"a1": 2, "b2": 2})
    report = verifier.check_equal("lagrange", [(name, mutated, rhs)])
    assert report.status == verifier.STATUS_REFUTED
    assert report.witness is not None
    assert report.term_count > 0


def test_sides_on_different_varsets_are_an_error():
    # The refuted first component sets a witness and a term count; the
    # structural error in the second discards both.
    ((name, lhs, rhs),) = verifier.identity_components("lagrange")
    refuted = (name, lhs + Polynomial.monomial(corpus.AB, {"a1": 2, "b2": 2}), rhs)
    a1, k1 = Polynomial.variable(corpus.AB, "a1"), Polynomial.variable(corpus.KB, "k1")
    mismatched = ("mismatch", a1, k1)
    assert verifier.check_equal("mixed", [refuted]).status == verifier.STATUS_REFUTED
    report = verifier.check_equal("mixed", [refuted, mismatched])
    assert report.status == verifier.STATUS_ERROR
    assert report.witness is None
    assert report.term_count == 0


def test_mutation_suite_every_identity():
    refuted = helpers.run_mutation_suite(mutations_per_check=10)
    for check, count in refuted.items():
        assert count == 10, f"{check}: only {count}/10 mutations refuted"


def test_mutated_d_with_wrong_c1_refuted():
    # replace c1 = p2^2 + p2*p3 + p3^2 by p2^2 + p3^2 inside d
    p2 = Polynomial.variable(corpus.MACRO, "p2")
    p3 = Polynomial.variable(corpus.MACRO, "p3")
    z1 = Polynomial.variable(corpus.MACRO, "z1")
    wrong_d = corpus.build_d() - p2 * p3 * z1
    y_product = Polynomial.monomial(corpus.AB, {"b1": 2, "b2": 2, "b3": 2})
    lhs = y_product * corpus.build_inequality().d_tilde
    rhs = wrong_d.substitute(corpus.build_macro_substitution())
    report = verifier.check_equal("key-identity", [("key-identity", lhs, rhs)])
    assert report.status == verifier.STATUS_REFUTED


def test_mutated_k_form_constant_refuted():
    # bracket constant 1 instead of 1/2
    wrong = corpus.build_k_form(parametric=True).substitute(helpers.constant_substitution(1))
    d_tilde = corpus.build_inequality().d_tilde
    ((name, lhs, _),) = verifier.identity_components("k-equivalence")
    report = verifier.check_equal(name, [(name, lhs, wrong)])
    assert report.status == verifier.STATUS_REFUTED


def test_numeric_cross_validation_thousand_points():
    rng = random.Random(424242)
    for check in verifier.CHECK_NAMES:
        components = [
            (lhs, compile_evaluator(lhs), compile_evaluator(rhs))
            for _, lhs, rhs in verifier.identity_components(check)
        ]
        for _ in range(1000):
            for lhs, eval_lhs, eval_rhs in components:
                point = [helpers.rand_fraction(rng, 10) for _ in lhs.varset.names]
                value = Fraction(*eval_lhs(helpers.pairs(point)))
                assert value == Fraction(*eval_rhs(helpers.pairs(point)))
                assert value == lhs.evaluate(dict(zip(lhs.varset.names, point)))


def test_report_serialization_schema():
    report = verifier.run_check("lagrange")
    payload = report.to_dict()
    assert payload == {
        "check": "lagrange",
        "status": "verified",
        "witness": None,
        "term_count": 0,
        "elapsed_ms": payload["elapsed_ms"],
    }
    assert isinstance(payload["elapsed_ms"], int)


def test_golden_report_fixture():
    expected = json.loads((FIXTURES / "verify_reports.json").read_text(encoding="utf-8"))
    actual = [r.to_dict() for r in verifier.run_all()]
    for entry in actual:
        entry["elapsed_ms"] = 0
    assert actual == expected
