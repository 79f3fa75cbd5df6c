"""Tests for the symbolic identity checks: positive runs, deliberate
mutations, spot values, and the report contract."""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
from cstriple import cli, corpus, verifier
from cstriple.poly import Polynomial, StructuralError

FIXTURES = Path(__file__).parent / "fixtures"


def test_all_checks_verified():
    reports = verifier.run_all()
    assert [r.check for r in reports] == list(verifier.CHECK_NAMES)
    for report in reports:
        assert report.status == verifier.STATUS_VERIFIED
        assert report.term_count == 0
        assert report.witness is None
        assert report.elapsed_ms >= 0


def test_a_replay_builds_each_shared_polynomial_once(monkeypatch, capsys):
    calls = []
    original = corpus.build_identities

    def counted(varset):
        calls.append(varset)
        return original(varset)

    monkeypatch.setattr(corpus, "build_identities", counted)
    varsets = set(corpus.CHECKS.values())
    assert varsets == {corpus.AB, corpus.KB, corpus.KBC, corpus.MACRO}
    replays = (verifier.run_all, lambda: cli.main(["verify", "--all"]))
    for replay in replays:
        for _ in range(2):
            replay()
            # Each VarSet once per replay, and no build outlives its replay:
            # the next one builds again.
            assert Counter(calls) == dict.fromkeys(varsets, 1)
            calls.clear()
    capsys.readouterr()
    # One check on its own builds only its VarSet and is still verified.
    for check, varset in corpus.CHECKS.items():
        assert verifier.run_check(check).status == verifier.STATUS_VERIFIED
        assert calls == [varset]
        calls.clear()


def test_unknown_check_name_is_structural():
    with pytest.raises(StructuralError):
        verifier.run_check("bogus")
    with pytest.raises(StructuralError, match=r"^unknown case 'v'; valid: iv, iii, ii, i$"):
        corpus.case_value("v", 1, 1, 1)


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
    # Independent construction of -p1*p2*(4*p1^2 + 7*p1*p2 + 4*p2^2); it is
    # the discriminant term of the completed square 4a*case_ii = (2a*p3 + b)^2
    # - discriminant, with a = -(p1+p2) and b = -p1*p2.
    p1, p2, p3, *_ = corpus.variables(corpus.MACRO)
    expected = -p1 * p2 * (4 * p1**2 + 7 * p1 * p2 + 4 * p2**2)
    a, b = -(p1 + p2), -p1 * p2
    components = {name: (lhs, rhs) for name, lhs, rhs in verifier.identity_components("case-formulas")}
    lhs, rhs = components["case-ii-discriminant"]
    assert (2 * a * p3 + b) ** 2 - rhs == expected
    assert (2 * a * p3 + b) ** 2 - lhs == expected
    # a and b are the p3^2 and p3 coefficients of case ii, so expected is
    # its discriminant as a quadratic in p3
    case_ii, _ = components["case-ii"]
    assert lhs == 4 * a * case_ii
    quad_c = case_ii - a * p3**2 - b * p3
    assert helpers.degree_in(quad_c, "p3") == 0
    assert b**2 - 4 * a * quad_c == expected


def test_sharpness_reduction_numerics():
    ((_, lhs, rhs),) = verifier.identity_components("sharpness-reduction")
    # C = 1, b = (1,1,1), k3 = 3: (1-2)*9 + 8 = -1
    point = {"k1": 0, "k2": 0, "k3": 3, "b1": 1, "b2": 1, "b3": 1, "C": 1}
    assert lhs.evaluate(point) == -1
    assert rhs.evaluate(point) == -1
    # with C fixed to 1/2 the k3^2 term collapses and k3 disappears
    fixed = rhs.substitute(helpers.constant_substitution(Fraction(1, 2)))
    assert helpers.degree_in(fixed, "k3") <= 0


def test_weak_implication_numerics():
    ((_, dropped, half_squares),) = verifier.identity_components("weak-implication")
    point = {"a1": 1, "a2": 2, "a3": 3, "b1": 1, "b2": 1, "b3": 1}
    # 90 - 87 = 3 = 1/2 * (1 + 4 + 1)
    assert dropped.evaluate(point) == 3
    assert half_squares.evaluate(point) == 3
    proportional = {"a1": 2, "a2": 4, "a3": 6, "b1": 1, "b2": 2, "b3": 3}
    assert dropped.evaluate(proportional) == 0


def test_lagrange_perturbed_cross_term_refuted():
    (name, lhs, rhs), _ = verifier.identity_components("lagrange")
    # double the a1^2*b2^2 coefficient on the left side
    a1, _, _, _, b2, _ = corpus.variables(corpus.AB)
    mutated = lhs + a1**2 * b2**2
    report = verifier.check_equal("lagrange", [(name, mutated, rhs)])
    assert report.status == verifier.STATUS_REFUTED
    assert report.witness is not None
    assert report.term_count > 0


def test_mutated_cs_difference_refuted(monkeypatch):
    # The search target cs_diff is proved, not only the Lagrange identity.
    original = corpus.lagrange
    assert verifier.run_check("lagrange").status == verifier.STATUS_VERIFIED

    def mutated(*ab):
        parts = original(*ab)
        return parts._replace(cs_diff=parts.cs_diff + 1)

    monkeypatch.setattr(corpus, "lagrange", mutated)
    report = verifier.run_check("lagrange")
    assert report.status == verifier.STATUS_REFUTED
    assert report.witness == "cs-difference: 1"


def test_sides_on_different_varsets_are_an_error():
    # The refuted first component sets a witness and a term count; the
    # structural error in the second discards both.
    (name, lhs, rhs), _ = verifier.identity_components("lagrange")
    a1, b2 = Polynomial.variable(corpus.AB, "a1"), Polynomial.variable(corpus.AB, "b2")
    refuted = (name, lhs + a1**2 * b2**2, rhs)
    k1 = Polynomial.variable(corpus.KB, "k1")
    mismatched = ("mismatch", a1, k1)
    assert verifier.check_equal("mixed", [refuted]).status == verifier.STATUS_REFUTED
    report = verifier.check_equal("mixed", [refuted, mismatched])
    assert report.status == verifier.STATUS_ERROR
    assert report.witness is None
    assert report.term_count == 0


def test_mutated_d_with_wrong_c1_refuted():
    # replace c1 = p2^2 + p2*p3 + p3^2 by p2^2 + p3^2 inside d
    def wrong_d(p, z):
        return corpus.d_value(p, z) - p[1] * p[2] * z[0]

    ((name, lhs, _),) = verifier.identity_components("key-identity")
    rhs = wrong_d(*helpers.macro_images())
    report = verifier.check_equal(name, [(name, lhs, rhs)])
    assert report.status == verifier.STATUS_REFUTED


def test_mutated_k_form_constant_refuted():
    # bracket constant 1 instead of 1/2
    wrong = helpers.k_form_polynomial(1)
    ((name, lhs, _),) = verifier.identity_components("k-equivalence")
    report = verifier.check_equal(name, [(name, lhs, wrong)])
    assert report.status == verifier.STATUS_REFUTED


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
