"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear.  All equality assertions are exact (rational arithmetic, zero
tolerance); the only numeric bounds are the stated runtime ceilings.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import helpers
from cstriple import cli, corpus, verifier
from cstriple.explorer import SearchConfig, minimize_fuzz, sharpness_witness
from cstriple.poly import PreconditionError


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {description}")
        raise
    print(f"PASS  criterion {number}: {description}")


def run_cli(argv, tmp_path, name):
    manifest_path = tmp_path / name
    code = cli.main(argv + ["--json", str(manifest_path)])
    return code, json.loads(manifest_path.read_text())


def test_criterion_1_key_identity(tmp_path):
    with criterion(1, "key identity verified, degree-12 difference, under 10 s"):
        start = time.perf_counter()
        code, manifest = run_cli(["verify", "--check", "key-identity"], tmp_path, "c1.json")
        elapsed = time.perf_counter() - start
        report = manifest["reports"][0]
        assert code == 0
        assert report["status"] == "verified"
        assert report["term_count"] == 0
        assert elapsed < 10.0
        # the identity really is the degree-12 statement in 6 variables
        (_, lhs, rhs), = verifier.identity_components("key-identity")
        assert helpers.total_degree(lhs) == 12
        assert helpers.total_degree(rhs) == 12
        assert len(lhs.varset) == 6


def test_criterion_2_lagrange(tmp_path):
    with criterion(2, "Lagrange identity verified under 1 s"):
        start = time.perf_counter()
        code, manifest = run_cli(["verify", "--check", "lagrange"], tmp_path, "c2.json")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert manifest["reports"][0]["status"] == "verified"
        assert elapsed < 1.0


def test_criterion_3_constraint_factorization(tmp_path):
    with criterion(3, "feasibility product maps to (a1*a2*a3*b1*b2*b3)^2"):
        code, manifest = run_cli(
            ["verify", "--check", "constraint-factorization"], tmp_path, "c3.json"
        )
        assert code == 0
        assert manifest["reports"][0]["status"] == "verified"


def test_criterion_4_k_equivalence(tmp_path):
    with criterion(4, "ratio form difference is exactly zero"):
        code, manifest = run_cli(["verify", "--check", "k-equivalence"], tmp_path, "c4.json")
        assert code == 0
        assert manifest["reports"][0]["status"] == "verified"
        (_, lhs, rhs), = verifier.identity_components("k-equivalence")
        assert (lhs - rhs).is_zero()


def test_criterion_5_case_formulas(tmp_path):
    with criterion(5, "all four case formulas plus the discriminant verified"):
        code, manifest = run_cli(["verify", "--check", "case-formulas"], tmp_path, "c5.json")
        assert code == 0
        assert manifest["reports"][0]["status"] == "verified"
        components = {
            name: (lhs, rhs)
            for name, lhs, rhs in verifier.identity_components("case-formulas")
        }
        assert set(components) == {
            "case-i", "case-ii", "case-ii-discriminant", "case-iii", "case-iv",
        }
        # the discriminant term of the completed square 4a*case_ii =
        # (2a*p3 + b)^2 - discriminant, with a = -(p1+p2) and b = -p1*p2
        p1, p2, p3, *_ = corpus.variables(corpus.MACRO)
        expected = -p1 * p2 * (4 * p1**2 + 7 * p1 * p2 + 4 * p2**2)
        square = (-2 * (p1 + p2) * p3 - p1 * p2) ** 2
        lhs, rhs = components["case-ii-discriminant"]
        assert square - lhs == expected
        assert square - rhs == expected


def test_criterion_6_sharpness(tmp_path):
    with criterion(6, "sharpness reduction verified; witnesses at c=1, 3/5; c=1/2 errors"):
        code, manifest = run_cli(
            ["verify", "--check", "sharpness-reduction"], tmp_path, "c6v.json"
        )
        assert code == 0
        assert manifest["reports"][0]["status"] == "verified"

        code, manifest = run_cli(["sharpness", "--c", "1"], tmp_path, "c6a.json")
        witness = manifest["reports"][0]
        assert code == 0
        assert witness["b"] == ["1", "1", "1"]
        assert witness["k"] == ["0", "0", "3"]
        assert witness["value"] == "-1"

        code, manifest = run_cli(["sharpness", "--c", "3/5"], tmp_path, "c6b.json")
        witness = manifest["reports"][0]
        assert code == 0
        assert witness["k"] == ["0", "0", "7"]
        assert witness["value"] == "-9/5"

        assert cli.main(["sharpness", "--c", "1/2"]) == 2


def test_criterion_7_search_hundred_thousand(tmp_path):
    with criterion(7, "100000-sample search: no counterexample, exact min >= 0, under 60 s"):
        start = time.perf_counter()
        code, manifest = run_cli(
            ["search", "--target", "d-tilde", "--samples", "100000", "--seed", "42"],
            tmp_path,
            "c7.json",
        )
        elapsed = time.perf_counter() - start
        report = manifest["reports"][0]
        assert code == 0
        assert report["counterexample_count"] == 0
        assert report["counterexamples"] == []
        assert Fraction(report["min_value"]) >= 0
        # the injected all-ones probe is an equality case: exactly 0
        assert report["probes"][0]["point"] == {n: "1" for n in report["variables"]}
        assert report["probes"][0]["value"] == "0"
        assert Fraction(report["min_value"]) == 0
        assert elapsed < 60.0


def test_criterion_8_minimizer_fuzz():
    with criterion(8, "10000 feasible states with negative product: zero failures, under 30 s"):
        start = time.perf_counter()
        summary = minimize_fuzz(
            SearchConfig(sample_count=10000, seed=1), require_negative_product=True
        )
        elapsed = time.perf_counter() - start
        assert summary.samples_run == 10000
        assert summary.failed == 0
        assert all(count == 0 for count in summary.failures.values())
        assert summary.case_counts["iv"] == 0
        assert elapsed < 30.0


def test_criterion_9_mutation_suite():
    with criterion(9, "10 single-coefficient mutations per identity, all refuted"):
        refuted = helpers.run_mutation_suite(mutations_per_check=10)
        assert set(refuted) == set(verifier.CHECK_NAMES)
        for check, count in refuted.items():
            assert count == 10, f"{check}: {count}/10"


def test_criterion_10_property_suites():
    with criterion(10, "ring axioms, homomorphism, commutation, and symmetries all exact"):
        assert helpers.check_ring_axioms(triples=1000) == 1000
        assert helpers.check_substitution_homomorphism(cases=500) == 500
        assert helpers.check_eval_subst_commutation(cases=500) == 500
        helpers.check_dtilde_invariances(scalings=200)
        helpers.check_d_permutation_invariance()


def test_criterion_6_boundary_is_exact():
    # The boundary constant is rejected exactly, not within a tolerance:
    # 1/2 + 1/10^12 must already produce a witness.
    with criterion("6b", "witness precondition is exact at the 1/2 boundary"):
        with pytest.raises(PreconditionError):
            sharpness_witness(Fraction(1, 2))
        witness = sharpness_witness(Fraction(1, 2) + Fraction(1, 10**12))
        assert witness.value < 0
