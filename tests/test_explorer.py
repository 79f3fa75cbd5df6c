"""Tests for the exact search, the greedy minimizer, the case classifier,
and the sharpness witness finder."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
from cstriple import corpus, explorer
from cstriple.explorer import (
    MacroState,
    PreconditionError,
    SearchConfig,
    case_classify,
    failed_guarantees,
    greedy_minimize_z,
    minimize_fuzz,
    random_search,
    resolve_target,
    sample_point,
    sharpness_witness,
    vertex_label,
)
from cstriple.poly import StructuralError, compile_evaluator

ONES = {name: 1 for name in corpus.AB.names}
FIXTURES = Path(__file__).parent / "fixtures"


# -- targets and config ---------------------------------------------------------


# Each target built by hand over its VarSet, independently of the table.
EXPECTED_TARGETS = {
    "d-tilde": lambda: helpers.inequality_parts().d_tilde,
    "d-k": helpers.k_form_polynomial,
    "weak": lambda: helpers.inequality_parts().weak,
    "cs": lambda: helpers.lagrange_parts().cs_diff,
}


@pytest.mark.parametrize("name", corpus.TARGETS)
def test_resolve_target_names(name):
    varset, _ = corpus.TARGETS[name]
    poly = resolve_target(name)
    assert poly == EXPECTED_TARGETS[name]()
    assert poly.varset == varset
    # cli._cmd_search probes the all-ones point as an equality case of every target.
    assert poly.evaluate({n: 1 for n in varset.names}) == 0


def test_resolve_target_refuses_an_unknown_name_and_a_misplaced_c():
    assert corpus.TARGET_NAMES == tuple(EXPECTED_TARGETS)
    with pytest.raises(StructuralError):
        resolve_target("nope")
    with pytest.raises(StructuralError):
        resolve_target("weak", c=Fraction(1, 2))


def test_resolve_target_refuses_a_float_or_bool_c():
    # 0.6 is not taken for its 53-bit binary value, nor True for 1.
    for bad in (0.6, True):
        with pytest.raises(PreconditionError):
            resolve_target("d-k", bad)
    assert resolve_target("d-k", "3/5") == resolve_target("d-k", Fraction(3, 5))
    assert helpers.k_form_polynomial(Fraction(3, 5)) == resolve_target("d-k", "3/5")


def test_search_config_validation():
    with pytest.raises(PreconditionError):
        SearchConfig(sample_count=0, seed=1)
    with pytest.raises(PreconditionError):
        SearchConfig(sample_count=10, seed=-1)
    with pytest.raises(PreconditionError):
        SearchConfig(sample_count=10, seed=1, numerator_bound=0)
    with pytest.raises(PreconditionError):
        SearchConfig(sample_count=10, seed=1, zero_probability=Fraction(3, 2))
    # The counts and bounds must be ints and the zero probability an int or
    # a Fraction; a bool is not taken for 0 or 1, nor 0.1 for its 56-bit
    # binary value.
    for bad in (
        {"sample_count": 10.0},
        {"sample_count": True},
        {"seed": 1.5},
        {"seed": False},
        {"numerator_bound": 2.5},
        {"numerator_bound": True},
        {"denominator_bound": 3.0},
        {"denominator_bound": True},
        {"zero_probability": 0.1},
        {"zero_probability": True},
    ):
        with pytest.raises(PreconditionError):
            SearchConfig(**{"sample_count": 10, "seed": 1, **bad})
    # 1 is a valid config (the fuzz draws z with it), but a search at 1
    # would evaluate only the zero point.
    only_zero = SearchConfig(sample_count=10, seed=1, zero_probability=Fraction(1))
    with pytest.raises(PreconditionError):
        random_search(resolve_target("d-tilde"), only_zero)


def test_sample_point_respects_bounds_and_zero_probability():
    cfg = SearchConfig(sample_count=1, seed=9, numerator_bound=7, denominator_bound=3)
    rng = random.Random(0)
    for index in range(200):
        pairs = sample_point(rng, 9, index, 6, explorer._draw_widths(cfg))
        assert len(pairs) == 12
        for num, den in zip(pairs[::2], pairs[1::2]):
            assert abs(num) <= 7
            assert 1 <= den <= 3
    always_zero = SearchConfig(sample_count=1, seed=9, zero_probability=1)
    assert sample_point(rng, 9, 0, 6, explorer._draw_widths(always_zero)) == (0, 1) * 6


# Configurations whose draw widths are a power of two (denominator 64,
# zero tests below 2 and 4), where n.bit_length() and (n-1).bit_length()
# differ, and one wider than a 32-bit Mersenne Twister word.
EDGE_WIDTHS = [
    {"denominator_bound": 64},
    {"zero_probability": Fraction(1, 2)},
    {"zero_probability": Fraction(1, 4)},
    {"numerator_bound": 2**40},
]

# Drawn on the same generator before every pinned draw of the "interleave"
# case: another seed, another index and wider draws.
INTERLEAVED = SearchConfig(
    sample_count=1, seed=2**64 - 1, numerator_bound=2**40, zero_probability=Fraction(1, 4)
)
INTERLEAVED_WIDTHS = explorer._draw_widths(INTERLEAVED)


@pytest.mark.parametrize(
    "options",
    [
        {},
        {"zero_probability": Fraction(0)},
        {"zero_probability": Fraction(1, 3)},
        {"numerator_bound": 1, "denominator_bound": 1},
        {"numerator_bound": 7, "denominator_bound": 3},
        *EDGE_WIDTHS,
        {"interleave": True},
    ],
)
def test_sample_point_follows_the_pinned_rng_stream(options):
    # The stream of a fresh Random((seed << 64) | index), then the documented
    # per-coordinate draw, on one generator that has drawn the samples before
    # (as in a search run, which reseeds one generator for every sample).
    options = dict(options)
    interleave = options.pop("interleave", False)
    rng = random.Random(0)
    for seed in (0, 2**64 - 1):
        cfg = SearchConfig(sample_count=1, seed=seed, **options)
        for index in range(250):
            if interleave:
                sample_point(rng, 2**64 - 1 - seed, index + 1, 6, INTERLEAVED_WIDTHS)
            expected = tuple(helpers.reference_pairs(helpers.sample_rng(seed, index), cfg, 6))
            assert sample_point(rng, seed, index, 6, explorer._draw_widths(cfg)) == expected


def test_a_run_computes_the_draw_widths_once(monkeypatch):
    widths = []
    original = explorer._draw_widths
    monkeypatch.setattr(explorer, "_draw_widths", lambda cfg: widths.append(cfg) or original(cfg))
    search_cfg = SearchConfig(sample_count=50, seed=3)
    random_search(resolve_target("d-tilde"), search_cfg, probes=[ONES])
    assert widths == [search_cfg]
    fuzz_cfg = SearchConfig(sample_count=20, seed=3)
    minimize_fuzz(fuzz_cfg, require_negative_product=True)
    assert widths == [search_cfg, fuzz_cfg]


def test_sample_point_is_pure_in_seed_and_index():
    widths = explorer._draw_widths(SearchConfig(sample_count=1, seed=123))
    rng = random.Random(0)
    assert sample_point(rng, 123, 5, 6, widths) == sample_point(random.Random(1), 123, 5, 6, widths)
    assert sample_point(rng, 123, 5, 6, widths) != sample_point(rng, 124, 5, 6, widths)


# -- random search ---------------------------------------------------------------


def test_search_d_tilde_finds_no_counterexample():
    poly = resolve_target("d-tilde")
    cfg = SearchConfig(sample_count=2000, seed=42)
    report = random_search(poly, cfg, probes=[ONES], label="d-tilde")
    assert report.samples_run == 2000
    assert report.counterexamples == []
    assert report.min_value >= 0
    # the proportional probe is an equality case, so the exact minimum is 0
    assert report.min_value == 0
    assert report.probes[0][1] == 0


def test_search_report_argmin_matches_min_value():
    poly = resolve_target("weak")
    cfg = SearchConfig(sample_count=500, seed=7)
    report = random_search(poly, cfg, label="weak")
    point = dict(zip(report.variables, report.argmin))
    assert poly.evaluate(point) == report.min_value


def test_search_is_deterministic():
    poly = resolve_target("cs")
    cfg = SearchConfig(sample_count=400, seed=2718)
    first = random_search(poly, cfg, probes=[ONES], label="cs")
    second = random_search(poly, cfg, probes=[ONES], label="cs")
    assert first.to_dict() == second.to_dict()


def test_search_dk_above_half_finds_negative_hits():
    poly = resolve_target("d-k", c=Fraction(3, 5))
    cfg = SearchConfig(sample_count=2000, seed=1)
    report = random_search(poly, cfg, label="d-k")
    assert len(report.counterexamples) > 0
    for point, value in report.counterexamples:
        assert value < 0
        assert poly.evaluate(dict(zip(report.variables, point))) == value
    # a crafted probe beyond the blow-up threshold k3^2 > 8/(2c-1) = 40
    probe = {"k1": 0, "k2": 0, "k3": 7, "b1": 1, "b2": 1, "b3": 1}
    hit = random_search(poly, cfg, probes=[probe], label="d-k")
    assert hit.probes[0][1] == Fraction(-9, 5)
    assert hit.min_value <= Fraction(-9, 5)


def test_search_probe_validation():
    poly = resolve_target("d-tilde")
    cfg = SearchConfig(sample_count=5, seed=3)
    with pytest.raises(StructuralError):
        random_search(poly, cfg, probes=[{"a1": 1}])
    with pytest.raises(StructuralError):
        random_search(poly, cfg, probes=[(1, 2)])


def test_probe_coordinates_refuse_floats_and_bools():
    poly = resolve_target("d-tilde")
    cfg = SearchConfig(sample_count=5, seed=3)
    for bad in (0.5, False):
        with pytest.raises(PreconditionError):
            random_search(poly, cfg, probes=[{**ONES, "a2": bad}])
        with pytest.raises(PreconditionError):
            random_search(poly, cfg, probes=[(1, bad, 1, 1, 1, 1)])


@pytest.mark.parametrize(
    "target, c",
    [("d-tilde", None), ("d-k", Fraction(5)), ("d-k", Fraction(1, 3)), ("weak", None), ("cs", None)],
)
def test_compiled_target_returns_the_per_term_pair(target, c):
    # The nested Horner form only regroups the per-term sum: the same two
    # ints, not just an equal Fraction (c = 1/3 gives Fraction coefficients).
    poly = resolve_target(target, c)
    evaluate = compile_evaluator(poly)
    cfg = SearchConfig(sample_count=1, seed=11)
    rng = random.Random(0)
    for index in range(300):
        pairs = sample_point(rng, 11, index, len(poly.varset), explorer._draw_widths(cfg))
        assert evaluate(pairs) == helpers.per_term_pair(poly, pairs)


def test_compiled_d_tilde_makes_at_most_110_multiplications():
    # One product of powers per term took 205.
    assert 0 < helpers.multiplications(compile_evaluator(resolve_target("d-tilde"))) <= 110


def test_search_probes_win_ties_and_list_their_hits_first():
    # At zero probability 1/2 some samples are the zero point, where d-tilde
    # is 0 like at the all-ones probe; the probe keeps the argmin.
    poly = resolve_target("d-tilde")
    cfg = SearchConfig(200, 4, zero_probability=Fraction(1, 2))
    report = random_search(poly, cfg, probes=[ONES])
    assert report.min_value == 0
    assert report.argmin == (1,) * 6
    # Among the samples, too, the first of the tied ones keeps it.
    evaluate = compile_evaluator(poly)
    rng = random.Random(0)
    points = [sample_point(rng, 4, i, 6, explorer._draw_widths(cfg)) for i in range(200)]
    values = [Fraction(*evaluate(pt)) for pt in points]
    assert values.count(0) > 1
    first = points[values.index(0)]
    assert first != points[len(values) - 1 - values[::-1].index(0)]
    report = random_search(poly, cfg)
    assert report.min_value == 0
    assert report.argmin == tuple(Fraction(first[k], first[k + 1]) for k in range(0, 12, 2))
    # At c = 5 about a fifth of the samples are hits; the probe's comes first.
    poly = resolve_target("d-k", c=Fraction(5))
    probe = {"k1": 0, "k2": 0, "k3": 1, "b1": 1, "b2": 1, "b3": 1}
    report = random_search(poly, SearchConfig(100, 1), probes=[probe])
    assert len(report.counterexamples) > 1
    assert report.counterexamples[0] == ((0, 0, 1, 1, 1, 1), Fraction(-1))


# -- greedy minimization ------------------------------------------------------


def test_macro_state_invariants():
    state = MacroState((-1, -2, -3), (1, 2, 3))
    assert state.c == (Fraction(19), Fraction(13), Fraction(7))
    assert state.feasibility() == 0
    assert state.is_feasible()
    assert state.d_value() == 60
    with pytest.raises(PreconditionError):
        MacroState((1, 1, 1), (-1, 0, 0))
    with pytest.raises(PreconditionError):
        MacroState((1, 1), (0, 0))


def test_macro_state_keeps_int_coordinates():
    state = MacroState((-1, -2, -3), (1, 2, 3))
    assert all(type(v) is int for v in state.p + state.z + state.c)
    assert type(state.d_value()) is int and type(state.feasibility()) is int
    as_fractions = MacroState(
        tuple(Fraction(v) for v in state.p), tuple(Fraction(v) for v in state.z)
    )
    assert state.to_dict() == as_fractions.to_dict() == {
        "p": ["-1", "-2", "-3"],
        "z": ["1", "2", "3"],
        "c": ["19", "13", "7"],
        "d": "60",
    }
    mixed = MacroState(("-1/2", Fraction(2, 3), 4), (0, "3/4", Fraction(1)))
    assert mixed.p == (Fraction(-1, 2), Fraction(2, 3), 4)
    assert type(mixed.p[0]) is Fraction and type(mixed.p[2]) is int
    assert type(mixed.z[0]) is int and type(mixed.z[1]) is Fraction


def test_macro_state_refuses_floats_and_bools():
    # At 0.1 the state would hold 3602879701896397/36028797018963968.
    for p, z in [((0.1, 1, 1), (0, 0, 0)), ((1, 1, True), (0, 0, 0)), ((1, 1, 1), (0, 0.5, 0))]:
        with pytest.raises(PreconditionError):
            MacroState(p, z)


def test_macro_state_refuses_strings_that_are_not_rationals():
    # "1/0" is not a ZeroDivisionError and "abc" not a bare ValueError.
    for p, z in [(("1/0", 1, 1), (0, 0, 0)), (("abc", 1, 1), (0, 0, 0)), ((1, 1, 1), (0, "x", 0))]:
        with pytest.raises(PreconditionError):
            MacroState(p, z)
    assert MacroState(("-1/2", 1, 1), (0, "3", 0)).p[0] == Fraction(-1, 2)


def test_macro_state_d_matches_polynomial_route():
    d = corpus.d_value(*helpers.macro_triples())
    constraint = corpus.feasibility_value(*helpers.macro_triples())
    rng = random.Random(55)
    for _ in range(200):
        p = tuple(helpers.rand_fraction(rng, 9) for _ in range(3))
        z = tuple(abs(helpers.rand_fraction(rng, 9)) for _ in range(3))
        state = MacroState(p, z)
        point = {
            "p1": p[0], "p2": p[1], "p3": p[2],
            "z1": z[0], "z2": z[1], "z3": z[2],
        }
        assert state.d_value() == d.evaluate(point)
        assert constraint.evaluate(point) == state.feasibility()
        assert all(v >= 0 for v in state.c)


def test_greedy_hand_trace():
    trace = greedy_minimize_z(MacroState((-1, -1, -1), (1, 1, 1)))
    # z3 and z2 drop to 0 freely (the z1 factor is 0); z1 stays pinned at 1
    assert [
        (s.coordinate, s.old_value, s.new_value, s.d_before, s.d_after)
        for s in trace.steps
    ] == [
        ("z3", 1, 0, 8, 5),
        ("z2", 1, 0, 5, 2),
    ]
    assert trace.final.z == (1, 0, 0)
    assert trace.final.d_value() == 2
    assert trace.case_label == "iii"


def test_greedy_already_at_vertex():
    trace = greedy_minimize_z(MacroState((1, 1, 1), (0, 0, 0)))
    assert trace.steps == ()
    assert trace.case_label == "iv"
    assert trace.final.d_value() == 1


def test_greedy_negative_p_example():
    trace = greedy_minimize_z(MacroState((-1, -2, -3), (1, 2, 3)))
    assert trace.initial.d_value() == 60
    for p_i, z_i in zip(trace.final.p, trace.final.z):
        assert z_i == 0 or z_i == -p_i
    assert 0 <= trace.final.d_value() <= 60


def test_greedy_preconditions():
    with pytest.raises(PreconditionError):
        greedy_minimize_z(MacroState((0, 1, 1), (0, 0, 0)))
    with pytest.raises(PreconditionError):
        greedy_minimize_z(MacroState((-2, 1, 1), (1, 0, 0)))  # product (-1)(1)(1) < 0
    with pytest.raises(PreconditionError):
        greedy_minimize_z(MacroState((1, 1, 1), (0, 0, 0)), order=(1, 1, 3))
    # A bool or a float equal to 1 is no coordinate number.
    for order in ((True, 2, 3), (1.0, 2, 3)):
        with pytest.raises(PreconditionError):
            greedy_minimize_z(MacroState((1, 1, 1), (0, 0, 0)), order=order)


def test_greedy_custom_order_lands_on_vertex_too():
    state = MacroState((-1, -2, -3), (1, 2, 3))
    trace = greedy_minimize_z(state, order=(1, 2, 3))
    for p_i, z_i in zip(trace.final.p, trace.final.z):
        assert z_i == 0 or (z_i == -p_i and -p_i > 0)
    assert trace.final.d_value() >= 0


def test_vertex_label_mixed_for_non_vertex():
    assert vertex_label(MacroState((-1, 1, 1), (5, 0, 0))) == "mixed"


# -- case classification ---------------------------------------------------------


def test_classify_case_iii():
    result = case_classify(MacroState((-1, -1, -1), (1, 0, 0)))
    assert result.label == "iii"
    assert result.closed_form_value == 2
    assert result.permutation == (1, 2, 3)


def test_classify_case_i():
    result = case_classify(MacroState((-1, -2, -3), (1, 2, 3)))
    assert result.label == "i"
    assert result.closed_form_value == 60
    assert result.permutation == (1, 2, 3)


def test_classify_case_iv():
    result = case_classify(MacroState((1, 1, 1), (0, 0, 0)))
    assert result.label == "iv"
    assert result.closed_form_value == 1


def test_classify_case_ii_with_permutation():
    # pinned coordinates are 2 and 3, so the canonical order is (2, 3, 1)
    state = MacroState((5, -2, -3), (0, 2, 3))
    result = case_classify(state)
    assert result.label == "ii"
    assert result.permutation == (2, 3, 1)
    # closed form with q = (-2, -3, 5): -q1*q2*(q1+q2) - q1*q2*q3 - (q1+q2)*q3^2
    q1, q2, q3 = Fraction(-2), Fraction(-3), Fraction(5)
    expected = -q1 * q2 * (q1 + q2) - q1 * q2 * q3 + (-q1 - q2) * q3**2
    assert result.closed_form_value == expected
    assert result.closed_form_value == state.d_value()


def test_classify_rejects_non_vertex_and_zero_p():
    with pytest.raises(PreconditionError):
        case_classify(MacroState((-1, 1, 1), (5, 0, 0)))
    with pytest.raises(PreconditionError):
        case_classify(MacroState((0, 1, 1), (0, 0, 0)))


def test_classify_agrees_with_d_on_random_vertices():
    rng = random.Random(99)
    for _ in range(300):
        p = []
        z = []
        for _ in range(3):
            value = Fraction(0)
            while value == 0:
                value = helpers.rand_fraction(rng, 9)
            p.append(value)
            if value < 0 and rng.random() < 0.5:
                z.append(-value)
            else:
                z.append(Fraction(0))
        state = MacroState(tuple(p), tuple(z))
        result = case_classify(state)
        assert result.closed_form_value == state.d_value()


# -- sharpness ---------------------------------------------------------------


def test_sharpness_witness_at_one():
    witness = sharpness_witness(1)
    assert witness.k == (0, 0, 3)
    assert witness.b == (1, 1, 1)
    assert witness.value == -1


def test_sharpness_witness_at_three_fifths():
    witness = sharpness_witness(Fraction(3, 5))
    # smallest k3 with k3^2 > 8/(2*3/5 - 1) = 40 is 7; (1-6/5)*49 + 8 = -9/5
    assert witness.k[2] == 7
    assert witness.value == Fraction(-9, 5)


def test_sharpness_witness_close_to_half():
    witness = sharpness_witness(Fraction(51, 100))
    # threshold 8/(1/50) = 400, so k3 = 21 and (1 - 51/50)*441 + 8 = -41/50
    assert witness.k[2] == 21
    assert witness.value == Fraction(-41, 50)


def test_sharpness_rejects_half_and_below():
    with pytest.raises(PreconditionError):
        sharpness_witness(Fraction(1, 2))
    with pytest.raises(PreconditionError):
        sharpness_witness(Fraction(1, 4))


def test_sharpness_refuses_a_float_or_bool_c():
    for bad in (0.6, True):
        with pytest.raises(PreconditionError):
            sharpness_witness(bad)
    assert sharpness_witness("3/5") == sharpness_witness(Fraction(3, 5))


def test_sharpness_witness_point_is_safe_at_half():
    # the same point under the proved constant evaluates to (1-1)*9 + 8 = 8
    witness = sharpness_witness(1)
    point = {"k1": 0, "k2": 0, "k3": witness.k[2], "b1": 1, "b2": 1, "b3": 1}
    assert helpers.k_form_polynomial().evaluate(point) == 8


# -- minimizer fuzz ---------------------------------------------------------------


def test_minimize_fuzz_no_failures():
    summary = minimize_fuzz(SearchConfig(sample_count=800, seed=6), require_negative_product=True)
    assert summary.failed == 0
    assert summary.passed == 800
    assert all(count == 0 for count in summary.failures.values())
    assert summary.case_counts["iv"] == 0
    assert summary.case_counts["mixed"] == 0
    assert sum(summary.case_counts.values()) == 800


def test_minimize_fuzz_mixed_products():
    summary = minimize_fuzz(SearchConfig(sample_count=400, seed=13))
    assert summary.failed == 0
    # states with p1*p2*p3 > 0 stay where the product is nonnegative at z=0
    assert summary.case_counts["mixed"] == 0


def test_fuzz_counts_a_non_vertex_final_state(monkeypatch):
    # case_classify refuses such a state; the fuzz counts it instead.
    monkeypatch.setattr(explorer, "greedy_minimize_z", helpers.end_off_vertex)
    summary = minimize_fuzz(SearchConfig(3, 0))
    assert summary.case_counts == {"i": 0, "ii": 0, "iii": 0, "iv": 0, "mixed": 3}
    assert summary.failures == {**dict.fromkeys(explorer.GUARANTEES, 0), "vertex": 3}
    assert (summary.passed, summary.failed) == (0, 3)


def test_fuzz_is_deterministic():
    cfg = SearchConfig(sample_count=150, seed=77, numerator_bound=9, denominator_bound=9)
    assert minimize_fuzz(cfg).to_dict() == minimize_fuzz(cfg).to_dict()


def test_positive_product_needs_no_minimization():
    # with p1*p2*p3 > 0 the value at z = 0 is already positive
    rng = random.Random(3000)
    found = 0
    while found < 100:
        p = tuple(helpers.rand_fraction(rng, 20) for _ in range(3))
        if p[0] * p[1] * p[2] <= 0:
            continue
        found += 1
        assert MacroState(p, (0, 0, 0)).d_value() == p[0] * p[1] * p[2] > 0


def test_fuzz_rejection_exhaustion_is_a_precondition_error():
    # With every z at 0 a feasible state has p1*p2*p3 >= 0, so no state
    # with a negative product is ever accepted.
    cfg = SearchConfig(sample_count=1, seed=0, zero_probability=Fraction(1))
    with pytest.raises(PreconditionError):
        minimize_fuzz(cfg, require_negative_product=True)


def test_fuzz_refuses_an_unsatisfiable_draw_before_drawing(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew a candidate")

    monkeypatch.setattr(explorer, "_draw_pairs", no_draw)
    cfg = SearchConfig(sample_count=1, seed=0, zero_probability=Fraction(1))
    with pytest.raises(PreconditionError, match="rejection sampling"):
        minimize_fuzz(cfg, require_negative_product=True)


def test_a_fuzz_state_builds_two_macro_states(monkeypatch):
    built = []
    init = MacroState.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MacroState, "__init__", counting_init)
    minimize_fuzz(SearchConfig(50, 0), True)
    # The accepted draw and the descent's final state; a rejected candidate
    # never becomes a MacroState.
    assert len(built) == 2 * 50


def _reference_state(seed, index, cfg, require_negative_product):
    # The documented fuzz draw on Fractions: three nonzero p_i, then three
    # z_i as absolute values of search coordinates; reject infeasible states
    # and, when asked, a nonnegative p1*p2*p3.  Returns the state and the
    # generator's state after the accepted draw.
    rng = helpers.sample_rng(seed, index)
    while True:
        p = helpers.reference_pairs(rng, cfg, 3, nonzero=True)
        z = helpers.reference_pairs(rng, cfg, 3)
        p = [Fraction(n, d) for n, d in zip(p[::2], p[1::2])]
        z = [abs(Fraction(n, d)) for n, d in zip(z[::2], z[1::2])]
        if (p[0] + z[0]) * (p[1] + z[1]) * (p[2] + z[2]) < 0:
            continue
        if require_negative_product and p[0] * p[1] * p[2] >= 0:
            continue
        return p + z, rng.getstate()


# Numerators in {-1, 0, 1} and denominators in {1, 2}: in most
# negative-product states some factor p_i + z_i is exactly 0 (p_i = -1/2,
# z_i = 1/2, say), the boundary of the int feasibility test.
BOUNDARY_WIDTHS = {"numerator_bound": 1, "denominator_bound": 2}


@pytest.mark.parametrize("require_negative_product", [True, False])
def test_draw_state_is_a_scaled_reference_draw(require_negative_product):
    configs = [(seed, {}, 200) for seed in (0, 5)] + [
        (0, edge, 100) for edge in (*EDGE_WIDTHS, BOUNDARY_WIDTHS)
    ]
    for seed, options, count in configs:
        cfg = SearchConfig(sample_count=1, seed=seed, **options)
        rng = random.Random(0)  # reseeded for every state, as in minimize_fuzz
        zero_factors = 0
        for index in range(count):
            explorer._reseed(rng, seed, index)
            state = explorer._draw_state(rng, explorer._draw_widths(cfg), require_negative_product)
            drawn = state.p + state.z
            reference, rng_state = _reference_state(seed, index, cfg, require_negative_product)
            # Same draws consumed: the int test rejects exactly what the
            # Fraction test rejects.
            assert rng.getstate() == rng_state
            assert all(type(v) is int for v in drawn)
            scale = drawn[0] / reference[0]
            assert scale > 0
            assert list(drawn) == [scale * v for v in reference]
            zero_factors += any(p_i + z_i == 0 for p_i, z_i in zip(state.p, state.z))
        if options is BOUNDARY_WIDTHS:
            assert zero_factors > 0


def _scaled(state):
    scale = math.lcm(*(Fraction(v).denominator for v in state.p + state.z))
    ints = [int(v * scale) for v in state.p + state.z]
    return scale, MacroState(tuple(ints[:3]), tuple(ints[3:]))


def test_greedy_and_classifier_commute_with_integer_scaling():
    # d, the feasibility product and the case closed forms are homogeneous
    # of degree 3 in (p, z), and the greedy bound max(0, -p_i) is of degree
    # 1, so the lcm-scaled int copy of a state must take the same steps
    # times L, with every d times L^3, and classify the same way.
    rng = random.Random(2024)
    signs = {True: 0, False: 0}
    labels = set()
    while min(signs.values()) < 150:
        p = tuple(helpers.rand_fraction(rng, 12) for _ in range(3))
        z = tuple(
            -p[i] if p[i] < 0 and rng.random() < 0.3 else abs(helpers.rand_fraction(rng, 12))
            for i in range(3)
        )
        state = MacroState(p, z)
        if 0 in p or not state.is_feasible():
            continue
        signs[p[0] * p[1] * p[2] < 0] += 1
        scale, ints = _scaled(state)
        cube = scale**3
        assert all(type(v) is int for v in ints.p + ints.z)
        order = rng.choice([(3, 2, 1), (1, 2, 3), (2, 3, 1)])
        trace, int_trace = greedy_minimize_z(state, order), greedy_minimize_z(ints, order)
        assert int_trace.case_label == trace.case_label
        assert int_trace.final.z == tuple(scale * v for v in trace.final.z)
        assert int_trace.final.d_value() == cube * trace.final.d_value()
        assert len(int_trace.steps) == len(trace.steps)
        for step, int_step in zip(trace.steps, int_trace.steps):
            assert int_step.coordinate == step.coordinate
            assert int_step.old_value == scale * step.old_value
            assert int_step.new_value == scale * step.new_value
            assert int_step.d_before == cube * step.d_before
            assert int_step.d_after == cube * step.d_after
        result, int_result = case_classify(trace.final), case_classify(int_trace.final)
        assert int_result.label == result.label
        assert int_result.permutation == result.permutation
        assert int_result.closed_form_value == cube * result.closed_form_value
        assert failed_guarantees(int_trace, int_result) == failed_guarantees(trace, result)
        # The descent only reaches cases iii and iv; pin z by hand for i and ii.
        vertex = MacroState(p, tuple(-v if v < 0 and rng.random() < 0.7 else 0 for v in p))
        scale, int_vertex = _scaled(vertex)
        result, int_result = case_classify(vertex), case_classify(int_vertex)
        labels.add(result.label)
        assert (int_result.label, int_result.permutation) == (result.label, result.permutation)
        assert int_result.closed_form_value == scale**3 * result.closed_form_value
    assert labels == {"i", "ii", "iii", "iv"}


def _fuzz_fixture_text():
    runs = []
    for seed in (0, 1):
        for negative in (True, False):
            summary = minimize_fuzz(SearchConfig(sample_count=1000, seed=seed), negative)
            runs.append(
                {"seed": seed, "require_negative_product": negative, "summary": summary.to_dict()}
            )
    return json.dumps(runs, indent=2) + "\n"


def test_fuzz_summaries_match_golden_file():
    # Written by the Fraction implementation of the fuzz, before the draw
    # was scaled to ints.
    assert _fuzz_fixture_text().encode() == (FIXTURES / "fuzz_seed0.json").read_bytes()


def test_failed_guarantees_names_each_broken_guarantee():
    trace = greedy_minimize_z(MacroState((-1, -1, -1), (1, 1, 1)))
    classification = case_classify(trace.final)
    assert failed_guarantees(trace, classification) == []
    wrong = explorer.CaseClassification("iii", (1, 2, 3), classification.closed_form_value + 1)
    assert failed_guarantees(trace, wrong) == ["closed_form"]
    step = trace.steps[0]
    rising = explorer.MinimizeStep(
        step.coordinate, step.old_value, step.new_value, step.d_after, step.d_before
    )
    broken = explorer.MinimizeTrace(trace.initial, (rising,), trace.final, "iv")
    assert failed_guarantees(broken, classification) == ["monotonicity", "case_iv_negative_product"]
