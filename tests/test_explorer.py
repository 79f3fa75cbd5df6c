"""Tests for the exact search, the greedy minimizer, the case classifier,
and the sharpness witness finder."""

import ast
import collections
import copy
import itertools
import json
import random
import re
import sys
from enum import IntEnum
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import helpers
from cstriple import corpus, explorer, verifier
from cstriple.explorer import (
    MacroState,
    SearchConfig,
    case_classify,
    compile_evaluator,
    failed_guarantees,
    greedy_minimize_z,
    minimize_fuzz,
    random_search,
    resolve_target,
    sample_point,
    sharpness_witness,
    vertex_label,
)
from cstriple.poly import PreconditionError, StructuralError, VarSet

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


# search_range's one fixed probe, the all-ones point, is where every target,
# the k-form at any constant included, takes the exact value 0.
@pytest.mark.parametrize(
    "target, c",
    [(name, None) for name in corpus.TARGETS] + [("d-k", Fraction(1, 3)), ("d-k", 5)],
)
def test_every_target_is_zero_at_the_all_ones_probe(target, c):
    poly = resolve_target(target, c)
    nvars = len(poly.varset)
    assert poly.evaluate(dict.fromkeys(poly.varset.names, 1)) == 0
    report = random_search(target, SearchConfig(1, 0), c)
    assert report.target == target
    assert report.probes == [((1,) * nvars, 0)]


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
    assert helpers.k_form_polynomial(Fraction(3, 5)) == resolve_target("d-k", Fraction(3, 5))


def _copy_replace(value, **changes):
    """``copy.replace(value, **changes)``; where Python has none (before
    3.13), the namedtuple base's ``_replace``, which is what it runs."""
    if hasattr(copy, "replace"):
        return copy.replace(value, **changes)
    return type(value).__bases__[0]._replace(value, **changes)


def assert_every_door_refuses(good, **changes):
    """``good`` with ``changes`` is refused, with one ``PreconditionError``
    message, by ``__new__``, ``_make``, ``_replace`` and ``copy.replace``."""
    cls, fields = type(good), {**good._asdict(), **changes}
    with pytest.raises(PreconditionError) as refused:
        cls(**fields)
    same = f"^{re.escape(str(refused.value))}$"
    for door in (
        lambda: cls._make(fields.values()),
        lambda: good._replace(**changes),
        lambda: _copy_replace(good, **changes),
    ):
        with pytest.raises(PreconditionError, match=same):
            door()


def test_search_config_validation():
    good = SearchConfig(sample_count=10, seed=1)
    # The counts and bounds must be ints and the zero probability an int or
    # a Fraction; a bool is not taken for 0 or 1, nor 0.1 for its 56-bit
    # binary value.  An IntEnum member is no int either, as in MacroState.
    # A bound below 1 would leave the draw loop no value to accept.
    ten = IntEnum("N", {"TEN": 10}).TEN
    for bad in (
        {"sample_count": 0},
        {"seed": -1},
        {"seed": 2**64},
        {"numerator_bound": 0},
        {"denominator_bound": 0},
        {"zero_probability": Fraction(3, 2)},
        {"sample_count": 10.0},
        {"sample_count": True},
        {"sample_count": ten},
        {"seed": 1.5},
        {"seed": False},
        {"seed": ten},
        {"numerator_bound": 2.5},
        {"numerator_bound": True},
        {"numerator_bound": ten},
        {"denominator_bound": 3.0},
        {"denominator_bound": True},
        {"denominator_bound": ten},
        {"zero_probability": 0.1},
        {"zero_probability": 0.5},
        {"zero_probability": True},
    ):
        assert_every_door_refuses(good, **bad)
    # A bool or an integral float or Fraction bound equals an int whose search
    # loop is cached first; refused when built, it never reaches that entry.
    for field, bound in itertools.product(
        ("numerator_bound", "denominator_bound"), (True, 5.0, Fraction(5))
    ):
        warm = SearchConfig(sample_count=3, seed=0, **{field: int(bound)})
        random_search("cs", warm)
        cached = explorer._generated_search.cache_info()
        assert_every_door_refuses(warm, **{field: bound})
        assert explorer._generated_search.cache_info() == cached
    # 1 is a valid config (the fuzz draws z with it), but a search at 1
    # would evaluate only the zero point.
    only_zero = SearchConfig(sample_count=10, seed=1, zero_probability=Fraction(1))
    with pytest.raises(PreconditionError):
        random_search("d-tilde", only_zero)


def test_a_built_search_config_is_immutable():
    # A bound assigned after the checks would escape them: a denominator
    # bound of 0 would leave the draw loop no value to accept.
    cfg = SearchConfig(5, 0)
    for name, value in (
        ("sample_count", 0),
        ("seed", -1),
        ("numerator_bound", 0),
        ("denominator_bound", 0),
        ("zero_probability", Fraction(3, 2)),
    ):
        with pytest.raises(AttributeError):
            setattr(cfg, name, value)
    assert cfg == SearchConfig(5, 0)


def test_replace_checks_the_copy_like_a_new_value():
    # Each of these once built an unchecked value; the first two then hung
    # the draw loop, which had no value below a bound of 0 to accept.
    with pytest.raises(PreconditionError):
        SearchConfig(5, 0)._replace(denominator_bound=0)
    with pytest.raises(PreconditionError):
        SearchConfig(5, 0)._replace(numerator_bound=0)
    with pytest.raises(PreconditionError):
        MacroState((1, 1, 1), (0, 0, 0))._replace(z=(-1, 0, 0))
    assert SearchConfig(5, 0)._replace(seed=3) == SearchConfig(5, 3)
    assert MacroState((1, 1, 1), (0, 0, 0))._replace(p=(2, 2, 2)) == MacroState((2, 2, 2), (0, 0, 0))
    # _make builds through __new__ too, which stores the zero probability as
    # a Fraction; a field the type does not have is the namedtuple's error.
    made = SearchConfig._make((5, 0, 100, 100, 0))
    assert made == SearchConfig(5, 0, zero_probability=0)
    assert type(made.zero_probability) is Fraction
    assert MacroState._make(((1, 1, 1), (0, 0, 0))) == MacroState((1, 1, 1), (0, 0, 0))
    with pytest.raises(ValueError, match="unexpected field names"):
        SearchConfig(5, 0)._replace(bogus=1)


def _widths(cfg):
    """The draw configuration of ``cfg``: its zero probability and bounds."""
    return cfg.zero_probability, cfg.numerator_bound, cfg.denominator_bound


def _draw(cfg, count=6):
    """The generated draw of a search of ``cfg`` over ``count`` variables."""
    return explorer._generated_draw(*_widths(cfg), count)


def _rejection(cfg, require_negative_product):
    """The generated rejection loop of ``_draw_state`` at ``cfg``."""
    return explorer._generated_rejection(*_widths(cfg), require_negative_product)


def _fuzz(cfg, require_negative_product):
    """The generated loop of a fuzz of ``cfg``."""
    return explorer._generated_fuzz(*_widths(cfg), require_negative_product)


# Every draw is checked on each configuration, with its fuzz states counted
# on seed 0 (on each of SEEDS for the default).  Power-of-two widths (zero
# tests below 2 and 4, a denominator below 64) are where n.bit_length() and
# (n - 1).bit_length() differ; 2**40 is wider than a 32-bit Mersenne Twister
# word; on "boundary", most negative-product fuzz states have a factor
# p_i + z_i of exactly 0, the edge of the int feasibility test.
DRAW_ROWS = {
    "default": (SearchConfig(1, 0), 200),
    "no-zero-test": (SearchConfig(1, 0, zero_probability=0), 60),
    "all-zero": (SearchConfig(1, 0, zero_probability=1), 60),
    "zero-third": (SearchConfig(1, 0, zero_probability=Fraction(1, 3)), 60),
    "bounds-1": (SearchConfig(1, 0, numerator_bound=1, denominator_bound=1), 60),
    "bounds-7-3": (SearchConfig(1, 0, numerator_bound=7, denominator_bound=3), 60),
    "denominator-64": (SearchConfig(1, 0, denominator_bound=64), 100),
    "zero-half": (SearchConfig(1, 0, zero_probability=Fraction(1, 2)), 100),
    "zero-quarter": (SearchConfig(1, 0, zero_probability=Fraction(1, 4)), 100),
    "numerator-2**40": (SearchConfig(1, 0, numerator_bound=2**40), 100),
    "boundary": (SearchConfig(1, 0, numerator_bound=1, denominator_bound=2), 100),
}
SEEDS = (0, 2**64 - 1)


def _clear_draw_caches():
    explorer._generated_draw.cache_clear()
    explorer._generated_rejection.cache_clear()
    explorer._generated_fuzz.cache_clear()
    explorer._generated_search.cache_clear()


@pytest.mark.parametrize("row", DRAW_ROWS)
def test_every_draw_is_the_reference_draw(row):
    # Each draw of the row's configuration is ``helpers.reference_draw``'s, on one
    # generator reseeded for every sample as in a run, and ends in its state.
    cfg, states = DRAW_ROWS[row]
    rng = random.Random(0)
    # The fuzz's loop accepts the candidate the Fraction tests accept, from the
    # same draws, and its state is that candidate times a positive factor:
    # v * d * n1 == v1 * d1 * n for each drawn v of each n/d, with v1 * n1 > 0.
    # At zero probability 1 no z_i > 0 can make p1*p2*p3 < 0 feasible.  The
    # fuzz loop counts the labels that the descents of these states reach.
    for negative in (False,) if cfg.zero_probability == 1 else (True, False):
        sample, accepted, zero_factors = _rejection(cfg, negative), [], 0
        for seed in SEEDS if row == "default" else SEEDS[:1]:
            labels = collections.Counter()
            for index in range(states):
                explorer._reseed(rng, seed, index)
                state = explorer._draw_state(
                    rng, lambda bits: accepted.append(sample(bits)) or accepted[-1])
                reference = helpers.sample_rng(seed, index)
                pairs, _ = helpers.reference_draw(reference, cfg, negative=negative)
                assert accepted[-1] == tuple(pairs) and helpers.same_state(rng, reference)
                drawn, (n1, d1) = state.p + state.z, pairs[:2]
                assert all(type(v) is int for v in drawn) and drawn[0] * n1 > 0
                assert all(v * d * n1 == drawn[0] * d1 * n
                           for v, n, d in zip(drawn, pairs[::2], pairs[1::2]))
                zero_factors += 0 in map(sum, zip(state.p, state.z))
                labels[greedy_minimize_z(state).case_label] += 1
            summary = minimize_fuzz(cfg._replace(sample_count=states, seed=seed), negative)
            assert labels == collections.Counter(summary.case_counts)
        assert zero_factors or row != "boundary"
    # The search's draw of 1 to 6 coordinates.
    draws = {count: _draw(cfg, count) for count in range(1, 7)}
    for index in range(60):
        for count, draw in draws.items():
            reference = helpers.sample_rng(0, index)
            expected, _ = helpers.reference_draw(reference, cfg, count)
            assert sample_point(rng, 0, index, draw) == tuple(expected)
            assert helpers.same_state(rng, reference)
    # A sample is a function of its seed and index alone: the previous row's
    # draw runs on the generator before each.
    other = _draw(list(DRAW_ROWS.values())[list(DRAW_ROWS).index(row) - 1][0])
    for seed in SEEDS:
        for index in range(250):
            other(rng.getrandbits)
            expected, _ = helpers.reference_draw(helpers.sample_rng(seed, index), cfg)
            assert sample_point(rng, seed, index, draws[6]) == tuple(expected)


def _pieces_search(poly, cfg):
    """``search_range``'s min_value, argmin, hits and probes, from the pieces
    that the search loop inlines, run one by one: the all-ones probe, then
    each ``sample_point`` of ``cfg``, valued by ``compile_evaluator``, and
    the first least value kept."""
    nvars = len(poly.varset)
    evaluate, draw, rng = compile_evaluator(poly), _draw(cfg, nvars), random.Random()
    points = [(1, 1) * nvars, *(sample_point(rng, cfg.seed, i, draw) for i in range(cfg.sample_count))]
    values = [Fraction(*evaluate(point)) for point in points]
    low, first = min(values), explorer._fractions(points[0])
    return (low, explorer._fractions(points[values.index(low)]),
            [(point, *evaluate(point)) for point, value in zip(points, values) if value < 0],
            [(first, values[0])])


@pytest.mark.parametrize("row", DRAW_ROWS)
def test_the_search_loop_is_its_pieces(row):
    # At every configuration and over 1 to 6 variables, the generated loop
    # reports what the pieces it inlines give.  Below 0 everywhere, every
    # point is a hit, each the sample_point of its index; at small bounds
    # the values tie often, and the first of the tied points is the argmin.
    cfg = DRAW_ROWS[row][0]._replace(sample_count=40, seed=5)
    for count in range(1, 7):
        x = corpus.variables(VarSet(f"x{i}" for i in range(count)))
        negative = -1 - sum(v * v for v in x)
        for poly in (negative, 1 + x[0] * x[0]):
            search = explorer._generated_search(poly, *_widths(cfg))
            report = explorer.search_range(search, poly.varset.names, cfg, "pieces")
            reported = report.min_value, report.argmin, report.hits, report.probes
            assert reported == _pieces_search(poly, cfg)
            assert len(report.hits) == (cfg.sample_count + 1 if poly is negative else 0)


# Each planted mutant of the draw emitters fails the reference test on the
# boundary row, and each of the search loop's fold the loop test there, so
# neither test passes vacuously.  a0 * a1 * a2 >= 0 made > 0 is left out: no
# p_i is 0, so that mutant is equivalent.  The fold's skip of a value >= 0,
# made unconditional, skips the probe too, and the loop returns no argmin.
@pytest.mark.parametrize("function, original, planted", [
    ("_draw_lines", 'below(f"n{i}", 2 * nb + 1, pad)\n        below(f"d{i}", db, pad)',
     'below(f"d{i}", db, pad)\n        below(f"n{i}", 2 * nb + 1, pad)'),
    ("_draw_lines", "if r < {zn}:", "if r <= {zn}:"),
    ("_draw_lines", "2 * nb + 1", "2 * nb"),
    ("_draw_lines", 'f"{indent}while n{i} == {nb}:"', 'f"{indent}if True:"'),
    ("_rejection_lines", "{factors} >= 0", "{factors} > 0"),
    ("_generated_search", '"num * best_den < best_num * den"', '"num * best_den <= best_num * den"'),
    ("_generated_search", '"            hits.append((point, num, den))"', '"            pass"'),
    ("_generated_search", '"        elif best_num > 0 and', '"        elif False and'),
], ids=["denominator-first", "zero-test-at-zn", "numerator-below-2nb", "p-numerator-0",
        "factor-0-rejected", "tie-replaces", "hit-dropped", "skip-unconditional"])
def test_the_reference_check_refutes_every_planted_mutant(monkeypatch, function, original, planted):
    monkeypatch.setattr(explorer, function, helpers.planted(explorer, function, original, planted))
    _clear_draw_caches()  # drop the code the real emitters wrote, and then the mutant's
    check = {"_generated_search": test_the_search_loop_is_its_pieces}.get(
        function, test_every_draw_is_the_reference_draw)
    try:
        with pytest.raises((AssertionError, UnboundLocalError)):
            check("boundary")
    finally:
        _clear_draw_caches()


@pytest.mark.parametrize("cache, run, other, key, calls", [
    (explorer._generated_search, lambda cfg: random_search("d-tilde", cfg),
     lambda cfg: random_search("cs", cfg), lambda cfg: (resolve_target("d-tilde"), *_widths(cfg)),
     lambda cfg: 2),
    (explorer._generated_fuzz, lambda cfg: minimize_fuzz(cfg, True),
     lambda cfg: minimize_fuzz(cfg, False), lambda cfg: (*_widths(cfg), True),
     lambda cfg: 1),
], ids=["search", "fuzz"])
def test_a_run_looks_up_its_cached_draw_once(monkeypatch, cache, run, other, key, calls):
    # The search and the fuzz each look up their loop once a run, by the
    # exact key.  The search calls it twice, for the probe and then for the
    # samples, and the fuzz once.  Other seeds and sizes share it; another
    # polynomial, width or product test gets its own.  Cold and warm agree.
    cfg = SearchConfig(20, 3)
    drawn = _draw(cfg, 6), _draw(cfg, 4), _rejection(cfg, True), _rejection(cfg, False)
    assert len({*drawn, _fuzz(cfg, True), _fuzz(cfg, False)}) == 6
    looked_up = []  # the generator, the key, the cached function and its calls
    generators = (explorer._generated_draw, explorer._generated_rejection, explorer._generated_fuzz,
                  explorer._generated_search)
    for generator in generators:
        def lookup(*key, generator=generator):
            found, made = generator(*key), []
            looked_up.append((generator, key, found, made))
            return lambda *args: made.append(args) or found(*args)

        monkeypatch.setattr(explorer, generator.__name__, lookup)

    def looked_up_by(cfg, run=run):
        looked_up.clear()
        report = run(cfg).to_dict()
        ((generator, found_key, found, made),) = looked_up
        assert generator is cache and len(made) == calls(cfg)
        assert run is other or found_key == key(cfg)
        return report, found

    cache.cache_clear()
    cold, found = looked_up_by(SearchConfig(300, 8))
    assert cache.cache_info()[:2] == (0, 1)  # hits, misses
    assert looked_up_by(SearchConfig(300, 8)) == (cold, found)
    assert cache.cache_info()[:2] == (1, 1)
    for cfg in (SearchConfig(20, 3), SearchConfig(35, 8)):
        assert looked_up_by(cfg)[1] is found
    for options in ({"numerator_bound": 7}, {"denominator_bound": 7}, {"zero_probability": Fraction(1, 3)}):
        assert looked_up_by(SearchConfig(20, 8, **options))[1] is not found
    assert looked_up_by(SearchConfig(300, 8), other)[1] is not found


# -- random search ---------------------------------------------------------------


def test_search_d_tilde_finds_no_counterexample():
    cfg = SearchConfig(sample_count=2000, seed=42)
    report = random_search("d-tilde", cfg)
    assert report.target == "d-tilde"
    assert report.samples_run == 2000
    assert report.counterexamples == []
    assert report.min_value >= 0
    # the all-ones probe is an equality case, so the exact minimum is 0
    assert report.min_value == 0
    assert report.probes == [((1,) * 6, 0)]


def test_search_report_argmin_matches_min_value():
    poly = resolve_target("weak")
    cfg = SearchConfig(sample_count=500, seed=7)
    report = random_search("weak", cfg)
    point = dict(zip(report.variables, report.argmin))
    assert poly.evaluate(point) == report.min_value


def test_search_is_deterministic():
    cfg = SearchConfig(sample_count=400, seed=2718)
    first = random_search("cs", cfg)
    second = random_search("cs", cfg)
    assert first.to_dict() == second.to_dict()


def test_search_dk_above_half_finds_negative_hits():
    poly = resolve_target("d-k", c=Fraction(3, 5))
    cfg = SearchConfig(sample_count=2000, seed=1)
    report = random_search("d-k", cfg, Fraction(3, 5))
    assert len(report.counterexamples) > 0
    for point, value in report.counterexamples:
        assert value < 0
        assert poly.evaluate(dict(zip(report.variables, point))) == value


def test_rational_text_is_the_fraction_text():
    # The manifest writes each hit from its unreduced ints: the text must be
    # Fraction's, reduced, with no "/1" (n = 0 and d dividing n included).
    big = 3**63 * 5  # about 100 bits
    cases = [(n, d) for n in range(-30, 31) for d in range(1, 31)]
    cases += [(0, 7), (0, big), (42, 7), (-42, 6), (big * 7, 7), (-big, big), (big, big + 2),
              (big * 6, (2**101 + 1) * 4), (-(2**100 + 3), 2**99 * 3)]
    for n, d in cases:
        assert explorer._rational_text(n, d) == str(Fraction(n, d)), (n, d)
    # Over the int-to-text digit limit both raise the same ValueError, the
    # one the CLI reports as a result too long to print (exit 2).  A limit
    # of 0, or none, converts ints of any length.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    over = 10 ** (limit + 1)
    for n, d in ((over, 1), (-over, 3), (3, over + 1)) if limit else ():
        with pytest.raises(ValueError) as ours:
            explorer._rational_text(n, d)
        with pytest.raises(ValueError) as fractions:
            str(Fraction(n, d))
        assert str(ours.value) == str(fractions.value)
        assert "integer string conversion" in str(ours.value)


# Every polynomial the search compiles, c = 1/3 giving Fraction
# coefficients and c = 1 the one 23-term k-form trie that no check side
# has, and a check's name for each side of its identities.
EVALUATED = [("d-tilde", None), ("d-k", Fraction(5)), ("d-k", Fraction(1, 3)), ("d-k", Fraction(1)),
             ("weak", None), ("cs", None), *((check, None) for check in verifier.CHECK_NAMES)]


def _evaluated_polys(target, c):
    if target in verifier.CHECK_NAMES:
        return [side for _, *sides in verifier.identity_components(target) for side in sides]
    return [resolve_target(target, c)]


@pytest.mark.parametrize("target, c", EVALUATED)
def test_compiled_target_returns_the_per_term_pair(target, c):
    # The nested Horner form only regroups the per-term sum.  The generated
    # code only adds, subtracts and multiplies, so run on the symbols n_i,
    # d_i it returns the same two polynomials as the sum exactly when it
    # returns the same two ints at every point.
    for poly in _evaluated_polys(target, c):
        symbols = helpers.symbolic_pairs(poly.varset)
        assert compile_evaluator(poly)(symbols) == helpers.per_term_pair(poly, symbols)


def _search(poly, cfg=SearchConfig(1, 0)):
    """The search loop of ``poly`` at ``cfg``'s draw, compiled anew."""
    return explorer._generated_search.__wrapped__(poly, *_widths(cfg))


@pytest.mark.parametrize("target, c", [("draws", None), *EVALUATED])
def test_only_int_literals_reach_compile(monkeypatch, target, c):
    # No VarSet or config text reaches compile(): every row's draw, rejection,
    # fuzz and search loops, and each evaluator and search loop the search
    # compiles, hold int literals and names.
    sources = []
    monkeypatch.setattr(explorer, "compile", lambda *args: sources.append(args[:2]) or compile(*args),
                        raising=False)
    if target == "draws":
        _clear_draw_caches()
        for cfg, _ in DRAW_ROWS.values():
            _draw(cfg), _rejection(cfg, True), _rejection(cfg, False), _fuzz(cfg, True), _fuzz(cfg, False)
            _search(resolve_target("cs"), cfg)
        expected = ["<compile_draw>"] * 3 + ["<compile_fuzz>"] * 2 + ["<compile_search>"]
    else:
        polys = _evaluated_polys(target, c)
        for poly in polys:
            compile_evaluator(poly), _search(poly)
        expected = ["<compile_evaluator>", "<compile_search>"]
    runs = len(DRAW_ROWS if target == "draws" else polys)
    assert [filename for _, filename in sources] == expected * runs
    for source, _ in sources:
        constants = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Constant)]
        assert constants and all(type(node.value) is int for node in constants)


@pytest.mark.parametrize("target, c", EVALUATED)
def test_the_search_loop_evaluates_with_the_evaluator_lines(monkeypatch, target, c):
    # The loop values each sample with the statements compile_evaluator runs,
    # line for line, one block deeper, right after the draw: the symbolic
    # check above covers the loop's arithmetic too.
    sources = []
    monkeypatch.setattr(explorer, "compile", lambda *args: sources.append(args[0]) or compile(*args),
                        raising=False)
    for poly in _evaluated_polys(target, c):
        sources.clear()
        compile_evaluator(poly), _search(poly)
        evaluator, loop = (source.splitlines() for source in sources)
        *statements, value = evaluator[4:]
        expected = [f"    {line}" for line in statements]
        expected.append(f"        num, den = {value.removeprefix('    return ')}")
        start = loop.index(expected[-1]) - len(statements)
        assert loop[start:start + len(expected)] == expected
        last = len(poly.varset) - 1
        assert loop[start - 1] == f"            n{last}_1, d{last}_1 = n{last} - 100, d{last} + 1"


def test_the_symbolic_check_refutes_every_planted_mutant(monkeypatch):
    # Each += and -= of the generated d-tilde source flipped, and each int
    # literal, the arity included, plus 1 (30 mutants): the check above
    # tells every one from the per-term pair, so it cannot pass vacuously.
    sources = []
    monkeypatch.setattr(explorer, "compile", lambda *args: sources.append(args[0]) or compile(*args),
                        raising=False)
    poly = resolve_target("d-tilde")
    wrong_arity = compile_evaluator(poly).__globals__["_wrong_arity"]  # it raises
    (source,) = sources
    symbols = helpers.symbolic_pairs(poly.varset)
    expected = helpers.per_term_pair(poly, symbols)

    def run(text):
        namespace = {"_wrong_arity": wrong_arity}
        exec(compile(text, "<mutant>", "exec"), namespace)
        try:
            return namespace["evaluate"](symbols)
        except StructuralError:  # a wrong arity literal
            return None

    assert run(source) == expected
    sites = list(re.finditer(r"[+-]=|\b\d+\b", source))
    assert {"+=", "-=", "12"} <= {site[0] for site in sites}
    for site in sites:
        planted = {"+=": "-=", "-=": "+="}.get(site[0]) or str(int(site[0]) + 1)
        assert run(source[:site.start()] + planted + source[site.end():]) != expected


def test_compiled_d_tilde_makes_at_most_110_multiplications():
    # One product of powers per term took 205.
    assert 0 < helpers.multiplications(compile_evaluator(resolve_target("d-tilde"))) <= 110


def test_the_probe_and_then_the_first_tied_sample_win_ties():
    # At zero probability 1/2 some samples are the zero point, where d-tilde
    # is 0 like at the all-ones probe; the probe keeps the argmin.
    cfg = SearchConfig(200, 4, zero_probability=Fraction(1, 2))
    report = random_search("d-tilde", cfg)
    assert report.min_value == 0
    assert report.argmin == (1,) * 6
    # Among the samples, too, the first of the tied ones keeps it: at c = 5
    # with coordinates in {-1, 0, 1} the negative minimum recurs.
    poly = resolve_target("d-k", c=Fraction(5))
    cfg = SearchConfig(100, 0, numerator_bound=1, denominator_bound=1)
    evaluate = compile_evaluator(poly)
    rng = random.Random(0)
    points = [sample_point(rng, 0, i, _draw(cfg)) for i in range(100)]
    values = [Fraction(*evaluate(pt)) for pt in points]
    lowest = min(values)
    assert lowest < 0 and values.count(lowest) > 1
    first = points[values.index(lowest)]
    assert first != points[len(values) - 1 - values[::-1].index(lowest)]
    report = random_search("d-k", cfg, Fraction(5))
    assert report.min_value == lowest
    assert report.argmin == tuple(Fraction(first[k], first[k + 1]) for k in range(0, 12, 2))


# -- greedy minimization ------------------------------------------------------


def test_macro_state_invariants():
    state = MacroState((-1, -2, -3), (1, 2, 3))
    assert state.c == (Fraction(19), Fraction(13), Fraction(7))
    assert corpus.feasibility_value(state.p, state.z) == 0
    assert state.is_feasible()
    assert state.d_value() == 60
    good = MacroState((1, 1, 1), (0, 0, 0))
    assert_every_door_refuses(good, z=(-1, 0, 0))
    assert_every_door_refuses(good, p=(1, 1), z=(0, 0))


def test_a_built_macro_state_is_immutable():
    # Floats, bools or a negative z assigned after the checks would run
    # through the descent and the classifier unchecked.
    s = MacroState((1, 1, 1), (0, 0, 0))
    with pytest.raises(AttributeError):
        s.p = (0.5, 1.5, True)
    with pytest.raises(AttributeError):
        s.z = [2.5, -0.0, 0]
    assert s == MacroState((1, 1, 1), (0, 0, 0))


def test_macro_state_keeps_int_coordinates():
    state = MacroState((-1, -2, -3), (1, 2, 3))
    assert all(type(v) is int for v in state.p + state.z + state.c)
    assert type(state.d_value()) is int
    assert type(corpus.feasibility_value(state.p, state.z)) is int
    as_fractions = MacroState(
        tuple(Fraction(v) for v in state.p), tuple(Fraction(v) for v in state.z)
    )
    assert state.to_dict() == as_fractions.to_dict() == {
        "p": ["-1", "-2", "-3"],
        "z": ["1", "2", "3"],
        "c": ["19", "13", "7"],
        "d": "60",
    }
    mixed = MacroState((Fraction(-1, 2), Fraction(2, 3), 4), (0, Fraction(3, 4), Fraction(1)))
    assert mixed.p == (Fraction(-1, 2), Fraction(2, 3), 4)
    assert type(mixed.p[0]) is Fraction and type(mixed.p[2]) is int
    assert type(mixed.z[0]) is int and type(mixed.z[1]) is Fraction


def test_macro_state_refuses_floats_and_bools():
    # At 0.1 the state would hold 3602879701896397/36028797018963968.
    for p, z in [((0.1, 1, 1), (0, 0, 0)), ((1, 1, True), (0, 0, 0)), ((1, 1, 1), (0, 0.5, 0))]:
        assert_every_door_refuses(MacroState((1, 1, 1), (0, 0, 0)), p=p, z=z)


def test_macro_state_refuses_strings_that_are_not_rationals():
    # "1/0" is not a ZeroDivisionError and "abc" not a bare ValueError.
    for p, z in [(("1/0", 1, 1), (0, 0, 0)), (("abc", 1, 1), (0, 0, 0)), ((1, 1, 1), (0, "x", 0))]:
        assert_every_door_refuses(MacroState((1, 1, 1), (0, 0, 0)), p=p, z=z)


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
        assert constraint.evaluate(point) == corpus.feasibility_value(state.p, state.z)
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
    assert trace.to_dict()["steps"] == [
        {"coordinate": "z3", "old_value": "1", "new_value": "0", "d_before": "8", "d_after": "5"},
        {"coordinate": "z2", "old_value": "1", "new_value": "0", "d_before": "5", "d_after": "2"},
    ]
    assert trace.final.z == (1, 0, 0)
    assert trace.final.d_value() == 2
    assert trace.case_label == "iii"


def test_greedy_already_at_vertex():
    trace = greedy_minimize_z(MacroState((1, 1, 1), (0, 0, 0)))
    assert trace.steps == ()
    assert trace.case_label == "iv"
    assert trace.final.d_value() == 1


def test_greedy_preconditions():
    with pytest.raises(PreconditionError):
        greedy_minimize_z(MacroState((0, 1, 1), (0, 0, 0)))
    with pytest.raises(PreconditionError, match=r"^infeasible start: constraint value -1 < 0$"):
        greedy_minimize_z(MacroState((-2, 1, 1), (1, 0, 0)))  # product (-1)(1)(1) < 0
    with pytest.raises(PreconditionError):
        greedy_minimize_z(MacroState((1, 1, 1), (0, 0, 0)), order=(1, 1, 3))
    # A bool or a float equal to 1 is no coordinate number, a repeat no
    # permutation, and an unhashable item or a non-iterable order (the int
    # 321, None) is refused, not a TypeError.
    orders = ((True, 2, 3), (1.0, 2, 3), (1, 2, 3.0), [1, 1, 3], [[1], 2, 3], 321, None)
    for order in orders:
        with pytest.raises(PreconditionError, match=r"order must be a permutation of \(1, 2, 3\)"):
            greedy_minimize_z(MacroState((1, 1, 1), (0, 0, 0)), order=order)
    # Any sequence of the three ints is an order.
    state = MacroState((-1, -2, -3), (1, 2, 3))
    listed, default = greedy_minimize_z(state, [3, 2, 1]), greedy_minimize_z(state)
    assert listed.steps == default.steps and listed.final.z == default.final.z


# One (p_i, z_i) per sign kind of a coordinate: p_i > 0 with z_i = 0 or
# z_i > 0, and p_i < 0 with z_i = 0, 0 < z_i < -p_i, z_i = -p_i or z_i > -p_i.
# Every branch of the descent reads only the signs of p_i, of the factors
# p_i + z_i and of their products, and each step sets z_i to 0 or -p_i, a
# kind again; so the 6^3 patterns in the six orders take every path the
# descent has, and the scaled copies check each path's homogeneity.
KINDS = ((1, 0), (1, 1), (-2, 0), (-2, 1), (-2, 2), (-2, 4))
SCALE = 6
_Z_INDEX = {"z1": 0, "z2": 1, "z3": 2}


def _checked_descent(descend, state, order):
    """``descend(state, order)``, each step checked to lower z_i to 0 or
    -p_i with its recorded d equal to ``corpus.d_value`` recomputed there;
    returns the trace and the classification of its final state."""
    trace = descend(state, order)
    p, z = state.p, list(state.z)
    for coordinate, old, new, d_before, d_after in trace.steps:
        i = _Z_INDEX[coordinate]
        assert old == z[i] and new < old and new in (0, -p[i])
        assert d_before == corpus.d_value(p, z)
        z[i] = new
        assert d_after == corpus.d_value(p, z)
    assert trace.final == (p, tuple(z))
    classification = case_classify(trace.final)
    assert classification.label == trace.case_label
    # Monotonicity and d >= 0 at the vertex depend on magnitudes, not signs
    # (they need c_i >= 0): on the representatives they are only samples.
    assert failed_guarantees(trace, classification) == []
    return trace, classification


def _check_every_sign_path(descend):
    """Runs ``descend`` on every kind pattern, refused when infeasible and
    else in every order, each run again on its copy scaled by SCALE."""
    refused, runs = 0, collections.Counter()
    cube = SCALE**3
    for pattern in itertools.product(KINDS, repeat=3):
        p, z = zip(*pattern)
        state = MacroState(p, z)
        scaled = MacroState([SCALE * v for v in p], [SCALE * v for v in z])
        if not state.is_feasible():
            refused += 1
            for start in (state, scaled):
                with pytest.raises(PreconditionError, match="^infeasible start"):
                    descend(start)
            continue
        for order in itertools.permutations((1, 2, 3)):
            trace, classification = _checked_descent(descend, state, order)
            scaled_trace, scaled_classification = _checked_descent(descend, scaled, order)
            assert scaled_trace.steps == tuple(
                (name, SCALE * old, SCALE * new, cube * before, cube * after)
                for name, old, new, before, after in trace.steps
            )
            label, permutation, value = classification
            assert scaled_classification == (label, permutation, cube * value)
            runs[p[0] * p[1] * p[2] < 0, label] += 1
    # A negative product always ends in case iii, a positive one in iii or iv.
    assert refused == 62
    assert runs == {(True, "iii"): 444, (False, "iii"): 72, (False, "iv"): 408}


def test_the_descent_is_checked_on_every_sign_path():
    _check_every_sign_path(greedy_minimize_z)


# Each planted mutant of the descent's source, run through the enumeration,
# fails it, so the enumeration cannot pass vacuously.  An infeasible start
# that is not refused fails the inner pytest.raises.
@pytest.mark.parametrize("original, planted", [
    ("(p[k] + z[k]) > 0", "(p[k] + z[k]) >= 0"),
    ("new_value = -p[i]", "new_value = p[i]"),
    pytest.param("z[i] = new_value\n            d_after = corpus.d_value(p, z)",
                 "d_after = corpus.d_value(p, z)\n            z[i] = new_value", id="d_after-read-early"),
    ("_OTHERS[i]", "_OTHERS[i - 1]"),
    ("new_value != old_value", "new_value <= old_value"),
    ("feasibility < 0", "feasibility < -1"),
])
def test_the_sign_enumeration_refutes_every_planted_mutant(original, planted):
    # A z_i set to p_i > 0 is refused first, by the final state's own MacroState check.
    refused = PreconditionError if planted == "new_value = p[i]" else (AssertionError, pytest.fail.Exception)
    with pytest.raises(refused):
        _check_every_sign_path(helpers.planted(explorer, "greedy_minimize_z", original, planted))


def _state_function(state_lines):
    """The fuzz loop's per-state statements of ``state_lines`` compiled alone,
    as ``compile_evaluator`` wraps ``_evaluator_lines``: from a state's six
    ints to its label, the broken guarantees' names, the final z, the
    carried d (None without a step) and the closed form (None off a vertex)."""
    lines = ["def state(p0, p1, p2, z0, z1, z2):", *state_lines("    "),
             "    return label, broken, (z0, z1, z2), d if stepped else None, None if mixed else value"]
    state = explorer._compiled(lines, "state", "<state>", **explorer._FUZZ_NAMES)

    def run(p, z):
        label, broken, *rest = state(*p, *z)
        return label, [name for name, bad in zip(explorer.GUARANTEES, broken) if bad], *rest

    return run


def _check_every_state_path(state_lines):
    """Runs the statements of ``state_lines`` on every kind pattern and its
    copy scaled by SCALE, and on a zero p: each refused with the message of
    ``greedy_minimize_z`` where it refuses, else reporting what the
    descent in order (3, 2, 1), its classification and check report."""
    run, refused = _state_function(state_lines), set()
    with pytest.raises(PreconditionError, match="^greedy minimization requires nonzero p"):
        run((1, 0, 1), (0, 0, 0))
    for pattern in itertools.product(KINDS, repeat=3):
        p, z = zip(*pattern)
        for state in (MacroState(p, z), MacroState([SCALE * v for v in p], [SCALE * v for v in z])):
            if not state.is_feasible():
                refused.add(pattern)
                with pytest.raises(PreconditionError) as library:
                    greedy_minimize_z(state)
                with pytest.raises(PreconditionError, match="^infeasible start") as loop:
                    run(state.p, state.z)
                assert str(loop.value) == str(library.value)
                continue
            trace = greedy_minimize_z(state)
            classification = case_classify(trace.final)
            assert run(state.p, state.z) == (
                trace.case_label, failed_guarantees(trace, classification), trace.final.z,
                trace.steps[-1].d_after if trace.steps else None, classification.closed_form_value)
    assert len(refused) == 62


def test_the_fuzz_state_lines_are_checked_on_every_sign_path():
    _check_every_state_path(explorer._state_lines)


def test_the_fuzz_loop_runs_the_state_lines(monkeypatch):
    # The loop checks each state with _state_lines' statements, line for
    # line, right after it scales the accepted candidate and right before it
    # tallies: the enumeration above covers the loop's per-state work.
    sources = []
    monkeypatch.setattr(explorer, "compile", lambda *args: sources.append(args[0]) or compile(*args),
                        raising=False)
    state = explorer._state_lines("        ")
    for negative in (True, False):
        sources.clear()
        explorer._generated_fuzz.__wrapped__(*_widths(SearchConfig(1, 0)), negative)
        loop = sources[0].splitlines()
        start = loop.index(state[0])
        assert loop[start:start + len(state)] == state
        assert loop[start - 1].startswith("        p2, z2 = a2 * (s // b2)")
        assert loop[start + len(state)] == "        cases[label] += 1"


# Each planted mutant of the per-state emitter, the six of the descent's
# enumeration and two in the classification, fails the enumeration above.
@pytest.mark.parametrize("original, planted", [
    ("(p{k} + z{k}) > 0", "(p{k} + z{k}) >= 0"),
    ("w = -p{i} if", "w = p{i} if"),
    ("c[{i}] *", "c[{i - 1}] *"),
    ("_OTHERS[i]", "_OTHERS[i - 1]"),
    ("if w != z{i}:", "if w <= z{i}:"),
    ('"if f < 0:"', '"if f < -1:"'),
    ("p[i - 1], p[j - 1]", "p[j - 1], p[i - 1]"),
    ("negative and not pinned", "negative and pinned == 1"),
])
def test_the_state_enumeration_refutes_every_planted_mutant(original, planted):
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        _check_every_state_path(helpers.planted(explorer, "_state_lines", original, planted))


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


# Every pattern of pinned coordinates (0-based), in ints, in Fractions and
# in the MACRO variables p1, p2, p3: on those the closed form equals d as a
# polynomial, so for every p with that pattern.
@pytest.mark.parametrize("pinned", [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)])
@pytest.mark.parametrize(
    "base",
    [(2, 3, 5), (Fraction(2, 3), Fraction(3, 7), Fraction(5, 11)), helpers.macro_triples()[0]],
    ids=["ints", "fractions", "symbols"],
)
def test_classify_permutation_puts_the_pinned_indices_first(pinned, base):
    # A pinned coordinate has p_i = -base_i and z_i = base_i, the others
    # p_i = base_i and z_i the int 0 (a zero Polynomial would be truthy).
    # MacroState(...) refuses Polynomials, so the state is built unchecked.
    p = tuple(-b if i in pinned else b for i, b in enumerate(base))
    z = tuple(b if i in pinned else 0 for i, b in enumerate(base))
    state = tuple.__new__(MacroState, (p, z))
    result = case_classify(state)
    rest = [i for i in range(3) if i not in pinned]
    assert result.permutation == tuple(i + 1 for i in [*pinned, *rest])
    assert result.label == corpus.CASE_LABELS[len(pinned)]
    assert result.closed_form_value == state.d_value()


def test_classify_rejects_non_vertex_and_zero_p():
    not_a_vertex = r"^not a vertex: some z_i is neither 0 nor -p_i at p=\(-1, 1, 1\), z=\(5, 0, 0\)$"
    state = MacroState((-1, 1, 1), (5, 0, 0))
    with pytest.raises(PreconditionError, match=not_a_vertex):
        case_classify(state)
    with pytest.raises(PreconditionError, match=r"^case analysis requires nonzero p coordinates$"):
        case_classify(MacroState((0, 1, 1), (0, 0, 0)))


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


def test_sharpness_witness_k3_is_the_smallest_that_breaks_the_k_form():
    # c just above 1/2, above 9/2 (where k3 = 1), and with 30-digit parts.
    rng = random.Random(0)
    half_plus = [Fraction(1, 2) + Fraction(1, rng.randrange(2, 10**6)) for _ in range(40)]
    large = [Fraction(9, 2) + rng.randrange(1, 10**6) for _ in range(40)]
    wide = [
        Fraction(rng.randrange(10**29, 10**30), rng.randrange(10**29, 2 * 10**29))
        for _ in range(40)
    ]
    for c in half_plus + large + wide + [Fraction(9, 2) + Fraction(1, 10**30)]:
        witness = sharpness_witness(c)
        k3 = witness.k[2]
        assert witness.k == (0, 0, k3) and witness.b == (1, 1, 1)
        assert witness.value == corpus.k_form(0, 0, k3, 1, 1, 1, c) < 0
        assert corpus.k_form(0, 0, k3 - 1, 1, 1, 1, c) >= 0
    assert sharpness_witness(large[0]).k[2] == 1


def test_sharpness_rejects_half_and_below():
    with pytest.raises(PreconditionError):
        sharpness_witness(Fraction(1, 2))
    with pytest.raises(PreconditionError):
        sharpness_witness(Fraction(1, 4))


def test_sharpness_refuses_a_float_or_bool_c():
    for bad in (0.6, True):
        with pytest.raises(PreconditionError):
            sharpness_witness(bad)


def test_sharpness_witness_point_is_safe_at_half():
    # the same point under the proved constant evaluates to (1-1)*9 + 8 = 8
    witness = sharpness_witness(1)
    point = {"k1": 0, "k2": 0, "k3": witness.k[2], "b1": 1, "b2": 1, "b3": 1}
    assert helpers.k_form_polynomial().evaluate(point) == 8


# -- minimizer fuzz ---------------------------------------------------------------


def test_fuzz_counts_a_non_vertex_final_state(monkeypatch):
    # case_classify refuses such a state; the fuzz counts it instead.
    helpers.end_fuzz_off_vertex(monkeypatch)
    summary = minimize_fuzz(SearchConfig(3, 0))
    assert summary.case_counts == {"i": 0, "ii": 0, "iii": 0, "iv": 0, "mixed": 3}
    assert summary.failures == {**dict.fromkeys(explorer.GUARANTEES, 0), "vertex": 3}
    assert (summary.passed, summary.failed) == (0, 3)


def test_fuzz_rejection_exhaustion_is_a_precondition_error(monkeypatch):
    # Every candidate has p = (1, 1, 1), so none has p1*p2*p3 < 0: the draw
    # gives up after its 10000 attempts.  Under the default widths a
    # candidate draws each p_i's raw numerator in 8 bits (101, numerator 1)
    # and raw denominator in 7 (0, denominator 1), then each z_i's zero test
    # in 5 (0, a hit).
    widths = []

    class PositiveRandom(random.Random):
        def getrandbits(self, k):
            widths.append(k)
            return {8: 101, 7: 0, 5: 0}[k]

    monkeypatch.setattr(explorer, "random", SimpleNamespace(Random=PositiveRandom))
    message = r"^rejection sampling found no admissible state in 10000 draws$"
    with pytest.raises(PreconditionError, match=message):
        minimize_fuzz(SearchConfig(sample_count=1, seed=0), require_negative_product=True)
    assert widths == [8, 7, 8, 7, 8, 7, 5, 5, 5] * 10000


def test_fuzz_refuses_an_unsatisfiable_draw_before_drawing(monkeypatch):
    def no_draw(rng, first, stop, cases):
        raise AssertionError("drew a candidate")

    monkeypatch.setattr(explorer, "_generated_fuzz", lambda *args: no_draw)
    cfg = SearchConfig(sample_count=1, seed=0, zero_probability=Fraction(1))
    with pytest.raises(PreconditionError, match="rejection sampling"):
        minimize_fuzz(cfg, require_negative_product=True)
    # The patched draw is the one the fuzz draws with: a satisfiable run hits it.
    with pytest.raises(AssertionError, match="drew a candidate"):
        minimize_fuzz(cfg._replace(zero_probability=Fraction(1, 16)), require_negative_product=True)


def test_a_fuzz_run_keeps_its_call_ledger(monkeypatch):
    # Counted by replacing module attributes, as the benchmark's tracer
    # times the layers, so the fuzz loop must look each one up at call time.
    # Per state it draws, however many candidates, and descends inline and
    # builds no state; it forms c once, d once if the descent steps and
    # once more at the final state, and the closed form once.  So it calls
    # none of the functions it inlines, and nothing builds a MacroState.
    cfg, rng = SearchConfig(200, 5), random.Random()
    steps = []  # from the functions the loop inlines, before they are counted
    for index in range(200):
        explorer._reseed(rng, 5, index)
        steps.append(greedy_minimize_z(explorer._draw_state(rng, _rejection(cfg, True))).steps)
    returned = collections.defaultdict(list)

    def counting(name, wrapped):
        def counted(*args, **kwargs):
            returned[name].append(wrapped(*args, **kwargs))
            return returned[name][-1]

        return counted

    for module, name in ((explorer, "_draw_state"), (explorer, "greedy_minimize_z"),
                         (explorer, "case_classify"), (explorer, "vertex_label"),
                         (explorer, "failed_guarantees"), (corpus, "c_values"),
                         (corpus, "d_value"), (corpus, "case_value")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for name, key in (("_generated_draw", "draw"), ("_generated_rejection", "sample")):
        generate = getattr(explorer, name)
        monkeypatch.setattr(
            explorer, name, lambda *args, key=key, generate=generate: counting(key, generate(*args))
        )
    monkeypatch.setattr(MacroState, "__new__", counting("MacroState", MacroState.__new__))
    summary = minimize_fuzz(cfg, True)
    assert (summary.samples_run, summary.passed) == (200, 200)
    attempts = sum(helpers.reference_draw(helpers.sample_rng(5, index), cfg, negative=True)[1]
                   for index in range(200))
    assert attempts > 200
    # d before the first step, carried by the step identity after each,
    # then once at the final state.
    d_values = sum(bool(s) + 1 for s in steps)
    assert {name: len(values) for name, values in returned.items()} == {
        "c_values": 200, "d_value": d_values, "case_value": 200,
    }  # and no "draw", "sample" or "MacroState": no validating construction


def test_every_unvalidated_state_passes_the_validating_constructor(monkeypatch):
    # The fuzz loop builds no MacroState, so nothing checks the states it
    # works on.  Every state two runs of 250 states draw, and each final
    # state of their descents, read from the loop's int locals, must pass
    # MacroState's checks unchanged: the same values of the same types,
    # three ints each, z >= 0.
    built = []
    state = ["record((p0, p1, p2), (z0, z1, z2))"]
    helpers.insert_state_lines(monkeypatch, {"if not (p0": state, "mixed = ": state},
                               record=lambda p, z: built.append((p, z)))
    for seed, negative in ((0, True), (1, False)):
        minimize_fuzz(SearchConfig(250, seed), negative)
    assert len(built) == 2 * 500
    for p, z in built:
        checked = MacroState(p, z)
        assert checked == (p, z)  # both tuples
        assert list(map(type, checked.p + checked.z)) == [int] * 6


def _step_identity_fails(slope):
    """The 0-based i at which d(p, z with z_i := w) - d(p, z) differs from
    slope(c, i) * (w - z_i), for the MACRO p, z and a fresh variable w."""
    p1, p2, p3, z1, z2, z3, w = corpus.variables(VarSet((*corpus.MACRO.names, "w")))
    p, z = (p1, p2, p3), (z1, z2, z3)
    c, d = corpus.c_values(*p), corpus.d_value(p, z)
    return [i for i in range(3)
            if corpus.d_value(p, z[:i] + (w,) + z[i + 1:]) - d != slope(c, i) * (w - z[i])]


def test_a_step_changes_d_by_c_i_times_the_change():
    # d is linear in each z_i with slope c_i, so the fuzz loop carries d
    # across a step by c_i*(new - old).  On symbols this holds for every
    # state; a planted mutant that takes c of the wrong index fails at every i.
    assert _step_identity_fails(lambda c, i: c[i]) == []
    assert _step_identity_fails(lambda c, i: c[i - 1]) == [0, 1, 2]


def test_the_lcm_scaling_is_exact_on_symbols():
    # The module docstring's argument for scaling a drawn state by the lcm L
    # of its denominators, on symbols: at (L*p, L*z), d, the feasibility
    # product and every case closed form are L^3 times their value, and each
    # c_i is L^2 times its value.
    p1, p2, p3, z1, z2, z3, L = corpus.variables(VarSet((*corpus.MACRO.names, "L")))
    p, z = (p1, p2, p3), (z1, z2, z3)
    lp, lz = tuple(L * v for v in p), tuple(L * v for v in z)
    cube = L * L * L
    assert corpus.d_value(lp, lz) == cube * corpus.d_value(p, z)
    assert corpus.feasibility_value(lp, lz) == cube * corpus.feasibility_value(p, z)
    for label in corpus.CASE_LABELS:
        assert corpus.case_value(label, *lp) == cube * corpus.case_value(label, *p)
    assert corpus.c_values(*lp) == tuple(L * L * c for c in corpus.c_values(*p))
    # Not vacuous: scaling p alone does not scale d by L^3.
    assert corpus.d_value(lp, z) != cube * corpus.d_value(p, z)


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


def _check_failed_guarantees(failed_guarantees):
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
    off_vertex = helpers.end_off_vertex(trace.initial)
    assert failed_guarantees(off_vertex, None) == ["vertex"]
    s = MacroState((-1, -1, -1), (0, 0, 0))
    assert failed_guarantees(explorer.MinimizeTrace(s, (), s, "iv"), None) == [
        "negativity", "case_iv_negative_product"]


def test_failed_guarantees_names_each_broken_guarantee():
    _check_failed_guarantees(failed_guarantees)


# Each guarantee of failed_guarantees, planted as always held, fails the check
# above, so no guarantee goes untested.
@pytest.mark.parametrize("held", [
    "all(step.d_after <= step.d_before for step in trace.steps)",
    'trace.case_label != "mixed"',
    "not negative_product or d >= 0",
    "classification is None or classification.closed_form_value == d",
    'not (negative_product and trace.case_label == "iv")',
], ids=explorer.GUARANTEES)
def test_the_guarantee_check_refutes_every_planted_mutant(held):
    with pytest.raises(AssertionError):
        _check_failed_guarantees(helpers.planted(explorer, "failed_guarantees", held, "True"))
