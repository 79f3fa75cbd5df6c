"""Exact-rational exploration around the inequality and its proof.

Five tools, all exact (no floating point anywhere):

  random_search      evaluates a target polynomial at seeded random rational
                     points and reports the exact minimum plus any strictly
                     negative hits
  greedy_minimize_z  replays the proof's coordinate descent: lower z3, then
                     z2, then z1 to the smallest feasible nonnegative value,
                     landing on a vertex with every z_i in {0, -p_i}
  case_classify      maps a vertex to one of the four canonical cases by
                     index permutation and evaluates its closed form
  sharpness_witness  for any bracket constant C > 1/2 produces an explicit
                     point where the C-version of the inequality fails
  minimize_fuzz      runs the descent and the classifier on seeded random
                     feasible states and counts each broken guarantee

Randomness is reproducible by construction: sample ``i`` of a run with seed
``s`` is drawn from the stream of ``random.Random((s << 64) | i)`` (CPython's
Mersenne Twister, stable across platforms) on one generator a run, reseeded
per sample, so each sampled point is a pure function of (seed, index).

Every uniform draw is defined in this module: an int below n is
``rng.getrandbits(n.bit_length())``, drawn again until it is below n.  That
is the algorithm of CPython 3.11's ``randrange``, so the stream is the one
it gave (the tests pin it against a reference draw written with it), but it
no longer depends on how a later interpreter implements ``randrange``.  The
draw is generated code, from one emitter, ``_draw_lines``, with every width
an int literal, as a built ``SearchConfig`` holds only ints and a Fraction.
A coordinate that may not be 0 (a fuzz p_i) skips the zero test and is
drawn again while its numerator is 0; any other makes the zero test, then
one draw.  ``_generated_search`` (once per polynomial, zero probability and
bounds) and ``_generated_fuzz`` (once per zero probability, bounds and
product test) write and cache the search's and the fuzz's loops.

The search loop runs on plain ints, in a format only this module knows.
After the all-ones probe, each pass reseeds the run's generator, draws each
coordinate into locals as a (numerator, denominator) pair, values the point
as such a pair with ``_evaluator_lines``'s statements and folds it by
cross-multiplication.  Fractions are built only for the kept minimum and the
probe: a negative hit stays ints until ``_rational_text`` writes it as text.
``sample_point`` and ``compile_evaluator`` run the same draw and the same
statements one by one; the tests check the loop against them.

The fuzz loop runs on plain ints too.  Each pass reseeds the run's
generator and runs ``_rejection_lines``' loop, which draws each candidate's
coordinates as such pairs, p_i = n_i/d_i and z_i = |m_i|/e_i, and tests it
on those ints: every d_i and e_i is at least 1, so p1*p2*p3 has the sign of
n1*n2*n3, and p_i + z_i = (n_i*e_i + |m_i|*d_i)/(d_i*e_i) that of its
numerator, so both rejection tests are exact.  The accepted candidate,
times the lcm L of its six denominators, goes through ``_state_lines``'
statements in locals as through ``greedy_minimize_z``, ``case_classify``
and ``failed_guarantees``, which the tests check the loop against, and the
loop tallies its label and broken guarantees.  The loop carries d across a
step by the step identity, d_after = d_before + c_i*(new - old); the
library recomputes d with ``corpus.d_value`` before and after each step, so
that check compares the loop's d and its rising flag with values found
without the identity.  The scaling is exact: d, the feasibility product
and every case closed form are homogeneous of degree 3 in (p, z), so they
get the factor L^3 > 0; the greedy step's bound max(0, -p_i) and its test
on the sign of the other two factors commute with the scaling; and every
fuzz guarantee is a sign, equality or order test, which a positive factor
does not change.  The scaled state therefore takes the same steps, lands
on the same vertex and passes or fails the same guarantees as the rational
one (the tests check each degree on symbols).

Every type here is a ``typing.NamedTuple``, immutable once built.  The two
inputs, ``SearchConfig`` and ``MacroState``, validate in ``__new__``, and
their ``_make`` builds through it, so ``_make``, ``_replace`` and
``copy.replace`` run the same checks.  Every value this module returns is
built by its constructor, the drawn and the descended-to states included.

``resolve_target`` reads each search target from ``corpus.TARGETS``.
``PreconditionError`` is defined in ``poly`` and ``TARGET_NAMES`` in
``corpus``, so the CLI reaches both without importing this module.
"""

from __future__ import annotations

import functools
import random
from _random import Random as _CRandom
from fractions import Fraction
from itertools import groupby, permutations, product
from math import gcd, isqrt, lcm
from typing import Callable, Iterable, NamedTuple, Sequence

from . import corpus
from .corpus import TARGET_NAMES
from .poly import Coeff, Monomial, Polynomial, PreconditionError, StructuralError
from .poly import _exact

_ZERO = Fraction(0)


def resolve_target(name: str, c: Coeff | None = None) -> Polynomial:
    """The search target ``name`` of ``corpus.TARGETS``, built over its VarSet.

    ``c`` fixes the bracket constant of the k-form (default 1/2) and is only
    meaningful for the "d-k" target.
    """
    if name != "d-k" and c is not None:
        raise StructuralError(f"constant c only applies to target 'd-k', not {name!r}")
    if name not in corpus.TARGETS:
        raise StructuralError(f"unknown target {name!r}; valid: {', '.join(TARGET_NAMES)}")
    varset, formula = corpus.TARGETS[name]
    return formula(*corpus.variables(varset), *(() if c is None else (_exact(c),)))


# ``_make`` of the two validated inputs, which the namedtuple's ``_replace``
# (and so ``copy.replace``) also calls: built, and checked, by ``__new__``.
_checked_make = classmethod(lambda cls, iterable: cls(*iterable))


# A class-body NamedTuple may not define __new__, so the two validated inputs
# subclass a functional NamedTuple of their fields.
class SearchConfig(NamedTuple("SearchConfig", [
    ("sample_count", int), ("seed", int), ("numerator_bound", int),
    ("denominator_bound", int), ("zero_probability", Fraction),
])):
    """Parameters of a seeded random search; the seed fully determines the
    sampled points.  An immutable value, checked when built."""

    __slots__ = ()
    _make = _checked_make

    def __new__(
        cls,
        sample_count: int,
        seed: int,
        numerator_bound: int = 100,
        denominator_bound: int = 100,
        zero_probability: Coeff = Fraction(1, 16),
    ):
        ints = (sample_count, seed, numerator_bound, denominator_bound)
        for name, value in zip(cls._fields, ints):
            if type(value) is not int:
                raise PreconditionError(f"{name} must be an int, got {value!r}")
        if sample_count < 1:
            raise PreconditionError("sample_count must be positive")
        if not 0 <= seed < 2**64:
            raise PreconditionError("seed must fit in 64 unsigned bits")
        if numerator_bound < 1 or denominator_bound < 1:
            raise PreconditionError("numerator and denominator bounds must be >= 1")
        zp = _exact(zero_probability)
        if not 0 <= zp <= 1:
            raise PreconditionError("zero_probability must lie in [0, 1]")
        return tuple.__new__(cls, (*ints, Fraction(zp)))

    def to_dict(self) -> dict:
        return {**self._asdict(), "zero_probability": str(self.zero_probability)}


def _draw_lines(zp: Fraction, nb: int, db: int, count: int, nonzero: int, indent: str) -> list[str]:
    """The statements, led by ``indent``, that draw ``count`` coordinates of
    a ``SearchConfig``'s zero probability zp = zn/zd, numerator bound nb and
    denominator bound db into the raw locals n0, d0, n1, d1, ...: num =
    n_i - nb in [-nb, nb] and den = d_i + 1 in [1, db], not reduced, and
    (0, 1) with probability zp, so num == 0 exactly when coordinate i is 0.
    The two generators below compile them once per argument tuple and cache
    the function.

    "x drawn below n" is ``getrandbits(n.bit_length())`` until x < n.  Each
    coordinate draws its raw num below 2*nb + 1 and then its raw den below
    db.  The first ``nonzero`` coordinates make no zero test and draw both
    again while the raw num is nb, the numerator 0; the rest make the zero
    test r < zn, r drawn below zd (skipped when zn is 0), and on a hit take
    the raw pair (nb, 0).  Every width is an int literal."""
    zn, zd = zp.numerator, zp.denominator
    lines: list[str] = []

    def below(name: str, n: int, pad: str) -> None:
        get = f"{name} = getrandbits({n.bit_length()})"
        lines.extend((pad + get, f"{pad}while {name} >= {n}:", f"{pad}    {get}"))

    for i in range(count):
        if i < nonzero:
            lines += [f"{indent}n{i} = {nb}", f"{indent}while n{i} == {nb}:"]
        elif zn:
            below("r", zd, indent)
            lines += [f"{indent}if r < {zn}:", f"{indent}    n{i} = {nb}", f"{indent}    d{i} = 0",
                      f"{indent}else:"]
        pad = indent + "    " if i < nonzero or zn else indent
        below(f"n{i}", 2 * nb + 1, pad)
        below(f"d{i}", db, pad)
    return lines


def _compiled(lines: list[str], name: str, filename: str = "<compile_draw>", **names) -> Callable:
    exec(compile("\n".join(lines), filename, "exec"), names)
    return names[name]


@functools.lru_cache(maxsize=16)
def _generated_draw(zp: Fraction, nb: int, db: int, count: int) -> Callable:
    """``sample_point``'s straight-line ``draw(getrandbits)``: the flat tuple n1,
    d1, ..., n_count, d_count of ``count`` coordinates drawn by
    ``_draw_lines``, each with the zero test.  It keeps nothing between calls."""
    lines = ["def draw(getrandbits):", *_draw_lines(zp, nb, db, count, 0, "    ")]
    lines.append(f"    return ({', '.join(f'n{i} - {nb}, d{i} + 1' for i in range(count))})")
    return _compiled(lines, "draw")


def _rejection_lines(zp: Fraction, nb: int, db: int, negative: bool, indent: str,
                     exhausted: str) -> list[str]:
    """The statements, led by ``indent``, that draw at most 10000 candidates
    of 6 coordinates by ``_draw_lines``, the 3 of p nonzero, and reject one
    when n1*n2*n3 >= 0 (only if ``negative``) or its feasibility numerator
    product is negative (see the module docstring).  The accepted one leaves
    n1, d1, n2, d2, n3, d3, |m1|, e1, |m2|, e2, |m3|, e3 in a0, b0, ..., a5,
    b5; after 10000 rejections, the statement ``exhausted`` runs."""
    inner = indent + "    "
    lines = [f"{indent}for _ in range(10000):", *_draw_lines(zp, nb, db, 6, 3, inner)]
    # a_i, b_i: the numerator (of z_i, made nonnegative) and denominator of coordinate i.
    lines += [f"{inner}a{i} = n{i} - {nb}" for i in range(3)]
    if negative:
        lines += [f"{inner}if a0 * a1 * a2 >= 0:", f"{inner}    continue"]
    lines += [f"{inner}a{i} = abs(n{i} - {nb})" for i in range(3, 6)]
    lines += [f"{inner}b{i} = d{i} + 1" for i in range(6)]
    factors = " * ".join(f"(a{i} * b{i + 3} + a{i + 3} * b{i})" for i in range(3))
    return lines + [f"{inner}if {factors} >= 0:", f"{inner}    break", f"{indent}else:", inner + exhausted]


@functools.lru_cache(maxsize=16)
def _generated_rejection(zp: Fraction, nb: int, db: int, negative: bool) -> Callable:
    """``_draw_state``'s ``sample(getrandbits)``: ``_rejection_lines``' accepted
    candidate, or None after 10000 rejections; it keeps nothing between calls."""
    lines = ["def sample(getrandbits):", *_rejection_lines(zp, nb, db, negative, "    ", "return"),
             f"    return {', '.join(f'a{i}, b{i}' for i in range(6))}"]
    return _compiled(lines, "sample")


def _reseed(rng: random.Random, seed: int, index: int) -> None:
    _CRandom.seed(rng, (seed << 64) | index)  # what random.Random((seed << 64) | index) runs


def sample_point(rng: random.Random, seed: int, index: int, draw: Callable) -> tuple[int, ...]:
    """Sample ``index`` of run ``seed``: ``rng``, reseeded, drawn by the
    ``_generated_draw`` function ``draw``, as ``compile_evaluator``'s pairs."""
    _reseed(rng, seed, index)
    return draw(rng.getrandbits)


def _fractions(pairs: Sequence[int]) -> tuple[Fraction, ...]:
    return tuple(Fraction(pairs[i], pairs[i + 1]) for i in range(0, len(pairs), 2))


def _rational_text(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for d > 0, without building the Fraction."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def compile_evaluator(poly: Polynomial) -> Callable[[Sequence[int]], tuple[int, int]]:
    """Build a fast exact evaluator on integer coordinate pairs.

    The evaluator takes the flat tuple ``(n1, d1, ..., nk, dk)`` of a point
    with coordinates n_i/d_i in VarSet order, every d_i > 0, and returns
    ``(num, den)`` with den > 0 (not reduced): with per-variable maximum
    exponents E_i, mixed powers m_i_e = n_i^e * d_i^(E_i - e) and L the lcm
    of the coefficient denominators, num = sum_t L*c_t * prod_i m_i_(e_ti)
    and den = L * prod_i d_i^E_i.  num is a nested Horner scheme, which
    only regroups that sum, so the pair is the same integers: the terms
    form a trie, grouped by their exponent of the first variable, then of
    the second, and so on in VarSet order, so each m_i_e is multiplied in
    once per group, not once per term.  The function is generated once
    with ``compile()``: the powers as locals, then one statement ``s_i =
    product`` or ``s_i += product`` per trie edge out of a group that
    splits, so no sum is one expression and none nests deeper as the
    polynomial grows.  Names are positional and coefficients int
    literals: no VarSet text reaches ``compile()``.
    ``Fraction(*evaluate(pairs))`` equals ``Polynomial.evaluate``.
    """
    nvars = len(poly.varset)
    body, value = _evaluator_lines(poly, "    ")
    unpack = f"    {', '.join(f'n{i}_1, d{i}_1' for i in range(nvars))} = v"
    lines = ["def evaluate(v):", f"    if len(v) != {2 * nvars}:", "        _wrong_arity(len(v))",
             unpack, *body, f"    return {value}"]

    def wrong_arity(n: int) -> None:
        raise StructuralError(f"expected {2 * nvars} integers ({nvars} coordinate pairs), got {n}")

    return _compiled(lines, "evaluate", "<compile_evaluator>", _wrong_arity=wrong_arity)


def _evaluator_lines(poly: Polynomial, indent: str) -> tuple[list[str], str]:
    """The statements, led by ``indent``, of ``compile_evaluator``'s scheme on
    the locals n0_1, d0_1, n1_1, d1_1, ..., and the text "num, den" of the
    value; ``compile_evaluator`` and ``_generated_search`` both run them."""
    terms = sorted(poly.terms.items())
    max_exp = [max((mono[i] for mono, _ in terms), default=0) for i in range(len(poly.varset))]
    present = [i for i, top in enumerate(max_exp) if top]
    scale = lcm(*(c.denominator for _, c in terms))
    lines: list[str] = []
    mixed = {}  # (i, e) -> the local holding m_i_e
    for i in present:
        top = max_exp[i]
        for base in (f"n{i}", f"d{i}"):
            for e in range(2, top + 1):
                lines.append(f"{indent}{base}_{e} = {base}_{e - 1} * {base}_1")
        for e in sorted({mono[i] for mono, _ in terms}):
            mixed[i, e] = f"n{i}_{e}" if e == top else f"d{i}_{top}" if e == 0 else f"m{i}_{e}"
            lines += [f"{indent}m{i}_{e} = n{i}_{e} * d{i}_{top - e}"] * (0 < e < top)

    def group_sum(group: list[tuple[Monomial, Coeff]], level: int, outer: list[str]) -> str:
        """Emit the locals s_i of the group's sum over present[level:]; return it times outer."""
        if len(group) == 1:
            mono, c = group[0][0], int(group[0][1] * scale)
            factors = [str(abs(c))] * (abs(c) != 1) + [mixed[i, mono[i]] for i in present[level:]]
            return "-" * (c < 0) + (" * ".join(factors + outer) or "1")
        i = present[level]
        edges = [(e, list(sub)) for e, sub in groupby(group, key=lambda term: term[0][i])]
        if len(edges) == 1:
            return group_sum(edges[0][1], level + 1, [mixed[i, edges[0][0]], *outer])
        for k, (e, sub) in enumerate(edges):
            product = group_sum(sub, level + 1, [mixed[i, e]])
            op = "=" if not k else "-=" if product[0] == "-" else "+="
            lines.append(f"{indent}s{i} {op} {product[op == '-=':]}")
        return " * ".join([f"s{i}", *outer])

    num = group_sum(terms, 0, []) if terms else 0
    den = [str(scale)] * (scale != 1) + [f"d{i}_{max_exp[i]}" for i in present]
    return lines, f"{num}, {' * '.join(den) or '1'}"


@functools.lru_cache(maxsize=16)
def _generated_search(poly: Polynomial, zp: Fraction, nb: int, db: int) -> Callable:
    """``search(rng, first, stop)``: the probe, then keys first..stop-1, of a
    search of ``poly`` at one draw configuration (see the module docstring).
    Returns the kept minimum's num, den and pairs, and the hits."""
    count = len(poly.varset)
    pairs = f"({', '.join(f'n{i}_1, d{i}_1' for i in range(count))})"
    evaluation, value = _evaluator_lines(poly, "        ")
    smaller = "num * best_den < best_num * den"
    lines = [  # best starts at 1/0, above every value, so the probe's pass replaces it
        "def search(rng, first, stop):",
        "    getrandbits, hits, best_num, best_den = rng.getrandbits, [], 1, 0",
        f"    {' = '.join(f'n{i}_1 = d{i}_1' for i in range(count))} = 1",
        "    for key in range(first - 1, stop):",
        "        if key >= first:",
        "            _seed(rng, key)",
        *_draw_lines(zp, nb, db, count, 0, "            "),
        *(f"            n{i}_1, d{i}_1 = n{i} - {nb}, d{i} + 1" for i in range(count)),
        *evaluation,
        f"        num, den = {value}",
        "        if num < 0:",
        f"            point = {pairs}",
        "            hits.append((point, num, den))",
        f"            if {smaller}:",
        "                best_num, best_den, best = num, den, point",
        f"        elif best_num > 0 and {smaller}:",
        f"            best_num, best_den, best = num, den, {pairs}",
        "    return best_num, best_den, best, hits",
    ]
    return _compiled(lines, "search", "<compile_search>", _seed=_CRandom.seed)


class SearchReport(NamedTuple):
    """Exact outcome of a random search.  ``min_value`` is always the value
    of the target at ``argmin``; ``hits`` lists each point, probe or sample,
    with a negative value, in order, as unreduced ints (pairs, num, den).
    ``counterexamples``, the hits as Fractions, is built on each read, so
    a caller that wants a few slices ``hits`` first."""

    target: str
    variables: tuple[str, ...]
    samples_run: int
    seed: int
    min_value: Fraction
    argmin: tuple[Fraction, ...]
    hits: list[tuple[tuple[int, ...], int, int]]
    probes: list[tuple[tuple[Fraction, ...], Fraction]]

    @property
    def counterexamples(self) -> list[tuple[tuple[Fraction, ...], Fraction]]:
        return [(_fractions(pairs), Fraction(num, den)) for pairs, num, den in self.hits]

    def _pair_dict(self, pairs: tuple[int, ...]) -> dict:
        return dict(zip(self.variables, map(_rational_text, pairs[::2], pairs[1::2])))

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "variables": list(self.variables),
            "samples_run": self.samples_run,
            "seed": self.seed,
            "min_value": str(self.min_value),
            "argmin": dict(zip(self.variables, map(str, self.argmin))),
            "counterexample_count": len(self.hits),
            "counterexamples": [
                {"point": self._pair_dict(pairs), "value": _rational_text(num, den)}
                for pairs, num, den in self.hits
            ],
            "probes": [
                {"point": dict(zip(self.variables, map(str, pt))), "value": str(v)}
                for pt, v in self.probes
            ],
        }


def search_range(search: Callable, variables: tuple[str, ...], cfg: SearchConfig,
                 target: str) -> SearchReport:
    """Fold the all-ones probe, then samples 0..sample_count-1 over
    ``variables``, in one ordered pass of ``search``, the target's
    ``_generated_search`` loop, by cross-multiplication (num >= 0 not at all
    while the minimum is <= 0); only a smaller value replaces the minimum."""
    rng, first = random.Random(0), cfg.seed << 64
    # The all-ones point, the equality case a = b, is a zero of every target,
    # so each run pins the exact value 0 there; it counts for the minimum and
    # the hits, not in ``samples_run``.  A pass that stops at ``first`` is it alone.
    probe_num, probe_den, ones, _ = search(rng, first, first)
    best_num, best_den, best_pairs, hits = search(rng, first, first + cfg.sample_count)
    return SearchReport(
        target=target,
        variables=variables,
        samples_run=cfg.sample_count,
        seed=cfg.seed,
        min_value=Fraction(best_num, best_den),
        argmin=_fractions(best_pairs),
        hits=hits,
        probes=[(_fractions(ones), Fraction(probe_num, probe_den))],
    )


def random_search(target: str, cfg: SearchConfig, c: Coeff | None = None) -> SearchReport:
    """Search the target named ``target`` (``resolve_target(target, c)``)
    at ``cfg.sample_count`` seeded points plus the all-ones probe, by its
    cached ``_generated_search`` loop, which ``search_range`` runs."""
    poly = resolve_target(target, c)
    if cfg.zero_probability == 1:
        raise PreconditionError("zero_probability 1 would evaluate only the zero point")
    loop = _generated_search(poly, cfg.zero_probability, cfg.numerator_bound, cfg.denominator_bound)
    return search_range(loop, poly.varset.names, cfg, target)


# -- the proof's minimization over z ------------------------------------------


def _text(values) -> str:
    """Rationals as a tuple of their text, ``(-1, 1/2, 0)``, for messages."""
    return f"({', '.join(map(str, values))})"


class MacroState(NamedTuple("MacroState", [("p", tuple), ("z", tuple)])):
    """A concrete assignment of (p1, p2, p3) and nonnegative (z1, z2, z3),
    with the derived quadratics c available as ``.c``.  An immutable value,
    checked when built.

    Coordinates pass ``poly._exact``: ints and Fractions are kept as given
    and anything else is refused; every derived value is computed in the
    same ring, so an all-int state, as the fuzz draws, stays on ints.
    ``_make``, ``_replace`` and ``copy.replace`` check their value too."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, p: Iterable[Coeff], z: Iterable[Coeff]):
        p = tuple(map(_exact, p))
        z = tuple(map(_exact, z))
        if len(p) != 3 or len(z) != 3:
            raise PreconditionError("p and z must each have three coordinates")
        if any(v < 0 for v in z):
            raise PreconditionError(f"z must be nonnegative, got {_text(z)}")
        return tuple.__new__(cls, (p, z))

    @property
    def c(self) -> tuple[Fraction, Fraction, Fraction]:
        return corpus.c_values(*self.p)

    def is_feasible(self) -> bool:
        """(p1+z1)(p2+z2)(p3+z3) >= 0."""
        return corpus.feasibility_value(self.p, self.z) >= 0

    def d_value(self) -> Fraction:
        return corpus.d_value(self.p, self.z)

    def to_dict(self) -> dict:
        c = self.c
        return {
            "p": [str(v) for v in self.p],
            "z": [str(v) for v in self.z],
            "c": [str(v) for v in c],
            "d": str(corpus.d_value(self.p, self.z, c)),
        }


class MinimizeStep(NamedTuple):
    coordinate: str
    old_value: Fraction
    new_value: Fraction
    d_before: Fraction
    d_after: Fraction

    def to_dict(self) -> dict:
        """Every field as text (``coordinate`` already is)."""
        return {name: str(value) for name, value in self._asdict().items()}


class MinimizeTrace(NamedTuple):
    initial: MacroState
    steps: tuple[MinimizeStep, ...]
    final: MacroState
    case_label: str

    def to_dict(self) -> dict:
        return {
            "initial": self.initial.to_dict(),
            "steps": [s.to_dict() for s in self.steps],
            "final": self.final.to_dict(),
            "case": self.case_label,
        }


def vertex_label(state: MacroState) -> str:
    """i/ii/iii/iv by how many coordinates sit at -p_i; "mixed" if some z_i
    is neither 0 nor -p_i (never produced by the minimizer)."""
    pinned = 0
    for p_i, z_i in zip(state.p, state.z):
        if z_i == 0:
            continue
        if z_i == -p_i:
            pinned += 1
        else:
            return "mixed"
    return corpus.CASE_LABELS[pinned]


_ORDERS = frozenset(permutations((1, 2, 3)))
_INTS = (int, int, int)
# The 0-based indices of the other two factors of each coordinate's step.
_OTHERS = ((1, 2), (0, 2), (0, 1))
_Z_NAMES = ("z1", "z2", "z3")
_NONZERO_P = "greedy minimization requires nonzero p coordinates"
_INFEASIBLE = "infeasible start: constraint value {} < 0"
_NO_STATE = "rejection sampling found no admissible state in 10000 draws"


def greedy_minimize_z(state: MacroState, order: Sequence[int] = (3, 2, 1)) -> MinimizeTrace:
    """Lower each z coordinate in turn to its smallest feasible value.

    With the other two factors fixed at their current values, the feasible
    set for z_i is a sign condition on the linear factor (p_i + z_i): when
    the product of the other factors is strictly positive the factor must
    stay nonnegative and z_i bottoms out at max(0, -p_i); when it is zero or
    negative the constraint is slack (or one-sided the other way) and z_i
    drops to 0.  The continuous lowering of the original argument stops at
    exactly these points, so the jump is taken directly.

    Coordinates are processed in ``order`` (default 3, 2, 1); a step is
    recorded only when the value actually changes, with d_before and d_after
    ``corpus.d_value`` of the z before and after it.  Requires nonzero p_i
    and a feasible starting state.
    """
    # The type test first: no bools, floats or unhashable items.
    if not (isinstance(order, Iterable) and tuple(map(type, order)) == _INTS and tuple(order) in _ORDERS):
        raise PreconditionError(f"order must be a permutation of (1, 2, 3), got {order!r}")
    p = state.p
    if not (p[0] and p[1] and p[2]):
        raise PreconditionError(_NONZERO_P)
    feasibility = corpus.feasibility_value(p, state.z)
    if feasibility < 0:
        raise PreconditionError(_INFEASIBLE.format(feasibility))
    z = list(state.z)
    steps: list[MinimizeStep] = []
    for coord in order:
        i = coord - 1
        j, k = _OTHERS[i]
        new_value = -p[i] if p[i] < 0 and (p[j] + z[j]) * (p[k] + z[k]) > 0 else 0
        old_value = z[i]
        if new_value != old_value:
            d_before = corpus.d_value(p, z)
            z[i] = new_value
            d_after = corpus.d_value(p, z)
            steps.append(MinimizeStep(_Z_NAMES[i], old_value, new_value, d_before, d_after))
    final = MacroState(p, z)
    return MinimizeTrace(state, tuple(steps), final, vertex_label(final))


class CaseClassification(NamedTuple):
    """Canonical case of a vertex: label, the 1-based index permutation that
    sends the state to the canonical shape (pinned coordinates first), and
    the value of the matching closed-form formula."""

    label: str
    permutation: tuple[int, int, int]
    closed_form_value: Fraction

    def to_dict(self) -> dict:
        return {
            "case": self.label,
            "permutation": list(self.permutation),
            "closed_form_value": str(self.closed_form_value),
        }


# A vertex's 1-based permutation, keyed by which z_i are 0: as p_i != 0, the pinned
# z_i = -p_i are the nonzero ones.  Pinned first, then the rest, each ascending.
_PERMUTATIONS = {zero: tuple(sorted((1, 2, 3), key=lambda j: zero[j - 1]))
                 for zero in product((False, True), repeat=3)}


def case_classify(state: MacroState) -> CaseClassification:
    """Classify a vertex (every z_i in {0, -p_i}) with nonzero p into one of
    the four cases, by ``vertex_label``, and evaluate its closed form
    ``corpus.case_value`` on the permuted p."""
    p, z = state.p, state.z
    if not (p[0] and p[1] and p[2]):
        raise PreconditionError("case analysis requires nonzero p coordinates")
    label = vertex_label(state)
    if label == "mixed":
        raise PreconditionError(
            f"not a vertex: some z_i is neither 0 nor -p_i at p={_text(p)}, z={_text(z)}"
        )
    a, b, c = perm = _PERMUTATIONS[not z[0], not z[1], not z[2]]
    return CaseClassification(label, perm, corpus.case_value(label, p[a - 1], p[b - 1], p[c - 1]))


# -- sharpness of the constant -------------------------------------------------


class SharpnessWitness(NamedTuple):
    """A point where the inequality with bracket constant c > 1/2 fails."""

    c: Fraction | int
    b: tuple[Fraction, Fraction, Fraction]
    k: tuple[Fraction, Fraction, Fraction]
    value: Fraction

    def to_dict(self) -> dict:
        return {
            "c": str(self.c),
            "b": [str(v) for v in self.b],
            "k": [str(v) for v in self.k],
            "value": str(self.value),
        }


def sharpness_witness(c: Coeff) -> SharpnessWitness:
    """Exhibit a failure of the k-form with bracket constant ``c`` > 1/2.

    At b = (1,1,1) and k = (0, 0, k3), ``corpus.k_form`` is rest - slope*k3^2,
    where rest is its value at k3 = 0 and rest - slope its value at k3 = 1,
    so the smallest positive integer k3 with k3^2 > rest/slope drives it
    negative; the returned value is ``corpus.k_form`` at that point.
    """
    c = _exact(c)
    if c <= corpus.HALF:
        raise PreconditionError(
            f"no witness exists for c = {c}: the inequality holds for c <= 1/2"
        )
    rest = corpus.k_form(0, 0, 0, 1, 1, 1, c)
    threshold = Fraction(rest) / (rest - corpus.k_form(0, 0, 1, 1, 1, 1, c))
    k3 = isqrt(threshold.numerator // threshold.denominator)
    while Fraction(k3 * k3) <= threshold:
        k3 += 1
    value = Fraction(corpus.k_form(0, 0, k3, 1, 1, 1, c))
    one = Fraction(1)
    return SharpnessWitness(
        c=c, b=(one, one, one), k=(_ZERO, _ZERO, Fraction(k3)), value=value
    )


# -- end-to-end fuzz over the proof's minimization ------------------------------


class FuzzSummary(NamedTuple):
    """Pass/fail tally of minimizer runs on random feasible states."""

    samples_run: int
    passed: int
    failed: int
    failures: dict[str, int]
    case_counts: dict[str, int]
    seed: int

    def to_dict(self) -> dict:
        """The manifest entry: every field, in field order."""
        return self._asdict()


def _draw_state(rng: random.Random, sample: Callable) -> MacroState:
    """Rejection-sample a feasible MacroState with nonzero p (and, if the
    run asks for it, p1*p2*p3 < 0) from one per-sample stream, by one call
    of the run's ``_generated_rejection`` loop ``sample``.  The accepted
    candidate becomes a state times the lcm of its six denominators, so
    all its coordinates are ints."""
    candidate = sample(rng.getrandbits)
    if candidate is None:
        raise PreconditionError(_NO_STATE)
    n1, d1, n2, d2, n3, d3, m1, e1, m2, e2, m3, e3 = candidate
    scale = lcm(d1, d2, d3, e1, e2, e3)
    return MacroState((n1 * (scale // d1), n2 * (scale // d2), n3 * (scale // d3)),
                      (m1 * (scale // e1), m2 * (scale // e2), m3 * (scale // e3)))


GUARANTEES = ("monotonicity", "vertex", "negativity", "closed_form", "case_iv_negative_product")


def failed_guarantees(trace: MinimizeTrace, classification: CaseClassification | None) -> list[str]:
    """The proof's per-trace guarantees that ``trace`` violates, in GUARANTEES
    order: the d column is non-increasing, the final state is a sound vertex,
    the final d is nonnegative when p1*p2*p3 < 0, the classifier's closed
    form equals d (unless ``classification`` is None, as off a vertex), and a
    negative product never ends in case iv."""
    p1, p2, p3 = trace.final.p
    negative_product = p1 * p2 * p3 < 0
    d = trace.final.d_value()
    held = (
        all(step.d_after <= step.d_before for step in trace.steps),
        # z >= 0, so a pinned z_i = -p_i != 0 already has -p_i > 0.
        trace.case_label != "mixed",
        not negative_product or d >= 0,
        classification is None or classification.closed_form_value == d,
        not (negative_product and trace.case_label == "iv"),
    )
    return [name for name, ok in zip(GUARANTEES, held) if not ok]


# The names the fuzz loop reads besides its locals; it looks up each corpus formula at call time.
_FUZZ_NAMES = {"corpus": corpus, "PreconditionError": PreconditionError, "_MIXED": "mixed", "lcm": lcm,
               "_PERMUTATIONS": _PERMUTATIONS, "_seed": _CRandom.seed, "_NONZERO_P": _NONZERO_P,
               "_INFEASIBLE": _INFEASIBLE, "_NO_STATE": _NO_STATE}


def _state_lines(indent: str) -> list[str]:
    """The statements, led by ``indent``, of ``greedy_minimize_z`` (order 3,
    2, 1, both input checks), ``vertex_label``, ``case_classify`` and
    ``failed_guarantees`` on the int state p0, p1, p2, z0, z1, z2.  They leave
    the final z, the carried d in ``d`` if ``stepped``, ``label``, the closed
    form ``value`` unless ``mixed``, and ``broken``, one flag per GUARANTEES."""
    lines = ["if not (p0 and p1 and p2):", "    raise PreconditionError(_NONZERO_P)",
             "f = (p0 + z0) * (p1 + z1) * (p2 + z2)",
             "if f < 0:", "    raise PreconditionError(_INFEASIBLE.format(f))",
             "p, c, stepped, rising = (p0, p1, p2), corpus.c_values(p0, p1, p2), 0, 0"]
    for i in (2, 1, 0):
        j, k = _OTHERS[i]
        lines += [f"w = -p{i} if p{i} < 0 and (p{j} + z{j}) * (p{k} + z{k}) > 0 else 0",
                  f"if w != z{i}:",
                  "    if not stepped:",
                  "        d, stepped = corpus.d_value(p, (z0, z1, z2), c), 1",
                  f"    after = d + c[{i}] * (w - z{i})",
                  f"    rising, d, z{i} = rising or after > d, after, w"]
    # Every nonzero z_i of a vertex is pinned at -p_i; a mixed state has pinned >= 1.
    lines += ["mixed = z0 and z0 != -p0 or z1 and z1 != -p1 or z2 and z2 != -p2",
              "pinned = (z0 != 0) + (z1 != 0) + (z2 != 0)",
              "if mixed:", "    label = _MIXED", "else:",
              "    label = corpus.CASE_LABELS[pinned]",
              "    i, j, k = _PERMUTATIONS[not z0, not z1, not z2]",
              "    value = corpus.case_value(label, p[i - 1], p[j - 1], p[k - 1])",
              "last, negative = corpus.d_value(p, (z0, z1, z2), c), p0 * p1 * p2 < 0",
              "broken = (rising, mixed, negative and last < 0, not mixed and value != last,",
              "          negative and not pinned)"]
    return [indent + line for line in lines]


@functools.lru_cache(maxsize=16)
def _generated_fuzz(zp: Fraction, nb: int, db: int, negative: bool) -> Callable:
    """``fuzz(rng, first, stop, cases)``: keys first..stop-1 of a fuzz at one
    draw configuration and product test, each label counted in ``cases``;
    returns how many states break a guarantee, and how many break each."""
    lines = ["def fuzz(rng, first, stop, cases):",
             f"    getrandbits, failed, failures = rng.getrandbits, 0, [0] * {len(GUARANTEES)}",
             "    for key in range(first, stop):",
             "        _seed(rng, key)",
             *_rejection_lines(zp, nb, db, negative, "        ", "raise PreconditionError(_NO_STATE)"),
             "        s = lcm(b0, b1, b2, b3, b4, b5)",
             *(f"        p{i}, z{i} = a{i} * (s // b{i}), a{i + 3} * (s // b{i + 3})" for i in range(3)),
             *_state_lines("        "),
             "        cases[label] += 1",
             "        if any(broken):",
             "            failed += 1",
             "            failures = [n + bad for n, bad in zip(failures, broken)]",
             "    return failed, failures"]
    return _compiled(lines, "fuzz", "<compile_fuzz>", **_FUZZ_NAMES)


def minimize_fuzz(cfg: SearchConfig, require_negative_product: bool = False) -> FuzzSummary:
    """Run the greedy minimizer and classifier on random feasible states and
    count, per guarantee of ``failed_guarantees``, the states violating it,
    in one call of the run's cached ``_generated_fuzz`` loop."""
    if require_negative_product and cfg.zero_probability == 1:
        # Every z_i is then 0, so a feasible state has p1*p2*p3 >= 0.
        raise PreconditionError("rejection sampling: zero_probability 1 admits no p1*p2*p3 < 0")
    loop = _generated_fuzz(cfg.zero_probability, cfg.numerator_bound, cfg.denominator_bound,
                           require_negative_product)
    case_counts = {"i": 0, "ii": 0, "iii": 0, "iv": 0, "mixed": 0}
    first = cfg.seed << 64
    failed, failures = loop(random.Random(0), first, first + cfg.sample_count, case_counts)
    return FuzzSummary(cfg.sample_count, cfg.sample_count - failed, failed,
                       dict(zip(GUARANTEES, failures)), case_counts, cfg.seed)
