"""Exact-rational exploration around the inequality and its proof.

Four tools, all exact (no floating point anywhere):

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

Randomness is reproducible by construction: sample ``i`` of a run with seed
``s`` is drawn from the stream of ``random.Random((s << 64) | i)`` (CPython's
Mersenne Twister, stable across platforms) on one generator a run, reseeded
per sample, so each sampled point is a pure function of (seed, index).

Every uniform draw is defined in this module: an int below n is
``rng.getrandbits(n.bit_length())``, drawn again until it is below n.  That
is the algorithm of CPython 3.11's ``randrange``, so the stream is the one
it gave (the tests pin it against a reference draw written with it), but it
no longer depends on how a later interpreter implements ``randrange``.

The search loop runs on plain ints: ``sample_point`` draws each coordinate
as a (numerator, denominator) pair, the evaluator from ``compile_evaluator``
returns the value as such a pair, and ``search_range`` folds the probes
and then the samples in one pass, comparing values by cross-multiplication.
Fractions are built only for the kept minimum, the negative hits and the
probes.

The minimizer fuzz runs on plain ints too.  ``_draw_state`` draws each
coordinate as such a pair, p_i = n_i/d_i and z_i = |m_i|/e_i, and tests the
candidate on those ints: every d_i and e_i is at least 1, so p1*p2*p3 has
the sign of n1*n2*n3, and p_i + z_i = (n_i*e_i + |m_i|*d_i)/(d_i*e_i) that
of its numerator, so both rejection tests are exact.  Only the accepted
candidate becomes a ``MacroState``, multiplied by the lcm L of its six
denominators.  That is exact too: d, the feasibility product and every
case closed form are homogeneous of degree 3 in (p, z), so they get the
factor L^3 > 0; the greedy step's bound max(0, -p_i) and its test on the
sign of the other two factors commute with the scaling; and every fuzz
guarantee is a sign, equality or order test, which a positive factor does
not change.  The scaled state therefore takes the same steps, lands on the
same vertex and passes or fails the same guarantees as the rational one.

Results are ``typing.NamedTuple`` records; the two inputs, ``SearchConfig``
and ``MacroState``, are ``__slots__`` classes that validate in ``__init__``.

``resolve_target`` reads each search target from ``corpus.TARGETS``.
``PreconditionError`` is defined in ``poly`` and ``TARGET_NAMES`` in
``corpus``, so the CLI reaches both without importing this module; they are
re-exported here under the same names.
"""

from __future__ import annotations

import random
from _random import Random as _CRandom
from fractions import Fraction
from math import isqrt, lcm
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from . import corpus
from .corpus import TARGET_NAMES
from .poly import Polynomial, PreconditionError, StructuralError, _exact, compile_evaluator

_ZERO = Fraction(0)


def resolve_target(name: str, c: Fraction | int | None = None) -> Polynomial:
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


class SearchConfig:
    """Parameters of a seeded random search; the seed fully determines the
    sampled points."""

    __slots__ = (
        "sample_count", "seed", "numerator_bound", "denominator_bound", "zero_probability"
    )

    def __init__(
        self,
        sample_count: int,
        seed: int,
        numerator_bound: int = 100,
        denominator_bound: int = 100,
        zero_probability: Fraction | int = Fraction(1, 16),
    ):
        self.sample_count, self.seed = sample_count, seed
        self.numerator_bound, self.denominator_bound = numerator_bound, denominator_bound
        for name in self.__slots__[:4]:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise PreconditionError(f"{name} must be an int, got {value!r}")
        if sample_count < 1:
            raise PreconditionError("sample_count must be positive")
        if not 0 <= seed < 2**64:
            raise PreconditionError("seed must fit in 64 unsigned bits")
        if numerator_bound < 1 or denominator_bound < 1:
            raise PreconditionError("numerator and denominator bounds must be >= 1")
        zp = zero_probability
        if not isinstance(zp, (int, Fraction)) or isinstance(zp, bool):
            raise PreconditionError(f"zero_probability must be an int or a Fraction, got {zp!r}")
        if not 0 <= zp <= 1:
            raise PreconditionError("zero_probability must lie in [0, 1]")
        self.zero_probability = Fraction(zp)

    def to_dict(self) -> dict:
        config = {name: getattr(self, name) for name in self.__slots__}
        config["zero_probability"] = str(self.zero_probability)
        return config


def _draw_widths(cfg: SearchConfig) -> tuple[int, ...]:
    """``cfg``'s draw widths, computed once a run: the zero probability zn/zd
    and zk = zd.bit_length(), the numerator bound nb, nw = 2*nb + 1 and
    nk = nw.bit_length(), the denominator bound db and dk = db.bit_length()."""
    zn, zd = cfg.zero_probability.numerator, cfg.zero_probability.denominator
    nb, db = cfg.numerator_bound, cfg.denominator_bound
    nw = 2 * nb + 1
    return zn, zd, zd.bit_length(), nb, nw, nw.bit_length(), db, db.bit_length()


def _draw_pairs(rng: random.Random, widths: tuple, count: int, nonzero: int = 0) -> list[int]:
    """``count`` coordinates as the flat list n1, d1, ..., n_count, d_count:
    (0, 1) with probability zero_probability, else num in
    [-numerator_bound, numerator_bound] and den in [1, denominator_bound],
    not reduced, so n_i == 0 exactly when coordinate i is 0.  The first
    ``nonzero`` coordinates are never 0.

    Per coordinate, with zero probability zn/zd: the zero test r < zn with
    r drawn below zd (skipped when zn is 0 and for the first ``nonzero``
    coordinates); else the numerator, drawn below 2*numerator_bound + 1 and
    shifted by -numerator_bound, then the denominator, drawn below
    denominator_bound and shifted by +1, both drawn again while a first
    ``nonzero`` coordinate has the numerator 0.  "Drawn below n" is
    ``getrandbits(n.bit_length())`` until the value is below n (see the
    module docstring), written out in the loop because this is the search's
    hot path (about 18 draws a sample).  ``widths`` is ``_draw_widths(cfg)``."""
    zn, zd, zk, nb, nw, nk, db, dk = widths
    getrandbits = rng.getrandbits
    out: list[int] = []
    for k in range(count):
        if zn and k >= nonzero:
            r = getrandbits(zk)
            while r >= zd:
                r = getrandbits(zk)
            if r < zn:
                out += (0, 1)
                continue
        while True:
            num = getrandbits(nk)
            while num >= nw:
                num = getrandbits(nk)
            den = getrandbits(dk)
            while den >= db:
                den = getrandbits(dk)
            if num != nb or k >= nonzero:  # the raw draw nb is the numerator 0
                break
        out += (num - nb, den + 1)
    return out


def _reseed(rng: random.Random, seed: int, index: int) -> None:
    _CRandom.seed(rng, (seed << 64) | index)  # what random.Random((seed << 64) | index) runs


def sample_point(
    rng: random.Random, seed: int, index: int, nvars: int, widths: tuple
) -> tuple[int, ...]:
    """Sample ``index`` of run ``seed`` on ``rng``, reseeded, as ``compile_evaluator``'s
    pairs; ``widths`` is the run's ``_draw_widths(cfg)``."""
    _reseed(rng, seed, index)
    return tuple(_draw_pairs(rng, widths, nvars))


def _fractions(pairs: Sequence[int]) -> tuple[Fraction, ...]:
    return tuple(Fraction(pairs[i], pairs[i + 1]) for i in range(0, len(pairs), 2))


class SearchReport(NamedTuple):
    """Exact outcome of a random search.  ``min_value`` is always the value
    of the target at ``argmin``; ``counterexamples`` lists every point
    (probe or sample) with a strictly negative value, in evaluation order."""

    target: str
    variables: tuple[str, ...]
    samples_run: int
    seed: int
    min_value: Fraction
    argmin: tuple[Fraction, ...]
    counterexamples: list[tuple[tuple[Fraction, ...], Fraction]]
    probes: list[tuple[tuple[Fraction, ...], Fraction]]

    def _point_dict(self, point: tuple[Fraction, ...]) -> dict:
        return {name: str(v) for name, v in zip(self.variables, point)}

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "variables": list(self.variables),
            "samples_run": self.samples_run,
            "seed": self.seed,
            "min_value": str(self.min_value),
            "argmin": self._point_dict(self.argmin),
            "counterexample_count": len(self.counterexamples),
            "counterexamples": [
                {"point": self._point_dict(pt), "value": str(v)}
                for pt, v in self.counterexamples
            ],
            "probes": [
                {"point": self._point_dict(pt), "value": str(v)} for pt, v in self.probes
            ],
        }


def _probe_pairs(
    poly: Polynomial, probe: Mapping[str, Fraction | int] | Sequence[Fraction | int]
) -> tuple[int, ...]:
    """A probe as the flat int tuple (n1, d1, ..., nk, dk) of ``sample_point``."""
    if isinstance(probe, Mapping):
        missing = [n for n in poly.varset.names if n not in probe]
        if missing:
            raise StructuralError(f"probe misses variables {missing}")
        values = tuple(_exact(probe[n]) for n in poly.varset.names)
    else:
        values = tuple(map(_exact, probe))
    if len(values) != len(poly.varset):
        raise StructuralError(
            f"probe has {len(values)} coordinates, expected {len(poly.varset)}"
        )
    return tuple(x for v in values for x in (v.numerator, v.denominator))


def search_range(
    evaluate: Callable[[Sequence[int]], tuple[int, int]],
    variables: tuple[str, ...],
    cfg: SearchConfig,
    head: Sequence[tuple[tuple[int, ...], tuple[int, int]]],
    label: str,
) -> SearchReport:
    """Fold the ``head`` results, each (pairs, (num, den)), then samples
    0..sample_count-1 over ``variables``, evaluated with ``evaluate`` (the
    target's ``compile_evaluator`` function), in one ordered pass.

    Values are compared by cross-multiplication, with every den > 0.  The
    minimum starts at 1/0, above every value, and only a strictly smaller
    value replaces it, so a tie goes to the first result and the head comes
    first.  Fractions are built only for the kept argmin, the hits and the
    head.  The samples share one generator, which ``sample_point`` reseeds."""
    nvars, seed, widths = len(variables), cfg.seed, _draw_widths(cfg)
    rng = random.Random(0)

    def results():
        yield from head
        for index in range(cfg.sample_count):
            pairs = sample_point(rng, seed, index, nvars, widths)
            yield pairs, evaluate(pairs)

    best_num, best_den, best_pairs = 1, 0, ()
    hits: list[tuple[tuple[Fraction, ...], Fraction]] = []
    for pairs, (num, den) in results():
        if num * best_den < best_num * den:
            best_num, best_den, best_pairs = num, den, pairs
        if num < 0:
            hits.append((_fractions(pairs), Fraction(num, den)))
    return SearchReport(
        target=label,
        variables=variables,
        samples_run=cfg.sample_count,
        seed=seed,
        min_value=Fraction(best_num, best_den),
        argmin=_fractions(best_pairs),
        counterexamples=hits,
        probes=[(_fractions(pairs), Fraction(*value)) for pairs, value in head],
    )


def random_search(
    poly: Polynomial,
    cfg: SearchConfig,
    probes: Sequence[Mapping[str, Fraction | int] | Sequence[Fraction | int]] = (),
    label: str = "",
) -> SearchReport:
    """Search ``poly`` at ``cfg.sample_count`` seeded points plus the fixed
    ``probes``, evaluated first and counted for the minimum and for
    counterexamples but not in ``samples_run``: a probe wins a tie on the
    minimum and probe hits are listed first."""
    if cfg.zero_probability == 1:
        raise PreconditionError("zero_probability 1 would evaluate only the zero point")
    probe_pairs = [_probe_pairs(poly, p) for p in probes]
    evaluate = compile_evaluator(poly)
    head = [(pairs, evaluate(pairs)) for pairs in probe_pairs]
    return search_range(evaluate, poly.varset.names, cfg, head, label or str(poly)[:40])


# -- the proof's minimization over z ------------------------------------------


def _text(values) -> str:
    """Rationals as a tuple of their text, ``(-1, 1/2, 0)``, for messages."""
    return f"({', '.join(map(str, values))})"


class MacroState:
    """A concrete assignment of (p1, p2, p3) and nonnegative (z1, z2, z3),
    with the derived quadratics c available as ``.c``.

    Coordinates pass ``poly._exact``: ints and Fractions are kept as given,
    a rational string becomes a Fraction, anything else is refused; every
    derived value is computed in the same ring, so an all-int state, as
    the fuzz draws, stays on ints."""

    __slots__ = ("p", "z")

    def __init__(self, p: Iterable[Fraction | int | str], z: Iterable[Fraction | int | str]):
        p = tuple(map(_exact, p))
        z = tuple(map(_exact, z))
        if len(p) != 3 or len(z) != 3:
            raise PreconditionError("p and z must each have three coordinates")
        if any(v < 0 for v in z):
            raise PreconditionError(f"z must be nonnegative, got {_text(z)}")
        self.p, self.z = p, z

    @property
    def c(self) -> tuple[Fraction, Fraction, Fraction]:
        return corpus.c_values(*self.p)

    def feasibility(self) -> Fraction:
        """(p1+z1)(p2+z2)(p3+z3); feasible means >= 0."""
        return corpus.feasibility_value(self.p, self.z)

    def is_feasible(self) -> bool:
        return self.feasibility() >= 0

    def d_value(self) -> Fraction:
        return corpus.d_value(self.p, self.z)

    def to_dict(self) -> dict:
        return {
            "p": [str(v) for v in self.p],
            "z": [str(v) for v in self.z],
            "c": [str(v) for v in self.c],
            "d": str(self.d_value()),
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


def greedy_minimize_z(state: MacroState, order: tuple[int, int, int] = (3, 2, 1)) -> MinimizeTrace:
    """Lower each z coordinate in turn to its smallest feasible value.

    With the other two factors fixed at their current values, the feasible
    set for z_i is a sign condition on the linear factor (p_i + z_i): when
    the product of the other factors is strictly positive the factor must
    stay nonnegative and z_i bottoms out at max(0, -p_i); when it is zero or
    negative the constraint is slack (or one-sided the other way) and z_i
    drops to 0.  The continuous lowering of the original argument stops at
    exactly these points, so the jump is taken directly.

    Coordinates are processed in ``order`` (default 3, 2, 1); a step is
    recorded only when the value actually changes.  Requires nonzero p_i and
    a feasible starting state.
    """
    if list(map(type, order)) != [int, int, int] or sorted(order) != [1, 2, 3]:
        raise PreconditionError(f"order must be a permutation of (1, 2, 3), got {order!r}")
    if any(v == 0 for v in state.p):
        raise PreconditionError("greedy minimization requires nonzero p coordinates")
    if not state.is_feasible():
        raise PreconditionError(
            f"infeasible start: constraint value {state.feasibility()} < 0"
        )
    p = state.p
    z = list(state.z)
    steps: list[MinimizeStep] = []
    for coord in order:
        i = coord - 1
        others = 1
        for j in range(3):
            if j != i:
                others *= p[j] + z[j]
        new_value = max(0, -p[i]) if others > 0 else 0
        if new_value != z[i]:
            before = steps[-1].d_after if steps else corpus.d_value(p, z)
            old_value = z[i]
            z[i] = new_value
            after = corpus.d_value(p, z)
            steps.append(MinimizeStep(f"z{coord}", old_value, new_value, before, after))
    final = MacroState(p, tuple(z))
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


def case_classify(state: MacroState) -> CaseClassification:
    """Classify a vertex (every z_i in {0, -p_i}) into one of the four cases
    and evaluate its closed form ``corpus.case_value`` on the permuted p."""
    p, z = state.p, state.z
    if any(v == 0 for v in p):
        raise PreconditionError("case analysis requires nonzero p coordinates")
    label = vertex_label(state)
    if label == "mixed":
        raise PreconditionError(
            f"not a vertex: some z_i is neither 0 nor -p_i at p={_text(p)}, z={_text(z)}"
        )
    # With p_i != 0 a vertex coordinate is pinned exactly when z_i != 0 (and
    # z_i >= 0 makes -p_i > 0 there); pinned coordinates go first.
    perm = sorted(range(3), key=lambda j: z[j] == 0)
    value = corpus.case_value(label, *(p[j] for j in perm))
    return CaseClassification(label, tuple(j + 1 for j in perm), value)


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


def sharpness_witness(c: Fraction | int | str) -> SharpnessWitness:
    """Exhibit a failure of the k-form with bracket constant ``c`` > 1/2.

    At b = (1,1,1) and k = (0, 0, k3) the difference collapses to
    (1-2c)*k3^2 + 8, so the smallest positive integer k3 with
    k3^2 > 8/(2c-1) already drives it negative.  The returned value is the
    value of ``corpus.k_form`` at that point.
    """
    c = _exact(c)
    if c <= corpus.HALF:
        raise PreconditionError(
            f"no witness exists for c = {c}: the inequality holds for c <= 1/2"
        )
    threshold = Fraction(8) / (2 * c - 1)
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


def _draw_state(
    rng: random.Random, widths: tuple, require_negative_product: bool
) -> MacroState:
    """Rejection-sample a feasible MacroState with nonzero p (and, when
    asked, p1*p2*p3 < 0) from one per-sample stream.

    Each attempt is ``_draw_pairs(rng, widths, 6, nonzero=3)``, the ints
    n1, d1, n2, d2, n3, d3, m1, e1, m2, e2, m3, e3 with p_i = n_i/d_i != 0 and
    z_i = |m_i|/e_i, and is tested on those ints (see the module docstring).
    Only the accepted one becomes a state: the drawn one times the lcm of its
    six denominators, so all its coordinates are ints.  ``widths`` is the
    run's ``_draw_widths(cfg)``."""
    for _ in range(10000):
        pairs = _draw_pairs(rng, widths, 6, nonzero=3)
        n1, d1, n2, d2, n3, d3, m1, e1, m2, e2, m3, e3 = pairs
        if require_negative_product and n1 * n2 * n3 >= 0:
            continue
        if (n1 * e1 + abs(m1) * d1) * (n2 * e2 + abs(m2) * d2) * (n3 * e3 + abs(m3) * d3) < 0:
            continue
        scale = lcm(d1, d2, d3, e1, e2, e3)
        values = [pairs[k] * (scale // pairs[k + 1]) for k in range(0, 12, 2)]
        return MacroState(values[:3], map(abs, values[3:]))
    raise PreconditionError("rejection sampling found no admissible state in 10000 draws")


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


def minimize_fuzz(cfg: SearchConfig, require_negative_product: bool = False) -> FuzzSummary:
    """Run the greedy minimizer and classifier on random feasible states and
    count, per guarantee of ``failed_guarantees``, the states violating it."""
    if require_negative_product and cfg.zero_probability == 1:
        # Every z_i is then 0, so a feasible state has p1*p2*p3 >= 0.
        raise PreconditionError("rejection sampling: zero_probability 1 admits no p1*p2*p3 < 0")
    failures = dict.fromkeys(GUARANTEES, 0)
    case_counts = {"i": 0, "ii": 0, "iii": 0, "iv": 0, "mixed": 0}
    failed_samples = 0
    rng, widths = random.Random(0), _draw_widths(cfg)
    for index in range(cfg.sample_count):
        _reseed(rng, cfg.seed, index)
        state = _draw_state(rng, widths, require_negative_product)
        trace = greedy_minimize_z(state)
        case_counts[trace.case_label] += 1
        # case_classify refuses a non-vertex; failed_guarantees counts it.
        mixed = trace.case_label == "mixed"
        failed = failed_guarantees(trace, None if mixed else case_classify(trace.final))
        for name in failed:
            failures[name] += 1
        failed_samples += bool(failed)
    return FuzzSummary(
        samples_run=cfg.sample_count,
        passed=cfg.sample_count - failed_samples,
        failed=failed_samples,
        failures=failures,
        case_counts=case_counts,
        seed=cfg.seed,
    )
