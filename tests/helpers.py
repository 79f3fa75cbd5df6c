"""Shared generators and property drivers for the test suite.

The property checks live here so the regular unit tests and the acceptance
module run exactly the same code.  Everything is driven by seeded
``random.Random`` instances; no check depends on wall-clock or platform
state.
"""

from __future__ import annotations

import random
from fractions import Fraction

from cstriple import corpus, verifier
from cstriple.poly import Polynomial, Substitution, VarSet, compile_evaluator

XYZW = VarSet(("x", "y", "z", "w"))


def rand_fraction(rng: random.Random, bound: int = 100) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def rand_polynomial(
    rng: random.Random,
    varset: VarSet = XYZW,
    max_terms: int = 6,
    max_exp: int = 3,
    bound: int = 100,
) -> Polynomial:
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in varset.names)
        terms.append((mono, rand_fraction(rng, bound)))
    return Polynomial(varset, terms)


def rand_point(rng: random.Random, varset: VarSet, bound: int = 20) -> dict[str, Fraction]:
    return {name: rand_fraction(rng, bound) for name in varset.names}


def pairs(values) -> tuple[int, ...]:
    """Rational coordinates as the flat int tuple (n1, d1, ..., nk, dk) that
    compiled evaluators take."""
    return tuple(x for v in values for x in (Fraction(v).numerator, Fraction(v).denominator))


def reference_pairs(rng: random.Random, cfg, count: int, nonzero: bool = False) -> list[int]:
    """The documented coordinate draw of ``explorer``, written with
    ``randrange``/``randint`` so that it pins the module's own
    ``getrandbits`` draw to the stream those give.

    Per coordinate, as the flat list n1, d1, ...: the zero test
    ``randrange(zd) < zn`` for the zero probability zn/zd (skipped when zn
    is 0 or with ``nonzero``), then the numerator ``randint(-N, N)`` and the
    denominator ``randint(1, D)``; with ``nonzero`` both are drawn again
    while the numerator is 0 (the fuzz's p_i)."""
    zn, zd = cfg.zero_probability.numerator, cfg.zero_probability.denominator
    nb, db = cfg.numerator_bound, cfg.denominator_bound
    out: list[int] = []
    for _ in range(count):
        if not nonzero and zn and rng.randrange(zd) < zn:
            out += [0, 1]
            continue
        num, den = rng.randint(-nb, nb), rng.randint(1, db)
        while nonzero and num == 0:
            num, den = rng.randint(-nb, nb), rng.randint(1, db)
        out += [num, den]
    return out


def rand_substitution(rng: random.Random, source: VarSet, target: VarSet) -> Substitution:
    images = {
        name: rand_polynomial(rng, target, max_terms=3, max_exp=2, bound=10)
        for name in source.names
    }
    return Substitution(source, target, images)


def check_ring_axioms(seed: int = 2024, triples: int = 1000) -> int:
    """Commutativity, associativity, distributivity and additive inverse on
    random polynomial triples; returns the number of triples checked."""
    rng = random.Random(seed)
    zero = Polynomial.zero(XYZW)
    for _ in range(triples):
        a = rand_polynomial(rng)
        b = rand_polynomial(rng)
        c = rand_polynomial(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == zero
        for poly in (a + b, a * b, a - c):
            assert all(coeff != 0 for coeff in poly.terms.values())
    return triples


def check_substitution_homomorphism(seed: int = 99, cases: int = 500) -> int:
    """substitute distributes over + and * on random polynomial pairs."""
    rng = random.Random(seed)
    source = VarSet(("u", "v", "t"))
    target = VarSet(("x", "y", "z"))
    for _ in range(cases):
        p = rand_polynomial(rng, source, max_terms=4, max_exp=2, bound=20)
        q = rand_polynomial(rng, source, max_terms=4, max_exp=2, bound=20)
        sub = rand_substitution(rng, source, target)
        assert (p * q).substitute(sub) == p.substitute(sub) * q.substitute(sub)
        assert (p + q).substitute(sub) == p.substitute(sub) + q.substitute(sub)
    return cases


def check_eval_subst_commutation(seed: int = 7, cases: int = 500) -> int:
    """evaluate(substitute(P, s), v) == evaluate(P, w) with w = s evaluated at v."""
    rng = random.Random(seed)
    source = VarSet(("u", "v", "t"))
    target = VarSet(("x", "y", "z"))
    for _ in range(cases):
        p = rand_polynomial(rng, source, max_terms=4, max_exp=2, bound=20)
        sub = rand_substitution(rng, source, target)
        point = rand_point(rng, target, bound=10)
        pulled_back = {name: sub.images[name].evaluate(point) for name in source.names}
        assert p.substitute(sub).evaluate(point) == p.evaluate(pulled_back)
    return cases


def _rename(varset: VarSet, mapping: dict[str, str]) -> Substitution:
    images = {
        name: Polynomial.variable(varset, mapping.get(name, name)) for name in varset.names
    }
    return Substitution(varset, varset, images)


PERMUTATIONS = ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))


def check_dtilde_invariances(seed: int = 5, scalings: int = 200) -> None:
    """Degree-6 homogeneity plus index-permutation and paired sign-flip
    symmetry of the difference polynomial, all as exact statements."""
    d_tilde = corpus.build_inequality().d_tilde
    assert d_tilde.homogeneous_degree() == 6

    rng = random.Random(seed)
    evaluate = compile_evaluator(d_tilde)
    names = d_tilde.varset.names
    for _ in range(scalings):
        t = Fraction(0)
        while t == 0:
            t = rand_fraction(rng, 20)
        point = [rand_fraction(rng, 20) for _ in names]
        scaled = [t * v for v in point]
        value = Fraction(*evaluate(pairs(point)))
        assert value == d_tilde.evaluate(dict(zip(names, point)))
        assert Fraction(*evaluate(pairs(scaled))) == t**6 * value

    for perm in PERMUTATIONS:
        mapping = {}
        for i, j in enumerate(perm, start=1):
            mapping[f"a{i}"] = f"a{j}"
            mapping[f"b{i}"] = f"b{j}"
        assert d_tilde.substitute(_rename(corpus.AB, mapping)) == d_tilde

    for i in (1, 2, 3):
        images = {
            name: Polynomial.variable(corpus.AB, name) for name in corpus.AB.names
        }
        images[f"a{i}"] = -Polynomial.variable(corpus.AB, f"a{i}")
        images[f"b{i}"] = -Polynomial.variable(corpus.AB, f"b{i}")
        flip = Substitution(corpus.AB, corpus.AB, images)
        assert d_tilde.substitute(flip) == d_tilde


def check_d_permutation_invariance() -> None:
    """d is symmetric under simultaneous permutation of the p and z indices."""
    d = corpus.build_d()
    for perm in PERMUTATIONS:
        mapping = {}
        for i, j in enumerate(perm, start=1):
            mapping[f"p{i}"] = f"p{j}"
            mapping[f"z{i}"] = f"z{j}"
        assert d.substitute(_rename(corpus.MACRO, mapping)) == d


def mutate_coefficient(poly: Polynomial, term_index: int, delta: int) -> Polynomial:
    """Copy of ``poly`` with one coefficient shifted by ``delta`` (a genuine
    single-coefficient mutation for any delta != 0)."""
    terms = poly.sorted_terms()
    mono, coeff = terms[term_index % len(terms)]
    changed = dict(poly.terms)
    new_coeff = coeff + delta
    if new_coeff:
        changed[mono] = new_coeff
    else:
        del changed[mono]
    return Polynomial(poly.varset, changed)


def run_mutation_suite(mutations_per_check: int = 10) -> dict[str, int]:
    """Mutate one side of every identity and count the refutations.

    Returns check name -> number of mutations reported refuted; a healthy
    verifier refutes every single one.
    """
    refuted: dict[str, int] = {}
    for check in verifier.CHECK_NAMES:
        components = verifier.identity_components(check)
        count = 0
        for i in range(mutations_per_check):
            name, lhs, rhs = components[i % len(components)]
            n_terms = max(lhs.term_count, 1)
            mutated = mutate_coefficient(lhs, i % n_terms, 1 + i // n_terms)
            report = verifier.check_equal(check, [(name, mutated, rhs)])
            if report.status == verifier.STATUS_REFUTED:
                count += 1
        refuted[check] = count
    return refuted
