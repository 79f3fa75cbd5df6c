"""Shared generators and property drivers for the test suite.

The property checks live here so the regular unit tests and the acceptance
module run exactly the same code.  Everything is driven by seeded
``random.Random`` instances; no check depends on wall-clock or platform
state.
"""

from __future__ import annotations

import dis
import inspect
import itertools
import math
import random
from fractions import Fraction

from cstriple import corpus, explorer, verifier
from cstriple.explorer import compile_evaluator
from cstriple.poly import Polynomial, StructuralError, VarSet

XYZW = VarSet(("x", "y", "z", "w"))


def total_degree(poly: Polynomial) -> int:
    """Maximum total degree of any term; -1 for the zero polynomial."""
    return max((sum(m) for m in poly.terms), default=-1)


def degree_in(poly: Polynomial, name: str) -> int:
    """Largest exponent of ``name``; -1 for the zero polynomial."""
    i = poly.varset.index(name)
    return max((m[i] for m in poly.terms), default=-1)


def homogeneous_degree(poly: Polynomial) -> int | None:
    """Common total degree of all terms, or None if degrees differ.

    The zero polynomial has no well-defined degree and raises.
    """
    if not poly.terms:
        raise StructuralError("zero polynomial has no homogeneous degree")
    degrees = {sum(m) for m in poly.terms}
    if len(degrees) == 1:
        return degrees.pop()
    return None


def rand_fraction(rng: random.Random, bound: int = 100) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def rand_polynomial(
    rng: random.Random,
    varset: VarSet = XYZW,
    max_terms: int = 6,
    max_exp: int = 3,
    bound: int = 100,
) -> Polynomial:
    terms: dict = {}  # a repeated monomial sums its coefficients
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in varset.names)
        terms[mono] = terms.get(mono, 0) + rand_fraction(rng, bound)
    return Polynomial(varset, terms)


def rand_point(rng: random.Random, varset: VarSet, bound: int = 20) -> dict[str, Fraction]:
    return {name: rand_fraction(rng, bound) for name in varset.names}


def pairs(values) -> tuple[int, ...]:
    """Rational coordinates as the flat int tuple (n1, d1, ..., nk, dk) that
    compiled evaluators take."""
    return tuple(x for v in values for x in (Fraction(v).numerator, Fraction(v).denominator))


def sample_rng(seed: int, index: int) -> random.Random:
    """The reference generator of sample ``index`` of a run with ``seed``;
    ``explorer`` reseeds one generator a run to the state of this one."""
    return random.Random((seed << 64) | index)


def same_state(rng: random.Random, reference: random.Random) -> bool:
    """Whether two generators are in the same state: their next 624 words,
    which fix a Mersenne Twister's state, are equal.  Both draw them."""
    return rng.getrandbits(32 * 624) == reference.getrandbits(32 * 624)


def reference_draw(rng: random.Random, cfg, count=6, negative=None) -> tuple[list[int], int]:
    """The documented draws of ``explorer``, written with ``randrange``/
    ``randint`` to pin its own ``getrandbits`` draws to the stream those
    give: the drawn ints n1, d1, ... and the number of candidates drawn.

    Per coordinate: the zero test ``randrange(zd) < zn`` for the zero
    probability zn/zd (skipped when zn is 0, or for a p_i), then
    ``randint(-N, N)`` and ``randint(1, D)``, both drawn again while a p_i's
    numerator is 0.  With ``negative`` None, the search's ``count``
    coordinates; else the fuzz's candidates of three p_i and three z_i, the
    z_i made nonnegative, until one is feasible on Fractions and, if
    ``negative``, has p1*p2*p3 < 0."""
    (zn, zd), nb, db = cfg.zero_probability.as_integer_ratio(), cfg.numerator_bound, cfg.denominator_bound

    def coordinate(nonzero: bool) -> list[int]:
        if not nonzero and zn and rng.randrange(zd) < zn:
            return [0, 1]
        num, den = rng.randint(-nb, nb), rng.randint(1, db)
        while nonzero and num == 0:
            num, den = rng.randint(-nb, nb), rng.randint(1, db)
        return [num, den]

    if negative is None:
        return [x for _ in range(count) for x in coordinate(False)], 1
    for attempts in itertools.count(1):
        pairs = [x for i in range(6) for x in coordinate(i < 3)]
        pairs[6::2] = map(abs, pairs[6::2])
        p = explorer._fractions(pairs[:6])
        if negative and p[0] * p[1] * p[2] >= 0:
            continue
        z = explorer._fractions(pairs[6:])
        if (p[0] + z[0]) * (p[1] + z[1]) * (p[2] + z[2]) >= 0:
            return pairs, attempts


def per_term_pair(poly: Polynomial, values) -> tuple[int, int]:
    """The pair ``compile_evaluator`` returns, summed term by term: with
    per-variable maximum exponents E_i and L the lcm of the coefficient
    denominators, (sum_t L*c_t * prod_i n_i^e_ti * d_i^(E_i - e_ti),
    L * prod_i d_i^E_i) at the flat int tuple (n1, d1, ..., nk, dk)."""
    nums, dens = values[::2], values[1::2]
    top = [max((mono[i] for mono in poly.terms), default=0) for i in range(len(nums))]
    scale = math.lcm(*(Fraction(c).denominator for c in poly.terms.values()))
    num = 0
    for mono, c in poly.terms.items():
        term = int(c * scale)
        for n, d, e, e_max in zip(nums, dens, mono, top):
            term *= n**e * d ** (e_max - e)
        num += term
    return num, math.prod(d**e_max for d, e_max in zip(dens, top)) * scale


def symbolic_pairs(varset: VarSet) -> tuple[Polynomial, ...]:
    """Two symbols n_x, d_x per variable x of ``varset``, as the flat tuple
    of Polynomials over a new VarSet that compiled evaluators take."""
    symbols = VarSet(f"{kind}_{name}" for name in varset.names for kind in ("n", "d"))
    return tuple(Polynomial.variable(symbols, name) for name in symbols.names)


def multiplications(function) -> int:
    """The multiplications in ``function``'s bytecode, spelled
    BINARY_MULTIPLY/INPLACE_MULTIPLY up to Python 3.10 and BINARY_OP with
    ``*``/``*=`` from 3.11 on."""
    return sum(
        ins.opname in ("BINARY_MULTIPLY", "INPLACE_MULTIPLY")
        or (ins.opname == "BINARY_OP" and ins.argrepr in ("*", "*="))
        for ins in dis.get_instructions(function)
    )


def rand_substitution(rng: random.Random, source: VarSet, target: VarSet) -> dict[str, Polynomial]:
    return {
        name: rand_polynomial(rng, target, max_terms=3, max_exp=2, bound=10)
        for name in source.names
    }


def constant_substitution(value: Fraction | int) -> dict[str, Polynomial]:
    """Fix the symbolic bracket constant: KBC -> KB with C -> value."""
    images = {name: Polynomial.variable(corpus.KB, name) for name in corpus.KB}
    images["C"] = Polynomial.constant(corpus.KB, Fraction(value))
    return images


def macro_images() -> tuple[tuple[Polynomial, ...], tuple[Polynomial, ...]]:
    """The macro change of variables as Polynomials over AB: the images (p, z)."""
    return corpus.macro(*corpus.variables(corpus.AB))


def inequality_parts() -> corpus.InequalityParts:
    """``corpus.inequality`` over the AB variables: lhs, rhs, d_tilde, weak
    and the ``corpus.lagrange`` parts they are built from."""
    return corpus.inequality(*corpus.variables(corpus.AB))


def lagrange_parts() -> corpus.LagrangeParts:
    """``corpus.lagrange`` over the AB variables."""
    return corpus.lagrange(*corpus.variables(corpus.AB))


def k_form_polynomial(c: Fraction | int = corpus.HALF) -> Polynomial:
    """``corpus.k_form`` over the KB variables with bracket constant ``c``."""
    return corpus.k_form(*corpus.variables(corpus.KB), c)


def macro_triples() -> tuple[tuple[Polynomial, ...], tuple[Polynomial, ...]]:
    """The MACRO variables as the triples (p, z) that ``corpus.d_value`` and
    ``corpus.feasibility_value`` take."""
    p1, p2, p3, z1, z2, z3 = corpus.variables(corpus.MACRO)
    return (p1, p2, p3), (z1, z2, z3)


def check_ring_axioms(seed: int = 2024, triples: int = 1000) -> int:
    """Commutativity, associativity, distributivity and additive inverse on
    random polynomial triples; returns the number of triples checked."""
    rng = random.Random(seed)
    zero = Polynomial(XYZW)
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
        pulled_back = {name: sub[name].evaluate(point) for name in source.names}
        assert p.substitute(sub).evaluate(point) == p.evaluate(pulled_back)
    return cases


def _rename(varset: VarSet, mapping: dict[str, str]) -> dict[str, Polynomial]:
    return {
        name: Polynomial.variable(varset, mapping.get(name, name)) for name in varset.names
    }


PERMUTATIONS = ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))


def check_dtilde_invariances(seed: int = 5, scalings: int = 200) -> None:
    """Degree-6 homogeneity plus index-permutation and paired sign-flip
    symmetry of the difference polynomial, all as exact statements."""
    d_tilde = inequality_parts().d_tilde
    assert homogeneous_degree(d_tilde) == 6

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
        assert d_tilde.substitute(images) == d_tilde


def check_d_permutation_invariance() -> None:
    """d is symmetric under simultaneous permutation of the p and z indices."""
    d = corpus.d_value(*macro_triples())
    for perm in PERMUTATIONS:
        mapping = {}
        for i, j in enumerate(perm, start=1):
            mapping[f"p{i}"] = f"p{j}"
            mapping[f"z{i}"] = f"z{j}"
        assert d.substitute(_rename(corpus.MACRO, mapping)) == d


def end_off_vertex(state: explorer.MacroState, order=(3, 2, 1)) -> explorer.MinimizeTrace:
    """A stand-in for ``greedy_minimize_z`` that ends every descent at
    p = (-1, 1, 1), z = (5, 0, 0): z1 is neither 0 nor -p1, so not a vertex."""
    final = explorer.MacroState((-1, 1, 1), (5, 0, 0))
    return explorer.MinimizeTrace(state, (), final, explorer.vertex_label(final))


def planted(module, name: str, old: str, new: str):
    """The function ``name`` of ``module`` compiled from its source, in a copy
    of the module's namespace, with the one occurrence of ``old`` replaced
    by ``new``."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[name]


def insert_state_lines(monkeypatch, insertions: dict[str, list[str]], **names) -> None:
    """Make the fuzz loop run each list of ``insertions`` right before its
    first per-state statement that starts with the list's key, with
    ``names`` added to the names the loop reads.  While the patch lasts the
    loop is compiled anew on each run, so no patched code reaches its cache."""
    state_lines = explorer._state_lines

    def patched(indent: str) -> list[str]:
        lines = state_lines(indent)
        for at, inserted in insertions.items():
            where = next(n for n, line in enumerate(lines) if line.startswith(indent + at))
            lines[where:where] = [indent + line for line in inserted]
        return lines

    monkeypatch.setattr(explorer, "_state_lines", patched)
    monkeypatch.setattr(explorer, "_generated_fuzz", explorer._generated_fuzz.__wrapped__)
    for name, value in names.items():
        monkeypatch.setitem(explorer._FUZZ_NAMES, name, value)


def end_fuzz_off_vertex(monkeypatch) -> None:
    """``end_off_vertex`` for the fuzz loop: right after its descent, every
    state is set to p = (-1, 1, 1), z = (5, 0, 0), with c formed anew."""
    off_vertex = ["p0, p1, p2 = p = (-1, 1, 1)", "z0, z1, z2 = 5, 0, 0", "c = corpus.c_values(*p)"]
    insert_state_lines(monkeypatch, {"mixed = ": off_vertex})


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
