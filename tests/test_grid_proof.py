"""A second proof of all seven checks that never uses the polynomial kernel.

A polynomial of degree at most D_i in each variable x_i that vanishes at
every point of the grid {0..D_1} x ... x {0..D_n} is the zero polynomial
(Alon, *Combinatorial Nullstellensatz*, CPC 1999, Lemma 2.1).  So evaluating
both sides of an identity at every grid point, in ints and Fractions, proves
it exactly.  The statements are the ones the verifier expands: one grid per
VarSet walks every component of ``corpus.identities(varset)``, so this file
holds no formula of its own.  The bounds D_i come from running the same
functions in a max-plus degree ring.  While a grid is walked, ``Polynomial``
arithmetic raises, so no step of the proof is the kernel's.

``grid_walk`` is also the only oracle of tests/grid_mutation_score.py, which
measures whether this proof refutes the corpus mutants on its own.
"""

import contextlib
import itertools
import math
from fractions import Fraction
from operator import add
from typing import NamedTuple

import pytest

import helpers
from cstriple import corpus, verifier
from cstriple.poly import Polynomial

VARSETS = (corpus.AB, corpus.KB, corpus.KBC, corpus.MACRO)

# The max-plus degree bounds of each VarSet's statements; its grid has
# prod(D_i + 1) points, 20,628 in all.
EXPECTED_BOUNDS = {
    corpus.AB: (2, 2, 2, 6, 6, 6),
    corpus.KB: (2, 2, 2, 6, 6, 6),
    corpus.KBC: (0, 0, 2, 6, 6, 6, 1),
    corpus.MACRO: (3, 3, 2, 0, 0, 0),
}


class Degree:
    """Upper bounds on the degree in each variable, in the max-plus ring:
    ``+`` and ``-`` take the max, ``*`` adds and ``**n`` scales.  A number
    has degree 0 in every variable."""

    def __init__(self, bounds):
        self.bounds = tuple(bounds)

    def _of(self, other):
        return other.bounds if isinstance(other, Degree) else (0,) * len(self.bounds)

    def __add__(self, other):
        return Degree(map(max, self.bounds, self._of(other)))

    __radd__ = __sub__ = __rsub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        return Degree(map(add, self.bounds, self._of(other)))

    __rmul__ = __mul__

    def __pow__(self, n):
        return Degree(n * e for e in self.bounds)


def _sides(statements):
    """(check, component, lhs, rhs) for every component of ``statements``."""
    for check, components in statements.items():
        for name, lhs, rhs in components:
            yield check, name, lhs, rhs


def degree_bounds(varset) -> tuple[int, ...]:
    """Per-variable degree bounds of every side of ``varset``'s statements."""
    n = len(varset)
    units = (Degree(int(i == j) for j in range(n)) for i in range(n))
    bounds = (0,) * n
    for *_, lhs, rhs in _sides(corpus.identities(varset)(*units)):
        for side in (lhs, rhs):
            if isinstance(side, Degree):
                bounds = tuple(map(max, bounds, side.bounds))
    return bounds


class GridWalk(NamedTuple):
    bounds: tuple[int, ...]
    points: int
    # (check, component, point) where the two sides first differ; None
    # when they agree on the whole grid, which proves every statement.
    failure: tuple | None


def grid_walk(varset) -> GridWalk:
    """Evaluate every statement of ``varset`` at each point of its grid."""
    statements = corpus.identities(varset)
    bounds = degree_bounds(varset)
    points = 0
    for point in itertools.product(*(range(d + 1) for d in bounds)):
        points += 1
        for check, name, lhs, rhs in _sides(statements(*point)):
            if lhs != rhs:
                return GridWalk(bounds, points, (check, name, point))
    return GridWalk(bounds, points, None)


KERNEL_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__",
)


@contextlib.contextmanager
def kernel_arithmetic_forbidden():
    """Every ``Polynomial`` arithmetic operator raises inside the block."""

    def forbidden(*args):
        raise AssertionError("the grid proof used Polynomial arithmetic")

    with pytest.MonkeyPatch.context() as patch:
        for name in KERNEL_OPERATORS:
            patch.setattr(Polynomial, name, forbidden)
        yield


@pytest.fixture(scope="module")
def walks():
    with kernel_arithmetic_forbidden():
        return {varset: grid_walk(varset) for varset in VARSETS}


# Every check, the changes of variables and the other three alike.
@pytest.mark.parametrize("check", verifier.CHECK_NAMES)
def test_grid_proves_the_change_of_variables(check, walks):
    varset = corpus.CHECKS[check]
    bounds, points, failure = walks[varset]
    assert check in corpus.identities(varset)(*range(len(varset)))
    assert bounds == EXPECTED_BOUNDS[varset]
    assert points == math.prod(d + 1 for d in bounds)
    assert failure is None


def test_one_grid_per_varset_walks_all_twelve_components(walks):
    assert set(walks) == set(corpus.CHECKS.values())
    components = [
        name
        for varset in walks
        for _, name, _, _ in _sides(corpus.identities(varset)(*range(len(varset))))
    ]
    assert len(components) == len(set(components)) == 12
    assert sum(walk.points for walk in walks.values()) == 20_628


def test_grid_refutes_a_planted_bracket_constant(monkeypatch):
    original = corpus.k_form

    def planted(k1, k2, k3, b1, b2, b3, c=corpus.HALF):
        return original(k1, k2, k3, b1, b2, b3, Fraction(1, 3))

    monkeypatch.setattr(corpus, "k_form", planted)
    with kernel_arithmetic_forbidden():
        check, component, point = grid_walk(corpus.KB).failure
    assert (check, component) == ("k-equivalence", "k-equivalence")
    (_, lhs, rhs), = corpus.kb_identities(*point)["k-equivalence"]
    assert lhs != rhs


def test_a_planted_discriminant_coefficient_is_refuted_by_replay_and_grid(monkeypatch):
    planted = helpers.planted(corpus, "macro_identities", "7 * p1 * p2", "8 * p1 * p2")
    monkeypatch.setattr(corpus, "macro_identities", planted)
    report = verifier.run_check("case-formulas")
    assert report.status == verifier.STATUS_REFUTED
    assert report.witness.startswith("case-ii-discriminant: ")
    with kernel_arithmetic_forbidden():
        check, component, _ = grid_walk(corpus.MACRO).failure
    assert (check, component) == ("case-formulas", "case-ii-discriminant")


@pytest.mark.parametrize("check", verifier.CHECK_NAMES)
def test_degree_bounds_cover_the_kernel_expansions(check):
    # The max-plus bound is an upper bound of the degree in each variable
    # of both sides the verifier expands, so the grid is large enough.
    varset = corpus.CHECKS[check]
    bounds = degree_bounds(varset)
    for _, lhs, rhs in verifier.identity_components(check):
        for side in (lhs, rhs):
            degrees = [helpers.degree_in(side, name) for name in varset.names]
            assert all(d <= bound for d, bound in zip(degrees, bounds, strict=True))


OPERATIONS = {
    "add": lambda x: x + 1,
    "radd": lambda x: 1 + x,
    "sub": lambda x: x - 1,
    "rsub": lambda x: 1 - x,
    "mul": lambda x: x * 2,
    "rmul": lambda x: 2 * x,
    "neg": lambda x: -x,
    "pow": lambda x: x**2,
}


@pytest.mark.parametrize("operation", OPERATIONS)
def test_the_guard_forbids_every_kernel_operator(operation):
    x = Polynomial.variable(corpus.AB, "a1")
    OPERATIONS[operation](x)
    with kernel_arithmetic_forbidden(), pytest.raises(AssertionError, match="Polynomial"):
        OPERATIONS[operation](x)
