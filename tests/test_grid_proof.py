"""A second proof of the four change-of-variables checks that never uses the
polynomial kernel.

A polynomial of degree at most D_i in each variable x_i that vanishes at
every point of the grid {0..D_1} x ... x {0..D_n} is the zero polynomial
(Alon, *Combinatorial Nullstellensatz*, CPC 1999, Lemma 2.1).  So evaluating
both sides of an identity at every grid point, in ints and Fractions, proves
it exactly.  The bounds D_i come from running the same corpus formulas in a
max-plus degree ring.  While the grid is walked, ``Polynomial`` addition and
multiplication raise, so no step of the proof is the kernel's.
"""

import itertools
from fractions import Fraction
from operator import add

import pytest

import helpers
from cstriple import corpus, verifier
from cstriple.poly import Polynomial


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

    def __mul__(self, other):
        return Degree(map(add, self.bounds, self._of(other)))

    __rmul__ = __mul__

    def __pow__(self, n):
        return Degree(n * e for e in self.bounds)


def degree_bounds(side, nvars: int) -> tuple[int, ...]:
    """Per-variable degree bounds of ``side`` in its ``nvars`` arguments."""
    value = side(*(Degree(int(i == j) for j in range(nvars)) for i in range(nvars)))
    return value.bounds if isinstance(value, Degree) else (0,) * nvars


def grid_counterexample(lhs, rhs, nvars: int):
    """(bounds, point): the degree bounds of lhs - rhs and the first grid
    point where the two sides differ, or None when they agree on the whole
    grid, which proves lhs == rhs as polynomials."""
    bounds = tuple(map(max, degree_bounds(lhs, nvars), degree_bounds(rhs, nvars)))
    for point in itertools.product(*(range(d + 1) for d in bounds)):
        if lhs(*point) != rhs(*point):
            return bounds, point
    return bounds, None


def _sharpness_expected(k1, k2, k3, b1, b2, b3, c):
    return (1 - 2 * c) * (b1 * b2 * b3) ** 2 * k3**2 + (b1**2 + b2**2) * (
        b1**2 + b3**2
    ) * (b2**2 + b3**2)


# check -> (lhs, rhs, number of variables, expected degree bounds); the
# variables are those of the check's VarSet, in order (AB, AB, KB, KBC).
IDENTITIES = {
    "key-identity": (
        lambda a1, a2, a3, b1, b2, b3: (b1 * b2 * b3) ** 2
        * corpus.inequality(a1, a2, a3, b1, b2, b3).d_tilde,
        lambda *ab: corpus.d_value(*corpus.macro(*ab)),
        6,
        (2, 2, 2, 6, 6, 6),
    ),
    "constraint-factorization": (
        lambda *ab: corpus.feasibility_value(*corpus.macro(*ab)),
        lambda a1, a2, a3, b1, b2, b3: (a1 * a2 * a3 * b1 * b2 * b3) ** 2,
        6,
        (2, 2, 2, 4, 4, 4),
    ),
    "k-equivalence": (
        lambda k1, k2, k3, b1, b2, b3: corpus.inequality(
            k1 * b1, k2 * b2, k3 * b3, b1, b2, b3
        ).d_tilde,
        corpus.k_form,
        6,
        (2, 2, 2, 6, 6, 6),
    ),
    "sharpness-reduction": (
        lambda k1, k2, k3, b1, b2, b3, c: corpus.k_form(0, 0, k3, b1, b2, b3, c),
        _sharpness_expected,
        7,
        (0, 0, 2, 6, 6, 6, 1),
    ),
}


@pytest.fixture
def no_kernel_arithmetic(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the grid proof used Polynomial arithmetic")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Polynomial, name, forbidden)


@pytest.mark.parametrize("check", IDENTITIES)
def test_grid_proves_the_change_of_variables(check, no_kernel_arithmetic):
    lhs, rhs, nvars, expected_bounds = IDENTITIES[check]
    bounds, point = grid_counterexample(lhs, rhs, nvars)
    assert bounds == expected_bounds
    assert point is None


def test_grid_refutes_a_planted_bracket_constant(no_kernel_arithmetic):
    def planted(*kb):
        return corpus.k_form(*kb, Fraction(1, 3))

    lhs, _, nvars, _ = IDENTITIES["k-equivalence"]
    _, point = grid_counterexample(lhs, planted, nvars)
    assert point is not None
    assert lhs(*point) != planted(*point)


@pytest.mark.parametrize("check", IDENTITIES)
def test_degree_bounds_cover_the_kernel_expansions(check):
    # The max-plus bound is an upper bound of the degree in each variable
    # of both sides the verifier expands, so the grid is large enough.
    *_, bounds = IDENTITIES[check]
    for _, lhs, rhs in verifier.identity_components(check):
        for side in (lhs, rhs):
            degrees = [helpers.degree_in(side, name) for name in side.varset.names]
            assert all(d <= bound for d, bound in zip(degrees, bounds, strict=True))
