"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is stored in canonical sparse form: a fixed, ordered variable
set plus a map from exponent tuples to nonzero coefficients.  Canonical form
makes identity testing a dictionary comparison, so "this difference is the
zero polynomial" is decidable with no tolerance at all.

  Monomial   = tuple[int, ...]     one exponent per variable, in VarSet order
  Coeff      = int | Fraction
  Polynomial = VarSet + dict[Monomial, Coeff]   (no zero coefficients)

Sums start from the int 0, so arithmetic on ``int`` coefficients stays in
``int``; a ``Fraction`` coefficient comes only from a ``Fraction`` operand,
and may have denominator 1.  Since ``3 == Fraction(3)``, with the same hash
and the same text, the type that holds a coefficient changes neither
canonical form nor canonical text.

Terms are ordered graded-lexicographically with respect to the VarSet order
(total degree first, then the exponent tuple); printing and ``sorted_terms``
list the largest term first.

Operations never unify variable sets implicitly: combining polynomials over
different VarSets raises ``StructuralError``.

``evaluate`` substitutes rationals where ``substitute`` substitutes
polynomials; both sum ``coeff * prod(value_i**e_i)`` in one loop.  The
package itself builds every polynomial by calling a ``corpus`` formula on
``Polynomial.variable``s, so ``substitute`` has no caller in it; it stays as
library API, the tests build references with it, and perfbench/tracing.py
hooks it as a layer.  The search's evaluator on int pairs is in ``explorer``.
Coefficients and point values pass one exactness rule, ``_exact``: an int
or a Fraction, never text (the CLI parses text).  A point is a Mapping from
variable name to value, read by ``evaluate``.  An int or Fraction
operand of ``+``, ``-`` or ``*`` becomes the one constant term (no term for
0) without the validating constructor.

All values are immutable after construction and all operations are pure, so
everything here may be shared freely across threads.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from operator import add
from typing import Union

Monomial = tuple[int, ...]
Coeff = Union[Fraction, int]


class StructuralError(ValueError):
    """Malformed or mismatched inputs: wrong VarSet, bad exponent vector,
    missing assignment."""


class PreconditionError(ValueError):
    """Input outside an operation's stated domain (a value that is not an
    exact rational, infeasible state, zero p_i, constant not above 1/2,
    non-vertex state).  It lives here, next to ``StructuralError``, so code
    that catches both needs no import of the explorer."""


def _exact(value: Coeff) -> Coeff:
    """An int or a Fraction, returned as given; anything else (a bool, a
    float, a str, a Decimal, an int subclass) is refused, not converted."""
    if type(value) is int or type(value) is Fraction:
        return value
    raise PreconditionError(f"expected an exact rational, got {value!r}")


class VarSet:
    """An ordered, duplicate-free set of variable names.

    The order is fixed at construction and defines both the exponent-tuple
    layout of monomials and the canonical term order.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise StructuralError("VarSet needs at least one variable")
        if len(set(names)) != len(names):
            raise StructuralError(f"duplicate variable names in {names!r}")
        for name in names:
            if not re.fullmatch(r"[A-Za-z_]\w*", name):
                raise StructuralError(f"invalid variable name {name!r}")
        self.names: tuple[str, ...] = names
        self._index = {name: i for i, name in enumerate(names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise StructuralError(f"unknown variable {name!r}") from None

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VarSet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarSet({self.names!r})"


def _grlex_key(mono: Monomial) -> tuple[int, Monomial]:
    return (sum(mono), mono)


class Polynomial:
    """Canonical sparse multivariate polynomial with ``int`` or ``Fraction``
    coefficients (``Coeff``); arithmetic on ``int`` coefficients stays in
    ``int``."""

    __slots__ = ("varset", "terms")

    def __init__(self, varset: VarSet, terms: Mapping[Monomial, Coeff] = {}):
        """The canonical form of ``terms``, which is only read.

        Zero coefficients are dropped, so any two representations of the
        same polynomial over the same VarSet compare equal.  Exponent tuples
        must match the VarSet length and hold nonnegative ints (not bools);
        anything else raises ``StructuralError``.  Coefficients pass
        ``_exact``.
        """
        n = len(varset)
        canonical: dict[Monomial, Coeff] = {}
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != n:
                raise StructuralError(
                    f"exponent vector {mono!r} has length {len(mono)}, expected {n}"
                )
            if any(type(e) is not int or e < 0 for e in mono):
                raise StructuralError(f"exponents must be nonnegative integers: {mono!r}")
            if _exact(coeff):
                canonical[mono] = coeff
        self.varset = varset
        self.terms: dict[Monomial, Coeff] = canonical

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, varset: VarSet, value: Coeff) -> "Polynomial":
        return cls(varset, {(0,) * len(varset): value})

    @classmethod
    def variable(cls, varset: VarSet, name: str) -> "Polynomial":
        exps = [0] * len(varset)
        exps[varset.index(name)] = 1
        return cls(varset, {tuple(exps): 1})

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def sorted_terms(self) -> list[tuple[Monomial, Coeff]]:
        """Terms in canonical order: graded lex, largest first."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    # -- arithmetic ----------------------------------------------------------

    def _check_same_varset(self, other: "Polynomial") -> None:
        if self.varset is not other.varset and self.varset != other.varset:
            raise StructuralError(
                f"VarSet mismatch: {self.varset.names} vs {other.varset.names}"
            )

    def _coerce(self, other: object) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            self._check_same_varset(other)
            return other
        if isinstance(other, (int, Fraction)):
            value = _exact(other)  # refuses a bool
            return _raw(self.varset, {(0,) * len(self.varset.names): value} if value else {})
        return None

    def __add__(self, other: object) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in rhs.terms.items():
            acc = out.get(mono, 0) + coeff
            if acc:
                out[mono] = acc
            elif mono in out:
                del out[mono]
        return _raw(self.varset, out)

    __radd__ = __add__

    def __sub__(self, other: object) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __neg__(self) -> "Polynomial":
        return _raw(self.varset, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: object) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        # Naive sparse product; the largest expansion needed here stays in
        # the low thousands of terms, far below where clever algorithms pay.
        out: dict[Monomial, Coeff] = {}
        for ma, ca in self.terms.items():
            for mb, cb in rhs.terms.items():
                mono = tuple(map(add, ma, mb))
                acc = out.get(mono, 0) + ca * cb
                if acc:
                    out[mono] = acc
                elif mono in out:
                    del out[mono]
        return _raw(self.varset, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if type(n) is not int or n < 0:
            raise StructuralError(f"polynomial power must be a nonnegative integer, got {n!r}")
        if not n:
            return Polynomial.constant(self.varset, 1)
        result = self  # so no product is by the constant 1
        for _ in range(n - 1):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.varset == other.varset
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.varset, frozenset(self.terms.items())))

    # -- structural operations ------------------------------------------------

    def substitute(self, images: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Compose with a change of variables: replace every variable by its image.

        ``images`` maps exactly the names of this polynomial's VarSet (none
        missing, none extra) to polynomials over one common target VarSet,
        which the result lives on; anything else raises ``StructuralError``.
        A ring homomorphism: distributes over + and *.
        """
        names = self.varset.names
        if set(images) != set(names):
            raise StructuralError(f"images given for {sorted(images)}, expected exactly {names}")
        ordered = [images[name] for name in names]
        target = ordered[0].varset
        if any(image.varset != target for image in ordered):
            targets = sorted({image.varset.names for image in ordered})
            raise StructuralError(f"images must share one target VarSet, got {targets}")
        return self._compose(ordered, Polynomial(target))

    def evaluate(self, point: Mapping[str, Coeff]) -> Fraction:
        """Exact value at ``point``, a Mapping from variable name to value;
        each value passes ``_exact``, a missing name raises
        ``StructuralError``, and names outside the VarSet are ignored."""
        names = self.varset.names
        missing = [name for name in names if name not in point]
        if missing:
            raise StructuralError(f"no value assigned to variables {missing}")
        return self._compose([_exact(point[name]) for name in names], _ZERO)

    def _compose(self, values: list, zero):
        """``zero`` plus the sum over the terms of ``coeff * prod(values[i]**e_i)``,
        in any ring that takes int and Fraction coefficients; each power of
        each value is computed once, by one product with the power below it."""
        powers = [[v] for v in values]  # powers[i][e - 1] == values[i]**e
        total = zero
        for mono, coeff in self.terms.items():
            term = coeff
            for i, e in enumerate(mono):
                if e:
                    cache = powers[i]
                    while len(cache) < e:
                        cache.append(cache[-1] * values[i])
                    term = term * cache[e - 1]
            total = total + term
        return total

    # -- text format ------------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.varset.names!r}, {format_polynomial(self)!r})"


# The start of ``evaluate``'s sum, so that it returns a Fraction even at an
# all-int point.
_ZERO = Fraction(0)


def _raw(varset: VarSet, terms: dict[Monomial, Coeff]) -> Polynomial:
    """Internal: wrap an already-canonical term dict without re-validating."""
    poly = Polynomial.__new__(Polynomial)
    poly.varset = varset
    poly.terms = terms
    return poly


# -- canonical text format -----------------------------------------------------
#
# Terms in canonical order, coefficients as "num/den" (den omitted when 1,
# the coefficient 1 itself omitted before a variable), "^" powers and "*"
# products: "3*a1^2*b2^2 - 1/2*b3^4".  Distinct polynomials over one VarSet
# print differently, so golden fixtures are compared as this text.


def _format_monomial(varset: VarSet, mono: Monomial) -> str:
    parts = []
    for name, e in zip(varset.names, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_polynomial(poly: Polynomial) -> str:
    if poly.is_zero():
        return "0"
    pieces: list[str] = []
    for mono, coeff in poly.sorted_terms():
        mono_text = _format_monomial(poly.varset, mono)
        mag = -coeff if coeff < 0 else coeff
        if not mono_text:
            body = str(mag)
        elif mag == 1:
            body = mono_text
        else:
            body = f"{mag}*{mono_text}"
        if not pieces:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f"- {body}" if coeff < 0 else f"+ {body}")
    return " ".join(pieces)
