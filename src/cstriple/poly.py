"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is stored in canonical sparse form: a fixed, ordered variable
set plus a map from exponent tuples to nonzero ``Fraction`` coefficients.
Canonical form makes identity testing a dictionary comparison, so "this
difference is the zero polynomial" is decidable with no tolerance at all.

  Monomial   = tuple[int, ...]     one exponent per variable, in VarSet order
  Polynomial = VarSet + dict[Monomial, Fraction]   (no zero coefficients)

Terms are ordered graded-lexicographically with respect to the VarSet order
(total degree first, then the exponent tuple); printing and ``sorted_terms``
list the largest term first.

Operations never unify variable sets implicitly: combining polynomials over
different VarSets raises ``StructuralError``.

All values are immutable after construction and all operations are pure, so
everything here may be shared freely across threads.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

Monomial = tuple[int, ...]
Coeff = Union[Fraction, int]


class StructuralError(ValueError):
    """Malformed or mismatched inputs: wrong VarSet, bad exponent vector,
    missing assignment, unparsable text."""


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

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VarSet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarSet({self.names!r})"


def _grlex_key(mono: Monomial) -> tuple[int, Monomial]:
    return (sum(mono), mono)


class Polynomial:
    """Canonical sparse multivariate polynomial with Fraction coefficients."""

    __slots__ = ("varset", "terms")

    def __init__(
        self,
        varset: VarSet,
        terms: Mapping[Monomial, Coeff] | Iterable[tuple[Monomial, Coeff]] = (),
    ):
        """Build the canonical form of a raw term list.

        Like monomials are merged and zero coefficients dropped, so any two
        representations of the same polynomial over the same VarSet compare
        equal.  Exponent tuples must match the VarSet length and be
        nonnegative; anything else raises ``StructuralError``.
        """
        if isinstance(terms, Mapping):
            items: Iterable[tuple[Monomial, Coeff]] = terms.items()
        else:
            items = terms
        n = len(varset)
        merged: dict[Monomial, Fraction] = {}
        for mono, coeff in items:
            mono = tuple(mono)
            if len(mono) != n:
                raise StructuralError(
                    f"exponent vector {mono!r} has length {len(mono)}, expected {n}"
                )
            if any(e < 0 or not isinstance(e, int) for e in mono):
                raise StructuralError(f"exponents must be nonnegative integers: {mono!r}")
            coeff = Fraction(coeff)
            acc = merged.get(mono, _ZERO) + coeff
            if acc:
                merged[mono] = acc
            elif mono in merged:
                del merged[mono]
        self.varset = varset
        self.terms: dict[Monomial, Fraction] = merged

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, varset: VarSet) -> "Polynomial":
        return cls(varset)

    @classmethod
    def constant(cls, varset: VarSet, value: Coeff) -> "Polynomial":
        return cls(varset, {(0,) * len(varset): Fraction(value)})

    @classmethod
    def variable(cls, varset: VarSet, name: str) -> "Polynomial":
        exps = [0] * len(varset)
        exps[varset.index(name)] = 1
        return cls(varset, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(
        cls, varset: VarSet, powers: Mapping[str, int], coeff: Coeff = 1
    ) -> "Polynomial":
        """Single term ``coeff * prod(name**power)``; unlisted names get exponent 0."""
        exps = [0] * len(varset)
        for name, power in powers.items():
            exps[varset.index(name)] = power
        return cls(varset, {tuple(exps): Fraction(coeff)})

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def total_degree(self) -> int:
        """Maximum total degree of any term; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def degree_in(self, name: str) -> int:
        """Largest exponent of ``name``; -1 for the zero polynomial."""
        i = self.varset.index(name)
        return max((m[i] for m in self.terms), default=-1)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in canonical order: graded lex, largest first."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def homogeneous_degree(self) -> int | None:
        """Common total degree of all terms, or None if degrees differ.

        The zero polynomial has no well-defined degree and raises.
        """
        if not self.terms:
            raise StructuralError("zero polynomial has no homogeneous degree")
        degrees = {sum(m) for m in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    # -- arithmetic ----------------------------------------------------------

    def _check_same_varset(self, other: "Polynomial") -> None:
        if self.varset != other.varset:
            raise StructuralError(
                f"VarSet mismatch: {self.varset.names} vs {other.varset.names}"
            )

    def _coerce(self, other: object) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            self._check_same_varset(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.varset, other)
        return None

    def __add__(self, other: object) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in rhs.terms.items():
            acc = out.get(mono, _ZERO) + coeff
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
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in rhs.terms.items():
                mono = tuple(x + y for x, y in zip(ma, mb))
                acc = out.get(mono, _ZERO) + ca * cb
                if acc:
                    out[mono] = acc
                elif mono in out:
                    del out[mono]
        return _raw(self.varset, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise StructuralError(f"polynomial power must be a nonnegative integer, got {n!r}")
        result = Polynomial.constant(self.varset, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
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

    def substitute(self, sub: "Substitution") -> "Polynomial":
        """Compose with a substitution: replace every variable by its image.

        A ring homomorphism: distributes over + and *.  The polynomial must
        live exactly on the substitution's source VarSet.
        """
        if self.varset != sub.source:
            raise StructuralError(
                f"polynomial over {self.varset.names} cannot be substituted "
                f"by a map with source {sub.source.names}"
            )
        target = sub.target
        one = Polynomial.constant(target, 1)
        # powers[i][e] = image of variable i raised to e, built incrementally
        powers: list[list[Polynomial]] = [[one] for _ in sub.source.names]
        images = [sub.images[name] for name in sub.source.names]

        def image_power(i: int, e: int) -> Polynomial:
            cache = powers[i]
            while len(cache) <= e:
                cache.append(cache[-1] * images[i])
            return cache[e]

        acc = Polynomial.zero(target)
        for mono, coeff in self.terms.items():
            term = Polynomial.constant(target, coeff)
            for i, e in enumerate(mono):
                if e:
                    term = term * image_power(i, e)
            acc = acc + term
        return acc

    def evaluate(self, point: Mapping[str, Coeff]) -> Fraction:
        """Exact value at a rational point assigning every variable."""
        values = []
        for name in self.varset.names:
            if name not in point:
                raise StructuralError(f"no value assigned to variable {name!r}")
            values.append(Fraction(point[name]))
        total = _ZERO
        for mono, coeff in self.terms.items():
            term = coeff
            for e, v in zip(mono, values):
                if e:
                    term *= v**e
            total += term
        return total

    def coefficient_of(self, name: str, power: int) -> "Polynomial":
        """Coefficient of ``name**power`` as a polynomial over the same VarSet.

        Collects the terms whose exponent of ``name`` is exactly ``power``
        and divides out that power, e.g. viewing the polynomial as a
        univariate in ``name``.
        """
        i = self.varset.index(name)
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            if mono[i] == power:
                reduced = list(mono)
                reduced[i] = 0
                out[tuple(reduced)] = coeff
        return _raw(self.varset, out)

    # -- text format ------------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.varset.names!r}, {format_polynomial(self)!r})"


_ZERO = Fraction(0)


def _raw(varset: VarSet, terms: dict[Monomial, Fraction]) -> Polynomial:
    """Internal: wrap an already-canonical term dict without re-validating."""
    poly = Polynomial.__new__(Polynomial)
    poly.varset = varset
    poly.terms = terms
    return poly


class Substitution:
    """A map sending each source variable to a polynomial over the target VarSet."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source: VarSet, target: VarSet, images: Mapping[str, Polynomial]):
        for name in source.names:
            if name not in images:
                raise StructuralError(f"substitution is missing an image for {name!r}")
        for name in images:
            if name not in source:
                raise StructuralError(f"substitution maps unknown variable {name!r}")
        for name, image in images.items():
            if image.varset != target:
                raise StructuralError(
                    f"image of {name!r} lives on {image.varset.names}, "
                    f"expected {target.names}"
                )
        self.source = source
        self.target = target
        self.images = {name: images[name] for name in source.names}

    @classmethod
    def identity(cls, varset: VarSet) -> "Substitution":
        return cls(
            varset, varset, {name: Polynomial.variable(varset, name) for name in varset}
        )

    def __repr__(self) -> str:
        arrows = ", ".join(f"{n} -> {self.images[n]}" for n in self.source.names)
        return f"Substitution({arrows})"


# -- canonical text format -----------------------------------------------------
#
# Terms in canonical order, coefficients as "num/den" (den omitted when 1,
# the coefficient 1 itself omitted before a variable), "^" powers and "*"
# products: "3*a1^2*b2^2 - 1/2*b3^4".  parse_polynomial reads the same
# format back, so fixtures round-trip exactly.


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


_COEFF_RE = re.compile(r"\d+(?:/\d+)?")
_FACTOR_RE = re.compile(r"([A-Za-z_]\w*)(?:\^(\d+))?")


def parse_polynomial(text: str, varset: VarSet) -> Polynomial:
    """Parse the canonical text format back into a Polynomial.

    Accepts any whitespace around "+"/"-" and an optional explicit "1*"
    coefficient; raises StructuralError on anything unrecognized.
    """
    stripped = text.strip()
    if not stripped:
        raise StructuralError("empty polynomial text")
    if stripped == "0":
        return Polynomial.zero(varset)
    terms: list[tuple[Monomial, Fraction]] = []
    pos = 0
    sign = 1
    # Leading sign is optional; between terms one of +/- is required.
    if stripped[0] in "+-":
        sign = -1 if stripped[0] == "-" else 1
        pos = 1
    while pos < len(stripped):
        next_break = len(stripped)
        for i in range(pos, len(stripped)):
            if stripped[i] in "+-":
                next_break = i
                break
        chunk = stripped[pos:next_break].strip()
        if not chunk:
            raise StructuralError(f"dangling sign in {text!r}")
        coeff = Fraction(sign)
        exps = [0] * len(varset)
        for factor in chunk.split("*"):
            factor = factor.strip()
            if _COEFF_RE.fullmatch(factor):
                coeff *= Fraction(factor)
            else:
                m = _FACTOR_RE.fullmatch(factor)
                if not m:
                    raise StructuralError(f"unparsable factor {factor!r} in {text!r}")
                name, power = m.group(1), m.group(2)
                exps[varset.index(name)] += int(power) if power else 1
        terms.append((tuple(exps), coeff))
        if next_break == len(stripped):
            break
        sign = -1 if stripped[next_break] == "-" else 1
        pos = next_break + 1
    return Polynomial(varset, terms)


def compile_evaluator(poly: Polynomial) -> Callable[[Sequence[Fraction]], Fraction]:
    """Build a fast exact evaluator taking coordinates in VarSet order.

    Denominators are cleared up front so the hot loop runs on plain Python
    integers: with point coordinates n_i/d_i and per-variable maximum
    exponents E_i,

        poly(point) = sum_t  L*c_t * prod_i n_i^e_ti * d_i^(E_i - e_ti)
                      -------------------------------------------------
                              L * prod_i d_i^E_i

    where L is the lcm of the coefficient denominators.  One Fraction is
    built per call.  Results are identical to ``Polynomial.evaluate``.
    """
    nvars = len(poly.varset)
    if poly.is_zero():
        def eval_zero(values: Sequence[Fraction]) -> Fraction:
            if len(values) != nvars:
                raise StructuralError(f"expected {nvars} coordinates, got {len(values)}")
            return _ZERO

        return eval_zero

    max_exp = [0] * nvars
    for mono in poly.terms:
        for i, e in enumerate(mono):
            if e > max_exp[i]:
                max_exp[i] = e
    scale = lcm(*(c.denominator for c in poly.terms.values()))
    flat_terms: list[tuple[int, Monomial]] = [
        (int(c * scale), mono) for mono, c in poly.sorted_terms()
    ]
    var_range = range(nvars)

    def evaluate(values: Sequence[Fraction]) -> Fraction:
        if len(values) != nvars:
            raise StructuralError(f"expected {nvars} coordinates, got {len(values)}")
        npow = []
        dpow = []
        for i in var_range:
            v = values[i]
            num, den = v.numerator, v.denominator
            top = max_exp[i]
            nrow = [1] * (top + 1)
            drow = [1] * (top + 1)
            for e in range(1, top + 1):
                nrow[e] = nrow[e - 1] * num
                drow[e] = drow[e - 1] * den
            npow.append(nrow)
            dpow.append(drow)
        total = 0
        for c, mono in flat_terms:
            t = c
            for i in var_range:
                e = mono[i]
                t *= npow[i][e] * dpow[i][max_exp[i] - e]
            total += t
        denom = scale
        for i in var_range:
            denom *= dpow[i][max_exp[i]]
        return Fraction(total, denom)

    return evaluate
