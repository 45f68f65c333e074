"""Sparse exact multivariate polynomials with Hasse derivatives.

A polynomial is a finite map from exponent tuples to nonzero field
coefficients, canonical by construction: two polynomials are equal iff
their ring contexts and term maps are equal.  All arithmetic is exact.

Arithmetic has one normalization point, ``_reduced``: every result's
coefficients are computed with plain ``+``, ``-`` and ``*`` on the field's
representatives (ints over F_p, ``Fraction``s over Q), then reduced mod p
with zero terms dropped, once per result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, sub
from typing import Iterable, Iterator, Sequence

from .fields import QQ, CoefficientField

MultiIndex = tuple[int, ...]


# ---------------------------------------------------------------------------
# multi-index helpers


def _exponents_of_degree(d: int, degree: int) -> Iterator[MultiIndex]:
    """All length-d exponent tuples of the given total degree, lex descending."""
    if d == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in _exponents_of_degree(d - 1, degree - first):
            yield (first,) + rest


def multi_indices_in_range(d: int, lo: int, hi: int) -> list[MultiIndex]:
    """All multi-indices with lo <= degree <= hi, sorted by degree then lex descending."""
    if d < 1:
        raise ValueError("need at least one variable")
    if not 0 <= lo <= hi:
        raise ValueError(f"invalid degree range [{lo}, {hi}]")
    out: list[MultiIndex] = []
    for degree in range(lo, hi + 1):
        out.extend(_exponents_of_degree(d, degree))
    return out


# ---------------------------------------------------------------------------
# ring context and polynomials


@dataclass(frozen=True)
class RingContext:
    """Ordered variable list plus ground field; x_1 > x_2 > ... > x_d."""

    variables: tuple[str, ...]
    field: CoefficientField = QQ

    def __post_init__(self) -> None:
        if not self.variables:
            raise ValueError("need at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate variable names in {self.variables}")
        for name in self.variables:
            if not name.isidentifier():
                raise ValueError(f"invalid variable name {name!r}")

    def __eq__(self, other) -> bool:
        # identity first: nearly every comparison is of a ring with itself
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.variables, self.field) == (other.variables, other.field)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, value) -> "Polynomial":
        c = self.field.coerce(value)
        return Polynomial(self, {} if not c else {(0,) * self.nvars: c})

    def variable(self, which: int | str) -> "Polynomial":
        i = which if isinstance(which, int) else self.variables.index(which)
        exp = [0] * self.nvars
        exp[i] = 1
        return self.monomial(tuple(exp))

    def monomial(self, alpha: MultiIndex, coeff=1) -> "Polynomial":
        if len(alpha) != self.nvars:
            raise ValueError(f"multi-index length {len(alpha)} != {self.nvars}")
        c = self.field.coerce(coeff)
        return Polynomial(self, {tuple(alpha): c} if c else {})

    def __str__(self) -> str:
        return f"{self.field}[{', '.join(self.variables)}]"


class Polynomial:
    """Immutable sparse polynomial over an exact field."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: RingContext, terms: dict, *, _canonical: bool = False):
        self.ring = ring
        if _canonical:
            self.terms = terms
        else:
            coerce = ring.field.coerce
            clean = {}
            for alpha, c in terms.items():
                c = coerce(c)
                if c:
                    clean[tuple(alpha)] = c
            self.terms = clean
        self._hash = None

    # -- basic protocol

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    def __str__(self) -> str:
        from .parsing import format_polynomial

        return format_polynomial(self)

    # -- structure

    def total_degree(self) -> int:
        """Maximal term degree; -1 for the zero polynomial."""
        return max((sum(a) for a in self.terms), default=-1)

    def multiplicity(self) -> int:
        """Order at the origin: minimal total degree of a term (0 for units)."""
        if not self.terms:
            raise ValueError("multiplicity of zero is undefined")
        return min(sum(a) for a in self.terms)

    def constant_coefficient(self):
        return self.terms.get((0,) * self.ring.nvars, self.ring.field.zero())

    def is_unit_at_origin(self) -> bool:
        return bool(self.constant_coefficient())

    def sorted_terms(self) -> list[tuple[MultiIndex, object]]:
        """Terms sorted reading-order: degree ascending, lex descending within a degree."""
        return sorted(self.terms.items(), key=lambda t: (-sum(t[0]), t[0]), reverse=True)

    # -- arithmetic

    def _check_ring(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise ValueError("operands live in different ring contexts")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        out = dict(self.terms)
        for alpha, c in other.terms.items():
            out[alpha] = out[alpha] + c if alpha in out else c
        return _reduced(self.ring, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return _reduced(self.ring, {a: -c for a, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        out: dict = {}
        for a1, c1 in self.terms.items():
            for a2, c2 in other.terms.items():
                m, c = tuple(map(add, a1, a2)), c1 * c2
                # a new key takes c as it is: over Q, 0 + c costs a Fraction addition
                out[m] = out[m] + c if m in out else c
        return _reduced(self.ring, out)

    def scalar_mul(self, scalar) -> "Polynomial":
        c0 = self.ring.field.coerce(scalar)
        return _reduced(self.ring, {a: c * c0 for a, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def truncate_at_degree(self, bound: int | None) -> "Polynomial":
        """Drop every term of total degree >= bound (None keeps everything)."""
        if bound is None:
            return self
        kept = {a: c for a, c in self.terms.items() if sum(a) < bound}
        if len(kept) == len(self.terms):
            return self
        return Polynomial(self.ring, kept, _canonical=True)

    # -- calculus and substitution

    def hasse_derivative(self, gamma: MultiIndex) -> "Polynomial":
        """Divided-power derivative: D^gamma(x^beta) = prod C(beta_i, gamma_i) x^(beta-gamma).

        Characteristic-free; over Q it equals the classical iterated partial
        derivative divided by gamma!.  Binomials are computed over the integers
        and then reduced into the field.
        """
        if len(gamma) != self.ring.nvars:
            raise ValueError(f"multi-index length {len(gamma)} != {self.ring.nvars}")
        # beta -> beta - gamma is injective, so each target is written once; a
        # term with some beta_i < gamma_i gets C(beta_i, gamma_i) = 0, which
        # _reduced drops
        return _reduced(
            self.ring,
            {tuple(map(sub, beta, gamma)): c * math.prod(map(math.comb, beta, gamma)) for beta, c in self.terms.items()},
        )

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Exact composition f(images); images share this polynomial's ring."""
        return _substitute_all(self.ring, (self,), images)[0]


def _substitute_all(
    ring: RingContext, polys: Iterable[Polynomial], images: Sequence[Polynomial]
) -> list[Polynomial]:
    """Each of polys (in ``ring``) composed with images, each power of an image computed once."""
    if len(images) != ring.nvars:
        raise ValueError(f"expected {ring.nvars} images, got {len(images)}")
    for g in images:
        if g.ring != ring:
            raise ValueError("operands live in different ring contexts")
    power_cache: dict[tuple[int, int], Polynomial] = {}

    def var_power(i: int, e: int) -> Polynomial:
        if e == 0:
            return ring.one()
        got = power_cache.get((i, e))
        if got is None:
            got = var_power(i, e - 1) * images[i]
            power_cache[(i, e)] = got
        return got

    out = []
    for f in polys:
        total: dict = {}
        for alpha, c in f.terms.items():
            part = ring.constant(c)
            for i, e in enumerate(alpha):
                if e:
                    part = part * var_power(i, e)
            for a, d in part.terms.items():
                total[a] = total[a] + d if a in total else d
        out.append(_reduced(ring, total))
    return out


def _reduced(ring: RingContext, terms: dict) -> Polynomial:
    """The polynomial of ``terms``, whose coefficients were computed with plain
    +, - and * on the field's representatives: reduced mod p, zero terms dropped."""
    p = ring.field.characteristic
    if p:
        return Polynomial(ring, {a: r for a, c in terms.items() if (r := c % p)}, _canonical=True)
    return Polynomial(ring, {a: c for a, c in terms.items() if c}, _canonical=True)
