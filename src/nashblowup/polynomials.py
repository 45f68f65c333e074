"""Sparse exact multivariate polynomials with Hasse derivatives.

A polynomial is a finite map from exponent tuples to nonzero field
coefficients, canonical by construction: two polynomials are equal iff
their ring contexts and term maps are equal.  All arithmetic is exact.

Arithmetic has one normalization point, ``_reduced``: every result's
coefficients are computed with plain ``+``, ``-`` and ``*`` on the field's
representatives (ints over F_p, ``Fraction``s over Q), then reduced mod p
with zero terms dropped, once per result.  Substitution
(``_substitute_all``) runs on integers instead, over Q scaled so that no
denominator is left, and each result term takes one ``Fraction`` (or one
reduction mod p) at the end; so does the Jacobian matrix's derivative
table (``jacobian.jac_matrix``).  Both key monomials as the packed kernel
of ``ideals`` does, on ``_Packing``, which lives here, below every module
that computes on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub
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


# ---------------------------------------------------------------------------
# packed monomial keys (layout and width rule: see the ideals module docstring)


class _Overflow(Exception):
    """A step could store a monomial past the packing's degree limit."""


class _Packing:
    """Local monomial keys and integer coefficients for one ring and width."""

    __slots__ = ("ring", "p", "width", "limit", "shifts", "deg_shift", "weights", "guards", "far")

    def __init__(self, ring: RingContext, width: int):
        self.ring = ring
        self.p = ring.field.characteristic
        self.width = width
        # largest total degree of a stored monomial; every exponent is at most
        # the total degree, so no field of a stored key reaches its guard bit
        self.limit = (1 << width) - 1
        step = width + 1
        d = ring.nvars
        self.shifts = tuple(step * (d - 1 - i) for i in range(d))
        self.deg_shift = step * d
        # key(alpha) = fields - (deg << deg_shift) is linear in alpha, the sum
        # of alpha_i * weights[i]: key(a) - key(b) is key(a - b) even when a
        # lies past the limit
        low = 1 << self.deg_shift
        self.weights = tuple([(1 << s) - low for s in self.shifts])
        self.guards = sum(1 << (s + width) for s in self.shifts)
        # -far lies below every key a step can form: fields are nonnegative
        # and degrees stay below 4 * 2^w
        self.far = 1 << (self.deg_shift + width + 3)

    @classmethod
    def sized(cls, ring: RingContext, top: int) -> "_Packing":
        """Fields for monomials up to total degree ``top``, with room to double."""
        return cls(ring, max(8, (2 * top + 1).bit_length()))

    def wider(self) -> "_Packing":
        return _Packing(self.ring, 2 * self.width)

    def key(self, alpha: MultiIndex) -> int:
        if sum(alpha) > self.limit:
            raise _Overflow
        return sum(map(mul, alpha, self.weights))

    def degree(self, key: int) -> int:
        return -(key >> self.deg_shift)

    def monomial(self, key: int) -> MultiIndex:
        mask = self.limit
        return tuple([(key >> s) & mask for s in self.shifts])

    def floor(self, bound: int | None) -> int:
        """The threshold such that key >= it iff the key's degree is below bound."""
        return -self.far if bound is None else (1 - bound) << self.deg_shift

    def pack(self, poly: Polynomial) -> dict[int, int]:
        """poly's terms by key; over Q its positive multiple with coprime integer coefficients."""
        terms = poly.terms
        if not terms:
            return {}
        keys = map(self.key, terms)
        if self.p:
            return dict(zip(keys, terms.values()))
        den = math.lcm(*(c.denominator for c in terms.values()))
        nums = [c.numerator * (den // c.denominator) for c in terms.values()]
        content = math.gcd(*nums)
        return dict(zip(keys, (n // content for n in nums)))

    def polynomial(self, terms: dict[int, int], monic: bool = False, scale: int = 1) -> Polynomial:
        """The unpacked polynomial, its monic multiple, or over Q the terms over ``scale``."""
        p = self.p
        coeffs = terms.values()
        if monic:
            lc = terms[max(terms)]
            if p:
                inv = pow(lc, -1, p)
                coeffs = [c * inv % p for c in coeffs]
            else:
                coeffs = [Fraction(c, lc) for c in coeffs]
        elif not p:
            coeffs = map(Fraction, coeffs) if scale == 1 else [Fraction(c, scale) for c in coeffs]
        return Polynomial(self.ring, dict(zip(map(self.monomial, terms), coeffs)), _canonical=True)

    def element(self, terms: dict[int, int]) -> tuple:
        """(lead, (ecart, length), lead coefficient, tail items) of nonzero packed terms."""
        lead = max(terms)
        # the lowest key has the highest degree
        ecart = (lead >> self.deg_shift) - (min(terms) >> self.deg_shift)
        return (lead, (ecart, len(terms)), terms[lead], tuple([kv for kv in terms.items() if kv[0] != lead]))




def _substitute_all(
    ring: RingContext, polys: Iterable[Polynomial], images: Sequence[Polynomial]
) -> list[Polynomial]:
    """Each of polys (in ``ring``) composed with images, each power of an image computed once.

    Runs on integers.  Monomials are the packed kernel's keys (_Packing)
    on a packing that holds the largest degree a product reaches, so a
    product of monomials is one int addition.  Over Q the images are scaled
    by the lcm e of their denominators, and a term c * x^alpha of f, with L
    the lcm of f's denominators, enters as the integer c * L * e^(deg f -
    |alpha|): every product is an integer, and f(images) comes out
    L * e^(deg f) times the true one.  Each result term then takes one
    Fraction over that scale, or one reduction mod p; image powers are
    reduced mod p as they are cached.
    """
    if len(images) != ring.nvars:
        raise ValueError(f"expected {ring.nvars} images, got {len(images)}")
    for g in images:
        if g.ring != ring:
            raise ValueError("operands live in different ring contexts")
    polys = list(polys)
    p = ring.field.characteristic
    degrees = [max(g.total_degree(), 0) for g in images]
    # every image is packed, used or not, so its own degree counts too
    top = max(0, *degrees, *(sum(map(mul, alpha, degrees)) for f in polys for alpha in f.terms))
    pk = _Packing.sized(ring, top)
    e = 1 if p else math.lcm(*(c.denominator for g in images for c in g.terms.values()))
    powers = [[{0: 1}, {pk.key(a): c if p else c.numerator * (e // c.denominator) for a, c in g.terms.items()}]
              for g in images]

    def power(i: int, k: int) -> dict[int, int]:
        cached = powers[i]
        while len(cached) <= k:
            cached.append(_packed_product(cached[-1], cached[1], p))
        return cached[k]

    out = []
    for f in polys:
        if p:
            scale, scaled = 1, f.terms.items()
        else:
            deg = f.total_degree()
            den = math.lcm(*(c.denominator for c in f.terms.values()))
            scale = den * e**deg
            scaled = [(alpha, c.numerator * (den // c.denominator) * e ** (deg - sum(alpha))) for alpha, c in f.terms.items()]
        total: dict[int, int] = {}
        get = total.get
        for alpha, c in scaled:
            part = {0: c}
            for i, k in enumerate(alpha):
                if k:
                    part = _packed_product(part, power(i, k), 0)
            for key, v in part.items():
                total[key] = get(key, 0) + v
        if p:
            total = {key: r for key, v in total.items() if (r := v % p)}
        else:
            total = {key: v for key, v in total.items() if v}
        out.append(pk.polynomial(total, scale=scale))
    return out


def _packed_product(a: dict[int, int], b: dict[int, int], p: int) -> dict[int, int]:
    """The product of two packed integer polynomials, reduced mod p when p is set."""
    out: dict[int, int] = {}
    get = out.get
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    if p:
        return {k: r for k, c in out.items() if (r := c % p)}
    return {k: c for k, c in out.items() if c}


def _reduced(ring: RingContext, terms: dict) -> Polynomial:
    """The polynomial of ``terms``, whose coefficients were computed with plain
    +, - and * on the field's representatives: reduced mod p, zero terms dropped."""
    p = ring.field.characteristic
    if p:
        return Polynomial(ring, {a: r for a, c in terms.items() if (r := c % p)}, _canonical=True)
    return Polynomial(ring, {a: c for a, c in terms.items() if c}, _canonical=True)
