"""Shared rings, independent oracles, and hypothesis strategies.

The oracles here deliberately avoid the library's own machinery: binomials
mod p go through Lucas' theorem, determinants through the permutation sum,
generator deduplication through ``monic`` forms, quotient dimensions
through dense linear algebra on a truncated monomial basis, derivatives
through single-step classical differentiation, the inclusion report
through computing every inclusion, and the Mora normal form and the
linear membership certificate through the tuple/Fraction implementations
that predate the library's packed kernel.  The
standard-basis completion is checked against its earlier pair loop on
exponent tuples, Lazard's route against its earlier form on polynomials,
the text form of a polynomial against its first formatter, and a finished
basis's staircase and degree-B layer against a recount of its leads and
the slicing walk that built that layer, a basis finished on first read
against the eager finishing it replaced, and the Jacobian matrix's integer
derivative table against its cell-by-cell construction from
``Polynomial.hasse_derivative`` and the packing of its entries.  The
monomial orders and the polynomial helpers only these oracles and the
tests use live here too.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import gcd
from operator import lshift
from typing import Iterable, Sequence

import pytest
from hypothesis import strategies as st

from nashblowup.algebras import InclusionCheck, InclusionReport
from nashblowup.equivalence import LocalAutomorphism
from nashblowup.fields import GF, QQ
from nashblowup import ideals
from nashblowup.ideals import (
    _ESCALATION_ROUNDS,
    _WORK_BUDGET,
    Ideal,
    MembershipUndecided,
    ReducedStandardBasis,
    _add_shifted,
    _Echelon,
    _finish_primary,
    _lead,
    _minimalize,
    _moved,
    _normal_form,
    _Overflow,
    _Packing,
    _rank,
    _reduced_elements,
    _staircase,
    _tail_reduce,
    _terms,
    maximal_ideal_power,
)
from nashblowup.jacobian import _minor_dets, higher_jacobian_ideal, jacobian_ideal
from nashblowup.polynomials import (
    MultiIndex,
    Polynomial,
    RingContext,
    multi_indices_in_range,
)
from nashblowup.parsing import parse_polynomial


@pytest.fixture
def ring_q2() -> RingContext:
    return RingContext(("x", "y"), QQ)


@pytest.fixture
def ring_q1() -> RingContext:
    return RingContext(("x",), QQ)


@pytest.fixture
def ring_q3() -> RingContext:
    return RingContext(("x", "y", "z"), QQ)


@pytest.fixture
def ring_f3() -> RingContext:
    return RingContext(("x", "y"), GF(3))


@pytest.fixture
def ring_f5() -> RingContext:
    return RingContext(("x", "y"), GF(5))


@pytest.fixture
def completion_runs(monkeypatch) -> list[tuple]:
    """A list that collects (cap, budget, inside an escalation) for each ideals._run_completion call.

    ``budget`` is the list the run was charged to, None for an unbudgeted
    run; the third field tells the escalation's refutations apart.
    """
    runs, escalating = [], []
    original_run, original_escalation = ideals._run_completion, ideals._escalated_membership

    def run(pk, gens, cap, budget):
        runs.append((cap, budget, bool(escalating)))
        return original_run(pk, gens, cap, budget)

    def escalation(f, gens):
        escalating.append(f)
        try:
            return original_escalation(f, gens)
        finally:
            escalating.pop()

    monkeypatch.setattr(ideals, "_run_completion", run)
    monkeypatch.setattr(ideals, "_escalated_membership", escalation)
    return runs


def P(text: str, ring: RingContext) -> Polynomial:
    return parse_polynomial(text, ring)


# ---------------------------------------------------------------------------
# monomial orders
#
# The local degree order the library's packed keys encode, and graded lex,
# which those keys agree with on homogeneous polynomials (see the ideals
# docstring), spelled on exponent tuples for the reference walk, Lazard's
# reference and the expected intakes: the library itself reads leads off keys.


@dataclass(frozen=True)
class MonomialOrder:
    """Total order on monomials of one ring, via a sort key (max = leading).

    ``graded_lex``: degree first, ties lex with the first variable highest;
    a global well-order.  ``local_degree``: lower degree wins, same tie-break;
    the leading monomial of a polynomial has minimal total degree.
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("graded_lex", "local_degree"):
            raise ValueError(f"unknown monomial order {self.kind!r}")

    def key(self, alpha: MultiIndex):
        deg = sum(alpha)
        if self.kind == "local_degree":
            return (-deg, alpha)
        return (deg, alpha)


GRADED_LEX = MonomialOrder("graded_lex")
LOCAL_DEGREE = MonomialOrder("local_degree")


def leading_monomial(p: Polynomial, order: MonomialOrder) -> MultiIndex:
    if not p.terms:
        raise ValueError("zero polynomial has no leading monomial")
    return max(p.terms, key=order.key)


# ---------------------------------------------------------------------------
# polynomial helpers used only by tests and oracles


def mi_sub(alpha: MultiIndex, beta: MultiIndex) -> MultiIndex:
    """Componentwise difference; requires alpha >= beta componentwise."""
    diff = tuple(a - b for a, b in zip(alpha, beta))
    if any(e < 0 for e in diff):
        raise ValueError(f"multi-index {alpha} does not dominate {beta}")
    return diff


def mi_divides(alpha: MultiIndex, beta: MultiIndex) -> bool:
    """True iff x^alpha divides x^beta."""
    return all(a <= b for a, b in zip(alpha, beta))


def term_mul(p: Polynomial, coeff, alpha: MultiIndex) -> Polynomial:
    """p times the single term coeff * x^alpha (coeff already in the field)."""
    if not coeff:
        return p.ring.zero()
    mul = p.ring.field.mul
    return Polynomial(
        p.ring,
        {tuple(x + y for x, y in zip(a, alpha)): mul(c, coeff) for a, c in p.terms.items()},
        _canonical=True,
    )


def leading_coefficient(p: Polynomial, order: MonomialOrder):
    return p.terms[leading_monomial(p, order)]


def monic(p: Polynomial, order: MonomialOrder) -> Polynomial:
    lc = leading_coefficient(p, order)
    if lc == p.ring.field.one():
        return p
    return p.scalar_mul(p.ring.field.invert(lc))


def strip_content(p: Polynomial) -> Polynomial:
    """p scaled by a positive rational so its coefficients are coprime integers.

    Identity over prime fields and on zero.
    """
    if p.ring.field.is_prime_field or not p.terms:
        return p
    num_gcd = 0
    den_lcm = 1
    for c in p.terms.values():
        num_gcd = math.gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    if num_gcd == 1 and den_lcm == 1:
        return p
    return p.scalar_mul(Fraction(den_lcm, num_gcd))


def poly_sort_key(p: Polynomial, order: MonomialOrder):
    """Deterministic total key on polynomials; it fixes the processing order of Lazard's route."""
    return (order.key(leading_monomial(p, order)), sorted(p.terms.items()))


def identity_automorphism(ring: RingContext) -> LocalAutomorphism:
    return LocalAutomorphism(ring, tuple(ring.variable(i) for i in range(ring.nvars)))


# ---------------------------------------------------------------------------
# oracles


def reference_format_polynomial(p: Polynomial) -> str:
    """The text form as first written: Fraction comparisons, a negated key per term."""
    if p.is_zero():
        return "0"

    def coeff(c) -> str:
        if isinstance(c, Fraction):
            return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        return str(c)

    def monomial(alpha) -> str:
        parts = []
        for name, e in zip(p.ring.variables, alpha):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    rational = not p.ring.field.is_prime_field
    pieces: list[str] = []
    for alpha, c in sorted(p.terms.items(), key=lambda t: (sum(t[0]), tuple(-e for e in t[0]))):
        negative = rational and c < 0
        mag = -c if negative else c
        mono = monomial(alpha)
        if not mono:
            body = coeff(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{coeff(mag)}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)


def lucas_binom(n: int, k: int, p: int) -> int:
    """C(n, k) mod p by Lucas' theorem on base-p digits."""
    import math

    result = 1
    while n or k:
        ni, ki = n % p, k % p
        if ki > ni:
            return 0
        result = result * math.comb(ni, ki) % p
        n //= p
        k //= p
    return result


def perm_det(rows: list[list[Polynomial]]) -> Polynomial:
    """Leibniz permutation-sum determinant; independent of the library engine."""
    n = len(rows)
    ring = rows[0][0].ring
    total = ring.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = ring.one()
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + (term if inversions % 2 == 0 else -term)
    return total


def reference_jac_entries(f: Polynomial, n: int) -> tuple[tuple[Polynomial, ...], ...]:
    """The order-n Jacobian matrix's entries, cell by cell from Hasse derivatives,
    as jac_matrix built them before its derivative table."""
    d = f.ring.nvars
    rows = tuple(multi_indices_in_range(d, 0, n - 1))
    cols = tuple(multi_indices_in_range(d, 1, n))
    zero = f.ring.zero()
    derivative_cache: dict[MultiIndex, Polynomial] = {}

    def entry(beta: MultiIndex, alpha: MultiIndex) -> Polynomial:
        gamma = tuple(map(operator.sub, alpha, beta))
        if min(gamma) < 0 or not any(gamma):
            return zero
        got = derivative_cache.get(gamma)
        if got is None:
            got = f.hasse_derivative(gamma)
            derivative_cache[gamma] = got
        return got

    return tuple(tuple(entry(b, a) for a in cols) for b in rows)


def packed_cells(
    entries: Sequence[Sequence[Polynomial]], k: int, ring: RingContext
) -> tuple[_Packing, int, list[list[tuple]]]:
    """(packing, D^k, cells), each entry as (key, int coefficient) pairs, for products of k entries.

    The packer of polynomial entries that the minors kernel read before the
    derivative table: D is the lcm of all the entries' denominators.
    """
    # Jacobian matrices repeat one derivative in many cells: pack each once
    distinct = {id(e): e.terms for row in entries for e in row if e.terms}
    top = max((sum(alpha) for terms in distinct.values() for alpha in terms), default=0)
    # a minor has degree at most k * top, so on a packing that holds that
    # degree keys add without carries
    pk = _Packing.sized(ring, k * top)
    p = pk.p
    den = 1 if p else math.lcm(*(c.denominator for terms in distinct.values() for c in terms.values()))
    packed = {
        cell: tuple(
            (pk.key(alpha), c if p else c.numerator * (den // c.denominator)) for alpha, c in terms.items()
        )
        for cell, terms in distinct.items()
    }
    return pk, den**k, [[packed.get(id(e), ()) for e in row] for row in entries]


def minor_ideal(rows: Sequence[Sequence[Polynomial]], k: int, ring: RingContext) -> Ideal:
    """The ideal of the distinct nonzero k x k minors of polynomial entries up
    to a scalar, first kept: row subsets, then columns, in lex order, through
    the library's one minors kernel (jacobian._minor_dets) on packed_cells."""
    pk, scale, cells = packed_cells(rows, k, ring)
    cols = range(len(cells[0]))
    minors = (_minor_dets(cells, pk.p, row_ids, cols) for row_ids in itertools.combinations(range(len(cells)), k))
    return Ideal._from_packed(pk, scale, itertools.chain.from_iterable(minors))


def first_per_scalar_class(polys: Sequence[Polynomial]) -> list[Polynomial]:
    """The nonzero polys, each kept only if no earlier one has the same monic form."""
    out = []
    seen = set()
    for p in polys:
        if p.is_zero():
            continue
        m = monic(p, LOCAL_DEGREE)
        if m not in seen:
            seen.add(m)
            out.append(p)
    return out


def classical_partial(f: Polynomial, var: int) -> Polynomial:
    """Single classical partial derivative d/dx_var."""
    ring = f.ring
    out = ring.zero()
    for alpha, c in f.terms.items():
        if alpha[var] == 0:
            continue
        target = tuple(e - 1 if i == var else e for i, e in enumerate(alpha))
        out = out + ring.monomial(target, ring.field.mul(c, ring.field.coerce(alpha[var])))
    return out


def classical_iterated_partial(f: Polynomial, gamma: MultiIndex) -> Polynomial:
    out = f
    for var, times in enumerate(gamma):
        for _ in range(times):
            out = classical_partial(out, var)
    return out


def linalg_quotient_dim(gens: list[Polynomial], ring: RingContext, bound: int) -> int:
    """dim of k[x]/(I + m^bound) by Gaussian elimination on monomials of degree < bound."""
    monos = multi_indices_in_range(ring.nvars, 0, bound - 1)
    index = {m: i for i, m in enumerate(monos)}
    field = ring.field
    pivots: dict[int, dict[int, object]] = {}
    rank = 0
    one = field.one()
    for g in gens:
        for m in monos:
            shifted = term_mul(g, one, m)
            row = {
                index[alpha]: c for alpha, c in shifted.terms.items() if sum(alpha) < bound
            }
            while row:
                lead = min(row)
                if lead not in pivots:
                    pivots[lead] = row
                    rank += 1
                    break
                pivot = pivots[lead]
                factor = field.div(row[lead], pivot[lead])
                for col, v in pivot.items():
                    new = field.sub(row.get(col, field.zero()), field.mul(factor, v))
                    if new:
                        row[col] = new
                    else:
                        row.pop(col, None)
    return len(monos) - rank


def brute_standard_monomial_count(
    monomial_gens: list[MultiIndex], nvars: int, degree_limit: int
) -> int:
    """Count monomials of degree < degree_limit outside the monomial ideal."""
    count = 0
    for m in multi_indices_in_range(nvars, 0, degree_limit - 1):
        if not any(all(g[i] <= m[i] for i in range(nvars)) for g in monomial_gens):
            count += 1
    return count


# ---------------------------------------------------------------------------
# reference weak normal form
#
# The tuple-monomial, Fraction-coefficient Mora normal form the library ran
# before its packed kernel, kept as the differential reference for
# ideals.weak_normal_form: the same result, None included, on every input.


def _ecart(p: Polynomial, order: MonomialOrder) -> int:
    return p.total_degree() - sum(leading_monomial(p, order))


def _reduce_leading(h: Polynomial, g: Polynomial, lm_h: MultiIndex, lm_g: MultiIndex) -> Polynomial:
    """Cancel the leading term of h against g; lm_g must divide lm_h.

    Over the rationals the reduction is fraction-free (cross-multiplied and
    content-stripped), which rescales h by a unit but keeps coefficients
    small; over a prime field it divides by the leading coefficient.
    """
    field = h.ring.field
    shift = mi_sub(lm_h, lm_g)
    if field.is_prime_field:
        factor = field.neg(field.div(h.terms[lm_h], g.terms[lm_g]))
        return h + term_mul(g, factor, shift)
    return strip_content(h.scalar_mul(g.terms[lm_g]) - term_mul(g, h.terms[lm_h], shift))


def weak_normal_form(
    f: Polynomial,
    basis: Sequence[Polynomial],
    order: MonomialOrder = LOCAL_DEGREE,
    bound: int | None = None,
    budget: int | None = None,
) -> Polynomial | None:
    """Weak normal form of f against basis.

    Returns h with u*f - h in (basis) for some unit u of the local ring
    (u = 1 for global orders); h = 0 iff f lies in the ideal generated by
    a standard basis.  Local orders use Mora's algorithm: reduce by a
    divisor of minimal ecart and record the intermediate result as an
    extra reducer whenever its ecart is smaller, which forces termination.
    ``bound`` truncates all intermediate terms at that total degree and is
    only sound when m^bound is contained in the ideal.  ``budget`` aborts
    a long reduction walk and returns None: every step charges the length
    of h times the 32-bit word count of its lead coefficient as the kernel
    holds h, f's primitive integer multiple over Q before the first step
    and each fraction-free reduction's integer result after it.
    """
    h = f.truncate_at_degree(bound)
    if h.is_zero() or not basis:
        return h
    local = order == LOCAL_DEGREE
    # among divisors of minimal ecart, prefer short reducers: they add the
    # fewest new terms per step
    reducers = [(leading_monomial(g, order), (_ecart(g, order), len(g.terms)), g) for g in basis]
    held = strip_content(h)
    while not h.is_zero():
        lm_h = leading_monomial(h, order)
        if budget is not None:
            lc = held.terms[lm_h].numerator
            budget -= len(h.terms) * (1 + (lc.bit_length() + 1) // 32)
            if budget < 0:
                return None
        best = None
        for lm_g, rank, g in reducers:
            if mi_divides(lm_g, lm_h) and (best is None or rank < best[1]):
                best = (lm_g, rank, g)
        if best is None:
            return h
        if local:
            ec_h = _ecart(h, order)
            if best[1][0] > ec_h:
                reducers.append((lm_h, (ec_h, len(h.terms)), h))
        h = held = _reduce_leading(h, best[2], lm_h, best[0]).truncate_at_degree(bound)
    return h


# ---------------------------------------------------------------------------
# reference linear membership certificate
#
# The tuple-monomial Gaussian elimination over field elements the library
# ran before its packed kernel, kept verbatim as the differential reference
# for ideals._certificate_layers: on every input, the same boolean as the
# layers up to the degree bound.


def linear_membership_certificate(
    f: Polynomial, gens: Sequence[Polynomial], degree_bound: int
) -> bool:
    """Search for a unit u = 1 + (tail in m) and cofactors with u*f = sum c_i g_i.

    With all of u's tail and the cofactors bounded by ``degree_bound``, the
    identity is a finite span problem over the monomial basis, decided by
    exact Gaussian elimination.  A hit proves membership of f in the
    localized ideal; every true member admits such a certificate for some
    finite bound.
    """
    ring = f.ring
    field = ring.field
    one = field.one()
    multipliers = multi_indices_in_range(ring.nvars, 0, degree_bound)
    span: list[dict] = []
    for g in gens:
        for alpha in multipliers:
            span.append(term_mul(g, one, alpha).terms)
    for alpha in multipliers:
        if sum(alpha) >= 1:
            span.append(term_mul(f, one, alpha).terms)

    pivots: dict[MultiIndex, dict] = {}

    def echelon_reduce(vec: dict) -> tuple[dict, MultiIndex | None]:
        vec = dict(vec)
        while vec:
            lead = max(vec)
            pivot = pivots.get(lead)
            if pivot is None:
                return vec, lead
            factor = field.div(vec[lead], pivot[lead])
            for mono, c in pivot.items():
                s = field.sub(vec.get(mono, field.zero()), field.mul(factor, c))
                if s:
                    vec[mono] = s
                else:
                    vec.pop(mono, None)
        return vec, None

    for v in span:
        reduced, lead = echelon_reduce(v)
        if lead is not None:
            pivots[lead] = reduced
    _, lead = echelon_reduce(f.terms)
    return lead is None


# ---------------------------------------------------------------------------
# reference membership escalation
#
# ideals._escalated_membership and its linear certificate as they ran on
# polynomials before the escalation read the walk's packed generators, kept
# verbatim as the differential reference: the certificate packs f and every
# generator afresh in every round and rebuilds its echelon from layer 0, and
# the refutations complete the span basis of the generators.  The same
# boolean, or MembershipUndecided with the same rounds, cap and budget, on
# every input.


def packed_membership_certificate(
    f: Polynomial, gens: Sequence[Polynomial], degree_bound: int
) -> bool:
    """Search for a unit u = 1 + (tail in m) and cofactors with u*f = sum c_i g_i.

    With all of u's tail and the cofactors bounded by ``degree_bound``, the
    identity is a finite span problem over the monomial basis, decided by
    exact Gaussian elimination.  A hit proves membership of f in the
    localized ideal; every true member admits such a certificate for some
    finite bound.  The rows are packed once, shifted by key addition and
    reduced in one _Echelon, filled one layer at a time: layer e adds the
    generators, and from e = 1 on f, times every monomial of degree e.
    Each layer's span lies in the full one, so the search stops at the
    first layer whose span holds f, with the answer the full span gives.
    """
    ring = f.ring
    top = max(g.total_degree() for g in (f, *gens)) + degree_bound
    pk = _Packing.sized(ring, top)
    echelon = _Echelon(pk.p)
    target = pk.pack(f)
    rows = [pk.pack(g) for g in gens]
    for e in range(degree_bound + 1):
        for shift in map(pk.key, multi_indices_in_range(ring.nvars, e, e)):
            for packed in rows:
                echelon.insert({k + shift: c for k, c in packed.items()})
        if not echelon.reduce(dict(target)):
            return True
        if not e:
            # u's tail lies in m: f's own rows start at layer 1
            rows.append(target)
    return False


def escalated_membership(f: Polynomial, gens: Sequence[Polynomial]) -> bool:
    """Decide membership without long reduction walks (infinite colength).

    Alternates two one-sided tests over the generators g_i of I: an exact
    linear certificate u*f = sum c_i g_i proves, and a capped normal form
    refutes (anything outside I + m^cap is outside I).  Krull's intersection
    theorem makes the refutation side complete, and every true member has a
    polynomial certificate of some finite degree, so enough rounds always
    decide; but the loop stops after _ESCALATION_ROUNDS rounds and raises
    MembershipUndecided when neither test has settled by then, or when a
    refutation run spends _WORK_BUDGET.  Round r allows the certificate
    degree 4r, which it reaches layer by layer, stopping at the first that
    certifies: most members need 0 to 2.  The certificate runs first; the
    opposite order was measured slower on the contact and covariance
    checks.  The refutations complete the span basis of the generators
    (Ideal._span), taken once for every round: a basis of I + m^cap
    from any generators of I decides membership modulo m^cap.
    """
    cap = f.total_degree() + 2
    degree_bound = 4
    for r in range(_ESCALATION_ROUNDS):
        if r:
            cap += max(4, cap // 2)
            degree_bound += 4
        if packed_membership_certificate(f, gens, degree_bound):
            return True
        if not r:
            ideal = Ideal(f.ring, gens)
            pk, span = ideal._packing, ideal._span[1]
        if cap - 1 > pk.limit:
            # the packing holds every degree below the cap, so neither the
            # run nor the normal form can overflow
            wider = _Packing.sized(f.ring, cap - 1)
            span = [_moved(pk, wider, terms) for terms in span]
            pk = wider
        completed = ideals._run_completion(pk, span, cap, [_WORK_BUDGET])
        if completed is None:
            raise MembershipUndecided(r + 1, cap, _WORK_BUDGET)
        capped, _ = completed
        if _normal_form(pk, pk.pack(f.truncate_at_degree(cap)), sorted(capped, key=_rank), cap):
            return False
    raise MembershipUndecided(_ESCALATION_ROUNDS, cap)


# ---------------------------------------------------------------------------
# reference completion
#
# The pair loop ideals._run_completion ran before its pairs were keyed on
# packed monomials, kept verbatim as the differential reference: exponent
# tuple lcms, a chain-criterion scan over the whole basis for every popped
# pair, no cut at the truncation bound, a staircase after every insert, and
# every generator packed afresh for each cap and cut at the current bound
# as it enters, the first charge on the cut terms.  It runs on the
# library's packed normal form, so any difference lies in the pair loop or
# the intake: the same elements in the same insertion order, the same
# staircase, the same None and the same remaining cost budget on every
# input.


def mi_lcm(alpha: MultiIndex, beta: MultiIndex) -> MultiIndex:
    return tuple(max(a, b) for a, b in zip(alpha, beta))


def complete_basis(
    generators: Sequence[Polynomial],
    order: MonomialOrder,
    hard_cap: int | None = None,
    cost_budget: list[int] | None = None,
) -> tuple[_Packing, list[tuple], tuple[int, int] | None] | None:
    """Buchberger/Mora completion on local keys; returns a standard basis as packed elements.

    ``order`` fixes the processing order: by leading monomial, largest
    first, in the given order on equal leads; a graded-lex run ignores
    ``hard_cap``.  The truncation bound tightens as the staircase of the
    current leading monomials closes: with s its top standard-monomial
    degree, m^(s+1) already lies inside the ideal spanned so far.  With
    ``hard_cap`` set, all arithmetic is truncated at that degree from the
    start, so the result is a standard basis of (ideal) + m^hard_cap; the
    caller must certify afterwards that this equals the ideal itself.  ``cost_budget`` aborts oversized runs, returning None.
    The elements come with the packing that holds them, in insertion order,
    and the staircase of the leads, None while it is open; over Q they are
    primitive integer polynomials, over F_p monic.  An
    uncapped run is the Buchberger step of Lazard's route and tail-reduces
    each new element; its generators must be homogeneous, so the local keys
    order their terms as graded lex does.
    """
    ring = generators[0].ring
    cap = hard_cap if order == LOCAL_DEGREE else None
    gens = sorted(generators, key=lambda p: order.key(leading_monomial(p, order)), reverse=True)
    top = max(g.total_degree() for g in gens)
    # a capped run stores nothing above the cap; an uncapped one has no a
    # priori bound, and Lazard's homogenized runs reach 11-13 times the
    # input degree on plane germs, so it starts with room for 16 times
    pk = _Packing.sized(ring, max(top, cap - 1) if cap is not None else 8 * top)
    budget = None if cost_budget is None else cost_budget[0]
    while True:
        try:
            completed = _run_completion(pk, gens, cap, cost_budget)
            return None if completed is None else (pk, *completed)
        except _Overflow:
            if cost_budget is not None:
                cost_budget[0] = budget
            pk = pk.wider()


def _run_completion(
    pk: _Packing, gens: list[Polynomial], bound: int | None, cost_budget: list[int] | None
) -> tuple[list[tuple], tuple[int, int] | None] | None:
    """The body of complete_basis on one packing, gens in processing order:
    (elements, staircase of their leads or None)."""
    ring = pk.ring
    p, limit, guards = pk.p, pk.limit, pk.guards
    homogeneous = bound is None
    floor = pk.floor(bound)
    basis: list[tuple] = []  # packed elements, in insertion order
    ranked: list[tuple] = []  # the same, sorted stably by rank
    lms: list[MultiIndex] = []
    stairs = None
    pairs: list[tuple[tuple, int, int]] = []

    def refresh_bound() -> None:
        nonlocal bound, floor, ranked, stairs
        stats = _staircase(lms, ring.nvars)
        if stats is None:
            return
        stairs = stats
        # with s the top standard-monomial degree of the (partial) staircase,
        # the graded pieces of the quotient vanish above s, so by Nakayama
        # m^(s+1) already lies inside the ideal spanned so far
        new_bound = max(stats[1] + 1, 1)
        if bound is None or new_bound < bound:
            bound = new_bound
            floor = pk.floor(bound)
            for i, el in enumerate(basis):
                # keep elements whose leading monomial sits above the bound whole
                if el[0] >= floor and not all(k >= floor for k, _ in el[3]):
                    basis[i] = pk.element({k: c for k, c in _terms(el).items() if k >= floor})
            ranked = sorted(basis, key=_rank)

    def insert(h: dict[int, int]) -> bool:
        """Reduce h (below the bound) and add it to the basis; False when the budget ran out."""
        h = _normal_form(pk, h, ranked, bound, cost_budget)
        if h is None:
            return False
        if not h:
            return True
        if homogeneous and basis:
            # homogeneous elements: tail reduction terminates and keeps
            # elements (hence later s-polynomials) small
            h = _tail_reduce(pk, h, basis, None, None)
        # primitive over Q, monic over F_p; unit scale either way
        if p:
            inv = pow(h[max(h)], -1, p)
            if inv != 1:
                h = {k: c * inv % p for k, c in h.items()}
        else:
            content = gcd(*h.values())
            if content != 1:
                h = {k: c // content for k, c in h.items()}
        el = pk.element(h)
        lm_new = pk.monomial(el[0])
        k = len(basis)
        basis.append(el)
        insort(ranked, el, key=_rank)
        lms.append(lm_new)
        for i in range(k):
            lcm_ = mi_lcm(lms[i], lm_new)
            # product criterion: coprime leading monomials contribute nothing
            if all(a + b == c for a, b, c in zip(lms[i], lm_new, lcm_)):
                continue
            heapq.heappush(pairs, ((sum(lcm_), lcm_), i, k))
        refresh_bound()
        return True

    def unit() -> bool:
        return not any(lms[-1]) if lms else False

    for g in gens:
        packed = pk.pack(g)
        if bound is not None:
            # the packed terms cut at the current bound; the first charge reads them
            packed = {k: c for k, c in packed.items() if k >= floor}
        if not insert(packed):
            return None
        if unit():
            return [pk.element({0: 1})], stairs

    def chain_redundant(i: int, j: int, lcm_: MultiIndex) -> bool:
        # drop the pair when a third element divides the lcm and both mixed
        # lcms are proper divisors (Buchberger's second criterion)
        fields = sum(map(lshift, lcm_, pk.shifts))  # divisibility reads the fields alone
        for k, el in enumerate(basis):
            if (fields - el[0]) & guards or k == i or k == j:
                continue
            if mi_lcm(lms[i], lms[k]) != lcm_ and mi_lcm(lms[j], lms[k]) != lcm_:
                return True
        return False

    while pairs:
        _, i, j = heapq.heappop(pairs)
        lcm_ = mi_lcm(lms[i], lms[j])
        if chain_redundant(i, j, lcm_):
            continue
        _, (ecart_f, _), lc_f, tail_f = basis[i]
        _, (ecart_g, _), lc_g, tail_g = basis[j]
        if (bound is None or bound - 1 > limit) and sum(lcm_) + max(ecart_f, ecart_g) > limit:
            raise _Overflow
        # cross-multiplied s-polynomial: leading terms cancel in any field
        shift_f = pk.key(mi_sub(lcm_, lms[i]))
        shift_g = pk.key(mi_sub(lcm_, lms[j]))
        s: dict[int, int] = {}
        _add_shifted(s, tail_f, shift_f, lc_g, floor, p)
        _add_shifted(s, tail_g, shift_g, -lc_f, floor, p)
        if not insert(s):
            return None
        if unit():
            return [pk.element({0: 1})], stairs
    return basis, stairs


# ---------------------------------------------------------------------------
# reference Lazard route
#
# compute_standard_basis's fallback as it ran on polynomials: monomial * unit
# replaced by the monomial, then the generators homogenized as polynomials
# and completed under graded lex in poly_sort_key order (by the reference
# pair loop above, after the intake's scalar-class check), then
# dehomogenized and finished by the library's minimalization and tail
# reduction.  The same basis as the library's keyed route on every input.


def simplify_generators(gens: Iterable[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    """The nonzero generators, each of the shape monomial * unit replaced by
    the monomial under a local order."""
    out = []
    for g in gens:
        if g.is_zero():
            continue
        if order == LOCAL_DEGREE:
            content = tuple(map(min, zip(*g.terms)))
            if sum(content) and content in g.terms:
                # constant term of the cofactor is nonzero: the cofactor is a unit
                g = g.ring.monomial(content)
        out.append(g)
    return out


def homogenized(polys: Sequence[Polynomial], ring: RingContext) -> list[Polynomial]:
    """The polys of ``ring`` homogenized by a new first variable t (t_ when t is taken)."""
    tname = "t"
    while tname in ring.variables:
        tname += "_"
    hring = RingContext((tname,) + ring.variables, ring.field)

    def homogenize(p: Polynomial) -> Polynomial:
        top = p.total_degree()
        return Polynomial(hring, {(top - sum(a),) + a: c for a, c in p.terms.items()}, _canonical=True)

    return [homogenize(g) for g in polys]


def homogenized_generators(generators: Sequence[Polynomial], ring: RingContext) -> list[Polynomial]:
    """The nonzero generators, monomial * unit replaced, homogenized by a first variable t."""
    return homogenized(simplify_generators(generators, LOCAL_DEGREE), ring)


def lazard_standard_basis(generators: Sequence[Polynomial], ring: RingContext) -> ReducedStandardBasis:
    homogenized = homogenized_generators(generators, ring)
    if not homogenized:
        return ReducedStandardBasis(ring, None, None, _Packing.sized(ring, 0), list, Ideal(ring, generators))
    # on equal leads, the generators' own term lists order them
    homogenized = sorted(first_per_scalar_class(homogenized), key=lambda p: poly_sort_key(p, GRADED_LEX), reverse=True)
    hpk, raw, _ = complete_basis(homogenized, GRADED_LEX)
    dehomogenized = [{hpk.monomial(k)[1:]: c for k, c in _terms(el).items()} for el in raw]
    top = max(sum(a) for terms in dehomogenized for a in terms)
    pk = _Packing.sized(ring, ring.nvars * top)
    minimal = _minimalize(pk, [pk.element({pk.key(a): c for a, c in terms.items()}) for terms in dehomogenized])
    stats = _staircase([pk.monomial(el[0]) for el in minimal], ring.nvars)
    if stats is not None:
        return _finish_primary(pk, minimal, stats)
    cap = pk.degree(min(k for el in minimal for k in _terms(el)))
    finish = partial(_reduced_elements, pk, minimal, None, cap)
    return ReducedStandardBasis(ring, None, None, pk, finish, Ideal(ring, generators))


# ---------------------------------------------------------------------------
# reference eager finishing
#
# A basis used to be finished when it was built: _finish_primary (and the
# infinite-colength branch of compute_standard_basis) tail-reduced and
# unpacked every element up front, into a frozen dataclass whose equality,
# hash and repr are those of (ring, elements, truncation).  That body and
# that class, kept verbatim bar the names and the packed terms split into
# their packing and the elements' terms, are the reference for the basis
# finished on first read.


@dataclass(frozen=True)
class EagerReducedStandardBasis:
    ring: RingContext
    elements: tuple[Polynomial, ...]
    truncation: int | None
    staircase: tuple[int, int] | None = field(compare=False, repr=False)
    _packing: _Packing = field(compare=False, repr=False)
    element_terms: tuple[dict[int, int], ...] = field(compare=False, repr=False)


def eager_basis(
    pk: _Packing, elements: list[tuple], truncation: int | None, staircase: tuple[int, int] | None
) -> EagerReducedStandardBasis:
    return EagerReducedStandardBasis(
        pk.ring, tuple(el[2] for el in elements), truncation, staircase, pk, tuple(el[1] for el in elements)
    )


def eager_finish_primary(pk: _Packing, minimal: list[tuple], staircase: tuple[int, int]) -> EagerReducedStandardBasis:
    """_finish_primary as it finished an m-primary basis from its minimal packed elements at once."""
    B = max(staircase[1] + 1, 1)
    floor = pk.floor(B)
    below = [pk.element({k: c for k, c in _terms(el).items() if k >= floor}) for el in minimal if el[0] >= floor]
    elements = _reduced_elements(pk, below, B, None)
    elements += [(el[0], {el[0]: 1}, pk.polynomial({el[0]: 1})) for el in minimal if el[0] < floor]
    elements.sort(key=_lead, reverse=True)
    return eager_basis(pk, elements, B, staircase)


def eager_infinite_basis(pk: _Packing, minimal: list[tuple]) -> EagerReducedStandardBasis:
    """compute_standard_basis's basis of infinite colength, finished at once."""
    cap = pk.degree(min(k for el in minimal for k in _terms(el)))
    return eager_basis(pk, _reduced_elements(pk, minimal, None, cap), None, None)


# ---------------------------------------------------------------------------
# reference staircase read-off
#
# A finished basis carries the staircase its completion counted on the
# minimal leads, and _finish_primary takes the degree-B layer of an m-primary
# basis off those leads.  The leads recounted from the elements, and the
# slicing walk that built that layer before, kept verbatim, are the
# references for both.


def leading_monomials(basis: ReducedStandardBasis) -> tuple[MultiIndex, ...]:
    """The local leading monomials of the basis elements, read off the polynomials."""
    return tuple(leading_monomial(p, LOCAL_DEGREE) for p in basis.elements)


def border(lead_monomials: Sequence[MultiIndex], nvars: int, degree: int) -> list[MultiIndex]:
    """The monomials of the given total degree outside the monomial ideal.

    Slices on the first variable as _staircase does: x_1^e * x^beta lies
    outside iff x^beta lies outside the ideal of the tails of the
    generators with first exponent <= e.  In two variables that is a
    comparison with the least second exponent among those tails.
    """
    if nvars == 1:
        return [] if any(m[0] <= degree for m in lead_monomials) else [(degree,)]
    leads = sorted(lead_monomials, reverse=True)
    tails: list[MultiIndex] = []
    low = degree + 1  # two variables: the least second exponent among the tails
    out: list[MultiIndex] = []
    for e in range(degree + 1):
        while leads and leads[-1][0] <= e:
            m = leads.pop()
            tails.append(m[1:])
            low = min(low, m[1])
        if nvars > 2:
            out += [(e, *beta) for beta in border(tails, nvars - 1, degree - e)]
        elif degree - e < low:
            out.append((e, degree - e))
        elif not low:
            break  # x_1^c with c <= e lies in the ideal: so does the rest
    return out


# ---------------------------------------------------------------------------
# reference inclusion report
#
# check_inclusions as first written: every ideal built up front, powers as
# repeated products over every ordered tuple of generators, and all four
# inclusions computed, none read off the ideal lattice.


def power_by_products(ideal: Ideal, k: int) -> Ideal:
    """I^k as k products with I, starting from the unit ideal."""
    result = Ideal.unit(ideal.ring)
    for _ in range(k):
        result = result * ideal
    return result


def reference_inclusions(f: Polynomial, n: int) -> InclusionReport:
    ring = f.ring
    d = ring.nvars
    jn = higher_jacobian_ideal(f, n)
    jn_prev = higher_jacobian_ideal(f, n - 1)
    j1 = jacobian_ideal(f)
    m_j1_sq = maximal_ideal_power(ring, 1) * power_by_products(j1, 2)
    f_ideal = Ideal(ring, [f])
    power = math.comb(d - 2 + n, d - 1)
    mt = f.multiplicity()
    return InclusionReport(f, n, (
        InclusionCheck("descending-chain", jn_prev.contains_ideal(jn), True),
        InclusionCheck("inside-m-j1-squared", m_j1_sq.contains_ideal(jn), d >= 3 or n >= 3 or mt >= 3),
        InclusionCheck("shifted-inside-m-j1-squared", (f_ideal + m_j1_sq).contains_ideal(f_ideal + jn), True),
        InclusionCheck(f"inside-j1-power-{power}", power_by_products(j1, power).contains_ideal(jn), True),
    ))


# ---------------------------------------------------------------------------
# hypothesis strategies


@st.composite
def monomial_strategy(draw, nvars: int, max_degree: int):
    """Exponent tuples of total degree <= max_degree, drawn without rejection.

    Each exponent is drawn from the degree budget the earlier ones left, so
    every such monomial can be generated and no draw is filtered out (a
    filter on the sum rejects most draws in three variables).
    """
    budget = max_degree
    exponents = []
    for _ in range(nvars):
        e = draw(st.integers(0, budget))
        exponents.append(e)
        budget -= e
    return tuple(exponents)


def polynomial_strategy(ring: RingContext, max_terms: int = 6, max_degree: int = 6):
    term = st.tuples(monomial_strategy(ring.nvars, max_degree), st.integers(-4, 4))

    def build(terms) -> Polynomial:
        out = ring.zero()
        for alpha, c in terms:
            out = out + ring.monomial(alpha, c)
        return out

    return st.lists(term, min_size=0, max_size=max_terms).map(build)


def nonzero_polynomial_strategy(ring: RingContext, max_terms: int = 6, max_degree: int = 6):
    return polynomial_strategy(ring, max_terms, max_degree).filter(lambda p: not p.is_zero())


@st.composite
def homogeneous_polynomial_strategy(draw, ring: RingContext, max_terms: int = 6, max_degree: int = 6):
    """Polynomials whose terms share one total degree, at most ``max_degree``; zero included.

    The last exponent takes what the others leave of the degree, so no draw
    is filtered out.
    """
    degree = draw(st.integers(0, max_degree))
    term = st.tuples(monomial_strategy(ring.nvars - 1, degree), st.integers(-4, 4))
    out = ring.zero()
    for alpha, c in draw(st.lists(term, max_size=max_terms)):
        out = out + ring.monomial(alpha + (degree - sum(alpha),), c)
    return out
