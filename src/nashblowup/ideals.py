"""Ideals in the local ring at the origin.

Equality, membership, and containment refer to the localization of the
polynomial ring at the maximal ideal (x_1, ..., x_d), and every standard
basis is one for the local degree order.  The computational backbone is
Mora's completion (Buchberger's pairs with the weak normal form and its
ecart selection), run capped to certify finite colength, and Lazard's
route for everything else: homogenize, complete uncapped (on homogeneous
input every ecart is 0, so the run is Buchberger's under graded lex),
dehomogenize.

Canonical form.  For a local order, the fully tail-reduced standard basis
of an ideal need not consist of polynomials: reducing the tail of
x - x*y against itself produces the power series x*(1 + y + y^2 + ...)
and never terminates, although (x - x*y) = (x) in the local ring.  When
the quotient is finite dimensional the ideal contains a power of the
maximal ideal: with s the largest degree of a standard monomial, the
graded pieces of the quotient vanish above s (the order is degree
compatible, so standard monomials of degree j count the j-th graded
piece), hence m^(s+1) lies in the ideal by Nakayama.  All arithmetic may
therefore be truncated above degree s+1, and the tail-reduced truncated
basis is finite, polynomial, and a complete invariant of the ideal: two
ideals of finite colength are equal iff their reduced bases agree element
by element.  For infinite colength the reduced basis is normalized
deterministically (bounded tail reduction) and equality falls back to
mutual membership.

Colength record.  An Ideal is the one record of what is known about its
colength, each fact taken at most once: its open axes and its certified
m-primary basis or None, the capped runs' basis or Lazard's when that one
comes out m-primary.  The coordinate axes decide part of it in one pass
over the terms: when no generator has a term that is a pure power of
some x_v (1 counts), every generator lies in the prime (x_i : i != v), so
the quotient is infinite-dimensional (Ideal.dimension answers with no
completion, and the capped runs give up before packing anything) and an
f with a term in k[x_v] lies outside the ideal.  When no m-primary basis decides a
membership, an ideal and its basis of infinite colength take one route
over the generators' span basis (_uncertified_membership): that axis
refutation, a Mora walk, then an escalation of a capped refutation and a
linear certificate for a fixed number of rounds, the certificate's one
echelon growing by a degree layer at a time across them.  The walk and
each refutation run are charged one work budget (_WORK_BUDGET), as the
capped runs are; a walk that spends it escalates, and when neither side
settles within the rounds, or a refutation spends it, the route raises
MembershipUndecided (a RuntimeError) instead of answering.

Packed kernel.  The weak normal form, the completion, the tail reduction
and the linear membership certificate run on packed polynomials: dicts from
int monomial keys to int coefficients.  There is one key layout
(polynomials._Packing, which substitution shares): one field
of w bits per variable, x_1 highest, each with a guard bit above it, less
the total degree shifted above all fields, ``fields - (deg << S)``.  So the
local leading term is ``max(keys)``, a product of monomials is the sum of
their keys, x^a divides x^b iff ``not (b - a) & guards``, and deg < B iff
the key is at least one threshold, ``(1 - B) << S`` (_Packing.floor).  The
terms of a homogeneous polynomial share one degree, so these keys order
them by their fields, as graded lex does, and Lazard's homogenized
completion runs on them too.  Coefficients are residues over F_p; over Q a
polynomial is packed as its positive multiple with coprime integer
coefficients, and every step keeps coefficients integral (cross-multiplied
reductions), which changes results only by positive scalars that the
unpacked results do not show.  The weak normal form and the certificate's
echelon cancel a lead term by one step, _eliminate; the tail reduction
keeps its own loop, since it cancels inner terms and over Q rescales its
finished part with every cross-multiplication.  Width rule: w is sized
from the input's largest total degree (and truncation degree) with room
for it to double; a stored monomial may not exceed degree 2^w - 1, so no
exponent reaches its guard bit.  A step that could store a monomial past
that limit raises _Overflow, and the entry point starts over with fields
twice as wide, so keys never wrap.  The completion keys a pair by ``(deg << S) | fields`` of
its lcm, which sorts like (total degree, exponent tuple), from guard-bit
arithmetic on the fields.  Every term of an s-polynomial has at least its
lcm's degree, pairs come off the heap by ascending lcm degree and the bound
only falls, so the loop stops at the first pair whose lcm reaches the
bound: every pair left would truncate to zero, uncharged.

Conversion boundary.  A basis of polynomials is packed once on entry to
weak_normal_form.  An Ideal resolves its generators once, on first use,
into one view: one packing (Ideal._packing), _Packing.sized for the
generators packed there or the widest packing a generator was handed over
on, and on it the survivors of the scalar-class rule (_kept): the first
generator of each scalar class in the caller's order, monomial * unit
replaced by the monomial.  The survivors feed only
their span basis (_span) and Lazard's route, whose printed bases of
infinite colength depend on the full list.  The span basis is the
survivors sorted by lead key alone, the caller's order kept on equal leads
(_intake), cut to the first generator of each new pivot of a semi-echelon
form (_Echelon): a subset spanning the same k-space, hence the same ideal
and canonical basis, which no processing order changes.  Every membership
test reads it: the capped runs and the escalation's refutations complete
it, the budgeted walks reduce by it (_reducers), and the escalation's
certificate takes it as its rows.  So each generator is packed at most
once per Ideal, and one method (Ideal._span_on) moves the span basis to a
packing that holds a degree past that packing: a capped run's cap, or the
escalation's last cap and certificate layer, which depend only on deg f,
so the escalation moves it at most once and packs only f.  A Jacobian
matrix is built as its derivative table, on integer coefficients and on a
packing that holds the degree of its maximal minors (jacobian.jac_matrix),
and the minors (jacobian._minor_dets) run on its cells.
Ideal._from_packed keeps the first minor of each scalar class as its
hand-over entry: its packed terms, a positive multiple of it, and the
scale that unpacks them (kept by Ideal.__add__).  Ideal.generators
unpacks the entries on its first read, once per Ideal; the colength
record (the open axes read off the keys' exponents), sums and every
membership test in the ideal read the entries, so (f) + J_n(f) reaches
the capped runs without a Polynomial round trip, and an ideal whose
generators nothing prints, substitutes or tests for membership elsewhere
builds none.  Terms handed over on another width move by way of their
exponent tuples; the width changes no key order, so no result.
Each capped run cuts the span basis at its key floor, and every step of a
budgeted walk or capped run charges its budget by one rule, on the packed
lead coefficient.  Lazard's route homogenizes the
survivors' keys and processes them in the order graded lex gives the
homogenized polynomials, ties broken by each generator's own term list; it
moves the keys from the packing of (t, x_1, ..., x_d) its completion runs
on to one of the ring's by way of their exponent tuples.  Completions
return packed elements, with the staircase of their leads, which is all a
dimension reads.  Minimalization, the truncation and the tail reduction of
a finished basis run on those same keys, and each element is unpacked
once, monic, when the ReducedStandardBasis is first read for its
elements.  The basis keeps the tail-reduced terms, a nonzero multiple of
each element, and builds its reducers from them on its first query, so a
computed basis is never packed again; its membership test reads whether
the packed normal form is zero, which no scale changes.
A basis of infinite colength decides membership over the Ideal it was
completed from.  Every public signature and every printed result is the
one the tuple/Fraction arithmetic gives.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations_with_replacement, count, islice
from math import gcd, inf, prod
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .polynomials import (
    MultiIndex,
    Polynomial,
    RingContext,
    _Overflow,
    _Packing,
    multi_indices_in_range,
)


class _Infinite(float):
    """The float infinity, printed as "infinite": the dimension of an infinite quotient."""

    def __repr__(self) -> str:
        return "infinite"

    __str__ = __repr__


INFINITE = _Infinite("inf")

QuotientDimension = int | _Infinite


# ---------------------------------------------------------------------------
# packed kernel (layout, width rule and boundary: see the module docstring;
# the keys are polynomials._Packing's)


_lead = itemgetter(0)
_rank = itemgetter(1)


def _terms(element: tuple) -> dict[int, int]:
    terms = dict(element[3])
    terms[element[0]] = element[2]
    return terms


def _add_shifted(
    h: dict[int, int], tail: tuple, shift: int, mult: int, floor: int, p: int
) -> int:
    """h += mult * x^shift * tail on the keys at or above floor, mod p when p is set.

    Returns the gcd of the tail coefficients whose keys fall below.
    """
    get = h.get
    dropped = 0
    for k, c in tail:
        k += shift
        if k >= floor:
            c = get(k, 0) + mult * c
            if p:
                c %= p
            if c:
                h[k] = c
            else:
                del h[k]
        else:
            dropped = gcd(dropped, c)
    return dropped


def _eliminate(
    h: dict[int, int], lead: int, lc_g: int, tail_g: tuple, shift: int, floor: int, p: int
) -> dict[int, int]:
    """Cancel h's term at ``lead`` against x^shift * g on the keys at or above floor.

    g is lc_g * x^(lead - shift) + tail_g.  Over F_p this is h - (c / lc_g)
    * x^shift * g mod p, c being h's coefficient at ``lead``.  Over Q it is
    lc_g * h - c * x^shift * g over their gcd, divided by the content of the
    result and of the tail coefficients the floor drops, so it stays
    fraction-free.  Takes over h.
    """
    c = h.pop(lead)
    if p:
        # pivots and completed elements are monic: no inverse to take
        mult = p - c if lc_g == 1 else -c * pow(lc_g, -1, p) % p
        _add_shifted(h, tail_g, shift, mult, floor, p)
        return h
    g0 = gcd(lc_g, c)
    a, b = lc_g // g0, c // g0
    if a != 1:
        h = {k: v * a for k, v in h.items()}
    dropped = _add_shifted(h, tail_g, shift, -b, floor, 0)
    content = gcd(*h.values(), b * dropped)
    if content > 1:
        h = {k: v // content for k, v in h.items()}
    return h


def _normal_form(
    pk: _Packing,
    h: dict[int, int],
    reducers: list[tuple],
    bound: int | None,
    budget: list[int] | None = None,
) -> dict[int, int] | None:
    """Mora's weak normal form of packed h, whose terms lie below bound.

    ``reducers`` are packed elements sorted stably by (ecart, length), so the
    first divisor is the one of least rank that comes first.  Every step
    charges ``budget`` by one rule: the length of h times the 32-bit word
    count of its packed lead coefficient, so coefficient growth over Q
    spends it as length does.  Returns h itself when no step applies, None
    when the budget runs out.
    """
    if not h or not reducers:
        return h
    p, guards, limit, deg_shift = pk.p, pk.guards, pk.limit, pk.deg_shift
    given = h
    floor = pk.floor(bound)
    # below the limit anyway when the bound truncates everything under it
    unbounded = bound is None or bound - 1 > limit
    extra: list[tuple] = []  # intermediate results recorded as reducers, by rank
    while h:
        lm = max(h)
        lc = h[lm]
        if budget is not None:
            budget[0] -= len(h) * (1 + (lc.bit_length() + 1) // 32)
            if budget[0] < 0:
                return None
        best = None
        for el in reducers:
            if not (lm - el[0]) & guards:
                best = el
                break
        for el in extra:
            # a recorded result comes after every basis element of its rank
            if best is not None and not el[1] < best[1]:
                break
            if not (lm - el[0]) & guards:
                best = el
                break
        if best is None:
            return h
        lead_g, (ecart_g, _), lc_g, tail_g = best
        if ecart_g:
            # no ecart is below 0, so only a reducer of positive ecart records h
            ecart = (lm >> deg_shift) - (min(h) >> deg_shift)
            if ecart_g > ecart:
                tail = tuple([kv for kv in h.items() if kv[0] != lm])
                insort(extra, (lm, (ecart, len(h)), lc, tail), key=_rank)
        if unbounded and pk.degree(lm) + ecart_g > limit:
            raise _Overflow
        # the caller's dict stays as it was: its copy is taken over
        h = _eliminate(h.copy() if h is given else h, lm, lc_g, tail_g, lm - lead_g, floor, p)
    return h


class _PackedBasis:
    """A basis on one packing: its packed reducers, sorted stably by rank."""

    __slots__ = ("packing", "reducers")

    def __init__(self, packing: _Packing, terms: Iterable[dict[int, int]]):
        """``terms`` are a nonzero multiple of each basis element on ``packing``'s keys, in order."""
        self.packing = packing
        self.reducers = sorted(map(packing.element, terms), key=_rank)

    def wider(self) -> "_PackedBasis":
        """The same reducers on a packing twice as wide; the width changes no rank."""
        pk = self.packing
        wide = pk.wider()
        return _PackedBasis(wide, [_moved(pk, wide, _terms(el)) for el in self.reducers])


def weak_normal_form(
    f: Polynomial,
    basis: Sequence[Polynomial] | _PackedBasis,
    bound: int | None = None,
    budget: int | None = None,
) -> Polynomial | None:
    """Weak normal form of f against basis.

    Returns h with u*f - h in (basis) for some unit u of the local ring;
    h = 0 iff f lies in the ideal generated by a standard basis.  Mora's
    algorithm: reduce by a divisor of minimal ecart and record the
    intermediate result as an extra reducer whenever its ecart is smaller,
    which forces termination.
    Among divisors of minimal ecart the shortest, then the first, is used.
    ``bound`` truncates all intermediate terms at that total degree and is
    only sound when m^bound is contained in the ideal.  ``budget`` bounds
    the walk's work in the units the capped runs are charged: each step
    costs the length of h times the 32-bit word count of its lead
    coefficient, over Q read on the walk's integer multiple of h (f's
    primitive one at the first step).  The walk returns None when the
    budget runs out; None walks without a limit.  Over Q a
    reduced result keeps the scale of the fraction-free reduction: coprime
    integers before its last truncation.  Zero basis polynomials are
    skipped; one from another ring raises ValueError.  A basis handed over
    packed (_PackedBasis, internal) is walked on its own reducers, and a
    plain one is packed here; a step past the packing's degree limit starts
    over on one twice as wide, with the budget afresh.
    """
    h = f.truncate_at_degree(bound)
    if isinstance(basis, _PackedBasis):
        if basis.packing.ring != f.ring:
            raise ValueError("polynomial lives in a different ring context")
    else:
        if any(g.ring != f.ring for g in basis):
            raise ValueError("polynomial lives in a different ring context")
        basis = [g for g in basis if not g.is_zero()]
        if h.is_zero() or not basis:
            return h
        pk = _Packing.sized(f.ring, max(h.total_degree(), (bound or 0) - 1, *(g.total_degree() for g in basis)))
        basis = _PackedBasis(pk, map(pk.pack, basis))
    while True:
        pk = basis.packing
        try:
            packed = pk.pack(h)
            out = _normal_form(pk, packed, basis.reducers, bound, None if budget is None else [budget])
        except _Overflow:
            basis = basis.wider()
            continue
        if out is None:
            return None
        return h if out is packed else pk.polynomial(out)


def _staircase(lead_monomials: Sequence[MultiIndex], nvars: int) -> tuple[int, int] | None:
    """(count, top degree) of the monomials outside the given monomial ideal.

    None when the complement is infinite; (0, -1) for the unit ideal.  Slices
    on the first variable: with c_0 < ... < c_r the distinct first exponents,
    the slice at x_1-exponent e in [c_i, c_(i+1)) is the staircase, in the
    remaining variables, of the tails of the generators with first exponent
    <= c_i (none below c_0), and the slice from c_r on must be empty.  The
    work is polynomial in the number of generators, not in the box volume.
    """
    if nvars == 0:
        return (0, -1) if lead_monomials else (1, 0)
    count, top, lo = 0, -1, 0
    tails: list[MultiIndex] = []
    for m in sorted(lead_monomials):
        if m[0] > lo:
            # x_1-exponents lo .. m[0]-1 share the staircase of the tails so far
            inner = _staircase(tails, nvars - 1)
            if inner is None:
                return None
            if inner[0]:
                count += (m[0] - lo) * inner[0]
                top = max(top, m[0] - 1 + inner[1])
            lo = m[0]
        tails.append(m[1:])
    if not any(sum(t) == 0 for t in tails):
        return None
    return (count, top)


def _scalar_class(terms: dict[int, int], p: int) -> frozenset | int:
    """The same key for two packed polynomials iff one is a nonzero multiple of the other.

    A one-term polynomial is keyed by its bare monomial key, which no
    frozenset equals.
    """
    if len(terms) == 1:
        return next(iter(terms))
    lead = terms[max(terms)]
    if p:
        scalar = pow(lead, -1, p)
        return frozenset((key, c * scalar % p) for key, c in terms.items())
    g = gcd(*terms.values())
    if lead < 0:
        g = -g
    return frozenset((key, c // g) for key, c in terms.items())


def _intake(ideal: Ideal) -> list[dict[int, int]]:
    """The terms of the ideal's survivors (Ideal._kept) in processing order:
    by lead, largest first, in the caller's order on equal leads.  A
    completion charges its budget on these terms as on every later step."""
    return [item[1] for item in sorted(ideal._kept, key=_lead, reverse=True)]


def _moved(src: _Packing, pk: _Packing, terms: dict[int, int]) -> dict[int, int]:
    """Terms packed on ``src`` keyed on ``pk``: the same dict when the widths agree,
    else moved by way of their exponent tuples."""
    if src.width == pk.width:
        return terms
    return {pk.key(src.monomial(k)): c for k, c in terms.items()}


def _primitive(terms: dict[int, int]) -> dict[int, int]:
    """Integer terms divided by their content."""
    content = gcd(*terms.values())
    return {k: c // content for k, c in terms.items()} if content > 1 else terms


def _run_completion(
    pk: _Packing, gens: list[dict[int, int]], bound: int | None, budget: list[int] | None
) -> tuple[list[tuple], tuple[int, int] | None] | None:
    """Mora's completion of _intake's packed generators on one packing: (packed elements, staircase).

    With the cap ``bound`` set, each generator is cut at the current bound
    as it enters and the result is a standard basis of (ideal) + m^bound,
    which the caller must certify equals the ideal.  Either way the bound
    falls as the staircase of the leads closes, and the staircase returned
    is the (count, top degree) of every lead the last fall read, None while
    open: the minimal leads span the same monomial ideal.  ``budget`` aborts
    an oversized run, returning None; every reduction step charges it by the
    one rule of _normal_form, the first step of a generator on its cut
    packed terms.  The elements, in insertion order, are primitive over Q
    and monic over F_p.  A step past the packing's degree limit raises
    _Overflow; no packing that holds the cap meets one.  Uncapped, it is the
    Buchberger step of Lazard's route, and each new element is tail-reduced:
    its generators must be homogeneous, so every ecart is 0, Mora's normal
    form is Buchberger's, the local keys order each element's terms (all of
    one degree) as graded lex does, and each tail reduction stays in one
    degree and terminates.
    """
    ring = pk.ring
    p, limit, guards, width, deg_shift = pk.p, pk.limit, pk.guards, pk.width, pk.deg_shift
    homogeneous = bound is None
    fields_mask = (1 << deg_shift) - 1
    # the top field of fields * units sums the exponents: at most 2 * limit, no carry
    units, top_field, degree_mask = sum(1 << s for s in pk.shifts), pk.shifts[0], (1 << (width + 1)) - 1
    floor = pk.floor(bound)
    basis: list[tuple] = []  # packed elements, in insertion order
    ranked: list[tuple] = []  # the same, sorted stably by rank
    fields: list[int] = []  # the fields of their leading monomials
    lms: list[MultiIndex] = []  # the same as exponent tuples
    pure: set[int] = set()  # the variables with a pure-power lead
    stairs = None  # the staircase of lms once it closes
    pairs: list[tuple[int, int, int]] = []

    def lcm_fields(a: int, b: int) -> int:
        ge = ((a | guards) - b) & guards  # a field's guard bit: a's exponent >= b's
        m = ge - (ge >> width)
        return (a & m) | (b & ~m)

    def refresh_bound() -> None:
        nonlocal bound, floor, ranked, stairs
        # every variable has a pure-power lead, so the staircase is closed;
        # with s its top standard-monomial degree, the graded pieces of the
        # quotient vanish above s, so by Nakayama m^(s+1) already lies
        # inside the ideal spanned so far
        stairs = _staircase(lms, ring.nvars)
        new_bound = max(stairs[1] + 1, 1)
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
        h = _normal_form(pk, h, ranked, bound, budget)
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
            h = _primitive(h)
        el = pk.element(h)
        new = el[0] & fields_mask
        for i, old in enumerate(fields):
            lcm_ = lcm_fields(old, new)
            # product criterion: coprime leading monomials contribute nothing
            if lcm_ != old + new:
                deg = lcm_ * units >> top_field & degree_mask
                heapq.heappush(pairs, ((deg << deg_shift) | lcm_, i, len(basis)))
        basis.append(el)
        insort(ranked, el, key=_rank)
        fields.append(new)
        lms.append(pk.monomial(el[0]))
        # the staircase stays open until every variable has a pure-power lead
        pure.update(v for v, e in enumerate(lms[-1]) if e == pk.degree(el[0]))
        if len(pure) == ring.nvars:
            refresh_bound()
        return True

    def unit() -> bool:
        return bool(fields) and not fields[-1]

    for terms in gens:
        if bound is not None:
            terms = {k: c for k, c in terms.items() if k >= floor}
        if not insert(terms):
            return None
        if unit():
            return [pk.element({0: 1})], stairs

    def chain_redundant(i: int, j: int, lcm_: int) -> bool:
        # drop the pair when a third element divides the lcm and both mixed
        # lcms are proper divisors (Buchberger's second criterion)
        for k, f in enumerate(fields):
            if (lcm_ - f) & guards or k == i or k == j:
                continue
            if lcm_fields(fields[i], f) != lcm_ and lcm_fields(fields[j], f) != lcm_:
                return True
        return False

    while pairs:
        key, i, j = heapq.heappop(pairs)
        deg = key >> deg_shift
        if bound is not None and deg >= bound:
            break  # this pair and every later one truncate to zero
        lcm_ = key & fields_mask
        if chain_redundant(i, j, lcm_):
            continue
        lead_f, (ecart_f, _), lc_f, tail_f = basis[i]
        lead_g, (ecart_g, _), lc_g, tail_g = basis[j]
        if (bound is None or bound - 1 > limit) and deg + max(ecart_f, ecart_g) > limit:
            raise _Overflow
        # cross-multiplied s-polynomial: leading terms cancel in any field
        lcm_key = lcm_ - (deg << deg_shift)
        s: dict[int, int] = {}
        _add_shifted(s, tail_f, lcm_key - lead_f, lc_g, floor, p)
        _add_shifted(s, tail_g, lcm_key - lead_g, -lc_f, floor, p)
        if not insert(s):
            return None
        if unit():
            return [pk.element({0: 1})], stairs
    return basis, stairs


def _minimalize(pk: _Packing, elements: list[tuple]) -> list[tuple]:
    """Keep one packed element per minimal generator of the leading-monomial ideal.

    Processed by ascending leading degree so divisors are seen first.  Only
    dehomogenization makes several elements share a leading monomial; of
    those the one whose term list, sorted by monomial, is least survives.
    """
    guards = pk.guards

    def sorted_terms(el: tuple) -> list:
        terms = _terms(el)
        return sorted(zip(map(pk.monomial, terms), terms.values()))

    kept: list[tuple] = []
    for el in sorted(elements, key=lambda el: (pk.degree(el[0]), el[0])):
        if kept and kept[-1][0] == el[0]:
            if sorted_terms(el) < sorted_terms(kept[-1]):
                kept[-1] = el
        elif all((el[0] - q[0]) & guards for q in kept):
            kept.append(el)
    return kept


def _tail_reduce(
    pk: _Packing,
    terms: dict[int, int],
    reducers: Sequence[tuple],
    bound: int | None,
    cap: int | None,
) -> dict[int, int]:
    """Normal form of the tail of packed terms against packed reducers.

    The first reducer whose leading monomial divides a term is used.  With
    ``bound`` set (m-primary case) the result tail is the unique
    representation in standard monomials below the bound.  Otherwise a
    reduction step is performed only when it cannot raise any term above
    ``cap``, which keeps the procedure terminating on ideals of infinite
    colength.  Over Q the result is a positive multiple of the field one.
    """
    p, guards = pk.p, pk.guards
    floor = pk.floor(bound)
    capped = bound is None and cap is not None
    lead = max(terms)
    done = {lead: terms[lead]}
    work = terms.copy()
    del work[lead]
    while work:
        mono = max(work)
        coeff = work.pop(mono)
        for el in reducers:
            if not (mono - el[0]) & guards and not (capped and pk.degree(mono) + el[1][0] > cap):
                break
        else:
            done[mono] = coeff
            continue
        lead_g, _, lc_g, tail_g = el
        shift = mono - lead_g
        if p:
            _add_shifted(work, tail_g, shift, -coeff * pow(lc_g, -1, p) % p, floor, p)
            continue
        # |lc_g| * (done + work) - sign(lc_g) * coeff * x^shift * g, over the gcd
        g0 = gcd(lc_g, coeff)
        a, b = abs(lc_g) // g0, coeff // g0 if lc_g > 0 else -coeff // g0
        if a != 1:
            done = {k: c * a for k, c in done.items()}
            work = {k: c * a for k, c in work.items()}
        _add_shifted(work, tail_g, shift, -b, floor, 0)
        if a != 1:
            content = gcd(*done.values(), *work.values())
            if content > 1:
                done = {k: c // content for k, c in done.items()}
                work = {k: c // content for k, c in work.items()}
    return done


def _reduced_elements(
    pk: _Packing, elements: Sequence[tuple], bound: int | None, cap: int | None
) -> list[tuple[int, dict[int, int], Polynomial]]:
    """(leading key, packed terms, monic element) of a tail-reduced packed minimal basis, leading-first.

    Every element is tail-reduced against all of them, tried from the
    largest leading monomial down; the packed terms are the tail-reduced
    ones, a nonzero multiple of the element.  The packing must hold degree
    max(bound, cap) and the degrees of the elements: no step goes past them.
    """
    reducers = sorted(elements, key=_lead, reverse=True)
    out = []
    for el in reducers:
        terms = _tail_reduce(pk, _terms(el), reducers, bound, cap)
        out.append((el[0], terms, pk.polynomial(terms, monic=True)))
    return out


class _Echelon:
    """A semi-echelon form of packed rows: each pivot under its lead key.

    A pivot is (lead coefficient, tail items): monic over F_p, a primitive
    integer row over Q, where rows are reduced fraction-free.
    """

    __slots__ = ("p", "pivots")

    def __init__(self, p: int):
        self.p = p
        self.pivots: dict[int, tuple[int, tuple]] = {}

    def reduce(self, row: dict[int, int]) -> dict[int, int]:
        """row minus pivot multiples until no pivot has its lead; {} when it is in the span.

        Takes over ``row``.
        """
        p, pivots = self.p, self.pivots
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                return row
            lc, tail = pivot
            row = _eliminate(row, lead, lc, tail, 0, -inf, p)
        return row

    def insert(self, row: dict[int, int]) -> bool:
        """Reduce row and keep it as a pivot; False when it lies in the span.  Takes over ``row``."""
        row = self.reduce(row)
        if not row:
            return False
        lead = max(row)
        lc = row.pop(lead)
        if self.p and lc != 1:
            inv = pow(lc, -1, self.p)
            row = {k: c * inv % self.p for k, c in row.items()}
            lc = 1
        self.pivots[lead] = (lc, tuple(row.items()))
        return True


def _certificate_layers(
    pk: _Packing, target: dict[int, int], rows: Sequence[dict[int, int]]
) -> Iterator[bool]:
    """Search for a unit u = 1 + (tail in m) and cofactors with u*f = sum c_i g_i, layer by layer.

    Yields, after each layer e = 0, 1, ..., whether such a certificate
    exists with u's tail and the cofactors of degree at most e.  ``target``
    is f and ``rows`` are the generators g_i, packed on ``pk``, which must
    hold their degrees plus the last layer drawn.  The identity
    is a finite span problem over the monomial basis, decided by exact
    Gaussian elimination in one _Echelon for every layer: layer e adds the
    generators, and from e = 1 on f, times every monomial of degree e.  A
    hit proves membership of f in the localized ideal; every true member
    admits such a certificate at some finite layer.
    """
    echelon = _Echelon(pk.p)
    for e in count():
        for shift in map(pk.key, multi_indices_in_range(pk.ring.nvars, e, e)):
            for packed in rows:
                echelon.insert({k + shift: c for k, c in packed.items()})
        yield not echelon.reduce(dict(target))
        if not e:
            # u's tail lies in m: f's own rows start at layer 1
            rows = [*rows, target]


class MembershipUndecided(RuntimeError):
    """The membership escalation ran out of rounds, or (``budget`` set) a
    refutation ran out of that budget, with neither side settled."""

    def __init__(self, rounds: int, cap: int, budget: int | None = None):
        cause = (f" after {rounds} escalation rounds (last cap {cap})" if budget is None else
                 f": the refutation at cap {cap} ran out of its budget of {budget} in escalation round {rounds}")
        super().__init__(f"membership not decided{cause}")
        self.rounds = rounds
        self.cap = cap
        self.budget = budget


def _escalated_membership(f: Polynomial, ideal: Ideal) -> bool:
    """Decide membership in the ideal I without long reduction walks (infinite colength).

    Alternates two one-sided tests over the span basis g_i of I's
    generators (Ideal._span), which spans the k-space of all of them: an
    exact linear certificate u*f = sum c_i g_i proves, and a capped
    normal form refutes (anything outside I + m^cap is outside I).  Krull's
    intersection theorem makes the refutation side complete, and every true
    member has a polynomial certificate of some finite degree, so enough
    rounds always decide; but the loop stops after _ESCALATION_ROUNDS rounds
    and raises MembershipUndecided when neither test has settled by then, or
    as soon as a refutation run spends _WORK_BUDGET, the one work budget of
    the walks and capped runs, without finishing.  Round r draws the
    certificate's layers up to degree 4r + 4 from one echelon kept for the
    whole escalation (_certificate_layers), stopping at the first that
    certifies: most members need 0 to 2.  The certificate runs first; the
    opposite order was measured slower on the contact and covariance checks.
    A basis of I + m^cap from any generators of I decides membership modulo
    m^cap.  The caps depend only on deg f, so one packing (Ideal._span_on)
    holds the last cap and certificate layer; only f is packed here.
    """
    src = ideal._packing
    caps = [f.total_degree() + 2]
    while len(caps) < _ESCALATION_ROUNDS:
        caps.append(caps[-1] + max(4, caps[-1] // 2))
    top = max([f.total_degree(), *(src.degree(min(terms)) for terms in ideal._span[1])])
    # neither side overflows: every degree below the last cap, and the last layer's shifts
    pk, span = ideal._span_on(max(caps[-1] - 1, top + 4 * _ESCALATION_ROUNDS))
    target = pk.pack(f)
    layers = _certificate_layers(pk, target, span)
    for r, cap in enumerate(caps):
        # round r draws the layers up to degree 4r + 4
        if any(islice(layers, 4 if r else 5)):
            return True
        completed = _run_completion(pk, span, cap, [_WORK_BUDGET])
        if completed is None:
            # later certificates could still prove a member, in tens of seconds over Q
            raise MembershipUndecided(r + 1, cap, _WORK_BUDGET)
        floor = pk.floor(cap)
        if _normal_form(pk, {k: c for k, c in target.items() if k >= floor}, sorted(completed[0], key=_rank), cap):
            return False
    raise MembershipUndecided(_ESCALATION_ROUNDS, caps[-1])


def _uncertified_membership(f: Polynomial, ideal: Ideal) -> bool:
    """Membership of f in the ideal when no m-primary basis decides it.

    An open axis of the ideal on which f has a term refutes: f lies outside
    the prime (x_i : i != v), which contains the ideal.  Otherwise a Mora
    walk over the generators' span basis, charged _WORK_BUDGET, certifies a
    zero, and the escalation decides the rest over the same packed span.
    """
    if not ideal._open_axes <= _open_axes_of((f,), ideal.ring.nvars):
        return False
    h = weak_normal_form(f, ideal._reducers, budget=_WORK_BUDGET)
    if h is not None and h.is_zero():
        return True
    return _escalated_membership(f, ideal)


@dataclass(frozen=True, eq=False, repr=False)
class ReducedStandardBasis:
    """Monic, minimal, tail-reduced local standard basis, sorted leading-first.

    The elements are tail-reduced inside the truncated arithmetic described
    in the module docstring.  ``truncation`` is the degree above which terms
    were dropped (m^truncation lies in the ideal); None for ideals of
    infinite colength.  ``staircase`` is (count, top degree) of the standard
    monomials, None when there are infinitely many: the count the completion
    took of its leads, which generate the monomial ideal of the elements'
    leads.  A basis of infinite colength keeps the Ideal it was completed
    from.  Built only by _reduced_basis, with a finisher in place of the
    finished entries.  ``ring``, ``truncation``, ``staircase``,
    ``is_m_primary`` and ``dimension()`` are known from construction, so a
    colength reads nothing finished.  The elements and their packed terms
    are finished once, on the first read of ``elements`` or ``packed``
    (which ``contains`` reads unless f truncates to zero), or of ==, hash()
    or repr(), which compare, hash and show (ring, elements, truncation).
    """

    ring: RingContext
    truncation: int | None
    staircase: tuple[int, int] | None
    # the finisher returns the (leading key, packed terms, monic element)
    # entries, leading-first: the terms a nonzero multiple of the element on
    # _packing's keys, so no query packs an element again
    _packing: _Packing
    _finish: Callable[[], list[tuple]]
    _ideal: Ideal | None = None

    @cached_property
    def _finished(self) -> tuple[tuple[Polynomial, ...], tuple[dict[int, int], ...]]:
        """(elements, their packed terms), finished on first read."""
        entries = self._finish()
        return tuple(el[2] for el in entries), tuple(el[1] for el in entries)

    @cached_property
    def elements(self) -> tuple[Polynomial, ...]:
        return self._finished[0]

    @property
    def _packed_terms(self) -> tuple[_Packing, tuple[dict[int, int], ...]]:
        return self._packing, self._finished[1]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ring, self.elements, self.truncation) == (other.ring, other.elements, other.truncation)

    def __hash__(self) -> int:
        return hash((self.ring, self.elements, self.truncation))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(ring={self.ring!r}, elements={self.elements!r}, truncation={self.truncation!r})"

    @cached_property
    def packed(self) -> _PackedBasis:
        """The elements' packed reducers, built on the first query."""
        return _PackedBasis(*self._packed_terms)

    @property
    def is_m_primary(self) -> bool:
        return self.staircase is not None

    def contains(self, f: Polynomial) -> bool:
        """Exact membership of f in the ideal spanned by the basis.

        Finite colength reads whether the packed normal form of f, truncated
        at the truncation degree, is zero; the packing holds that degree.
        Infinite colength is decided as the Ideal the basis was completed
        from decides it (_uncertified_membership).
        """
        if f.ring != self.ring:
            raise ValueError("polynomial lives in a different ring context")
        if not self.is_m_primary:
            if not self.elements:
                return f.is_zero()
            return _uncertified_membership(f, self._ideal)
        h = f.truncate_at_degree(self.truncation)
        if h.is_zero():
            return True
        pk = self.packed.packing
        return not _normal_form(pk, pk.pack(h), self.packed.reducers, self.truncation)

    def dimension(self) -> QuotientDimension:
        return INFINITE if self.staircase is None else self.staircase[0]


def _finish_primary(pk: _Packing, elements: list[tuple], staircase: tuple[int, int]) -> ReducedStandardBasis:
    """Canonical truncated form of an m-primary standard basis, from its packed elements, finished on first read.

    ``staircase`` is the (count, top degree) of their leading monomials, so
    the truncation B := top + 1 and the dimension need nothing finished.
    Everything of degree >= B lies in the ideal (Nakayama), and m^B in the
    leading ideal, so no minimal lead has degree above B.  The finisher
    keeps the minimal elements (_minimalize; a minimal list stays as it
    is); those led below B are truncated at B and tail-reduced; those led
    at B enter as their bare monic leads, the monomials of degree B outside
    the ideal of the lower leads, making the result a function of the ideal
    alone rather than of the generator list.  The packing must hold degree
    B and the elements' degrees.
    """
    B = max(staircase[1] + 1, 1)

    def finish() -> list[tuple]:
        minimal = _minimalize(pk, elements)
        floor = pk.floor(B)
        below = [pk.element({k: c for k, c in _terms(el).items() if k >= floor}) for el in minimal if el[0] >= floor]
        entries = _reduced_elements(pk, below, B, None)
        entries += [(el[0], {el[0]: 1}, pk.polynomial({el[0]: 1})) for el in minimal if el[0] < floor]
        entries.sort(key=_lead, reverse=True)
        return entries

    return _reduced_basis(pk, finish, B, staircase)


def _reduced_basis(
    pk: _Packing,
    finish: Callable[[], list[tuple]],
    truncation: int | None,
    staircase: tuple[int, int] | None,
    ideal: Ideal | None = None,
) -> ReducedStandardBasis:
    """The basis that ``finish()`` finishes on first read into (leading key, terms on ``pk``'s keys,
    element) entries, keeping the staircase and, for infinite colength, the Ideal."""
    return ReducedStandardBasis(pk.ring, truncation, staircase, pk, finish, ideal)


# The fixed limits: the escalation gives up after _ESCALATION_ROUNDS rounds,
# and a membership walk, a capped run and an escalation's refutation run each
# stop after charging _WORK_BUDGET units by _normal_form's one rule.
_ESCALATION_ROUNDS = 12
_WORK_BUDGET = 400_000


def _complete_local_by_homogenization(ideal: Ideal) -> tuple[_Packing, list[tuple]]:
    """Standard basis via Lazard's route: homogenize, complete uncapped,
    dehomogenize.

    Every s-polynomial and reduction step stays inside one fixed total
    degree of the homogeneous world, so no reduction can wander the way an
    untruncated ecart-driven walk can.  The homogenized generators are
    completed by _run_completion with no cap on the keys of (t, x_1, ...,
    x_d): every ecart is 0 and those keys order each homogeneous element as
    graded lex does, so the run is Buchberger's, tail reduction included.
    The dehomogenized Groebner basis is a standard basis for the local
    order, returned as packed elements of a packing of the ring that also
    holds the border degree of _finish_primary.  The generators are the
    ideal's survivors (Ideal._kept), monomial * unit replaced by the
    monomial.  The basis of an ideal of infinite colength depends on their
    order, which is the one graded lex gives their homogenizations: largest
    top degree T first, then largest local lead, then the largest list of
    (key, coefficient) over the generator's own terms, where at the shared
    T the exponent (T - |b|, b) orders like the local key of b.
    """
    pk, ring = ideal._packing, ideal.ring

    def rank(item: tuple) -> tuple:
        lead, terms, entry = item
        # a generator's lowest key has its top degree; the monomial of a
        # monomial * unit has coefficient 1
        own = sorted([(k, 1 if entry is None else _coefficient(entry, pk.monomial(k))) for k in terms])
        return pk.degree(min(terms)), lead, own

    gens = [item[1] for item in sorted(ideal._kept, key=rank, reverse=True)]
    tops = [pk.degree(min(terms)) for terms in gens]
    tname = "t"
    while tname in ring.variables:
        tname += "_"
    # graded lex on (t, x_1, ..., x_d): at a fixed total degree a larger t
    # is a smaller degree in x, so ties fall to the local order on the x part
    hring = RingContext((tname,) + ring.variables, ring.field)
    # the homogenized runs reach 11-13 times the input degree on plane
    # germs, so they start with room for 16 times
    hpk = _Packing.sized(hring, 8 * max(tops))
    while True:
        try:
            hgens = [
                {hpk.key((top - pk.degree(k),) + pk.monomial(k)): c for k, c in terms.items()}
                for terms, top in zip(gens, tops)
            ]
            raw, _ = _run_completion(hpk, hgens, None, None)
            break
        except _Overflow:
            hpk = hpk.wider()
    # each element is homogeneous, so x-parts of distinct terms never collide
    dehomogenized = [{hpk.monomial(k)[1:]: c for k, c in _terms(el).items()} for el in raw]
    # an m-primary leading ideal holds pure powers of degree <= top, so its
    # staircase ends below degree nvars * top
    top = max(sum(a) for terms in dehomogenized for a in terms)
    pk = _Packing.sized(ring, ring.nvars * top)
    return pk, [pk.element({pk.key(a): c for a, c in terms.items()}) for terms in dehomogenized]


def _span_basis(p: int, gens: list[dict[int, int]]) -> list[dict[int, int]]:
    """The packed generators that are not in the k-span of those before them."""
    echelon = _Echelon(p)
    return [terms for terms in gens if echelon.insert(dict(terms))]


def _open_axes_of(polys: Iterable[Polynomial], nvars: int) -> frozenset[int]:
    """The variables x_v none of whose pure powers is a term of the polys (1 = x_v^0 counts).

    Each such x_v leaves every poly inside the prime P_v = (x_i : i != v):
    the x_v-axis lies in the zero set of the ideal they generate, whose
    quotient is therefore infinite-dimensional over any field, and a
    polynomial with a term in k[x_v] lies outside P_v, hence outside the
    ideal.  One pass over the terms, stopping once every variable is seen.
    """
    axes = set(range(nvars))
    for g in polys:
        if _close_axes(axes, g.terms, nvars):
            break
    return frozenset(axes)


def _close_axes(axes: set[int], exponents: Iterable[MultiIndex], nvars: int) -> bool:
    """Drop from ``axes`` each x_v with a pure power among the exponent tuples
    (all of them at the constant term); True once none is left."""
    for alpha in exponents:
        if alpha.count(0) >= nvars - 1:
            top = max(alpha)
            if not top:
                axes.clear()
                return True
            axes.discard(alpha.index(top))
            if not axes:
                return True
    return False


def _coefficient(entry: Polynomial | tuple, alpha: MultiIndex):
    """The coefficient of x^alpha, a term of the generator of a hand-over entry."""
    if isinstance(entry, tuple):
        pk, terms, _, scale = entry
        c = terms[pk.key(alpha)]
        return c if pk.p else Fraction(c, scale)
    return entry.terms[alpha]


def _ideal_of(generators: Ideal | Sequence[Polynomial], ring: RingContext) -> Ideal:
    """``generators`` when it is an Ideal of ``ring``, else the Ideal they generate;
    generators of another ring raise ValueError."""
    if isinstance(generators, Ideal):
        if generators.ring != ring:
            raise ValueError("generator lives in a different ring context")
        return generators
    return Ideal(ring, generators)


def try_primary_standard_basis(
    generators: Ideal | Sequence[Polynomial], ring: RingContext
) -> ReducedStandardBasis | None:
    """Capped completion attempts that certify a finite-colength basis.

    Completes modulo m^cap, then certifies m^(cap-1) lies in the ideal (top
    standard degree + 2 <= cap, by Nakayama, on the staircase the run
    counted); on success the capped basis, minimalized, is exact and
    canonical.  The certifying run's raw elements are handed to
    _finish_primary, which minimalizes and finishes them on first read: its
    staircase and truncation (top + 1) are the run's, and need nothing
    finished.  The first cap is max(4, 2 + the largest lead degree), and
    each run that does not certify reads the next one off what it found.
    Below its cap, an element of I + m^cap has the terms of its part in I,
    so every lead a run finds is a lead of I: when those leads close a
    staircase of top t, the ideal's lies inside it and a run at cap t + 2
    certifies, budget permitting.  A run whose staircase stays open doubles
    the cap after the base cap, or when some span generator has a term at or
    above the cap, which the run cut; otherwise no cap certifies and this
    returns None, which covers every ideal of infinite colength.  When some
    variable has no pure power among the generators' terms
    (Ideal._open_axes), that is decided before anything is packed or
    completed.  Each run is charged _WORK_BUDGET afresh, and one that
    spends it returns None.
    The runs complete the ideal's span basis (Ideal._span), the first
    survivor of each new pivot in processing order: the same ideal, so the
    same canonical basis.  Each call runs the capped runs afresh; an
    Ideal's ``_certified`` keeps the one result its queries read.
    """
    ideal = _ideal_of(generators, ring)
    if ideal._handed and ideal._open_axes:
        return None
    pk = ideal._packing
    multiplicity, gens = ideal._span
    if not gens:
        # the zero ideal: its finisher returns no entries
        return _reduced_basis(pk, list, None, None)
    base = cap = max(4, 2 + multiplicity)
    while True:
        # one span basis on a packing that holds the cap, so no run overflows
        if cap - 1 > pk.limit:
            pk, gens = ideal._span_on(cap - 1)
        completed = _run_completion(pk, gens, cap, [_WORK_BUDGET])
        if completed is None:
            return None
        raw, stairs = completed
        if stairs is not None:
            if stairs[1] + 2 <= cap:
                return _finish_primary(pk, raw, stairs)
            # every lead found below the cap is a lead of the ideal, so the
            # ideal's staircase lies inside this one: top + 2 certifies
            cap = stairs[1] + 2
        elif cap == base or min(map(min, gens)) < pk.floor(cap):
            # the doubled base cap certifies most `high-degree` bases; past
            # it only a run that cut generator terms doubles, since on ideals
            # of infinite colength every further run only delays Lazard's route
            cap *= 2
        else:
            return None


def compute_standard_basis(generators: Ideal | Sequence[Polynomial], ring: RingContext) -> ReducedStandardBasis:
    """The reduced standard basis: the capped runs' basis when they certify one, else Lazard's route.

    One Ideal, its generators packed once, serves both routes.  The capped
    runs are read from its record (Ideal._certified), so they run at most
    once per Ideal, and a basis of Lazard's route that comes out m-primary
    is stored there.  A basis of infinite colength keeps the Ideal for its
    membership queries, and its bounded tail reduction runs on first read.
    """
    ideal = _ideal_of(generators, ring)
    basis = ideal._certified
    if basis is not None:
        return basis
    # exact fallback for everything else (including infinite colength)
    pk, raw = _complete_local_by_homogenization(ideal)
    minimal = _minimalize(pk, raw)
    stats = _staircase([pk.monomial(el[0]) for el in minimal], ring.nvars)
    if stats is not None:
        ideal._certified = basis = _finish_primary(pk, minimal, stats)
        return basis
    # infinite colength: cap tail growth at the largest degree present
    # (local keys: the highest degree has the lowest key)
    cap = pk.degree(min(k for el in minimal for k in _terms(el)))
    return _reduced_basis(pk, partial(_reduced_elements, pk, minimal, None, cap), None, None, ideal)


class Ideal:
    """Finitely generated ideal of the local ring at the origin, and the one
    record of what is known about its colength.

    ``generators`` is a tuple of nonzero polynomials of the ring.  The
    record is taken from them once, on first use, each fact at most once.
    ``_handed`` holds one hand-over entry per generator: the generator
    itself when it came as a polynomial, or (packing, terms, scalar class,
    scale) with the terms ``scale`` times the generator on that packing's
    keys over Q (the generator itself over F_p, scale 1) and the
    _scalar_class of the terms, as _from_packed builds them for the minors
    of jacobian._distinct_minors, which come handed because repacking them
    from their polynomials cost ``high-order`` about 8 %.  Such an entry is
    unpacked only when ``generators`` is first read; the colength record,
    sums and every membership test in the ideal read the entries.
    ``_packing`` holds every generator: _Packing.sized for the highest
    degree among the generators packed here, or the widest packing a
    generator came on when that is wider; the width changes no key order.
    A degree past it, a capped run's cap or the escalation's, reads the
    span basis moved once to a packing that holds it (``_span_on``).
    ``_kept``, the survivors, feeds only ``_span`` and Lazard's route;
    ``_span``, their one span basis, is what every
    membership test reads: the capped runs, the escalation and, packed and
    sorted stably by rank as ``_reducers``, the walks.  The colength
    record is ``_open_axes`` (_open_axes_of the generators, a hand-over
    entry read off its keys' exponents) and
    ``_certified``, the m-primary basis or None: the capped runs' basis,
    or Lazard's when compute_standard_basis finds that one m-primary.
    ``_basis`` is the standard basis, computed on its first query.
    """

    def __init__(self, ring: RingContext, generators: Iterable[Polynomial]):
        """Generators are checked for their ring (ValueError) and cleared of zeros."""
        generators = tuple(generators)
        if any(g.ring != ring for g in generators):
            raise ValueError("generator lives in a different ring context")
        self.ring = ring
        self.generators = self._handed = tuple([g for g in generators if not g.is_zero()])

    @classmethod
    def _of_handed(cls, ring: RingContext, handed: Sequence[Polynomial | tuple]) -> "Ideal":
        """The ideal of hand-over entries (internal: the minors, and sums) of
        nonzero generators of the ring; ``generators`` unpacks them on first read."""
        ideal = cls.__new__(cls)
        ideal.ring = ring
        ideal._handed = tuple(handed)
        return ideal

    # -- construction helpers

    @classmethod
    def unit(cls, ring: RingContext) -> "Ideal":
        return cls(ring, [ring.one()])

    @classmethod
    def _from_packed(cls, pk: _Packing, scale: int, packed: Iterable[dict[int, int]]) -> "Ideal":
        """The ideal of the first of each scalar class among nonzero packed
        polynomials, in order, over Q ``scale`` times the true ones: each is
        handed over with its terms, scalar class and scale."""
        seen = set()
        handed = []
        for terms in packed:
            key = _scalar_class(terms, pk.p)
            if key not in seen:
                seen.add(key)
                handed.append((pk, terms, key, scale))
        return cls._of_handed(pk.ring, handed)

    @cached_property
    def generators(self) -> tuple[Polynomial, ...]:
        # only an ideal built from hand-over entries gets here, once
        return tuple([e[0].polynomial(e[1], scale=e[3]) if isinstance(e, tuple) else e for e in self._handed])

    def __repr__(self) -> str:
        inner = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({inner})"

    # -- the colength record

    @cached_property
    def _packing(self) -> _Packing:
        handed = self._handed
        top = max((entry.total_degree() for entry in handed if not isinstance(entry, tuple)), default=0)
        pk = _Packing.sized(self.ring, top)
        for entry in handed:
            if isinstance(entry, tuple) and entry[0].width > pk.width:
                pk = entry[0]
        return pk

    @cached_property
    def _kept(self) -> list[tuple]:
        """(lead, terms, hand-over entry or None) of the first generator of
        each scalar class, in order: terms on ``_packing``'s keys, primitive over Q.

        One of the shape monomial * unit, whose lead divides every term,
        becomes that monomial, with no entry.  A generator handed over on
        a packing of this width brings its scalar class along.
        """
        pk = self._packing
        guards = pk.guards
        seen = set()
        kept = []
        for entry in self._handed:
            if isinstance(entry, tuple):
                src, carried, key, _ = entry
                terms = _moved(src, pk, carried)
                if terms is not carried:
                    key = None
                if not pk.p:
                    terms = _primitive(terms)
            else:
                terms, key = pk.pack(entry), None
            lead = max(terms)
            if lead and all(not (k - lead) & guards for k in terms):
                terms, entry, key = {lead: 1}, None, None
            if key is None:
                key = _scalar_class(terms, pk.p)
            if key not in seen:
                seen.add(key)
                kept.append((lead, terms, entry))
        return kept

    @cached_property
    def _span(self) -> tuple[int, list[dict[int, int]]]:
        """(largest lead degree or -1, span basis) of ``_kept`` in processing order (_intake)."""
        gens = _intake(self)
        # processing order puts the largest lead degree, the largest multiplicity, last
        return self._packing.degree(max(gens[-1])) if gens else -1, _span_basis(self._packing.p, gens)

    def _span_on(self, top: int) -> tuple[_Packing, list[dict[int, int]]]:
        """(packing, span basis) on a packing that holds degree ``top``: the
        ideal's own when it does, else _Packing.sized(ring, top), the span
        basis moved onto it once by way of its exponent tuples."""
        pk, span = self._packing, self._span[1]
        if top <= pk.limit:
            return pk, span
        wide = _Packing.sized(self.ring, top)
        return wide, [_moved(pk, wide, terms) for terms in span]

    @cached_property
    def _reducers(self) -> _PackedBasis:
        # the walks reduce by the span basis, packed once per ideal: on the
        # `verdicts` workload an ideal of infinite colength takes about 8
        # budgeted walks, and repacking for each took 14 % of the run time
        return _PackedBasis(self._packing, self._span[1])

    @cached_property
    def _open_axes(self) -> frozenset[int]:
        nvars = self.ring.nvars
        axes = set(range(nvars))
        for entry in self._handed:
            exponents = map(entry[0].monomial, entry[1]) if isinstance(entry, tuple) else entry.terms
            if _close_axes(axes, exponents, nvars):
                break
        return frozenset(axes)

    @cached_property
    def _certified(self) -> ReducedStandardBasis | None:
        return try_primary_standard_basis(self, self.ring)

    @cached_property
    def _basis(self) -> ReducedStandardBasis:
        return compute_standard_basis(self, self.ring)

    # -- standard basis

    def standard_basis(self) -> ReducedStandardBasis:
        return self._basis

    # -- membership / comparison (local semantics)

    def contains_element(self, f: Polynomial) -> bool:
        if f.ring != self.ring:
            raise ValueError("polynomial lives in a different ring context")
        if f.is_zero():
            return True
        if not self._handed:
            return False
        basis = self._certified
        if basis is not None:
            return basis.contains(f)
        # infinite colength (or a very deep staircase): decide without the
        # full standard basis, whose completion can be enormous
        return _uncertified_membership(f, self)

    def contains_ideal(self, other: "Ideal") -> bool:
        self._check_ring(other)
        return all(self.contains_element(g) for g in other.generators)

    def equals(self, other: "Ideal") -> bool:
        self._check_ring(other)
        a = self._certified
        b = other._certified
        if a is not None and b is not None:
            # equal ideals have equal leading ideals, hence equal staircases,
            # so differing ones refute before either basis is finished
            return a.staircase == b.staircase and a.elements == b.elements
        # an uncertified side may still have finite colength with a deep
        # staircase, so mutual containment is the only safe route
        return self.contains_ideal(other) and other.contains_ideal(self)

    def _check_ring(self, other: "Ideal") -> None:
        if self.ring != other.ring:
            raise ValueError("ideals live in different ring contexts")

    # -- arithmetic

    def __add__(self, other: "Ideal") -> "Ideal":
        self._check_ring(other)
        # both sides' hand-over entries are kept, so packed minors stay packed
        return Ideal._of_handed(self.ring, self._handed + other._handed)

    def __mul__(self, other: "Ideal") -> "Ideal":
        self._check_ring(other)
        return Ideal(self.ring, [f * g for f in self.generators for g in other.generators])

    def __pow__(self, k: int) -> "Ideal":
        if k < 0:
            raise ValueError("negative ideal power")
        # one product per multiset of generators: J^3 on three generators
        # takes 10 products where the ordered ones were 27
        one = self.ring.one()
        return Ideal(self.ring, [prod(c, start=one) for c in combinations_with_replacement(self.generators, k)])

    # -- numerical data

    def dimension(self) -> QuotientDimension:
        """k-dimension of (local ring)/I; INFINITE when the staircase is open.

        An open axis of the generators (the zero ideal's included) proves it
        infinite without a completion.
        """
        if self._open_axes:
            return INFINITE
        return self.standard_basis().dimension()


def maximal_ideal_power(ring: RingContext, k: int) -> Ideal:
    """The ideal generated by all monomials of total degree exactly k."""
    if k < 0:
        raise ValueError("negative power of the maximal ideal")
    if k == 0:
        return Ideal.unit(ring)
    return Ideal(ring, [ring.monomial(alpha) for alpha in multi_indices_in_range(ring.nvars, k, k)])

