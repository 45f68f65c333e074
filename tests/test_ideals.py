import importlib
import itertools
import pkgutil
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

import nashblowup
from nashblowup import ideals
from nashblowup.algebras import invariant_report, nash_ideal_t, tjurina_ideal, tjurina_number
from nashblowup.jacobian import higher_jacobian_ideal
from nashblowup.fields import GF, QQ
from nashblowup.ideals import (
    INFINITE,
    Ideal,
    _certificate_layers,
    _complete_local_by_homogenization,
    _finish_primary,
    _intake,
    _minimalize,
    _moved,
    _Overflow,
    _PackedBasis,
    _Packing,
    _reduced_elements,
    _run_completion,
    _scalar_class,
    _span_basis,
    _staircase,
    _terms,
    compute_standard_basis,
    maximal_ideal_power,
    try_primary_standard_basis,
    weak_normal_form,
)
from nashblowup.polynomials import (
    Polynomial,
    RingContext,
    multi_indices_in_range,
)

from conftest import (
    GRADED_LEX,
    LOCAL_DEGREE,
    P,
    border,
    brute_standard_monomial_count,
    eager_finish_primary,
    eager_infinite_basis,
    first_per_scalar_class,
    homogeneous_polynomial_strategy,
    homogenized,
    homogenized_generators,
    lazard_standard_basis,
    leading_monomial,
    leading_monomials,
    linalg_quotient_dim,
    monomial_strategy,
    nonzero_polynomial_strategy,
    poly_sort_key,
    polynomial_strategy,
    simplify_generators,
)
from conftest import complete_basis as reference_complete_basis
from conftest import escalated_membership as reference_escalation
from conftest import linear_membership_certificate as reference_certificate
from conftest import weak_normal_form as reference_weak_normal_form


def ideal(ring, *texts):
    return Ideal(ring, [P(t, ring) for t in texts])


def homogenized_ideal(gens):
    """The ideal of the generators homogenized by a first variable t."""
    hgens = homogenized(gens, gens[0].ring)
    return Ideal(hgens[0].ring, hgens)


def with_packing(pk, completed):
    """A run's (elements, staircase) after the packing that holds them; None passes through."""
    return None if completed is None else (pk, *completed)


def homogenized_completion(hgens, cost_budget=None):
    """The Buchberger step of Lazard's route on a homogenized_ideal: its intake
    moved to a local packing and the uncapped run there, restarted wider on
    overflow, as (packing, packed elements, staircase)."""
    entries = _intake(hgens)
    pk = _Packing.sized(hgens.ring, 8 * max(g.total_degree() for g in hgens.generators))
    budget = None if cost_budget is None else cost_budget[0]
    while True:
        try:
            return with_packing(pk, _run_completion(
                pk, [_moved(hgens._packing, pk, terms) for terms in entries], None, cost_budget))
        except _Overflow:
            if cost_budget is not None:
                cost_budget[0] = budget
            pk = pk.wider()


def homogenized_reduced_basis(gens):
    """The reduced graded-lex Groebner basis of the homogenized generators, monic,
    as the uncapped run on local keys completes it."""
    pk, raw, _ = homogenized_completion(homogenized_ideal(gens))
    return [el[2] for el in _reduced_elements(pk, _minimalize(pk, raw), None, None)]


def capped_completion(gens, cap, cost_budget=None):
    """One capped run on the intake of the generators, on their packing, which
    holds them and every cap of their schedule, so no step overflows; as
    (packing, packed elements, staircase)."""
    generators = Ideal(gens[0].ring, gens)
    pk = generators._packing
    assert cap - 1 <= pk.limit
    return with_packing(pk, _run_completion(pk, _intake(generators), cap, cost_budget))


def unpacked(completed):
    """A completion's packed elements as polynomials; None passes through."""
    return None if completed is None else [completed[0].polynomial(_terms(el)) for el in completed[1]]


def packed_basis(basis, pk):
    """The polynomials packed on ``pk``, as weak_normal_form takes a packed basis."""
    return _PackedBasis(pk, map(pk.pack, basis))


def certificate(f, gens, degree_bound):
    """Whether one of _certificate_layers up to ``degree_bound`` certifies f over the
    generators, packed on a packing that holds their degrees plus the bound."""
    pk = _Packing.sized(f.ring, max(g.total_degree() for g in (f, *gens)) + degree_bound)
    return any(itertools.islice(_certificate_layers(pk, pk.pack(f), [pk.pack(g) for g in gens]), degree_bound + 1))


class TestStandardBasis:
    def test_principal(self, ring_q2):
        basis = ideal(ring_q2, "x").standard_basis()
        assert [str(e) for e in basis.elements] == ["x"]

    def test_five_generators_collapse(self, ring_q2):
        # x^2*y and x*y^2 are redundant: x^2*y = y*(x^2+y^2) - y^3
        big = ideal(ring_q2, "x^2+y^2", "x^3", "x^2*y", "x*y^2", "y^3")
        small = ideal(ring_q2, "x^2+y^2", "x^3", "y^3")
        assert big.standard_basis().elements == small.standard_basis().elements
        assert big.equals(small)

    def test_unit_factor_is_dropped(self, ring_q1):
        # 1 - x is a local unit, so (x - x^2) = (x)
        basis = ideal(ring_q1, "x - x^2").standard_basis()
        assert [str(e) for e in basis.elements] == ["x"]

    def test_zero_ideal(self, ring_q2):
        basis = Ideal(ring_q2, []).standard_basis()
        assert basis.elements == ()
        assert basis.dimension() is INFINITE

    def test_unit_ideal(self, ring_q2):
        basis = ideal(ring_q2, "1+x").standard_basis()
        assert [str(e) for e in basis.elements] == ["1"]
        assert basis.dimension() == 0

    def test_global_reduced_groebner(self, ring_q2):
        # the Buchberger step of Lazard's route on (x^2 - t*y, x*y - t^2):
        # the reduced graded-lex Groebner basis in (t, x, y), as sympy gives it
        got = {str(e) for e in homogenized_reduced_basis([P("x^2-y", ring_q2), P("x*y-1", ring_q2)])}
        assert got == {"t^2 - x*y", "t*y - x^2", "t*x^2 - x*y^2", "x^4 - x*y^3"}


class TestNormalForm:
    """Membership in a computed basis, which reads its packed normal form."""

    def test_membership_via_explicit_cofactors(self, ring_q2):
        # oracle first: x^2*y = y*(x^2+y^2) - y^3 exactly
        f = P("x^2*y", ring_q2)
        combo = P("y", ring_q2) * P("x^2+y^2", ring_q2) - P("y^3", ring_q2)
        assert combo == f
        basis = ideal(ring_q2, "x^2+y^2", "x^3", "y^3").standard_basis()
        assert basis.contains(f)

    def test_basis_elements_reduce_to_zero(self, ring_q2):
        basis = ideal(ring_q2, "x^2+y^2", "x^3", "y^3").standard_basis()
        for e in basis.elements:
            assert basis.contains(e)

    def test_units_never_in_proper_ideal(self, ring_q2):
        basis = ideal(ring_q2, "x", "y").standard_basis()
        assert not basis.contains(ring_q2.one())

    def test_mora_handles_unit_multiples(self, ring_q2):
        # x = (1-y)^(-1) * (x - x*y) needs the intermediate-reducer trick
        basis = ideal(ring_q2, "x - x*y").standard_basis()
        assert basis.contains(P("x", ring_q2))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_local_keys_lead_homogeneous_polynomials_as_graded_lex(data):
    # the fact Lazard's route rests on: the terms of a homogeneous polynomial
    # share one degree, so its largest local key is its graded-lex lead
    field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    nvars = data.draw(st.integers(1, 4))
    ring = RingContext(("t", "x", "y", "z")[:nvars], field)
    p = data.draw(homogeneous_polynomial_strategy(ring, max_terms=6, max_degree=8).filter(bool))
    pk = _Packing.sized(ring, p.total_degree())
    assert pk.monomial(max(pk.pack(p))) == leading_monomial(p, GRADED_LEX)


class TestPackedNormalForm:
    """The packed kernel against the tuple/Fraction reference in conftest."""

    @staticmethod
    def both(f, basis, order, bound=None, budget=None):
        got = weak_normal_form(f, basis, bound, budget)
        return got, reference_weak_normal_form(f, basis, order, bound, budget)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
        nvars = data.draw(st.integers(1, 3))
        ring = RingContext(("x", "y", "z")[:nvars], field)
        # on homogeneous input every ecart is 0, and the walk on local keys is
        # Buchberger's graded-lex normal form, as Lazard's route reduces
        order = data.draw(st.sampled_from([LOCAL_DEGREE, GRADED_LEX]))
        strategy = polynomial_strategy if order is LOCAL_DEGREE else homogeneous_polynomial_strategy
        polys = st.lists(strategy(ring, max_terms=4, max_degree=5), min_size=1, max_size=4)
        basis = [g for g in data.draw(polys) if not g.is_zero()]
        f = data.draw(strategy(ring, max_terms=6, max_degree=7))
        if not field.is_prime_field:
            # rational and bignum coefficients reach the fraction-free steps
            scales = st.sampled_from([1, -1, Fraction(1, 2), Fraction(3, 7), Fraction(2**40, 3), 5**30])
            f = f.scalar_mul(data.draw(scales))
            basis = [g.scalar_mul(data.draw(scales)) for g in basis]
        bound = data.draw(st.none() | st.integers(1, 9))
        budget = data.draw(st.none() | st.integers(0, 300))
        if budget is None and bound is None and order == LOCAL_DEGREE:
            # Mora's walk terminates but can take millions of steps, for
            # instance when a unit with a large ecart is a reducer
            budget = 20_000
        got, want = self.both(f, basis, order, bound, budget)
        assert got == want
        if basis:
            # the same through a basis packed once, sized for the basis alone
            pk = _Packing.sized(ring, max(g.total_degree() for g in basis))
            assert weak_normal_form(f, packed_basis(basis, pk), bound, budget) == want

    @pytest.mark.parametrize(
        "f,basis,bound",
        [
            # the term the bound drops counts towards the content: -2*y, not -y
            ("x", ["x+2*y+y^3"], 3),
            # x*y - y^3 ties a basis element and the recorded x + x*y on
            # (ecart, length); the basis element comes first
            ("x+x*y", ["x+y^3", "x*y+x^2*y"], 6),
        ],
    )
    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)])
    def test_pinned_cases(self, f, basis, bound, field):
        ring = RingContext(("x", "y"), field)
        got, want = self.both(P(f, ring), [P(g, ring) for g in basis], LOCAL_DEGREE, bound)
        assert got == want

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)])
    @pytest.mark.parametrize("budget", [None, 10**6])
    def test_widening_past_the_default_width(self, field, budget):
        # each step multiplies by x^100: the walk reaches x^500, past the
        # fields sized from the input's degree 100, and restarts wider with
        # its budget afresh
        ring = RingContext(("x", "y"), field)
        f, g = P("y^5", ring), P("y - x^100", ring)
        assert 500 > _Packing.sized(ring, 100).limit
        got, want = self.both(f, [g], LOCAL_DEGREE, budget=budget)
        assert got == want
        assert got.total_degree() >= 500
        assert weak_normal_form(f, packed_basis([g], _Packing.sized(ring, 100))) == want

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_wider_basis_moves_the_reducers(self, data):
        # the restart's basis: the reducers moved, as if packed afresh
        field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
        nvars = data.draw(st.integers(1, 3))
        ring = RingContext(("x", "y", "z")[:nvars], field)
        basis = data.draw(st.lists(nonzero_polynomial_strategy(ring, max_terms=4, max_degree=5), max_size=4))
        if field is QQ:
            basis = [g.scalar_mul(data.draw(st.sampled_from([1, -1, Fraction(3, 7), 5**30]))) for g in basis]
        pk = _Packing.sized(ring, 5)
        wider = packed_basis(basis, pk).wider()
        assert wider.packing.width == 2 * pk.width
        assert wider.reducers == packed_basis(basis, wider.packing).reducers

    @pytest.mark.parametrize("foreign", [RingContext(("x", "y", "z"), QQ), RingContext(("x", "y"), GF(5))])
    def test_basis_from_another_ring_is_refused(self, ring_q2, foreign):
        # x^2*z from Q[x,y,z] once reduced x^2 of Q[x,y] to zero
        f, g = P("x^2", ring_q2), P("x^2*z" if "z" in foreign.variables else "x^2", foreign)
        with pytest.raises(ValueError, match="different ring context"):
            weak_normal_form(f, [P("y", ring_q2), g])
        with pytest.raises(ValueError, match="different ring context"):
            weak_normal_form(f, packed_basis([g], _Packing.sized(foreign, 3)))

    def test_zero_basis_polynomials_are_skipped(self, ring_q2):
        f, zero = P("x^2+y^3", ring_q2), ring_q2.zero()
        assert weak_normal_form(f, [zero]) == f
        assert weak_normal_form(f, [zero, P("x^2", ring_q2), zero], bound=3) == ring_q2.zero()

    WEDGES = [
        ("1 + y^2 + y^5", "1 + x^3 - x^5"),
        ("7*x*y^2 + x^6 - x*y^5 + 5*x^7", "4 - x^3 + 3*x^5"),
    ]

    @pytest.mark.parametrize("f,g", WEDGES)
    def test_budget_bounds_coefficient_growth(self, ring_q2, f, g):
        # a step limit let these walks run 2.7 s at 300 steps and 42 s at 350
        # as their coefficients grew; the budget charges that growth
        start = time.perf_counter()
        assert weak_normal_form(P(f, ring_q2), [P(g, ring_q2)], budget=ideals._WORK_BUDGET) is None
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("bound", [12, 16])
    @pytest.mark.parametrize("f,g", WEDGES)
    def test_least_budget_matches_reference(self, ring_q2, f, g, bound):
        # truncated, these walks end after their lead coefficients outgrow
        # one word, so the least budget that lets each end counts the words
        f, g = P(f, ring_q2), P(g, ring_q2)

        def least(walk):
            lo, hi = 0, 10**5
            while lo < hi:
                mid = (lo + hi) // 2
                lo, hi = (mid + 1, hi) if walk(mid) is None else (lo, mid)
            return lo

        got = least(lambda budget: weak_normal_form(f, [g], bound, budget))
        assert 0 < got < 10**5
        assert got == least(lambda budget: reference_weak_normal_form(f, [g], LOCAL_DEGREE, bound, budget))


class TestLinearCertificate:
    """The packed certificate against the tuple/Fraction reference in conftest."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
        nvars = data.draw(st.integers(1, 3))
        ring = RingContext(("x", "y", "z")[:nvars], field)
        # the span has C(degree_bound + nvars, nvars) rows per generator
        degree_bound = data.draw(st.integers(0, (8, 8, 5)[nvars - 1]))
        polys = st.lists(polynomial_strategy(ring, max_terms=3, max_degree=4), min_size=1, max_size=3)
        gens = [g for g in data.draw(polys) if not g.is_zero()] or [ring.variable(0)]
        inside = data.draw(st.booleans())
        if inside:
            # a combination with cofactors inside the degree bound: certified
            cofactors = st.lists(polynomial_strategy(ring, max_terms=3, max_degree=degree_bound),
                                 min_size=len(gens), max_size=len(gens))
            f = sum((g * c for g, c in zip(gens, data.draw(cofactors))), ring.zero())
        else:
            f = data.draw(polynomial_strategy(ring, max_terms=4, max_degree=6))
        if f.is_zero():
            return
        if not field.is_prime_field:
            # rational and bignum coefficients reach the fraction-free rows
            scales = st.sampled_from([1, -1, Fraction(1, 2), Fraction(-3, 7), Fraction(2**40, 3), 5**30])
            f = f.scalar_mul(data.draw(scales))
            gens = [g.scalar_mul(data.draw(scales)) for g in gens]
        got = certificate(f, gens, degree_bound)
        assert got == reference_certificate(f, gens, degree_bound)
        if inside:
            assert got

    def test_stops_at_the_first_certifying_layer(self, ring_q2, monkeypatch):
        # x^2 = (x^2 - x^3) + x * x^2 is certified at layer 1: the generator's
        # row at layer 0, then the rows of the generator and of f times x and y
        f, g = P("x^2", ring_q2), P("x^2-x^3", ring_q2)
        rows = []
        original_insert = ideals._Echelon.insert
        monkeypatch.setattr(ideals._Echelon, "insert", lambda e, row: rows.append(row) or original_insert(e, row))
        assert not certificate(f, [g], 0)
        rows.clear()
        assert certificate(f, [g], 4)
        assert len(rows) == 1 + 2 * 2

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)])
    def test_unit_multiple_needs_the_bound(self, field):
        # (1 - x) * x^2 = x^2 - x^3 lies in (x^2 - x^3) only through the unit
        # 1 - x, so f = x^2 needs u's tail x and the certificate at bound 1
        ring = RingContext(("x", "y"), field)
        f, g = P("x^2", ring), P("x^2-x^3", ring)
        assert not certificate(f, [g], 0)
        assert certificate(f, [g], 1)


class TestFieldWidening:
    @staticmethod
    def narrow(mp, width, widened):
        """Make every packing start ``width`` bits wide; record each widening."""
        original_wider = _Packing.wider
        mp.setattr(_Packing, "sized", classmethod(lambda cls, ring, top: cls(ring, width)))
        mp.setattr(_Packing, "wider", lambda pk: widened.append(pk.width) or original_wider(pk))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_completion_restarts_to_the_same_basis(self, data):
        # fields one to three bits wide overflow early or midway: the
        # homogenized step of Lazard's route restarts, wider, until the fields
        # hold it, and must end where a roomy run ends, with the same budget left
        field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
        nvars = data.draw(st.integers(1, 3))
        ring = RingContext(("x", "y", "z")[:nvars], field)
        polys = st.lists(polynomial_strategy(ring, max_terms=4, max_degree=5), min_size=1, max_size=4)
        # no units: a unit ends the run before the wider generators are packed
        gens = [g for g in data.draw(polys) if not g.is_zero() and not g.is_unit_at_origin()]
        if not gens:
            return
        budget = data.draw(st.none() | st.integers(0, 2000))
        # the first run resolves the ideal's intake on roomy fields, the
        # second reads it and moves it to the narrow ones
        hgens = homogenized_ideal(gens)

        def run():
            left = None if budget is None else [budget]
            return unpacked(homogenized_completion(hgens, left)), left

        want = run()
        width = data.draw(st.integers(1, 3))
        widened = []
        with pytest.MonkeyPatch.context() as mp:
            self.narrow(mp, width, widened)
            got = run()
        assert got == want
        if want[0] is not None and max(g.total_degree() for g in gens) > 2**width - 1:
            assert widened


class TestCompletionAgainstReference:
    """The pair loop on packed keys, stopped at the truncation bound, against
    the tuple-keyed loop in conftest that runs every pair."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_elements_order_and_budget(self, data):
        field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
        nvars = data.draw(st.integers(1, 3))
        ring = RingContext(("x", "y", "z")[:nvars], field)
        if field is QQ:
            # rationals and bignums: every charge reads the packed coefficient's size
            coeff = st.integers(-4, 4) | st.fractions(max_denominator=50) | st.integers(-(10**40), 10**40)
        else:
            coeff = st.integers(0, field.characteristic - 1)
        term = st.tuples(monomial_strategy(nvars, 5), coeff)
        polys = st.lists(st.lists(term, min_size=1, max_size=4), min_size=1, max_size=4)
        gens = [g for g in (sum((ring.monomial(a, c) for a, c in ts), ring.zero()) for ts in data.draw(polys))
                if not g.is_zero()]
        if not gens:
            return
        if data.draw(st.booleans()):
            # initial forms: every s-polynomial keeps terms at its lcm degree,
            # which a cut one degree early would lose
            gens = [g.truncate_at_degree(g.multiplicity() + 1) for g in gens]
        # nonzero scalar multiples of drawn generators, anywhere in the list:
        # the intake keeps the first of each class, the reference gets only those
        nonzero = coeff.filter(bool)
        for i, c, at in data.draw(st.lists(st.tuples(st.integers(0, len(gens) - 1), nonzero, st.integers(0, 4)),
                                           max_size=2)):
            gens.insert(min(at, len(gens)), gens[i].scalar_mul(c))
        capped = data.draw(st.booleans())
        # a budget stops every run, a wrong one included: each insert charges it
        budget = data.draw(st.integers(0, 30_000))

        def both(run_mine, run_reference):
            mine, reference = [budget], [budget]
            got, want = run_mine(mine), run_reference(reference)
            assert unpacked(got) == unpacked(want)
            assert mine == reference
            if got is None:
                return
            pk, elements, stairs = got
            assert stairs == want[2]
            if stairs is not None:
                # the count the run took of its leads, recounted by brute
                # force on the minimal ones: no standard monomial has degree
                # top + 1, and one has degree top
                leads = [pk.monomial(el[0]) for el in _minimalize(pk, elements)]
                count, top = stairs

                def below(degree):
                    return brute_standard_monomial_count(leads, pk.ring.nvars, degree) if degree > 0 else 0

                assert below(top + 2) == count
                assert count == 0 or below(top) < count

        if not capped:
            # the Buchberger step of Lazard's route: the generators
            # homogenized, a single term replaced by its monomial, uncapped
            distinct = first_per_scalar_class(simplify_generators(homogenized(gens, ring), LOCAL_DEGREE))
            both(lambda b: homogenized_completion(homogenized_ideal(gens), b),
                 lambda b: reference_complete_basis(distinct, LOCAL_DEGREE, None, b))
            return
        # the capped route: monomial * unit replaced, packed once on a packing
        # that holds the top degree and the last cap, then cut at each cap in turn
        distinct = first_per_scalar_class(simplify_generators(gens, LOCAL_DEGREE))
        caps = sorted(data.draw(st.lists(st.integers(1, 10), min_size=2, max_size=2)))
        generators = Ideal(ring, gens)
        pk, packed = generators._packing, _intake(generators)
        for c in caps:
            both(lambda b: with_packing(pk, _run_completion(pk, packed, c, b)),
                 lambda b: reference_complete_basis(distinct, LOCAL_DEGREE, c, b))

    def test_duplicate_charges_no_budget(self, ring_q2):
        gens = [P(t, ring_q2) for t in ("x^2 + y^3", "x*y", "-2*x^2 - 2*y^3")]
        with_duplicate, without = [10**6], [10**6]
        got = unpacked(capped_completion(gens, 8, with_duplicate))
        assert got == unpacked(capped_completion(gens[:2], 8, without))
        assert with_duplicate == without


def record_packs_and_runs(monkeypatch):
    """Lists that collect each polynomial _Packing.pack sees and each capped run's generator count."""
    packed, runs = [], []
    original_pack, original_run = _Packing.pack, ideals._run_completion
    monkeypatch.setattr(_Packing, "pack", lambda pk, poly: packed.append(poly) or original_pack(pk, poly))
    monkeypatch.setattr(ideals, "_run_completion",
                        lambda pk, g, cap, b: runs.append(len(g)) or original_run(pk, g, cap, b))
    return packed, runs


def test_two_cap_give_up_packs_each_generator_once(ring_q3, monkeypatch):
    # every variable has a pure power among the terms, but V(I) holds the
    # line x = y, z = 0, so neither cap certifies; the scalar multiple
    # 2*x^2 - 2*x*y is packed once and dropped at the intake, which replaces
    # monomial * unit on the packed keys, after packing
    gens = [P(t, ring_q3) for t in ("x^2 - x*y", "y^2 - x*y + z^2", "2*x^2 - 2*x*y")]
    packed, runs = record_packs_and_runs(monkeypatch)
    assert try_primary_standard_basis(gens, ring_q3) is None
    assert runs == [2, 2]
    assert packed == gens
    assert Ideal(ring_q3, gens).dimension() is INFINITE


def test_open_axis_exits_before_packing(ring_q3, monkeypatch):
    # no term of (x*y, x*z + y^3) is a power of x alone: the x-axis lies in V(I)
    gens = [P(t, ring_q3) for t in ("x*y", "x*z + y^3", "2*x*y")]
    packed, runs = record_packs_and_runs(monkeypatch)
    assert try_primary_standard_basis(gens, ring_q3) is None
    assert packed == [] and runs == []


class TestOpenAxis:
    """The axis exit and refutation against Lazard's route and the escalation."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_against_lazard_and_escalation(self, data):
        field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
        nvars = data.draw(st.integers(1, 3))
        ring = RingContext(("x", "y", "z")[:nvars], field)
        polys = st.lists(nonzero_polynomial_strategy(ring, max_terms=3, max_degree=4), min_size=1, max_size=3)
        gens = data.draw(polys)
        axes = ideals._open_axes_of(gens, nvars)
        powers = [ring.monomial(tuple(data.draw(st.integers(1, 4)) if i == v else 0 for i in range(nvars)))
                  for v in range(nvars)]
        assert not ideals._open_axes_of(gens + powers, nvars)
        if not axes:
            return
        assert try_primary_standard_basis(gens, ring) is None
        assert compute_standard_basis(gens, ring).staircase is None
        f = data.draw(nonzero_polynomial_strategy(ring, max_terms=3, max_degree=4))
        if not axes <= ideals._open_axes_of([f], nvars):
            assert not Ideal(ring, gens).contains_element(f)
            assert not ideals._escalated_membership(f, Ideal(ring, gens))

    @pytest.mark.parametrize("texts, axes", [
        (("x*y", "x*z + y^3"), {0, 2}),
        (("x^2*y",), {0, 1, 2}),
        (("x*y*z",), {0, 1, 2}),
        (("x^2 + y^2*z",), {1, 2}),
        (("x^2 - x*y", "y^2 - x*y + z^2"), set()),
        (("1 + x*y",), set()),
    ])
    def test_known_axes(self, ring_q3, texts, axes):
        assert ideals._open_axes_of([P(t, ring_q3) for t in texts], 3) == axes

    def test_refutes_a_term_on_the_axis(self, ring_q3, monkeypatch):
        # z^3 + x*y lies outside (x^2 + y^2*z), which lies in (x, y); so does 3 + x
        i = ideal(ring_q3, "x^2 + y^2*z")
        monkeypatch.setattr(ideals, "_escalated_membership", lambda f, gens: pytest.fail("escalated"))
        assert not i.contains_element(P("z^3 + x*y", ring_q3))
        assert not i.contains_element(P("3 + x", ring_q3))


def record_packs_inside_escalations(monkeypatch):
    """A list that collects each polynomial _Packing.pack sees inside _escalated_membership."""
    packed, depth = [], []
    original_pack, original_escalation = _Packing.pack, ideals._escalated_membership

    def pack(pk, poly):
        if depth:
            packed.append(poly)
        return original_pack(pk, poly)

    def escalation(f, gens):
        depth.append(f)
        try:
            return original_escalation(f, gens)
        finally:
            depth.pop()

    monkeypatch.setattr(_Packing, "pack", pack)
    monkeypatch.setattr(ideals, "_escalated_membership", escalation)
    return packed


def test_escalation_out_of_rounds_raises_membership_undecided(ring_q2, monkeypatch):
    # neither side ever settles: no certificate, and nothing left to refute;
    # the generators come packed, the escalation moves them once to one
    # packing that holds the last round's cap and certificate layer, and no
    # generator is packed inside the escalation
    caps, packings, drawn = [], [], []
    f = P("x^3*y", ring_q2)
    gens = Ideal(ring_q2, [P("x^2*y", ring_q2)])
    # packed as the walk before every escalation packs them
    assert gens._reducers.reducers

    def layers(pk, target, rows):
        packings.append(pk)
        for e in itertools.count():
            assert max(pk.degree(min(terms)) for terms in (target, *rows)) + e <= pk.limit
            drawn.append(e)
            yield False

    def capped(pk, span, cap, budget):
        assert cap - 1 <= pk.limit
        packings.append(pk)
        caps.append(cap)
        return [], None

    monkeypatch.setattr(ideals, "_certificate_layers", layers)
    monkeypatch.setattr(ideals, "_run_completion", capped)
    monkeypatch.setattr(ideals, "_normal_form", lambda *args: {})
    packed = record_packs_inside_escalations(monkeypatch)
    with pytest.raises(ideals.MembershipUndecided) as caught:
        ideals._escalated_membership(f, gens)
    assert isinstance(caught.value, RuntimeError)
    assert (caught.value.rounds, caught.value.cap) == (len(caps), caps[-1]) == (12, 549)
    # one echelon, drawn layer by layer up to degree 4 * 12, on one packing
    assert drawn == list(range(49))
    assert all(pk is packings[0] for pk in packings)
    # only f, the certificate's target, which each refutation truncates
    assert packed == [f]


def test_escalation_packs_only_f(ring_q2, monkeypatch):
    # T_2 of x^2*y has infinite colength, and x^3 lies outside it: the
    # escalation decides, packing x^3 and its truncations but no generator
    f = P("x^3", ring_q2)
    ideal = nash_ideal_t(P("x^2*y", ring_q2), 2)
    packed = record_packs_inside_escalations(monkeypatch)
    assert not ideal.contains_element(f)
    assert packed
    assert all(poly in [f.truncate_at_degree(d) for d in range(f.total_degree() + 2)] for poly in packed)


class TestEscalationAgainstReference:
    """_escalated_membership against membership read off Lazard's route as it
    ran on polynomials (conftest): f lies in the ideal iff its weak normal
    form against that standard basis is zero."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_same_answer(self, data):
        field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
        nvars = data.draw(st.integers(1, 3))
        ring = RingContext(("x", "y", "z")[:nvars], field)
        gens = data.draw(st.lists(nonzero_polynomial_strategy(ring, max_terms=3, max_degree=4), min_size=1, max_size=3))
        if data.draw(st.booleans()):
            # pure powers make the colength finite; without them it is often infinite
            gens += [ring.monomial(tuple(data.draw(st.integers(2, 5)) if j == i else 0 for j in range(nvars)))
                     for i in range(nvars)]
        member = data.draw(st.booleans())
        if member:
            # a combination of the generators times a unit
            scale = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 7)]) if field is QQ else \
                st.integers(1, field.characteristic - 1)
            tail = data.draw(polynomial_strategy(ring, max_terms=2, max_degree=2))
            unit = ring.constant(data.draw(scale)) + Polynomial(ring, {a: c for a, c in tail.terms.items() if sum(a)})
            cofactors = data.draw(st.lists(polynomial_strategy(ring, max_terms=2, max_degree=2),
                                           min_size=len(gens), max_size=len(gens)))
            f = unit * sum((g * c for g, c in zip(gens, cofactors)), ring.zero())
        elif data.draw(st.booleans()):
            f = data.draw(polynomial_strategy(ring, max_terms=4, max_degree=5))
        else:
            # some terms of a generator: often in I + m^cap for the first caps
            # without lying in I, so the refutation needs later rounds
            g = data.draw(st.sampled_from(gens))
            part = data.draw(st.lists(st.sampled_from(sorted(g.terms)), min_size=1, unique=True))
            f = Polynomial(ring, {a: g.terms[a] for a in part})
        basis = lazard_standard_basis(gens, ring)
        # on infinite colength Mora's walk can run long, its coefficients
        # growing over Q; nearly every example decides within 25 steps
        reduced = reference_weak_normal_form(f, basis.elements, LOCAL_DEGREE, basis.truncation, budget=20_000)
        if reduced is None:
            reject()
        if member:
            assert reduced.is_zero()
        assert ideals._escalated_membership(f, Ideal(ring, gens)) == reduced.is_zero()

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_same_verdict_as_the_polynomial_escalation(self, data):
        # against the escalation that packed its generators afresh each
        # round (conftest), over ideals of infinite colength: the zero ideal
        # in one variable, generators with a common nonunit factor in more
        field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
        nvars = data.draw(st.integers(1, 3))
        ring = RingContext(("x", "y", "z")[:nvars], field)
        gens = []
        if nvars > 1:
            common = Polynomial(ring, {a: c for a, c in data.draw(
                nonzero_polynomial_strategy(ring, max_terms=2, max_degree=2)).terms.items() if sum(a)})
            if common.is_zero():
                common = ring.variable(0)
            gens = [common * g for g in data.draw(
                st.lists(nonzero_polynomial_strategy(ring, max_terms=3, max_degree=3), min_size=1, max_size=3))]
        if gens and data.draw(st.booleans()):
            # a member: a combination of the generators times a unit
            tail = data.draw(polynomial_strategy(ring, max_terms=2, max_degree=2))
            unit = ring.one() + Polynomial(ring, {a: c for a, c in tail.terms.items() if sum(a)})
            cofactors = data.draw(st.lists(polynomial_strategy(ring, max_terms=2, max_degree=2),
                                           min_size=len(gens), max_size=len(gens)))
            f = unit * sum((g * c for g, c in zip(gens, cofactors)), ring.zero())
        elif gens and data.draw(st.booleans()):
            # some terms of a generator: the refutation may need later rounds
            g = data.draw(st.sampled_from(gens))
            part = data.draw(st.lists(st.sampled_from(sorted(g.terms)), min_size=1, unique=True))
            f = Polynomial(ring, {a: g.terms[a] for a in part})
        else:
            f = data.draw(polynomial_strategy(ring, max_terms=4, max_degree=5))
        if f.is_zero():
            return

        def verdict(escalate, basis):
            try:
                return escalate(f, basis)
            except ideals.MembershipUndecided as undecided:
                return undecided.rounds, undecided.cap, undecided.budget

        # both sides escalate over the survivors of the scalar-class check
        survivors = first_per_scalar_class(simplify_generators(gens, LOCAL_DEGREE))
        assert verdict(ideals._escalated_membership, Ideal(ring, gens)) == verdict(
            reference_escalation, survivors)


def intake_of(pk, survivors, order):
    """What the intake returns on ``pk`` when exactly ``survivors`` survive its scalar-class check:
    under the local order sorted by lead alone, in the survivors' order on equal leads (_intake);
    under graded lex by poly_sort_key (Lazard's route)."""
    def key(q):
        return order.key(leading_monomial(q, order)) if order == LOCAL_DEGREE else poly_sort_key(q, order)

    return [pk.pack(g) for g in sorted(survivors, key=key, reverse=True)]


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_simplify_drops_nonzero_scalar_multiples(field):
    ring = RingContext(("x", "y"), field)
    gens = [P(t, ring) for t in ("x^2+y^3", "-3*x^2-3*y^3", "x^2+2*y^3", "2*x*y", "x^2+y^3", "-x*y")]
    generators = Ideal(ring, gens)
    # 2*x*y enters as its monomial x*y, which -x*y repeats
    survivors = simplify_generators([gens[0], gens[2], gens[3]], LOCAL_DEGREE)
    assert _intake(generators) == intake_of(generators._packing, survivors, LOCAL_DEGREE)


class TestIntake:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_keeps_the_first_of_each_scalar_class(self, data):
        field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
        nvars = data.draw(st.integers(1, 3))
        ring = RingContext(("x", "y", "z")[:nvars], field)
        base = data.draw(st.lists(nonzero_polynomial_strategy(ring, max_terms=3, max_degree=4), min_size=1, max_size=4))
        if field is QQ:
            scalar = (st.sampled_from([1, -1]) | st.fractions(max_denominator=50)
                      | st.integers(-(10**40), 10**40)).filter(bool)
        else:
            scalar = st.integers(1, field.characteristic - 1)
        picks = st.tuples(st.integers(0, len(base) - 1), scalar)
        gens = [base[i].scalar_mul(c) for i, c in data.draw(st.lists(picks, min_size=1, max_size=8))]
        generators = Ideal(ring, gens)
        survivors = first_per_scalar_class(simplify_generators(gens, LOCAL_DEGREE))
        assert _intake(generators) == intake_of(generators._packing, survivors, LOCAL_DEGREE)


class TestHandOver:
    """J_n's minors reach the capped intake as packed terms, and the capped
    runs complete a basis of the generators' k-span."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_capped_intake_matches_the_polynomials(self, data):
        field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
        nvars = data.draw(st.integers(1, 3))
        # three variables at n = 3 take seconds per germ
        n = data.draw(st.integers(1, 3 if nvars < 3 else 2))
        ring = RingContext(("x", "y", "z")[:nvars], field)
        f = data.draw(nonzero_polynomial_strategy(ring, max_terms=3, max_degree=4))
        if field is QQ:
            # denominators make the minors' common scale D^k exceed 1
            f = f.scalar_mul(Fraction(data.draw(st.integers(-9, 9).filter(bool)), data.draw(st.integers(2, 12))))
        self.assert_hand_over_exact(f, n)

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)])
    @pytest.mark.parametrize("text, scalar, n", [
        # over Q the minors' common scale shares factors with lead coefficients
        ("x^2+y^3", Fraction(1, 3), 2),
        ("x^3+x*y^4", Fraction(-2, 9), 3),
        ("x^2*y+y^4+x^5", Fraction(5, 6), 3),
        ("x*y+z^3", Fraction(3, 4), 2),
    ])
    def test_pinned_hand_overs(self, field, text, scalar, n):
        ring = RingContext(("x", "y", "z") if "z" in text else ("x", "y"), field)
        f = P(text, ring)
        self.assert_hand_over_exact(f.scalar_mul(scalar) if field is QQ else f, n)

    @pytest.mark.parametrize("field", [QQ, GF(5)])
    @pytest.mark.parametrize("high", [False, True])
    def test_packed_generators_reuse_the_handed_terms(self, field, high):
        ring = RingContext(("x", "y"), field)
        i = nash_ideal_t(P("x^3+x*y^4", ring).scalar_mul(Fraction(-2, 9) if field is QQ else 1), 3)
        carried = i._handed[-1][0]
        if high:
            # a generator too high for the minors' packing: their terms move
            i = Ideal(ring, [ring.monomial((0, 300))]) + i
        packed = i._reducers
        pk = packed.packing
        assert (pk.width > carried.width) == high
        # the walks read the span basis of the survivors, sorted stably by rank
        survivors = first_per_scalar_class(simplify_generators(i.generators, LOCAL_DEGREE))
        span = _span_basis(pk.p, intake_of(pk, survivors, LOCAL_DEGREE))
        assert packed.reducers == sorted(map(pk.element, span), key=ideals._rank)

    @staticmethod
    def assert_hand_over_exact(f, n):
        """The capped intake of (f) + J_n(f) from handed-over keys, against its polynomials."""
        ideal = nash_ideal_t(f, n)
        survivors = first_per_scalar_class(simplify_generators(ideal.generators, LOCAL_DEGREE))
        assert _intake(ideal) == intake_of(ideal._packing, survivors, LOCAL_DEGREE)
        # another width: a generator too high for the minors' packing moves
        # the handed-over keys by way of exponent tuples
        ring = f.ring
        high = ideal + Ideal(ring, [ring.monomial((0,) * (ring.nvars - 1) + (300,))])
        assert high._packing.width > ideal._packing.width
        survivors = first_per_scalar_class(simplify_generators(high.generators, LOCAL_DEGREE))
        assert _intake(high) == intake_of(high._packing, survivors, LOCAL_DEGREE)

    @staticmethod
    def rank(rows, p):
        """Rank of the packed rows over F_p or Q, by Gaussian elimination on field elements."""
        pivots = {}
        for row in rows:
            row = {k: Fraction(c) if not p else c % p for k, c in row.items()}
            while row:
                lead = max(row)
                if lead not in pivots:
                    pivots[lead] = row
                    break
                pivot = pivots[lead]
                factor = row[lead] / pivot[lead] if not p else row[lead] * pow(pivot[lead], -1, p) % p
                for k, c in pivot.items():
                    v = row.get(k, 0) - factor * c
                    if p:
                        v %= p
                    if v:
                        row[k] = v
                    else:
                        row.pop(k, None)
        return len(pivots)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_span_basis_keeps_each_generator_that_raises_the_rank(self, data):
        field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
        nvars = data.draw(st.integers(1, 3))
        ring = RingContext(("x", "y", "z")[:nvars], field)
        base = data.draw(st.lists(nonzero_polynomial_strategy(ring, max_terms=4, max_degree=4), min_size=1, max_size=5))
        gens = list(base)
        scalar = st.integers(-3, 3) if field is QQ else st.integers(0, field.characteristic - 1)
        # linear combinations of the drawn ones, dependent by construction
        for picks in data.draw(st.lists(st.lists(st.tuples(st.integers(0, len(base) - 1), scalar),
                                                 min_size=1, max_size=3), max_size=5)):
            g = sum((base[i].scalar_mul(c) for i, c in picks), ring.zero())
            if not g.is_zero():
                gens.insert(data.draw(st.integers(0, len(gens))), g)
        generators = Ideal(ring, gens)
        p = generators._packing.p
        rows = _intake(generators)
        expected = [e for i, e in enumerate(rows) if self.rank(rows[:i + 1], p) > self.rank(rows[:i], p)]
        assert _span_basis(p, rows) == expected

    def test_capped_route_rescues_a_three_variable_germ(self, ring_q3):
        # its 3,335 generators span 832 dimensions over Q; on the full list
        # both capped runs ran out of budget and Lazard's route took 24-55 s
        ideal = nash_ideal_t(P("x^2+y^3+x*z^3", ring_q3), 3)
        basis = try_primary_standard_basis(ideal, ring_q3)
        assert basis is not None
        assert basis.dimension() == 386


@pytest.mark.parametrize("field", [QQ, GF(5)])
@pytest.mark.parametrize("kind", ["principal", "nash"])
def test_an_ideal_packs_each_generator_once(field, kind, monkeypatch):
    # (x^2 + y^2) and T_2(x^2*y) have infinite colength: the capped runs,
    # the walks, the escalations and Lazard's route all read the one
    # resolution of the ideal's generators, so the plain generator is packed once
    ring = RingContext(("x", "y"), field)
    ideal = Ideal(ring, [P("x^2+y^2", ring)]) if kind == "principal" else nash_ideal_t(P("x^2*y", ring), 2)
    g = ideal.generators[0]
    packed = []
    original = _Packing.pack
    monkeypatch.setattr(_Packing, "pack", lambda pk, poly: packed.append(poly) or original(pk, poly))
    assert not ideal.contains_element(P("x", ring))
    assert ideal.standard_basis().dimension() is INFINITE
    assert not ideal.contains_element(P("y^3", ring))
    assert sum(poly is g for poly in packed) == 1


@pytest.mark.parametrize("field, kind", [(QQ, "principal"), (GF(5), "principal"), (QQ, "nash")])
def test_each_capped_run_happens_once_per_ideal(field, kind, completion_runs):
    # outside the escalation's refutations only the capped route passes a
    # budget; a failed attempt is kept in the ideal's record, so
    # standard_basis() goes on to Lazard's route
    ring = RingContext(("x", "y"), field)
    ideal = Ideal(ring, [P("x^2+y^2", ring)]) if kind == "principal" else nash_ideal_t(P("x^2*y", ring), 2)
    assert not ideal.contains_element(P("x", ring))
    ideal.standard_basis()
    assert ideal.dimension() is INFINITE
    assert not ideal.contains_element(P("y^3", ring))
    caps = [cap for cap, budget, escalating in completion_runs if budget is not None and not escalating]
    assert len(caps) == len(set(caps))
    if kind == "principal":
        assert caps == [4, 8]


def test_an_m_primary_basis_from_lazards_route_decides_membership_and_equality(ring_q2, monkeypatch):
    # (x^8 + y^20, x^21) has leads x^8, x^5*y^40 and y^60: no capped run
    # closes its staircase (caps 23 and 46, no generator term cut), and
    # Lazard's route finds it m-primary: once computed, that basis is the
    # ideal's record, so no query takes the route of infinite colength
    f = P("x^8+y^20", ring_q2)
    ideal, again = (Ideal(ring_q2, [f, P("x^21", ring_q2)]) for _ in range(2))
    assert try_primary_standard_basis(ideal, ring_q2) is None
    assert ideal.standard_basis().dimension() == 420
    again.standard_basis()

    def undecided(*args):
        raise AssertionError("membership left to the route of infinite colength")

    monkeypatch.setattr(ideals, "_uncertified_membership", undecided)
    assert ideal.contains_element(f)
    assert ideal.contains_element(P("y^20", ring_q2) * P("x^13", ring_q2))
    assert not ideal.contains_element(P("x", ring_q2))
    assert not ideal.contains_element(P("y^59", ring_q2))
    assert ideal.equals(again)
    assert not ideal.equals(maximal_ideal_power(ring_q2, 1))


def test_an_open_axis_answers_dimension_without_completing(ring_q3, monkeypatch):
    # no term of T_2(x^2 + y^2*z) is a power of z alone: the z-axis lies in V(I)
    ideal = nash_ideal_t(P("x^2+y^2*z", ring_q3), 2)
    assert ideal._open_axes
    runs = []
    original = ideals._run_completion
    monkeypatch.setattr(ideals, "_run_completion", lambda *args: runs.append(args[2]) or original(*args))
    assert ideal.dimension() is INFINITE
    assert runs == []
    fresh = nash_ideal_t(P("x^2+y^2*z", ring_q3), 2).standard_basis()
    assert ideal.standard_basis().elements == fresh.elements
    assert Ideal(ring_q3, []).dimension() is INFINITE


class TestInfiniteColengthBasisMembership:
    """A basis of infinite colength decides membership as its ideal does,
    over the generators it was completed from."""

    GENERATORS = ("3*y - 2*x*y + 4*x^2*z^2", "3*y^2 - 2*x*y^2*z + 4*y^3*z")

    # (u, a, b): the member (u/7) * ((a/7) * g1 + (b/7) * g2)
    @pytest.mark.parametrize("u, a, b", [
        ("7+x+2*z", "7*x+z", "2+7*y"),
        ("7+3*x-y", "z^2+7*x", "x"),
        ("7+x*y+z", "1", "z"),
        ("7+2*x+3*y+z^2", "x*z+2*y", "3+x^2"),
    ])
    def test_members_decide_over_the_generators(self, ring_q3, monkeypatch, u, a, b):
        g1, g2 = (P(t, ring_q3) for t in self.GENERATORS)
        seventh = ring_q3.constant(Fraction(1, 7))
        f = P(u, ring_q3) * seventh * (P(a, ring_q3) * seventh * g1 + P(b, ring_q3) * seventh * g2)
        ideal = Ideal(ring_q3, [g1, g2])
        basis = ideal.standard_basis()
        assert basis.staircase is None
        seen = []
        for name in ("weak_normal_form", "_escalated_membership"):
            original = getattr(ideals, name)
            monkeypatch.setattr(ideals, name, lambda poly, gens, *args, _name=name, _run=original, **kw: (
                seen.append((_name, gens)) or _run(poly, gens, *args, **kw)))
        start = time.perf_counter()
        assert basis.contains(f) is True
        # on the tail-reduced elements these took 4.5 s to more than 270 s
        assert time.perf_counter() - start < 1.0
        # the walks read the ideal's packed span basis, the escalations the ideal
        read = {"weak_normal_form": ideal._reducers, "_escalated_membership": ideal}
        assert seen and all(gens is read[name] for name, gens in seen)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_same_verdict_as_the_polynomial_escalation(self, data):
        # generators with a common nonunit factor: no cap certifies them
        field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
        nvars = data.draw(st.integers(2, 3))
        ring = RingContext(("x", "y", "z")[:nvars], field)
        common = Polynomial(ring, {a: c for a, c in data.draw(
            nonzero_polynomial_strategy(ring, max_terms=2, max_degree=2)).terms.items() if sum(a)})
        if common.is_zero():
            common = ring.variable(0)
        gens = [common * g for g in data.draw(
            st.lists(nonzero_polynomial_strategy(ring, max_terms=3, max_degree=3), min_size=1, max_size=3))]
        if data.draw(st.booleans()):
            tail = data.draw(polynomial_strategy(ring, max_terms=2, max_degree=2))
            unit = ring.one() + Polynomial(ring, {a: c for a, c in tail.terms.items() if sum(a)})
            cofactors = data.draw(st.lists(polynomial_strategy(ring, max_terms=2, max_degree=2),
                                           min_size=len(gens), max_size=len(gens)))
            f = unit * sum((g * c for g, c in zip(gens, cofactors)), ring.zero())
        else:
            f = data.draw(polynomial_strategy(ring, max_terms=4, max_degree=5))
        basis = compute_standard_basis(gens, ring)
        assert try_primary_standard_basis(gens, ring) is None and basis.staircase is None
        try:
            expected = reference_escalation(f, gens)
        except ideals.MembershipUndecided:
            reject()
        assert basis.contains(f) == expected


class TestPackedOnce:
    """A computed basis keeps the packed terms of its elements for its queries."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_kept_terms_are_the_packed_elements(self, data):
        field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
        nvars = data.draw(st.integers(1, 3))
        ring = RingContext(("x", "y", "z")[:nvars], field)
        gens = data.draw(st.lists(nonzero_polynomial_strategy(ring, max_terms=3, max_degree=4), min_size=1, max_size=3))
        if field is QQ:
            gens = [g.scalar_mul(data.draw(st.sampled_from([1, -1, Fraction(-3, 7), 5**30]))) for g in gens]
        if data.draw(st.booleans()):
            gens += [ring.monomial(alpha) for alpha in multi_indices_in_range(nvars, 4, 4)]
        basis = compute_standard_basis(gens, ring)
        if not basis.elements:
            return
        # every element keeps its terms, the bare monomials of degree B too
        assert None not in basis._packed_terms[1]
        pk = basis.packed.packing
        # each reducer is a nonzero multiple of the element packed afresh
        fresh = sorted(map(pk.element, map(pk.pack, basis.elements)), key=ideals._rank)
        assert [(el[0], el[1], _scalar_class(_terms(el), pk.p)) for el in basis.packed.reducers] == [
            (el[0], el[1], _scalar_class(_terms(el), pk.p)) for el in fresh
        ]
        if basis.truncation is None:
            return  # an unbounded Mora walk need not end
        f = data.draw(polynomial_strategy(ring, max_terms=4, max_degree=6))
        # membership through the kept terms, against a fresh packing's walk
        assert basis.contains(f) == weak_normal_form(f, list(basis.elements), basis.truncation).is_zero()


class TestCompletionOutput:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_elements_are_canonical(self, data):
        # every coefficient the kernel hands back is a nonzero field element
        # in canonical form: residues in 1..p-1, no zero terms
        field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
        nvars = data.draw(st.integers(1, 3))
        ring = RingContext(("x", "y", "z")[:nvars], field)
        polys = st.lists(polynomial_strategy(ring, max_terms=4, max_degree=4), min_size=1, max_size=4)
        gens = [g for g in data.draw(polys) if not g.is_zero()]
        if not gens:
            return
        for raw in (unpacked(capped_completion(gens, 8)), unpacked(homogenized_completion(homogenized_ideal(gens)))):
            for q in raw:
                assert q.terms and q == Polynomial(q.ring, dict(q.terms))
                if field.is_prime_field:
                    assert all(0 < c < field.characteristic for c in q.terms.values())


class TestGlobalBasisAgainstSympy:
    """Reduced graded-lex Groebner bases of the homogenized generators, as the
    Buchberger step of Lazard's route completes them on local keys, against
    sympy's, an independent engine."""

    @staticmethod
    def assert_matches_sympy(gens, ring):
        sympy = pytest.importorskip("sympy")
        hgens = homogenized(gens, ring)
        syms = sympy.symbols(hgens[0].ring.variables)
        p = ring.field.characteristic
        domain = sympy.GF(p) if p else sympy.QQ
        polys = [sympy.Poly.from_dict({a: int(c) if p else sympy.Rational(c.numerator, c.denominator)
                                       for a, c in g.terms.items()}, *syms, domain=domain) for g in hgens]
        theirs = sympy.groebner(polys, *syms, order="grlex", domain=domain)

        def coeff(c):
            return int(c) % p if p else Fraction(int(c.p), int(c.q))

        expected = {frozenset((m, coeff(c)) for m, c in q.terms()) for q in theirs.polys}
        assert {frozenset(e.terms.items()) for e in homogenized_reduced_basis(gens)} == expected

    def test_negative_leading_reducer(self, ring_q2):
        # the tail reduction inside the completion meets a reducer with a
        # negative leading coefficient
        self.assert_matches_sympy([P("-3/7 - 5*x*y + 3*y^2 + 3*y^3", ring_q2), P("-3/7 - y", ring_q2)], ring_q2)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_generators(self, data):
        field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
        nvars = data.draw(st.integers(1, 3))
        ring = RingContext(("x", "y", "z")[:nvars], field)
        polys = st.lists(polynomial_strategy(ring, max_terms=4, max_degree=4), min_size=1, max_size=3)
        gens = [g for g in data.draw(polys) if not g.is_zero()]
        if not field.is_prime_field:
            gens = [g.scalar_mul(data.draw(st.sampled_from([1, -1, Fraction(-3, 7)]))) for g in gens]
        if gens:
            self.assert_matches_sympy(gens, ring)


class TestMembership:
    def test_power_member(self, ring_q2):
        assert ideal(ring_q2, "x^2").contains_element(P("x^3", ring_q2))

    def test_zero_member(self, ring_q2):
        assert ideal(ring_q2, "x^17").contains_element(ring_q2.zero())

    def test_low_order_nonmember_char3(self):
        ring = RingContext(("x", "y"), GF(3))
        gens = ["x^4+y^4", "x^9", "x^6*y^3", "x^3*y^6", "y^9"]
        # order oracle: every generator has multiplicity >= 4, so every element
        # of the ideal does too; x^3 has multiplicity 3
        assert min(P(t, ring).multiplicity() for t in gens) == 4
        assert P("x^3", ring).multiplicity() == 3
        assert not ideal(ring, *gens).contains_element(P("x^3", ring))

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_combinations_are_members(self, data):
        ring = RingContext(("x", "y", "z"), QQ)
        gens = data.draw(
            st.lists(polynomial_strategy(ring, max_terms=3, max_degree=5), min_size=1, max_size=4)
        )
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            gens = [ring.variable(0)]
        cofactors = data.draw(
            st.lists(
                polynomial_strategy(ring, max_terms=2, max_degree=3),
                min_size=len(gens),
                max_size=len(gens),
            )
        )
        combo = ring.zero()
        for g, c in zip(gens, cofactors):
            combo = combo + g * c
        assert Ideal(ring, gens).contains_element(combo)

    @pytest.mark.parametrize("texts", [("x^2", "y^3"), ("x^2",)])
    @pytest.mark.parametrize("foreign", [RingContext(("x", "y", "z"), QQ), RingContext(("x", "y"), GF(5))])
    def test_polynomial_from_another_ring_is_refused(self, ring_q2, texts, foreign):
        # an m-primary ideal and one of infinite colength, zero included
        i = ideal(ring_q2, *texts)
        for f in (P("x^3*z" if foreign.nvars == 3 else "x^3", foreign), foreign.zero()):
            with pytest.raises(ValueError, match="different ring context"):
                i.contains_element(f)


class TestEquality:
    def test_linear_change(self, ring_q2):
        assert ideal(ring_q2, "x", "y").equals(ideal(ring_q2, "x+y", "y"))

    def test_quadric_gradient_pair(self, ring_q2):
        assert ideal(ring_q2, "x^2+y^2", "2*x", "2*y").equals(ideal(ring_q2, "x", "y"))

    def test_different_powers(self, ring_q2):
        assert not ideal(ring_q2, "x^2").equals(ideal(ring_q2, "x^3"))

    def test_unit_absorption(self, ring_q2):
        for unit_text in ("1+x", "2", "1 - y + x*y"):
            f = P("x^2+y^3", ring_q2)
            u = P(unit_text, ring_q2)
            assert Ideal(ring_q2, [u * f]).equals(Ideal(ring_q2, [f]))

    def test_non_primary_equality_via_membership(self, ring_q2):
        assert ideal(ring_q2, "x - x*y").equals(ideal(ring_q2, "x"))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equivalence_relation_and_shuffle_invariance(self, data):
        field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
        nvars = data.draw(st.integers(1, 3))
        ring = RingContext(("x", "y", "z")[:nvars], field)
        # m-primary ideals: pure powers plus random noise
        gens = [ring.monomial(tuple(data.draw(st.integers(1, 4)) if j == i else 0 for j in range(nvars)))
                for i in range(nvars)]
        gens += [g for g in data.draw(st.lists(polynomial_strategy(ring, 3, 4), max_size=2)) if not g.is_zero()]
        # pairs that share a lead x^alpha but differ in tail or scale, so
        # only the order among equal leads tells them apart
        if field is QQ:
            scalar = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 7)])
        else:
            scalar = st.integers(1, field.characteristic - 1)
        tails = st.lists(polynomial_strategy(ring, 2, 4), min_size=2, max_size=2)
        for alpha, (t1, t2), c in data.draw(st.lists(st.tuples(monomial_strategy(nvars, 2), tails, scalar),
                                                      min_size=1, max_size=2)):
            t1, t2 = (Polynomial(ring, {a: v for a, v in t.terms.items() if sum(a) > sum(alpha)}) for t in (t1, t2))
            lead = ring.monomial(alpha)
            gens += [lead + t1, (lead + (t2 if data.draw(st.booleans()) else t1)).scalar_mul(c)]
        generator_permutation = data.draw(st.permutations(gens))
        duplicated = list(generator_permutation) + [gens[0]]
        i1, i2, i3 = Ideal(ring, gens), Ideal(ring, generator_permutation), Ideal(ring, duplicated)
        assert i1.standard_basis().elements == i2.standard_basis().elements
        assert i2.standard_basis().elements == i3.standard_basis().elements
        assert i1.equals(i2) and i2.equals(i3) and i1.equals(i3)
        capped = [try_primary_standard_basis(g, ring) for g in (gens, generator_permutation, duplicated)]
        assert len({None if b is None else b.elements for b in capped}) == 1


class TestContainment:
    def test_monomial_multiples(self, ring_q2):
        assert ideal(ring_q2, "x").contains_ideal(ideal(ring_q2, "x^2", "x*y"))

    def test_strict(self, ring_q2):
        assert not ideal(ring_q2, "x^2").contains_ideal(ideal(ring_q2, "x"))


class TestInfiniteColengthMembership:
    # adversarial generator sets whose full standard bases are expensive;
    # membership must still decide quickly via certificates and capped runs
    CASES = [
        ("-x^3*z + x^5*y", "y^2*z + x^3*y*z^4", "-2*x*z^3 - 2*x^2*y^2*z^2 + 2*x^5*z^5"),
        ("x^3*y^2*z^5 + x^4*y^5*z^5", "x^3*y^4*z^2 - 2*x^5*y*z^4",
         "x^2*y^3*z^2 + x^2*y^2*z^5 - x^5*y^3*z^2"),
        ("x*z^3 - x*y^3*z^4", "2*x^3*y + 2*x^3*y^2*z^2 + x^3*y^3*z^5",
         "x*z^3 + x*y^5*z^3 + x^4*y^4*z^4", "-2*x^2*y^5*z^4"),
        ("-2*y*z + 2*x^2*y^2 - x^3*z^4 - 2*x^5*y^2*z^2", "-y^3*z^3",
         "-x^3*y^4*z - 2*x^3*y^5*z^3", "2*y*z + x^3*y - x^4*y^2 - 2*x*y^3*z^4"),
    ]

    @pytest.mark.parametrize("texts", CASES)
    def test_explicit_combination_is_member(self, ring_q3, texts):
        gens = [P(t, ring_q3) for t in texts]
        i = Ideal(ring_q3, gens)
        combo = ring_q3.zero()
        for k, g in enumerate(gens):
            combo = combo + g * (ring_q3.variable(k % 3) + ring_q3.constant(k))
        assert i.contains_element(combo)

    @pytest.mark.parametrize("texts", CASES)
    def test_low_order_nonmember(self, ring_q3, texts):
        gens = [P(t, ring_q3) for t in texts]
        i = Ideal(ring_q3, gens)
        probe = P("x + y^2", ring_q3)
        # every generator vanishes to order >= 2 at the origin
        assert min(g.multiplicity() for g in gens) >= 2
        assert not i.contains_element(probe)

    def test_dehomogenization_duplicate_leads_survive(self, ring_q3):
        # two elements sharing a leading monomial must not cancel out of the
        # minimal basis; x*z^3 times a unit sits in this ideal
        gens = [P(t, ring_q3) for t in self.CASES[2]]
        i = Ideal(ring_q3, gens)
        basis = i.standard_basis()
        assert (1, 0, 3) in leading_monomials(basis)


class TestIdealArithmetic:
    def test_sum(self, ring_q2):
        s = ideal(ring_q2, "x") + ideal(ring_q2, "y")
        assert s.equals(ideal(ring_q2, "x", "y"))

    def test_product(self, ring_q2):
        m = ideal(ring_q2, "x", "y")
        sq = m * m
        assert sq.equals(ideal(ring_q2, "x^2", "x*y", "y^2"))

    def test_power_zero_is_unit(self, ring_q2):
        assert (ideal(ring_q2, "x", "y") ** 0).equals(Ideal.unit(ring_q2))

    def test_maximal_ideal_power(self, ring_q2, ring_q1, ring_q3):
        assert {str(g) for g in maximal_ideal_power(ring_q2, 2).generators} == {
            "x^2",
            "x*y",
            "y^2",
        }
        assert [str(g) for g in maximal_ideal_power(ring_q1, 3).generators] == ["x^3"]
        assert {str(g) for g in maximal_ideal_power(ring_q3, 1).generators} == {"x", "y", "z"}
        assert maximal_ideal_power(ring_q2, 0).equals(Ideal.unit(ring_q2))

    @pytest.mark.parametrize("foreign", [RingContext(("x", "y", "z"), QQ), RingContext(("x", "y"), GF(5))])
    def test_generators_from_another_ring_are_refused(self, ring_q2, foreign):
        # handed over packed or as a plain list: J_2(x^30 + y^31) from Q[x,y]
        # once gave Q[x,y,z] an ideal of dimension 0 with z, and (f) + J_2(f)
        # of x^3/5 + y^4 made F_5[x,y] raise TypeError on its Fractions; the
        # two basis functions once returned wrong bases (or None) for both
        f = P("x^30+y^31" if foreign.nvars == 3 else "1/5*x^3+y^4", ring_q2)
        ideal = higher_jacobian_ideal(f, 2) if foreign.nvars == 3 else nash_ideal_t(f, 2)
        assert any(isinstance(entry, tuple) for entry in ideal._handed)
        with pytest.raises(ValueError, match="different ring context"):
            Ideal(foreign, ideal.generators)
        for build in (compute_standard_basis, try_primary_standard_basis):
            for given in (ideal, ideal.generators):
                with pytest.raises(ValueError, match="different ring context"):
                    build(given, foreign)


class TestQuotientDimension:
    def test_square_of_maximal(self, ring_q2):
        assert ideal(ring_q2, "x^2", "x*y", "y^2").dimension() == 3

    def test_maximal(self, ring_q2):
        assert ideal(ring_q2, "x", "y").dimension() == 1

    def test_open_staircase(self, ring_q2):
        assert ideal(ring_q2, "x^2").dimension() is INFINITE

    def test_monomial_ideals_match_brute_force(self):
        rng = random.Random("monomial-dims")
        ring = RingContext(("x", "y", "z"), QQ)
        for _ in range(20):
            exps = [
                tuple(rng.randint(0, 4) for _ in range(3))
                for _ in range(rng.randint(1, 5))
            ]
            exps = [e for e in exps if sum(e) > 0]
            if not exps:
                continue
            monomial_ideal = Ideal(ring, [ring.monomial(e) for e in exps])
            got = monomial_ideal.dimension()
            # brute force: count below a degree limit beyond any possible staircase
            limit = sum(max(e[i] for e in exps) for i in range(3)) + 1
            brute = brute_standard_monomial_count(exps, 3, limit)
            has_pure = all(
                any(e[i] > 0 and all(e[j] == 0 for j in range(3) if j != i) for e in exps)
                for i in range(3)
            )
            if has_pure:
                assert got == brute
            else:
                assert got is INFINITE

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_primary_dimensions_match_linear_algebra(self, data):
        # pure powers make the ideal m-primary; its staircase closes only
        # through the border layer _finish_primary regenerates
        field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
        d = data.draw(st.integers(1, 3))
        ring = RingContext(("x", "y", "z")[:d], field)
        powers = [data.draw(st.integers(1, 5)) for _ in range(d)]
        gens = [ring.monomial(tuple(p if j == i else 0 for j in range(d))) for i, p in enumerate(powers)]
        noise = data.draw(st.lists(polynomial_strategy(ring, max_terms=3, max_degree=4), max_size=3))
        gens += [g for g in noise if not g.is_zero()]
        gens = data.draw(st.permutations(gens))
        bound = sum(p - 1 for p in powers) + 1  # m^bound inside the pure-power part
        assert Ideal(ring, gens).dimension() == linalg_quotient_dim(gens, ring, bound)


def box_staircase(lead_monomials, nvars):
    """Reference for _staircase: enumerate the pure-power box monomial by monomial."""
    if any(sum(m) == 0 for m in lead_monomials):
        return (0, -1)
    box = []
    for i in range(nvars):
        pure = [m[i] for m in lead_monomials if all(e == 0 for j, e in enumerate(m) if j != i)]
        if not pure:
            return None
        box.append(min(pure))
    outside = [
        alpha
        for alpha in itertools.product(*(range(b) for b in box))
        if not any(all(g <= a for g, a in zip(m, alpha)) for m in lead_monomials)
    ]
    return (len(outside), max((sum(a) for a in outside), default=-1))


class TestStaircase:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_box_enumeration(self, data):
        nvars = data.draw(st.integers(1, 3))
        exponent = st.integers(0, 5)
        monomial = st.tuples(*[exponent] * nvars)
        gens = data.draw(st.lists(monomial, max_size=6))
        # pure powers close the staircase in the variables that get one
        for i in range(nvars):
            if data.draw(st.booleans()):
                power = data.draw(exponent)
                gens.append(tuple(power if j == i else 0 for j in range(nvars)))
        # repeated and non-minimal generators change nothing
        if gens and data.draw(st.booleans()):
            m = data.draw(st.sampled_from(gens))
            gens += [m, tuple(e + 1 for e in m)]
        gens = data.draw(st.permutations(gens))
        assert _staircase(gens, nvars) == box_staircase(gens, nvars)

    @pytest.mark.parametrize(
        "gens,nvars,expected",
        [
            ([], 0, (1, 0)),
            ([], 1, None),
            ([], 3, None),
            ([()], 0, (0, -1)),
            ([(0, 0, 0)], 3, (0, -1)),
            ([(2, 1), (0, 0), (0, 3)], 2, (0, -1)),
            ([(2, 0)], 2, None),
            ([(0, 3), (1, 1)], 2, None),
            ([(4, 0, 0), (0, 4, 0), (1, 1, 1)], 3, None),
            ([(3,)], 1, (3, 2)),
            ([(2, 0), (1, 1), (0, 2)], 2, (3, 1)),
            ([(2, 0), (0, 3), (2, 0)], 2, (6, 3)),
            ([(1, 0, 0), (0, 2, 0), (0, 0, 2)], 3, (4, 2)),
        ],
    )
    def test_known_staircases(self, gens, nvars, expected):
        assert _staircase(gens, nvars) == expected


def box_border(lead_monomials, nvars, degree):
    """Reference for conftest.border: test every monomial of the degree for divisibility."""
    return sorted(
        alpha
        for alpha in multi_indices_in_range(nvars, degree, degree)
        if not any(all(g <= a for g, a in zip(m, alpha)) for m in lead_monomials)
    )


class TestBorder:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_box_enumeration(self, data):
        nvars = data.draw(st.integers(1, 3))
        degree = data.draw(st.integers(0, 12))
        monomial = st.tuples(*[st.integers(0, degree + 1)] * nvars)
        gens = data.draw(st.lists(monomial, max_size=6))
        assert sorted(border(gens, nvars, degree)) == box_border(gens, nvars, degree)

    @pytest.mark.parametrize(
        "gens,nvars,degree,expected",
        [
            ([], 2, 2, [(0, 2), (1, 1), (2, 0)]),
            ([(0, 0)], 2, 3, []),
            ([(2, 0), (0, 3)], 2, 3, [(1, 2)]),
            ([(1, 1)], 2, 2, [(0, 2), (2, 0)]),
            ([(3,)], 1, 2, [(2,)]),
            ([(3,)], 1, 3, []),
            ([(1, 0, 0), (0, 2, 0)], 3, 2, [(0, 1, 1), (0, 0, 2)]),
        ],
    )
    def test_known_borders(self, gens, nvars, degree, expected):
        assert sorted(border(gens, nvars, degree)) == sorted(expected)


class TestCappedMoraAgainstLazard:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_certified_basis_matches_lazard(self, data):
        field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
        nvars = data.draw(st.integers(1, 3))
        ring = RingContext(("x", "y", "z")[:nvars], field)
        # all monomials of degree k make every ideal m-primary
        k = data.draw(st.integers(3, 6))
        noise = data.draw(st.lists(polynomial_strategy(ring, max_terms=4, max_degree=5), max_size=3))
        gens = [g for g in noise if not g.is_zero()]
        gens += [ring.monomial(alpha) for alpha in multi_indices_in_range(nvars, k, k)]
        capped = try_primary_standard_basis(gens, ring)
        if capped is None:
            return
        pk, raw = _complete_local_by_homogenization(Ideal(ring, gens))
        minimal = _minimalize(pk, raw)
        stats = _staircase([pk.monomial(el[0]) for el in minimal], nvars)
        lazard = _finish_primary(pk, minimal, stats)
        assert capped.elements == lazard.elements
        assert capped.truncation == lazard.truncation


class TestCapsReadOffTheStaircase:
    """Every lead a capped run finds below its cap is a lead of the ideal, so
    the ideal's staircase lies inside a closed one of top t, and a run at cap
    t + 2 certifies: try_primary_standard_basis reads its next cap there."""

    KINDS = {
        "T": tjurina_ideal,
        "T_2": lambda f: nash_ideal_t(f, 2),
        "T[1]": lambda f: tjurina_ideal(f, 1),
    }

    @staticmethod
    def certifies(completed, cap) -> bool:
        return completed is not None and completed[1] is not None and completed[1][1] + 2 <= cap

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_a_closed_staircase_certifies_two_above_its_top(self, data):
        field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
        ring = RingContext(("x", "y"), field)
        kind = data.draw(st.sampled_from(sorted(self.KINDS)))
        # the pure powers set the top of the staircase; a drawn tail of order
        # at least 2 moves it.  The reference's homogenized run on T_2 over Q
        # takes seconds from degree 7 on
        hi = 6 if kind == "T_2" else 10
        a, b = data.draw(st.integers(2, hi)), data.draw(st.integers(2, hi))
        drawn = data.draw(polynomial_strategy(ring, max_terms=3, max_degree=hi))
        f = P(f"x^{a}+y^{b}", ring) + Polynomial(ring, {e: c for e, c in drawn.terms.items() if sum(e) >= 2})
        assume(not f.is_zero() and tjurina_number(f) is not INFINITE)
        ideal = self.KINDS[kind](f)
        want = lazard_standard_basis(list(ideal.generators), ring)
        assert want.staircase is not None

        # the rule at every cap below the one that certifies, on a packing
        # that holds every cap it leads to
        pk = _Packing.sized(ring, 2 * want.truncation)
        gens = [_moved(ideal._packing, pk, terms) for terms in ideal._span[1]]
        for cap in range(2, want.truncation + 1):
            stairs = _run_completion(pk, gens, cap, None)[1]
            if stairs is not None and not stairs[1] + 2 <= cap:
                again = _run_completion(pk, gens, stairs[1] + 2, None)
                assert self.certifies(again, stairs[1] + 2)
                assert again[1] == want.staircase

        # the capped route follows the rule, and its basis is Lazard's
        runs = []
        with pytest.MonkeyPatch.context() as mp:
            original = ideals._run_completion
            mp.setattr(ideals, "_run_completion",
                       lambda pk, gens, cap, budget: runs.append((cap, original(pk, gens, cap, budget))) or runs[-1][1])
            capped = try_primary_standard_basis(ideal, ring)
        for (cap, completed), following in zip(runs, runs[1:] + [None]):
            if completed is not None and completed[1] is not None and not self.certifies(completed, cap):
                top = completed[1][1]
                assert following is not None and following[0] == top + 2
                assert following[1] is None or self.certifies(following[1], top + 2)
        if capped is not None:
            assert (capped.elements, capped.truncation, capped.staircase) == (
                want.elements, want.truncation, want.staircase)

        # y times the generators leaves the x-axis open: no run at all
        y = P("y", ring)
        open_ideal = Ideal(ring, [g * y for g in ideal.generators])
        assert open_ideal._open_axes
        runs.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ideals, "_run_completion", lambda *args: runs.append(args))
            assert try_primary_standard_basis(open_ideal, ring) is None
        assert runs == []

    def test_a_cap_past_the_packing_moves_the_span_basis(self):
        # the base run (cap 122) closes the staircase of the five pure powers
        # with top 595, so the next cap, 597, outgrows the ideal's 9-bit packing
        ring = RingContext(tuple(f"x{i}" for i in range(1, 6)), QQ)
        ideal = Ideal(ring, [P(f"x{i}^120", ring) for i in range(1, 6)])
        basis = try_primary_standard_basis(ideal, ring)
        assert ideal._packing.limit < 596 <= basis.packed.packing.limit
        assert sorted(basis.elements, key=str) == sorted(ideal.generators, key=str)
        assert (basis.truncation, basis.dimension()) == (596, 120 ** 5)

    @pytest.mark.parametrize("text, dims", [
        ("x^60+y^71+x^5*y^5", (509, 1562, 511)),
        ("x^31+y^29+x^2*y^3", (90, 277, 92)),
    ])
    def test_perturbed_brieskorn_pham_germs_stay_off_lazards_route(self, text, dims, ring_q2, monkeypatch):
        # the pure powers set the top standard degree far above the base caps
        # (12 and 24 for tau of the first germ, against a top of 73); the runs
        # cut generator terms at every cap up to the germ's degree, so the cap
        # doubles on until a run certifies (96 for that tau)
        lazard = TestLazardFallback.spy(monkeypatch, "_complete_local_by_homogenization")
        report = invariant_report(P(text, ring_q2))
        assert (report.tau, report.dim_tn[2], report.dim_tk[1]) == dims
        assert lazard == []


class TestLazardFallback:
    """Lazard's route where the capped route gives up on its budget, and where
    its own homogenized run outgrows its first packing."""

    # m-primary, staircases (43, 12) and (45, 14)
    GERMS = [("x^5+y^7", "x^4*y^3+y^9"), ("x^6+x^2*y^5", "x*y^6+y^8")]

    @staticmethod
    def spy(monkeypatch, name):
        """A list that collects what each call of ideals.<name> returns."""
        results = []
        original = getattr(ideals, name)

        def call(*args):
            results.append(original(*args))
            return results[-1]

        monkeypatch.setattr(ideals, name, call)
        return results

    @pytest.mark.parametrize("field", [QQ, GF(5)])
    @pytest.mark.parametrize("texts", GERMS)
    def test_capped_route_out_of_budget(self, field, texts, monkeypatch):
        ring = RingContext(("x", "y"), field)
        gens = [P(t, ring) for t in texts]
        want = compute_standard_basis(gens, ring)
        assert want.staircase is not None
        monkeypatch.setattr(ideals, "_WORK_BUDGET", 3)
        runs = self.spy(monkeypatch, "_run_completion")
        assert try_primary_standard_basis(gens, ring) is None
        # the last run gave up on its budget, not for want of certifying
        assert runs and runs[-1] is None
        lazard = self.spy(monkeypatch, "_complete_local_by_homogenization")
        got = compute_standard_basis(gens, ring)
        assert len(lazard) == 1
        assert (got.elements, got.truncation, got.staircase) == (want.elements, want.truncation, want.staircase)
        assert Ideal(ring, gens).dimension() == want.staircase[0]

    @pytest.mark.parametrize("field", [QQ, GF(5)])
    @pytest.mark.parametrize("texts", GERMS + [("x^9*y+y^11", "x^7*y^3")])
    def test_overflow_restarts_wider(self, field, texts, monkeypatch):
        # the homogenized ring's first packing gets 4-bit fields, which its
        # run outgrows (degree 15): the run starts over once, 8 bits wide
        ring = RingContext(("x", "y"), field)
        gens = [P(t, ring) for t in texts]
        want = compute_standard_basis(gens, ring)
        sized, wider = _Packing.sized.__func__, _Packing.wider
        fired = []
        monkeypatch.setattr(_Packing, "sized", classmethod(
            lambda cls, r, top: cls(r, 4) if r.nvars == ring.nvars + 1 else sized(cls, r, top)))
        monkeypatch.setattr(_Packing, "wider", lambda pk: fired.append(pk.width) or wider(pk))
        monkeypatch.setattr(ideals, "try_primary_standard_basis", lambda generators, ring: None)
        got = compute_standard_basis(gens, ring)
        assert fired == [4]
        assert (got.elements, got.truncation, got.staircase) == (want.elements, want.truncation, want.staircase)


class TestFinishedBasis:
    """An m-primary basis, finished by either route, against its leads recounted
    from the elements and the slicing walk that built its degree-B layer
    (conftest)."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_staircase_and_border_layer(self, data):
        field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
        nvars = data.draw(st.integers(1, 3))
        ring = RingContext(("x", "y", "z")[:nvars], field)
        gens = [g for g in data.draw(st.lists(polynomial_strategy(ring, max_terms=4, max_degree=5), max_size=3))
                if not g.is_zero()]
        if data.draw(st.booleans()):
            # all monomials of degree k: a border layer up to degree k
            k = data.draw(st.integers(1, 5))
            gens += [ring.monomial(alpha) for alpha in multi_indices_in_range(nvars, k, k)]
        else:
            # pure powers: a staircase with corners
            gens += [ring.monomial(tuple(data.draw(st.integers(1, 5)) if j == i else 0 for j in range(nvars)))
                     for i in range(nvars)]
        pk, raw = _complete_local_by_homogenization(Ideal(ring, gens))
        minimal = _minimalize(pk, raw)
        stats = _staircase([pk.monomial(el[0]) for el in minimal], nvars)
        bases = [_finish_primary(pk, minimal, stats)]
        capped = try_primary_standard_basis(gens, ring)
        if capped is not None:
            bases.append(capped)
        for basis in bases:
            B = basis.truncation
            leads = leading_monomials(basis)
            assert max(map(sum, leads)) <= B
            lower = [a for a in leads if sum(a) < B]
            layer = [(e, a) for e, a in zip(basis.elements, leads) if sum(a) == B]
            assert sorted(a for _, a in layer) == sorted(border(lower, nvars, B))
            assert all(e == ring.monomial(a) for e, a in layer)
            assert basis.staircase == _staircase(leads, nvars)


class TestLazardRouteAgainstReference:
    """compute_standard_basis, with the capped route forced off and on, against
    Lazard's route as it ran on polynomials (conftest): monomial * unit
    replaced and the generators homogenized as polynomials, completed in
    poly_sort_key order under graded lex."""

    @staticmethod
    def assert_same_basis(gens, ring):
        """``gens`` is a list of polynomials or an Ideal, its hand-over entries kept."""
        polys = gens.generators if isinstance(gens, Ideal) else gens
        want = lazard_standard_basis(polys, ring)
        got = compute_standard_basis(gens, ring)
        assert (got.elements, got.truncation) == (want.elements, want.truncation)
        # the staircase the completion counted is the one of the elements' leads
        assert got.staircase == _staircase(leading_monomials(got), ring.nvars)
        runs = []
        original_run = ideals._run_completion
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ideals, "try_primary_standard_basis", lambda generators, ring: None)
            mp.setattr(ideals, "_run_completion", lambda pk, g, *rest: runs.append((pk, g)) or original_run(pk, g, *rest))
            forced = compute_standard_basis(gens, ring)
        assert (forced.elements, forced.truncation) == (want.elements, want.truncation)
        # the homogenized generators reach the uncapped run in the order
        # poly_sort_key gives the homogenized polynomials, with their charges
        pk, handed = runs[-1]
        assert handed == intake_of(pk, first_per_scalar_class(homogenized_generators(polys, ring)), GRADED_LEX)

    @staticmethod
    def assert_same_basis_renamed(gens, ring):
        """The basis on a ring whose variables include t, as on x, y, z: Lazard's
        route homogenizes by a variable of another name."""
        plain = RingContext(("x", "y", "z")[:ring.nvars], ring.field)
        want = compute_standard_basis([Polynomial(plain, dict(g.terms)) for g in gens], plain)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ideals, "try_primary_standard_basis", lambda generators, ring: None)
            got = compute_standard_basis(gens, ring)
        assert [g.terms for g in got.elements] == [g.terms for g in want.elements]
        assert (got.truncation, got.staircase) == (want.truncation, want.staircase)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_same_basis(self, data):
        field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
        nvars = data.draw(st.integers(1, 3))
        # a ring that already has a t makes the homogenizing variable t_ or t__
        names = data.draw(st.sampled_from([("x", "y", "z")[:nvars], (("t",), ("t", "x"), ("x", "t", "t_"))[nvars - 1]]))
        ring = RingContext(names, field)
        if field is QQ:
            scale = st.sampled_from([1, -1, 6, Fraction(1, 2), Fraction(-3, 7), Fraction(5, 4)])
        else:
            scale = st.integers(1, field.characteristic - 1)
        gens = data.draw(st.lists(nonzero_polynomial_strategy(ring, max_terms=3, max_degree=4), max_size=3))
        # monomial * unit: a cofactor with a nonzero constant term
        for alpha, tail, c in data.draw(st.lists(
                st.tuples(monomial_strategy(nvars, 3), polynomial_strategy(ring, 2, 2), scale), max_size=2)):
            unit = ring.constant(c) + Polynomial(ring, {a: v for a, v in tail.terms.items() if sum(a)})
            gens.append(ring.monomial(alpha if sum(alpha) else (1,) + (0,) * (nvars - 1)) * unit)
        # tied pairs: the same local lead x^alpha and top degree d = |alpha| + e,
        # mostly the same monomials, on different scales, so only the
        # coefficients of their term lists order them
        for alpha, e, c1, c2 in data.draw(st.lists(
                st.tuples(monomial_strategy(nvars, 2), st.integers(1, 2), scale, scale), max_size=2)):
            d = sum(alpha) + e
            top = st.sampled_from(multi_indices_in_range(nvars, d, d))
            mid = st.sampled_from(multi_indices_in_range(nvars, d - e + 1, d))
            monomials = data.draw(st.tuples(top, mid))
            for c in (c1, c2):
                if data.draw(st.booleans()):
                    monomials = data.draw(st.tuples(top, mid))
                g = ring.monomial(alpha) + sum((ring.monomial(m, data.draw(scale)) for m in monomials), ring.zero())
                gens.append(g.scalar_mul(c))
        # nonzero scalar multiples of drawn generators
        for i, c in data.draw(st.lists(st.tuples(st.integers(0, 9), scale), max_size=2)):
            if gens:
                gens.append(gens[i % len(gens)].scalar_mul(c))
        if data.draw(st.booleans()):
            # pure powers make the ideal m-primary; without them the colength
            # is often infinite
            gens += [ring.monomial(tuple(data.draw(st.integers(1, 5)) if j == i else 0 for j in range(nvars)))
                     for i in range(nvars)]
        gens = [g for g in data.draw(st.permutations(gens)) if not g.is_zero()]
        if gens:
            self.assert_same_basis(gens, ring)
            if "t" in names:
                self.assert_same_basis_renamed(gens, ring)

    def test_tied_leads_order_by_their_own_coefficients(self, ring_q2):
        # equal local lead x and top degree 3: primitive integers would put
        # the first ahead (6 > 1 at x*y), the coefficients themselves put the
        # second ahead (2 > 1/4 at y^3)
        gens = [P("x + 6*x*y + y^3", ring_q2).scalar_mul(Fraction(1, 4)), P("x + x*y + y^3", ring_q2).scalar_mul(2)]
        self.assert_same_basis(gens, ring_q2)

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)])
    @pytest.mark.parametrize("text, n", [("x^2*y", 2), ("x^3+x^2*y^2", 2), ("x*y^2", 3), ("x^2+y^2*z", 2)])
    def test_handed_over_generators(self, field, text, n):
        # (f) + J_n(f) of non-isolated germs reach Lazard's route packed
        ring = RingContext(("x", "y", "z") if "z" in text else ("x", "y"), field)
        f = P(text, ring)
        ideal = nash_ideal_t(f.scalar_mul(Fraction(-2, 9)) if field is QQ else f, n)
        assert any(isinstance(entry, tuple) for entry in ideal._handed)
        self.assert_same_basis(ideal, ring)


def test_no_module_level_caches():
    # a cache shared by every caller in the process would let one call's
    # work flatter the next; every result is computed afresh
    for info in pkgutil.iter_modules(nashblowup.__path__):
        importlib.import_module(f"nashblowup.{info.name}")
    cached = [
        f"{name}.{attr}"
        for name, module in list(sys.modules.items())
        if name == "nashblowup" or name.startswith("nashblowup.")
        for attr, value in vars(module).items()
        if callable(value) and hasattr(value, "cache_info")
    ]
    assert cached == []


class TestLeadingIdeal:
    def test_local_leading_is_low_degree(self, ring_q2):
        assert leading_monomials(ideal(ring_q2, "x^2+y^3").standard_basis()) == ((2, 0),)

    def test_unit_tail(self, ring_q2):
        assert leading_monomials(ideal(ring_q2, "x+x^2").standard_basis()) == ((1, 0),)

    def test_zero(self, ring_q2):
        assert leading_monomials(Ideal(ring_q2, []).standard_basis()) == ()


class TestFinishedOnFirstRead:
    """A basis keeps its staircase, truncation and dimension from construction
    and is finished once, on the first read of its elements, packed terms,
    membership, ==, hash() or repr(), into the basis the eager finishing gave
    (conftest.eager_finish_primary and eager_infinite_basis)."""

    READS = {
        "elements": lambda b: b.elements,
        "packed terms": lambda b: b._packed_terms,
        "packed": lambda b: b.packed,
        "==": lambda b: b == b,
        "hash": hash,
        "repr": repr,
        # m-primary only: 1 lies below the truncation, so its normal form is read
        "contains": lambda b: b.contains(b.ring.one()),
    }

    @staticmethod
    def spy(mp, name):
        """A list that collects the arguments of each call of ideals.<name>."""
        calls = []
        original = getattr(ideals, name)
        mp.setattr(ideals, name, lambda *args: calls.append(args) or original(*args))
        return calls

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_lazy_basis_matches_the_eager_reference(self, data):
        field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
        nvars = data.draw(st.integers(1, 3))
        ring = RingContext(("x", "y", "z")[:nvars], field)
        gens = data.draw(st.lists(nonzero_polynomial_strategy(ring, max_terms=4, max_degree=5), min_size=1, max_size=3))
        if data.draw(st.booleans()):
            # pure powers make the ideal m-primary; without them it may not be
            gens += [ring.monomial(tuple(data.draw(st.integers(1, 5)) if j == i else 0 for j in range(nvars)))
                     for i in range(nvars)]
        pairs = []  # (lazy basis, eager reference)
        with pytest.MonkeyPatch.context() as mp:
            finishing = self.spy(mp, "_finish_primary")
            finished = self.spy(mp, "_reduced_elements")
            capped = try_primary_standard_basis(gens, ring)
            if capped is not None:
                pk, elements, staircase = finishing[-1]
                pairs.append((capped, eager_finish_primary(pk, _minimalize(pk, elements), staircase)))
            mp.setattr(ideals, "try_primary_standard_basis", lambda generators, ring: None)
            lazard = compute_standard_basis(gens, ring)
            if lazard.is_m_primary:
                pk, elements, staircase = finishing[-1]
                pairs.append((lazard, eager_finish_primary(pk, _minimalize(pk, elements), staircase)))
            else:
                pk, raw = _complete_local_by_homogenization(Ideal(ring, gens))
                pairs.append((lazard, eager_infinite_basis(pk, _minimalize(pk, raw))))
            # the references finish through conftest's own import, so the spy
            # counts only the lazy bases: none is finished yet
            for basis, want in pairs:
                assert (basis.truncation, basis.staircase) == (want.truncation, want.staircase)
                assert basis.dimension() == (INFINITE if want.staircase is None else want.staircase[0])
                assert basis.is_m_primary == (want.staircase is not None)
            assert finished == []
            for basis, want in pairs:
                reads = [name for name in self.READS if basis.is_m_primary or name != "contains"]
                before = len(finished)
                self.READS[data.draw(st.sampled_from(reads))](basis)
                assert len(finished) == before + 1
                for name in reads:
                    self.READS[name](basis)
                assert len(finished) == before + 1
                assert basis.elements == want.elements
                (pk, terms), (want_pk, want_terms) = basis._packed_terms, want._packed_terms
                assert (pk.ring, pk.width, terms) == (want_pk.ring, want_pk.width, want_terms)
                assert hash(basis) == hash(want)
                assert repr(basis) == repr(want).replace("EagerReducedStandardBasis(", "ReducedStandardBasis(", 1)
            # a basis computed afresh and not yet read compares as the references do
            again = Ideal(ring, gens).standard_basis()
            for (a, want_a), (b, want_b) in itertools.product(pairs + [(again, pairs[0][1])], pairs):
                assert (a == b) == (want_a == want_b)

    @pytest.mark.parametrize("field", [QQ, GF(3)])
    def test_invariant_report_and_dimension_finish_no_basis(self, field, monkeypatch):
        ring = RingContext(("x", "y"), field)
        finished = self.spy(monkeypatch, "_reduced_elements")
        f = P("x^5+y^7+x^2*y^3", ring)
        report = invariant_report(f, 3, 2)
        assert report.tau != INFINITE and INFINITE not in report.dim_tn.values()
        t2 = nash_ideal_t(f, 2)
        assert t2.dimension() == report.dim_tn[2]
        assert t2.standard_basis().truncation == t2.standard_basis().staircase[1] + 1
        assert finished == []
        t2.standard_basis().elements
        assert len(finished) == 1

    def test_dimension_from_lazards_route_finishes_no_basis(self, ring_q2, monkeypatch):
        # (x^8+y^20, x^21) over Q is open at both capped runs with no cut, so
        # Lazard's route decides it, m-primary
        i = ideal(ring_q2, "x^8+y^20", "x^21")
        finished = self.spy(monkeypatch, "_reduced_elements")
        lazard = self.spy(monkeypatch, "_complete_local_by_homogenization")
        assert i.dimension() == 420
        assert len(lazard) == 1 and finished == []

    def test_equals_refutes_by_staircase_before_finishing(self, ring_q2, monkeypatch):
        finished = self.spy(monkeypatch, "_reduced_elements")
        a = ideal(ring_q2, "x^2", "y^3")  # colength 6
        b = ideal(ring_q2, "x^3", "x*y", "y^2")  # colength 4
        assert not a.equals(b) and not b.equals(a)
        assert finished == []
        # the same ideal from another generator list
        assert a.equals(ideal(ring_q2, "x^2+y^3", "y^3"))
        assert finished
        # the same staircase, (6, 3), but another ideal: the elements decide
        c = ideal(ring_q2, "x^2+x*y^2", "y^3")
        assert a._certified.staircase == c._certified.staircase
        assert not a.equals(c) and not c.equals(a)
