import contextlib
import copy
import json
import math
import random
import signal

import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from nashblowup.algebras import (
    check_inclusions,
    dimension_json,
    gp_bound,
    invariant_report,
    nash_ideal_m,
    nash_ideal_t,
    tjurina_ideal,
    tjurina_number,
)
from nashblowup import algebras, ideals
from nashblowup.ideals import INFINITE, Ideal, maximal_ideal_power
from nashblowup.fields import GF, QQ
from nashblowup.jacobian import jacobian_ideal
from nashblowup.polynomials import RingContext

from conftest import (
    P,
    linalg_quotient_dim,
    monomial_strategy,
    nonzero_polynomial_strategy,
    power_by_products,
    reference_inclusions,
    term_mul,
)


def ideal(ring, *texts):
    return Ideal(ring, [P(t, ring) for t in texts])


class TestNashIdeals:
    def test_one_variable_square_absorbs(self, ring_q1):
        f = P("x^2", ring_q1)
        assert nash_ideal_t(f, 2).equals(ideal(ring_q1, "x^2"))

    def test_quadric(self, ring_q2):
        f = P("x^2+y^2", ring_q2)
        assert nash_ideal_t(f, 2).equals(ideal(ring_q2, "x^2+y^2", "x^3", "y^3"))

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_cusp_family(self, ring_q2, k):
        f = P(f"x^2+y^{k}", ring_q2)
        tail = "x^2*y" if k == 3 else f"x^2*y^{k - 2}"
        assert nash_ideal_t(f, 2).equals(ideal(ring_q2, f"x^2+y^{k}", "x^3", tail))

    def test_m_ideal_excludes_germ(self, ring_q2):
        f = P("x^2+y^3", ring_q2)
        jn = nash_ideal_m(f, 2)
        # every second-order minor of the cusp has multiplicity >= 3
        assert not jn.contains_element(f)
        assert nash_ideal_t(f, 2).contains_element(f)


class TestTjurinaIdeal:
    def test_cusp_reduces(self, ring_q2):
        got = tjurina_ideal(P("x^3+y^2", ring_q2), 0)
        assert got.equals(ideal(ring_q2, "x^2", "y"))

    def test_quadric(self, ring_q2):
        assert tjurina_ideal(P("x^2+y^2", ring_q2), 0).equals(ideal(ring_q2, "x", "y"))

    def test_char3_quartic_absorbs_germ(self, ring_f3):
        got = tjurina_ideal(P("x^4+y^4", ring_f3), 0)
        assert got.equals(ideal(ring_f3, "x^3", "y^3"))

    def test_repeated_generators_reach_completion_once(self, ring_q2, monkeypatch):
        # m * j(f) repeats x^2*y up to a scalar; the printed generators keep
        # every repeat, completion sees each scalar class once: both capped
        # runs and Lazard's run go through _run_completion
        ideal = tjurina_ideal(P("x^2*y", ring_q2), 1)
        assert [str(g) for g in ideal.generators] == ["x^2*y", "2*x^2*y", "x^3", "2*x*y^2", "x^2*y"]
        sizes = []
        original = ideals._run_completion

        def counted(pk, generators, *args, **kwargs):
            sizes.append(len(generators))
            return original(pk, generators, *args, **kwargs)

        monkeypatch.setattr(ideals, "_run_completion", counted)
        basis = ideal.standard_basis()
        assert sizes and set(sizes) == {3}
        assert [str(e) for e in basis.elements] == ["x^3", "x^2*y", "x*y^2"]

    def test_positive_k_shrinks(self, ring_q2):
        f = P("x^3+y^2", ring_q2)
        t0 = tjurina_ideal(f, 0)
        t2 = tjurina_ideal(f, 2)
        assert t0.contains_ideal(t2)
        assert not t2.contains_ideal(t0)

    def test_matches_first_order_nash_algebra(self, ring_q2, ring_f3):
        for ring in (ring_q2, ring_f3):
            for text in ("x^3+y^2", "x*y", "x^2+y^5", "x^4+y^4"):
                f = P(text, ring)
                assert tjurina_ideal(f, 0).equals(nash_ideal_t(f, 1))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_first_order_nash_dimension_is_tau(self, data):
        # backs invariant_report's dim T_1 = tau: the order-1 Jacobian ideal
        # is computed from the minors, tau from the gradient
        ring = data.draw(st.sampled_from([
            RingContext(names, field)
            for field in (QQ, GF(2), GF(3), GF(5))
            for names in (("x", "y"), ("x", "y", "z"))
        ]))
        # a pure power of every variable keeps most draws isolated; the
        # extra terms through the origin perturb it
        powers = data.draw(st.lists(st.integers(2, 6), min_size=ring.nvars, max_size=ring.nvars))
        extra = data.draw(st.lists(
            st.tuples(monomial_strategy(ring.nvars, 5), st.integers(-4, 4)), max_size=3
        ))
        f = ring.zero()
        for i, e in enumerate(powers):
            f = f + ring.monomial(tuple(e if j == i else 0 for j in range(ring.nvars)), 1)
        for alpha, c in extra:
            if sum(alpha) >= 2:
                f = f + ring.monomial(alpha, c)
        if f.is_zero():
            f = ring.monomial((2,) + (0,) * (ring.nvars - 1))
        assert nash_ideal_t(f, 1).dimension() == tjurina_number(f)


class TestTjurinaNumber:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("x^3+y^2", 2),      # cusp
            ("x^3+y^4", 6),
            ("x^3+x*y^3", 7),
            ("x^3+y^5", 8),
            ("x^2+y^2", 1),
            ("x^3+x*y^2", 4),
        ],
    )
    def test_known_values_and_linear_algebra_oracle(self, ring_q2, text, expected):
        f = P(text, ring_q2)
        gens = [f] + list(jacobian_ideal(f).generators)
        # stabilized truncation: once two consecutive bounds agree the count is exact
        dims = [linalg_quotient_dim(gens, ring_q2, bound) for bound in (8, 9, 10)]
        assert dims[0] == dims[1] == dims[2] == expected
        assert tjurina_number(f) == expected

    def test_smooth_is_zero(self, ring_q2):
        assert tjurina_number(P("x", ring_q2)) == 0

    def test_non_isolated_is_infinite(self, ring_q2):
        assert tjurina_number(P("x^2", ring_q2)) is INFINITE

    def test_high_degree_closed_form(self, ring_q2):
        # (f) + j(f) = (x^199, y^199) for f = x^200 + y^200 over Q
        f = P("x^200+y^200", ring_q2)
        assert tjurina_number(f) == 199**2
        assert nash_ideal_t(f, 1).dimension() == 39601


class TestGpBound:
    def test_positive_characteristic_formula(self):
        assert gp_bound(2, 2, 3) == 4
        assert gp_bound(6, 3, 5) == 10

    def test_characteristic_zero(self):
        assert gp_bound(6, 2, 0) == 1

    def test_algebraically_closed_flag(self):
        assert gp_bound(6, 2, 0, algebraically_closed=True) == 0
        assert gp_bound(6, 2, 7, algebraically_closed=True) == 2 * 6 - 2 * 2 + 4

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            gp_bound(INFINITE, 2, 0)
        with pytest.raises(ValueError):
            gp_bound(3, 1, 0)

    @pytest.mark.parametrize("tau", [math.inf, float("inf"), copy.copy(INFINITE)])
    def test_rejects_every_float_infinity(self, tau):
        # infinity is compared by value, not by identity with INFINITE
        for p in (0, 5):
            with pytest.raises(ValueError, match="finite Tjurina number"):
                gp_bound(tau, 2, p)


class TestInclusions:
    def test_all_hold_for_cubic(self, ring_q2):
        report = check_inclusions(P("x^3+y^3", ring_q2), 2)
        assert all(c.holds for c in report)
        assert all(c.asserted for c in report)

    def test_excluded_case_not_asserted(self, ring_q2):
        report = check_inclusions(P("x^2+y^2", ring_q2), 2)
        by_name = {c.name: c for c in report}
        assert by_name["descending-chain"].holds
        assert by_name["shifted-inside-m-j1-squared"].holds
        assert by_name["inside-j1-power-2"].holds
        middle = by_name["inside-m-j1-squared"]
        assert not middle.asserted  # d = n = mt = 2 sits outside the hypothesis
        assert not middle.holds     # and the inclusion genuinely fails there

    def test_higher_order_branch(self, ring_q2):
        report = check_inclusions(P("x^3+y^4", ring_q2), 3)
        by_name = {c.name: c for c in report}
        assert by_name["inside-m-j1-squared"].asserted
        assert by_name["inside-m-j1-squared"].holds

    def test_hypothesis_guard(self, ring_q2):
        with pytest.raises(ValueError):
            check_inclusions(P("x", ring_q2), 2)
        with pytest.raises(ValueError):
            check_inclusions(P("x^2+y^2", ring_q2), 1)


class _OverTime(Exception):
    pass


@contextlib.contextmanager
def rejected_after(seconds: float):
    """Reject the running Hypothesis example once its body has run for `seconds`.

    Some germs keep a containment busy for minutes; a differential can only
    compare the examples that finish.
    """
    def expire(signum, frame):
        raise _OverTime

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except _OverTime:
        reject()
    finally:
        signal.signal(signal.SIGALRM, previous)


FIELDS = (QQ, GF(2), GF(3), GF(5))
RINGS = [RingContext(names, field) for names in (("x",), ("x", "y"), ("x", "y", "z")) for field in FIELDS]
PLANE = RingContext(("x", "y"), QQ)
SPACE = RingContext(("x", "y", "z"), QQ)


@st.composite
def germs_and_orders(draw):
    """(f, n): germs of multiplicity >= 2 in 1 to 3 variables, some not isolated.

    Three-variable germs are drawn at n = 2 only: at n = 3 most random ones
    run past the time bound (J_3 has thousands of minors), so fixed examples
    cover that case.
    """
    ring = draw(st.sampled_from(RINGS))
    n = draw(st.sampled_from([2, 3] if ring.nvars < 3 else [2]))
    if ring.nvars > 1 and draw(st.booleans()):
        # x_v^2 * g is singular along the whole hyperplane x_v = 0
        v = draw(st.integers(0, ring.nvars - 1))
        f = ring.monomial(tuple(2 if i == v else 0 for i in range(ring.nvars))) * draw(
            nonzero_polynomial_strategy(ring, 3, 3)
        )
    else:
        terms = draw(st.lists(
            st.tuples(monomial_strategy(ring.nvars, 5).filter(lambda a: sum(a) >= 2), st.integers(-4, 4)),
            min_size=1,
            max_size=4,
        ))
        f = ring.zero()
        for alpha, c in terms:
            f = f + ring.monomial(alpha, c)
    assume(not f.is_zero())
    return f, n


class TestInclusionsAgainstReference:
    """check_inclusions against computing every inclusion (conftest.reference_inclusions)."""

    @settings(max_examples=100, deadline=None)
    @given(germs_and_orders())
    @example((P("x^2+y^2", PLANE), 2))  # p = 2: (ii) fails, so (iii) and (iv) are computed
    @example((P("x^3+y^4", PLANE), 3))  # p = 3: (iv) holds and gives (ii) and (iii)
    @example((P("x^3", RingContext(("x",), GF(3))), 2))  # d = 1: p = 1
    @example((P("x^2*y^2", RingContext(("x", "y"), GF(2))), 3))  # not isolated
    @example((P("x^2+y^2*z", SPACE), 2))  # p = 3 in three variables
    @example((P("x^2+y^2+z^2", SPACE), 3))  # p = 6
    @example((P("x*y*z", RingContext(("x", "y", "z"), GF(3))), 3))  # p = 6, not isolated
    def test_same_report(self, germ):
        f, n = germ
        with rejected_after(2.0):
            try:
                want = reference_inclusions(f, n)
            except ideals.MembershipUndecided:
                # a reference that gives up, like one past the bound, leaves
                # nothing to compare; the library must still decide wherever
                # the reference did
                reject()
            got = check_inclusions(f, n)
        assert got == want

    @pytest.mark.parametrize(
        "text, n, computed, builds_m_j1_sq",
        [
            ("x^3+y^4", 3, 2, False),  # p = 3: (i), then (iv), which gives (ii) and (iii)
            ("x^3+y^3", 2, 2, True),   # p = 2: (i), then (ii), which gives (iii) and (iv)
            ("x^2+y^2", 2, 4, True),   # p = 2: (ii) fails, so (iii) and (iv) are computed
        ],
    )
    def test_computes_and_builds_only_what_it_reads(self, ring_q2, monkeypatch, text, n, computed, builds_m_j1_sq):
        containments = []
        contains_ideal = Ideal.contains_ideal
        monkeypatch.setattr(Ideal, "contains_ideal", lambda a, b: containments.append(b) or contains_ideal(a, b))
        built = []
        monkeypatch.setattr(
            "nashblowup.algebras.maximal_ideal_power", lambda *a: built.append(a) or maximal_ideal_power(*a)
        )
        check_inclusions(P(text, ring_q2), n)
        assert len(containments) == computed
        assert bool(built) == builds_m_j1_sq


class TestIdealPower:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(RINGS).flatmap(
        lambda ring: st.lists(nonzero_polynomial_strategy(ring, 3, 3), min_size=0, max_size=3).map(
            lambda gens: Ideal(ring, gens)
        )
    ))
    def test_same_certified_basis_as_repeated_products(self, base):
        for k in range(4):
            want = power_by_products(base, k)._certified
            got = (base ** k)._certified
            assert (got is None) == (want is None)
            if got is not None:
                assert got.elements == want.elements

    def test_one_product_per_multiset(self, ring_q3):
        j = ideal(ring_q3, "x", "y", "z")
        assert len((j ** 3).generators) == 10
        assert len(power_by_products(j, 3).generators) == 27


class TestSamuelGap:
    def test_random_elements_of_m_j_squared_have_high_order(self, ring_q2):
        rng = random.Random("samuel-gap")
        for text in ("x^3+y^3", "x^2+y^3", "x^4+y^4"):
            f = P(text, ring_q2)
            mt = f.multiplicity()
            target = maximal_ideal_power(ring_q2, 1) * (jacobian_ideal(f) ** 2)
            for _ in range(8):
                combo = ring_q2.zero()
                for g in target.generators:
                    if rng.random() < 0.5:
                        coeff = rng.choice((-2, -1, 1, 2))
                        alpha = (rng.randint(0, 2), rng.randint(0, 2))
                        combo = combo + term_mul(g, ring_q2.field.coerce(coeff), alpha)
                if combo.is_zero():
                    continue
                assert combo.multiplicity() >= 1 + 2 * (mt - 1)


class TestInfinite:
    """INFINITE, the dimension of an infinite quotient, orders and prints as the CLI and JSON read it."""

    def test_above_every_int(self):
        for n in (0, 1, -5, 10**18, 10**400):
            assert INFINITE > n and n < INFINITE
            assert INFINITE >= n and not INFINITE <= n
            assert INFINITE != n

    def test_equal_to_itself_and_a_key(self):
        assert INFINITE == INFINITE and INFINITE >= INFINITE and not INFINITE > INFINITE
        assert {INFINITE: 1}[INFINITE] == 1
        assert len({INFINITE, INFINITE, 3}) == 2
        assert sorted([7, INFINITE, 0, 10**400]) == [0, 7, 10**400, INFINITE]
        assert sorted([7, INFINITE, 0])[-1] is INFINITE

    def test_prints_as_infinite(self):
        assert str(INFINITE) == repr(INFINITE) == f"{INFINITE}" == "infinite"
        assert f"dimension: {INFINITE}" == "dimension: infinite"

    def test_json_reads_inf(self):
        assert dimension_json(INFINITE) == "inf"
        assert dimension_json(7) == 7

    @pytest.mark.parametrize("value", [math.inf, copy.copy(INFINITE)])
    def test_json_reads_inf_for_every_float_infinity(self, value):
        # json.dumps writes a bare float infinity as Infinity, which is not JSON
        assert dimension_json(value) == "inf"
        assert json.dumps(dimension_json(value)) == '"inf"'


class TestInvariantReport:
    def test_cusp_profile(self, ring_q2):
        report = invariant_report(P("x^3+y^2", ring_q2), 2, 1)
        assert report.mt == 2
        assert report.tau == 2
        assert report.dim_tn[1] == 2
        assert report.gp == 1

    def test_char3_quartic_dimension(self, ring_f3):
        report = invariant_report(P("x^4+y^4", ring_f3), 1, 0)
        assert report.dim_tn[1] == 9
        assert report.mt == 4
        assert report.gp == 2 * 9 - 2 * 4 + 4

    def test_smooth_germ(self, ring_q2):
        report = invariant_report(P("x", ring_q2), 2, 0)
        assert report.mt == 1
        assert report.tau == 0
        assert report.gp is None

    def test_json_encoding_of_infinite(self, ring_q2):
        report = invariant_report(P("x^2", ring_q2), 1, 0)
        obj = report.to_json_obj()
        assert obj["tau"] == "inf"
        assert obj["dimTn"]["1"] == "inf"
        assert obj["gpBound"] is None

    def test_an_infinite_tau_of_another_object_has_no_bound(self, ring_f3, monkeypatch):
        # an infinite Tjurina number that is not the INFINITE object itself
        monkeypatch.setattr(algebras, "tjurina_number", lambda f: math.inf)
        report = invariant_report(P("x^3+y^2", ring_f3), 1, 0)
        assert report.gp is None
        assert json.loads(json.dumps(report.to_json_obj()))["tau"] == "inf"

    def test_tjurina_ideal_completed_once(self, ring_q2, monkeypatch):
        # tau, dim T_0 and the Nash algebra T_1 are the same ideal: one
        # basis for all three, then T_1 and the Nash algebra T_2
        calls = []
        original = ideals.compute_standard_basis

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(ideals, "compute_standard_basis", counted)
        report = invariant_report(P("x^3+y^5", ring_q2), 2, 1)
        assert report.dim_tk[0] == report.tau == 8
        assert list(report.dim_tk) == [0, 1]
        assert report.dim_tn[1] == report.tau
        assert len(calls) == 3

    def test_monotone_algebra_dimensions(self, ring_q2):
        # growth follows from the descending chain of defining ideals
        for text in ("x^3+y^2", "x*y", "x^2+y^4"):
            f = P(text, ring_q2)
            previous = None
            for n in (1, 2, 3):
                tn = nash_ideal_t(f, n)
                if previous is not None:
                    assert previous.contains_ideal(tn)
                    assert tn.dimension() >= previous.dimension()
                previous = tn
