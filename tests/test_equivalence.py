import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nashblowup.algebras import nash_ideal_t, tjurina_number
from nashblowup.equivalence import (
    ContactTransform,
    HarnessConfig,
    LocalAutomorphism,
    UnitElement,
    apply_to_ideal,
    check_contact_invariance,
    check_right_covariance,
    check_unit_stability,
    random_automorphism,
    random_unit,
    run_invariance_harness,
    samuel_hypothesis,
)
from nashblowup.fields import GF, QQ
from nashblowup.ideals import INFINITE, Ideal, maximal_ideal_power
from nashblowup.jacobian import higher_jacobian_ideal, jacobian_ideal
from nashblowup.polynomials import Polynomial, RingContext

from conftest import P, identity_automorphism, monomial_strategy, nonzero_polynomial_strategy


def auto(ring, *texts):
    return LocalAutomorphism(ring, tuple(P(t, ring) for t in texts))


class TestValidation:
    def test_triangular_is_valid(self, ring_q2):
        assert auto(ring_q2, "x+y^2", "y").is_valid()

    def test_singular_linear_part(self, ring_q2):
        assert not auto(ring_q2, "x^2", "y").is_valid()

    def test_origin_not_preserved(self, ring_q2):
        assert not auto(ring_q2, "x+1", "y").is_valid()

    def test_wrong_image_count(self, ring_q2):
        with pytest.raises(ValueError):
            LocalAutomorphism(ring_q2, (P("x", ring_q2),))

    def test_unit_validity(self, ring_q2):
        assert UnitElement(P("1+x", ring_q2)).is_valid()
        assert not UnitElement(P("x", ring_q2)).is_valid()


class TestApplication:
    def test_identity_fixes_ideal(self, ring_q2):
        i = Ideal(ring_q2, [P("x^2+y^3", ring_q2)])
        assert apply_to_ideal(identity_automorphism(ring_q2), i).equals(i)

    def test_swap(self, ring_q2):
        i = Ideal(ring_q2, [P("x^2", ring_q2)])
        swapped = apply_to_ideal(auto(ring_q2, "y", "x"), i)
        assert swapped.equals(Ideal(ring_q2, [P("y^2", ring_q2)]))

    def test_shear_on_generator(self, ring_q2):
        i = Ideal(ring_q2, [P("x", ring_q2)])
        moved = apply_to_ideal(auto(ring_q2, "x+y^2", "y"), i)
        assert moved.equals(Ideal(ring_q2, [P("x+y^2", ring_q2)]))

    def test_invalid_automorphism_rejected(self, ring_q2):
        with pytest.raises(ValueError):
            apply_to_ideal(auto(ring_q2, "x^2", "y"), Ideal(ring_q2, [P("x", ring_q2)]))

    def test_contact_application(self, ring_q2):
        f = P("x^2", ring_q2)
        t1 = ContactTransform(identity_automorphism(ring_q2), UnitElement(P("1", ring_q2)))
        assert t1.is_valid()
        assert t1.apply(f) == f
        t2 = ContactTransform(auto(ring_q2, "x+y^2", "y"), UnitElement(P("1", ring_q2)))
        assert t2.is_valid()
        assert t2.apply(f) == P("x^2+2*x*y^2+y^4", ring_q2)
        t3 = ContactTransform(identity_automorphism(ring_q2), UnitElement(P("1+x", ring_q2)))
        assert t3.is_valid()
        assert t3.apply(f) == P("x^2+x^3", ring_q2)


class TestIdentityChecks:
    def test_covariance_under_swap(self, ring_q2):
        assert check_right_covariance(P("x^3+y^2", ring_q2), auto(ring_q2, "y", "x"), 2)

    def test_covariance_under_shear(self, ring_q2):
        assert check_right_covariance(P("x*y", ring_q2), auto(ring_q2, "x+y^2", "y"), 2)

    def test_covariance_identity(self, ring_q2):
        f = P("x^4-2*x*y^2", ring_q2)
        assert check_right_covariance(f, identity_automorphism(ring_q2), 2)

    def test_unit_stability(self, ring_q2):
        assert check_unit_stability(P("x^2+y^3", ring_q2), UnitElement(P("1+x", ring_q2)), 2)
        assert check_unit_stability(P("x*y", ring_q2), UnitElement(P("2", ring_q2)), 2)
        assert check_unit_stability(P("x^3-y^4", ring_q2), UnitElement(P("1", ring_q2)), 2)

    def test_contact_invariance(self, ring_q2):
        f = P("x^2+y^3", ring_q2)
        t = ContactTransform(identity_automorphism(ring_q2), UnitElement(P("1+x", ring_q2)))
        assert check_contact_invariance(f, t, 2)
        t2 = ContactTransform(auto(ring_q2, "x+y^2", "y"), UnitElement(P("1", ring_q2)))
        assert check_contact_invariance(P("x*y", ring_q2), t2, 2)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_contact_invariance_of_random_isolated_germs(self, data):
        # the paper's theorem as an oracle: phi((f) + J_n(f)) = (g) + J_n(g)
        # for g = u * phi(f), on germs of finite Tjurina number, every
        # verdict decided (MembershipUndecided fails the test)
        field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
        ring = RingContext(("x", "y")[:data.draw(st.integers(1, 2))], field)
        drawn = data.draw(nonzero_polynomial_strategy(ring, max_terms=4, max_degree=4))
        # singular germs: a linear term makes every ideal here the unit ideal
        f = Polynomial(ring, {a: c for a, c in drawn.terms.items() if sum(a) >= 2})
        assume(not f.is_zero() and tjurina_number(f) is not INFINITE)
        seeds = st.integers(0, 10**6)
        transform = ContactTransform(random_automorphism(ring, data.draw(seeds)), random_unit(ring, data.draw(seeds)))
        assert check_contact_invariance(f, transform, data.draw(st.integers(1, 2)))

    def test_char_p_covariance(self):
        ring = RingContext(("x", "y"), GF(5))
        assert check_right_covariance(P("x^2+y^3", ring), auto(ring, "y", "x"), 2)
        assert check_unit_stability(P("x*y", ring), UnitElement(P("1+x+y", ring)), 2)


class TestSamuelHypothesis:
    def test_reflexive(self, ring_q2):
        f = P("x^3+y^3", ring_q2)
        assert samuel_hypothesis(f, f)

    def test_high_order_perturbation(self, ring_q2):
        # x^5 = x * (x^2)^2 is an explicit cofactor witness
        f = P("x^3+y^3", ring_q2)
        assert samuel_hypothesis(f, f + P("x^5", ring_q2))

    def test_low_order_perturbation_fails(self, ring_q2):
        f = P("x^3+y^3", ring_q2)
        assert not samuel_hypothesis(f, f + P("x^3", ring_q2))

    def test_unit_jacobian_rejected(self, ring_q2):
        with pytest.raises(ValueError, match="proper"):
            samuel_hypothesis(P("x", ring_q2), P("x", ring_q2))

    @pytest.mark.parametrize("text", ["x^2+y", "y+x*y"])
    def test_unit_after_the_first_jacobian_generator_rejected(self, ring_q2, text):
        # j(f) = (2*x, 1) and (y, 1 + x): a unit at the origin, not a constant first
        f = P(text, ring_q2)
        with pytest.raises(ValueError, match="proper"):
            samuel_hypothesis(f, f)

    def test_constant_germ_has_a_proper_jacobian_ideal(self, ring_q2):
        # j(3) has no generators: the zero ideal, proper, and m * 0 holds only 0
        f = ring_q2.constant(3)
        assert samuel_hypothesis(f, f)
        assert not samuel_hypothesis(f, f + P("x^5", ring_q2))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_samuel_direction_on_random_isolated_germs(self, data):
        # the paper's converse through Samuel (1956): g - f in m * j(f)^2
        # makes g equivalent to f, so (f) + J_n(f) and (g) + J_n(g) have
        # equal colength, and so have J_n(f) and J_n(g); asserted over Q only.
        # J_2 is left out: one run in 31 drew a g, 3*y^3+4*x^3*y-6*x*y^3
        # plus a tail with coefficients up to 960, whose J_2 falls to
        # Lazard's route, which has no budget and runs for minutes
        ring = RingContext(("x", "y")[:data.draw(st.integers(1, 2))], QQ)
        drawn = data.draw(nonzero_polynomial_strategy(ring, max_terms=4, max_degree=4))
        f = Polynomial(ring, {a: c for a, c in drawn.terms.items() if sum(a) >= 2})
        assume(not f.is_zero() and tjurina_number(f) is not INFINITE)
        generators = (maximal_ideal_power(ring, 1) * jacobian_ideal(f) ** 2).generators
        h = ring.zero()
        for _ in range(data.draw(st.integers(1, 3))):
            c = data.draw(st.sampled_from([-2, -1, 1, 2]))
            h = h + ring.monomial(data.draw(monomial_strategy(ring.nvars, 2)), c) * data.draw(st.sampled_from(generators))
        g = f + h
        assert samuel_hypothesis(f, g)
        for n in (1, 2):
            assert nash_ideal_t(f, n).dimension() == nash_ideal_t(g, n).dimension()
        assert higher_jacobian_ideal(f, 1).dimension() == higher_jacobian_ideal(g, 1).dimension()


class TestRandomGenerators:
    def test_deterministic(self, ring_q2):
        a1 = random_automorphism(ring_q2, 42)
        a2 = random_automorphism(ring_q2, 42)
        assert a1.images == a2.images
        u1 = random_unit(ring_q2, 42)
        u2 = random_unit(ring_q2, 42)
        assert u1.u == u2.u

    def test_postconditions(self, ring_q2):
        for seed in range(12):
            assert random_automorphism(ring_q2, seed).is_valid()
            assert random_unit(ring_q2, seed).is_valid()

    def test_linear_only(self, ring_q2):
        phi = random_automorphism(ring_q2, 3, max_degree=1)
        assert all(g.total_degree() <= 1 for g in phi.images)

    def test_char2_units_nonzero(self):
        ring = RingContext(("x", "y"), GF(2))
        for seed in range(10):
            assert random_unit(ring, seed).is_valid()


class TestHarness:
    def test_small_run_all_pass(self, ring_q2):
        config = HarnessConfig(seed=5, covariance_trials=4, unit_trials=4, contact_trials=2)
        report = run_invariance_harness(ring_q2, config)
        assert report["char"] == 0
        assert len(report["checks"]) == 10
        assert report["failures"] == []
        kinds = {c["kind"] for c in report["checks"]}
        assert kinds == {"right-covariance", "unit-stability", "contact-invariance"}
        for c in report["checks"]:
            assert set(c) == {"kind", "seed", "f", "n", "pass"}

    def test_report_is_replayable(self, ring_q2):
        config = HarnessConfig(seed=9, covariance_trials=3, unit_trials=0, contact_trials=0)
        first = run_invariance_harness(ring_q2, config)
        second = run_invariance_harness(ring_q2, config)
        assert first == second
