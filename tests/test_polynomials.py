import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashblowup.fields import GF, QQ, CoefficientField
from nashblowup.polynomials import (
    Polynomial,
    RingContext,
    _substitute_all,
    multi_indices_in_range,
)

from conftest import (
    GRADED_LEX,
    P,
    classical_iterated_partial,
    lucas_binom,
    monomial_strategy,
    nonzero_polynomial_strategy,
    polynomial_strategy,
)


class TestFields:
    def test_rationals(self):
        assert QQ.characteristic == 0
        assert QQ.coerce(6) * QQ.invert(QQ.coerce(4)) == QQ.coerce(3) / 2

    def test_prime_field(self):
        f5 = GF(5)
        assert f5.coerce(7) == 2
        assert f5.mul(3, 4) == 2
        assert f5.invert(2) == 3

    @pytest.mark.parametrize("bad", [1, 4, 6, 9, -3, 2**31 + 11])
    def test_rejects_nonprime(self, bad):
        with pytest.raises(ValueError):
            CoefficientField(bad)


class TestArithmetic:
    def test_product_difference_of_squares(self, ring_q2):
        assert P("x+y", ring_q2) * P("x-y", ring_q2) == P("x^2-y^2", ring_q2)

    def test_frobenius_square(self):
        ring = RingContext(("x", "y"), GF(2))
        assert P("x+y", ring) ** 2 == P("x^2+y^2", ring)

    def test_additive_identity(self, ring_q2):
        f = P("3*x^2-y", ring_q2)
        assert f + ring_q2.zero() == f

    def test_mixed_rings_rejected(self, ring_q2, ring_f3):
        with pytest.raises(ValueError):
            P("x", ring_q2) + P("x", ring_f3)

    @pytest.mark.parametrize("field", [QQ, GF(5)])
    def test_equal_distinct_rings_stay_interchangeable(self, field):
        # equality tests identity first; two equal rings that are distinct
        # objects still compare and hash equal, and so do their polynomials
        a, b = RingContext(("x", "y"), field), RingContext(("x", "y"), field)
        assert a is not b
        assert a == b and not a != b and hash(a) == hash(b)
        assert a != RingContext(("x", "z"), field) and a != RingContext(("x", "y"), GF(3))
        assert len({a, b}) == 1
        assert P("x+y", a) + P("x^2", b) == P("x^2+x+y", b)
        assert P("x*y", a) == P("x*y", b)

    def test_negative_power_rejected(self, ring_q2):
        with pytest.raises(ValueError):
            P("x", ring_q2) ** -1

    def test_scalar_mul(self, ring_q2):
        assert P("x+y", ring_q2).scalar_mul(3) == P("3*x+3*y", ring_q2)


class TestHasseDerivative:
    def test_first_order(self, ring_q2):
        assert P("x^3*y", ring_q2).hasse_derivative((1, 0)) == P("3*x^2*y", ring_q2)

    def test_char3_second_derivative_drops(self, ring_f3):
        # binomial oracle: C(4,2) mod 3 via Lucas
        assert lucas_binom(4, 2, 3) == 0
        assert P("x^4", ring_f3).hasse_derivative((2, 0)).is_zero()

    def test_char2_divided_square(self):
        ring = RingContext(("x",), GF(2))
        # C(2,2) = 1, where the naive f''/2! would be ill-defined
        assert P("x^2", ring).hasse_derivative((2,)) == ring.one()

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_monomial_rule_matches_lucas(self, p):
        ring = RingContext(("x",), GF(p))
        for b in range(0, 9):
            for g in range(0, 9):
                got = ring.monomial((b,)).hasse_derivative((g,))
                expect = lucas_binom(b, g, p)
                if b < g or expect == 0:
                    assert got.is_zero()
                else:
                    assert got == ring.monomial((b - g,), expect)


@pytest.mark.parametrize("char", [0, 2, 3, 5])
class TestHasseProperties:
    def _ring(self, char):
        return RingContext(("x", "y"), CoefficientField(char))

    def test_leibniz_rule(self, char):
        ring = self._ring(char)
        gammas = [g for g in multi_indices_in_range(2, 0, 3)]

        @settings(max_examples=30, deadline=None)
        @given(polynomial_strategy(ring), polynomial_strategy(ring), st.sampled_from(gammas))
        def run(f, g, gamma):
            left = (f * g).hasse_derivative(gamma)
            right = ring.zero()
            for a0 in range(gamma[0] + 1):
                for a1 in range(gamma[1] + 1):
                    alpha = (a0, a1)
                    beta = (gamma[0] - a0, gamma[1] - a1)
                    right = right + f.hasse_derivative(alpha) * g.hasse_derivative(beta)
            assert left == right

        run()

    def test_composition_rule(self, char):
        ring = self._ring(char)
        field = ring.field
        gammas = [g for g in multi_indices_in_range(2, 0, 2)]

        @settings(max_examples=30, deadline=None)
        @given(polynomial_strategy(ring), st.sampled_from(gammas), st.sampled_from(gammas))
        def run(f, alpha, beta):
            left = f.hasse_derivative(beta).hasse_derivative(alpha)
            binom = 1
            for a, b in zip(alpha, beta):
                binom *= math.comb(a + b, a)
            gamma = tuple(a + b for a, b in zip(alpha, beta))
            right = f.hasse_derivative(gamma).scalar_mul(field.coerce(binom))
            assert left == right

        run()


class TestCharZeroAgreement:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_classical_factorial_relation(self, data):
        ring = RingContext(("x", "y"), QQ)
        f = data.draw(polynomial_strategy(ring))
        gamma = data.draw(monomial_strategy(2, 3))
        fact = math.factorial(gamma[0]) * math.factorial(gamma[1])
        assert f.hasse_derivative(gamma).scalar_mul(fact) == classical_iterated_partial(f, gamma)


class TestSubstitution:
    def test_shear(self, ring_q2):
        f = P("x^2", ring_q2)
        images = [P("x+y", ring_q2), P("y", ring_q2)]
        assert f.substitute(images) == P("x^2+2*x*y+y^2", ring_q2)

    def test_identity_images(self, ring_q2):
        f = P("x^3-2*x*y+7", ring_q2)
        images = [ring_q2.variable(0), ring_q2.variable(1)]
        assert f.substitute(images) == f

    def test_triangular(self, ring_q2):
        f = P("x*y", ring_q2)
        images = [P("x", ring_q2), P("y+x^2", ring_q2)]
        assert f.substitute(images) == P("x*y+x^3", ring_q2)

    @pytest.mark.parametrize("field", [QQ, GF(3)])
    @pytest.mark.parametrize("text", ["x^2", "3", "2*x^3-x+1"])
    def test_high_degree_image_of_an_unused_variable(self, field, text):
        # y's image is past every packing's limit at the narrowest width
        # (degree 255), although no term of f contains y
        ring = RingContext(("x", "y"), field)
        f = P(text, ring)
        images = [P("x+x^2", ring), P("y+y^300", ring)]
        want = ring.zero()
        for alpha, c in f.terms.items():
            term = ring.constant(c)
            for image, k in zip(images, alpha):
                term = term * image**k
            want = want + term
        assert f.substitute(images) == want
        assert _substitute_all(ring, [f, f + ring.one()], images) == [want, want + ring.one()]

    def test_wrong_image_count(self, ring_q2):
        with pytest.raises(ValueError):
            P("x", ring_q2).substitute([P("x", ring_q2)])


class TestArithmeticAgainstSympy:
    """+, -, *, scalar_mul and substitute against sympy's Poly, an independent
    engine, on pairs that cancel; every result in canonical form."""

    @staticmethod
    def draw_polynomial(data, ring, max_terms, max_degree):
        coeffs = st.fractions(-4, 4, max_denominator=4) if ring.field.characteristic == 0 else st.integers(-4, 4)
        terms = st.dictionaries(monomial_strategy(ring.nvars, max_degree), coeffs, max_size=max_terms)
        return Polynomial(ring, data.draw(terms))

    @staticmethod
    def assert_canonical(f):
        p = f.ring.field.characteristic
        for c in f.terms.values():
            assert c
            if p:
                assert type(c) is int and 0 <= c < p
            else:
                assert type(c) is Fraction

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_operations_match_sympy(self, data):
        sympy = pytest.importorskip("sympy")
        field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
        ring = RingContext(("x", "y", "z")[:data.draw(st.integers(1, 3))], field)
        p = field.characteristic
        syms = sympy.symbols(ring.variables)
        domain = sympy.GF(p) if p else sympy.QQ

        def theirs(f):
            terms = {a: c if p else sympy.Rational(c.numerator, c.denominator) for a, c in f.terms.items()}
            return sympy.Poly.from_dict(terms or {(0,) * ring.nvars: 0}, *syms, domain=domain)

        def ours(poly):
            return Polynomial(ring, {m: int(c) if p else Fraction(int(c.p), int(c.q)) for m, c in poly.terms()})

        f = self.draw_polynomial(data, ring, 5, 4)
        g = self.draw_polynomial(data, ring, 5, 4)
        # pairs that cancel: f + (g - f) = g, f - f = 0 and f + (-f) = 0
        g = data.draw(st.sampled_from([g, g - f, f, -f]))
        scalar = data.draw(st.fractions(-3, 3, max_denominator=3) if not p else st.integers(-6, 6))
        images = [self.draw_polynomial(data, ring, 3, 2) for _ in range(ring.nvars)]
        tf, tg, timages = theirs(f), theirs(g), [theirs(h) for h in images]
        substituted = theirs(ring.zero())
        for a, c in f.terms.items():
            term = theirs(ring.constant(c))
            for h, e in zip(timages, a):
                term = term * h**e
            substituted = substituted + term
        expected_scalar = tf.mul_ground(domain.convert(scalar if p else sympy.Rational(scalar.numerator, scalar.denominator)))
        for got, expected in [
            (f + g, tf + tg),
            (f - g, tf - tg),
            (f * g, tf * tg),
            (f.scalar_mul(scalar), expected_scalar),
            (f.substitute(images), substituted),
        ]:
            self.assert_canonical(got)
            assert got == ours(expected)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_substitute_all_matches_sympy(self, data):
        # several polynomials through shared images, over Q with denominators
        # in both the polynomials and the images, so that the scaled integer
        # path runs
        sympy = pytest.importorskip("sympy")
        field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
        ring = RingContext(("x", "y", "z")[:data.draw(st.integers(1, 3))], field)
        p = field.characteristic
        syms = sympy.symbols(ring.variables)
        domain = sympy.GF(p) if p else sympy.QQ

        def theirs(f):
            terms = {a: c if p else sympy.Rational(c.numerator, c.denominator) for a, c in f.terms.items()}
            return sympy.Poly.from_dict(terms or {(0,) * ring.nvars: 0}, *syms, domain=domain)

        def ours(poly):
            return Polynomial(ring, {m: int(c) if p else Fraction(int(c.p), int(c.q)) for m, c in poly.terms()})

        polys = [self.draw_polynomial(data, ring, 4, 4) for _ in range(data.draw(st.integers(1, 4)))]
        images = [self.draw_polynomial(data, ring, 3, 2) for _ in range(ring.nvars)]
        if not p:
            denominator = st.sampled_from([Fraction(1, 3), Fraction(-5, 2), Fraction(7, 6)])
            polys = [f.scalar_mul(data.draw(denominator)) for f in polys]
            images[0] = images[0].scalar_mul(data.draw(denominator))
        timages = [theirs(h) for h in images]
        got = _substitute_all(ring, polys, images)
        assert len(got) == len(polys)
        for f, g in zip(polys, got):
            expected = theirs(ring.zero())
            for a, c in f.terms.items():
                term = theirs(ring.constant(c))
                for h, e in zip(timages, a):
                    term = term * h**e
                expected = expected + term
            self.assert_canonical(g)
            assert g == ours(expected)
            assert g == f.substitute(images)


class TestMultiplicity:
    def test_lowest_degree_term(self, ring_q2):
        assert P("x^3+x*y", ring_q2).multiplicity() == 2

    def test_quadric(self, ring_q2):
        assert P("x^2+y^2", ring_q2).multiplicity() == 2

    def test_unit(self, ring_q2):
        assert P("1+x", ring_q2).multiplicity() == 0

    def test_zero_rejected(self, ring_q2):
        with pytest.raises(ValueError, match="multiplicity of zero"):
            ring_q2.zero().multiplicity()

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_multiplicative(self, data):
        ring = RingContext(("x", "y"), QQ)
        f = data.draw(nonzero_polynomial_strategy(ring, max_terms=4, max_degree=4))
        g = data.draw(nonzero_polynomial_strategy(ring, max_terms=4, max_degree=4))
        assert (f * g).multiplicity() == f.multiplicity() + g.multiplicity()


class TestMultiIndexEnumeration:
    def test_row_index_set(self):
        assert multi_indices_in_range(2, 0, 1) == [(0, 0), (1, 0), (0, 1)]

    def test_column_index_set(self):
        assert multi_indices_in_range(2, 1, 2) == [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def test_one_variable(self):
        assert multi_indices_in_range(1, 1, 3) == [(1,), (2,), (3,)]

    @pytest.mark.parametrize("d,lo,hi", [(1, 0, 4), (2, 1, 3), (3, 0, 3), (4, 2, 5)])
    def test_count_law(self, d, lo, hi):
        got = len(multi_indices_in_range(d, lo, hi))
        expect = math.comb(d + hi, d) - (math.comb(d + lo - 1, d) if lo > 0 else 0)
        assert got == expect

    def test_bad_range(self):
        with pytest.raises(ValueError):
            multi_indices_in_range(2, 3, 1)


class TestMonomialOrders:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.lists(monomial_strategy(d + 1, 8), max_size=12)))
    def test_graded_lex_orders_homogenized_monomials_locally(self, monomials):
        # on (t, x_1, ..., x_d): at a fixed total degree a larger t is a
        # smaller degree in x, so graded lex breaks degree ties by the local
        # order on the x part, the key Lazard's route needs
        def homogenized_local(alpha):
            rest = alpha[1:]
            return (sum(alpha), -sum(rest), rest)

        assert sorted(monomials, key=GRADED_LEX.key) == sorted(monomials, key=homogenized_local)
