from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashblowup.fields import GF, QQ
from nashblowup.parsing import PolynomialSyntaxError, format_polynomial, parse_polynomial
from nashblowup.polynomials import RingContext

from conftest import P, monomial_strategy, polynomial_strategy, reference_format_polynomial


def test_basic_two_terms(ring_q2):
    f = P("x^3 + y^2", ring_q2)
    assert f.terms == {(3, 0): 1, (0, 2): 1}


def test_coefficient_reduced_mod_p(ring_f3):
    assert P("3*x^2", ring_f3).is_zero()


def test_char3_quartic_pair(ring_f3):
    f = P("x^4+y^4+x^3", ring_f3)
    assert len(f.terms) == 3
    assert f.terms[(3, 0)] == 1


def test_rational_coefficients(ring_q2):
    f = P("1/2*x - 3/4", ring_q2)
    from fractions import Fraction

    assert f.terms[(1, 0)] == Fraction(1, 2)
    assert f.terms[(0, 0)] == Fraction(-3, 4)


def test_repeated_variable_in_term(ring_q2):
    assert P("x*x*y", ring_q2) == P("x^2*y", ring_q2)


def test_leading_minus(ring_q2):
    assert P("-x + 1", ring_q2) == ring_q2.one() - ring_q2.variable(0)


def test_syntax_error_has_position(ring_q2):
    with pytest.raises(PolynomialSyntaxError) as err:
        P("x^2 + $", ring_q2)
    assert err.value.position == 6


def test_unknown_variable(ring_q2):
    with pytest.raises(PolynomialSyntaxError, match="unknown variable 'z'"):
        P("x + z", ring_q2)


def test_division_rejected_over_prime_field(ring_f3):
    with pytest.raises(PolynomialSyntaxError, match="rationals"):
        P("1/2*x", ring_f3)


def test_division_by_variable_rejected(ring_q2):
    with pytest.raises(PolynomialSyntaxError):
        P("x/2", ring_q2)


def test_empty_input_rejected(ring_q2):
    with pytest.raises(PolynomialSyntaxError):
        P("", ring_q2)


def test_format_zero(ring_q2):
    assert format_polynomial(ring_q2.zero()) == "0"
    assert P("0", ring_q2).is_zero()


@settings(max_examples=60, deadline=None)
@given(polynomial_strategy(RingContext(("x", "y"), QQ)))
def test_round_trip_rationals(f):
    assert parse_polynomial(format_polynomial(f), f.ring) == f


@settings(max_examples=60, deadline=None)
@given(polynomial_strategy(RingContext(("x", "y", "z"), GF(5)), max_terms=5, max_degree=5))
def test_round_trip_prime_field(f):
    assert parse_polynomial(format_polynomial(f), f.ring) == f


FORMAT_RINGS = [
    RingContext(names, field)
    for field in (QQ, GF(2), GF(3), GF(5))
    for names in (("x", "y"), ("x", "y", "z"))
]


@st.composite
def fractional_polynomial(draw):
    """Polynomials over one of FORMAT_RINGS with signed, non-integer coefficients."""
    ring = draw(st.sampled_from(FORMAT_RINGS))
    # over F_p a denominator divisible by p has no image
    p = ring.field.characteristic
    denominators = [d for d in range(1, 8) if not p or d % p]
    coeff = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(denominators))
    terms = draw(st.lists(st.tuples(monomial_strategy(ring.nvars, 6), coeff), max_size=8))
    out = ring.zero()
    for alpha, c in terms:
        out = out + ring.monomial(alpha, c)
    return out


@settings(max_examples=200, deadline=None)
@given(fractional_polynomial())
def test_format_matches_reference(f):
    assert format_polynomial(f) == reference_format_polynomial(f)
    assert str(f) == reference_format_polynomial(f)
