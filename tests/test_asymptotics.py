"""Leading-order monomial arithmetic: exact exponents, tolerant coefficients."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from markovscale.asymptotics import (
    INF,
    ONE,
    ZERO,
    format_exponent,
    mono_add,
    mono_div,
    mono_eval,
    mono_limit,
    mono_mul,
    mono_sum,
    monomial,
    parse_exponent,
)

from helpers import mono_close


def F(p, q=1):
    return Fraction(p, q)


# ---------------------------------------------------------------- parsing


def test_parse_exponent_accepts_integers_fractions_and_inf():
    assert parse_exponent("2") == F(2)
    assert parse_exponent("3/5") == F(3, 5)
    assert parse_exponent("-1/10") == F(-1, 10)
    assert parse_exponent("inf") == INF
    assert parse_exponent("6/10") == F(3, 5)  # reduced on the way in


@pytest.mark.parametrize("bad", ["", "1.5", "3/5/7", "a", "1/0", "1 /2", "+3"])
def test_parse_exponent_rejects_malformed_text(bad):
    with pytest.raises(ValueError):
        parse_exponent(bad)


def test_format_exponent_round_trips():
    for text in ["0", "2", "3/5", "-1/10", "inf"]:
        assert format_exponent(parse_exponent(text)) == text


@given(st.integers(-50, 50), st.integers(1, 50))
def test_parse_format_round_trip_on_random_rationals(p, q):
    e = Fraction(p, q)
    assert parse_exponent(format_exponent(e)) == e


# ------------------------------------------------------------ construction


def test_monomial_normalizes_zero_coefficient_to_the_zero_element():
    assert monomial(0.0, F(1, 5)) == ZERO
    assert ZERO.is_zero()
    assert ZERO.exp == INF


def test_a_monomial_is_the_pair_of_its_coefficient_and_exponent():
    m = monomial(0.5, F(1, 5))
    c, e = m
    assert (c, e) == (m.coeff, m.exp) == (0.5, F(1, 5))
    assert m == (0.5, F(1, 5)) and (0.5, F(1, 5)) == m
    assert hash(m) == hash((0.5, F(1, 5)))
    assert ZERO == (0.0, INF) and ONE == (1.0, 0)
    assert {"a": m} == {"a": (0.5, F(1, 5))}


def test_monomial_rejects_bad_inputs():
    with pytest.raises(ValueError):
        monomial(-1.0, F(1))
    with pytest.raises(ValueError):
        monomial(math.nan, F(1))
    with pytest.raises(ValueError):
        monomial(1.0, INF)  # positive mass cannot sit at an infinite exponent


# ------------------------------------------------------------- arithmetic


def test_add_keeps_the_smaller_exponent():
    a = monomial(1.0, F(1, 5))
    b = monomial(2.0, F(3, 5))
    assert mono_add(a, b) == a
    assert mono_add(b, a) == a


def test_add_sums_coefficients_on_exponent_ties():
    a = monomial(1.0, F(2, 5))
    b = monomial(2.0, F(2, 5))
    assert mono_add(a, b) == monomial(3.0, F(2, 5))


def test_add_with_zero_is_identity():
    a = monomial(0.3, F(1, 3))
    assert mono_add(a, ZERO) == a
    assert mono_add(ZERO, ZERO) == ZERO


def test_mul_multiplies_coefficients_and_adds_exponents():
    a = monomial(2.0, F(1, 5))
    b = monomial(3.0, F(2, 5))
    assert mono_mul(a, b) == monomial(6.0, F(3, 5))
    assert mono_mul(a, ZERO) == ZERO
    assert mono_mul(a, ONE) == a


def test_div_divides_coefficients_and_subtracts_exponents():
    assert mono_div(monomial(6.0, F(3, 5)), monomial(3.0, F(2, 5))) == monomial(2.0, F(1, 5))
    # negative exponents are legal transient values
    d = mono_div(monomial(1.0 / 3.0, F(0)), monomial(2.0, F(1, 5)))
    assert d.exp == F(-1, 5)
    assert d.coeff == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert mono_div(ZERO, monomial(2.0, F(1))) == ZERO
    with pytest.raises(ZeroDivisionError):
        mono_div(ONE, ZERO)


def test_limit_picks_out_the_exponent_zero_coefficient():
    assert mono_limit(monomial(2.5, F(2, 5))) == 0.0
    assert mono_limit(ONE) == 1.0
    assert mono_limit(ZERO) == 0.0
    with pytest.raises(ValueError):
        mono_limit(monomial(1.0, F(-1, 5)))


def test_eval_is_coeff_times_lambda_to_the_exponent():
    assert mono_eval(monomial(1.0, F(1, 5)), 1e-5) == pytest.approx(0.1, rel=1e-12)
    assert mono_eval(monomial(2.0, F(0)), 0.37) == 2.0
    assert mono_eval(monomial(1.0, F(3, 5)), 1e-5) == pytest.approx(1e-3, rel=1e-12)
    assert mono_eval(ZERO, 0.5) == 0.0
    with pytest.raises(ValueError):
        mono_eval(ONE, 0.0)
    with pytest.raises(ValueError):
        mono_eval(ONE, 1.5)


def test_sum_folds_a_sequence():
    parts = [monomial(1.0, F(1, 5)), monomial(2.0, F(1, 5)), monomial(7.0, F(1))]
    assert mono_sum(parts) == monomial(3.0, F(1, 5))
    assert mono_sum([]) == ZERO


# ------------------------------------------------- algebraic properties

GRID = [F(0), F(1, 5), F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2)]

monomials = st.one_of(
    st.just(ZERO),
    st.builds(
        monomial,
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        st.sampled_from(GRID),
    ),
)


@given(monomials, monomials)
def test_add_and_mul_commute(a, b):
    assert mono_add(a, b) == mono_add(b, a)
    assert mono_mul(a, b) == mono_mul(b, a)


@given(monomials, monomials, monomials)
def test_add_and_mul_associate(a, b, c):
    left = mono_add(mono_add(a, b), c)
    right = mono_add(a, mono_add(b, c))
    assert mono_close(left, right)
    assert mono_close(mono_mul(mono_mul(a, b), c), mono_mul(a, mono_mul(b, c)))


@given(monomials, monomials, monomials)
def test_mul_distributes_over_add(a, b, c):
    left = mono_mul(a, mono_add(b, c))
    right = mono_add(mono_mul(a, b), mono_mul(a, c))
    assert mono_close(left, right)


@given(
    st.builds(monomial, st.floats(1.0, 1.9), st.sampled_from(GRID)),
    st.builds(monomial, st.floats(1.0, 1.9), st.sampled_from(GRID)),
)
def test_eval_of_sum_approaches_sum_of_evals(a, b):
    """The dropped tail is O(lambda^gap) relative to the kept leading term."""
    s = mono_add(a, b)
    gap = abs(a.exp - b.exp)
    for lam in (1e-6, 1e-9, 1e-12):
        lead = mono_eval(s, lam)
        exact = mono_eval(a, lam) + mono_eval(b, lam)
        assert abs(lead - exact) / lead <= 2.0 * lam ** float(gap)


def test_exponent_arithmetic_is_exact():
    assert F(1, 5) + F(2, 5) == F(3, 5)
    assert (F(3, 5)).denominator == 5
    e = mono_mul(monomial(1.0, F(1, 5)), monomial(1.0, F(2, 5))).exp
    assert isinstance(e, Fraction) and e == F(3, 5)


def test_repr_is_compact():
    assert repr(monomial(1.0, F(1, 5))) == "(1, 1/5)"
    assert repr(ZERO) == "(0, inf)"
