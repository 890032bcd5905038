import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quintic_newton.polynomials import (
    IntPolynomial,
    RationalFunctionInT,
    smallest_root_in,
)

coeff_lists = st.lists(st.integers(-9, 9), min_size=0, max_size=8)


def test_construction_strips_trailing_zeros():
    p = IntPolynomial([1, 2, 0, 0])
    assert p.to_list() == [1, 2]
    assert p.degree == 1
    assert IntPolynomial([]).degree == -1
    assert IntPolynomial([0, 0]).degree == -1


def test_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        IntPolynomial([1.5])


def test_basic_arithmetic():
    p = IntPolynomial([1, -1])           # 1 - t
    q = IntPolynomial([1, 1])            # 1 + t
    assert (p * q).to_list() == [1, 0, -1]
    assert (p + q).to_list() == [2]
    assert (p - q).to_list() == [0, -2]
    assert (-p).to_list() == [-1, 1]
    assert p.shift(2).to_list() == [0, 0, 1, -1]
    assert IntPolynomial.one_minus_t_power(3).to_list() == [1, 0, 0, -1]
    assert IntPolynomial.t_power(2, -5).to_list() == [0, 0, -5]


def test_exact_division():
    p = IntPolynomial([1, -1, -1, -1])
    q = IntPolynomial([1, -1])
    prod = p * q
    assert prod.div_exact(q) == p
    assert prod.try_div_exact(q) == p
    assert p.try_div_exact(q) is None
    with pytest.raises(ArithmeticError):
        p.div_exact(q)


def test_evaluation_float_and_exact():
    p = IntPolynomial([1, -1, -1, -1])
    t = 0.5436890126920763
    assert abs(p.evaluate(t)) < 1e-12
    assert p.evaluate_exact(Fraction(1, 2)) == Fraction(1, 8)
    assert p.evaluate(0.0) == 1.0


@given(coeff_lists, coeff_lists)
def test_product_evaluates_pointwise(a, b):
    p, q = IntPolynomial(a), IntPolynomial(b)
    x = Fraction(3, 7)
    assert (p * q).evaluate_exact(x) == p.evaluate_exact(x) * q.evaluate_exact(x)


@given(coeff_lists, coeff_lists)
def test_division_inverts_multiplication(a, b):
    p, q = IntPolynomial(a), IntPolynomial(b)
    if q.degree < 0:
        return
    assert (p * q).div_exact(q) == p


def test_rational_function_equality_and_reduce():
    one = IntPolynomial([1])
    num = IntPolynomial([1, 1]) * IntPolynomial([1, -1, -1, -1])
    d = RationalFunctionInT(num, (1, 4))
    # multiply back: d * (1-t)(1-t^4) == num as a polynomial
    cleared = RationalFunctionInT(d.num * one.one_minus_t_power(1) *
                                  one.one_minus_t_power(4), d.den_factors)
    assert cleared == RationalFunctionInT(num, ())
    assert cleared.reduce().den_factors == ()
    assert cleared.reduce().num == num
    # a value type: it compares only with another RationalFunctionInT
    assert RationalFunctionInT(num, ()) != num


def test_smallest_root_in_finds_first_sign_change():
    p = IntPolynomial([1, -1, -1, -1])          # tribonacci numerator
    r = smallest_root_in(p, 0.3, 1.0)
    assert r is not None and abs(1.0 / r - 1.8392867552141612) < 1e-10
    assert smallest_root_in(IntPolynomial([1]), 0.0, 1.0) is None
