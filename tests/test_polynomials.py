import bisect
import hashlib
import math
import random
from fractions import Fraction

import pytest
from frozen import PLANTED_ROOT_DIGEST
from rational import same_rational
from hypothesis import given, settings, strategies as st

from quintic_newton import polynomials
from quintic_newton.kneading import kneading_numerator
from quintic_newton.markov import BAND_ROOT_LO
from quintic_newton.polynomials import (
    IntPolynomial,
    bisect_sign,
    smallest_root_in,
)
from quintic_newton.words import generate_tree

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
    with pytest.raises(TypeError, match="cannot combine IntPolynomial with 1.5"):
        IntPolynomial([1]) + 1.5


def test_basic_arithmetic():
    p = IntPolynomial([1, -1])           # 1 - t
    q = IntPolynomial([1, 1])            # 1 + t
    assert (p * q).to_list() == [1, 0, -1]
    assert (p + q).to_list() == [2]
    assert (p - q).to_list() == [0, -2]
    assert (-p).to_list() == [-1, 1]
    assert p.shift(2).to_list() == [0, 0, 1, -1]
    assert IntPolynomial.one_minus_t_power(3).to_list() == [1, 0, 0, -1]
    with pytest.raises(ValueError, match="factor exponent must be >= 1"):
        IntPolynomial.one_minus_t_power(0)


def test_exact_division():
    p = IntPolynomial([1, -1, -1, -1])
    q = IntPolynomial([1, -1])
    prod = p * q
    assert prod.div_exact(q) == p
    assert prod.try_div_exact(q) == p
    assert p.try_div_exact(q) is None
    with pytest.raises(ArithmeticError):
        p.div_exact(q)
    for divide in (p.div_exact, p.try_div_exact):
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            divide(IntPolynomial())


def exact_value(p, x: Fraction) -> Fraction:
    """p(x) by Horner's rule over Fraction."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def test_evaluation_float_and_exact():
    p = IntPolynomial([1, -1, -1, -1])
    t = 0.5436890126920763
    assert abs(p.evaluate(t)) < 1e-12
    assert exact_value(p, Fraction(1, 2)) == Fraction(1, 8)
    assert p.sign_at(Fraction(1, 2)) == 1
    assert p.evaluate(0.0) == 1.0


@given(coeff_lists, coeff_lists)
def test_product_evaluates_pointwise(a, b):
    p, q = IntPolynomial(a), IntPolynomial(b)
    x = Fraction(3, 7)
    value = exact_value(p * q, x)
    assert value == exact_value(p, x) * exact_value(q, x)
    assert (p * q).sign_at(x) == (value > 0) - (value < 0)


@given(coeff_lists, coeff_lists)
def test_division_inverts_multiplication(a, b):
    p, q = IntPolynomial(a), IntPolynomial(b)
    if q.degree < 0:
        return
    assert (p * q).div_exact(q) == p


def test_rational_function_equality():
    one_minus = IntPolynomial.one_minus_t_power
    num = IntPolynomial([1, 1]) * IntPolynomial([1, -1, -1, -1])
    d = (num, (1, 4))
    # multiply back: d * (1-t)(1-t^4) == num as a polynomial
    assert same_rational((num * one_minus(1) * one_minus(4), (1, 4)), (num, ()))
    # the same value over another factor multiset, and a different value
    assert same_rational(d, (num * one_minus(2), (4, 2, 1)))
    assert not same_rational(d, (num, (1, 2, 4)))
    assert not same_rational(d, (num * 2, (1, 4)))


def test_derivative_gcd_and_exact_sign():
    t_minus_1 = IntPolynomial([-1, 1])
    p = t_minus_1 * t_minus_1 * IntPolynomial([2, 1])   # (t - 1)^2 (t + 2)
    assert p.derivative() == IntPolynomial([-3, 0, 3])
    assert p.gcd(p.derivative()) == t_minus_1
    assert (p * 6).gcd(IntPolynomial([4, -4])) == IntPolynomial([-2, 2])
    assert p.gcd(IntPolynomial()) == p and IntPolynomial().gcd(0) == 0
    assert linear(5, 3).sign_at(0.6) == -1      # the float 0.6 lies below 3/5
    assert linear(5, 3).evaluate(0.6) == 0.0
    assert t_minus_1.sign_at(1.0) == 0


@given(coeff_lists, coeff_lists, coeff_lists)
def test_gcd_divides_both_and_keeps_common_factors(a, b, c):
    p, q, r = IntPolynomial(a), IntPolynomial(b), IntPolynomial(c)
    g = (p * r).gcd(q * r)
    if g.is_zero():
        assert (p * r).is_zero() and (q * r).is_zero()
        return
    assert g.coeffs[-1] > 0
    assert (p * r).try_div_exact(g) is not None
    assert (q * r).try_div_exact(g) is not None
    if not r.is_zero():
        assert g.try_div_exact(r) is not None


@pytest.mark.parametrize("kind", [float, Fraction], ids=["float", "fraction"])
def test_bisect_sign_closes_the_bracket_to_tol(kind):
    f = IntPolynomial([-1, 3]).sign_at              # zero at 1/3, never a midpoint
    a, b = bisect_sign(f, kind(0), kind(1), -1, 1e-13)
    assert type(a) is type(b) is kind
    assert 0 < b - a <= 1e-13
    assert f(a) < 0 < f(b)


@pytest.mark.parametrize("kind", [float, Fraction], ids=["float", "fraction"])
def test_bisect_sign_stops_on_an_exact_zero(kind):
    f = IntPolynomial([3, -8]).sign_at              # zero at 3/8, the third midpoint
    a, b = bisect_sign(f, kind(0), kind(1), 1, 1e-13)
    # the halving ends with the bracket it was halving, centred on the zero
    assert (a, b) == (Fraction(1, 4), Fraction(1, 2))
    assert (a + b) / 2 == Fraction(3, 8)


def test_bisect_sign_stops_below_tol_at_the_floors():
    f = IntPolynomial([-4_000_001, 3]).sign_at
    a, b = bisect_sign(f, 1e6, 2e6, -1, 0.0)        # adjacent floats end it
    assert b == math.nextafter(a, math.inf) and f(a) < 0 < f(b)
    a, b = bisect_sign(f, Fraction(10**6), Fraction(2 * 10**6), -1, 0.0)
    assert 0 < b - a <= 1e-16 * b and f(a) < 0 < f(b)


def scan_oracle(poly, lo, hi, tol=1e-13):
    """The former root finder, kept as the oracle: a sign scan over 4096
    equal cells and bisection in the first cell whose ends differ in sign.
    It misses a double root and two roots in one cell."""
    f = poly.evaluate
    prev_x = lo
    prev_v = f(lo)
    if prev_v == 0.0:
        return lo
    for i in range(1, 4097):
        x = lo + (hi - lo) * i / 4096
        v = f(x)
        if v == 0.0:
            return x
        if (prev_v < 0) != (v < 0):
            a, b, fa = prev_x, x, prev_v
            while b - a > tol:
                m = 0.5 * (a + b)
                fm = f(m)
                if fm == 0.0:
                    return m
                if (fa < 0) != (fm < 0):
                    b = m
                else:
                    a, fa = m, fm
            return 0.5 * (a + b)
        prev_x, prev_v = x, v
    return None


def linear(q, p):
    return IntPolynomial([-p, q])                   # q t - p


@pytest.mark.parametrize("poly", [
    linear(5, 3) * linear(5, 3) * linear(5, 4),     # double root at 0.6
    linear(100000, 60000) * linear(100000, 60001) * linear(5, 4),  # close pair
    linear(100000, 60000) * linear(100000, 60001) * linear(100000, 60003),
], ids=["double-root", "close-pair", "three-in-one-cell"])
def test_smallest_root_in_sees_roots_the_scan_misses(poly):
    assert abs(scan_oracle(poly, 0.3, 1.0) - 0.6) > 1e-5
    assert abs(smallest_root_in(poly, 0.3, 1.0) - 0.6) <= 1e-13


@pytest.mark.parametrize("poly", [
    linear(2, 1) * linear(2, 1) * linear(2, 1),     # triple root at 0.5
    linear(10000, 5000) * linear(10000, 5001) * linear(10000, 5002),
], ids=["triple-root", "three-within-1e-4"])
def test_smallest_root_in_hands_a_root_cluster_to_the_exact_fallback(
        poly, monkeypatch):
    evals = [0]
    at = polynomials._ExclusionWalk.at

    def counted(self, x):
        evals[0] += 1
        return at(self, x)

    monkeypatch.setattr(polynomials._ExclusionWalk, "at", counted)
    t = smallest_root_in(poly, 0.0, 1.0)
    assert evals[0] <= 256
    assert abs(Fraction(t) - Fraction(1, 2)) <= 1e-13


def test_smallest_root_in_holds_tol_where_float_bisection_does_not():
    # three roots within 0.005: rounding moves the float bisection 3e-12
    poly = linear(50, 27) * linear(1000, 543) * linear(2000, 1087)
    assert abs(scan_oracle(poly, 0.5, 1.0) - 0.54) > 1e-12
    assert abs(Fraction(smallest_root_in(poly, 0.5, 1.0)) - Fraction(27, 50)) <= 1e-13


def test_smallest_root_in_at_the_ends_and_on_bad_bounds():
    assert smallest_root_in(linear(2, 1), 0.5, 1.0) == 0.5      # root at lo
    assert abs(smallest_root_in(linear(1, 1) * linear(1, 2), 0.5, 1.0) - 1.0) <= 1e-13
    assert smallest_root_in(linear(1, 2), 0.5, 1.0) is None
    assert smallest_root_in(IntPolynomial(), 0.5, 1.0) == 0.5
    for lo, hi in ((-0.1, 1.0), (0.5, 0.5), (0.0, math.inf), (0.0, math.nan)):
        with pytest.raises(ValueError):
            smallest_root_in(linear(2, 1), lo, hi)


planted_factors = st.lists(
    st.tuples(st.integers(2, 24).flatmap(
        lambda q: st.tuples(st.integers(1, 3 * q // 2), st.just(q))),
        st.booleans()),
    min_size=1, max_size=5)


@settings(max_examples=80, deadline=None)
@given(planted_factors)
def test_smallest_root_in_finds_the_smallest_planted_root(factors):
    lo, hi, tol = BAND_ROOT_LO - 1e-9, 1.0, 1e-13
    poly, roots = IntPolynomial([1]), set()
    for (p, q), squared in factors:
        f = linear(q, p)
        poly = poly * f * f if squared else poly * f
        roots.add(Fraction(p, q))
    inside = [r for r in roots if Fraction(lo) <= r <= Fraction(hi)]
    got = smallest_root_in(poly, lo, hi)
    if not inside:
        assert got is None
    else:
        assert got is not None and abs(Fraction(got) - min(inside)) <= tol


def planted_root_polys(seed, count):
    """count pairs (poly, roots) with roots planted in [0.4, 1]: every
    other poly a cluster of simple roots within 0.005, the rest spread
    roots of multiplicity 1 to 3, so both the float route and the exact
    Sturm fallback run; roots lists the planted Fractions."""
    rng = random.Random(seed)
    for i in range(count):
        poly, roots = IntPolynomial([rng.choice((-1, 1))]), []
        centre = rng.uniform(0.4, 1.0)
        for _ in range(rng.randint(2, 5) if i % 2 else rng.randint(1, 4)):
            if i % 2:
                q, power = rng.randint(50, 5000), 1
                root = centre + rng.uniform(-0.005, 0.005)
            else:
                q = rng.randint(2, 10 ** rng.randint(1, 4))
                root, power = rng.uniform(0.4, 1.0), rng.randint(1, 3)
            f = IntPolynomial([-round(q * root), q])
            roots.append(Fraction(round(q * root), q))
            for _ in range(power):
                poly = poly * f
        yield poly, roots


def test_smallest_root_in_is_pinned_on_planted_roots():
    digest = hashlib.sha256()
    for poly, _ in planted_root_polys(0, 400):
        t = smallest_root_in(poly, BAND_ROOT_LO - 1e-9, 1.0)
        digest.update(f"{'none' if t is None else t.hex()}\n".encode())
    assert digest.hexdigest() == PLANTED_ROOT_DIGEST


def test_smallest_root_in_finds_the_planted_roots_to_tol():
    lo, hi = BAND_ROOT_LO - 1e-9, 1.0
    for poly, roots in planted_root_polys(0, 400):
        inside = [r for r in roots if Fraction(lo) <= r <= Fraction(hi)]
        got = smallest_root_in(poly, lo, hi)
        if not inside:
            assert got is None, poly
        else:
            assert got is not None and \
                abs(Fraction(got) - min(inside)) <= polynomials.ROOT_TOL, poly


def test_a_rejected_grid_cell_bisection_takes_the_one_exact_fallback(monkeypatch):
    # planted entry 95: the walk proves one zero in a cell, but the exact
    # signs reject the bisected value, with the next root 3.3e-4 away
    calls = []
    exact = polynomials._smallest_root_exact

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(polynomials, "_smallest_root_exact", counted)
    t = smallest_root_in(linear(640, 397) * linear(775, 481), BAND_ROOT_LO - 1e-9, 1.0)
    assert len(calls) == 1
    assert abs(Fraction(t) - Fraction(397, 640)) <= polynomials.ROOT_TOL


def test_exclusion_walk_closes_on_one_grid_cell_in_few_evaluations(monkeypatch):
    evals = [0]
    at = polynomials._ExclusionWalk.at

    def counted(self, x):
        evals[0] += 1
        return at(self, x)

    monkeypatch.setattr(polynomials._ExclusionWalk, "at", counted)
    lo, hi = BAND_ROOT_LO - 1e-9, 1.0
    grid = [lo + (hi - lo) * k / 4096 for k in range(4097)]
    kinds = []
    for nodes in generate_tree(9).values():
        for node in nodes:
            p = kneading_numerator(node.word)
            kind, a, b, sign = polynomials._ExclusionWalk(p, lo, hi).run()
            kinds.append(kind)
            if kind == "cell":
                k = bisect.bisect_right(grid, a)
                assert k == len(grid) or grid[k] >= b, node.word
                assert p.sign_at(a) == sign and p.sign_at(b) == -sign, node.word
    assert len(kinds) == 555 and "stall" not in kinds
    # the walk that stepped up from one grid cell and crawled to the root
    # took 13,380
    assert evals[0] <= 6690


def test_smallest_root_in_matches_the_scan_bitwise_on_kneading_words():
    lo, checked = BAND_ROOT_LO - 1e-9, 0
    for nodes in generate_tree(9).values():
        for node in nodes:
            p = kneading_numerator(node.word)
            assert smallest_root_in(p, lo, 1.0) == scan_oracle(p, lo, 1.0), node.word
            checked += 1
    assert checked == 555


def test_smallest_root_in_finds_first_sign_change():
    p = IntPolynomial([1, -1, -1, -1])          # tribonacci numerator
    r = smallest_root_in(p, 0.3, 1.0)
    assert r is not None and abs(1.0 / r - 1.8392867552141612) < 1e-10
    assert smallest_root_in(IntPolynomial([1]), 0.0, 1.0) is None
