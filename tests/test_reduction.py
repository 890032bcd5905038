import math
import random

import pytest
from hypothesis import given, strategies as st

from quintic_newton.dynamics import C0, newton_eval, quintic_value
from quintic_newton.reduction import (
    BringJerrardQuintic,
    Regime,
    ReducedQuintic,
    classify_regime,
    conjugacy_check,
    reduce_quintic,
)

finite_coeff = st.floats(min_value=-50.0, max_value=50.0,
                         allow_nan=False, allow_infinity=False)


def test_reduce_computes_canonical_parameters():
    r = reduce_quintic(BringJerrardQuintic(-3.0, 1.5))
    assert r.kind == "canonical"
    beta = 1.5 ** 0.2
    assert abs(r.c - 3.0 / beta ** 4) < 1e-14
    assert abs(r.scale - 1.0 / beta) < 1e-14
    # negative b flips the scale sign
    r = reduce_quintic(BringJerrardQuintic(2.0, -1.0))
    assert r.c == -2.0 and r.scale == -1.0


def test_reduce_degenerate_forms():
    assert reduce_quintic(BringJerrardQuintic(3.0, 0.0)).kind == "p_plus"
    assert reduce_quintic(BringJerrardQuintic(-3.0, 0.0)).kind == "p_minus"
    r = reduce_quintic(BringJerrardQuintic(0.0, 0.0))
    assert r.kind == "p_zero" and r.scale == 1.0
    # the pure-quintic Newton map is plain contraction toward 0
    assert r.newton(2.0) == 1.6


def test_regimes():
    assert classify_regime(-1.0) is Regime.NEGATIVE_C
    assert classify_regime(0.0) is Regime.ZERO_C
    assert classify_regime(1.0) is Regime.WINDOW_BAND
    assert classify_regime(C0) is Regime.TANGENT
    assert classify_regime(C0 * (1.0 + 1e-13)) is Regime.TANGENT
    assert classify_regime(2.0) is Regime.THREE_ROOTS
    assert reduce_quintic(BringJerrardQuintic(3.0, 0.0)).regime is None
    r = ReducedQuintic("canonical", 1.2, 1.0)
    assert r.regime is Regime.WINDOW_BAND
    with pytest.raises(ValueError):
        classify_regime(math.nan)


def test_reduce_rejects_non_finite_input_and_overflow():
    # a or b non-finite, or -a / |b|^(4/5) overflowing to -inf
    for a, b in ((math.nan, 1.0), (-3.0, math.inf), (1e308, 1e-300),
                 (math.inf, 0.0), (-math.inf, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            reduce_quintic(BringJerrardQuintic(a, b))


def test_conjugacy_residuals_are_tiny():
    rng = random.Random(11)
    for _ in range(100):
        a, b = rng.uniform(-10, 10), rng.uniform(-10, 10)
        if b == 0.0:
            continue
        q = BringJerrardQuintic(a, b)
        rep = conjugacy_check(q, reduce_quintic(q),
                              [rng.uniform(-5, 5) for _ in range(10)])
        assert rep.max_residual < 1e-9, (a, b)


def test_conjugacy_reports_pole_points():
    q = BringJerrardQuintic(-5.0, 0.0)        # poles of N at x = +-1
    r = reduce_quintic(q)
    rep = conjugacy_check(q, r, [1.0, 0.5])
    assert rep.pole_points == (1.0,)
    assert rep.checked == 1


@given(finite_coeff, finite_coeff, st.integers(0, 2 ** 32 - 1))
def test_reduction_conjugacy_property(a, b, seed):
    q = BringJerrardQuintic(a, b)
    r = reduce_quintic(q)
    rng = random.Random(seed)
    rep = conjugacy_check(q, r, [rng.uniform(-5, 5) for _ in range(5)])
    assert rep.max_residual < 1e-9


def test_values_agree_under_scaling():
    # f(tau(x)) = g(x) / b for the canonical reduction
    q = BringJerrardQuintic(-2.0, 3.0)
    r = reduce_quintic(q)
    for x in (-1.7, 0.3, 2.2):
        reduced = quintic_value(-r.c, 1.0, x * r.scale)
        assert abs(reduced - quintic_value(q.a, q.b, x) / q.b) < 1e-12
    # x^5 - c*x + 1 is the quintic with a = -c, b = 1: it reduces to itself
    # and takes bitwise the same step
    rng = random.Random(5)
    for _ in range(2000):
        c = rng.uniform(-3.0, 3.0)
        x = rng.choice((rng.uniform(-2.0, 2.0), rng.uniform(-1e3, 1e3),
                        rng.uniform(-1.0, 1.0) * 1e70))
        q = BringJerrardQuintic(-c, 1.0)
        r = reduce_quintic(q)
        assert (r.kind, r.c, r.scale) == ("canonical", c, 1.0), c
        assert q.newton(x) == newton_eval(c, x), (c, x)
        assert r.newton(x) == newton_eval(c, x), (c, x)
