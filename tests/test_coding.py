import math

import pytest

from frozen import SUPERSTABLE
from quintic_newton.dynamics import PoleError, find_superstable_parameter, itinerary
from quintic_newton.markov import entropy_point
from quintic_newton.words import (
    SymbolWord,
    TAIL_A_INF,
    TAIL_PERIODIC,
    TAIL_UNRESOLVED,
)


def test_itinerary_of_superstable_cycle():
    c = find_superstable_parameter("RLRC")
    w = itinerary(c, 0.0, 40)
    assert str(w) == "(CRLR)^"
    assert w.tail == TAIL_PERIODIC
    assert w.period == 4 and w.start == 0


def test_itinerary_absorbed_orbit_ends_in_a_tail():
    # c = 0.8 sits in a window where the critical orbit reaches the free root
    w = itinerary(0.8, 0.0, 60)
    assert w.tail == TAIL_A_INF
    assert w.head.endswith("A")
    assert w.head.startswith("CR")


def test_itinerary_generic_point_off_the_critical_orbit():
    c = SUPERSTABLE["RLRC"]
    w = itinerary(c, 0.9, 30)
    assert w.tail in (TAIL_PERIODIC, TAIL_A_INF, TAIL_UNRESOLVED)
    assert len(w.head) >= 1


def test_itinerary_unresolved_when_budget_is_tiny():
    w = itinerary(1.55, 0.0, 6)
    assert w.tail == TAIL_UNRESOLVED
    assert len(w.head) == 6


def test_itinerary_and_entropy_curve_agree_on_tails():
    # both read the tail of the same 40 coded points with one rule
    c = 0.11536173086543272
    w = itinerary(c, 0.0, 40)
    assert w.tail == TAIL_PERIODIC
    assert w.period == 12 == entropy_point(c).period


def test_itinerary_raises_on_pole_start():
    pole = (1.0 / 5.0) ** 0.25
    with pytest.raises(PoleError):
        itinerary(1.0, pole, 10)


def test_itinerary_needs_at_least_one_point():
    with pytest.raises(ValueError, match="^length must be positive$"):
        itinerary(1.0, 0.0, 0)


def test_itinerary_of_a_non_finite_start():
    # nan and +inf are refused at the start, as a step from them would be,
    # even when no step follows; -inf is absorbed
    for n in (1, 3):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                itinerary(1.0, bad, n)
        assert itinerary(1.0, -math.inf, n) == SymbolWord("A", TAIL_A_INF)
