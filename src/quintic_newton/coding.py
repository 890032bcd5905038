"""Numeric orbit coding: itineraries as SymbolWords.

The symbols and the tail rule come from ``dynamics``; the work here is
turning a coded orbit into a word — the absorbing A run, a periodic block,
or an unresolved head at the requested length.
"""
from __future__ import annotations

from .dynamics import STOP_ABSORBED, STOP_POLE, tail_period, walk_orbit
from .words import (
    SymbolWord,
    TAIL_A_INF,
    TAIL_PERIODIC,
    TAIL_UNRESOLVED,
)


def itinerary(c: float, x0: float, length: int, tol: float = 1e-10) -> SymbolWord:
    """Symbolic itinerary of the orbit of x0 under the Newton map.

    A point within tol of zero reads C; within tol of a pole the itinerary
    is undefined and PoleError is raised.  Entering A or B resolves to an
    infinite A run, a tail that ``tail_period`` finds periodic resolves to
    a periodic tail, anything else is left unresolved.
    """
    if length < 1:
        raise ValueError("length must be positive")
    code = walk_orbit(c, x0, length, tol)
    syms = code.symbols
    if code.stop == STOP_POLE:
        raise code.pole_error()
    if code.stop == STOP_ABSORBED:
        # the left end is absorbing: the rest of the word is A
        return SymbolWord(syms if syms[-1] == "A" else syms + "A", TAIL_A_INF)
    s_p = tail_period(code)
    if s_p is not None:
        s, p = s_p
        return SymbolWord(syms[: s + p], TAIL_PERIODIC, s)
    return SymbolWord(syms, TAIL_UNRESOLVED)
