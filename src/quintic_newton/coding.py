"""Numeric orbit coding: itineraries as SymbolWords and the kneading data.

The symbols and the tail rule come from ``dynamics``; the work here is
turning a coded orbit into a word — the absorbing A run, a periodic block,
or an unresolved head at the requested length.
"""
from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class KneadingData:
    """The four kneading sequences at a band parameter.

    The free root side and both pole sides have parameter-independent
    futures inside the band (an infinite A run, an infinite R run); only
    the sequence of the critical value carries information about c.
    """

    c: float
    U: SymbolWord       # shifted itinerary at the free root
    X: SymbolWord       # shifted itinerary on the right side of the left pole
    Y: SymbolWord       # shifted itinerary of zero: the kneading sequence
    Z: SymbolWord       # shifted itinerary on the right side of the right pole

    @property
    def period(self) -> int | None:
        return self.Y.period


def kneading_data(c: float, length: int = 64, tol: float = 1e-10) -> KneadingData:
    """Kneading data at a parameter in the open band (0, C0)."""
    word = itinerary(c, 0.0, length, tol)
    return KneadingData(
        c=c,
        U=SymbolWord("A", TAIL_A_INF),
        X=SymbolWord("R", TAIL_PERIODIC, 0),
        Y=word.shift(1),
        Z=SymbolWord("A", TAIL_A_INF),
    )
