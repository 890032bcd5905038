"""The Newton map of the one-parameter quintic family x^5 - c*x + 1.

For 0 < c < C0 the polynomial has a single real root and the Newton map on
the real line is a piecewise-monotone map with two poles (the critical
points of the polynomial) and one free critical point at zero.  This module
provides the Newton step for any x^5 + a*x + b, the critical frame that cuts
the line into the coding pieces, the orbit layer every other module codes
orbits with (one walker, the generator ``orbit_symbols``, which steps only
when asked and checks c once per walk and each point before its step; one
periodic-tail rule, which finds where the symbols repeat before it compares
points; one reader, ``OrbitCode.word``; one pole-nudge schedule), and the
locator for parameters whose critical orbit closes up on a cycle word
(``polynomials.bisect_sign`` halves its order, then its k-th return).
"""
from __future__ import annotations

import functools
import math
from typing import Iterator, NamedTuple

from .polynomials import bisect_sign
from .words import (
    RANK,
    SymbolWord,
    TAIL_A_INF,
    TAIL_PERIODIC,
    TAIL_UNRESOLVED,
    as_word,
    is_admissible,
)

# Parameter where the right local minimum of x^5 - c*x + 1 touches the axis:
# above it the polynomial has three real roots, below it one.
C0 = 5.0 * 2.0 ** (-1.6)


class PoleError(ArithmeticError):
    """An evaluation or orbit ran into a pole of the Newton map."""

    def __init__(self, x: float, iteration: int = 0):
        super().__init__(f"pole proximity at x={x!r} (iteration {iteration})")
        self.x = x
        self.iteration = iteration


# ----------------------------------------------------------------------
# the map
# ----------------------------------------------------------------------

def quintic_value(a: float, b: float, x: float) -> float:
    """x^5 + a*x + b, with the sign of the dominant term on overflow."""
    try:
        return x ** 5 + a * x + b
    except OverflowError:
        # the dominant term decides the sign; compare |x^5| with |a*x| in logs
        if a == 0.0 or 4.0 * math.log(abs(x)) >= math.log(abs(a)):
            return math.copysign(math.inf, x)
        return math.copysign(math.inf, a * math.copysign(1.0, x))


def newton_step(a: float, b: float, x: float) -> float:
    """One Newton step for x^5 + a*x + b, written as (4x^5 - b)/(5x^4 + a).

    For |x| > 1 the same fraction is evaluated in inverse powers of x,
    x*(4 - b*x^-5)/(5 + a*x^-4), so huge arguments never overflow the
    intermediate powers.
    """
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(x)):
        raise ValueError(f"non-finite input a={a!r}, b={b!r}, x={x!r}")
    return _unchecked_step(a, b, x)


def _unchecked_step(a: float, b: float, x: float) -> float:
    """``newton_step`` unchecked; the walkers check a once, x at every step."""
    if abs(x) <= 1.0:
        den = 5.0 * x ** 4 + a
        if abs(den) <= POLE_TOL:
            raise PoleError(x)
        return (4.0 * x ** 5 - b) / den
    inv = 1.0 / x
    den = 5.0 + a * inv ** 4
    if abs(den) <= POLE_TOL:
        raise PoleError(x)
    return x * (4.0 - b * inv ** 5) / den


def newton_eval(c: float, x: float) -> float:
    """One Newton step for f_c: (4x^5 - 1)/(5x^4 - c)."""
    return newton_step(-c, 1.0, x)


# ----------------------------------------------------------------------
# critical frame
# ----------------------------------------------------------------------

class CriticalFrame:
    """The four marked points cutting the line into the coding pieces.

    d0 is the real root of f_c left of both poles (unique there for every
    c > 0), d1 < 0 < d3 are the poles of the Newton map, and 0 between them
    is the free critical point.  d0 is found on first use: only a point
    left of d1 needs it.
    """

    _fields = ("c", "d1", "d3")

    def __init__(self, c: float, d1: float, d3: float):
        self.c, self.d1, self.d3 = c, d1, d3

    def __repr__(self) -> str:
        return f"CriticalFrame(c={self.c!r}, d1={self.d1!r}, d3={self.d3!r})"

    @functools.cached_property
    def d0(self) -> float:
        c, a, d1 = self.c, -self.c, self.d1
        # f is positive at d1 (local max) and falls to -inf leftwards: bracket
        # down until the sign flips, then halve to adjacent floats, f >= 0 at hi
        lo, hi = d1 - 1.0, d1
        while quintic_value(a, 1.0, lo) >= 0.0:
            lo = d1 + 2.0 * (lo - d1)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if quintic_value(a, 1.0, mid) < 0.0:
                lo = mid
            else:
                hi = mid
        d0 = 0.5 * (lo + hi)
        # a couple of Newton polish steps squeeze out the last bits
        for _ in range(3):
            fp = 5.0 * d0 ** 4 - c
            if fp != 0.0:
                d0 -= quintic_value(a, 1.0, d0) / fp
        return d0


def critical_frame(c: float) -> CriticalFrame:
    """Compute the frame for c > 0 (poles require a positive parameter)."""
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError(f"the critical frame needs c > 0, got {c!r}")
    d1 = -((c / 5.0) ** 0.25)
    return CriticalFrame(c, d1, -d1)


# ----------------------------------------------------------------------
# orbit coding
# ----------------------------------------------------------------------

STOP_ABSORBED = "absorbed"   # entered A or B; everything after is A forever
STOP_POLE = "pole"           # came within tol of a pole of the Newton map
STOP_HORIZON = "horizon"     # coded the requested number of points

# the periodic-tail rule: a repeat within TAIL_TOL (relative beyond |x| = 1)
# at a lag of at most TAIL_MAX_PERIOD and at most half the coded length
TAIL_TOL = 1e-9
TAIL_MAX_PERIOD = 256

# a Newton step whose denominator is this close to zero meets a pole
POLE_TOL = 1e-10


class OrbitCode(NamedTuple):
    """A coded orbit segment.

    points[i] is the point that symbols[i] codes; a pole stop appends the
    point that met the pole, which has no symbol.
    """

    symbols: str
    points: tuple[float, ...]
    stop: str

    def pole_error(self) -> PoleError:
        """The error to raise for a walk that stopped at a pole."""
        return PoleError(self.points[-1], len(self.symbols))

    def word(self) -> SymbolWord:
        """The walk as a word: an absorbed walk runs on in A forever (an A
        follows a closing B), a tail that ``tail_period`` finds periodic
        repeats, and anything else, a pole stop included, is an unresolved
        head."""
        syms = self.symbols
        if self.stop == STOP_ABSORBED:
            return SymbolWord(syms if syms[-1] == "A" else syms + "A", TAIL_A_INF)
        s_p = tail_period(self)
        if s_p is not None:
            s, p = s_p
            return SymbolWord(syms[: s + p], TAIL_PERIODIC, s)
        return SymbolWord(syms, TAIL_UNRESOLVED)


def orbit_symbols(c: float, x0: float, n: int,
                  tol: float = 1e-10) -> Iterator[tuple[float, str | None]]:
    """Yield (point, symbol) along the orbit of x0 for at most n points.

    This is the one orbit walker: it codes over A B L C M R and takes the
    next Newton step only when the caller asks for the next pair.  A point
    within tol of zero reads C and the orbit continues; A or B ends the
    walk after its symbol; a point within tol of a pole yields the symbol
    None and ends the walk.  A Newton step that itself meets a pole raises
    PoleError.  The frame checks c once per walk; a start of nan or +inf,
    and any non-finite point about to step, raise ``newton_step``'s ValueError.
    """
    frame = critical_frame(c)
    d1, d3, a = frame.d1, frame.d3, -c
    if not x0 < math.inf:
        newton_step(a, 1.0, x0)  # raises its ValueError for nan and +inf
    x = x0
    for i in range(n):
        if i:
            if not -math.inf < x < math.inf:
                newton_step(a, 1.0, x)  # raises its ValueError
            x = _unchecked_step(a, 1.0, x)
        if abs(x - d1) <= tol or abs(x - d3) <= tol:
            yield x, None
            return
        if abs(x) <= tol or x == 0.0:
            yield x, "C"
        elif x < d1:
            yield x, "A" if x < frame.d0 else "B"
            return
        else:
            yield x, "L" if x < 0.0 else "M" if x < d3 else "R"


def walk_orbit(c: float, x0: float, n: int, tol: float = 1e-10) -> OrbitCode:
    """Code the orbit of x0 for at most n points, with the reason it stopped."""
    syms: list[str] = []
    xs: list[float] = []
    stop = STOP_HORIZON
    for x, s in orbit_symbols(c, x0, n, tol):
        xs.append(x)
        if s is None:
            stop = STOP_POLE
        else:
            syms.append(s)
            if s in ("A", "B"):
                stop = STOP_ABSORBED
    return OrbitCode("".join(syms), tuple(xs), stop)


def orbit_points(c: float, x0: float, n: int) -> list[float]:
    """The first n points x0, N(x0), ... of an orbit, uncoded; a non-finite
    c or point raises ``newton_step``'s ValueError at the step that reads it."""
    a = -c
    step = _unchecked_step if -math.inf < a < math.inf else newton_step
    xs = [x0]
    for _ in range(n - 1):
        x = xs[-1]
        if not -math.inf < x < math.inf:
            newton_step(a, 1.0, x)  # raises its ValueError
        xs.append(step(a, 1.0, x))
    return xs


def tail_period(code: OrbitCode) -> tuple[int, int] | None:
    """Earliest (start, period) of a numerically repeating tail, or None.

    Scans periods in increasing order and, for each, starts in increasing
    order for a coded point that recurs within TAIL_TOL, with the symbols
    repeating from there to the end of the code.  If the symbols repeat
    from one start they repeat from every later one, so a scan back from
    the end finds the first such start before any point is compared.
    """
    syms = code.symbols
    n = len(syms)
    xs = code.points
    for p in range(1, min(n // 2, TAIL_MAX_PERIOD) + 1):
        first = n - p
        while first and syms[first - 1] == syms[first - 1 + p]:
            first -= 1
        for s in range(first, n - 2 * p + 1):
            if abs(xs[s + p] - xs[s]) < TAIL_TOL * max(1.0, abs(xs[s])):
                return s, p
    return None


POLE_NUDGE = 1e-12   # relative size of the first step off a pole collision
POLE_RETRIES = 3


def nudge_off_poles(fn, c: float):
    """(c', fn(c')) for the first of c and three nudged parameters where fn
    does not raise PoleError; the fourth PoleError propagates.

    An orbit meeting a pole is a measure-zero coincidence of the parameter,
    so a relative step of POLE_NUDGE usually moves off it.  Each step is 20
    times the last, so the third, 4e-10, clears the 1e-10 pole window even
    at 5^(1/5), where the critical value 1/c is the pole d3 and moves with
    c; all three move c by under 5e-10, relative.
    """
    step = POLE_NUDGE
    for _ in range(POLE_RETRIES):
        try:
            return c, fn(c)
        except PoleError:
            c *= 1.0 + step
            step *= 20.0
    return c, fn(c)


def itinerary(c: float, x0: float, length: int, tol: float = 1e-10) -> SymbolWord:
    """Symbolic itinerary of the orbit of x0 under the Newton map.

    A point within tol of zero reads C; within tol of a pole the itinerary
    is undefined and PoleError is raised.  The walk of ``length`` points
    becomes a word by ``OrbitCode.word``.  A negative or nan tol raises
    ValueError: no point would ever read C or meet a pole.
    """
    if length < 1:
        raise ValueError("length must be positive")
    if not tol >= 0:
        raise ValueError(f"tol must be a number >= 0, got {tol!r}")
    code = walk_orbit(c, x0, length, tol)
    if code.stop == STOP_POLE:
        raise code.pole_error()
    return code.word()


def critical_symbols(c: float, n: int) -> str:
    """First n symbols of the orbit of the free critical value N(0) = 1/c;
    PoleError when it meets a pole."""
    code = walk_orbit(c, newton_eval(c, 0.0), n)
    if code.stop == STOP_POLE:
        raise code.pole_error()
    return code.symbols


# ----------------------------------------------------------------------
# superstable parameter location
# ----------------------------------------------------------------------

def find_superstable_parameter(word, bracket: tuple[float, float] | None = None,
                               tol: float = 1e-13) -> float:
    """Parameter where the critical orbit closes up on the given cycle word.

    The kneading sequence is monotone in c, so ``bisect_sign`` halves the
    sign of the word's order against the critical orbit's; each comparison
    reads the orbit against the word's prefix and stops at the first symbol
    where they differ (a walk that matches up to the horizon compares equal,
    and that exact zero ends the halving).  ``bisect_sign`` then halves the
    sign of the k-th return of zero, and a secant from the left end of its
    bracket polishes the result.  Raises ValueError when the word is not an
    admissible cycle word, no parameter in the bracket realizes it, or tol
    is negative or nan.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be a number >= 0, got {tol!r}")
    target = as_word(word)
    if not (target.is_cycle() and is_admissible(target)):
        raise ValueError(f"not an admissible cycle word: {word!r}")
    k = len(target.head)
    lo, hi = bracket if bracket is not None else (1e-4, C0 - 1e-9)
    if not (0.0 < lo < hi):
        raise ValueError(f"bad bracket {bracket!r}")
    horizon = max(64, 6 * k)
    expected = target.prefix(horizon)
    # signs[i] = -1 after an odd count of B or L: the order flips at index i
    signs = [1]
    for t in expected:
        signs.append(-signs[-1] if t in "BL" else signs[-1])

    def read(c: float) -> int:
        # realized > word means c is below the target, realized < word above;
        # the first symbol where the orbit leaves the word fixes the sign
        orbit = orbit_symbols(c, newton_eval(c, 0.0), horizon)
        for i, ((x, s), t) in enumerate(zip(orbit, expected)):
            if s != t:
                if s is None:
                    raise PoleError(x, i)
                return signs[i] if RANK[s] > RANK[t] else -signs[i]
        return 0

    def side(c: float) -> int:
        return nudge_off_poles(read, c)[1]

    s_lo, s_hi = side(lo), side(hi)
    if s_lo < 0 or s_hi > 0:
        raise ValueError(f"no parameter for {word} inside bracket ({lo}, {hi})")
    a, b = bisect_sign(side, lo, hi, s_lo, tol)

    def kth_return(c: float) -> float:
        return orbit_points(c, 0.0, k + 1)[-1]

    try:
        ga, gb = kth_return(a), kth_return(b)
        if (ga < 0) != (gb < 0):
            a, b = bisect_sign(kth_return, a, b, ga, tol)
    except PoleError:
        pass  # fall back to the order bisection midpoint
    cc = c_star = 0.5 * (a + b)
    gc = kth_return(c_star)
    residual = abs(gc)
    # secant polish: near the band edge the k-th return is steep in c, so
    # bisection at c-resolution tol can still leave a sizable residual
    try:
        cp, gp = a, kth_return(a)
        for _ in range(12):
            if gc == 0.0 or gc == gp:
                break
            cn = cc - gc * (cc - cp) / (gc - gp)
            if not (lo < cn < hi):
                break
            cp, gp = cc, gc
            cc, gc = cn, kth_return(cn)
            if abs(gc) < 1e-14:
                break
        if abs(gc) < residual:
            c_star, residual = cc, abs(gc)
    except PoleError:
        pass
    if residual > 1e-8:
        raise ValueError(
            f"{word} not realized: return residual {residual:.3e} at c={c_star!r}")
    realized = nudge_off_poles(lambda c: critical_symbols(c, k), c_star)[1][: k - 1]
    if realized != target.head[: k - 1]:
        raise ValueError(
            f"bracket closed on {realized!r}, not {target.head[:-1]!r}")
    return c_star
