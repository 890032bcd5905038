"""Markov partitions at cycle parameters, transition matrices, and the
three entropy routes.

When the critical orbit is periodic the marked points plus the orbit cut
the line into intervals that map onto unions of each other.  Where each
interval goes follows from the construction (the orbit shifts along itself,
the free root is fixed, the poles send their sides to +-inf), so the 0/1
transition matrix is read off without evaluating the map, as a plain tuple
of int rows that ``char_poly`` and the lap count take; its growth rate
is one route to the topological entropy.  The kneading determinant gives a
second, exact route, and lap counting through powers of the matrix a third.
``entropy_curve`` walks a parameter grid using the kneading route: a
critical orbit that closes up is read as its cycle word, any other walk
becomes a word by the orbit layer's one reader, ``OrbitCode.word``, and a
word it leaves unresolved falls back to a truncated series whose tail is
provably below the working tolerance.
"""
from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .dynamics import (
    C0,
    STOP_POLE,
    OrbitCode,
    critical_frame,
    newton_eval,
    nudge_off_poles,
    walk_orbit,
)
from .kneading import kneading_numerator
# unused here; perfbench/tracing.py interposes on these names in this module
from .kneading import determinant_polynomial, kneading_determinant  # noqa: F401
from .polynomials import IntPolynomial, smallest_root_in
from .words import TAIL_UNRESOLVED

# entropy lives in [0, log(1+sqrt(2))]; the smallest admissible root of the
# entropy polynomials is sqrt(2)-1, searched with a hair of margin
BAND_ROOT_LO = math.sqrt(2.0) - 1.0

# the critical orbit of a cycle parameter returns within RETURN_TOL of zero
# in at most CRITICAL_PERIOD_CAP steps; partition points closer than
# COLLISION_TOL to a marked point or to each other collide
CRITICAL_PERIOD_CAP = 64
RETURN_TOL = 1e-6
COLLISION_TOL = 1e-9
LAP_STEPS = 20          # lap growth: the ratio of path counts through M^20, M^19
MAX_HORIZON = 4096      # the series horizon doubles up to this


class EntropyResult(NamedTuple):
    t_star: float
    h: float
    method: str


def _result_from_root(t_star: float | None, method: str) -> EntropyResult:
    if t_star is None:
        return EntropyResult(1.0, 0.0, method)
    return EntropyResult(t_star, max(0.0, -math.log(t_star)), method)


def _band_root(f) -> float | None:
    return smallest_root_in(f, BAND_ROOT_LO - 1e-9, 1.0)


# ----------------------------------------------------------------------
# partition and transition matrix
# ----------------------------------------------------------------------

class MarkovPartition(NamedTuple):
    """images[i] is (N(u+), N(w-)) for intervals[i] = (u, w)."""

    intervals: tuple[tuple[float, float], ...]
    images: tuple[tuple[float, float], ...]


def critical_orbit(c: float) -> list[float]:
    """The periodic critical orbit [0, N(0), ...] at a cycle parameter.

    Raises ValueError when the orbit fails to return to zero within the
    cap — the partition construction only makes sense on a closed orbit.
    """
    pts = [0.0]
    for _ in range(CRITICAL_PERIOD_CAP):
        x = newton_eval(c, pts[-1])
        if abs(x) <= RETURN_TOL:
            return pts
        pts.append(x)
    raise ValueError(f"critical orbit does not close up at c={c!r}")


def markov_partition(c: float) -> MarkovPartition:
    """Cut the line along the marked points and the critical orbit.

    The piece between the free root and the left pole is transient — no
    orbit point lies there and nothing maps back into it — so it is left
    out of the state set.  The image limits are read off the construction,
    with no evaluation of N: each orbit point goes to the next and the last
    back to 0 (``critical_orbit`` checked that return), the free root d0 is
    fixed, and +-inf stay put since N(x) ~ 4x/5.  At a pole the numerator
    4x^5 - 1 = -f < 0 while 5x^4 - c changes sign, so the outer side goes
    to -inf and the inner side to +inf.
    """
    frame = critical_frame(c)
    pts = critical_orbit(c)
    marked = [frame.d0, frame.d1, frame.d3]
    for p in pts:
        for m in marked:
            if abs(p - m) < COLLISION_TOL:
                raise ValueError(
                    f"orbit point {p!r} collides with a marked point {m!r}")
    for i, p in enumerate(pts):
        for q in pts[:i]:
            if abs(p - q) < COLLISION_TOL:
                raise ValueError(f"degenerate orbit: {p!r} repeats")
        if frame.d0 < p < frame.d1:
            raise ValueError(
                f"orbit point {p!r} inside the transient gap; not a cycle orbit")
    boundaries = sorted(marked + pts)
    i0 = boundaries.index(frame.d0)
    if boundaries[i0 + 1] != frame.d1:
        raise ValueError("the transient gap is not empty")
    intervals: list[tuple[float, float]] = [(-math.inf, boundaries[0])]
    for i in range(len(boundaries) - 1):
        if i == i0:
            continue
        intervals.append((boundaries[i], boundaries[i + 1]))
    intervals.append((boundaries[-1], math.inf))
    image = dict(zip(pts, pts[1:] + pts[:1]))
    image[frame.d0] = frame.d0
    from_right = {**image, -math.inf: -math.inf, frame.d1: math.inf, frame.d3: -math.inf}
    from_left = {**image, math.inf: math.inf, frame.d1: -math.inf, frame.d3: math.inf}
    images = tuple([(from_right[u], from_left[w]) for u, w in intervals])
    return MarkovPartition(tuple(intervals), images)


def transition_matrix(partition: MarkovPartition) -> tuple[tuple[int, ...], ...]:
    """0/1 matrix rows: does the open image of interval i cover part of j?

    The map is monotone on each interval (all turning and blow-up points
    are boundaries), so the image is the open interval between the limits
    the partition records at its ends.
    """
    rows = []
    for a, b in partition.images:
        lo, hi = min(a, b), max(a, b)
        rows.append(tuple([1 if min(hi, q) - max(lo, p) > 0 else 0
                           for p, q in partition.intervals]))
    return tuple(rows)


# ----------------------------------------------------------------------
# characteristic polynomial and the entropy routes
# ----------------------------------------------------------------------

def _matrix_powers(M, n: int):
    """Yield M, M^2, ..., M^n as lists of int rows, each power the last one
    times M by sparse row products over the nonzero (j, v) pairs of M."""
    rows = [[(j, v) for j, v in enumerate(r) if v] for r in M]
    P = [list(r) for r in M]
    for k in range(n):
        yield P
        if k + 1 < n:
            nxt = []
            for prow in P:
                acc = [0] * len(rows)
                for l, a in enumerate(prow):
                    if a:
                        for j, v in rows[l]:
                            acc[j] += a * v
                nxt.append(acc)
            P = nxt


def char_poly(M: tuple[tuple[int, ...], ...]) -> IntPolynomial:
    """det(I - t*M) exactly, via traces of powers and Newton's identities
    on ints: j*e_j is divided exactly, and a remainder raises.

    Only M, ..., M^h are built, h = ceil(n/2); each higher trace pairs two
    of them, tr(M^(a+h)) = sum over i, l of (M^a)_il (M^h)_li.
    """
    n = len(M)
    h = (n + 1) // 2
    powers = list(_matrix_powers(M, h))
    traces = [sum(P[i][i] for i in range(n)) for P in powers]
    if h:
        cols = list(zip(*powers[-1]))
        traces += [sum(sum(map(operator.mul, row, col)) for row, col in zip(P, cols))
                   for P in powers[:n - h]]
    e = [1]
    for j in range(1, n + 1):
        acc = sum((-1) ** (i - 1) * e[j - i] * traces[i - 1] for i in range(1, j + 1))
        ej, rem = divmod(acc, j)
        if rem:
            raise ArithmeticError("non-integer coefficient in char poly")
        e.append(ej)
    return IntPolynomial([(-1) ** j * ej for j, ej in enumerate(e)])


def entropy_from_charpoly(p: IntPolynomial) -> EntropyResult:
    """Entropy from the smallest band root of det(I - t*M)."""
    return _result_from_root(_band_root(p), "charpoly")


def entropy_from_kneading(word) -> EntropyResult:
    """Entropy from the kneading numerator of a kneading word.

    Accepts any form ``words.as_word`` reads with a resolved tail (periodic
    tails included, so window-interior sequences work too)."""
    return _result_from_root(_band_root(kneading_numerator(word)), "kneading")


def lap_growth_estimate(M: tuple[tuple[int, ...], ...]) -> EntropyResult:
    """Entropy from the growth of path counts through the transition matrix.

    The total number of admissible k-step itineraries grows like the
    spectral radius; the ratio of consecutive totals, here at k = LAP_STEPS,
    converges to it geometrically (much faster than the k-th root does).
    """
    totals = [sum(map(sum, P)) for P in _matrix_powers(M, LAP_STEPS)]
    ratio = totals[-1] / totals[-2]
    return EntropyResult(1.0 / ratio, math.log(ratio), "lap-growth")


# ----------------------------------------------------------------------
# the entropy curve
# ----------------------------------------------------------------------

class CurvePoint(NamedTuple):
    c: float
    t_star: float
    entropy: float
    method: str
    period: int


def _series_root(syms: str) -> float | None:
    """Smallest band root of the kneading series truncated after ``syms``.

    A weighs nothing in the series, so closing the head with A truncates
    it exactly; with the weights bounded by 1 the truncation error at t is
    below 2 t^(H+1) / (1 - t), which the caller checks against the root.
    """
    return smallest_root_in(kneading_numerator(syms + "A"),
                            BAND_ROOT_LO - 1e-9, 1.0 - 1e-9)


def entropy_point(c: float, horizon: int = 64) -> CurvePoint:
    """Entropy at a single parameter through the kneading route.

    Orbits that close up, fall into the absorbing run, or settle on a
    periodic tail within the horizon get the exact polynomial treatment;
    anything else gets the truncated series, with the horizon grown, up to
    MAX_HORIZON, until the series tail is negligible at the root found.  A
    pole within the first 24 points moves c by the shared nudge schedule
    (PoleError when all four tries fail; the last clears c = 5^(1/5), where
    1/c is the pole d3); a later one truncates the series there.  A horizon
    below 1 raises ValueError, since doubling it would never reach
    MAX_HORIZON, and so does c >= C0 (see ``_check_below_c0``).
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon!r}")
    _check_below_c0(c)
    return nudge_off_poles(lambda c: _entropy_at(c, horizon), c)[1]


def _check_below_c0(c: float) -> None:
    """From C0 on the quintic has three real roots, and the critical orbit
    falls into the attracting root in M: the coding reads it as the word
    (M)^, whose entropy belongs to no parameter of the family."""
    if not c < C0:
        raise ValueError(f"c = {c!r} is not below C0 = {C0!r}; from C0 on "
                         f"the quintic has more than one real root")


def _entropy_at(c: float, H: int) -> CurvePoint:
    code = walk_orbit(c, newton_eval(c, 0.0), H)
    while True:
        syms = code.symbols
        k = syms.find("C")
        if k >= 0:
            word = syms[: k + 1]
            root = _band_root(kneading_numerator(word))
            return _curve_point(c, root, "kneading", len(word))
        if code.stop == STOP_POLE and len(syms) < 24:
            raise code.pole_error()
        word = code.word()
        if word.tail != TAIL_UNRESOLVED:
            root = _band_root(kneading_numerator(word))
            return _curve_point(c, root, "kneading", word.period or 0)
        root = _series_root(syms)
        t_hat = root if root is not None else 1.0 - 1e-9
        tail = 2.0 * t_hat ** (len(syms) + 1) / max(1e-9, 1.0 - t_hat)
        if tail < 1e-12 or H >= MAX_HORIZON or code.stop == STOP_POLE:
            return _curve_point(c, root, "kneading-series", 0)
        H = min(MAX_HORIZON, 2 * H)
        # walk on from the last point, which the new walk codes again first
        more = walk_orbit(c, code.points[-1], H - len(syms) + 1)
        code = OrbitCode(syms + more.symbols[1:], code.points + more.points[1:],
                         more.stop)


def _curve_point(c: float, root: float | None, method: str, period: int) -> CurvePoint:
    res = _result_from_root(root, method)
    return CurvePoint(c, res.t_star, res.h, method, period)


def entropy_curve(c_lo: float, c_hi: float, n: int,
                  horizon: int = 64, workers: int = 1) -> list[CurvePoint]:
    """Entropy sampled on a uniform closed grid of n parameters."""
    if n < 2:
        raise ValueError("need at least two grid points")
    if not (0.0 < c_lo < c_hi):
        raise ValueError(f"bad parameter range ({c_lo}, {c_hi})")
    _check_below_c0(c_hi)
    cs = [c_lo + (c_hi - c_lo) * i / (n - 1) for i in range(n)]
    if workers > 1:
        import multiprocessing as mp
        with mp.Pool(workers) as pool:
            return pool.starmap(entropy_point, [(c, horizon) for c in cs])
    return [entropy_point(c, horizon) for c in cs]
