"""Exact integer polynomial arithmetic in one variable t.

Everything downstream of the symbolic coding (kneading increments,
determinants, characteristic polynomials) must be exact: the entropy
comparisons in the test suite check integer coefficient lists, not floats.
Coefficients are Python ints stored lowest power first with trailing zeros
stripped, and division is exact: it gives None (``try_div_exact``) or
raises (``div_exact``) when it does not come out even over Z.  The kneading
algebra works on integer numerators.  The only denominator the coding
produces is a product of (1 - t^m) factors, which callers carry as a
tuple of exponents m beside the numerator, cancelling factors by exponent
and dividing by what is left; dividing by (1 - t^m) costs time linear in
the degree.

Floating point enters only through ``evaluate`` and the band-root search
at the bottom, and every float decision there is certified: rounding
bounds exclude cells and prove a single zero, exact integer signs confirm
the bisected value, and what floats cannot decide is decided exactly with
a gcd over Z and Sturm counts.  ``bisect_sign`` halves a sign change to a
tolerance here and in both of the locator's halvings, of the kneading order
and of the k-th return.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from fractions import Fraction


class IntPolynomial:
    """Integer-coefficient polynomial, coefficients lowest power first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"integer coefficient required, got {c!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _trusted(cls, cs: list[int]) -> "IntPolynomial":
        """Wrap a list already known to hold ints (an arithmetic result of
        valid polynomials) without the per-coefficient check; strips
        trailing zeros in place."""
        while cs and cs[-1] == 0:
            cs.pop()
        p = object.__new__(cls)
        p.coeffs = tuple(cs)
        return p

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def one_minus_t_power(cls, m: int) -> "IntPolynomial":
        """1 - t^m"""
        if m < 1:
            raise ValueError("factor exponent must be >= 1")
        return cls._trusted([1] + [0] * (m - 1) + [-1])

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def to_list(self) -> list[int]:
        return list(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for m, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if m == 0:
                parts.append(str(c))
            else:
                mono = "t" if m == 1 else f"t^{m}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other) -> "IntPolynomial":
        if isinstance(other, IntPolynomial):
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return IntPolynomial((other,))
        raise TypeError(f"cannot combine IntPolynomial with {other!r}")

    def __add__(self, other) -> "IntPolynomial":
        a, b = self.coeffs, self._coerce(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out.extend(a[len(b):])
        return IntPolynomial._trusted(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial._trusted([-c for c in self.coeffs])

    def __sub__(self, other) -> "IntPolynomial":
        a, b = self.coeffs, self._coerce(other).coeffs
        out = [x - y for x, y in zip(a, b)]
        out.extend(a[len(b):])
        out.extend(-y for y in b[len(a):])
        return IntPolynomial._trusted(out)

    def __mul__(self, other) -> "IntPolynomial":
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial._trusted(out)

    def shift(self, m: int) -> "IntPolynomial":
        """Multiply by t^m."""
        if self.is_zero():
            return self
        return IntPolynomial._trusted([0] * m + list(self.coeffs))

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial._trusted([m * c for m, c in enumerate(self.coeffs)][1:])

    def try_div_exact(self, other: "IntPolynomial") -> "IntPolynomial | None":
        """self / other when the division is exact over Z: None as soon as a
        quotient coefficient is not an integer or when a remainder is left;
        a zero divisor raises ZeroDivisionError.  Each step touches only the
        divisor's nonzero terms, so dividing by 1 - t^m is linear."""
        div = self._coerce(other).coeffs
        if not div:
            raise ZeroDivisionError("polynomial division by zero")
        rem, dn, lead = list(self.coeffs), len(div), div[-1]
        terms = [(j, d) for j, d in enumerate(div) if d]
        quot = [0] * max(1, len(rem) - dn + 1)
        for i in range(len(rem) - dn, -1, -1):
            f, r = divmod(rem[i + dn - 1], lead)
            if r:
                return None
            quot[i] = f
            if f:
                for j, d in terms:
                    rem[i + j] -= f * d
        return None if any(rem) else IntPolynomial._trusted(quot)

    def div_exact(self, other: "IntPolynomial") -> "IntPolynomial":
        q = self.try_div_exact(other)
        if q is None:
            raise ArithmeticError(f"{self} is not divisible by {other}")
        return q

    def _pseudo_rem(self, other: "IntPolynomial") -> "IntPolynomial":
        """|lc(other)|^k * self mod other: the remainder up to a positive
        factor, so it serves Sturm chains as well as gcds."""
        rem, div = list(self.coeffs), other.coeffs
        dn, lead = len(div), div[-1]
        scale, sign = abs(lead), (1 if lead > 0 else -1)
        while len(rem) >= dn:
            f, k = rem[-1] * sign, len(rem) - dn
            rem = [c * scale for c in rem]
            for j, d in enumerate(div):
                rem[k + j] -= f * d
            while rem and rem[-1] == 0:
                rem.pop()
        return IntPolynomial._trusted(rem)

    def _primitive(self) -> "IntPolynomial":
        """self divided by the (positive) gcd of its coefficients."""
        g = math.gcd(*self.coeffs)
        if g <= 1:
            return self
        return IntPolynomial._trusted([c // g for c in self.coeffs])

    def gcd(self, other: "IntPolynomial") -> "IntPolynomial":
        """Greatest common divisor in Z[t] by the primitive remainder
        sequence, with a positive leading coefficient."""
        a, b = self, self._coerce(other)
        if a.degree < b.degree:
            a, b = b, a
        content = math.gcd(math.gcd(*a.coeffs), math.gcd(*b.coeffs))
        a, b = a._primitive(), b._primitive()
        while not b.is_zero():
            a, b = b, a._pseudo_rem(b)._primitive()
        if a.coeffs and a.coeffs[-1] < 0:
            a = -a
        return a * content if content > 1 else a

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sign_at(self, x: float | Fraction) -> int:
        """The exact sign of self at the float or Fraction x, in integer
        arithmetic."""
        num, den = x.as_integer_ratio()
        acc, scale = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * num + c * scale
            scale *= den
        return (acc > 0) - (acc < 0)


# ----------------------------------------------------------------------
# root isolation
# ----------------------------------------------------------------------

# The root is reported by bisecting the cell of this grid that holds it, so
# t* has the value a sign scan of the grid would give whenever that scan
# sees the right root.
_GRID_CELLS = 4096
# a walk cell narrower than this, or a walk longer than this many
# evaluations (the one at lo included), means floating point cannot decide
# the cell.  Near a cluster of k roots at distance e an excluded cell is
# only about e^k wide, so the walk crawls there; walks that find a simple
# root or clear the interval take a few dozen evaluations.
_MIN_CELL = 1e-12
_WALK_BUDGET = 256
# how close a reported zero is to the true one
ROOT_TOL = 1e-13


def smallest_root_in(poly: IntPolynomial, lo: float, hi: float) -> float | None:
    """Smallest zero of poly in [lo, hi] (0 <= lo < hi) to within ROOT_TOL,
    or None when there is none; the zero polynomial gives lo.

    Every answer is certified.  An exclusion walk from lo proves poly free
    of zeros on [lo, a] and proves exactly one zero in (a, b); for the
    Milnor-Thurston determinant D(t) that is the statement D(t) > 0 on
    [0, t*).  ``bisect_sign`` halves the cell of the grid
    lo + (hi - lo) * i / 4096 that holds (a, b) in floating point, and the
    midpoint t of its last bracket is kept when exact signs at t - ROOT_TOL
    and t + ROOT_TOL bracket the zero; otherwise it halves (a, b) itself
    in Fractions.  Where floating point cannot decide a cell (a double
    root, two roots closer than the rounding), the rest of [lo, hi] is
    decided exactly: Sturm counts of the square-free part, halved down to
    ROOT_TOL.  Bounds exact arithmetic cannot represent raise ValueError;
    nothing is guessed.
    """
    if not 0.0 <= lo < hi < math.inf:
        raise ValueError(f"need 0 <= lo < hi < inf, got [{lo!r}, {hi!r}]")
    if poly.is_zero():
        return lo
    walk = _ExclusionWalk(poly, lo, hi)
    kind, a, b, sign = walk.run()
    if kind == "clear":
        return None
    if kind == "stall":
        return _smallest_root_exact(poly, a, hi)
    f = poly.evaluate
    i = walk.next_index(a)
    if i <= _GRID_CELLS:
        left, right = walk.grid_point(i - 1), walk.grid_point(i)
        fl, fr = f(left), f(right)
        if fl != 0.0 and fr != 0.0 and (fl < 0) == (sign < 0) != (fr < 0):
            left, right = bisect_sign(f, left, right, fl, ROOT_TOL)
            t = (left + right) / 2
            below, above = t - ROOT_TOL, t + ROOT_TOL
            # exact signs put the one zero of (a, b) inside (below, above)
            if below <= b and (below <= a or poly.sign_at(below) == sign) \
                    and (above >= b or poly.sign_at(above) == -sign):
                return t
    from fractions import Fraction
    a, b = bisect_sign(poly.sign_at, Fraction(a), Fraction(b), sign, ROOT_TOL)
    return float((a + b) / 2)


def bisect_sign(f, a, b, fa, tol):
    """Halve a sign change of f on [a, b] until b - a <= max(tol, 1e-16 * b)
    and return the last bracket (a, b); fa carries the sign of f at a.

    The points may be floats or Fractions.  An exact zero of f at a midpoint
    ends the halving on the bracket it halved, whose midpoint it is; floats
    also stop at adjacent ends, where the midpoint rounds onto one of them.
    """
    relative = 1e-16 * b > tol      # b only shrinks: a floor under tol stays under
    while b - a > (max(tol, 1e-16 * b) if relative else tol):
        m = (a + b) / 2
        if m == a or m == b:
            break
        fm = f(m)
        if fm == 0:
            break
        if (fa < 0) != (fm < 0):
            b = m
        else:
            a, fa = m, fm
    return a, b


class _ExclusionWalk:
    """Certified sign and monotonicity tests for poly on cells [x, b].

    A cell is free of zeros when |S(x)| - E(x) > (b - x) * max|S'| on the
    cell, and S is monotone on it when |S'(x)| - E'(x) > (b - x) * max|S''|.
    The maxima are bounded by the absolute-coefficient sums at b (x >= 0),
    and E, E' by gamma times the absolute sums at x (Higham, Accuracy and
    Stability of Numerical Algorithms, 5.1), with gamma_k for k = 8(n + 1)
    covering the coefficient conversion, the derivative recurrence and the
    rounding of the bounds themselves with room to spare.
    """

    def __init__(self, poly: IntPolynomial, lo: float, hi: float):
        self.coeffs = poly.coeffs
        k = 8 * len(poly.coeffs) * 2.0 ** -53
        self.gamma = k / (1.0 - k)
        self.lo, self.hi = lo, hi

    def grid_point(self, j: int) -> float:
        return self.lo + (self.hi - self.lo) * j / _GRID_CELLS

    def next_index(self, x: float) -> int:
        """The j with grid_point(j - 1) <= x < grid_point(j); past the last
        grid point this is _GRID_CELLS + 1."""
        j = int((x - self.lo) / (self.hi - self.lo) * _GRID_CELLS) + 1
        while j > 1 and self.grid_point(j - 1) > x:
            j -= 1
        while j <= _GRID_CELLS and self.grid_point(j) <= x:
            j += 1
        return j

    def next_point(self, x: float) -> float:
        j = self.next_index(x)
        return self.grid_point(j) if j <= _GRID_CELLS else self.hi

    def at(self, x: float) -> tuple[float, float, float, float, float]:
        """S(x), S'(x) and the absolute sums sum |c_m| x^m,
        sum m |c_m| x^(m-1) and sum C(m, 2) |c_m| x^(m-2)."""
        s = ds = a = d = d2 = 0.0
        for c in reversed(self.coeffs):
            d2 = d2 * x + d
            d = d * x + a
            a = a * x + (c if c > 0 else -c)
            ds = ds * x + s
            s = s * x + c
        return s, ds, a, d, d2

    def sign(self, p) -> int:
        """The certified sign of S at a point, 0 when rounding hides it."""
        if abs(p[0]) <= self.gamma * p[2]:
            return 0
        return 1 if p[0] > 0 else -1

    def run(self) -> tuple[str, float, float, int]:
        """Walk right from lo towards hi.

        Returns ("clear", lo, hi, sign) when [lo, hi] holds no zero,
        ("cell", a, b, sign) for the first cell proved to hold exactly one
        zero (it never crosses a grid point), or ("stall", x, x, sign) where
        floating point cannot go on; sign is that of S on [lo, a] or [lo, x].
        Each cell excluded doubles the step; each one refused halves it.
        """
        g, slack, x, end = self.gamma, 1.0 + self.gamma, self.lo, self.hi
        px = self.at(x)
        sign = self.sign(px)
        if sign == 0:
            return "stall", x, x, sign
        step = (end - x) / _GRID_CELLS
        h, nxt = step, self.next_point(x)
        for _ in range(_WALK_BUDGET - 1):
            b = min(x + h, end)
            if h <= step and nxt < b:
                b = nxt
            w = b - x
            pb = self.at(b)
            # no zero when |S| cannot fall to 0 across the cell ...
            free = abs(px[0]) - g * px[2] > w * pb[3] * slack
            if not free and abs(px[1]) - g * px[3] > w * 2.0 * pb[4] * slack:
                # ... or when S is monotone on it and keeps its sign
                sb = self.sign(pb)
                if sb == -sign and b <= nxt:
                    return "cell", x, b, sign
                free = sb == sign
            if not free:
                if w < _MIN_CELL:
                    break
                h = 0.5 * w
                continue
            if b >= end:
                return "clear", self.lo, end, sign
            x, px, h = b, pb, 2.0 * h
            if x >= nxt:
                nxt = self.next_point(x)
        return "stall", x, x, sign


def _smallest_root_exact(poly: IntPolynomial, x: float, hi: float) -> float | None:
    """Smallest zero of poly in [x, hi] in exact arithmetic: Sturm counts of
    the square-free part at Fraction points, halved by ``bisect_sign`` on
    whether the count still equals the one at x, until the cell holding the
    first zero is narrower than ROOT_TOL."""
    from fractions import Fraction
    g = poly.div_exact(poly.gcd(poly.derivative()))
    chain = [g, g.derivative()]
    while chain[-1].degree > 0:
        chain.append(-chain[-2]._pseudo_rem(chain[-1])._primitive())

    def changes(t: Fraction) -> int:
        signs = [v for v in (p.sign_at(t) for p in chain) if v]
        return sum((u < 0) != (v < 0) for u, v in zip(signs, signs[1:]))

    a, b = Fraction(x), Fraction(hi)
    if g.sign_at(a) == 0:
        return x
    va = changes(a)
    if changes(b) == va:
        return None
    a, b = bisect_sign(lambda m: 1 if changes(m) == va else -1, a, b, 1, ROOT_TOL)
    return float((a + b) / 2)
