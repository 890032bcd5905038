"""Exact polynomial and rational-function arithmetic in one variable t.

Everything downstream of the symbolic coding (kneading increments,
determinants, characteristic polynomials) must be exact: the entropy
comparisons in the test suite check integer coefficient lists, not floats.
Coefficients are Python ints stored lowest power first with trailing zeros
stripped, and division is exact integer division that raises when it does
not come out even.  The kneading algebra works on integer numerators; the
determinant oracle hands its result out once as a ``RationalFunctionInT``,
a value type that holds an integer numerator over an explicit multiset of
(1 - t^m) factors, the only denominator the coding produces.  It compares
and reduces but does no arithmetic: callers compute on ``num`` and ``den``.

Floating point enters only through ``evaluate`` and the root bisection
helpers at the bottom.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable


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

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def t_power(cls, m: int, coeff: int = 1) -> "IntPolynomial":
        """coeff * t^m"""
        if m < 0:
            raise ValueError("negative exponent")
        return cls([0] * m + [coeff])

    @classmethod
    def one_minus_t_power(cls, m: int) -> "IntPolynomial":
        """1 - t^m"""
        if m < 1:
            raise ValueError("factor exponent must be >= 1")
        return cls([1] + [0] * (m - 1) + [-1])

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, m: int) -> int:
        if 0 <= m < len(self.coeffs):
            return self.coeffs[m]
        return 0

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
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(self[m] + other[m] for m in range(n))

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self.coeffs)

    def __sub__(self, other) -> "IntPolynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "IntPolynomial":
        return self._coerce(other) - self

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
        return IntPolynomial(out)

    __rmul__ = __mul__

    def shift(self, m: int) -> "IntPolynomial":
        """Multiply by t^m."""
        if self.is_zero():
            return self
        return IntPolynomial([0] * m + list(self.coeffs))

    def divmod(self, other: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Polynomial division; raises ArithmeticError when the quotient, and
        with it the remainder, fails to have integer coefficients."""
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [0] * max(1, len(rem) - len(other.coeffs) + 1)
        dlead = other.coeffs[-1]
        dn = len(other.coeffs)
        for i in range(len(rem) - dn, -1, -1):
            f, r = divmod(rem[i + dn - 1], dlead)
            if r:
                raise ArithmeticError(
                    f"non-integer coefficient {rem[i + dn - 1]}/{dlead} "
                    "in exact division")
            quot[i] = f
            if f:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= f * b
        return IntPolynomial(quot), IntPolynomial(rem[: dn - 1])

    def try_div_exact(self, other: "IntPolynomial") -> "IntPolynomial | None":
        """self / other when the division is exact over Z, else None."""
        try:
            q, r = self.divmod(other)
        except ArithmeticError:
            return None
        return q if r.is_zero() else None

    def div_exact(self, other: "IntPolynomial") -> "IntPolynomial":
        q = self.try_div_exact(self._coerce(other))
        if q is None:
            raise ArithmeticError(f"{self} is not divisible by {other}")
        return q

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def evaluate_exact(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


class RationalFunctionInT:
    """num / prod (1 - t^m), the only rational shape the coding produces.

    A value type with no arithmetic of its own: callers work on ``num``
    and ``den`` as integer polynomials.  The denominator is stored as a
    multiset of exponents m, unreduced; ``reduce()`` cancels factors that
    divide the numerator exactly and returns a canonical representative.
    Equality with another ``RationalFunctionInT`` is cross-multiplied and
    therefore representation independent.
    """

    __slots__ = ("num", "den_factors")

    def __init__(self, num: IntPolynomial, den_factors: Iterable[int] = ()):
        self.num = num
        factors = tuple(sorted(den_factors))
        if any(m < 1 for m in factors):
            raise ValueError("denominator exponents must be >= 1")
        self.den_factors = factors

    @property
    def den(self) -> IntPolynomial:
        out = IntPolynomial.one()
        for m in self.den_factors:
            out = out * IntPolynomial.one_minus_t_power(m)
        return out

    def __repr__(self):
        if not self.den_factors:
            return f"({self.num})"
        den = "".join(f"(1-t^{m})" if m > 1 else "(1-t)" for m in self.den_factors)
        return f"({self.num}) / {den}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunctionInT):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def reduce(self) -> "RationalFunctionInT":
        """Cancel denominator factors dividing the numerator; canonical up
        to the factor multiset ordering (which is sorted)."""
        num = self.num
        remaining: list[int] = []
        for m in sorted(self.den_factors, reverse=True):
            q = num.try_div_exact(IntPolynomial.one_minus_t_power(m))
            if q is not None:
                num = q
            else:
                remaining.append(m)
        return RationalFunctionInT(num, remaining)


# ----------------------------------------------------------------------
# root isolation
# ----------------------------------------------------------------------

_SCAN_STEPS = 4096


def smallest_root_in(poly: IntPolynomial, lo: float, hi: float,
                     tol: float = 1e-13) -> float | None:
    """Smallest zero of poly in [lo, hi] found by a sign-change scan over
    _SCAN_STEPS equal cells plus bisection.  The polynomials this gets
    applied to have simple smallest roots, so a scan at this resolution
    does not miss them.  Returns None when no sign change is found."""
    f = poly.evaluate
    prev_x = lo
    prev_v = f(lo)
    if prev_v == 0.0:
        return lo
    for i in range(1, _SCAN_STEPS + 1):
        x = lo + (hi - lo) * i / _SCAN_STEPS
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

