"""Reduction of trinomial quintics x^5 + a*x + b to the canonical family.

Rescaling x by the fifth root of b turns Newton's method for x^5 + a*x + b
into Newton's method for x^5 - c*x + 1 with c = -a / |b|^(4/5); the scaling
commutes with the Newton step exactly, which ``conjugacy_check`` verifies
pointwise.  The b = 0 quintics have no constant term to normalize against
and reduce instead to one of three fixed degenerate forms.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .dynamics import C0, PoleError, newton_step


@dataclass(frozen=True)
class BringJerrardQuintic:
    a: float
    b: float

    def newton(self, x: float) -> float:
        return newton_step(self.a, self.b, x)


class Regime(enum.Enum):
    """Where the canonical parameter falls, read off the root structure."""
    NEGATIVE_C = "negative-c"            # one real root, no poles on the line
    ZERO_C = "zero-c"                    # one real root, single degenerate pole
    WINDOW_BAND = "window-band"          # one real root, two poles: coding band
    TANGENT = "tangent"                  # double root: band boundary
    THREE_ROOTS = "three-roots"          # three real roots, basins interleave


# a c this close to C0, relatively, sits on the tangency
TANGENT_REL_TOL = 1e-12


def classify_regime(c: float) -> Regime:
    """The regime of x^5 - c*x + 1; a nan c has none and raises ValueError."""
    if math.isnan(c):
        raise ValueError("a nan parameter has no regime")
    if c < 0.0:
        return Regime.NEGATIVE_C
    if c == 0.0:
        return Regime.ZERO_C
    if abs(c - C0) <= TANGENT_REL_TOL * C0:
        return Regime.TANGENT
    return Regime.WINDOW_BAND if c < C0 else Regime.THREE_ROOTS


@dataclass(frozen=True)
class ReducedQuintic:
    """Canonical form x^5 - c*x + 1, or a b = 0 degenerate form.

    kind is one of "canonical", "p_plus" (x^5 + x), "p_minus" (x^5 - x),
    "p_zero" (x^5).  ``scale`` is the factor carrying original coordinates
    to reduced ones: tau(x) = x * scale.
    """
    kind: str
    c: float
    scale: float

    def _coefficients(self) -> tuple[float, float]:
        """(a, b) with the reduced form written as x^5 + a*x + b."""
        if self.kind == "canonical":
            return -self.c, 1.0
        return {"p_plus": 1.0, "p_minus": -1.0, "p_zero": 0.0}[self.kind], 0.0

    def newton(self, x: float) -> float:
        if self.kind == "p_zero":
            return 0.8 * x  # x^5 has a 0/0 at its root; the step is 4x/5
        return newton_step(*self._coefficients(), x)

    @property
    def regime(self) -> Regime | None:
        return classify_regime(self.c) if self.kind == "canonical" else None


def reduce_quintic(q: BringJerrardQuintic) -> ReducedQuintic:
    """Reduce x^5 + a*x + b; tau(x) = x * scale conjugates the Newton maps.
    ValueError unless a, b and the reduced c and scale are all finite."""
    a, b = q.a, q.b
    if b != 0.0:
        beta = math.copysign(abs(b) ** 0.2, b)
        r = ReducedQuintic("canonical", -a / beta ** 4, 1.0 / beta)
    elif a == 0.0:
        r = ReducedQuintic("p_zero", 0.0, 1.0)
    else:
        r = ReducedQuintic("p_plus" if a > 0 else "p_minus", 0.0, abs(a) ** -0.25)
    if not all(map(math.isfinite, (a, b, r.c, r.scale))):
        raise ValueError(f"the reduction needs finite a, b, c and scale, got "
                         f"a={a!r}, b={b!r}, c={r.c!r}, scale={r.scale!r}")
    return r


@dataclass(frozen=True)
class ConjugacyReport:
    max_residual: float
    checked: int
    pole_points: tuple[float, ...]


def conjugacy_check(q: BringJerrardQuintic, reduced: ReducedQuintic,
                    points: list[float]) -> ConjugacyReport:
    """Largest relative mismatch of tau(N_q(x)) against N_reduced(tau(x)).

    Points where either Newton step sits on a pole are reported rather than
    silently dropped — hitting one means the test grid needs moving, not
    that the conjugacy holds vacuously.
    """
    worst = 0.0
    checked = 0
    poles: list[float] = []
    for x in points:
        try:
            lhs = q.newton(x) * reduced.scale
            rhs = reduced.newton(x * reduced.scale)
        except PoleError:
            poles.append(x)
            continue
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        checked += 1
    return ConjugacyReport(worst, checked, tuple(poles))
