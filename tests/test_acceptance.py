"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line; together they pin the worked
numbers, the structural identities, and the behavioral guarantees of the
whole pipeline at their stated tolerances.
"""
import itertools
import math
import random
import time

from frozen import RLRC_MATRIX, TRIBONACCI
from rational import same_rational
from quintic_newton.dynamics import (
    C0,
    find_superstable_parameter,
    newton_eval,
    quintic_value,
)
from quintic_newton.kneading import (
    cycle_polynomial,
    determinant_polynomial,
    kneading_determinant,
)
from quintic_newton.markov import (
    char_poly,
    entropy_curve,
    entropy_from_charpoly,
    entropy_from_kneading,
    lap_growth_estimate,
    markov_partition,
    transition_matrix,
)
from quintic_newton.polynomials import IntPolynomial
from quintic_newton.reduction import (
    BringJerrardQuintic,
    conjugacy_check,
    reduce_quintic,
)
from quintic_newton.words import (
    SymbolWord,
    TAIL_PERIODIC,
    admissible_cycles,
    is_admissible,
    order_compare,
)


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_rlrc_entropy():
    t0 = time.perf_counter()
    c = find_superstable_parameter("RLRC", bracket=(1.33, 1.34))
    res = entropy_from_kneading("RLRC")
    growth = 1.0 / res.t_star
    dt = time.perf_counter() - t0
    ok = (1.33 < c < 1.34
          and abs(growth - 1.83929) < 1e-4
          and abs(res.h - math.log(growth)) < 1e-12
          and dt < 1.0)
    _report(1, ok, f"c*={c:.6f}, 1/t*={growth:.6f} vs 1.83929, {dt:.3f}s")


def test_criterion_2_rlrc_markov_matrix():
    t0 = time.perf_counter()
    c = find_superstable_parameter("RLRC")
    rows = transition_matrix(markov_partition(c))
    dt = time.perf_counter() - t0
    ok = rows == RLRC_MATRIX and dt < 1.0
    _report(2, ok, f"7x7 transition matrix exact, {dt:.3f}s")


def test_criterion_3_rlrc_kneading_determinant():
    t0 = time.perf_counter()
    D = kneading_determinant("RLRC")
    num = IntPolynomial([1, 1]) * IntPolynomial([1, -1, -1, -1])
    dt = time.perf_counter() - t0
    ok = same_rational(D, (num, (1, 4))) and dt < 1.0
    _report(3, ok,
            f"D = (1+t)(1-t-t^2-t^3)/((1-t)(1-t^4)) exactly, {dt:.3f}s")


def test_criterion_4_admissibility_and_order_fixtures():
    ok = (is_admissible("RLRC")
          and not is_admissible("LMAC")
          and not is_admissible("RMRC")
          and order_compare("MRRM", "MRRR") < 0
          and order_compare("RLRA", "RLRR") > 0)
    _report(4, ok, "accept RLRC; reject LMAC, RMRC; "
                   "MRRM < MRRR and RLRA > RLRR")


def test_criterion_5_entropy_extreme():
    res = entropy_from_kneading(SymbolWord("M", TAIL_PERIODIC, 0))
    d_t = abs(res.t_star - (math.sqrt(2.0) - 1.0))
    d_h = abs(res.h - math.log(1.0 + math.sqrt(2.0)))
    ok = d_t < 1e-10 and d_h < 1e-10
    _report(5, ok, f"M^inf: |t*-(sqrt2-1)|={d_t:.2e}, "
                   f"|h-log(1+sqrt2)|={d_h:.2e}")


def test_criterion_6_monotonicity():
    t0 = time.perf_counter()
    pts = entropy_curve(0.05, C0 - 0.01, 200)
    dt = time.perf_counter() - t0
    worst = min(b.entropy - a.entropy for a, b in zip(pts, pts[1:]))
    ok = worst > -1e-3 and dt < 120.0
    _report(6, ok, f"200 points, worst step {worst:.2e}, {dt:.1f}s")


def test_criterion_7_recursion_matches_determinant():
    candidates = ["".join(w) + "C"
                  for k in range(1, 6)
                  for w in itertools.product("ABLMR", repeat=k)]
    admissible = [w for w in candidates if is_admissible(w)]
    bad = [w for w in admissible
           if cycle_polynomial(w) != determinant_polynomial(w)]
    ok = len(admissible) == 31 and not bad
    _report(7, ok, f"{len(candidates)} candidates, {len(admissible)} "
                   f"admissible, {len(bad)} recursion mismatches")


def test_criterion_8_three_route_agreement():
    words = [w for k in range(2, 7) for w in admissible_cycles(k)]
    worst_dt, worst_lap = 0.0, 0.0
    for w in words:
        rows = transition_matrix(markov_partition(find_superstable_parameter(w)))
        r_char = entropy_from_charpoly(char_poly(rows))
        r_knead = entropy_from_kneading(w)
        r_lap = lap_growth_estimate(rows)
        worst_dt = max(worst_dt, abs(r_char.t_star - r_knead.t_star))
        worst_lap = max(worst_lap,
                        abs(r_lap.h - r_knead.h) / max(r_knead.h, 1e-12))
    ok = worst_dt < 1e-10 and worst_lap < 0.02
    _report(8, ok, f"{len(words)} words: worst |dt*|={worst_dt:.2e}, "
                   f"worst lap error={worst_lap:.2e}")


def test_criterion_9_conjugacy():
    rng = random.Random(2024)
    worst = 0.0
    n = 0
    while n < 100:
        a, b = rng.uniform(-10, 10), rng.uniform(-10, 10)
        if b == 0.0:
            continue
        n += 1
        q = BringJerrardQuintic(a, b)
        rep = conjugacy_check(q, reduce_quintic(q),
                              [rng.uniform(-5, 5) for _ in range(10)])
        worst = max(worst, rep.max_residual)
    ok = worst < 1e-9
    _report(9, ok, f"100 quintics x 10 points, max residual {worst:.2e}")


def test_criterion_10_regime_convergence():
    t0 = time.perf_counter()
    rng = random.Random(5)

    def converges(c, x, max_iter=500, tol=1e-10):
        for _ in range(max_iter):
            if abs(quintic_value(-c, 1.0, x)) < tol:
                return x
            try:
                x = newton_eval(c, x)
            except PoleError:
                return None
        return None

    from quintic_newton.dynamics import PoleError

    root = converges(-1.0, 0.0)
    all_one = all(
        (r := converges(-1.0, rng.uniform(-20, 20))) is not None
        and abs(r - root) < 1e-6
        for _ in range(1000))

    hits = 0
    total = 100_000
    for _ in range(total):
        if converges(2.0, rng.uniform(-3, 3), max_iter=200) is not None:
            hits += 1
    frac = hits / total
    dt = time.perf_counter() - t0
    ok = all_one and frac >= 0.999 and dt < 30.0
    _report(10, ok, f"c=-1: 1000/1000 to the unique root: {all_one}; "
                    f"c=2: {frac:.5f} of 1e5 converge; {dt:.1f}s")
