import hashlib
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

from frozen import (
    FREE_ROOT_HEX,
    LOCATOR_DIGEST,
    LOCATOR_DIGEST_11,
    LOCATOR_DIGEST_12,
    LOCATOR_NOT_REALIZED,
    LOCATOR_NOT_REALIZED_11,
    LOCATOR_NOT_REALIZED_12,
    LOCATOR_WORDS,
    LOCATOR_WORDS_11,
    LOCATOR_WORDS_12,
    SUPERSTABLE,
)
import quintic_newton.dynamics as dynamics
import quintic_newton.markov as markov
from quintic_newton.dynamics import (
    C0,
    PoleError,
    critical_frame,
    STOP_ABSORBED,
    STOP_HORIZON,
    STOP_POLE,
    TAIL_MAX_PERIOD,
    TAIL_TOL,
    OrbitCode,
    critical_symbols,
    find_superstable_parameter,
    newton_eval,
    newton_step,
    nudge_off_poles,
    orbit_points,
    orbit_symbols,
    quintic_value,
    tail_period,
    walk_orbit,
)
from quintic_newton.markov import critical_orbit, entropy_curve
from quintic_newton.words import admissible_cycles


def test_band_constant():
    assert C0 == 5.0 * 2.0 ** -1.6
    assert abs(C0 - 1.6493848884661177) < 1e-15


def test_newton_eval_fixed_points_are_roots():
    # x = 1 solves x^5 - 2x + 1 = 0 and is fixed under the map
    assert abs(newton_eval(2.0, 1.0) - 1.0) < 1e-14
    assert abs(quintic_value(-2.0, 1.0, 1.0)) < 1e-14
    # superattracting: a step of h off the root lands O(h^2) from it
    for h in (1e-4, -1e-4):
        assert abs(newton_eval(2.0, 1.0 + h) - 1.0) < 1e-6


def test_newton_step_rejects_non_finite_input():
    for bad in (math.nan, math.inf, -math.inf):
        for args in ((bad, 1.0, 0.5), (-1.0, bad, 0.5), (-1.0, 1.0, bad)):
            with pytest.raises(ValueError, match="non-finite"):
                newton_step(*args)


def raised_after(gen):
    """The pairs a walk yields before it raises, and the ValueError text."""
    seen = []
    with pytest.raises(ValueError) as info:
        for pair in gen:
            seen.append(pair)
    return seen, str(info.value)


def test_walkers_refuse_bad_input_at_the_same_step():
    # a start of nan or +inf is refused before its first point; 1e308 reads R,
    # overflows to inf on the first step, reads R again and is refused on the
    # second step
    for x0 in (math.nan, math.inf):
        text = f"non-finite input a=-1.0, b=1.0, x={x0!r}"
        assert raised_after(orbit_symbols(1.0, x0, 3)) == ([], text)
        with pytest.raises(ValueError) as info:
            walk_orbit(1.0, x0, 3)
        assert str(info.value) == text
        with pytest.raises(ValueError) as info:
            orbit_points(1.0, x0, 3)
        assert str(info.value) == text
    text = "non-finite input a=-1.0, b=1.0, x=inf"
    assert raised_after(orbit_symbols(1.0, 1e308, 3)) == (
        [(1e308, "R"), (math.inf, "R")], text)
    for fn in (walk_orbit, orbit_points):
        with pytest.raises(ValueError) as info:
            fn(1.0, 1e308, 3)
        assert str(info.value) == text
    assert orbit_points(1.0, 1e308, 2) == [1e308, math.inf]
    # a nan parameter: the walkers refuse it before any point, orbit_points
    # at its first step
    text = "the critical frame needs c > 0, got nan"
    assert raised_after(orbit_symbols(math.nan, 0.5, 3)) == ([], text)
    with pytest.raises(ValueError) as info:
        walk_orbit(math.nan, 0.5, 3)
    assert str(info.value) == text
    with pytest.raises(ValueError) as info:
        orbit_points(math.nan, 0.5, 3)
    assert str(info.value) == "non-finite input a=nan, b=1.0, x=0.5"
    assert orbit_points(math.nan, 0.5, 1) == [0.5]
    # -inf lies left of the free root: it reads A and the walk ends there
    assert list(orbit_symbols(1.0, -math.inf, 3)) == [(-math.inf, "A")]
    assert walk_orbit(1.0, -math.inf, 3) == ("A", (-math.inf,), STOP_ABSORBED)


def test_newton_eval_raises_on_pole():
    c = 1.0
    pole = (c / 5.0) ** 0.25
    with pytest.raises(PoleError):
        newton_eval(c, pole)


def test_the_pole_test_is_relative_to_the_terms():
    # at c = 1e-11 the denominator 5x^4 - c is below 1e-10 for every |x|
    # below 2e-3, yet only points near the poles +-1.19e-3 meet them
    c = 1e-11
    d3 = critical_frame(c).d3
    assert newton_eval(c, 0.0) == 1e11
    assert newton_eval(c, d3 * (1 + 1e-9)) < -1e19
    with pytest.raises(PoleError):
        newton_eval(c, d3 * (1 + 4e-11))
    # past |x| = 1 the test reads the terms 5 and a*x^-4
    d3 = critical_frame(100.0).d3
    assert d3 > 1.0 and newton_eval(100.0, d3 * (1 + 1e-9)) > 1e8
    with pytest.raises(PoleError):
        newton_eval(100.0, d3)


def letter(c, x):
    """The letter the walker reads at x with no tolerance, None at a pole."""
    [(_, s)] = orbit_symbols(c, x, 1, tol=0.0)
    return s


def test_critical_frame_structure():
    f = critical_frame(1.0)
    assert f.d0 < f.d1 < 0.0 < f.d3
    assert abs(quintic_value(-1.0, 1.0, f.d0)) < 1e-10
    assert abs(f.d3 - 0.2 ** 0.25) < 1e-12
    assert f.d1 == -f.d3
    assert letter(1.0, f.d0 - 1.0) == "A"
    assert letter(1.0, (f.d0 + f.d1) / 2) == "B"
    assert letter(1.0, f.d1 / 2) == "L"
    assert letter(1.0, f.d3 / 2) == "M"
    assert letter(1.0, f.d3 + 1.0) == "R"
    with pytest.raises(ValueError):
        critical_frame(-1.0)


def test_poles_survive_a_subnormal_c():
    # c / 5 is subnormal below about 1.1e-307 and 0 below about 2.5e-323
    for c in (1e-323, 5e-324):
        assert critical_frame(c).d1 < 0.0
        assert letter(c, -1e-100) == "L"
    want = -(1e-320 ** 0.25) / 5 ** 0.25
    assert abs(critical_frame(1e-320).d1 - want) <= 1e-15 * abs(want)


def test_free_root_is_found_on_demand_with_the_same_bits(monkeypatch):
    for c, d0_hex in FREE_ROOT_HEX.items():
        assert critical_frame(c).d0.hex() == d0_hex, c
    # a walk that only reads points right of the left pole never computes
    # the free root
    frames = []

    def recorded(c):
        frames.append(critical_frame(c))
        return frames[-1]

    monkeypatch.setattr(dynamics, "critical_frame", recorded)
    f = critical_frame(1.0)
    for x in (f.d1, f.d1 / 2, 0.0, f.d3 / 2, f.d3, f.d3 + 1.0):
        letter(1.0, x)
    assert len(frames) == 6 and not any("d0" in g.__dict__ for g in frames)
    assert letter(1.0, f.d1 - 1e-3) == "B"
    assert "d0" in frames[-1].__dict__


SRC = Path(__file__).resolve().parent.parent / "src"

_HUGE_C = """\
import math, sys
sys.path.insert(0, sys.argv[1])
from quintic_newton.cli import main
from quintic_newton.dynamics import critical_frame, quintic_value
for c in (1e66, 1e70, 1e300):
    f = critical_frame(c)
    left = quintic_value(-c, 1.0, math.nextafter(f.d0, -math.inf))
    print(math.isfinite(f.d0), f.d0 < f.d1, left < 0.0)
main(["itinerary", "1e70", "--x0=-1e20", "--length", "3"])
"""


def test_free_root_is_bracketed_at_huge_c():
    # from |d1| >= 2^54 on, d1 - 1 rounds to d1, and a bracket that doubles
    # its distance from d1 never moves; a fresh interpreter with a timeout
    # turns such a stall into a failure instead of a hung suite
    proc = subprocess.run([sys.executable, "-I", "-c", _HUGE_C, str(SRC)],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:3] == ["True True True"] * 3
    assert lines[3] == "A^inf"


def test_classify_letters_around_every_marked_point():
    def eager(f, d0, x):
        # the letters as read with the free root computed up front; a walk
        # stops at a pole before it reads a letter there
        if x in (f.d1, f.d3):
            return None
        if x < d0:
            return "A"
        if x < f.d1:
            return "B"
        if x < 0.0:
            return "L"
        if x == 0.0:
            return "C"
        return "M" if x < f.d3 else "R"

    for c, d0_hex in FREE_ROOT_HEX.items():
        f, d0 = critical_frame(c), float.fromhex(d0_hex)
        grid = [y for m in (d0, f.d1, 0.0, f.d3)
                for y in (m, math.nextafter(m, -math.inf), math.nextafter(m, math.inf),
                          m - 1e-3, m + 1e-3, m - 0.5, m + 0.5)]
        for x in grid:
            assert letter(c, x) == eager(f, d0, x), (c, x)


def locator_outcomes(levels):
    """(digest, words, not realized) over every c* bit and error message."""
    digest, words, not_realized = hashlib.sha256(), 0, 0
    for level in levels:
        for word in admissible_cycles(level):
            try:
                outcome = find_superstable_parameter(word).hex()
            except ValueError as exc:
                outcome = str(exc)
                not_realized += "not realized" in outcome
            digest.update(f"{word} {outcome}\n".encode())
            words += 1
    return digest.hexdigest(), words, not_realized


def test_locator_outcomes_are_pinned_at_levels_2_to_10():
    assert locator_outcomes(range(2, 11)) == (
        LOCATOR_DIGEST, LOCATOR_WORDS, LOCATOR_NOT_REALIZED)


def test_locator_outcomes_are_pinned_at_level_11():
    assert locator_outcomes([11]) == (
        LOCATOR_DIGEST_11, LOCATOR_WORDS_11, LOCATOR_NOT_REALIZED_11)


def test_locator_outcomes_are_pinned_at_level_12():
    assert locator_outcomes([12]) == (
        LOCATOR_DIGEST_12, LOCATOR_WORDS_12, LOCATOR_NOT_REALIZED_12)


def count_newton_steps(monkeypatch, fn):
    """Steps taken while fn runs, counted in the one step formula that the
    walkers and ``newton_step`` share."""
    calls = [0]
    step = dynamics._unchecked_step

    def counted(*args):
        calls[0] += 1
        return step(*args)

    with monkeypatch.context() as m:
        m.setattr(dynamics, "_unchecked_step", counted)
        fn()
    return calls[0]


def test_locator_stops_each_walk_at_the_deciding_symbol(monkeypatch):
    located, kth_steps = [], [0]
    points = dynamics.orbit_points

    def kth_return_points(*args):
        pts = []
        kth_steps[0] += count_newton_steps(monkeypatch, lambda: pts.extend(points(*args)))
        return pts

    def locate_levels_2_to_8():
        for level in range(2, 9):
            for word in admissible_cycles(level):
                try:
                    located.append((word, find_superstable_parameter(word)))
                except ValueError:
                    pass

    with monkeypatch.context() as m:
        m.setattr(dynamics, "orbit_points", kth_return_points)
        steps = count_newton_steps(monkeypatch, locate_levels_2_to_8)
    # the order reads and the realized-prefix checks: 72,270 steps when each
    # comparison walked k+1, 2(k+1), ... points and re-walked the prefix it
    # had already coded
    assert steps - kth_steps[0] == 41_413
    # the k-th return halved to adjacent floats: 7,906 steps when it was
    # halved to tol and polished by a secant
    assert kth_steps[0] == 14_151
    # the partition's critical orbit stops at its first return: k steps
    assert len(located) == 135
    for word, c in located:
        pts = []
        steps = count_newton_steps(monkeypatch, lambda: pts.extend(critical_orbit(c)))
        assert steps == len(pts) == len(word), word


def test_orbit_symbols_steps_only_when_asked(monkeypatch):
    c = SUPERSTABLE["RLRC"]
    orbit = orbit_symbols(c, 0.0, 5)
    assert count_newton_steps(monkeypatch, lambda: next(orbit)) == 0
    assert count_newton_steps(monkeypatch, lambda: next(orbit)) == 1
    # walk_orbit runs the walker to its end: n points, n - 1 steps; an
    # absorbed or pole stop takes none
    assert count_newton_steps(monkeypatch, lambda: walk_orbit(c, 0.0, 5)) == 4
    assert count_newton_steps(monkeypatch, lambda: walk_orbit(2.0, -5.0, 10)) == 0
    pole = (1.0 / 5.0) ** 0.25
    assert list(orbit_symbols(1.0, pole, 10)) == [(pole, None)]
    assert count_newton_steps(monkeypatch, lambda: walk_orbit(1.0, pole, 10)) == 0
    assert walk_orbit(c, 0.0, 0) == ("", (), STOP_HORIZON)


def test_superstable_parameters_match_frozen_values():
    for word, c_ref in SUPERSTABLE.items():
        c = find_superstable_parameter(word)
        assert abs(c - c_ref) < 1e-9, word
        # the defining property: the k-th return hits the critical point
        x = 0.0
        for _ in range(len(word)):
            x = newton_eval(c, x)
        assert abs(x) < 1e-8


def test_superstable_rejects_inadmissible_and_empty_brackets():
    with pytest.raises(ValueError):
        find_superstable_parameter("RMRC")
    with pytest.raises(ValueError):
        find_superstable_parameter("RC", bracket=(0.5, 0.6))
    with pytest.raises(ValueError, match=r"^bad bracket \(0\.6, 0\.5\)$"):
        find_superstable_parameter("RC", bracket=(0.6, 0.5))
    # the order bracket closes where the k-th return is far from zero, and
    # c* stays inside it
    with pytest.raises(ValueError) as info:
        find_superstable_parameter("MMMMRLRRLMRC")
    assert str(info.value) == ("MMMMRLRRLMRC not realized: return residual "
                               "6.724e-01 at c=1.6485296271658783")


def test_superstable_checks_the_realized_prefix(monkeypatch):
    # no word up to level 12 reaches the locator's last check, so an orbit
    # that leaves the word there is planted
    monkeypatch.setattr(dynamics, "critical_symbols", lambda c, n: "RRRC"[:n])
    with pytest.raises(ValueError, match=r"^bracket closed on 'RRR', not 'RLR'$"):
        find_superstable_parameter("RLRC")


def test_superstable_with_explicit_bracket():
    c = find_superstable_parameter("RLRC", bracket=(1.33, 1.34))
    assert abs(c - SUPERSTABLE["RLRC"]) < 1e-9


def test_superstable_returns_for_a_tol_below_one_ulp():
    # the bisections stop at adjacent floats instead of halving forever
    for tol in (0.0, 1e-17):
        c = find_superstable_parameter("RLRC", tol=tol)
        assert abs(c - SUPERSTABLE["RLRC"]) < 1e-9


def test_symbol_streams():
    c = SUPERSTABLE["RLRC"]
    assert critical_symbols(c, 8) == "RLRCRLRC"
    # the walker behind the streams records why it stopped; absorption
    # stops it at the first A or B
    code = walk_orbit(c, 0.0, 5)
    assert code.symbols == "CRLRC" and code.stop == STOP_HORIZON
    assert len(code.points) == 5 and code.points[0] == 0.0
    code = walk_orbit(2.0, -5.0, 10)
    assert code.symbols == "A" and code.stop == STOP_ABSORBED
    pole = (1.0 / 5.0) ** 0.25
    code = walk_orbit(1.0, pole, 10)
    # the point that met the pole is kept but not coded
    assert code.symbols == "" and code.points == (pole,)
    assert code.stop == STOP_POLE
    # at c = 5^(1/5) the critical value 1/c is the right pole
    with pytest.raises(PoleError):
        critical_symbols(5.0 ** 0.2, 3)


def test_pole_nudges_try_four_parameters_then_raise():
    tried = []

    def always_pole(c):
        tried.append(c)
        raise PoleError(c)

    with pytest.raises(PoleError):
        nudge_off_poles(always_pole, 1.0)
    assert len(tried) == 4
    assert tried[0] == 1.0 and all(b > a for a, b in zip(tried, tried[1:]))
    # the first parameter that clears the pole is returned with its result
    assert nudge_off_poles(lambda c: c * 2.0, 0.5) == (0.5, 1.0)


def exhaustive_tail_period(code):
    """The tail rule read the long way: every (period, start) pair in
    increasing order, points first, then the symbols to the end."""
    syms, xs = code.symbols, code.points
    n = len(syms)
    for p in range(1, min(n // 2, TAIL_MAX_PERIOD) + 1):
        for s in range(0, n - 2 * p + 1):
            if abs(xs[s + p] - xs[s]) < TAIL_TOL * max(1.0, abs(xs[s])):
                if syms[s:n - p] == syms[s + p:]:
                    return s, p
    return None


def test_tail_period_matches_the_exhaustive_scan_on_the_default_grid(monkeypatch):
    codes = []
    word = OrbitCode.word

    def recorded(code):
        codes.append(code)
        return word(code)

    monkeypatch.setattr(OrbitCode, "word", recorded)
    entropy_curve(0.02, 1.6493, 200)
    # every walk the curve reads as a word, the ones at a grown horizon
    # included; none of these closes on C, which is read without a word
    assert len(codes) > 200 and max(len(code.symbols) for code in codes) >= 256
    found = 0
    for code in codes:
        want = exhaustive_tail_period(code)
        assert tail_period(code) == want, code.symbols
        found += want is not None
    assert found > 0


def test_a_grown_horizon_walks_on_from_the_last_point(monkeypatch):
    events = []
    word = OrbitCode.word

    def recorded_walk(c, x0, n):
        events.append((c, x0, None))
        return walk_orbit(c, x0, n)

    def recorded_word(code):
        events.append((events[-1][0], None, code))
        return word(code)

    monkeypatch.setattr(markov, "walk_orbit", recorded_walk)
    monkeypatch.setattr(OrbitCode, "word", recorded_word)
    entropy_curve(0.02, 1.6493, 200)
    read = {}
    for c, x0, code in events:
        if code is not None:
            # a code walked on holds the same bits as a walk from the start
            assert code == walk_orbit(c, newton_eval(c, 0.0), len(code.points))
            read[c] = code
        else:
            # the first walk of a parameter starts at its critical value, a
            # later one at the last point of the code read before it
            assert x0 == (read[c].points[-1] if c in read else newton_eval(c, 0.0))
    # some walks grew: more walks than parameters
    assert sum(code is None for _, _, code in events) > len(read)


def planted_code(rng):
    """A code with a planted tail over a small alphabet, so that spurious
    symbol and point repeats are common, with some near misses: a point
    that recurs just outside TAIL_TOL, or a symbol flipped in the tail."""
    p = rng.choice([1, 2, 3, 5, 8, rng.randint(1, 40)] * 4 + [rng.randint(120, 300)])
    start = rng.randint(0, 30)
    n = start + p * rng.randint(1, 2 if p > 40 else 4) + rng.randint(0, p)
    alphabet = rng.choice(["LR", "LMR", "R"])
    scale = rng.choice([1e-3, 0.5, 1.0, 7.0, 1e6])
    pool = [rng.uniform(-scale, scale) for _ in range(rng.randint(2, 6))]
    head = [(rng.choice(alphabet), rng.choice(pool)) for _ in range(start)]
    block = [(rng.choice(alphabet), rng.choice(pool)) for _ in range(p)]
    pairs = head + [block[i % p] for i in range(n - start)]
    syms = [s for s, _ in pairs]
    xs = [x for _, x in pairs]
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(n)
        kind = rng.random()
        if kind < 0.4:
            # within tol of the planted value, or just outside it
            factor = rng.choice([0.5, 0.99, 1.0, 1.01, 2.0]) * TAIL_TOL
            xs[i] += rng.choice([-1, 1]) * factor * max(1.0, abs(xs[i]))
        elif kind < 0.7:
            syms[i] = rng.choice("LMR")
        else:
            xs[i] = rng.choice(pool)
    stop = rng.choice([STOP_HORIZON, STOP_POLE])
    if stop == STOP_POLE:
        xs.append(rng.uniform(-1.0, 1.0))
    return OrbitCode("".join(syms), tuple(xs), stop)


def test_tail_period_matches_the_exhaustive_scan_on_planted_codes():
    rng = random.Random(18)
    outcomes = {True: 0, False: 0}
    for _ in range(1500):
        code = planted_code(rng)
        want = exhaustive_tail_period(code)
        assert tail_period(code) == want, code
        outcomes[want is None] += 1
    assert min(outcomes.values()) > 100
    # the points decide among starts where the symbols already repeat
    code = OrbitCode("RLRLRL", (0.1, 0.2, 0.3, 0.4, 0.3, 0.4), STOP_HORIZON)
    assert tail_period(code) == exhaustive_tail_period(code) == (2, 2)
    near = 0.3 + 1.01 * TAIL_TOL
    code = OrbitCode("RLRLRL", (0.1, 0.2, 0.3, 0.4, near, 0.4), STOP_HORIZON)
    assert tail_period(code) == exhaustive_tail_period(code) is None
