import hashlib
import math

import pytest

from frozen import (
    FREE_ROOT_HEX,
    LOCATOR_DIGEST,
    LOCATOR_DIGEST_11,
    LOCATOR_NOT_REALIZED,
    LOCATOR_NOT_REALIZED_11,
    LOCATOR_WORDS,
    LOCATOR_WORDS_11,
    SUPERSTABLE,
)
import quintic_newton.dynamics as dynamics
from quintic_newton.dynamics import (
    C0,
    PoleError,
    critical_frame,
    STOP_ABSORBED,
    STOP_HORIZON,
    STOP_POLE,
    critical_symbols,
    find_superstable_parameter,
    newton_eval,
    newton_step,
    nudge_off_poles,
    orbit_symbols,
    quintic_value,
    walk_orbit,
)
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


def test_newton_eval_raises_on_pole():
    c = 1.0
    pole = (c / 5.0) ** 0.25
    with pytest.raises(PoleError):
        newton_eval(c, pole)


def test_critical_frame_structure():
    f = critical_frame(1.0)
    assert f.d0 < f.d1 < 0.0 < f.d3
    assert abs(quintic_value(-1.0, 1.0, f.d0)) < 1e-10
    assert abs(f.d3 - 0.2 ** 0.25) < 1e-12
    assert f.d1 == -f.d3
    assert f.classify(f.d0 - 1.0) == "A"
    assert f.classify((f.d0 + f.d1) / 2) == "B"
    assert f.classify(f.d1 / 2) == "L"
    assert f.classify(f.d3 / 2) == "M"
    assert f.classify(f.d3 + 1.0) == "R"
    with pytest.raises(ValueError):
        critical_frame(-1.0)


def test_free_root_is_found_on_demand_with_the_same_bits():
    for c, d0_hex in FREE_ROOT_HEX.items():
        assert critical_frame(c).d0.hex() == d0_hex, c
    # a frame that only classifies points right of the left pole never
    # computes the free root
    f = critical_frame(1.0)
    for x in (f.d1, f.d1 / 2, 0.0, f.d3 / 2, f.d3, f.d3 + 1.0):
        f.classify(x)
    assert "d0" not in f.__dict__
    f.d0
    assert "d0" in f.__dict__


def test_classify_letters_around_every_marked_point():
    def eager(f, d0, x):
        # the letters as read with the free root computed up front
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
            assert critical_frame(c).classify(x) == eager(f, d0, x), (c, x)


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


def count_newton_steps(monkeypatch, fn):
    calls = [0]
    step = dynamics.newton_step

    def counted(*args):
        calls[0] += 1
        return step(*args)

    with monkeypatch.context() as m:
        m.setattr(dynamics, "newton_step", counted)
        fn()
    return calls[0]


def test_locator_stops_each_walk_at_the_deciding_symbol(monkeypatch):
    def locate_levels_2_to_8():
        for level in range(2, 9):
            for word in admissible_cycles(level):
                try:
                    find_superstable_parameter(word)
                except ValueError:
                    pass

    # 72,270 steps when each comparison walked k+1, 2(k+1), ... points and
    # re-walked the prefix it had already coded
    assert count_newton_steps(monkeypatch, locate_levels_2_to_8) <= 49_319


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
