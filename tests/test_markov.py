import functools
import hashlib
import math
import random
import sys
from fractions import Fraction

import pytest

from frozen import RLRC_MATRIX, TRIBONACCI, WINDOW_MATRIX_DIGEST
from rational import same_rational
from quintic_newton.dynamics import (
    C0,
    POLE_NUDGE,
    STOP_POLE,
    OrbitCode,
    critical_frame,
    find_superstable_parameter,
    newton_eval,
)
from quintic_newton.kneading import determinant_polynomial, kneading_determinant
import quintic_newton.markov as markov
from quintic_newton.markov import (
    C_FLOOR,
    char_poly,
    critical_orbit,
    entropy_curve,
    entropy_from_charpoly,
    entropy_from_kneading,
    entropy_point,
    kneading_numerator,
    lap_growth_estimate,
    markov_partition,
    transition_matrix,
)
from quintic_newton.polynomials import IntPolynomial
from quintic_newton.words import (
    SymbolWord,
    TAIL_PERIODIC,
    admissible_cycles,
    order_compare,
)


@pytest.fixture(scope="module")
def c_rlrc():
    return find_superstable_parameter("RLRC")


def test_critical_orbit_closes_at_cycle_parameters(c_rlrc):
    orbit = critical_orbit(c_rlrc)
    assert len(orbit) == 4
    assert orbit[0] == 0.0
    with pytest.raises(ValueError):
        critical_orbit(1.55)


def test_partition_structure(c_rlrc):
    part = markov_partition(c_rlrc)
    frame = critical_frame(c_rlrc)
    ends = [x for interval in part.intervals for x in interval]
    assert ends == sorted(ends)
    assert all(lo < hi for lo, hi in part.intervals)
    # the 7 cut points are d0, d1, d3 and the 4 orbit points
    assert len(set(ends) - {-math.inf, math.inf}) == 7
    assert len(part.intervals) == 7
    assert part.intervals[0][0] == -math.inf
    assert part.intervals[-1][1] == math.inf
    # the intervals abut except across the transient gap between the free
    # root and the left pole, which is dropped
    gaps = [(hi, lo) for (_, hi), (lo, _) in zip(part.intervals, part.intervals[1:])
            if hi != lo]
    assert gaps == [(frame.d0, frame.d1)]


@pytest.mark.parametrize("bad", ["near d1", "repeat", "transient gap"])
def test_partition_refuses_colliding_or_transient_cuts(bad, c_rlrc, monkeypatch):
    frame = critical_frame(c_rlrc)
    orbit = {
        "near d1": [0.0, frame.d1 + 1e-10, 0.5],
        "repeat": [0.0, 0.3, 0.3],
        "transient gap": [0.0, 0.5 * (frame.d0 + frame.d1), 0.5],
    }[bad]
    monkeypatch.setattr(markov, "critical_orbit", lambda c: orbit)
    with pytest.raises(ValueError):
        markov_partition(c_rlrc)


def test_rlrc_transition_matrix_is_exact(c_rlrc):
    assert transition_matrix(markov_partition(c_rlrc)) == RLRC_MATRIX


def test_interval_images_align_with_boundaries():
    # the recorded image of each end is the one-sided limit of N there, as
    # a Richardson step from inside the interval estimates it; MMMMRC has an
    # orbit point close to a pole, the hardest alignment case
    for word in ("RLRC", "MRC", "MMMMRC"):
        c = find_superstable_parameter(word)
        part = markov_partition(c)
        leftmost, rightmost = part.intervals[0][1], part.intervals[-1][0]
        inner = 1e-9
        for (lo, hi), image in zip(part.intervals, part.images):
            for x, sign, exact in ((lo, 1.0, image[0]), (hi, -1.0, image[1])):
                if math.isinf(x):
                    assert exact == x
                    continue
                v = 2.0 * newton_eval(c, x + sign * inner) - newton_eval(
                    c, x + sign * 2.0 * inner)
                if exact == math.inf:
                    assert v > rightmost, (word, x)
                elif exact == -math.inf:
                    assert v < leftmost, (word, x)
                else:
                    assert abs(v - exact) < 1e-8, (word, x)


def test_words_near_c0_cross_check_with_kneading():
    # at C0 - c = 1.3e-5 and 3.3e-6 the last orbit point lies 1.5e-6 and
    # 3.8e-7 right of the pole d3, where N is so steep that a Richardson
    # limit of N there misses its image 0 by 6.6e-7 and 1.1e-5
    for word in ("MMMMMMMRC", "MMMMMMMMRC"):
        c = find_superstable_parameter(word)
        cp = char_poly(transition_matrix(markov_partition(c)))
        dt = entropy_from_charpoly(cp).t_star - entropy_from_kneading(word).t_star
        assert abs(dt) <= 1e-10, word


def test_char_poly_on_known_matrix():
    fib = ((1, 1), (1, 0))
    assert char_poly(fib).to_list() == [1, -1, -1]


def dense_mat_mul(A, B):
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def dense_char_poly(M):
    """det(I - t*M) from dense matrix powers and Newton's identities over
    Fraction: the reference the sparse integer char_poly must match."""
    M = [list(r) for r in M]
    n = len(M)
    traces, P = [], M
    for _ in range(n):
        traces.append(sum(P[i][i] for i in range(n)))
        P = dense_mat_mul(P, M)
    e = [Fraction(1)]
    for j in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, j + 1):
            acc += (-1) ** (i - 1) * e[j - i] * traces[i - 1]
        e.append(acc / j)
    assert all(ej.denominator == 1 for ej in e)
    return IntPolynomial([(-1) ** j * int(ej) for j, ej in enumerate(e)])


@functools.cache
def located_matrices(max_level):
    out = []
    for level in range(2, max_level + 1):
        for word in admissible_cycles(level):
            try:
                c = find_superstable_parameter(word)
                out.append((word, c, transition_matrix(markov_partition(c))))
            except ValueError:
                continue
    return out


def test_char_poly_matches_the_dense_reference_on_every_window_matrix():
    mats = located_matrices(8)
    assert len(mats) == 135
    digest = hashlib.sha256()
    for word, _, m in mats:
        assert char_poly(m) == dense_char_poly(m), word
        digest.update(f"{word} {m}\n".encode())
    assert digest.hexdigest() == WINDOW_MATRIX_DIGEST


def companion(coeffs):
    """The companion matrix of x^n + a_(n-1) x^(n-1) + ... + a_0, given
    [a_(n-1), ..., a_0]: its det(I - t*C) is 1 + a_(n-1) t + ... + a_0 t^n."""
    n = len(coeffs)
    low = coeffs[::-1]
    return tuple(tuple((j == i - 1) - (j == n - 1) * low[i] for j in range(n))
                 for i in range(n))


def test_char_poly_matches_the_dense_reference_on_random_matrices():
    # every size from the empty matrix to 16, odd and even, so both halves
    # of the split at h = ceil(n/2) are read
    rng = random.Random(0)
    for n in range(0, 17):
        for entries in ((0, 1), tuple(range(-3, 4))):
            for _ in range(3):
                m = tuple(tuple(rng.choice(entries) for _ in range(n))
                          for _ in range(n))
                assert char_poly(m) == dense_char_poly(m), m
        coeffs = [rng.randint(-3, 3) for _ in range(n)]
        m = companion(coeffs)
        assert char_poly(m) == dense_char_poly(m) == IntPolynomial([1] + coeffs), n


def test_char_poly_on_one_by_one_and_zero_matrices():
    for v in (-2, 0, 1, 5):
        assert char_poly(((v,),)).to_list() == dense_char_poly(((v,),)).to_list()
    assert char_poly(((7,),)).to_list() == [1, -7]
    for n in (1, 2, 5):
        zero = tuple((0,) * n for _ in range(n))
        assert char_poly(zero).to_list() == [1]


def test_a_nilpotent_matrix_has_no_band_root_and_zero_entropy():
    p = char_poly(((0, 1), (0, 0)))
    assert p.to_list() == [1]
    res = entropy_from_charpoly(p)
    assert (res.t_star, res.h) == (1.0, 0.0)
    # the lap route runs out of paths and agrees, the empty matrix too, and
    # the 20x20 shift, whose 19th power is the last nonzero one
    shift = tuple(tuple(int(j == i + 1) for j in range(20)) for i in range(20))
    for m in (((0, 1), (0, 0)), (), shift):
        lap = lap_growth_estimate(m)
        assert (lap.t_star, lap.h, lap.method) == (1.0, 0.0, "lap-growth")


def test_lap_growth_matches_dense_path_totals():
    for word, _, m in located_matrices(5):
        P, totals = [list(r) for r in m], []
        for _ in range(20):
            totals.append(sum(map(sum, P)))
            P = dense_mat_mul(P, m)
        ratio = totals[-1] / totals[-2]
        assert lap_growth_estimate(m).t_star == 1.0 / ratio, word


def test_char_poly_identity_with_kneading(c_rlrc):
    cp = char_poly(transition_matrix(markov_partition(c_rlrc)))
    one_minus_t = IntPolynomial([1, -1])
    d = IntPolynomial([1, 0, -2, -2, -1])
    assert cp == d * one_minus_t * one_minus_t
    # and d itself is the cycle polynomial divided by (1 - t)
    assert determinant_polynomial("RLRC") == d * one_minus_t


def test_three_entropy_routes_agree(c_rlrc):
    rows = transition_matrix(markov_partition(c_rlrc))
    r_char = entropy_from_charpoly(char_poly(rows))
    r_knead = entropy_from_kneading("RLRC")
    r_lap = lap_growth_estimate(rows)
    assert abs(r_char.t_star - r_knead.t_star) < 1e-10
    assert abs(1.0 / r_knead.t_star - TRIBONACCI) < 1e-10
    assert abs(r_lap.h - r_knead.h) / r_knead.h < 0.02
    assert r_char.method == "charpoly"
    assert r_lap.method == "lap-growth"


def test_m_infinity_extreme():
    w = SymbolWord("M", TAIL_PERIODIC, 0)
    res = entropy_from_kneading(w)
    assert abs(res.t_star - (math.sqrt(2.0) - 1.0)) < 1e-10
    assert abs(res.h - math.log(1.0 + math.sqrt(2.0))) < 1e-10


def test_window_interiors_share_the_plateau_root():
    rm = entropy_from_kneading(SymbolWord("RM", TAIL_PERIODIC, 0))
    rl = entropy_from_kneading(SymbolWord("RL", TAIL_PERIODIC, 0))
    assert abs(rm.t_star - rl.t_star) < 1e-12
    assert abs(1.0 / rm.t_star - TRIBONACCI) < 1e-10


def test_entropy_point_methods(c_rlrc):
    pt = entropy_point(c_rlrc)
    assert pt.method == "kneading" and pt.period == 4
    assert abs(1.0 / pt.t_star - TRIBONACCI) < 1e-8
    # inside the period-3 window the plateau is the golden ratio
    pt = entropy_point(1.0)
    assert abs(1.0 / pt.t_star - (1.0 + math.sqrt(5.0)) / 2.0) < 1e-8
    # orbits that stay unresolved fall back to the truncated series
    pt = entropy_point(1.55, horizon=48)
    assert pt.method in ("kneading", "kneading-series")
    assert 0.7 < pt.entropy < 0.8


def test_entropy_point_nudges_off_the_pole_at_the_fifth_root_of_five():
    # at c = 5^(1/5) the critical value 1/c is the right pole (c/5)^(1/4);
    # the nudges grow 20-fold, and only the third, 4e-10, moves 1/c out of
    # the 1e-10 pole window, still far inside the curve's 1e-9 grid gate
    c = 5 ** 0.2
    assert abs(1.0 / c - critical_frame(c).d3) < 1e-15
    pt = entropy_point(c)
    assert pt.c == c * (1 + 1e-12) * (1 + 2e-11) * (1 + 4e-10)
    assert 4e-10 < (pt.c - c) / c < 5e-10
    assert pt.method == "kneading-series"
    assert abs(pt.t_star - 0.5) < 1e-12
    assert abs(pt.entropy - math.log(2.0)) < 1e-12


def test_entropy_point_nudges_off_a_pole_met_late_in_the_walk(monkeypatch):
    # a pole met after 30 points with no C before them moves c like one met
    # at the first step: a series cut short at a pole has no tail bound
    walks = []

    def walk_orbit(c, x0, n):
        code = real_walk(c, x0, n)
        walks.append(c)
        if len(walks) == 1:
            code = OrbitCode(code.symbols[:30], code.points[:31], STOP_POLE)
        return code

    real_walk = markov.walk_orbit
    monkeypatch.setattr(markov, "walk_orbit", walk_orbit)
    pt = entropy_point(0.7)
    assert walks[:2] == [0.7, 0.7 * (1 + POLE_NUDGE)]
    assert pt.c == 0.7 * (1 + POLE_NUDGE)
    assert pt.method == "kneading" and pt.period == 28


def test_entropy_point_keeps_a_small_c():
    # the first step from 0 has denominator -c, far from both poles; an
    # absolute pole test would read it as a pole and nudge c
    pt = entropy_point(1e-10)
    assert pt.c == 1e-10
    assert pt.method == "kneading"


def test_entropy_curve_grid_and_monotonicity():
    pts = entropy_curve(0.3, 1.6, 40)
    assert len(pts) == 40
    assert pts[0].c == 0.3 and pts[-1].c == 1.6
    for a, b in zip(pts, pts[1:]):
        assert b.entropy >= a.entropy - 1e-3
    with pytest.raises(ValueError):
        entropy_curve(1.0, 0.5, 10)
    with pytest.raises(ValueError):
        entropy_curve(0.5, 1.0, 1)


def test_kneading_numerator_accepts_both_forms():
    assert kneading_numerator("RLRC") == determinant_polynomial("RLRC")
    w = SymbolWord("RLRC", TAIL_PERIODIC, 0)
    assert kneading_numerator(w) == kneading_numerator("RLRC")
    # the oracle's value, in the reduced form of the frozen RL plateau
    assert same_rational(kneading_determinant(w),
                         (IntPolynomial([1, 0, -2, -2, -1]), (1, 4)))


def test_entropy_point_rejects_parameters_from_c0_on():
    # the coding would read the orbit falling into the root in M as (M)^
    for c in (2.0, C0):
        with pytest.raises(ValueError, match="is not below C0"):
            entropy_point(c)


def test_parameters_below_the_overflow_floor_are_refused_by_name():
    # the Newton step from the critical value 1/c forms 4/c, so the floor
    # is 4/max; one ulp below it that product overflows
    assert C_FLOOR == 4.0 / sys.float_info.max
    below = math.nextafter(C_FLOOR, 0.0)
    assert 4.0 * (1.0 / below) == math.inf
    for c in (below, 1e-320, 0.0):
        with pytest.raises(ValueError, match="is below C_FLOOR = .*overflows"):
            entropy_point(c)
    with pytest.raises(ValueError, match="c = 1e-320 is below C_FLOOR"):
        entropy_curve(1e-320, 1e-319, 2)
    assert entropy_point(C_FLOOR).method == "kneading"


def test_located_parameters_follow_the_word_order():
    # words ascend in the signed order as c* descends, strictly
    ordered = sorted(located_matrices(8),
                     key=functools.cmp_to_key(lambda a, b: order_compare(a[0], b[0])))
    cs = [c for _, c, _ in ordered]
    bad = [(u[0], v[0]) for u, v, a, b in zip(ordered, ordered[1:], cs, cs[1:])
           if not a > b]
    assert not bad, bad


def test_markov_route_entropy_is_monotone_in_the_parameter():
    # the paper's theorem by the transition matrices alone, no kneading:
    # the charpoly t* never increases with c*
    pts = sorted((c, entropy_from_charpoly(char_poly(m)).t_star, word)
                 for word, c, m in located_matrices(8))
    steps = list(zip(pts, pts[1:]))
    bad = [(u[2], v[2], u[1], v[1]) for u, v in steps if v[1] > u[1]]
    assert not bad, bad
    # words inside one renormalization window, as RC, RLRC and RLRMRC are,
    # share t* bit for bit
    assert sum(u[1] == v[1] for u, v in steps) == 9


def test_markov_and_kneading_routes_agree_exactly_on_every_window():
    # det(I - tM) = (1 - t) * S(t) for every located cycle word at levels 2-8
    one_minus_t = IntPolynomial.one_minus_t_power(1)
    for word, _, m in located_matrices(8):
        cp, kn = char_poly(m), kneading_numerator(word)
        assert cp == one_minus_t * kn, f"{word}: char_poly {cp}, (1 - t) * {kn}"
