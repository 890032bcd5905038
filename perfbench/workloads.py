"""The three benchmark workloads and the gates that check their outputs.

Each workload makes its inputs from a seed, runs one complete pass through
the package, checks the output, and returns a ``PassResult``.  A gate
failure is recorded in ``problems``; the caller turns any problem into a
failed run, so a faster but wrong program cannot post a gain.

Importing this module puts the checkout's ``src/`` first on the path and
refuses to go on if ``quintic_newton`` resolves anywhere else, so a stale
or editable install is never measured.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import quintic_newton  # noqa: E402
from quintic_newton import cli  # noqa: E402

PACKAGE_FILE = Path(quintic_newton.__file__).resolve()
if SRC.resolve() not in PACKAGE_FILE.parents:
    raise ImportError(f"quintic_newton imported from {PACKAGE_FILE}, "
                      f"not from the checkout's {SRC}")

# The default entropy-curve grid and the digest of its CSV on stdout.
CURVE_LO, CURVE_HI, CURVE_HORIZON = 0.02, 1.6493, 64
CURVE_SHA256 = "cecb79ff22ec9e231d8feb7631bc38fe8b612f88d809e61e6db25638cca3fcd1"
CURVE_MAX_DROP = 1e-3
ENTROPY_MAX = math.log(1.0 + math.sqrt(2.0))
CURVE_METHODS = ("kneading", "kneading-series")

# `tree --max-level 10 --format json` on stdout.
TREE_SHA256 = "751e3fdca3016b3720399a6f034d2a917d7b3ad6bd94b6ccaa22f5179300d284"

# Admissible cycle words per level; levels 2-5 are the paper's 1, 2, 4, 8,
# and the rest match the brute-force enumeration.
CYCLE_COUNTS = {2: 1, 3: 2, 4: 4, 5: 8, 6: 16, 7: 34, 8: 72, 9: 154, 10: 336}
DT_GATE = 1e-10

FAIL_REASONS = ("locate_not_realized", "locate_bracket_closed",
                "locate_no_parameter", "partition", "snap", "crosscheck",
                "other")


@dataclass(frozen=True)
class Size:
    curve_points: int
    tree_level: int
    window_level: int


FULL = Size(curve_points=200, tree_level=10, window_level=10)
TOY = Size(curve_points=12, tree_level=5, window_level=6)


@dataclass
class PassResult:
    attempted: int
    failed: int
    problems: list[str]
    detail: dict = field(default_factory=dict)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run the command line in-process and capture what it writes to stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# curve: `entropy-curve` on the default grid, shifted by the seed
# ----------------------------------------------------------------------

def curve_grid(seed: int, pass_no: int = 0) -> tuple[float, float]:
    """Grid ends shifted down by the same seeded fraction of one step of
    the default 200-point grid, drawn afresh for every pass of a run.

    Downwards, because the default upper end already sits just below the
    tangency parameter C0.  Pass 0 of seed 0 is the exact default grid.
    The shift moves grid points on and off windows whose orbits need the
    long series horizon, which changes a pass's work by up to a fifth, so
    a run samples many grids rather than timing one of them repeatedly.
    """
    step = (CURVE_HI - CURVE_LO) / (FULL.curve_points - 1)
    if seed == 0 and pass_no == 0:
        frac = 0.0
    else:
        frac = random.Random(f"{seed}/{pass_no}").random()
    return CURVE_LO - frac * step, CURVE_HI - frac * step


def check_curve(rc: int, text: str, lo: float, hi: float, n: int,
                sha256: str | None) -> list[str]:
    if rc != 0:
        return [f"entropy-curve exited {rc}"]
    if sha256 is not None and _digest(text) != sha256:
        return [f"curve CSV digest {_digest(text)[:12]} != {sha256[:12]}"]
    lines = text.splitlines()
    if not lines or lines[0] != "c,entropy,method,period":
        return ["curve CSV header missing"]
    if len(lines) != n + 1:
        return [f"curve has {len(lines) - 1} rows, expected {n}"]
    problems = []
    hs = []
    for i, line in enumerate(lines[1:]):
        try:
            c_s, h_s, method, period = line.split(",")
            c, h, period = float(c_s), float(h_s), int(period)
        except ValueError:
            problems.append(f"row {i}: cannot parse {line!r}")
            continue
        c_grid = lo + (hi - lo) * i / (n - 1)
        if abs(c - c_grid) > 1e-9 * c_grid:
            problems.append(f"row {i}: c={c!r} is off its grid value {c_grid!r}")
        if not 0.0 <= h <= ENTROPY_MAX:
            problems.append(f"row {i}: entropy {h!r} outside [0, log(1+sqrt 2)]")
        if method not in CURVE_METHODS or period < 0:
            problems.append(f"row {i}: bad method/period {method},{period}")
        hs.append(h)
    worst = min((b - a for a, b in zip(hs, hs[1:])), default=0.0)
    if worst <= -CURVE_MAX_DROP:
        problems.append(f"entropy drops by {-worst:.3e} between grid points")
    return problems


def curve_pass(seed: int, size: Size, pass_no: int = 0) -> PassResult:
    n = size.curve_points
    lo, hi = curve_grid(seed, pass_no)
    rc, text = run_cli(["entropy-curve", "--workers", "1",
                        "--lo", repr(lo), "--hi", repr(hi), "--n", str(n),
                        "--horizon", str(CURVE_HORIZON)])
    sha = CURVE_SHA256 if (seed, pass_no) == (0, 0) and size == FULL else None
    return PassResult(n, n if rc else 0, check_curve(rc, text, lo, hi, n, sha),
                      {"output_bytes": len(text.encode("utf-8"))})


# ----------------------------------------------------------------------
# tree: `tree --format json`, exhaustive, so the seed changes nothing
# ----------------------------------------------------------------------

def _times_one_minus_t(p: list[int]) -> list[int]:
    out = p + [0]
    for m in range(1, len(out)):
        out[m] -= p[m - 1]
    while out and out[-1] == 0:
        out.pop()
    return out


def check_tree(rc: int, text: str, max_level: int,
               sha256: str | None) -> tuple[list[str], int]:
    """Problems found, and the number of words the tree holds."""
    if rc != 0:
        return [f"tree exited {rc}"], 0
    try:
        levels = json.loads(text)["levels"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return [f"tree JSON unreadable: {exc!r}"], 0
    problems = []
    if sha256 is not None and _digest(text) != sha256:
        problems.append(f"tree JSON digest {_digest(text)[:12]} != {sha256[:12]}")
    if sorted(map(int, levels)) != list(range(2, max_level + 1)):
        problems.append(f"tree levels {sorted(levels)} != 2..{max_level}")
    words = 0
    for level, nodes in levels.items():
        words += len(nodes)
        cycles = sum(1 for node in nodes if node["kind"] == "cycle")
        if cycles != CYCLE_COUNTS.get(int(level)):
            problems.append(f"level {level}: {cycles} cycle words, "
                            f"expected {CYCLE_COUNTS.get(int(level))}")
        for node in nodes:
            if node["reduced"] is not None and \
                    _times_one_minus_t(node["reduced"]) != node["poly"]:
                problems.append(f"{node['word']}: reduced * (1 - t) != poly")
    return problems, words


def tree_pass(seed: int, size: Size, pass_no: int = 0) -> PassResult:
    level = size.tree_level
    rc, text = run_cli(["tree", "--max-level", str(level), "--format", "json"])
    sha = TREE_SHA256 if size == FULL else None
    problems, words = check_tree(rc, text, level, sha)
    return PassResult(max(words, 1), 0 if words else 1, problems,
                      {"output_bytes": len(text.encode("utf-8"))})


# ----------------------------------------------------------------------
# windows: locate, partition and cross-check every admissible cycle word
# ----------------------------------------------------------------------

def _locate_reason(exc: Exception) -> str:
    msg = str(exc)
    if "not realized" in msg:
        return "locate_not_realized"
    if msg.startswith("bracket closed on"):
        return "locate_bracket_closed"
    if msg.startswith("no parameter"):
        return "locate_no_parameter"
    return "other"


def windows_pass(seed: int, size: Size, pass_no: int = 0) -> PassResult:
    """Every admissible cycle word up to the size's level, all kept.

    Functions are looked up on the package at each call, which is where
    the traced run interposes on them.  A word fails when a stage raises
    or the charpoly and kneading roots disagree by more than DT_GATE; a
    disagreement is also a gate failure, because it is a wrong answer.
    """
    qn = quintic_newton
    problems = []
    words = []
    for k in range(2, size.window_level + 1):
        level_words = qn.admissible_cycles(k)
        if len(level_words) != CYCLE_COUNTS[k]:
            problems.append(f"level {k}: {len(level_words)} cycle words, "
                            f"expected {CYCLE_COUNTS[k]}")
        words.extend(level_words)
    reasons = dict.fromkeys(FAIL_REASONS, 0)
    max_dt = 0.0
    for word in words:
        try:
            c = qn.find_superstable_parameter(word)
        except (ValueError, ArithmeticError) as exc:
            reasons[_locate_reason(exc)] += 1
            continue
        try:
            part = qn.markov_partition(c)
        except (ValueError, ArithmeticError):
            reasons["partition"] += 1
            continue
        try:
            tm = qn.transition_matrix(part)
        except (ValueError, ArithmeticError):
            reasons["snap"] += 1
            continue
        try:
            t_char = qn.entropy_from_charpoly(qn.char_poly(tm)).t_star
            t_knead = qn.entropy_from_kneading(word).t_star
        except (ValueError, ArithmeticError):
            reasons["other"] += 1
            continue
        dt = abs(t_char - t_knead)
        max_dt = max(max_dt, dt)
        if not dt <= DT_GATE:
            reasons["crosscheck"] += 1
            problems.append(f"{word}: |dt*| = {dt:.3e} > {DT_GATE:g}")
    return PassResult(len(words), sum(reasons.values()), problems,
                      {"fail": reasons, "max_dt": max_dt})


WORKLOADS = {"curve": curve_pass, "tree": tree_pass, "windows": windows_pass}
