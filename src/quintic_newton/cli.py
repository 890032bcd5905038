"""Command line front end.

Subcommands cover the pipeline end to end: `reduce` normalizes a trinomial
quintic, `itinerary` codes an orbit, `find-window` locates the parameter of
a cycle word, `tree` dumps the decorated word tree, `entropy-curve` and
`bifurcation` produce CSV scans, and `verify` runs the built-in consistency
suites.  Commands that write a file also write a `<out>.run.json` sidecar
recording the command line, version, and a digest of the output, with no
timestamps, so reruns are byte-identical.
"""
from __future__ import annotations

import argparse
import itertools
import math
import random
import sys

from . import __version__
from .dynamics import (
    find_superstable_parameter,
    itinerary,
    nudge_off_poles,
    orbit_points,
)
from .kneading import build_polynomial_tree, kneading_numerator
from .markov import (
    char_poly,
    entropy_curve,
    entropy_from_charpoly,
    entropy_from_kneading,
    lap_growth_estimate,
    markov_partition,
    transition_matrix,
)
from .polynomials import IntPolynomial
from .reduction import BringJerrardQuintic, conjugacy_check, reduce_quintic
from .words import (
    TAIL_PERIODIC,
    admissible_cycles,
    as_word,
    is_admissible,
    order_compare,
)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


# ----------------------------------------------------------------------
# output handling: stdout or file + run record sidecar
# ----------------------------------------------------------------------

def _emit(args: argparse.Namespace, command: str, text: str,
          seed: int | None = None) -> None:
    out = getattr(args, "out", None)
    if not out:
        sys.stdout.write(text)
        return
    import hashlib
    import json
    data = text.encode("utf-8")
    with open(out, "w", newline="") as fh:
        fh.write(text)
    record = {
        "command": command,
        "argv": list(args.raw_argv),
        "version": __version__,
        "config_sha256": args.config_digest,
        "output_sha256": hashlib.sha256(data).hexdigest(),
        "seed": seed,
    }
    with open(out + ".run.json", "w", newline="") as fh:
        fh.write(json.dumps(record, sort_keys=True, indent=2) + "\n")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_reduce(args: argparse.Namespace) -> int:
    if args.points < 0:
        raise ValueError("--points must not be negative")
    q = BringJerrardQuintic(args.a, args.b)
    r = reduce_quintic(q)
    rng = random.Random(args.seed)
    pts = [rng.uniform(-4.0, 4.0) for _ in range(args.points)]
    rep = conjugacy_check(q, r, pts)
    info = {
        "kind": r.kind,
        "c": r.c,
        "scale": r.scale,
        "regime": r.regime.value if r.regime is not None else None,
        "conjugacy_residual": rep.max_residual,
        "conjugacy_points": rep.checked,
    }
    if args.json:
        import json
        text = json.dumps(info, sort_keys=True) + "\n"
    else:
        lines = [f"kind = {info['kind']}"]
        if r.kind == "canonical":
            lines.append(f"c = {_fmt(r.c)}")
        lines.append(f"scale = {_fmt(r.scale)}")
        if info["regime"] is not None:
            lines.append(f"regime = {info['regime']}")
        lines.append(
            f"conjugacy residual = {info['conjugacy_residual']:.3e} "
            f"over {info['conjugacy_points']} points")
        text = "\n".join(lines) + "\n"
    _emit(args, "reduce", text, seed=args.seed)
    return 0


def cmd_itinerary(args: argparse.Namespace) -> int:
    word = itinerary(args.c, args.x0, args.length, tol=args.tol)
    lines = [str(word), f"tail = {word.tail}"]
    if word.tail == TAIL_PERIODIC:
        lines.append(f"period = {word.period}")
        lines.append(f"start = {word.start}")
    _emit(args, "itinerary", "\n".join(lines) + "\n")
    return 0


def cmd_find_window(args: argparse.Namespace) -> int:
    bracket = None
    if args.lo is not None or args.hi is not None:
        if args.lo is None or args.hi is None:
            raise ValueError("give both --lo and --hi or neither")
        bracket = (args.lo, args.hi)
    c = find_superstable_parameter(args.word, bracket=bracket, tol=args.tol)
    k = len(as_word(args.word).head)
    lines = [f"word = {args.word}", f"c = {_fmt(c)}",
             f"residual = {abs(orbit_points(c, 0.0, k + 1)[-1]):.3e}"]
    _emit(args, "find-window", "\n".join(lines) + "\n")
    return 0


def cmd_tree(args: argparse.Namespace) -> int:
    levels = build_polynomial_tree(args.max_level)
    if args.format == "json":
        import json
        payload = {
            "max_level": args.max_level,
            "levels": {
                str(level): [
                    {
                        "word": n.word,
                        "kind": n.kind,
                        "parent": n.parent,
                        "edge": n.edge,
                        "poly": n.poly.to_list(),
                        "reduced": n.reduced.to_list() if n.reduced else None,
                    }
                    for n in nodes
                ]
                for level, nodes in levels.items()
            },
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        lines = []
        for level, nodes in levels.items():
            lines.append(f"level {level}  ({len(nodes)} words)")
            for n in nodes:
                parent = n.parent if n.parent else "-"
                edge = n.edge if n.edge else "-"
                lines.append(
                    f"  {n.word:<12} {n.kind:<10} parent={parent:<12} "
                    f"edge={edge:<4} P={n.poly.to_list()}")
        text = "\n".join(lines) + "\n"
    _emit(args, "tree", text)
    return 0


def cmd_entropy_curve(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ValueError("--workers must be at least 1")
    points = entropy_curve(args.lo, args.hi, args.n,
                           horizon=args.horizon, workers=args.workers)
    rows = ["c,entropy,method,period"]
    for p in points:
        rows.append(f"{_fmt(p.c)},{_fmt(p.entropy)},{p.method},{p.period}")
    _emit(args, "entropy-curve", "\n".join(rows) + "\n")
    return 0


def cmd_bifurcation(args: argparse.Namespace) -> int:
    if args.n < 2:
        raise ValueError("need at least two grid points")
    if not (0.0 < args.lo < args.hi < math.inf):
        raise ValueError(f"bad parameter range ({args.lo}, {args.hi})")
    if args.transient < 0:
        raise ValueError("--transient must not be negative")
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    rows = ["c,x"]
    skip = args.transient + 1
    for i in range(args.n):
        c = args.lo + (args.hi - args.lo) * i / (args.n - 1)
        c, xs = nudge_off_poles(
            lambda c: orbit_points(c, 0.0, skip + args.samples)[skip:], c)
        for x in xs:
            rows.append(f"{_fmt(c)},{_fmt(x)}")
    _emit(args, "bifurcation", "\n".join(rows) + "\n")
    return 0


# ----------------------------------------------------------------------
# verify suites
# ----------------------------------------------------------------------

def _suite_conjugacy(seed: int) -> list[tuple[str, bool, str]]:
    rng = random.Random(seed)
    worst = 0.0
    poles = 0
    for _ in range(100):
        a, b = rng.uniform(-10, 10), rng.uniform(-10, 10)
        q = BringJerrardQuintic(a, b)
        rep = conjugacy_check(q, reduce_quintic(q),
                              [rng.uniform(-5, 5) for _ in range(10)])
        worst = max(worst, rep.max_residual)
        poles += len(rep.pole_points)
    ok = worst < 1e-9
    return [("conjugacy", ok,
             f"max residual {worst:.3e} over 100 quintics x 10 points"
             + (f", {poles} pole points skipped" if poles else ""))]


def _suite_admissibility() -> list[tuple[str, bool, str]]:
    checks = []
    counts = {2: 1, 3: 2, 4: 4, 5: 8}
    for k, want in counts.items():
        brute = []
        for inner in itertools.product("ABLCMR", repeat=k - 1):
            w = "".join(inner) + "C"
            if is_admissible(w):
                brute.append(w)
        got = admissible_cycles(k)
        ok = len(got) == want and sorted(got) == sorted(brute)
        checks.append((f"cycle count level {k}", ok,
                       f"{len(got)} admissible (brute force {len(brute)})"))
    accept = ["RC", "MRC", "RLRC", "MMRC", "RRRC"]
    reject = ["LRC", "MC", "RMC", "RRLC", "CC", "ARC"]
    ok_a = all(is_admissible(w) for w in accept)
    ok_r = not any(is_admissible(w) for w in reject)
    checks.append(("accept fixtures", ok_a, " ".join(accept)))
    checks.append(("reject fixtures", ok_r, " ".join(reject)))
    # words ascend as the located parameters descend
    ordered = ["MRC", "RLRC", "RC", "RRC"]
    ok_o = all(order_compare(ordered[i], ordered[i + 1]) < 0
               for i in range(len(ordered) - 1))
    checks.append(("order chain", ok_o, " < ".join(ordered)))
    return checks


def _suite_monotonicity() -> list[tuple[str, bool, str]]:
    pts = entropy_curve(0.1, 1.64, 60)
    drops = [pts[i + 1].entropy - pts[i].entropy
             for i in range(len(pts) - 1)]
    worst = min(drops)
    ok = worst > -1e-3
    return [("entropy monotone in c", ok,
             f"60 points on [0.1, 1.64], worst step {worst:.2e}")]


def _suite_entropy_routes() -> list[tuple[str, bool, str]]:
    c = find_superstable_parameter("RLRC")
    rows = transition_matrix(markov_partition(c))
    r_char = entropy_from_charpoly(char_poly(rows))
    r_knead = entropy_from_kneading("RLRC")
    r_lap = lap_growth_estimate(rows)
    d1 = abs(r_char.t_star - r_knead.t_star)
    d2 = abs(r_lap.h - r_knead.h) / r_knead.h
    return [
        ("charpoly vs kneading", d1 < 1e-10, f"|dt*| = {d1:.3e}"),
        ("lap growth vs kneading", d2 < 0.02, f"relative error {d2:.3e}"),
    ]


def _suite_markov_rlrc() -> list[tuple[str, bool, str]]:
    target = ((1, 0, 0, 0, 0, 0, 0),
              (0, 0, 0, 0, 0, 0, 1),
              (0, 0, 0, 0, 0, 1, 0),
              (0, 0, 0, 0, 0, 1, 1),
              (1, 1, 0, 0, 0, 0, 0),
              (0, 0, 1, 0, 0, 0, 0),
              (0, 0, 0, 1, 1, 1, 1))
    c = find_superstable_parameter("RLRC")
    rows = transition_matrix(markov_partition(c))
    ok_m = rows == target
    cp = char_poly(rows)
    ok_p = cp == kneading_numerator("RLRC") * IntPolynomial.one_minus_t_power(1)
    return [
        ("transition matrix", ok_m, f"{len(rows)}x{len(rows)} matches the target"),
        ("char poly identity", ok_p, f"det(I-tM) = {cp.to_list()}"),
    ]


SUITES = {
    "conjugacy": lambda args: _suite_conjugacy(args.seed),
    "admissibility": lambda args: _suite_admissibility(),
    "monotonicity": lambda args: _suite_monotonicity(),
    "entropy-routes": lambda args: _suite_entropy_routes(),
    "markov-rlrc": lambda args: _suite_markov_rlrc(),
}


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    lines = []
    for name in names:
        for check, ok, detail in SUITES[name](args):
            tag = "ok  " if ok else "FAIL"
            lines.append(f"{tag} {name}: {check} — {detail}")
            failures += 0 if ok else 1
    lines.append(f"{'ok  ' if failures == 0 else 'FAIL'} "
                 f"{len(lines)} checks, {failures} failures")
    _emit(args, "verify", "\n".join(lines) + "\n",
          seed=args.seed if "conjugacy" in names else None)
    return 0 if failures == 0 else 1


# ----------------------------------------------------------------------
# parser plumbing
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quintic-newton",
        description="Newton-map dynamics for quintics x^5 + a*x + b")
    ap.add_argument("--config", help="JSON file of option defaults; "
                                     "explicit flags win")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="normalize x^5 + a*x + b")
    p.add_argument("a", type=float)
    p.add_argument("b", type=float)
    p.add_argument("--points", type=int, default=8,
                   help="conjugacy spot-check sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("itinerary", help="symbolic coding of an orbit")
    p.add_argument("c", type=float)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--length", type=int, default=40)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_itinerary)

    p = sub.add_parser("find-window",
                       help="parameter where the critical orbit realizes a cycle word")
    p.add_argument("word")
    p.add_argument("--lo", type=float)
    p.add_argument("--hi", type=float)
    p.add_argument("--tol", type=float, default=1e-13)
    p.add_argument("--out")
    p.set_defaults(func=cmd_find_window)

    p = sub.add_parser("tree", help="admissible word tree with polynomials")
    p.add_argument("--max-level", type=int, default=6)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("entropy-curve", help="entropy along a parameter grid")
    p.add_argument("--lo", type=float, default=0.02)
    p.add_argument("--hi", type=float, default=1.6493)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--horizon", type=int, default=64)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_entropy_curve)

    p = sub.add_parser("bifurcation", help="attractor samples of the critical orbit")
    p.add_argument("--lo", type=float, default=0.02)
    p.add_argument("--hi", type=float, default=1.6493)
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--transient", type=int, default=200)
    p.add_argument("--samples", type=int, default=40)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bifurcation)

    p = sub.add_parser("verify", help="built-in consistency suites")
    p.add_argument("--suite", default="all", choices=(*SUITES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)
    return ap


def _config_defaults(path: str, parser: argparse.ArgumentParser) -> str:
    """Make the --config file's values the defaults of a subcommand's
    options, so that flags given on the command line win; returns the
    file's sha256.

    Keys that name no option of the subcommand are skipped; each value goes
    through its option's type and choices, as it would on the command
    line."""
    import hashlib
    import json
    with open(path, "rb") as fh:
        raw = fh.read()
    cfg = json.loads(raw)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    options = {flag: action for action in parser._actions
               for flag in action.option_strings if action.dest != "help"}
    defaults = {}
    for key, value in cfg.items():
        action = options.get("--" + key.replace("_", "-"))
        if action is None:
            continue  # not an option of this subcommand
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise ValueError(f"config {key}: expected true or false, "
                                 f"got {value!r}")
        else:
            try:
                value = (action.type or str)(str(value))
            except ValueError:
                raise ValueError(f"config {key}: invalid "
                                 f"{action.type.__name__} value {value!r}") from None
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"config {key}: invalid choice {value!r} "
                                 f"(choose from {', '.join(action.choices)})")
        defaults[action.dest] = value
    parser.set_defaults(**defaults)
    return hashlib.sha256(raw).hexdigest()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        digest = None
        if args.config:
            sub = next(a for a in ap._actions
                       if isinstance(a, argparse._SubParsersAction))
            digest = _config_defaults(args.config, sub.choices[args.command])
            args = ap.parse_args(argv)
        args.raw_argv = argv
        args.config_digest = digest
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
