import hashlib
import json
import math

from frozen import LEVELS, SUPERSTABLE, TREE_DIGEST, VERIFY_DIGEST
from quintic_newton import cli
from quintic_newton.cli import main
from quintic_newton.dynamics import PoleError


def test_reduce_reports_canonical_form(capsys):
    assert main(["reduce", "2", "--", "-1"]) == 0
    out = capsys.readouterr().out
    assert "kind = canonical" in out
    assert "c = -2" in out
    assert "regime = negative-c" in out


def test_reduce_json_output(capsys):
    assert main(["reduce", "--json", "0", "1"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["kind"] == "canonical"
    assert info["c"] == 0.0
    assert info["conjugacy_residual"] < 1e-9


def test_itinerary_command(capsys):
    assert main(["itinerary", str(SUPERSTABLE["RLRC"])]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "(CRLR)^"
    assert "period = 4" in out


def test_find_window_command(capsys):
    assert main(["find-window", "RC"]) == 0
    out = capsys.readouterr().out
    c = float([l for l in out.splitlines() if l.startswith("c =")][0][4:])
    assert abs(c - SUPERSTABLE["RC"]) < 1e-9


def test_find_window_reads_every_form_of_the_word(capsys):
    # the residual is the k-th return, k read off the word, not its spelling
    outputs = []
    for word in ("RLRC", "(RLRC)^"):
        assert main(["find-window", word]) == 0
        outputs.append(capsys.readouterr().out.splitlines()[1:])
    assert outputs[0] == outputs[1]
    assert float(outputs[0][1].split("=")[1]) < 1e-12


def test_find_window_rejects_bad_word(capsys):
    assert main(["find-window", "RMRC"]) == 2
    assert "error:" in capsys.readouterr().err


def test_tree_json(capsys):
    assert main(["tree", "--max-level", "4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    for level in (2, 3, 4):
        nodes = payload["levels"][str(level)]
        cycles = [n for n in nodes if n["kind"] == "cycle"]
        assert len(cycles) == LEVELS[level]
    roots = [n for n in payload["levels"]["2"] if n["parent"] is None]
    assert [n["word"] for n in roots] == ["RC"]


def test_tree_json_digest_at_level_10(capsys):
    assert main(["tree", "--max-level", "10", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TREE_DIGEST


def test_entropy_curve_is_deterministic(tmp_path):
    args = ["entropy-curve", "--lo", "0.4", "--hi", "1.5", "--n", "12"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "c,entropy,method,period"
    assert len(lines) == 13


def test_run_record_sidecar(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["entropy-curve", "--lo", "0.5", "--hi", "1.0", "--n", "4",
                 "--out", str(out)]) == 0
    record = json.loads((tmp_path / "curve.csv.run.json").read_text())
    assert record["command"] == "entropy-curve"
    assert record["version"]
    assert "timestamp" not in record
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert record["output_sha256"] == digest
    assert record["config_sha256"] is None


def test_config_defaults_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 5, "lo": 0.5, "hi": 1.0}))
    assert main(["--config", str(cfg), "entropy-curve", "--lo", "0.6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6                       # header + n=5 from config
    assert float(lines[1].split(",")[0]) == 0.6  # explicit flag wins


def test_config_yields_to_an_abbreviated_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_level": 2}))
    for flag in (["--max", "3"], ["--max=3"]):
        assert main(["--config", str(cfg), "tree"] + flag) == 0
        out = capsys.readouterr().out
        assert "level 2" in out and "level 3" in out, flag
    assert main(["--config", str(cfg), "tree"]) == 0
    assert "level 3" not in capsys.readouterr().out


def test_config_digest_lands_in_sidecar(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4}))
    out = tmp_path / "c.csv"
    assert main(["--config", str(cfg), "entropy-curve", "--lo", "0.5",
                 "--hi", "0.9", "--out", str(out)]) == 0
    record = json.loads((tmp_path / "c.csv.run.json").read_text())
    assert record["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()


def test_config_values_go_through_the_option_type(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": "3", "lo": 0.5, "hi": "1.0"}))
    assert main(["--config", str(cfg), "entropy-curve"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    for command, bad in (("entropy-curve", {"n": "five"}),
                         ("entropy-curve", {"n": 2.5}),
                         ("tree", {"format": "xml"}),
                         ("reduce", {"json": "yes"})):
        cfg.write_text(json.dumps(bad))
        argv = ["--config", str(cfg), command] + (["1", "1"] if command == "reduce" else [])
        assert main(argv) == 2, bad
        assert capsys.readouterr().err.startswith("error: config "), bad


def test_config_skips_keys_that_are_not_options(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"func": 1, "command": "tree", "raw_argv": 1,
                               "config_digest": "x", "config": "other.json",
                               "a": 9, "help": True, "n": 3}))
    out = tmp_path / "c.csv"
    assert main(["--config", str(cfg), "entropy-curve", "--lo", "0.5",
                 "--hi", "0.9", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4
    record = json.loads((tmp_path / "c.csv.run.json").read_text())
    assert record["command"] == "entropy-curve"
    assert record["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
    assert main(["--config", str(cfg), "reduce", "2", "--", "-1"]) == 0
    assert "c = -2" in capsys.readouterr().out   # the positional a is not an option


def test_bifurcation_csv(capsys):
    assert main(["bifurcation", "--lo", "1.0", "--hi", "1.3", "--n", "4",
                 "--transient", "50", "--samples", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "c,x"
    assert len(lines) == 13
    c0, x0 = lines[1].split(",")
    float(c0), float(x0)


def test_bifurcation_errors_when_a_column_keeps_hitting_a_pole(monkeypatch, capsys):
    def always_pole(c, x0, n):
        raise PoleError(x0)

    monkeypatch.setattr(cli, "orbit_points", always_pole)
    assert main(["bifurcation", "--lo", "1.0", "--hi", "1.3", "--n", "4"]) == 2
    assert "pole" in capsys.readouterr().err


def test_bifurcation_needs_two_grid_points(capsys):
    for n in ("1", "0"):
        assert main(["bifurcation", "--n", n]) == 2
        assert capsys.readouterr().err == "error: need at least two grid points\n"


def test_bifurcation_rejects_a_negative_transient(capsys):
    assert main(["bifurcation", "--n", "2", "--transient", "-5", "--samples", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --transient must not be negative\n"


def test_bifurcation_rejects_fewer_than_one_sample(capsys):
    for samples in ("0", "-3"):
        assert main(["bifurcation", "--n", "2", "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --samples must be at least 1\n"


def test_bifurcation_checks_its_range_as_the_entropy_curve_does(capsys):
    # c <= 0 is outside the family, and at c = 0 the critical point is a pole
    for lo, hi in (("-1", "0.5"), ("0", "0.5"), ("0.5", "0.5"), ("0.6", "0.5"),
                   ("0.5", "inf"), ("nan", "0.5")):
        assert main(["bifurcation", "--lo", lo, "--hi", hi, "--n", "2",
                     "--samples", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad parameter range ({float(lo)}, {float(hi)})\n"
        assert main(["entropy-curve", "--lo", lo, "--hi", hi, "--n", "2"]) == 2
        assert capsys.readouterr().out == ""


def test_reduce_rejects_a_negative_point_count(capsys):
    assert main(["reduce", "1", "2", "--points", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --points must not be negative\n"


def test_reduce_rejects_non_finite_coefficients_and_overflow(capsys):
    # nan and inf coefficients, and a finite pair whose c = -a/|b|^(4/5)
    # overflows to -inf, have no canonical form
    for a, b in (("nan", "1"), ("-3", "inf"), ("1e308", "1e-300")):
        assert main(["reduce", "--points", "0", a, b]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the reduction needs finite a, b, c and scale")


def test_entropy_curve_rejects_fewer_than_one_worker(monkeypatch, capsys):
    def no_curve(*args, **kwargs):
        raise AssertionError("the curve (and its pool) must not start")

    monkeypatch.setattr(cli, "entropy_curve", no_curve)
    for workers in ("0", "-2"):
        assert main(["entropy-curve", "--workers", workers]) == 2
        assert capsys.readouterr().err == "error: --workers must be at least 1\n"


def test_entropy_curve_rejects_a_horizon_below_one(capsys):
    # the series horizon doubles towards its cap, which 0 or less never reaches
    for horizon in ("0", "-4"):
        assert main(["entropy-curve", "--n", "3", "--horizon", horizon]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: horizon must be at least 1, got {horizon}\n"


def test_itinerary_rejects_a_negative_or_nan_tol(capsys):
    # 3e-11 right of the pole d3 at c = 1: only a tol >= 0 can see the pole
    start = ["itinerary", "1", "--x0", "0.668740305006422"]
    assert main(start) == 2
    assert capsys.readouterr().err.startswith("error: pole proximity")
    for tol in ("-1", "nan"):
        assert main(start + ["--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: tol must be a number >= 0, got {float(tol)!r}\n"


def test_find_window_rejects_a_negative_or_nan_tol(capsys):
    for tol in ("-1e-13", "nan"):
        assert main(["find-window", "RLRC", f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: tol must be a number >= 0, got {float(tol)!r}\n"


def test_find_window_takes_both_bracket_ends_or_neither(capsys):
    assert main(["find-window", "RLRC", "--lo", "1.0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: give both --lo and --hi or neither\n"
    assert main(["find-window", "RLRC", "--lo", "1.0", "--hi", "1.6"]) == 0
    out = capsys.readouterr().out
    c = float([l for l in out.splitlines() if l.startswith("c =")][0][4:])
    assert abs(c - SUPERSTABLE["RLRC"]) < 1e-9


def test_entropy_curve_nudges_off_the_pole_at_the_fifth_root_of_five(capsys):
    # the grid starts at c = 5^(1/5), whose critical value 1/c is the pole
    # d3; the third nudge clears it and stays inside the 1e-9 grid gate
    lo = 1.379729661461215
    argv = ["entropy-curve", "--lo", str(lo), "--hi", "1.4", "--n", "2"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    header, first, _ = captured.out.splitlines()
    assert header == "c,entropy,method,period"
    c, entropy, method, period = first.split(",")
    assert 0 < (float(c) - lo) / lo < 1e-9
    assert abs(float(entropy) - math.log(2.0)) < 1e-12
    assert (method, period) == ("kneading-series", "0")


def test_entropy_curve_rejects_parameters_from_c0_on(capsys):
    # above C0 the orbit falls into the attracting root in M, which would
    # read as the word (M)^ with entropy log(1 + sqrt(2))
    for lo, hi in (("2", "3"), ("1.6", "1.6493848884661177")):
        assert main(["entropy-curve", "--lo", lo, "--hi", hi, "--n", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: c = {float(hi)!r} is not below C0")


def test_entropy_curve_with_two_workers_prints_what_one_prints(monkeypatch, capsys):
    import multiprocessing

    pools, real_pool = [], multiprocessing.Pool

    def pool(processes):
        pools.append(processes)
        return real_pool(processes)

    monkeypatch.setattr(multiprocessing, "Pool", pool)
    args = ["entropy-curve", "--n", "12"]
    assert main(args + ["--workers", "1"]) == 0
    one = capsys.readouterr().out
    assert main(args + ["--workers", "2"]) == 0
    assert capsys.readouterr().out == one
    assert pools == [2]


def test_verify_suites_pass(capsys):
    assert main(["verify", "--suite", "markov-rlrc"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "0 failures" in out


def test_verify_all_suites(capsys):
    assert main(["verify", "--suite", "all"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    # the report is byte-identical to the recorded one
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_DIGEST
