"""Tests for the batch command-line interface."""

import argparse
import contextlib
import json
import math
import os
import random
import re
import subprocess
import sys
import textwrap
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import fdrates
import fdrates.cli as cli
import fdrates.flow as flow_mod
import fdrates.spectral as spec_mod
from fdrates.cli import ConfigError, main, parse_config


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_roundtrip():
    cfg = parse_config("""
        # a comment
        d = 5
        m = 0.9          # trailing comment
        D0 = 2.0
        D1 = 0.5
        grid.N = 400
        data.kind = eigen
        data.match_D = false
    """)
    # m and alpha are read exactly, as --m and --alpha are
    assert cfg["d"] == 5 and cfg["m"] == Fraction(9, 10)
    assert cfg["data.match_D"] is False
    e = cfg.exponent_set()
    assert e.alpha == -10
    echo = "\n".join(f"# {k}={cli._fmt(v)}" for k, v in cfg.echo())
    assert "# d=5" in echo and "# m=0.90000000000000002" in echo
    e = parse_config("d = 5\nalpha = -10").exponent_set()
    assert e.alpha == -10 and e.m == Fraction(9, 10)
    assert parse_config("d = 5\nalpha = -7/2").exponent_set().alpha == Fraction(-7, 2)


def test_parse_config_rejections():
    with pytest.raises(ConfigError, match="line 1.*unknown key"):
        parse_config("mm = 0.5")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config("d = 5\nd = 3")
    with pytest.raises(ConfigError, match="expected key=value"):
        parse_config("d 5")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("grid.N = tiny")
    for bad in ("1/0", "nan", "inf", "abc"):
        with pytest.raises(ConfigError, match="bad value for alpha"):
            parse_config(f"alpha = {bad}")
    with pytest.raises(ConfigError, match="m must be < 1"):
        parse_config("m = 1.5")
    with pytest.raises(ConfigError, match="D0 > D1"):
        parse_config("D0 = 0.5\nD1 = 2.0")
    # the retired data.mode_l: each command supplies the sector of its mode
    for kind in ("eigen", "mode"):
        for value in (0, 1):
            with pytest.raises(ConfigError, match="line 2: unknown key 'data.mode_l'"):
                parse_config(f"data.kind = {kind}\ndata.mode_l = {value}")
    with pytest.raises(ConfigError, match="window"):
        parse_config("fit.window_start = 0.5")
    # a fit window outside the run [0, time.t_end], refused with its keys named
    with pytest.raises(ConfigError, match=re.escape(
            "fit.window_start = 0.1, fit.window_end = 5.0: fit window end 5.0 "
            "lies beyond the trace end t = 0.25")):
        parse_config("time.t_end = 0.25\nfit.window_start = 0.1\nfit.window_end = 5")
    with pytest.raises(ConfigError, match=re.escape(
            "fit.window_start = -0.1, fit.window_end = 0.5: fit window start -0.1 "
            "lies before the trace start t = 0.0")):
        parse_config("fit.window_start = -0.1\nfit.window_end = 0.5")
    # within entropy.fit_rate's tolerance, 1e-9 max(t_end, 1), the window holds
    parse_config("time.t_end = 0.25\nfit.window_start = -1e-10\n"
                 "fit.window_end = 0.2500000001")
    with pytest.raises(ConfigError, match="line 2: bad value for data.kind: 'mdoe'"):
        parse_config("d = 5\ndata.kind = mdoe")
    with pytest.raises(ConfigError, match="line 2: bad value for fit.kind: 'lolog'"):
        parse_config("d = 5\nfit.kind = lolog")
    # the grid has no grading to choose: the key is unknown
    with pytest.raises(ConfigError, match="line 1: unknown key 'grid.grading'"):
        parse_config("grid.grading = cosh")
    with pytest.raises(ConfigError):
        parse_config("m = 0.9\nalpha = -10").exponent_set()  # both given
    with pytest.raises(ConfigError):
        parse_config("m = 0.9").exponent_set()  # d missing


def test_config_ranges_and_time_axis_are_checked_when_read():
    # a value out of its key's range, with the key and its line named
    for text, msg in (("d = 0", "line 1: d must be >= 1, got 0"),
                      ("d = 5\nalpha = 1/2", "line 2: alpha must be < 0, got 1/2"),
                      ("grid.N = 8", "line 1: grid.N must be >= 16, got 8"),
                      ("D1 = 0", "line 1: D1 must be positive, got 0.0"),
                      ("data.seed = -3", "line 1: data.seed must be >= 0, got -3"),
                      ("data.mode_k = -1", "line 1: data.mode_k must be >= 0")):
        with pytest.raises(ConfigError, match=re.escape(msg)):
            parse_config(text)
    # the time axis, by numerics._schedule, naming the key it blames
    for text, msg in (
            ("time.dt = 0", "line 1: bad value for time.dt: dt must be finite and "
                            "positive, got 0.0"),
            ("time.t_end = -1", "line 1: bad value for time.t_end: t_end must be "
                                "finite and beyond the current time t = 0.0"),
            ("time.t_end = 1e-12", "line 1: bad value for time.t_end: t_end - t = "
                                   "1e-12 holds no time step of dt = 0.001"),
            ("time.t_end = 0.0105", "bad value for time.dt (default 0.001): t_end - "
                                    "t = 0.0105 is not an integer multiple of the "
                                    "time step dt = 0.001"),
            ("time.dt = 1e-3\ntime.t_end = 0.05\noutput.cadence = 0.0015",
             "line 3: bad value for output.cadence: cadence 0.0015 is not an "
             "integer multiple of dt 0.001")):
        with pytest.raises(ConfigError, match=re.escape(msg)):
            parse_config(text)
    # before the window, which lies inside [0, time.t_end] only for t_end > 0
    with pytest.raises(ConfigError, match="time.t_end"):
        parse_config("time.t_end = -1\nfit.window_start = 0\nfit.window_end = 0.5")
    # a default cadence whose rows divide the run: 1250 steps, 5 per row
    assert parse_config("time.dt = 2e-4\ntime.t_end = 0.25")["output.cadence"] is None


def _parses(parse, text):
    """parse(text), or None if it refuses the text."""
    try:
        return parse(text)
    except (ValueError, KeyError, argparse.ArgumentTypeError):
        return None


def test_every_float_key_and_option_refuses_nan_and_inf():
    # one parser, cli._finite, reads every float config value and option
    keys = [k for k, (parse, _, _) in cli._CONFIG_KEYS.items()
            if isinstance(_parses(parse, "1.5"), float)]
    assert len(keys) == 11 and "output.cadence" in keys
    for key in keys:
        for bad in ("nan", "inf", "-inf", "NaN"):
            with pytest.raises(ConfigError, match=re.escape(
                    f"line 2: bad value for {key}: expected a finite number, "
                    f"got '{bad}'")):
                parse_config(f"d = 5\n{key} = {bad}")
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    options = []
    for name, sp in sub.choices.items():
        for action in sp._actions:
            if action.type is not None and isinstance(_parses(action.type, "1.5"),
                                                      float):
                options.append((name, action.option_strings[0]))
                for bad in ("nan", "inf", "-inf", "NaN"):
                    with pytest.raises(argparse.ArgumentTypeError,
                                       match="expected a finite number"):
                        action.type(bad)
    assert len(options) == 13 and ("gronwall", "--Lambda") in options


# ---------------------------------------------------------------------------
# subcommands (in-process; stdout captured by capsys)


def test_constants_json(capsys):
    assert main(["constants", "--d", "5", "--m", "0.9", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    # --m 0.9 is read as 9/10, so the closed forms come out exact
    assert out["alpha"] == -10.0
    assert out["Lambda"] == 20.0
    assert out["lambda_cont"] == 289.0 / 4.0
    assert out["Lambda_improved"] == 30.0
    assert out["regime"] == "good"


def test_constants_at_the_critical_exponent(capsys):
    # at m* = (d-4)/(d-2) the spectral gap closes: every other constant is
    # printed, Lambda is not
    for d, m_star in ((3, "-1"), (4, "0"), (5, "1/3"), (6, "1/2")):
        assert main(["constants", "--d", str(d), "--m", m_star]) == 0, d
        rows = capsys.readouterr().out.splitlines()
        assert "regime,critical" in rows and "lambda_cont,0" in rows, d
        assert not any(r.startswith("Lambda") for r in rows), d
        assert main(["constants", "--d", str(d), "--m", m_star,
                     "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["regime"] == "critical" and "Lambda" not in out, d


def test_constants_json_is_strict(capsys):
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    for d in (1, 2, 3, 5):
        assert main(["constants", "--d", str(d), "--m", "0", "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out, parse_constant=refuse)
        # m* = -inf for d <= 2, which JSON cannot hold
        assert (out["m_star"] is None) == (d <= 2), d
    # the CSV keeps -inf
    assert main(["constants", "--d", "2", "--m", "0"]) == 0
    assert "m_star,-inf" in capsys.readouterr().out.splitlines()


def _process_env(**extra):
    """The environment of a fresh process that imports this fdrates, with
    stdout block-buffered, as it is by default on a pipe."""
    src = str(Path(fdrates.__file__).resolve().parents[1])
    env = dict(os.environ, **extra)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_import_and_scalar_commands_do_not_load_numpy(tmp_path):
    # numpy and scipy are imported where numerics and linear algebra run: the
    # import, the exact closed-form commands and the scalar commands on
    # Python floats load neither (nor mpmath), the other closed-form commands
    # no scipy, hp-verify, the first to load numpy, only scipy's LAPACK
    # extension through fdrates._lapack, not the scipy package or numpy.f2py,
    # which that package pulls in, and nothing loads scipy.optimize
    cfg = _evolve_config(tmp_path)
    exact = [
        ["constants", "--d", "5", "--m", "0.9"],
        ["spectrum", "--d", "5", "--alpha", "-10"],
        ["eigenfunction", "--d", "5", "--alpha", "-10", "--l", "0", "--k", "1"],
        ["gronwall", "--d", "5", "--m", "0.9", "--F0", "1.0", "--t-end", "0.01"],
        ["rescale", "--d", "5", "--m", "0.8", "--tau", "2"],
    ]
    numeric = [
        ["entropy-report", "--config", cfg],
        ["quotient", "--d", "5", "--m", "0.9", "--n", "100", "--R", "30", "--N", "400"],
    ]
    # extrapolates its l = 0 sector, so the quantization fit runs
    verify = ["hp-verify", "--d", "5", "--alpha=-1", "--R", "100", "--N", "200",
              "--l-max", "0"]
    code = textwrap.dedent("""
        import contextlib, io, json, sys
        import fdrates, fdrates.cli

        def loaded():
            return [m for m in ("numpy", "numpy.f2py", "fdrates._lapack", "scipy",
                                "scipy.linalg", "scipy.optimize", "mpmath")
                    if m in sys.modules]

        print(json.dumps(["import", 0, loaded()]))
        for argv in json.loads(sys.argv[1]):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = fdrates.cli.main(argv)
            print(json.dumps([argv[0], rc, loaded()]))
    """)
    proc = subprocess.run([sys.executable, "-c", code,
                           json.dumps(exact + [verify] + numeric)],
                          env=_process_env(), capture_output=True, text=True,
                          check=True)
    got = [json.loads(line) for line in proc.stdout.splitlines()]
    lapack = ["numpy", "fdrates._lapack"]
    assert got == ([["import", 0, []]] + [[c[0], 0, []] for c in exact]
                   + [["hp-verify", 0, lapack]] + [[c[0], 0, lapack] for c in numeric])


def test_scalar_commands_log_their_module_import():
    # gronwall and rescale import from fdrates.scalar by name, so Python's
    # import-time log names the module, and neither loads numpy
    for argv in (["gronwall", "--d", "5", "--m", "0.9", "--F0", "1.0",
                  "--t-end", "0.01"],
                 ["rescale", "--d", "5", "--m", "0.8", "--tau", "2"]):
        proc = subprocess.run([sys.executable, "-m", "fdrates.cli", *argv],
                              env=_process_env(PYTHONPROFILEIMPORTTIME="1"),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        log = proc.stderr.splitlines()
        assert any(re.fullmatch(r"import time:.*\| +fdrates\.scalar", l)
                   for l in log), argv
        assert not any(re.search(r"\bnumpy\b", l) for l in log), argv


def test_constants_csv_and_arg_validation(capsys):
    assert main(["constants", "--d", "5", "--alpha", "-4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# fdrates constants")
    assert "key,value" in out and "Lambda,6" in out
    assert main(["constants", "--d", "5"]) == 1  # neither m nor alpha
    assert main(["constants", "--d", "5", "--m", "0.9", "--alpha", "-4"]) == 1
    # fractions parse exactly: alpha = -7/2 = -(d+2)/2, where two branches meet
    assert main(["constants", "--d", "5", "--alpha", "-7/2"]) == 0
    out = capsys.readouterr().out
    assert "Lambda,4" in out and "m,0.7142857142857143" in out
    for bad in ("1/0", "nan", "abc", "inf"):
        assert main(["constants", "--d", "5", "--m", bad]) == 1
        assert "expected a finite decimal or fraction" in capsys.readouterr().err


def test_spectrum_csv(capsys):
    assert main(["spectrum", "--d", "5", "--alpha", "-10"]) == 0
    out = capsys.readouterr().out
    assert "# sharp_constant=20" in out
    assert "# gap_source=mode:1:0" in out
    assert "l,k,lambda,admissible,below_continuum,multiplicity" in out
    assert "1,0,20,true,true,5" in out
    assert "0,0,0,false,true,1" in out  # (0,0) sits below but is inadmissible
    # the gap source is the translation mode (1, 0) even when the table stops
    # at l = 0
    assert main(["spectrum", "--d", "5", "--alpha", "-10", "--l-max", "0"]) == 0
    assert "# gap_source=mode:1:0" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("d, alpha", [("5", "-10"), ("3", "-2")])
def test_spectrum_json_matches_csv(capsys, d, alpha):
    argv = ["spectrum", "--d", d, "--alpha", alpha]
    assert main(argv + ["--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    comments = dict(l[2:].split("=", 1) for l in lines if l.startswith("# ") and "=" in l)
    assert float(comments["sharp_constant"]) == out["sharp_constant"]
    assert float(comments["continuum_bottom"]) == out["continuum_bottom"]
    assert comments["gap_source"] == ":".join(map(str, out["gap_source"]))
    header, *rows = [l for l in lines if not l.startswith("#")]
    assert header == "l,k,lambda,admissible,below_continuum,multiplicity"
    assert rows and len(rows) == len(out["modes"])
    for row, mode in zip(rows, out["modes"]):
        l, k, lam, admissible, below, mult = row.split(",")
        assert (int(l), int(k), float(lam), admissible, below, int(mult)) == (
            mode["l"], mode["k"], mode["lambda"], cli._fmt(mode["admissible"]),
            cli._fmt(mode["below_continuum"]), mode["multiplicity"])


def test_hp_verify_quick(capsys):
    # (5, -6): converged discrete minimum 12 on a modest truncated domain
    assert main(["hp-verify", "--d", "5", "--alpha", "-6", "--R", "60",
                 "--N", "400", "--l-max", "1", "--no-extrapolate"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "alpha,l,constraints,R_max,N,lambda_numeric,lambda_closed_form,rel_err"
    min_row = [l for l in lines if ",min," in l]
    assert len(min_row) == 1
    rel_err = float(min_row[0].split(",")[-1])
    assert rel_err < 5e-3
    # the README sweep, with the negative list as a separate argument
    assert main(["hp-verify", "--d", "5", "--alpha", "-1,-4,-6", "--R", "100",
                 "--N", "1600"]) == 0
    min_rows = [l for l in capsys.readouterr().out.splitlines() if ",min," in l]
    assert [r.split(",")[0] for r in min_rows] == ["-1", "-4", "-6"]
    assert all(float(r.split(",")[-1]) < 0.03 for r in min_rows)
    # each sweep item is exact: at alpha = -3/10 the closed form is 1/25
    assert main(["hp-verify", "--d", "3", "--alpha=-1,-3/10", "--N", "64",
                 "--l-max", "0", "--no-extrapolate"]) == 0
    min_rows = [l for l in capsys.readouterr().out.splitlines() if ",min," in l]
    assert [r.split(",")[6] for r in min_rows] == ["0.25", "0.040000000000000001"]


def test_hp_verify_sweep_prints_one_min_row_per_alpha(capsys):
    assert main(["hp-verify", "--d", "5", "--alpha=-6,-8", "--R", "50",
                 "--N", "200", "--l-max", "1", "--no-extrapolate"]) == 0
    out = capsys.readouterr().out
    assert out.count(",min,") == 2


def test_hp_verify_d1_prints_only_existing_sectors(capsys):
    assert main(["hp-verify", "--d", "1", "--alpha=-0.1", "--N", "200"]) == 0
    rows = [l for l in capsys.readouterr().out.splitlines()
            if not l.startswith("#")][1:]
    assert [r.split(",")[1] for r in rows] == ["0", "1", "min"]


def test_eigenfunction(capsys):
    assert main(["eigenfunction", "--d", "5", "--alpha", "-10",
                 "--l", "0", "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "# lambda=30" in out
    assert "# multiplicity=1" in out
    assert "0,1" in out and "1,-3" in out
    assert "# max_ode_residual=0\n" in out  # exact rational arithmetic


def _evolve_config(tmp_path, extra=""):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "d = 5\nm = 0.9\nD0 = 2.0\nD1 = 0.5\n"
        "data.kind = eigen\ndata.epsilon = 0.05\n"
        "grid.R_max = 15\ngrid.N = 200\n"
        "time.dt = 1e-3\ntime.t_end = 0.05\noutput.cadence = 0.005\n" + extra
    )
    return str(cfg)


def test_unusable_output_is_refused_before_the_run(tmp_path, capsys, monkeypatch):
    # a directory, or a file in a directory that does not exist, exits 1 with
    # one error line naming the path before the command runs
    cfg = _evolve_config(tmp_path)
    missing = tmp_path / "missing" / "trace.csv"

    def never(args):
        raise AssertionError("the command ran")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_cmd_constants", never)
        patch.setattr(cli, "_cmd_evolve", never)
        for argv, msg in (
                (["constants", "--d", "5", "--m", "0.9", "--output", str(tmp_path)],
                 f"--output {tmp_path} is a directory"),
                (["evolve", "--config", cfg, "--output", str(missing)],
                 f"--output {missing}: no directory {missing.parent}")):
            assert main(argv) == 1
            assert capsys.readouterr() == ("", f"fdrates: error: {msg}\n")
    # an existing --output keeps its bytes when the command then fails
    out = tmp_path / "trace.csv"
    out.write_text("kept\n")
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 1\n")
    assert main(["evolve", "--config", str(bad), "--output", str(out)]) == 1
    assert out.read_text() == "kept\n"
    # an OSError on opening, the config or the output, exits 1 naming the path
    long_name = str(tmp_path / ("x" * 300))
    for argv in (["evolve", "--config", str(tmp_path)],
                 ["constants", "--d", "5", "--m", "0.9", "--output", long_name]):
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("fdrates: error: [Errno ") and err.count("\n") == 1
        assert repr(argv[-1]) in err


def test_evolve_deterministic_bytes(tmp_path, capsys):
    cfg = _evolve_config(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["evolve", "--config", cfg, "--output", str(out1)]) == 0
    assert main(["evolve", "--config", cfg, "--output", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    text = b1.decode()
    assert text.splitlines()[0] == "# fdrates evolve"
    assert "t,entropy,fisher,h1,h2,mass_defect" in text
    assert "# matched_D=" in text
    # 17-significant-digit floats round-trip
    header_idx = text.splitlines().index("t,entropy,fisher,h1,h2,mass_defect")
    first = text.splitlines()[header_idx + 1].split(",")
    assert len(first) == 6
    assert float(first[1]) > 0


def test_evolve_with_fit(tmp_path, capsys):
    cfg = _evolve_config(tmp_path, "fit.window_start = 0.0\nfit.window_end = 0.05\n")
    assert main(["evolve", "--config", cfg]) == 0
    out = capsys.readouterr().out
    rate_line = [l for l in out.splitlines() if l.startswith("# fitted_rate=")][0]
    assert float(rate_line.split("=")[1]) > 0


def test_evolve_critical_loglog_fit(tmp_path, capsys):
    # the critical exponent m* = (d-4)/(d-2) = 1/3 in d = 5 decays
    # algebraically; on a large domain, with data matched to its profile
    # (data.match_D by default) and without, a log-log fit gives a negative
    # slope and the scheme conserves the defect to 1e-10 of the unmatched one;
    # entropy-report matches the same data to a defect within 1e-10
    cfg = tmp_path / "crit.cfg"
    text = ("d = 5\nm = 1/3\nD0 = 2.0\nD1 = 0.5\ndata.kind = bump\n"
            "data.clip = false\ngrid.R_max = 1e8\ngrid.N = 400\n"
            "time.dt = 0.05\ntime.t_end = 2\noutput.cadence = 0.1\n"
            "fit.kind = loglog\nfit.window_start = 0.5\nfit.window_end = 2\n")
    columns = []
    for extra in ("", "data.match_D = false\n"):
        cfg.write_text(text + extra)
        assert main(["evolve", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        rate = float([l for l in lines if l.startswith("# fitted_rate=")][0][14:])
        assert math.isfinite(rate) and rate < 0
        header = lines.index("t,entropy,fisher,h1,h2,mass_defect")
        columns.append([float(l.split(",")[5]) for l in lines[header + 1:]])
    matched, unmatched = columns
    assert len(matched) == 21 and abs(matched[0]) <= 1e-10
    scale = abs(unmatched[0])
    assert scale > 1e-3
    for md in columns:
        assert max(abs(v - md[0]) for v in md) <= 1e-10 * scale
    cfg.write_text(text)
    assert main(["entropy-report", "--config", str(cfg)]) == 0
    report = dict(l.split(",") for l in capsys.readouterr().out.splitlines()
                  if not l.startswith("#"))
    assert abs(float(report["mass_defect"])) <= 1e-10


def test_evolve_linear(tmp_path, capsys):
    cfg = tmp_path / "lin.cfg"
    cfg.write_text("d = 5\nalpha = -10\nsector.l = 1\ngrid.R_max = 15\n"
                   "grid.N = 200\ntime.dt = 1e-3\ntime.t_end = 0.05\n"
                   "output.cadence = 0.005\ndata.kind = generic\n")
    assert main(["evolve-linear", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 11
    assert rows[0].split(",")[3] == "nan"  # h1 undefined for the linear flow
    # the echo names the start the run read, and no nonlinear data key
    assert "# sector.l=1" in out.splitlines()
    echo = [l for l in out.splitlines() if l.startswith(("# data.", "# D0", "# D1"))]
    assert echo == ["# data.kind=generic"]
    cfg.write_text(cfg.read_text().replace("generic", "mode"))
    assert main(["evolve-linear", "--config", str(cfg)]) == 0
    echo = [l for l in capsys.readouterr().out.splitlines() if l.startswith("# data.")]
    assert echo == ["# data.kind=mode", "# data.mode_k=1"]


def test_evolve_linear_on_the_line(tmp_path, capsys):
    # d = 1 has the sectors l = 0, 1 (even and odd parts); the odd sector at
    # alpha = -3 decays at 2 Lambda = 12
    cfg = tmp_path / "lin.cfg"
    cfg.write_text("d = 1\nalpha = -3\nsector.l = 1\ngrid.R_max = 15\n"
                   "grid.N = 800\ntime.dt = 1e-3\ntime.t_end = 1\n"
                   "fit.window_start = 0.4\nfit.window_end = 0.9\n")
    assert main(["evolve-linear", "--config", str(cfg)]) == 0
    echo = dict(l[2:].split("=", 1) for l in capsys.readouterr().out.splitlines()
                if l.startswith("# ") and "=" in l)
    assert float(echo["fitted_rate"]) == pytest.approx(12.0, rel=0.01)


_LIN_SECTOR_0_D5 = ("d = 5\nalpha = -10\nsector.l = 0\ngrid.R_max = 15\n"
                    "grid.N = 800\ntime.dt = 1e-4\ntime.t_end = 0.5\n"
                    "output.cadence = 0.005\n"
                    "fit.window_start = 0.2\nfit.window_end = 0.45\n")


@pytest.mark.parametrize("text, rate", [
    (_LIN_SECTOR_0_D5, 60.0),
    (_LIN_SECTOR_0_D5 + "data.kind = mode\n", 60.0),
    ("d = 1\nalpha = -3\nsector.l = 0\ngrid.R_max = 15\ngrid.N = 800\n"
     "time.dt = 1e-3\ntime.t_end = 1\n"
     "fit.window_start = 0.4\nfit.window_end = 0.9\n", 20.0),
], ids=["d5-generic", "d5-mode", "d1-generic"])
def test_evolve_linear_in_sector_0_decays_at_the_gap(text, rate, tmp_path, capsys):
    # the constant, sector 0's zero mode, leaves the data before the first
    # step, so the fit measures the gap 2 lambda_(0,1): 60 at d = 5,
    # alpha = -10 from either start, 20 at d = 1, alpha = -3; the mass
    # column stays at rounding
    cfg = tmp_path / "lin.cfg"
    cfg.write_text(text)
    assert main(["evolve-linear", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    echo = dict(l[2:].split("=", 1) for l in lines if l.startswith("# ") and "=" in l)
    assert float(echo["fitted_rate"]) == pytest.approx(rate, rel=0.01)
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    assert max(abs(float(row[5])) for row in rows) <= 1e-14


def test_entropy_report(tmp_path, capsys):
    cfg = _evolve_config(tmp_path)
    assert main(["entropy-report", "--config", cfg]) == 0
    out = capsys.readouterr().out
    vals = dict(l.split(",") for l in out.splitlines()
                if not l.startswith("#") and "," in l and not l.startswith("key"))
    assert float(vals["entropy"]) > 0
    assert float(vals["slack_fisher"]) >= 0
    assert float(vals["slack_entropy_lower"]) >= 0


def test_gronwall_cli(capsys):
    assert main(["gronwall", "--d", "5", "--m", "0.9", "--F0", "1.0",
                 "--t-end", "0.01", "--dt", "1e-3"]) == 0
    out = capsys.readouterr().out
    assert "# Lambda=20" in out  # defaults to the closed-form sharp rate
    assert "# h_star=" in out
    rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    t, G = zip(*(map(float, r.split(",")) for r in rows))
    assert G[0] == 1.0 and G[-1] == pytest.approx(math.exp(-40 * t[-1]), rel=1e-7)


@pytest.mark.parametrize("dt", ["0.04", "0.05", "0.2"])
def test_gronwall_cli_refuses_an_overshooting_step(dt, capsys):
    # 2 Lambda dt = 1.6, 2 or 8 is past the RK4 stage's root 1.2956: exit 2,
    # with dt named, and no rows
    assert main(["gronwall", "--d", "5", "--m", "0.9", "--F0", "1.0",
                 "--t-end", "1", "--dt", dt]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"dt = {dt}" in err and "numerical failure" in err


def test_quotient_cli(capsys):
    for f in ("gauss", "ring"):
        assert main(["quotient", "--d", "5", "--m", "0.9", "--f", f,
                     "--n", "100,200", "--R", "30", "--N", "400"]) == 0
        out = capsys.readouterr().out
        assert f"# f={f}" in out
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 2
        n, q, rq, ratio = rows[0].split(",")
        assert float(q) >= 2.0
        assert float(ratio) == pytest.approx(2.0, rel=0.05)
    # a discrete mode as the test function
    assert main(["quotient", "--d", "5", "--m", "0.9", "--f", "mode:1",
                 "--n", "100", "--R", "20", "--N", "200"]) == 0
    out = capsys.readouterr().out
    assert "# f=mode:1" in out
    assert len([l for l in out.splitlines() if not l.startswith("#")]) == 2


def test_rescale_cli(capsys):
    assert main(["rescale", "--d", "5", "--m", "0.8", "--T", "1",
                 "--tau", "2", "--y", "1", "--u", "1"]) == 0
    out = capsys.readouterr().out
    assert "# regime=good" in out
    row = [l for l in out.splitlines() if not l.startswith("#")][1]
    tau, y, u, R, t, x, v = map(float, row.split(","))
    assert R == pytest.approx(3.0, rel=1e-14)
    assert t == pytest.approx(0.1 * math.log(3.0), rel=1e-13)
    assert v == pytest.approx(243.0, rel=1e-13)


@pytest.mark.parametrize("m, tau", [("0.8", "2"), ("0.5", "-2")])
def test_rescale_cli_refuses_T_0_naming_T(m, tau, capsys):
    assert main(["rescale", "--d", "5", "--m", m, "--T", "0", "--tau", tau]) == 1
    err = capsys.readouterr().err
    assert "time origin T > 0" in err and "got T = 0.0" in err
    assert "tau" not in err


def test_exit_codes(tmp_path, capsys, monkeypatch):
    # 1: bad config file
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 1\n")
    assert main(["evolve", "--config", str(bad)]) == 1
    # 1: missing file
    assert main(["evolve", "--config", str(tmp_path / "absent.cfg")]) == 1
    # 1: usage error (--d missing)
    assert main(["hp-verify", "--alpha=-4"]) == 1
    # 1: a sweep item that is not a finite decimal or fraction
    assert main(["hp-verify", "--d", "5", "--alpha=-1,nan"]) == 1
    assert main(["hp-verify", "--d", "5", "--alpha=-1,abc"]) == 1
    # 1: a Gronwall t_end that is not a multiple of dt
    assert main(["gronwall", "--d", "5", "--m", "0.9", "--F0", "1.0",
                 "--t-end", "0.1234", "--dt", "0.01"]) == 1
    capsys.readouterr()
    # 1: hp-verify inputs out of range, refused with the parameter named
    verify = ["hp-verify", "--d", "5", "--alpha=-1", "--N", "64"]
    for extra, msg in ((["--l-max", "-1"], "l_max must be >= 0, got -1"),
                       (["--d", "0"], "d must be >= 1, got 0"),
                       (["--R", "-3"], "R_max must be positive, got -3.0"),
                       (["--D", "0"], "D must be positive, got 0.0")):
        assert main(verify + extra) == 1
        assert msg in capsys.readouterr().err
    # 1: spectrum and eigenfunction inputs out of range, refused with the
    # parameter named
    for argv, msg in (
            (["spectrum", "--d", "0", "--alpha=-1"],
             "dimension must be a positive integer, got 0"),
            (["eigenfunction", "--d", "0", "--alpha=-1", "--l", "0", "--k", "1"],
             "dimension must be a positive integer, got 0"),
            (["spectrum", "--d", "5", "--alpha=-10", "--l-max", "-1"],
             "l_max must be >= 0, got -1"),
            (["spectrum", "--d", "5", "--alpha=-10", "--k-max", "-1"],
             "k_max must be >= 0, got -1")):
        assert main(argv) == 1
        assert msg in capsys.readouterr().err
    # 1: quotient options out of range or malformed, refused with the option
    # or parameter named
    quotient = ["quotient", "--d", "5", "--m", "0.9"]
    for extra, msg in ((["--D", "0"], "D must be positive, got 0.0"),
                       # the retired sector index of mode:l,k
                       (["--f", "mode:1,0"], "argument --f: expected gauss, ring "
                                             "or mode:k"),
                       (["--f", "mode:0,1"], "argument --f: expected gauss, ring "
                                             "or mode:k"),
                       (["--n", "10,x"], "argument --n: expected comma-separated "
                                         "positive integers, got '10,x'"),
                       (["--n", "0"], "argument --n"),
                       # the constant, whose mean-zero part vanishes
                       (["--f", "mode:0"], "argument --f: mode:0 is the "
                                           "constant mode")):
        assert main(quotient + extra) == 1
        assert msg in capsys.readouterr().err
    # 1: a fit window that reaches beyond the run, refused with its key named
    # when the config is read, before any flow runs
    late = _evolve_config(tmp_path, "fit.window_start = 0.0\nfit.window_end = 5\n")
    with monkeypatch.context() as mp:
        mp.setattr(flow_mod, "make_initial_data", None)
        assert main(["evolve", "--config", late]) == 1
    assert ("fit.window_start = 0.0, fit.window_end = 5.0: fit window end 5.0 "
            "lies beyond the trace end t = 0.05" in capsys.readouterr().err)
    # 1: unclipped data outside the sandwich, refused naming the bracket
    wide = Path(_evolve_config(tmp_path, "data.clip = false\n"))
    wide.write_text(wide.read_text().replace("data.epsilon = 0.05",
                                             "data.epsilon = 5"))
    assert main(["evolve", "--config", str(wide)]) == 1
    assert capsys.readouterr().err == (
        "fdrates: error: unclipped initial data leave the sandwich "
        "V_D0 <= v0 <= V_D1 with D0 = 2.0, D1 = 0.5\n")
    # 2: a singular Newton system fails the step, and dt halving gives up
    import scipy.linalg

    def singular(*a, **k):
        raise scipy.linalg.LinAlgError("singular matrix")
    with monkeypatch.context() as mp:
        mp.setattr(scipy.linalg, "solve_banded", singular)
        assert main(["evolve", "--config", _evolve_config(tmp_path)]) == 2
    assert "Newton iteration diverged" in capsys.readouterr().err
    # 2: numerical failure surfaces as exit code 2
    def boom(*a, **k):
        raise flow_mod.FlowError("Newton diverged")
    monkeypatch.setattr(flow_mod, "evolve_nonlinear", boom)
    cfg = _evolve_config(tmp_path)
    assert main(["evolve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    # 2: valid input whose weights underflow, at alpha far below -d: the
    # lumped mass of the eigensolve, and the band of the linear flow, which
    # is singular; neither warns on the way
    under = tmp_path / "under.cfg"
    under.write_text("d = 5\nalpha = -400\nsector.l = 1\ngrid.R_max = 15\n"
                     "grid.N = 64\ntime.dt = 1e-3\ntime.t_end = 0.01\n")
    for argv, msg in (
            (["hp-verify", "--d", "5", "--alpha=-400", "--N", "64",
              "--no-extrapolate"], "lumped mass is not positive"),
            (["evolve-linear", "--config", str(under)], "singular matrix")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("fdrates: numerical failure: ") and msg in err, argv
    # 2: a spectral minimum that disagrees with the closed form
    monkeypatch.setattr(spec_mod, "sharp_rate", lambda d, a: 19)
    assert main(["spectrum", "--d", "5", "--alpha", "-10"]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "disagrees with the closed form" in err
    # 1: the retired data.mode_l, refused as an unknown key; the mode data
    # of evolve-linear lie in sector.l
    lin = tmp_path / "lin.cfg"
    lin.write_text("d = 5\nalpha = -10\nsector.l = 2\ndata.kind = mode\n"
                   "data.mode_l = 0\ngrid.N = 200\ntime.t_end = 0.01\n")
    assert main(["evolve-linear", "--config", str(lin)]) == 1
    assert "line 5: unknown key 'data.mode_l'" in capsys.readouterr().err
    # 1: a data.kind typo, refused when the config is read
    lin.write_text("d = 5\nalpha = -10\nsector.l = 1\ndata.kind = mdoe\n"
                   "grid.N = 200\ntime.t_end = 0.01\n")
    assert main(["evolve-linear", "--config", str(lin)]) == 1
    assert "line 4: bad value for data.kind: 'mdoe'" in capsys.readouterr().err
    typo = Path(_evolve_config(tmp_path))
    typo.write_text(typo.read_text().replace("data.kind = eigen", "data.kind = mdoe"))
    assert main(["evolve", "--config", str(typo)]) == 1
    assert "line 5: bad value for data.kind: 'mdoe'" in capsys.readouterr().err
    # 1: a fit.kind typo, or the retired grid.grading key, refused before
    # any flow runs
    for line, msg in (("fit.kind = lolog", "bad value for fit.kind: 'lolog'"),
                      ("grid.grading = cosh", "unknown key 'grid.grading'")):
        typo = Path(_evolve_config(tmp_path, f"{line}\n"))
        assert main(["evolve", "--config", str(typo)]) == 1
        assert f"line 12: {msg}" in capsys.readouterr().err
    lin.write_text("d = 5\nalpha = -10\nsector.l = 1\nfit.kind = lolog\n")
    assert main(["evolve-linear", "--config", str(lin)]) == 1
    assert "line 4: bad value for fit.kind: 'lolog'" in capsys.readouterr().err


def test_spectrum_checks_every_table_size(monkeypatch, capsys):
    # the spectral minimum is checked against the closed form whatever the
    # table's size, the tables of one sector or one radial index too, and in
    # every dimension, d = 1 too
    monkeypatch.setattr(spec_mod, "sharp_rate", lambda d, a: 19)
    for args in (["--d", "5", "--alpha", "-10", "--l-max", "0"],
                 ["--d", "5", "--alpha", "-10", "--k-max", "0"],
                 ["--d", "1", "--alpha", "-3"]):
        assert main(["spectrum", *args]) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("fdrates: numerical failure: "), args
        assert "disagrees with the closed form" in err, args


# the README run.cfg with one line changed or added, and the refusal it gets
_BAD_RUN_CFG = [
    ("time.t_end = 0.25", "time.t_end = inf",
     "line 10: bad value for time.t_end: expected a finite number, got 'inf'"),
    ("time.dt = 2e-4", "time.dt = inf",
     "line 9: bad value for time.dt: expected a finite number, got 'inf'"),
    ("time.t_end = 0.25", "time.t_end = 1e-12",
     "line 10: bad value for time.t_end: t_end - t = 1e-12 holds no time step of "
     "dt = 0.0002"),
    ("output.cadence = 0.005", "output.cadence = inf",
     "line 11: bad value for output.cadence: expected a finite number, got 'inf'"),
    ("output.cadence = 0.005", "output.cadence = 0.003",
     "line 11: bad value for output.cadence: t_end - t = 0.25 is not an integer "
     "multiple of the cadence 0.003"),
    (None, "D = inf", "line 14: bad value for D: expected a finite number, got 'inf'"),
    ("D0 = 2.0 ", "D0 = inf ",
     "line 3: bad value for D0: expected a finite number, got 'inf'"),
    ("grid.R_max = 15", "grid.R_max = inf",
     "line 7: bad value for grid.R_max: expected a finite number, got 'inf'"),
    ("data.epsilon = 0.05", "data.epsilon = nan",
     "line 6: bad value for data.epsilon: expected a finite number, got 'nan'"),
    (None, "sector.l = -1", "line 14: sector.l must be >= 0, got -1"),
    (None, "data.mode_l = 1", "line 14: unknown key 'data.mode_l'"),
    # fit windows that entropy.fit_rate would refuse after the run
    ("fit.window_start = 0.1", "fit.window_start = 0\nfit.kind = loglog",
     "fit.window_start = 0.0, fit.window_end = 0.22: loglog fit needs strictly "
     "positive times"),
    ("output.cadence = 0.005", "output.cadence = 0.025",
     "fit.window_start = 0.1, fit.window_end = 0.22: fit window [0.1, 0.22] has "
     "5 rows; need >= 10"),
]


def test_bad_config_values_exit_1_before_any_flow(tmp_path, capsys, monkeypatch):
    # each command that reads a config refuses these when reading it, with
    # the key and its line named, and without a warning or a traceback
    for name in ("make_initial_data", "evolve_nonlinear", "evolve_linear_sector"):
        monkeypatch.setattr(flow_mod, name, None)
    run_cfg = _readme()[0]["run.cfg"]
    for old, new, msg in _BAD_RUN_CFG:
        assert old is None or run_cfg.count(old) == 1, old
        text = run_cfg + new + "\n" if old is None else run_cfg.replace(old, new)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        for command in ("evolve", "evolve-linear", "entropy-report"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([command, "--config", str(cfg)]) == 1, (new, command)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"fdrates: error: {msg}\n", (new, command)


# a README config with lines changed, or added (old None), and the refusal
# that each command reading it gives: a key the command does not read with
# its data.kind, a data.kind of the other flow, a d the flow cannot take, or
# initial data that its data.kind cannot build
_UNREAD_KEYS = [
    ("lin.cfg", [(None, "D0 = 2.0")],
     "line 11: {command} with data.kind = generic does not read D0"),
    ("lin.cfg", [(None, "data.match_D = false")],
     "line 11: {command} with data.kind = generic does not read data.match_D"),
    ("lin.cfg", [(None, "data.epsilon = 0.3")],
     "line 11: {command} with data.kind = generic does not read data.epsilon"),
    ("lin.cfg", [(None, "data.seed = 4")],
     "line 11: {command} with data.kind = generic does not read data.seed"),
    ("lin.cfg", [(None, "data.kind = bump"), (None, "data.amplitude = 5")],
     "line 11: {command} does not take data.kind = bump; its kinds are generic, "
     "mode"),
    ("lin.cfg", [(None, "data.kind = eigen")],
     "line 11: {command} does not take data.kind = eigen; its kinds are generic, "
     "mode"),
    ("lin.cfg", [(None, "data.kind = mode"), (None, "data.epsilon = 0.3")],
     "line 12: {command} with data.kind = mode does not read data.epsilon"),
    ("lin.cfg", [("d = 5", "d = 1"), ("sector.l = 1", "sector.l = 2")],
     "line 3: {command} has no sector l = 2 in d = 1"),
    ("run.cfg", [(None, "sector.l = 3")],
     "line 14: {command} with data.kind = eigen does not read sector.l"),
    ("run.cfg", [(None, "data.amplitude = 5")],
     "line 14: {command} with data.kind = eigen does not read data.amplitude"),
    ("run.cfg", [(None, "data.seed = 3")],
     "line 14: {command} with data.kind = eigen does not read data.seed"),
    ("run.cfg", [("data.kind = eigen", "data.kind = mode")],
     "line 5: {command} does not take data.kind = mode; its kinds are "
     "profile-blend, eigen, bump"),
    ("run.cfg", [("data.kind = eigen", "data.kind = profile-blend"),
                 ("data.epsilon = 0.05", "data.clip = false")],
     "line 6: {command} with data.kind = profile-blend does not read data.clip"),
    ("run.cfg", [(None, "data.mode_k = 5")],
     "line 14: {command} with data.kind = eigen needs an admissible data.mode_k: "
     "mode (l, k) = (0, 5) is not admissible at d = 5, alpha = -10"),
    ("lin.cfg", [(None, "data.kind = mode"), (None, "data.mode_k = 7")],
     "line 12: {command} with data.kind = mode needs an admissible data.mode_k: "
     "mode (l, k) = (1, 7) is not admissible at d = 5, alpha = -10"),
    # profile-blend, the default kind, and matching D need both of D0 and D1
    ("run.cfg", [("data.kind = eigen", "# data.kind = eigen"),
                 ("data.epsilon", "# data.epsilon"), ("D0 =", "# D0 =")],
     "D0 unset: {command} with data.kind = profile-blend needs D0 and D1"),
    ("run.cfg", [("data.kind = eigen", "data.kind = profile-blend"),
                 ("data.epsilon", "# data.epsilon"), ("D1 =", "# D1 =")],
     "D1 unset: {command} with data.kind = profile-blend needs D0 and D1"),
    ("run.cfg", [("D0 =", "# D0 ="), ("D1 =", "# D1 =")],
     "data.match_D unset: {command} with data.kind = eigen needs D0 and D1, or "
     "data.match_D = false"),
    ("run.cfg", [("data.kind = eigen", "data.kind = bump"),
                 ("data.epsilon = 0.05", "data.match_D = true"), ("D0 =", "# D0 =")],
     "line 6: {command} with data.kind = bump needs D0 and D1, or "
     "data.match_D = false"),
]


def test_unread_keys_exit_1_before_any_flow(tmp_path, capsys, monkeypatch):
    # each command accepts only the keys it reads with its data.kind: any
    # other is refused in one error line that names the key, its line and
    # the command, before any flow runs
    for name in ("make_initial_data", "evolve_nonlinear", "evolve_linear_sector"):
        monkeypatch.setattr(flow_mod, name, None)
    configs = _readme()[0]
    commands = {"run.cfg": ("evolve", "entropy-report"), "lin.cfg": ("evolve-linear",)}
    for name, edits, msg in _UNREAD_KEYS:
        text = configs[name]
        for old, new in edits:
            assert old is None or text.count(old) == 1, old
            text = text + new + "\n" if old is None else text.replace(old, new)
        cfg = tmp_path / name
        cfg.write_text(text)
        for command in commands[name]:
            assert main([command, "--config", str(cfg)]) == 1, (edits, command)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"fdrates: error: {msg.format(command=command)}\n"


# the keys each command reads with each of its data.kinds, besides one of m
# and alpha, and a value for every key, on a small grid and a short run
_SHARED = ["d", "D", "data.kind", "grid.R_max", "grid.N", "time.dt", "time.t_end",
           "output.cadence", "fit.window_start", "fit.window_end", "fit.kind"]
_FLOW = _SHARED + ["D0", "D1", "data.match_D"]
_FLOW_KINDS = {"profile-blend": _FLOW,
               "eigen": _FLOW + ["data.epsilon", "data.mode_k", "data.clip"],
               "bump": _FLOW + ["data.seed", "data.amplitude", "data.clip"]}
_KEYS_READ = {"evolve": _FLOW_KINDS, "entropy-report": _FLOW_KINDS,
              "evolve-linear": {"generic": _SHARED + ["sector.l"],
                                "mode": _SHARED + ["sector.l", "data.mode_k"]}}
_VALUES = {"d": "5", "m": "0.9", "alpha": "-10", "D": "1.0", "D0": "2.0",
           "D1": "0.5", "data.match_D": "true", "data.clip": "true",
           "data.epsilon": "0.05", "data.mode_k": "1", "data.seed": "1",
           "data.amplitude": "0.1", "sector.l": "1", "grid.R_max": "15",
           "grid.N": "64", "time.dt": "1e-3", "time.t_end": "0.01",
           "output.cadence": "1e-3", "fit.window_start": "0",
           "fit.window_end": "0.01", "fit.kind": "exp"}


def test_each_command_takes_every_key_it_reads(tmp_path, capsys):
    # a config setting every key that a command reads with a data.kind runs,
    # and echoes exactly those keys; unset, data.kind is the command's first
    # kind.  The settable keys, m and alpha among them:
    assert {c: [len(keys) + 2 for keys in kinds.values()]
            for c, kinds in _KEYS_READ.items()} == {
        "evolve": [16, 19, 19], "entropy-report": [16, 19, 19],
        "evolve-linear": [14, 15]}
    results = {"matched_D", "fitted_rate", "fit_r2"}
    cfg = tmp_path / "all.cfg"
    for command, kinds in _KEYS_READ.items():
        for kind, keys in kinds.items():
            for exponent in ("m", "alpha"):
                values = dict(_VALUES, **{"data.kind": kind})
                cfg.write_text("".join(f"{k} = {values[k]}\n"
                                       for k in [*keys, exponent]))
                assert main([command, "--config", str(cfg)]) == 0, (command, kind)
                echo = {l[2:].split("=")[0] for l in capsys.readouterr().out.splitlines()
                        if l.startswith("# ") and "=" in l} - results
                assert echo == {*keys, exponent}, (command, kind)
        first = next(iter(kinds))
        cfg.write_text("".join(f"{k} = {_VALUES[k]}\n"
                               for k in kinds[first] + ["m"] if k != "data.kind"))
        assert main([command, "--config", str(cfg)]) == 0, command
        assert f"# data.kind={first}" in capsys.readouterr().out.splitlines()


def test_inadmissible_modes_exit_1(tmp_path, capsys, monkeypatch):
    # a mode outside the weighted space, or the constant (0, 0), is refused by
    # each command that starts from a mode, before any flow runs; at d = 5,
    # alpha = -10 the modes (0, k) are admissible for k = 1..4 and the modes
    # (1, k) for k = 0..3
    for name in ("evolve_nonlinear", "evolve_linear_sector"):
        monkeypatch.setattr(flow_mod, name, None)
    configs = _readme()[0]
    cfg = tmp_path / "mode.cfg"
    for name, extra, command, mode in (
            ("lin.cfg", "data.kind = mode\ndata.mode_k = 7", "evolve-linear", (1, 7)),
            ("run.cfg", "data.mode_k = 0", "evolve", (0, 0)),
            ("run.cfg", "data.mode_k = 5", "entropy-report", (0, 5))):
        cfg.write_text(configs[name] + extra + "\n")
        assert main([command, "--config", str(cfg)]) == 1, command
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert f"mode (l, k) = {mode} is not admissible at d = 5" in captured.err
    assert main(["quotient", "--d", "5", "--m", "0.9", "--f", "mode:5"]) == 1
    assert "mode (l, k) = (0, 5) is not admissible" in capsys.readouterr().err


def test_config_and_fit_rate_refuse_the_same_windows():
    # over a spread of time axes and windows, the config refuses a window
    # exactly when fit_rate refuses it on the trace the flow records, whose
    # rows are the config's rows j*cadence
    import numpy as np

    from fdrates import numerics
    from fdrates.entropy import fit_rate

    rng = random.Random(20261019)
    grid = numerics.build_grid(15.0, 16, 5)
    seen = set()
    for _ in range(120):
        dt = rng.choice([0.1, 0.05, 1e-3, 2e-4, 0.3, 1.0 / 3.0])
        n_sub, n_rec = rng.randint(1, 4), rng.randint(1, 40)
        t_end, cadence = n_sub * n_rec * dt, n_sub * dt
        kind = rng.choice(["exp", "loglog"])

        def end():
            # mostly a row time, the first, the last or any, or one off it by
            # about the time tolerance
            if rng.random() < 0.2:
                return rng.uniform(-0.2 * t_end, 1.2 * t_end)
            j = rng.choice([0, n_rec, rng.randint(0, n_rec)])
            off = rng.choice([0.0, 5e-10, -5e-10, 2e-9, -2e-9]) * max(t_end, 1.0)
            return j * cadence + off
        window = (end(), end())
        text = (f"d = 5\nalpha = -10\nsector.l = 1\ntime.dt = {dt!r}\n"
                f"time.t_end = {t_end!r}\noutput.cadence = {cadence!r}\n"
                f"fit.window_start = {window[0]!r}\n"
                f"fit.window_end = {window[1]!r}\nfit.kind = {kind}\n")
        try:
            parse_config(text)
            config_refuses = False
        except ConfigError as e:
            assert "window" in str(e), e  # and not the time axis
            config_refuses = True
        r = grid.nodes
        state = flow_mod.LinearState(grid=grid, alpha=-10.0, D=1.0, l=1,
                                     f=r * np.exp(-r**2))
        trace = flow_mod.evolve_linear_sector(state, t_end, dt, cadence=cadence)
        assert list(trace.t) == [j * cadence for j in range(n_rec + 1)]
        try:
            fit = fit_rate(trace, window, kind=kind)
        except ValueError as e:
            assert config_refuses, (text, e)
            seen.update(why for why in ("before the trace start", "beyond the "
                                        "trace end", "need >= 10", "positive times")
                        if why in str(e))
            continue
        assert not config_refuses, text
        assert fit.n_samples >= 10
        seen.add("taken")
    # the spread reaches each outcome
    assert seen == {"taken", "before the trace start", "beyond the trace end",
                    "need >= 10", "positive times"}, seen


def test_bad_float_options_exit_1_naming_the_option(capsys):
    for argv, option, bad in (
            (["gronwall", "--d", "5", "--m", "0.9", "--F0", "1"], "--Lambda", "inf"),
            (["gronwall", "--d", "5", "--m", "0.9", "--F0", "1"], "--t-end", "inf"),
            (["rescale", "--d", "5", "--m", "0.8", "--tau", "2"], "--T", "nan"),
            (["rescale", "--d", "5", "--m", "0.8", "--tau", "2"], "--y", "inf")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + [option, bad]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"fdrates: error: argument {option}: expected "
                                     f"a finite number, got '{bad}'\n")
        assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# the process entry, run(), behind `fdrates` and `python -m fdrates.cli`


def test_process_entry_matches_main(tmp_path, monkeypatch, capsys):
    # each process exits with main's code and prints main's stdout byte for
    # byte; --output files are complete, and --help exits through SystemExit
    monkeypatch.setenv("COLUMNS", "80")  # one --help layout in both
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 1\n")
    singular = tmp_path / "singular.cfg"
    singular.write_text("d = 5\nm = 0.9\ndata.kind = bump\ndata.amplitude = 1e300\n"
                        "data.match_D = false\ngrid.N = 100\ntime.t_end = 0.01\n")
    evolve = ["evolve", "--config", _evolve_config(tmp_path), "--output", "trace.csv"]
    cases = [(0, ["constants", "--d", "5", "--m", "0.9"]),
             (0, evolve),
             (1, ["evolve", "--config", str(bad)]),
             (2, ["evolve", "--config", str(singular)]),
             (0, ["--help"])]
    trace = tmp_path / "trace.csv"
    env = _process_env()
    for code, argv in cases:
        proc = subprocess.run([sys.executable, "-m", "fdrates.cli", *argv],
                              env=env, capture_output=True, timeout=120)
        written = trace.read_bytes() if argv is evolve else None
        try:
            got = main(argv)
        except SystemExit as e:
            got = e.code
        out = capsys.readouterr()
        assert proc.returncode == got == code, argv
        assert proc.stdout == out.out.encode(), argv
        if code:
            assert proc.stderr.decode() == out.err, argv
        if written is not None:
            assert written == trace.read_bytes()
            rows = [l for l in written.decode().splitlines() if not l.startswith("#")]
            assert len(rows) == 12 and written.endswith(b"\n")  # header + 11 rows
    assert out.out.startswith("usage: fdrates")


def test_process_entry_keeps_user_thread_settings():
    # run() defaults the BLAS thread variables to 1, leaves a value the user
    # set, and exits without the interpreter teardown that runs atexit hooks
    code = textwrap.dedent("""
        import atexit, os
        import fdrates.cli as cli

        def main():
            print(*(os.environ.get(v) for v in cli._BLAS_THREAD_VARS))
            return 3

        cli.main = main
        atexit.register(print, "teardown")
        cli.run()
    """)
    env = _process_env(OPENBLAS_NUM_THREADS="4")
    env.pop("OMP_NUM_THREADS", None)
    env.pop("MKL_NUM_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "4 1 1\n", "")


def test_console_script_calls_the_module_entry():
    # [project.scripts] names the function that `python -m fdrates.cli` calls
    import ast
    import re

    import fdrates.cli

    root = Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    entry = re.search(r'^fdrates\s*=\s*"([^"]+)"', scripts, re.M).group(1)
    tree = ast.parse(Path(fdrates.cli.__file__).read_text(encoding="utf-8"))
    (block,) = [n for n in tree.body if isinstance(n, ast.If)
                and ast.unparse(n.test) == "__name__ == '__main__'"]
    (stmt,) = block.body
    assert isinstance(stmt.value, ast.Call) and not stmt.value.args
    assert entry == f"fdrates.cli:{stmt.value.func.id}" == "fdrates.cli:run"


def _readme():
    """The README's configs, each ini block under the file name the text
    before it gives, and the fdrates lines of its sh blocks."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    configs, lines = {}, []
    for block in re.finditer(r"```(\w+)\n(.*?)```", readme, re.S):
        kind, body = block.groups()
        if kind == "ini":
            name = re.findall(r"`(\w+\.cfg)`", readme[:block.start()])[-1]
            configs[name] = body
        elif kind == "sh":
            lines += [l for l in body.splitlines() if l.startswith("fdrates ")]
    return configs, lines


@pytest.mark.readme
def test_readme_names_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    assert [k for k in cli._CONFIG_KEYS if f"`{k}`" not in readme] == []


@pytest.mark.readme
def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # every fdrates line of the README's sh blocks runs and exits 0, from a
    # directory holding the README's run.cfg and lin.cfg
    import shlex

    configs, lines = _readme()
    assert sorted(configs) == ["lin.cfg", "run.cfg"]
    assert len(lines) == 10
    monkeypatch.chdir(tmp_path)
    for name, body in configs.items():
        (tmp_path / name).write_text(body, encoding="utf-8")
    for line in lines:
        argv = shlex.split(line)[1:]
        assert main(argv) == 0, line
        captured = capsys.readouterr()
        assert captured.err == "", line
        # the output main writes, on stdout or in the --output file: one JSON
        # line, or the title, '# key=value' lines and the CSV header and rows
        out = (Path(argv[argv.index("--output") + 1]).read_text()
               if "--output" in argv else captured.out)
        assert out.endswith("\n") and ("--output" not in argv or captured.out == "")
        if "json" in argv:
            assert out.count("\n") == 1 and isinstance(json.loads(out), dict), line
            continue
        title, *rest = out.splitlines()
        assert title == f"# fdrates {argv[0]}", line
        echo = [l for l in rest if l.startswith("#")]
        assert rest[:len(echo)] == echo, line
        assert all(re.fullmatch(r"# [\w.]+=\S+", l) for l in echo), line
        header, *rows = rest[len(echo):]
        assert re.fullmatch(r"[\w]+(,[\w]+)+", header) and rows, line
        assert {r.count(",") for r in rows} == {header.count(",")}, line


@pytest.mark.readme
def test_readme_config_lines_as_processes(tmp_path, monkeypatch, capsys):
    # the README's config command lines, each run as a fresh process through
    # python -m fdrates.cli (the console script's run()), exit 0 and write
    # the stdout and --output file that main writes in-process; the
    # processes run while main does
    import shlex

    configs, lines = _readme()
    argvs = [shlex.split(l)[1:] for l in lines]
    argvs = [a for a in argvs if a[0] in ("evolve", "evolve-linear", "entropy-report")]
    assert [a[0] for a in argvs] == ["evolve", "evolve-linear", "entropy-report"]
    dirs = {side: tmp_path / side for side in ("process", "main")}
    for path in dirs.values():
        path.mkdir()
        for name, body in configs.items():
            (path / name).write_text(body, encoding="utf-8")
    with contextlib.ExitStack() as stack:
        procs = [stack.enter_context(subprocess.Popen(
            [sys.executable, "-m", "fdrates.cli", *argv], cwd=dirs["process"],
            env=_process_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE))
            for argv in argvs]
        monkeypatch.chdir(dirs["main"])
        for argv, proc in zip(argvs, procs):
            assert main(argv) == 0, argv
            captured = capsys.readouterr()
            out, err = proc.communicate(timeout=120)
            assert (proc.returncode, err, captured.err) == (0, b"", ""), argv
            assert out.decode() == captured.out, argv
    # the evolve line's --output file, beside the configs
    names = sorted(p.name for p in dirs["process"].iterdir())
    assert names == sorted(p.name for p in dirs["main"].iterdir())
    assert names == ["lin.cfg", "run.cfg", "trace.csv"]
    for name in names:
        assert (dirs["process"] / name).read_bytes() == (dirs["main"] / name).read_bytes()


@pytest.mark.readme
def test_readme_run_cfg_without_cadence(tmp_path, capsys):
    # the default cadence: k0 = round(1250/200) = 6 steps per row does not
    # divide the 1250 steps, so the rows are 5 steps apart, 251 with t = 0;
    # the dilation mode decays at rate 2*lambda_(0,1) = 60
    run_cfg = _readme()[0]["run.cfg"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(run_cfg.replace("output.cadence = 0.005\n", ""))
    assert "cadence" not in cfg.read_text()
    assert main(["evolve", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [l for l in lines if not l.startswith("#")][1:]
    t = [float(r.split(",")[0]) for r in rows]
    assert len(rows) == 251 and t[1] == pytest.approx(1e-3) and t[-1] == 0.25
    fit = dict(l[2:].split("=") for l in lines if l.startswith(("# fit")))
    assert float(fit["fitted_rate"]) == pytest.approx(60.0, rel=0.05)
    assert float(fit["fit_r2"]) >= 0.999


@pytest.mark.readme
def test_readme_run_cfg_matched_in_few_evaluations(monkeypatch):
    # solve_D narrows its bracket to adjacent doubles in at most 16 defect
    # evaluations, and the matched state's defect is at the rounding floor;
    # each evaluation re-expresses the data through one
    # _profile_ratio_minus_one call, which counts them
    import fdrates.profiles as prof
    from fdrates.entropy import Weights, mass_defect_from_x

    calls, ratio = [], prof._profile_ratio_minus_one
    monkeypatch.setattr(prof, "_profile_ratio_minus_one",
                        lambda *a: calls.append(a) or ratio(*a))
    state = cli._build_state(parse_config(_readme()[0]["run.cfg"]))
    assert 2 < len(calls) <= 16
    wts = Weights.of(state.grid, state.profile)
    assert abs(mass_defect_from_x(state.x, wts)) <= 1e-15


def test_eigen_data_outside_the_radial_sector_exit_1(tmp_path, capsys, monkeypatch):
    # each command supplies the sector of its mode, so the retired
    # data.mode_l is an unknown key, refused by the three commands that read
    # a config in one error line, with its line named, before any flow runs
    for name in ("make_initial_data", "evolve_nonlinear", "evolve_linear_sector"):
        monkeypatch.setattr(flow_mod, name, None)
    run_cfg = _readme()[0]["run.cfg"]
    text = "".join(l for l in run_cfg.splitlines(keepends=True)
                   if not l.startswith("fit."))
    cfg = tmp_path / "mode1.cfg"
    cfg.write_text(text.replace("time.t_end = 0.25", "time.t_end = 0.01")
                   + "data.mode_l = 1\n")
    for command in ("evolve", "evolve-linear", "entropy-report"):
        assert main([command, "--config", str(cfg)]) == 1, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "fdrates: error: line 12: unknown key 'data.mode_l'\n"


@pytest.mark.readme
def test_readme_lin_cfg_from_its_sector_mode(tmp_path, capsys):
    # data.kind = mode starts the README's lin.cfg from the mode
    # (sector.l, data.mode_k) = (1, 1): the trace is that of the linear flow
    # run directly from that mode
    from fdrates.numerics import build_grid

    cfg = tmp_path / "lin.cfg"
    cfg.write_text(_readme()[0]["lin.cfg"] + "data.kind = mode\n")
    assert main(["evolve-linear", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert [l for l in lines if l.startswith("# data.")] == [
        "# data.kind=mode", "# data.mode_k=1"]
    grid = build_grid(15.0, 800, 5)
    f0 = spec_mod.mode_field(spec_mod.discrete_mode(5, Fraction(-10), 1, 1), grid)
    state = flow_mod.LinearState(grid=grid, alpha=Fraction(-10), D=1.0, l=1, f=f0)
    trace = flow_mod.evolve_linear_sector(state, 0.5, 1e-4, cadence=0.005)
    rows = [",".join(map(cli._fmt, row)) for row in trace.rows()]
    assert [l for l in lines if not l.startswith("#")][1:] == rows


def _into_closed_stdout(argv, env):
    """Run the command with its stdout a pipe whose read end is closed
    before it starts; (exit status, stderr)."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "fdrates.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("argv", [
    # output that run() flushes, and output that main's write hands to the pipe
    ["constants", "--d", "5", "--m", "0.9"],
    ["gronwall", "--d", "5", "--m", "0.9", "--F0", "1.0", "--t-end", "1"],
    # help texts, which leave main by argparse's SystemExit
    ["--help"],
    ["gronwall", "--help"]])
def test_process_entry_closed_stdout_exits_141(argv):
    # the child exits quietly, as a process SIGPIPE ended would
    assert _into_closed_stdout(argv, _process_env()) == (141, b"")


def test_help_into_closed_unbuffered_stdout_exits_141():
    # unbuffered, the help text's own write fails, inside main
    env = _process_env(PYTHONUNBUFFERED="1")
    assert _into_closed_stdout(["--help"], env) == (141, b"")
