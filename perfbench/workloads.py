"""The benchmark's workloads: inputs drawn from a seed, operations, checks.

Every operation returns (answer, ok, err): its headline numbers as a dict,
whether they are within the tolerances of tests/test_acceptance.py, and the
relative error of the headline number against the closed form (None where
the operation has no closed-form headline).  Closed-form values are written
out here rather than taken from fdrates.exponents, so that a broken formula
cannot vouch for itself; the cli checks compare against fdrates.exponents
as well.

Seed 0 reproduces the acceptance inputs.  Any other seed draws, inside
narrow ranges around them, the free parameters that leave the work and the
answers comparable across seeds while no two seeds share an input:
  - the profile scale D of the linear sector flows, log-uniformly in [1, 4]
    (the range of the D-scale invariance acceptance test), with every radius
    scaled by sqrt(D), which leaves the problem the same up to rounding;
  - the amplitude epsilon of the eigen run's initial perturbation, in
    [0.045, 0.055];
  - the height of the critical run's bump, in [0.09, 0.10].
The eigen run keeps D = 1 because its initial data are the D = 1 dilation
mode, and the verify_constants cases keep the acceptance inputs because on
D-scaled inputs the eigensolver stalls now and then, which a fixed probe
shows instead.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import fdrates.entropy as ENT
import fdrates.exponents as EXP
import fdrates.flow as FL
import fdrates.numerics as NUM

# Lambda(alpha, d) of the source paper at the (d, alpha) points used below
SHARP = {(5, -1.0): 0.25, (5, -2.0): 0.25, (5, -4.0): 6.0, (5, -6.0): 12.0,
         (4, -3.0): 4.0, (3, -2.0): 2.25, (2, -3.0): 6.0, (5, -10.0): 20.0}
VERIFY_CASES = ((5, -1.0), (5, -4.0), (5, -6.0), (4, -3.0), (3, -2.0), (2, -3.0))
# known defects, as (d, alpha, D): (5, -2) lies inside the first branch, yet
# the eigensolver stalls on it; (3, -2) passes at D = 1 and stalls at this D
VERIFY_PROBES = ((5, -2.0, 1.0), (3, -2.0, 1.3871234407579895))
VERIFY_TOL = 0.03
# radial data decay at twice the dilation eigenvalue -4 alpha - 2d = 30 at
# (d, alpha) = (5, -10); l=1 data at twice the translation level -2 alpha = 20
EIGEN_RATE = 60.0
LINEAR_RATE = 40.0

# grid sizes and time steps; "tiny" is for the benchmark's own tests
SIZES = {
    "full": dict(eigen_N=800, eigen_dt=2e-4, crit_N=2000, crit_dt=0.05,
                 verify_N=1600, lin_N=800, lin_dt=1e-4, quotient=[]),
    "tiny": dict(eigen_N=64, eigen_dt=5e-3, crit_N=64, crit_dt=2.0,
                 verify_N=64, lin_N=64, lin_dt=5e-3, quotient=["--N", "100"]),
}


@dataclass(frozen=True)
class Inputs:
    D: float          # profile scale of the linear flows; radii scale with sqrt(D)
    epsilon: float    # size of the eigen run's initial perturbation
    amplitude: float  # height of the critical run's bump


def draw_inputs(seed: int) -> Inputs:
    if seed == 0:
        return Inputs(D=1.0, epsilon=0.05, amplitude=0.1)
    rng = random.Random(seed)
    return Inputs(D=4.0 ** rng.random(), epsilon=0.045 + 0.01 * rng.random(),
                  amplitude=0.09 + 0.01 * rng.random())


@dataclass(frozen=True)
class Operation:
    name: str
    run: Callable[[], tuple]


def _rel(x, ref):
    return abs(x - ref) / abs(ref)


def run_operation(op: Operation) -> dict:
    """Run and check one operation; a failure is recorded, never raised."""
    t0 = time.perf_counter()
    try:
        answer, ok, err = op.run()
    except Exception as e:  # the pass goes on; the failure is reported
        return {"name": op.name, "ok": False, "err": None, "answer": None,
                "error": f"{type(e).__name__}: {e}"[:200],
                "s": time.perf_counter() - t0}
    return {"name": op.name, "ok": bool(ok), "err": err, "answer": answer,
            "error": None if ok else "outside tolerance",
            "s": time.perf_counter() - t0}


# ---------------------------------------------------------------------------
# flow: the two acceptance runs of evolve_nonlinear


def _eigen_flow(inp: Inputs, sz: dict) -> Operation:
    def run():
        e = EXP.derive_exponents(5, 0.9)
        grid = NUM.build_grid(15.0, sz["eigen_N"], 5)
        st = FL.make_initial_data(grid, e, "eigen", D=1.0, D0=2.0, D1=0.5,
                                  epsilon=inp.epsilon, mode=(0, 1))
        tr = FL.evolve_nonlinear(st, 0.25, sz["eigen_dt"], cadence=0.005,
                                 track_sandwich=True)
        fit = ENT.fit_rate(tr, (0.1, 0.22))
        drift = float(np.max(np.abs(tr.mass_defect - tr.mass_defect[0])))
        err = _rel(fit.rate, EIGEN_RATE)
        ok = err <= 0.05 and fit.r2 >= 0.999 and drift <= 1e-12
        return {"rate": fit.rate, "r2": fit.r2, "drift": drift}, ok, err

    return Operation("flow.eigen", run)


def _critical_flow(inp: Inputs, sz: dict) -> Operation:
    def run():
        e = EXP.derive_exponents(5, 1.0 / 3.0)
        grid = NUM.build_grid(float(np.sinh(90.0)), sz["crit_N"], 5)
        st = FL.make_initial_data(grid, e, "bump", D=1.0, amplitude=inp.amplitude,
                                  match_D=False, clip=False)
        tr = FL.evolve_nonlinear(st, 200.0, sz["crit_dt"], cadence=2.0,
                                 track_sandwich=True)
        fit = ENT.fit_rate(tr, (20.0, 200.0), kind="loglog")
        scale = abs(tr.mass_defect[0]) + 1e-30
        drift = float(np.max(np.abs(tr.mass_defect - tr.mass_defect[0]))) / scale
        slack = min(min(s.slack_entropy_lower, s.slack_entropy_upper, s.slack_fisher)
                    for s in tr.sandwich)
        ok = -0.7 <= fit.rate <= -0.4 and drift <= 1e-10 and slack >= 0.0
        return ({"slope": fit.rate, "drift_rel": drift, "min_slack": float(slack)},
                ok, _rel(fit.rate, -0.5))

    return Operation("flow.critical", run)


# ---------------------------------------------------------------------------
# verify: sharp constants by FEM eigensolves, then a linear sector flow


def _verify_case(d: int, alpha: float, D: float, sz: dict) -> Operation:
    closed = SHARP[(d, alpha)]

    def run():
        res = NUM.verify_constants(d, alpha, D=D, l_max=3,
                                   R_max=100.0 * math.sqrt(D), N=sz["verify_N"])
        ok = res.rel_err <= VERIFY_TOL and _rel(res.closed_form, closed) <= 1e-12
        return ({"minimum": res.minimum, "rel_err": res.rel_err}, ok,
                _rel(res.minimum, closed))

    suffix = "" if D == 1.0 else f".D{D:.5g}"
    return Operation(f"verify.d{d}.a{alpha:g}{suffix}", run)


def _linear_flow(inp: Inputs, sz: dict) -> Operation:
    def run():
        sq = math.sqrt(inp.D)
        grid = NUM.build_grid(15.0 * sq, sz["lin_N"], 5, scale=sq)
        rho = grid.nodes / sq
        st = FL.LinearState(grid=grid, alpha=-10.0, D=inp.D, l=1,
                            f=rho * np.exp(-rho**2))
        tr = FL.evolve_linear_sector(st, 0.5, sz["lin_dt"], cadence=0.005)
        rate = ENT.fit_rate(tr, (0.2, 0.45)).rate
        err = _rel(rate, LINEAR_RATE)
        return {"rate": rate}, err <= 0.03, err

    return Operation("verify.linear_l1", run)


# ---------------------------------------------------------------------------
# cli: the README's command lines, each in a fresh process


class CliFailure(RuntimeError):
    """A cli process exited non-zero."""


class CliRunner:
    """Runs `python -m fdrates.cli` (or its traced twin) inside workdir and
    keeps, per pass, the sums of the child processes' timings and spans."""

    def __init__(self, workdir: Path, traced: bool):
        self.workdir = workdir
        self.traced = traced
        self.reset()

    def reset(self):
        self.stats = {"import_s": 0.0, "main_s": 0.0, "spawn_s": 0.0,
                      "output_bytes": 0}
        self.spans = {}

    def __call__(self, args, output_file=None):
        if self.traced:
            trace_file = self.workdir / "cli_trace.json"
            cmd = [sys.executable, str(Path(__file__).with_name("clitrace.py")),
                   str(trace_file), *args]
        else:
            cmd = [sys.executable, "-m", "fdrates.cli", *args]
        if output_file is not None:
            (self.workdir / output_file).unlink(missing_ok=True)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.workdir, capture_output=True,
                              text=True, timeout=150)
        wall = time.perf_counter() - t0
        nbytes = len(proc.stdout.encode())
        if output_file is not None and (self.workdir / output_file).is_file():
            nbytes += (self.workdir / output_file).stat().st_size
        self.stats["output_bytes"] += nbytes
        if self.traced and trace_file.exists():
            rec = json.loads(trace_file.read_text())
            trace_file.unlink()
            self.stats["import_s"] += rec["import_s"]
            self.stats["main_s"] += rec["main_s"]
            self.stats["spawn_s"] += wall - rec["import_s"] - rec["main_s"]
            for name, vals in rec["spans"].items():
                acc = self.spans.setdefault(name, {})
                for k, v in vals.items():
                    acc[k] = acc.get(k, 0) + v
        if proc.returncode != 0:
            raise CliFailure(f"exit {proc.returncode}")
        return proc.stdout


def _comments(text):
    out = {}
    for line in text.splitlines():
        if line.startswith("# ") and "=" in line:
            k, _, v = line[2:].partition("=")
            out[k] = v
    return out


def _rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _run_cfg(inp: Inputs, sz: dict) -> str:
    return "\n".join([
        "d = 5", "m = 0.9", "D0 = 2.0", "D1 = 0.5",
        "data.kind = eigen", f"data.epsilon = {inp.epsilon!r}",
        "grid.R_max = 15", f"grid.N = {sz['eigen_N']}",
        f"time.dt = {sz['eigen_dt']!r}", "time.t_end = 0.25",
        "output.cadence = 0.005", "fit.window_start = 0.1",
        "fit.window_end = 0.22", ""])


def _lin_cfg(inp: Inputs, sz: dict) -> str:
    sq = math.sqrt(inp.D)
    return "\n".join([
        "d = 5", "alpha = -10", f"D = {inp.D!r}", "sector.l = 1",
        f"grid.R_max = {15.0 * sq!r}", f"grid.N = {sz['lin_N']}",
        f"time.dt = {sz['lin_dt']!r}", "time.t_end = 0.5",
        "output.cadence = 0.005", "fit.window_start = 0.2",
        "fit.window_end = 0.45", ""])


def _check_hp_verify(out):
    rows = [r for r in _rows(out) if r["l"] == "min"]
    worst, ok = 0.0, len(rows) == 3
    for r in rows:
        closed = SHARP[(5, float(r["alpha"]))]
        ok &= (float(r["rel_err"]) <= VERIFY_TOL
               and _rel(float(r["lambda_closed_form"]), closed) <= 1e-12)
        worst = max(worst, _rel(float(r["lambda_numeric"]), closed))
    return {"lambda_numeric": [float(r["lambda_numeric"]) for r in rows]}, ok, worst


def _cli_ops(inp: Inputs, sz: dict, cli: CliRunner):
    (cli.workdir / "run.cfg").write_text(_run_cfg(inp, sz))
    (cli.workdir / "lin.cfg").write_text(_lin_cfg(inp, sz))
    ops = []

    def op(name, args, parse, output_file=None):
        """parse(stdout) -> (answer, within tolerance, relative error)"""
        ops.append(Operation(f"cli.{name}",
                             lambda: parse(cli(args, output_file))))

    def constants(out):
        o = json.loads(out)
        lam = o["Lambda"]
        ok = _rel(lam, float(EXP.sharp_rate(5, o["alpha"]))) <= 1e-12
        err = _rel(lam, SHARP[(5, -10.0)])
        return {"Lambda": lam}, ok and err <= 1e-12, err

    def spectrum(out):
        lam = float(_comments(out)["sharp_constant"])
        ok = _rel(lam, float(EXP.sharp_rate(5, -10))) <= 1e-12
        err = _rel(lam, SHARP[(5, -10.0)])
        return {"sharp_constant": lam}, ok and err <= 1e-12, err

    def eigenfunction(out):
        c = _comments(out)
        lam, resid = float(c["lambda"]), float(c["max_ode_residual"])
        closed = 2.0 * 10.0 * 2 - 4 * (1 + 5 / 2 - 1)  # -2a(l+2k) - 4k(k+l+d/2-1)
        err = _rel(lam, closed)
        return {"lambda": lam, "residual": resid}, err <= 1e-12 and resid <= 1e-10, err

    def evolve(out):
        text = (cli.workdir / "trace.csv").read_text()
        c = _comments(text)
        rate, r2 = float(c["fitted_rate"]), float(c["fit_r2"])
        md = np.array([float(r["mass_defect"]) for r in _rows(text)])
        drift = float(np.max(np.abs(md - md[0])))
        err = _rel(rate, EIGEN_RATE)
        return ({"rate": rate, "r2": r2, "drift": drift},
                err <= 0.05 and r2 >= 0.999 and drift <= 1e-12, err)

    def evolve_linear(out):
        rate = float(_comments(out)["fitted_rate"])
        err = _rel(rate, LINEAR_RATE)
        return {"rate": rate}, err <= 0.03, err

    def entropy_report(out):
        kv = {r["key"]: float(r["value"]) for r in _rows(out)}
        slacks = [kv["slack_entropy_lower"], kv["slack_entropy_upper"],
                  kv["slack_fisher"]]
        ok = min(slacks) >= 0.0 and 0.5 <= kv["matched_D"] <= 2.0  # D1 <= D <= D0
        return {"min_slack": min(slacks), "matched_D": kv["matched_D"]}, ok, None

    def gronwall(out):
        c = _comments(out)
        lam, dt = float(c["Lambda"]), float(c["dt"])
        rows = _rows(out)
        t = np.array([float(r["t"]) for r in rows])
        G = np.array([float(r["G"]) for r in rows])
        # with C = 0 the ODE is dG/dt = -2 Lambda G, whose RK4 solution is
        # F0 R(z)^n with R the degree-4 Taylor polynomial of exp(-z)
        z = 2.0 * lam * dt
        R = 1.0 - z + z**2 / 2.0 - z**3 / 6.0 + z**4 / 24.0
        rk4 = R ** np.arange(len(t))
        alpha = float(EXP.derive_exponents(5, 0.9).alpha)
        ok = (float(np.max(np.abs(G - rk4) / rk4)) <= 1e-10
              and _rel(lam, float(EXP.sharp_rate(5, alpha))) <= 1e-12
              and _rel(lam, SHARP[(5, -10.0)]) <= 1e-12)
        exact = np.exp(-2.0 * lam * t)
        return ({"Lambda": lam, "G_end": float(G[-1])}, ok,
                float(np.max(np.abs(G - exact) / exact)))

    def quotient(out):
        q = [float(r["quotient"]) for r in _rows(out)]
        ok = len(q) == 3 and min(q) >= 2.0 and abs(q[1] - q[2]) < abs(q[0] - q[1])
        return {"quotient": q}, ok, None

    def rescale(out):
        row = _rows(out)[0]
        regime = _comments(out)["regime"]
        # d=5, m=0.8 > m_c=3/5: R = (T+tau)^(1/(d(m-m_c))) = 3, t = (1-m)/2 log R,
        # x = sqrt((1-m)/(2d(m-m_c))) y/R, v = R^d u
        want = {"R": 3.0, "t": 0.1 * math.log(3.0), "x": math.sqrt(0.1) / 3.0,
                "v": 243.0}
        got = {k: float(row[k]) for k in want}
        err = max(_rel(got[k], want[k]) for k in want)
        ok = err <= 1e-12 and regime == EXP.derive_exponents(5, 0.8).regime.value
        return got, ok, err

    op("constants", ["constants", "--d", "5", "--m", "0.9", "--format", "json"], constants)
    op("spectrum", ["spectrum", "--d", "5", "--alpha", "-10"], spectrum)
    op("hp-verify", ["hp-verify", "--d", "5", "--alpha=-1,-4,-6", "--R", "100",
                     "--N", str(sz["verify_N"])], _check_hp_verify)
    op("eigenfunction", ["eigenfunction", "--d", "5", "--alpha", "-10", "--l", "0",
                         "--k", "1"], eigenfunction)
    op("evolve", ["evolve", "--config", "run.cfg", "--output", "trace.csv"], evolve,
       output_file="trace.csv")
    op("evolve-linear", ["evolve-linear", "--config", "lin.cfg"], evolve_linear)
    op("entropy-report", ["entropy-report", "--config", "run.cfg"], entropy_report)
    op("gronwall", ["gronwall", "--d", "5", "--m", "0.9", "--F0", "1.0", "--t-end", "1",
                    "--dt", "1e-3"], gronwall)
    op("quotient", ["quotient", "--d", "5", "--m", "0.9", "--f", "gauss", "--n",
                    "100,200,400", *sz["quotient"]], quotient)
    op("rescale", ["rescale", "--d", "5", "--m", "0.8", "--T", "1", "--tau", "2",
                   "--y", "1", "--u", "1"], rescale)

    # the README line as written; argument parsing rejects it today
    readme = ["hp-verify", "--d", "5", "--alpha", "-1,-4,-6", "--R", "100",
              "--N", str(sz["verify_N"])]
    probe = Operation("cli.hp-verify.readme", lambda: _check_hp_verify(cli(readme)))
    return ops, [probe]


# ---------------------------------------------------------------------------


def build(workload: str, seed: int, size: str, cli: Optional[CliRunner] = None):
    """(operations timed in every pass, known-defect probes run once)."""
    inp, sz = draw_inputs(seed), SIZES[size]
    if workload == "flow":
        return [_eigen_flow(inp, sz), _critical_flow(inp, sz)], []
    if workload == "verify":
        ops = [_verify_case(d, a, 1.0, sz) for d, a in VERIFY_CASES]
        ops.append(_linear_flow(inp, sz))
        return ops, [_verify_case(d, a, D, sz) for d, a, D in VERIFY_PROBES]
    if workload == "cli":
        return _cli_ops(inp, sz, cli)
    raise ValueError(f"unknown workload {workload!r}")


def environment() -> dict:
    import platform

    import mpmath
    import scipy

    import fdrates._kernels

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "nproc": os.cpu_count(), "kernel_backend": fdrates._kernels.BACKEND}
