#!/usr/bin/env python3
"""fdrates benchmark: time to a checked answer, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload flow|verify|cli|all --seed N \\
        --seconds S --trace 0|1

Workloads (closed loop, one operation at a time, one client):
  flow    the two acceptance runs of evolve_nonlinear (eigen and critical);
  verify  verify_constants on the six acceptance (d, alpha) cases, then the
          l=1 linear sector flow at alpha=-10;
  cli     the README's command lines, each a fresh `python -m fdrates.cli`.

Known defects are run once per run as untimed probes, outside the passes:
verify_constants at (5, -2) and at (3, -2) with D = 1.387... in verify, and
the README's `hp-verify --alpha -1,-4,-6` line in cli.  They count in
ok_ratio only, not in `attempted` or `failed`, so that fixing one raises
ok_ratio and leaves pass_s alone.

--trace 0 prints the end-to-end metrics: setup_s (median fresh-process
import time), pass_s and cpu_s (median wall and CPU seconds, children
included, of one pass over the operations), peak_rss_mb of the process that
runs the operations, ok_ratio (operations and probes that returned a checked
answer in every pass, over all of them) and answer_err.max (worst relative
error of a headline number against the paper's closed form).  The three
times are scaled to a fixed machine speed, measured by a reference in
speed.py before and after each timed step, so that the drift of a shared
machine's speed cancels; the unscaled medians are printed above the result
line.

--trace 1 spends half the time untraced and half with every layer's entry
points wrapped (see tracing.py), and prints the per-layer metrics, including
the tracing overhead and the share of traced pass time that the spans' self
times account for.  Span times are unscaled; trace.pass_s and
trace.overhead_s are scaled like pass_s.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the environment and
each operation's outcome.  --workload all runs every workload, untraced and
traced, and prints every table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import speed
from tracing import CALLERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("flow", "verify", "cli")
SETUP_SAMPLES = 5

# modules each workload imports; setup_s times a fresh process importing them
SETUP_MODULES = {
    "flow": ["fdrates", "fdrates.flow", "fdrates.entropy", "fdrates.numerics",
             "fdrates.exponents", "fdrates.profiles", "fdrates.spectral"],
    "verify": ["fdrates", "fdrates.numerics", "fdrates.flow", "fdrates.entropy",
               "fdrates.exponents"],
    "cli": ["fdrates.cli"],
}
SETUP_SNIPPET = (
    "import importlib, sys, time\n"
    "t = time.perf_counter()\n"
    "for m in sys.argv[1:]:\n"
    "    importlib.import_module(m)\n"
    "print(repr(time.perf_counter() - t))\n"
)

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"),
              ("answer_err.max", "ratio"))


def _per_layer_spec():
    """(metric, unit, span name, field); field None marks a derived metric."""
    spec = [("kernels.newton_step.calls", "count", "kernels.newton_step", "calls"),
            ("kernels.newton_step.s", "s", "kernels.newton_step", "s"),
            ("kernels.newton_step.iters", "count", "kernels.newton_step", "iters"),
            ("kernels.newton_step.fails", "count", "kernels.newton_step", "nulls")]
    for solver in ("linalg.solve_banded", "linalg.lapack"):
        for caller in CALLERS:
            span = f"{solver}.{caller}"
            spec += [(f"{span}.calls", "count", span, "calls"),
                     (f"{span}.s", "s", span, "s")]
    for span, fields in (
            ("numerics.assemble_sector_forms", ("calls", "s")),
            ("numerics.bottom_eigenvalue", ("calls", "s", "self_s")),
            ("numerics.verify_constants", ("calls", "s")),
            ("flow.evolve_nonlinear", ("calls", "s", "self_s")),
            ("flow.evolve_linear_sector", ("calls", "s", "self_s")),
            ("flow.make_initial_data", ("s",)),
            ("entropy.record", ("calls", "s")),
            ("entropy.fit_rate", ("s",)),
            ("profiles.solve_D", ("calls", "s")),
            ("spectral.discrete_mode", ("s",)),
            ("spectral.ode_residual", ("s",))):
        spec += [(f"{span}.{f}", "count" if f == "calls" else "s", span, f)
                 for f in fields]
    spec += [("numerics.bottom_eigenvalue.solves_per_call", "solves/call", None, None),
             ("numerics.verify_constants.fails", "count",
              "numerics.verify_constants", "raised"),
             ("cli.import_s", "s", None, None), ("cli.main.s", "s", None, None),
             ("cli.spawn_s", "s", None, None), ("cli.output_bytes", "bytes", None, None),
             ("trace.pass_s", "s", None, None), ("trace.overhead_s", "s", None, None),
             ("trace.self_share", "ratio", None, None)]
    return spec


PER_LAYER = _per_layer_spec()


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env():
    """The caller's environment with fdrates' own knobs removed, so that the
    defaults are measured, and the checkout's sources first on the path."""
    env = dict(os.environ)
    env.pop("FDRATES_KERNEL", None)
    env.pop("FDRATES_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def git_sha():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(workload, env):
    """Median import time of fresh processes, scaled to the reference speed
    and raw, after one untimed warm-up import that compiles bytecode and
    fills the file cache."""
    cmd = [sys.executable, "-c", SETUP_SNIPPET, *SETUP_MODULES[workload]]
    scaled, raw = [], []
    ref_before = speed.PROCESS.measure()
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"importing fdrates failed:\n{proc.stderr}")
        ref_after = speed.PROCESS.measure()
        if i:
            raw.append(float(proc.stdout))
            scaled.append(raw[-1] * speed.PROCESS.scale(ref_before, ref_after))
        ref_before = ref_after
    return statistics.median(scaled), statistics.median(raw)


def run_worker(workload, seed, seconds, trace, size, env, workdir):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--size", size, "--workdir", str(workdir)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=170)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def outcome_summary(results):
    """attempted, failed, ok_ratio, answer_err.max over one or more workers."""
    outcomes = [o for res in results for p in res["passes"] for o in p["ops"]]
    names = {o["name"] for o in outcomes}
    ok_names = {n for n in names if all(o["ok"] for o in outcomes if o["name"] == n)}
    probes = results[0]["probes"]
    ok = len(ok_names) + sum(p["ok"] for p in probes)
    errs = [o["err"] for o in outcomes if o["err"] is not None]
    return {"attempted": len(outcomes),
            "failed": sum(not o["ok"] for o in outcomes),
            "ok_ratio": ok / (len(names) + len(probes)),
            "answer_err.max": max(errs) if errs else 1.0}


def answers(res):
    return [(o["name"], o["answer"]) for o in res["passes"][0]["ops"]]


def end_to_end_metrics(res, setup_s):
    passes = res["passes"]
    summary = outcome_summary([res])
    return {"setup_s": setup_s[0],
            "pass_s": _median([p["scaled_s"] for p in passes]),
            "cpu_s": _median([p["scaled_cpu_s"] for p in passes]),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_ratio": summary["ok_ratio"],
            "answer_err.max": summary["answer_err.max"]}


def per_layer_metrics(untraced, traced):
    passes = traced["passes"]

    def span(name, field):
        return _median([p["spans"].get(name, {}).get(field, 0) for p in passes])

    def cli(field):
        return _median([p.get("cli", {}).get(field, 0) for p in passes])

    out = {m: span(name, field) for m, _, name, field in PER_LAYER if field}
    eig_calls = out["numerics.bottom_eigenvalue.calls"]
    out["numerics.bottom_eigenvalue.solves_per_call"] = (
        span("numerics.bottom_eigenvalue", "solves") / eig_calls if eig_calls else 0.0)
    out["cli.import_s"] = cli("import_s")
    out["cli.main.s"] = cli("main_s")
    out["cli.spawn_s"] = cli("spawn_s")
    out["cli.output_bytes"] = cli("output_bytes")
    out["trace.pass_s"] = _median([p["scaled_s"] for p in passes])
    out["trace.overhead_s"] = out["trace.pass_s"] - _median(
        [p["scaled_s"] for p in untraced["passes"]])
    out["trace.self_share"] = _median(
        [sum(r.get("self_s", 0.0) for r in p["spans"].values()) / p["s"]
         for p in passes])
    return out


def run_once(workload, seed, seconds, trace, size, env):
    """Run one workload; returns (result line dict, worker results)."""
    workdir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            half = seconds / 2.0
            untraced = run_worker(workload, seed, half, 0, size, env, workdir)
            traced = run_worker(workload, seed, half, 1, size, env, workdir)
            results = [untraced, traced]
            values = per_layer_metrics(untraced, traced)
            units = {m: u for m, u, _, _ in PER_LAYER}
        else:
            setup_s = measure_setup(workload, env)
            results = [run_worker(workload, seed, seconds, 0, size, env, workdir)]
            results[0]["raw_setup_s"] = setup_s[1]
            values = end_to_end_metrics(results[0], setup_s)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary = outcome_summary(results)
    correct = summary["failed"] == 0
    if trace:
        # tracing must not change a single bit of any answer
        correct &= answers(results[0]) == answers(results[1])
    line = {"correct": bool(correct), "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    return line, results


def print_report(workload, trace, line, results, env_block):
    print(f"# env {json.dumps(env_block, sort_keys=True)}")
    print(f"# workload {workload} ({'traced' if trace else 'untraced'})")
    for res in results[:1]:
        for p in res["probes"]:
            print(f"#   probe {p['name']:<26} {'ok' if p['ok'] else 'FAILED'}"
                  f"  {p['error'] or ''}")
    last = results[-1]["passes"]
    for i, o in enumerate(last[0]["ops"]):
        times = [p["ops"][i]["s"] for p in last]
        err = "-" if o["err"] is None else f"{o['err']:.3e}"
        print(f"#   op {o['name']:<29} {'ok' if o['ok'] else 'FAILED':<6} "
              f"err {err:<10} {_median(times):8.3f} s  {o['error'] or ''}")
    print(f"#   passes: {', '.join(str(len(r['passes'])) for r in results)}")
    for res in results:
        print(f"#   unscaled: pass_s {_median([p['s'] for p in res['passes']]):.6g} s, "
              f"cpu_s {_median([p['cpu_s'] for p in res['passes']]):.6g} s"
              + (f", setup_s {res['raw_setup_s']:.6g} s" if "raw_setup_s" in res else ""))
    for name, m in line["metrics"].items():
        print(f"#   {name:<45} {m['value']:.6g} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs every operation on small grids, for tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fdrates" / "__init__.py").is_file():
        print(f"perfbench: no fdrates sources under {ROOT / 'src'}; run from the "
              "root of a checkout of the repository", file=sys.stderr)
        return 2
    env = child_env()
    env_block = {"git_sha": git_sha(),
                 "FDRATES_KERNEL_set": "FDRATES_KERNEL" in os.environ,
                 "FDRATES_THREADS_set": "FDRATES_THREADS" in os.environ}
    runs = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.workload == "all"
            else [(args.workload, args.trace)])
    lines = {}
    try:
        for workload, trace in runs:
            line, results = run_once(workload, args.seed, args.seconds, trace,
                                     args.size, env)
            print_report(workload, trace, line, results,
                         {**results[0]["env"], **env_block})
            lines[(workload, trace)] = line
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        final = next(iter(lines.values()))
    else:
        final = {"correct": all(v["correct"] for v in lines.values()),
                 "attempted": sum(v["attempted"] for v in lines.values()),
                 "failed": sum(v["failed"] for v in lines.values()),
                 "metrics": {f"{w}.{k}": m for (w, _), v in lines.items()
                             for k, m in v["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
