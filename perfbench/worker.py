"""One workload in its own process, so that its peak memory is its own.

Usage: python worker.py --workload W --seed N --seconds S --trace 0|1
                        --size full|tiny --workdir DIR

Runs the known-defect probes once, untimed, then passes over the workload's
operations, one operation at a time, while one more pass of median length
still ends within S seconds (at least one pass).  Prints one JSON object:
the environment, the probe outcomes and, per pass, its wall and CPU time,
raw and scaled to the reference speed (see speed.py), the operation
outcomes and, when traced, the spans.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import speed  # binds scipy's own solve_banded, before any tracing wrapper


def _cpu_seconds():
    """User plus system CPU time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def run_pass(ops, run_operation, reference):
    """Run the operations in order; time each (wall and CPU) between two
    runs of the speed reference, which are not part of the pass time."""
    outcomes = []
    ref_before = reference.measure()
    for op in ops:
        c0 = _cpu_seconds()
        outcome = run_operation(op)
        outcome["cpu_s"] = _cpu_seconds() - c0
        ref_after = reference.measure()
        factor = reference.scale(ref_before, ref_after)
        outcome["scaled_s"] = outcome["s"] * factor
        outcome["scaled_cpu_s"] = outcome["cpu_s"] * factor
        outcomes.append(outcome)
        ref_before = ref_after
    return outcomes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args()

    in_process = args.workload != "cli"
    tracer = None
    if args.trace and in_process:
        import tracing

        tracer = tracing.install()
    import workloads  # imports fdrates, after the wrappers are in place

    cli = None
    reference = speed.COMPUTE
    if not in_process:
        cli = workloads.CliRunner(args.workdir, traced=bool(args.trace))
        reference = speed.PROCESS
    ops, probes = workloads.build(args.workload, args.seed, args.size, cli)
    probe_results = [workloads.run_operation(p) for p in probes]

    passes = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        if cli is not None:
            cli.reset()
        outcomes = run_pass(ops, workloads.run_operation, reference)
        record = {"ops": outcomes}
        for key in ("s", "cpu_s", "scaled_s", "scaled_cpu_s"):
            record[key] = sum(o[key] for o in outcomes)
        if tracer is not None:
            record["spans"] = tracer.snapshot()
        if cli is not None:
            record["cli"] = dict(cli.stats)
            if cli.traced:
                record["spans"] = cli.spans
        passes.append(record)
        typical = statistics.median(p["s"] for p in passes)
        if time.perf_counter() - start + typical > args.seconds:
            break

    # the cli workload runs in its child processes
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    peak_kib = resource.getrusage(who).ru_maxrss
    out = {"env": workloads.environment(), "probes": probe_results,
           "passes": passes, "peak_rss_mb": peak_kib / 1024.0}
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
