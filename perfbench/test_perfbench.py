"""Tests of the benchmark itself, on tiny grids.

Run from the root of the repository:  python -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # workloads imports fdrates
# counters that must repeat exactly; times are left out
COUNTERS = ("calls", "iters", "nulls", "solves", "raised")


@pytest.fixture
def scratch(request):
    """A fresh directory inside the checkout's ignored work area."""
    path = ROOT / ".perfbench_work" / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _worker(workload, trace, scratch):
    return run.run_worker(workload, 7, 0.0, trace, "tiny", run.child_env(), scratch)


def _counters(res):
    (p,) = res["passes"]
    spans = {name: {k: v for k, v in rec.items() if k in COUNTERS}
             for name, rec in p["spans"].items()}
    return spans, p.get("cli", {}).get("output_bytes")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_workload_is_deterministic_under_tracing(workload, scratch):
    untraced = _worker(workload, 0, scratch)
    traced = [_worker(workload, 1, scratch) for _ in range(2)]

    ops = untraced["passes"][0]["ops"]
    assert ops and all(o["answer"] is not None for o in ops), ops
    # tracing changes no bit of any answer
    assert run.answers(untraced) == run.answers(traced[0]) == run.answers(traced[1])
    # Newton iterations, halvings, solves by caller, eigensolves and their
    # solves, rows recorded and cli output bytes repeat exactly
    first, second = _counters(traced[0]), _counters(traced[1])
    assert first == second
    spans, output_bytes = first
    if workload == "flow":
        assert spans["kernels.newton_step"]["iters"] > 0
        assert spans["linalg.solve_banded.kernels"]["calls"] == \
            spans["kernels.newton_step"]["iters"]
        assert spans["entropy.record"]["calls"] > 0
    elif workload == "verify":
        assert spans["numerics.bottom_eigenvalue"]["solves"] > 0
        assert spans["numerics.verify_constants"]["calls"] == len(ops) - 1
        assert spans["linalg.solve_banded.flow"]["calls"] > 0
    else:
        assert output_bytes > 0
        assert spans["numerics.verify_constants"]["calls"] == 3
        assert spans["kernels.newton_step"]["iters"] > 0
    assert len(untraced["probes"]) == {"flow": 0, "verify": 2, "cli": 1}[workload]


def test_inputs_follow_the_seed():
    from workloads import Inputs, draw_inputs

    assert draw_inputs(0) == Inputs(D=1.0, epsilon=0.05, amplitude=0.1)
    assert draw_inputs(3) == draw_inputs(3) != draw_inputs(4)
    for seed in range(1, 50):
        inp = draw_inputs(seed)
        assert 1.0 <= inp.D <= 4.0 and 0.045 <= inp.epsilon <= 0.055
        assert 0.09 <= inp.amplitude <= 0.1


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(m, u) for m, u, _, _ in run.PER_LAYER]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)


def test_refuses_to_run_without_the_sources(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(ROOT / "perfbench", scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "flow",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=scratch, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
