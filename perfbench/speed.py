"""Machine-speed references for the benchmark's timings.

Shared machines drift in speed by tens of percent over seconds to minutes,
which swamps the differences a benchmark is meant to show.  A reference
times a fixed piece of work that does not depend on fdrates; the benchmark
measures it before and after every timed step and scales the step's time by
the reference's nominal time over the mean of those two measurements, so
that reported seconds are seconds on a machine running at the nominal speed
and the drift cancels.

Work in one process and work in fresh processes slow down differently under
contention, so there are two references: COMPUTE, shaped like fdrates' inner
loops (numpy ufuncs on a few hundred doubles and a banded solve), for steps
that compute in process, and PROCESS, a fresh interpreter importing numpy,
for steps that start processes (the cli workload and set-up).  Nominal times
are medians on a 2-vCPU VM (Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
"""

import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

_N = 800
_rng = np.random.default_rng(0)
_AB = _rng.random((3, _N))
_AB[1] += 4.0
_B = _rng.random(_N)
_X = _rng.random(_N)


def _compute():
    for _ in range(300):
        y = np.log1p(_X)
        z = np.expm1(0.5 * y) * _X
        solve_banded((1, 1), _AB, _B + z)


def _process():
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   capture_output=True, timeout=60)


@dataclass(frozen=True)
class Reference:
    work: Callable[[], None]
    nominal_s: float

    def measure(self) -> float:
        """Wall seconds of one run of the reference work."""
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0

    def scale(self, before: float, after: float) -> float:
        """Factor that turns seconds measured between two reference timings
        into seconds at the nominal speed."""
        return self.nominal_s / (0.5 * (before + after))


COMPUTE = Reference(_compute, 0.015)
PROCESS = Reference(_process, 0.15)
