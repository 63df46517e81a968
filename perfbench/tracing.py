"""Call-boundary tracing for the benchmark's per-layer metrics.

`install()` replaces the public entry points of each fdrates layer, and the
scipy.linalg solvers those layers call, with wrappers that time every call.
It must run before fdrates is imported, so that names bound at import time
(``from scipy.linalg import solve_banded`` in fdrates.flow) are bound to the
wrappers; afterwards every fdrates module attribute that still holds an
original function is swapped for its wrapper, so that names re-bound by
``from .profiles import solve_D`` style imports are caught as well.

Spans are aggregated as they close, per thread, into one record per span
name: call count, inclusive seconds (outermost span of that name only, so
recursion and nesting under the same name are not counted twice), self
seconds (inclusive time minus the time of directly nested spans), and
raised-exception count.  Linear-algebra spans are keyed by the fdrates
module that called them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

_clock = time.perf_counter

# (module, attribute, span name); the module is imported by install()
FDRATES_ENTRY_POINTS = (
    ("fdrates._kernels", "newton_step", "kernels.newton_step"),
    ("fdrates.numerics", "assemble_sector_forms", "numerics.assemble_sector_forms"),
    ("fdrates.numerics", "bottom_eigenvalue", "numerics.bottom_eigenvalue"),
    ("fdrates.numerics", "verify_constants", "numerics.verify_constants"),
    ("fdrates.flow", "evolve_nonlinear", "flow.evolve_nonlinear"),
    ("fdrates.flow", "evolve_linear_sector", "flow.evolve_linear_sector"),
    ("fdrates.flow", "make_initial_data", "flow.make_initial_data"),
    ("fdrates.entropy", "entropy_from_x", "entropy.record"),
    ("fdrates.entropy", "fisher_from_x", "entropy.record"),
    ("fdrates.entropy", "mass_defect_from_x", "entropy.record"),
    ("fdrates.entropy", "sandwich_from_x", "entropy.record"),
    ("fdrates.entropy", "fit_rate", "entropy.fit_rate"),
    ("fdrates.profiles", "solve_D", "profiles.solve_D"),
    ("fdrates.spectral", "discrete_mode", "spectral.discrete_mode"),
    ("fdrates.spectral", "ode_residual", "spectral.ode_residual"),
)

# L1 solvers: the banded solve in use today and the LAPACK routines the
# planned tridiagonal and eigensolver rewrites would call instead
LINALG_ENTRY_POINTS = (
    ("scipy.linalg", "solve_banded", "linalg.solve_banded"),
    ("scipy.linalg.lapack", "dgtsv", "linalg.lapack"),
    ("scipy.linalg.lapack", "dgttrf", "linalg.lapack"),
    ("scipy.linalg.lapack", "dgttrs", "linalg.lapack"),
    ("scipy.linalg", "eigh_tridiagonal", "linalg.lapack"),
    ("scipy.linalg", "eigh", "linalg.lapack"),
)

# the layers a linear-algebra call is attributed to, by _caller_module
CALLERS = ("kernels", "flow", "numerics")
_EIGENSOLVE = "numerics.bottom_eigenvalue"


def _caller_module():
    """The fdrates layer (kernels, flow or numerics) nearest up the stack."""
    f = sys._getframe(2)
    while f is not None:
        mod = f.f_globals.get("__name__", "")
        if mod.startswith("fdrates._kernels"):
            return "kernels"
        if mod == "fdrates.flow":
            return "flow"
        if mod == "fdrates.numerics":
            return "numerics"
        f = f.f_back
    return "other"


def _record(table, key):
    rec = table.get(key)
    if rec is None:
        rec = table[key] = {"calls": 0, "s": 0.0, "self_s": 0.0, "raised": 0}
    return rec


def _count_newton(rec, out):
    x_new, iters = out
    rec["iters"] = rec.get("iters", 0) + int(iters)
    if x_new is None:
        rec["nulls"] = rec.get("nulls", 0) + 1


class Tracer:
    """Per-thread span aggregation; `snapshot()` sums over threads."""

    def __init__(self):
        self._local = threading.local()
        self._tables = []
        self._lock = threading.Lock()

    def _state(self):
        loc = self._local
        try:
            return loc.table, loc.stack
        except AttributeError:
            loc.table, loc.stack = {}, []
            with self._lock:
                self._tables.append(loc.table)
            return loc.table, loc.stack

    def reset(self):
        with self._lock:
            for table in self._tables:
                table.clear()

    def snapshot(self):
        """{span name: {calls, s, self_s, raised, ...}} summed over threads."""
        out = {}
        with self._lock:
            for table in self._tables:
                for name, rec in table.items():
                    acc = out.setdefault(name, {})
                    for k, v in rec.items():
                        acc[k] = acc.get(k, 0) + v
        return out

    def wrap(self, fn, name, by_caller=False, on_result=None):
        state = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            table, stack = state()
            key = f"{name}.{_caller_module()}" if by_caller else name
            if by_caller and any(fr[0] == _EIGENSOLVE for fr in stack):
                eig = _record(table, _EIGENSOLVE)
                eig["solves"] = eig.get("solves", 0) + 1
            frame = [key, 0.0]
            stack.append(frame)
            ok = False
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                dt = _clock() - t0
                stack.pop()
                rec = _record(table, key)
                rec["calls"] += 1
                rec["self_s"] += dt - frame[1]
                if not any(fr[0] == key for fr in stack):
                    rec["s"] += dt
                if stack:
                    stack[-1][1] += dt
                if not ok:
                    rec["raised"] += 1
                elif on_result is not None:
                    on_result(rec, out)

        return traced


def install() -> Tracer:
    """Wrap the L1 solvers, import fdrates, then wrap its entry points."""
    tracer = Tracer()
    originals = {}
    for mod_name, attr, name in LINALG_ENTRY_POINTS:
        mod = importlib.import_module(mod_name)
        fn = getattr(mod, attr)
        wrapped = originals.get(id(fn)) or tracer.wrap(fn, name, by_caller=True)
        originals[id(fn)] = wrapped
        setattr(mod, attr, wrapped)
    for mod_name, attr, name in FDRATES_ENTRY_POINTS:
        mod = importlib.import_module(mod_name)
        fn = getattr(mod, attr)
        on_result = _count_newton if name == "kernels.newton_step" else None
        wrapped = tracer.wrap(fn, name, on_result=on_result)
        originals[id(fn)] = wrapped
        setattr(mod, attr, wrapped)
    # re-bind every copy of an original that fdrates modules imported by name
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fdrates" or mod_name.startswith("fdrates.")):
            continue
        for attr, value in list(vars(mod).items()):
            wrapped = originals.get(id(value))
            if wrapped is not None and wrapped is not value:
                setattr(mod, attr, wrapped)
    return tracer
