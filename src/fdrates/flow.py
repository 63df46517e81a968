"""Time integration of the rescaled fast-diffusion flow.

Nonlinear: the radial flux-form equation dv/dt = r^(1-d) d/dr(r^(d-1) v dp/dr)
with pressure p = (v^(m-1) - V_D^(m-1))/(m-1), advanced by backward Euler with
Newton iteration (kernel in fdrates._kernels), no-flux at r = 0 and r = R_max.
Every profile V_D is an exact steady state of the truncated problem and the
truncated mass defect is conserved exactly by the scheme.

A state is the relative variable x = v/V_D - 1 and its one Profile V_D, from
initial data to the last step: on very large domains (critical-case runs
reach R_max ~ e^90) the difference v - V_D is far below the rounding floor
of v, so the conserved defect and the entropy are only representable in x.
Matching D to the data, profiles.solve_D, also finds the zero of the defect in
x, by Brent's method, on the Weights of the data's profile V_D, and the matched
state is x re-expressed relative to the matched V_D'.

Linear: sector evolution df/dt = -L f discretized by the same P1 forms,
B (df/dt) = -A f with backward Euler.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import _kernels
from .entropy import (EntropyTrace, Weights, entropy_from_x, fisher_from_x,
                      mass_defect_from_x, sandwich_from_x)
from .exponents import ExponentSet
from .numerics import RadialGrid, assemble_sector_forms, sphere_area
from .profiles import Profile, _profile_ratio_minus_one, solve_D
from .scalar import _schedule

__all__ = [
    "NonlinearState",
    "LinearState",
    "FlowError",
    "make_initial_data",
    "evolve_nonlinear",
    "evolve_linear_sector",
]


class FlowError(RuntimeError):
    """Newton divergence, positivity loss or a singular system during time
    stepping."""


class NonlinearState:
    """State of a radial nonlinear run at time t: v = V_D (1 + x) on grid,
    stored as x relative to profile, the one Profile V_D of the run."""

    def __init__(self, grid: RadialGrid, profile: Profile, x: np.ndarray,
                 t: float = 0.0):
        self.grid, self.profile, self.x, self.t = grid, profile, x, t


class LinearState:
    """State of a linear sector run: nodal values of f in sector l.  alpha and
    D may be exact (Fractions); the flow evaluates them in floats, so its
    trace is the same as for their float values."""

    def __init__(self, grid: RadialGrid, alpha: float, D: float, l: int,
                 f: np.ndarray, t: float = 0.0):
        self.grid, self.alpha, self.D, self.l, self.f, self.t = grid, alpha, D, l, f, t


def make_initial_data(grid: RadialGrid, exponents: ExponentSet, kind: str, *,
                      D: float = 1.0, D0: Optional[float] = None,
                      D1: Optional[float] = None, epsilon: float = 0.05,
                      mode=None, amplitude: float = 0.1,
                      seed: Optional[int] = None, clip: bool = True,
                      match_D: bool = True) -> NonlinearState:
    """Build initial data v0 from a named family, relative to profile D.

    Kinds:
      "profile-blend": v0 = (V_D0 + V_D1)/2 (inside the sandwich by convexity);
      "eigen":  v0 = V_D (1 + epsilon g V_D^(1-m)) with g a radial spectral
                mode (mode=(0, k), default the dilation mode (0, 1); the
                config key data.mode_k gives k); clipped to the sandwich
                when (D0, D1) are given;
      "bump":   v0 = V_D (1 + amplitude exp(-((r-c)/s)^2)); c = 0, s = 1 when
                seed is None, otherwise drawn reproducibly from the seed.

    When match_D is True the profile parameter is re-matched by Brent's method
    (profiles.solve_D, on the defect in x) so that the truncated mass defect of
    v0 vanishes, and x is re-expressed relative to the matched profile.  A
    bracket (D0, D1) must have D0 > D1 > 0; with it, unclipped data outside the
    sandwich V_D0 <= v0 <= V_D1 (by 1e-8 in x, before matching) raise
    ValueError, as do data with some x <= -1 and an eigen mode of sector l >= 1
    (not radial).
    """
    alpha = float(exponents.alpha)
    r = grid.nodes
    bracket = D0 is not None and D1 is not None
    if bracket:
        if not D0 > D1 > 0:
            raise ValueError(f"need D0 > D1 > 0, got D0 = {D0}, D1 = {D1}")
        # the sandwich V_D0 <= v0 <= V_D1 as bounds on x, relative to V_D
        xlo = _profile_ratio_minus_one(D0, D, alpha, r)
        xhi = _profile_ratio_minus_one(D1, D, alpha, r)
    if kind == "profile-blend":
        if not bracket:
            raise ValueError("profile-blend needs D0 and D1")
        x = 0.5 * (xlo + xhi)
    elif kind == "eigen":
        from .spectral import discrete_mode, mode_field

        l, k = mode if mode is not None else (0, 1)
        if l != 0:
            raise ValueError(f"eigen data take a radial mode (l = 0), got mode "
                             f"(l, k) = ({l}, {k}); the radial flow cannot "
                             f"carry sector l = {l}")
        mo = discrete_mode(grid.d, alpha, l, k)
        g = mode_field(mo, grid)
        # V^(1-m) = (D+r^2)^(alpha(1-m)) = 1/(D+r^2)
        x = epsilon * g / (D + r**2)
    elif kind == "bump":
        if seed is None:
            c, s = 0.0, 1.0
        else:
            rng = np.random.default_rng(seed)
            c = float(rng.uniform(0.0, 1.0))
            s = float(rng.uniform(0.5, 1.5))
        x = amplitude * np.exp(-(((r - c) / s) ** 2))
    else:
        raise ValueError(f"unknown initial-data kind {kind!r}")

    if bracket and clip and kind != "profile-blend":
        x = np.clip(x, xlo, xhi)
    elif bracket and (np.any(x < xlo - 1e-8) or np.any(x > xhi + 1e-8)):
        raise ValueError(f"unclipped initial data leave the sandwich "
                         f"V_D0 <= v0 <= V_D1 with D0 = {D0}, D1 = {D1}")

    profile = Profile(exponents=exponents, D=D)
    if match_D:
        if not bracket:
            raise ValueError("match_D needs the bracket D0 > D1")
        Dm = solve_D(grid, x, profile, D0, D1)
        q = _profile_ratio_minus_one(D, Dm, alpha, r)
        x = q + (1.0 + q) * x
        profile = Profile(exponents=exponents, D=Dm)
    if not x.min() > -1.0:  # the Newton kernel's domain; a NaN fails too
        size = f"epsilon = {epsilon}" if kind == "eigen" else f"amplitude = {amplitude}"
        raise ValueError(f"{kind} data with {size} are not positive: "
                         f"v0 = V_D (1 + x) needs x > -1")
    return NonlinearState(grid=grid, profile=profile, x=x)


def _advance(x, work, wts, depth=0):
    """One backward-Euler step of length work.dt with the kernel Workspace
    work.  A step that Newton cannot finish runs as two steps of a run at
    half the step, on one new Workspace of wts; at most 12 halvings deep."""
    x_new, _ = _kernels.newton_step(x, work)
    if x_new is not None:
        return x_new
    if depth >= 12:
        raise FlowError(
            f"Newton iteration diverged at dt = {work.dt}; use a smaller time step"
        )
    half = _kernels.Workspace(wts, work.dt / 2.0)
    x = _advance(x, half, wts, depth + 1)
    return _advance(x, half, wts, depth + 1)


def _march(state, schedule, step, row) -> dict:
    """The time loop of both flows: row() at state.t and every cadence after,
    n_sub step() calls between rows, for schedule = (cadence, n_sub, n_rec)
    of scalar._schedule; state.t follows the rows.  Returns the columns."""
    cadence, n_sub, n_rec = schedule
    t0 = state.t
    rows = [row()]
    for j in range(1, n_rec + 1):
        for _ in range(n_sub):
            step()
        state.t = t0 + j * cadence
        rows.append(row())
    return dict(zip(EntropyTrace.COLUMNS, np.array(rows).T))


def evolve_nonlinear(state: NonlinearState, t_end: float, dt: float,
                     cadence: Optional[float] = None,
                     track_sandwich: bool = False) -> EntropyTrace:
    """Advance the state to t_end, recording the entropy trace.

    Rows (t, F, I, h1, h2, mass defect) are recorded every `cadence` time
    units, cadence being an integer multiple of dt (default: about 200 rows,
    the steps per row dividing the step count; see scalar._schedule).  With
    track_sandwich=True a SandwichReport is attached per row, and the row takes
    F, I, h1 and h2 from it.  The state is advanced in place and also
    reflected in state.t.  The quadrature weights of the grid and profile
    (an entropy.Weights) are computed once per call and shared by the row
    functionals and the Newton kernel, whose invariants and work buffers (a
    _kernels.Workspace at dt) are also set up once and shared by every step.
    The Workspace keeps the last accepted step, from which Newton's start is
    extrapolated, and its quadratic-convergence estimate, which lets a step
    stop after one Newton iteration; so that the kernel recognises its own
    last result, step() hands the array newton_step returned straight back
    to it.
    """
    schedule = _schedule(state.t, t_end, dt, cadence)

    wts = Weights.of(state.grid, state.profile)
    work = _kernels.Workspace(wts, dt)
    sandwiches = []

    def step():
        state.x = _advance(state.x, work, wts)

    def row():
        if track_sandwich:
            rep = sandwich_from_x(state.x, wts)
            sandwiches.append(rep)
            F, I, h1, h2 = rep.entropy, rep.fisher, rep.h1, rep.h2
        else:
            F = entropy_from_x(state.x, wts)
            I = fisher_from_x(state.x, wts)
            h1 = float(1.0 + np.min(state.x))
            h2 = float(1.0 + np.max(state.x))
        md = mass_defect_from_x(state.x, wts)
        return state.t, F, I, h1, h2, md

    columns = _march(state, schedule, step, row)
    return EntropyTrace(**columns, sandwich=tuple(sandwiches))


def evolve_linear_sector(state: LinearState, t_end: float, dt: float,
                         cadence: Optional[float] = None) -> EntropyTrace:
    """Advance the linear sector equation B df/dt = -A f by backward Euler.

    The trace records the linearized entropy F = (1/2) int f^2 dmu_(alpha-1)
    and Fisher term I = A(f, f) (so dF/dt = -I holds in the continuum limit);
    h1/h2 are undefined for the linear flow and recorded as NaN; the
    mass-defect column holds int f dmu_(alpha-1).  In sector l = 0 the
    constant is the zero mode (A 1 = 0), which the flow keeps, so its
    B-component (1^T B f / 1^T B 1) 1 is removed from the data before the
    first step: the trace then decays at the gap of the sector, and the
    mass-defect column stays at rounding.  Band and initial data are
    checked for finiteness once: backward Euler with the symmetric positive
    definite pencil (A, B) contracts the B-norm, so no step creates an inf.
    A band whose weights underflowed to zero is singular, and its solve
    raises FlowError.
    """
    # loaded only when a linear flow runs
    from scipy.linalg import LinAlgError, solve_banded

    schedule = _schedule(state.t, t_end, dt, cadence)

    forms = assemble_sector_forms(state.grid, state.alpha, state.D, state.l)
    f = forms.restrict(np.asarray(state.f, dtype=float))
    if state.l == 0:
        f = f - np.sum(forms.apply_b(f)) / np.sum(forms.apply_b(np.ones(forms.n)))
    ab = np.zeros((3, forms.n))
    ab[0, 1:] = forms.b_off + dt * forms.a_off
    ab[1] = forms.b_diag + dt * forms.a_diag
    ab[2, :-1] = forms.b_off + dt * forms.a_off
    if not (np.all(np.isfinite(ab)) and np.all(np.isfinite(f))):
        raise FloatingPointError("array must not contain infs or NaNs")
    sd = sphere_area(state.grid.d)

    def step():
        nonlocal f
        try:
            f = solve_banded((1, 1), ab, forms.apply_b(f), overwrite_b=True,
                             check_finite=False)
        except LinAlgError as e:
            raise FlowError(f"backward Euler system of sector {state.l}: {e}") from None

    def row():
        bf = forms.apply_b(f)
        return (state.t, 0.5 * sd * float(f @ bf), sd * float(f @ forms.apply_a(f)),
                math.nan, math.nan, sd * float(np.sum(bf)))

    columns = _march(state, schedule, step, row)
    state.f = forms.pad(f)
    return EntropyTrace(**columns)
