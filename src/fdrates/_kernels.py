"""The implicit flow step, one pure-numpy Newton kernel: one backward-Euler
step of the radial flux-form equation

    w_i V_i dx_i/dt = net flux of  G_(i+1/2) = g v_bar (p_(i+1)-p_i)/h

in the relative variable x = v/V_D - 1, solved by damped Newton iteration
with the analytic tridiagonal Jacobian.  The pressure is
p = V^(m-1) expm1((m-1) log1p(x))/(m-1), which is exact for every m < 1
including m = 0 and stays accurate when x underflows far in the tail.

A Workspace, built once per flow run, holds what every step shares: the
invariants of the grid and profile, read from the run's entropy.Weights,
and the work buffers, which each Newton iteration overwrites before it
reads them.  Each operation rounds exactly as in the form that allocates
one array per operation (kept as the reference in tests/test_kernels.py):
no product or sum is reassociated, so the buffering changes no bit of the
result.

Newton stops by one of two rules.  The full rule stops once the step's
convergence measure e = max |dx| / (1 + |x|) falls below 1e-11, as the
reference does.  The estimate rule accepts a step after its first iteration
when Newton's quadratic convergence, e_1 ~ L e_0^2, predicts the next
correction below 1e-12.  The Workspace keeps L = e_1 / e_0^2 from the last
step that stopped by the full rule after exactly two iterations, the first of
them undamped.  L is measured and used only at the run's dt, so no dt
halving, no damped first iteration and no step before the first such
measurement accepts on the estimate; a step that fails or raises clears L.

Newton starts from the linear extrapolation x_0 = 2 x_old - x_prev, where
x_prev is the state before x_old in the same run, so that in a smooth run
the first correction is of second order in dt and most steps stop on the
estimate after one iteration.  The Workspace keeps the pair (x_old, x_new)
of the last step accepted at the run's dt, by either rule, and uses it only
when the next x_old is that x_new itself (the flow hands the returned array
straight back).  Without such a pair (the first step, the step after a dt
halving, or a caller that passes another array), at a halved dt, or when
some 1 + x_0 is not finite and positive, Newton starts from x_old.  The
start moves only where the iteration begins: the residual still measures
x against x_old, and both stopping rules are unchanged.  Like L, the pair
is taken on entry, so a step that fails or raises clears it.
"""

import numpy as np

__all__ = ["Workspace", "newton_step", "BACKEND"]

BACKEND = "pure"


class Workspace:
    """The per-run part of newton_step.  From wts, the run's entropy.Weights,
    it reads the profile V, Vm1 = V^(m-1), w V, the face geometry (g, h) and
    m, and adds the invariants g/h and V/2 on each side of a face, and the
    work buffers.

    dt is the run's time step, the one step length at which the estimate
    rule measures and uses L and the start extrapolates.  L is None until a
    step measures it; last is the (x_old, x_new) pair of the last step
    accepted at dt, or None."""

    def __init__(self, wts, dt):
        V = wts.V
        n = len(V)
        self.V, self.Vm1, self.g, self.h, self.wV = V, wts.Vm1, wts.g, wts.h, wts.wV
        self.dt = dt
        self.L = None
        self.last = None
        self.closure = wts.w[0] == 0.0
        self.gh = wts.g / wts.h
        self.hV_l = 0.5 * V[:-1]
        self.hV_r = 0.5 * V[1:]
        self.m1 = wts.m - 1.0
        self.m2 = wts.m - 2.0
        # nodal (length n) and face (length n - 1) buffers
        self.nodal = tuple(np.empty((7, n)))
        self.faces = tuple(np.empty((4, n - 1)))
        # the band (rows: upper, diagonal, lower) and the residual, negated in
        # place into the right-hand side, share one buffer so that one
        # finiteness test covers both; gtsv writes only the three diagonals,
        # so the unused corners ab[0, 0] and ab[2, -1] stay zero
        self.system = np.zeros((4, n))
        self.ab, self.resid = self.system[:3], self.system[3]
        self.bands = self.ab[0, 1:], self.ab[1], self.ab[2, :-1]
        self.finite = np.empty((4, n), dtype=bool)


def newton_step(x_old, work, dt):
    """Advance x by one implicit step of length dt, with the invariants and
    buffers of work (a Workspace); returns (x_new, iterations).  x_new is a
    new array, never one of work's buffers.

    At dt == work.dt, when x_old is the x_new that work.last holds, Newton
    starts from 2 x_old - x_prev, x_prev being that pair's x_old, if every
    1 + x of that start is finite and positive; otherwise from x_old.

    Newton stops when e = max |dx| / (1 + |x|) < 1e-11 (the full rule), or,
    at dt == work.dt, after an undamped first iteration whose e_0 gives
    work.L e_0^2 < 1e-12 (the estimate rule; see the module docstring).
    Returns (None, iterations) if it fails to do so within 30 iterations, if
    the damping cannot keep 1 + x positive, or if the Jacobian is singular
    (caller decides how to subdivide the step).  When w[0] == 0 (d >= 2) the
    origin row is replaced by the algebraic regularity closure p_1 = p_0.
    Raises ValueError if the Jacobian or the residual is not finite.
    """
    from scipy.linalg import LinAlgError, solve_banded  # loaded at the first flow step

    V, Vm1, g, h = work.V, work.Vm1, work.g, work.h
    wV, gh, hV_l, hV_r = work.wV, work.gh, work.hV_l, work.hV_r
    m1, m2 = work.m1, work.m2
    lx, p, dp, xp1, v, scaled, trial = work.nodal
    vbar, Dp, flux, face = work.faces
    system, ab, resid, finite = work.system, work.ab, work.resid, work.finite
    upper, diag, lower = work.bands
    # only a step that succeeds gives L and the last step back: one that
    # fails or raises clears them
    L, work.L = work.L, None
    last, work.last = work.last, None
    at_run_dt = dt == work.dt
    e0 = None
    x = x_old.copy()
    if at_run_dt and last is not None and last[1] is x_old:
        x0 = 2.0 * x_old - last[0]
        np.add(1.0, x0, out=xp1)
        if np.isfinite(xp1).all() and xp1.min() > 0.0:
            x = x0
    for it in range(30):
        # pressure p and its derivative dp = dp/dx
        np.log1p(x, out=lx)
        np.multiply(m1, lx, out=p)
        np.expm1(p, out=p)
        np.multiply(Vm1, p, out=p)
        np.divide(p, m1, out=p)
        np.multiply(m2, lx, out=dp)
        np.exp(dp, out=dp)
        np.multiply(Vm1, dp, out=dp)
        # face mobility vbar = (v_i + v_(i+1))/2 with v = V (1 + x)
        np.add(1.0, x, out=xp1)
        np.multiply(V, xp1, out=v)
        np.add(v[:-1], v[1:], out=vbar)
        np.multiply(0.5, vbar, out=vbar)
        np.subtract(p[1:], p[:-1], out=Dp)
        # dt times the face flux g vbar Dp / h
        np.multiply(g, vbar, out=flux)
        np.multiply(flux, Dp, out=flux)
        np.divide(flux, h, out=flux)
        np.multiply(dt, flux, out=flux)
        np.subtract(x, x_old, out=resid)
        np.multiply(wV, resid, out=resid)
        resid[:-1] -= flux
        resid[1:] += flux
        # dt times the flux derivatives: by x_i into the lower band
        # (hV_l Dp - vbar dp_i equals -vbar dp_i + hV_l Dp exactly), by
        # x_(i+1) into the upper band, negated once the diagonal has it
        np.multiply(hV_l, Dp, out=lower)
        np.multiply(vbar, dp[:-1], out=face)
        np.subtract(lower, face, out=lower)
        np.multiply(gh, lower, out=lower)
        np.multiply(dt, lower, out=lower)
        np.multiply(vbar, dp[1:], out=upper)
        np.multiply(hV_r, Dp, out=face)
        np.add(upper, face, out=upper)
        np.multiply(gh, upper, out=upper)
        np.multiply(dt, upper, out=upper)
        np.subtract(wV[:-1], lower, out=diag[:-1])
        diag[-1] = wV[-1]
        diag[1:] += upper
        np.negative(upper, out=upper)
        if work.closure:
            resid[0] = p[1] - p[0]
            ab[1, 0] = -dp[0]
            ab[0, 1] = dp[1]
        rhs = np.negative(resid, out=resid)
        if not np.isfinite(system, out=finite).all():
            raise ValueError("array must not contain infs or NaNs")
        try:
            dx = solve_banded((1, 1), ab, rhs, overwrite_ab=True,
                              overwrite_b=True, check_finite=False)
        except LinAlgError:  # a singular Jacobian: the step failed
            return None, it + 1
        # damping: halve lam until 1 + x + lam dx > 0 wherever it is not NaN
        # (fmin skips NaN, as a test "any <= 0" does)
        lam = 1.0
        step = dx
        while np.fmin.reduce(np.add(xp1, step, out=trial)) <= 0.0:
            lam *= 0.5
            if lam < 1e-18:
                return None, it + 1
            step = np.multiply(lam, dx, out=scaled)
        x += step
        # convergence: max |dx| / (1 + |x|)
        np.abs(x, out=trial)
        np.add(1.0, trial, out=trial)
        np.abs(dx, out=scaled)
        np.divide(scaled, trial, out=scaled)
        e = float(scaled.max())
        if e < 1e-11:
            # e0 is set only for an undamped first iteration at the run's dt;
            # an exact e = 0 would make L = 0 and accept every later step
            if it == 1 and e0 is not None and e > 0.0:
                L = e / (e0 * e0)
            work.L = L
            if at_run_dt:
                work.last = x_old, x
            return x, it + 1
        if it == 0 and at_run_dt and lam == 1.0:
            if L is not None and L * e * e < 1e-12:
                work.L = L
                work.last = x_old, x
                return x, 1
            e0 = e
    return None, 30
