"""The implicit flow step, one pure-numpy Newton kernel: one backward-Euler
step of the radial flux-form equation

    w_i V_i dx_i/dt = net flux of  G_(i+1/2) = g v_bar (p_(i+1)-p_i)/h

in the relative variable x = v/V_D - 1, solved by damped Newton iteration
with the analytic tridiagonal Jacobian.  The pressure is
p = V^(m-1) expm1((m-1) log1p(x))/(m-1), which is exact for every m < 1
including m = 0 and stays accurate when x underflows far in the tail.

A Workspace, built once per run at one step length dt, holds what every
step shares: the invariants of the grid and profile, read from the run's
entropy.Weights, the constants of dt, and the work buffers, which each
Newton iteration overwrites before it reads them.  The constants are folded
into the arithmetic: p = (V^(m-1)/(m-1)) expm1((m-1) log1p x); the face
mobility is summed from (V/2)(1 + x); and c = dt g/h scales it once, so that
dt times the face flux is c vbar Dp and the flux derivatives are c (V/2) Dp
and c vbar dp.  The right-hand side w V (x_old - x) - (net flux) and the
upper band are built with their signs, so nothing is negated afterwards.
Each buffer holds the same bits as the form that allocates one array per
operation in this association (kept as the reference in
tests/test_kernels.py); the folds move the result from the unfolded form
p = V^(m-1) expm1(...)/(m-1), dt (g vbar Dp/h) only by rounding.

Newton stops by one of two rules.  The full rule stops once the step's
convergence measure e = max |dx| / (1 + |x|) falls below 1e-11, as the
reference does.  The estimate rule accepts a step after its first iteration
when Newton's quadratic convergence, e_1 ~ L e_0^2, predicts the next
correction below 1e-12.  The Workspace keeps L = e_1 / e_0^2 from the last
step that stopped by the full rule after exactly two iterations, the first of
them undamped.  No damped first iteration and no step before the first such
measurement accepts on the estimate; a step that fails or raises clears L.

Newton starts from the linear extrapolation x_0 = 2 x_old - x_prev, where
x_prev is the state before x_old in the same run, so that in a smooth run
the first correction is of second order in dt and most steps stop on the
estimate after one iteration.  The Workspace keeps the pair (x_old, x_new)
of the last step it accepted, by either rule, and uses it only when the next
x_old is that x_new itself (the flow hands the returned array straight
back).  Without such a pair (the first step, the step after a failed one,
or a caller that passes another array), or when some 1 + x_0 is not finite
and positive, Newton starts from x_old.  The start moves only where the
iteration begins: the residual still measures x against x_old, and both
stopping rules are unchanged.  Like L, the pair is taken on entry, so a step
that fails or raises clears it.
"""

import numpy as np

__all__ = ["Workspace", "newton_step", "BACKEND"]

BACKEND = "pure"


class Workspace:
    """The per-run part of newton_step at the step length dt.  From wts,
    the run's entropy.Weights, it reads the profile V, Vm1 = V^(m-1), w V,
    the face geometry (g, h) and m, and folds them into p_scale = Vm1/(m-1),
    hV = V/2 and the constants of dt: c = dt g/h on each face, and the flux
    derivatives' profile terms c V_i/2 and -c V_(i+1)/2.  It also holds the
    work buffers and scipy's solve_banded and LinAlgError, looked up once.
    With these a Newton iteration takes 35 elementwise array passes.

    L is None until a step measures it; last is the (x_old, x_new) pair of
    the last step accepted, or None."""

    def __init__(self, wts, dt):
        # scipy is loaded by the first flow run, not by import fdrates
        from scipy.linalg import LinAlgError, solve_banded

        n = len(wts.V)
        self.solve_banded, self.LinAlgError = solve_banded, LinAlgError
        self.Vm1, self.wV = wts.Vm1, wts.wV
        self.m1 = wts.m - 1.0
        self.m2 = wts.m - 2.0
        self.p_scale = wts.Vm1 / self.m1
        self.hV = 0.5 * wts.V
        self.dt = dt
        self.c = c = dt * wts.g / wts.h
        self.chV_l, self.mchV_r = c * self.hV[:-1], -c * self.hV[1:]
        self.L = None
        self.last = None
        self.closure = wts.w[0] == 0.0
        # nodal (length n) and face (length n - 1) buffers
        self.nodal = tuple(np.empty((7, n)))
        self.faces = tuple(np.empty((3, n - 1)))
        # the band (rows: upper, diagonal, lower) and the right-hand side
        # share one buffer so that one finiteness test covers both; gtsv
        # writes only the three diagonals, so the unused corners ab[0, 0] and
        # ab[2, -1] stay zero
        self.system = np.zeros((4, n))
        self.ab, self.rhs = self.system[:3], self.system[3]
        self.bands = self.ab[0, 1:], self.ab[1], self.ab[2, :-1]
        self.finite = np.empty((4, n), dtype=bool)


def newton_step(x_old, work):
    """Advance x by one implicit step of length work.dt, with the invariants
    and buffers of work (a Workspace); returns (x_new, iterations).  x_new
    is a new array, never one of work's buffers.

    When x_old is the x_new that work.last holds, Newton starts from
    2 x_old - x_prev, x_prev being that pair's x_old, if every 1 + x of that
    start is finite and positive; otherwise from x_old.

    Newton stops when e = max |dx| / (1 + |x|) < 1e-11 (the full rule), or
    after an undamped first iteration whose e_0 gives work.L e_0^2 < 1e-12
    (the estimate rule; see the module docstring).
    Returns (None, iterations) if it fails to do so within 30 iterations, if
    the damping cannot keep 1 + x positive, or if the Jacobian is singular
    (caller decides how to subdivide the step).  When w[0] == 0 (d >= 2) the
    origin row is replaced by the algebraic regularity closure p_1 = p_0.
    Raises FloatingPointError if the Jacobian or the residual is not finite.
    """
    Vm1, wV, p_scale, hV = work.Vm1, work.wV, work.p_scale, work.hV
    c, chV_l, mchV_r = work.c, work.chV_l, work.mchV_r
    m1, m2 = work.m1, work.m2
    lx, p, dp, xp1, v, scaled, trial = work.nodal
    vbar, Dp, face = work.faces
    system, ab, rhs, finite = work.system, work.ab, work.rhs, work.finite
    upper, diag, lower = work.bands
    # only a step that succeeds gives L and the last step back: one that
    # fails or raises clears them
    L, work.L = work.L, None
    last, work.last = work.last, None
    e0 = None
    if last is not None and last[1] is x_old:
        x = np.multiply(2.0, x_old)
        np.subtract(x, last[0], out=x)
        np.add(1.0, x, out=xp1)
        # a NaN makes the min NaN, an inf the max inf
        if not (xp1.min() > 0.0 and np.isfinite(xp1.max())):
            np.copyto(x, x_old)
    else:
        x = x_old.copy()
    for it in range(30):
        # pressure p and its derivative dp = dp/dx
        np.log1p(x, out=lx)
        np.multiply(m1, lx, out=p)
        np.expm1(p, out=p)
        np.multiply(p_scale, p, out=p)
        np.multiply(m2, lx, out=dp)
        np.exp(dp, out=dp)
        np.multiply(Vm1, dp, out=dp)
        # face mobility c vbar, with vbar = (v_i + v_(i+1))/2, v = V (1 + x)
        np.add(1.0, x, out=xp1)
        np.multiply(hV, xp1, out=v)
        np.add(v[:-1], v[1:], out=vbar)
        np.multiply(c, vbar, out=vbar)
        np.subtract(p[1:], p[:-1], out=Dp)
        # right-hand side w V (x_old - x) minus the net flux, dt times the
        # face flux being c vbar Dp
        np.multiply(vbar, Dp, out=face)
        np.subtract(x_old, x, out=rhs)
        np.multiply(wV, rhs, out=rhs)
        rhs[:-1] += face
        rhs[1:] -= face
        # dt times the flux derivatives: by x_i into the lower band, by
        # x_(i+1), negated, into the upper band
        np.multiply(chV_l, Dp, out=lower)
        np.multiply(vbar, dp[:-1], out=face)
        np.subtract(lower, face, out=lower)
        np.multiply(mchV_r, Dp, out=upper)
        np.multiply(vbar, dp[1:], out=face)
        np.subtract(upper, face, out=upper)
        np.subtract(wV[:-1], lower, out=diag[:-1])
        diag[-1] = wV[-1]
        diag[1:] -= upper
        if work.closure:
            rhs[0] = p[0] - p[1]
            ab[1, 0] = -dp[0]
            ab[0, 1] = dp[1]
        if not np.isfinite(system, out=finite).all():
            raise FloatingPointError("array must not contain infs or NaNs")
        try:
            dx = work.solve_banded((1, 1), ab, rhs, overwrite_ab=True,
                                   overwrite_b=True, check_finite=False)
        except work.LinAlgError:  # a singular Jacobian: the step failed
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
            # e0 is set only for an undamped first iteration; an exact e = 0
            # would make L = 0 and accept every later step
            if it == 1 and e0 is not None and e > 0.0:
                L = e / (e0 * e0)
            work.L = L
            work.last = x_old, x
            return x, it + 1
        if it == 0 and lam == 1.0:
            if L is not None and L * e * e < 1e-12:
                work.L = L
                work.last = x_old, x
                return x, 1
            e0 = e
    return None, 30
