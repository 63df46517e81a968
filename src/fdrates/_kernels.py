"""The implicit flow step, one pure-numpy Newton kernel: one backward-Euler
step of the radial flux-form equation

    w_i V_i dx_i/dt = net flux of  G_(i+1/2) = C (1 + xbar) (p_(i+1)-p_i)

in the relative variable x = v/V_D - 1, solved by damped Newton iteration
with the analytic tridiagonal Jacobian; C = g V_face / h is the face
conductance and p_scale = V^(m-1)/(m-1) the pressure scale of
entropy.Weights, and xbar = (x_i + x_(i+1))/2.  The pressure
p = p_scale expm1((m-1) log1p(x)) is exact for every m < 1 including m = 0
and accurate when x underflows far in the tail.

A Workspace, built once per run at one step length dt, holds what every
step shares: the invariants of the grid and profile, read from the run's
entropy.Weights, the constants of dt, and the work buffers, which each
Newton iteration overwrites before it reads them.  The constants of dt are
folded into the arithmetic: with c = dt C, vbar = c + (c/2)(x_i + x_(i+1)),
so that dt times the face flux is vbar Dp and the flux derivatives are
(c/2) Dp and vbar dp; at dt = 1 this is the flux of entropy.fisher_from_x.
The right-hand side w V (x_old - x) - (net flux) and the upper band are
built with their signs, so nothing is negated afterwards.
Each buffer holds the same bits as the form that allocates one array per
operation in this association (kept as the reference in
tests/test_kernels.py); the folds move the result from the unfolded form
p = V^(m-1) expm1(...)/(m-1), dt g V_face (1 + xbar) Dp/h by rounding only.

Newton stops by one of two rules.  The full rule stops once the step's
convergence measure e = max |dx| / (1 + |x|) falls below 1e-11, as the
reference does.  The estimate rule accepts a step after its first iteration
when Newton's quadratic convergence, e_1 ~ L e_0^2, predicts the next
correction below 1e-12.  The Workspace keeps L = e_1 / e_0^2 from the last
step that stopped by the full rule after exactly two iterations, the first of
them undamped.  No damped first iteration and no step before the first such
measurement accepts on the estimate; a step that fails or raises clears L.
After an undamped first iteration both rules are first tried on the bound
b = max |dx|, which is at least e since 1 + |x| >= 1: b < 1e-11 or
L b^2 < 1e-12 accepts the step, as e would, without measuring e.  Only when
the bound does not accept is e measured, and e_0, L and every later
decision come from e alone.

Newton starts from the linear extrapolation x_0 = 2 x_old - x_prev, where
x_prev is the state before x_old in the same run, so that in a smooth run
the first correction is of second order in dt and most steps stop on the
estimate after one iteration.  The Workspace keeps the pair (x_old, x_new)
of the last step it accepted, by either rule, and uses it only when the next
x_old is that x_new itself (the flow hands the returned array straight
back).  Without such a pair (the first step, the step after a failed one,
or a caller that passes another array), or when some x_0 is not finite or
not above -1, Newton starts from x_old.  The start moves only where the
iteration begins: the residual still measures x against x_old, and both
stopping rules are unchanged.  Like L, the pair is taken on entry, so a step
that fails or raises clears it.

Every iterate Newton builds has x > -1, tested on the array it keeps; since
1 + t is exact for t in [-1, -1/2] (Sterbenz's lemma), that is exactly
1 + x > 0.  A step whose damping cannot keep x above -1 fails.
"""

import numpy as np

__all__ = ["Workspace", "newton_step", "BACKEND"]

BACKEND = "pure"


class Workspace:
    """The per-run part of newton_step at the step length dt.  From wts,
    the run's entropy.Weights, it reads Vm1 = V^(m-1), p_scale, w V (zero at
    the origin for d >= 2, which sets closure), the face conductance C and
    m, and folds the constants of dt: c = dt C on each face, c/2 and -c/2.
    It also holds the work buffers, the views of them (and of w V) at the
    left and right node of each face, and scipy's solve_banded and
    LinAlgError, looked up once.  With these a Newton iteration takes 34
    elementwise array passes, and an undamped first iteration 31 when the
    bound max |dx| accepts it (see newton_step) and 35 when it does not.

    L is None until a step measures it; last is the (x_old, x_new) pair of
    the last step accepted, or None."""

    def __init__(self, wts, dt):
        # scipy is loaded by the first flow run, not by import fdrates
        from scipy.linalg import LinAlgError, solve_banded

        n = len(wts.wV)
        self.solve_banded, self.LinAlgError = solve_banded, LinAlgError
        self.Vm1, self.p_scale, self.wV = wts.Vm1, wts.p_scale, wts.wV
        self.m1, self.m2 = wts.m - 1.0, wts.m - 2.0
        self.dt = dt
        c = dt * wts.conductance
        self.c, self.half, self.mhalf = c, 0.5 * c, -0.5 * c
        self.L = self.last = None
        self.closure = wts.wV[0] == 0.0
        # nodal (length n) and face (length n - 1) buffers
        self.nodal = tuple(np.empty((5, n)))
        self.faces = tuple(np.empty((3, n - 1)))
        # the band (rows: upper, diagonal, lower) and the right-hand side
        # share one buffer so that one finiteness test covers both; gtsv
        # writes only the three diagonals, so the unused corners ab[0, 0] and
        # ab[2, -1] stay zero
        self.system = np.zeros((4, n))
        self.ab, self.rhs = self.system[:3], self.system[3]
        self.bands = self.ab[0, 1:], self.ab[1], self.ab[2, :-1]
        self.finite = np.empty((4, n), dtype=bool)
        # the views at the left (i) and right (i + 1) node of each face
        _, p, dp, _, _ = self.nodal
        rhs, diag = self.rhs, self.ab[1]
        self.lefts = p[:-1], dp[:-1], rhs[:-1], diag[:-1], self.wV[:-1]
        self.rights = p[1:], dp[1:], rhs[1:], diag[1:]


def newton_step(x_old, work):
    """Advance x by one implicit step of length work.dt, with the invariants
    and buffers of work (a Workspace); returns (x_new, iterations).  x_new
    is a new array, never one of work's buffers.

    When x_old is the x_new that work.last holds, Newton starts from
    2 x_old - x_prev, x_prev being that pair's x_old, if every x of that
    start is finite and above -1; otherwise from x_old.

    Newton stops when e = max |dx| / (1 + |x|) < 1e-11 (the full rule), or
    after an undamped first iteration whose e_0 gives work.L e_0^2 < 1e-12
    (the estimate rule; see the module docstring).  An undamped first
    iteration tries both rules on b = max |dx| >= e first, and returns
    without measuring e when b < 1e-11 or work.L b^2 < 1e-12.
    Returns (None, iterations) if it fails to do so within 30 iterations, if
    the damping cannot keep x above -1, or if the Jacobian is singular
    (caller decides how to subdivide the step).  When wV[0] == 0 (d >= 2) the
    origin row is replaced by the algebraic regularity closure p_1 = p_0.
    Raises FloatingPointError if the Jacobian or the residual is not finite.
    """
    Vm1, wV, p_scale, m1, m2 = work.Vm1, work.wV, work.p_scale, work.m1, work.m2
    c, half, mhalf = work.c, work.half, work.mhalf
    lx, p, dp, denom, trial = work.nodal
    vbar, Dp, face = work.faces
    system, ab, rhs, finite = work.system, work.ab, work.rhs, work.finite
    upper, diag, lower = work.bands
    p_l, dp_l, rhs_l, diag_l, wV_l = work.lefts
    p_r, dp_r, rhs_r, diag_r = work.rights
    add, sub, mul = np.add, np.subtract, np.multiply
    # only a step that succeeds gives L and the last step back: one that
    # fails or raises clears them
    L, work.L = work.L, None
    last, work.last = work.last, None
    e0 = None
    if last is not None and last[1] is x_old:
        x = mul(2.0, x_old)
        sub(x, last[0], x)
        # a NaN makes the min NaN, an inf the max inf
        if not (x.min() > -1.0 and np.isfinite(x.max())):
            np.copyto(x, x_old)
    else:
        x = x_old.copy()
    x_l, x_r = x[:-1], x[1:]
    for it in range(30):
        # pressure p and its derivative dp = dp/dx
        np.log1p(x, lx)
        mul(m1, lx, p)
        np.expm1(p, p)
        mul(p_scale, p, p)
        mul(m2, lx, dp)
        np.exp(dp, dp)
        mul(Vm1, dp, dp)
        # vbar = dt C (1 + xbar), summed as c + (c/2) (x_i + x_(i+1))
        add(x_l, x_r, vbar)
        mul(half, vbar, vbar)
        add(c, vbar, vbar)
        sub(p_r, p_l, Dp)
        # right-hand side w V (x_old - x) minus the net flux, dt times the
        # face flux being vbar Dp
        mul(vbar, Dp, face)
        sub(x_old, x, rhs)
        mul(wV, rhs, rhs)
        add(rhs_l, face, rhs_l)
        sub(rhs_r, face, rhs_r)
        # dt times the flux derivatives: by x_i into the lower band, by
        # x_(i+1), negated, into the upper band
        mul(half, Dp, lower)
        mul(vbar, dp_l, face)
        sub(lower, face, lower)
        mul(mhalf, Dp, upper)
        mul(vbar, dp_r, face)
        sub(upper, face, upper)
        sub(wV_l, lower, diag_l)
        diag[-1] = wV[-1]
        sub(diag_r, upper, diag_r)
        if work.closure:
            rhs[0] = p[0] - p[1]
            ab[1, 0] = -dp[0]
            ab[0, 1] = dp[1]
        if not np.isfinite(system, finite).all():
            raise FloatingPointError("array must not contain infs or NaNs")
        try:
            dx = work.solve_banded((1, 1), ab, rhs, overwrite_ab=True,
                                   overwrite_b=True, check_finite=False)
        except work.LinAlgError:  # a singular Jacobian: the step failed
            return None, it + 1
        # damping: halve lam until x + lam dx > -1 wherever it is not NaN
        # (fmin skips NaN, as a test "any <= -1" does); x keeps what was tested
        lam = 1.0
        add(x, dx, trial)
        while np.fmin.reduce(trial) <= -1.0:
            lam *= 0.5
            if lam < 1e-18:
                return None, it + 1
            add(x, mul(lam, dx, trial), trial)
        np.copyto(x, trial)
        # convergence: e = max |dx| / (1 + |x|) is at most b = max |dx|, so
        # an undamped first iteration that b accepts by either rule is one
        # that e accepts, and it returns before e is measured
        np.abs(dx, trial)
        first = it == 0 and lam == 1.0
        if first:
            b = float(trial.max())
            if b < 1e-11 or L is not None and L * b * b < 1e-12:
                break
        np.abs(x, denom)
        add(1.0, denom, denom)
        np.divide(trial, denom, trial)
        e = float(trial.max())
        if e < 1e-11:
            # e0 is set only for an undamped first iteration; an exact e = 0
            # would make L = 0 and accept every later step
            if it == 1 and e0 is not None and e > 0.0:
                L = e / (e0 * e0)
            break
        if first:
            if L is not None and L * e * e < 1e-12:
                break
            e0 = e
    else:
        return None, 30
    work.L = L
    work.last = x_old, x
    return x, it + 1
