"""Pure-numpy implementation of the implicit flow step.

Semantics are mirrored exactly by the compiled twin (_speedups.pyx): one
backward-Euler step of the radial flux-form equation

    w_i V_i dx_i/dt = net flux of  G_(i+1/2) = g v_bar (p_(i+1)-p_i)/h

in the relative variable x = v/V_D - 1, solved by damped Newton iteration
with the analytic tridiagonal Jacobian.  The pressure is
p = V^(m-1) expm1((m-1) log1p(x))/(m-1), which is exact for every m < 1
including m = 0 and stays accurate when x underflows far in the tail.
"""

import numpy as np

BACKEND = "pure"


def newton_step(x_old, V, Vm1, w, g, h, m, dt, tol=1e-11, maxit=30):
    """Advance x by one implicit step; returns (x_new, iterations).

    Returns (None, maxit) if Newton fails to converge (caller decides how to
    subdivide the step).  When w[0] == 0 (d >= 2) the origin row is replaced
    by the algebraic regularity closure p_1 = p_0.  Raises ValueError if the
    Jacobian or the residual is not finite.
    """
    from scipy.linalg import solve_banded  # loaded at the first flow step

    x = x_old.copy()
    n = len(x)
    wV = w * V
    closure = w[0] == 0.0
    gh = g / h
    hV_l = 0.5 * V[:-1]
    hV_r = 0.5 * V[1:]
    m1 = m - 1.0
    m2 = m - 2.0
    # rows: upper, diagonal, lower; the unused corners stay zero
    ab = np.zeros((3, n))
    for it in range(maxit):
        lx = np.log1p(x)
        p = Vm1 * np.expm1(m1 * lx) / m1
        dp = Vm1 * np.exp(m2 * lx)
        vl = V[:-1] * (1.0 + x[:-1])
        vr = V[1:] * (1.0 + x[1:])
        vbar = 0.5 * (vl + vr)
        Dp = p[1:] - p[:-1]
        dt_flux = dt * (g * vbar * Dp / h)
        resid = wV * (x - x_old)
        resid[:-1] -= dt_flux
        resid[1:] += dt_flux
        dt_dG_l = dt * (gh * (-vbar * dp[:-1] + hV_l * Dp))
        dt_dG_r = dt * (gh * (vbar * dp[1:] + hV_r * Dp))
        ab[1] = wV
        ab[1, :-1] -= dt_dG_l
        ab[1, 1:] += dt_dG_r
        ab[0, 1:] = -dt_dG_r
        ab[2, :-1] = dt_dG_l
        if closure:
            resid[0] = p[1] - p[0]
            ab[1, 0] = -dp[0]
            ab[0, 1] = dp[1]
        rhs = -resid
        if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
            raise ValueError("array must not contain infs or NaNs")
        dx = solve_banded((1, 1), ab, rhs, overwrite_ab=True, overwrite_b=True,
                          check_finite=False)
        lam = 1.0
        while np.any(1.0 + x + lam * dx <= 0.0):
            lam *= 0.5
            if lam < 1e-18:
                return None, it + 1
        x = x + lam * dx
        if np.max(np.abs(dx) / (1.0 + np.abs(x))) < tol:
            return x, it + 1
    return None, maxit
