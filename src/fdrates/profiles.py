"""Barenblatt solutions, generalized stationary profiles, and rescaling maps.

The stationary profiles of the rescaled flow are V_D(x) = (D+|x|^2)^(1/(m-1)),
D > 0.  In original variables the Barenblatt solutions are obtained from V_D
by the time-dependent rescaling r(tau) = R(tau) whose form depends on the
regime (global growth for m > m_c, finite-time extinction for m < m_c,
exponential for m = m_c).

solve_D matches D to initial data by bisection on the truncated mass defect,
evaluated as entropy.mass_defect_from_x evaluates it: in the relative
variable x = v/V_D - 1, as int V_D x dx.  The data are given relative to one
profile and re-expressed relative to each candidate by
_profile_ratio_minus_one, so no absolute value v or difference v - V_D is
formed; on the very large domains of critical-case runs that difference is
far below the rounding floor of v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import ExponentSet, Regime
from .numerics import RadialField, cell_volumes, sphere_area

__all__ = [
    "Profile",
    "RescalingMap",
    "ExtinctionError",
    "BisectionError",
    "eval_barenblatt",
    "to_selfsimilar",
    "from_selfsimilar",
    "solve_D",
]


class ExtinctionError(ValueError):
    """Evaluation requested at or past the extinction time (m < m_c)."""

    def __init__(self, tau, T):
        super().__init__(f"tau = {tau} is not before the extinction time T = {T}")
        self.tau = tau
        self.T = T


class BisectionError(RuntimeError):
    """solve_D took _BISECT_MAXIT bisection steps without the mass defect
    reaching _BISECT_TOL."""


@dataclass(frozen=True)
class Profile:
    """Generalized Barenblatt profile V_D(x) = (D+|x|^2)^(1/(m-1))."""

    exponents: ExponentSet
    D: float

    def __post_init__(self):
        if not self.D > 0:
            raise ValueError(f"D must be positive, got {self.D}")

    def __call__(self, r):
        """V_D at radius r >= 0 (scalar or array): (D + r^2)^(1/(m-1))."""
        r = np.asarray(r, dtype=float)
        out = (self.D + r**2) ** float(self.exponents.alpha)
        return float(out) if out.ndim == 0 else out


def _profile_ratio_minus_one(D_from: float, D_to: float, alpha: float, r):
    """V_(D_from)/V_(D_to) - 1 at radii r, evaluated without cancellation."""
    return np.expm1(alpha * np.log1p((D_from - D_to) / (D_to + r**2)))


@dataclass(frozen=True)
class RescalingMap:
    """Self-similar change of variables between original (tau, y, u) and
    rescaled (t, x, v) coordinates, with v = R(tau)^d u."""

    exponents: ExponentSet
    T: float = 1.0

    def __post_init__(self):
        if self.T < 0:
            raise ValueError(f"time origin T must be nonnegative, got {self.T}")

    def _regime_data(self):
        """(side, m, m_c, d): side is the sign of m - m_c as derive_exponents
        decided it, 0 at m = m_c."""
        e = self.exponents
        if e.at_m_c:
            side = 0
        else:
            side = 1 if e.regime is Regime.GOOD else -1
        return side, float(e.m), float(e.m_c), e.d

    def R(self, tau: float) -> float:
        """Regime-resolved rescaling radius R(tau)."""
        side, m, m_c, d = self._regime_data()
        if side > 0:
            if self.T + tau <= 0:
                raise ValueError(f"T + tau must be positive, got {self.T + tau}")
            return (self.T + tau) ** (1.0 / (d * (m - m_c)))
        if side < 0:
            if tau >= self.T:
                raise ExtinctionError(tau, self.T)
            return (self.T - tau) ** (-1.0 / (d * (m_c - m)))
        return math.exp(tau)

    def space_factor(self) -> float:
        """sqrt((1-m)/(2d|m-m_c|)), the x = c*y/R coefficient; 1/sqrt(d) at m=m_c."""
        side, m, m_c, d = self._regime_data()
        if side == 0:
            return 1.0 / math.sqrt(d)
        return math.sqrt((1.0 - m) / (2.0 * d * abs(m - m_c)))


def eval_barenblatt(map: RescalingMap, D: float, tau: float, y) -> float:
    """Barenblatt solution U_(D,T)(tau, y) in original variables.

    Satisfies R(tau)^d * U = V_D(x) with x from to_selfsimilar; the positive
    part truncation of the m > 1 family is never active for m < 1.
    """
    R = map.R(tau)
    y = np.asarray(y, dtype=float)
    rho = math.sqrt(float(np.sum(y**2)))
    x = map.space_factor() * rho / R
    v = Profile(exponents=map.exponents, D=D)(x)
    return v / R ** map.exponents.d


def to_selfsimilar(map: RescalingMap, tau: float, y, u_value: float):
    """Map original variables (tau, y, u) to rescaled (t, x, v).

    t = ((1-m)/2) log(R(tau)/R(0)); x = space_factor * y/R(tau); v = R^d u.
    For m = m_c these reduce to t = tau/d and x = e^(-tau) y/sqrt(d).
    """
    m = float(map.exponents.m)
    R = map.R(tau)
    R0 = map.R(0.0)
    t = 0.5 * (1.0 - m) * math.log(R / R0)
    x = map.space_factor() * np.asarray(y, dtype=float) / R
    v = R ** map.exponents.d * u_value
    return t, x, v


def from_selfsimilar(map: RescalingMap, t: float, x, v_value: float):
    """Inverse of to_selfsimilar; round-trips to 1e-12 relative error."""
    side, m, m_c, d = map._regime_data()
    R0 = map.R(0.0)
    R = R0 * math.exp(2.0 * t / (1.0 - m))
    if side > 0:
        tau = R ** (d * (m - m_c)) - map.T
    elif side < 0:
        tau = map.T - R ** (-(d * (m_c - m)))
    else:
        tau = d * t
    y = np.asarray(x, dtype=float) * R / map.space_factor()
    u = v_value / R**d
    return tau, y, u


# solve_D stops once |mass defect| <= _BISECT_TOL, and raises BisectionError
# after _BISECT_MAXIT bisection steps
_BISECT_TOL = 1e-10
_BISECT_MAXIT = 200


def solve_D(x: RadialField, profile: Profile, D0: float, D1: float) -> float:
    """Unique D' in [D1, D0] with zero truncated mass defect, by bisection.

    x holds the data relative to profile, v = V_D (1 + x).  The defect of v
    against a candidate V_D' is int V_D' x' dx with x' = q + (1 + q) x and
    q = V_D/V_D' - 1, in the operation order of entropy.mass_defect_from_x,
    so that x' at the returned D' has as its mass_defect_from_x the last
    defect evaluated here.  The defect is strictly increasing in D' (V_D' is pointwise
    decreasing in D'), so bisection on the bracket is unconditionally safe;
    raises ValueError if the defect has the same sign at both endpoints (the
    data violates the sandwich hypothesis) and BisectionError if
    |defect| <= _BISECT_TOL is not reached in _BISECT_MAXIT steps.
    """
    if not D0 > D1 > 0:
        raise ValueError(f"need D0 > D1 > 0, got D0 = {D0}, D1 = {D1}")
    alpha = float(profile.exponents.alpha)
    r = x.grid.nodes
    w = cell_volumes(x.grid)
    sd = sphere_area(x.grid.d)
    r2 = r**2

    def g(D):
        q = _profile_ratio_minus_one(profile.D, D, alpha, r)
        return sd * float(np.sum(w * (D + r2) ** alpha * (q + (1.0 + q) * x.values)))

    lo, hi = D1, D0
    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if glo * ghi > 0:
        raise ValueError(
            f"mass defect has the same sign at D1 = {D1} ({glo:.3e}) and "
            f"D0 = {D0} ({ghi:.3e}); no root in the bracket"
        )
    for _ in range(_BISECT_MAXIT):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if abs(gm) <= _BISECT_TOL:
            return mid
        if gm * glo < 0:
            hi = mid
        else:
            lo, glo = mid, gm
    raise BisectionError(
        f"mass defect not within {_BISECT_TOL:g} of zero after {_BISECT_MAXIT} "
        f"bisection steps (bracket [{lo!r}, {hi!r}])"
    )
