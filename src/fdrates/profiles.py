"""Barenblatt solutions, generalized stationary profiles, and matching D.

The stationary profiles of the rescaled flow are V_D(x) = (D+|x|^2)^(1/(m-1)),
D > 0.  In original variables the Barenblatt solutions are obtained from V_D
by the time-dependent rescaling r(tau) = R(tau) whose form depends on the
regime (global growth for m > m_c, finite-time extinction for m < m_c,
exponential for m = m_c).  That rescaling, RescalingMap with to_selfsimilar
and from_selfsimilar, is scalar and lives, without numpy, in fdrates.scalar;
eval_barenblatt, which takes |y| of an array y, stays here.

solve_D matches D to initial data by the bracketed Brent search of
scalar._brent_root on the truncated mass defect, which
entropy.mass_defect_from_x evaluates in the relative variable
x = v/V_D - 1, as int V_D x dx.  The data x are given relative to one profile
V_D; against a candidate V_D' the defect is that of x - q', q' = V_D'/V_D - 1,
on the Weights of V_D.  So no absolute value v or difference v - V_D is formed;
on the very large domains of critical-case runs that difference is far below
the rounding floor of v.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .entropy import Weights, mass_defect_from_x
from .exponents import ExponentSet
from .scalar import _brent_root

if TYPE_CHECKING:
    from .numerics import RadialGrid
    from .scalar import RescalingMap

__all__ = [
    "Profile",
    "eval_barenblatt",
    "solve_D",
]


class _ProfileFields(NamedTuple):
    exponents: ExponentSet
    D: float


class Profile(_ProfileFields):
    """Generalized Barenblatt profile V_D(x) = (D+|x|^2)^(1/(m-1))."""

    def __new__(cls, *args, **kwargs):  # a NamedTuple body cannot define it
        self = super().__new__(cls, *args, **kwargs)
        if not self.D > 0:
            raise ValueError(f"D must be positive, got {self.D}")
        return self

    def __call__(self, r):
        """V_D at radius r >= 0 (scalar or array): (D + r^2)^(1/(m-1))."""
        r = np.asarray(r, dtype=float)
        out = (self.D + r**2) ** float(self.exponents.alpha)
        return float(out) if out.ndim == 0 else out


def _profile_ratio_minus_one(D_from: float, D_to: float, alpha: float, r):
    """V_(D_from)/V_(D_to) - 1 at radii r, evaluated without cancellation;
    D_from - D_to enters unrounded, as the pair hi + lo of Knuth's TwoSum."""
    hi = D_from - D_to
    b = hi - D_from
    lo = (D_from - (hi - b)) + (-D_to - b)
    den = D_to + r**2
    return np.expm1(alpha * np.log1p(hi / den + lo / den))


def eval_barenblatt(map: RescalingMap, D: float, tau: float, y) -> float:
    """Barenblatt solution U_(D,T)(tau, y) in original variables.

    Satisfies R(tau)^d * U = V_D(x) with x from scalar.to_selfsimilar; the positive
    part truncation of the m > 1 family is never active for m < 1.
    """
    R = map.R(tau)
    y = np.asarray(y, dtype=float)
    rho = math.sqrt(float(np.sum(y**2)))
    x = map.space_factor() * rho / R
    v = Profile(exponents=map.exponents, D=D)(x)
    return v / R ** map.exponents.d


def solve_D(grid: RadialGrid, x: np.ndarray, profile: Profile, D0: float,
            D1: float) -> float:
    """Unique D' in [D1, D0] with zero truncated mass defect, by Brent's method.

    x holds the data at the grid nodes relative to profile, v = V_D (1 + x).
    The defect of v against a candidate V_D' is entropy.mass_defect_from_x
    of x - q', q' = V_D'/V_D - 1, on the one Weights of (grid, V_D), which
    every candidate shares: V_D' x' = v - V_D' = V_D (x - q').  The
    defect is strictly increasing in D' (V_D' is pointwise decreasing in D'),
    so the bracket holds one root, and scalar._brent_root narrows it to
    adjacent doubles, or to an exact zero, and returns the end with the
    smaller |defect|.  Raises ValueError if the defect has the same sign at
    both endpoints (the data violates the sandwich hypothesis).
    """
    if not D0 > D1 > 0:
        raise ValueError(f"need D0 > D1 > 0, got D0 = {D0}, D1 = {D1}")
    alpha = float(profile.exponents.alpha)
    r = grid.nodes
    wts = Weights.of(grid, profile)

    def g(D):
        return mass_defect_from_x(
            x - _profile_ratio_minus_one(D, profile.D, alpha, r), wts)

    g1, g0 = g(D1), g(D0)
    if g1 * g0 > 0:
        raise ValueError(
            f"mass defect has the same sign at D1 = {D1} ({g1:.3e}) and "
            f"D0 = {D0} ({g0:.3e}); no root in the bracket"
        )
    return _brent_root(g, D1, g1, D0, g0)
