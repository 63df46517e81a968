"""Entropy-method functionals and estimates.

Relative entropy F, relative Fisher information I, the truncated mass
defect, the relative bounds h1/h2/h, the linear-nonlinear sandwich bounds,
exponential/algebraic rate fitting, the calibration of the Gronwall constant
C from a trace, and the variational sharpness quotient.  The X/Y comparison
functions, their root h_star, the exponent e_unif of h <= 1 + C F^e_unif
and the Gronwall comparison ODE itself are scalar and live, without numpy,
in fdrates.scalar.

All functionals are evaluated in the relative variable x = v/V_D - 1; the
identity V_D^(m-1) = D + r^2 (exact, since alpha(m-1) = 1) makes every weight
the one power V_D = (D + r^2)^alpha times an integer power of D + r^2:
V_D^m = V_D (D + r^2) and (D + r^2)^(alpha-1) = V_D/(D + r^2).  Working in x
instead of v keeps the integrands accurate when v - V_D underflows relative
to V_D far in the tail, which is essential on the very large domains of
critical-case runs.  The weights of one (grid, profile) pair are computed
once, into a Weights record that the functionals and the flow's Newton
kernel read; I is the kernel's face flux times the pressure difference.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .exponents import ExponentSet
from .numerics import RadialGrid, cell_volumes, sphere_area
from .scalar import _window_rows, e_unif, xy_functions

if TYPE_CHECKING:
    # only here: profiles imports this module for solve_D's mass defect
    from .profiles import Profile

__all__ = [
    "Weights",
    "EntropyTrace",
    "FitResult",
    "SandwichReport",
    "fit_rate",
    "calibrate_uniform_constant",
    "variational_quotient",
    "entropy_from_x",
    "fisher_from_x",
    "sandwich_from_x",
    "mass_defect_from_x",
]


# ---------------------------------------------------------------------------
# functionals in the relative variable x = v/V_D - 1


def _phi(x, m):
    """Entropy integrand factor: F = int phi(x) V_D^m dx.

    phi(x) = (x - ((1+x)^m - 1)/m)/(1-m), with the m = 0 limit x - log1p(x)
    and a cubic Taylor branch for small x to avoid cancellation.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 0.0, x)
    if m == 0.0:
        gen = xs - np.log1p(xs)
    else:
        gen = (xs - np.expm1(m * np.log1p(xs)) / m) / (1.0 - m)
    # the series only where it is used, so that no large |x| overflows in it
    xt = np.where(small, x, 0.0)
    ser = 0.5 * xt * xt * (1.0 + (m - 2.0) * xt / 3.0)
    return np.where(small, ser, gen)


class Weights(NamedTuple):
    """The quadrature of one (grid, profile) pair, built once (Weights.of)
    and shared by the functionals below and the flow's Newton kernel:
    sd = |S^(d-1)|, Vm1 = D + r^2 = V^(m-1), p_scale = Vm1/(m-1) of the
    pressure p = p_scale expm1((m-1) log1p x), wV = w V of the cell volumes
    w, wVm = w V^m = wV Vm1, and the face conductance g V_face / h, of the
    surface factor g = mid^(d-1), the profile V_face = (D + mid^2)^alpha and
    the width h of each face, mid its midpoint.  dmu_(alpha-1) weighs a cell
    by w (D + r^2)^(alpha-1) = wV/Vm1, and the sandwich's
    w f^2 (D + r^2)^(alpha-1) is wVm x^2."""

    profile: Profile
    m: float
    sd: float
    Vm1: np.ndarray
    p_scale: np.ndarray
    wV: np.ndarray
    wVm: np.ndarray
    conductance: np.ndarray

    def __repr__(self):  # the arrays stay out
        return f"Weights(profile={self.profile!r}, m={self.m!r}, sd={self.sd!r})"

    @classmethod
    def of(cls, grid: RadialGrid, p: Profile) -> Weights:
        """The weights of grid and p; one that overflows, as
        wVm = w V (D + r^2) can for m < 0 on a domain that build_grid
        accepts, raises FloatingPointError naming R_max, without a warning."""
        m, alpha = float(p.exponents.m), float(p.exponents.alpha)
        r = grid.nodes
        h = np.diff(r)
        mid = 0.5 * (r[:-1] + r[1:])
        Vm1 = p.D + r**2
        with np.errstate(over="ignore"):
            wV = cell_volumes(grid) * Vm1**alpha
            powers = dict(wV=wV, wVm=wV * Vm1, p_scale=Vm1 / (m - 1.0),
                          conductance=mid ** (grid.d - 1) * (p.D + mid**2) ** alpha / h)
        for name, values in powers.items():
            if not np.all(np.isfinite(values)):
                raise FloatingPointError(
                    f"the weights overflow on the domain R_max = {grid.R_max}: "
                    f"{name} exceeds the largest double")
        return cls(profile=p, m=m, sd=sphere_area(grid.d), Vm1=Vm1, **powers)


def entropy_from_x(x: np.ndarray, wts: Weights) -> float:
    """Relative entropy F[v] with v = V_D (1 + x), on the shared Weights wts."""
    return wts.sd * float(np.sum(wts.wVm * _phi(x, wts.m)))


def fisher_from_x(x: np.ndarray, wts: Weights) -> float:
    """Relative Fisher information I[v] = int |grad p|^2 v dx, the flow's
    dissipation: on the shared Weights wts, the sum of the face flux
    (C + (C/2)(x_i + x_(i+1))) Dp times Dp, as the Newton kernel forms it."""
    p = wts.p_scale * np.expm1((wts.m - 1.0) * np.log1p(x))
    C, Dp = wts.conductance, np.diff(p)
    flux = (C + 0.5 * C * (x[:-1] + x[1:])) * Dp
    return wts.sd * float(np.sum(flux * Dp))


def mass_defect_from_x(x: np.ndarray, wts: Weights) -> float:
    """Truncated mass defect int (v - V_D) dx = int V_D x dx, on the shared wts."""
    return wts.sd * float(np.sum(wts.wV * x))


class SandwichReport(NamedTuple):
    """Slacks of the linear-nonlinear comparison bounds (all >= 0 when the
    bounds hold): h^(m-2) J <= 2F <= h^(2-m) J and
    grad-norm <= (1+X(h)) I + Y(h) J, where J = int f^2 dmu_(alpha-1) and
    f = (v/V_D - 1) V_D^(m-1)."""

    entropy: float
    fisher: float
    f_norm: float
    grad_norm: float
    h1: float
    h2: float
    h: float
    slack_entropy_lower: float
    slack_entropy_upper: float
    slack_fisher: float

    @property
    def all_nonnegative(self) -> bool:
        return (self.slack_entropy_lower >= 0 and self.slack_entropy_upper >= 0
                and self.slack_fisher >= 0)


def sandwich_from_x(x: np.ndarray, wts: Weights) -> SandwichReport:
    """Both sandwich bounds at the state v = V_D (1 + x), on the shared wts."""
    m = wts.m
    f = x * wts.Vm1  # (w-1) V^(m-1)
    J = wts.sd * float(np.sum(wts.wVm * x**2))
    grad = wts.sd * float(np.sum(wts.conductance * np.diff(f) ** 2))
    F = entropy_from_x(x, wts)
    I = fisher_from_x(x, wts)

    h1 = float(1.0 + np.min(x))
    h2 = float(1.0 + np.max(x))
    h = max(h2, 1.0 / h1)
    X, Y = xy_functions(h, wts.profile.exponents)
    return SandwichReport(
        entropy=F, fisher=I, f_norm=J, grad_norm=grad, h1=h1, h2=h2, h=h,
        slack_entropy_lower=2.0 * F - h ** (m - 2.0) * J,
        slack_entropy_upper=h ** (2.0 - m) * J - 2.0 * F,
        slack_fisher=(1.0 + X) * I + Y * J - grad,
    )


# ---------------------------------------------------------------------------
# traces and rate fitting


class FitResult(NamedTuple):
    rate: float
    r2: float
    window: tuple
    kind: str
    n_samples: int
    correction: float | None


class EntropyTrace(NamedTuple):
    """Time series (t, F, I, h1, h2, mass defect) from a flow run."""

    t: np.ndarray
    entropy: np.ndarray
    fisher: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    mass_defect: np.ndarray
    sandwich: tuple = ()

    COLUMNS = ("t", "entropy", "fisher", "h1", "h2", "mass_defect")

    def rows(self):
        return zip(self.t, self.entropy, self.fisher, self.h1, self.h2,
                   self.mass_defect)


def fit_rate(trace: EntropyTrace, window, kind: str = "exp") -> FitResult:
    """Fit the entropy decay over a time window.

    kind "exp" fits log F = a - rate*t and returns the decay rate (positive
    for decaying F); kind "loglog" fits log F = b + slope*log t + c/t, whose
    1/t term takes up the approach to the power law, and returns the slope
    (negative for decaying F) and c as the correction (None for "exp").  It
    takes the rows of the window, as scalar._window_rows finds and checks
    them on trace.t, that have F > 0, and refuses fewer than 10 of them.
    """
    if kind not in ("exp", "loglog"):
        raise ValueError(f"unknown fit kind {kind!r}")
    rows = _window_rows(trace.t, window, kind)
    F = trace.entropy[rows.start:rows.stop]
    usable = F > 0
    t, F = trace.t[rows.start:rows.stop][usable], F[usable]
    if len(t) < 10:
        raise ValueError(f"window {window} has {len(t)} usable samples; need >= 10")
    y = np.log(F)
    cols = [t] if kind == "exp" else [np.log(t), 1.0 / t]
    M = np.column_stack([*cols, np.ones_like(t)])
    coef, *_ = np.linalg.lstsq(M, y, rcond=None)
    resid = y - M @ coef
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    slope = float(coef[0])
    rate, correction = (-slope, None) if kind == "exp" else (slope, float(coef[1]))
    return FitResult(rate=rate, r2=r2, window=tuple(map(float, window)), kind=kind,
                     n_samples=int(len(t)), correction=correction)


# ---------------------------------------------------------------------------
# the constant of the Gronwall comparison ODE (scalar.gronwall_bound)


def calibrate_uniform_constant(trace: EntropyTrace,
                               exponents: ExponentSet) -> float:
    """Smallest C with h(t) <= 1 + C F(t)^e along the whole trace:
    max over rows of (h - 1) F^(-e)."""
    e = e_unif(exponents)
    h = np.maximum(trace.h2, 1.0 / trace.h1)
    mask = trace.entropy > 0
    if not np.any(mask):
        raise ValueError("trace has no rows with positive entropy")
    return float(np.max((h[mask] - 1.0) * trace.entropy[mask] ** (-e)))


# ---------------------------------------------------------------------------
# variational sharpness quotient


def _mean_zero(f: np.ndarray, wts: Weights) -> np.ndarray:
    """Nodal values f minus their mean in dmu_(alpha-1) = (D+|x|^2)^(alpha-1) dx."""
    mu = wts.wV / wts.Vm1
    return f - np.sum(mu * f) / np.sum(mu)


def variational_quotient(f: np.ndarray, n: int, wts: Weights) -> float:
    """Fisher/entropy ratio of the perturbed profile v_n = V_D (1 + f V^(1-m)/n).

    f, nodal values on the grid of the caller's Weights wts of V_D, is first
    projected to mean zero in dmu_(alpha-1); as n grows the quotient
    converges (at rate O(1/n)) to a multiple of the Rayleigh quotient of f,
    the multiple being the same for every f.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    # V^(1-m) = (D+r^2)^(alpha(1-m)) = 1/(D+r^2)
    x = _mean_zero(f, wts) / (n * wts.Vm1)
    if np.any(1.0 + x <= 0):
        raise ValueError(f"perturbation not positive at n = {n}; increase n")
    F = entropy_from_x(x, wts)
    I = fisher_from_x(x, wts)
    if F == 0.0:
        raise ZeroDivisionError("zero entropy for nonzero perturbation")
    return I / F
