"""Closed-form spectrum of the linearized fast-diffusion operator.

The operator L f = -(D+|x|^2)^(1-alpha) div((D+|x|^2)^alpha grad f) on
L^2((D+|x|^2)^(alpha-1) dx) has continuous spectrum [lambda_cont, inf) with
lambda_cont (exponents.lambda_continuum) and finitely many discrete eigenvalues

    lambda_(l,k) = -2*alpha*(l+2k) - 4k(k+l+d/2-1)

indexed by the spherical-harmonic sector l and radial index k, admissible for
(l,k) != (0,0) and l+2k-1 < -(d+2*alpha)/2.  Eigenfunctions are
r^l * (polynomial in r^2) obtained from hypergeometric series termination.
All arithmetic stays in exact rationals when alpha is rational.  The alpha
thresholds come from exponents._alpha_thresholds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .exponents import (_alpha_thresholds, _dimension, _number, lambda_continuum,
                        sharp_rate)

if TYPE_CHECKING:
    import numpy as np

    from .numerics import RadialGrid

__all__ = [
    "EigenMode",
    "SpectralReport",
    "SpectralMismatchError",
    "ImprovedConstant",
    "discrete_mode",
    "improved_constant",
    "spectrum_report",
    "multiplicity",
    "mode_field",
    "ode_residual",
]


def multiplicity(d: int, l: int) -> int:
    """Dimension M_l of the sector-l spherical harmonics.

    M_l = (d+l-3)! (d+2l-2) / (l! (d-2)!) for d >= 2, with M_0 = 1; in
    dimension one the only sectors are the even/odd parities, M_0 = M_1 = 1.
    """
    if l < 0:
        raise ValueError(f"l must be nonnegative, got {l}")
    if l == 0:
        return 1
    if d == 1:
        return 1 if l == 1 else 0
    return (math.factorial(d + l - 3) * (d + 2 * l - 2)) // (
        math.factorial(l) * math.factorial(d - 2)
    )


class EigenMode(NamedTuple):
    """One discrete mode (l, k) with its eigenvalue and radial polynomial.

    radial_poly lists the k+1 coefficients (c_0, ..., c_k) of the radial part
    v(r) = r^l * (c_0 + c_1 r^2 + ... + c_k r^(2k)); coefficients are exact
    Fractions when alpha is rational.
    """

    d: int
    alpha: object
    l: int
    k: int
    lam: object
    admissible: bool
    below_continuum: bool
    multiplicity: int
    radial_poly: tuple


def discrete_mode(d: int, alpha, l: int, k: int) -> EigenMode:
    """Eigenvalue, admissibility, multiplicity and radial polynomial of (l, k).

    The polynomial comes from the termination of the hypergeometric series
    with parameters a = -k, b = l + alpha + d/2 - 1 + k, c = l + d/2 in the
    variable s = -r^2: coefficients obey
    c_(j+1) = c_j (j+a)(j+b) / ((j+1)(j+c)).
    """
    d = _dimension(d)
    for name, value in (("l", l), ("k", k)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    a = _number(alpha)
    if not a < 0:
        raise ValueError(f"alpha must be negative, got {alpha}")
    half_d = Fraction(d, 2)
    n = l + 2 * k
    lam = -2 * a * n - 4 * k * (k + l + half_d - 1)

    if d >= 2:
        admissible = (l, k) != (0, 0) and (n - 1) < -(d + 2 * a) / 2
    else:
        admissible = l <= 1 and 1 <= n <= Fraction(1, 2) - a
    below = lam < lambda_continuum(d, a)

    # hypergeometric termination recurrence, then s = -r^2 sign flip
    hb = l + a + half_d - 1 + k
    hc = l + half_d
    coeffs = [type(a)(1)]
    for j in range(k):
        coeffs.append(coeffs[-1] * (j - k) * (j + hb) / ((j + 1) * (j + hc)))
    radial = tuple(c * (-1) ** j for j, c in enumerate(coeffs))

    return EigenMode(d=d, alpha=a, l=l, k=k, lam=lam, admissible=bool(admissible),
                     below_continuum=bool(below), multiplicity=multiplicity(d, l),
                     radial_poly=radial)


class ImprovedConstant(NamedTuple):
    """Constant of the unconstrained (improved) inequality, with a flag marking
    alpha in (-d, -(d+2)/2) where the (0,1) eigenvalue sits strictly below the
    reported value (the definition keeps the continuum bottom there)."""

    value: object
    discrepancy_flag: bool

    def __float__(self):
        return float(self.value)


def improved_constant(d: int, alpha) -> ImprovedConstant:
    """Sharp constant without the mean-zero constraint, for d >= 2 and alpha < -d/2.

    Equals -4 alpha - 2 d for alpha < alpha_1 = -d (where a discrete
    eigenvalue sits below the continuum) and the continuum bottom
    lambda_continuum on [-d, -d/2).
    """
    if d < 2:
        raise ValueError("improved constant defined for d >= 2")
    a = _number(alpha)
    if not a < -Fraction(d, 2):
        raise ValueError(f"requires alpha < -d/2, got alpha = {alpha}")
    _, a_1, a_2 = _alpha_thresholds(d)
    value = -4 * a - 2 * d if a < a_1 else lambda_continuum(d, a)
    flag = a_1 < a < a_2
    return ImprovedConstant(value=value, discrepancy_flag=bool(flag))


class SpectralMismatchError(RuntimeError):
    """The spectral minimum of a report disagrees with the closed-form sharp
    constant: a numerical failure, not a usage error."""


class SpectralReport(NamedTuple):
    """Spectral summary for one (d, alpha): sharp constant, continuum bottom,
    improved constant, gap source, mode table, and the constraint flag."""

    d: int
    alpha: object
    sharp_constant: object
    continuum_bottom: object
    improved_constant: object  # None when alpha >= -d/2 or d < 2
    gap_source: tuple  # ("continuum",) or ("mode", l, k)
    modes: tuple
    constraint_needed: bool


def spectrum_report(d: int, alpha, l_max: int = 3, k_max: int = 3) -> SpectralReport:
    """Enumerate modes with l <= l_max, k <= k_max and locate the spectral gap.

    The gap source is the continuum or the admissible below-continuum mode
    of least eigenvalue among the table's modes, the translation mode (1,0)
    and the dilation mode (0,1), whether the table holds them or not.  Its
    value is checked against the closed-form sharp constant; a disagreement
    raises SpectralMismatchError.  Raises ValueError, naming the parameter,
    unless d >= 1 and l_max, k_max >= 0.
    """
    d = _dimension(d)
    for name, value in (("l_max", l_max), ("k_max", k_max)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    a = _number(alpha)
    sharp = sharp_rate(d, a)
    cont = lambda_continuum(d, a)
    modes = tuple(
        discrete_mode(d, a, l, k)
        for l in range(l_max + 1)
        for k in range(k_max + 1)
    )
    best = ("continuum",)
    best_lam = cont
    for mo in modes + (discrete_mode(d, a, 1, 0), discrete_mode(d, a, 0, 1)):
        if mo.admissible and mo.below_continuum and mo.lam < best_lam:
            best_lam = mo.lam
            best = ("mode", mo.l, mo.k)
    constraint_needed = a < _alpha_thresholds(d)[0]
    if abs(float(best_lam) - float(sharp)) > 1e-9 * max(1.0, abs(float(sharp))):
        raise SpectralMismatchError(
            f"spectral minimum {best_lam} disagrees with the closed form {sharp}"
        )
    try:
        improved = improved_constant(d, a)
    except ValueError:
        improved = None
    return SpectralReport(d=d, alpha=a, sharp_constant=sharp, continuum_bottom=cont,
                          improved_constant=improved, gap_source=best, modes=modes,
                          constraint_needed=constraint_needed)


def mode_field(mode: EigenMode, grid: RadialGrid) -> np.ndarray:
    """The radial eigenfunction r^l * poly(r^2) at the nodes of a grid.  A
    mode that is not admissible, whose polynomial lies outside the weighted
    space, raises ValueError."""
    if not mode.admissible:
        raise ValueError(f"mode (l, k) = ({mode.l}, {mode.k}) is not admissible "
                         f"at d = {mode.d}, alpha = {mode.alpha}")
    # numpy is loaded here, its only user, so the closed-form spectrum and
    # eigenfunction computations start without it
    import numpy as np

    r = grid.nodes
    poly = np.zeros_like(r)
    for j, c in enumerate(reversed(mode.radial_poly)):
        poly = poly * r**2 + float(c)
    return r ** mode.l * poly


def ode_residual(d: int, alpha, l: int, k: int) -> float:
    """Max absolute residual of the radial eigen-ODE at r = 1/10, ..., 5 (D = 1):

        v'' + ((d-1)/r + 2 alpha r/(1+r^2)) v' + (lam/(1+r^2) - l(l+d-2)/r^2) v = 0

    evaluated in exact rational arithmetic, so an eigenpair gives exactly 0.
    alpha must be rational (an int or a Fraction); a float is rejected.
    """
    mode = discrete_mode(d, alpha, l, k)
    a = mode.alpha
    if not isinstance(a, Fraction):
        raise ValueError("ode_residual requires rational alpha for exact coefficients")
    terms = [(l + 2 * j, c) for j, c in enumerate(mode.radial_poly)]  # c r^e
    worst = Fraction(0)
    for i in range(1, 51):
        r = Fraction(i, 10)
        v = sum(c * r**e for e, c in terms)
        v1 = sum(e * c * r ** (e - 1) for e, c in terms)
        v2 = sum(e * (e - 1) * c * r ** (e - 2) for e, c in terms)
        res = (v2 + ((d - 1) / r + 2 * a * r / (1 + r**2)) * v1
               + (mode.lam / (1 + r**2) - l * (l + d - 2) / r**2) * v)
        worst = max(worst, abs(res))
    return float(worst)
