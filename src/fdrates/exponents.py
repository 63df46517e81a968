"""Exponents and thresholds for the fast diffusion equation u_t = div(u^(m-1) grad u).

Everything here is closed-form arithmetic in the dimension d and the
diffusion exponent m < 1.  The central quantity is alpha = 1/(m-1) < 0, the
decay exponent of the stationary profile (D + |x|^2)^alpha.  Inputs given as
:class:`fractions.Fraction` (or int) are propagated exactly; floats are
propagated in double precision.  The alpha thresholds are written once, in
_alpha_thresholds, and fdrates.spectral reads them from there.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple

__all__ = [
    "Regime",
    "ExponentSet",
    "derive_exponents",
    "alpha_to_m",
    "lambda_continuum",
    "sharp_rate",
]


class Regime(enum.Enum):
    """Range of m relative to the mass-conservation threshold m_c = (d-2)/d.

    VERY_FAST: m < m_c, solutions extinguish in finite time.
    GOOD:      m >= m_c, solutions exist globally (m = m_c included).
    CRITICAL:  m = m_star = (d-4)/(d-2), the borderline where the spectral
               gap of the linearized operator closes.
    """

    VERY_FAST = "very_fast"
    GOOD = "good"
    CRITICAL = "critical"


def _number(x):
    """x as a Fraction when it is rational (an int or a Fraction), else as a float.

    Every closed form below is written once over this number: Fraction
    arithmetic with ints stays exact and float arithmetic stays float, so the
    result has the type of the input without a branch on it.
    """
    return Fraction(x) if isinstance(x, Rational) else float(x)


def _alpha_thresholds(d: int):
    """(alpha_star, alpha_1, alpha_2) = (-(d-2)/2, -d, -(d+2)/2) as Fractions,
    the images of m_star, m_1, m_2 under m -> 1/(m-1)."""
    return Fraction(2 - d, 2), Fraction(-d), Fraction(-(d + 2), 2)


def _dimension(d) -> int:
    """d as an int; raises ValueError unless it is a positive integer."""
    d = int(d)
    if d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d}")
    return d


class _ExponentFields(NamedTuple):
    d: int
    m: float
    alpha: float
    m_c: float
    m_star: float
    m_1: float
    m_2: float
    alpha_star: float
    alpha_1: float
    alpha_2: float
    regime: Regime
    log_limit: bool
    at_m_c: bool


class ExponentSet(_ExponentFields):
    """All thresholds attached to a pair (d, m), m < 1.

    Attributes
    ----------
    alpha : 1/(m-1), profile decay exponent (negative).
    m_c : (d-2)/d, below which mass is lost in finite time.
    m_star : (d-4)/(d-2), spectral-gap threshold (-inf when d <= 2).
    m_1 : (d-1)/d and m_2 : d/(d+2), thresholds where the sharp constrained
        rate changes analytic form.
    alpha_star, alpha_1, alpha_2 : images of m_star, m_1, m_2 under
        m -> 1/(m-1), i.e. -(d-2)/2, -d, -(d+2)/2.
    regime : classification of m against m_c / m_star.
    log_limit : True when m == 0 (logarithmic diffusion).
    at_m_c : True when m == m_c (up to the tolerance for float m), where the
        self-similar rescaling is exponential; regime is then GOOD.
    """

    def __new__(cls, *args, **kwargs):  # a NamedTuple body cannot define it
        self = super().__new__(cls, *args, **kwargs)
        if self.d < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.d}")
        if not self.m < 1:
            raise ValueError(f"fast diffusion requires m < 1, got m = {self.m}")
        return self


def derive_exponents(d: int, m) -> ExponentSet:
    """Compute the full exponent/threshold set for dimension d and exponent m < 1.

    m may be a float, int, or Fraction; exact inputs give exact thresholds
    (as Fractions) and exact regime classification.  For float m the
    thresholds m == m_star and m == m_c are detected up to a fixed relative
    tolerance of 1e-12, so that float(m_c) itself counts as m_c.
    """
    d = _dimension(d)
    m = _number(m)
    if not m < 1:
        raise ValueError(f"fast diffusion requires m < 1, got m = {m}")
    num = type(m)  # thresholds are reported in the arithmetic of the input

    def at(threshold):
        slack = 1e-12 * max(1, abs(threshold)) if num is float else 0
        return abs(m - threshold) <= slack

    # m_star, m_1, m_2 are the images of the alpha thresholds under alpha_to_m
    a_star, a_1, a_2 = _alpha_thresholds(d)
    m_star = alpha_to_m(d, a_star) if d > 2 else -math.inf
    m_c = Fraction(d - 2, d)
    at_m_c = at(m_c)
    if d > 2 and at(m_star):
        regime = Regime.CRITICAL
    elif m < m_c and not at_m_c:
        regime = Regime.VERY_FAST
    else:
        regime = Regime.GOOD

    return ExponentSet(
        d=d,
        m=m,
        alpha=1 / (m - 1),
        m_c=num(m_c),
        m_star=num(m_star) if d > 2 else m_star,
        m_1=num(alpha_to_m(d, a_1)),
        m_2=num(alpha_to_m(d, a_2)),
        alpha_star=num(a_star if d > 2 else 0),
        alpha_1=num(a_1),
        alpha_2=num(a_2),
        regime=regime,
        log_limit=m == 0,
        at_m_c=at_m_c,
    )


def alpha_to_m(d: int, alpha):
    """Invert alpha = 1/(m-1): return m = 1 + 1/alpha.  Requires alpha < 0."""
    a = _number(alpha)
    if not a < 0:
        raise ValueError(f"alpha must be negative (m < 1), got alpha = {alpha}")
    return 1 + 1 / a


def lambda_continuum(d: int, alpha):
    """Bottom (d - 2 + 2 alpha)^2 / 4 of the continuous spectrum of the
    linearized operator on L^2(d mu_alpha).  d - 2 is exact, so a float alpha
    near alpha_star = -(d-2)/2 rounds once before squaring."""
    a = _number(alpha)
    return (d - 2 + 2 * a) ** 2 / 4


def sharp_rate(d: int, alpha):
    """Sharp Hardy-Poincare constant Lambda(alpha, d) for alpha < 0.

    This is the constant in  Lambda * int f^2 dmu_{alpha-1} <= int |grad f|^2 dmu_alpha,
    with the mean-zero constraint int f dmu_{alpha-1} = 0 imposed exactly when
    that measure is finite (alpha < alpha_star = -(d-2)/2).  Raises ValueError
    at the excluded point alpha = alpha_star for d >= 3 (the constant vanishes
    and no gap survives).
    """
    d = _dimension(d)
    a = _number(alpha)
    if not a < 0:
        raise ValueError(f"alpha must be negative, got {alpha}")
    if d == 1:
        return lambda_continuum(d, a) if a >= Fraction(-1, 2) else -2 * a
    a_star, a_1, a_2 = _alpha_thresholds(d)
    if a == a_star:
        raise ValueError(
            f"alpha = -(d-2)/2 = {a_star} is excluded: the spectral gap closes"
        )
    if a > a_2:
        return lambda_continuum(d, a)
    if a >= a_1:
        return -4 * a - 2 * d
    return -2 * a
