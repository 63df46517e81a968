"""The scalar steps from the sharp constant to decay rates, in Python floats.

The time-axis check of the flows, the Gronwall integrator and the run
configuration (_schedule), and the fit-window check of fit_rate and the run
configuration (_window_rows); the one root finder, a bracketed Brent search
(_brent_root), which matches D to initial data (profiles.solve_D) and solves
the quantization fit of the domain extrapolation (numerics._quantization_fit);
the Gronwall comparison ODE, which turns F0, a rate Lambda, the constant C
and the comparison functions X, Y into a bound on the entropy, or refuses a
dt that overshoots G = 0; and the self-similar change of variables between
original (tau, y, u) and rescaled (t, x, v) coordinates.

This module imports no numpy, so the gronwall and rescale commands start
without it.  gronwall_bound returns its columns as array('d') buffers, 8 bytes
a value, which np.asarray reads without a copy; the maps take y and x as a
float or as an ndarray.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from typing import NamedTuple

from .exponents import ExponentSet, Regime

__all__ = [
    "ScheduleError",
    "xy_functions",
    "h_star",
    "e_unif",
    "gronwall_bound",
    "ExtinctionError",
    "RescalingMap",
    "to_selfsimilar",
    "from_selfsimilar",
]


# ---------------------------------------------------------------------------
# the time axis


class ScheduleError(ValueError):
    """A time axis that _schedule refuses; parameter names the input at fault:
    "dt", "t_end" or "cadence"."""

    def __init__(self, parameter, message):
        super().__init__(message)
        self.parameter = parameter


def _time_tol(span):
    """How far a time may lie off a time axis of length span and still count
    as on it: 1e-9 max(span, 1)."""
    return 1e-9 * max(span, 1.0)


def _schedule(t0, t_end, dt, cadence):
    """(cadence, n_sub, n_rec): rows every cadence = n_sub*dt, n_rec rows after t0.

    The one check of a time axis, for the flows, the Gronwall integrator and
    the run configuration.  dt and a given cadence must be finite and
    positive, t_end finite and beyond t0, and t_end - t0 a whole number,
    at least one, of steps and of cadences, within _time_tol, so no run
    stops short of t_end or beyond it.  The default cadence gives ~200
    rows: k0 = round(max(dt, span/200)/dt) steps per row when k0 divides the
    n steps of the span, otherwise the largest divisor of n below k0, found
    in at most k0 trials.
    Raises ScheduleError naming the parameter at fault.
    """
    for name, value in (("dt", dt), ("cadence", cadence)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ScheduleError(name, f"{name} must be finite and positive, "
                                      f"got {value}")
    if not (math.isfinite(t_end) and t_end > t0):
        raise ScheduleError("t_end", f"t_end must be finite and beyond the "
                                     f"current time t = {t0}, got {t_end}")
    span = t_end - t0
    n = round(span / dt)
    if n < 1:
        raise ScheduleError("t_end", f"t_end - t = {span} holds no time step "
                                     f"of dt = {dt}")
    given = cadence is not None
    if not given:
        k = round(max(dt, span / 200.0) / dt)
        while n % k:
            k -= 1
        cadence = k * dt
    n_sub = round(cadence / dt)
    if n_sub < 1 or abs(n_sub * dt - cadence) > 1e-9 * cadence:
        raise ScheduleError("cadence", f"cadence {cadence} is not an integer "
                                       f"multiple of dt {dt}")
    n_rec = round(span / cadence)
    tol = _time_tol(span)
    if n_rec < 1 or abs(n_rec * cadence - span) > tol:
        if given and abs(n * dt - span) <= tol:
            raise ScheduleError("cadence", f"t_end - t = {span} is not an "
                                           f"integer multiple of the cadence {cadence}")
        raise ScheduleError("dt", f"t_end - t = {span} is not an integer "
                                  f"multiple of the time step dt = {dt}")
    return cadence, n_sub, n_rec


def _window_rows(times, window, kind):
    """The range of rows of the increasing time axis times that the fit
    window (w0, w1) takes, for entropy.fit_rate and the run configuration.
    A row within tol = _time_tol(times[-1] - times[0]) of the window counts,
    as j*0.1 for j = 12 does, just past 1.2.  Raises ValueError for a window
    beyond the axis by more than tol, with fewer than 10 rows (so one that
    does not increase), or of kind "loglog" with a row at t <= 0; rows with
    F <= 0 count here too, as fit_rate drops them only after this check."""
    w0, w1 = window
    first, last = float(times[0]), float(times[-1])
    tol = _time_tol(last - first)
    if w0 < first - tol:
        raise ValueError(f"fit window start {w0} lies before the trace start t = {first}")
    if w1 > last + tol:
        raise ValueError(f"fit window end {w1} lies beyond the trace end t = {last}")
    rows = range(bisect_left(times, w0 - tol), bisect_right(times, w1 + tol))
    if len(rows) < 10:
        raise ValueError(f"fit window [{w0}, {w1}] has {len(rows)} rows; need >= 10")
    if kind == "loglog" and times[rows[0]] <= 0:
        raise ValueError("loglog fit needs strictly positive times")
    return rows


# ---------------------------------------------------------------------------
# the root finder


def _brent_root(f, a, fa, b, fb):
    """Root of f between a and b, where fa = f(a) and fb = f(b) differ in sign.

    Brent's method (Brent 1973, ch. 4): an inverse quadratic or secant step,
    kept only if it stays within three quarters of the way to c and below
    half the step before last, else a bisection step; a step below one ulp
    moves one ulp.  The bracket [b, c] keeps ends of opposite sign, and the
    search stops only when no double lies strictly inside it, or when f(b)
    is exactly zero; it returns the end b, the one with the smaller |f|.
    """
    c, fc = a, fa
    step = prev = b - a
    while True:
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            step = prev = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        if fb == 0 or math.nextafter(b, c) == c:
            return b
        half = 0.5 * (c - b)
        if prev != 0 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * half * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * half * q, abs(prev * q)):
                prev, step = step, p / q
            else:
                prev = step = half
        else:
            prev = step = half
        a, fa = b, fb
        x = b + step
        if x == b:
            x = math.nextafter(b, c)
        elif not min(b, c) < x < max(b, c):
            x = b + half
        b, fb = x, f(x)


# ---------------------------------------------------------------------------
# Gronwall comparison ODE


def xy_functions(h: float, exponents: ExponentSet):
    """Comparison functions X(h) = h^(5-2m) - 1 and
    Y(h) = d(1-m)(h^(4(2-m)) - 1); X(1) = Y(1) = 0."""
    if h < 1.0:
        raise ValueError(f"h must be >= 1, got {h}")
    m = float(exponents.m)
    d = exponents.d
    X = h ** (5.0 - 2.0 * m) - 1.0
    Y = d * (1.0 - m) * (h ** (4.0 * (2.0 - m)) - 1.0)
    return X, Y


def h_star(exponents: ExponentSet, Lambda: float) -> float:
    """Unique h > 1 with Y(h) = Lambda (Y is strictly increasing, Y(1) = 0):
    h_star = (1 + Lambda/(d(1-m)))^(1/(4(2-m)))."""
    if not Lambda > 0:
        raise ValueError(f"Lambda must be positive, got {Lambda}")
    m = float(exponents.m)
    return (1.0 + Lambda / (exponents.d * (1.0 - m))) ** (1.0 / (4.0 * (2.0 - m)))


def e_unif(exponents: ExponentSet) -> float:
    """Exponent e = (1-m)/(d+2-(d+1)m) of the uniform bound h <= 1 + C F^e."""
    m, d = float(exponents.m), exponents.d
    return (1.0 - m) / (d + 2.0 - (d + 1.0) * m)


def gronwall_bound(F0: float, exponents: ExponentSet, Lambda: float, C: float,
                   t_end: float, dt: float):
    """Integrate the comparison ODE
    dG/dt = -2 (Lambda - Y(h)) / ((1+X(h)) h^(2-m)) G, h = 1 + C G^e_unif,
    by classical RK4 from G(0) = F0.

    Requires F0 >= 0, C >= 0 and h0 = 1 + C F0^e_unif below h_star (the
    regime where Lambda - Y(h) > 0, so the exact G stays positive and
    decreasing); with C = 0 the solution is exactly F0 e^(-2 Lambda t).
    t_end must be an integer multiple of dt (_schedule).  An RK4 stage
    value below 0 raises FloatingPointError naming dt: with C = 0 and
    z = 2 Lambda dt the fourth stage is G (1 - z + z^2/2 - z^3/4), which
    first turns negative at z = 1.2956.  Returns (t, G) as array('d')
    buffers of n + 1 values, with t[i] = i (n dt/n) and t[n] = n dt, the
    bits of np.linspace(0, n dt, n + 1).
    """
    if F0 < 0:
        raise ValueError("F0 must be nonnegative")
    if C < 0:
        raise ValueError("C must be nonnegative")
    e = e_unif(exponents)
    h0 = 1.0 + C * F0**e
    hs = h_star(exponents, Lambda)
    if not h0 < hs:
        raise ValueError(f"h0 = {h0} must be below h_star = {hs}")
    _, _, n = _schedule(0.0, t_end, dt, dt)
    m = float(exponents.m)
    Lam = float(Lambda)

    def rhs(G):
        if G < 0.0:
            raise FloatingPointError(
                f"an RK4 stage of the Gronwall ODE reached G = {G} < 0: "
                f"dt = {dt} is too large for the rate 2 Lambda = {2.0 * Lam}")
        h = 1.0 + C * G**e
        X, Y = xy_functions(h, exponents)
        return -2.0 * (Lam - Y) / ((1.0 + X) * h ** (2.0 - m)) * G

    step = n * dt / n
    t = array("d", (i * step for i in range(n)))
    t.append(n * dt)
    G = array("d", [F0])
    g = F0
    for _ in range(n):
        k1 = rhs(g)
        k2 = rhs(g + 0.5 * dt * k1)
        k3 = rhs(g + 0.5 * dt * k2)
        k4 = rhs(g + dt * k3)
        g = g + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        G.append(g)
    return t, G


# ---------------------------------------------------------------------------
# self-similar change of variables


class ExtinctionError(ValueError):
    """Evaluation requested at or past the extinction time (m < m_c)."""

    def __init__(self, tau, T):
        super().__init__(f"tau = {tau} is not before the extinction time T = {T}")
        self.tau = tau
        self.T = T


class _RescalingFields(NamedTuple):
    exponents: ExponentSet
    T: float = 1.0


class RescalingMap(_RescalingFields):
    """Self-similar change of variables between original (tau, y, u) and
    rescaled (t, x, v) coordinates, with v = R(tau)^d u."""

    def __new__(cls, *args, **kwargs):  # a NamedTuple body cannot define it
        self = super().__new__(cls, *args, **kwargs)
        if self.T < 0:
            raise ValueError(f"time origin T must be nonnegative, got {self.T}")
        return self

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
        """R(tau) = (T + s tau)^(1/(d(m - m_c))), s = sign(m - m_c); e^tau at
        m_c.  A power or exponential that overflows or underflows to 0 raises
        FloatingPointError."""
        side, m, m_c, d = self._regime_data()
        if side == 0:
            return _exp(tau, f"R(tau) = e^tau at tau = {tau}")
        if side < 0 and tau >= self.T:
            raise ExtinctionError(tau, self.T)
        if self.T + side * tau <= 0:
            raise ValueError(f"T + tau must be positive, got {self.T + tau}")
        return _power(self.T + side * tau, 1.0 / (d * (m - m_c)),
                      f"R(tau) = (T + s tau)^(1/(d(m - m_c))) at tau = {tau}")

    def space_factor(self) -> float:
        """sqrt((1-m)/(2d|m-m_c|)), the x = c*y/R coefficient; 1/sqrt(d) at m=m_c."""
        side, m, m_c, d = self._regime_data()
        if side == 0:
            return 1.0 / math.sqrt(d)
        return math.sqrt((1.0 - m) / (2.0 * d * abs(m - m_c)))


def _power(base: float, p: float, what: str) -> float:
    """base ** p, refused with FloatingPointError naming what, base and p
    where it overflows or underflows to 0."""
    try:
        value = base ** p
    except (OverflowError, ZeroDivisionError):  # 0.0 ** p, p < 0, too
        value = math.inf
    return _in_range(value, what, f"{base!r}^{p!r}")


def _exp(x: float, what: str) -> float:
    """e^x, refused with FloatingPointError naming what and x where it
    overflows or underflows to 0."""
    try:
        value = math.exp(x)
    except OverflowError:
        value = math.inf
    return _in_range(value, what, f"e^{x!r}")


def _in_range(value: float, what: str, expr: str) -> float:
    if 0.0 < value < math.inf:
        return value
    raise FloatingPointError(f"{what}: {expr} "
                             f"{'underflows to 0' if value == 0.0 else 'overflows'}")


def _R0(map: RescalingMap) -> float:
    """R(0), the radius at the origin of the rescaled time t.  Off m = m_c a
    time origin T = 0 puts R(0) at 0 (m > m_c) or past the extinction time
    (m < m_c), so it is refused, naming T."""
    if map.T == 0 and map._regime_data()[0] != 0:
        raise ValueError(f"the self-similar variables need a time origin T > 0 "
                         f"when m != m_c, got T = {map.T}")
    return map.R(0.0)


def to_selfsimilar(map: RescalingMap, tau: float, y, u_value: float):
    """Map original variables (tau, y, u) to rescaled (t, x, v); y is a float
    or an ndarray.

    t = ((1-m)/2) log(R(tau)/R(0)); x = space_factor * y/R(tau); v = R^d u.
    For m = m_c these reduce to t = tau/d and x = e^(-tau) y/sqrt(d).
    """
    m = float(map.exponents.m)
    R0 = _R0(map)
    R = map.R(tau)
    t = 0.5 * (1.0 - m) * math.log(R / R0)
    x = map.space_factor() * y / R
    v = _power(R, map.exponents.d, f"R^d at tau = {tau}") * u_value
    return t, x, v


def from_selfsimilar(map: RescalingMap, t: float, x, v_value: float):
    """Inverse of to_selfsimilar, x a float or an ndarray; round-trips to
    1e-12 relative error.  A power of R that overflows or underflows to 0
    raises FloatingPointError."""
    side, m, m_c, d = map._regime_data()
    R0 = _R0(map)
    R = R0 * _exp(2.0 * t / (1.0 - m), f"R(t) = R(0) e^(2t/(1 - m)) at t = {t}")
    # tau = side*(R^(d(m - m_c)) - T), distributed so that a zero keeps its sign
    tau = (side * _power(R, d * (m - m_c), f"R^(d(m - m_c)) at t = {t}")
           - side * map.T if side else d * t)
    y = x * R / map.space_factor()
    u = v_value / _power(R, d, f"R^d at t = {t}")
    return tau, y, u
