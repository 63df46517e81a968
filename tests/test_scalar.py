"""Tests for the scalar steps: the Gronwall ODE's time axis and RK4 step,
and the self-similar change of variables, on Python floats."""

import math
from array import array

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fdrates.scalar as S
from fdrates.exponents import derive_exponents
from fdrates.profiles import eval_barenblatt

# time steps written as decimals, as the command line gives them, or any float
_STEPS = st.one_of(
    st.builds(lambda m, e: m * 10.0**-e, st.integers(1, 99), st.integers(1, 6)),
    st.floats(1e-5, 1.0))


@st.composite
def _accepted_axes(draw):
    """(t_end, dt) pairs that _schedule accepts as a Gronwall time axis."""
    dt = draw(_STEPS)
    n = draw(st.integers(1, 5000))
    t_end = n * dt * (1.0 + draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-10])))
    if draw(st.booleans()):
        t_end = float(f"{t_end:.6g}")  # as a command line would write it
    try:
        S._schedule(0.0, t_end, dt, dt)
    except S.ScheduleError:
        assume(False)
    return t_end, dt


@given(_accepted_axes())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_gronwall_time_axis_is_linspace_bit_for_bit(axis):
    # the array('d') axis holds the bits np.linspace(0, n dt, n + 1) gave;
    # F0 = 0 keeps G at zero, so each example costs only its axis
    t_end, dt = axis
    n = S._schedule(0.0, t_end, dt, dt)[2]
    t, G = S.gronwall_bound(0.0, derive_exponents(5, 0.9), 20.0, 0.0, t_end, dt)
    assert isinstance(t, array) and t.typecode == "d" and t.itemsize == 8
    assert isinstance(G, array) and G.typecode == "d" and len(G) == n + 1
    assert not any(G)  # G = 0 is a fixed point of the ODE
    assert np.asarray(t).tobytes() == np.linspace(0.0, n * dt, n + 1).tobytes()


def test_gronwall_linear_limit_is_the_rk4_power():
    # the README line: C = 0, Lambda = 20, so G_n = F0 R(z)^n with
    # z = 2 Lambda dt and R the degree-4 Taylor polynomial of exp(-z)
    t, G = map(np.asarray, S.gronwall_bound(1.0, derive_exponents(5, 0.9),
                                            20.0, 0.0, 1.0, 1e-3))
    z = 40.0 * 1e-3
    rk4 = (1.0 - z + z**2 / 2.0 - z**3 / 6.0 + z**4 / 24.0) ** np.arange(len(t))
    assert np.max(np.abs(G - rk4) / rk4) <= 1e-10


def test_gronwall_refuses_a_stage_below_zero_past_the_edge():
    # with C = 0 the fourth RK4 stage is G (1 - z + z^2/2 - z^3/4), negative
    # for z = 2 Lambda dt past its real root; below it every G_n is at least
    # the exact F0 e^(-2 Lambda t_n), since R(z) >= e^(-z)
    edge = next(r.real for r in np.roots([-0.25, 0.5, -1.0, 1.0]) if r.imag == 0)
    assert edge == pytest.approx(1.2956, abs=1e-4)
    E, Lam = derive_exponents(5, 0.9), 20.0
    accepted = refused = 0
    for dt in map(float, np.linspace(1e-3, 0.04, 400)):
        if 2.0 * Lam * dt > edge:
            with pytest.raises(FloatingPointError, match=f"dt = {dt}"):
                S.gronwall_bound(1.0, E, Lam, 0.0, 20 * dt, dt)
            refused += 1
        else:
            t, G = map(np.asarray, S.gronwall_bound(1.0, E, Lam, 0.0, 20 * dt, dt))
            assert np.all(G > 0) and np.all(G >= np.exp(-2.0 * Lam * t))
            accepted += 1
    assert (accepted, refused) == (322, 78)


# m = 0.6 is m_c in d = 5
_M = st.sampled_from([0.9, 0.75, 0.6, 0.5, 0.3])


@given(m=_M, T=st.floats(0.1, 5.0), s=st.floats(-0.9, 0.9),
       y=st.floats(-10.0, 10.0), ys=st.lists(st.floats(-10.0, 10.0),
                                             min_size=1, max_size=5))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_selfsimilar_maps_keep_the_asarray_bits(m, T, s, y, ys):
    # space_factor * y / R on a float y and on an ndarray y gives the bits of
    # the np.asarray(y, dtype=float) form, and so does the inverse
    mp = S.RescalingMap(exponents=derive_exponents(5, m), T=T)
    tau = s * T
    R, c = mp.R(tau), mp.space_factor()
    for yy in (y, np.array(ys)):
        t, x, _ = S.to_selfsimilar(mp, tau, yy, 1.0)
        want = c * np.asarray(yy, dtype=float) / R
        assert type(x) is type(yy)
        assert np.asarray(x).tobytes() == want.tobytes()
        R_t = mp.R(0.0) * math.exp(2.0 * t / (1.0 - m))
        _, y2, _ = S.from_selfsimilar(mp, t, x, 1.0)
        want = np.asarray(x, dtype=float) * R_t / c
        assert type(y2) is type(yy)
        assert np.asarray(y2).tobytes() == want.tobytes()


@pytest.mark.parametrize("m, tau", [(0.8, 2.0), (0.5, -2.0)])
def test_selfsimilar_maps_refuse_T_0_off_m_c(m, tau):
    # R(0) is 0 (m > m_c) or past extinction (m < m_c) at T = 0; the error
    # names T, not a tau the caller never gave
    mp = S.RescalingMap(exponents=derive_exponents(5, m), T=0.0)
    calls = [lambda: S.to_selfsimilar(mp, tau, 1.0, 1.0),
             lambda: S.from_selfsimilar(mp, 0.1, 1.0, 1.0)]
    for call in calls:
        with pytest.raises(ValueError, match="time origin T > 0") as err:
            call()
        assert type(err.value) is ValueError and "got T = 0.0" in str(err.value)
    # the map and the Barenblatt solution stay defined at T = 0
    u = eval_barenblatt(mp, 1.0, tau, np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
    assert math.isfinite(u) and u > 0


def _pow_reference(base, p, what):
    """base ** p, or the refusal of a power that leaves the doubles."""
    try:
        value = base ** p
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if value == 0.0:
        raise FloatingPointError(f"{what}: {base!r}^{p!r} underflows to 0")
    if value == math.inf:
        raise FloatingPointError(f"{what}: {base!r}^{p!r} overflows")
    return value


def _exp_reference(x, what):
    """e^x, or the refusal of an exponential that leaves the doubles."""
    try:
        value = math.exp(x)
    except OverflowError:
        raise FloatingPointError(f"{what}: e^{x!r} overflows") from None
    if value == 0.0:
        raise FloatingPointError(f"{what}: e^{x!r} underflows to 0")
    return value


def _R_reference(mp, tau):
    """R(tau) written out one branch per regime."""
    side, m, m_c, d = mp._regime_data()
    what = f"R(tau) = (T + s tau)^(1/(d(m - m_c))) at tau = {tau}"
    if side > 0:
        if mp.T + tau <= 0:
            raise ValueError(f"T + tau must be positive, got {mp.T + tau}")
        return _pow_reference(mp.T + tau, 1.0 / (d * (m - m_c)), what)
    if side < 0:
        if tau >= mp.T:
            raise S.ExtinctionError(tau, mp.T)
        return _pow_reference(mp.T - tau, -1.0 / (d * (m_c - m)), what)
    return _exp_reference(tau, f"R(tau) = e^tau at tau = {tau}")


def _from_reference(mp, t, x, v):
    """from_selfsimilar with tau written out one branch per regime."""
    side, m, m_c, d = mp._regime_data()
    R = S._R0(mp) * _exp_reference(2.0 * t / (1.0 - m),
                                   f"R(t) = R(0) e^(2t/(1 - m)) at t = {t}")
    what = f"R^(d(m - m_c)) at t = {t}"
    if side > 0:
        tau = _pow_reference(R, d * (m - m_c), what) - mp.T
    elif side < 0:
        tau = mp.T - _pow_reference(R, -(d * (m_c - m)), what)
    else:
        tau = d * t
    return tau, x * R / mp.space_factor(), v / _pow_reference(R, d, f"R^d at t = {t}")


def _outcome(call, *args):
    """The bits of the floats returned, sign of zero included, or the refusal."""
    try:
        out = call(*args)
    except (ValueError, ArithmeticError) as e:
        return type(e), str(e)
    return [v.hex() for v in out] if isinstance(out, tuple) else out.hex()


@pytest.mark.parametrize("d", range(1, 13))
def test_rescaling_power_law_matches_the_regime_branches(d):
    # R and the tau of from_selfsimilar keep the bits, and the refusal type
    # and text, of one branch per regime, on both sides of m_c and at it; a
    # power that overflows or underflows to 0 (m near m_c, T or tau large)
    # is refused with FloatingPointError naming tau or t, as are R^d and the
    # exponentials of R(tau) at m_c and of from_selfsimilar (t large)
    m_c = (d - 2) / d
    refused = 0
    for m in (m_c - 0.3, m_c - 1e-3, m_c - 1e-4, m_c, m_c + 1e-4, m_c + 1e-3,
              (m_c + 1) / 2):
        for T in (0.0, 0.5, 1.0, 3.0, 1e300):
            mp = S.RescalingMap(exponents=derive_exponents(d, m), T=T)
            for tau in (-4.0, -T, -0.3, 0.0, 0.3, T, 2.0 * T, 5.0, 1e300):
                want = _outcome(_R_reference, mp, tau)
                assert _outcome(mp.R, tau) == want, (m, T, tau)
                refused += want[0] is FloatingPointError
            for t in (-1.0, 0.0, 0.25, 2.0, 100.0, 1e3, -1e3):
                want = _outcome(_from_reference, mp, t, 1.3, 0.7)
                assert _outcome(S.from_selfsimilar, mp, t, 1.3, 0.7) == want, (m, T, t)
                refused += want[0] is FloatingPointError
    assert refused > 0


def test_selfsimilar_maps_at_m_c_accept_T_0():
    mp = S.RescalingMap(exponents=derive_exponents(5, 0.6), T=0.0)
    t, x, v = S.to_selfsimilar(mp, 2.0, 1.0, 1.0)
    assert t == pytest.approx(2.0 / 5.0, rel=1e-15)
    assert x == pytest.approx(math.exp(-2.0) / math.sqrt(5.0), rel=1e-15)
    tau, y, u = S.from_selfsimilar(mp, t, x, v)
    assert (tau, y, u) == pytest.approx((2.0, 1.0, 1.0), rel=1e-12)
