"""Tests for the scalar steps: the Gronwall ODE's time axis and the
self-similar change of variables, on Python floats."""

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
    params = S.GronwallParams(exponents=derive_exponents(5, 0.9), Lambda=20.0)
    t, G = S.gronwall_bound(0.0, 1.0, params, t_end, dt)
    assert isinstance(t, array) and t.typecode == "d" and t.itemsize == 8
    assert isinstance(G, array) and G.typecode == "d" and len(G) == n + 1
    assert np.asarray(t).tobytes() == np.linspace(0.0, n * dt, n + 1).tobytes()


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


def test_selfsimilar_maps_at_m_c_accept_T_0():
    mp = S.RescalingMap(exponents=derive_exponents(5, 0.6), T=0.0)
    t, x, v = S.to_selfsimilar(mp, 2.0, 1.0, 1.0)
    assert t == pytest.approx(2.0 / 5.0, rel=1e-15)
    assert x == pytest.approx(math.exp(-2.0) / math.sqrt(5.0), rel=1e-15)
    tau, y, u = S.from_selfsimilar(mp, t, x, v)
    assert (tau, y, u) == pytest.approx((2.0, 1.0, 1.0), rel=1e-12)
