"""Tests for profiles, rescaling maps, and mass-defect matching."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdrates.numerics as N
from fdrates.exponents import Regime, derive_exponents
from fdrates.profiles import (BisectionError, ExtinctionError, Profile,
                              RescalingMap, WeightedMeasure, eval_barenblatt, eval_profile,
                              from_selfsimilar, mass_defect, solve_D,
                              to_selfsimilar)


def test_profile_values():
    e = derive_exponents(5, 0.9)
    p = Profile(exponents=e, D=1.0)
    assert p(0.0) == 1.0
    assert p(1.0) == pytest.approx(2.0**-10, rel=1e-14)
    arr = p(np.array([0.0, 1.0, 3.0]))
    assert arr[2] == pytest.approx(10.0**-10, rel=1e-14)
    # key identity: V^(m-1) = D + r^2 exactly, since alpha*(m-1) = 1
    r = np.linspace(0.0, 7.0, 11)
    assert np.allclose(p(r) ** (e.m - 1.0), 1.0 + r**2, rtol=1e-13)
    with pytest.raises(ValueError):
        Profile(exponents=e, D=0.0)


def test_profile_ordering_in_D():
    e = derive_exponents(3, 0.5)
    r = np.linspace(0.0, 5.0, 20)
    lo = Profile(exponents=e, D=2.0)(r)
    hi = Profile(exponents=e, D=0.5)(r)
    assert np.all(lo < hi)  # alpha < 0: larger D, smaller profile


def test_weighted_measure_finiteness():
    e = derive_exponents(5, 0.9)  # alpha = -10, alpha_star = -3/2
    mu = WeightedMeasure(exponents=e, power=float(e.alpha) - 1.0)
    assert mu.is_finite  # 2(-11) + 5 < 0
    nu = WeightedMeasure(exponents=e, power=-2.0)
    assert nu.is_finite is False  # 2(-2) + 5 > 0
    # borderline alpha - 1 = -d/2 is infinite (logarithmic divergence)
    e2 = derive_exponents(4, float(1 + 1 / (-1.0)))  # alpha = -1, power = -2, d=4
    assert WeightedMeasure(exponents=e2, power=-2.0).is_finite is False


def test_rescaling_regimes():
    # good range m > m_c: algebraic growth
    good = RescalingMap(exponents=derive_exponents(5, 0.9), T=1.0)
    assert good.R(0.0) == 1.0
    assert good.R(7.0) == pytest.approx(8.0 ** (1.0 / (5 * 0.3)), rel=1e-13)
    # very fast m < m_c: finite-time extinction
    fast = RescalingMap(exponents=derive_exponents(5, 0.5), T=1.0)
    assert fast.R(0.999) > fast.R(0.9) > fast.R(0.0)
    with pytest.raises(ExtinctionError):
        fast.R(1.0)
    # critical m = m_c: exponential; float 0.6 is m_c = 3/5 for the regime too
    crit = RescalingMap(exponents=derive_exponents(5, 0.6), T=1.0)
    assert crit.exponents.regime is Regime.GOOD and crit.exponents.at_m_c
    assert crit.R(2.0) == pytest.approx(math.exp(2.0), rel=1e-14)
    assert crit.space_factor() == pytest.approx(1.0 / math.sqrt(5.0), rel=1e-14)
    exact = RescalingMap(exponents=derive_exponents(5, Fraction(3, 5)), T=1.0)
    assert exact.exponents.regime is Regime.GOOD and exact.R(0.5) == crit.R(0.5)
    # beyond the tolerance a float m is on one side of m_c, in both places
    below = RescalingMap(exponents=derive_exponents(5, 0.6 - 1e-9), T=1.0)
    assert below.exponents.regime is Regime.VERY_FAST
    with pytest.raises(ExtinctionError):
        below.R(1.0)


@given(m=st.sampled_from([0.9, 0.75, 0.5, 0.3, 0.6]),
       tau=st.floats(-0.5, 0.8),
       rho=st.floats(0.0, 10.0))
@settings(max_examples=60, deadline=None)
def test_selfsimilar_round_trip(m, tau, rho):
    e = derive_exponents(5, m)
    mp = RescalingMap(exponents=e, T=1.0)
    y = np.array([rho, 0.0, 0.0, 0.0, 0.0])
    u = 0.37
    t, x, v = to_selfsimilar(mp, tau, y, u)
    tau2, y2, u2 = from_selfsimilar(mp, t, x, v)
    assert tau2 == pytest.approx(tau, rel=1e-11, abs=1e-11)
    assert np.allclose(y2, y, rtol=1e-11, atol=1e-11)
    assert u2 == pytest.approx(u, rel=1e-11)


def test_rescale_worked_example():
    # d=5, m=0.8, T=1, tau=2: R = 3^(2/3)... check against closed forms
    e = derive_exponents(5, 0.8)
    mp = RescalingMap(exponents=e, T=1.0)
    R = mp.R(2.0)
    assert R == pytest.approx(3.0, rel=1e-14)  # (1+2)^(1/(5*0.2)) = 3
    t, x, v = to_selfsimilar(mp, 2.0, np.array([1.0, 0, 0, 0, 0]), 1.0)
    assert t == pytest.approx(0.1 * math.log(3.0), rel=1e-13)
    assert v == pytest.approx(243.0, rel=1e-13)
    assert x[0] == pytest.approx(math.sqrt(0.2 / 2.0) / 3.0, rel=1e-13)


def test_barenblatt_is_rescaled_profile():
    e = derive_exponents(5, 0.9)
    mp = RescalingMap(exponents=e, T=1.0)
    D, tau = 1.3, 0.7
    y = np.array([2.0, 1.0, 0.0, 0.0, 0.0])
    u = eval_barenblatt(mp, D, tau, y)
    t, x, v = to_selfsimilar(mp, tau, y, u)
    rho = math.sqrt(float(np.sum(np.asarray(x) ** 2)))
    assert v == pytest.approx(eval_profile(Profile(exponents=e, D=D), rho), rel=1e-12)


def test_barenblatt_solves_pde():
    # finite-difference residual of u_t = Delta(u^m)/m in radial coordinates
    e = derive_exponents(3, 0.5)
    mp = RescalingMap(exponents=e, T=2.0)
    D, tau, rho = 1.0, 0.3, 1.1
    h, dt = 1e-4, 1e-5
    m, d = 0.5, 3

    def u(tt, rr):
        return eval_barenblatt(mp, D, tt, np.array([rr, 0.0, 0.0]))

    def um(tt, rr):
        return u(tt, rr) ** m / m

    ut = (u(tau + dt, rho) - u(tau - dt, rho)) / (2 * dt)
    lap = ((um(tau, rho + h) - 2 * um(tau, rho) + um(tau, rho - h)) / h**2
           + (d - 1) / rho * (um(tau, rho + h) - um(tau, rho - h)) / (2 * h))
    assert ut == pytest.approx(lap, rel=5e-5)


def test_mass_defect_sign_and_zero():
    e = derive_exponents(5, 0.9)
    grid = N.build_grid(40.0, 800, 5)
    p = Profile(exponents=e, D=1.0)
    v = N.RadialField(grid=grid, values=p(grid.nodes))
    md = mass_defect(v, p)
    assert float(md) == 0.0
    assert md.tail_bound == 0.0
    # v = V_{D'} with D' < D has positive defect, D' > D negative
    hi = N.RadialField(grid=grid, values=Profile(exponents=e, D=0.8)(grid.nodes))
    lo = N.RadialField(grid=grid, values=Profile(exponents=e, D=1.2)(grid.nodes))
    assert mass_defect(hi, p).value > 0 > mass_defect(lo, p).value
    assert mass_defect(hi, p).tail_bound < 1e-12


def test_solve_D_recovers_exact_profile():
    e = derive_exponents(5, 0.9)
    grid = N.build_grid(40.0, 800, 5)
    target = Profile(exponents=e, D=1.37)
    v = N.RadialField(grid=grid, values=target(grid.nodes))
    D = solve_D(v, e, D0=2.0, D1=0.5, tol=1e-13)
    assert D == pytest.approx(1.37, rel=1e-9)


def test_solve_D_midpoint_oracle():
    # v = (V_2 + V_0.5)/2, d = 5, m = 0.9: since int V_D = c D^(alpha+d/2),
    # the matched D is ((2^-7.5 + 0.5^-7.5)/2)^(-1/7.5) in closed form,
    # cross-checked against adaptive quadrature + root finding.
    e = derive_exponents(5, 0.9)
    grid = N.build_grid(60.0, 2400, 5)
    v2 = Profile(exponents=e, D=2.0)(grid.nodes)
    vh = Profile(exponents=e, D=0.5)(grid.nodes)
    v = N.RadialField(grid=grid, values=0.5 * (v2 + vh))
    D = solve_D(v, e, D0=2.0, D1=0.5, tol=1e-13)
    closed = ((2.0**-7.5 + 0.5**-7.5) / 2.0) ** (-1.0 / 7.5)
    assert closed == pytest.approx(0.5484102583897682, rel=1e-15)
    assert D == pytest.approx(closed, rel=2e-6)


def test_solve_D_rejections():
    e = derive_exponents(5, 0.9)
    grid = N.build_grid(40.0, 400, 5)
    v = N.RadialField(grid=grid, values=Profile(exponents=e, D=0.1)(grid.nodes))
    with pytest.raises(ValueError):
        solve_D(v, e, D0=2.0, D1=0.5)  # defect positive at both ends
    with pytest.raises(ValueError):
        solve_D(v, e, D0=0.5, D1=2.0)  # inverted bracket
    # a bisection cut short raises rather than returning its midpoint 0.96875
    v = N.RadialField(grid=grid, values=Profile(exponents=e, D=1.37)(grid.nodes))
    with pytest.raises(BisectionError, match="after 3 bisection steps"):
        solve_D(v, e, D0=2.0, D1=0.5, maxit=3)
