"""Tests for profiles, rescaling maps, and mass-defect matching."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdrates
import fdrates.flow as FL
import fdrates.numerics as N
import fdrates.scalar as S
from fdrates.entropy import Weights, mass_defect_from_x
from fdrates.exponents import Regime, derive_exponents
from fdrates.profiles import (Profile, _profile_ratio_minus_one,
                              eval_barenblatt, solve_D)
from fdrates.scalar import (ExtinctionError, RescalingMap, from_selfsimilar,
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
    assert v == pytest.approx(Profile(exponents=e, D=D)(rho), rel=1e-12)


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
    wts = Weights.of(grid, p)
    assert mass_defect_from_x(np.zeros(grid.N + 1), wts) == 0.0
    # v = V_{D'} with D' < D has positive defect, D' > D negative
    V = p(grid.nodes)
    hi = Profile(exponents=e, D=0.8)(grid.nodes) / V - 1.0
    lo = Profile(exponents=e, D=1.2)(grid.nodes) / V - 1.0
    assert mass_defect_from_x(hi, wts) > 0 > mass_defect_from_x(lo, wts)


def _reference_solve_D(grid, x, profile, D0, D1):
    """The Brent search on the public mass defect: each evaluation
    re-expresses the data x, given relative to profile, relative to a new
    Profile V_D' as x' = q + (1+q) x with q = V_D/V_D' - 1, and evaluates
    mass_defect_from_x(x') on that profile's Weights."""
    if not D0 > D1 > 0:
        raise ValueError(f"need D0 > D1 > 0, got D0 = {D0}, D1 = {D1}")
    alpha = float(profile.exponents.alpha)
    r = grid.nodes

    def g(D):
        q = np.expm1(alpha * np.log1p((profile.D - D) / (D + r**2)))
        p = Profile(exponents=profile.exponents, D=D)
        return mass_defect_from_x(q + (1.0 + q) * x, Weights.of(grid, p))

    glo, ghi = g(D1), g(D0)
    if glo == 0.0:
        return D1
    if ghi == 0.0:
        return D0
    if glo * ghi > 0:
        raise ValueError(
            f"mass defect has the same sign at D1 = {D1} ({glo:.3e}) and "
            f"D0 = {D0} ({ghi:.3e}); no root in the bracket"
        )
    return S._brent_root(g, D1, glo, D0, ghi)


def _absolute_solve_D(grid, v0, exponents, D0, D1):
    """solve_D as first written, on absolute values: the zero of
    int (v - V_D) dx, here by the same Brent search."""
    def g(D):
        diff = v0 - Profile(exponents=exponents, D=D)(grid.nodes)
        return N.sphere_area(grid.d) * float(np.sum(N.cell_volumes(grid) * diff))

    return S._brent_root(g, D1, g(D1), D0, g(D0))


def _outcome(solve, *args):
    try:
        return solve(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _relative(grid, profile, D):
    """The profile V_D as data relative to profile: V_D/V_profile - 1."""
    return _profile_ratio_minus_one(D, profile.D, float(profile.exponents.alpha),
                                    grid.nodes)


def test_solve_D_matches_reference(monkeypatch):
    # every outcome equals the reference search's exactly: the matched D, or
    # the error type and message.  Both searches narrow the bracket to the two
    # doubles at which the computed defect changes sign, so every rounding of
    # the defect counts
    for d, m, n in ((2, 0.2, 64), (3, 0.5, 800), (5, 0.9, 800), (5, 0.3, 64)):
        e = derive_exponents(d, m)
        grid = N.build_grid(20.0, n, d)
        p1 = Profile(exponents=e, D=1.0)
        blend = 0.5 * (_relative(grid, p1, 1.7) + _relative(grid, p1, 0.6))
        for x, D0, D1 in ((blend, 1.7, 0.6), (blend, 1.3, 0.5),
                          (_relative(grid, p1, 2.3), 2.5, 0.5)):
            got = _outcome(solve_D, grid, x, p1, D0, D1)
            assert isinstance(got, float)
            assert _outcome(_reference_solve_D, grid, x, p1, D0, D1) == got
            # on these moderate domains the absolute search, which the
            # relative one replaced, matches the same D to within the rounding
            # of v - V_D, which it forms: up to 6 ulps on these cases
            v = p1(grid.nodes) * (1.0 + x)
            assert abs(_absolute_solve_D(grid, v, e, D0, D1) - got) <= 8 * math.ulp(got)
        # the same-sign bracket is refused with the same message
        x = _relative(grid, p1, 0.1)
        want = _outcome(_reference_solve_D, grid, x, p1, 2.0, 0.5)
        assert want[0] is ValueError and _outcome(solve_D, grid, x, p1, 2.0, 0.5) == want
        # initial data matched through either search is the same state
        for kind in ("profile-blend", "bump"):
            states = []
            for solve in (solve_D, _reference_solve_D):
                monkeypatch.setattr(FL, "solve_D", solve)
                states.append(FL.make_initial_data(grid, e, kind, D0=1.7, D1=0.6,
                                                   seed=3))
            assert states[0].profile.D == states[1].profile.D
            assert np.array_equal(states[0].x, states[1].x)


def test_solve_D_recovers_exact_profile():
    e = derive_exponents(5, 0.9)
    grid = N.build_grid(40.0, 800, 5)
    p1 = Profile(exponents=e, D=1.0)
    D = solve_D(grid, _relative(grid, p1, 1.37), p1, D0=2.0, D1=0.5)
    assert D == pytest.approx(1.37, rel=1e-9)
    # the profile itself has a defect of exactly 0 at D' = 1, which the
    # search returns exactly when it is an end of the bracket
    x = np.zeros(grid.N + 1)
    for D0, D1 in ((2.0, 1.0), (1.0, 0.5)):
        assert solve_D(grid, x, p1, D0=D0, D1=D1) == 1.0


def test_solve_D_midpoint_oracle():
    # v = (V_2 + V_0.5)/2, d = 5, m = 0.9: since int V_D = c D^(alpha+d/2),
    # the matched D is ((2^-7.5 + 0.5^-7.5)/2)^(-1/7.5) in closed form,
    # cross-checked against adaptive quadrature + root finding.
    e = derive_exponents(5, 0.9)
    grid = N.build_grid(60.0, 2400, 5)
    p1 = Profile(exponents=e, D=1.0)
    x = 0.5 * (_relative(grid, p1, 2.0) + _relative(grid, p1, 0.5))
    D = solve_D(grid, x, p1, D0=2.0, D1=0.5)
    closed = ((2.0**-7.5 + 0.5**-7.5) / 2.0) ** (-1.0 / 7.5)
    assert closed == pytest.approx(0.5484102583897682, rel=1e-15)
    assert D == pytest.approx(closed, rel=2e-6)


def test_solve_D_rejections():
    e = derive_exponents(5, 0.9)
    grid = N.build_grid(40.0, 400, 5)
    p1 = Profile(exponents=e, D=1.0)
    x = _relative(grid, p1, 0.1)
    with pytest.raises(ValueError):
        solve_D(grid, x, p1, D0=2.0, D1=0.5)  # defect positive at both ends
    with pytest.raises(ValueError):
        solve_D(grid, x, p1, D0=0.5, D1=2.0)  # inverted bracket


@pytest.mark.parametrize("first", ["fdrates.profiles", "fdrates.entropy"])
def test_profiles_and_entropy_import_in_either_order(first):
    # profiles takes the mass defect from entropy, which names Profile only
    # for type checking, so a fresh process may import either module first
    src = str(Path(fdrates.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import {first}\nimport fdrates.entropy, fdrates.profiles"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
