"""Tests for the entropy-method functionals and estimates."""

import math
import warnings

import numpy as np
import pytest

import fdrates.numerics as N
from fdrates.entropy import (SandwichReport, Weights, _phi,
                             calibrate_uniform_constant, entropy_from_x,
                             fisher_from_x, fit_rate, mass_defect_from_x,
                             sandwich_from_x, variational_quotient,
                             EntropyTrace)
from fdrates.exponents import derive_exponents
from fdrates.profiles import Profile
from fdrates.scalar import e_unif, gronwall_bound, h_star, xy_functions


E59 = derive_exponents(5, 0.9)
P1 = Profile(exponents=E59, D=1.0)


def _grid():
    return N.build_grid(30.0, 400, 5)


def test_entropy_zero_at_profile():
    g = _grid()
    x = P1(g.nodes) / (P1.D + g.nodes**2) ** float(E59.alpha) - 1.0
    wts = Weights.of(g, P1)
    assert entropy_from_x(x, wts) == 0.0
    assert fisher_from_x(x, wts) == 0.0
    rep = sandwich_from_x(x, wts)
    assert (rep.h1, rep.h2, rep.h) == (1.0, 1.0, 1.0)


def test_entropy_positive_and_quadratic():
    g = _grid()
    x0 = 0.02 * np.exp(-g.nodes**2)
    wts = Weights.of(g, P1)
    F1 = entropy_from_x(x0, wts)
    F2 = entropy_from_x(0.5 * x0, wts)
    I1 = fisher_from_x(x0, wts)
    I2 = fisher_from_x(0.5 * x0, wts)
    assert F1 > 0 and I1 > 0
    # quadratic functionals near the profile: eps -> eps/2 divides by ~4
    assert F1 / F2 == pytest.approx(4.0, rel=0.05)
    assert I1 / I2 == pytest.approx(4.0, rel=0.05)


def test_entropy_small_x_series_consistency():
    # the cancellation-free Taylor branch must match the generic formula
    # where both are accurate (|x| just above the 1e-4 switch)
    g = _grid()
    for s in (2.001e-4, 0.9999e-4):
        x = s * np.exp(-g.nodes**2)
        F = entropy_from_x(x, Weights.of(g, P1))
        # reference: direct evaluation in extended precision via numpy longdouble
        m = 0.9
        xl = x.astype(np.longdouble)
        phi = (xl - ((1 + xl) ** m - 1) / m) / (1 - m)
        w = N.cell_volumes(g)
        ref = N.sphere_area(5) * float(np.sum(w * (1 + g.nodes**2) ** (-9.0) * phi))
        assert F == pytest.approx(ref, rel=1e-6)


def test_phi_large_x_does_not_overflow():
    # the Taylor branch is evaluated only where |x| < 1e-4, so a huge x
    # raises no overflow warning, and every value keeps its bytes
    x = np.array([1e200, -1e-5, 3e-5, 0.0, 0.5, 1e-4])
    for m in (0.0, 0.9):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _phi(x, m)
        assert np.all(np.isfinite(got)) and got[0] > 1e199
        small = x[1:4]
        assert np.array_equal(got[1:4],
                              0.5 * small * small * (1.0 + (m - 2.0) * small / 3.0))
        big = x[4:]
        gen = (big - np.log1p(big) if m == 0.0
               else (big - np.expm1(m * np.log1p(big)) / m) / (1.0 - m))
        assert np.array_equal(got[4:], gen)


def test_entropy_m0_limit():
    # m = 0 branch is the limit of nearby m: bracketed by m = +/- 1e-4
    e0 = derive_exponents(3, 0.0)
    g = N.build_grid(30.0, 400, 3)
    x = 0.2 * np.exp(-g.nodes**2)
    mid, lo, hi = (entropy_from_x(x, Weights.of(g, Profile(exponents=e, D=1.0)))
                   for e in (e0, derive_exponents(3, -1e-4), derive_exponents(3, 1e-4)))
    assert min(lo, hi) <= mid <= max(lo, hi)
    assert mid == pytest.approx(lo, rel=1e-3) and mid == pytest.approx(hi, rel=1e-3)


def test_xy_functions_and_h_star():
    assert xy_functions(1.0, E59) == (0.0, 0.0)
    X, Y = xy_functions(1.5, E59)
    assert X == pytest.approx(1.5**3.2 - 1.0, rel=1e-14)
    assert Y == pytest.approx(0.5 * (1.5**4.4 - 1.0), rel=1e-14)
    with pytest.raises(ValueError):
        xy_functions(0.9, E59)
    # d(1-m)(h^(4(2-m)) - 1) = 12 with d=5, m=0.9: h = 25^(1/4.4) (closed form)
    assert h_star(E59, 12.0) == pytest.approx(2.0783258451246165, rel=1e-12)
    assert h_star(E59, 1e-9) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError):
        h_star(E59, 0.0)


def test_sandwich_bounds_hold_and_tighten():
    g = _grid()
    slacks = []
    for eps in (0.2, 0.02):
        x = eps * np.exp(-g.nodes**2)
        rep = sandwich_from_x(x, Weights.of(g, P1))
        assert rep.all_nonnegative
        assert rep.h2 == pytest.approx(1.0 + eps, rel=1e-12)
        assert rep.h == rep.h2
        slacks.append(rep.slack_entropy_upper / (2.0 * rep.entropy))
    # bounds tighten as the state approaches the profile
    assert slacks[1] < slacks[0]


def _synthetic_trace(rate=7.0, amp=3.0, n=101, t1=1.0, kind="exp"):
    t = np.linspace(0.0, t1, n)
    if kind == "exp":
        F = amp * np.exp(-rate * t)
    else:
        F = amp * np.maximum(t, t[1]) ** (-0.5)
    z = np.zeros_like(t)
    return EntropyTrace(t=t, entropy=F, fisher=z, h1=1 + z, h2=1 + z, mass_defect=z)


def test_fit_rate_exponential_exact():
    tr = _synthetic_trace(rate=7.0, amp=3.0)
    fit = fit_rate(tr, (0.0, 1.0))
    assert fit.rate == pytest.approx(7.0, rel=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.kind == "exp" and fit.n_samples == 101


def test_fit_rate_loglog():
    tr = _synthetic_trace(kind="loglog")
    fit = fit_rate(tr, (0.1, 1.0), kind="loglog")
    assert fit.rate == pytest.approx(-0.5, rel=1e-10)


def test_fit_rate_loglog_fits_the_1_over_t_term():
    # F = 3 t^(-1/2) exp(0.3/t): the slope and the correction, exactly; an
    # exp fit has no correction
    t = np.linspace(0.1, 2.0, 96)
    z = np.zeros_like(t)
    tr = EntropyTrace(t=t, entropy=3.0 * t**-0.5 * np.exp(0.3 / t), fisher=z,
                      h1=1 + z, h2=1 + z, mass_defect=z)
    fit = fit_rate(tr, (0.1, 2.0), kind="loglog")
    assert fit.rate == pytest.approx(-0.5, rel=1e-10)
    assert fit.correction == pytest.approx(0.3, rel=1e-10)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit_rate(tr, (0.1, 2.0)).correction is None


def test_fit_rate_rejections():
    tr = _synthetic_trace()
    with pytest.raises(ValueError):
        fit_rate(tr, (0.0, 0.05))  # too few samples
    # 21 rows in the window, 9 of them with F > 0
    flat = tr._replace(entropy=np.where(tr.t < 0.09, tr.entropy, 0.0))
    with pytest.raises(ValueError, match="has 9 usable samples; need >= 10"):
        fit_rate(flat, (0.0, 0.2))
    with pytest.raises(ValueError):
        fit_rate(tr, (0.0, 1.0), kind="cubic")
    with pytest.raises(ValueError):
        fit_rate(tr, (0.0, 1.0), kind="loglog")  # t = 0 in a loglog window
    # a window beyond the trace, by more than the schedule's tolerance
    with pytest.raises(ValueError, match="fit window end 5.0 lies beyond the "
                                         "trace end t = 1.0"):
        fit_rate(tr, (0.1, 5.0))
    with pytest.raises(ValueError, match="fit window start -0.5 lies before "
                                         "the trace start t = 0.0"):
        fit_rate(tr, (-0.5, 1.0))
    with pytest.raises(ValueError, match="fit window end"):
        fit_rate(tr, (0.1, 1.0 + 2e-9))
    assert fit_rate(tr, (-5e-10, 1.0 + 5e-10)).n_samples == 101


def test_fit_rate_keeps_rows_that_round_past_the_window():
    # t = j*0.1 gives 1.2000000000000002 at j = 12: the row is in the window
    # (0, 1.2), within the tolerance that the window check itself allows
    t = np.arange(21) * 0.1
    z = np.zeros_like(t)
    tr = EntropyTrace(t=t, entropy=np.exp(-3.0 * t), fisher=z, h1=1 + z, h2=1 + z,
                      mass_defect=z)
    assert t[12] > 1.2
    fit = fit_rate(tr, (0.0, 1.2))
    assert fit.n_samples == 13 and fit.window == (0.0, 1.2)
    assert fit.rate == pytest.approx(3.0, rel=1e-12)
    # and a row that rounds just before the window start: 2 - 1.2000000000000002
    t = 2.0 - t[::-1]
    tr = EntropyTrace(t=t, entropy=np.exp(-3.0 * t), fisher=z, h1=1 + z, h2=1 + z,
                      mass_defect=z)
    assert t[8] < 0.8
    assert fit_rate(tr, (0.8, 2.0)).n_samples == 13


def test_gronwall_linear_limit_exact():
    t, G = map(np.asarray, gronwall_bound(1.0, E59, 12.0, 0.0, 0.1, 1e-3))
    exact = np.exp(-24.0 * t)
    assert np.max(np.abs(G - exact) / exact) < 1e-8


def test_gronwall_with_constant_decays_slower():
    _, G0 = map(np.asarray, gronwall_bound(1.0, E59, 12.0, 0.0, 0.2, 1e-3))
    _, Gc = map(np.asarray, gronwall_bound(1.0, E59, 12.0, 0.5, 0.2, 1e-3))
    assert np.all(Gc[1:] > G0[1:])
    assert np.all(np.diff(Gc) < 0)  # still decaying below h_star


def test_gronwall_rejections():
    with pytest.raises(ValueError):
        gronwall_bound(1.0, E59, 12.0, 2.0, 0.1, 1e-3)  # h0 = 3 above h_star ~ 2.078
    with pytest.raises(ValueError):
        gronwall_bound(-1.0, E59, 12.0, 0.0, 0.1, 1e-3)
    with pytest.raises(ValueError, match="integer multiple"):
        gronwall_bound(1.0, E59, 12.0, 0.0, 0.1234, 0.01)  # would stop at 0.12
    with pytest.raises(ValueError):
        gronwall_bound(1.0, E59, 12.0, -1.0, 0.1, 1e-3)


def test_e_unif_value():
    assert e_unif(E59) == pytest.approx(0.1 / (7.0 - 5.4), rel=1e-14)


def test_calibrate_uniform_constant():
    t = np.linspace(0.0, 1.0, 20)
    F = np.exp(-2.0 * t)
    e = e_unif(E59)
    h2 = 1.0 + 0.3 * F**e
    tr = EntropyTrace(t=t, entropy=F, fisher=0 * t, h1=1 + 0 * t, h2=h2,
                      mass_defect=0 * t)
    assert calibrate_uniform_constant(tr, E59) == pytest.approx(0.3, rel=1e-12)
    with pytest.raises(ValueError, match="no rows with positive entropy"):
        calibrate_uniform_constant(tr._replace(entropy=0 * t), E59)


def test_variational_quotient_converges_and_bounded_below():
    g = N.build_grid(50.0, 600, 5)
    f = np.exp(-g.nodes**2)
    wts = Weights.of(g, P1)
    qs = [variational_quotient(f, n, wts) for n in (50, 100, 200, 400)]
    assert all(q >= 2.0 for q in qs)
    # Cauchy at rate O(1/n): consecutive gaps roughly halve
    gaps = [abs(qs[i] - qs[i + 1]) for i in range(3)]
    assert gaps[1] < 0.8 * gaps[0] and gaps[2] < 0.8 * gaps[1]
    with pytest.raises(ValueError):
        variational_quotient(f, 0, wts)
    # 1 + x <= 0 near the origin
    with pytest.raises(ValueError, match="perturbation not positive at n = 1"):
        variational_quotient(-5.0 * f, 1, wts)
    # a constant is zero once projected to mean zero
    with pytest.raises(ZeroDivisionError, match="zero entropy"):
        variational_quotient(np.ones_like(f), 1, wts)


# ---------------------------------------------------------------------------
# the shared Weights against the functionals written out inline, one
# quadrature computed per call, as the oracle: every value must be equal


def _ref_entropy(x, grid, p):
    m = float(p.exponents.m)
    alpha = float(p.exponents.alpha)
    w = N.cell_volumes(grid)
    w2 = p.D + grid.nodes**2
    # V^m = V (D + r^2)
    return N.sphere_area(grid.d) * float(np.sum(w * w2**alpha * w2 * _phi(x, m)))


def _ref_fisher(x, grid, p):
    m = float(p.exponents.m)
    alpha = float(p.exponents.alpha)
    r = grid.nodes
    w2 = p.D + r**2
    mid = 0.5 * (r[:-1] + r[1:])
    conductance = mid ** (grid.d - 1) * (p.D + mid**2) ** alpha / np.diff(r)
    # the Newton kernel's pressure and face flux at dt = 1
    pr = w2 / (m - 1.0) * np.expm1((m - 1.0) * np.log1p(x))
    Dp = np.diff(pr)
    flux = (conductance + 0.5 * conductance * (x[:-1] + x[1:])) * Dp
    return N.sphere_area(grid.d) * float(np.sum(flux * Dp))


def _ref_mass_defect(x, grid, p):
    alpha = float(p.exponents.alpha)
    w = N.cell_volumes(grid)
    V = (p.D + grid.nodes**2) ** alpha
    return N.sphere_area(grid.d) * float(np.sum(w * V * x))


def _ref_sandwich(x, grid, p):
    exps = p.exponents
    m = float(exps.m)
    alpha = float(exps.alpha)
    r = grid.nodes
    w = N.cell_volumes(grid)
    w2 = p.D + r**2
    f = x * w2
    # w f^2 (D + r^2)^(alpha-1) = w V (D + r^2) x^2
    J = N.sphere_area(grid.d) * float(np.sum(w * w2**alpha * w2 * x**2))
    mid = 0.5 * (r[:-1] + r[1:])
    conductance = mid ** (grid.d - 1) * (p.D + mid**2) ** alpha / np.diff(r)
    grad = N.sphere_area(grid.d) * float(np.sum(conductance * np.diff(f) ** 2))
    F = _ref_entropy(x, grid, p)
    I = _ref_fisher(x, grid, p)
    h1 = float(1.0 + np.min(x))
    h2 = float(1.0 + np.max(x))
    h = max(h2, 1.0 / h1)
    X, Y = xy_functions(h, exps)
    return SandwichReport(
        entropy=F, fisher=I, f_norm=J, grad_norm=grad, h1=h1, h2=h2, h=h,
        slack_entropy_lower=2.0 * F - h ** (m - 2.0) * J,
        slack_entropy_upper=h ** (2.0 - m) * J - 2.0 * F,
        slack_fisher=(1.0 + X) * I + Y * J - grad,
    )


def _ref_variational_quotient(f, grid, n, p):
    w2 = p.D + grid.nodes**2
    # (D + r^2)^(alpha-1) = V/(D + r^2)
    mu = N.cell_volumes(grid) * w2 ** float(p.exponents.alpha) / w2
    vals = f - np.sum(mu * f) / np.sum(mu)
    x = vals / (n * (p.D + grid.nodes**2))
    return _ref_fisher(x, grid, p) / _ref_entropy(x, grid, p)


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("D", [1.0, 2.3])
def test_shared_weights_functionals_equal_inline_formulas(d, D):
    g = N.build_grid(30.0, 300, d, scale=math.sqrt(D))
    r = g.nodes
    states = (0.2 * np.exp(-r**2),
              -0.3 * np.exp(-(r - 1.0) ** 2) + 0.05 * np.cos(r),
              3e-5 * np.exp(-r),  # the Taylor branch of the entropy
              np.zeros_like(r))
    f = np.exp(-r**2)
    for m in (0.0, 0.5, 0.9):
        p = Profile(exponents=derive_exponents(d, m), D=D)
        wts = Weights.of(g, p)
        for x in states:
            assert entropy_from_x(x, wts) == _ref_entropy(x, g, p)
            assert fisher_from_x(x, wts) == _ref_fisher(x, g, p)
            assert mass_defect_from_x(x, wts) == _ref_mass_defect(x, g, p)
            assert (tuple(sandwich_from_x(x, wts))
                    == tuple(_ref_sandwich(x, g, p)))
        for n in (50, 400):
            assert variational_quotient(f, n, wts) == _ref_variational_quotient(f, g, n, p)
