"""Acceptance suite: one test per headline claim, each ending in a single
PASS/FAIL line (printed detail plus the pytest verdict).

The expensive flow runs are module-scoped fixtures shared across tests.
"""

import math

import numpy as np
import pytest

import fdrates.entropy as ENT
import fdrates.flow as FL
import fdrates.numerics as N
import fdrates.scalar as SC
from fdrates.exponents import derive_exponents, lambda_continuum, sharp_rate
from fdrates.spectral import discrete_mode, mode_field, ode_residual
from fdrates.profiles import Profile
from eigen_oracle import dense_bottom

E59 = derive_exponents(5, 0.9)


def _verdict(ok: bool, label: str, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# shared flow runs


@pytest.fixture(scope="module")
def eigen_run():
    """Dilation-mode perturbation of the d=5, m=0.9 profile, tracked to t=0.25."""
    grid = N.build_grid(15.0, 800, 5)
    st = FL.make_initial_data(grid, E59, "eigen", D=1.0, D0=2.0, D1=0.5,
                              epsilon=0.05, mode=(0, 1))
    tr = FL.evolve_nonlinear(st, 0.25, 2e-4, cadence=0.005, track_sandwich=True)
    return st, tr


@pytest.fixture(scope="module")
def eigen_run_half_dt():
    grid = N.build_grid(15.0, 800, 5)
    st = FL.make_initial_data(grid, E59, "eigen", D=1.0, D0=2.0, D1=0.5,
                              epsilon=0.05, mode=(0, 1))
    tr = FL.evolve_nonlinear(st, 0.25, 1e-4, cadence=0.005)
    return st, tr


@pytest.fixture(scope="module")
def critical_run():
    """Critical-threshold run (d=5, m=m_star=1/3) on an exponentially large domain."""
    e = derive_exponents(5, 1.0 / 3.0)
    R_max = float(np.sinh(90.0))
    grid = N.build_grid(R_max, 2000, 5)
    st = FL.make_initial_data(grid, e, "bump", D=1.0, amplitude=0.1,
                              match_D=False, clip=False)
    tr = FL.evolve_nonlinear(st, 200.0, 0.05, cadence=2.0, track_sandwich=True)
    return st, tr


# ---------------------------------------------------------------------------
# criteria


def test_acceptance_sharp_constants_verified():
    """Constrained FEM eigenvalues reproduce every branch of the closed-form
    constant to 3% after infinite-domain extrapolation."""
    cases = [(5, -1.0), (5, -4.0), (5, -6.0), (4, -3.0), (3, -2.0), (2, -3.0)]
    details = []
    worst = 0.0
    for d, a in cases:
        res = N.verify_constants(d, a, D=1.0, l_max=3, R_max=100.0, N=1600)
        worst = max(worst, res.rel_err)
        details.append(f"({d},{a:g}): {res.minimum:.5g} vs {res.closed_form:g} "
                       f"({100 * res.rel_err:.2f}%)")
    _verdict(worst <= 0.03, "sharp-constant verification (6 branch cases)",
             "; ".join(details) + f"; worst {100 * worst:.2f}% <= 3%")


def test_acceptance_constrained_vs_unconstrained_gap():
    """At (d, alpha) = (5, -6) the mean-zero constraint moves the l=0 bottom
    from the dilation eigenvalue 14 to beyond the translation level, leaving
    the overall constrained gap at -2 alpha = 12; both levels verified to 2%."""
    grid = N.build_grid(30.0, 400, 5)
    forms1 = N.assemble_sector_forms(grid, -6.0, 1.0, 1)
    lam1, _ = dense_bottom(forms1)
    forms0 = N.assemble_sector_forms(grid, -6.0, 1.0, 0)
    lam0, _ = dense_bottom(forms0)
    ok = abs(lam1 - 12.0) / 12.0 <= 0.02 and abs(lam0 - 14.0) / 14.0 <= 0.02
    _verdict(ok, "constraint accounting at (5,-6)",
             f"l=1 bottom {lam1:.6f} vs 12; constrained l=0 bottom {lam0:.6f} vs 14 "
             "(both within 2%)")


def test_acceptance_spectrum_closed_form():
    """Every admissible mode with l, k <= 4 at (d, alpha) = (5, -20) satisfies
    the eigen-ODE to 1e-10 in exact rational arithmetic and matches its FEM
    Rayleigh quotient to 0.5%."""
    from fractions import Fraction

    d, a = 5, Fraction(-20)
    grid = N.build_grid(50.0, 1500, d)
    n_modes = 0
    worst_res, worst_rq = 0.0, 0.0
    for l in range(5):
        for k in range(5):
            mode = discrete_mode(d, a, l, k)
            if not mode.admissible:
                continue
            n_modes += 1
            worst_res = max(worst_res, ode_residual(d, a, l, k))
            forms = N.assemble_sector_forms(grid, float(a), 1.0, l)
            rq = N.rayleigh_quotient(mode_field(mode, grid), forms)
            worst_rq = max(worst_rq, abs(rq - float(mode.lam)) / float(mode.lam))
    ok = n_modes >= 20 and worst_res <= 1e-10 and worst_rq <= 5e-3
    _verdict(ok, "closed-form spectrum at (5,-20)",
             f"{n_modes} admissible modes; max ODE residual {worst_res:.2e} <= 1e-10; "
             f"max Rayleigh mismatch {100 * worst_rq:.3f}% <= 0.5%")


def test_acceptance_nonlinear_sharp_rate(eigen_run):
    """The nonlinear flow started near the profile decays at the sharp rate
    2*Lambda = 60 (d=5, m=0.9) within 5%, with R^2 >= 0.999, and conserves the
    matched mass defect."""
    st, tr = eigen_run
    fit = ENT.fit_rate(tr, (0.1, 0.22))
    drift = float(np.max(np.abs(tr.mass_defect - tr.mass_defect[0])))
    ok = (abs(fit.rate - 60.0) / 60.0 <= 0.05 and fit.r2 >= 0.999
          and drift <= 1e-12)
    _verdict(ok, "nonlinear decay at the sharp rate",
             f"fitted rate {fit.rate:.3f} vs 60 ({100 * abs(fit.rate - 60) / 60:.2f}% "
             f"<= 5%), R^2 = {fit.r2:.10f} >= 0.999, defect drift {drift:.1e}")


def test_acceptance_linear_sector_rate():
    """The linear l=1 sector flow at alpha=-10 decays at twice the translation
    eigenvalue, 2*(-2 alpha) = 40, within 3%."""
    grid = N.build_grid(15.0, 800, 5)
    f0 = grid.nodes * np.exp(-grid.nodes**2)
    st = FL.LinearState(grid=grid, alpha=-10.0, D=1.0, l=1, f=f0)
    tr = FL.evolve_linear_sector(st, 0.5, 1e-4, cadence=0.005)
    fit = ENT.fit_rate(tr, (0.2, 0.45))
    ok = abs(fit.rate - 40.0) / 40.0 <= 0.03
    _verdict(ok, "linear sector decay rate",
             f"fitted rate {fit.rate:.3f} vs 40 "
             f"({100 * abs(fit.rate - 40) / 40:.2f}% <= 3%)")


def test_acceptance_entropy_production_identity(eigen_run, eigen_run_half_dt):
    """Along the nonlinear flow dF/dt = -I holds discretely: the cadence-scale
    difference quotient of F matches the trapezoid average of I to 2%, and the
    mismatch shrinks under dt halving (first-order consistency)."""

    def max_mismatch(tr):
        dF = np.diff(tr.entropy) / np.diff(tr.t)
        Ibar = 0.5 * (tr.fisher[1:] + tr.fisher[:-1])
        return float(np.max(np.abs(dF + Ibar) / Ibar))

    m1 = max_mismatch(eigen_run[1])
    m2 = max_mismatch(eigen_run_half_dt[1])
    ok = m1 <= 0.02 and m2 <= m1
    _verdict(ok, "entropy production identity",
             f"max |dF/dt + I|/I = {100 * m1:.3f}% <= 2% at dt=2e-4; "
             f"{100 * m2:.3f}% at dt=1e-4 (no worse)")


def test_acceptance_sandwich_bounds_hold(eigen_run, critical_run):
    """The entropy and Fisher sandwich slacks stay nonnegative along both the
    generic run and the critical-threshold run."""
    mins = []
    for _, tr in (eigen_run, critical_run):
        assert len(tr.sandwich) == len(tr.t)
        mins.append((min(s.slack_entropy_lower for s in tr.sandwich),
                     min(s.slack_entropy_upper for s in tr.sandwich),
                     min(s.slack_fisher for s in tr.sandwich)))
    ok = all(v >= 0.0 for triple in mins for v in triple)
    _verdict(ok, "sandwich bounds along flows",
             f"min slacks (lower, upper, fisher): generic {mins[0]}, "
             f"critical {mins[1]}; all >= 0")


def test_acceptance_critical_algebraic_decay(critical_run):
    """At the critical threshold m = m_star the entropy decays algebraically:
    the log-log slope over t in [20, 200] lies in [-0.7, -0.4] (the sharp
    prediction is t^(-1/2)), and the mass defect is conserved."""
    st, tr = critical_run
    fit = ENT.fit_rate(tr, (20.0, 200.0), kind="loglog")
    drift = float(np.max(np.abs(tr.mass_defect - tr.mass_defect[0])))
    scale = abs(tr.mass_defect[0]) + 1e-30
    ok = -0.7 <= fit.rate <= -0.4 and drift <= 1e-10 * scale
    _verdict(ok, "critical-case algebraic decay",
             f"log-log slope {fit.rate:.4f} in [-0.7, -0.4]; "
             f"relative defect drift {drift / scale:.1e}")


def test_critical_slope_is_the_sharp_one_half(critical_run):
    """With the 1/t term of the approach to the power law fitted beside it,
    the log-log slope over t in [20, 200] is -1/2 to 1e-3."""
    _, tr = critical_run
    fit = ENT.fit_rate(tr, (20.0, 200.0), kind="loglog")
    _verdict(abs(fit.rate + 0.5) <= 1e-3, "critical-case sharp slope",
             f"log-log slope {fit.rate:.7f}, 1/t correction {fit.correction:.4f}; "
             f"|slope + 1/2| <= 1e-3")


def test_acceptance_gronwall_bound(eigen_run):
    """The Gronwall comparison ODE: with C = 0 the RK4 solution matches
    F0 e^(-2 Lambda t) to 1e-8, and with the constant calibrated from the
    nonlinear run at Lambda = sharp_rate(5,-10) = 20 the bound dominates the
    measured entropy along the whole trace."""
    t, G = map(np.asarray, SC.gronwall_bound(1.0, E59, 12.0, 0.0, 0.1, 1e-3))
    err = float(np.max(np.abs(G - np.exp(-24.0 * t)) / np.exp(-24.0 * t)))

    st, tr = eigen_run
    C = ENT.calibrate_uniform_constant(tr, E59)
    Lam = float(sharp_rate(5, -10.0))
    h0 = 1.0 + C * tr.entropy[0] ** SC.e_unif(E59)
    tg, Gg = map(np.asarray, SC.gronwall_bound(tr.entropy[0], E59, Lam, C,
                                               float(tr.t[-1]), 1e-3))
    # trace times are multiples of the ODE step: compare at exact indices
    idx = np.rint(tr.t / 1e-3).astype(int)
    assert np.allclose(tg[idx], tr.t, atol=1e-12)
    dominates = bool(np.all(Gg[idx] >= tr.entropy * (1.0 - 1e-9)))
    hs = SC.h_star(E59, Lam)
    ok = err <= 1e-8 and h0 < hs and dominates
    _verdict(ok, "Gronwall comparison bound",
             f"C=0 RK4 vs closed form: {err:.2e} <= 1e-8; calibrated C = {C:.4f}, "
             f"h0 = {h0:.4f} < h_star = {hs:.4f}; "
             f"bound dominates the measured entropy: {dominates}")


def test_acceptance_scale_invariance():
    """Verified constants are independent of the profile parameter D: the
    (5, -4) verification at D = 4 matches D = 1 to 1e-10 relative."""
    r1 = N.verify_constants(5, -4.0, D=1.0, l_max=1, R_max=100.0, N=1600)
    r4 = N.verify_constants(5, -4.0, D=4.0, l_max=1, R_max=200.0, N=1600)
    diff = abs(r1.minimum - r4.minimum) / abs(r1.minimum)
    ok = diff <= 1e-10
    _verdict(ok, "D-scale invariance of the verification",
             f"minimum at D=1: {r1.minimum:.12f}, at D=4: {r4.minimum:.12f}; "
             f"relative difference {diff:.2e} <= 1e-10")


def test_acceptance_variational_quotient_sharpness():
    """The nonlinear entropy/Fisher quotient of shrinking perturbations
    approaches the same multiple of the Rayleigh quotient for unrelated test
    functions (within 2% of each other), never dips below 2*Lambda-scaling
    (quotient >= 2 for m > m_c), and is Cauchy in the perturbation size."""
    grid = N.build_grid(50.0, 1200, 5)
    p = Profile(exponents=E59, D=1.0)
    w2 = 1.0 + grid.nodes**2
    mu = N.cell_volumes(grid) * w2 ** (-11.0)

    wts = ENT.Weights.of(grid, p)

    def ratio_series(values, l):
        forms = N.assemble_sector_forms(grid, -10.0, 1.0, l)
        proj = values - np.sum(mu * values) / np.sum(mu)
        rq = N.rayleigh_quotient(proj, forms)
        qs = [ENT.variational_quotient(values, n, wts) for n in (100, 200, 400)]
        return qs, rq

    fams = {
        "gauss": (np.exp(-grid.nodes**2), 0),
        "ring": (np.exp(-((grid.nodes - 1.0) ** 2)), 0),
        "mode01": (mode_field(discrete_mode(5, -10.0, 0, 1), grid), 0),
    }
    ratios, cauchy_ok, floor_ok = {}, True, True
    for name, (vals, l) in fams.items():
        qs, rq = ratio_series(vals, l)
        ratios[name] = qs[-1] / rq
        gaps = [abs(qs[i] - qs[i + 1]) for i in range(2)]
        cauchy_ok &= gaps[1] < gaps[0]
        floor_ok &= all(q >= 2.0 for q in qs)
    spread = max(ratios.values()) / min(ratios.values()) - 1.0
    ok = spread <= 0.02 and cauchy_ok and floor_ok
    _verdict(ok, "variational sharpness quotient",
             f"ratios to the Rayleigh quotient: "
             + ", ".join(f"{k}={v:.5f}" for k, v in ratios.items())
             + f"; spread {100 * spread:.3f}% <= 2%; Cauchy in n: {cauchy_ok}; "
             f"all quotients >= 2: {floor_ok}")
