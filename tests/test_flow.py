"""Tests for the nonlinear and linear flow integrators."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

import fdrates.flow as FL
import fdrates.numerics as N
from fdrates.entropy import Weights, fit_rate, mass_defect_from_x
from fdrates.exponents import derive_exponents
from fdrates.profiles import Profile

E59 = derive_exponents(5, 0.9)


def _grid(R=15.0, n=200):
    return N.build_grid(R, n, 5)


def test_profile_is_exact_steady_state():
    g = _grid()
    st = FL.NonlinearState(grid=g, profile=Profile(exponents=E59, D=1.0),
                           x=np.zeros(g.N + 1))
    tr = FL.evolve_nonlinear(st, 0.1, 0.01, cadence=0.05)
    assert np.max(np.abs(st.x)) < 1e-13
    assert np.all(tr.entropy <= 1e-25)
    assert st.t == pytest.approx(0.1)


def test_make_initial_data_kinds_and_rejections():
    g = _grid()
    st = FL.make_initial_data(g, E59, "profile-blend", D0=2.0, D1=0.5)
    # matched by Brent's method; closed form ((2^-7.5 + 0.5^-7.5)/2)^(-1/7.5)
    assert st.profile.D == pytest.approx(0.5484102583897682, abs=2e-3)
    st2 = FL.make_initial_data(g, E59, "eigen", D=1.0, D0=2.0, D1=0.5,
                               epsilon=0.05, mode=(0, 1))
    assert np.max(np.abs(st2.x)) < 0.2
    st3 = FL.make_initial_data(g, E59, "bump", amplitude=0.1, match_D=False)
    assert np.max(st3.x) == pytest.approx(0.1, rel=1e-12)  # centered at r = 0
    with pytest.raises(ValueError):
        FL.make_initial_data(g, E59, "wavelet", D0=2.0, D1=0.5)
    with pytest.raises(ValueError):
        FL.make_initial_data(g, E59, "profile-blend")  # missing bracket
    with pytest.raises(ValueError):
        FL.make_initial_data(g, E59, "bump")  # match_D without bracket
    # unclipped data outside the sandwich, whether D is re-matched or not
    for match_D in (True, False):
        with pytest.raises(ValueError, match=r"^unclipped initial data leave the "
                           r"sandwich V_D0 <= v0 <= V_D1 with D0 = 2\.0, "
                           r"D1 = 0\.5$"):
            FL.make_initial_data(g, E59, "eigen", D0=2.0, D1=0.5, epsilon=5.0,
                                 clip=False, match_D=match_D)
    # a mode of sector l >= 1 is r^l P(r^2) times a spherical harmonic; the
    # radial flow would carry only its radial factor
    for l, k in ((1, 0), (1, 1), (2, 0)):
        with pytest.raises(ValueError, match=rf"mode \(l, k\) = \({l}, {k}\)"):
            FL.make_initial_data(g, E59, "eigen", D0=2.0, D1=0.5, mode=(l, k))


def test_bump_seed_reproducible():
    g = _grid()
    a = FL.make_initial_data(g, E59, "bump", seed=42, match_D=False)
    b = FL.make_initial_data(g, E59, "bump", seed=42, match_D=False)
    c = FL.make_initial_data(g, E59, "bump", seed=43, match_D=False)
    assert np.array_equal(a.x, b.x)
    assert not np.array_equal(a.x, c.x)


def test_mass_defect_conserved_and_entropy_monotone():
    g = _grid(15.0, 400)
    st = FL.make_initial_data(g, E59, "profile-blend", D0=1.5, D1=0.7)
    tr = FL.evolve_nonlinear(st, 0.2, 1e-3, cadence=0.01)
    # the scheme conserves the truncated defect to rounding
    assert np.max(np.abs(tr.mass_defect - tr.mass_defect[0])) < 1e-13
    assert np.all(np.diff(tr.entropy) < 0)
    assert np.all(np.diff(tr.fisher) < 0)


def test_sandwich_preserved_along_flow():
    g = _grid(15.0, 400)
    st = FL.make_initial_data(g, E59, "eigen", D=1.0, D0=2.0, D1=0.5,
                              epsilon=0.05, mode=(0, 1))
    tr = FL.evolve_nonlinear(st, 0.1, 1e-3, cadence=0.01, track_sandwich=True)
    assert len(tr.sandwich) == len(tr.t)
    for rep in tr.sandwich:
        assert rep.all_nonnegative
    # maximum principle: the band around the profile never widens
    assert np.all(tr.h1 <= 1.0 + 1e-12) and np.all(tr.h2 >= 1.0 - 1e-12)
    assert tr.h2[-1] - tr.h1[-1] < tr.h2[0] - tr.h1[0]


def test_trace_shape():
    g = _grid()
    st = FL.make_initial_data(g, E59, "eigen", D=1.0, D0=2.0, D1=0.5)
    tr = FL.evolve_nonlinear(st, 0.05, 1e-3, cadence=0.01)
    assert len(tr.t) == 6  # includes t = 0


def test_evolve_rejects_bad_stepping():
    g = _grid()
    st = FL.make_initial_data(g, E59, "eigen", D=1.0, D0=2.0, D1=0.5)
    with pytest.raises(ValueError):
        FL.evolve_nonlinear(st, 0.05, -1e-3)
    with pytest.raises(ValueError):
        FL.evolve_nonlinear(st, 0.05, 2e-3, cadence=0.005)  # 2.5 steps/row
    lin = FL.LinearState(grid=g, alpha=-10.0, D=1.0, l=1,
                         f=g.nodes * np.exp(-g.nodes**2))
    with pytest.raises(ValueError):
        FL.evolve_linear_sector(lin, 0.013, 1e-3, cadence=0.005)  # 2.6 rows
    lin.f[3] = np.nan
    with pytest.raises(FloatingPointError, match="infs or NaNs"):
        FL.evolve_linear_sector(lin, 0.01, 1e-3)
    with pytest.raises(ValueError):
        FL.evolve_nonlinear(st, 0.0, 1e-3)


def test_nonlinear_decay_rate_matches_spectrum():
    # dilation-mode perturbation decays at 2 * lambda_(0,1) = 2(-4a-2d) = 60
    g = N.build_grid(15.0, 800, 5)
    st = FL.make_initial_data(g, E59, "eigen", D=1.0, D0=2.0, D1=0.5,
                              epsilon=0.05, mode=(0, 1))
    tr = FL.evolve_nonlinear(st, 0.25, 2e-4, cadence=0.005)
    fit = fit_rate(tr, (0.1, 0.22))
    assert fit.rate == pytest.approx(60.0, rel=0.03)
    assert fit.r2 > 0.9999


def test_nonlinear_flow_on_the_line():
    # d = 1, m = 0.9 (alpha = -10): the dilation mode (0, 1) decays at
    # 2 lambda_(0,1) = 2(40 - 2) = 76, and the matched mass defect stays put
    g = N.build_grid(15.0, 800, 1)
    st = FL.make_initial_data(g, derive_exponents(1, 0.9), "eigen", D=1.0,
                              D0=2.0, D1=0.5, mode=(0, 1))
    tr = FL.evolve_nonlinear(st, 0.21, 2e-4, cadence=0.001)
    assert fit_rate(tr, (0.084, 0.185)).rate == pytest.approx(76.0, rel=5e-3)
    assert np.max(np.abs(tr.mass_defect - tr.mass_defect[0])) <= 1e-12


@pytest.mark.parametrize("R_max", [1e4, 1e8, float(np.sinh(40.0))])
def test_critical_data_matched_on_large_domains(R_max):
    # at the critical exponent m* = 1/3 in d = 5 the profile is not
    # integrable on these domains, and v - V_D falls below the rounding floor
    # of v; matching D in x = v/V_D - 1 still zeroes the truncated defect
    e = derive_exponents(5, Fraction(1, 3))
    g = N.build_grid(R_max, 2000, 5)
    st = FL.make_initial_data(g, e, "bump", D0=2.0, D1=0.5, clip=False)
    assert 0.5 < st.profile.D < 2.0
    assert abs(mass_defect_from_x(st.x, Weights.of(g, st.profile))) <= 1e-13


def _critical_run():
    # a small critical run (d = 5, m = 1/3): 1000 steps at dt = 0.2
    e = derive_exponents(5, Fraction(1, 3))
    g = N.build_grid(float(np.sinh(90.0)), 200, 5)
    st = FL.make_initial_data(g, e, "bump", D=1.0, amplitude=0.1,
                              match_D=False, clip=False)
    return st, 200.0, 0.2, 20.0


def _eigen_run():
    # the dilation-mode run of the rate test above, on a coarser grid: 1250
    # steps at dt = 2e-4
    g = _grid()
    st = FL.make_initial_data(g, E59, "eigen", D=1.0, D0=2.0, D1=0.5,
                              epsilon=0.05, mode=(0, 1))
    return st, 0.25, 2e-4, 0.005


def test_estimate_accepted_steps_match_full_iteration(monkeypatch):
    # in the critical run most steps start from the extrapolated state and
    # stop after one Newton iteration on the quadratic-convergence estimate;
    # every step must lie within 1e-12 of full iteration to 1e-11 from
    # x_old, and a step that started from x_old and took as many iterations
    # is bit-identical to it
    import fdrates._kernels as K

    st, t_end, dt, cadence = _critical_run()
    # full iteration from x_old: a workspace of the run's dt with no
    # estimate and no last step
    full = K.Workspace(Weights.of(st.grid, st.profile), dt)
    step = K.newton_step
    gaps = []
    identical = []

    def checked(x_old, work):
        last = work.last
        from_x_old = last is None or last[1] is not x_old
        x, iters = step(x_old, work)
        full.L = full.last = None
        want, want_it = step(x_old, full)
        if from_x_old and iters == want_it:
            assert np.array_equal(x, want)
            identical.append(iters)
        gaps.append(float(np.max(np.abs(x - want) / (1.0 + np.abs(want)))))
        return x, iters

    monkeypatch.setattr(K, "newton_step", checked)
    FL.evolve_nonlinear(st, t_end, dt, cadence=cadence)
    assert len(gaps) == 1000 and identical
    assert max(gaps) <= 1e-12


@pytest.mark.parametrize("run", [_critical_run, _eigen_run])
def test_run_steps_within_rounding_of_unfolded(monkeypatch, run):
    # along the run, each step lies within rounding of the kernel's
    # unfolded arithmetic from the same start, with as many iterations: one
    # iteration for a step that took one (by either stopping rule), full
    # iteration to 1e-11 for the others
    import fdrates._kernels as K
    from test_kernels import _folding_gap, _unfolded_step

    st, t_end, dt, cadence = run()
    wts = Weights.of(st.grid, st.profile)
    step = K.newton_step
    gaps = []

    def checked(x_old, work):
        start, last = x_old, work.last
        if last is not None and last[1] is x_old:
            x0 = 2.0 * x_old - last[0]
            if np.all(np.isfinite(x0)) and np.all(1.0 + x0 > 0.0):
                start = x0
        x, iters = step(x_old, work)
        want, want_it = _unfolded_step(x_old, wts, work.dt, start=start,
                                       tol=np.inf if iters == 1 else 1e-11)
        assert want_it == iters
        gaps.append(_folding_gap(x, want))
        return x, iters

    monkeypatch.setattr(K, "newton_step", checked)
    FL.evolve_nonlinear(st, t_end, dt, cadence=cadence)
    assert len(gaps) == round(t_end / dt)
    assert max(gaps) <= 1e-14


@pytest.mark.parametrize("run", [_critical_run, _eigen_run])
def test_newton_work_budget(monkeypatch, run):
    # the extrapolated start and the estimate rule together bring a smooth
    # run to about one Newton iteration, one Jacobian and one solve, per step
    import fdrates._kernels as K

    step = K.newton_step
    steps = []

    def counted(x_old, work):
        x, iters = step(x_old, work)
        steps.append(iters)
        return x, iters

    monkeypatch.setattr(K, "newton_step", counted)
    st, t_end, dt, cadence = run()
    FL.evolve_nonlinear(st, t_end, dt, cadence=cadence)
    assert len(steps) == round(t_end / dt)
    assert sum(steps) <= 1.1 * len(steps)


def test_linear_sector_eigenmode_rate():
    # f = r e^{-r^2} in the l = 1 sector, alpha = -10: the sector bottom is
    # the translation mode at -2*alpha = 20, so F decays at rate 40
    g = N.build_grid(15.0, 800, 5)
    f0 = g.nodes * np.exp(-g.nodes**2)
    st = FL.LinearState(grid=g, alpha=-10.0, D=1.0, l=1, f=f0)
    tr = FL.evolve_linear_sector(st, 0.5, 1e-4, cadence=0.005)
    fit = fit_rate(tr, (0.2, 0.45))
    assert fit.rate == pytest.approx(40.0, rel=0.03)
    assert np.all(np.isnan(tr.h1)) and np.all(np.isnan(tr.h2))
    assert st.t == pytest.approx(0.5)
    assert st.f[0] == 0.0  # Dirichlet padding restored


def test_linear_sector_exact_alpha():
    # a Fraction alpha or D runs the same float flow
    g = _grid()
    f0 = g.nodes * np.exp(-g.nodes**2)
    exact, flt = (FL.evolve_linear_sector(FL.LinearState(grid=g, alpha=a, D=1.0, l=1,
                                                         f=f0.copy()), 0.01, 1e-3)
                  for a in (Fraction(-10), -10.0))
    assert np.array_equal(exact.entropy, flt.entropy)
    assert np.array_equal(exact.fisher, flt.fisher)
    exact_D, flt_D = (FL.evolve_linear_sector(FL.LinearState(grid=g, alpha=-10.0, D=D,
                                                             l=1, f=f0.copy()),
                                              0.01, 1e-3)
                      for D in (Fraction(2), 2.0))
    assert np.array_equal(exact_D.entropy, flt_D.entropy)
    assert np.array_equal(exact_D.fisher, flt_D.fisher)


def test_newton_failure_raises_flow_error(monkeypatch):
    g = _grid()
    st = FL.make_initial_data(g, E59, "eigen", D=1.0, D0=2.0, D1=0.5)
    monkeypatch.setattr(FL._kernels, "newton_step",
                        lambda *a, **k: (None, 0), raising=True)
    with pytest.raises(FL.FlowError):
        FL.evolve_nonlinear(st, 0.01, 1e-3)


def test_a_step_damping_cannot_keep_in_the_domain_halves():
    # a bump of height 50 at dt = 1e4: the damped iterates reach x = -1
    # under rounding, so each such step fails and halves, until the run
    # gives up at the twelfth halving, with no warning on the way
    g = N.build_grid(20, 200, 5)
    st = FL.make_initial_data(g, derive_exponents(5, 0.3), "bump",
                              amplitude=50, match_D=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FL.FlowError) as err:
            FL.evolve_nonlinear(st, 4e4, 1e4)
    assert str(err.value) == ("Newton iteration diverged at dt = 2.44140625; "
                              "use a smaller time step")



def test_failed_step_runs_as_a_run_at_half_the_step(monkeypatch):
    # a near-vacuum bump (1 + x = 1e-6 at the origin): Newton cannot finish
    # the first step at dt = 1e-3, which then runs as two steps at 5e-4, bit
    # for bit those of a run at 5e-4; the next step at 1e-3 starts from x_old
    import fdrates._kernels as K

    def data():
        g = N.build_grid(20.0, 400, 2)
        return FL.make_initial_data(g, derive_exponents(2, -0.5), "bump",
                                    amplitude=-0.999999, match_D=False)

    step = K.newton_step
    calls = []

    def traced(x_old, work):
        last = work.last
        x, iters = step(x_old, work)
        calls.append((work.dt, last is not None and last[1] is x_old, x_old, x))
        return x, iters

    monkeypatch.setattr(K, "newton_step", traced)
    st = data()
    FL.evolve_nonlinear(st, 2e-3, 1e-3, cadence=1e-3)
    # (dt, extrapolated start, failed) of each kernel call
    assert [(dt, ext, x is None) for dt, ext, _, x in calls] == [
        (1e-3, False, True), (5e-4, False, False), (5e-4, True, False),
        (1e-3, False, False)]
    run = data()
    FL.evolve_nonlinear(run, 1e-3, 5e-4, cadence=1e-3)
    assert np.array_equal(calls[2][3], run.x)
    _, _, x_old, x = calls[3]
    wts = Weights.of(st.grid, st.profile)
    assert np.array_equal(x, step(x_old, K.Workspace(wts, 1e-3))[0])
