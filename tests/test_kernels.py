"""Tests for the implicit-step kernel: agreement with a reference, safety."""

import numpy as np
import pytest

import fdrates
import fdrates._kernels as K
import fdrates.numerics as N
from fdrates.entropy import Weights
from fdrates.exponents import derive_exponents
from fdrates.profiles import Profile


def _problem(d=5, n=300, R=15.0, m=0.9, D=1.0):
    g = N.build_grid(R, n, d)
    r = g.nodes
    wts = Weights.of(g, Profile(exponents=derive_exponents(d, m), D=D))
    x = 0.08 * np.exp(-r**2) + 0.02 * np.cos(r)
    return x, wts


def test_backend_registry():
    assert K.BACKEND == "pure"
    assert callable(K.newton_step)
    # the package loads its submodules on first access
    from fdrates import flow
    assert fdrates.flow is flow
    with pytest.raises(AttributeError):
        fdrates.no_such_module


def _reference_step(x_old, wts, dt, tol=1e-11, maxit=30, start=None):
    """The Newton step written with one new array per operation, in the
    association of the kernel's folded constants (see its docstring), from
    the profile and geometry of the Weights wts, starting from start
    (default x_old); also returns the number of damping halvings."""
    from scipy.linalg import solve_banded

    V, Vm1, w, g, h, m = wts.V, wts.Vm1, wts.w, wts.g, wts.h, wts.m
    x = (x_old if start is None else start).copy()
    n = len(x)
    wV = w * V
    m1 = m - 1.0
    m2 = m - 2.0
    p_scale = Vm1 / m1
    hV = 0.5 * V
    c = dt * g / h
    chV_l = c * hV[:-1]
    mchV_r = -c * hV[1:]
    halvings = 0
    for it in range(maxit):
        lx = np.log1p(x)
        p = p_scale * np.expm1(m1 * lx)
        dp = Vm1 * np.exp(m2 * lx)
        v = hV * (1.0 + x)
        cvbar = c * (v[:-1] + v[1:])
        Dp = p[1:] - p[:-1]
        dt_flux = cvbar * Dp
        rhs = wV * (x_old - x)
        rhs[:-1] += dt_flux
        rhs[1:] -= dt_flux
        lower = chV_l * Dp - cvbar * dp[:-1]
        upper = mchV_r * Dp - cvbar * dp[1:]
        ab = np.zeros((3, n))
        ab[1] = wV
        ab[1, :-1] -= lower
        ab[1, 1:] -= upper
        ab[0, 1:] = upper
        ab[2, :-1] = lower
        if w[0] == 0.0:
            rhs[0] = p[0] - p[1]
            ab[1, 0] = -dp[0]
            ab[0, 1] = dp[1]
        dx = solve_banded((1, 1), ab, rhs)
        # the iterate tested is the iterate kept
        lam = 1.0
        while np.any((trial := x + lam * dx) <= -1.0):
            lam *= 0.5
            halvings += 1
            if lam < 1e-18:
                return None, it + 1, halvings
        x = trial
        if np.max(np.abs(dx) / (1.0 + np.abs(x))) < tol:
            return x, it + 1, halvings
    return None, maxit, halvings


def _unfolded_step(x_old, wts, dt, tol=1e-11, maxit=30, start=None):
    """_reference_step with no constant folded: the pressure divided by
    m - 1 after the product with V^(m-1), the mean 0.5 (v_i + v_(i+1)), dt
    and g/h applied to each flux term, and the residual and upper band
    negated after they are built.  The folds must move the kernel's result
    from it only by rounding."""
    from scipy.linalg import solve_banded

    V, Vm1, w, g, h, m = wts.V, wts.Vm1, wts.w, wts.g, wts.h, wts.m
    x = (x_old if start is None else start).copy()
    n = len(x)
    wV = w * V
    gh = g / h
    m1 = m - 1.0
    m2 = m - 2.0
    for it in range(maxit):
        lx = np.log1p(x)
        p = Vm1 * np.expm1(m1 * lx) / m1
        dp = Vm1 * np.exp(m2 * lx)
        vl = V[:-1] * (1.0 + x[:-1])
        vr = V[1:] * (1.0 + x[1:])
        vbar = 0.5 * (vl + vr)
        Dp = p[1:] - p[:-1]
        dt_flux = dt * (g * vbar * Dp / h)
        resid = wV * (x - x_old)
        resid[:-1] -= dt_flux
        resid[1:] += dt_flux
        dt_dG_l = dt * (gh * (-vbar * dp[:-1] + 0.5 * V[:-1] * Dp))
        dt_dG_r = dt * (gh * (vbar * dp[1:] + 0.5 * V[1:] * Dp))
        ab = np.zeros((3, n))
        ab[1] = wV
        ab[1, :-1] -= dt_dG_l
        ab[1, 1:] += dt_dG_r
        ab[0, 1:] = -dt_dG_r
        ab[2, :-1] = dt_dG_l
        if w[0] == 0.0:
            resid[0] = p[1] - p[0]
            ab[1, 0] = -dp[0]
            ab[0, 1] = dp[1]
        dx = solve_banded((1, 1), ab, -resid)
        lam = 1.0
        while np.any((trial := x + lam * dx) <= -1.0):
            lam *= 0.5
            if lam < 1e-18:
                return None, it + 1
        x = trial
        if np.max(np.abs(dx) / (1.0 + np.abs(x))) < tol:
            return x, it + 1
    return None, maxit


def _folding_gap(got, want):
    """The largest gap between two states, relative to 1 + x, the density
    over the profile."""
    return float(np.max(np.abs(got - want) / (1.0 + want)))


def _cases(d):
    r = N.build_grid(15.0, 300, d).nodes
    smooth = 0.08 * np.exp(-r**2) + 0.02 * np.cos(r)
    hole = -0.99 * np.exp(-r**2) + 0.495 * np.exp(-(r - 1.5)**2)
    dip = 0.4 * np.exp(-r**2) - 0.3 * np.exp(-(r - 2.0)**2)
    return smooth, hole, dip


def test_step_matches_reference():
    # bit-identical to the allocating form: same x_new, same iteration count
    halved = failed = 0
    for m in (0.0, 0.3, 0.9):
        for d in (1, 3, 5):
            _, wts = _problem(d=d, m=m)
            # one workspace per dt runs its cases in order, as a flow run
            # does, including the case after a failed step; clearing its
            # estimate makes every step stop by the full rule
            works = {dt: K.Workspace(wts, dt) for dt in (1e-3, 1.0, 1e-2, 1e6)}
            smooth, hole, dip = _cases(d)
            for x, dt in ((smooth, 1e-3), (smooth, 1.0), (hole, 1e-2),
                          (hole, 1e6), (dip, 1e6)):
                want, want_it, halvings = _reference_step(x, wts, dt)
                work = works[dt]
                work.L = None
                got, got_it = K.newton_step(x, work)
                assert got_it == want_it
                if want is None:
                    assert got is None
                    failed += 1
                else:
                    assert np.array_equal(got, want)
                halved += halvings > 0
    # the damped branch (lam < 1) and the failure return are both covered
    assert halved > 0 and failed > 0


def test_step_within_rounding_of_unfolded():
    # the folded constants move each step by rounding only, with the same
    # iteration count, over every case at every dt
    failed = 0
    for m in (0.0, 0.3, 0.9):
        for d in (1, 3, 5):
            _, wts = _problem(d=d, m=m)
            works = {dt: K.Workspace(wts, dt) for dt in (1e-3, 1e-2, 1.0, 1e6)}
            for x in _cases(d):
                for dt, work in works.items():
                    want, want_it = _unfolded_step(x, wts, dt)
                    work.L = None
                    got, got_it = K.newton_step(x, work)
                    assert got_it == want_it
                    if want is None:
                        assert got is None
                        failed += 1
                    else:
                        assert _folding_gap(got, want) <= 1e-14
    assert failed > 0


def test_nan_update_matches_reference(monkeypatch):
    # a NaN in the Newton update is skipped by the damping test, as in the
    # reference, so the NaN state fails the next finiteness check
    import scipy.linalg

    solve = scipy.linalg.solve_banded

    def solve_with_nan(*args, **kwargs):
        dx = solve(*args, **kwargs)
        dx[5] = np.nan
        return dx

    monkeypatch.setattr(scipy.linalg, "solve_banded", solve_with_nan)
    x, wts = _problem()
    with pytest.raises(ValueError, match="infs or NaNs"):
        _reference_step(x, wts, 1e-3)
    with pytest.raises(FloatingPointError, match="infs or NaNs"):
        K.newton_step(x, K.Workspace(wts, 1e-3))


def test_pure_step_converges_and_conserves():
    x, wts = _problem()
    x_new, iters = K.newton_step(x, K.Workspace(wts, 1e-3))
    assert x_new is not None and 1 <= iters <= 30
    assert np.all(1.0 + x_new > 0)
    # backward Euler conserves sum w V x (the truncated mass defect)
    wV = wts.w * wts.V
    assert float(np.sum(wV * x_new)) == pytest.approx(
        float(np.sum(wV * x)), abs=1e-15 + 1e-12 * abs(float(np.sum(wV * x))))


def test_step_determinism():
    x, wts = _problem()
    # the estimate the first step may measure is cleared, so both stop by
    # the full rule
    work = K.Workspace(wts, 1e-3)
    a, _ = K.newton_step(x, work)
    work.L = None
    b, _ = K.newton_step(x, work)
    assert np.array_equal(a, b)


def test_huge_step_reports_failure_not_garbage():
    # an absurd time step must either converge or return None, never a
    # positivity-violating state
    x, wts = _problem(m=0.3)
    x_new, _ = K.newton_step(5.0 * x, K.Workspace(wts, 1e6))
    assert x_new is None or np.all(1.0 + x_new > 0)


def test_non_finite_input_raises():
    # the pure kernel skips scipy's own finiteness check and makes its own
    x, wts = _problem()
    x[7] = np.nan
    with pytest.raises(FloatingPointError, match="infs or NaNs"):
        K.newton_step(x, K.Workspace(wts, 1e-3))


def test_workspace_clean_after_raise():
    # a workspace whose buffers a NaN step left dirty steps a clean state
    # exactly as the reference does
    for d in (1, 5):
        x, wts = _problem(d=d)
        work = K.Workspace(wts, 1e-3)
        bad = x.copy()
        bad[7] = np.nan
        with pytest.raises(FloatingPointError, match="infs or NaNs"):
            K.newton_step(bad, work)
        want, want_it, _ = _reference_step(x, wts, 1e-3)
        got, got_it = K.newton_step(x, work)
        assert got_it == want_it
        assert np.array_equal(got, want)


def test_singular_system_is_a_failed_step(monkeypatch):
    # a singular Jacobian fails the step, for the caller to subdivide, instead
    # of escaping as scipy's LinAlgError (a ValueError)
    import scipy.linalg

    def singular(*args, **kwargs):
        raise scipy.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(scipy.linalg, "solve_banded", singular)
    x, wts = _problem()
    assert K.newton_step(x, K.Workspace(wts, 1e-3)) == (None, 1)


# an estimate of the quadratic-convergence constant so small that the
# estimate rule, where it applies, accepts any first iteration
ANY = 1e-300


def test_estimate_accepts_after_one_undamped_iteration():
    # the control for the tests below: with an estimate, an undamped first
    # iteration is accepted
    x, wts = _problem()
    work = K.Workspace(wts, 1e-3)
    work.L = ANY
    # one iteration of the reference, accepted whatever its correction
    want, _, _ = _reference_step(x, wts, 1e-3, tol=np.inf, maxit=1)
    got, got_it = K.newton_step(x, work)
    assert (got_it, work.L) == (1, ANY)
    assert np.array_equal(got, want)


def test_estimate_never_used_on_a_damped_first_iteration():
    for m in (0.0, 0.3):
        _, wts = _problem(d=3, m=m)
        _, hole, _ = _cases(3)
        want, want_it, _ = _reference_step(hole, wts, 1e6)
        # the first iteration damps (lam < 1)
        _, _, halvings = _reference_step(hole, wts, 1e6, maxit=1)
        assert halvings > 0 and want_it > 1
        work = K.Workspace(wts, 1e6)
        work.L = ANY
        got, got_it = K.newton_step(hole, work)
        assert got_it == want_it
        assert np.array_equal(got, want)


def test_fresh_workspace_uses_full_rule_then_measures_L():
    # a fresh workspace has no estimate, so its first step stops by the full
    # rule; one that stops after exactly two undamped iterations measures L
    measured = 0
    for d in (1, 3, 5):
        x, wts = _problem(d=d)
        for x0 in (x, 1e-3 * x):
            work = K.Workspace(wts, 1e-3)
            want, want_it, _ = _reference_step(x0, wts, 1e-3)
            got, got_it = K.newton_step(x0, work)
            assert got_it == want_it > 1
            assert np.array_equal(got, want)
            if got_it == 2:
                assert 0.0 < work.L < 1e11
                measured += 1
            else:
                assert work.L is None
    assert measured > 0


def test_failed_step_clears_estimate():
    # a failed step clears the estimate and the last step; the pair
    # (dip, dip) extrapolates to dip itself
    _, wts = _problem(d=3, m=0.3)
    _, _, dip = _cases(3)
    work = K.Workspace(wts, 1e6)
    work.L = 1.0
    work.last = dip, dip
    assert K.newton_step(dip, work)[0] is None
    assert work.L is None and work.last is None
    # so does a step that raises
    x, wts = _problem()
    x[7] = np.nan
    work = K.Workspace(wts, 1e-3)
    work.L = 1.0
    work.last = x, x
    with pytest.raises(FloatingPointError, match="infs or NaNs"):
        K.newton_step(x, work)
    assert work.L is None and work.last is None


def test_exact_zero_correction_stores_no_zero_estimate(monkeypatch):
    # a second correction of exactly 0 stops the step after two iterations,
    # but L = 0 would accept every later step
    import scipy.linalg

    solve = scipy.linalg.solve_banded
    calls = []

    def zero_second(*args, **kwargs):
        dx = solve(*args, **kwargs)
        calls.append(None)
        return dx if len(calls) % 2 else np.zeros_like(dx)

    monkeypatch.setattr(scipy.linalg, "solve_banded", zero_second)
    x, wts = _problem()
    for before in (None, 0.5):
        work = K.Workspace(wts, 1e-3)
        work.L = before
        assert K.newton_step(x, work)[1] == 2
        assert work.L == before


def _one_iteration(x_old, wts, dt, start=None):
    # one reference iteration, accepted whatever its correction
    return _reference_step(x_old, wts, dt, tol=np.inf, maxit=1, start=start)[0]


def test_start_extrapolates_the_last_step():
    x, wts = _problem()
    work = K.Workspace(wts, 1e-3)
    # a fresh workspace starts from x_old and keeps the step it accepted
    x1, _ = K.newton_step(x, work)
    assert work.last[0] is x and work.last[1] is x1
    work.L = ANY
    predicted = _one_iteration(x1, wts, 1e-3, start=2.0 * x1 - x)
    plain = _one_iteration(x1, wts, 1e-3)
    assert not np.array_equal(predicted, plain)
    # a copy of the last returned array is not that array: x_old start
    got, got_it = K.newton_step(x1.copy(), work)
    assert got_it == 1 and np.array_equal(got, plain)
    # the returned array itself, with the pair that the copy's step
    # replaced put back: the extrapolated start
    work.last = x, x1
    x2, got_it = K.newton_step(x1, work)
    assert got_it == 1 and np.array_equal(x2, predicted)
    assert work.last[0] is x1 and work.last[1] is x2


@pytest.mark.parametrize("shift", [2.0, -np.inf, np.nan, 1.0, 1.0 - 2.0**-53])
def test_start_from_x_old_when_the_extrapolation_leaves_the_domain(shift):
    # x_0 = 2 x - x_prev with x[10] = 0, so x_0[10] = -shift exactly: where
    # it is <= -1 (-1 itself included) or not finite, Newton starts from
    # x_old; -1 + 2^-53 lies in the domain, so that start is used.  Either
    # way the step keeps its pair
    x, wts = _problem()
    x[10] = 0.0
    x_prev = x.copy()
    x_prev[10] += shift
    start = 2.0 * x - x_prev if -np.inf < shift < 1.0 else None
    work = K.Workspace(wts, 1e-3)
    work.L = ANY
    work.last = x_prev, x
    got, got_it = K.newton_step(x, work)
    assert got_it == 1
    assert np.array_equal(got, _one_iteration(x, wts, 1e-3, start=start))
    assert work.last[0] is x and work.last[1] is got
