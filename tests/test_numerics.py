"""Tests for grids, quadrature, form assembly, and the eigensolvers."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdrates.numerics as N
import fdrates.scalar as S
from eigen_oracle import (count_below, dense_bottom, lumped_shift_by_index, mass,
                          stiffness)


def test_build_grid_basics():
    for scale in (1.0, 0.5):
        g = N.build_grid(10.0, 64, 3, scale=scale)
        assert g.N == 64
        assert g.R_max == 10.0
        s = scale * np.sinh(np.linspace(0.0, math.asinh(10.0 / scale), 65))
        assert np.array_equal(g.nodes[1:-1], s[1:-1])
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 10.0
        assert np.all(np.diff(g.nodes) > 0)
        # the sinh grid clusters near the origin
        assert g.nodes[32] < 10.0 / 2
    with pytest.raises(ValueError):
        N.build_grid(10.0, 8, 3)
    with pytest.raises(ValueError):
        N.build_grid(-1.0, 64, 3)
    for scale in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="scale must be positive"):
            N.build_grid(10.0, 64, 3, scale=scale)


def test_sinh_grid_nesting():
    coarse = N.build_grid(25.0, 100, 5)
    fine = N.build_grid(25.0, 200, 5)
    assert np.allclose(fine.nodes[::2], coarse.nodes, rtol=1e-13, atol=1e-13)


def test_sphere_area():
    assert N.sphere_area(1) == pytest.approx(2.0)
    assert N.sphere_area(2) == pytest.approx(2 * math.pi)
    assert N.sphere_area(3) == pytest.approx(4 * math.pi)
    assert N.sphere_area(4) == pytest.approx(2 * math.pi**2)


def test_cell_volumes_total():
    # sum of weights * sphere area = volume of the ball (f = 1, no weight)
    for d in (1, 2, 3, 5):
        g = N.build_grid(2.0, 600, d)
        vol = N.sphere_area(d) * float(np.sum(N.cell_volumes(g)))
        exact = math.pi ** (d / 2) / math.gamma(d / 2 + 1) * 2.0**d
        assert vol == pytest.approx(exact, rel=1e-4)
        if d >= 2:
            assert N.cell_volumes(g)[0] == 0.0


def test_weighted_quadrature_oracle_and_order():
    # |S^2| int_0^inf (1+r^2)^-3 r^2 dr = pi^2/4
    exact = math.pi**2 / 4.0
    errs = []
    for n in (250, 500, 1000):
        g = N.build_grid(200.0, n, 3)
        approx = N.sphere_area(3) * float(np.sum(N.cell_volumes(g)
                                                 * (1.0 + g.nodes**2) ** -3.0))
        errs.append(abs(approx - exact))
    assert errs[-1] < 1e-4 * exact
    # trapezoid rule: error drops ~4x per refinement
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0


def test_forms_constant_in_kernel():
    # the constant function is an exact zero mode of the l = 0 stiffness form
    g = N.build_grid(30.0, 200, 5)
    forms = N.assemble_sector_forms(g, -4.0, 1.0, 0)
    c = np.ones(forms.n)
    assert abs(c @ forms.apply_a(c)) < 1e-12 * abs(c @ forms.apply_b(c))


def test_forms_and_verification_take_exact_alpha():
    # a Fraction alpha or D is evaluated in floats: the same forms, the same
    # answer
    g = N.build_grid(30.0, 200, 5)
    for alpha, D in ((Fraction(-10), 1.0), (-10.0, Fraction(23, 10)),
                     (Fraction(-10), Fraction(23, 10))):
        exact = N.assemble_sector_forms(g, alpha, D, 1)
        flt = N.assemble_sector_forms(g, float(alpha), float(D), 1)
        for name in ("a_diag", "a_off", "b_diag", "b_off"):
            assert np.array_equal(getattr(exact, name), getattr(flt, name))
    for D in (1.0, Fraction(23, 10)):
        res = N.verify_constants(5, Fraction(-4), D=D, R_max=60.0, N=400, l_max=1)
        assert res.closed_form == 6.0
        assert res.minimum == N.verify_constants(5, -4.0, D=float(D), R_max=60.0,
                                                 N=400, l_max=1).minimum


def _reference_forms(grid, alpha, D, l):
    """The single-sector assembly, with every quadrature array evaluated anew
    for each sector; returns (a_diag, a_off, b_diag, b_off)."""
    alpha = float(alpha)
    r = grid.nodes
    d = grid.d
    h = np.diff(r)
    xg, wg = np.polynomial.legendre.leggauss(4)
    mid = (r[:-1] + r[1:]) / 2.0
    x = mid[:, None] + np.outer(h / 2.0, xg)
    w = np.outer(h / 2.0, wg)
    wa = (D + x**2) ** alpha * x ** (d - 1)
    wb = wa / (D + x**2)
    p0 = (r[1:, None] - x) / h[:, None]
    p1 = (x - r[:-1, None]) / h[:, None]

    n = len(r)
    a_diag = np.zeros(n)
    a_off = np.zeros(n - 1)
    b_diag = np.zeros(n)
    b_off = np.zeros(n - 1)

    k = np.sum(wa * w, axis=1) / h**2
    a_diag[:-1] += k
    a_diag[1:] += k
    a_off -= k
    if l > 0:
        c = l * (l + d - 2)
        q = c * wa / x**2
        a_diag[:-1] += np.sum(q * p0 * p0 * w, axis=1)
        a_diag[1:] += np.sum(q * p1 * p1 * w, axis=1)
        a_off += np.sum(q * p0 * p1 * w, axis=1)
    b_diag[:-1] += np.sum(wb * p0 * p0 * w, axis=1)
    b_diag[1:] += np.sum(wb * p1 * p1 * w, axis=1)
    b_off += np.sum(wb * p0 * p1 * w, axis=1)

    if l >= 1:
        return a_diag[1:], a_off[1:], b_diag[1:], b_off[1:]
    return a_diag, a_off, b_diag, b_off


def test_gauss_legendre_rule_is_numpys_leggauss():
    xg, wg = np.polynomial.legendre.leggauss(4)
    assert N._GL_NODES.tobytes() == xg.tobytes()
    assert N._GL_WEIGHTS.tobytes() == wg.tobytes()
    assert not (N._GL_NODES.flags.writeable or N._GL_WEIGHTS.flags.writeable)


def test_forms_match_reference():
    # the shared multi-sector assembly is bit-identical to assembling each
    # sector on its own
    for d in (2, 3, 5):
        for alpha in (-4.0, Fraction(-3, 10)):
            for D in (1.0, 2.3):
                g = N.build_grid(40.0, 120, d, scale=math.sqrt(D))
                for l in range(4):
                    forms = N.assemble_sector_forms(g, alpha, D, l)
                    want = _reference_forms(g, alpha, D, l)
                    got = (forms.a_diag, forms.a_off, forms.b_diag, forms.b_off)
                    for a, b in zip(got, want):
                        assert np.array_equal(a, b)
                    assert forms.dirichlet_origin == (l >= 1)


def _domain_cells(R_max, N_, scale):
    # the rule of verify_constants, written out: five stretched sizes from
    # max(S_max - 3, min(S_max/2, 1.5)) to S_max, each the nearest number of
    # cells of the grid on the largest domain
    S_max = math.asinh(R_max / scale)
    S_min = max(S_max - 3.0, min(S_max / 2.0, 1.5))
    return S_max, [round(N_ * S / S_max) for S in np.linspace(S_min, S_max, 5)]


def test_verify_constants_domains_match_sector_bottom():
    # every domain of the sweep is the first cells of the grid on the largest,
    # and each sector's eigenvalue there equals the single-sector solve on
    # those cells exactly; the largest domain, and the unextrapolated value,
    # equal the single-sector solve at the radius
    d, alpha, D, R_max, N_ = 3, -2.0, 2.3, 80.0, 200
    res = N.verify_constants(d, alpha, D=D, R_max=R_max, N=N_)
    scale = math.sqrt(D)
    S_max, cells = _domain_cells(R_max, N_, scale)
    R_top = float(scale * math.sinh(S_max))
    grid = N.build_grid(R_top, N_, d, scale=scale)
    # from S_max = 4.5 on the smallest domain is S_max - 3, and each domain's
    # size lies within half a cell of the evenly spaced one
    assert S_max >= 4.5
    for c, S in zip(cells, np.linspace(S_max - 3.0, S_max, 5)):
        assert abs(math.asinh(grid.nodes[c] / scale) - S) <= 0.5 * S_max / N_ + 1e-12
    for s in res.sectors:
        assert s.lambda_domains == tuple(
            N.bottom_eigenvalue(N.assemble_sector_forms(
                N.RadialGrid(nodes=grid.nodes[:c + 1], d=d), alpha, D, s.l))[0]
            for c in cells)
        assert s.lambda_domains[-1] == N.sector_bottom(d, alpha, D, s.l, R_top, N_)[0]
    raw = N.verify_constants(d, alpha, D=D, R_max=R_max, N=N_, extrapolate=False)
    for s in raw.sectors:
        lam = N.sector_bottom(d, alpha, D, s.l, R_max, N_)[0]
        assert s.lambda_domains == (lam,) and s.lambda_numeric == lam


def test_prefix_forms_match_direct_assembly():
    # the forms of each domain of one assembly, summed from the element
    # integrals of the whole grid, equal an assembly on the domain's own
    # nodes bit for bit
    for d in (1, 3, 5):
        for alpha, D in ((-4.0, 1.0), (Fraction(-3, 10), 2.3)):
            g = N.build_grid(40.0, 120, d, scale=math.sqrt(D))
            cells = (17, 40, 63, 119, 120)
            domains = N._assemble_sectors(g, alpha, D, range(4), cells)
            for c, forms in zip(cells, domains):
                sub = N.RadialGrid(nodes=g.nodes[:c + 1], d=d)
                assert [f.l for f in forms] == [0, 1, 2, 3]
                for f in forms:
                    want = N.assemble_sector_forms(sub, alpha, D, f.l)
                    assert np.array_equal(f.grid.nodes, sub.nodes)
                    for a, b in ((f.a_diag, want.a_diag), (f.a_off, want.a_off),
                                 (f.b_diag, want.b_diag), (f.b_off, want.b_off)):
                        assert np.array_equal(a, b)


def test_verify_constants_smallest_domain_keeps_a_third_of_the_cells():
    # just above R = sinh(3) the smallest domain once shrank to almost
    # nothing (S_max - 3), and the minimum at (5, -4) jumped from 1.5% to
    # 4.9% off; the smallest domain now keeps a third of S_max, so the
    # minimum moves continuously with R_max
    lo = N.verify_constants(5, -4.0, R_max=10.0, N=400).minimum
    hi = N.verify_constants(5, -4.0, R_max=10.05, N=400).minimum
    assert hi == pytest.approx(lo, rel=1e-3)


def test_forms_mass_positive_definite():
    g = N.build_grid(30.0, 150, 5)
    for l in (0, 1, 2):
        forms = N.assemble_sector_forms(g, -4.0, 1.0, l)
        np.linalg.cholesky(mass(forms))  # raises if not SPD
        A = stiffness(forms)
        assert np.allclose(A, A.T)
        if l >= 1:
            assert forms.dirichlet_origin
            assert forms.n == g.N  # origin node dropped


def test_rayleigh_quotient_eigen_oracle():
    # f(r) = r is the exact (l=1, k=0) eigenfunction with eigenvalue -2*alpha;
    # the P1 quotient must reproduce it up to quadrature error
    d, alpha = 5, -6.0
    g = N.build_grid(60.0, 1200, d)
    forms = N.assemble_sector_forms(g, alpha, 1.0, 1)
    assert N.rayleigh_quotient(g.nodes, forms) == pytest.approx(12.0, rel=2e-4)


def test_rayleigh_zero_norm_rejected():
    g = N.build_grid(30.0, 100, 5)
    forms = N.assemble_sector_forms(g, -4.0, 1.0, 0)
    with pytest.raises(ZeroDivisionError):
        N.rayleigh_quotient(np.zeros(101), forms)


def test_bottom_eigenvalue_dense_vs_iterative():
    d, alpha = 5, -4.0
    for l in (0, 1):
        g = N.build_grid(40.0, 200, d)
        forms = N.assemble_sector_forms(g, alpha, 1.0, l)
        lam_d, v_d = dense_bottom(forms)
        lam_i, v_i = N.bottom_eigenvalue(forms)
        assert lam_i == pytest.approx(lam_d, rel=1e-10)
        # eigenvectors agree up to sign
        sgn = math.copysign(1.0, float(v_d @ v_i))
        assert np.allclose(v_i, sgn * v_d, atol=1e-6 * np.max(np.abs(v_d)))


def test_bottom_eigenvalue_is_exact_under_power_of_two_weights():
    # a pencil scaled by 2^k has the same eigenvalue and an eigenvector
    # scaled by 2^(-k/2); with weights near the largest double, the
    # normalization of the eigenvector neither overflows nor warns, and the
    # scaling is exact, so both come out bit for bit
    g = N.build_grid(100.0, 400, 5)
    for alpha, l in ((-4.0, 0), (-1.0, 0), (-1.0, 1)):
        forms = N.assemble_sector_forms(g, alpha, 1.0, l)
        lam, f = N.bottom_eigenvalue(forms)
        top = max(np.max(np.abs(a)) for a in (forms.a_diag, forms.b_diag))
        k = 2 * ((1004 - math.frexp(top)[1]) // 2)
        big = N.SectorForms(grid=g, l=l, **{
            name: np.ldexp(getattr(forms, name), k)
            for name in ("a_diag", "a_off", "b_diag", "b_off")})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam_big, f_big = N.bottom_eigenvalue(big)
        assert lam_big == lam
        assert np.array_equal(f_big, np.ldexp(f, -k // 2))


def test_bottom_eigenvalue_unconstrained_l0_is_zero():
    # the l = 0 stiffness maps the constant to zero up to rounding, so the
    # unconstrained bottom is 0 and the mean-zero bottom is eigenvalue k = 1
    g = N.build_grid(40.0, 200, 5)
    forms = N.assemble_sector_forms(g, -4.0, 1.0, 0)
    ones = np.ones(forms.n)
    rounding = np.finfo(float).eps * (np.abs(stiffness(forms)) @ ones)
    assert np.all(np.abs(forms.apply_a(ones)) <= 4 * rounding)


def test_nonconvergence_carries_quotient(monkeypatch):
    import fdrates._lapack as lapack

    g = N.build_grid(40.0, 200, 5)
    forms = N.assemble_sector_forms(g, -4.0, 1.0, 1)
    monkeypatch.setattr(N, "_EIGEN_TOL", 0.0)
    monkeypatch.setattr(N, "_EIGEN_MAXIT", 3)
    # the solve count shows that the iteration stops at the cap: the shift's
    # upper bound takes _BOUND_STEPS solves, inverse iteration the other 3
    solves, dgttrs = [], lapack.dgttrs
    monkeypatch.setattr(lapack, "dgttrs", lambda *a: solves.append(a) or dgttrs(*a))
    with pytest.raises(N.NonConvergenceError) as exc:
        N.bottom_eigenvalue(forms)
    assert math.isfinite(exc.value.last_quotient)
    assert len(solves) == N._BOUND_STEPS + 3


@given(d=st.sampled_from([1, 2, 3, 5, 6]), near_star=st.booleans(),
       branch=st.integers(0, 3), frac=st.floats(0.1, 0.9),
       rel=st.floats(-0.1, 0.1), l=st.integers(0, 3),
       R=st.sampled_from([5.0, 100.0]), D=st.sampled_from([1.0, 2.3]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_lumped_shift_matches_the_index_mode_reference(d, near_star, branch, frac,
                                                       rel, l, R, D):
    # the shift bisected below its Courant-Fischer bound is the same index-k
    # eigenvalue of the lumped pencil as one picked by index over the whole
    # spectrum, in the branch interiors and within 10% of alpha* < 0
    if near_star and d >= 3:
        alpha = -(d - 2) / 2 * (1.0 + rel)
    else:
        ends = _branch_ends(d)
        i = branch % (len(ends) - 1)
        alpha = ends[i] + frac * (ends[i + 1] - ends[i])
    if d == 1:
        l %= 2  # the only sectors that exist in d = 1
    scale = math.sqrt(D)
    forms = N.assemble_sector_forms(N.build_grid(R * scale, 400, d, scale=scale),
                                    alpha, D, l)
    sigma = N._lumped_shift(forms)[0]
    assert sigma == pytest.approx(lumped_shift_by_index(forms)[0], rel=1e-6)
    # the eigensolve it starts takes at most 3 solves of inverse iteration
    # after the _BOUND_STEPS of the bound
    import fdrates._lapack as lapack

    solves, dgttrs = [], lapack.dgttrs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lapack, "dgttrs", lambda *a: solves.append(a) or dgttrs(*a))
        N.bottom_eigenvalue(forms)
    assert len(solves) <= N._BOUND_STEPS + 3
    # and on a small grid the eigensolve it starts agrees with the dense oracle
    small = N.assemble_sector_forms(N.build_grid(R * scale, 48, d, scale=scale),
                                    alpha, D, l)
    assert N.bottom_eigenvalue(small)[0] == pytest.approx(dense_bottom(small)[0],
                                                          rel=1e-10)


def test_lumped_shift_bound_is_tight(monkeypatch):
    # the Courant-Fischer bound lies so near eigenvalue k of the lumped pencil
    # that every bisection below it, on the six acceptance cases, finds at
    # most one eigenvalue above k; a bound taken with no solves finds more
    import fdrates._lapack as lapack

    calls, shift, dstebz = [], N._lumped_shift, lapack.dstebz

    def counted_shift(forms):
        calls.append((1 if forms.l == 0 else 0, []))
        return shift(forms)

    def counted_dstebz(*args):
        out = dstebz(*args)
        calls[-1][1].append(int(out[0]))
        return out

    monkeypatch.setattr(N, "_lumped_shift", counted_shift)
    monkeypatch.setattr(lapack, "dstebz", counted_dstebz)
    for d, alpha in ((5, -1.0), (5, -4.0), (5, -6.0), (4, -3.0), (3, -2.0), (2, -3.0)):
        N.verify_constants(d, alpha, D=1.0, l_max=3, R_max=100.0, N=1600)
    assert len(calls) == 120
    assert all(found and max(found) <= k + 2 for k, found in calls)


@pytest.mark.parametrize("l", [0, 1])
def test_lumped_shift_doubles_a_bound_that_holds_too_few(l, monkeypatch):
    # a first bisection that reports no eigenvalue above index k is taken
    # again over twice the range, at twice the absolute tolerance, and
    # finds the shift the first would have, to the two tolerances
    import fdrates._lapack as lapack

    k = 1 if l == 0 else 0
    forms = N.assemble_sector_forms(N.build_grid(100.0, 400, 5), -4.0, 1.0, l)
    sigma = N._lumped_shift(forms)[0]
    calls, dstebz = [], lapack.dstebz

    def short_first(*args):
        calls.append(args)
        out = dstebz(*args)
        return (k, *out[1:]) if len(calls) == 1 else out

    monkeypatch.setattr(lapack, "dstebz", short_first)
    doubled = N._lumped_shift(forms)[0]
    assert len(calls) == 2
    (*_, vu0, _, _, tol0, _), (*_, vl1, vu1, _, _, tol1, _) = calls
    assert (vl1, vu1, tol1) == (-2.0 * vu0, 2.0 * vu0, 2.0 * tol0)
    assert abs(doubled - sigma) <= tol0 + tol1


def test_sector_bottom_discrete_mode():
    # (d, alpha) = (5, -6): l=1 bottom is the discrete mode at -2*alpha = 12
    lam, f = N.sector_bottom(5, -6.0, 1.0, 1, R_max=60.0, N=800)
    assert lam == pytest.approx(12.0, rel=2e-4)
    assert f[0] == 0.0  # Dirichlet at the origin


def test_sector_bottom_scale_invariance():
    # rescaling D with the sqrt(D)-graded grid reproduces the same spectrum
    a = N.sector_bottom(5, -4.0, 1.0, 1, R_max=50.0, N=400)[0]
    b = N.sector_bottom(5, -4.0, 4.0, 1, R_max=100.0, N=400)[0]
    assert b == pytest.approx(a, rel=1e-10)


def test_verify_constants_discrete_case():
    res = N.verify_constants(5, -6.0, R_max=60.0, N=800, l_max=2)
    assert res.closed_form == 12.0
    assert res.rel_err < 5e-3
    assert len(res.sectors) == 3
    assert res.sectors[0].constrained and not res.sectors[1].constrained
    assert res.minimum == min(s.lambda_numeric for s in res.sectors)


def test_verify_constants_only_sectors_that_exist():
    # in d = 1 only the parities l = 0, 1 exist (multiplicity(1, l) = 0 for
    # l >= 2), so no other sector is evaluated or enters the minimum
    res = N.verify_constants(1, -0.1, R_max=100.0, N=200)
    assert [s.l for s in res.sectors] == [0, 1]
    assert res.minimum == min(s.lambda_numeric for s in res.sectors)
    res = N.verify_constants(2, -3.0, R_max=60.0, N=200, extrapolate=False)
    assert [s.l for s in res.sectors] == [0, 1, 2, 3]


@pytest.mark.parametrize("kwargs, msg", [
    (dict(l_max=-1), "l_max must be >= 0, got -1"),
    (dict(d=0), "d must be >= 1, got 0"),
    (dict(R_max=-3.0), "R_max must be positive, got -3.0"),
    (dict(D=0.0), "D must be positive, got 0.0"),
    (dict(D=Fraction(-1, 2)), "D must be positive, got -1/2"),
])
def test_verify_constants_rejects_bad_input(kwargs, msg):
    args = dict(d=5, alpha=-1.0, N=64, extrapolate=False) | kwargs
    with pytest.raises(ValueError, match=msg):
        N.verify_constants(**args)


def test_verify_constants_continuum_case_needs_extrapolation():
    # (3, -2): closed form 9/4 sits at the continuum bottom; truncated values
    # overshoot and the quantization-law fit removes the 1/log^2 R bias
    res = N.verify_constants(3, -2.0, R_max=100.0, N=1200, l_max=1)
    assert res.rel_err < 2e-2
    raw = N.sector_bottom(3, -2.0, 1.0, 0, R_max=100.0, N=1200)[0]
    assert abs(raw - res.closed_form) > 3 * abs(res.minimum - res.closed_form)


def _bisect_root(f, lo, hi):
    """The root search _quantization_fit first used: bisection down to
    adjacent doubles, from a bracket whose ends differ in sign."""
    r_lo = f(lo)
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        r_mid = f(mid)
        if r_mid * r_lo > 0:
            lo, r_lo = mid, r_mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def test_quantization_fit_recovers_exact_law(monkeypatch):
    # lambda(S) = lambda_inf + k^2 with S = kappa/k + s0 + s1 k + s2 k^2 exactly
    lam_inf = 2.25
    k = np.array([1.0, 0.8, 0.6, 0.5, 0.4])
    Ss = math.pi / k + 0.5 + 0.1 * k + 0.02 * k**2
    lams = lam_inf + k**2
    calls, lstsq = [], np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *a, **kw: calls.append(a) or lstsq(*a, **kw))
    root = N._quantization_fit(Ss, lams, 2)
    assert root == pytest.approx(lam_inf, rel=1e-12)
    # the two ends of the bracket and at most 18 residuals inside it, where
    # bisection down to adjacent doubles takes about 53
    assert len(calls) <= 20

    def resid(lam):
        kk = np.sqrt(lams - lam)
        M = np.column_stack([1.0 / kk, np.ones_like(kk), kk, kk**2])
        coef, *_ = np.linalg.lstsq(M[:-1], Ss[:-1], rcond=None)
        return Ss[-1] - float(M[-1] @ coef)

    ref = _bisect_root(resid, 1e-12, float(lams.min()) - 1e-10)
    assert abs(root - ref) <= 4 * math.ulp(ref)


def test_quantization_fit_two_roots_still_refused():
    # the residual changes sign twice across (0, min lambda), so the end-sign
    # test refuses the npow = 2 fit, as it did under bisection
    k = np.array([0.9, 0.8, 0.7, 0.6, 0.5])
    Ss = 1.7 / k + 0.3 - 0.2 * k + 0.05 * k**2
    assert N._quantization_fit(Ss, 2.25 + k**2, 2) is None


@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: x - 1.0 / 3.0, 0.0, 1.0),
    (lambda x: math.tanh(50.0 * (x - 0.7)), 0.0, 1.0),
    (lambda x: x**3 - 2.0, 1.0, 2.0),
    (lambda x: 1.0 if x > 0.25 else -1.0, 0.0, 1.0),
])
def test_brent_root_ends_on_adjacent_doubles(f, lo, hi):
    root = S._brent_root(f, lo, f(lo), hi, f(hi))
    ref = _bisect_root(f, lo, hi)
    assert abs(root - ref) <= 4 * math.ulp(ref)
    # no double lies between the root and a point of the other sign
    if f(root) != 0:
        beyond = math.nextafter(root, hi if f(root) * f(lo) > 0 else lo)
        assert f(beyond) * f(root) <= 0


@pytest.mark.parametrize("d, alpha, D, within_3pct", [
    (5, -2.0, 1.0, True),
    (3, -2.0, 1.3871234407579895, True),
    (5, -1.2, 1.0, False),
    (3, -0.25, 2.3, False),
    (5, -1.9, 2.3, False),
])
def test_verify_constants_branch_interior_regressions(d, alpha, D, within_3pct):
    # branch-interior points where a projected two-phase inverse iteration
    # stalled
    res = N.verify_constants(d, alpha, D=D, l_max=3, R_max=100.0 * math.sqrt(D),
                             N=1600)
    assert math.isfinite(res.minimum) and res.minimum > 0
    if within_3pct:
        assert res.rel_err < 0.03


def _branch_ends(d):
    # alpha_star = -(d-2)/2, alpha_2 = -(d+2)/2, alpha_1 = -d; the unbounded
    # last branch is cut at -2d
    return sorted({0.0, -(d - 2) / 2, -(d + 2) / 2, -float(d), -2.0 * d})


@given(d=st.integers(2, 6), branch=st.integers(0, 3),
       frac=st.floats(0.1, 0.9), log_D=st.floats(0.0, math.log(4.0)))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_verify_constants_branch_interiors_never_raise(d, branch, frac, log_D):
    ends = _branch_ends(d)
    i = branch % (len(ends) - 1)
    lo, hi = ends[i], ends[i + 1]
    D = math.exp(log_D)
    res = N.verify_constants(d, lo + frac * (hi - lo), D=D, l_max=3,
                             R_max=100.0 * math.sqrt(D), N=1600)
    assert math.isfinite(res.minimum) and res.minimum > 0


@pytest.mark.parametrize("d, alpha, D, R", [
    (10, -1.0, 1.0, 100.0), (11, -1.0, 1.0, 100.0), (11, -6.0, 1.0, 100.0),
    (12, -1.0, 1.0, 100.0), (12, -6.0, 1.0, 100.0), (8, -2.7, 2.3, 5.0),
])
def test_bottom_eigenvalue_where_the_mass_spans_many_decades(d, alpha, D, R):
    # sector 0 at the default N, where B's diagonal spans 1e22 to 1e46 and
    # inverse iteration on the unscaled pencil stalled: on the pencil scaled
    # by the lumped mass it converges to eigenvalue 1, which the inertia of
    # A - mu B brackets to 1e-10 relative
    scale = math.sqrt(D)
    forms = N.assemble_sector_forms(N.build_grid(R * scale, 1600, d, scale=scale),
                                    alpha, D, 0)
    assert forms.b_diag.max() > 1e22 * forms.b_diag.min()
    lam, f = N.bottom_eigenvalue(forms)
    assert count_below(forms, lam * (1 - 1e-10)) == 1
    assert count_below(forms, lam * (1 + 1e-10)) == 2
    # the eigenvector is B-normalized in the original coordinates
    assert float(f @ forms.apply_b(f)) == pytest.approx(1.0, rel=1e-12)
    # and its quotient is lam on the scaled pencil (sAs, sBs) that the solve
    # runs on, in whose coordinates g = f/s the rounding of the quotient
    # stays far below the bound
    _, _, s, scaled = N._lumped_shift(forms)
    g = forms.restrict(f) / s
    quotient = float(g @ scaled.apply_a(g)) / float(g @ scaled.apply_b(g))
    assert quotient == pytest.approx(lam, rel=1e-12)


@pytest.mark.parametrize("d, alpha, R", [(3, -2.0, 1e40), (2, -0.5, 1e100),
                                         (5, -4.0, 1e40)])
def test_bottom_eigenvalue_stalls_or_keeps_its_index(d, alpha, R):
    # on coarse stretched domains the lumped shift lies so far below
    # eigenvalue k that inverse iteration stalls in some sectors: there it
    # must raise, and elsewhere return eigenvalue k and no other, which the
    # inertia of A - mu B brackets to 1e-9 relative
    grid = N.build_grid(R, 1600, d)
    for l in range(4):
        forms = N.assemble_sector_forms(grid, alpha, 1.0, l)
        k = 1 if l == 0 else 0
        try:
            lam, _ = N.bottom_eigenvalue(forms)
        except N.NonConvergenceError:
            continue
        assert count_below(forms, lam * (1 - 1e-9)) == k, l
        assert count_below(forms, lam * (1 + 1e-9)) == k + 1, l


def test_verify_constants_never_raises_in_high_dimensions():
    # every branch interior of d = 7..16, with D = 1 and 2.3, at fractions
    # drawn once from a fixed seed, on the default domains
    rng = np.random.default_rng(21)
    for d in range(7, 17):
        ends = _branch_ends(d)
        for lo, hi in zip(ends[:-1], ends[1:]):
            for D in (1.0, 2.3):
                alpha = lo + rng.uniform(0.1, 0.9) * (hi - lo)
                res = N.verify_constants(d, alpha, D=D, R_max=100.0 * math.sqrt(D))
                assert all(s.lambda_numeric > 0 for s in res.sectors), (d, alpha, D)


# ---------------------------------------------------------------------------
# the time schedule


def _reference_schedule(t0, t_end, dt, cadence):
    """_schedule as first written: its default cadence need not divide the
    run, and non-finite input fails with whatever error it meets."""
    if dt <= 0 or t_end <= t0:
        raise ValueError("need dt > 0 and t_end beyond the current time")
    span = t_end - t0
    if cadence is None:
        cadence = max(dt, span / 200.0)
        cadence = round(cadence / dt) * dt
    n_sub = int(round(cadence / dt))
    if n_sub < 1 or abs(n_sub * dt - cadence) > 1e-9 * cadence:
        raise ValueError(f"cadence {cadence} is not an integer multiple of dt {dt}")
    n_rec = int(round(span / cadence))
    if abs(n_rec * cadence - span) > 1e-9 * max(span, 1.0):
        raise ValueError(f"t_end - t = {span} is not an integer multiple of the "
                         f"cadence {cadence}")
    return cadence, n_sub, n_rec


# time steps written as decimals, as config files give them, or any float
_STEPS = st.one_of(
    st.builds(lambda m, e: m * 10.0**-e, st.integers(1, 99), st.integers(1, 6)),
    st.floats(1e-5, 1.0))
# relative offsets well inside, around and far beyond the tolerance 1e-9
_OFFSETS = st.sampled_from([0.0, 0.0, 0.0, 1e-12, -1e-12, 1e-10, -1e-10, 1e-9,
                            -1e-9, 2e-9, -2e-9, 1e-6, -1e-6, 0.3])


@st.composite
def _time_axes(draw):
    dt = draw(_STEPS)
    n = draw(st.integers(1, 20000))
    t0 = draw(st.sampled_from([0.0, 0.0, 0.0, 0.5, 7 * dt]))
    t_end = t0 + n * dt * (1.0 + draw(_OFFSETS))
    if draw(st.booleans()):
        t_end = float(f"{t_end:.6g}")  # as a config file would write it
    kind = draw(st.sampled_from(["default", "default", "steps", "any"]))
    if kind == "default":
        cadence = None
    elif kind == "steps":
        cadence = draw(st.integers(1, n)) * dt * (1.0 + draw(_OFFSETS))
    else:
        cadence = draw(st.floats(1e-6, 10.0))
    return t0, t_end, dt, cadence


@given(_time_axes())
@settings(max_examples=1500, deadline=None, derandomize=True)
def test_schedule_keeps_every_schedule_the_reference_accepts(axis):
    # wherever the reference returns a schedule, _schedule returns the same
    # bits; it adds only default schedules whose k0 did not divide the steps
    t0, t_end, dt, cadence = axis
    try:
        want = _reference_schedule(*axis)
    except ValueError:
        want = None
    try:
        got = S._schedule(*axis)
    except S.ScheduleError:
        assert want is None
        return
    if want is not None:
        assert got == want
        return
    assert cadence is None
    span = t_end - t0
    n = round(span / dt)
    k0 = round(max(dt, span / 200.0) / dt)
    cadence, n_sub, n_rec = got
    assert cadence == n_sub * dt and n_sub * n_rec == n and n % k0
    assert not any(n % k == 0 for k in range(n_sub + 1, k0))


def test_schedule_default_rows_on_common_pairs():
    # about 200 rows for each (t_end, dt) pair: where k0 = round(n/200) steps
    # per row divides the n steps the reference's schedule is kept; otherwise,
    # as for the README's (0.25, 2e-4) with k0 = 6 and n = 1250, the largest
    # divisor of n below k0 sets the rows
    added = []
    for t_end in (0.01, 0.02, 0.05, 0.1, 0.2, 0.25, 0.5, 1, 2, 5, 10, 20):
        for dt in (1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3):
            cadence, n_sub, n_rec = S._schedule(0.0, t_end, dt, None)
            n = round(t_end / dt)
            assert cadence == n_sub * dt and n_sub * n_rec == n
            assert min(n, 200) <= n_rec <= 250
            try:
                assert _reference_schedule(0.0, t_end, dt, None) == (cadence, n_sub,
                                                                      n_rec)
            except ValueError:
                added.append((t_end, dt, n_sub))
    assert len(added) == 6 and (0.25, 2e-4, 5) in added


@pytest.mark.parametrize("axis, parameter, msg", [
    ((0.0, 1.0, math.inf, None), "dt", "dt must be finite and positive, got inf"),
    ((0.0, 1.0, math.nan, None), "dt", "dt must be finite and positive, got nan"),
    ((0.0, 1.0, -1e-3, 0.1), "dt", "dt must be finite and positive, got -0.001"),
    ((0.0, math.inf, 1e-3, None), "t_end", "t_end must be finite and beyond the "
                                           "current time t = 0.0, got inf"),
    ((0.0, math.nan, 1e-3, None), "t_end", "got nan"),
    ((0.5, 0.5, 1e-3, None), "t_end", "current time t = 0.5, got 0.5"),
    ((0.0, 1.0, 1e-3, math.inf), "cadence", "cadence must be finite and positive"),
    ((0.0, 1.0, 1e-3, 0.0), "cadence", "cadence must be finite and positive"),
    ((0.0, 1.0, 1e-3, 0.0015), "cadence", "cadence 0.0015 is not an integer "
                                          "multiple of dt 0.001"),
    ((0.0, 0.25, 2e-4, 0.003), "cadence", "t_end - t = 0.25 is not an integer "
                                          "multiple of the cadence 0.003"),
    ((0.0, 0.0105, 1e-3, None), "dt", "t_end - t = 0.0105 is not an integer "
                                      "multiple of the time step dt = 0.001"),
    ((0.0, 0.0105, 1e-3, 0.005), "dt", "of the time step dt = 0.001"),
    ((0.0, 1e-12, 1e-3, None), "t_end", "t_end - t = 1e-12 holds no time step of "
                                        "dt = 0.001"),
    ((0.0, 1e-12, 1e-3, 1e-3), "t_end", "holds no time step"),
    ((0.0, 1e-12, 1e-13, 1e-3), "cadence", "t_end - t = 1e-12 is not an integer "
                                           "multiple of the cadence 0.001"),
])
def test_schedule_names_the_parameter_at_fault(axis, parameter, msg):
    with pytest.raises(S.ScheduleError) as err:
        S._schedule(*axis)
    assert err.value.parameter == parameter and msg in str(err.value)


def test_time_tol_is_relative_to_spans_beyond_one():
    assert S._time_tol(0.25) == 1e-9 and S._time_tol(200.0) == 1e-9 * 200.0
