"""Tests for the closed-form discrete spectrum and eigenfunctions."""

import random
from fractions import Fraction

import numpy as np
import pytest

import fdrates.numerics as N
import fdrates.spectral as spec
from fdrates.spectral import (discrete_mode, improved_constant, mode_field,
                              multiplicity, ode_residual, spectrum_report)


def test_mode_values_d5():
    a = Fraction(-10)
    m10 = discrete_mode(5, a, 1, 0)
    assert m10.lam == 20 and m10.admissible and m10.below_continuum
    assert m10.radial_poly == (Fraction(1),)
    assert m10.multiplicity == 5
    m01 = discrete_mode(5, a, 0, 1)
    assert m01.lam == 40 - 4 * Fraction(5, 2)  # -4*alpha - 2d = 30
    assert m01.admissible
    # dilation mode: 1 + (2*alpha + d)/d * r^2
    assert m01.radial_poly == (Fraction(1), Fraction(2 * (-10) + 5, 5))
    assert discrete_mode(5, a, 0, 0).admissible is False


def test_admissibility_cutoff():
    # d = 5, alpha = -4: admissible iff l + 2k - 1 < 3/2, i.e. l + 2k <= 2
    a = Fraction(-4)
    assert discrete_mode(5, a, 1, 0).admissible
    assert discrete_mode(5, a, 2, 0).admissible
    assert discrete_mode(5, a, 0, 1).admissible
    assert not discrete_mode(5, a, 3, 0).admissible
    assert not discrete_mode(5, a, 1, 1).admissible


def test_d1_ladder():
    # d = 1: lambda_n = n(1 - 2*alpha - n) for n = l + 2k, 1 <= n <= 1/2 - alpha
    a = Fraction(-5)
    for l, k in ((1, 0), (0, 1), (1, 1), (0, 2)):
        mode = discrete_mode(1, a, l, k)
        n = l + 2 * k
        assert mode.lam == n * (1 - 2 * a - n)
        assert mode.admissible
    assert not discrete_mode(1, a, 2, 0).admissible  # parity l <= 1 only
    assert not discrete_mode(1, a, 1, 3).admissible  # n = 7 > 1/2 + 5


def test_multiplicities():
    assert [multiplicity(3, l) for l in range(6)] == [2 * l + 1 for l in range(6)]
    assert multiplicity(2, 0) == 1
    assert [multiplicity(2, l) for l in (1, 2, 3)] == [2, 2, 2]
    assert multiplicity(5, 1) == 5
    assert multiplicity(5, 2) == 14
    assert multiplicity(1, 1) == 1 and multiplicity(1, 2) == 0
    with pytest.raises(ValueError):
        multiplicity(3, -1)


def test_continuum_dilation_identity_random_rationals():
    # lambda_cont - lambda_(0,1) = (alpha + (d+2)/2)^2 exactly, 100 samples
    rng = random.Random(20260826)
    for _ in range(100):
        d = rng.randint(2, 12)
        alpha = Fraction(-rng.randint(d + 3, 400), rng.randint(1, 9))
        if alpha >= Fraction(-(d + 2), 2):
            alpha -= Fraction(d + 2, 2)
        rep = spectrum_report(d, alpha, l_max=1, k_max=1)
        lam01 = discrete_mode(d, alpha, 0, 1).lam
        assert rep.continuum_bottom - lam01 == (alpha + Fraction(d + 2, 2)) ** 2


def test_gap_source_switches():
    # alpha just above -(d+2)/2: gap at the continuum
    rep = spectrum_report(5, Fraction(-3), l_max=3, k_max=3)
    assert rep.gap_source == ("continuum",)
    # -d <= alpha < -(d+2)/2: dilation mode (0,1), below the translation mode
    rep = spectrum_report(5, Fraction(-4), l_max=3, k_max=3)
    assert rep.gap_source == ("mode", 0, 1)
    assert float(rep.sharp_constant) == 6.0
    assert discrete_mode(5, Fraction(-4), 1, 0).lam == 8  # strictly above
    # alpha < -d: still the translation mode, at -2*alpha
    rep = spectrum_report(5, Fraction(-10), l_max=3, k_max=3)
    assert rep.gap_source == ("mode", 1, 0)
    assert rep.sharp_constant == 20
    assert rep.constraint_needed
    # the mean-zero constraint is needed iff dmu_(alpha-1) has finite mass,
    # 2(alpha-1) + d < 0, i.e. iff alpha < alpha_star = -3/2
    assert not spectrum_report(5, Fraction(-1), l_max=3, k_max=3).constraint_needed


def test_report_and_mode_rejections():
    # refused with the parameter named, not a ZeroDivisionError or an empty
    # table with a wrong gap source
    with pytest.raises(ValueError, match="dimension must be a positive integer, got 0"):
        spectrum_report(0, Fraction(-1))
    with pytest.raises(ValueError, match="dimension must be a positive integer, got 0"):
        discrete_mode(0, Fraction(-1), 0, 1)
    with pytest.raises(ValueError, match="l_max must be >= 0, got -1"):
        spectrum_report(5, Fraction(-10), l_max=-1)
    with pytest.raises(ValueError, match="k_max must be >= 0, got -1"):
        spectrum_report(5, Fraction(-10), k_max=-1)
    # the smallest table, one mode, is still a report
    assert len(spectrum_report(5, Fraction(-10), l_max=0, k_max=0).modes) == 1


def test_gap_source_is_the_sharp_rate_for_every_table_size():
    # the gap lies at the continuum, (1, 0) or (0, 1), whether the table
    # holds them or not: the gap source's eigenvalue is the sharp rate
    from fdrates.exponents import sharp_rate

    rng = random.Random(20261019)
    for _ in range(60):
        d = rng.randint(1, 8)
        alpha = Fraction(-rng.randint(1, 80), 4)
        if d >= 3 and alpha == Fraction(-(d - 2), 2):
            continue  # the gap closes at alpha_star
        for l_max, k_max in ((0, 0), (0, 3), (3, 0), (1, 1), (3, 3)):
            rep = spectrum_report(d, alpha, l_max, k_max)
            source = rep.gap_source
            lam = (rep.continuum_bottom if source == ("continuum",)
                   else discrete_mode(d, alpha, *source[1:]).lam)
            assert lam == sharp_rate(d, alpha), (d, alpha, l_max, k_max, source)
            assert len(rep.modes) == (l_max + 1) * (k_max + 1)


def test_report_cross_check_runs_near_branch_points():
    # dense sweep across both branch boundaries; the internal consistency
    # check between the mode table and the closed form must never raise
    for num in range(20, 130, 3):
        alpha = Fraction(-num, 10)
        if alpha == Fraction(-3, 2):
            continue
        spectrum_report(5, alpha, l_max=4, k_max=4)


def test_improved_constant():
    ic = improved_constant(5, Fraction(-10))
    assert ic.value == 30 and not ic.discrepancy_flag
    ic = improved_constant(5, Fraction(-4))
    assert ic.value == Fraction(25, 4) and ic.discrepancy_flag
    assert float(ic) == 6.25
    # int input is exact: -4 alpha - 2d below -d, the continuum bottom above
    assert improved_constant(5, -6).value == 14
    assert improved_constant(5, -4).value == Fraction(25, 4)
    assert improved_constant(5, -6.0).value == 14.0
    with pytest.raises(ValueError):
        improved_constant(5, -2)
    with pytest.raises(ValueError):
        improved_constant(5, Fraction(-2))
    with pytest.raises(ValueError):
        improved_constant(1, Fraction(-3))
    # every branch point below -d/2 and the points between, d = 2..12, give
    # the Fractions of the formula written out
    for d in range(2, 13):
        cuts = [Fraction(-d - 1, 2), Fraction(-(d + 2), 2), Fraction(-d), Fraction(-4 * d)]
        for a in cuts + [(lo + hi) / 2 for lo, hi in zip(cuts, cuts[1:])]:
            ic = improved_constant(d, a)
            want = -4 * a - 2 * d if a < -d else (d - 2 + 2 * a) ** 2 / 4
            assert ic.value == want and type(ic.value) is Fraction, (d, a)
            assert ic.discrepancy_flag == (-d < a < -Fraction(d + 2, 2)), (d, a)


def test_mode_field_matches_polynomial():
    grid = N.build_grid(10.0, 100, 5)
    mode = discrete_mode(5, Fraction(-10), 0, 1)
    f = mode_field(mode, grid)
    r = grid.nodes
    assert np.allclose(f, 1.0 - 3.0 * r**2, rtol=1e-14, atol=1e-14)


def test_ode_residual_exact_modes():
    # residuals at 50 radii in exact rational arithmetic: exactly zero
    for (d, a, l, k) in ((5, Fraction(-10), 0, 1), (5, Fraction(-10), 2, 2),
                         (3, Fraction(-7, 2), 1, 1), (2, Fraction(-5), 0, 2),
                         (1, Fraction(-3), 1, 1)):
        assert ode_residual(d, a, l, k) == 0.0
    # every admissible mode with l, k <= 4 at (5, -20)
    modes = [(l, k) for l in range(5) for k in range(5)
             if discrete_mode(5, -20, l, k).admissible]
    assert len(modes) >= 20
    assert all(ode_residual(5, -20, l, k) == 0.0 for l, k in modes)


def test_ode_residual_detects_wrong_eigenvalue(monkeypatch):
    # the residual is not trivially 0: the right polynomial with an
    # eigenvalue off by 1e-6 leaves a residual
    assert ode_residual(5, Fraction(-10), 0, 1) == 0.0
    with pytest.raises(ValueError):
        ode_residual(5, -10.0 + 1e-13, 0, 1)  # irrational alpha rejected
    true_mode = spec.discrete_mode

    def shifted(*args):
        mode = true_mode(*args)
        return mode._replace(lam=mode.lam + Fraction(1, 10**6))

    monkeypatch.setattr(spec, "discrete_mode", shifted)
    assert ode_residual(5, Fraction(-10), 0, 1) > 0.0


def test_rayleigh_consistency_with_fem():
    # analytic eigenfunction's P1 Rayleigh quotient reproduces the eigenvalue
    d, a = 5, Fraction(-10)
    grid = N.build_grid(30.0, 800, d)
    for (l, k) in ((1, 0), (0, 1), (2, 0)):
        mode = discrete_mode(d, a, l, k)
        forms = N.assemble_sector_forms(grid, float(a), 1.0, l)
        q = N.rayleigh_quotient(mode_field(mode, grid), forms)
        assert q == pytest.approx(float(mode.lam), rel=5e-4)
