"""Tests for exponent/threshold derivation and the closed-form constants."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdrates.exponents import (Regime, alpha_to_m, derive_exponents,
                               lambda_continuum, sharp_rate)
from fdrates.spectral import discrete_mode, improved_constant, spectrum_report


def test_d5_m09_table():
    e = derive_exponents(5, 0.9)
    assert e.alpha == pytest.approx(-10.0, rel=1e-14)
    assert float(e.m_c) == pytest.approx(0.6)
    assert float(e.m_star) == pytest.approx(1 / 3)
    assert float(e.m_1) == pytest.approx(0.8)
    assert float(e.m_2) == pytest.approx(5 / 7)
    assert float(e.alpha_star) == -1.5
    assert float(e.alpha_1) == -5.0
    assert float(e.alpha_2) == -3.5
    assert e.regime is Regime.GOOD


def test_d2_m0_sentinels():
    e = derive_exponents(2, 0)
    assert e.alpha == -1
    assert e.m_c == 0
    assert e.m_star == -math.inf
    assert e.alpha_star == 0
    assert e.m_1 == e.m_2 == Fraction(1, 2)
    assert e.log_limit


def test_critical_classification():
    e = derive_exponents(5, Fraction(1, 3))
    assert e.regime is Regime.CRITICAL
    # float input detected to 1e-12 relative tolerance
    assert derive_exponents(5, 1 / 3).regime is Regime.CRITICAL
    assert derive_exponents(5, 1 / 3 + 1e-9).regime is not Regime.CRITICAL


def test_rejections():
    with pytest.raises(ValueError):
        derive_exponents(5, 1.2)
    with pytest.raises(ValueError):
        derive_exponents(0, 0.5)
    with pytest.raises(ValueError):
        alpha_to_m(5, 0.5)


def test_alpha_to_m_examples():
    assert alpha_to_m(5, -10) == Fraction(9, 10)
    assert alpha_to_m(5, -1) == 0
    assert alpha_to_m(5, Fraction(-7, 2)) == Fraction(5, 7)  # = m_2


@given(d=st.integers(1, 10),
       m=st.floats(-3.0, 0.999, allow_nan=False, allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_threshold_identities(d, m):
    e = derive_exponents(d, m)
    assert float(e.alpha) < 0
    if d >= 3:
        assert float(e.m_star) < float(e.m_c) < float(e.m_2) < float(e.m_1) < 1
    # threshold images under m -> 1/(m-1)
    assert 1 / (float(e.m_c) - 1) == pytest.approx(-d / 2)
    assert 1 / (float(e.m_1) - 1) == pytest.approx(-d)
    assert 1 / (float(e.m_2) - 1) == pytest.approx(-(d + 2) / 2)
    if d >= 3:
        assert 1 / (float(e.m_star) - 1) == pytest.approx(-(d - 2) / 2)
    # round trip
    assert float(alpha_to_m(d, e.alpha)) == pytest.approx(m, rel=1e-13, abs=1e-13)


def _sharp_rate_reference(d, a):
    """Lambda(alpha, d) written out branch by branch, with d = 2 on its own."""
    if d == 1:
        return (a - Fraction(1, 2)) ** 2 if a >= Fraction(-1, 2) else -2 * a
    if d == 2:
        return a * a if a >= -2 else -2 * a
    if a == Fraction(-(d - 2), 2):
        raise ValueError(f"alpha = -(d-2)/2 = {Fraction(-(d - 2), 2)} is excluded: "
                         f"the spectral gap closes")
    if a > -Fraction(d + 2, 2):
        return (d - 2 + 2 * a) ** 2 / 4
    if a >= -d:
        return -4 * a - 2 * d
    return -2 * a


def test_sharp_rate_branches():
    assert sharp_rate(5, -1) == Fraction(1, 4)
    assert sharp_rate(5, -4) == 6
    assert sharp_rate(5, -6) == 12
    assert sharp_rate(4, -3) == 4
    assert sharp_rate(3, -2) == Fraction(9, 4)
    assert sharp_rate(2, -3) == 6
    assert sharp_rate(2, -1) == 1
    assert sharp_rate(1, -2) == 4
    assert sharp_rate(1, -0.25) == pytest.approx(0.5625)
    # every branch point, alpha_star among them, and the points between,
    # for d = 1..12: a Fraction gives the reference's Fraction or its
    # refusal, a float is within 2 ulp of the reference's float
    for d in range(1, 13):
        cuts = sorted({c for iv in _branch_intervals(d) for c in iv})
        mids = [(lo + hi) / 2 for lo, hi in zip(cuts, cuts[1:])]
        for a in [c for c in cuts + mids + [Fraction(-4 * d - 1)] if c < 0]:
            try:
                want = _sharp_rate_reference(d, a)
            except ValueError as e:
                with pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
                    sharp_rate(d, a)
                continue
            got = sharp_rate(d, a)
            assert got == want and type(got) is Fraction, (d, a)
            got, want = sharp_rate(d, float(a)), _sharp_rate_reference(d, float(a))
            assert abs(got - want) <= 2 * math.ulp(want), (d, a)


def test_sharp_rate_branch_continuity():
    # value agrees across both interior branch points for each d
    for d in (3, 4, 5, 8):
        a2 = -(d + 2) / 2
        a1 = -float(d)
        for a in (a2, a1):
            left = sharp_rate(d, a - 1e-9)
            right = sharp_rate(d, a + 1e-9)
            assert left == pytest.approx(right, rel=1e-6)
    assert sharp_rate(2, -2 - 1e-9) == pytest.approx(sharp_rate(2, -2 + 1e-9), rel=1e-6)
    assert sharp_rate(1, -0.5 - 1e-9) == pytest.approx(sharp_rate(1, -0.5 + 1e-9), rel=1e-6)


def test_sharp_rate_rejects_gap_closure():
    with pytest.raises(ValueError):
        sharp_rate(5, Fraction(-3, 2))
    with pytest.raises(ValueError):
        sharp_rate(5, 1.0)
    # no dimension below one, where a value would be returned for nothing
    with pytest.raises(ValueError, match="dimension must be a positive integer, got 0"):
        sharp_rate(0, -1)


def test_lambda_continuum():
    assert lambda_continuum(5, -4) == Fraction(25, 4)
    assert lambda_continuum(5, Fraction(-3, 2)) == 0
    assert lambda_continuum(2, -3) == 9
    # a float alpha within 1e-6 of alpha_star, where d - 2 + 2 alpha is small:
    # within 4e-16 of the exact square of that float
    for d in range(1, 13):
        for delta in (1e-6, 3.7e-7, 1e-9, 2.5e-12, 1e-15):
            for a in ((2 - d) / 2 + delta, (2 - d) / 2 - delta):
                exact = (d - 2 + 2 * Fraction(a)) ** 2 / 4
                err = abs(Fraction(lambda_continuum(d, a)) - exact) / exact
                assert err <= 4e-16, (d, a, float(err))


def _branch_intervals(d):
    """Open intervals of alpha on which each closed form has one analytic
    expression: the sharp-rate branches (the last one cut at -4d), split at
    alpha_star, -d/2 and -(d+2)/2 where the exponents and the improved
    constant change form."""
    cuts = {Fraction(0), Fraction(-d, 2), Fraction(-(d + 2), 2), Fraction(-d),
            Fraction(-4 * d), Fraction(-1, 2)}
    if d >= 3:
        cuts.add(Fraction(-(d - 2), 2))
    pts = sorted(cuts)
    return list(zip(pts[:-1], pts[1:]))


def _agree(exact, approx):
    assert isinstance(exact, Fraction), exact
    assert isinstance(approx, float), approx
    assert abs(float(exact) - approx) <= 1e-12 * max(1.0, abs(float(exact)))


def test_closed_forms_exact_and_float_agree():
    # every branch interior for d = 1..12 (the cuts alpha_star and -d/2,
    # where the gap closes and m = m_c, are never sampled): Fraction in gives
    # Fraction out, float in gives float out, and the two agree
    rng = random.Random(20261017)
    for d in range(1, 13):
        for lo, hi in _branch_intervals(d):
            for _ in range(4):
                q = rng.randint(2, 200)
                a = lo + (hi - lo) * Fraction(rng.randint(1, q - 1), q)
                af = float(a)
                _agree(sharp_rate(d, a), sharp_rate(d, af))
                _agree(lambda_continuum(d, a), lambda_continuum(d, af))
                m = alpha_to_m(d, a)
                _agree(m, alpha_to_m(d, af))
                ex, fl = derive_exponents(d, m), derive_exponents(d, float(m))
                for name in ("m", "alpha", "m_c", "m_1", "m_2", "alpha_star",
                             "alpha_1", "alpha_2") + (("m_star",) if d > 2 else ()):
                    _agree(getattr(ex, name), getattr(fl, name))
                assert ex.regime is fl.regime
                for l in range(3):
                    for k in range(3):
                        me, mf = discrete_mode(d, a, l, k), discrete_mode(d, af, l, k)
                        _agree(me.lam, mf.lam)
                        for ce, cf in zip(me.radial_poly, mf.radial_poly):
                            _agree(ce, cf)
                        assert me.admissible == mf.admissible
                        if abs(float(me.lam - lambda_continuum(d, a))) > 1e-9:
                            assert me.below_continuum == mf.below_continuum
                if d >= 2 and a < Fraction(-d, 2):
                    ie, i_f = improved_constant(d, a), improved_constant(d, af)
                    _agree(ie.value, i_f.value)
                    assert ie.discrepancy_flag == i_f.discrepancy_flag
                re_, rf = spectrum_report(d, a, 1, 1), spectrum_report(d, af, 1, 1)
                _agree(re_.sharp_constant, rf.sharp_constant)
                _agree(re_.continuum_bottom, rf.continuum_bottom)
                assert re_.gap_source == rf.gap_source
