"""The records' contract: typed NamedTuples that check their fields when
built, refuse assignment, and keep their arrays out of repr; the two flow
states are plain classes that the flow assigns."""

import re
from fractions import Fraction

import numpy as np
import pytest

import fdrates.entropy as ent
import fdrates.numerics as num
import fdrates.spectral as spec
from fdrates.exponents import ExponentSet, derive_exponents
from fdrates.flow import LinearState, NonlinearState
from fdrates.profiles import Profile
from fdrates.scalar import RescalingMap

E59 = derive_exponents(5, Fraction(9, 10))


def _exactly(message):
    return f"^{re.escape(message)}$"


def test_checked_records_refuse_bad_fields_built_directly():
    fields = E59._asdict()
    cases = [
        (ExponentSet, dict(fields, d=0), "dimension must be a positive integer, got 0"),
        (ExponentSet, dict(fields, m=1), "fast diffusion requires m < 1, got m = 1"),
        (num.RadialGrid, dict(nodes=np.array([0.0, 2.0, 1.0]), d=5),
         "grid nodes must start at 0 and increase strictly"),
        (num.RadialGrid, dict(nodes=np.array([0.5, 1.0]), d=5),
         "grid nodes must start at 0 and increase strictly"),
        (Profile, dict(exponents=E59, D=0.0), "D must be positive, got 0.0"),
        (RescalingMap, dict(exponents=E59, T=-1.0),
         "time origin T must be nonnegative, got -1.0"),
    ]
    for cls, kwargs, message in cases:
        # by keyword and by position alike
        with pytest.raises(ValueError, match=_exactly(message)):
            cls(**kwargs)
        with pytest.raises(ValueError, match=_exactly(message)):
            cls(*kwargs.values())
    # valid fields build the same record either way, with the defaults
    assert ExponentSet(**fields) == E59 == ExponentSet(*E59)
    assert RescalingMap(E59) == RescalingMap(exponents=E59, T=1.0)
    assert type(Profile(E59, 2.0)._replace(D=3.0)) is Profile


def _records():
    """One instance of each frozen record."""
    grid = num.build_grid(10.0, 64, 5)
    p = Profile(exponents=E59, D=1.0)
    wts = ent.Weights.of(grid, p)
    x = 0.01 * np.exp(-grid.nodes**2)
    t = np.linspace(0.0, 1.0, 21)
    trace = ent.EntropyTrace(t=t, entropy=np.exp(-t), fisher=t, h1=t, h2=t,
                             mass_defect=t)
    verification = num.verify_constants(5, -4, l_max=1, R_max=10.0, N=64)
    return [E59, grid, p, RescalingMap(E59), wts,
            num.assemble_sector_forms(grid, E59.alpha, 1.0, 1),
            ent.sandwich_from_x(x, wts), ent.fit_rate(trace, (0.0, 1.0)), trace,
            spec.discrete_mode(5, -10, 0, 1), spec.improved_constant(5, -10),
            spec.spectrum_report(5, -10), verification.sectors[0], verification]


def test_frozen_records_refuse_assignment():
    records = _records()
    assert len({type(r) for r in records}) == 14
    for rec in records:
        assert isinstance(rec, tuple)
        for name in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, getattr(rec, name))
    trace = records[8]
    assert ent.EntropyTrace(*trace[:6]) == trace and trace.sandwich == ()


def test_flow_states_take_keywords_and_stay_assignable():
    grid = num.build_grid(10.0, 64, 5)
    f = grid.nodes * np.exp(-grid.nodes**2)
    lin = LinearState(grid=grid, alpha=-10.0, D=1.0, l=1, f=f)
    assert ((lin.grid, lin.alpha, lin.D, lin.l, lin.f, lin.t)
            == (grid, -10.0, 1.0, 1, f, 0.0))
    assert LinearState(grid, -10.0, 1.0, 1, f, 0.5).t == 0.5
    lin.f, lin.t = 2.0 * f, 0.25
    assert lin.t == 0.25 and np.array_equal(lin.f, 2.0 * f)

    p = Profile(exponents=E59, D=1.0)
    x = np.zeros_like(grid.nodes)
    st = NonlinearState(grid=grid, profile=p, x=x)
    assert (st.grid, st.profile, st.x, st.t) == (grid, p, x, 0.0)
    assert NonlinearState(grid, p, x, 0.5).t == 0.5
    st.x, st.t = x + 0.1, 1.0
    assert st.t == 1.0 and np.all(st.x == 0.1)


def test_weights_and_sector_forms_keep_their_arrays_out_of_repr():
    grid = num.build_grid(10.0, 64, 5)
    p = Profile(exponents=E59, D=1.0)
    wts = ent.Weights.of(grid, p)
    assert repr(wts) == f"Weights(profile={p!r}, m={wts.m!r}, sd={wts.sd!r})"
    assert "array" not in repr(wts)
    forms = num.assemble_sector_forms(grid, E59.alpha, 1.0, 1)
    assert repr(forms) == f"SectorForms(grid={grid!r}, l=1)"
    # the grid shows its nodes; the four diagonals stay out
    assert "array" not in repr(forms).replace(repr(grid), "")
