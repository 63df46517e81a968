"""Tests for the implicit-step kernels: backend agreement and safety."""

import numpy as np
import pytest

import fdrates
import fdrates._kernels as K
import fdrates.numerics as N
from fdrates.exponents import derive_exponents


def _problem(d=5, n=300, R=15.0, m=0.9, D=1.0):
    g = N.build_grid(R, n, d)
    r = g.nodes
    Vm1 = D + r**2
    V = Vm1 ** (1.0 / (m - 1.0))
    w = N.cell_volumes(g)
    gs, h = N.face_geometry(g)
    x = 0.08 * np.exp(-r**2) + 0.02 * np.cos(r)
    return x, V, Vm1, w, gs, h, m


def test_backend_registry():
    names = K.available_backends()
    assert "pure" in names
    assert K.BACKEND in names
    assert callable(K.get_kernel("pure"))
    with pytest.raises(ValueError):
        K.get_kernel("gpu")
    # the package loads the backend and its submodules on first access
    assert fdrates.KERNEL_BACKEND == K.BACKEND
    from fdrates import flow
    assert fdrates.flow is flow
    with pytest.raises(AttributeError):
        fdrates.no_such_module


def test_pure_step_converges_and_conserves():
    x, V, Vm1, w, gs, h, m = _problem()
    step = K.get_kernel("pure")
    x_new, iters = step(x, V, Vm1, w, gs, h, m, 1e-3)
    assert x_new is not None and 1 <= iters <= 30
    assert np.all(1.0 + x_new > 0)
    # backward Euler conserves sum w V x (the truncated mass defect)
    assert float(np.sum(w * V * x_new)) == pytest.approx(
        float(np.sum(w * V * x)), abs=1e-15 + 1e-12 * abs(float(np.sum(w * V * x))))


@pytest.mark.skipif("compiled" not in K.available_backends(),
                    reason="compiled kernel not built")
def test_backends_agree():
    x, V, Vm1, w, gs, h, m = _problem()
    pure = K.get_kernel("pure")
    comp = K.get_kernel("compiled")
    for dt in (1e-4, 1e-3, 1e-2):
        xp, _ = pure(x, V, Vm1, w, gs, h, m, dt)
        xc, _ = comp(x, V, Vm1, w, gs, h, m, dt)
        assert xp is not None and xc is not None
        assert np.max(np.abs(xp - xc)) < 1e-12


@pytest.mark.skipif("compiled" not in K.available_backends(),
                    reason="compiled kernel not built")
def test_backends_agree_log_diffusion():
    # m = 0 exercises the expm1/log1p pressure branch (V = 1/(D+r^2))
    x, V, Vm1, w, gs, h, _ = _problem(d=3, m=0.0)
    assert float(derive_exponents(3, 0.0).alpha) == -1.0
    xp, _ = K.get_kernel("pure")(x, V, Vm1, w, gs, h, 0.0, 5e-4)
    xc, _ = K.get_kernel("compiled")(x, V, Vm1, w, gs, h, 0.0, 5e-4)
    assert xp is not None and np.max(np.abs(xp - xc)) < 1e-12


def test_step_determinism():
    x, V, Vm1, w, gs, h, m = _problem()
    step = K.get_kernel(K.BACKEND)
    a, _ = step(x, V, Vm1, w, gs, h, m, 1e-3)
    b, _ = step(x, V, Vm1, w, gs, h, m, 1e-3)
    assert np.array_equal(a, b)


def test_huge_step_reports_failure_not_garbage():
    # an absurd time step must either converge or return None, never a
    # positivity-violating state
    x, V, Vm1, w, gs, h, m = _problem(m=0.3)
    step = K.get_kernel(K.BACKEND)
    x_new, _ = step(5.0 * x, V, Vm1, w, gs, h, m, 1e6)
    assert x_new is None or np.all(1.0 + x_new > 0)


def test_non_finite_input_raises():
    # the pure kernel skips scipy's own finiteness check and makes its own
    x, V, Vm1, w, gs, h, m = _problem()
    x[7] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        K.get_kernel("pure")(x, V, Vm1, w, gs, h, m, 1e-3)
