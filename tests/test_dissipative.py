"""Staggered half-steps via cell-local space-time expansion."""

import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial as P

from hermwave.boundary import BoundarySpec, BoundarySpec2D, pair_sources
from hermwave.diagnostics import dissipative_energy
from hermwave.dissipative import (
    SchemeConfig,
    eval_series,
    expand_taylor,
    half_step_1d,
    half_step_2d,
)
from hermwave.grid import DUAL, PRIMAL, Field1D, Field2D, FieldPair, Grid1D, Grid2D, flip


def test_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(m=0)
    with pytest.raises(ValueError):
        SchemeConfig(m=2, lam=0.0)
    with pytest.raises(ValueError):
        SchemeConfig(m=2, lam=1.2)
    with pytest.raises(ValueError):
        SchemeConfig(m=2, speed=-1.0)
    cfg = SchemeConfig(m=3, lam=1.0)
    assert cfg.stages_1d() == 6
    assert cfg.stages_2d() == 16
    assert cfg.dt(0.25) == pytest.approx(0.25)


def test_constant_state_is_steady():
    cu = np.array([[4.0, 0.0, 0.0, 0.0]])
    cv = np.array([[0.0, 0.0]])
    CU, CV = expand_taylor(cu, cv, 0.3, 0.5, 1.0, 4)
    assert np.all(CU[..., 1:] == 0.0)
    assert np.all(CV[..., 1:] == 0.0)


def test_constant_velocity_advances_value():
    # u_t = v: only c_{0,1} = dt * d0 appears
    cu = np.zeros((1, 4))
    cv = np.array([[2.5, 0.0]])
    CU, CV = expand_taylor(cu, cv, 0.3, 0.5, 1.0, 4)
    want = np.zeros((1, 4, 5))
    want[0, 0, 1] = 0.3 * 2.5
    np.testing.assert_allclose(CU, want, atol=1e-15)
    assert np.all(CV[..., 1:] == 0.0)


def test_quadratic_space_time_table():
    # u = xi**2, h = c = 1: v picks up 2*dt, u the dt**2 echo
    dt = 0.17
    cu = np.zeros((1, 4))
    cu[0, 2] = 1.0
    cv = np.zeros((1, 2))
    CU, CV = expand_taylor(cu, cv, dt, 1.0, 1.0, 4)
    assert CV[0, 0, 1] == pytest.approx(2 * dt)
    assert CU[0, 0, 2] == pytest.approx(dt * dt)
    # center value after a half step matches u = x**2 + t**2
    val = eval_series(CU[0, 0], 0.5)
    assert val == pytest.approx((dt / 2) ** 2, rel=1e-13)


def test_eval_series_matches_polyval():
    rng = np.random.default_rng(14)
    table = rng.standard_normal((3, 4, 6))
    theta = 0.37
    want = np.polynomial.polynomial.polyval(theta, np.moveaxis(table, -1, 0))
    np.testing.assert_allclose(eval_series(table, theta), want, rtol=1e-13)


def test_eval_at_zero_returns_initial_column():
    rng = np.random.default_rng(15)
    table = rng.standard_normal((5, 7))
    assert np.array_equal(eval_series(table, 0.0), table[..., 0])


def test_stage_count_is_sufficient():
    """Extra stages beyond 2m contribute nothing for cell-degree data."""
    rng = np.random.default_rng(16)
    for m in (1, 2, 3):
        cu = rng.standard_normal((4, 2 * m + 2))
        cv = rng.standard_normal((4, 2 * m))
        a = expand_taylor(cu, cv, 0.08, 0.1, 1.0, 2 * m)
        b = expand_taylor(cu, cv, 0.08, 0.1, 1.0, 2 * m + 6)
        for lo, hi in zip(a, b):
            lo_v = eval_series(lo, 0.5)
            hi_v = eval_series(hi, 0.5)
            np.testing.assert_allclose(lo_v, hi_v, rtol=1e-13, atol=1e-14)


def _random_pair(grid, m, rng, parity=PRIMAL):
    nu = grid.n_nodes(parity)
    u = Field1D(grid, parity, 0.0, rng.standard_normal((nu, m + 1)))
    v = Field1D(grid, parity, 0.0, rng.standard_normal((nu, m)))
    return FieldPair(u, v)


def test_half_step_zero_stays_zero():
    grid = Grid1D(0.0, 1.0, 5, periodic=True)
    u = Field1D(grid, PRIMAL, 0.0, np.zeros((5, 3)))
    v = Field1D(grid, PRIMAL, 0.0, np.zeros((5, 2)))
    cfg = SchemeConfig(m=2, lam=0.9)
    out = half_step_1d(FieldPair(u, v), cfg, BoundarySpec())
    assert np.all(out.u.values == 0.0)
    assert np.all(out.v.values == 0.0)
    assert out.parity == DUAL
    assert out.time == pytest.approx(0.5 * cfg.dt(grid.h))


def test_half_step_order_mismatch():
    grid = Grid1D(0.0, 1.0, 5, periodic=True)
    rng = np.random.default_rng(17)
    pair = _random_pair(grid, 2, rng)
    with pytest.raises(ValueError):
        half_step_1d(pair, SchemeConfig(m=3), BoundarySpec())


def _dalembert_coeffs(udata, vdata, lam, speed, h, m):
    """Exact half-step center data from the flanking interpolants.

    Shift/average the cell interpolants per the closed-form solution of
    u_tt = c^2 u_xx; in the scaled variable the half step moves by lam/2.
    The velocity integral picks up h/(2c), the velocity update c/(2h).
    """
    from hermwave.interp import apply_interp

    a = apply_interp(udata)  # degree 2m+1 in xi
    b = apply_interp(vdata)  # degree 2m-1
    s0 = 0.5 * lam
    p = P(a)
    q = P(b)
    plus = P([s0, 1.0])
    minus = P([-s0, 1.0])
    qint = q.integ()
    u_sol = 0.5 * (p(plus) + p(minus)) + (h / (2.0 * speed)) * (
        qint(plus) - qint(minus)
    )
    dp = p.deriv()
    v_sol = (speed / (2.0 * h)) * (dp(plus) - dp(minus)) + 0.5 * (q(plus) + q(minus))
    return u_sol.coef[: m + 1], v_sol.coef[:m]


@pytest.mark.parametrize("m,lam", [(1, 0.8), (2, 1.0), (3, 0.6)])
def test_half_step_matches_closed_form(m, lam):
    """Every target's new data equals the exact evolution of its cell pair."""
    rng = np.random.default_rng(50 + m)
    grid = Grid1D(-1.0, 1.0, 6, periodic=True)
    cfg = SchemeConfig(m=m, lam=lam, speed=2.0)
    pair = _random_pair(grid, m, rng)
    bc = BoundarySpec()
    out = half_step_1d(pair, cfg, bc)
    udata, _ = pair_sources(pair.u, bc)
    vdata, _ = pair_sources(pair.v, bc)
    for i in range(udata.shape[0]):
        uref, vref = _dalembert_coeffs(udata[i], vdata[i], lam, cfg.speed, grid.h, m)
        np.testing.assert_allclose(out.u.values[i], uref, rtol=1e-11, atol=1e-12)
        np.testing.assert_allclose(out.v.values[i], vref, rtol=1e-11, atol=1e-12)


def test_half_step_v_scaling_convention():
    # the closed form above fixes h-scaling; pin it once more with numbers:
    # u = sin(x), v = -cos(x) translates: u(x, t) = sin(x - t)
    m, lam, h = 3, 1.0, 0.1
    n = int(round(2 * math.pi / h))
    grid = Grid1D(0.0, 2 * math.pi, n, periodic=True)
    cfg = SchemeConfig(m=m, lam=lam)
    xs = grid.nodes(PRIMAL)
    uvals = np.stack(
        [np.sin(xs + l * math.pi / 2) * grid.h**l / math.factorial(l) for l in range(m + 1)],
        axis=-1,
    )
    vvals = np.stack(
        [-np.cos(xs + l * math.pi / 2) * grid.h**l / math.factorial(l) for l in range(m)],
        axis=-1,
    )
    pair = FieldPair(
        Field1D(grid, PRIMAL, 0.0, uvals), Field1D(grid, PRIMAL, 0.0, vvals)
    )
    bc = BoundarySpec()
    for _ in range(2):
        pair = half_step_1d(pair, cfg, bc)
    t = pair.time
    xs2 = grid.nodes(pair.parity)
    want = np.sin(xs2 - t)
    np.testing.assert_allclose(pair.u.values[:, 0], want, atol=1e-10)


def test_energy_never_increases():
    rng = np.random.default_rng(18)
    m = 2
    n = 12
    grid = Grid1D(0.0, 2 * math.pi, n, periodic=True)
    cfg = SchemeConfig(m=m, lam=0.95)
    xs = grid.nodes(PRIMAL)
    # random smooth field: few low harmonics with exact derivative data
    amps = rng.standard_normal((2, 3))
    phs = rng.uniform(0, 2 * math.pi, (2, 3))

    def derivs(x, count, which):
        out = np.zeros((len(x), count))
        for l in range(count):
            acc = np.zeros_like(x)
            for k in range(1, 4):
                acc += (
                    amps[which, k - 1]
                    * k**l
                    * np.sin(k * x + phs[which, k - 1] + l * math.pi / 2)
                )
            out[:, l] = acc * grid.h**l / math.factorial(l)
        return out

    pair = FieldPair(
        Field1D(grid, PRIMAL, 0.0, derivs(xs, m + 1, 0)),
        Field1D(grid, PRIMAL, 0.0, derivs(xs, m, 1)),
    )
    bc = BoundarySpec()
    e = dissipative_energy(pair, cfg.speed, bc)
    for _ in range(100):
        pair = half_step_1d(pair, cfg, bc)
        e_new = dissipative_energy(pair, cfg.speed, bc)
        assert e_new <= e * (1.0 + 1e-12)
        e = e_new


def test_2d_constant_is_steady():
    grid = Grid2D(0.0, 1.0, 0.0, 1.0, 4, 4, periodic=True)
    m = 2
    u = np.zeros((4, 4, m + 1, m + 1))
    u[..., 0, 0] = 3.0
    pair = FieldPair(
        Field2D(grid, PRIMAL, 0.0, u),
        Field2D(grid, PRIMAL, 0.0, np.zeros((4, 4, m, m))),
    )
    out = half_step_2d(pair, SchemeConfig(m=m, lam=0.9), BoundarySpec2D())
    want = np.zeros_like(u)
    want[..., 0, 0] = 3.0
    np.testing.assert_allclose(out.u.values, want, atol=1e-13)
    np.testing.assert_allclose(out.v.values, 0.0, atol=1e-13)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_2d_reduces_to_1d_on_y_independent_data(m):
    rng = np.random.default_rng(60 + m)
    n = 5
    grid1 = Grid1D(0.0, 1.0, n, periodic=True)
    grid2 = Grid2D(0.0, 1.0, 0.0, 1.0, n, n, periodic=True)
    cfg = SchemeConfig(m=m, lam=0.85)
    u1 = rng.standard_normal((n, m + 1))
    v1 = rng.standard_normal((n, m))
    u2 = np.zeros((n, n, m + 1, m + 1))
    v2 = np.zeros((n, n, m, m))
    u2[:, :, :, 0] = u1[:, None, :]
    v2[:, :, :, 0] = v1[:, None, :]
    out1 = half_step_1d(
        FieldPair(Field1D(grid1, PRIMAL, 0.0, u1), Field1D(grid1, PRIMAL, 0.0, v1)),
        cfg,
        BoundarySpec(),
    )
    out2 = half_step_2d(
        FieldPair(Field2D(grid2, PRIMAL, 0.0, u2), Field2D(grid2, PRIMAL, 0.0, v2)),
        cfg,
        BoundarySpec2D(),
    )
    scale = np.abs(u1).max()
    np.testing.assert_allclose(
        out2.u.values[:, :, :, 0],
        np.broadcast_to(out1.u.values[:, None, :], (n, n, m + 1)),
        atol=1e-12 * scale,
    )
    np.testing.assert_allclose(
        out2.u.values[:, :, :, 1:], 0.0, atol=1e-12 * scale
    )
    np.testing.assert_allclose(
        out2.v.values[:, :, :, 0],
        np.broadcast_to(out1.v.values[:, None, :], (n, n, m)),
        atol=1e-12 * scale,
    )


def test_stage_cap_truncates_expansion():
    grid = Grid1D(0.0, 1.0, 8, periodic=True)
    rng = np.random.default_rng(19)
    m = 3
    pair = _random_pair(grid, m, rng)
    full = half_step_1d(pair, SchemeConfig(m=m, lam=0.8), BoundarySpec())
    capped = half_step_1d(
        pair, SchemeConfig(m=m, lam=0.8, stage_cap=2), BoundarySpec()
    )
    # a 2-stage cap is first-order-in-time only; results must differ
    assert np.abs(full.u.values - capped.u.values).max() > 1e-8
