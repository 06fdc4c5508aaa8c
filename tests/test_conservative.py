"""Two-level single-field scheme: update algebra, bootstrap, reversibility."""

import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial as P

from hermwave.boundary import BoundarySpec, BoundarySpec2D, pair_sources
from hermwave.conservative import (
    bootstrap_first_half,
    conservative_update_1d,
    conservative_update_2d,
    full_step_conservative,
    pascal_table,
)
from hermwave.dissipative import SchemeConfig
from hermwave.grid import DUAL, PRIMAL, Field1D, Field2D, Grid1D, Grid2D, TwoLevelState
from hermwave.interp import apply_interp


def test_zero_update_is_zero():
    cfg = SchemeConfig(m=2, lam=0.7)
    out = conservative_update_1d(np.zeros((4, 6)), np.zeros((4, 3)), cfg, 0.1)
    assert np.all(out == 0.0)


def test_linear_profile_is_steady():
    # 2*(projection of a linear interpolant) - same data = same data
    rng = np.random.default_rng(30)
    cfg = SchemeConfig(m=2, lam=1.0)
    a = np.zeros((3, 6))
    a[:, 0] = rng.standard_normal(3)
    a[:, 1] = rng.standard_normal(3)
    prev = a[:, :3].copy()
    out = conservative_update_1d(a, prev, cfg, 0.25)
    np.testing.assert_allclose(out, prev, atol=1e-15)


def test_first_order_quadratic_update():
    # m=1, lam=1: xi**2 interpolant over zero previous data
    cfg = SchemeConfig(m=1, lam=1.0)
    out = conservative_update_1d(np.array([0.0, 0.0, 1.0, 0.0]), np.zeros(2), cfg, 1.0)
    np.testing.assert_allclose(out, [0.5, 0.0], atol=1e-15)


@pytest.mark.parametrize("m,lam", [(1, 0.8), (2, 1.0), (3, 0.5), (4, 0.9)])
def test_update_matches_even_shift_average(m, lam):
    """Closed form: new data are 2 * [S+ + S-]/2 of the interpolant minus prev.

    The even shift average in the scaled variable moves by rho = lam/2;
    its Taylor coefficients at the target are exactly the update's output.
    """
    rng = np.random.default_rng(70 + m)
    cfg = SchemeConfig(m=m, lam=lam, speed=1.7)
    h = 0.31
    a = rng.standard_normal((5, 2 * m + 2))
    prev = rng.standard_normal((5, m + 1))
    out = conservative_update_1d(a, prev, cfg, h)
    rho = 0.5 * lam
    for i in range(5):
        p = P(a[i])
        avg = 0.5 * (p(P([rho, 1.0])) + p(P([-rho, 1.0])))
        coef = np.zeros(m + 1)
        coef[: min(m + 1, len(avg.coef))] = avg.coef[: m + 1]
        np.testing.assert_allclose(out[i], 2.0 * coef - prev[i], rtol=1e-12, atol=1e-13)


def test_pascal_base_entries():
    t = pascal_table(2)
    assert t[1, 1] == 2.0
    assert t[2, 2] == 6.0
    assert t[0, 0] == 1.0


def _sine_field(grid, m, parity, t=0.0, omega=1.0):
    xs = grid.nodes(parity)
    vals = np.stack(
        [
            math.cos(omega * t) * np.sin(xs + l * math.pi / 2) * grid.h**l / math.factorial(l)
            for l in range(m + 1)
        ],
        axis=-1,
    )
    return Field1D(grid, parity, t, vals)


def _random_state(grid, m, rng):
    nu = grid.n_nodes(PRIMAL)
    nd = grid.n_nodes(DUAL)
    cur = Field1D(grid, PRIMAL, 0.0, rng.standard_normal((nu, m + 1)))
    prev = Field1D(grid, DUAL, -0.1, rng.standard_normal((nd, m + 1)))
    return TwoLevelState(cur, prev)


def test_full_step_bookkeeping():
    rng = np.random.default_rng(31)
    grid = Grid1D(0.0, 1.0, 6, periodic=True)
    cfg = SchemeConfig(m=2, lam=0.8)
    state = _random_state(grid, 2, rng)
    out = full_step_conservative(state, cfg, BoundarySpec())
    assert out.previous is state.current
    assert out.current.parity == DUAL
    assert out.current.time == pytest.approx(state.current.time + 0.5 * cfg.dt(grid.h))


def test_full_step_closed_form_every_target():
    rng = np.random.default_rng(32)
    grid = Grid1D(-1.0, 1.0, 7, periodic=True)
    m, lam = 2, 0.9
    cfg = SchemeConfig(m=m, lam=lam)
    state = _random_state(grid, m, rng)
    out = full_step_conservative(state, cfg, BoundarySpec())
    data, _ = pair_sources(state.current, BoundarySpec())
    coeffs = apply_interp(data)
    rho = 0.5 * lam
    for i in range(coeffs.shape[0]):
        p = P(coeffs[i])
        avg = 0.5 * (p(P([rho, 1.0])) + p(P([-rho, 1.0])))
        want = 2.0 * avg.coef[: m + 1] - state.previous.values[i]
        np.testing.assert_allclose(out.current.values[i], want, rtol=1e-12, atol=1e-13)


def test_update_is_time_reversible():
    """Running the two-level recursion backwards restores the start."""
    rng = np.random.default_rng(33)
    grid = Grid1D(0.0, 2 * math.pi, 10, periodic=True)
    m = 2
    cfg = SchemeConfig(m=m, lam=1.0)
    bc = BoundarySpec()
    state = _random_state(grid, m, rng)
    c0, p0 = state.current.values.copy(), state.previous.values.copy()
    n = 50
    for _ in range(n):
        state = full_step_conservative(state, cfg, bc)
    back = TwoLevelState(current=state.previous, previous=state.current)
    for _ in range(n):
        back = full_step_conservative(back, cfg, bc)
    scale = np.abs(c0).max()
    # back.current retraces previous(t=-dt/2), back.previous retraces current
    np.testing.assert_allclose(back.current.values, p0, atol=1e-10 * scale)
    np.testing.assert_allclose(back.previous.values, c0, atol=1e-10 * scale)


def test_bootstrap_zero_data():
    grid = Grid1D(0.0, 1.0, 5, periodic=True)
    cfg = SchemeConfig(m=2, lam=0.8)
    z = Field1D(grid, PRIMAL, 0.0, np.zeros((5, 3)))
    state = bootstrap_first_half(z, z, cfg, BoundarySpec())
    assert np.all(state.current.values == 0.0)
    assert state.previous is z
    assert state.current.parity == DUAL
    assert state.current.time == pytest.approx(0.5 * cfg.dt(grid.h))


def test_bootstrap_linear_stationary():
    # u0 = 2x + 1 with zero velocity does not move
    grid = Grid1D(0.0, 1.0, 4, periodic=False)
    cfg = SchemeConfig(m=1, lam=1.0)
    xs = grid.nodes(PRIMAL)
    g0 = Field1D(grid, PRIMAL, 0.0, np.stack([2 * xs + 1, np.full_like(xs, 2 * grid.h)], axis=-1))
    g1 = Field1D(grid, PRIMAL, 0.0, np.zeros((len(xs), 2)))
    bc = BoundarySpec("neumann0", "neumann0")
    state = bootstrap_first_half(g0, g1, cfg, bc)
    xd = grid.nodes(DUAL)
    want = np.stack([2 * xd + 1, np.full_like(xd, 2 * grid.h)], axis=-1)
    np.testing.assert_allclose(state.current.values, want, atol=1e-13)


def test_bootstrap_constant_velocity():
    # u0 = 0, v0 = V: exactly u = V t at the half level
    grid = Grid1D(0.0, 1.0, 5, periodic=True)
    cfg = SchemeConfig(m=2, lam=0.9)
    V = 3.0
    z = np.zeros((5, 3))
    g0 = Field1D(grid, PRIMAL, 0.0, z)
    g1vals = np.zeros((5, 3))
    g1vals[:, 0] = V
    g1 = Field1D(grid, PRIMAL, 0.0, g1vals)
    state = bootstrap_first_half(g0, g1, cfg, BoundarySpec())
    dt = cfg.dt(grid.h)
    want = np.zeros((5, 3))
    want[:, 0] = V * dt / 2
    np.testing.assert_allclose(state.current.values, want, atol=1e-14)


@pytest.mark.parametrize("m", [1, 2])
def test_bootstrap_standing_wave_accuracy(m):
    # u0 = sin x, v0 = 0: u(x, t) = cos(t) sin(x); one Taylor half step
    errs = []
    ns = [20, 40]
    for n in ns:
        grid = Grid1D(0.0, 2 * math.pi, n, periodic=True)
        cfg = SchemeConfig(m=m, lam=0.8)
        g0 = _sine_field(grid, m, PRIMAL)
        g1 = Field1D(grid, PRIMAL, 0.0, np.zeros((n, m + 1)))
        state = bootstrap_first_half(g0, g1, cfg, BoundarySpec())
        t = state.current.time
        want = _sine_field(grid, m, DUAL, t=t).values[:, 0]
        errs.append(np.abs(state.current.values[:, 0] - want).max())
    slope = math.log(errs[0] / errs[1]) / math.log(2.0)
    assert slope >= 2 * m + 1 - 0.4


def test_2d_reduces_to_1d_on_y_independent_data():
    rng = np.random.default_rng(34)
    n, m = 5, 2
    grid1 = Grid1D(0.0, 1.0, n, periodic=True)
    grid2 = Grid2D(0.0, 1.0, 0.0, 1.0, n, n, periodic=True)
    cfg = SchemeConfig(m=m, lam=0.75)
    cur1 = rng.standard_normal((n, m + 1))
    prev1 = rng.standard_normal((n, m + 1))
    cur2 = np.zeros((n, n, m + 1, m + 1))
    prev2 = np.zeros((n, n, m + 1, m + 1))
    cur2[:, :, :, 0] = cur1[:, None, :]
    prev2[:, :, :, 0] = prev1[:, None, :]
    s1 = TwoLevelState(
        Field1D(grid1, PRIMAL, 0.0, cur1), Field1D(grid1, DUAL, -0.1, prev1)
    )
    s2 = TwoLevelState(
        Field2D(grid2, PRIMAL, 0.0, cur2), Field2D(grid2, DUAL, -0.1, prev2)
    )
    o1 = full_step_conservative(s1, cfg, BoundarySpec())
    o2 = full_step_conservative(s2, cfg, BoundarySpec2D())
    scale = np.abs(cur1).max()
    np.testing.assert_allclose(
        o2.current.values[:, :, :, 0],
        np.broadcast_to(o1.current.values[:, None, :], (n, n, m + 1)),
        atol=1e-13 * scale,
    )
    np.testing.assert_allclose(o2.current.values[:, :, :, 1:], 0.0, atol=1e-13 * scale)


def test_2d_update_zero():
    cfg = SchemeConfig(m=1, lam=0.6)
    out = conservative_update_2d(np.zeros((3, 3, 4, 4)), np.zeros((3, 3, 2, 2)), cfg, 0.2, 0.2)
    assert np.all(out == 0.0)
