"""Staggered half-steps via cell-local space-time expansion."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial as P

from hermwave import conservative
from hermwave.boundary import pair_sources, take
from hermwave.diagnostics import dissipative_energy
from hermwave.dissipative import (
    SchemeConfig,
    _plan,
    eval_series,
    expand_taylor,
    fold,
    half_step,
    taylor_half_step,
)
from hermwave.grid import DUAL, PRIMAL, Axis, Field, FieldPair, Grid, TwoLevelState, flip
from hermwave.interp import apply_interp

from lifting import lift, lifted_grids

WALLS = ("dirichlet0", "neumann0")
# periodic, then every pair of x walls
X_EDGES = [("periodic", "periodic")] + [(a, b) for a in WALLS for b in WALLS]


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
    assert cfg.stages(1) == 6
    assert cfg.stages(2) == 14
    assert cfg.dt(0.25) == pytest.approx(0.25)


def test_config_hash_contract():
    """The config hashes, compares and copies as the plain frozen dataclass."""
    cfg = SchemeConfig(m=3, speed=1.5, lam=0.8)
    twin = SchemeConfig(m=3, speed=1.5, lam=0.8)
    assert cfg == twin and cfg is not twin and hash(cfg) == hash(twin)
    assert hash(cfg) == hash((3, 1.5, 0.8))
    moved = dataclasses.replace(cfg, lam=0.5)
    assert moved == SchemeConfig(3, 1.5, 0.5) and hash(moved) == hash(SchemeConfig(3, 1.5, 0.5))
    assert moved != cfg
    assert [f.name for f in dataclasses.fields(cfg)] == ["m", "speed", "lam"]
    assert repr(cfg) == "SchemeConfig(m=3, speed=1.5, lam=0.8)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.lam = 0.5
    for copied in (copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
        assert copied == cfg and hash(copied) == hash(cfg)


def test_equal_configs_share_one_plan_per_level():
    """Equal but distinct configs find the same cached plan on the grid."""
    grid, _ = _line(0.0, 1.0, 6)
    rng = np.random.default_rng(21)
    pair = _random_pair(grid, 2, rng)
    state = TwoLevelState(pair.u, _random_pair(grid, 2, rng, DUAL).u)
    for cfg in (SchemeConfig(m=2, lam=0.9), SchemeConfig(m=2, lam=0.9)):
        half_step(half_step(pair, cfg), cfg)
        conservative.full_step_conservative(conservative.full_step_conservative(state, cfg), cfg)
    steppers = sorted(key[:2] for key in grid.plans if key[0] != "gather")
    assert steppers == [("conservative", DUAL), ("conservative", PRIMAL),
                        ("dissipative", DUAL), ("dissipative", PRIMAL)]


class _CountedPlans(dict):
    """A grid's plan cache that counts its lookups."""

    gets = 0

    def get(self, *args):
        self.gets += 1
        return super().get(*args)


def _level_states(grid, m, rng):
    """A FieldPair and a TwoLevelState of order m, current on grid's primal nodes."""
    d, nodes = len(grid.axes), grid.shapes[PRIMAL]
    pair = FieldPair(Field(grid, PRIMAL, 0.0, rng.standard_normal(nodes + (m + 1,) * d)),
                     Field(grid, PRIMAL, 0.0, rng.standard_normal(nodes + (m,) * d)))
    state = TwoLevelState(
        Field(grid, PRIMAL, 0.0, rng.standard_normal(nodes + (m + 1,) * d)),
        Field(grid, DUAL, -0.1, rng.standard_normal(grid.shapes[DUAL] + (m + 1,) * d)))
    return pair, state


@pytest.mark.parametrize("axes", [(Axis(0.0, 1.0, 7, "dirichlet0", "neumann0"),),
                                  (Axis(0.0, 1.0, 5),) * 2], ids=["1d-walls", "2d-periodic"])
def test_linked_states_step_as_fresh_ones(axes):
    """A state carries the plans it was linked with under one config object.

    After five steps under cfg, stepping on with an equal but distinct
    config, or with another lam, gives rows bit-identical to a fresh state
    built from the same Fields. Relinking costs one lookup per parity, not
    one per step, plus one gather lookup per plan it builds; the grid holds
    one plan per (scheme, parity, config value) and one gather per (parity,
    gathered blocks), which every config's plans share.
    """
    grid = Grid(axes)
    plans = _CountedPlans()
    object.__setattr__(grid, "plans", plans)
    cfg = SchemeConfig(m=2, lam=0.8)
    steppers = {"dissipative": half_step, "conservative": conservative.full_step_conservative}
    for start, step in zip(_level_states(grid, 2, np.random.default_rng(len(axes))),
                           steppers.values()):
        for _ in range(5):
            start = step(start, cfg)
        for other in (SchemeConfig(m=2, lam=0.8), SchemeConfig(m=2, lam=0.5)):
            linked, fresh = start, type(start)(*start.fields)
            plans.gets = 0
            for _ in range(3):
                linked, fresh = step(linked, other), step(fresh, other)
                assert np.array_equal(linked.rows, fresh.rows)
            assert linked.time == fresh.time and linked.link[0] is other
            # two parities, once for each of the two states; a new lam builds
            # the linked state's two plans, each of which looks up its gather
            assert plans.gets == 4 + 2 * (other.lam != cfg.lam)
    keys = sorted((scheme, parity, c.lam) for scheme, parity, c in plans if scheme != "gather")
    assert keys == sorted((scheme, parity, lam) for scheme in steppers
                          for parity in (PRIMAL, DUAL) for lam in (0.5, 0.8))
    d = len(axes)
    gathers = sorted((parity, blocks) for scheme, parity, blocks in plans if scheme == "gather")
    assert gathers == sorted((parity, blocks) for parity in (PRIMAL, DUAL)
                             for blocks in (((3,) * d, (2,) * d), ((3,) * d,)))


def test_constant_state_is_steady():
    cu = np.array([[4.0, 0.0, 0.0, 0.0]])
    cv = np.array([[0.0, 0.0]])
    CU, CV = expand_taylor(cu, cv, 0.3, (0.5,), 1.0, 4)
    assert np.all(CU[1:] == 0.0)
    assert np.all(CV[1:] == 0.0)


def test_constant_velocity_advances_value():
    # u_t = v: only c_{0,1} = dt * d0 appears
    cu = np.zeros((1, 4))
    cv = np.array([[2.5, 0.0]])
    CU, CV = expand_taylor(cu, cv, 0.3, (0.5,), 1.0, 4)
    want = np.zeros((5, 1, 4))
    want[1, 0, 0] = 0.3 * 2.5
    np.testing.assert_allclose(CU, want, atol=1e-15)
    assert np.all(CV[1:] == 0.0)


def test_quadratic_space_time_table():
    # u = xi**2, h = c = 1: v picks up 2*dt, u the dt**2 echo
    dt = 0.17
    cu = np.zeros((1, 4))
    cu[0, 2] = 1.0
    cv = np.zeros((1, 2))
    CU, CV = expand_taylor(cu, cv, dt, (1.0,), 1.0, 4)
    assert CV[1, 0, 0] == pytest.approx(2 * dt)
    assert CU[2, 0, 0] == pytest.approx(dt * dt)
    # center value after a half step matches u = x**2 + t**2
    val = eval_series(CU[:, 0, 0], 0.5)
    assert val == pytest.approx((dt / 2) ** 2, rel=1e-13)


def test_eval_series_matches_polyval():
    rng = np.random.default_rng(14)
    table = rng.standard_normal((3, 4, 6))
    theta = 0.37
    want = np.polynomial.polynomial.polyval(theta, np.moveaxis(table, -1, 0))
    np.testing.assert_allclose(eval_series(np.moveaxis(table, -1, 0), theta), want, rtol=1e-13)


def test_eval_at_zero_returns_initial_column():
    rng = np.random.default_rng(15)
    table = rng.standard_normal((7, 5))
    assert np.array_equal(eval_series(table, 0.0), table[0])


def _bootstrap_u(du, dv, dt, hs, speed, stages):
    """The bootstrap's u map: full-order seeds through the plain recursion."""
    ndim = len(hs)
    ctab, _ = expand_taylor(apply_interp(du, ndim), apply_interp(dv, ndim), dt, hs, speed,
                            stages)
    return (eval_series(ctab, 0.5)[(Ellipsis,) + (slice(du.shape[-1]),) * ndim],)


def _conservative_u(du, dt, hs, speed, stages):
    """The conservative update's map with prev = 0: the recursion from v = 0."""
    ndim = len(hs)
    c0 = apply_interp(du, ndim)
    ctab, _ = expand_taylor(c0, np.zeros_like(c0), dt, hs, speed, stages)
    return (2.0 * eval_series(ctab, 0.5)[(Ellipsis,) + (slice(du.shape[-1]),) * ndim],)


def test_stage_count_is_sufficient():
    """Stages past stages(ndim) (half step), d(2m+2) (bootstrap) and 2dm
    (conservative update) are exact zeros.

    So six more stages leave every folded matrix unchanged to the bit. The
    conservative map at 2dm stages is the library's folded update, bit for bit.
    """
    for ndim in (1, 2):
        for m in range(1, 7):
            cfg = SchemeConfig(m=m, lam=1.0, speed=1.3)
            hs = (0.2, 0.3)[:ndim]
            dt = cfg.dt(min(hs))
            side = (2,) * ndim
            u_shape, v_shape = side + (m + 1,) * ndim, side + (m,) * ndim
            for fn, shapes, depth in (
                (taylor_half_step, (u_shape, v_shape), cfg.stages(ndim)),
                (_bootstrap_u, (u_shape, u_shape), ndim * (2 * m + 2)),
                (_conservative_u, (u_shape,), 2 * ndim * m),
            ):
                short = fold(fn, shapes, dt, hs, cfg.speed, depth)
                deep = fold(fn, shapes, dt, hs, cfg.speed, depth + 6)
                assert all(np.array_equal(a, b) for a, b in zip(short, deep)), (ndim, m, fn)
            (a,) = fold(conservative._update, (u_shape,), m, dt, hs, cfg.speed)
            assert np.array_equal(a, short[0]), (ndim, m)


def _line(x_left, x_right, n, left="periodic", right="periodic"):
    """A 1D grid and its one axis."""
    axis = Axis(x_left, x_right, n, left, right)
    return Grid((axis,)), axis


def _random_pair(grid, m, rng, parity=PRIMAL):
    nu = grid.shapes[parity]
    u = Field(grid, parity, 0.0, rng.standard_normal(nu + (m + 1,)))
    v = Field(grid, parity, 0.0, rng.standard_normal(nu + (m,)))
    return FieldPair(u, v)


def test_half_step_zero_stays_zero():
    grid, axis = _line(0.0, 1.0, 5)
    u = Field(grid, PRIMAL, 0.0, np.zeros((5, 3)))
    v = Field(grid, PRIMAL, 0.0, np.zeros((5, 2)))
    cfg = SchemeConfig(m=2, lam=0.9)
    out = half_step(FieldPair(u, v), cfg)
    assert np.all(out.u.values == 0.0)
    assert np.all(out.v.values == 0.0)
    assert out.parity == DUAL
    assert out.time == pytest.approx(0.5 * cfg.dt(axis.h))


def test_half_step_order_mismatch():
    grid, _ = _line(0.0, 1.0, 5)
    rng = np.random.default_rng(17)
    pair = _random_pair(grid, 2, rng)
    for state in (pair, half_step(pair, SchemeConfig(m=2))):
        with pytest.raises(ValueError, match="orders"):
            half_step(state, SchemeConfig(m=3))


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
    grid, axis = _line(-1.0, 1.0, 6)
    cfg = SchemeConfig(m=m, lam=lam, speed=2.0)
    pair = _random_pair(grid, m, rng)
    out = half_step(pair, cfg)
    udata, _ = pair_sources(pair.u)
    vdata, _ = pair_sources(pair.v)
    for i in range(udata.shape[0]):
        uref, vref = _dalembert_coeffs(udata[i], vdata[i], lam, cfg.speed, axis.h, m)
        np.testing.assert_allclose(out.u.values[i], uref, rtol=1e-11, atol=1e-12)
        np.testing.assert_allclose(out.v.values[i], vref, rtol=1e-11, atol=1e-12)


def test_half_step_v_scaling_convention():
    # the closed form above fixes h-scaling; pin it once more with numbers:
    # u = sin(x), v = -cos(x) translates: u(x, t) = sin(x - t)
    m, lam, h = 3, 1.0, 0.1
    n = int(round(2 * math.pi / h))
    grid, axis = _line(0.0, 2 * math.pi, n)
    cfg = SchemeConfig(m=m, lam=lam)
    xs = axis.nodes(PRIMAL)
    uvals = np.stack(
        [np.sin(xs + l * math.pi / 2) * axis.h**l / math.factorial(l) for l in range(m + 1)],
        axis=-1,
    )
    vvals = np.stack(
        [-np.cos(xs + l * math.pi / 2) * axis.h**l / math.factorial(l) for l in range(m)],
        axis=-1,
    )
    pair = FieldPair(
        Field(grid, PRIMAL, 0.0, uvals), Field(grid, PRIMAL, 0.0, vvals)
    )
    for _ in range(2):
        pair = half_step(pair, cfg)
    t = pair.time
    xs2 = axis.nodes(pair.parity)
    want = np.sin(xs2 - t)
    np.testing.assert_allclose(pair.u.values[:, 0], want, atol=1e-10)


def test_energy_never_increases():
    rng = np.random.default_rng(18)
    m = 2
    n = 12
    grid, axis = _line(0.0, 2 * math.pi, n)
    cfg = SchemeConfig(m=m, lam=0.95)
    xs = axis.nodes(PRIMAL)
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
            out[:, l] = acc * axis.h**l / math.factorial(l)
        return out

    pair = FieldPair(
        Field(grid, PRIMAL, 0.0, derivs(xs, m + 1, 0)),
        Field(grid, PRIMAL, 0.0, derivs(xs, m, 1)),
    )
    e = dissipative_energy(pair, cfg.speed)
    for _ in range(100):
        pair = half_step(pair, cfg)
        e_new = dissipative_energy(pair, cfg.speed)
        assert e_new <= e * (1.0 + 1e-12)
        e = e_new


def test_2d_constant_is_steady():
    grid = Grid((Axis(0.0, 1.0, 4),) * 2)
    m = 2
    u = np.zeros((4, 4, m + 1, m + 1))
    u[..., 0, 0] = 3.0
    pair = FieldPair(
        Field(grid, PRIMAL, 0.0, u),
        Field(grid, PRIMAL, 0.0, np.zeros((4, 4, m, m))),
    )
    out = half_step(pair, SchemeConfig(m=m, lam=0.9))
    want = np.zeros_like(u)
    want[..., 0, 0] = 3.0
    np.testing.assert_allclose(out.u.values, want, atol=1e-13)
    np.testing.assert_allclose(out.v.values, 0.0, atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(
    lam=st.floats(0.0, 1.0, exclude_min=True),
    parity=st.sampled_from((PRIMAL, DUAL)),
    seed=st.integers(0, 2**32 - 1),
)
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_2d_reduces_to_1d_on_y_independent_data(m, lam, parity, seed):
    """A 2D or 3D half step of y- and z-independent data is the 1D half step on every row.

    Periodic, then every pair of x walls. y
    and z walls are neumann0, whose even reflection keeps the data y- and
    z-independent. 3D runs at m <= 2, with lam rounded up to a multiple of
    1/4: its m = 2 matrix takes about 0.1 s to build (at m = 4, about
    0.7 GB), so the rounding lets the examples share a few.
    """
    rng = np.random.default_rng(seed)
    cfgs = {2: SchemeConfig(m=m, lam=lam)}
    if m <= 2:
        cfgs[3] = SchemeConfig(m=m, lam=math.ceil(4 * lam) / 4)
    for edges in X_EDGES:
        grid1, x_axis = _line(-1.0, 0.7, 5, *edges)
        pair = _random_pair(grid1, m, rng, parity)
        grids = lifted_grids(x_axis)
        for ndim, cfg in cfgs.items():
            grid = grids[ndim]
            counts = grid.shapes[parity][1:]
            out1 = half_step(pair, cfg)
            out = half_step(FieldPair(
                Field(grid, parity, 0.0, lift(pair.u.values, counts)),
                Field(grid, parity, 0.0, lift(pair.v.values, counts))), cfg)
            targets = grid.shapes[flip(parity)][1:]
            for got, want in ((out.u, out1.u), (out.v, out1.v)):
                assert got.time == want.time
                bound = 1e-12 * np.abs(want.values).max()
                assert np.abs(got.values - lift(want.values, targets)).max() <= bound, edges


def test_stage_cap_truncates_expansion():
    grid, axis = _line(0.0, 1.0, 8)
    rng = np.random.default_rng(19)
    m = 3
    pair = _random_pair(grid, m, rng)
    cfg = SchemeConfig(m=m, lam=0.8)
    full = half_step(pair, cfg)
    capped, _ = taylor_half_step(pair_sources(pair.u)[0], pair_sources(pair.v)[0],
                                 cfg.dt(axis.h), (axis.h,), cfg.speed, 2)
    # a 2-stage cap is first-order-in-time only; results must differ
    assert np.abs(full.u.values - capped).max() > 1e-8


@pytest.mark.parametrize("axes, parity", [
    ((Axis(0.0, 1.0, 7, "dirichlet0", "neumann0"),), DUAL),
    ((Axis(0.0, 1.0, 7, "neumann0", "dirichlet0"),), PRIMAL),
    ((Axis(0.0, 1.0, 5),) * 2, PRIMAL),
])
def test_steps_are_the_cached_plan_product_bit_for_bit(axes, parity):
    """Both steppers' new rows are take(rows, gather) @ a from the level's
    cached plan, bit for bit (minus the previous rows for the conservative
    update): the product the steppers call changes no bits."""
    grid = Grid(axes)
    d, m = len(axes), 3
    cfg = SchemeConfig(m=m, lam=0.8)
    rng = np.random.default_rng(57)
    nodes = grid.shapes[parity]
    pair = FieldPair(Field(grid, parity, 0.0, rng.standard_normal(nodes + (m + 1,) * d)),
                     Field(grid, parity, 0.0, rng.standard_normal(nodes + (m,) * d)))
    got = half_step(pair, cfg).rows
    gather, a = grid.plans[("dissipative", parity, cfg)][:2]
    assert np.array_equal(got, take(pair.rows, gather) @ a)
    state = TwoLevelState(
        Field(grid, parity, 0.0, rng.standard_normal(nodes + (m + 1,) * d)),
        Field(grid, flip(parity), -0.1, rng.standard_normal(grid.shapes[flip(parity)]
                                                            + (m + 1,) * d)))
    got = conservative.full_step_conservative(state, cfg).rows
    gather, a = grid.plans[("conservative", parity, cfg)][:2]
    assert np.array_equal(got, take(state.rows, gather) @ a - state.prev_rows)


def test_periodic_1d_symbol_is_stable():
    """No Fourier mode of a periodic 1D dissipative full step grows.

    A level plan's matrix holds one K x K block per flank (K = rows / 2):
    a primal-to-dual half step maps the mode e^{ij theta} r to
    e^{ij theta} r H1 with H1 = A_0 + e^{i theta} A_1, a dual-to-primal one
    with H2 = e^{-i theta} A'_0 + A'_1. The worst max|eig(H1 H2)| - 1 over
    m = 1..6, lam in {0.5, 0.8, 1} and 65 theta in [0, pi] reads 8.6e-14
    (m = 6, lam = 1) on 16 cells; other cell counts round to 4.4e-14 to
    2.0e-13.
    """
    n = 16
    theta = np.linspace(0.0, np.pi, 65)[:, None, None]
    nodes = np.arange(n)[:, None]
    probe = 2 * np.pi * 3 / n
    worst = 0.0
    for m in range(1, 7):
        for lam in (0.5, 0.8, 1.0):
            cfg = SchemeConfig(m=m, lam=lam)
            grid, _ = _line(0.0, 1.0, n)
            (gather, a), (gather2, b) = (_plan(grid, p, cfg)[:2]
                                         for p in (PRIMAL, DUAL))
            k = len(a) // 2

            def h1(t):
                return a[:k] + np.exp(1j * t) * a[k:]

            def h2(t):
                return np.exp(-1j * t) * b[:k] + b[k:]

            # the blocks and phases are the plans' own: step one grid mode through each
            r = np.random.default_rng(m).standard_normal(k)
            mode = np.exp(1j * probe * nodes)
            for plan, mat, sym in ((gather, a, h1), (gather2, b, h2)):
                got = take(mode * r, plan) @ mat
                want = mode * (r @ sym(probe))
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (m, lam)
            growth = np.abs(np.linalg.eigvals(h1(theta) @ h2(theta))).max() - 1.0
            worst = max(worst, growth)
    assert worst <= 1e-12


def test_periodic_2d_symbol_is_stable():
    """No Fourier mode of a periodic 2D dissipative full step grows.

    A 2D level plan's matrix holds one K x K block A_s per corner s in
    {0, 1}^2, in the gather's (sx, sy) order: a primal-to-dual half step has
    the symbol H1 = sum_s e^{i theta.s} A_s, a dual-to-primal one
    H2 = sum_s e^{i theta.(s-1)} A'_s. Reflecting an axis maps the step to
    itself up to coefficient signs, so theta in [0, pi]^2 covers every mode.
    The worst max|eig(H1 H2)| - 1 over m = 1..3, lam in {0.5, 0.8, 1} and a
    17 x 17 theta grid reads 4.9e-15 on 8 x 8 cells (the same over a
    33 x 33 grid on [-pi, pi]^2; 6 to 16 cells read 4.2e-15 to 5.1e-15).
    """
    n = 8
    corners = np.array([(0, 0), (0, 1), (1, 0), (1, 1)])
    t = np.linspace(0.0, np.pi, 17)
    theta = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
    probe = 2 * np.pi * np.array([3, 1]) / n
    mode = np.exp(1j * (np.indices((n, n)).reshape(2, -1).T @ probe))[:, None]

    def symbol(mat, shift, th):
        phase = np.exp(1j * (th @ (corners - shift).T))
        return np.einsum("...c,ckl->...kl", phase, mat.reshape(4, len(mat) // 4, -1))

    worst = 0.0
    for m in range(1, 4):
        for lam in (0.5, 0.8, 1.0):
            cfg = SchemeConfig(m=m, lam=lam)
            grid = Grid((Axis(0.0, 1.0, n),) * 2)
            (gather, a), (gather2, b) = (_plan(grid, p, cfg)[:2]
                                         for p in (PRIMAL, DUAL))
            # the blocks and phases are the plans' own: step one grid mode through each
            r = np.random.default_rng(m).standard_normal(len(a) // 4)
            for plan, mat, shift in ((gather, a, 0), (gather2, b, 1)):
                got = take(mode * r, plan) @ mat
                want = mode * (r @ symbol(mat, shift, probe))
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (m, lam)
            growth = np.abs(np.linalg.eigvals(symbol(a, 0, theta) @ symbol(b, 1, theta)))
            worst = max(worst, growth.max() - 1.0)
    assert worst <= 1e-12
