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
from hermwave.boundary import gather_plan, take
from hermwave.conservative import _plan, step
from hermwave.dissipative import SchemeConfig, fold, taylor_half_step
from hermwave.grid import DUAL, PRIMAL, Axis, Field, Grid, State, flip
from hermwave.interp import apply_interp

from energy_oracle import dissipative_energy
from level_oracle import eval_series, expand_taylor, pair_sources
from lifting import lift, lifted_grids
from states import one, two_level, u_of, uv_state, v_of
from test_conservative import ORDER_LAM, ORDER_THETA, eigen_orders

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
    cfg = SchemeConfig(m=3, lam=1.0)
    assert cfg.dt(0.25) == pytest.approx(0.25)


def test_config_hash_contract():
    """The config hashes, compares and copies as the plain frozen dataclass."""
    cfg = SchemeConfig(m=3, lam=0.8)
    twin = SchemeConfig(m=3, lam=0.8)
    assert cfg == twin and cfg is not twin and hash(cfg) == hash(twin)
    assert hash(cfg) == hash((3, 0.8))
    moved = dataclasses.replace(cfg, lam=0.5)
    assert moved == SchemeConfig(3, 0.5) and hash(moved) == hash(SchemeConfig(3, 0.5))
    assert moved != cfg
    assert [f.name for f in dataclasses.fields(cfg)] == ["m", "lam"]
    assert repr(cfg) == "SchemeConfig(m=3, lam=0.8)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.lam = 0.5
    for copied in (copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
        assert copied == cfg and hash(copied) == hash(cfg)


def _plans(plan) -> tuple:
    """(plan, plan.next): the plans of a linked state's parity and the opposite one."""
    return plan, plan.next


def test_equal_configs_share_one_plan_per_level():
    """Equal but distinct configs find the same cached plans: stepping under
    the second builds no plan, and its states carry the first's plans, one
    per scheme and parity."""
    grid, _ = _line(0.0, 1.0, 6)
    rng = np.random.default_rng(21)
    pair = _random_pair(grid, 2, rng)
    state = two_level(u_of(pair), u_of(_random_pair(grid, 2, rng, DUAL)))
    first, second = SchemeConfig(m=2, lam=0.9), SchemeConfig(m=2, lam=0.9)
    want = [_plans(step(step(s, first), first).link) for s in (pair, state)]
    misses = _plan.cache_info().misses
    got = [_plans(step(step(s, second), second).link) for s in (pair, state)]
    assert _plan.cache_info().misses == misses
    assert all(a is b for mine, theirs in zip(got, want) for a, b in zip(mine, theirs))
    assert len({id(plan) for plans in got for plan in plans}) == 4


def _level_states(grid, m, rng):
    """A dissipative and a conservative state of order m, current on grid's primal nodes."""
    d, nodes = len(grid.axes), grid.shapes[PRIMAL]
    pair = uv_state(Field(grid, PRIMAL, 0.0, rng.standard_normal(nodes + (m + 1,) * d)),
                    Field(grid, PRIMAL, 0.0, rng.standard_normal(nodes + (m,) * d)))
    state = two_level(
        Field(grid, PRIMAL, 0.0, rng.standard_normal(nodes + (m + 1,) * d)),
        Field(grid, DUAL, -0.1, rng.standard_normal(grid.shapes[DUAL] + (m + 1,) * d)))
    return pair, state


@pytest.mark.parametrize("axes", [(Axis(0.0, 1.0, 7, "dirichlet0", "neumann0"),),
                                  (Axis(0.0, 1.0, 5),) * 2], ids=["1d-walls", "2d-periodic"])
def test_linked_states_step_as_fresh_ones(axes):
    """A state carries the plans it was linked with under one config object.

    After five steps under cfg, stepping on with an equal but distinct
    config, or with another lam, gives rows bit-identical to a fresh state
    built from the same rows. Relinking costs one `_plan` lookup per
    parity, not one per step. An equal config finds cfg's plans, and the
    plans of another lam share cfg's gathers, so neither builds a gather.
    """
    grid = Grid(axes)
    cfg = SchemeConfig(m=2, lam=0.8)
    for start in _level_states(grid, 2, np.random.default_rng(len(axes))):
        for _ in range(5):
            start = step(start, cfg)
        for other in (SchemeConfig(m=2, lam=0.8), SchemeConfig(m=2, lam=0.5)):
            linked = start
            fresh = State(start.grid, start.parity, start.time, start.rows.copy(),
                          start.blocks, start.prev_rows)
            plans, gathers = _plan.cache_info(), gather_plan.cache_info()
            for _ in range(3):
                linked, fresh = step(linked, other), step(fresh, other)
                assert np.array_equal(linked.rows, fresh.rows)
            assert linked.time == fresh.time and linked.link_cfg is other
            # two parities, once for each of the two states
            now = _plan.cache_info()
            assert now.hits + now.misses == plans.hits + plans.misses + 4
            assert gather_plan.cache_info().misses == gathers.misses
            # three steps on, the linked state's parity is the other one
            mine, theirs = _plans(linked.link), _plans(start.link)[::-1]
            if other == cfg:
                assert now.misses == plans.misses
                assert all(a is b for a, b in zip(mine, theirs))
            else:
                assert all(a.gather is b.gather and a.matrix is not b.matrix
                           for a, b in zip(mine, theirs))


def test_constant_state_is_steady():
    cu = np.array([[4.0, 0.0, 0.0, 0.0]])
    cv = np.array([[0.0, 0.0]])
    CU, CV = expand_taylor(cu, cv, 0.3, (0.5,), 4)
    assert np.all(CU[1:] == 0.0)
    assert np.all(CV[1:] == 0.0)


def test_constant_velocity_advances_value():
    # u_t = v: only c_{0,1} = dt * d0 appears
    cu = np.zeros((1, 4))
    cv = np.array([[2.5, 0.0]])
    CU, CV = expand_taylor(cu, cv, 0.3, (0.5,), 4)
    want = np.zeros((5, 1, 4))
    want[1, 0, 0] = 0.3 * 2.5
    np.testing.assert_allclose(CU, want, atol=1e-15)
    assert np.all(CV[1:] == 0.0)


def test_quadratic_space_time_table():
    # u = xi**2, h = 1: v picks up 2*dt, u the dt**2 echo
    dt = 0.17
    cu = np.zeros((1, 4))
    cu[0, 2] = 1.0
    cv = np.zeros((1, 2))
    CU, CV = expand_taylor(cu, cv, dt, (1.0,), 4)
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


def _bootstrap_u(du, dv, dt, hs, stages):
    """The bootstrap's u map: full-order seeds through the plain recursion."""
    ndim = len(hs)
    ctab, _ = expand_taylor(apply_interp(du, ndim), apply_interp(dv, ndim), dt, hs, stages)
    return (eval_series(ctab, 0.5)[(Ellipsis,) + (slice(du.shape[-1]),) * ndim],)


def _conservative_u(du, dt, hs, stages):
    """The conservative update's map with prev = 0: the recursion from v = 0."""
    ndim = len(hs)
    c0 = apply_interp(du, ndim)
    ctab, _ = expand_taylor(c0, np.zeros_like(c0), dt, hs, stages)
    return (2.0 * eval_series(ctab, 0.5)[(Ellipsis,) + (slice(du.shape[-1]),) * ndim],)


def _mixed_half_step(du, dv, dt, hs, stages):
    """The dissipative half step as its first v stage was first built: the
    leading block of 2m coefficients per axis sums, over the axes q, the
    second q-derivative of the u interpolant of order m along q and m-1
    along the others; the plain recursion supplies every later stage."""
    ndim, m = len(hs), dv.shape[-1]
    k = 2 * m + 2
    terms = []
    for q, h in enumerate(hs):
        keep = tuple(slice(None) if p == q else slice(m) for p in range(ndim))
        src = tuple(slice(2, None) if p == q else slice(None) for p in range(ndim))
        w = (np.arange(2, k) * np.arange(1, k - 1)).reshape((-1,) + (1,) * (ndim - 1 - q))
        terms.append(dt / (h * h) * w
                     * apply_interp(du[(Ellipsis,) + keep], ndim)[(Ellipsis,) + src])
    d1 = np.zeros(du.shape[: -2 * ndim] + (k,) * ndim)
    d1[(Ellipsis,) + (slice(k - 2),) * ndim] = sum(terms[1:], terms[0])
    ctab, dtab = expand_taylor(apply_interp(du, ndim), apply_interp(dv, ndim), dt, hs, stages,
                               d1=d1)
    return (eval_series(ctab, 0.5)[(Ellipsis,) + (slice(m + 1),) * ndim],
            eval_series(dtab, 0.5)[(Ellipsis,) + (slice(m),) * ndim])


def test_stage_count_is_sufficient():
    """Stages past d(2m+2)-2 (half step from v of order m-1), d(2m+2)
    (from u_t of u's order) and 2dm (conservative update) are exact zeros,
    and the library's one map, at d(2m+2) stages, builds all three matrices.

    So six more stages leave every folded stage-table map unchanged to the
    bit. The half step from v of order m-1 is the mixed-stage map
    (`_mixed_half_step`) at d(2m+2)-2 stages. The half step from u_t of u's
    order is `_bootstrap_u` in its u columns, and the library's B is those
    columns. The conservative map at 2dm stages is the library's update
    matrix, twice the u rows of B.

    The library sums the same stages in another order, so it matches the
    stage tables to 1e-11 of the largest entry. The difference is the
    tables' rounding: against the exact 1D fold
    (`matrix_oracle.exact_half_step`) at h = 0.2, m = 6, the table's step
    map errs by 7.3e-12 and the library's by 4.9e-13, and the largest
    difference between the two, 7.3e-12, is that one.
    """
    for ndim, m_max in ((1, 6), (2, 6), (3, 2)):
        for m in range(1, m_max + 1):
            cfg = SchemeConfig(m=m, lam=1.0)
            hs = (0.2, 0.3, 0.25)[:ndim]
            dt = cfg.dt(min(hs))
            side = (2,) * ndim
            cu, cv = (m + 1,) * ndim, (m,) * ndim
            folds = []
            for fn, blocks, depth in (
                (_mixed_half_step, (cu, cv), ndim * (2 * m + 2) - 2),
                (_bootstrap_u, (cu, cu), ndim * (2 * m + 2)),
                (_conservative_u, (cu,), 2 * ndim * m),
            ):
                short = fold(fn, blocks, side, dt, hs, depth)
                deep = fold(fn, blocks, side, dt, hs, depth + 6)
                assert np.array_equal(short, deep), (ndim, m, fn)
                folds.append(short)
            mixed, boot_u, update = folds
            step_map = fold(taylor_half_step, (cu, cv), side, dt, hs)
            boot_map = fold(taylor_half_step, (cu, cu), side, dt, hs)
            for got, want in ((step_map, mixed), (boot_map[:, : math.prod(cu)], boot_u),
                              (conservative._bootstrap_matrix(m, dt, hs), boot_u),
                              (conservative._update_matrix(m, dt, hs), update)):
                assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max(), (ndim, m)


def _line(x_left, x_right, n, left="periodic", right="periodic"):
    """A 1D grid and its one axis."""
    axis = Axis(x_left, x_right, n, left, right)
    return Grid((axis,)), axis


def _random_pair(grid, m, rng, parity=PRIMAL):
    nu = grid.shapes[parity]
    u = Field(grid, parity, 0.0, rng.standard_normal(nu + (m + 1,)))
    v = Field(grid, parity, 0.0, rng.standard_normal(nu + (m,)))
    return uv_state(u, v)


def test_half_step_zero_stays_zero():
    grid, axis = _line(0.0, 1.0, 5)
    u = Field(grid, PRIMAL, 0.0, np.zeros((5, 3)))
    v = Field(grid, PRIMAL, 0.0, np.zeros((5, 2)))
    cfg = SchemeConfig(m=2, lam=0.9)
    out = step(uv_state(u, v), cfg)
    assert np.all(u_of(out).values == 0.0)
    assert np.all(v_of(out).values == 0.0)
    assert out.parity == DUAL
    assert out.time == pytest.approx(0.5 * cfg.dt(axis.h))


def test_half_step_order_mismatch():
    grid, _ = _line(0.0, 1.0, 5)
    rng = np.random.default_rng(17)
    pair = _random_pair(grid, 2, rng)
    for state in (pair, step(pair, SchemeConfig(m=2))):
        with pytest.raises(ValueError, match="orders"):
            step(state, SchemeConfig(m=3))


def _dalembert_coeffs(udata, vdata, lam, h, m):
    """Exact half-step center data from the flanking interpolants.

    Shift/average the cell interpolants per the closed-form solution of
    u_tt = u_xx; in the scaled variable the half step moves by lam/2.
    The velocity integral picks up h/2, the velocity update 1/(2h).
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
    u_sol = 0.5 * (p(plus) + p(minus)) + (h / 2.0) * (qint(plus) - qint(minus))
    dp = p.deriv()
    v_sol = (dp(plus) - dp(minus)) / (2.0 * h) + 0.5 * (q(plus) + q(minus))
    return u_sol.coef[: m + 1], v_sol.coef[:m]


@pytest.mark.parametrize("m,lam", [(1, 0.8), (2, 1.0), (3, 0.6)])
def test_half_step_matches_closed_form(m, lam):
    """Every target's new data equals the exact evolution of its cell pair."""
    rng = np.random.default_rng(50 + m)
    grid, axis = _line(-1.0, 1.0, 6)
    cfg = SchemeConfig(m=m, lam=lam)
    pair = _random_pair(grid, m, rng)
    out = step(pair, cfg)
    udata, _ = pair_sources(u_of(pair))
    vdata, _ = pair_sources(v_of(pair))
    for i in range(udata.shape[0]):
        uref, vref = _dalembert_coeffs(udata[i], vdata[i], lam, axis.h, m)
        np.testing.assert_allclose(u_of(out).values[i], uref, rtol=1e-11, atol=1e-12)
        np.testing.assert_allclose(v_of(out).values[i], vref, rtol=1e-11, atol=1e-12)


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
    pair = uv_state(
        Field(grid, PRIMAL, 0.0, uvals), Field(grid, PRIMAL, 0.0, vvals)
    )
    for _ in range(2):
        pair = step(pair, cfg)
    t = pair.time
    xs2 = axis.nodes(pair.parity)
    want = np.sin(xs2 - t)
    np.testing.assert_allclose(u_of(pair).values[:, 0], want, atol=1e-10)


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

    pair = uv_state(
        Field(grid, PRIMAL, 0.0, derivs(xs, m + 1, 0)),
        Field(grid, PRIMAL, 0.0, derivs(xs, m, 1)),
    )
    e = dissipative_energy(pair, 1.0)
    for _ in range(100):
        pair = step(pair, cfg)
        e_new = dissipative_energy(pair, 1.0)
        assert e_new <= e * (1.0 + 1e-12)
        e = e_new


def test_2d_constant_is_steady():
    grid = Grid((Axis(0.0, 1.0, 4),) * 2)
    m = 2
    u = np.zeros((4, 4, m + 1, m + 1))
    u[..., 0, 0] = 3.0
    pair = uv_state(
        Field(grid, PRIMAL, 0.0, u),
        Field(grid, PRIMAL, 0.0, np.zeros((4, 4, m, m))),
    )
    out = step(pair, SchemeConfig(m=m, lam=0.9))
    want = np.zeros_like(u)
    want[..., 0, 0] = 3.0
    np.testing.assert_allclose(u_of(out).values, want, atol=1e-13)
    np.testing.assert_allclose(v_of(out).values, 0.0, atol=1e-13)


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
            out1 = step(pair, cfg)
            out = step(uv_state(
                Field(grid, parity, 0.0, lift(u_of(pair).values, counts)),
                Field(grid, parity, 0.0, lift(v_of(pair).values, counts))), cfg)
            targets = grid.shapes[flip(parity)][1:]
            for got, want in ((u_of(out), u_of(out1)), (v_of(out), v_of(out1))):
                assert got.time == want.time
                bound = 1e-12 * np.abs(want.values).max()
                assert np.abs(got.values - lift(want.values, targets)).max() <= bound, edges


def test_stage_cap_truncates_expansion():
    grid, axis = _line(0.0, 1.0, 8)
    rng = np.random.default_rng(19)
    m = 3
    pair = _random_pair(grid, m, rng)
    cfg = SchemeConfig(m=m, lam=0.8)
    full = step(pair, cfg)
    capped, _ = _mixed_half_step(pair_sources(u_of(pair))[0], pair_sources(v_of(pair))[0],
                                 cfg.dt(axis.h), (axis.h,), 2)
    # a 2-stage cap is first-order-in-time only; results must differ
    assert np.abs(u_of(full).values - capped).max() > 1e-8


@pytest.mark.parametrize("axes, parity", [
    ((Axis(0.0, 1.0, 7, "dirichlet0", "neumann0"),), DUAL),
    ((Axis(0.0, 1.0, 7, "neumann0", "dirichlet0"),), PRIMAL),
    ((Axis(0.0, 1.0, 5),) * 2, PRIMAL),
])
def test_steps_are_the_cached_plan_product_bit_for_bit(axes, parity):
    """The step's new rows in both schemes are take(rows, gather) @ a from
    the level's cached plan, bit for bit (minus the previous rows for the
    conservative update): the product the step calls changes no bits."""
    grid = Grid(axes)
    d, m = len(axes), 3
    cfg = SchemeConfig(m=m, lam=0.8)
    rng = np.random.default_rng(57)
    nodes = grid.shapes[parity]
    pair = uv_state(Field(grid, parity, 0.0, rng.standard_normal(nodes + (m + 1,) * d)),
                    Field(grid, parity, 0.0, rng.standard_normal(nodes + (m,) * d)))
    got = step(pair, cfg)
    plan = _plan(one(grid), parity, cfg, "dissipative")
    gather, a = plan.gather, plan.matrix
    assert got.link.next is plan and np.array_equal(got.rows, take(pair.rows, gather) @ a)
    state = two_level(
        Field(grid, parity, 0.0, rng.standard_normal(nodes + (m + 1,) * d)),
        Field(grid, flip(parity), -0.1, rng.standard_normal(grid.shapes[flip(parity)]
                                                            + (m + 1,) * d)))
    got = step(state, cfg)
    plan = _plan(one(grid), parity, cfg, "conservative")
    gather, a = plan.gather, plan.matrix
    assert got.link.next is plan
    assert np.array_equal(got.rows, take(state.rows, gather) @ a - state.prev_rows)


def _half_symbols_1d(a, b, theta):
    """(H1, H2) at theta of a periodic 1D level whose half steps have the
    matrices a (from primal nodes) and b (from dual ones): one K x K block
    per flank, K = rows / 2."""
    k = len(a) // 2
    return a[:k] + np.exp(1j * theta) * a[k:], np.exp(-1j * theta) * b[:k] + b[k:]


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
            (gather, a), (gather2, b) = ((p.gather, p.matrix) for p in
                                         (_plan(one(grid), q, cfg, "dissipative")
                                          for q in (PRIMAL, DUAL)))
            # the blocks and phases are the plans' own: step one grid mode through each
            r = np.random.default_rng(m).standard_normal(len(a) // 2)
            mode = np.exp(1j * probe * nodes)
            for plan, mat, sym in zip((gather, gather2), (a, b), _half_symbols_1d(a, b, probe)):
                got = take(mode * r, plan) @ mat
                want = mode * (r @ sym)
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (m, lam)
            h1, h2 = _half_symbols_1d(a, b, theta)
            growth = np.abs(np.linalg.eigvals(h1 @ h2)).max() - 1.0
            worst = max(worst, growth)
    assert worst <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_dissipative_design_order_from_the_symbol(m):
    """The dissipative full step has design order 2m - 1, read from its symbol.

    On a periodic 1D level at lam = 0.5 (`eigen_orders`' theta), the
    physical eigenvalue of H1 H2, built from the plans' own matrices, errs
    by its dissipation, of order 2m - 1: 1.01, 2.99 and 5.00 for
    m = 1, 2, 3. Its phase alone is one order better, 2m: 1.98, 3.95 and
    6.02.
    """
    cfg = SchemeConfig(m=m, lam=ORDER_LAM)
    grid, _ = _line(0.0, 1.0, 16)
    a, b = (_plan(one(grid), p, cfg, "dissipative").matrix for p in (PRIMAL, DUAL))
    h1, h2 = _half_symbols_1d(a, b, ORDER_THETA[:, None, None])
    phase, whole = eigen_orders(h1 @ h2)
    assert abs(whole - (2 * m - 1)) <= 0.1 and abs(phase - 2 * m) <= 0.1, (whole, phase)


def _symbol(mat, shift, theta):
    """sum_s e^{i theta.(s - shift)} A_s of a d-axis half-step matrix's
    corner blocks A_s, s in {0, 1}^d in the gather's order, at each row of
    theta (d columns): H1 from primal sources (shift 0), H2 from dual ones
    (shift 1)."""
    d = theta.shape[-1]
    corners = np.indices((2,) * d).reshape(d, -1).T
    phase = np.exp(1j * (theta @ (corners - shift).T))
    return np.einsum("...c,ckl->...kl", phase,
                     mat.reshape(len(corners), len(mat) // len(corners), -1))


def _theta_grid(count):
    """count x count theta pairs on [0, pi]^2, one per row."""
    t = np.linspace(0.0, np.pi, count)
    return np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)


def _growth_2d(a, theta):
    """max |eig(H1 H2)| - 1 over theta of a periodic 2D level whose two
    parities share the half-step matrix a, as on a square grid."""
    return np.abs(np.linalg.eigvals(_symbol(a, 0, theta) @ _symbol(a, 1, theta))).max() - 1


def test_periodic_2d_symbol_is_stable():
    """No Fourier mode of a periodic 2D dissipative full step grows.

    A 2D level plan's matrix holds one K x K block A_s per corner s in
    {0, 1}^2, in the gather's (sx, sy) order: a primal-to-dual half step has
    the symbol H1 = sum_s e^{i theta.s} A_s, a dual-to-primal one
    H2 = sum_s e^{i theta.(s-1)} A'_s. Reflecting an axis maps the step to
    itself up to coefficient signs, so theta in [0, pi]^2 covers every mode.
    The worst max|eig(H1 H2)| - 1 over m = 1..3, lam in {0.5, 0.8, 1} and a
    17 x 17 theta grid reads 4.0e-15 on 8 x 8 cells, the same over a
    33 x 33 grid on [-pi, pi]^2 and on 6 and 16 cells, whose matrices are
    the one of their aspect.
    """
    n = 8
    theta = _theta_grid(17)
    probe = 2 * np.pi * np.array([3, 1]) / n
    mode = np.exp(1j * (np.indices((n, n)).reshape(2, -1).T @ probe))[:, None]
    worst = 0.0
    for m in range(1, 4):
        for lam in (0.5, 0.8, 1.0):
            cfg = SchemeConfig(m=m, lam=lam)
            grid = Grid((Axis(0.0, 1.0, n),) * 2)
            (gather, a), (gather2, b) = ((p.gather, p.matrix) for p in
                                         (_plan(one(grid), q, cfg, "dissipative")
                                          for q in (PRIMAL, DUAL)))
            # the blocks and phases are the plans' own: step one grid mode through each
            r = np.random.default_rng(m).standard_normal(len(a) // 4)
            for plan, mat, shift in ((gather, a, 0), (gather2, b, 1)):
                got = take(mode * r, plan) @ mat
                want = mode * (r @ _symbol(mat, shift, probe))
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (m, lam)
            growth = np.abs(np.linalg.eigvals(_symbol(a, 0, theta) @ _symbol(b, 1, theta)))
            worst = max(worst, growth.max() - 1.0)
    assert worst <= 1e-12


def _grows_linearly(g, squarings=20) -> bool:
    """Whether the powers of g grow at most linearly: ||g^(2k)|| <= 2 (1 +
    1e-6) ||g^k|| at k = 2**squarings. An eigenvalue of modulus 1 + delta
    would break that past delta of about 1e-12 at the default k ~ 1e6."""
    for _ in range(squarings):
        g = g @ g
    return np.linalg.norm(g @ g, 2) <= 2 * (1 + 1e-6) * np.linalg.norm(g, 2)


def test_periodic_3d_symbol_is_stable():
    """No Fourier mode of a periodic 3D dissipative full step grows.

    The symbols are the 2D test's with one K x K block per corner s in
    {0, 1}^3 (`_symbol`), checked first against the plans' own gathers on
    one grid mode of a 4 x 4 x 4 level. The worst max|eig(H1 H2)| - 1 over
    m = 1, 2, lam in {0.5, 0.8, 1} and a 5 x 5 x 5 theta grid on [0, pi]^3
    but theta = 0 reads 3.6e-15 (m = 2, lam = 1).

    At theta = 0 the symbol holds the Jordan block of u = c + t v, whose
    eigenvalue 1 is defective: its computed eigenvalues split by about
    sqrt(eps), and read 1.2e-8 too large at m = 2, lam = 0.8. Its powers
    grow linearly instead, ||H(0)^k|| / k reading 0.50 to 1.0 at k = 2**20
    (`_grows_linearly`), and that is what is checked there.
    """
    n = 4
    theta = np.stack(np.meshgrid(*(np.linspace(0.0, np.pi, 5),) * 3, indexing="ij"),
                     axis=-1).reshape(-1, 3)
    assert not theta[0].any()
    probe = 2 * np.pi * np.array([3, 1, 2]) / n
    mode = np.exp(1j * (np.indices((n,) * 3).reshape(3, -1).T @ probe))[:, None]
    worst = 0.0
    for m in (1, 2):
        for lam in (0.5, 0.8, 1.0):
            cfg = SchemeConfig(m=m, lam=lam)
            grid = Grid((Axis(0.0, 1.0, n),) * 3)
            (gather, a), (gather2, b) = ((p.gather, p.matrix) for p in
                                         (_plan(one(grid), q, cfg, "dissipative")
                                          for q in (PRIMAL, DUAL)))
            # the blocks and phases are the plans' own: step one grid mode through each
            r = np.random.default_rng(m).standard_normal(len(a) // 8)
            for plan, mat, shift in ((gather, a, 0), (gather2, b, 1)):
                got = take(mode * r, plan) @ mat
                want = mode * (r @ _symbol(mat, shift, probe))
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (m, lam)
            g = _symbol(a, 0, theta) @ _symbol(b, 1, theta)
            assert _grows_linearly(g[0]), (m, lam)
            worst = max(worst, np.abs(np.linalg.eigvals(g[1:])).max() - 1.0)
    assert worst <= 1e-12


def _plain_half_step(du, dv, dt, hs, stages):
    """`taylor_half_step` with every series seeded from the full-order
    interpolants of u and v, the plain recursion supplying stage 1 too."""
    ndim, m = len(hs), dv.shape[-1]
    ctab, dtab = expand_taylor(apply_interp(du, ndim), apply_interp(dv, ndim), dt, hs, stages)
    return (eval_series(ctab, 0.5)[(Ellipsis,) + (slice(m + 1),) * ndim],
            eval_series(dtab, 0.5)[(Ellipsis,) + (slice(m),) * ndim])


def test_full_order_seeding_in_2d_is_stable_at_4m_plus_2_stages():
    """Seeding the 2D half step from the full-order u interpolant alone is
    stable at 4m+2 stages, past which the step's own stages are exact
    zeros; cut to the 1D count of 2m it is not.

    The periodic symbol of the plain-seeded map (`_plain_half_step`),
    folded as the library folds its own, reads max |eig(H1 H2)| - 1 of at
    most 6.5e-15 for m = 1..4 and lam in {0.5, 0.8, 0.9, 1} over a 49 x 49
    theta grid on [-pi, pi]^2, and 0.75, 2.60 and 8.37 for m = 1, 2, 3 at
    2m stages and lam = 1, where the library's mixed first stage
    (`_mixed_half_step`, the library's map at full depth) reads 0, 0.49 and
    4.23. Here the theta grid is 5 x 5 on [0, pi]^2, a subset of that grid
    on which the 2m-stage maxima are reached.
    """
    theta, sides = _theta_grid(5), (2, 2)

    def growth(fn, m, lam, stages):
        cfg = SchemeConfig(m=m, lam=lam)
        a = fold(fn, ((m + 1,) * 2, (m,) * 2), sides, cfg.dt(1.0), (1.0, 1.0), stages)
        return _growth_2d(a, theta)

    for m in (1, 2, 3, 4):
        for lam in (0.5, 0.8, 0.9, 1.0):
            assert growth(_plain_half_step, m, lam, 4 * m + 2) <= 1e-14, (m, lam)
    for m, plain, mixed in ((1, 0.75, 0.0), (2, 2.6016, 0.4922), (3, 8.3725, 4.2297)):
        assert abs(growth(_plain_half_step, m, 1.0, 2 * m) - plain) <= 1e-4 * plain, m
        assert abs(growth(_mixed_half_step, m, 1.0, 2 * m) - mixed) <= 1e-4 * mixed + 1e-14, m


def test_m1_damps_the_kappa_2_plane_wave_away_in_2d():
    """The stock planewave2d wave, kappa = 2, is damped away at m = 1, lam = 0.8.

    On a periodic n x n level its data is the Fourier mode theta = 2 pi
    kappa h (1, 1) of the full-step symbol H1 H2, whose spectral radius
    reads 0.760 at n = 10 and 0.963 at n = 22, the coarsest and finest stock
    levels. Over their 52 and 115 full steps to t = 4.18 that leaves at
    most 6.4e-7 and 1.3e-2 of the wave, and the wave's own data, stepped
    through the symbol, keeps 5.8e-7 and 1.26e-2 of its nodal value: the
    README's damped m = 1 plane wave.
    """
    m, kappa, w = 1, 2, 4 * np.pi
    cfg = SchemeConfig(m=m, lam=0.8)
    for n, rho_want, bound in ((10, 0.760, 6.5e-7), (22, 0.963, 1.3e-2)):
        grid = Grid((Axis(0.0, 1.0, n),) * 2)
        a, b = (_plan(one(grid), p, cfg, "dissipative").matrix for p in (PRIMAL, DUAL))
        theta = np.full((1, 2), 2 * np.pi * kappa * grid.h)
        g = (_symbol(a, 0, theta) @ _symbol(b, 1, theta))[0]
        rho = np.abs(np.linalg.eigvals(g)).max()
        nhalf = round(2 * 4.18 / cfg.dt(grid.h))
        assert nhalf % 2 == 0 and abs(rho - rho_want) <= 5e-4, (n, rho)
        assert rho ** (nhalf // 2) <= bound
        # the scaled blocks of e^{i w (x + y + sqrt(2) t)} at a node: u, then h*v, v = u_t
        z = 1j * w * grid.h
        cu = np.array([[z ** (k + l) / math.factorial(k) / math.factorial(l)
                        for l in range(m + 1)] for k in range(m + 1)])
        r = np.concatenate([cu.ravel(), math.sqrt(2.0) * z * cu[:m, :m].ravel()])
        kept = abs((r @ np.linalg.matrix_power(g, nhalf // 2))[0])
        assert kept <= bound * abs(r[0]), (n, kept)
