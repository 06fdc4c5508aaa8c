"""Stacked levels: one march of several levels equals each level marched alone."""

import math

import numpy as np
import pytest

import level_oracle
from hermwave.boundary import gather_plan
from hermwave.conservative import _plan, bootstrap_first_half, step
from hermwave.diagnostics import _error_plan, l2_error_field, l2_errors_pair
from hermwave.dissipative import SchemeConfig
from hermwave.grid import DUAL, PRIMAL, Axis, Field, Grid, Stack, State, flip

from states import one, orders, two_level, u_of, u_state, uv_state, v_of
from test_conservative import companion
from test_dissipative import _half_symbols_1d

WALLS = {"dirichlet0": ("dirichlet0", "dirichlet0"), "neumann0": ("neumann0", "neumann0"),
         "mixed": ("dirichlet0", "neumann0"), "periodic": ("periodic", "periodic")}
# (edge kinds, number of axes, m); the stack's levels are 3 sizes of one box
CASES = [("dirichlet0", 1, 3), ("neumann0", 1, 3), ("mixed", 1, 2), ("periodic", 2, 2)]


def _levels(kinds, d, m, scheme, rng):
    """Three levels of one box, finest first, each with random start data and
    the half step it ends on (more half steps on finer levels)."""
    grids = [Grid((Axis(-1.0, 1.0, n, *WALLS[kinds]),) * d) for n in (11, 8, 6)]

    def field(grid, parity, order, time=0.0):
        values = rng.standard_normal(grid.shapes[parity] + (order + 1,) * d)
        return Field(grid, parity, time, values)

    if scheme == "dissipative":
        states = [uv_state(field(g, PRIMAL, m), field(g, PRIMAL, m - 1)) for g in grids]
    else:
        states = [two_level(field(g, PRIMAL, m), field(g, DUAL, m, -0.1)) for g in grids]
    return grids, states, [35, 25, 19]


def _pack(stack, states):
    """One state of the stack from one one-level state per level, in stack
    order: the rows, in the same units on both, one level after the other,
    and the first level's time."""
    prev = [s.prev_rows for s in states]
    return State(stack, states[0].parity, states[0].time,
                 np.concatenate([s.rows for s in states]), states[0].blocks,
                 None if prev[0] is None else np.concatenate(prev))


@pytest.mark.parametrize("scheme", ["dissipative", "conservative"])
@pytest.mark.parametrize("kinds, d, m", CASES, ids=[c[0] + f"-{c[1]}d" for c in CASES])
def test_stack_marches_each_level_as_alone(scheme, kinds, d, m):
    """A stack of 3 levels, popped at each level's end, gives each level's
    rows and parity as its own march does, to 1e-12 relative.

    The levels leave from the end, each with a view of its rows; the
    others stay views of the leading rows, on a stack equal to a fresh one
    of their levels, which steps with that one's cached plans.
    """
    cfg = SchemeConfig(m=m, lam=0.8)
    grids, states, ends = _levels(kinds, d, m, scheme, np.random.default_rng(len(kinds) + d))
    alone = []
    for state, end in zip(states, ends):
        for _ in range(end):
            state = step(state, cfg)
        alone.append(state)

    stack = Stack(grids)
    state, done, got = _pack(stack, states), 0, {}
    for i in reversed(range(len(grids))):
        for _ in range(done, ends[i]):
            state = step(state, cfg)
        done = ends[i]
        rows, grid = state.rows, state.grid
        if grid is not stack:  # popped: its step took the fresh stack's plan
            fresh = Stack(grid.levels)
            assert grid == fresh and hash(grid) == hash(fresh)
            assert state.link[2] is _plan(fresh, flip(state.parity), cfg, scheme)
        got[i] = (state.parity,)
        if state.prev_rows is not None:  # a study reads the current level alone
            got[i] += (state.prev_rows[grid.offsets[flip(state.parity)][i] :],)
        last, state = grid.pop(state)
        got[i] = (last,) + got[i]
        assert np.shares_memory(last, rows)
        if i:
            assert np.shares_memory(state.rows, rows) and state.grid.levels == stack.levels[:i]
    assert state is None
    for i, want in enumerate(alone):
        last, parity, *prev = got[i]
        assert parity == want.parity
        if want.prev_rows is None:
            split = math.prod(want.blocks[0])
            parts = [(last[:, :split], want.rows[:, :split]),
                     (last[:, split:], want.rows[:, split:])]
        else:
            parts = [(last, want.rows), (prev[0], want.prev_rows)]
        for have, rows in parts:
            assert np.abs(have - rows).max() <= 1e-12 * np.abs(rows).max()


def test_a_stack_has_one_float_time_its_first_level_s():
    """Bootstrapped, stepped and popped, a 3-level stack's state keeps one
    time, a Python float (the marches digest hashes its repr, which an
    np.float64 would change), bit for bit the time of its first level's own
    one-level march."""
    m, cfg = 3, SchemeConfig(m=3, lam=0.8)
    grids = [Grid((Axis(-1.0, 1.0, n, *WALLS["mixed"]),)) for n in (11, 8, 6)]
    rng = np.random.default_rng(7)
    fields = [[Field(g, PRIMAL, 0.0, rng.standard_normal(g.shapes[PRIMAL] + (m + 1,)))
               for _ in range(2)] for g in grids]
    starts = [uv_state(*f) for f in fields]
    state = bootstrap_first_half(_pack(Stack(grids), starts), cfg)
    alone = bootstrap_first_half(starts[0], cfg)
    assert alone.grid == one(grids[0])
    assert type(state.time) is float and state.time == alone.time == 0.5 * cfg.dt(grids[0].h)
    done = 1
    for end in (19, 25, 35):  # the last half step of each level, coarsest first
        for _ in range(done, end):
            state, alone = step(state, cfg), step(alone, cfg)
            assert type(state.time) is float and state.time == alone.time
        done = end
        _, rest = state.grid.pop(state)
        if rest is not None:
            assert type(rest.time) is float and rest.time == state.time
            state = rest
    assert len(state.grid.levels) == 1
    assert state.time == pytest.approx(35 * 0.5 * cfg.dt(grids[0].h), rel=1e-14)


def test_stacked_state_counts_its_target_nodes():
    """A stepped stack answers .u.values with one node axis over every
    level's targets, and carries v as h*v per level, as its one-level
    stacks do."""
    grids = [Grid((Axis(0.0, 1.0, n), Axis(0.0, 1.0, n))) for n in (5, 4)]
    rng = np.random.default_rng(3)
    states = [uv_state(*(Field(g, PRIMAL, 0.0, rng.standard_normal(g.shapes[PRIMAL] + (k, k)))
                          for k in (3, 2))) for g in grids]
    stack = Stack(grids)
    out = step(_pack(stack, states), SchemeConfig(m=2))
    assert out.u.values.shape == (25 + 16, 3, 3) and orders(out.u) == (2, 2)
    packed = _pack(stack, states)
    np.testing.assert_array_equal(packed.rows[:25, 9:], states[0].rows[:, 9:])
    np.testing.assert_array_equal(packed.rows[25:, 9:], states[1].rows[:, 9:])
    np.testing.assert_allclose(v_of(packed).values[:25].reshape(5, 5, 2, 2),
                               v_of(states[0]).values, rtol=1e-15, atol=0)


@pytest.mark.parametrize("scheme", ["dissipative", "conservative"])
@pytest.mark.parametrize("d", [1, 2])
def test_grids_of_one_aspect_share_one_matrix(scheme, d):
    """The stacks of periodic grids of two sizes, one each and both, all of
    one aspect, hold the one matrix of (scheme, m, lam, aspect) in their
    plans."""
    cfg = SchemeConfig(m=2, lam=0.8)
    grids = [Grid((Axis(0.0, 1.0, n), Axis(0.0, 2.0, n))[:d]) for n in (4, 8)]
    got = [_plan(stack, parity, cfg, scheme)[1]
           for stack in [Stack([g]) for g in grids] + [Stack(grids)]
           for parity in (PRIMAL, DUAL)]
    assert all(a is got[0] for a in got)


def test_stack_needs_one_aspect():
    with pytest.raises(ValueError, match="aspect"):
        Stack([Grid((Axis(0.0, 1.0, 4), Axis(0.0, 1.0, 4))),
               Grid((Axis(0.0, 1.0, 4), Axis(0.0, 2.0, 4)))])
    with pytest.raises(ValueError, match="aspect"):
        Stack([Grid((Axis(0.0, 1.0, 4),)), Grid((Axis(0.0, 1.0, 4), Axis(0.0, 1.0, 4)))])


# (edge kinds, number of axes); 1D walls of both kinds and 2D periodic
BOOT_CASES = [("dirichlet0", 1), ("neumann0", 1), ("periodic", 2)]


@pytest.mark.parametrize("kinds, d", BOOT_CASES, ids=[f"{k}-{d}d" for k, d in BOOT_CASES])
@pytest.mark.parametrize("parity", [PRIMAL, DUAL])
def test_stacked_bootstrap_matches_the_taylor_pipeline(kinds, d, parity):
    """One bootstrap of a 3-level stack gives each level's first half step
    as the per-level Taylor pipeline does, to 1e-12 relative; so does the
    bootstrap of each level's one-level stack."""
    m, rng = 3 if d == 1 else 2, np.random.default_rng(d + len(kinds))
    cfg = SchemeConfig(m=m, lam=0.8)
    grids = [Grid((Axis(-1.0, 1.0, n, *WALLS[kinds]),) * d) for n in (11, 8, 6)]
    fields = [[Field(g, parity, 0.0, rng.standard_normal(g.shapes[parity] + (m + 1,) * d))
               for _ in range(2)] for g in grids]
    stack = Stack(grids)
    start = uv_state(*(Field(stack, parity, 0.0, np.concatenate(
        [f[k].values.reshape((-1,) + (m + 1,) * d) for f in fields])) for k in (0, 1)))
    state = bootstrap_first_half(start, cfg)
    assert np.shares_memory(state.prev_rows, start.rows)
    assert state.parity == flip(parity)
    offsets = stack.offsets[flip(parity)]
    for i, ((u, u_t), grid) in enumerate(zip(fields, grids)):
        want = level_oracle.bootstrap(u, u_t, cfg)
        got = state.rows[offsets[i] : offsets[i + 1]].reshape(want.shape)
        alone = bootstrap_first_half(uv_state(u, u_t), cfg)
        for have in (got, u_of(alone).values):
            assert np.abs(have - want).max() <= 1e-12 * np.abs(want).max()


# (edge kinds, number of axes); the 2D walls mix both kinds on each axis
ERROR_CASES = [("dirichlet0", 1), ("neumann0", 1), ("mixed", 1), ("periodic", 2), ("mixed", 2)]


@pytest.mark.parametrize("kinds, d", ERROR_CASES, ids=[f"{k}-{d}d" for k, d in ERROR_CASES])
@pytest.mark.parametrize("parity", [PRIMAL, DUAL])
@pytest.mark.parametrize("scheme", ["dissipative", "conservative"])
def test_stacked_errors_match_per_level_errors(scheme, kinds, d, parity):
    """One error call on a 3-level stack gives each level's errors as the
    per-level arithmetic does on its one-level state, to 1e-12 relative.

    The levels carry random data, and the exact solution takes each
    level's own time through its
    target rows; a dual level on walls has clipped edge cells (and corners
    in 2D).
    """
    m, rng = 3 if d == 1 else 2, np.random.default_rng([d, len(kinds), len(parity)])
    grids = [Grid((Axis(-1.0, 1.0, n, *WALLS[kinds]),
                   Axis(0.0, 1.5, n, *WALLS[kinds][::-1]))[:d]) for n in (11, 8, 6)]
    times = np.array([0.3, -0.2, 0.7])

    def field(g, order):
        return Field(g, parity, 0.0, rng.standard_normal(g.shapes[parity] + (order + 1,) * d))

    if scheme == "dissipative":
        states = [uv_state(field(g, m), field(g, m - 1)) for g in grids]
    else:
        states = [field(g, m) for g in grids]

    def exact(t, *xs):  # u, u_x and v of sin(x + y + t)
        arg = sum(xs) + t
        return np.sin(arg), np.cos(arg), np.cos(arg)

    stack = Stack(grids)
    if scheme == "dissipative":
        stacked = _pack(stack, states)
    else:
        stacked = u_state(Field(stack, parity, 0.0, np.concatenate(
            [s.values.reshape((-1,) + (m + 1,) * d) for s in states])))
    t = np.repeat(times, np.diff(stack.offsets[flip(parity)])).reshape((-1,) + (1,) * d)
    got = [l2_error_field(stacked, lambda *xs: exact(t, *xs)[0])]
    if scheme == "dissipative" and d == 1:
        got = list(l2_errors_pair(stacked, lambda x: exact(t, x)))
    for i, (state, ti) in enumerate(zip(states, times)):
        if len(got) == 3:
            exacts = [lambda x, j=j: exact(ti, x)[j] for j in range(3)]
        else:
            exacts = [lambda *xs: exact(ti, *xs)[0]]
        want = level_oracle.errors(state, exacts)
        for have, w in zip(got, want):
            assert abs(have[i] - w) <= 1e-12 * w


def test_plans_follow_geometry_not_objects():
    """Stacks of distinct but equal grids get the same cached gathers, step
    plans and error plans, which hold those gathers. The same cells and
    walls on a longer domain get a step plan of their own, whose dt/2
    differs (the matrix is shared), and another wall kind a gather of its
    own, whose reflected slots differ."""
    cfg = SchemeConfig(m=2, lam=0.8)

    def stack(x_right=1.0, right="dirichlet0"):
        return Stack([Grid((Axis(0.0, x_right, 5, "dirichlet0", right),))])

    first, second = stack(), stack()
    assert first.levels[0] is not second.levels[0] and first == second
    for parity in (PRIMAL, DUAL):
        for scheme, blocks in (("dissipative", ((3,), (2,))), ("conservative", ((3,),))):
            assert gather_plan(first, parity, blocks) is gather_plan(second, parity, blocks)
            assert _plan(first, parity, cfg, scheme) is _plan(second, parity, cfg, scheme)
            pair = scheme == "dissipative"
            errors = _error_plan(first, parity, blocks, 6, pair)
            assert _error_plan(second, parity, blocks, 6, pair) is errors
            assert errors[0] is gather_plan(second, parity, blocks)
    plan = _plan(first, PRIMAL, cfg, "conservative")
    longer = _plan(stack(x_right=2.0), PRIMAL, cfg, "conservative")
    assert longer is not plan and longer[1] is plan[1]
    assert longer[2] == pytest.approx(2 * plan[2], rel=1e-15)
    walls = gather_plan(first, DUAL, ((3,),))
    mixed = gather_plan(stack(right="neumann0"), DUAL, ((3,),))
    assert mixed is not walls and np.array_equal(mixed.index, walls.index)
    assert not np.array_equal(mixed.negate, walls.negate)


# a 3-level periodic 1D stack at m = 2, lam = 0.5, finest first: the
# conserve1d level (30 cells on [-pi, pi]) and two coarser ones, each with
# the half step it leaves on
ORACLE_LEVELS, ORACLE_ENDS = (30, 20, 12), (10_000, 5_001, 2_000)


@pytest.mark.parametrize("scheme, bound", [("dissipative", 1e-12), ("conservative", 1e-10)])
def test_popped_levels_match_the_symbol_march(scheme, bound):
    """Each level of a periodic stack marched through its pops equals its
    start rows marched in Fourier space: the FFT along the nodes, times the
    plans' half-step symbols per theta, H1 from primal nodes and H2 from
    dual ones (`_half_symbols_1d`, in `companion` form for a two-level
    state), (H1 H2)^(N//2) by repeated squaring, then H1 if N is odd, and
    the inverse FFT. This path shares no gather with the march and reaches
    conserve1d's 10^4 half steps.

    The worst difference over the max of a level's rows reads 1.6e-14
    (dissipative) and 8.6e-12 (conservative) at this seed, at most 3.7e-14
    and 5.7e-11 over seeds 0-7: the conservative march grows its mean mode
    linearly, and its rounding with it. The bounds are 1e-12 and 1e-10.
    """
    m, cfg = 2, SchemeConfig(m=2, lam=0.5)
    grids = [Grid((Axis(-np.pi, np.pi, n),)) for n in ORACLE_LEVELS]
    stack, rng = Stack(grids), np.random.default_rng(5)
    k = 2 * m + 1 if scheme == "dissipative" else m + 1
    starts = [rng.standard_normal((n, k)) for n in ORACLE_LEVELS]
    prevs = None if scheme == "dissipative" else [rng.standard_normal((n, k))
                                                 for n in ORACLE_LEVELS]
    blocks = ((m + 1,), (m,)) if scheme == "dissipative" else ((m + 1,),)
    state = State(stack, PRIMAL, 0.0, np.concatenate(starts), blocks,
                  None if prevs is None else np.concatenate(prevs))
    got, done = {}, 0
    for i in reversed(range(len(grids))):
        for _ in range(done, ORACLE_ENDS[i]):
            state = step(state, cfg)
        done, grid = ORACLE_ENDS[i], state.grid
        got[i] = state.rows[grid.offsets[state.parity][i] :]
        if prevs is not None:
            got[i] = np.concatenate(
                (got[i], state.prev_rows[grid.offsets[flip(state.parity)][i] :]), axis=1)
        _, state = grid.pop(state)

    a, b = (_plan(stack, parity, cfg, scheme)[1] for parity in (PRIMAL, DUAL))
    worst = 0.0
    for i, n in enumerate(ORACLE_LEVELS):
        h1, h2 = _half_symbols_1d(a, b, 2 * np.pi * np.arange(n)[:, None, None] / n)
        start = starts[i]
        if prevs is not None:
            h1, h2, start = companion(h1), companion(h2), np.concatenate((start, prevs[i]), axis=1)
        march = np.linalg.matrix_power(h1 @ h2, ORACLE_ENDS[i] // 2)
        if ORACLE_ENDS[i] % 2:
            march = march @ h1
        want = np.fft.ifft(np.einsum("tk,tkl->tl", np.fft.fft(start, axis=0), march), axis=0)
        worst = max(worst, np.abs(got[i] - want).max() / np.abs(want).max())
    assert worst <= bound, worst
