"""Folded steppers against the interpolation/Taylor/two-level pipeline.

Each stepper multiplies the gathered flanking data by one cached matrix
built from the pipeline; here the pipeline itself runs on the same
gathered data and the two must agree to rounding.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import level_oracle
import matrix_oracle
from hermwave.conservative import _bootstrap_matrix, _plan, _update_matrix, step
from hermwave.diagnostics import default_npts, error_matrix
from hermwave.dissipative import SchemeConfig, _packed_matrix, fold, rows, taylor_half_step
from hermwave.grid import DUAL, PRIMAL, Axis, Field, Grid, Stack, flip
from hermwave.interp import apply_interp

from level_oracle import conservative_update, pair_sources
from matrix_oracle import block_fold, packed, same_bits
from states import one, previous_of, two_level, u_of, uv_state, v_of

WALLS = ("dirichlet0", "neumann0")
PERIODIC = ("periodic", "periodic")


@st.composite
def _kinds(draw, periodic):
    """One axis's (left, right) kinds: periodic, or two drawn walls."""
    if periodic:
        return PERIODIC
    return draw(st.sampled_from(WALLS)), draw(st.sampled_from(WALLS))


def _grid(ndim, kx=PERIODIC, ky=PERIODIC):
    """A 1D grid of 5 cells, or a 2D one of 4 x 3 cells with a longer y side."""
    if ndim == 1:
        return Grid((Axis(-1.0, 0.7, 5, *kx),))
    return Grid((Axis(-1.0, 0.7, 4, *kx), Axis(0.0, 1.3, 3, *ky)))


def _drawn_grid(ndim, periodic, data):
    """`_grid` with each axis's kinds drawn by `_kinds`."""
    return _grid(ndim, *(data.draw(_kinds(periodic)) for _ in range(ndim)))


def _random_field(grid, parity, k, rng):
    """Order-(k-1) random data per axis on every node of `parity`."""
    nodes = grid.shapes[parity]
    return Field(grid, parity, 0.0, rng.standard_normal(nodes + (k,) * len(nodes)))


def _assert_close(got, want):
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(1, 4),
    lam=st.floats(0.0, 1.0, exclude_min=True),
    periodic=st.booleans(),
    parity=st.sampled_from((PRIMAL, DUAL)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_folded_steps_match_pipeline(m, lam, periodic, parity, seed, data):
    rng = np.random.default_rng(seed)
    cfg = SchemeConfig(m=m, lam=lam)
    target = flip(parity)

    grid = _drawn_grid(1, periodic, data)
    (h,) = grid.spacings
    u = _random_field(grid, parity, m + 1, rng)
    v = _random_field(grid, parity, m, rng)
    prev = rng.standard_normal(grid.shapes[target] + (m + 1,))
    du, _ = pair_sources(u)
    dv, _ = pair_sources(v)
    got = step(uv_state(u, v), cfg)
    want = taylor_half_step(du, dv, cfg.dt(h), (h,))
    _assert_close(u_of(got).values, want[0])
    _assert_close(v_of(got).values, want[1])
    got = step(two_level(u, Field(grid, target, 0.0, prev)), cfg)
    _assert_close(u_of(got).values,
                  conservative_update(apply_interp(du), prev, m, cfg.dt(h), (h,)))

    grid = _drawn_grid(2, periodic, data)
    u = _random_field(grid, parity, m + 1, rng)
    v = _random_field(grid, parity, m, rng)
    prev = rng.standard_normal(grid.shapes[target] + (m + 1, m + 1))
    du, _, _ = pair_sources(u)
    dv, _, _ = pair_sources(v)
    hx, hy = grid.spacings
    dt = cfg.dt(min(hx, hy))
    got = step(uv_state(u, v), cfg)
    want = taylor_half_step(du, dv, dt, (hx, hy))
    _assert_close(u_of(got).values, want[0])
    _assert_close(v_of(got).values, want[1])
    got = step(two_level(u, Field(grid, target, 0.0, prev)), cfg)
    _assert_close(u_of(got).values,
                  conservative_update(apply_interp(du, 2), prev, m, dt, (hx, hy)))


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 4),
    lam=st.floats(0.0, 1.0, exclude_min=True),
    two_d=st.booleans(),
    periodic=st.booleans(),
    parity=st.sampled_from((PRIMAL, DUAL)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_steps_keep_inputs_and_conservative_step_reverses(m, lam, two_d, periodic, parity,
                                                          seed, data):
    """Gathers and steppers leave their inputs untouched, and stepping back returns.

    The wall gathers write their ghosts in place into the gathered copy,
    which must never alias the level it reads. Swapping the two levels of a
    conservative step and stepping again gives back the previous level:
    A g(cur) - (A g(cur) - prev). Over 1500 random draws of this set-up the
    largest relative rounding was 7.7e-14, so 1e-12 leaves a margin of 13.
    """
    rng = np.random.default_rng(seed)
    cfg = SchemeConfig(m=m, lam=lam)
    ndim = 1 + two_d
    grid = _drawn_grid(ndim, periodic, data)
    u = _random_field(grid, parity, m + 1, rng)
    v = _random_field(grid, parity, m, rng)
    prev = _random_field(grid, flip(parity), m + 1, rng)
    kept = [f.values.copy() for f in (u, v, prev)]

    pair_sources(u)
    pair_sources(v)
    step(uv_state(u, v), cfg)
    s1 = step(two_level(u, prev), cfg)
    for field, before in zip((u, v, prev), kept):
        assert np.array_equal(field.values, before)

    back = step(two_level(previous_of(s1, cfg), u_of(s1)), cfg)
    assert np.abs(u_of(back).values - prev.values).max() <= 1e-12 * np.abs(prev.values).max()


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(1, 4),
    lam=st.floats(0.0, 1.0, exclude_min=True),
    periodic=st.booleans(),
    parity=st.sampled_from((PRIMAL, DUAL)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_packed_plan_matches_two_block_form(m, lam, periodic, parity, seed, data):
    """A half step through a level's packed u | v plan equals the per-field blocks.

    The plan gathers u and h*v with one take and multiplies by the `fold`
    of the aspect, in packed row order; the per-field blocks are the
    oracle's `block_fold`, and only the summation order differs from
    rows(du) @ a_u + rows(h dv) @ a_v. A conservative plan on the same
    grid, parity and config must not be handed to the dissipative stepper
    or back.
    """
    rng = np.random.default_rng(seed)
    cfg = SchemeConfig(m=m, lam=lam)
    for ndim in (1, 2):
        grid = _drawn_grid(ndim, periodic, data)
        u = _random_field(grid, parity, m + 1, rng)
        v = _random_field(grid, parity, m, rng)
        prev = _random_field(grid, flip(parity), m + 1, rng)
        du = pair_sources(u)[0]
        dv = pair_sources(v)[0]
        hs = grid.spacings
        dt = cfg.dt(min(hs))
        a_u, a_v = block_fold(taylor_half_step, (du.shape[ndim:], dv.shape[ndim:]),
                              cfg.dt(1.0), grid.aspect)
        want = rows(du, ndim) @ a_u + rows(dv * grid.h, ndim) @ a_v
        want_c = conservative_update(apply_interp(du, ndim), prev.values, m, dt, hs)
        for _ in range(2):
            new = step(uv_state(u, v), cfg).rows
            assert np.abs(new - want).max() <= 1e-14 * np.abs(want).max()
            got_c = step(two_level(u, prev), cfg)
            _assert_close(u_of(got_c).values, want_c)


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("parity", [PRIMAL, DUAL])
def test_stepper_outputs_expose_target_node_values(ndim, periodic, parity):
    """Each step's result reads as a field on the target nodes.

    A benchmark counts half-step target nodes from `.u.values` of a result
    of either scheme, a dissipative state's u or a conservative one's
    current level, as the product of its leading half of axes: on a
    one-level stack, one axis of the level's target nodes.
    """
    rng = np.random.default_rng(ndim)
    m = 2
    cfg = SchemeConfig(m=m)
    kinds = PERIODIC if periodic else ("dirichlet0", "neumann0")
    grid = _grid(ndim, kinds, kinds)
    target = flip(parity)
    u = _random_field(grid, parity, m + 1, rng)
    v = _random_field(grid, parity, m, rng)
    prev = _random_field(grid, target, m + 1, rng)
    for state in (step(uv_state(u, v), cfg), step(two_level(u, prev), cfg)):
        field = state.u
        assert field.parity == target
        assert field.values.shape[: field.values.ndim // 2] == (math.prod(grid.shapes[target]),)


def _oracle_half_step(u, v, cfg):
    """One dissipative half step on fields: per-field gathers and `block_fold`
    blocks of the aspect, v carried as h*v, as a state's rows carry it."""
    grid = u.grid
    ndim = len(grid.axes)
    du = pair_sources(u)[0]
    dv = pair_sources(v)[0]
    a_u, a_v = block_fold(taylor_half_step, (du.shape[ndim:], dv.shape[ndim:]), cfg.dt(1.0),
                          grid.aspect)
    new = rows(du, ndim) @ a_u + rows(dv, ndim) @ a_v
    k = new.shape[1] - v.values[(0,) * ndim].size
    target, t = flip(u.parity), u.time + 0.5 * cfg.dt(grid.h)
    nodes = grid.shapes[target]
    return (Field(grid, target, t, new[:, :k].reshape(nodes + u.values.shape[ndim:])),
            Field(grid, target, t, new[:, k:].reshape(nodes + v.values.shape[ndim:])))


def _oracle_full_step(cur, prev, cfg):
    """One conservative step on fields: a gather, the `fold` of the aspect,
    minus prev."""
    grid = cur.grid
    ndim = len(grid.axes)
    dc = pair_sources(cur)[0]
    a = fold(level_oracle.update, ((cfg.m + 1,) * ndim,), (2,) * ndim, cfg.m, cfg.dt(1.0),
             grid.aspect)
    new = (rows(dc, ndim) @ a).reshape(prev.values.shape) - prev.values
    return Field(grid, prev.parity, cur.time + 0.5 * cfg.dt(grid.h), new), cur


@pytest.mark.parametrize("ndim", [1, 2])
def test_200_packed_steps_match_field_oracle(ndim):
    """Steppers that hand packed rows from step to step track a Field-level oracle.

    200 dissipative half steps at m = 3 and 200 conservative steps at m = 2,
    both between Dirichlet and Neumann walls on every axis, from random
    data; both oracles fold their map at the unit spacing of the aspect,
    and the dissipative one's v Field holds h*v, as the rows do. The packed
    and oracle maps differ only in summation order: over 200 seeds of this
    set-up the largest relative difference was 1.8e-14 (1D) and 4.1e-14
    (2D) for the dissipative steps, and 0 for the conservative ones.
    """
    rng = np.random.default_rng(200 + ndim)
    walls = ("dirichlet0", "neumann0")
    grid = _grid(ndim, walls, walls)
    cfg = SchemeConfig(m=3, lam=0.9)
    u = _random_field(grid, PRIMAL, 4, rng)
    v = _random_field(grid, PRIMAL, 3, rng)
    pair = uv_state(u, v)
    v = Field(grid, PRIMAL, 0.0, v.values * grid.h)
    for _ in range(200):
        pair = step(pair, cfg)
        u, v = _oracle_half_step(u, v, cfg)
    for got, want in zip(np.split(pair.rows, [u.values[(0,) * ndim].size], axis=1), (u, v)):
        assert (pair.parity, pair.time) == (want.parity, want.time)
        want = rows(want.values, ndim)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    cfg = SchemeConfig(m=2, lam=0.9)
    cur = _random_field(grid, PRIMAL, 3, rng)
    prev = _random_field(grid, DUAL, 3, rng)
    state = two_level(cur, prev)
    for _ in range(200):
        state = step(state, cfg)
        cur, prev = _oracle_full_step(cur, prev, cfg)
    for got, want in zip((u_of(state), previous_of(state, cfg)), (cur, prev)):
        assert (got.parity, got.time) == (want.parity, want.time)
        assert np.abs(got.values - want.values).max() <= 1e-13 * np.abs(want.values).max()


@pytest.mark.parametrize("d, ms", [(1, range(1, 5)), (2, range(1, 4)), (3, range(1, 3))])
def test_conservative_plan_is_the_folded_update(d, ms):
    """The conservative plan's matrix, twice the u rows of the folded
    bootstrap, is bit for bit the `fold` of the update oracle
    (`level_oracle.conservative_update`) at the unit spacing of the aspect:
    on a stack of one level of unequal real spacings and on a `Stack` of
    two such levels.

    With u_t = 0 every bootstrap stage past the update's 2dm is exactly
    zero, so the two series sum the same terms in the same order.
    """
    sides = [(1.7, 5), (1.3, 3), (0.9, 4)][:d]
    grid = Grid(tuple(Axis(0.0, length, n) for length, n in sides))
    stack = Stack([grid, Grid(tuple(Axis(0.0, length, 2 * n) for length, n in sides))])
    for m in ms:
        for lam in (0.5, 0.8, 1.0):
            cfg = SchemeConfig(m=m, lam=lam)
            for levels in (one(grid), stack):
                want = fold(level_oracle.update, ((m + 1,) * d,), (2,) * d, m, cfg.dt(1.0),
                            levels.aspect)
                got = _plan(levels, PRIMAL, cfg, "conservative")[1]
                assert np.array_equal(got, want), (m, lam, levels)


def test_fold_is_one_read_only_matrix_in_the_gathered_layout():
    """`fold` returns one read-only matrix whose rows are laid out as `take`
    gathers a row: per side, the fields packed. Its row r is the map of the
    unit row r, and it is the oracle's per-field blocks, stacked and
    permuted (`matrix_oracle.packed`), bit for bit."""
    cfg = SchemeConfig(m=2, lam=0.8)
    blocks, sides, args = ((3, 3), (2, 2)), (2, 2), (cfg.dt(1.0), (1.0, 1.5))
    a = fold(taylor_half_step, blocks, sides, *args)
    assert isinstance(a, np.ndarray) and not a.flags.writeable
    assert a.shape == (4 * 13, 13)
    row = np.zeros(4 * 13)
    row[13 + 9 + 2] = 1.0  # side (0, 1), v coefficient (1, 0)
    dv = np.zeros((1, 2, 2, 2, 2))
    dv[0, 0, 1, 1, 0] = 1.0
    out = taylor_half_step(np.zeros((1, 2, 2, 3, 3)), dv, *args)
    np.testing.assert_allclose(row @ a, np.concatenate([o.ravel() for o in out]),
                               rtol=0, atol=1e-15)
    shapes = tuple(sides + b for b in blocks)
    assert same_bits(a, packed(block_fold(taylor_half_step, shapes, *args), sides))


STEP_CASES = [(d, m) for d, top in ((1, 6), (2, 6), (3, 2)) for m in range(1, top + 1)]


@pytest.mark.parametrize("d, m", STEP_CASES)
def test_every_step_matrix_keeps_the_per_block_bits(d, m):
    """Every step (u | v) and bootstrap (u | u_t) `_packed_matrix`, every B
    (`_bootstrap_matrix`) and every 2 B_u (`_update_matrix`) equals, bit for
    bit and signs of zero included, the oracle's per-field blocks stacked
    and permuted into the gathered layout, and B and 2 B_u its slices; at
    lam 0.5, 0.8 and 1, at a unit aspect and at (1, 1.5, 1.25) cut to d."""
    cu, cv, sides = (m + 1,) * d, (m,) * d, (2,) * d
    nu = math.prod(cu)
    for hs in {(1.0,) * d, (1.0, 1.5, 1.25)[:d]}:
        for lam in (0.5, 0.8, 1.0):
            for blocks in ((cu, cv), (cu, cu)):
                want = packed(block_fold(taylor_half_step, tuple(sides + b for b in blocks),
                                         lam, hs), sides)
                assert same_bits(_packed_matrix(blocks, lam, hs), want), (hs, lam)
            b = want[:, :nu]
            assert same_bits(_bootstrap_matrix(m, lam, hs), b), (hs, lam)
            u_rows = b.reshape(2**d, 2, nu, nu)[:, 0].reshape(-1, nu)
            assert same_bits(_update_matrix(m, lam, hs), 2.0 * u_rows), (hs, lam)


@pytest.mark.parametrize("d, m", [(d, m) for d in (1, 2) for m in range(1, 5)])
def test_error_matrices_match_the_einsum_oracle(d, m):
    """Every `error_matrix`, for each mix of cell kinds, u | v rows with
    `pair` both ways and u rows alone, is the oracle's tensor product of
    per-axis evaluation matrices placed in its fields' rows
    (`matrix_oracle.error_matrix`) to 1e-15 of its largest entry; the
    largest difference read 8.4e-16. Both are read through the rounding of
    different sums: the fold interpolates, then evaluates axis by axis."""
    cu, cv, npts = (m + 1,) * d, (m,) * d, default_npts(m)
    for kinds in itertools.product(range(3), repeat=d):
        for blocks, pair in (((cu, cv), True), ((cu, cv), False), ((cu,), False)):
            got = error_matrix(blocks, npts, kinds, pair)
            want = matrix_oracle.error_matrix(blocks, npts, kinds, pair)
            assert not got.flags.writeable and got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), (kinds, blocks, pair)
