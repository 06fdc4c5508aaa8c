"""Stacked levels: one march of several levels equals each level marched alone."""

import numpy as np
import pytest

from hermwave.boundary import gather_plan, level_gather
from hermwave.conservative import full_step_conservative
from hermwave.dissipative import SchemeConfig, half_step
from hermwave.grid import DUAL, PRIMAL, Axis, Field, FieldPair, Grid, Stack, TwoLevelState

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
        states = [FieldPair(field(g, PRIMAL, m), field(g, PRIMAL, m - 1)) for g in grids]
    else:
        states = [TwoLevelState(field(g, PRIMAL, m), field(g, DUAL, m, -0.1)) for g in grids]
    return grids, states, [35, 25, 19]


def _assert_gathers_equal(head, fresh):
    """Each gather a stepped head stack holds, a prefix of the larger
    stack's, equals the one a fresh stack of its levels builds."""
    keys = [key for key in head.plans if key[0] == "gather"]
    assert keys
    for _, parity, blocks in keys:
        got, want = level_gather(head, parity, blocks), gather_plan(fresh, parity, blocks)
        assert (got.nodes, got.targets) == (want.nodes, want.targets)
        np.testing.assert_array_equal(got.index, want.index)
        assert (got.negate is None) == (want.negate is None)
        if want.negate is not None:
            np.testing.assert_array_equal(got.negate, want.negate)


@pytest.mark.parametrize("scheme", ["dissipative", "conservative"])
@pytest.mark.parametrize("kinds, d, m", CASES, ids=[c[0] + f"-{c[1]}d" for c in CASES])
def test_stack_marches_each_level_as_alone(scheme, kinds, d, m):
    """A stack of 3 levels, popped at each level's end, gives each level's
    fields and time as its own march does, to 1e-12 relative.

    The levels leave from the end; the others stay views of the leading
    rows, on a stack whose gathers are the leading targets of the larger
    stack's, and the stack's v is carried as h*v but popped in its own
    units.
    """
    cfg = SchemeConfig(m=m, lam=0.8)
    step = half_step if scheme == "dissipative" else full_step_conservative
    grids, states, ends = _levels(kinds, d, m, scheme, np.random.default_rng(len(kinds) + d))
    alone = []
    for state, end in zip(states, ends):
        for _ in range(end):
            state = step(state, cfg)
        alone.append(state)

    stack = Stack(grids)
    state, done, got = stack.pack(states), 0, {}
    for i in reversed(range(len(grids))):
        for _ in range(done, ends[i]):
            state = step(state, cfg)
        done = ends[i]
        if state.grid.whole is not None:
            _assert_gathers_equal(state.grid, Stack(state.grid.levels))
        rows = state.rows
        got[i], state = state.grid.pop(state)
        if i:
            assert np.shares_memory(state.rows, rows) and state.grid.levels == stack.levels[:i]
    assert state is None
    for i, (want, have) in enumerate(zip(alone, (got[i] for i in range(len(grids))))):
        assert type(have) is type(want) and have.grid is grids[i]
        assert (have.parity, have.time) == (want.parity, want.time)
        for f_want, f_have in zip(want.fields, have.fields):
            assert f_have.time == f_want.time and f_have.parity == f_want.parity
            scale = np.abs(f_want.values).max()
            assert np.abs(f_have.values - f_want.values).max() <= 1e-12 * scale


def test_stacked_state_counts_its_target_nodes():
    """A stepped stack answers .u.values with one node axis over every
    level's targets, and .v in units of h*v."""
    grids = [Grid((Axis(0.0, 1.0, n), Axis(0.0, 1.0, n))) for n in (5, 4)]
    rng = np.random.default_rng(3)
    states = [FieldPair(*(Field(g, PRIMAL, 0.0, rng.standard_normal(g.shapes[PRIMAL] + (k, k)))
                          for k in (3, 2))) for g in grids]
    stack = Stack(grids)
    out = half_step(stack.pack(states), SchemeConfig(m=2))
    assert out.u.values.shape == (25 + 16, 3, 3) and out.u.orders == (2, 2)
    np.testing.assert_array_equal(out.time, 0.5 * 0.8 * stack.h)
    packed = stack.pack(states)
    np.testing.assert_array_equal(packed.v.values[:25].reshape(5, 5, 2, 2),
                                  states[0].v.values * 0.2)


def test_stack_needs_one_aspect():
    with pytest.raises(ValueError, match="aspect"):
        Stack([Grid((Axis(0.0, 1.0, 4), Axis(0.0, 1.0, 4))),
               Grid((Axis(0.0, 1.0, 4), Axis(0.0, 2.0, 4)))])
    with pytest.raises(ValueError, match="aspect"):
        Stack([Grid((Axis(0.0, 1.0, 4),)), Grid((Axis(0.0, 1.0, 4), Axis(0.0, 1.0, 4)))])


def test_pack_takes_one_state_per_level():
    grids = [Grid((Axis(0.0, 1.0, n),)) for n in (6, 4)]
    states = [FieldPair(*(Field(g, PRIMAL, 0.0, np.zeros(g.shapes[PRIMAL] + (k,))) for k in (3, 2)))
              for g in grids]
    two_level = TwoLevelState(*(Field(grids[1], p, 0.0, np.zeros((4, 3))) for p in (PRIMAL, DUAL)))
    stack = Stack(grids)
    for bad in (states[:1], states[::-1], [states[0], two_level]):
        with pytest.raises(ValueError, match="one state per level"):
            stack.pack(bad)
