"""Grid, field and state construction checks and the cached per-axis spacings."""

import math

import numpy as np
import pytest

from hermwave.conservative import step
from hermwave.dissipative import SchemeConfig
from hermwave.grid import DUAL, KINDS, PRIMAL, Axis, Field, Grid, State

from states import fields_of, one, orders, previous_of, two_level, u_of, uv_state

PERIODIC = ("periodic", "periodic")
WALLS = ("dirichlet0", "dirichlet0")
CFG = SchemeConfig(m=2)


@pytest.mark.parametrize("args", [
    (0.0, 1.0, 0) + PERIODIC,    # no cells
    (1.0, 0.0, 3) + PERIODIC,    # reversed domain
    (0.5, 0.5, 3) + WALLS,       # empty domain
])
def test_grid_1d_rejects_bad_inputs(args):
    with pytest.raises(ValueError):
        Grid((Axis(*args),))


@pytest.mark.parametrize("args", [
    (0.0, 1.0, 0.0, 1.0, 0, 3, PERIODIC),   # no x cells
    (0.0, 1.0, 0.0, 1.0, 3, 0, WALLS),      # no y cells
    (1.0, 0.0, 0.0, 1.0, 3, 3, PERIODIC),   # reversed x domain
    (0.0, 1.0, 2.0, 2.0, 3, 3, WALLS),      # empty y domain
])
def test_grid_2d_rejects_bad_inputs(args):
    x0, x1, y0, y1, nx, ny, kinds = args
    with pytest.raises(ValueError):
        Grid((Axis(x0, x1, nx, *kinds), Axis(y0, y1, ny, *kinds)))


def test_axis_kind_validation():
    with pytest.raises(ValueError, match="unknown boundary kind"):
        Axis(0.0, 1.0, 3, "clamped", "clamped")
    with pytest.raises(ValueError, match="both opposing sides"):
        Axis(0.0, 1.0, 3, "periodic", "dirichlet0")
    assert Axis(0.0, 1.0, 3).periodic
    assert not Axis(0.0, 1.0, 3, "dirichlet0", "neumann0").periodic
    assert set(KINDS) == {"periodic", "dirichlet0", "neumann0"}


def test_grid_needs_axes_of_one_kind():
    with pytest.raises(ValueError):
        Grid(())
    with pytest.raises(ValueError):
        Grid((Axis(0.0, 1.0, 3), Axis(0.0, 1.0, 3, *WALLS)))


def test_spacings_are_built_once():
    g1 = Grid((Axis(-1.0, 0.5, 6, *WALLS),))
    g2 = Grid((Axis(0.0, 1.0, 4), Axis(-1.0, 2.0, 5)))
    assert g1.spacings == (g1.axes[0].h,) == (0.25,)
    assert g2.spacings == (g2.axes[0].h, g2.axes[1].h) == (0.25, 0.6)
    assert g1.spacings is g1.spacings
    assert g2.spacings is g2.spacings
    assert not g1.periodic and g2.periodic
    assert g1.shapes == {PRIMAL: (7,), DUAL: (6,)}
    assert g2.shapes == {PRIMAL: (4, 5), DUAL: (4, 5)}


@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_field_needs_one_order_axis_per_node_axis(ndim):
    """Values are (nodes per axis..., order+1 per axis...); any other rank fails at once."""
    grid = Grid((Axis(0.0, 1.0, 3, *WALLS),) * ndim)
    nodes = (4,) * ndim
    field = Field(grid, PRIMAL, 0.0, np.zeros(nodes + (3,) * ndim))
    assert orders(field) == (2,) * ndim
    for shape in (nodes, nodes + (3,) * (ndim + 1), nodes[:-1] + (3,) * (ndim + 1)):
        with pytest.raises(ValueError, match="node shape"):
            Field(grid, PRIMAL, 0.0, np.zeros(shape))
    with pytest.raises(ValueError, match="node shape"):
        Field(grid, DUAL, 0.0, np.zeros(nodes + (3,) * ndim))


def test_field_rejects_unknown_parity():
    grid = Grid((Axis(0.0, 1.0, 3),))
    with pytest.raises(ValueError, match="unknown parity 'bogus'"):
        Field(grid, "bogus", 0.0, np.zeros((3, 2)))


def _random_levels(ndim, rng):
    """u, v on the primal nodes and a previous u level on the dual nodes, m = 2,
    the previous level half a step of CFG before the others."""
    grid = Grid((Axis(0.0, 1.0, 3, *WALLS),) * ndim)
    u = Field(grid, PRIMAL, 0.25, rng.standard_normal(grid.shapes[PRIMAL] + (3,) * ndim))
    v = Field(grid, PRIMAL, 0.25, rng.standard_normal(grid.shapes[PRIMAL] + (2,) * ndim))
    prev = Field(grid, DUAL, 0.25 - 0.5 * CFG.dt(grid.h),
                 rng.standard_normal(grid.shapes[DUAL] + (3,) * ndim))
    return u, v, prev


@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_packed_states_give_back_their_fields(ndim):
    """Packing into node rows and reading back a Field returns the input:
    bit for bit but for v, which the rows carry as h*v and which reads
    back to rounding."""
    u, v, prev = _random_levels(ndim, np.random.default_rng(ndim))
    state = uv_state(u, v)
    nodes = math.prod(u.values.shape[:ndim])
    assert state.rows.shape == (nodes, 3**ndim + 2**ndim)
    np.testing.assert_array_equal(state.rows[:, 3**ndim :],
                                  v.values.reshape(nodes, -1) * u.grid.h)
    got_u, got_v = fields_of(state)
    np.testing.assert_array_equal(got_u.values, u.values)
    np.testing.assert_allclose(got_v.values, v.values, rtol=1e-15, atol=0)
    for got, want in ((got_u, u), (got_v, v)):
        assert (got.grid, got.parity, got.time) == (want.grid, want.parity, want.time)
    state = two_level(u, prev)
    for got, want in zip((u_of(state), previous_of(state, CFG)), (u, prev)):
        np.testing.assert_array_equal(got.values, want.values)
        assert (got.grid, got.parity, got.time) == (want.grid, want.parity, want.time)


@pytest.mark.parametrize("ndim", [1, 2])
def test_packed_state_constructors_check_their_fields(ndim):
    """A state lives on a `Stack`, and its rows and previous rows must have
    its node count of their parity and the column count of its blocks; a
    config of another m than the blocks' fails at the link, naming the
    orders."""
    u, _, prev = _random_levels(ndim, np.random.default_rng(10 + ndim))
    level, cu = u.grid, ((3,) * ndim,)
    grid = one(level)
    rows = u.values.reshape(math.prod(level.shapes[PRIMAL]), -1)
    prow = prev.values.reshape(math.prod(level.shapes[DUAL]), -1)
    State(grid, PRIMAL, 0.25, rows, cu, prow)
    with pytest.raises(TypeError, match=r"Stack\(\[grid\]\)"):
        State(level, PRIMAL, 0.25, rows, cu, prow)
    with pytest.raises(ValueError, match="unknown parity 'bogus'"):
        State(grid, "bogus", 0.25, rows, cu)
    with pytest.raises(ValueError, match="primal rows"):
        State(grid, PRIMAL, 0.25, rows[:, :-1], cu)  # a column short of the blocks
    with pytest.raises(ValueError, match="dual rows"):
        State(grid, DUAL, 0.25, rows, cu)  # the primal count on the dual parity
    with pytest.raises(ValueError, match="dual rows"):
        State(grid, PRIMAL, 0.25, rows, cu, rows)  # a previous level on the same parity
    with pytest.raises(ValueError, match="dual rows"):
        State(grid, PRIMAL, 0.25, rows, cu,  # a previous level of lower orders
              prev.values[(Ellipsis,) + (slice(2),) * ndim].reshape(len(prow), -1))
    for state in (uv_state(u, u), two_level(u, prev)):
        with pytest.raises(ValueError, match=r"state carries orders \(2,"):
            step(state, SchemeConfig(m=3))
