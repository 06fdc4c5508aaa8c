"""Folded steppers against the interpolation/Taylor/two-level pipeline.

Each stepper multiplies the gathered flanking data by one cached matrix
built from the pipeline; here the pipeline itself runs on the same
gathered data and the two must agree to rounding.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hermwave.boundary import BoundarySpec, BoundarySpec2D, corner_sources, pair_sources
from hermwave.conservative import (
    conservative_update_1d,
    conservative_update_2d,
    full_step_conservative,
)
from hermwave.dissipative import (
    SchemeConfig,
    half_step_1d,
    half_step_2d,
    taylor_half_step_1d,
    taylor_half_step_2d,
)
from hermwave.grid import DUAL, PRIMAL, Field1D, Field2D, FieldPair, Grid1D, Grid2D, TwoLevelState, flip
from hermwave.interp import apply_interp, apply_interp_2d

WALLS = ("dirichlet0", "neumann0")


@st.composite
def _axis_spec(draw, periodic):
    if periodic:
        return BoundarySpec()
    value = st.floats(-2.0, 2.0)
    return BoundarySpec(draw(st.sampled_from(WALLS)), draw(st.sampled_from(WALLS)),
                        draw(value), draw(value))


def _assert_close(got, want):
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(1, 4),
    lam=st.floats(0.0, 1.0, exclude_min=True),
    speed=st.floats(0.5, 2.0),
    periodic=st.booleans(),
    parity=st.sampled_from((PRIMAL, DUAL)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_folded_steps_match_pipeline(m, lam, speed, periodic, parity, seed, data):
    rng = np.random.default_rng(seed)
    cfg = SchemeConfig(m=m, lam=lam, speed=speed)
    target = flip(parity)

    grid = Grid1D(-1.0, 0.7, 5, periodic)
    bc = data.draw(_axis_spec(periodic))
    n, nt = grid.n_nodes(parity), grid.n_nodes(target)
    u = Field1D(grid, parity, 0.0, rng.standard_normal((n, m + 1)))
    v = Field1D(grid, parity, 0.0, rng.standard_normal((n, m)))
    prev = rng.standard_normal((nt, m + 1))
    du, _ = pair_sources(u, bc)
    dv, _ = pair_sources(v, bc, dirichlet_values=(0.0, 0.0))
    got = half_step_1d(FieldPair(u, v), cfg, bc)
    want = taylor_half_step_1d(du, dv, cfg.dt(grid.h), grid.h, speed, cfg.stages_1d())
    _assert_close(got.u.values, want[0])
    _assert_close(got.v.values, want[1])
    got = full_step_conservative(TwoLevelState(u, Field1D(grid, target, 0.0, prev)), cfg, bc)
    _assert_close(got.current.values,
                  conservative_update_1d(apply_interp(du), prev, cfg, grid.h))

    grid = Grid2D(-1.0, 0.7, 0.0, 1.3, 4, 3, periodic)
    bc = BoundarySpec2D(data.draw(_axis_spec(periodic)), data.draw(_axis_spec(periodic)))
    nodes = (grid.axis(0).n_nodes(parity), grid.axis(1).n_nodes(parity))
    targets = (grid.axis(0).n_nodes(target), grid.axis(1).n_nodes(target))
    u = Field2D(grid, parity, 0.0, rng.standard_normal(nodes + (m + 1, m + 1)))
    v = Field2D(grid, parity, 0.0, rng.standard_normal(nodes + (m, m)))
    prev = rng.standard_normal(targets + (m + 1, m + 1))
    du, _, _ = corner_sources(u, bc)
    dv, _, _ = corner_sources(v, bc, dirichlet_values=(0.0, 0.0))
    hx, hy = grid.hx, grid.hy
    got = half_step_2d(FieldPair(u, v), cfg, bc)
    want = taylor_half_step_2d(du, dv, cfg.dt(min(hx, hy)), hx, hy, speed, cfg.stages_2d())
    _assert_close(got.u.values, want[0])
    _assert_close(got.v.values, want[1])
    got = full_step_conservative(TwoLevelState(u, Field2D(grid, target, 0.0, prev)), cfg, bc)
    _assert_close(got.current.values,
                  conservative_update_2d(apply_interp_2d(du), prev, cfg, hx, hy))
