"""Wall reflections, ghost values, and flanking-node gathers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermwave.boundary import BoundarySpec, gather_plan, ghost_data, pair_sources, take
from hermwave.grid import DUAL, PRIMAL, Axis, Field, Grid
from hermwave.interp import apply_interp


def test_dirichlet_reflection_first_order():
    out = ghost_data(np.array([2.0, 3.0]), "dirichlet0")
    np.testing.assert_array_equal(out, [-2.0, 3.0])


def test_neumann_reflection_first_order():
    out = ghost_data(np.array([2.0, 3.0]), "neumann0")
    np.testing.assert_array_equal(out, [2.0, -3.0])


def test_dirichlet_constant_value_shifts_leading_coeff():
    out = ghost_data(np.array([2.0, 3.0, -1.0]), "dirichlet0", value=5.0)
    np.testing.assert_array_equal(out, [-2.0 + 10.0, 3.0, 1.0])


_dyadic = st.integers(-2**20, 2**20).map(lambda k: k / 2**10)


@pytest.mark.parametrize("kind", ["dirichlet0", "neumann0"])
@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 4), value=_dyadic, seed=st.integers(0, 2**32 - 1))
def test_reflection_is_an_involution(kind, m, value, seed):
    """Reflecting twice returns the data bit for bit, in 1D and across any 2D or 3D edge.

    Data and Dirichlet values are dyadic (k / 2**10, |k| <= 2**20), so the
    shift 2 value - c_0 and its reflection are exact; with generic floats
    it rounds in about four draws of five.
    """
    rng = np.random.default_rng(seed)
    data = rng.integers(-2**20, 2**20, size=(3, m + 1, m, m + 2), endpoint=True) / 2**10
    blocks = data[..., 0, 0]  # 1D node data (3, m+1)
    assert np.array_equal(ghost_data(ghost_data(blocks, kind, value), kind, value), blocks)
    for ndim, block in ((2, data[..., 0]), (3, data)):
        for axis in range(ndim):
            once = ghost_data(block, kind, value, axis, ndim)
            assert np.array_equal(ghost_data(once, kind, value, axis, ndim), block)


def test_periodic_kind_has_no_reflection():
    with pytest.raises(ValueError):
        ghost_data(np.zeros(3), "periodic")


@pytest.mark.parametrize("mu", [1, 2, 3, 4])
def test_wall_interpolant_parity(mu):
    """Boundary-centered interpolants drop the matching parity.

    Dirichlet ghosts make the interpolant odd about the wall, Neumann
    ghosts make it even; the suppressed coefficients sit at roundoff.
    """
    rng = np.random.default_rng(40 + mu)
    b = rng.standard_normal(mu + 1)
    scale = np.abs(b).max()
    cd = apply_interp(np.stack([ghost_data(b, "dirichlet0"), b]))
    assert np.abs(cd[0::2]).max() <= 1e-13 * scale
    cn = apply_interp(np.stack([ghost_data(b, "neumann0"), b]))
    assert np.abs(cn[1::2]).max() <= 1e-13 * scale


def test_2d_reflection_separable():
    # the normal-axis reflection acts on every tangential column alike
    rng = np.random.default_rng(2)
    block = rng.standard_normal((3, 4))
    for kind in ("dirichlet0", "neumann0"):
        out = ghost_data(block, kind, axis=0, ndim=2)
        for l in range(4):
            np.testing.assert_array_equal(out[:, l], ghost_data(block[:, l], kind))
        out_y = ghost_data(block, kind, axis=1, ndim=2)
        for k in range(3):
            np.testing.assert_array_equal(out_y[k, :], ghost_data(block[k, :], kind))


def test_2d_dirichlet_value_hits_corner_only():
    block = np.zeros((2, 2))
    out = ghost_data(block, "dirichlet0", value=3.0, axis=1, ndim=2)
    want = np.zeros((2, 2))
    want[0, 0] = 6.0
    np.testing.assert_array_equal(out, want)


def test_boundary_spec_validation():
    with pytest.raises(ValueError):
        BoundarySpec(left="clamped", right="clamped")
    with pytest.raises(ValueError):
        BoundarySpec(left="periodic", right="dirichlet0")
    assert BoundarySpec().periodic
    assert not BoundarySpec("dirichlet0", "neumann0").periodic


def _line(x_left, x_right, n, periodic):
    """A 1D grid and its one axis."""
    axis = Axis(x_left, x_right, n, periodic)
    return Grid((axis,)), axis


def _field_1d(parity, grid, mu, rng):
    shape = grid.shapes[parity] + (mu + 1,)
    return Field(grid, parity, 0.0, rng.standard_normal(shape))


def test_periodic_gather_is_index_wrap():
    rng = np.random.default_rng(3)
    grid, axis = _line(-1.0, 1.0, 6, periodic=True)
    spec = (BoundarySpec(),)
    f = _field_1d(PRIMAL, grid, 2, rng)
    data, centers = pair_sources(f, spec)
    assert data.shape == (6, 2, 3)
    # primal targets are the dual nodes; flanks are (i, i+1 mod n)
    assert np.array_equal(data[:, 0], f.values)
    assert np.array_equal(data[:, 1], np.roll(f.values, -1, axis=0))
    np.testing.assert_allclose(centers, axis.nodes(DUAL))

    g = _field_1d(DUAL, grid, 1, rng)
    data, centers = pair_sources(g, spec)
    assert np.array_equal(data[:, 0], np.roll(g.values, 1, axis=0))
    assert np.array_equal(data[:, 1], g.values)
    np.testing.assert_allclose(centers, axis.nodes(PRIMAL))


def test_wall_gather_primal_needs_no_ghosts():
    rng = np.random.default_rng(5)
    grid, _ = _line(0.0, 1.0, 4, periodic=False)
    spec = (BoundarySpec("dirichlet0", "neumann0"),)
    f = _field_1d(PRIMAL, grid, 1, rng)  # 5 nodes
    data, centers = pair_sources(f, spec)
    assert data.shape == (4, 2, 2)
    assert np.array_equal(data[:, 0], f.values[:-1])
    assert np.array_equal(data[:, 1], f.values[1:])


def test_wall_gather_dual_builds_ghosts():
    rng = np.random.default_rng(6)
    grid, axis = _line(0.0, 1.0, 4, periodic=False)
    spec = (BoundarySpec("dirichlet0", "neumann0"),)
    f = _field_1d(DUAL, grid, 2, rng)  # 4 interior nodes
    data, centers = pair_sources(f, spec)
    assert data.shape == (5, 2, 3)
    np.testing.assert_allclose(centers, axis.nodes(PRIMAL))
    # edge targets pair a reflected ghost with the first/last interior node
    np.testing.assert_array_equal(data[0, 0], ghost_data(f.values[0], "dirichlet0"))
    np.testing.assert_array_equal(data[0, 1], f.values[0])
    np.testing.assert_array_equal(data[-1, 1], ghost_data(f.values[-1], "neumann0"))
    np.testing.assert_array_equal(data[-1, 0], f.values[-1])
    # interior targets are plain flanking pairs
    np.testing.assert_array_equal(data[1:-1, 0], f.values[:-1])
    np.testing.assert_array_equal(data[1:-1, 1], f.values[1:])


def test_gather_dirichlet_value_override():
    rng = np.random.default_rng(7)
    grid, _ = _line(0.0, 1.0, 3, periodic=False)
    spec = (BoundarySpec("dirichlet0", "dirichlet0", left_value=2.0, right_value=-1.0),)
    f = _field_1d(DUAL, grid, 1, rng)
    data, _ = pair_sources(f, spec)
    np.testing.assert_array_equal(data[0, 0], ghost_data(f.values[0], "dirichlet0", 2.0))
    # a velocity field reflects around zero regardless of the wall datum
    data0, _ = pair_sources(f, spec, dirichlet_values=(0.0, 0.0))
    np.testing.assert_array_equal(data0[0, 0], ghost_data(f.values[0], "dirichlet0"))


def test_gather_periodicity_mismatch():
    rng = np.random.default_rng(8)
    grid, _ = _line(0.0, 1.0, 3, periodic=True)
    f = _field_1d(PRIMAL, grid, 1, rng)
    with pytest.raises(ValueError, match="periodicity"):
        pair_sources(f, (BoundarySpec("dirichlet0", "dirichlet0"),))
    # one spec per axis, as a tuple
    for bc in (BoundarySpec(), (BoundarySpec(),) * 2):
        with pytest.raises(ValueError, match="one per axis"):
            pair_sources(f, bc)


def test_corner_sources_periodic_wrap():
    rng = np.random.default_rng(9)
    grid = Grid((Axis(0.0, 1.0, 4, periodic=True), Axis(0.0, 1.0, 3, periodic=True)))
    f = Field(grid, PRIMAL, 0.0, rng.standard_normal((4, 3, 2, 2)))
    data, cx, cy = pair_sources(f, (BoundarySpec(),) * 2)
    assert data.shape == (4, 3, 2, 2, 2, 2)
    # corner (0,0) of target (i,j) is source node (i,j); (1,1) wraps
    assert np.array_equal(data[:, :, 0, 0], f.values)
    assert np.array_equal(
        data[:, :, 1, 1], np.roll(np.roll(f.values, -1, axis=0), -1, axis=1)
    )
    assert cx.shape == (4,) and cy.shape == (3,)


def test_corner_sources_wall_edges_reflect():
    rng = np.random.default_rng(10)
    grid = Grid((Axis(0.0, 1.0, 3, periodic=False), Axis(0.0, 2.0, 3, periodic=False)))
    spec = (BoundarySpec("dirichlet0", "dirichlet0"), BoundarySpec("neumann0", "neumann0"))
    f = Field(grid, DUAL, 0.0, rng.standard_normal((3, 3, 2, 2)))
    data, cx, cy = pair_sources(f, spec)
    assert data.shape == (4, 4, 2, 2, 2, 2)
    # interior target: plain corner copies
    assert np.array_equal(data[1, 1, 0, 0], f.values[0, 0])
    assert np.array_equal(data[1, 1, 1, 1], f.values[1, 1])
    # x-wall target: x-reflected ghost feeding the left flank
    np.testing.assert_array_equal(
        data[0, 1, 0, 0], ghost_data(f.values[0, 0], "dirichlet0", axis=0, ndim=2)
    )
    # y-wall target: y-reflected ghost on the low side
    np.testing.assert_array_equal(
        data[1, 0, 0, 0], ghost_data(f.values[0, 0], "neumann0", axis=1, ndim=2)
    )
    # corner target reflects in both axes
    np.testing.assert_array_equal(
        data[0, 0, 0, 0],
        ghost_data(ghost_data(f.values[0, 0], "dirichlet0", axis=0, ndim=2), "neumann0",
                   axis=1, ndim=2),
    )


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 3),
    nx=st.integers(1, 6),
    ny=st.integers(1, 6),
    kinds=st.tuples(*[st.sampled_from(("dirichlet0", "neumann0"))] * 4),
    values=st.tuples(*[st.floats(-3.0, 3.0)] * 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_2d_dual_gathers_build_ghosts_with_wall_values(m, nx, ny, kinds, values, seed):
    """A 2D dual wall level gathers from [ghost, interior..., ghost] along each axis.

    Each field is padded explicitly: a ghost row per x wall, a ghost column
    per y wall, and each corner ghost reflected in x, then in y. Target
    (i, j) then reads padded node (i + sx, j + sy) at corner (sx, sy). The
    steppers' packed gather takes u | v per node in one take; u reflects
    about the wall values and v about 0.
    """
    rng = np.random.default_rng(seed)
    spec = (BoundarySpec(kinds[0], kinds[1], values[0], values[1]),
            BoundarySpec(kinds[2], kinds[3], values[2], values[3]))
    grid = Grid((Axis(-0.5, 1.0, nx, periodic=False), Axis(0.0, 2.0, ny, periodic=False)))
    u = rng.standard_normal((nx, ny, m + 1, m + 1))
    v = rng.standard_normal((nx, ny, m, m))

    def padded(block, vals):
        out = np.zeros((nx + 2, ny + 2) + block.shape[2:])
        out[1:-1, 1:-1] = block
        for side, (src, dst) in enumerate(((0, 0), (-1, -1))):
            out[dst, 1:-1] = ghost_data(block[src], kinds[side], vals[side], 0, 2)
        for side, (src, dst) in enumerate(((1, 0), (-2, -1))):
            out[:, dst] = ghost_data(out[:, src], kinds[2 + side], vals[2 + side], 1, 2)
        return out

    def assert_gathered(data, block, vals):
        want = padded(block, vals)
        assert data.shape == (nx + 1, ny + 1, 2, 2) + block.shape[2:]
        for sx in (0, 1):
            for sy in (0, 1):
                assert np.array_equal(data[:, :, sx, sy], want[sx:sx + nx + 1, sy:sy + ny + 1])

    data, _, _ = pair_sources(Field(grid, DUAL, 0.0, u), spec)
    assert_gathered(data, u, values)
    plan = gather_plan(grid, DUAL, spec, (((m + 1, m + 1), None), ((m, m), (0.0, 0.0))))
    rows = np.concatenate((u.reshape(nx * ny, -1), v.reshape(nx * ny, -1)), axis=1)
    data = take(rows, plan).reshape(plan.index.shape + (-1,))
    k = (m + 1) ** 2
    assert_gathered(data[..., :k].reshape(data.shape[:4] + (m + 1, m + 1)), u, values)
    assert_gathered(data[..., k:].reshape(data.shape[:4] + (m, m)), v, (0.0,) * 4)


def _ghost_gather(values, node_axis, normal_axis, parity, spec, override):
    """Oracle: stack (left, right) flanks of [ghost, interior..., ghost].

    Mirrors the wall gather one axis at a time; 2D coefficient blocks are
    reflected across `normal_axis`.
    """
    v = np.moveaxis(values, node_axis, 0)
    vl, vr = (spec.left_value, spec.right_value) if override is None else override

    def ghost(block, kind, value):
        return ghost_data(block, kind, value, normal_axis, 1 + (v.ndim > 2))

    if parity == DUAL:
        v = np.concatenate([ghost(v[:1], spec.left, vl), v, ghost(v[-1:], spec.right, vr)])
    out = np.stack([v[:-1], v[1:]], axis=1)
    return np.moveaxis(out, (0, 1), (node_axis, node_axis + 1))


_wall_kinds = st.sampled_from(("dirichlet0", "neumann0"))
_wall_spec = st.builds(BoundarySpec, _wall_kinds, _wall_kinds,
                       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 4),
    nx=st.integers(1, 12),
    ny=st.integers(1, 12),
    parity=st.sampled_from((PRIMAL, DUAL)),
    sx=_wall_spec,
    sy=_wall_spec,
    override=st.sampled_from((None, (0.0, 0.0))),
    seed=st.integers(0, 2**32 - 1),
)
def test_wall_gathers_match_ghost_construction(m, nx, ny, parity, sx, sy, override, seed):
    """Cached take-and-reflect gathers equal the explicit ghost construction."""
    rng = np.random.default_rng(seed)
    g1, _ = _line(-0.5, 1.0, nx, periodic=False)
    f1 = _field_1d(parity, g1, m, rng)
    data, _ = pair_sources(f1, (sx,), dirichlet_values=override)
    assert np.array_equal(data, _ghost_gather(f1.values, 0, 0, parity, sx, override))

    g2 = Grid((Axis(-0.5, 1.0, nx, periodic=False), Axis(0.0, 2.0, ny, periodic=False)))
    shape = g2.shapes[parity] + (m + 1, m)
    f2 = Field(g2, parity, 0.0, rng.standard_normal(shape))
    data, _, _ = pair_sources(f2, (sx, sy), dirichlet_values=override)
    a = _ghost_gather(f2.values, 0, 0, parity, sx, override)
    want = np.moveaxis(_ghost_gather(a, 2, 1, parity, sy, override), 1, 2)
    assert np.array_equal(data, want)
