"""Wall reflections, ghost values, and flanking-node gathers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermwave.boundary import gather_plan, ghost_data, take, zero_wall_slots
from hermwave.conservative import step
from hermwave.dissipative import SchemeConfig
from hermwave.grid import DUAL, PRIMAL, Axis, Field, Grid
from hermwave.interp import apply_interp

from level_oracle import pair_sources
from states import fields_of, one, two_level, uv_state


def test_dirichlet_reflection_first_order():
    out = ghost_data(np.array([2.0, 3.0]), "dirichlet0")
    np.testing.assert_array_equal(out, [-2.0, 3.0])


def test_neumann_reflection_first_order():
    out = ghost_data(np.array([2.0, 3.0]), "neumann0")
    np.testing.assert_array_equal(out, [2.0, -3.0])


@pytest.mark.parametrize("kind", ["dirichlet0", "neumann0"])
@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_reflection_is_an_involution(kind, m, seed):
    """Reflecting twice returns the data bit for bit, in 1D and across any 2D or 3D edge."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((3, m + 1, m, m + 2))
    blocks = data[..., 0, 0]  # 1D node data (3, m+1)
    assert np.array_equal(ghost_data(ghost_data(blocks, kind), kind), blocks)
    for ndim, block in ((2, data[..., 0]), (3, data)):
        for axis in range(ndim):
            once = ghost_data(block, kind, axis, ndim)
            assert np.array_equal(ghost_data(once, kind, axis, ndim), block)


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


def _line(x_left, x_right, n, left="periodic", right="periodic"):
    """A 1D grid and its one axis."""
    axis = Axis(x_left, x_right, n, left, right)
    return Grid((axis,)), axis


def _field_1d(parity, grid, mu, rng):
    shape = grid.shapes[parity] + (mu + 1,)
    return Field(grid, parity, 0.0, rng.standard_normal(shape))


def test_periodic_gather_is_index_wrap():
    rng = np.random.default_rng(3)
    grid, axis = _line(-1.0, 1.0, 6)
    f = _field_1d(PRIMAL, grid, 2, rng)
    data, centers = pair_sources(f)
    assert data.shape == (6, 2, 3)
    # primal targets are the dual nodes; flanks are (i, i+1 mod n)
    assert np.array_equal(data[:, 0], f.values)
    assert np.array_equal(data[:, 1], np.roll(f.values, -1, axis=0))
    np.testing.assert_allclose(centers, axis.nodes(DUAL))

    g = _field_1d(DUAL, grid, 1, rng)
    data, centers = pair_sources(g)
    assert np.array_equal(data[:, 0], np.roll(g.values, 1, axis=0))
    assert np.array_equal(data[:, 1], g.values)
    np.testing.assert_allclose(centers, axis.nodes(PRIMAL))


def test_wall_gather_primal_needs_no_ghosts():
    rng = np.random.default_rng(5)
    grid, _ = _line(0.0, 1.0, 4, "dirichlet0", "neumann0")
    f = _field_1d(PRIMAL, grid, 1, rng)  # 5 nodes
    data, centers = pair_sources(f)
    assert data.shape == (4, 2, 2)
    assert np.array_equal(data[:, 0], f.values[:-1])
    assert np.array_equal(data[:, 1], f.values[1:])


def test_wall_gather_dual_builds_ghosts():
    rng = np.random.default_rng(6)
    grid, axis = _line(0.0, 1.0, 4, "dirichlet0", "neumann0")
    f = _field_1d(DUAL, grid, 2, rng)  # 4 interior nodes
    data, centers = pair_sources(f)
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


def test_corner_sources_periodic_wrap():
    rng = np.random.default_rng(9)
    grid = Grid((Axis(0.0, 1.0, 4), Axis(0.0, 1.0, 3)))
    f = Field(grid, PRIMAL, 0.0, rng.standard_normal((4, 3, 2, 2)))
    data, cx, cy = pair_sources(f)
    assert data.shape == (4, 3, 2, 2, 2, 2)
    # corner (0,0) of target (i,j) is source node (i,j); (1,1) wraps
    assert np.array_equal(data[:, :, 0, 0], f.values)
    assert np.array_equal(
        data[:, :, 1, 1], np.roll(np.roll(f.values, -1, axis=0), -1, axis=1)
    )
    assert cx.shape == (4,) and cy.shape == (3,)


def test_corner_sources_wall_edges_reflect():
    rng = np.random.default_rng(10)
    grid = Grid((Axis(0.0, 1.0, 3, "dirichlet0", "dirichlet0"),
                 Axis(0.0, 2.0, 3, "neumann0", "neumann0")))
    f = Field(grid, DUAL, 0.0, rng.standard_normal((3, 3, 2, 2)))
    data, cx, cy = pair_sources(f)
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
    seed=st.integers(0, 2**32 - 1),
)
def test_2d_dual_gathers_build_ghosts_with_wall_values(m, nx, ny, kinds, seed):
    """A 2D dual wall level gathers from [ghost, interior..., ghost] along each axis.

    Each field is padded explicitly: a ghost row per x wall, a ghost column
    per y wall, and each corner ghost reflected in x, then in y. Target
    (i, j) then reads padded node (i + sx, j + sy) at corner (sx, sy). The
    steppers' packed gather takes u | v per node in one take; both reflect
    alike.
    """
    rng = np.random.default_rng(seed)
    grid = Grid((Axis(-0.5, 1.0, nx, kinds[0], kinds[1]), Axis(0.0, 2.0, ny, kinds[2], kinds[3])))
    u = rng.standard_normal((nx, ny, m + 1, m + 1))
    v = rng.standard_normal((nx, ny, m, m))

    def padded(block):
        out = np.zeros((nx + 2, ny + 2) + block.shape[2:])
        out[1:-1, 1:-1] = block
        for side, (src, dst) in enumerate(((0, 0), (-1, -1))):
            out[dst, 1:-1] = ghost_data(block[src], kinds[side], 0, 2)
        for side, (src, dst) in enumerate(((1, 0), (-2, -1))):
            out[:, dst] = ghost_data(out[:, src], kinds[2 + side], 1, 2)
        return out

    def assert_gathered(data, block):
        want = padded(block)
        assert data.shape == (nx + 1, ny + 1, 2, 2) + block.shape[2:]
        for sx in (0, 1):
            for sy in (0, 1):
                assert np.array_equal(data[:, :, sx, sy], want[sx:sx + nx + 1, sy:sy + ny + 1])

    data, _, _ = pair_sources(Field(grid, DUAL, 0.0, u))
    assert_gathered(data, u)
    plan = gather_plan(one(grid), DUAL, ((m + 1, m + 1), (m, m)))
    rows = np.concatenate((u.reshape(nx * ny, -1), v.reshape(nx * ny, -1)), axis=1)
    data = take(rows, plan).reshape((nx + 1, ny + 1, 2, 2, -1))
    k = (m + 1) ** 2
    assert_gathered(data[..., :k].reshape(data.shape[:4] + (m + 1, m + 1)), u)
    assert_gathered(data[..., k:].reshape(data.shape[:4] + (m, m)), v)


def _ghost_gather(values, node_axis, normal_axis, parity, axis):
    """Oracle: stack (left, right) flanks of [ghost, interior..., ghost].

    Mirrors the wall gather one axis at a time; 2D coefficient blocks are
    reflected across `normal_axis`.
    """
    v = np.moveaxis(values, node_axis, 0)

    def ghost(block, kind):
        return ghost_data(block, kind, normal_axis, 1 + (v.ndim > 2))

    if parity == DUAL:
        v = np.concatenate([ghost(v[:1], axis.left), v, ghost(v[-1:], axis.right)])
    out = np.stack([v[:-1], v[1:]], axis=1)
    return np.moveaxis(out, (0, 1), (node_axis, node_axis + 1))


_wall_kinds = st.sampled_from(("dirichlet0", "neumann0"))
_wall_kind_pair = st.tuples(_wall_kinds, _wall_kinds)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 4),
    nx=st.integers(1, 12),
    ny=st.integers(1, 12),
    parity=st.sampled_from((PRIMAL, DUAL)),
    kx=_wall_kind_pair,
    ky=_wall_kind_pair,
    seed=st.integers(0, 2**32 - 1),
)
def test_wall_gathers_match_ghost_construction(m, nx, ny, parity, kx, ky, seed):
    """Cached take-and-reflect gathers equal the explicit ghost construction,
    on mixed kinds per axis, which covers the corner sign products in 2D."""
    rng = np.random.default_rng(seed)
    g1, ax = _line(-0.5, 1.0, nx, *kx)
    f1 = _field_1d(parity, g1, m, rng)
    data, _ = pair_sources(f1)
    assert np.array_equal(data, _ghost_gather(f1.values, 0, 0, parity, ax))

    ay = Axis(0.0, 2.0, ny, *ky)
    g2 = Grid((ax, ay))
    shape = g2.shapes[parity] + (m + 1, m)
    f2 = Field(g2, parity, 0.0, rng.standard_normal(shape))
    data, _, _ = pair_sources(f2)
    a = _ghost_gather(f2.values, 0, 0, parity, ax)
    want = np.moveaxis(_ghost_gather(a, 2, 1, parity, ay), 1, 2)
    assert np.array_equal(data, want)


def _images(values, grid):
    """A walled level's node data (node axes, then order axes) on its image
    level: per axis, the level, its mirror image in the right wall, the
    level reflected in both walls and its mirror image in the left wall,
    4n nodes in all, each image with its walls' `ghost_data` signs.

    The composition of the two reflections is a shift by twice the box,
    with the product of the walls' signs, so the images repeat every four
    boxes and fill a periodic level of 4n cells per axis. A primal wall
    node is its own image, which needs its reflected slots to be zero.
    """
    d = grid.ndim
    for q, axis in enumerate(grid.axes):
        def image(v, kind):
            return ghost_data(v, kind, q, d)

        fwd = np.take(values, range(axis.n), axis=q)
        rev = np.take(np.flip(values, axis=q), range(axis.n), axis=q)
        values = np.concatenate((fwd, image(rev, axis.right),
                                 image(image(fwd, axis.left), axis.right), image(rev, axis.left)),
                                axis=q)
    return values


IMAGE_CASES = [(1, ("dirichlet0", "dirichlet0")), (1, ("neumann0", "neumann0")),
               (1, ("dirichlet0", "neumann0")), (2, ("neumann0", "dirichlet0"))]


@pytest.mark.parametrize("scheme", ["dissipative", "conservative"])
@pytest.mark.parametrize("d, kinds", IMAGE_CASES, ids=[f"{d}d-{a}-{b}" for d, (a, b) in IMAGE_CASES])
def test_walled_level_marches_as_its_image_level(scheme, d, kinds):
    """A walled level steps as the periodic level of 4n cells per axis that
    holds its data and their mirror images (`_images`), to 1e-12 relative
    at every half step.

    The primal start data have their reflected wall slots zeroed
    (`zero_wall_slots`), as a walled conservative start has; the steps
    keep them zero. In 2D the y axis has the x axis's kinds swapped. Over
    the 40 half steps of these eight cases the worst relative difference
    reads 1.2e-14.
    """
    m, ns = (3, (10,)) if d == 1 else (2, (6, 5))
    walled = Grid(tuple(Axis(0.0, 1.0, n, *(kinds if q == 0 else kinds[::-1]))
                        for q, n in enumerate(ns)))
    periodic = Grid(tuple(Axis(0.0, 4.0, 4 * n) for n in ns))
    rng = np.random.default_rng([d, len(kinds[0]), len(kinds[1])])

    def fields(parity, order, time=0.0):
        values = rng.standard_normal(walled.shapes[parity] + (order + 1,) * d)
        if parity == PRIMAL:
            zero_wall_slots(values.reshape((-1,) + values.shape[d:]), one(walled))
        return (Field(walled, parity, time, values),
                Field(periodic, parity, time, _images(values, walled)))

    cfg = SchemeConfig(m=m, lam=0.8)
    if scheme == "dissipative":
        views = ("u", "v")
        states = [uv_state(u, v) for u, v in zip(fields(PRIMAL, m), fields(PRIMAL, m - 1))]
    else:
        views = ("current", "previous")
        states = [two_level(cur, prev)
                  for cur, prev in zip(fields(PRIMAL, m), fields(DUAL, m, -0.1))]
    for _ in range(40):
        states = [step(state, cfg) for state in states]
        for view, got, image in zip(views, *(fields_of(state) for state in states)):
            want = image.values[tuple(slice(k) for k in walled.shapes[got.parity])]
            assert np.abs(got.values - want).max() <= 1e-12 * np.abs(want).max(), view
