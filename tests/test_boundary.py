"""Wall reflections, ghost values, and flanking-node gathers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermwave.boundary import gather_plan, ghost_data, take, zero_wall_slots
from hermwave.conservative import step
from hermwave.dissipative import SchemeConfig
from hermwave.grid import DUAL, PRIMAL, Axis, Field, Grid, Stack, flip
from hermwave.grid import rows as node_rows
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


def _ghost_gather(values, grid, parity):
    """Oracle: a level's gather built one axis at a time from
    [ghost, interior..., ghost].

    values holds node data (node axes, then order axes). Per axis q, a dual
    level gets a ghost at each end, its first or last node reflected across
    that wall along order axis q, so a corner ghost is reflected in each of
    its axes; then each target stacks its (left, right) flanks. The result
    is shaped (targets per axis..., 2 per axis..., orders...).
    """
    d, v = grid.ndim, values
    for q, axis in enumerate(grid.axes):
        v = np.moveaxis(v, 2 * q, 0)
        if parity == DUAL:
            v = np.concatenate([ghost_data(v[:1], axis.left, q, d), v,
                                ghost_data(v[-1:], axis.right, q, d)])
        v = np.moveaxis(np.stack([v[:-1], v[1:]], axis=1), (0, 1), (2 * q, 2 * q + 1))
    return np.moveaxis(v, range(1, 2 * d, 2), range(d, 2 * d))


_wall_kinds = st.sampled_from(("dirichlet0", "neumann0"))
_wall_kind_pair = st.tuples(_wall_kinds, _wall_kinds)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 4),
    ns=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 3)),
    parity=st.sampled_from((PRIMAL, DUAL)),
    kinds=st.tuples(_wall_kind_pair, _wall_kind_pair, _wall_kind_pair),
    seed=st.integers(0, 2**32 - 1),
)
def test_wall_gathers_match_ghost_construction(m, ns, parity, kinds, seed):
    """Cached take-and-reflect gathers equal the explicit ghost construction
    (`_ghost_gather`), on mixed kinds per axis: on a 1D, 2D and 3D level,
    which covers the corner sign products in 2D and 3D, and level by level
    on a two-level 2D stack of u | v rows whose second level, of twice the
    cells, has each axis's kinds swapped, which covers the negated slots'
    offsets past the first level."""
    rng = np.random.default_rng(seed)
    bounds = ((-0.5, 1.0), (0.0, 2.0), (0.0, 0.5))
    axes = [Axis(*b, n, *k) for b, n, k in zip(bounds, ns, kinds)]
    for d in (1, 2, 3):
        grid = Grid(tuple(axes[:d]))
        f = Field(grid, parity, 0.0, rng.standard_normal(grid.shapes[parity] + (m + 1, m, 2)[:d]))
        assert np.array_equal(pair_sources(f)[0], _ghost_gather(f.values, grid, parity))

    levels = [Grid(tuple(axes[:2])),
              Grid(tuple(Axis(*b, 2 * n, *k[::-1]) for b, n, k in zip(bounds, ns, kinds[:2])))]
    blocks = ((m + 1, m + 1), (m, m))
    fields = [[rng.standard_normal(g.shapes[parity] + c) for c in blocks] for g in levels]
    packed = np.concatenate([np.concatenate([node_rows(f, 2) for f in level], axis=1)
                             for level in fields])
    stack = Stack(levels)
    gathered = take(packed, gather_plan(stack, parity, blocks))
    first, k = stack.offsets[flip(parity)], (m + 1) ** 2
    for i, (grid, (u, v)) in enumerate(zip(levels, fields)):
        data = gathered[first[i] : first[i + 1]].reshape(grid.shapes[flip(parity)] + (2, 2, -1))
        for block, values in ((data[..., :k], u), (data[..., k:], v)):
            block = block.reshape(data.shape[:4] + values.shape[2:])
            assert np.array_equal(block, _ghost_gather(values, grid, parity)), i


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


IMAGE_CASES = [(1, ("dirichlet0", "dirichlet0"), 1), (1, ("neumann0", "neumann0"), 1),
               (1, ("dirichlet0", "neumann0"), 1), (2, ("neumann0", "dirichlet0"), 1),
               (2, ("dirichlet0", "neumann0"), 2)]


@pytest.mark.parametrize("scheme", ["dissipative", "conservative"])
@pytest.mark.parametrize("d, kinds, levels", IMAGE_CASES,
                         ids=[f"{d}d-{a}-{b}" + "-stacked" * (k > 1)
                              for d, (a, b), k in IMAGE_CASES])
def test_walled_level_marches_as_its_image_level(scheme, d, kinds, levels):
    """A walled level steps as the periodic level of 4n cells per axis that
    holds its data and their mirror images (`_images`), to 1e-12 relative
    at every half step.

    The primal start data have their reflected wall slots zeroed
    (`zero_wall_slots`), as a walled conservative start has; the steps
    keep them zero. In 2D the y axis has the x axis's kinds swapped. The
    stacked case marches two levels as one `Stack`, the second of twice
    the cells with every axis's kinds swapped, against a stack of their
    image levels; `zero_wall_slots` on its rows zeroes what it zeroes on
    each level alone. Over the 40 half steps the worst relative difference
    reads 1.1e-14 in the eight one-level cases and 7.1e-15 in the two
    stacked ones.
    """
    m, ns = (3, (10,)) if d == 1 else (2, (6, 5))

    def ends(q, j):
        return (kinds if q == 0 else kinds[::-1])[:: (-1) ** j]

    walled = [Grid(tuple(Axis(0.0, 1.0, (j + 1) * n, *ends(q, j)) for q, n in enumerate(ns)))
              for j in range(levels)]
    stack = Stack(walled)
    images = Stack([Grid(tuple(Axis(0.0, 4.0, 4 * (j + 1) * n) for n in ns))
                    for j in range(levels)])
    rng = np.random.default_rng([d, len(kinds[0]), len(kinds[1])])

    def fields(parity, order, time=0.0):
        values = [rng.standard_normal(g.shapes[parity] + (order + 1,) * d) for g in walled]
        stacked = np.concatenate([v.reshape((-1,) + v.shape[d:]) for v in values])
        if parity == PRIMAL:
            zero_wall_slots(stacked, stack)
            for g, v in zip(walled, values):
                zero_wall_slots(v.reshape((-1,) + v.shape[d:]), one(g))
            alone = np.concatenate([v.reshape((-1,) + v.shape[d:]) for v in values])
            assert np.array_equal(stacked, alone)
        image = np.concatenate([node_rows(_images(v, g), d) for g, v in zip(walled, values)])
        return (Field(stack, parity, time, stacked),
                Field(images, parity, time, image.reshape((-1,) + stacked.shape[1:])))

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
            have, full = (node_rows(f.values, f.values.ndim - d) for f in (got, image))
            for j, g in enumerate(walled):
                lo, hi = stack.offsets[got.parity][j : j + 2]
                start, stop = images.offsets[got.parity][j : j + 2]
                box = full[start:stop].reshape(images.levels[j].shapes[got.parity] + (-1,))
                want = box[tuple(slice(k) for k in g.shapes[got.parity])].reshape(hi - lo, -1)
                assert np.abs(have[lo:hi] - want).max() <= 1e-12 * np.abs(want).max(), (view, j)
