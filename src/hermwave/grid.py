"""Staggered grids and nodal field containers, in any number of axes.

Two interleaved node sets live on each axis: the primal nodes x_i = X_L +
i*h and the dual nodes x_{i+1/2} shifted by h/2. The solution alternates
between them every half time step. Each end of an axis is periodic or a
homogeneous reflecting wall (`KINDS`): `dirichlet0` pins the value and
`neumann0` the normal derivative. On a periodic axis both sets carry n
nodes for n cells; with walls the primal set includes both boundary points
(n+1 nodes) while the dual set stays interior (n nodes). A `Grid` is one
level's geometry: one `Axis` per dimension, all periodic or all walled,
and every axis of a level shares its parity.

A field stores, per node, the scaled derivative coefficients
(h**l/l!) d^l u/dx^l up to its order along each axis, as one dense array
shaped (nodes per axis..., order+1 per axis...). Both schemes' states are
one `State`, which keeps node rows instead, one per node in C order: u | h*v
packed per node (dissipative), or u with the previous level's rows
(conservative). Its one view, `u`, builds a `Field` on access.

Every state lives on a `Stack`, which puts one or more levels one after
the other in one set of node rows, so that one take and one product step
them all; a single level is `Stack([grid])`. A stack compares and hashes
by its levels, which are all its plans depend on, so the gathers and the
step plans are cached by value (`boundary.gather_plan`,
`conservative._plan`) and equal stacks share them. Every level takes the
same half steps, so a state has one time, a float: that of the stack's
first level.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

PRIMAL = "primal"
DUAL = "dual"
KINDS = ("dirichlet0", "neumann0", "periodic")


def flip(parity: str) -> str:
    if parity == PRIMAL:
        return DUAL
    if parity == DUAL:
        return PRIMAL
    raise ValueError(f"unknown parity {parity!r}")


@dataclass(frozen=True)
class Axis:
    """n cells on [x_left, x_right] with the kinds of its two ends, one of `KINDS`,
    and each parity's node coordinates."""

    x_left: float
    x_right: float
    n: int
    left: str = "periodic"
    right: str = "periodic"

    def __post_init__(self):
        for kind in (self.left, self.right):
            if kind not in KINDS:
                raise ValueError(f"unknown boundary kind {kind!r}, expected one of {KINDS}")
        if (self.left == "periodic") != (self.right == "periodic"):
            raise ValueError("periodic must be specified on both opposing sides")
        if self.n < 1:
            raise ValueError("need at least one cell")
        if self.x_right <= self.x_left:
            raise ValueError("empty domain")
        # plain attributes, not fields; set here they are stored with the
        # fields, where a cached_property would give the axis a separate
        # instance dict and make every attribute read on it about 4x slower
        object.__setattr__(self, "periodic", self.left == "periodic")
        object.__setattr__(self, "_nodes", {
            parity: self.x_left + self.h * (np.arange(self.n_nodes(parity)) + off)
            for parity, off in ((PRIMAL, 0.0), (DUAL, 0.5))})
        for x in self._nodes.values():
            x.setflags(write=False)

    @property
    def h(self) -> float:
        return (self.x_right - self.x_left) / self.n

    def n_nodes(self, parity: str) -> int:
        if self.periodic:
            return self.n
        return self.n + 1 if parity == PRIMAL else self.n

    def nodes(self, parity: str) -> np.ndarray:
        """Node coordinates of one parity, built with the axis; read-only."""
        return self._nodes[parity]


@dataclass(frozen=True)
class Grid:
    """A box of cells, one `Axis` per dimension in axis order.

    Built once, as plain attributes like `Axis`'s nodes: `ndim`, the number
    of axes; `periodic`, shared by every axis; `spacings`, h per axis; `h`,
    the smallest of them, which sets the time step; `aspect`, the spacings
    over h, at which the step's matrices are built (see `State`); and
    `shapes`, each parity's node count per axis.
    """

    axes: tuple

    def __post_init__(self):
        axes = tuple(self.axes)
        if not axes:
            raise ValueError("a grid needs at least one axis")
        if len({axis.periodic for axis in axes}) != 1:
            raise ValueError("the axes must be all periodic or all walled")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "ndim", len(axes))
        object.__setattr__(self, "periodic", axes[0].periodic)
        object.__setattr__(self, "spacings", tuple(axis.h for axis in axes))
        object.__setattr__(self, "h", min(self.spacings))
        object.__setattr__(self, "aspect", tuple(s / self.h for s in self.spacings))
        object.__setattr__(self, "shapes", {
            parity: tuple(axis.n_nodes(parity) for axis in axes) for parity in (PRIMAL, DUAL)})

    def nodes(self, parity: str) -> np.ndarray:
        """One parity's node coordinates, a new (axes, nodes) array: row q is
        axis q's coordinate of every node, in C order as `rows` lays them out."""
        out = np.empty((self.ndim,) + self.shapes[parity])
        for q, axis in enumerate(self.axes):  # broadcast along the later axes
            out[q] = axis.nodes(parity).reshape((-1,) + (1,) * (self.ndim - 1 - q))
        return out.reshape(self.ndim, -1)


@dataclass
class Field:
    """values[i..., l...] = c_l at node i: the grid's node axes (d on a
    `Grid`, one on a `Stack`, as `State.u` builds it), then d order axes."""

    grid: Grid
    parity: str
    time: float
    values: np.ndarray

    def __post_init__(self):
        v = self.values = np.asarray(self.values, dtype=float)
        if self.parity not in self.grid.shapes:
            raise ValueError(f"unknown parity {self.parity!r}, expected {PRIMAL!r} or {DUAL!r}")
        nodes = self.grid.shapes[self.parity]
        if v.shape[: len(nodes)] != nodes or v.ndim != len(nodes) + self.grid.ndim:
            raise ValueError(f"{self.parity} field needs node shape {nodes} and "
                             f"{self.grid.ndim} order axes, got values of shape {v.shape}")


def rows(block: np.ndarray, ndim: int = 1) -> np.ndarray:
    """The block as one row per node or target, indexed by its first `ndim` axes."""
    return block.reshape(math.prod(block.shape[:ndim]), -1)


class State:
    """Every level of a `Stack` in either scheme, as node rows.

    `rows` packs, per node of the stack's `parity`, level after level, the
    coefficients of each field of `blocks`, the coefficient shape of each:
    u | h*v, ((m+1,)*d, (m,)*d), for the dissipative scheme and u alone,
    ((m+1,)*d,), for the conservative one, whose previous level sits in
    `prev_rows` on the other parity (None for the dissipative scheme). It
    carries the step's `link`, the `conservative.Plan` of its next half
    step, with `link_cfg`, the config object it was linked under (both
    None until a step sets them; see `conservative.link`), and one `time`,
    a float: the time of the stack's first level.

    Every state carries v, and a start's u_t, as h*v, h the smallest
    spacing of the node's level, and steps u_tt = Delta u. Then a half step
    depends on h only through the aspect: with dt = lam h, the map A(h)
    from a node's flanking u | v data is D^-1 Â D, D = diag(I_u, h I_v),
    with Â built at unit spacing. So one matrix per (scheme, m, lam,
    aspect) steps every level of every stack.
    """

    __slots__ = ("grid", "parity", "time", "rows", "blocks", "prev_rows", "link", "link_cfg")

    def __init__(self, grid, parity: str, time: float, rows, blocks: tuple, prev_rows=None):
        if not isinstance(grid, Stack):
            raise TypeError(f"a State lives on a Stack, got {type(grid).__name__}; "
                            "wrap one level as Stack([grid])")
        if parity not in grid.shapes:
            raise ValueError(f"unknown parity {parity!r}, expected {PRIMAL!r} or {DUAL!r}")
        cols = sum(math.prod(block) for block in blocks)
        for p, r in ((parity, rows), (flip(parity), prev_rows)):
            want = (math.prod(grid.shapes[p]), cols)
            if r is not None and np.shape(r) != want:
                raise ValueError(f"{p} rows of blocks {blocks} need shape {want}, "
                                 f"got {np.shape(r)}")
        self.grid, self.parity, self.time, self.blocks = grid, parity, float(time), blocks
        self.rows, self.prev_rows, self.link, self.link_cfg = rows, prev_rows, None, None

    @property
    def u(self) -> Field:
        """u, the current level of a two-level state, as a `Field`."""
        u = self.blocks[0]
        return Field(self.grid, self.parity, self.time,
                     self.rows[:, : math.prod(u)].reshape(self.grid.shapes[self.parity] + u))


class Stack:
    """The levels of a refinement study as one set of node rows.

    `levels` are `Grid`s of d axes with one aspect, spacings over the
    smallest spacing h; each parity's rows are the levels' node rows one
    level after the other. Every level of a stack shares one map per half
    step:
    - the gather is the levels' own gathers, each offset by the rows before
      its level (`boundary.gather_plan`);
    - the matrix is the one of their `aspect` (see `State`).

    A state of the stack holds every level's rows, one after the other, and
    the time of its first level; a study starts one from data evaluated on
    its rows (`nodes`, `level_of`). A level leaves from the end (`pop`)
    with its rows alone, so a study stacks the level that marches longest
    first: its finest. Stacks of equal levels are equal, and hash alike.

    Built once, as plain attributes: `levels`, `ndim`, `aspect`, `h`
    (each level's smallest spacing, read-only), `offsets` (each
    parity's first row of every level, then the total), `level_of` (each
    parity's level of every row), `shapes` (each parity's total rows, as
    one node axis).
    """

    def __init__(self, levels):
        self.levels = levels = tuple(levels)
        if not levels:
            raise ValueError("a stack needs at least one level")
        self.ndim, self.aspect = levels[0].ndim, levels[0].aspect
        if any(g.ndim != self.ndim or not all(math.isclose(x, y, rel_tol=1e-12)
                                              for x, y in zip(g.aspect, self.aspect))
               for g in levels):
            raise ValueError("stacked levels need one number of axes and one aspect")
        self.h = np.array([g.h for g in levels])
        self.h.setflags(write=False)
        counts = {parity: [math.prod(g.shapes[parity]) for g in levels]
                  for parity in (PRIMAL, DUAL)}
        self.offsets = {parity: np.add.accumulate([0] + c) for parity, c in counts.items()}
        self.level_of = {parity: np.arange(len(levels)).repeat(c) for parity, c in counts.items()}
        self.shapes = {parity: (int(off[-1]),) for parity, off in self.offsets.items()}
        # hashed once: 10 levels take about 6 us to hash (2-vCPU Xeon VM)
        self._hash = hash(levels)

    def __eq__(self, other):
        return isinstance(other, Stack) and self.levels == other.levels

    def __hash__(self):
        return self._hash

    def nodes(self, parity: str) -> np.ndarray:
        """`Grid.nodes` of every row, the levels' one level after the other."""
        return np.concatenate([g.nodes(parity) for g in self.levels], axis=1)

    def pop(self, state):
        """(the last level's rows, the state of the stack of the others).

        The rows are the last level's `rows`, a view: a step writes new
        rows and never into the ones it reads. The others stay views of the state's
        leading rows, on a new stack of the leading levels (None when no
        level is left).
        """
        i = len(self.levels) - 1
        start = self.offsets[state.parity][i]
        if not i:
            return state.rows, None
        rest = copy.copy(state)
        rest.grid, rest.link, rest.link_cfg = Stack(self.levels[:i]), None, None
        rest.rows = state.rows[:start]
        if state.prev_rows is not None:
            rest.prev_rows = state.prev_rows[: self.offsets[flip(state.parity)][i]]
        return state.rows[start:], rest
