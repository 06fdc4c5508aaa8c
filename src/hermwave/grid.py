"""Staggered grids and nodal field containers, in any number of axes.

Two interleaved node sets live on each axis: the primal nodes x_i = X_L +
i*h and the dual nodes x_{i+1/2} shifted by h/2. The solution alternates
between them every half time step. Each end of an axis is periodic or a
homogeneous reflecting wall (`KINDS`): `dirichlet0` pins the value and
`neumann0` the normal derivative. On a periodic axis both sets carry n
nodes for n cells; with walls the primal set includes both boundary points
(n+1 nodes) while the dual set stays interior (n nodes). A `Grid` is one
`Axis` per dimension, all periodic or all walled, and every axis of a
level shares its parity.

A field stores, per node, the scaled derivative coefficients
(h**l/l!) d^l u/dx^l up to its order along each axis, as one dense array
shaped (nodes per axis..., order+1 per axis...). The steppers' states keep
node rows instead, one per node in C order, and build `Field` views on access.

Every grid carries a `plans` dict where the gathers and steppers cache what
they build once per level, so no cache outlives the grid its key names. A
stepper links a state to its plans (`link`): the state then carries the
config it was stepped with, the plan of its own parity and the plan of the
opposite one, and each state the stepper returns carries the same two plans
swapped, so a march looks up a level's plans once.
"""

from __future__ import annotations

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

    Built once, as plain attributes like `Axis`'s nodes: `periodic`, shared
    by every axis; `spacings`, h per axis; `shapes`, each parity's node
    count per axis; and `plans`, the level's cached plans.
    """

    axes: tuple

    def __post_init__(self):
        axes = tuple(self.axes)
        if not axes:
            raise ValueError("a grid needs at least one axis")
        if len({axis.periodic for axis in axes}) != 1:
            raise ValueError("the axes must be all periodic or all walled")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "periodic", axes[0].periodic)
        object.__setattr__(self, "spacings", tuple(axis.h for axis in axes))
        object.__setattr__(self, "shapes", {
            parity: tuple(axis.n_nodes(parity) for axis in axes) for parity in (PRIMAL, DUAL)})
        object.__setattr__(self, "plans", {})


@dataclass
class Field:
    """values[i..., l...] = c_l at node i: d node axes, then d order axes."""

    grid: Grid
    parity: str
    time: float
    values: np.ndarray

    def __post_init__(self):
        v = self.values = np.asarray(self.values, dtype=float)
        if self.parity not in self.grid.shapes:
            raise ValueError(f"unknown parity {self.parity!r}, expected {PRIMAL!r} or {DUAL!r}")
        nodes = self.grid.shapes[self.parity]
        if v.shape[: len(nodes)] != nodes or v.ndim != 2 * len(nodes):
            raise ValueError(f"{self.parity} field needs node shape {nodes} and one order "
                             f"axis per node axis, got values of shape {v.shape}")

    @property
    def orders(self) -> tuple:
        return tuple(k - 1 for k in self.values.shape[self.values.ndim // 2 :])


def rows(block: np.ndarray, ndim: int = 1) -> np.ndarray:
    """The block as one row per node or target, indexed by its first `ndim` axes."""
    return block.reshape(math.prod(block.shape[:ndim]), -1)


class FieldPair:
    """Displacement/velocity pair; u order exceeds v order by one per axis.

    Kept as `rows`, u | v packed per node as the dissipative plan gathers
    them, with u's column count `split`, the u and v value `shapes` and the
    stepper's `link` (None until a stepper sets it; see `link`).
    """

    __slots__ = ("grid", "parity", "time", "rows", "split", "shapes", "link")

    def __init__(self, u: Field, v: Field):
        su, sv = u.values.shape, v.values.shape
        d = len(su) // 2
        if su[d:] != tuple(k + 1 for k in sv[d:]):
            raise ValueError(f"u orders must be v orders + 1, got {u.orders}/{v.orders}")
        if u.parity != v.parity:
            raise ValueError("u and v must live on the same parity")
        self.grid, self.parity, self.time = u.grid, u.parity, u.time
        self.rows = np.concatenate((rows(u.values, d), rows(v.values, d)), axis=1)
        self.split, self.shapes = math.prod(su[d:]), (su, sv)
        self.link = None

    @property
    def u(self) -> Field:
        return Field(self.grid, self.parity, self.time,
                     self.rows[:, : self.split].reshape(self.shapes[0]))

    @property
    def v(self) -> Field:
        return Field(self.grid, self.parity, self.time,
                     self.rows[:, self.split :].reshape(self.shapes[1]))

    @property
    def fields(self) -> tuple:
        return self.u, self.v


class TwoLevelState:
    """Conservative-scheme state: u data at t_n and at t_{n-1/2}.

    The two levels sit on opposite parities; `previous` lives on the grid the
    next update writes to. They are kept as node rows, `rows` at `time` and
    `prev_rows` at `prev_time`, with their value `shapes` and the stepper's
    `link` (None until a stepper sets it; see `link`).
    """

    __slots__ = ("grid", "parity", "time", "prev_time", "rows", "prev_rows", "shapes", "link")

    def __init__(self, current: Field, previous: Field):
        if current.parity == previous.parity:
            raise ValueError("the two levels must sit on opposite parities")
        if current.orders != previous.orders:
            raise ValueError(f"the two levels carry orders {current.orders}/{previous.orders}")
        self.grid, self.parity, self.time = current.grid, current.parity, current.time
        self.prev_time, self.shapes = previous.time, (current.values.shape, previous.values.shape)
        d = len(self.grid.axes)
        self.rows, self.prev_rows = rows(current.values, d), rows(previous.values, d)
        self.link = None

    @property
    def current(self) -> Field:
        return Field(self.grid, self.parity, self.time, self.rows.reshape(self.shapes[0]))

    @property
    def previous(self) -> Field:
        return Field(self.grid, flip(self.parity), self.prev_time,
                     self.prev_rows.reshape(self.shapes[1]))

    @property
    def fields(self) -> tuple:
        return self.current, self.previous


def link(state, cfg, scheme: str, build) -> tuple:
    """The `link` of a state stepped under cfg: (cfg, plan, next plan).

    The plans are those of the state's parity and the opposite one, each
    looked up in the grid's `plans` by (scheme, parity, cfg) or built there
    by build(grid, parity, cfg). A plan's fifth entry is the value shapes of
    the states it returns; the next plan's must be the state's own, else
    the state's orders do not match cfg.m.
    """
    grid, plans = state.grid, []
    for parity in (state.parity, flip(state.parity)):
        key = (scheme, parity, cfg)
        plan = grid.plans.get(key)
        if plan is None:
            plan = grid.plans[key] = build(grid, parity, cfg)
        plans.append(plan)
    if state.shapes != plans[1][4]:
        orders = tuple(k - 1 for k in state.shapes[0][len(grid.axes) :])
        raise ValueError(f"state carries orders {orders}, config wants m = {cfg.m}")
    return cfg, plans[0], plans[1]
