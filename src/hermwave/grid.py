"""Staggered grids and nodal field containers.

Two interleaved node sets live on each axis: the primal nodes x_i = X_L +
i*h and the dual nodes x_{i+1/2} shifted by h/2. The solution alternates
between them every half time step. On a periodic axis both sets carry n
nodes for n cells; with walls the primal set includes both boundary points
(n+1 nodes) while the dual set stays interior (n nodes).

A field stores, per node, the scaled derivative coefficients
(h**l/l!) d^l u/dx^l up to its order, as one dense array.

Every grid carries a `plans` dict where the gathers and steppers cache what
they build once per level, so no cache outlives the grid its key names.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PRIMAL = "primal"
DUAL = "dual"


def flip(parity: str) -> str:
    if parity == PRIMAL:
        return DUAL
    if parity == DUAL:
        return PRIMAL
    raise ValueError(f"unknown parity {parity!r}")


@dataclass(frozen=True)
class Grid1D:
    """n cells on [x_left, x_right]; `spacings` is (h,), `plans` the level's plans."""

    x_left: float
    x_right: float
    n: int
    periodic: bool

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one cell")
        if self.x_right <= self.x_left:
            raise ValueError("empty domain")
        # plain attributes, not fields; set here they are stored with the
        # fields, where a cached_property would give the grid a separate
        # instance dict and make every attribute read on it about 4x slower
        object.__setattr__(self, "spacings", (self.h,))
        object.__setattr__(self, "plans", {})
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
        """Node coordinates of one parity, built with the grid; read-only."""
        return self._nodes[parity]


@dataclass(frozen=True)
class Grid2D:
    """nx x ny cells on [x_left, x_right] x [y_left, y_right]; `axes`, `spacings`, `plans`."""

    x_left: float
    x_right: float
    y_left: float
    y_right: float
    nx: int
    ny: int
    periodic: bool

    def __post_init__(self):
        # each axis checks its cell count and domain; plain attributes as in Grid1D
        object.__setattr__(self, "axes", (
            Grid1D(self.x_left, self.x_right, self.nx, self.periodic),
            Grid1D(self.y_left, self.y_right, self.ny, self.periodic),
        ))
        object.__setattr__(self, "spacings", (self.hx, self.hy))
        object.__setattr__(self, "plans", {})

    @property
    def hx(self) -> float:
        return (self.x_right - self.x_left) / self.nx

    @property
    def hy(self) -> float:
        return (self.y_right - self.y_left) / self.ny

    def axis(self, which: int) -> Grid1D:
        """The 1D grid of axis `which` (0 for x), built with the grid."""
        return self.axes[which]


@dataclass(frozen=True)
class Field1D:
    """Order-mu nodal data at one time level: values[i, l] = c_l at node i."""

    grid: Grid1D
    parity: str
    time: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape[0] != self.grid.n_nodes(self.parity):
            raise ValueError(
                f"{self.parity} field needs {self.grid.n_nodes(self.parity)} nodes, "
                f"got {v.shape[0]}"
            )

    @property
    def order(self) -> int:
        return self.values.shape[1] - 1

    def with_values(self, values, parity=None, time=None) -> "Field1D":
        return Field1D(
            self.grid,
            self.parity if parity is None else parity,
            self.time if time is None else time,
            values,
        )


@dataclass(frozen=True)
class Field2D:
    """values[i, j, k, l] = c_{k,l} at node (i, j); both axes share parity."""

    grid: Grid2D
    parity: str
    time: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        want = (
            self.grid.axis(0).n_nodes(self.parity),
            self.grid.axis(1).n_nodes(self.parity),
        )
        if v.shape[:2] != want:
            raise ValueError(f"{self.parity} field needs node shape {want}, got {v.shape[:2]}")

    @property
    def orders(self) -> tuple[int, int]:
        return self.values.shape[2] - 1, self.values.shape[3] - 1

    def with_values(self, values, parity=None, time=None) -> "Field2D":
        return Field2D(
            self.grid,
            self.parity if parity is None else parity,
            self.time if time is None else time,
            values,
        )


@dataclass(frozen=True)
class FieldPair:
    """Displacement/velocity pair; u order exceeds v order by one per axis."""

    u: Field1D | Field2D
    v: Field1D | Field2D

    def __post_init__(self):
        if isinstance(self.u, Field1D):
            if self.u.order != self.v.order + 1:
                raise ValueError(
                    f"u order must be v order + 1, got {self.u.order}/{self.v.order}"
                )
        else:
            ou, ov = self.u.orders, self.v.orders
            if ou[0] != ov[0] + 1 or ou[1] != ov[1] + 1:
                raise ValueError(f"u orders must be v orders + 1, got {ou}/{ov}")
        if self.u.parity != self.v.parity:
            raise ValueError("u and v must live on the same parity")

    @property
    def parity(self) -> str:
        return self.u.parity

    @property
    def time(self) -> float:
        return self.u.time


@dataclass(frozen=True)
class TwoLevelState:
    """Conservative-scheme state: u data at t_n and at t_{n-1/2}.

    The two levels sit on opposite parities; `previous` lives on the grid
    the next update writes to.
    """

    current: Field1D | Field2D
    previous: Field1D | Field2D

    def __post_init__(self):
        if self.current.parity == self.previous.parity:
            raise ValueError("the two levels must sit on opposite parities")
