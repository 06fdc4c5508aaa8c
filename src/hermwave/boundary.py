"""Ghost polynomials at walls and the flanking-node gather.

Walls are homogeneous and imposed by reflecting the first interior node's
data across the boundary: an odd reflection c_l -> (-1)**(l+1) c_l pins
the value (`dirichlet0`), an even reflection c_l -> (-1)**l c_l pins the
normal derivative (`neumann0`). The sign convention is arbitrated by the
property that the boundary-centered interpolant of (ghost, interior) data
then has no even (resp. odd) powers. In d axes one reflection
(`ghost_data`) acts along the wall's normal order axis alike on every
tangential column. Each axis carries the kinds of its two ends
(`Axis.left`, `Axis.right`).

A gather assembles, for every target node of the opposite parity, the
flanking source-node data (2 per axis: 2 in 1D, 2x2 corners in 2D)
including any ghosts, which is all the step, the conservative start and the
error norms need. It has one path, `take` through a `GatherPlan`, cached
per stack geometry and gathered blocks (`gather_plan`): one take through a
flat index into the node rows (u | v packed per node for the dissipative
scheme), built in one pass over the stack's target rows from each row's
node index on its level. The index wraps on a periodic axis and is clipped
at walls. A dual gather at walls then turns the clipped edge slots into
ghosts: every reflection is a sign flip, so one flat index `negate` lists
the slots whose product of wall signs is -1 (corners included), and the
result equals the explicit [ghost, interior..., ghost] construction. Which
primal rows sit on which wall is decided in one place, `wall_rows`; the
dual gather's signs, `zero_wall_slots` and the error norms' clipped cells
all read it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .grid import DUAL, PRIMAL, flip


def _signs(kind: str, n: int) -> np.ndarray:
    l = np.arange(n)
    if kind == "dirichlet0":
        return (-1.0) ** (l + 1)
    if kind == "neumann0":
        return (-1.0) ** l
    raise ValueError(f"no reflection for boundary kind {kind!r}")


def ghost_data(interior: np.ndarray, kind: str, axis: int = 0, ndim: int = 1) -> np.ndarray:
    """Reflect node data (..., mu_q+1 per axis) across a wall normal to `axis`.

    Args:
        interior: coefficient blocks of the first interior node(s), with
            `ndim` trailing order axes.
        kind: dirichlet0 or neumann0; periodic edges are wrap-arounds, not
            reflections, and are left to the gathers.
        axis: the wall's normal axis, 0 for an x-edge.
    """
    interior = np.asarray(interior, dtype=float)
    k = interior.shape[axis - ndim]
    return interior * _signs(kind, k).reshape((k,) + (1,) * (ndim - 1 - axis))


def _node_index(stack, parity: str) -> tuple:
    """(node, counts): each `parity` row's node index along every axis of
    its level, and that level's node counts, both (rows, d)."""
    level = stack.level_of[parity]
    counts = np.array([g.shapes[parity] for g in stack.levels])[level]
    local, node = np.arange(len(level)) - stack.offsets[parity][level], np.empty_like(counts)
    for q in reversed(range(stack.ndim)):
        local, node[:, q] = np.divmod(local, counts[:, q])
    return node, counts


def wall_rows(stack, primal=None):
    """Yield (axis, side, kind, rows) for every wall end of a `Stack`'s levels.

    rows are the primal rows, level after level, on the side (0 low, 1 high)
    of `axis` whose end is a wall of `kind`, so one yield covers the levels
    that share that end's kind. This is the one place that decides which
    rows sit on a wall. primal is `_node_index(stack, PRIMAL)`, when the
    caller has it.
    """
    if all(g.periodic for g in stack.levels):  # every periodic conservative start asks
        return
    node, counts = primal or _node_index(stack, PRIMAL)
    level = stack.level_of[PRIMAL]
    for q in range(stack.ndim):
        for side, end in enumerate(("left", "right")):
            on = np.flatnonzero(node[:, q] == (counts[:, q] - 1 if side else 0))
            ends = np.array([getattr(g.axes[q], end) for g in stack.levels])[level[on]]
            for kind in ("dirichlet0", "neumann0"):
                rows = on[ends == kind]
                if len(rows):
                    yield q, side, kind, rows


def zero_wall_slots(values: np.ndarray, stack) -> None:
    """Zero, in place, the slots each wall flips to -1 on its primal nodes.

    values holds a `Stack`'s primal node data: its rows, then order axes.
    On the nodes that sit on a wall normal to axis q (`wall_rows`), the
    slots of axis-q order l with `ghost_data` sign -1 are set to 0: c_0,
    c_2, ... at `dirichlet0` and c_1, c_3, ... at `neumann0`, so the data
    there equal their own reflection.
    """
    for q, _, kind, rows in wall_rows(stack):
        at = [rows[:, None]] + [slice(None)] * stack.ndim
        at[1 + q] = np.flatnonzero(_signs(kind, values.shape[1 + q]) < 0)
        values[tuple(at)] = 0.0


class GatherPlan:
    """A stack's gather: `nodes` source rows to `targets` rows via `index`.

    `negate` holds the flat positions of the gathered slots that a dual
    level's walls reflect with sign -1, or None where nothing is reflected.
    """

    __slots__ = ("nodes", "targets", "index", "negate")

    def __init__(self, nodes: int, targets: int, index: np.ndarray, negate):
        self.nodes, self.targets, self.index, self.negate = nodes, targets, index, negate


@lru_cache(maxsize=256)
def gather_plan(stack, parity: str, blocks: tuple) -> GatherPlan:
    """The `GatherPlan` of a `Stack`'s `parity` nodes for `blocks`, built
    once per (stack's levels, parity, blocks) in one pass over its target
    rows.

    `blocks` holds the coefficient shape of each field packed along the
    node rows; with homogeneous walls every field reflects the same way.
    Per axis a dual target j sits between primal nodes j and j+1 and a
    primal target j between dual nodes j-1 and j, wrapped on a periodic
    level and clipped at walls; `index` holds each target's flanking rows,
    2 per axis in C order, and `negate` the slots of the dual gather's
    ghosts that `wall_rows`' signs multiply to -1. A step's plan and the
    error norms that gather the same blocks from equal stacks share one.
    """
    d, targets = stack.ndim, flip(parity)
    node, counts = _node_index(stack, targets)
    level = stack.level_of[targets]
    n = np.array([g.shapes[parity] for g in stack.levels])[level]  # source nodes per axis
    periodic = np.array([g.periodic for g in stack.levels])[level, None]
    column = (-1,) + (1,) * d
    index = stack.offsets[parity][level].reshape(column)
    for q in range(d):
        flank = node[:, q, None] + ((0, 1) if parity == PRIMAL else (-1, 0))
        flank = np.where(periodic, flank % n[:, q, None], np.clip(flank, 0, n[:, q, None] - 1))
        shape = [-1] + [1] * d
        shape[1 + q] = 2
        index = index + flank.reshape(shape) * n[:, q + 1 :].prod(axis=1).reshape(column)
    index = index.reshape(-1, 2**d)
    index.setflags(write=False)
    negate = None
    walls = list(wall_rows(stack, (node, counts))) if parity == DUAL else ()
    if walls:  # the clipped slots next to the walls hold the first interior node
        sign = np.ones((len(index),) + (2,) * d + (sum(math.prod(c) for c in blocks),))
        for q, side, kind, rows in walls:
            edge = [rows] + [slice(None)] * d
            edge[1 + q] = side
            sign[tuple(edge)] *= np.concatenate(
                [ghost_data(np.ones(c), kind, q, d).ravel() for c in blocks])
        negate = np.flatnonzero(sign < 0)
        negate.setflags(write=False)  # shared by every caller of the cache
    return GatherPlan(stack.shapes[parity][0], len(index), index, negate)


def take(rows: np.ndarray, plan: GatherPlan) -> np.ndarray:
    """Gather (nodes, K) node rows into (targets, 2**d * K) flanking-data rows.

    One take, then one sign flip of the reflected slots; each target's row
    holds its flanking nodes' rows, 2 per axis in C order (low side first).
    """
    out = rows.take(plan.index, axis=0)
    if plan.negate is not None:
        flat = out.reshape(-1)
        flat[plan.negate] *= -1.0
    return out.reshape(plan.targets, -1)

