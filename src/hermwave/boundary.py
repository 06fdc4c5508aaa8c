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

The gathers below assemble, for every target node of the opposite parity,
the flanking source-node data (2 per axis: 2 in 1D, 2x2 corners in 2D)
including any ghosts, which is all the steppers and the error norms need.
Every gather runs one path, `take` through a `GatherPlan` cached on the
level's grid, one per gathered blocks (`level_gather`): one take through a
flat index into the node rows (u | v packed per node for the dissipative
stepper), which wraps on a periodic axis and is clipped at walls. A
dual level at walls then turns the clipped edge slots into ghosts: every
reflection is a sign flip, so one flat index `negate` lists the slots
whose product of wall signs is -1 (corners included), and the result
equals the explicit [ghost, interior..., ghost] construction.
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


@lru_cache(maxsize=256)
def gather_index(counts: tuple, parity: str, periodic: bool) -> np.ndarray:
    """Read-only index of every target's flanking nodes in a level's nodes.

    Per axis of `counts` node counts, a dual target j sits between primal
    nodes j and j+1 and a primal target j between dual nodes j-1 and j.
    The index is into the nodes flattened in C order, shaped (targets per
    axis..., 2 per axis...): (targets, 2) in 1D, (ntx, nty, 2, 2) in 2D.
    """
    ndim = len(counts)
    offsets = np.array((0, 1) if parity == PRIMAL else (-1, 0))
    index = 0
    for q, n in enumerate(counts):
        flank = np.arange(n if periodic else n - 1 if parity == PRIMAL else n + 1)
        flank = flank[:, None] + offsets
        flank = flank % n if periodic else np.clip(flank, 0, n - 1)
        shape = [1] * (2 * ndim)
        shape[q], shape[ndim + q] = flank.shape
        index = index + flank.reshape(shape) * math.prod(counts[q + 1 :])
    index.setflags(write=False)
    return index


class GatherPlan:
    """One level's gather: `nodes` source rows to `targets` rows via `index`.

    `negate` holds the flat positions of the gathered slots that a dual
    level's walls reflect with sign -1, or None where nothing is reflected.
    """

    __slots__ = ("nodes", "targets", "index", "negate")

    def __init__(self, nodes: int, targets: int, index: np.ndarray, negate):
        self.nodes, self.targets, self.index, self.negate = nodes, targets, index, negate


def gather_plan(grid, parity: str, blocks: tuple) -> GatherPlan:
    """Build the `GatherPlan` of one level's `parity` nodes.

    `blocks` holds the coefficient shape of each field packed along the
    node rows; with homogeneous walls every field reflects the same way.
    """
    ndim = len(grid.axes)
    counts = grid.shapes[parity]
    index = gather_index(counts, parity, grid.periodic)
    negate = None
    if parity == DUAL and not grid.periodic:
        # the clipped slots next to the walls hold the first interior node
        sign = np.ones(index.shape + (sum(math.prod(coeffs) for coeffs in blocks),))
        for q, axis in enumerate(grid.axes):
            for side, kind in ((0, axis.left), (1, axis.right)):
                edge = [slice(None)] * (2 * ndim)
                edge[q], edge[ndim + q] = -side, side
                sign[tuple(edge)] *= np.concatenate(
                    [ghost_data(np.ones(c), kind, q, ndim).ravel() for c in blocks])
        negate = np.flatnonzero(sign < 0)
    return GatherPlan(math.prod(counts), math.prod(index.shape[:ndim]), index, negate)


def level_gather(grid, parity: str, blocks: tuple) -> GatherPlan:
    """The `gather_plan` of grid's `parity` level for `blocks`, built once.

    It is kept in the grid's `plans` under ("gather", parity, blocks), so a
    stepper's plan, `pair_sources` and the error norms that gather the same
    blocks from the same level share one.
    """
    key = ("gather", parity, blocks)
    plan = grid.plans.get(key)
    if plan is None:
        plan = grid.plans[key] = gather_plan(grid, parity, blocks)
    return plan


def take(rows: np.ndarray, plan: GatherPlan) -> np.ndarray:
    """Gather (nodes, K) node rows into (targets, 2**d * K) flanking-data rows.

    One take, then one sign flip of the reflected slots; reshaped to the
    index's shape + (K,) the result has `gather_index`'s layout.
    """
    out = rows.take(plan.index, axis=0)
    if plan.negate is not None:
        flat = out.reshape(-1)
        flat[plan.negate] *= -1.0
    return out.reshape(plan.targets, -1)


def pair_sources(field):
    """Flanking data for every target node of the opposite parity.

    Gathers through the field's `level_gather`.

    Returns:
        (data, *centers): data shaped (targets per axis..., 2 per axis...,
        mu_q+1 per axis...), each 2 being that axis's (low, high) side, then
        the target node coordinates (the cell midpoints) of each axis.
    """
    grid, parity, values = field.grid, field.parity, field.values
    coeffs = values.shape[len(grid.axes) :]
    plan = level_gather(grid, parity, (coeffs,))
    data = take(values.reshape(plan.nodes, -1), plan).reshape(plan.index.shape + coeffs)
    return (data, *(axis.nodes(flip(parity)) for axis in grid.axes))
