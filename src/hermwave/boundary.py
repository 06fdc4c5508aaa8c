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
scheme). On each level the index wraps on a periodic axis and is clipped
at walls. A dual level at walls then turns the clipped edge slots into
ghosts: every reflection is a sign flip, so one flat index `negate` lists
the slots whose product of wall signs is -1 (corners included), and the
result equals the explicit [ghost, interior..., ghost] construction. A
stack's gather is its levels' gathers one after the other, each offset by
the rows and slots before its level.
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


def zero_wall_slots(values: np.ndarray, stack) -> None:
    """Zero, in place, the slots each wall flips to -1 on its primal nodes.

    values holds a `Stack`'s primal node data: its rows, then order axes.
    On the nodes that sit on a wall normal to axis q, the slots of axis-q
    order l with `ghost_data` sign -1 are set to 0: c_0, c_2, ... at
    `dirichlet0` and c_1, c_3, ... at `neumann0`, so the data there equal
    their own reflection.
    """
    d, offsets = stack.ndim, stack.offsets[PRIMAL]
    for i, level in enumerate(stack.levels):
        block = values[offsets[i] : offsets[i + 1]].view()
        block.shape = level.shapes[PRIMAL] + values.shape[-d:]  # raises rather than copy
        for q, axis in enumerate(level.axes):
            for node, kind in ((0, axis.left), (-1, axis.right)):
                if kind != "periodic":
                    at = [slice(None)] * (2 * d)
                    at[q] = node
                    at[d + q] = np.flatnonzero(_signs(kind, block.shape[d + q]) < 0)
                    block[tuple(at)] = 0.0


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
    """A stack's gather: `nodes` source rows to `targets` rows via `index`.

    `negate` holds the flat positions of the gathered slots that a dual
    level's walls reflect with sign -1, or None where nothing is reflected.
    """

    __slots__ = ("nodes", "targets", "index", "negate")

    def __init__(self, nodes: int, targets: int, index: np.ndarray, negate):
        self.nodes, self.targets, self.index, self.negate = nodes, targets, index, negate


@lru_cache(maxsize=256)
def _negate(counts: tuple, kinds: tuple, blocks: tuple) -> np.ndarray:
    """Read-only `GatherPlan.negate` of a dual level of `counts` nodes per
    axis between walls of `kinds` (left, right) per axis, for `blocks`."""
    ndim = len(counts)
    index = gather_index(counts, DUAL, False)
    # the clipped slots next to the walls hold the first interior node
    sign = np.ones(index.shape + (sum(math.prod(coeffs) for coeffs in blocks),))
    for q, ends in enumerate(kinds):
        for side, kind in enumerate(ends):
            edge = [slice(None)] * (2 * ndim)
            edge[q], edge[ndim + q] = -side, side
            sign[tuple(edge)] *= np.concatenate(
                [ghost_data(np.ones(c), kind, q, ndim).ravel() for c in blocks])
    negate = np.flatnonzero(sign < 0)
    negate.setflags(write=False)
    return negate


@lru_cache(maxsize=256)
def gather_plan(stack, parity: str, blocks: tuple) -> GatherPlan:
    """The `GatherPlan` of a `Stack`'s `parity` nodes for `blocks`, built
    once per (stack's levels, parity, blocks).

    `blocks` holds the coefficient shape of each field packed along the
    node rows; with homogeneous walls every field reflects the same way.
    Each level's `gather_index` is offset by the rows before the level,
    and on a dual level at walls its `_negate` by the slots before its
    first target, and they are concatenated. A step's plan and the error
    norms that gather the same blocks from equal stacks share one.
    """
    slots = 2**stack.ndim * sum(math.prod(coeffs) for coeffs in blocks)  # per target
    index, negate = [], []
    for level, first, start in zip(stack.levels, stack.offsets[parity],
                                   stack.offsets[flip(parity)]):
        counts = level.shapes[parity]
        index.append(gather_index(counts, parity, level.periodic).reshape(-1, 2**stack.ndim)
                     + first)
        if parity == DUAL and not level.periodic:
            kinds = tuple((axis.left, axis.right) for axis in level.axes)
            negate.append(_negate(counts, kinds, blocks) + start * slots)
    index = np.concatenate(index)
    index.setflags(write=False)
    negate = np.concatenate(negate) if negate else None
    if negate is not None:  # shared by every caller of the cache
        negate.setflags(write=False)
    return GatherPlan(stack.shapes[parity][0], stack.shapes[flip(parity)][0], index, negate)


def take(rows: np.ndarray, plan: GatherPlan) -> np.ndarray:
    """Gather (nodes, K) node rows into (targets, 2**d * K) flanking-data rows.

    One take, then one sign flip of the reflected slots; each target's row
    holds its flanking nodes' rows in `gather_index`'s order.
    """
    out = rows.take(plan.index, axis=0)
    if plan.negate is not None:
        flat = out.reshape(-1)
        flat[plan.negate] *= -1.0
    return out.reshape(plan.targets, -1)

