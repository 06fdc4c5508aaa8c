"""Ghost polynomials at walls and the flanking-node gather.

Homogeneous walls are imposed by reflecting the first interior node's
data across the boundary: an odd reflection c_l -> (-1)**(l+1) c_l pins
the value (Dirichlet), an even reflection c_l -> (-1)**l c_l pins the
normal derivative (Neumann). The sign convention is arbitrated by the
property that the boundary-centered interpolant of (ghost, interior) data
then has no even (resp. odd) powers. A constant Dirichlet value g only
changes the leading ghost coefficient: c_0 -> 2g - c_0, which makes the
interpolant g plus an odd polynomial. In d axes one reflection
(`ghost_data`) acts along the wall's normal order axis alike on every
tangential column.

A level's boundary is a tuple of one `BoundarySpec` per axis, in axis
order. The gathers below assemble, for every target node of the opposite
parity, the flanking source-node data (2 per axis: 2 in 1D, 2x2 corners in
2D) including any ghosts, which is all the steppers need. Every gather runs
one path, `take` through a `GatherPlan` cached on the level's grid: one
take through a flat index into the node rows (u | v packed per node for
the steppers), which wraps on a periodic axis and is clipped at walls. A
dual level at walls then turns the clipped edge slots into ghosts with one
multiply-add per wall axis at their flat positions, with scale and shift
built by the reflection routines, so the result equals the explicit
[ghost, interior..., ghost] construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import DUAL, PRIMAL, flip

KINDS = ("periodic", "dirichlet0", "neumann0")


@dataclass(frozen=True)
class BoundarySpec:
    """Edge conditions for one axis; values are constant Dirichlet data."""

    left: str = "periodic"
    right: str = "periodic"
    left_value: float = 0.0
    right_value: float = 0.0

    def __post_init__(self):
        for kind in (self.left, self.right):
            if kind not in KINDS:
                raise ValueError(f"unknown boundary kind {kind!r}, expected one of {KINDS}")
        if (self.left == "periodic") != (self.right == "periodic"):
            raise ValueError("periodic must be specified on both opposing sides")

    @property
    def periodic(self) -> bool:
        return self.left == "periodic"


def _signs(kind: str, n: int) -> np.ndarray:
    l = np.arange(n)
    if kind == "dirichlet0":
        return (-1.0) ** (l + 1)
    if kind == "neumann0":
        return (-1.0) ** l
    raise ValueError(f"no reflection for boundary kind {kind!r}")


def ghost_data(interior: np.ndarray, kind: str, value: float = 0.0, axis: int = 0,
               ndim: int = 1) -> np.ndarray:
    """Reflect node data (..., mu_q+1 per axis) across a wall normal to `axis`.

    Args:
        interior: coefficient blocks of the first interior node(s), with
            `ndim` trailing order axes.
        kind: dirichlet0 or neumann0; periodic edges are wrap-arounds, not
            reflections, and are left to the gathers.
        value: constant Dirichlet datum; shifts only c_{0,...,0}.
        axis: the wall's normal axis, 0 for an x-edge.
    """
    interior = np.asarray(interior, dtype=float)
    k = interior.shape[axis - ndim]
    out = interior * _signs(kind, k).reshape((k,) + (1,) * (ndim - 1 - axis))
    if kind == "dirichlet0" and value != 0.0:
        out[(Ellipsis,) + (0,) * ndim] += 2.0 * value
    return out


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

    `fixups` holds per wall axis of a dual level, x first, the flat edge
    positions with the scale and shift that reflect them; a corner slot is
    reflected by both in turn, as one combined shift would round differently.
    """

    __slots__ = ("nodes", "targets", "index", "fixups")

    def __init__(self, nodes: int, targets: int, index: np.ndarray, fixups: tuple):
        self.nodes, self.targets, self.index, self.fixups = nodes, targets, index, fixups


def gather_plan(grid, parity: str, bc: tuple, blocks: tuple) -> GatherPlan:
    """Build the `GatherPlan` of one level's `parity` nodes under `bc`.

    `bc` holds one `BoundarySpec` per axis, in axis order. `blocks` is
    ((coefficient shape, Dirichlet values or None), ...), one per field
    packed along the node rows; values replace the specs' Dirichlet
    constants (the velocity of a constant-in-time Dirichlet problem
    reflects around zero). Raises ValueError when bc does not give one spec
    per axis or disagrees with the grid about periodicity.
    """
    ndim = len(grid.axes)
    if not isinstance(bc, tuple) or len(bc) != ndim:
        raise ValueError(f"need a tuple of {ndim} BoundarySpec, one per axis, got {bc!r}")
    if any(spec.periodic != grid.periodic for spec in bc):
        raise ValueError("boundary spec and grid disagree about periodicity")
    counts = grid.shapes[parity]
    index = gather_index(counts, parity, grid.periodic)
    fixups = []
    shape = index.shape + (sum(math.prod(coeffs) for coeffs, _ in blocks),)
    for axis, spec in enumerate(bc if parity == DUAL and not grid.periodic else ()):
        # the clipped slots next to this axis's walls hold the first interior node
        scale, shift, mask = np.ones(shape), np.zeros(shape), np.zeros(shape, dtype=bool)
        for side, kind in ((0, spec.left), (1, spec.right)):
            edge = [slice(None)] * (2 * ndim)
            edge[axis], edge[ndim + axis] = -side, side
            edge = tuple(edge)
            mask[edge] = True
            scale[edge] = np.concatenate([ghost_data(np.ones(c), kind, 0.0, axis, ndim).ravel()
                                          for c, _ in blocks])
            shift[edge] = np.concatenate([
                ghost_data(np.zeros(c), kind, (v or (spec.left_value, spec.right_value))[side],
                           axis, ndim).ravel() for c, v in blocks])
        fixups.append((np.flatnonzero(mask), scale[mask], shift[mask]))
    return GatherPlan(math.prod(counts), math.prod(index.shape[:ndim]), index, tuple(fixups))


def take(rows: np.ndarray, plan: GatherPlan) -> np.ndarray:
    """Gather (nodes, K) node rows into (targets, 2**d * K) flanking-data rows.

    One take, then per wall stage one read, multiply-add and write; reshaped
    to the index's shape + (K,) the result has `gather_index`'s layout.
    """
    out = rows.take(plan.index, axis=0)
    if plan.fixups:
        flat = out.reshape(-1)
        for pos, scale, shift in plan.fixups:
            flat[pos] = flat[pos] * scale + shift
    return out.reshape(plan.targets, -1)


def pair_sources(field, bc: tuple, dirichlet_values=None):
    """Flanking data for every target node of the opposite parity.

    Gathers through the plan cached on the field's grid.

    Returns:
        (data, *centers): data shaped (targets per axis..., 2 per axis...,
        mu_q+1 per axis...), each 2 being that axis's (low, high) side, then
        the target node coordinates (the cell midpoints) of each axis.
    """
    grid, parity, values = field.grid, field.parity, field.values
    coeffs = values.shape[len(grid.axes) :]
    key = ("gather", parity, bc, dirichlet_values, coeffs)
    plan = grid.plans.get(key)
    if plan is None:
        plan = grid.plans[key] = gather_plan(grid, parity, bc, ((coeffs, dirichlet_values),))
    data = take(values.reshape(plan.nodes, -1), plan).reshape(plan.index.shape + coeffs)
    return (data, *(axis.nodes(flip(parity)) for axis in grid.axes))
