"""Ghost polynomials at walls and the flanking-node gather.

Homogeneous walls are imposed by reflecting the first interior node's
data across the boundary: an odd reflection c_l -> (-1)**(l+1) c_l pins
the value (Dirichlet), an even reflection c_l -> (-1)**l c_l pins the
normal derivative (Neumann). The sign convention is arbitrated by the
property that the boundary-centered interpolant of (ghost, interior) data
then has no even (resp. odd) powers. A constant Dirichlet value g only
changes the leading ghost coefficient: c_0 -> 2g - c_0, which makes the
interpolant g plus an odd polynomial.

The gather routines below assemble, for every target node of the
opposite parity, the flanking source-node data (2 in 1D, 2x2 corners in
2D) including any ghosts, which is all the steppers need. Each axis is
one take through a cached index array: wrapped on a periodic axis (which
has no reflections), clipped at walls. A dual level at walls then gets
its two edge ghosts from one multiply-add with cached scale and shift
arrays built by the reflection routines, so the gathered data equals the
explicit [ghost, interior..., ghost] construction exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import DUAL, PRIMAL, Field1D, Field2D, flip

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


@dataclass(frozen=True)
class BoundarySpec2D:
    x: BoundarySpec = BoundarySpec()
    y: BoundarySpec = BoundarySpec()


def _signs(kind: str, n: int) -> np.ndarray:
    l = np.arange(n)
    if kind == "dirichlet0":
        return (-1.0) ** (l + 1)
    if kind == "neumann0":
        return (-1.0) ** l
    raise ValueError(f"no reflection for boundary kind {kind!r}")


def ghost_data(interior: np.ndarray, kind: str, value: float = 0.0) -> np.ndarray:
    """Reflect 1D node data (..., mu+1) across a wall.

    `value` is the constant Dirichlet datum; it shifts only c_0.
    Periodic edges are wrap-arounds, not reflections; use the gathers.
    """
    interior = np.asarray(interior, dtype=float)
    out = interior * _signs(kind, interior.shape[-1])
    if kind == "dirichlet0" and value != 0.0:
        out = out.copy()
        out[..., 0] += 2.0 * value
    return out


def ghost_data_2d(interior: np.ndarray, kind: str, normal_axis: int,
                  value: float = 0.0) -> np.ndarray:
    """Reflect 2D node data (..., kx+1, ky+1) in the normal direction.

    Args:
        interior: coefficient blocks of the first interior node(s).
        kind: dirichlet0 or neumann0.
        normal_axis: 0 if the wall is an x-edge, 1 for a y-edge.
        value: constant Dirichlet datum; shifts only c_{0,0}.
    """
    interior = np.asarray(interior, dtype=float)
    axis = -2 if normal_axis == 0 else -1
    s = _signs(kind, interior.shape[axis])
    shape = [1, 1]
    shape[axis] = interior.shape[axis]
    out = interior * s.reshape(shape)
    if kind == "dirichlet0" and value != 0.0:
        out = out.copy()
        out[..., 0, 0] += 2.0 * value
    return out


@lru_cache(maxsize=None)
def periodic_index(n: int, offsets: tuple) -> np.ndarray:
    """Read-only (n, len(offsets)) array of (j + offset) mod n, row j per target."""
    idx = (np.arange(n)[:, None] + np.asarray(offsets)[None, :]) % n
    idx.setflags(write=False)
    return idx


# offsets of the (left, right) source nodes of target j on a periodic axis:
# dual target j sits between primal j and j+1, primal target j between
# dual j-1 and j
FLANK_OFFSETS = {PRIMAL: (0, 1), DUAL: (-1, 0)}


@lru_cache(maxsize=256)
def wall_plan(n: int, parity: str, kinds: tuple, values: tuple,
              coeff_shape: tuple, normal_axis: int, n_middle: int):
    """Read-only (index, scale, shift) gathering `n` source nodes at walls.

    index is (targets, 2): (j, j+1) from a primal level, which needs no
    ghosts, and clip((j-1, j), 0, n-1) from a dual one. For a dual level
    the two edge slots [0, 0] and [-1, 1] hold the first and last interior
    node, which `out * scale + shift` turns into their ghosts; scale and
    shift, shaped (targets, 2, 1 per middle node axis, *coeff_shape), are
    1 and 0 elsewhere, so the other slots pass through unchanged. The
    ghost slots come from `ghost_data`/`ghost_data_2d` applied to ones
    (scale, with value 0) and to zeros (shift, with the wall value), so
    the reflection rule lives only there; scale and shift are None for a
    primal level.
    """
    if parity == PRIMAL:
        index = np.arange(n - 1)[:, None] + np.array([0, 1])
        scale = shift = None
    else:
        index = np.clip(np.arange(n + 1)[:, None] + np.array([-1, 0]), 0, n - 1)
        shape = (n + 1, 2) + (1,) * n_middle + coeff_shape
        scale, shift = np.ones(shape), np.zeros(shape)
        for slot, kind, value in (((0, 0), kinds[0], values[0]),
                                  ((-1, 1), kinds[1], values[1])):
            if len(coeff_shape) == 2:
                scale[slot] = ghost_data_2d(np.ones(coeff_shape), kind, normal_axis)
                shift[slot] = ghost_data_2d(np.zeros(coeff_shape), kind, normal_axis, value)
            else:
                scale[slot] = ghost_data(np.ones(coeff_shape), kind)
                shift[slot] = ghost_data(np.zeros(coeff_shape), kind, value)
        scale.setflags(write=False)
        shift.setflags(write=False)
    index.setflags(write=False)
    return index, scale, shift


def _gather_axis(values, node_axis, coeff_axis, parity, periodic, spec,
                 values_override=None):
    """Replace `node_axis` (source nodes) by (targets, 2) flanking data.

    Every gather is one take through a cached index array; a dual level
    on a wall grid then gets its edge ghosts from one multiply-add.
    `values_override` replaces the spec's Dirichlet constants (the
    velocity field of a constant-in-time Dirichlet problem reflects
    around zero). The trailing axes are coefficients: one in 1D, two in 2D.
    """
    n = values.shape[node_axis]
    if periodic:
        return values.take(periodic_index(n, FLANK_OFFSETS[parity]), axis=node_axis)
    n_coeff = 1 if values.ndim == 2 else 2
    index, scale, shift = wall_plan(
        n, parity, (spec.left, spec.right),
        (spec.left_value, spec.right_value) if values_override is None
        else tuple(values_override),
        values.shape[values.ndim - n_coeff:], 0 if coeff_axis == "x" else 1,
        values.ndim - node_axis - 1 - n_coeff)
    out = values.take(index, axis=node_axis)
    if scale is not None:
        out *= scale
        out += shift
    return out


def pair_sources(field: Field1D, spec: BoundarySpec, dirichlet_values=None):
    """Flanking data for every target node of the opposite parity.

    Returns:
        data: (n_targets, 2, mu+1), axis 1 being (left, right).
        centers: target node coordinates (the cell midpoints).
    """
    if spec.periodic != field.grid.periodic:
        raise ValueError("boundary spec and grid disagree about periodicity")
    data = _gather_axis(field.values, 0, "x", field.parity, field.grid.periodic,
                        spec, dirichlet_values)
    centers = field.grid.nodes(flip(field.parity))
    return data, centers


def corner_sources(field: Field2D, spec: BoundarySpec2D, dirichlet_values=None):
    """Corner data for every 2D target node of the opposite parity.

    Returns:
        data: (ntx, nty, 2, 2, kx+1, ky+1); axes 2/3 are the x/y side.
        cx, cy: target node coordinates per axis.
    """
    for ax_spec in (spec.x, spec.y):
        if ax_spec.periodic != field.grid.periodic:
            raise ValueError("boundary spec and grid disagree about periodicity")
    a = _gather_axis(field.values, 0, "x", field.parity, field.grid.periodic,
                     spec.x, dirichlet_values)  # (ntx, 2, ny, kx+1, ky+1)
    b = _gather_axis(a, 2, "y", field.parity, field.grid.periodic,
                     spec.y, dirichlet_values)  # (ntx, 2, nty, 2, kx+1, ky+1)
    data = np.moveaxis(b, 1, 2)
    cx = field.grid.axis(0).nodes(flip(field.parity))
    cy = field.grid.axis(1).nodes(flip(field.parity))
    return data, cx, cy
