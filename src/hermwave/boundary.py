"""Ghost polynomials at walls and the flanking-node gather.

Homogeneous walls are imposed by reflecting the first interior node's
data across the boundary: an odd reflection c_l -> (-1)**(l+1) c_l pins
the value (Dirichlet), an even reflection c_l -> (-1)**l c_l pins the
normal derivative (Neumann). The sign convention is arbitrated by the
property that the boundary-centered interpolant of (ghost, interior) data
then has no even (resp. odd) powers. A constant Dirichlet value g only
changes the leading ghost coefficient: c_0 -> 2g - c_0, which makes the
interpolant g plus an odd polynomial.

Periodic edges are not reflections; the gather routines below wrap
indices instead. They assemble, for every target node of the opposite
parity, the flanking source-node data (2 in 1D, 2x2 corners in 2D)
including any ghosts, which is all the steppers need.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _gather_axis(values, node_axis, coeff_axis, parity, periodic, spec,
                 values_override=None):
    """Replace `node_axis` (source nodes) by (targets, 2) flanking data.

    Ghost construction happens here for wall grids when the dual-to-primal
    direction needs data beyond the ends. `values_override` replaces the
    spec's Dirichlet constants (the velocity field of a constant-in-time
    Dirichlet problem reflects around zero).
    """
    v = np.moveaxis(values, node_axis, 0)
    ndim2d = v.ndim > 2  # 2D blocks carry two coefficient axes
    vl, vr = (spec.left_value, spec.right_value) if values_override is None else values_override

    def ghost(block, kind, value):
        if ndim2d:
            return ghost_data_2d(block, kind, 0 if coeff_axis == "x" else 1, value)
        return ghost_data(block, kind, value)

    if periodic:
        if parity == PRIMAL:
            left, right = v, np.roll(v, -1, axis=0)
        else:
            left, right = np.roll(v, 1, axis=0), v
    elif parity == PRIMAL:
        left, right = v[:-1], v[1:]
    else:
        pad_l = ghost(v[:1], spec.left, vl)
        pad_r = ghost(v[-1:], spec.right, vr)
        vp = np.concatenate([pad_l, v, pad_r], axis=0)
        left, right = vp[:-1], vp[1:]
    out = np.stack([left, right], axis=1)  # (targets, 2, ...)
    return np.moveaxis(out, (0, 1), (node_axis, node_axis + 1))


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
