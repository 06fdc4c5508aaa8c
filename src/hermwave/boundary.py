"""Ghost polynomials at walls and the flanking-node gather.

Homogeneous walls are imposed by reflecting the first interior node's
data across the boundary: an odd reflection c_l -> (-1)**(l+1) c_l pins
the value (Dirichlet), an even reflection c_l -> (-1)**l c_l pins the
normal derivative (Neumann). The sign convention is arbitrated by the
property that the boundary-centered interpolant of (ghost, interior) data
then has no even (resp. odd) powers. A constant Dirichlet value g only
changes the leading ghost coefficient: c_0 -> 2g - c_0, which makes the
interpolant g plus an odd polynomial.

The gathers below assemble, for every target node of the opposite
parity, the flanking source-node data (2 in 1D, 2x2 corners in 2D)
including any ghosts, which is all the steppers need. 1D and 2D share one
path: one take through a cached flat index into the level's nodes, which
wraps on a periodic axis (no reflections) and is clipped at walls. A dual
level at walls then turns its clipped edge slots into ghosts in place,
with cached scale and shift arrays built by the reflection routines, so
the result equals the explicit [ghost, interior..., ghost] construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

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


@lru_cache(maxsize=256)
def gather_index(counts: tuple, parity: str, periodic: bool) -> np.ndarray:
    """Read-only index of every target's flanking nodes in a level's nodes.

    Per axis of `counts` node counts, a dual target j sits between primal
    nodes j and j+1 and a primal target j between dual nodes j-1 and j.
    The index is into the nodes flattened in C order, shaped (targets per
    axis..., 2 per axis...): (targets, 2) in 1D, (ntx, nty, 2, 2) in 2D.
    """
    offsets = np.array((0, 1) if parity == PRIMAL else (-1, 0))
    flanks = []
    for n in counts:
        flank = np.arange(n if periodic else n - 1 if parity == PRIMAL else n + 1)
        flank = flank[:, None] + offsets
        flanks.append(flank % n if periodic else np.clip(flank, 0, n - 1))
    if len(flanks) == 1:
        index = flanks[0]
    else:
        ix, iy = flanks
        index = ix[:, None, :, None] * counts[1] + iy[None, :, None, :]
    index.setflags(write=False)
    return index


@lru_cache(maxsize=256)
def ghost_fixups(specs: tuple, values_override, coeff_shape: tuple) -> tuple:
    """Read-only (edge, scale, shift) per wall of a dual level, x walls first.

    `edge` selects the gathered slots next to the wall that hold the first
    interior node; `edge * scale + shift` is its ghost, as scale and shift
    reflect ones with value 0 and zeros with the wall value. A corner slot
    lies on an x and a y edge and so reflects in both axes.
    """
    ndim = len(specs)
    fixups = []
    for axis, spec in enumerate(specs):
        values = values_override or (spec.left_value, spec.right_value)
        reflect = ghost_data if ndim == 1 else partial(ghost_data_2d, normal_axis=axis)
        for side, kind, value in ((0, spec.left, values[0]), (1, spec.right, values[1])):
            scale = reflect(np.ones(coeff_shape), kind)
            shift = reflect(np.zeros(coeff_shape), kind, value=value)
            scale.setflags(write=False)
            shift.setflags(write=False)
            edge = [slice(None)] * (2 * ndim)
            edge[axis], edge[ndim + axis] = -side, side
            fixups.append((tuple(edge), scale, shift))
    return tuple(fixups)


def _gather(field, specs: tuple, values_override):
    """One take through the level's cached index, then any ghosts in place.

    `values_override`, a (left, right) pair, replaces the specs' Dirichlet
    constants (the velocity of a constant-in-time Dirichlet problem
    reflects around zero).
    """
    periodic = field.grid.periodic
    if any(spec.periodic != periodic for spec in specs):
        raise ValueError("boundary spec and grid disagree about periodicity")
    values, ndim = field.values, len(specs)
    coeffs = values.shape[ndim:]
    out = values.reshape((-1,) + coeffs).take(
        gather_index(values.shape[:ndim], field.parity, periodic), axis=0)
    if not periodic and field.parity == DUAL:
        for edge, scale, shift in ghost_fixups(specs, values_override, coeffs):
            slab = out[edge]
            slab *= scale
            slab += shift
    return out


def pair_sources(field: Field1D, spec: BoundarySpec, dirichlet_values=None):
    """Flanking data for every target node of the opposite parity.

    Returns:
        data: (n_targets, 2, mu+1), axis 1 being (left, right).
        centers: target node coordinates (the cell midpoints).
    """
    return _gather(field, (spec,), dirichlet_values), field.grid.nodes(flip(field.parity))


def corner_sources(field: Field2D, spec: BoundarySpec2D, dirichlet_values=None):
    """Corner data for every 2D target node of the opposite parity.

    Returns:
        data: (ntx, nty, 2, 2, kx+1, ky+1); axes 2/3 are the x/y side.
        cx, cy: target node coordinates per axis.
    """
    target = flip(field.parity)
    return (_gather(field, (spec.x, spec.y), dirichlet_values),
            field.grid.axis(0).nodes(target), field.grid.axis(1).nodes(target))
