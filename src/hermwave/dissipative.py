"""Half-step evolution of (u, v) data by the wave flow of its interpolant.

On a cell, with xi = (x - x_c)/h_q along each axis q, the flanking data
of a target node have Hermite interpolants c (u, degree 2m+1 per axis)
and d (v = u_t) in scaled coefficients. The system u_t = v, v_t = Delta u
moves them by the flow exp(tau A), A = [[0, I], [L, 0]], where L sums
over the axes 1/h_q^2 times D2 along q, the second xi-derivative
((j+2)(j+1) c_{j+2} at j). L lowers the degree along an axis by 2, so
the series of the flow terminates. Its stages, with tau = theta dt,

    c_s = (dt/s) d_{s-1},   d_s = dt L(c_{s-1}) / s,

are exactly zero past d(2m+2), and summing that many at theta = 1/2
evolves the interpolant exactly for dt/2. A half step reads the result at
the target node, the cell center, where the leading coefficients are its
scaled data, and hands them to the opposite grid. `taylor_half_step` is
that one loop in any number of axes, with no matrix of L.

One rule seeds the first acceleration d_1: it sums, over the axes q,
dt/h_q^2 times the second q-derivative of the u interpolant of order m
along q and of v's order along the others. That is dt L(c_0) in 1D and for
the conservative start, whose u_t has u's order. The step's v has order
m-1, so in 2D the seed is of I_{m,m-1} u along x and I_{m-1,m} u along y,
and 2D evolution is not exact on polynomial data. With v of order m-1
the last two stages are already zero (past 2m in 1D, 4m+2 in 2D). The 2D
periodic symbol puts stability in that stage count: seeding from the
full-order interpolant of u alone is stable at 4m+2 stages (max |g| - 1
at most 6.5e-15 for m = 1..4, lam <= 1), while at the 1D count of 2m
stages and lam = 1 its max |g| - 1 reads 0.75, 2.6 and 8.4 for
m = 1, 2, 3, and the mixed seed's 0, 0.49 and 4.2.

Interpolation, flow and reading are all linear in the gathered flanking
data, so for fixed (m, dt, h per axis) a half step is one matrix. `fold`
builds it once, by pushing the identity through the pipeline
(`taylor_half_step`), laid out as `take` gathers a row: per side, u | v
packed. `_packed_matrix` is that one fold per key, and it
builds every matrix of both schemes: fed u_t of u's order, its u columns
are the conservative scheme's B (see `conservative`). A half step is
then one take, at most one sign flip of the wall slots and one product:
`conservative.step`, the one step of both schemes. With v carried as h*v
the matrix depends on (m, lam, aspect) alone (see `grid.State`), so it is
built once at unit spacing for every level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import rows
from .interp import apply_interp


@dataclass(frozen=True)
class SchemeConfig:
    """Shared stepping parameters.

    Attributes:
        m: method order; nodal data carries derivatives 0..m of u.
        lam: CFL number dt/h (smallest h in 2D), in (0, 1]. The equation
            is u_tt = Delta u: u_tt = c^2 Delta u is the same run read at
            time c*t.
    """

    m: int
    lam: float = 0.8

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"method order must be >= 1, got {self.m}")
        if not 0.0 < self.lam <= 1.0:
            raise ValueError(f"CFL number must be in (0, 1], got {self.lam}")

    def dt(self, h: float) -> float:
        return self.lam * h


def fold(fn, blocks: tuple, sides: tuple, *args) -> np.ndarray:
    """The read-only matrix A of the linear per-target map fn: a gathered
    row times A is fn's outputs as one row, concatenated.

    A row holds, per side in C order over `sides`, the coefficients of each
    field of coefficient shape `blocks` packed, as `take` gathers it. fn
    takes one batched block (k, *sides, *block) per field, then `args`, and
    returns a tuple of batched blocks. A is found by applying fn to the
    identity laid out as those rows; the callers cache what they build.
    """
    width = sum(math.prod(b) for b in blocks)
    eye = np.eye(math.prod(sides) * width).reshape((-1,) + sides + (width,))
    fields, start = [], 0
    for b in blocks:
        fields.append(eye[..., start : start + math.prod(b)].reshape(eye.shape[:-1] + b))
        start += math.prod(b)
    a = np.concatenate([rows(o) for o in fn(*fields, *args)], axis=1)
    a.setflags(write=False)
    return a


def taylor_half_step(du, dv, dt, hs):
    """Interpolate, evolve by the wave flow for dt/2 and read the target
    node's data.

    du (..., 2 per axis, m+1 per axis) and dv (..., 2 per axis, m or m+1
    per axis) are flanking u and v data, one axis per entry of `hs`; returns
    the target (u, v) data of the same orders. The first acceleration is
    the module docstring's seed.
    """
    ndim = len(hs)
    m, lv = du.shape[-1] - 1, dv.shape[-1]
    k = 2 * m + 2
    d2t = np.diag(np.arange(2, k) * np.arange(1, k - 1), 2).T  # x @ d2t: d^2/dxi^2 of x

    def lap(x, q):
        """dt/h_q^2 times the second xi-derivative of x along axis q."""
        return dt / hs[q] ** 2 * np.swapaxes(np.swapaxes(x, q - ndim, -1) @ d2t, q - ndim, -1)

    def pad(x):
        return np.pad(x, [(0, 0)] * (x.ndim - ndim) + [(0, k - n) for n in x.shape[-ndim:]])

    c = apply_interp(du, ndim)
    seed = 0.0
    for q in range(ndim):
        keep = du[(Ellipsis,) + tuple(slice(None) if p == q else slice(lv) for p in range(ndim))]
        # in 1D and when v has u's order, keep is all of du
        seed = seed + lap(c if keep.shape == du.shape else pad(apply_interp(keep, ndim)), q)
    u, v = c, pad(apply_interp(dv, ndim))
    d = v  # the stage of v that the next stage of u integrates
    for s in range(1, ndim * k + 1):
        c, d = (dt / s) * d, seed if s == 1 else sum(lap(c, q) for q in range(ndim)) / s
        u = u + 0.5**s * c
        v = v + 0.5**s * d
    return u[(Ellipsis,) + (slice(m + 1),) * ndim], v[(Ellipsis,) + (slice(lv),) * ndim]


@lru_cache(maxsize=64)
def _packed_matrix(blocks: tuple, dt: float, hs: tuple) -> np.ndarray:
    """The `fold` of a half step from u | v per node of the coefficient
    `blocks`, built once per (blocks, dt, hs)."""
    return fold(taylor_half_step, blocks, (2,) * len(hs), dt, hs)
