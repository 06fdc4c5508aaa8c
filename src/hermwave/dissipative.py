"""Half-step evolution of (u, v) data by cell-local Taylor recursion.

Writing u and its velocity v = u_t on a cell as space-time series

    u = sum_{l,s} c_{l,s} xi**l theta**s,   xi = (x - x_c)/h, theta = (t - t_n)/dt,

the first-order system u_t = v, v_t = u_xx turns into the recursion

    c_{l,s} = (dt/s) d_{l,s-1},
    d_{l,s} = (l+2)(l+1) (dt/h^2) / s * c_{l+2,s-1},

seeded at s = 0 by the Hermite interpolants of degree 2m+1 (u) and 2m-1
(v). The series terminate: every coefficient beyond
kappa_v(l) = 2m-1-2*floor(l/2) (v) and kappa_u = kappa_v+1 (u) vanishes,
so running 2m stages evolves polynomial data exactly for dt <= h. One
half step evaluates the truncated series at theta = 1/2 on the staggered
node at the cell center and hands the data to the opposite grid.

In d axes the same recursion runs on tensor coefficients, one axis per
spacing h_q, with the d second-derivative terms summed; one builder
(`expand_taylor`, `taylor_half_step`) serves every d. The first stage of
the v-recursion sums, over the axes q, the second q-derivative of the
interpolant of order m along q and m-1 along the others (I_{m,m-1} u for
x and I_{m-1,m} u for y in 2D), after which the plain recursion takes
over. In 1D that sum is the plain stage 1. The price is that 2D evolution
is no longer exact on polynomial data. Past d(2m+2)-2 stages every
coefficient is exactly zero (2m in 1D, 4m+2 in 2D), so a half step runs
that many (`SchemeConfig.stages`). The 2D periodic symbol puts stability
in that stage count: seeding every series from the full-order
interpolant of u alone is stable at 4m+2 stages (max |g| - 1 at most
6.5e-15 for m = 1..4, lam <= 1), while at the 1D count of 2m stages and
lam = 1 its max |g| - 1 reads 0.75, 2.6 and 8.4 for m = 1, 2, 3, and the
mixed first stage's 0, 0.49 and 4.2.

Interpolation, recursion and evaluation are all linear in the gathered
flanking data, so for fixed (m, dt, h per axis, stages) a half step is
one matrix. `fold` builds it once, one row block per gathered field, by
pushing the identity through the pipeline (`taylor_half_step`), and
`_packed_matrix` stacks the blocks in the rows of u | v packed per node.
A half step is then one take, at most one sign flip of the wall slots and
one product: `conservative.step`, the one step of both schemes. With v
carried as h*v the matrix depends on (m, lam, aspect) alone (see
`grid.State`), so it is built once at unit spacing for every level.
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

    def stages(self, ndim: int) -> int:
        """Taylor stages of a half step in `ndim` axes: d(2m+2)-2 (2m in 1D,
        4m+2 in 2D), past which every stage is exactly zero."""
        return ndim * (2 * self.m + 2) - 2


def _axis_slice(ndim: int, q: int, sl: slice) -> tuple:
    """Index that applies `sl` to coefficient axis q of ndim trailing axes."""
    return (Ellipsis,) + (slice(None),) * q + (sl,) + (slice(None),) * (ndim - 1 - q)


def _d2_terms(dt, hs, k: int) -> list:
    """The v recursion's second-derivative term per axis q, on k coefficients per axis.

    Each is (r_q, w_q, src_q, dst_q) with r_q = dt/h_q^2 and w_q =
    (j+2)(j+1), j < k-2, shaped along axis q: stage s adds
    r_q/s * w_q * c[src_q] at [dst_q].
    """
    ndim = len(hs)
    w = np.arange(2, k) * np.arange(1, k - 1)
    return [(dt / (h * h), w.reshape((-1,) + (1,) * (ndim - 1 - q)),
             _axis_slice(ndim, q, slice(2, None)), _axis_slice(ndim, q, slice(k - 2)))
            for q, h in enumerate(hs)]


def expand_taylor(c0, d0, dt, hs, smax, d1=None):
    """Run the recursion on batched cell coefficients, one axis per spacing.

    Args:
        c0: (..., K per axis) scaled u coefficients at s=0.
        d0: (..., Lv per axis) scaled v coefficients at s=0, Lv <= K.
        hs: cell spacing per axis.
        d1: optional (..., K-2 per axis) first v stage; if absent the plain
            recursion supplies stage 1 as well.

    Returns:
        (C, D), both padded to c0's footprint, with a leading stage axis of
        length smax+1: stage s is the contiguous slab C[s].
    """
    ndim = len(hs)
    c0 = np.asarray(c0, dtype=float)
    k, lv = c0.shape[-1], np.shape(d0)[-1]
    ctab = np.zeros((smax + 1,) + c0.shape)
    dtab = np.zeros_like(ctab)
    ctab[0] = c0
    dtab[0][(Ellipsis,) + (slice(lv),) * ndim] = d0
    terms = _d2_terms(dt, hs, k)
    for s in range(1, smax + 1):
        ctab[s] = (dt / s) * dtab[s - 1]
        if s == 1 and d1 is not None:
            dtab[1][(Ellipsis,) + (slice(k - 2),) * ndim] = d1
            continue
        prev, cur = ctab[s - 1], dtab[s]
        for q, (r, w, src, dst) in enumerate(terms):
            term = (r / s) * w * prev[src]
            if q == 0:
                cur[dst] = term
            else:
                cur[dst] += term
    return ctab, dtab


def eval_series(table: np.ndarray, theta: float) -> np.ndarray:
    """Sum the time series (stages first) at theta = tau/dt by Horner's rule."""
    out = table[-1].copy()
    for s in range(len(table) - 2, -1, -1):
        out = out * theta + table[s]
    return out


def fold(fn, shapes, *args) -> tuple:
    """Row blocks of the linear per-target map blocks -> fn(*blocks, *args).

    fn takes one batched block (k, *shape) per entry of `shapes`, then
    `args`, and returns a tuple of batched blocks. The result holds one
    A_i per input block: sum_i rows(block_i) @ A_i is fn's outputs as rows,
    concatenated. It is found by applying fn to the identity; the callers
    cache the matrices they build from it.
    """
    sizes = [math.prod(s) for s in shapes]
    eye = np.eye(sum(sizes))
    splits = np.cumsum(sizes)[:-1]
    cols = np.split(eye, splits, axis=1)
    outs = fn(*(c.reshape((-1,) + s) for c, s in zip(cols, shapes)), *args)
    a = np.concatenate([rows(o) for o in outs], axis=1)
    return tuple(np.split(a, splits))


def taylor_half_step(du, dv, dt, hs, stages):
    """Interpolate, expand in time and evaluate at dt/2, per target node.

    du (..., 2 per axis, m+1 per axis) and dv (..., 2 per axis, m per axis)
    are flanking u and v data, one axis per entry of `hs`; returns the
    target (u, v) data of the same orders. The first v stage sums, over the
    axes q, the second q-derivative of the u interpolant of order m along q
    and m-1 along the others; in 1D that is the plain recursion's stage 1.
    """
    ndim = len(hs)
    m = dv.shape[-1]
    terms = []
    for q, (r, w, src, _) in enumerate(_d2_terms(dt, hs, 2 * m + 2)):
        keep = tuple(slice(None) if p == q else slice(m) for p in range(ndim))
        terms.append(r * w * apply_interp(du[(Ellipsis,) + keep], ndim)[src])
    d1 = sum(terms[1:], terms[0])
    ctab, dtab = expand_taylor(apply_interp(du, ndim), apply_interp(dv, ndim), dt, hs, stages,
                               d1=d1)
    return (eval_series(ctab, 0.5)[(Ellipsis,) + (slice(m + 1),) * ndim],
            eval_series(dtab, 0.5)[(Ellipsis,) + (slice(m),) * ndim])


def packed(blocks: tuple, sides: tuple) -> np.ndarray:
    """`fold`'s row blocks, stacked and permuted into the rows of their fields
    packed per node, as `take` gathers them; read-only."""
    # row r of block i reads entry r of field i's flattened (sides, coefficients) block
    first = np.cumsum([0] + [len(block) for block in blocks])
    index = np.concatenate([start + np.arange(len(block)).reshape(sides + (-1,))
                            for start, block in zip(first, blocks)], axis=-1)
    a = np.concatenate(blocks)[index.ravel()]
    a.setflags(write=False)
    return a


@lru_cache(maxsize=64)
def _packed_matrix(m: int, dt: float, hs: tuple, stages: int) -> np.ndarray:
    """The `packed` `fold` blocks of a half step, u | v per node, built once
    per (m, dt, hs, stages)."""
    ndim = len(hs)
    sides, cu, cv = (2,) * ndim, (m + 1,) * ndim, (m,) * ndim
    return packed(fold(taylor_half_step, (sides + cu, sides + cv), dt, hs, stages), sides)
