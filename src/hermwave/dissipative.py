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
(`expand_taylor`, `taylor_half_step`) serves every d. One rule seeds the
first v stage: it sums, over the axes q, the second q-derivative of the u
interpolant of order m along q and of v's order along the others. That is
the plain stage 1 in 1D and for the conservative start, whose u_t has
u's order. The step's v has order m-1, so in 2D the sum is of I_{m,m-1} u
along x and I_{m-1,m} u along y, and 2D evolution is no longer exact on
polynomial data. Past d(2m+2) stages every coefficient is exactly zero
whatever v's order, so every half step runs that many; with v of order
m-1 the last two are already zero (past 2m in 1D, 4m+2 in 2D). The 2D
periodic symbol puts stability in that stage count: seeding every series
from the full-order interpolant of u alone is stable at 4m+2 stages
(max |g| - 1 at most 6.5e-15 for m = 1..4, lam <= 1), while at the 1D
count of 2m stages and lam = 1 its max |g| - 1 reads 0.75, 2.6 and 8.4
for m = 1, 2, 3, and the mixed first stage's 0, 0.49 and 4.2.

Interpolation, recursion and evaluation are all linear in the gathered
flanking data, so for fixed (m, dt, h per axis) a half step is one
matrix. `fold` builds it once, by pushing the identity through the
pipeline (`taylor_half_step`), laid out as `take` gathers a row: per
side, u | v packed. `_packed_matrix` is that one fold per key, and it
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
        d1: optional (..., K per axis) first v stage; if absent the plain
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
            dtab[1] = d1
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
    """Interpolate, expand in time over d(2m+2) stages and evaluate at
    dt/2, per target node.

    du (..., 2 per axis, m+1 per axis) and dv (..., 2 per axis, m or m+1
    per axis) are flanking u and v data, one axis per entry of `hs`; returns
    the target (u, v) data of the same orders. The first v stage follows
    the module docstring's one rule.
    """
    ndim = len(hs)
    m, lv = du.shape[-1] - 1, dv.shape[-1]
    k = 2 * m + 2
    cu = apply_interp(du, ndim)
    d1 = np.zeros(du.shape[: -2 * ndim] + (k,) * ndim)
    for q, (r, w, src, _) in enumerate(_d2_terms(dt, hs, k)):
        keep = du[(Ellipsis,) + tuple(slice(None) if p == q else slice(lv) for p in range(ndim))]
        at = (Ellipsis,) + tuple(slice(k - 2) if p == q else slice(2 * lv) for p in range(ndim))
        # in 1D and when v has u's order, keep is all of du
        d1[at] += r * w * (cu if keep.shape == du.shape else apply_interp(keep, ndim))[src]
    ctab, dtab = expand_taylor(cu, apply_interp(dv, ndim), dt, hs, ndim * k, d1=d1)
    return (eval_series(ctab, 0.5)[(Ellipsis,) + (slice(m + 1),) * ndim],
            eval_series(dtab, 0.5)[(Ellipsis,) + (slice(lv),) * ndim])


@lru_cache(maxsize=64)
def _packed_matrix(blocks: tuple, dt: float, hs: tuple) -> np.ndarray:
    """The `fold` of a half step from u | v per node of the coefficient
    `blocks`, built once per (blocks, dt, hs)."""
    return fold(taylor_half_step, blocks, (2,) * len(hs), dt, hs)
