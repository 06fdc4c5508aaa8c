"""Half-step evolution of (u, v) data by cell-local Taylor recursion.

Writing u and its velocity v = u_t on a cell as space-time series

    u = sum_{l,s} c_{l,s} xi**l theta**s,   xi = (x - x_c)/h, theta = (t - t_n)/dt,

the first-order system u_t = v, v_t = c^2 u_xx turns into the recursion

    c_{l,s} = (dt/s) d_{l,s-1},
    d_{l,s} = c^2 (l+2)(l+1) (dt/h^2) / s * c_{l+2,s-1},

seeded at s = 0 by the Hermite interpolants of degree 2m+1 (u) and 2m-1
(v). The series terminate: every coefficient beyond
kappa_v(l) = 2m-1-2*floor(l/2) (v) and kappa_u = kappa_v+1 (u) vanishes,
so running 2m stages evolves polynomial data exactly for c*dt <= h. One
half step evaluates the truncated series at theta = 1/2 on the staggered
node at the cell center and hands the data to the opposite grid.

In d axes the same recursion runs on tensor coefficients, one axis per
spacing h_q, with the d second-derivative terms summed; one builder
(`expand_taylor`, `taylor_half_step`) serves every d. Seeding every series
from the full-order interpolant of u alone is unstable at the full CFL
number in 2D; the first stage of the v-recursion instead sums, over the
axes q, the second q-derivative of the interpolant of order m along q and
m-1 along the others (I_{m,m-1} u for x and I_{m-1,m} u for y in 2D),
after which the plain recursion takes over. In 1D that sum is the plain
stage 1. The price is that 2D evolution is no longer exact on polynomial
data. Past d(2m+2)-2 stages every coefficient is exactly zero (2m in 1D,
4m+2 in 2D), so a half step runs that many (`SchemeConfig.stages`).

Interpolation, recursion and evaluation are all linear in the gathered
flanking data, so for fixed (m, dt, h per axis, c, stages) a half step is
one matrix. `fold` builds it once, one row block per gathered field, by
pushing the identity through the pipeline (`taylor_half_step`). A level's
plan stacks the blocks in the rows of u | v packed per node, so a half
step is one take, at most one sign flip of the wall slots and one product,
`ndarray.dot`, which skips the per-call set-up of the `@` ufunc. A state
carries its level's plan and the next level's (`grid.link`), so a march
looks the two up once and each half step builds its state directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .boundary import level_gather, take
from .grid import FieldPair, flip, link, rows
from .interp import apply_interp


@dataclass(frozen=True)
class SchemeConfig:
    """Shared stepping parameters.

    Attributes:
        m: method order; nodal data carries derivatives 0..m of u.
        speed: wave speed c > 0.
        lam: CFL number c*dt/h (smallest h in 2D), in (0, 1].
    """

    m: int
    speed: float = 1.0
    lam: float = 0.8

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"method order must be >= 1, got {self.m}")
        if not 0.0 < self.lam <= 1.0:
            raise ValueError(f"CFL number must be in (0, 1], got {self.lam}")
        if self.speed <= 0.0:
            raise ValueError("wave speed must be positive")

    def dt(self, h: float) -> float:
        return self.lam * h / self.speed

    def stages(self, ndim: int) -> int:
        """Taylor stages of a half step in `ndim` axes: d(2m+2)-2 (2m in 1D,
        4m+2 in 2D), past which every stage is exactly zero."""
        return ndim * (2 * self.m + 2) - 2


def _axis_slice(ndim: int, q: int, sl: slice) -> tuple:
    """Index that applies `sl` to coefficient axis q of ndim trailing axes."""
    return (Ellipsis,) + (slice(None),) * q + (sl,) + (slice(None),) * (ndim - 1 - q)


def _d2_terms(dt, hs, speed, k: int) -> list:
    """The v recursion's second-derivative term per axis q, on k coefficients per axis.

    Each is (r_q, w_q, src_q, dst_q) with r_q = c^2 dt/h_q^2 and w_q =
    (j+2)(j+1), j < k-2, shaped along axis q: stage s adds
    r_q/s * w_q * c[src_q] at [dst_q].
    """
    ndim = len(hs)
    w = np.arange(2, k) * np.arange(1, k - 1)
    return [(speed * speed * dt / (h * h), w.reshape((-1,) + (1,) * (ndim - 1 - q)),
             _axis_slice(ndim, q, slice(2, None)), _axis_slice(ndim, q, slice(k - 2)))
            for q, h in enumerate(hs)]


def expand_taylor(c0, d0, dt, hs, speed, smax, d1=None):
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
    terms = _d2_terms(dt, hs, speed, k)
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


@lru_cache(maxsize=64)
def fold(fn, shapes, *args) -> tuple:
    """Row blocks of the linear per-target map blocks -> fn(*blocks, *args), cached.

    fn takes one batched block (k, *shape) per entry of `shapes`, then
    `args`, and returns a tuple of batched blocks. The result holds one
    read-only A_i per input block: sum_i rows(block_i) @ A_i is fn's outputs
    as rows, concatenated. It is found by applying fn to the identity.
    """
    sizes = [math.prod(s) for s in shapes]
    eye = np.eye(sum(sizes))
    splits = np.cumsum(sizes)[:-1]
    cols = np.split(eye, splits, axis=1)
    outs = fn(*(c.reshape((-1,) + s) for c, s in zip(cols, shapes)), *args)
    a = np.concatenate([rows(o) for o in outs], axis=1)
    a.setflags(write=False)
    return tuple(np.split(a, splits))


def taylor_half_step(du, dv, dt, hs, speed, stages):
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
    for q, (r, w, src, _) in enumerate(_d2_terms(dt, hs, speed, 2 * m + 2)):
        keep = tuple(slice(None) if p == q else slice(m) for p in range(ndim))
        terms.append(r * w * apply_interp(du[(Ellipsis,) + keep], ndim)[src])
    d1 = sum(terms[1:], terms[0])
    ctab, dtab = expand_taylor(apply_interp(du, ndim), apply_interp(dv, ndim), dt, hs,
                               speed, stages, d1=d1)
    return (eval_series(ctab, 0.5)[(Ellipsis,) + (slice(m + 1),) * ndim],
            eval_series(dtab, 0.5)[(Ellipsis,) + (slice(m),) * ndim])


def _plan(grid, parity, cfg: SchemeConfig) -> tuple:
    """Build the half-step plan of grid's `parity` level.

    It gathers u | v packed per node and holds the `fold` blocks stacked
    and permuted into the packed rows, dt/2, the target parity, the new u
    and v shapes and the count of packed u columns.
    """
    m, hs = cfg.m, grid.spacings
    ndim = len(hs)
    dt = cfg.dt(min(hs))
    cu, cv = (m + 1,) * ndim, (m,) * ndim
    gather = level_gather(grid, parity, (cu, cv))
    sides = (2,) * ndim
    a_u, a_v = fold(taylor_half_step, (sides + cu, sides + cv), dt, hs, cfg.speed,
                    cfg.stages(ndim))
    # row r of a_u (a_v) reads entry r of the flattened (sides, coefficients) block
    packed = np.concatenate((np.arange(len(a_u)).reshape(sides + (-1,)),
                             len(a_u) + np.arange(len(a_v)).reshape(sides + (-1,))), axis=-1)
    a = np.concatenate((a_u, a_v))[packed.ravel()]
    a.setflags(write=False)
    targets = grid.shapes[flip(parity)]
    return gather, a, 0.5 * dt, flip(parity), (targets + cu, targets + cv), math.prod(cu)


def half_step(state: FieldPair, cfg: SchemeConfig) -> FieldPair:
    """Advance (u, v) by dt/2 onto the opposite grid, in any number of axes.

    A state linked under this very config object steps with the plan it
    carries; any other is linked first, which checks its orders.
    """
    lnk = state.link
    if lnk is None or lnk[0] is not cfg:
        lnk = link(state, cfg, "dissipative", _plan)
    gather, a, half_dt, parity, shapes, split = lnk[1]
    out = FieldPair.__new__(FieldPair)
    out.grid, out.parity, out.time = state.grid, parity, state.time + half_dt
    # ndarray.dot calls BLAS directly, with the same bits; `@` sets up the
    # matmul ufunc on every call, which nearly doubles a 1D level's product:
    # (41, 14) by (14, 7) takes 1.4-2.8 us with `@` and 0.9-1.5 us with dot
    # (timeit, 2-vCPU Xeon VM, one BLAS thread)
    out.rows, out.split, out.shapes = take(state.rows, gather).dot(a), split, shapes
    out.link = (cfg, lnk[2], lnk[1])
    return out


# perfbench's tracer counts dissipative node updates by wrapping these names
half_step_1d = half_step_2d = half_step
