"""Per-level arithmetic that the stacked and folded paths replaced, kept as oracles.

`expand_taylor` and `eval_series` are the stage tables the library's half
step was built from: the Taylor recursion of u_t = v, v_t = Delta u run on
cell coefficients into one padded table per field, stages first, and a
Horner pass over a table at theta = tau/dt. `dissipative.taylor_half_step`
sums the same stages in one loop.

`pair_sources` is a level's gather in the explicit layout: the flanking
data of every target node, shaped per axis, and the target coordinates.

`conservative_update` is the two-level update the conservative plan's
matrix folds: the Taylor recursion from the target-centered interpolant
and v = 0, summed at dt/2, doubled, minus the previous level.

`bootstrap` is the Taylor pipeline the conservative bootstrap ran on each
level: gather each field's flanking data, interpolate, run the recursion
at the level's own spacing and sum the series at dt/2.

`errors` is a per-level L2 error built apart from the library's error
plans and matrices: one take of the level's rows, each field's interpolant
coefficients (`apply_interp`) evaluated by `np.vander` at the Gauss
points of its own cell kinds, the exact callables evaluated on that
level's Gauss points alone, and nested Gauss sums.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from hermwave.boundary import gather_plan, take
from hermwave.diagnostics import default_npts, gauss_rule
from hermwave.grid import DUAL, Field, flip
from hermwave.interp import apply_interp

from states import one


def expand_taylor(c0, d0, dt, hs, smax, d1=None):
    """Run the recursion on batched cell coefficients, one axis per spacing:

        c_s = (dt/s) d_{s-1},   d_s = sum_q (dt/h_q^2)/s D2_q c_{s-1},

    with D2_q the second xi-derivative along axis q ((j+2)(j+1) c_{j+2}).

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
    w = np.arange(2, k) * np.arange(1, k - 1)
    terms = []  # per axis q: dt/h_q^2, w shaped along q, the source and target slices
    for q, h in enumerate(hs):
        src, dst = [slice(None)] * ndim, [slice(None)] * ndim
        src[q], dst[q] = slice(2, None), slice(k - 2)
        terms.append((dt / (h * h), w.reshape((-1,) + (1,) * (ndim - 1 - q)),
                      (Ellipsis, *src), (Ellipsis, *dst)))
    for s in range(1, smax + 1):
        ctab[s] = (dt / s) * dtab[s - 1]
        if s == 1 and d1 is not None:
            dtab[1] = d1
            continue
        prev, cur = ctab[s - 1], dtab[s]
        for q, (r, wq, src, dst) in enumerate(terms):
            term = (r / s) * wq * prev[src]
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


def pair_sources(field):
    """Flanking data for every target node of the opposite parity.

    Gathers through the `gather_plan` of the field's one-level stack.

    Returns:
        (data, *centers): data shaped (targets per axis..., 2 per axis...,
        mu_q+1 per axis...), each 2 being that axis's (low, high) side, then
        the target node coordinates (the cell midpoints) of each axis.
    """
    grid, parity, values = field.grid, field.parity, field.values
    coeffs = values.shape[grid.ndim :]
    plan = gather_plan(one(grid), parity, (coeffs,))
    targets = grid.shapes[flip(parity)] + (2,) * grid.ndim
    data = take(values.reshape(plan.nodes, -1), plan).reshape(targets + coeffs)
    return (data, *(axis.nodes(flip(parity)) for axis in grid.axes))


def conservative_update(interp, prev, m: int, dt, hs) -> np.ndarray:
    """Node data at t+dt/2 from the target-centered interpolant and t-dt/2.

    Args:
        interp: (..., 2m+2 per axis) coefficients of the interpolant
            centered at the target node (batched), one axis per spacing.
        prev: (..., m+1 per axis) node data at t-dt/2.
        dt: time step; the update advances dt/2.
        hs: cell spacing per axis.
    """
    ndim = len(hs)
    c0 = np.asarray(interp, dtype=float)
    ctab, _ = expand_taylor(c0, np.zeros_like(c0), dt, hs, 2 * ndim * m)
    new = eval_series(ctab, 0.5)[(Ellipsis,) + (slice(m + 1),) * ndim]
    return 2.0 * new - np.asarray(prev, dtype=float)


def update(data, m, dt, hs):
    """`conservative_update` of gathered current data with prev = 0, as
    `dissipative.fold` takes it: the map the conservative plan's matrix is."""
    return (conservative_update(apply_interp(data, len(hs)), 0.0, m, dt, hs),)


def bootstrap(g0, g1, cfg) -> np.ndarray:
    """Target values of the first half step from Fields g0 (u) and g1 (u_t)
    on one level's `Grid`, shaped (targets per axis..., m+1 per axis...)."""
    hs = g0.grid.spacings
    ndim = len(hs)
    ctab, _ = expand_taylor(apply_interp(pair_sources(g0)[0], ndim),
                            apply_interp(pair_sources(g1)[0], ndim), cfg.dt(min(hs)), hs,
                            ndim * (2 * cfg.m + 2))
    return eval_series(ctab, 0.5)[(Ellipsis,) + (slice(cfg.m + 1),) * ndim]


# each cell kind's interval in xi: the whole cell, then a wall-clipped
# low and high edge, and its cells on a clipped axis
_CELLS = ((-0.5, 0.5), (0.0, 0.5), (-0.5, 0.0))
_AT = (slice(1, -1), slice(0, 1), slice(-1, None))


def _points(npts, kind):
    lo, hi = _CELLS[kind]
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * gauss_rule(npts)[0]


def _evaluate(coeffs, points, der):
    """Tensor polynomials in xi, coeffs (..., k per axis), or their
    xi-derivative along axis 0 if der, at each axis's points: (..., npts
    per axis)."""
    d, out = len(points), coeffs
    for q, x in enumerate(points):
        k = out.shape[out.ndim - d]  # axis q's coefficients; the ones before are points now
        v = np.vander(x, k, increasing=True)
        if der and q == 0:  # d/dxi xi^j = j xi^(j-1)
            v = np.concatenate((np.zeros((len(x), 1)), v[:, :-1] * np.arange(1, k)), axis=1)
        out = np.tensordot(out, v, axes=([out.ndim - d], [1]))
    return out


def errors(state, exacts, npts=None) -> list:
    """L2 errors of a Field (u) on a level's `Grid` or a `State` on a one-level
    stack against exacts: one callable of (x, y, ...) for u alone, or three
    for a 1D dissipative state's (u, u_x, v)."""
    if isinstance(state, Field):
        grid, parity, d = state.grid, state.parity, state.grid.ndim
        blocks = (state.values.shape[d:],)
        rows = state.values.reshape(math.prod(grid.shapes[parity]), -1)
    else:
        (grid,), parity, rows, blocks = state.grid.levels, state.parity, state.rows, state.blocks
        d = grid.ndim
    npts = npts or default_npts(max(blocks[0]) - 1)
    targets = grid.shapes[flip(parity)]
    gathered = take(rows, gather_plan(one(grid), parity, blocks))
    gathered = gathered.reshape(targets + (2,) * d + (-1,))
    first = np.cumsum([0] + [math.prod(b) for b in blocks])
    coeffs = [apply_interp(gathered[..., first[i] : first[i + 1]].reshape(
        targets + (2,) * d + b), d) for i, b in enumerate(blocks)]
    reads = [(coeffs[0], 0, 1.0)]  # (coefficients, derivative along axis 0, divisor)
    if len(exacts) == 3:  # u_x and v, carried as h*v
        reads += [(coeffs[0], 1, grid.spacings[0]), (coeffs[1], 0, grid.h)]
    clipped = parity == DUAL and not grid.periodic
    wg, total = gauss_rule(npts)[1], np.zeros(len(exacts))
    for kinds in itertools.product(range(3) if clipped else (0,), repeat=d):
        at = tuple(_AT[kind] if clipped else slice(None) for kind in kinds)
        points = [_points(npts, kind) for kind in kinds]
        xs, measure = [], 1.0  # the cells' Gauss points in x and their measure
        for q, (axis, kind) in enumerate(zip(grid.axes, kinds)):
            x = axis.nodes(flip(parity))[at[q]][:, None] + axis.h * points[q]
            shape = [1] * (2 * d)
            shape[q], shape[d + q] = x.shape
            xs.append(x.reshape(shape))
            lo, hi = _CELLS[kind]
            measure *= 0.5 * (hi - lo) * axis.h
        for i, ((c, der, divisor), exact) in enumerate(zip(reads, exacts)):
            err = _evaluate(c[at], points, der) / divisor - exact(*xs)
            err = err * err
            for _ in range(d):
                err = err.dot(wg)
            total[i] += measure * err.sum()
    return list(np.sqrt(total))
