"""Per-level arithmetic that the stacked and folded paths replaced, kept as oracles.

`pair_sources` is a level's gather in the explicit layout: the flanking
data of every target node, shaped per axis, and the target coordinates.

`conservative_update` is the two-level update the conservative plan's
matrix folds: the Taylor recursion from the target-centered interpolant
and v = 0, summed at dt/2, doubled, minus the previous level.

`bootstrap` is the Taylor pipeline the conservative bootstrap ran on each
level: gather each field's flanking data, interpolate, run the recursion
at the level's own spacing and sum the series at dt/2.

`errors` is the per-level L2 error arithmetic the driver ran on each
popped level: one take of the level's rows, one product of each mix
of cell kinds with a matrix built at the level's own h (u_x scaled inside
the matrix, and h*v read as v), the exact callables evaluated on that
level's Gauss points alone, and nested Gauss sums.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from hermwave.boundary import gather_plan, take
from hermwave.diagnostics import (_AT, _axis_cells, default_npts, eval_matrix, field_matrix,
                                  gauss_rule)
from hermwave.dissipative import eval_series, expand_taylor
from hermwave.grid import DUAL, Field, flip
from hermwave.interp import apply_interp

from states import one


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


def _pair_matrix(mu, npts, kind, h):
    """(2(2mu+1), 3 npts): a gathered 1D u | h*v row to [u | u_x | v]."""
    out = np.zeros((2, 2 * mu + 1, 3, npts))
    out[:, : mu + 1, 0] = eval_matrix(mu, npts, kind).reshape(2, mu + 1, npts)
    out[:, : mu + 1, 1] = eval_matrix(mu, npts, kind, 1).reshape(2, mu + 1, npts) / h
    out[:, mu + 1 :, 2] = eval_matrix(mu - 1, npts, kind).reshape(2, mu, npts) / h
    return out.reshape(4 * mu + 2, 3 * npts)


def _padded_matrix(coeffs, pad, npts, kinds):
    """`field_matrix` with `pad` zero rows after each side's block."""
    a = field_matrix(coeffs, npts, kinds)
    sides = a.reshape(2 ** len(coeffs), -1, a.shape[1])
    out = np.concatenate((sides, np.zeros((len(sides), pad, a.shape[1]))), axis=1)
    return out.reshape(-1, a.shape[1])


def _values(gathered, targets, clipped, matrix):
    d = len(targets)
    out = gathered.dot(matrix((0,) * d)).reshape(targets + (-1,))
    if clipped:
        gathered = gathered.reshape(targets + (-1,))
        for kinds in itertools.product(range(3), repeat=d):
            if any(kinds):
                at = tuple(_AT[kind] for kind in kinds)
                block = gathered[at]
                out[at] = block.reshape(-1, block.shape[-1]).dot(
                    matrix(kinds)).reshape(out[at].shape)
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
    gathered = take(rows, gather_plan(one(grid), parity, blocks))
    if len(exacts) == 3:
        mu = blocks[0][0] - 1

        def matrix(kinds):
            return _pair_matrix(mu, npts, kinds[0], grid.h)
    else:
        def matrix(kinds):
            return _padded_matrix(blocks[0], sum(math.prod(b) for b in blocks[1:]), npts, kinds)

    targets = grid.shapes[flip(parity)]
    clipped = parity == DUAL and not grid.periodic
    xs, halves = [], []
    for q, axis in enumerate(grid.axes):
        xi, half = _axis_cells(targets[q], npts, clipped)
        shape = [1] * (2 * d)
        shape[q], shape[d + q] = xi.shape
        xs.append((axis.nodes(flip(parity))[:, None] + axis.h * xi).reshape(shape))
        halves.append(axis.h * half)
    vals = _values(gathered, targets, clipped, matrix).reshape(-1, len(exacts), npts**d)
    wg = gauss_rule(npts)[1]
    out = []
    for i, exact in enumerate(exacts):
        total = vals[:, i].reshape(targets + (npts,) * d) - exact(*xs)
        total *= total
        for _ in range(d):
            total = total.dot(wg)
        for half in reversed(halves):
            total = total.dot(half)
        out.append(math.sqrt(total))
    return out
