"""Two-time-level conservative update of u-only data.

Any solution of u_tt = c^2 Delta u satisfies the two-level identity

    u(x, t+dt/2) + u(x, t-dt/2) = 2 sum_p (c dt/2)**(2p) / (2p)! Delta^p u(x, t),

whose right-hand side involves only even space derivatives at time t.
Applying it at a target node, with u(., t) replaced by the Hermite
interpolant centered there, gives an explicit update for the node data at
t+dt/2 from the interpolant and the data at t-dt/2 on the same grid. In
scaled coefficients the 1D update reads

    c_k^{n+1/2} = -c_k^{n-1/2}
                  + 2 sum_l (c dt/(2h))**(2l) C(2l+k, k) c_{2l+k, 0},

summed while 2l+k stays within degree 2m+1 (which captures every term of
the identity for the polynomial interpolant, so resolved polynomial data
is evolved exactly). In 2D the Delta^p binomial expansion produces a
scaled Pascal's triangle over the pair of half-CFL ratios c*dt/(2h_x),
c*dt/(2h_y). Interpolation and update are linear in the gathered current
level, so a step multiplies it by one cached matrix (`fold`) and
subtracts the previous level.

The first half step is bootstrapped with the dissipative module's Taylor
recursion applied to full-order interpolants of the initial displacement
and velocity; one such step is accurate to the interpolation error and
comfortably exceeds the O(h^(2m+1)) the two-level scheme needs.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .boundary import corner_sources, pair_sources
from .dissipative import (SchemeConfig, eval_series, expand_taylor_2d, fold, rows,
                          taylor_half_step_1d)
from .grid import Field1D, TwoLevelState, flip
from .interp import apply_interp, apply_interp_2d


def pascal_table(m: int) -> np.ndarray:
    """Pascal coefficients for the 2D update.

    P[i, j] = C(i+j, i) (the Pascal recurrence P_{i,j} = P_{i-1,j} +
    P_{i,j-1}) for i+j <= 2m, zero beyond.
    """
    n = 2 * m + 1
    base = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i + j <= 2 * m:
                base[i, j] = math.comb(i + j, i)
    return base


def _update_matrix_1d(m: int, rho: float) -> np.ndarray:
    """W[k, j] with c_k^{new} = -c_k^{prev} + 2 (W @ coeffs)_k."""
    w = np.zeros((m + 1, 2 * m + 2))
    for k in range(m + 1):
        for j in range(k, 2 * m + 2, 2):
            w[k, j] = math.comb(j, k) * rho ** (j - k)
    return w


def _update_tensor_2d(m: int, rho_x: float, rho_y: float) -> np.ndarray:
    """WT[k, l, a, b] acting on interpolant coefficients c_{a,b}.

    Entry at a = k+2i, b = l+2j is C(k+2i,k) C(l+2j,l) P_{i,j} (2i)!(2j)!
    / (2i+2j)! times the rho powers; the integer part is build exactly.
    """
    kk = 2 * m + 2
    table = pascal_table(m)
    wt = np.zeros((m + 1, m + 1, kk, kk))
    for k in range(m + 1):
        for l in range(m + 1):
            for i in range(m + 1):
                a = k + 2 * i
                if a > 2 * m + 1:
                    break
                for j in range(m + 1):
                    b = l + 2 * j
                    if b > 2 * m + 1:
                        break
                    frac = Fraction(
                        math.comb(a, k) * math.comb(b, l) * int(table[i, j]),
                        math.comb(2 * i + 2 * j, 2 * i),
                    )
                    wt[k, l, a, b] = float(frac) * rho_x ** (2 * i) * rho_y ** (2 * j)
    return wt


def conservative_update_1d(interp, prev, cfg: SchemeConfig) -> np.ndarray:
    """Node data at t+dt/2 from the target-centered interpolant and t-dt/2.

    Args:
        interp: (..., 2m+2) coefficients of the interpolant centered at
            the target node (batched).
        prev: (..., m+1) node data at t-dt/2.
    """
    coeffs = np.asarray(interp, dtype=float)
    prev = np.asarray(prev, dtype=float)
    rho = 0.5 * cfg.lam  # c*dt/(2h)
    w = _update_matrix_1d(cfg.m, rho)
    return 2.0 * (coeffs @ w.T) - prev


def conservative_update_2d(interp, prev, cfg: SchemeConfig, hx: float, hy: float) -> np.ndarray:
    """Tensor version; reads the (..., 2m+2, 2m+2) interpolant coefficients."""
    coeffs = np.asarray(interp, dtype=float)
    prev = np.asarray(prev, dtype=float)
    dt = cfg.dt(min(hx, hy))
    wt = _update_tensor_2d(cfg.m, 0.5 * cfg.speed * dt / hx, 0.5 * cfg.speed * dt / hy)
    return 2.0 * np.einsum("klab,...ab->...kl", wt, coeffs, optimize=True) - prev


def _update_1d(data, cfg):
    """The update of gathered current data with prev = 0, the map `fold` builds."""
    return (conservative_update_1d(apply_interp(data), 0.0, cfg),)


def _update_2d(data, cfg, hx, hy):
    return (conservative_update_2d(apply_interp_2d(data), 0.0, cfg, hx, hy),)


def full_step_conservative(state: TwoLevelState, cfg: SchemeConfig, bc) -> TwoLevelState:
    """One update: fold the gathered current level, subtract the previous.

    Returns the new state (advanced dt/2, parity flipped); the old current
    level becomes the new previous level.
    """
    cur = state.current
    prev = state.previous.values
    if isinstance(cur, Field1D):
        dt = cfg.dt(cur.grid.h)
        data, _ = pair_sources(cur, bc)
        (a,) = fold(_update_1d, (data.shape[1:],), cfg)
    else:
        hx, hy = cur.grid.hx, cur.grid.hy
        dt = cfg.dt(min(hx, hy))
        data, _, _ = corner_sources(cur, bc)
        (a,) = fold(_update_2d, (data.shape[2:],), cfg, hx, hy)
    new_vals = (rows(data, cur.values.ndim // 2) @ a).reshape(prev.shape) - prev
    new = state.previous.with_values(new_vals, time=cur.time + 0.5 * dt)
    return TwoLevelState(current=new, previous=cur)


def bootstrap_first_half(g0, g1, cfg: SchemeConfig, bc) -> TwoLevelState:
    """Produce the two starting levels from initial data at t = 0.

    Args:
        g0: Field with order-m data of the initial displacement.
        g1: Field with order-m data of the initial velocity (same grid and
            parity as g0; the extra order sharpens the single Taylor step).

    Returns:
        TwoLevelState with `current` at t = dt/2 on the opposite parity
        and `previous` = g0.
    """
    if isinstance(g0, Field1D):
        h = g0.grid.h
        dt = cfg.dt(h)
        du, _ = pair_sources(g0, bc)
        dv, _ = pair_sources(g1, bc, dirichlet_values=(0.0, 0.0))
        u_half, _ = taylor_half_step_1d(du, dv, dt, h, cfg.speed, 2 * cfg.m + 3)
    else:
        hx, hy = g0.grid.hx, g0.grid.hy
        dt = cfg.dt(min(hx, hy))
        du, _, _ = corner_sources(g0, bc)
        dv, _, _ = corner_sources(g1, bc, dirichlet_values=(0.0, 0.0))
        ctab, _ = expand_taylor_2d(apply_interp_2d(du), apply_interp_2d(dv),
                                   dt, hx, hy, cfg.speed, 4 * cfg.m + 4)
        u_half = eval_series(ctab, 0.5)[..., : cfg.m + 1, : cfg.m + 1]
    current = g0.with_values(u_half, parity=flip(g0.parity), time=g0.time + 0.5 * dt)
    return TwoLevelState(current=current, previous=g0)
