"""Two-time-level conservative update of u-only data.

Any solution of u_tt = c^2 Delta u satisfies the two-level identity

    u(x, t+dt/2) + u(x, t-dt/2) = 2 sum_p (c dt/2)**(2p) / (2p)! Delta^p u(x, t),

whose right-hand side involves only even space derivatives at time t.
Applying it at a target node, with u(., t) replaced by the Hermite
interpolant centered there, gives an explicit update for the node data at
t+dt/2 from the interpolant and the data at t-dt/2 on the same grid. In d
dimensions Delta^p expands multinomially, Delta^p = sum_{|i|=p} p!/prod(i_q!)
prod(d_q^(2 i_q)), so in scaled coefficients, with rho_q = c dt/(2h_q),

    c_k^{n+1/2} = -c_k^{n-1/2} + 2 sum_i p!/prod(i_q!) prod((2i_q)!)/(2p)!
                  prod(C(k_q+2i_q, k_q) rho_q**(2i_q)) c_{k+2i},

summed while every k_q+2i_q stays within degree 2m+1 (which captures every
term of the identity for the polynomial interpolant, so resolved
polynomial data is evolved exactly). In 1D the weight is C(k+2i, k)
rho**(2i). One cached tensor (`two_level_tensor`) serves every dimension.
Interpolation and update are linear in the gathered current level, so a
step gathers it through a plan cached on its grid, multiplies it by one
cached matrix (`fold`) and subtracts the previous level.

The first half step is bootstrapped with the dissipative module's Taylor
recursion applied to full-order interpolants of the initial displacement
and velocity; one such step is accurate to the interpolation error and
comfortably exceeds the O(h^(2m+1)) the two-level scheme needs.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .boundary import gather_plan, pair_sources, take
from .dissipative import SchemeConfig, eval_series, expand_taylor, fold
from .grid import TwoLevelState, flip
from .interp import apply_interp


@lru_cache(maxsize=64)
def two_level_tensor(m: int, rhos: tuple) -> np.ndarray:
    """Read-only W[k..., a...] with new data -prev + 2 W c for interpolant c.

    One axis per entry of `rhos` = c dt/(2h) per axis. The entry at
    a = k + 2i is p!/prod(i_q!) * prod((2i_q)!)/(2p)! * prod(C(a_q, k_q)
    rho_q**(2i_q)) with p = sum(i_q); its integer part is one correctly
    rounded ratio of Python integers.
    """
    d = len(rhos)
    w = np.zeros((m + 1,) * d + (2 * m + 2,) * d)
    for k in np.ndindex(w.shape[:d]):
        for i in np.ndindex(w.shape[:d]):
            a = tuple(kq + 2 * iq for kq, iq in zip(k, i))
            if max(a) > 2 * m + 1:
                continue
            p = sum(i)
            num = math.factorial(p) * math.prod(
                math.factorial(2 * iq) * math.comb(aq, kq) for aq, kq, iq in zip(a, k, i))
            den = math.factorial(2 * p) * math.prod(math.factorial(iq) for iq in i)
            val = num / den
            for rho, iq in zip(rhos, i):
                val *= rho ** (2 * iq)
            w[k + a] = val
    w.setflags(write=False)
    return w


def conservative_update(interp, prev, m: int, rhos) -> np.ndarray:
    """Node data at t+dt/2 from the target-centered interpolant and t-dt/2.

    Args:
        interp: (..., 2m+2 per axis) coefficients of the interpolant
            centered at the target node (batched).
        prev: (..., m+1 per axis) node data at t-dt/2.
        rhos: c dt/(2h) per axis.
    """
    w = two_level_tensor(m, tuple(rhos))
    d = len(rhos)
    coeffs = np.asarray(interp, dtype=float)
    batch = coeffs.shape[: coeffs.ndim - d]
    out = coeffs.reshape(batch + (-1,)) @ w.reshape((m + 1) ** d, -1).T
    return 2.0 * out.reshape(batch + w.shape[:d]) - np.asarray(prev, dtype=float)


def _update(data, m, rhos):
    """The update of gathered current data with prev = 0, the map `fold` builds."""
    return (conservative_update(apply_interp(data, len(rhos)), 0.0, m, rhos),)


def _plan(field, cfg: SchemeConfig, bc, key) -> tuple:
    """Build the update plan of field's level, cached on its grid under key:
    gather, matrix, dt/2.

    dt is set by the smallest spacing, so only h ratios enter rho = c dt/(2h).
    """
    grid = field.grid
    m, hs = cfg.m, grid.spacings
    ndim = len(hs)
    gather = gather_plan(grid, field.parity, bc, (((m + 1,) * ndim, None),))
    rhos = tuple(0.5 * cfg.lam * (min(hs) / h) for h in hs)
    (a,) = fold(_update, ((2,) * ndim + (m + 1,) * ndim,), m, rhos)
    plan = grid.plans[key] = (gather, a, 0.5 * cfg.dt(min(hs)))
    return plan


def full_step_conservative(state: TwoLevelState, cfg: SchemeConfig, bc) -> TwoLevelState:
    """One update: gather the current level, multiply, subtract the previous.

    Returns the new state (advanced dt/2, parity flipped); the old current
    level becomes the new previous level.
    """
    cur = state.current
    prev = state.previous.values
    key = ("conservative", cur.parity, bc, cfg)
    gather, a, half_dt = cur.grid.plans.get(key) or _plan(cur, cfg, bc, key)
    new_vals = take(cur.values.reshape(gather.nodes, -1), gather) @ a
    new_vals = new_vals.reshape(prev.shape) - prev
    new = state.previous.with_values(new_vals, time=cur.time + half_dt)
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
    hs = g0.grid.spacings
    ndim = len(hs)
    dt = cfg.dt(min(hs))
    du = pair_sources(g0, bc)[0]
    dv = pair_sources(g1, bc, dirichlet_values=(0.0, 0.0))[0]
    # with full-order v seeds every stage past d(2m+2) is exactly zero
    ctab, _ = expand_taylor(apply_interp(du, ndim), apply_interp(dv, ndim), dt, hs,
                            cfg.speed, ndim * (2 * cfg.m + 2))
    u_half = eval_series(ctab, 0.5)[(Ellipsis,) + (slice(cfg.m + 1),) * ndim]
    current = g0.with_values(u_half, parity=flip(g0.parity), time=g0.time + 0.5 * dt)
    return TwoLevelState(current=current, previous=g0)
