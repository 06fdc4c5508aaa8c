"""Hermite interpolants from nodal derivative data.

Given scaled derivative coefficients c_l = (h**l/l!) d^l u/dx^l at the two
nodes flanking a cell, the unique polynomial of degree 2*mu+1 matching all
of them is found by applying a precomputed (2mu+2) x (2mu+2) matrix to the
stacked (left block, right block) data. The matrix inverts the conditions

    sum_j C(j, l) xi_s**(j-l) a_j = c_l,   xi_s = -1/2 (left), +1/2 (right),

written in the scaled basis of the cell centered at the midpoint, so it is
independent of h. Its columns are the two-point Hermite basis in closed
form: with t = xi + 1/2, the left node's functions are

    (1 - t)**(mu+1) t**l sum_{k <= mu-l} C(mu+k, k) t**k,

(the sum is (1 - t)**-(mu+1) truncated to degree mu - l) and the right
node's their mirror images under t -> 1 - t, times (-1)**l. Expanded in
s = 2 xi they are integer polynomials over 2**(2mu+1), so every entry is
an integer over 2**(2mu+1) and is rounded to float once, by integer true
division; interpolation afterwards is a single matmul per cell.

The cell coefficients are h-scaled too: the interpolant is
sum_j a_j ((x - x_c)/h)**j, so a_j = (h**j/j!) d^j p/dx^j at the center.
Keeping the h-scaling inside the coefficients makes every entry O(1) for
smooth data regardless of the polynomial degree, which the time-stepping
modules rely on. Physical derivatives only appear at API boundaries.

Tensor-product interpolants in any number of axes, including the mixed
orders (m along one axis, m-1 along the others) of the dissipative
stepper's first stage, contract each axis's (side, order) pair with its 1D
matrix in turn (`apply_interp(data, ndim)`).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

MAX_ORDER = 12


@lru_cache(maxsize=None)
def interp_matrix(mu: int) -> np.ndarray:
    """Map from stacked (left, right) node data to cell-centered coefficients.

    Args:
        mu: nodal derivative order, 0 <= mu <= MAX_ORDER.

    Returns:
        Read-only float array of shape (2mu+2, 2mu+2). Row ordering of the
        input it expects: left node coefficients 0..mu, then right node.
    """
    if not 0 <= mu <= MAX_ORDER:
        raise ValueError(f"interpolation order must be in [0, {MAX_ORDER}], got {mu}")
    n, den = 2 * mu + 2, 2 ** (2 * mu + 1)
    one_minus = [(-1) ** i * math.comb(mu + 1, i) for i in range(mu + 2)]  # (1 - s)**(mu+1)
    m = np.empty((n, n))
    for l in range(mu + 1):
        # den times left function l, in s:
        # (1 - s)**(mu+1) sum_k C(mu+k, k) 2**(mu-l-k) (1 + s)**(l+k)
        g = [sum(math.comb(mu + k, k) * 2 ** (mu - l - k) * math.comb(l + k, i)
                 for k in range(mu - l + 1)) for i in range(mu + 1)]
        num = [0] * n
        for i, a in enumerate(one_minus):
            for j, b in enumerate(g):
                num[i + j] += a * b
        for j, c in enumerate(num):  # s**j = 2**j xi**j; the right function is (-1)**l left(-s)
            m[j, l] = c * 2 ** j / den
            m[j, mu + 1 + l] = (-1) ** (j + l) * c * 2 ** j / den
    m.setflags(write=False)
    return m


def apply_interp(data: np.ndarray, ndim: int = 1) -> np.ndarray:
    """Batched tensor-product interpolation over `ndim` axes.

    Args:
        data: (..., 2 per axis, mu_q+1 per axis) node coefficients: axis
            -2*ndim+q is the side of axis q (0 = low side), axis -ndim+q its
            derivative order. In 1D that is (..., 2, mu+1).

    Returns:
        (..., 2mu_q+2 per axis) coefficients centered at the cell midpoint.
    """
    out = np.asarray(data, dtype=float)
    for q in range(ndim):
        # bring axis q's (side, order) pair last; the cell axes already
        # built follow the remaining orders, so they end up in axis order
        pair_axes = (out.ndim + q - 2 * ndim, out.ndim - ndim)
        pair = out.transpose([a for a in range(out.ndim) if a not in pair_axes]
                             + list(pair_axes))
        mu = pair.shape[-1] - 1
        out = pair.reshape(pair.shape[:-2] + (2 * mu + 2,)) @ interp_matrix(mu).T
    return out
