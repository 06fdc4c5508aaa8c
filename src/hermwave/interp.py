"""Hermite interpolants from nodal derivative data.

Given scaled derivative coefficients c_l = (h**l/l!) d^l u/dx^l at the two
nodes flanking a cell, the unique polynomial of degree 2*mu+1 matching all
of them is found by applying a precomputed (2mu+2) x (2mu+2) matrix to the
stacked (left block, right block) data. The matrix inverts the conditions

    sum_j C(j, l) xi_s**(j-l) a_j = c_l,   xi_s = -1/2 (left), +1/2 (right),

written in the scaled basis of the cell centered at the midpoint, so it is
independent of h. It is assembled and inverted in exact rational
arithmetic and rounded to float once; interpolation afterwards is a single
matmul per cell.

The cell coefficients are h-scaled too: the interpolant is
sum_j a_j ((x - x_c)/h)**j, so a_j = (h**j/j!) d^j p/dx^j at the center.
Keeping the h-scaling inside the coefficients makes every entry O(1) for
smooth data regardless of the polynomial degree, which the time-stepping
modules rely on. Physical derivatives only appear at API boundaries.

2D tensor-product interpolants, including the mixed orders (m, m-1) used
by the two-dimensional stepper, apply the 1D matrices dimension by
dimension.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

MAX_ORDER = 12


def _invert_exact(a):
    """Gauss-Jordan inverse over Fractions; unisolvency keeps pivots nonzero."""
    n = len(a)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if aug[piv][col] == 0:
            raise ArithmeticError("interpolation system is singular (cannot happen)")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


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
    n = 2 * mu + 2
    rows = []
    for xi in (Fraction(-1, 2), Fraction(1, 2)):
        for l in range(mu + 1):
            rows.append(
                [Fraction(math.comb(j, l)) * xi ** (j - l) if j >= l else Fraction(0)
                 for j in range(n)]
            )
    inv = _invert_exact(rows)
    m = np.array([[float(v) for v in row] for row in inv])
    m.setflags(write=False)
    return m


def apply_interp(data: np.ndarray) -> np.ndarray:
    """Batched 1D interpolation.

    Args:
        data: (..., 2, mu+1) node coefficients, axis -2 being (left, right).

    Returns:
        (..., 2mu+2) cell coefficients centered at the node midpoint.
    """
    data = np.asarray(data, dtype=float)
    mu = data.shape[-1] - 1
    m = interp_matrix(mu)
    return data.reshape(data.shape[:-2] + (2 * mu + 2,)) @ m.T


def apply_interp_2d(data: np.ndarray) -> np.ndarray:
    """Batched tensor-product interpolation.

    Args:
        data: (..., 2, 2, mux+1, muy+1) corner coefficients; axes -4/-3 are
            the x/y side (0 = low side), axes -2/-1 the derivative orders.

    Returns:
        (..., 2mux+2, 2muy+2) coefficients centered at the cell midpoint.
    """
    data = np.asarray(data, dtype=float)
    mux = data.shape[-2] - 1
    muy = data.shape[-1] - 1
    # split each matrix's columns I = s*(mu+1)+k into (side s, order k)
    mx = interp_matrix(mux).reshape(-1, 2, mux + 1)
    my = interp_matrix(muy).reshape(-1, 2, muy + 1)
    return np.einsum("ask,...stkl,btl->...ab", mx, data, my, optimize=True)
