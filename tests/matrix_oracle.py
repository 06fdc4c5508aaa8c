"""The per-block matrix builders that `dissipative.fold` replaced, kept as oracles.

`block_fold` pushes the identity through a map one field at a time and
returns one row block per field, each in that field's own (sides,
coefficients) layout; `packed` stacks the blocks and permutes their rows
into the layout `take` gathers, per side the fields packed.

`error_matrix` is the L2-error matrix built apart from any fold: per axis
the interpolation folded into a Vandermonde matrix at the cell kind's
Gauss points (`eval_matrix`), their tensor product over the axes by einsum
(`field_matrix`), and each value's product placed in the rows of the field
it reads.

`exact_half_step` is the 1D half step's matrix in exact rational
arithmetic: the Hermite conditions inverted over Fractions
(`exact_interp`), the Taylor recursion run exactly from the float dt and
summed at dt/2, then each entry rounded to float once.

`same_bits` compares two matrices bit for bit, signs of zero included.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from hermwave.diagnostics import _points
from hermwave.grid import rows
from hermwave.interp import interp_matrix


def same_bits(a, b) -> bool:
    """Equal arrays, signs of zero included."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def block_fold(fn, shapes, *args) -> tuple:
    """Row blocks of the linear per-target map blocks -> fn(*blocks, *args).

    fn takes one batched block (k, *shape) per entry of `shapes`, then
    `args`, and returns a tuple of batched blocks. The result holds one
    A_i per input block: sum_i rows(block_i) @ A_i is fn's outputs as rows,
    concatenated.
    """
    sizes = [math.prod(s) for s in shapes]
    eye = np.eye(sum(sizes))
    splits = np.cumsum(sizes)[:-1]
    cols = np.split(eye, splits, axis=1)
    outs = fn(*(c.reshape((-1,) + s) for c, s in zip(cols, shapes)), *args)
    a = np.concatenate([rows(o) for o in outs], axis=1)
    return tuple(np.split(a, splits))


def packed(blocks: tuple, sides: tuple) -> np.ndarray:
    """`block_fold`'s row blocks, stacked and permuted into the rows of their
    fields packed per node, as `take` gathers them."""
    # row r of block i reads entry r of field i's flattened (sides, coefficients) block
    first = np.cumsum([0] + [len(block) for block in blocks])
    index = np.concatenate([start + np.arange(len(block)).reshape(sides + (-1,))
                            for start, block in zip(first, blocks)], axis=-1)
    return np.concatenate(blocks)[index.ravel()]


def invert_exact(a):
    """Gauss-Jordan inverse over Fractions; unisolvency keeps pivots nonzero."""
    n = len(a)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(aug[r][col]))
        assert aug[piv][col] != 0, "interpolation system is singular"
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def exact_interp(mu: int) -> list:
    """The Hermite conditions sum_j C(j, l) xi_s**(j-l) a_j = c_l at
    xi_s = -1/2, +1/2, assembled and inverted over Fractions: rows of the
    (2mu+2) x (2mu+2) map from stacked (left, right) data to a_j."""
    rows = []
    for xi in (Fraction(-1, 2), Fraction(1, 2)):
        for l in range(mu + 1):
            rows.append([Fraction(math.comb(j, l)) * xi ** (j - l) if j >= l else Fraction(0)
                         for j in range(2 * mu + 2)])
    return invert_exact(rows)


def exact_half_step(blocks: tuple, dt: float, h: float = 1.0) -> np.ndarray:
    """The 1D half step's matrix from u | v per side (u of order m, v of
    order lv - 1 <= m) at spacing h, in the gathered layout, computed over
    Fractions from the float dt and h and rounded to float once.

    Both fields are interpolated exactly, v padded to u's 2m+2
    coefficients; the recursion c_s = (dt/s) d_{s-1},
    d_s[j] = (r/s) (j+2)(j+1) c_{s-1}[j+2] runs until it vanishes, and its
    stages are summed at theta = 1/2, with r = dt/h^2."""
    ((nu,), (lv,)) = blocks
    k, tau, r = 2 * nu, Fraction(dt), Fraction(dt) / Fraction(h) ** 2
    maps = [exact_interp(nu - 1), exact_interp(lv - 1)]
    out = []
    for side in range(2):
        for field, n in enumerate((nu, lv)):
            for l in range(n):
                # the unit datum l of this field on this side, interpolated
                cols = [row[side * n + l] for row in maps[field]]
                c, d = (cols, [Fraction(0)] * k) if field == 0 else \
                    ([Fraction(0)] * k, cols + [Fraction(0)] * (k - 2 * lv))
                u, v, s = c[:], d[:], 0
                while any(c) or any(d):
                    s += 1
                    c, d = ([tau / s * x for x in d],
                            [r / s * (j + 2) * (j + 1) * c[j + 2] for j in range(k - 2)]
                            + [Fraction(0)] * 2)
                    u = [a + Fraction(1, 2 ** s) * x for a, x in zip(u, c)]
                    v = [a + Fraction(1, 2 ** s) * x for a, x in zip(v, d)]
                out.append([float(x) for x in u[:nu] + v[:lv]])
    return np.array(out)


def eval_matrix(mu: int, npts: int, kind: int, der: int = 0) -> np.ndarray:
    """(2mu+2, npts) map from stacked (left, right) order-mu node data to
    the interpolant's der-th xi-derivative (der <= 1) at the Gauss points
    of a cell kind."""
    v = np.vander(_points(npts, kind), 2 * mu + 2, increasing=True)
    if der:  # d/dxi takes xi^j to j xi^(j-1)
        v = np.concatenate((np.zeros((npts, 1)), v[:, :-1] * np.arange(1, 2 * mu + 2)), axis=1)
    return np.ascontiguousarray((v @ interp_matrix(mu)).T)


def field_matrix(coeffs: tuple, npts: int, kinds: tuple, der: int = 0) -> np.ndarray:
    """Tensor product of `eval_matrix` over the axes, axis q of kind
    kinds[q] and the der-th xi-derivative along axis 0: (2**d
    prod(coeffs), npts**d), its rows laid out as `take` gathers a field of
    coefficient shape `coeffs` (sides per axis, then coefficients per axis)
    and its Gauss points in C order."""
    out = np.ones((1, 1, 1))  # (sides, coefficients, points) of the axes so far
    for q, (k, kind) in enumerate(zip(coeffs, kinds)):
        e = eval_matrix(k - 1, npts, kind, der if q == 0 else 0).reshape(2, k, npts)
        out = np.einsum("abc,def->adbecf", out, e).reshape(2 * len(out), -1, out.shape[2] * npts)
    return out.reshape(-1, out.shape[2])


def error_matrix(blocks: tuple, npts: int, kinds: tuple, pair: bool) -> np.ndarray:
    """`diagnostics.error_matrix` from `field_matrix` blocks placed in the
    rows of the fields they read: u, then, if `pair`, u_x and v."""
    sizes = [math.prod(block) for block in blocks]
    reads = [(0, field_matrix(blocks[0], npts, kinds))]
    if pair:
        reads += [(0, field_matrix(blocks[0], npts, kinds, 1)),
                  (1, field_matrix(blocks[1], npts, kinds))]
    points, first = reads[0][1].shape[1], np.cumsum([0] + sizes)
    out = np.zeros((2 ** len(kinds), first[-1], len(reads), points))
    for j, (i, a) in enumerate(reads):
        out[:, first[i] : first[i + 1], j] = a.reshape(len(out), sizes[i], points)
    return out.reshape(-1, len(reads) * points)
