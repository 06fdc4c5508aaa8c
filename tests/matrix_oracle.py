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

`same_bits` compares two matrices bit for bit, signs of zero included.
"""

from __future__ import annotations

import math

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
