"""Piecewise assembly of the conserved energy, the oracle for its cached form.

The conserved variables P_± = p^n - S_± p^{n-1/2} are built as explicit
piecewise polynomials: the previous level's interpolant is translated by
±c dt/2 (`shift`), subtracted from the current one on the union of both
breakpoint sets (`pp_subtract`), and each union piece is integrated by a
Gauss rule exact for its degree (`seminorm_sq`). This is independent of
`hermwave.diagnostics.energy_factor`, which folds the same quantity into
one matrix, so the two check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from piecewise import CellPolynomial, PiecewisePolynomial, field_interpolant, seminorm_sq


def shift(f: PiecewisePolynomial, delta: float) -> PiecewisePolynomial:
    """Translate a periodic field: eval(shift(f, d), x) == eval(f, x + d).

    Breakpoints and piece centers move by -delta and are wrapped back into
    the fundamental domain; coefficients are untouched (a translated
    polynomial keeps its scaled coefficients). At most one piece straddles
    the domain edge and is split in two.
    """
    if not f.periodic:
        raise ValueError("shift is only defined for periodic piecewise polynomials")
    lo, hi = f.domain
    span = hi - lo
    if abs(delta) >= np.min(np.diff(f.breakpoints)):
        raise ValueError("shift distance must be smaller than the smallest cell")
    tol = 1e-12 * span
    segs = []
    for i, p in enumerate(f.pieces):
        a = f.breakpoints[i] - delta
        b = f.breakpoints[i + 1] - delta
        c = p.center - delta
        k = math.floor((a - lo) / span + tol)
        a, b, c = a - k * span, b - k * span, c - k * span
        if b <= hi + tol:
            segs.append((a, min(b, hi), CellPolynomial(c, p.width, p.coeffs)))
        else:
            segs.append((a, hi, CellPolynomial(c, p.width, p.coeffs)))
            segs.append((lo, b - span, CellPolynomial(c - span, p.width, p.coeffs)))
    segs = [s for s in segs if s[1] - s[0] > tol]
    segs.sort(key=lambda s: s[0])
    bp = [lo] + [s[1] for s in segs]
    bp[-1] = hi
    return PiecewisePolynomial(np.array(bp), [s[2] for s in segs], periodic=True)


@dataclass(frozen=True)
class ConservedPair:
    p_plus: PiecewisePolynomial
    p_minus: PiecewisePolynomial


def pp_subtract(a: PiecewisePolynomial, b: PiecewisePolynomial) -> PiecewisePolynomial:
    """a - b on the union breakpoint set; both periodic with equal period.

    b is looked up through its own periodic window, so the two fields may
    live on windows offset by half a cell.
    """
    lo, hi = a.domain
    span = hi - lo
    blo = b.domain[0]
    tol = 1e-12 * span
    edges = list(a.breakpoints)
    for e in b.breakpoints[:-1]:
        w = lo + (e - lo) % span
        edges.append(w)
    edges = sorted(edges)
    merged = [lo]
    for e in edges:
        if e - merged[-1] > tol:
            merged.append(e)
    if hi - merged[-1] <= tol:
        merged[-1] = hi
    else:
        merged.append(hi)
    pieces = []
    for i in range(len(merged) - 1):
        xm = 0.5 * (merged[i] + merged[i + 1])
        ia = int(np.searchsorted(a.breakpoints, xm, side="right") - 1)
        pa = a.pieces[min(ia, len(a.pieces) - 1)]
        xw = blo + (xm - blo) % (b.domain[1] - blo)
        ib = int(np.searchsorted(b.breakpoints, xw, side="right") - 1)
        pb = b.pieces[min(ib, len(b.pieces) - 1)]
        pb = CellPolynomial(pb.center + (xm - xw), pb.width, pb.coeffs)
        ca = pa.recentered(xm, pa.width)
        cb = pb.recentered(xm, pa.width)
        n = max(len(ca.coeffs), len(cb.coeffs))
        cc = np.zeros(n)
        cc[: len(ca.coeffs)] = ca.coeffs
        cc[: len(cb.coeffs)] -= cb.coeffs
        pieces.append(CellPolynomial(xm, pa.width, cc))
    return PiecewisePolynomial(np.asarray(merged), pieces, periodic=True)


def conserved_pair(current: PiecewisePolynomial, previous: PiecewisePolynomial,
                   delta: float) -> ConservedPair:
    """P_± = current - S_± previous with shift distance delta = c*dt/2."""
    if not (current.periodic and previous.periodic):
        raise ValueError("conserved variables need a periodic domain")
    return ConservedPair(
        p_plus=pp_subtract(current, shift(previous, delta)),
        p_minus=pp_subtract(current, shift(previous, -delta)),
    )


def seminorm_energy(pair: ConservedPair, order: int) -> float:
    """E = |P_+|_order^2 + |P_-|_order^2 (order = m+1 for the scheme)."""
    return seminorm_sq(pair.p_plus, order) + seminorm_sq(pair.p_minus, order)


def oracle_energy(current, previous, speed: float, dt: float) -> float:
    """E(t_n) from a two-level nodal state, assembled piece by piece."""
    pair = conserved_pair(field_interpolant(current), field_interpolant(previous),
                          0.5 * speed * dt)
    return seminorm_energy(pair, current.orders[0] + 1)
