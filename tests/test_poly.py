"""Scaled-basis polynomial pieces: evaluation, calculus, shifts."""

import numpy as np
import pytest
import sympy as sp

from energy_oracle import shift
from piecewise import CellPolynomial, PiecewisePolynomial


def test_eval_matches_monomial_sum():
    rng = np.random.default_rng(7)
    for _ in range(20):
        deg = rng.integers(0, 9)
        a = rng.standard_normal(deg + 1)
        c, h = rng.uniform(-2, 2), rng.uniform(0.1, 3.0)
        p = CellPolynomial(c, h, a)
        x = rng.uniform(c - h, c + h, size=11)
        xi = (x - c) / h
        want = sum(a[l] * xi**l for l in range(deg + 1))
        np.testing.assert_allclose(p(x), want, rtol=1e-13, atol=1e-14)


def test_eval_scalar_and_array_shapes():
    p = CellPolynomial(0.0, 1.0, [1.0, 2.0, 3.0])
    assert np.isscalar(float(p(0.3)))
    assert p(np.zeros((2, 5))).shape == (2, 5)


def test_width_must_be_positive():
    with pytest.raises(ValueError):
        CellPolynomial(0.0, 0.0, [1.0])
    with pytest.raises(ValueError):
        CellPolynomial(0.0, -1.0, [1.0])


@pytest.mark.parametrize("order", [1, 2, 3])
def test_derivative_against_sympy(order):
    rng = np.random.default_rng(11 + order)
    x = sp.symbols("x")
    a = rng.standard_normal(6)
    c, h = 0.7, 0.4
    expr = sum(sp.Float(a[l]) * ((x - c) / h) ** l for l in range(6))
    dex = sp.lambdify(x, sp.diff(expr, x, order), "numpy")
    q = CellPolynomial(c, h, a).derivative(order)
    pts = np.linspace(c - h, c + h, 9)
    np.testing.assert_allclose(q(pts), dex(pts), rtol=1e-11, atol=1e-11)


def test_derivative_beyond_degree_is_zero():
    p = CellPolynomial(0.0, 2.0, [1.0, 2.0])
    q = p.derivative(5)
    assert q.degree == 0
    assert q(0.3) == 0.0


def test_derivative_order_zero_is_identity():
    p = CellPolynomial(0.0, 1.0, [1.0, -1.0])
    assert p.derivative(0) is p


def test_scaled_derivs_definition():
    # b_l = (h**l / l!) p^(l)(x), read off without building derivatives
    rng = np.random.default_rng(3)
    a = rng.standard_normal(8)
    p = CellPolynomial(0.25, 0.5, a)
    x0 = 0.4
    got = p.scaled_derivs(x0, 5)
    fact = 1.0
    for l in range(6):
        if l > 0:
            fact *= l
        want = p.derivative(l)(x0) * p.width**l / fact
        assert got[l] == pytest.approx(want, rel=1e-11, abs=1e-13)


def test_recentered_represents_same_function():
    rng = np.random.default_rng(5)
    a = rng.standard_normal(7)
    p = CellPolynomial(1.0, 0.3, a)
    q = p.recentered(1.1, 0.7)
    pts = np.linspace(0.7, 1.3, 13)
    np.testing.assert_allclose(q(pts), p(pts), rtol=1e-12, atol=1e-12)
    assert q.center == 1.1 and q.width == 0.7


def _uniform_pp(n, lo, hi, degs, rng, periodic=True):
    bp = np.linspace(lo, hi, n + 1)
    h = bp[1] - bp[0]
    pieces = [
        CellPolynomial(0.5 * (bp[i] + bp[i + 1]), h, rng.standard_normal(degs + 1))
        for i in range(n)
    ]
    return PiecewisePolynomial(bp, pieces, periodic=periodic)


def test_piecewise_lookup_and_eval():
    rng = np.random.default_rng(13)
    f = _uniform_pp(5, 0.0, 1.0, 3, rng, periodic=False)
    # strictly inside piece 2
    x = 0.5
    assert f(x) == pytest.approx(f.pieces[2](x))
    # vector query hitting several pieces at once
    xs = np.array([0.05, 0.45, 0.95])
    want = [f.pieces[0](xs[0]), f.pieces[2](xs[1]), f.pieces[4](xs[2])]
    np.testing.assert_allclose(f(xs), want)


def test_piecewise_periodic_wrap():
    rng = np.random.default_rng(17)
    f = _uniform_pp(4, -1.0, 1.0, 2, rng, periodic=True)
    x = 0.3
    np.testing.assert_allclose(f(x + 2.0), f(x), rtol=1e-12)
    np.testing.assert_allclose(f(x - 4.0), f(x), rtol=1e-12)


def test_piecewise_validation():
    p = CellPolynomial(0.5, 1.0, [1.0])
    with pytest.raises(ValueError):
        PiecewisePolynomial([0.0, 1.0], [p, p])
    with pytest.raises(ValueError):
        PiecewisePolynomial([0.0, 0.0, 1.0], [p, p])


def test_piecewise_derivative_maps_pieces():
    rng = np.random.default_rng(19)
    f = _uniform_pp(3, 0.0, 3.0, 4, rng, periodic=False)
    g = f.derivative(2)
    x = 1.7
    assert g(x) == pytest.approx(f.pieces[1].derivative(2)(x))


@pytest.mark.parametrize("delta", [0.17, -0.23, 0.49])
def test_shift_is_translation(delta):
    """eval(shift(f, d), x) == eval(f, x + d), incl. wrap past the seam."""
    rng = np.random.default_rng(23)
    f = _uniform_pp(6, -2.0, 1.0, 3, rng, periodic=True)
    g = shift(f, delta)
    # keep samples off the breakpoint lattice; the raw field jumps there
    xs = np.linspace(-2.0, 1.0, 201, endpoint=False) + 1.3e-4
    np.testing.assert_allclose(g(xs), f(xs + delta), rtol=1e-11, atol=1e-12)


def test_shift_preserves_breakpoint_structure():
    rng = np.random.default_rng(29)
    f = _uniform_pp(5, 0.0, 5.0, 2, rng, periodic=True)
    g = shift(f, 0.4)
    lo, hi = g.domain
    assert (lo, hi) == f.domain
    assert np.all(np.diff(g.breakpoints) > 0)
    # one straddling piece was split
    assert len(g.pieces) == len(f.pieces) + 1


def test_shift_rejects_bad_input():
    rng = np.random.default_rng(31)
    f = _uniform_pp(4, 0.0, 1.0, 1, rng, periodic=False)
    with pytest.raises(ValueError):
        shift(f, 0.1)
    g = _uniform_pp(4, 0.0, 1.0, 1, rng, periodic=True)
    with pytest.raises(ValueError):
        shift(g, 0.3)  # larger than one cell
