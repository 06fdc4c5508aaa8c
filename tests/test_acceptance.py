"""Acceptance suite: one check per criterion cell, stated tolerances.

Each test prints a PASS/FAIL line with the measured number so the whole
grid can be read off a verbose run. Rate targets follow the design
orders of the two schemes:

    dissipative   2m-1 (lam < 1),  2m   (lam = 1)
    conservative  2m   (lam < 1),  2m+2 (lam = 1)

The orders hold as h -> 0, so each rate cell is measured on a ladder of
grids inside its asymptotic range, on one of three setups:

    stock ladder    the experiment's default levels (gaussian1d n = 10..27,
                    planewave2d n = 10..22), for the cells that settle on it;
    moved ladder    gaussian1d with n0/levels moved to where consecutive
                    pairwise rates of a refinement study agree within 0.25
                    and have stopped drifting, ending before rounding
                    shows in them;
    resolved wave   2D cells on the kappa = 1 wave sin(2 pi (x + y + sqrt(2) t))
                    to t ~ 1, n = 15..33; the stock kappa = m+1 wave to
                    t ~ 4.18 settles only at n ~ 70..120, or beyond.

Targets and windows are the same on every setup. A rate cell prints the
ladder it fitted (n, error, pairwise rate) and, for a moved ladder or the
resolved wave, the stock-ladder fit for information only, so a failure
shows by itself whether it comes from resolution.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial as P

from hermwave.boundary import ghost_data
from hermwave.conservative import step
from hermwave.diagnostics import l2_error_field
from hermwave.dissipative import SchemeConfig
from hermwave.driver import (
    default_config,
    planewave_data,
    run_conservation_1d,
    run_gaussian_1d,
    run_planewave_2d,
    sine_derivs,
    _scale_cols,
    _study,
)
from hermwave.grid import DUAL, PRIMAL, Axis, Field, Grid
from hermwave.interp import apply_interp

from level_oracle import pair_sources
from piecewise import CellPolynomial, PiecewisePolynomial, interpolate_1d, seminorm_sq
from states import previous_of, two_level, u_of, u_state, uv_state, v_of


def _rate_check(tag, rate, target, tol, ladder=None, stock=None):
    """Check a fitted rate against target+-tol.

    ladder, the ErrorReport the rate was fitted on, is printed per level
    (n, error, pairwise rate); stock, the fit of the same cell on its stock
    ladder, is printed for information only.
    """
    if ladder is not None:
        pair = ladder.pair_rates()
        for i, (n, err) in enumerate(zip(ladder.ns, ladder.err_u)):
            shown = f"{pair[i - 1]:6.3f}" if i else "     -"
            print(f"{tag}:   n={n:5d}  err={err:.3e}  pairwise {shown}")
    if stock is not None:
        print(f"{tag}:   stock-ladder fit {stock:.3f} (information only)")
    ok = abs(rate - target) <= tol
    print(f"{tag}: {'PASS' if ok else 'FAIL'}  rate {rate:.3f} target {target}+-{tol}")
    assert ok, f"{tag}: measured rate {rate:.3f} outside {target}+-{tol}"


def _bound_check(tag, value, bound):
    ok = value <= bound
    print(f"{tag}: {'PASS' if ok else 'FAIL'}  value {value:.3e} bound {bound:.1e}")
    assert ok, f"{tag}: {value:.3e} exceeds {bound:.1e}"


# ---------------------------------------------------------------------------
# criterion 1: dissipative 1D refinement rates


# Moved gaussian1d ladders (n0, levels), keyed by (scheme, lam, m). Each
# cell's stock ladder (n = 10..27) is pre-asymptotic; the pairwise rates
# that place each ladder are recorded in CHANGES.md.
_MOVED_1D = {
    ("dissipative", 0.8, 1): (1400, 3),
    ("dissipative", 1.0, 3): (48, 5),
    ("dissipative", 1.0, 4): (40, 5),
    ("conservative", 0.8, 1): (58, 5),
    ("conservative", 0.8, 2): (177, 5),
    ("conservative", 0.8, 3): (147, 5),
    ("conservative", 1.0, 2): (48, 5),
    ("conservative", 1.0, 3): (40, 5),
}


def _check_gaussian_1d(scheme, m, lam, target, tol):
    cfg = replace(default_config("gaussian1d"), scheme=scheme, m=m, lam=lam).validate()
    stock = run_gaussian_1d(cfg)
    moved = _MOVED_1D.get((scheme, lam, m))
    if moved is None:
        report, stock_rate = stock, None
    else:
        n0, levels = moved
        report = run_gaussian_1d(replace(cfg, n0=n0, levels=levels).validate())
        stock_rate = stock.rate()
    tag = f"{scheme} 1d m={m} lam={lam}"
    _rate_check(tag, report.rate(), target, tol, ladder=report, stock=stock_rate)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("lam", [0.8, 1.0])
def test_criterion1_dissipative_rates_1d(m, lam):
    target = 2 * m - 1 if lam < 1.0 else 2 * m
    _check_gaussian_1d("dissipative", m, lam, target, 0.4)


# ---------------------------------------------------------------------------
# criterion 2: conservative 1D refinement rates


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("lam", [0.8, 1.0])
def test_criterion2_conservative_rates_1d(m, lam):
    target, tol = (2 * m, 0.4) if lam < 1.0 else (2 * m + 2, 0.5)
    _check_gaussian_1d("conservative", m, lam, target, tol)


# ---------------------------------------------------------------------------
# criterion 3: 2D refinement rates, both schemes

# Cells measured on the resolved kappa = 1 wave, keyed by (scheme, lam, m).
# On the stock kappa = m+1 wave the dissipative m=1 runs damp the wave away
# before t ~ 4.18, and the conservative lam=0.8 runs settle only at
# n ~ 70..120.
_RESOLVED_2D = {
    ("dissipative", 0.8, 1),
    ("dissipative", 1.0, 1),
    ("conservative", 0.8, 1),
    ("conservative", 0.8, 2),
    ("conservative", 0.8, 3),
}


def _resolved_planewave_2d(cfg):
    """Refinement study of sin(2 pi (x + y + sqrt(2) t)) to t ~ 1, n = 15..33,
    as `run_planewave_2d` runs its kappa = m+1 wave."""
    def data(xs, t, h, order, tder):
        return planewave_data(*xs, t, order, 1, h, tder)

    def exact(t, x, y):
        return (np.sin(2.0 * np.pi * (x + y + math.sqrt(2.0) * t)),)

    return _study(replace(cfg, n0=15, levels=5), lambda n: Grid((Axis(0.0, 1.0, n),) * 2),
                  1.0, data, exact)


def _check_planewave_2d(scheme, m, lam, target):
    cfg = replace(default_config("planewave2d"), scheme=scheme, m=m, lam=lam).validate()
    stock = run_planewave_2d(cfg)
    if (scheme, lam, m) in _RESOLVED_2D:
        report, stock_rate = _resolved_planewave_2d(cfg), stock.rate()
    else:
        report, stock_rate = stock, None
    tag = f"{scheme} 2d m={m} lam={lam}"
    _rate_check(tag, report.rate(), target, 0.5, ladder=report, stock=stock_rate)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("lam", [0.8, 1.0])
def test_criterion3_dissipative_rates_2d(m, lam):
    target = 2 * m - 1 if lam < 1.0 else 2 * m
    _check_planewave_2d("dissipative", m, lam, target)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("lam", [0.8, 1.0])
def test_criterion3_conservative_rates_2d(m, lam):
    target = 2 * m if lam < 1.0 else 2 * m + 2
    _check_planewave_2d("conservative", m, lam, target)


# ---------------------------------------------------------------------------
# criterion 4: long-horizon energy conservation


def _drift(m, mode, steps=10_000, lam=0.5, n0=30, seed=123):
    cfg = replace(
        default_config("conserve1d"),
        m=m,
        mode=mode,
        steps=steps,
        lam=lam,
        n0=n0,
        seed=seed if mode == "random" else None,
    ).validate()
    _, _, deltas, e0 = run_conservation_1d(cfg)
    return float(np.max(np.abs(deltas)) / e0)


@pytest.mark.parametrize("m", [1, 3])
def test_criterion4_smooth_energy_drift(m):
    rel = _drift(m, "smooth")
    _bound_check(f"energy drift smooth m={m} 1e4 steps", rel, 1e-8)


def test_criterion4_smooth_below_random():
    smooth = _drift(1, "smooth")
    rough = _drift(1, "random")
    ok = smooth < rough
    print(
        f"energy drift ordering: {'PASS' if ok else 'FAIL'}  "
        f"smooth {smooth:.3e} < random {rough:.3e}"
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: polynomial exactness of one step


def _dissipative_center_oracle(udata, vdata, lam, speed, h):
    pu = P(apply_interp(udata))
    pv = P(apply_interp(vdata))
    s0 = 0.5 * lam
    qint = pv.integ()
    u = 0.5 * (pu(s0) + pu(-s0)) + (h / (2 * speed)) * (qint(s0) - qint(-s0))
    dp = pu.deriv()
    v = (speed / (2 * h)) * (dp(s0) - dp(-s0)) + 0.5 * (pv(s0) + pv(-s0))
    return u, v


def _exactness_level(kinds):
    """The six-cell grid of criterion 5, periodic or with the given walls."""
    return Grid((Axis(0.0, 3.0, 6, *(kinds or ())),))


# Each (lam, m) cell also draws lam' = lam - back in (lam - 1/2, lam], so
# the two lam cells together cover (0, 1]; back = 0 is always run.
_EXACTNESS_DRAWS = dict(
    back=st.floats(0.0, 0.5, exclude_max=True),
    kinds=st.sampled_from((None, ("dirichlet0", "dirichlet0"), ("dirichlet0", "neumann0"),
                           ("neumann0", "dirichlet0"), ("neumann0", "neumann0"))),
    parity=st.sampled_from((PRIMAL, DUAL)),
    seed=st.integers(0, 2**32 - 1),
)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("lam", [0.5, 1.0])
@settings(max_examples=20, deadline=None)
@given(**_EXACTNESS_DRAWS)
@example(back=0.0, kinds=None, parity=PRIMAL, seed=0)
def test_criterion5_dissipative_polynomial_exactness(m, lam, back, kinds, parity, seed):
    rng = np.random.default_rng(seed)
    lam = lam - back
    grid = _exactness_level(kinds)
    cfg = SchemeConfig(m=m, lam=lam)
    nodes = grid.shapes[parity]
    pair = uv_state(
        Field(grid, parity, 0.0, rng.standard_normal(nodes + (m + 1,))),
        Field(grid, parity, 0.0, rng.standard_normal(nodes + (m,))),
    )
    out = step(pair, cfg)
    # the flank data the stepper reads
    udata, _ = pair_sources(u_of(pair))
    vdata, _ = pair_sources(v_of(pair))
    scale = np.abs(udata).max()
    worst = 0.0
    for i in range(len(udata)):
        uref, vref = _dissipative_center_oracle(udata[i], vdata[i], lam, 1.0, grid.spacings[0])
        worst = max(
            worst,
            abs(u_of(out).values[i, 0] - uref) / scale,
            abs(v_of(out).values[i, 0] - vref) / scale,
        )
    _bound_check(f"one-step exactness dissipative m={m} lam={lam:.4g} "
                 f"{kinds or 'periodic'} {parity}", worst, 1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("lam", [0.5, 1.0])
@settings(max_examples=20, deadline=None)
@given(**_EXACTNESS_DRAWS)
@example(back=0.0, kinds=None, parity=PRIMAL, seed=0)
def test_criterion5_conservative_polynomial_exactness(m, lam, back, kinds, parity, seed):
    rng = np.random.default_rng(seed)
    lam = lam - back
    grid = _exactness_level(kinds)
    cfg = SchemeConfig(m=m, lam=lam)
    other = DUAL if parity == PRIMAL else PRIMAL
    state = two_level(
        Field(grid, parity, 0.0, rng.standard_normal(grid.shapes[parity] + (m + 1,))),
        Field(grid, other, -0.1, rng.standard_normal(grid.shapes[other] + (m + 1,))),
    )
    out = step(state, cfg)
    data, centers = pair_sources(u_of(state))
    coeffs = apply_interp(data)
    scale = np.abs(coeffs).max()
    rho = 0.5 * lam
    (h,) = grid.spacings
    worst = 0.0
    for i in range(len(data)):
        p = CellPolynomial(centers[i], h, coeffs[i])
        avg = 0.5 * (p(centers[i] + rho * h) + p(centers[i] - rho * h))
        ref = 2.0 * avg - previous_of(state).values[i, 0]
        worst = max(worst, abs(u_of(out).values[i, 0] - ref) / scale)
    _bound_check(f"one-step exactness conservative m={m} lam={lam:.4g} "
                 f"{kinds or 'periodic'} {parity}", worst, 1e-12)


# ---------------------------------------------------------------------------
# criterion 6: interpolation operator


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_criterion6_interpolation_exactness(m):
    rng = np.random.default_rng(600 + m)
    c, h = 0.4, 0.65
    a = rng.standard_normal(2 * m + 2)
    p = CellPolynomial(c, h, a)
    q = interpolate_1d(p.scaled_derivs(c - h / 2, m), p.scaled_derivs(c + h / 2, m), c, h)
    worst = np.abs(q.coeffs - a).max() / np.abs(a).max()
    _bound_check(f"interpolation exactness m={m}", worst, 1e-12)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_criterion6_seminorm_pythagoras(m):
    rng = np.random.default_rng(610 + m)
    c, h = 0.0, 1.0
    a = rng.standard_normal(2 * m + 5)
    p = CellPolynomial(c, h, a)
    q = interpolate_1d(p.scaled_derivs(c - h / 2, m), p.scaled_derivs(c + h / 2, m), c, h)
    dom = [c - h / 2, c + h / 2]
    full = seminorm_sq(PiecewisePolynomial(dom, [p]), m + 1)
    kept = seminorm_sq(PiecewisePolynomial(dom, [q]), m + 1)
    diff = CellPolynomial(c, h, _coeff_sub(p.coeffs, q.coeffs))
    lost = seminorm_sq(PiecewisePolynomial(dom, [diff]), m + 1)
    rel = abs(full - (kept + lost)) / full
    _bound_check(f"seminorm pythagoras m={m}", rel, 1e-10)


def _coeff_sub(a, b):
    n = max(len(a), len(b))
    out = np.zeros(n)
    out[: len(a)] = a
    out[: len(b)] -= b
    return out


@pytest.mark.parametrize("m", [1, 2, 3])
def test_criterion6_interpolation_error_slope(m):
    errs, hs = [], []
    for n in (8, 12, 18, 27):
        axis = Axis(0.0, 2 * math.pi, n)
        xs = axis.nodes(PRIMAL)
        f = Field(Grid((axis,)), PRIMAL, 0.0, _scale_cols(sine_derivs(xs, m, 0.0), axis.h))
        errs.extend(l2_error_field(u_state(f), np.sin, npts=2 * m + 8))
        hs.append(axis.h)
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    _rate_check(f"interpolation L2 slope m={m}", slope, 2 * m + 2, 0.3)


# ---------------------------------------------------------------------------
# criterion 7: long-time stability at lam = 1


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_criterion7_dissipative_long_run(m):
    n = 10
    axis = Axis(-math.pi, math.pi, n)
    grid = Grid((axis,))
    cfg = SchemeConfig(m=m, lam=1.0)
    xs = axis.nodes(PRIMAL)
    h = axis.h
    uvals = np.stack(
        [np.sin(xs + l * math.pi / 2) * h**l / math.factorial(l) for l in range(m + 1)],
        axis=-1,
    )
    vvals = np.stack(
        [-np.cos(xs + l * math.pi / 2) * h**l / math.factorial(l) for l in range(m)],
        axis=-1,
    )
    pair = uv_state(Field(grid, PRIMAL, 0.0, uvals), Field(grid, PRIMAL, 0.0, vvals))
    sup0 = np.abs(u_of(pair).values[:, 0]).max()
    sup = sup0
    for k in range(10_000):
        pair = step(pair, cfg)
        if (k + 1) % 100 == 0:
            assert np.all(np.isfinite(u_of(pair).values))
            sup = max(sup, np.abs(u_of(pair).values[:, 0]).max())
    assert np.all(np.isfinite(u_of(pair).values))
    sup = max(sup, np.abs(u_of(pair).values[:, 0]).max())
    _bound_check(f"long-run sup dissipative m={m} lam=1", sup, 2.0 * sup0)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_criterion7_conservative_long_run(m):
    rel = _drift(m, "smooth", lam=1.0, n0=10)
    _bound_check(f"long-run energy conservative m={m} lam=1", rel, 1e-8)


# ---------------------------------------------------------------------------
# criterion 8: wall reflections


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_criterion8_reflection_involution(m):
    rng = np.random.default_rng(800 + m)
    data = rng.standard_normal((6, m + 1))
    for kind in ("dirichlet0", "neumann0"):
        twice = ghost_data(ghost_data(data, kind), kind)
        ok = np.array_equal(twice, data)
        print(f"involution {kind} m={m}: {'PASS' if ok else 'FAIL'}")
        assert ok


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_criterion8_wall_parity_suppression(m):
    rng = np.random.default_rng(810 + m)
    b = rng.standard_normal(m + 1)
    scale = np.abs(b).max()
    even = apply_interp(np.stack([ghost_data(b, "dirichlet0"), b]))
    worst_d = np.abs(even[0::2]).max() / scale
    odd = apply_interp(np.stack([ghost_data(b, "neumann0"), b]))
    worst_n = np.abs(odd[1::2]).max() / scale
    _bound_check(f"dirichlet even-coefficient suppression m={m}", worst_d, 1e-13)
    _bound_check(f"neumann odd-coefficient suppression m={m}", worst_n, 1e-13)
