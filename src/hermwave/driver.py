"""Experiment orchestration: refinement studies and conservation traces.

Three built-in experiments:

  gaussian1d   box [-3/2, 3/2] with reflecting walls, u(x,0) = exp(-20 x^2)
               at rest, integrated to t = 12 + tau (tau makes the step
               count an integer near 12.25); at that time the solution is
               the free pair of half pulses at +-tau again, so errors are
               measured against a closed form.
  conserve1d   periodic [-pi, pi], conservative scheme; tracks the
               seminorm energy drift over many steps for smooth
               (sin x cos t) or random two-level data.
  planewave2d  periodic unit square, u = sin(2 pi kappa (x + y + sqrt(2) t))
               with kappa = m+1, run to the integer half-step count
               nearest t = 4.18.

Initial nodal data is produced from closed-form derivative recurrences
rather than projection so the refinement studies see only the scheme's
error. Runs are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .boundary import BoundarySpec, BoundarySpec2D
from .conservative import bootstrap_first_half, full_step_conservative
from .diagnostics import (
    ErrorReport,
    conservative_energy,
    l2_error_field,
    l2_error_field_2d,
    l2_errors_pair,
)
from .dissipative import SchemeConfig, half_step_1d, half_step_2d
from .grid import DUAL, PRIMAL, Field1D, Field2D, FieldPair, Grid1D, Grid2D, TwoLevelState
from .interp import MAX_ORDER


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class NumericalError(RuntimeError):
    """NaN or overflow detected in field data during a run."""


SCHEMES = ("dissipative", "conservative")
EXPERIMENTS = ("gaussian1d", "conserve1d", "planewave2d")
BOUNDARIES = ("dirichlet0", "neumann0", "periodic")
MODES = ("smooth", "random")
INITS = ("exact", "bootstrap")


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    scheme: str = "dissipative"
    m: int = 2
    lam: float = 0.8
    levels: int = 6
    n0: int = 10
    refine: float = 1.2
    steps: int = 10000
    sample_every: int = 100
    seed: int | None = None
    mode: str = "smooth"
    init: str = "exact"
    boundary: str = "periodic"
    stage_cap: int | None = None
    out: str | None = None

    def validate(self) -> "RunConfig":
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not 1 <= self.m <= MAX_ORDER:
            raise ConfigError(f"m must be in [1, {MAX_ORDER}], got {self.m}")
        if not 0.0 < self.lam <= 1.0:
            raise ConfigError(f"lambda must be in (0, 1], got {self.lam}")
        if self.levels < 1:
            raise ConfigError(f"levels must be >= 1, got {self.levels}")
        if self.n0 < 4:
            raise ConfigError(f"n0 must be >= 4, got {self.n0}")
        if self.refine <= 1.0:
            raise ConfigError(f"refine must exceed 1, got {self.refine}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.sample_every < 1:
            raise ConfigError(f"sample_every must be >= 1, got {self.sample_every}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.init not in INITS:
            raise ConfigError(f"init must be one of {INITS}, got {self.init!r}")
        if self.boundary not in BOUNDARIES:
            raise ConfigError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")
        if self.stage_cap is not None and self.stage_cap < 1:
            raise ConfigError(f"stage_cap must be >= 1, got {self.stage_cap}")
        if self.experiment != "gaussian1d" and self.boundary != "periodic":
            raise ConfigError(f"{self.experiment} runs on a periodic domain; boundary "
                              f"overrides only apply to gaussian1d")
        if self.experiment == "conserve1d" and self.scheme != "conservative":
            raise ConfigError("conserve1d tracks the conservative scheme's invariant; "
                              "set scheme=conservative")
        return self

    def level_sizes(self) -> list[int]:
        sizes = [self.n0]
        for _ in range(self.levels - 1):
            sizes.append(math.ceil(round(self.refine * sizes[-1], 9)))
        return sizes

    def scheme_config(self) -> SchemeConfig:
        return SchemeConfig(m=self.m, speed=1.0, lam=self.lam, stage_cap=self.stage_cap)


_DEFAULTS = {
    "gaussian1d": dict(levels=6, n0=10, lam=0.8, boundary="dirichlet0"),
    "conserve1d": dict(levels=1, n0=30, lam=0.5, scheme="conservative"),
    "planewave2d": dict(levels=5, n0=10, lam=0.8),
}


def default_config(experiment: str) -> RunConfig:
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    return RunConfig(experiment=experiment, **_DEFAULTS[experiment])


_KEY_TYPES = {
    "experiment": str,
    "scheme": str,
    "m": int,
    "lambda": float,
    "levels": int,
    "n0": int,
    "refine": float,
    "steps": int,
    "sample_every": int,
    "seed": int,
    "mode": str,
    "init": str,
    "boundary": str,
    "stage_cap": int,
    "out": str,
}
_KEY_FIELDS = {"lambda": "lam"}


def parse_config(text: str) -> dict:
    """Parse key=value lines ('#' comments) into config overrides.

    Unknown keys and malformed values fail fast with their line number.
    """
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        key, _, val = (part.strip() for part in line.partition("="))
        if key not in _KEY_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if not val:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        try:
            parsed = _KEY_TYPES[key](val)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: cannot parse {val!r} as {_KEY_TYPES[key].__name__} for {key!r}"
            ) from None
        out[_KEY_FIELDS.get(key, key)] = parsed
    return out


def make_config(experiment: str, file_overrides: dict | None = None,
                flag_overrides: dict | None = None) -> RunConfig:
    """Defaults <- config file <- command-line flags, then validate."""
    cfg = default_config(experiment)
    for overrides in (file_overrides, flag_overrides):
        if overrides:
            clean = {k: v for k, v in overrides.items() if v is not None and k != "experiment"}
            cfg = replace(cfg, **clean)
    return cfg.validate()


# ---------------------------------------------------------------------------
# closed-form initial data


def _scale_cols(vals: np.ndarray, h: float) -> np.ndarray:
    """Turn derivative columns d^l u into scaled data (h**l/l!) d^l u."""
    fac = np.ones(vals.shape[-1])
    for l in range(1, vals.shape[-1]):
        fac[l] = fac[l - 1] * h / l
    return vals * fac


def gaussian_derivs(x, kmax: int, a: float = -20.0) -> np.ndarray:
    """Columns d^k/dx^k exp(a x^2), k = 0..kmax.

    Uses f^(k) = p_k(x) f with the polynomial recurrence
    p_{k+1} = p_k' + 2 a x p_k.
    """
    x = np.asarray(x, dtype=float)
    f = np.exp(a * x * x)
    out = np.empty(x.shape + (kmax + 1,))
    p = np.array([1.0])  # coefficients of p_k, lowest first
    for k in range(kmax + 1):
        out[..., k] = np.polynomial.polynomial.polyval(x, p) * f
        dp = p[1:] * np.arange(1, len(p))
        shifted = np.concatenate([[0.0], 2.0 * a * p])
        shifted[: len(dp)] += dp
        p = shifted
    return out


def gaussian_box_u(x, t: float, kmax: int) -> np.ndarray:
    """x-derivative columns of (G(x+t) + G(x-t))/2, G = exp(-20 x^2)."""
    return 0.5 * (gaussian_derivs(x + t, kmax) + gaussian_derivs(x - t, kmax))


def gaussian_box_v(x, t: float, kmax: int) -> np.ndarray:
    """x-derivative columns of u_t = (G'(x+t) - G'(x-t))/2."""
    gp = gaussian_derivs(x + t, kmax + 1)
    gm = gaussian_derivs(x - t, kmax + 1)
    return 0.5 * (gp[..., 1:] - gm[..., 1:])


def sine_derivs(x, kmax: int, t: float) -> np.ndarray:
    """x-derivative columns of sin(x) cos(t)."""
    x = np.asarray(x, dtype=float)
    k = np.arange(kmax + 1)
    return np.sin(x[..., None] + 0.5 * np.pi * k) * math.cos(t)


def planewave_data(xnodes, ynodes, t: float, kx: int, ky: int, kappa: int,
                   hx: float, hy: float, tder: int = 0) -> np.ndarray:
    """Scaled data blocks of u = sin(2 pi kappa (x + y + sqrt(2) t)).

    d_t^d d_x^k d_y^l u = w**(k+l) (sqrt(2) w)**d sin(theta + (k+l+d) pi/2)
    with w = 2 pi kappa; tder=1 gives the velocity's blocks.
    """
    w = 2.0 * np.pi * kappa
    theta = w * (xnodes[:, None] + ynodes[None, :] + math.sqrt(2.0) * t)
    out = np.empty(theta.shape + (kx + 1, ky + 1))
    for k in range(kx + 1):
        for l in range(ky + 1):
            amp = w ** (k + l) * (math.sqrt(2.0) * w) ** tder
            amp *= hx**k / math.factorial(k) * hy**l / math.factorial(l)
            out[..., k, l] = amp * np.sin(theta + 0.5 * np.pi * (k + l + tder))
    return out


def _require_finite(*arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NumericalError("non-finite field data detected")


# ---------------------------------------------------------------------------
# experiments


def _boundary_1d(cfg: RunConfig) -> BoundarySpec:
    if cfg.boundary == "periodic":
        return BoundarySpec()
    return BoundarySpec(cfg.boundary, cfg.boundary)


def run_gaussian_1d(cfg: RunConfig) -> ErrorReport:
    """Refinement study against the reflected two-pulse solution."""
    scfg = cfg.scheme_config()
    bc = _boundary_1d(cfg)
    m = cfg.m
    ns, hs, dts = [], [], []
    eus, eduxs, evs = [], [], []
    for n in cfg.level_sizes():
        grid = Grid1D(-1.5, 1.5, n, periodic=(cfg.boundary == "periodic"))
        h = grid.h
        dt = scfg.dt(h)
        # nearest integer number of half steps to the t=12.25 target
        nhalf = round(24.5 / dt)
        tau = nhalf * (0.5 * dt) - 12.0

        def exact_u(x, tau=tau):
            return 0.5 * (np.exp(-20.0 * (x + tau) ** 2) + np.exp(-20.0 * (x - tau) ** 2))

        def exact_dux(x, tau=tau):
            return 0.5 * (-40.0 * (x + tau) * np.exp(-20.0 * (x + tau) ** 2)
                          - 40.0 * (x - tau) * np.exp(-20.0 * (x - tau) ** 2))

        def exact_v(x, tau=tau):
            return 0.5 * (-40.0 * (x + tau) * np.exp(-20.0 * (x + tau) ** 2)
                          + 40.0 * (x - tau) * np.exp(-20.0 * (x - tau) ** 2))

        if cfg.scheme == "dissipative":
            x = grid.nodes(PRIMAL)
            u0 = _scale_cols(gaussian_derivs(x, m), h)
            v0 = np.zeros((len(x), m))
            pair = FieldPair(Field1D(grid, PRIMAL, 0.0, u0),
                             Field1D(grid, PRIMAL, 0.0, v0))
            for _ in range(nhalf):
                pair = half_step_1d(pair, scfg, bc)
            _require_finite(pair.u.values, pair.v.values)
            eu, edux, ev = l2_errors_pair(pair, exact_u, exact_dux, exact_v, bc)
            eduxs.append(edux)
            evs.append(ev)
        else:
            x = grid.nodes(PRIMAL)
            g0 = Field1D(grid, PRIMAL, 0.0, _scale_cols(gaussian_box_u(x, 0.0, m), h))
            if cfg.init == "exact":
                xd = grid.nodes(DUAL)
                prev = Field1D(grid, DUAL, -0.5 * dt,
                               _scale_cols(gaussian_box_u(xd, -0.5 * dt, m), h))
                state = TwoLevelState(current=g0, previous=prev)
                nextra = nhalf
            else:
                g1 = Field1D(grid, PRIMAL, 0.0,
                             _scale_cols(gaussian_box_v(x, 0.0, m), h))
                state = bootstrap_first_half(g0, g1, scfg, bc)
                nextra = nhalf - 1
            for _ in range(nextra):
                state = full_step_conservative(state, scfg, bc)
            _require_finite(state.current.values)
            eu = l2_error_field(state.current, exact_u, bc)
        ns.append(n)
        hs.append(h)
        dts.append(dt)
        eus.append(eu)
    report = ErrorReport(
        ns=np.array(ns), hs=np.array(hs), dts=np.array(dts), err_u=np.array(eus),
        err_dux=np.array(eduxs) if eduxs else None,
        err_v=np.array(evs) if evs else None,
    )
    return report


def run_conservation_1d(cfg: RunConfig):
    """Energy drift trace; returns (steps, times, deltas, e0)."""
    scfg = cfg.scheme_config()
    bc = BoundarySpec()
    m = cfg.m
    grid = Grid1D(-np.pi, np.pi, cfg.n0, periodic=True)
    h = grid.h
    dt = scfg.dt(h)
    if cfg.mode == "smooth":
        cur = Field1D(grid, PRIMAL, 0.0,
                      _scale_cols(sine_derivs(grid.nodes(PRIMAL), m, 0.0), h))
        prev = Field1D(grid, DUAL, -0.5 * dt,
                       _scale_cols(sine_derivs(grid.nodes(DUAL), m, -0.5 * dt), h))
    else:
        rng = np.random.default_rng(cfg.seed)
        cur = Field1D(grid, PRIMAL, 0.0, rng.random((grid.n_nodes(PRIMAL), m + 1)))
        prev = Field1D(grid, DUAL, -0.5 * dt, rng.random((grid.n_nodes(DUAL), m + 1)))
    state = TwoLevelState(current=cur, previous=prev)
    e0 = conservative_energy(state.current, state.previous, scfg.speed, dt, bc)
    steps, times, deltas = [0], [0.0], [0.0]
    for step in range(1, cfg.steps + 1):
        state = full_step_conservative(state, scfg, bc)
        if step % cfg.sample_every == 0 or step == cfg.steps:
            _require_finite(state.current.values)
            e = conservative_energy(state.current, state.previous, scfg.speed, dt, bc)
            steps.append(step)
            times.append(state.current.time)
            deltas.append(e - e0)
    return np.array(steps), np.array(times), np.array(deltas), e0


def run_planewave_2d(cfg: RunConfig) -> ErrorReport:
    """Refinement study for the periodic plane wave on the unit square."""
    scfg = cfg.scheme_config()
    bc = BoundarySpec2D()
    m = cfg.m
    kappa = m + 1
    w = 2.0 * np.pi * kappa
    ns, hs, dts, eus = [], [], [], []
    for n in cfg.level_sizes():
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, n, n, periodic=True)
        h = grid.hx
        dt = scfg.dt(h)
        # nearest integer number of half steps to the t=4.18 target
        nhalf = round(8.36 / dt)
        t_end = nhalf * 0.5 * dt

        def exact(x, y, t_end=t_end):
            return np.sin(w * (x + y + math.sqrt(2.0) * t_end))

        xp = grid.axis(0).nodes(PRIMAL)
        yp = grid.axis(1).nodes(PRIMAL)
        if cfg.scheme == "dissipative":
            u0 = planewave_data(xp, yp, 0.0, m, m, kappa, h, h)
            v0 = planewave_data(xp, yp, 0.0, m - 1, m - 1, kappa, h, h, tder=1)
            pair = FieldPair(Field2D(grid, PRIMAL, 0.0, u0),
                             Field2D(grid, PRIMAL, 0.0, v0))
            for _ in range(nhalf):
                pair = half_step_2d(pair, scfg, bc)
            _require_finite(pair.u.values)
            err = l2_error_field_2d(pair.u, exact, bc)
        else:
            cur = Field2D(grid, PRIMAL, 0.0, planewave_data(xp, yp, 0.0, m, m, kappa, h, h))
            if cfg.init == "exact":
                xd = grid.axis(0).nodes(DUAL)
                yd = grid.axis(1).nodes(DUAL)
                prev = Field2D(grid, DUAL, -0.5 * dt,
                               planewave_data(xd, yd, -0.5 * dt, m, m, kappa, h, h))
                state = TwoLevelState(current=cur, previous=prev)
                todo = nhalf
            else:
                g1 = Field2D(grid, PRIMAL, 0.0,
                             planewave_data(xp, yp, 0.0, m, m, kappa, h, h, tder=1))
                state = bootstrap_first_half(cur, g1, scfg, bc)
                todo = nhalf - 1
            for _ in range(todo):
                state = full_step_conservative(state, scfg, bc)
            _require_finite(state.current.values)
            err = l2_error_field_2d(state.current, exact, bc)
        ns.append(n)
        hs.append(h)
        dts.append(dt)
        eus.append(err)
    return ErrorReport(ns=np.array(ns), hs=np.array(hs), dts=np.array(dts),
                       err_u=np.array(eus))


def run_experiment(cfg: RunConfig):
    if cfg.experiment == "gaussian1d":
        return run_gaussian_1d(cfg)
    if cfg.experiment == "conserve1d":
        return run_conservation_1d(cfg)
    return run_planewave_2d(cfg)


# ---------------------------------------------------------------------------
# CSV output


def rates_csv(report: ErrorReport) -> str:
    """level,n,h,dt,error_u[,error_dux,error_v],rate rows; '.' decimals."""
    has_pair = report.err_dux is not None
    cols = "level,n,h,dt,error_u"
    if has_pair:
        cols += ",error_dux,error_v"
    lines = [cols + ",rate"]
    pr = report.pair_rates() if len(report.ns) > 1 else []
    for i in range(len(report.ns)):
        row = (f"{i},{report.ns[i]},{report.hs[i]:.12e},{report.dts[i]:.12e},"
               f"{report.err_u[i]:.12e}")
        if has_pair:
            row += f",{report.err_dux[i]:.12e},{report.err_v[i]:.12e}"
        row += f",{pr[i-1]:.4f}" if i > 0 else ","
        lines.append(row)
    return "\n".join(lines) + "\n"


def energy_csv(steps, times, deltas) -> str:
    lines = ["step,time,energy_delta"]
    for s, t, d in zip(steps, times, deltas):
        lines.append(f"{s},{t:.12e},{d:.16e}")
    return "\n".join(lines) + "\n"
