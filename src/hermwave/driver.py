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

Every run steps a `grid.Stack` from t = 0. A refinement study (`_study`)
is one stack from its start to its errors, finest level first. Its levels
start as one stacked state: each start field is one call of the
experiment's data function on the stack's rows, and a conservative
state's previous level, at t = -dt/2, is either exact data or one
backward Taylor product for every level (`init = bootstrap`). Each half
step, the first included, is one call of the step, one take through the
levels' concatenated gathers and one product with the matrix they share.
A level leaves the stack at its own last half step with its rows, and the
levels that end on one parity are measured with one error call on their
stack, against the exact solution evaluated once at every row's own end
time.
`conserve1d` steps a stack of its one level.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .boundary import zero_wall_slots
from .conservative import previous_level
# the one step of both schemes, under a name that perfbench's tracer wraps to
# count node updates; each `_march` call reads it from this module
from .conservative import step as half_step_1d
from .diagnostics import (ErrorReport, energy_of_rows, energy_window, l2_error_field,
                          l2_errors_pair)
from .dissipative import SchemeConfig
from .grid import DUAL, KINDS, PRIMAL, Axis, Grid, Stack, State, flip
from .interp import MAX_ORDER


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class NumericalError(RuntimeError):
    """NaN or overflow detected in field data during a run."""


EXPERIMENTS = ("gaussian1d", "conserve1d", "planewave2d")
REFINE = 1.2  # grid growth factor between the levels of a refinement study
# bytes of physical memory, which a run's node rows alone must not exceed
MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@dataclass(frozen=True)
class Key:
    """One run key: the RunConfig field it sets, its type, its help text,
    its allowed values (None for any) and the experiments that read it."""

    field: str
    type: type
    help: str
    choices: tuple | None = None
    read_by: tuple = EXPERIMENTS


_STUDIES = ("gaussian1d", "planewave2d")

# Every config-file key, in --help order. Each experiment's subcommand takes
# the flags (--key, "_" as "-") of the keys it reads and `custom` takes them
# all. A run that sets a key its experiment does not read to anything but the
# experiment's default is a configuration error. No experiment reads
# `experiment`: it picks one, and a subcommand names its own, which a config
# file may repeat but not contradict (`make_config`).
KEYS = {
    "experiment": Key("experiment", str, "which built-in experiment to run", EXPERIMENTS,
                      read_by=()),
    "scheme": Key("scheme", str, "time stepper family", ("dissipative", "conservative")),
    "m": Key("m", int, "derivative order carried per node"),
    "lambda": Key("lam", float, "CFL number dt/h, in (0, 1]"),
    "levels": Key("levels", int, "number of refinement levels", read_by=_STUDIES),
    "n0": Key("n0", int, "cell count per direction (a study's coarsest)"),
    "steps": Key("steps", int, "update count", read_by=("conserve1d",)),
    "sample_every": Key("sample_every", int, "updates between energy samples",
                        read_by=("conserve1d",)),
    "seed": Key("seed", int, "RNG seed for random-mode data", read_by=("conserve1d",)),
    "mode": Key("mode", str, "initial data", ("smooth", "random"), read_by=("conserve1d",)),
    "init": Key("init", str, "conservative start-up data", ("exact", "bootstrap"),
                read_by=_STUDIES),
    "boundary": Key("boundary", str, "wall treatment at both ends", KINDS,
                    read_by=("gaussian1d",)),
    "out": Key("out", str, "CSV output path (default: print summary only)"),
}


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    scheme: str = "dissipative"
    m: int = 2
    lam: float = 0.8
    levels: int = 6
    n0: int = 10
    steps: int = 10000
    sample_every: int = 100
    seed: int | None = None
    mode: str = "smooth"
    init: str = "exact"
    boundary: str = "periodic"
    out: str | None = None

    def validate(self) -> "RunConfig":
        base = default_config(self.experiment)
        for key, spec in KEYS.items():
            val = getattr(self, spec.field)
            if spec.choices is not None and val not in spec.choices:
                raise ConfigError(f"{key} must be one of {spec.choices}, got {val!r}")
            default = getattr(base, spec.field)
            if self.experiment not in spec.read_by and val != default:
                raise ConfigError(f"{self.experiment} does not read {key}; leave it at "
                                  f"its default {default!r}")
        if not 1 <= self.m <= MAX_ORDER:
            raise ConfigError(f"m must be in [1, {MAX_ORDER}], got {self.m}")
        if not 0.0 < self.lam <= 1.0:
            raise ConfigError(f"lambda must be in (0, 1], got {self.lam}")
        if self.levels < 1:
            raise ConfigError(f"levels must be >= 1, got {self.levels}")
        if self.n0 < 4:
            raise ConfigError(f"n0 must be >= 4, got {self.n0}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.sample_every < 1:
            raise ConfigError(f"sample_every must be >= 1, got {self.sample_every}")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.seed is not None and self.mode != "random":
            raise ConfigError(f"seed only applies to mode=random; mode={self.mode} "
                              "draws no random data")
        if self.experiment == "conserve1d" and self.scheme != "conservative":
            raise ConfigError("conserve1d tracks the conservative scheme's invariant; "
                              "set scheme=conservative")
        if self.init != "exact" and self.scheme != "conservative":
            raise ConfigError(f"init={self.init} only applies to the conservative scheme")
        if self.out:
            out = Path(self.out)
            try:
                if out.is_symlink():  # the file it would write
                    out = Path(os.path.realpath(out))
                bad = out.is_dir() or not out.parent.is_dir()
            except OSError as exc:  # a name too long for its file system
                raise ConfigError(f"out {self.out!r}: {exc.strerror}") from None
            if bad:
                raise ConfigError(f"out {self.out!r} is a directory or its directory is missing")
        # a lower bound on the bytes of the stacked rows: n^d nodes of (m+1)^d
        # values per level; sizes stop growing once it is exceeded
        d = 2 if self.experiment == "planewave2d" else 1
        need = 0
        for n in self._sizes():
            need += n**d * (self.m + 1) ** d * 8
            if need > MEMORY:
                raise ConfigError(f"the node rows of {self.levels} level(s) from n0={self.n0} "
                                  f"need more than the {MEMORY / 2**30:.1f} GiB of physical "
                                  "memory")
        return self

    def level_sizes(self) -> list[int]:
        return list(self._sizes())

    def _sizes(self):
        """Each level's cell count per direction, coarsest first, computed as
        it is read."""
        n = self.n0
        for _ in range(self.levels):
            yield n
            n = math.ceil(round(REFINE * n, 9))

    def scheme_config(self) -> SchemeConfig:
        return SchemeConfig(m=self.m, lam=self.lam)


_DEFAULTS = {
    "gaussian1d": dict(levels=6, n0=10, lam=0.8, boundary="dirichlet0"),
    "conserve1d": dict(levels=1, n0=30, lam=0.5, scheme="conservative"),
    "planewave2d": dict(levels=5, n0=10, lam=0.8),
}


@lru_cache(maxsize=None)  # one frozen config per experiment; validate reads it every call
def default_config(experiment: str) -> RunConfig:
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    return RunConfig(experiment=experiment, **_DEFAULTS[experiment])


def parse_config(text: str) -> dict:
    """Parse key=value lines ('#' comments) into config overrides.

    Unknown or repeated keys and malformed values fail fast with their line number.
    """
    out, seen = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        key, _, val = (part.strip() for part in line.partition("="))
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key!r} is already set on line {seen[key]}")
        seen[key] = lineno
        if not val:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        spec = KEYS[key]
        try:
            out[spec.field] = spec.type(val)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: cannot parse {val!r} as {spec.type.__name__} for {key!r}"
            ) from None
    return out


def make_config(experiment: str, file_overrides: dict | None = None,
                flag_overrides: dict | None = None) -> RunConfig:
    """Defaults <- config file <- command-line flags, then validate.

    The file's `experiment` entry, unless a flag overrides it, must name
    `experiment` itself, the one a subcommand runs.
    """
    named = (file_overrides or {}).get("experiment")
    if named not in (None, experiment) and (flag_overrides or {}).get("experiment") is None:
        raise ConfigError(f"the config file sets experiment = {named}, but the run is "
                          f"{experiment}; leave the entry out or set it to {experiment}")
    cfg = default_config(experiment)
    for overrides in (file_overrides, flag_overrides):
        if overrides:
            clean = {k: v for k, v in overrides.items() if v is not None and k != "experiment"}
            cfg = replace(cfg, **clean)
    return cfg.validate()


# ---------------------------------------------------------------------------
# closed-form initial data


def _scale_cols(vals: np.ndarray, h) -> np.ndarray:
    """Turn derivative columns d^l u into scaled data (h**l/l!) d^l u; h is one
    value or one per row."""
    fac = np.ones(np.shape(h) + vals.shape[-1:])
    for l in range(1, vals.shape[-1]):
        fac[..., l] = fac[..., l - 1] * h / l
    return vals * fac


@lru_cache(maxsize=64)
def _gaussian_polys(kmax: int, a: float) -> tuple:
    """Read-only coefficients of p_0..p_kmax, lowest first: p_0 = 1 and
    p_{k+1} = p_k' + 2 a x p_k."""
    polys = [np.array([1.0])]
    for _ in range(kmax):
        p = polys[-1]
        polys.append(np.concatenate([[0.0], 2.0 * a * p]))
        polys[-1][: len(p) - 1] += p[1:] * np.arange(1, len(p))
    for p in polys:
        p.setflags(write=False)
    return tuple(polys)


def gaussian_derivs(x, kmax: int, a: float = -20.0) -> np.ndarray:
    """Columns d^k/dx^k exp(a x^2) = p_k(x) exp(a x^2), k = 0..kmax."""
    x = np.asarray(x, dtype=float)
    f = np.exp(a * x * x)
    out = np.empty(x.shape + (kmax + 1,))
    for k, p in enumerate(_gaussian_polys(kmax, a)):
        val = p[-1] + x * 0  # numpy's polyval, written out: the same operations
        for c in p[-2::-1]:
            val = c + val * x
        out[..., k] = val * f
    return out


def gaussian_box_u(x, t: float, kmax: int) -> np.ndarray:
    """x-derivative columns of (G(x+t) + G(x-t))/2, G = exp(-20 x^2)."""
    return 0.5 * (gaussian_derivs(x + t, kmax) + gaussian_derivs(x - t, kmax))


def sine_derivs(x, kmax: int, t) -> np.ndarray:
    """x-derivative columns of sin(x) cos(t), t one time or one per x."""
    x = np.asarray(x, dtype=float)
    k = np.arange(kmax + 1)
    return np.sin(x[..., None] + 0.5 * np.pi * k) * np.cos(t)[..., None]


def planewave_data(x, y, t, order: int, kappa: int, h, tder: int = 0) -> np.ndarray:
    """Scaled blocks, orders 0..order per axis, of u = sin(2 pi kappa (x + y +
    sqrt(2) t)) at nodes (x, y), times t and spacing h, each one or one per node.

    d_t^d d_x^k d_y^l u = w**(k+l) (sqrt(2) w)**d sin(theta + (k+l+d) pi/2)
    with w = 2 pi kappa; tder=1 gives the velocity's blocks.
    """
    w = 2.0 * np.pi * kappa
    theta = w * (x + y + math.sqrt(2.0) * t)
    # one sine per distinct k+l+d, s[..., k + l] the (k, l) block's
    s = np.sin(theta[..., None] + 0.5 * np.pi * np.arange(tder, 2 * order + tder + 1))
    # h**k as Python's pow rounds it (an array's `**` can differ in the last bit)
    hk = [1.0, h] + [np.float_power(h, k) for k in range(2, order + 1)]
    out = np.empty(theta.shape + (order + 1,) * 2)
    for k in range(order + 1):
        for l in range(order + 1):
            amp = w ** (k + l) * (math.sqrt(2.0) * w) ** tder
            amp = amp * (hk[k] / math.factorial(k) * hk[l] / math.factorial(l))
            out[..., k, l] = amp * s[..., k + l]
    return out


# half steps between finiteness checks inside a run
FINITE_STRIDE = 64


def _march(state, scfg: SchemeConfig, done: int, last: int):
    """Step state under scfg from half step `done` to half step `last`, one
    call of `half_step_1d`, read from this module, per half step as the
    tracer and tests count them, checking the node rows at every multiple
    of FINITE_STRIDE and after the last.

    Each state a step returns carries the plan of its next half step,
    linked under scfg (`conservative.link`), so only the first call can
    look a plan up.
    A failed check raises a NumericalError that names the level of the
    first non-finite row (`level_of`), its n and its own time at this half
    step.
    """
    step = half_step_1d
    while done < last:
        stop = min(last, (done // FINITE_STRIDE + 1) * FINITE_STRIDE)
        for _ in range(done, stop):
            state = step(state, scfg)
        done = stop
        # a non-finite previous level was current a step ago and reached its targets
        if not np.isfinite(state.rows).all():
            stack, row = state.grid, np.argmin(np.isfinite(state.rows).all(axis=1))
            level = stack.levels[stack.level_of[state.parity][row]]
            raise NumericalError(f"non-finite field data detected at half step {done} "
                                 f"(t={done * 0.5 * scfg.dt(level.h):.6g}, "
                                 f"n={level.axes[0].n})")
    return state


def _start(cfg: RunConfig, stack: Stack, data) -> State:
    """First `State` of a `Stack`, at t = 0 on its primal rows.

    data(xs, t, h, order, tder) gives the scaled nodal blocks of u (tder 0)
    or u_t (tder 1), orders 0..order per axis, at the nodes xs of one
    parity (`nodes`) with, per row, spacing h (its level's, through
    `level_of`) and time t: 0 on the primal rows and -dt(h)/2 on the dual
    ones. It is called once per start field, primal level first, and u_t
    is packed as h*u_t (see `grid.State`). A dissipative state is u | h*v.
    A conservative state is u with its previous level at t = -dt/2: the
    exact one, or, for `init = bootstrap`, the one a Taylor half step
    backwards finds from u | h*u_t (`conservative.previous_level`). Its
    primal level has its wall slots zeroed (`boundary.zero_wall_slots`).
    """
    scfg, cols = cfg.scheme_config(), {}  # per parity: the rows' x, h and t, built once

    def rows(parity, order, tder=0):
        if parity not in cols:
            h = stack.h[stack.level_of[parity]]
            cols[parity] = stack.nodes(parity), h, -0.5 * scfg.dt(h) if parity == DUAL else 0.0
        xs, h, t = cols[parity]
        vals = data(xs, t, h, order, tder).reshape(len(h), -1)
        return vals * h[:, None] if tder else vals

    u0, cu = rows(PRIMAL, cfg.m), (cfg.m + 1,) * stack.ndim
    if cfg.scheme == "dissipative":
        uv = np.concatenate((u0, rows(PRIMAL, cfg.m - 1, tder=1)), axis=1)
        return State(stack, PRIMAL, 0.0, uv, (cu, (cfg.m,) * stack.ndim))
    zero_wall_slots(u0.reshape(stack.shapes[PRIMAL] + cu), stack)  # a view of u0
    if cfg.init == "exact":
        prev = rows(DUAL, cfg.m)
    else:
        prev = previous_level(stack, u0, rows(PRIMAL, cfg.m, tder=1), scfg)
    return State(stack, PRIMAL, 0.0, u0, (cu,), prev)


def _study(cfg: RunConfig, grid_of, t_end: float, data, exact) -> ErrorReport:
    """Refinement study over cfg's levels, one `Stack` from start to errors.

    grid_of(n) is the n-cell `Grid`, run at its own h and dt from `_start`'s
    data to the half step nearest t_end; exact(t, *xs) is the solution
    at times t: (u, u_x, u_t) in 1D, where a dissipative study measures all
    three, and (u,) in 2D. The levels are stacked finest (latest-ending)
    first and started as one state. One step call advances every level
    still on the stack by a half step, and each leaves from the end at its
    last, keeping its rows. The levels that end on one parity are then
    measured with one error call on a `State` of their stack that wraps
    their rows (a conservative state's current level), against the exact
    solution at each target row's end time.
    """
    ns, scfg = cfg.level_sizes(), cfg.scheme_config()
    grids = [grid_of(n) for n in ns]
    dts = [scfg.dt(grid.h) for grid in grids]
    nhalf = [round(2 * t_end / dt) for dt in dts]
    order = sorted(range(len(ns)), key=lambda i: -nhalf[i])
    stack = Stack([grids[i] for i in order])
    state, done = _start(cfg, stack, data), 0
    blocks = state.blocks
    ended = {PRIMAL: [], DUAL: []}  # per end parity, (level, rows) in stack order
    for i in reversed(order):  # coarsest, and so shortest, first
        state = _march(state, scfg, done, nhalf[i])
        done = nhalf[i]
        parity = state.parity
        rows, state = state.grid.pop(state)
        ended[parity].insert(0, (i, rows))
    ends = np.array([n * (0.5 * dt) for n, dt in zip(nhalf, dts)])
    cols = {}
    for parity, group in ended.items():
        if group:
            idx = [i for i, _ in group]
            sub = stack if idx == order else Stack([grids[i] for i in idx])
            t = ends[idx][sub.level_of[flip(parity)]].reshape((-1,) + (1,) * stack.ndim)
            parts = [rows for _, rows in group]  # copied only to join levels
            state = State(sub, parity, ends[idx[0]],
                          parts[0] if len(parts) == 1 else np.concatenate(parts), blocks)
            if len(blocks) == 2 and stack.ndim == 1:
                errs = l2_errors_pair(state, lambda x: exact(t, x))
            else:  # a dissipative state's u through its own packed gather
                errs = (l2_error_field(state, lambda *xs: exact(t, *xs)[0]),)
            for j, e in enumerate(errs):
                cols.setdefault(j, np.empty(len(ns)))[idx] = e
    return ErrorReport(np.array(ns), np.array([grid.h for grid in grids]), np.array(dts),
                       *cols.values())


# ---------------------------------------------------------------------------
# experiments


def _gaussian_data(xs, t, h, order: int, tder: int) -> np.ndarray:
    """The gaussian1d start data as `_start` reads them: the pulse at rest."""
    if tder:
        return np.zeros((len(xs[0]), order + 1))
    # at t = 0 the two half pulses coincide
    vals = gaussian_box_u(xs[0], t, order) if np.any(t) else gaussian_derivs(xs[0], order)
    return _scale_cols(vals, h)


def gaussian_box(t, x) -> tuple:
    """(u, u_x, u_t) of the gaussian1d solution at times t near 12.

    Each pulse returns to its start every 6 time units, two reflections off
    walls of either kind later, so there it is the free pair (G(x+tau) +
    G(x-tau))/2 at tau = t - 12, G = exp(-20 x^2), whose t-derivative is
    (G'(x+tau) - G'(x-tau))/2: per side one G and G' = -40 y G.
    """
    tau = t - 12.0
    yp, ym = x + tau, x - tau
    gp, gm = np.exp(-20.0 * yp * yp), np.exp(-20.0 * ym * ym)
    dp, dm = -40.0 * yp * gp, -40.0 * ym * gm
    return 0.5 * (gp + gm), 0.5 * (dp + dm), 0.5 * (dp - dm)


def run_gaussian_1d(cfg: RunConfig) -> ErrorReport:
    """Refinement study against the reflected two-pulse solution, to t ~ 12.25."""
    return _study(cfg, lambda n: Grid((Axis(-1.5, 1.5, n, cfg.boundary, cfg.boundary),)),
                  12.25, _gaussian_data, gaussian_box)


def run_conservation_1d(cfg: RunConfig):
    """Energy drift trace; returns (steps, times, deltas, e0)."""
    scfg = cfg.scheme_config()
    axis = Axis(-np.pi, np.pi, cfg.n0)
    dt = scfg.dt(axis.h)
    if cfg.mode == "smooth":
        def data(xs, t, h, order, tder):
            return _scale_cols(sine_derivs(xs[0], order, t), h)
    else:
        rng = np.random.default_rng(cfg.seed)

        def data(xs, t, h, order, tder):
            return rng.random((len(xs[0]), order + 1))
    state = _start(cfg, Stack([Grid((axis,))]), data)
    factor = energy_window(axis, cfg.m, dt)
    e0 = energy_of_rows(state, factor)
    steps, times, deltas = [0], [0.0], [0.0]
    for done in range(0, cfg.steps, cfg.sample_every):
        last = min(done + cfg.sample_every, cfg.steps)
        state = _march(state, scfg, done, last)
        e = energy_of_rows(state, factor)
        steps.append(last)
        times.append(state.time)
        deltas.append(e - e0)
    return np.array(steps), np.array(times), np.array(deltas), e0


def run_planewave_2d(cfg: RunConfig) -> ErrorReport:
    """Refinement study of sin(2 pi kappa (x + y + sqrt(2) t)), kappa = m+1,
    on the periodic unit square, to the half step nearest t = 4.18."""
    kappa = cfg.m + 1
    w = 2.0 * np.pi * kappa

    def data(xs, t, h, order, tder):
        return planewave_data(*xs, t, order, kappa, h, tder)

    def exact(t, x, y):
        return (np.sin(w * (x + y + math.sqrt(2.0) * t)),)

    return _study(cfg, lambda n: Grid((Axis(0.0, 1.0, n),) * 2), 4.18, data, exact)


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
