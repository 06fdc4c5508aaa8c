"""Command-line front end.

Exit codes: 0 success, 2 configuration problems (an `--out` that cannot be
written included) or a run that needs more memory than is available (a
study whose node rows alone exceed physical memory, before it starts, or a
MemoryError anywhere in the run, at its first allocation or partway
through), 3 numerical failure (non-finite field data mid-run).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .driver import (
    KEYS,
    ConfigError,
    NumericalError,
    RunConfig,
    energy_csv,
    make_config,
    parse_config,
    rates_csv,
    run_experiment,
)


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and kept for the process.

    Its dozens of `add_argument` calls each build a help formatter, about
    1.3 ms in all on a 2-vCPU Xeon VM. Only a process that calls `main`
    more than once (the benchmark worker, the tests) saves it; a shell
    `hermwave` command builds one parser either way. `parse_args` keeps no
    state in the parser, so every call can share it.
    """
    parser = argparse.ArgumentParser(
        prog="hermwave",
        description="Hermite solvers for the scalar wave equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "gaussian1d": "reflecting-box convergence study",
        "conserve1d": "long-run energy conservation trace",
        "planewave2d": "2D plane-wave convergence study",
        "custom": "any experiment with every knob exposed",
    }
    for name, blurb in specs.items():
        p = sub.add_parser(name, help=blurb)
        for key, spec in KEYS.items():
            if name == "custom" or name in spec.read_by:
                p.add_argument("--" + key.replace("_", "-"), dest=spec.field, type=spec.type,
                               choices=spec.choices, help=spec.help)
        p.add_argument("--config", help="key=value file; flags override its entries")
    return parser


def _assemble(args: argparse.Namespace) -> RunConfig:
    file_overrides = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {args.config}")
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from None
        file_overrides = parse_config(text)
    experiment = args.command
    if experiment == "custom":
        experiment = args.experiment or file_overrides.get("experiment")
        if experiment is None:
            raise ConfigError("custom runs need --experiment or an experiment= config entry")
    flag_overrides = {s.field: getattr(args, s.field, None) for s in KEYS.values()}
    return make_config(experiment, file_overrides, flag_overrides)


def _report_summary(cfg: RunConfig, report) -> None:
    pair = report.pair_rates() if len(report.ns) > 1 else []
    print(f"{cfg.experiment} scheme={cfg.scheme} m={cfg.m} lambda={cfg.lam:g}")
    for i in range(len(report.ns)):
        rate = f"{pair[i-1]:7.3f}" if i > 0 else "      -"
        print(f"  n={report.ns[i]:4d}  h={report.hs[i]:.4e}  "
              f"err={report.err_u[i]:.6e}  rate={rate}")
    if len(report.ns) >= 3:
        print(f"fitted rate: {report.rate():.3f}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _assemble(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        # a run stopped by non-finite data prints only its one failure line
        with np.errstate(invalid="ignore", over="ignore"):
            result = run_experiment(cfg)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"config error: the run needs more memory than is available: {exc}",
              file=sys.stderr)
        return 2
    if cfg.out:
        text = energy_csv(*result[:3]) if cfg.experiment == "conserve1d" else rates_csv(result)
        try:
            Path(cfg.out).write_text(text)
        except OSError as exc:  # what validation cannot see, e.g. a symbolic link loop
            print(f"config error: cannot write out {cfg.out!r}: {exc.strerror}", file=sys.stderr)
            return 2
    if cfg.experiment == "conserve1d":
        steps, times, deltas, e0 = result
        rel = float(np.max(np.abs(deltas)) / e0) if e0 else float("nan")
        print(f"conserve1d scheme={cfg.scheme} m={cfg.m} mode={cfg.mode} "
              f"steps={cfg.steps}")
        print(f"energy: initial={e0:.10e}  max |drift|/initial={rel:.3e}")
    else:
        _report_summary(cfg, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
