"""One sha256 over the outputs of a fixed list of CLI calls.

Run from a checkout as

    PYTHONPATH=src python3 tests/outputs_digest.py

It runs, in this process, every invocation of the benchmark's workloads
(`perfbench/workloads.py`) at seeds 0 and 1, each distinct argument list
once, the stock `gaussian1d` and `planewave2d` runs in both schemes and
the stock `conserve1d` run. Each call writes its CSV through `--out`. The
digest covers, per call in order, the arguments, the exit code, stdout
and the CSV bytes, so two checkouts whose runs give the same bits print
the same line.

A second line hashes the node rows and times of short library-level
marches from random data, one per number of axes (1, 2), edge kind
(periodic, walls) and scheme. They reach what no CLI call does (2D
walls), and each steps on with an equal but distinct config and then
another lam, as a caller of the steppers may. Copy the script into the
other checkout to compare.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

import numpy as np  # noqa: E402

from hermwave import (  # noqa: E402
    DUAL,
    PRIMAL,
    Axis,
    Field,
    FieldPair,
    Grid,
    SchemeConfig,
    TwoLevelState,
    full_step_conservative,
    half_step,
)
from hermwave.cli import main  # noqa: E402

SEEDS = (0, 1)
# conserve1d runs the conservative scheme only
STOCK = [[name, "--scheme", scheme] for name in ("gaussian1d", "planewave2d")
         for scheme in ("dissipative", "conservative")] + [["conserve1d"]]


def calls() -> list[list[str]]:
    """The workloads' argument lists at each seed, each once, then the stock runs."""
    out = []
    for workload in WORKLOADS.values():
        for seed in SEEDS:
            out += [a for a in workload.args(seed) if a not in out]
    return out + STOCK


def digest() -> tuple[str, int]:
    sha = hashlib.sha256()
    argvs = calls()
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "out.csv"
        for argv in argvs:
            csv.unlink(missing_ok=True)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv + ["--out", str(csv)])
                except SystemExit as exc:
                    code = exc.code
            for part in (" ".join(argv), str(code), buf.getvalue()):
                sha.update(part.encode() + b"\0")
            sha.update(csv.read_bytes() if csv.is_file() else b"<no csv>")
            sha.update(b"\0")
    return sha.hexdigest(), len(argvs)


# (axes, m) per march: mixed walls so both reflections act, and a 2D box that
# is not square so an axis mix-up shows
MARCH_GRIDS = [
    ((Axis(-1.0, 1.0, 12),), 3),
    ((Axis(-1.0, 1.0, 12, "dirichlet0", "neumann0"),), 3),
    ((Axis(0.0, 1.0, 6), Axis(0.0, 1.0, 5)), 2),
    ((Axis(0.0, 1.0, 6, "dirichlet0", "neumann0"),
      Axis(0.0, 1.0, 5, "neumann0", "dirichlet0")), 2),
]
# half steps per config: the first, an equal but distinct one, then another lam
MARCH_CONFIGS = ((40, 0.8), (15, 0.8), (15, 0.5))


def march_digest() -> tuple[str, int]:
    """One sha256 over the fields and times each march reaches under each config."""
    sha, count = hashlib.sha256(), 0
    for i, (axes, m) in enumerate(MARCH_GRIDS):
        grid = Grid(axes)
        d, rng = len(axes), np.random.default_rng(i)

        def field(parity, order, time=0.0):
            values = rng.standard_normal(grid.shapes[parity] + (order + 1,) * d)
            return Field(grid, parity, time, values)

        for state, step in ((FieldPair(field(PRIMAL, m), field(PRIMAL, m - 1)), half_step),
                            (TwoLevelState(field(PRIMAL, m), field(DUAL, m, -0.1)),
                             full_step_conservative)):
            for steps, lam in MARCH_CONFIGS:
                cfg = SchemeConfig(m=m, lam=lam)
                for _ in range(steps):
                    state = step(state, cfg)
                for f in state.fields:
                    sha.update(np.ascontiguousarray(f.values).tobytes())
                sha.update(repr(state.time).encode() + b"\0")
            count += 1
    return sha.hexdigest(), count


if __name__ == "__main__":
    hexdigest, count = digest()
    print(f"{hexdigest}  {count} CLI calls")
    hexdigest, count = march_digest()
    print(f"{hexdigest}  {count} library marches")
