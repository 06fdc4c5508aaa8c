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

A change that moves output bits on purpose is compared to a tolerance
instead, in two steps run from each checkout and then from either:

    PYTHONPATH=src python3 tests/outputs_digest.py --values A.json
    PYTHONPATH=src python3 tests/outputs_digest.py --compare A.json B.json

`--values` writes, per CLI call, its exit code, every number of each CSV
column (an empty cell reads null) and every number on its stdout lines
(the "stdout" column), then, per library march, the node values of each
field and the time it reached under each config. `--compare` prints, per
call or march and column, the largest relative difference
|a - b| / max(|a|, |b|) between the two files, and the largest over all of
them last.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import re
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


def runs():
    """Run each call in order; yields (argv, exit code, stdout, CSV bytes or None)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        for argv in calls():
            out.unlink(missing_ok=True)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv + ["--out", str(out)])
                except SystemExit as exc:
                    code = exc.code
            yield argv, code, buf.getvalue(), out.read_bytes() if out.is_file() else None


def digest() -> tuple[str, int]:
    sha, count = hashlib.sha256(), 0
    for argv, code, stdout, table in runs():
        for part in (" ".join(argv), str(code), stdout):
            sha.update(part.encode() + b"\0")
        sha.update(b"<no csv>" if table is None else table)
        sha.update(b"\0")
        count += 1
    return sha.hexdigest(), count


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def values() -> dict:
    """Per call (arguments joined by spaces): its exit code and its numbers
    by column, the CSV's columns and "stdout"; then per library march (exit
    code null) the node values of each field and the time it reached under
    each config, as columns "config j field k" and "config j time"."""
    out = {}
    for argv, code, stdout, table in runs():
        columns = {"stdout": [float(x) for x in NUMBER.findall(stdout)]}
        if table is not None:
            for row in csv.DictReader(io.StringIO(table.decode())):
                for name, cell in row.items():
                    columns.setdefault(name, []).append(float(cell) if cell else None)
        out[" ".join(argv)] = {"exit": code, "columns": columns}
    for name, reached in marches():
        columns = {}
        for j, (fields, time) in enumerate(reached):
            for k, values in enumerate(fields):
                columns[f"config {j} field {k}"] = values.ravel().tolist()
            columns[f"config {j} time"] = [time]
        out[name] = {"exit": None, "columns": columns}
    return out


def relative(a, b) -> float:
    """Largest |a - b| / max(|a|, |b|) over two equal-length lists; inf if
    their lengths or their empty cells differ."""
    if len(a) != len(b):
        return float("inf")
    worst = 0.0
    for x, y in zip(a, b):
        if (x is None) != (y is None):
            return float("inf")
        if x is not None and x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def compare(path_a: str, path_b: str) -> float:
    """Print the largest relative difference per call and column; return the largest."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    worst = 0.0 if a.keys() == b.keys() else float("inf")
    for call in (c for c in a if c in b):
        ca, cb = a[call]["columns"], b[call]["columns"]
        if a[call]["exit"] != b[call]["exit"] or ca.keys() != cb.keys():
            worst = float("inf")
            print(f"{call}: exit codes or columns differ")
            continue
        for name in ca:
            rel = relative(ca[name], cb[name])
            worst = max(worst, rel)
            print(f"{call}  {name}  {rel:.3g}")
    print(f"largest relative difference over {len(a)} calls and marches: {worst:.3g}")
    return worst


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


def marches():
    """Run each march; yields (name, per config the values of the state's
    fields and the time it reached)."""
    for i, (axes, m) in enumerate(MARCH_GRIDS):
        grid = Grid(axes)
        d, rng = len(axes), np.random.default_rng(i)

        def field(parity, order, time=0.0):
            values = rng.standard_normal(grid.shapes[parity] + (order + 1,) * d)
            return Field(grid, parity, time, values)

        for state, step in ((FieldPair(field(PRIMAL, m), field(PRIMAL, m - 1)), half_step),
                            (TwoLevelState(field(PRIMAL, m), field(DUAL, m, -0.1)),
                             full_step_conservative)):
            reached = []
            for steps, lam in MARCH_CONFIGS:
                cfg = SchemeConfig(m=m, lam=lam)
                for _ in range(steps):
                    state = step(state, cfg)
                reached.append(([f.values.copy() for f in state.fields], state.time))
            yield f"march {i} {step.__name__}", reached


def march_digest() -> tuple[str, int]:
    """One sha256 over the fields and times each march reaches under each config."""
    sha, count = hashlib.sha256(), 0
    for _, reached in marches():
        for fields, time in reached:
            for values in fields:
                sha.update(np.ascontiguousarray(values).tobytes())
            sha.update(repr(time).encode() + b"\0")
        count += 1
    return sha.hexdigest(), count


if __name__ == "__main__":
    if sys.argv[1:2] == ["--values"] and len(sys.argv) == 3:
        Path(sys.argv[2]).write_text(json.dumps(values(), indent=1))
        sys.exit(0)
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        compare(*sys.argv[2:])
        sys.exit(0)
    if len(sys.argv) > 1:
        sys.exit(__doc__)
    hexdigest, count = digest()
    print(f"{hexdigest}  {count} CLI calls")
    hexdigest, count = march_digest()
    print(f"{hexdigest}  {count} library marches")
