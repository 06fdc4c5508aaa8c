"""Workload definitions and output checks for the hermwave benchmark.

A workload is a fixed list of CLI invocations (argument lists for
`hermwave.cli.main`). One pass runs them in order. Each invocation also
has a small `smoke` variant for the self-check and a tiny `setup` variant
that builds the same cached matrices at the same (scheme, m, lambda).

Only `conserve1d` reads the benchmark seed, which becomes the random
initial data (`--mode random --seed N`); `refine` runs closed-form
problems with no random input.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

# Per-level L2 errors must match the references to this relative tolerance.
ERROR_RTOL = 1e-6
# conserve1d: max |E(t) - E(0)| / E(0) over each call's steps must stay below this.
# The seed commit reads about 2e-12 to 7e-12 on random data.
ENERGY_DRIFT_BOUND = 1e-9

_GAUSS_WALLS = ("gaussian1d", "--m", "3", "--levels", "10")
_BOOTSTRAP = ("--scheme", "conservative", "--init", "bootstrap")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple      # full-size argument lists
    smoke: tuple            # same experiments at the smallest sizes
    setup: tuple            # tiny runs that build every cached matrix
    seeded: bool = False    # whether "--seed N" is appended

    def args(self, seed: int, variant: str = "invocations") -> list[list[str]]:
        """Argument lists of one variant: "invocations", "smoke" or "setup".

        A seeded workload gives invocation i the data seed 1000 * seed + i,
        so its invocations start from different random data.
        """
        return [list(a) + (["--seed", str(1000 * seed + i)] if self.seeded else [])
                for i, a in enumerate(getattr(self, variant))]


_WALLS = tuple(("--boundary", b) + s for s in ((), _BOOTSTRAP)
               for b in ("dirichlet0", "neumann0"))
_PW_LEVELS = (10, 12, 15, 18, 22)   # the stock planewave2d study's grid sizes
_PW_SCHEMES = ((), ("--scheme", "conservative"))


def _planewave_levels(sizes) -> tuple:
    """The 2D plane-wave study, one CLI call per level and scheme."""
    return tuple(("planewave2d", "--levels", "1", "--n0", str(n)) + s
                 for s in _PW_SCHEMES for n in sizes)


_CONSERVE = ("custom", "--experiment", "conserve1d", "--mode", "random")

# Two workloads, not three: the run budget allows long runs for only two.
# The 2D plane wave and the 1D walls studies share one pass; the traced
# report splits its self time by invocation.
#
# The machine's speed drifts in episodes of a few seconds, so each timed
# CLI call is kept under about 2 s and wall_s sums per-call medians. The
# plane-wave study is therefore run one level per call (the same grids
# and errors as the stock study), and conserve1d as ten calls of 10^3
# steps from different random data instead of one of 10^4.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="refine",
            why=("refinement studies: 2D plane wave at m=2 (large batched arrays, "
                 "Taylor recursion dominates) and 1D walls at m=3 (small arrays, "
                 "gather and bootstrap matter)"),
            invocations=_planewave_levels(_PW_LEVELS)
            + tuple(_GAUSS_WALLS + b for b in _WALLS),
            smoke=_planewave_levels(_PW_LEVELS[:1])
            + tuple(("gaussian1d", "--m", "3", "--levels", "2") + b for b in _WALLS),
            setup=(("planewave2d", "--levels", "1", "--n0", "4"),
                   ("planewave2d", "--scheme", "conservative", "--levels", "1",
                    "--n0", "4"),
                   ("gaussian1d", "--m", "3", "--levels", "1", "--n0", "4"),
                   ("gaussian1d", "--m", "3", "--levels", "1", "--n0", "4") + _BOOTSTRAP),
        ),
        Workload(
            name="conserve1d",
            why=("10 x 10^3 half steps on 30 nodes: per-call overhead is large and "
                 "the energy samples are most of the time"),
            invocations=(_CONSERVE + ("--steps", "1000"),) * 10,
            smoke=(_CONSERVE + ("--steps", "100"),) * 2,
            setup=(_CONSERVE + ("--n0", "4", "--steps", "1", "--sample-every", "1"),),
            seeded=True,
        ),
    )
}


def invocation_key(args) -> str:
    """Reference-table key: the argument list without any seed."""
    out, skip = [], False
    for a in args:
        if skip:
            skip = False
        elif a == "--seed":
            skip = True
        else:
            out.append(a)
    return " ".join(out)


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


_FITTED = re.compile(r"fitted rate:\s*(\S+)")
_ENERGY = re.compile(r"energy: initial=(\S+)")
_STEPS = re.compile(r"steps=(\d+)")
ERROR_COLUMNS = ("error_u", "error_dux", "error_v")


def read_levels(csv_path: Path) -> dict:
    """Per-level columns of a refinement-study CSV: n and each error column."""
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = {"n": [int(r["n"]) for r in rows]}
    for col in ERROR_COLUMNS:
        if rows and col in rows[0]:
            out[col] = [float(r[col]) for r in rows]
    return out


def check_output(args, csv_path: Path, stdout: str, refs: dict) -> tuple[str | None, dict]:
    """Compare one invocation's output with the recorded references.

    Returns (problem, info): problem is None when the output is correct;
    info holds the fitted rate or energy drift, printed for information.
    """
    if not csv_path.is_file():
        return "no CSV written", {}
    if "conserve1d" in args:
        m, steps = _ENERGY.search(stdout), _STEPS.search(stdout)
        if m is None or steps is None:
            return "no initial energy or step count in the CLI summary", {}
        e0 = float(m.group(1))
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        deltas = [float(r["energy_delta"]) for r in rows]
        if not rows or rows[-1]["step"] != steps.group(1):
            return f"energy trace does not reach step {steps.group(1)}", {}
        if not e0 > 0 or not all(map(math.isfinite, deltas)):
            return f"bad energy trace (E0={e0}, {len(deltas)} samples)", {}
        drift = max(abs(d) for d in deltas) / e0
        if not drift < ENERGY_DRIFT_BOUND:
            return f"energy drift {drift:.3e} exceeds {ENERGY_DRIFT_BOUND:g}", {}
        return None, {"drift": drift}
    ref = refs.get(invocation_key(args))
    if ref is None:
        return f"no reference for {invocation_key(args)!r}", {}
    got = read_levels(csv_path)
    if got["n"] != ref["n"]:
        return f"level sizes {got['n']} differ from reference {ref['n']}", {}
    for col in ERROR_COLUMNS:
        if (col in ref) != (col in got):
            return f"column {col} present in only one of output and reference", {}
        for lvl, (g, r) in enumerate(zip(got.get(col, ()), ref.get(col, ()))):
            if not abs(g - r) <= ERROR_RTOL * abs(r):
                return f"{col} level {lvl}: {g!r} vs reference {r!r}", {}
    m = _FITTED.search(stdout)
    return None, {"rate": float(m.group(1))} if m else {}
