"""One sha256 over the outputs of a fixed list of CLI calls.

Run from a checkout as

    PYTHONPATH=src python3 tests/outputs_digest.py

It runs, in this process, every invocation of the benchmark's workloads
(`perfbench/workloads.py`) at seeds 0 and 1, each distinct argument list
once, the stock `gaussian1d` and `planewave2d` runs in both schemes and
the stock `conserve1d` run. Each call writes its CSV through `--out`. The
digest covers, per call in order, the arguments, the exit code, stdout
and the CSV bytes, so two checkouts whose runs give the same bits print
the same line. Copy the script into the other checkout to compare.
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


if __name__ == "__main__":
    hexdigest, count = digest()
    print(f"{hexdigest}  {count} CLI calls")
