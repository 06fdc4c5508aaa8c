"""Record the per-level reference errors that the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record_references.py

Runs every refinement-study invocation of every workload (full and smoke
sizes) through `hermwave.cli.main` and writes perfbench/references.json.
Rerun it only when a change is meant to alter the numerical results, and
say so in the change's notes; the benchmark's output check exists to
catch speed bought with different answers.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hermwave import cli
from workloads import HERE, REFERENCES, WORKLOADS, invocation_key, read_levels


def main() -> None:
    refs = {}
    scratch = HERE.parent / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        out = Path(tmp) / "levels.csv"
        for w in WORKLOADS.values():
            if w.seeded:
                continue  # the seeded run is checked by its energy drift instead
            for args in w.args(0) + w.args(0, "smoke"):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(args + ["--out", str(out)])
                if code != 0:
                    raise SystemExit(f"{' '.join(args)} exited {code}")
                refs[invocation_key(args)] = read_levels(out)
    lines = (f" {json.dumps(k)}: {json.dumps(v)}" for k, v in refs.items())
    REFERENCES.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(refs)} references to {REFERENCES}")


if __name__ == "__main__":
    main()
