"""Record the check-point values the engine workloads must reproduce.

Run from the repository root::

    python3 perfbench/record_references.py

It rewrites ``perfbench/references.json``: for each physics seed
0..N_REF-1, the md-ta16k total energy and the wse-ta100k simulated
statistics at the workloads' check points.  Record again only when a
change is meant to alter trajectories, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import engines  # noqa: E402


def record(name: str) -> dict:
    workload = engines.WORKLOADS[name]
    values = {}
    for seed in range(engines.N_REF):
        engine, _ = engines.setup(engines.make_spec(workload, seed))
        try:
            engine.step(workload.check_steps - engine.step_count)
            values[str(seed)] = engines.check_values(engine)
        finally:
            engines.release(engine)
        print(f"{name} seed {seed}: {values[str(seed)]}", flush=True)
    return {"check_steps": workload.check_steps, "values": values}


def main() -> int:
    refs = {name: record(name) for name in ("md-ta16k", "wse-ta100k")}
    engines.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
