"""The repository benchmark: end-to-end and per-layer metrics.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``BENCHMARK.json`` lists the
workloads and metrics.
"""

from pathlib import Path

#: the repository root: the program under test is imported from
#: ``ROOT / "src"``
ROOT = Path(__file__).resolve().parent.parent
