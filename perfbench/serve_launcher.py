"""``repro serve`` with the benchmark's layer wrappers installed.

The traced serve-mix run starts the server through this file instead
of ``python -m repro serve``: it wraps the layers (see
:mod:`perfbench.tracing`), calls :func:`repro.serve.run_server`, and
when the server shuts down writes the recorder's snapshot to
``--spans-out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.tracing import SpanRecorder, Tracing  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args(argv)

    from repro.serve import run_server

    recorder = SpanRecorder()
    with Tracing(recorder):
        code = run_server(port=args.port, cache_dir=args.cache_dir)
    Path(args.spans_out).write_text(json.dumps(recorder.snapshot()))
    return code


if __name__ == "__main__":
    sys.exit(main())
