"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload md-ta16k --seed 1 --seconds 20 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` also runs the workload under the layer wrappers and
reports the per-layer metrics instead, together with the traced and
untraced rates (the tracing overhead).  Human-readable lines come
first, then one ``record`` line (the full result with the host
fingerprint and, when traced, the span aggregates; also appended to
``.perfbench_work/results.jsonl``), and
last one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every output check passed, 1 when
one failed, and 2 when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

WORKLOADS = ("md-ta16k", "md-ta16k-w2", "wse-ta100k", "serve-mix")
END_TO_END_UNITS = {"steps_per_s": "steps/s", "latency_p50_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MiB"}
#: numbers printed and recorded but not gated: the unscaled times,
#: the host-speed factor, and the serve-mix job figures
EXTRA_UNITS = {"raw_steps_per_s": "steps/s", "raw_latency_p50_ms": "ms",
               "raw_setup_s": "s", "host_slowdown": "ratio",
               "jobs_per_s": "jobs/s", "job_p90_ms": "ms",
               "hit_p50_ms": "ms"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_human(args, out: dict) -> None:
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}")
    for name, m in out["metrics"].items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    untraced = out["record"]["untraced"]
    for name, unit in EXTRA_UNITS.items():
        if untraced.get(name) is not None:
            print(f"  {name:34s} {untraced[name]:14.6g} {unit}")
    if "job_p90_beyond" in untraced:
        beyond = untraced["job_p90_beyond"]
        print(f"  job_p90_ms samples: {untraced['jobs']} "
              f"({beyond if beyond is not None else '<10'} beyond p90)")
        print(f"  mix: {json.dumps(untraced['mix'])}")
    check = out["record"].get("check")
    if check is not None:
        print(f"  check point: {json.dumps(check)}")
    failed_frac = out["failed"] / out["attempted"]
    print(f"  {'failed_frac':34s} {failed_frac:14.6g} fraction "
          f"({out['failed']} of {out['attempted']})")
    for failure in out["failures"]:
        print(f"  FAILED CHECK: {failure}")


def _exit_on_sigterm(signum, frame):
    # unwind through the finally blocks that stop servers and workers
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from perfbench import host

    try:
        if args.workload == "serve-mix":
            from perfbench import serve_mix

            out = serve_mix.run(args.seed, args.seconds, bool(args.trace))
        else:
            from perfbench import engines

            out = engines.run(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    finally:
        host.stop_helpers()
    if not args.trace:
        out["metrics"] = {k: {"value": float(out["metrics"][k]), "unit": u}
                          for k, u in END_TO_END_UNITS.items()}
    _print_human(args, out)

    record = dict(out["record"], trace=args.trace, failures=out["failures"],
                  attempted=out["attempted"], failed=out["failed"],
                  metrics=out["metrics"])
    line = json.dumps(record)
    print("record " + line)
    results = ROOT / ".perfbench_work" / "results.jsonl"
    results.parent.mkdir(exist_ok=True)
    with open(results, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")

    correct = not out["failures"]
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": out["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
