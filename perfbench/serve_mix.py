"""The serve-mix workload: a seeded job stream against ``repro serve``.

Two closed-loop clients (each waits for its reply before sending the
next job, as ``repro submit`` does) share one deterministic stream of
small Ta jobs: about half new specs, a third exact repeats of earlier
jobs and a fifth longer continuations of earlier jobs.  Which of those
the server actually saw — a repeat still in flight coalesces, a
continuation of an unfinished job misses — is read back from each
reply's ``cache`` field and recorded next to the intended mix, so a
shift in the mix shows as a mix change and not as a latency change.

``steps_per_s`` is the timesteps the server's engines computed per
second of load, ``latency_p50_ms`` the median submit-to-reply time.
Unlike the engine workloads, these are not scaled by the host-speed
probe (:mod:`perfbench.hostspeed`): the probe cannot run during the
load, which keeps both cores busy, and probes taken around the load or
around each launch made the figures spread more from run to run, not
less.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import re
import select
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from perfbench import ROOT, host, layers, stats

WORK = ROOT / ".perfbench_work"

CLIENTS = 2
INTENDED = {"miss": 0.5, "hit": 0.3, "resume": 0.2}
STEP_INCREMENT = 50
REPS = (10, 10, 5)
#: requests a repeat or continuation never refers back into: with two
#: clients these are the jobs most likely still in flight
RECENT = 2
LAUNCH_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Request:
    index: int
    kind: str          # intended: "miss", "hit" or "resume"
    spec: dict
    steps: int


def job_stream(seed: int):
    """Endless deterministic request stream for ``seed``.

    Repeats draw uniformly from the distinct (spec, steps) pairs asked
    so far, continuations from the distinct specs, each extending the
    deepest run of that spec by one increment; neither refers to the
    last :data:`RECENT` requests.
    """
    rng = random.Random(seed)
    asked: list[tuple[dict, int]] = []   # distinct (spec, steps) pairs
    specs: list[dict] = []
    depth: dict[int, int] = {}           # spec seed -> deepest steps asked
    recent: list[tuple[int, int]] = []   # (spec seed, steps), newest last
    for index in itertools.count():
        u = rng.random()
        if u < INTENDED["miss"]:
            kind, pool = "miss", None
        elif u < INTENDED["miss"] + INTENDED["hit"]:
            kind = "hit"
            pool = [a for a in asked if (a[0]["seed"], a[1]) not in recent]
        else:
            kind = "resume"
            busy = {spec_seed for spec_seed, _ in recent}
            pool = [spec for spec in specs if spec["seed"] not in busy]
        if kind == "miss" or not pool:
            spec_seed = rng.randrange(2**31)
            while spec_seed in depth:
                spec_seed = rng.randrange(2**31)
            spec = {"element": "Ta", "reps": list(REPS),
                    "temperature": rng.choice((250.0, 290.0, 330.0)),
                    "seed": spec_seed}
            req = Request(index, "miss", spec, STEP_INCREMENT)
            specs.append(spec)
        elif kind == "hit":
            spec, steps = rng.choice(pool)
            req = Request(index, "hit", spec, steps)
        else:
            spec = rng.choice(pool)
            req = Request(index, "resume", spec,
                          depth[spec["seed"]] + STEP_INCREMENT)
        if req.kind != "hit":
            asked.append((req.spec, req.steps))
        depth[req.spec["seed"]] = max(depth.get(req.spec["seed"], 0),
                                      req.steps)
        recent = (recent + [(req.spec["seed"], req.steps)])[-RECENT:]
        yield req


# -- the server process -------------------------------------------------------

class Server:
    """A ``repro serve`` process on a free port with a fresh cache."""

    def __init__(self, cmd: list[str], workdir: Path) -> None:
        from repro.serve import ServeClient

        self.client = None
        workdir.mkdir(parents=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        env["PYTHONUNBUFFERED"] = "1"
        self.log = workdir / "server.log"
        t0 = time.perf_counter()
        with open(self.log, "w") as err:
            self.proc = subprocess.Popen(
                cmd + ["--port", "0", "--cache-dir", str(workdir / "cache")],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err,
                text=True,
            )
        try:
            self.port = self._read_port(t0 + LAUNCH_TIMEOUT_S)
            self.client = ServeClient(port=self.port, timeout=120.0)
            while not self.client.ping():
                if time.perf_counter() > t0 + LAUNCH_TIMEOUT_S:
                    raise RuntimeError("server never answered ping")
                time.sleep(0.01)
            self.setup_s = time.perf_counter() - t0
        except BaseException:
            self.stop()
            raise

    def _read_port(self, deadline: float) -> int:
        out = self.proc.stdout
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([out], [], [], 0.1)
            if ready:
                line = out.readline()
                if not line:
                    break
                match = re.search(r"listening on [^:]+:(\d+)", line)
                if match:
                    return int(match.group(1))
        tail = self.log.read_text()[-2000:]
        raise RuntimeError(f"server did not announce its port: {tail}")

    def peak_rss_mib(self) -> float:
        return host.peak_rss_mib(self.proc.pid)

    def stop(self) -> None:
        """Ask for shutdown, wait for the exit; kill if it hangs."""
        if self.proc.poll() is None:
            try:
                if self.client is not None:
                    self.client.shutdown()
            except (OSError, ValueError):
                pass
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def plain_server(workdir: Path) -> Server:
    return Server([sys.executable, "-m", "repro", "serve"], workdir)


def traced_server(workdir: Path, spans_out: Path) -> Server:
    launcher = Path(__file__).with_name("serve_launcher.py")
    return Server([sys.executable, str(launcher), "--spans-out",
                   str(spans_out)], workdir)


# -- load generation and checks -----------------------------------------------

def drive(port: int, seed: int, seconds: float) -> tuple[list, float]:
    """Closed-loop load: each client sends its next job as soon as its
    last reply is in, until ``seconds`` have passed.  Jobs in flight at
    the deadline run to completion and count.  Returns (replies, load
    seconds up to the last reply)."""
    from repro.serve import ServeClient

    stream = job_stream(seed)
    lock = threading.Lock()
    replies: list[tuple[Request, dict, float]] = []
    start = time.perf_counter()
    deadline = start + seconds

    def client_loop() -> None:
        client = ServeClient(port=port, timeout=120.0)
        while True:
            with lock:
                if time.perf_counter() >= deadline:
                    return
                req = next(stream)
            t0 = time.perf_counter()
            try:
                reply = client.submit(req.spec, steps=req.steps)
            except Exception as exc:  # noqa: BLE001 - counted as a failed job
                reply = {"ok": False, "error": repr(exc)}
            latency = time.perf_counter() - t0
            with lock:
                replies.append((req, reply, latency))

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return replies, time.perf_counter() - start


def _finite_numbers(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_numbers(v) for v in obj)
    return True


def check_replies(replies) -> tuple[list[str], int, dict]:
    """Output checks; returns (failures, failed job count, actual mix).

    Every reply must be ``ok`` with state ``done``, finite telemetry
    and the steps asked for, and every hit must return, bitwise, the
    telemetry of the job that produced its cache entry.
    """
    failures: list[str] = []
    failed: set[int] = set()
    produced: dict[tuple, dict] = {}
    hits = []
    seen_jobs: set[str] = set()
    actual = {"miss": 0, "hit": 0, "resume": 0, "coalesced": 0}

    def fail(req: Request, why: str) -> None:
        failed.add(req.index)
        failures.append(f"job {req.index}: {why}")

    for req, reply, _ in replies:
        job = reply.get("job") if reply.get("ok") else None
        if job is None or job.get("state") != "done":
            fail(req, str(reply.get("error") or job))
            continue
        telemetry = (job.get("result") or {}).get("telemetry")
        if telemetry is None or not _finite_numbers(telemetry):
            fail(req, "missing or non-finite telemetry")
            continue
        if job["id"] in seen_jobs:
            actual["coalesced"] += 1
        else:
            seen_jobs.add(job["id"])
            actual[job["cache"]] += 1
        key = (job["spec_hash"], job["steps"])
        if job["cache"] == "hit":
            hits.append((req, key, telemetry))
        else:
            produced[key] = telemetry
        if job["steps"] != req.steps:
            fail(req, f"{job['steps']} steps, asked {req.steps}")
    for req, key, telemetry in hits:
        if produced.get(key) != telemetry:
            fail(req, "hit telemetry differs from the job that produced "
                      "the entry")
    return failures, len(failed), actual


def computed_steps(replies) -> int:
    """Timesteps the server's engines ran: each miss or resume job once,
    from its resume point to its target."""
    jobs = {}
    for _, reply, _ in replies:
        job = reply.get("job") if reply.get("ok") else None
        if job is not None and job.get("cache") in ("miss", "resume"):
            jobs[job["id"]] = job["steps"] - job["resume_step"]
    return sum(jobs.values())


def summarize(replies, wall: float) -> dict:
    latencies = [1e3 * lat for _, r, lat in replies]
    hit_ms = [1e3 * lat for _, r, lat in replies
              if r.get("ok") and r["job"].get("cache") == "hit"]
    tail = stats.tail_percentile(latencies)
    return {
        "steps_per_s": computed_steps(replies) / wall,
        "latency_p50_ms": stats.median(latencies),
        "jobs_per_s": len(replies) / wall,
        "job_p90_ms": tail[0] if tail else None,
        "job_p90_beyond": tail[1] if tail else None,
        "hit_p50_ms": stats.median(hit_ms) if hit_ms else None,
        "jobs": len(replies),
        "wall_s": wall,
    }


def _phase(server: Server, seed: int, seconds: float, failures: list[str]):
    """Load one server; returns (summary, failed, layer counters)."""
    replies, wall = drive(server.port, seed, seconds)
    bad, failed, actual = check_replies(replies)
    failures.extend(bad)
    cache = server.client.stats()["stats"]["cache"]
    coalesced = sum(j.get("coalesced", 0)
                    for j in server.client.jobs()["jobs"])
    counters = {"serve.cache.entries": cache.get("entries", 0),
                "serve.hits": cache.get("hits", 0),
                "serve.resumes": cache.get("resumes", 0),
                "serve.misses": cache.get("misses", 0),
                "serve.coalesced": coalesced}
    summary = summarize(replies, wall)
    summary["latency_sum_s"] = sum(lat for _, _, lat in replies)
    n = len(replies)
    summary["mix"] = {
        "intended": dict(INTENDED),
        "actual": {k: v / n for k, v in actual.items()},
        "intended_of_issued": {
            kind: sum(1 for req, _, _ in replies if req.kind == kind) / n
            for kind in INTENDED},
    }
    return summary, failed, counters


def _untraced(workdir: Path, seed: int, seconds: float,
              repeat_setup: bool, failures: list[str]) -> tuple[dict, int]:
    """Launch ``repro serve`` (repeatedly: setup_s is the median, see
    :func:`stats.enough_setups`), then load the last server; returns
    (summary, failed jobs)."""
    setups: list[float] = []
    server = None
    while not setups or (repeat_setup and not stats.enough_setups(setups)):
        if server is not None:
            server.stop()
        server = plain_server(workdir / f"plain{len(setups)}")
        setups.append(server.setup_s)
    try:
        summary, failed, _ = _phase(server, seed, seconds, failures)
        rss = server.peak_rss_mib()
    finally:
        server.stop()
    summary.update(setup_s=stats.median(setups), setups=setups,
                   peak_rss_mb=rss)
    return summary, failed


def _traced(workdir: Path, seed: int, seconds: float, untraced: dict,
            failures: list[str]) -> tuple[dict, int, dict]:
    """The same load against the launcher's wrapped server; returns
    (summary with the server's span aggregates, failed jobs, per-layer
    values)."""
    spans_out = workdir / "spans.json"
    server = traced_server(workdir / "traced", spans_out)
    try:
        traced, failed, counters = _phase(server, seed, seconds, failures)
    finally:
        server.stop()
    snap = json.loads(spans_out.read_text())
    values = layers.from_spans(snap, snap,
                               steps=snap["calls"].get("md.integrate", 0))
    values.update(counters)
    values["serve.hit_p50_ms"] = traced["hit_p50_ms"] or 0.0
    # client-side waiting the wrapped layers do not explain: queueing,
    # the wire and the event loop
    values["serve.overhead_ms"] = 1e3 * (
        traced["latency_sum_s"] - snap["root_s"]) / traced["jobs"]
    values["trace.rate_untraced"] = untraced["jobs_per_s"]
    values["trace.rate_traced"] = traced["jobs_per_s"]
    values["trace.overhead_frac"] = 1.0 - (
        traced["jobs_per_s"] / untraced["jobs_per_s"])
    traced["spans"] = snap
    return traced, failed, values


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.kernels import active_backend_name

    workdir = WORK / f"serve-{os.getpid()}"
    failures: list[str] = []
    try:
        summary, failed = _untraced(workdir, seed, seconds, not trace,
                                    failures)
        record = {
            "workload": "serve-mix", "seed": seed,
            "fingerprint": host.fingerprint(
                ROOT, backend=active_backend_name(), transport=None,
                topology=None),
            "untraced": summary,
        }
        out = {"failures": failures, "attempted": summary["jobs"],
               "failed": failed, "record": record}
        if not trace:
            out["metrics"] = {k: summary[k] for k in
                              ("steps_per_s", "latency_p50_ms", "setup_s",
                               "peak_rss_mb")}
            return out
        traced, failed_t, values = _traced(workdir, seed, seconds, summary,
                                           failures)
        record["traced"] = traced
        out["attempted"] += traced["jobs"]
        out["failed"] += failed_t
        out["metrics"] = layers.complete(values)
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
