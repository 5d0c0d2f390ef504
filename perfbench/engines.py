"""The engine workloads: md-ta16k, md-ta16k-w2 and wse-ta100k.

Each run builds its engine through the public factory
(:func:`repro.runtime.build_engine`), steps it to a fixed check point
whose outputs must equal values recorded in ``references.json`` and
whose NVE energy must lie close to the set-up step's, then times single
steps in whole windows until ``--seconds`` have passed.  A wse window holds exactly one swap round; a reference
window holds as many neighbor rebuilds as the atoms' displacement
triggers, and each run records how many its timed steps held.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench import ROOT, host, layers, stats
from perfbench.hostspeed import HostProbe
from perfbench.tracing import SpanRecorder, Tracing, delta

REFERENCES = Path(__file__).with_name("references.json")

#: the recorded references cover physics seeds 0..N_REF-1; a benchmark
#: seed selects one of them (seed mod N_REF)
N_REF = 16
#: relative tolerance of the check-point total energy against the
#: recorded one (the repo's parallel-vs-serial contract)
ENERGY_RTOL = 1e-9
#: NVE total-energy drift allowed from the set-up step to the check
#: point (the same steps on every host), eV per atom: about ten times
#: the largest of the 16 physics seeds (3.0e-4 on md-ta16k, 4.0e-5 on
#: wse-ta100k)
DRIFT_EV_PER_ATOM = {"reference": 3e-3, "wse": 4e-4}
#: counters of the lockstep machine that must repeat exactly
WSE_CHECKED = ("candidates_per_atom", "interactions_per_atom",
               "swap_count", "modeled_steps_per_s")


@dataclass(frozen=True)
class EngineWorkload:
    name: str
    #: RunSpec fields on top of the defaults (290 K, 2 fs, skin 0.5)
    fields: dict
    #: step count of the check point (the set-up step included)
    check_steps: int
    #: steps per timed window
    window: int
    #: steps between two host-speed probes
    probe_every: int
    #: the workload whose recorded references this one must match
    reference: str


WORKLOADS = {
    w.name: w for w in (
        EngineWorkload("md-ta16k",
                       {"reps": (20, 20, 20), "backend": "numpy"},
                       check_steps=20, window=20, probe_every=10,
                       reference="md-ta16k"),
        EngineWorkload("md-ta16k-w2",
                       {"reps": (20, 20, 20), "backend": "parallel",
                        "workers": 2},
                       check_steps=20, window=20, probe_every=10,
                       reference="md-ta16k"),
        # windows of swap_interval steps each hold exactly one swap round
        EngineWorkload("wse-ta100k",
                       {"engine": "wse", "reps": (128, 131, 3),
                        "force_symmetry": True, "swap_interval": 10,
                        "workers": 0},
                       check_steps=10, window=10, probe_every=1,
                       reference="wse-ta100k"),
    )
}


def make_spec(workload: EngineWorkload, seed: int):
    from repro.runtime import RunSpec

    return RunSpec(seed=seed % N_REF, **workload.fields)


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def check_values(engine) -> dict:
    """The outputs compared against the references at the check point."""
    if engine.name == "reference":
        return {"total_energy": engine.total_energy()}
    counters = engine.telemetry().counters
    return {k: counters[k] for k in WSE_CHECKED}


def compare(observed: dict, recorded: dict) -> list[str]:
    """Failed checks of ``observed`` against ``recorded`` (empty = pass)."""
    failures = []
    for key, want in recorded.items():
        got = observed[key]
        if key == "total_energy":
            ok = abs(got - want) <= ENERGY_RTOL * abs(want)
        else:
            ok = got == want
        if not ok:
            failures.append(f"{key}: got {got!r}, recorded {want!r}")
    return failures


def setup(spec):
    """Build the engine and take its first step; returns (engine, s)."""
    from repro.runtime import build_engine

    t0 = time.perf_counter()
    engine = build_engine(spec)
    engine.step(1)
    return engine, time.perf_counter() - t0


def release(engine) -> None:
    engine.close()
    gc.collect()


def warm_up(engine, workload: EngineWorkload, recorded: dict,
            failures: list[str]) -> tuple[dict, float]:
    """Step from the set-up step to the check point, compare it with the
    references and bound the energy drift between the two; returns
    (observed check values, drift in eV/atom)."""
    e0 = engine.total_energy()
    engine.step(workload.check_steps - engine.step_count)
    observed = check_values(engine)
    failures.extend(f"check point: {f}" for f in compare(observed, recorded))
    drift = abs(engine.total_energy() - e0) / engine.state.n_atoms
    limit = DRIFT_EV_PER_ATOM[engine.name]
    if not drift <= limit:
        failures.append(f"energy drift {drift:.3g} eV/atom > {limit:g} "
                        f"by the check point")
    return observed, drift


def timed_steps(engine, seconds: float, workload: EngineWorkload,
                probe: HostProbe) -> tuple[list[float], list[float]]:
    """Per-step wall times over whole windows, for at least ``seconds``.

    The host probe runs every ``probe_every`` steps, between them; each
    step's time comes with the host slowdown then in effect.
    """
    durations: list[float] = []
    slowdowns: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        for k in range(workload.window):
            if k % workload.probe_every == 0:
                probe()
                slowdown = probe.local_slowdown()
            t0 = time.perf_counter()
            engine.step(1)
            durations.append(time.perf_counter() - t0)
            slowdowns.append(slowdown)
        if time.perf_counter() >= deadline:
            return durations, slowdowns


def check_finite(engine, failures: list[str]) -> None:
    state = engine.state
    if not (np.all(np.isfinite(state.positions))
            and np.all(np.isfinite(state.velocities))):
        failures.append("non-finite positions or velocities")


def work_memory_mib(sharded: bool) -> float:
    """``peak_rss_mb`` of an engine workload, read after the timed steps.

    Serial: the peak resident set (VmHWM) of this process.  Sharded:
    the summed Pss of this process and its live children (the shard
    workers) at that moment.  Pss splits each page among the processes
    mapping it, so what the forked workers share with the parent —
    interpreter, numpy, engine state, the shared arena — counts once,
    where their VmHWMs would each count it in full.
    """
    if not sharded:
        return host.peak_rss_mib()
    return sum(host.pss_mib(pid) for pid in ["self", *host.child_pids()])


def summarize(timed: tuple[list[float], list[float]],
              probe: HostProbe) -> dict:
    """Step rate over the whole windows and median step latency, both
    at the reference host speed, plus the unscaled figures.

    The rate pools all windows rather than taking the median window:
    with the host drift scaled out, the pooled rate varied less from
    run to run on every engine workload (a wse-ta100k run holds only
    three windows).
    """
    durations, slowdowns = timed
    scaled = [t / f for t, f in zip(durations, slowdowns)]
    return {
        "steps_per_s": len(scaled) / sum(scaled),
        "latency_p50_ms": 1e3 * stats.median(scaled),
        "raw_steps_per_s": len(durations) / sum(durations),
        "raw_latency_p50_ms": 1e3 * stats.median(durations),
        "host_slowdown": probe.slowdown(),
        "steps": len(durations),
    }


def _fingerprint(engine) -> dict:
    from repro.kernels import active_backend_name

    counters = engine.telemetry().counters
    return host.fingerprint(ROOT, backend=active_backend_name(),
                            transport=counters.get("transport"),
                            topology=counters.get("topology"))


def _measured_run(workload, spec, recorded, seconds, failures,
                  repeat_setup: bool) -> tuple[dict, dict]:
    """One untraced run: set-up, check point, timed windows, checks.

    setup_s is the median over this set-up and, after the measured
    engine is released, further ones (see :func:`stats.enough_setups`),
    so the peak memory covers one engine only; each set-up is scaled by
    a host probe taken just after it.  The probe is built after the
    first set-up, so forked shard workers never map its arrays.
    """
    probe = None
    setups: list[float] = []
    scaled_setups: list[float] = []

    def timed_setup():
        nonlocal probe
        engine, seconds_taken = setup(spec)
        if probe is None:
            probe = HostProbe()
        probe()
        setups.append(seconds_taken)
        scaled_setups.append(seconds_taken / probe.local_slowdown())
        return engine

    engine = timed_setup()
    try:
        observed, drift = warm_up(engine, workload, recorded, failures)
        rebuilds0 = engine.telemetry().counters.get("neighbor_rebuilds")
        timed = timed_steps(engine, seconds, workload, probe)
        rebuilds1 = engine.telemetry().counters.get("neighbor_rebuilds")
        check_finite(engine, failures)
        memory = work_memory_mib(spec.backend == "parallel")
        info = {"fingerprint": _fingerprint(engine), "check": observed,
                "drift_ev_per_atom": drift,
                "timed_neighbor_rebuilds": (
                    None if rebuilds0 is None else rebuilds1 - rebuilds0)}
    finally:
        release(engine)
    while repeat_setup and not stats.enough_setups(setups):
        release(timed_setup())
    result = summarize(timed, probe)
    result.update(setup_s=stats.median(scaled_setups),
                  raw_setup_s=stats.median(setups), setups=setups,
                  peak_rss_mb=memory)
    return result, info


def _telemetry_layers(t0, t1, steps: int) -> dict:
    """Per-layer metrics read off :meth:`Engine.telemetry` deltas."""
    c0, c1 = t0.counters, t1.counters
    out = {}
    if "halo_bytes_sent" in c1:
        def d(key):
            return c1[key] - c0[key]

        out["parallel.halo_bytes_per_step"] = (
            d("halo_bytes_sent") + d("halo_bytes_recv")) / steps
        out["parallel.ghost_bytes_per_step"] = d("halo_bytes_ghost") / steps
        out["parallel.halo_s"] = d("halo_seconds") / steps
        out["parallel.halo_wait_s"] = d("halo_wait_seconds") / steps
        hidden, wait = d("overlap_seconds"), d("halo_wait_seconds")
        out["parallel.overlap_efficiency"] = (
            hidden / (hidden + wait) if hidden + wait > 0 else 0.0)
        per_worker = np.zeros(c1["workers"])
        for stage, secs in c1["shard_seconds"].items():
            per_worker += np.subtract(secs, c0["shard_seconds"][stage])
        mean = float(per_worker.mean())
        out["parallel.shard_imbalance"] = (
            float(per_worker.max()) / mean if mean > 0 else 0.0)
    if "candidates_per_atom" in c1:
        cand, inter = c1["candidates_per_atom"], c1["interactions_per_atom"]
        out["core.candidates_per_atom"] = cand
        out["core.interactions_per_atom"] = inter
        out["core.useful_ratio"] = inter / cand if cand else 0.0
    return out


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    spec = make_spec(workload, seed)
    refs = load_references()[workload.reference]
    recorded = refs["values"][str(spec.seed)]
    failures: list[str] = []
    result, info = _measured_run(
        workload, spec, recorded, seconds, failures,
        repeat_setup=not trace)
    record = {"workload": name, "seed": seed, "spec_seed": spec.seed,
              **info, "untraced": result}
    if not trace:
        metrics = {k: result[k] for k in
                   ("steps_per_s", "latency_p50_ms", "setup_s",
                    "peak_rss_mb")}
        return {"failures": failures, "attempted": 1,
                "failed": int(bool(failures)), "metrics": metrics,
                "record": record}

    # The traced half: a fresh engine under the wrappers, checked
    # against the same references, so tracing provably leaves the
    # trajectory unchanged.
    rec = SpanRecorder()
    with Tracing(rec):
        engine, _ = setup(spec)
        try:
            probe = HostProbe()
            warm_up(engine, workload, recorded, failures)
            before, tele0 = rec.snapshot(), engine.telemetry()
            timed = timed_steps(engine, seconds, workload, probe)
            after, tele1 = rec.snapshot(), engine.telemetry()
            check_finite(engine, failures)
        finally:
            release(engine)
    traced = summarize(timed, probe)
    steps = traced["steps"]
    spans = delta(after, before)
    values = layers.from_spans(spans, after, steps)
    values.update(_telemetry_layers(tele0, tele1, steps))
    if "modeled_steps_per_s" in record["check"]:
        # the check point's rate: a fixed stretch of trajectory, so the
        # value repeats exactly while the physics is unchanged
        values["core.modeled_wse2_steps_per_s"] = record["check"][
            "modeled_steps_per_s"]
    values["trace.rate_untraced"] = result["steps_per_s"]
    values["trace.rate_traced"] = traced["steps_per_s"]
    values["trace.overhead_frac"] = 1.0 - (
        traced["steps_per_s"] / result["steps_per_s"])
    record["traced"] = traced
    record["spans"] = spans  # the timed window's span aggregates
    return {"failures": failures, "attempted": 1,
            "failed": int(bool(failures)),
            "metrics": layers.complete(values), "record": record}
