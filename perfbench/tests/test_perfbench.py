"""Self-tests of the benchmark's own code.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import engines, layers, serve_mix, stats
from perfbench.tracing import WRAPS, SpanRecorder, Tracing

ROOT = Path(__file__).resolve().parents[2]


# -- the serve-mix generator --------------------------------------------------

def _take(seed, n):
    return list(itertools.islice(serve_mix.job_stream(seed), n))


def test_job_stream_is_deterministic_per_seed():
    assert _take(7, 300) == _take(7, 300)
    assert _take(7, 300) != _take(8, 300)


def test_job_stream_mix_and_references():
    reqs = _take(3, 2000)
    shares = {k: sum(r.kind == k for r in reqs) / len(reqs)
              for k in serve_mix.INTENDED}
    for kind, want in serve_mix.INTENDED.items():
        assert abs(shares[kind] - want) < 0.05, (kind, shares)
    asked = set()
    deepest = {}
    for i, r in enumerate(reqs):
        ident = r.spec["seed"]
        key = (ident, r.steps)
        recent = reqs[max(0, i - serve_mix.RECENT):i]
        if r.kind == "miss":
            assert ident not in deepest and r.steps == 50
        elif r.kind == "hit":
            assert key in asked
            assert key not in {(q.spec["seed"], q.steps) for q in recent}
        else:
            assert r.steps == deepest[ident] + serve_mix.STEP_INCREMENT
            assert ident not in {q.spec["seed"] for q in recent}
        asked.add(key)
        deepest[ident] = max(deepest.get(ident, 0), r.steps)


# -- statistics ---------------------------------------------------------------

def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(range(30)) is None
    assert stats.tail_percentile(range(99)) is None
    value, beyond = stats.tail_percentile(range(1, 101))
    assert (value, beyond) == (90.0, 10)
    value, beyond = stats.tail_percentile(range(1, 201))
    assert (value, beyond) == (180.0, 20)


def test_setup_sampling_rule():
    assert not stats.enough_setups([5.0, 5.0])
    assert stats.enough_setups([1.0, 1.0, 1.0])
    assert not stats.enough_setups([0.1] * 14)
    assert stats.enough_setups([0.1] * 15)


# -- tracing ------------------------------------------------------------------

def _bindings():
    """Every binding a wrap may patch: class attributes and the module
    namespaces holding a wrapped function."""
    import importlib

    out = {}
    for wrap in WRAPS:
        module = importlib.import_module(wrap.module)
        if wrap.owner is not None:
            cls = getattr(module, wrap.owner)
            out[(cls, wrap.attr)] = cls.__dict__[wrap.attr]
        else:
            fn = getattr(module, wrap.attr)
            for mod in list(sys.modules.values()):
                if getattr(mod, wrap.attr, None) is fn:
                    out[(mod, wrap.attr)] = fn
    return out


def test_wrappers_restore_the_original_callables():
    import repro.runtime.runner as runner_mod
    from repro.md.neighbor_list import NeighborList

    tracing = Tracing(SpanRecorder())
    with tracing:  # the first pass imports every module a wrap touches
        pass
    originals = _bindings()
    with tracing:
        assert NeighborList.__dict__["pairs"] is not originals[
            (NeighborList, "pairs")]
        assert runner_mod.build_engine is not originals[
            (runner_mod, "build_engine")]
    for (target, attr), original in originals.items():
        current = (target.__dict__[attr] if isinstance(target, type)
                   else getattr(target, attr))
        assert current is original, (target, attr)


def _trajectory(spec, steps, traced):
    import repro.runtime

    rec = SpanRecorder()
    tracing = Tracing(rec)
    if traced:
        tracing.install()
    try:
        engine = repro.runtime.build_engine(spec)
        engine.step(steps)
        state = engine.state
        out = (state.positions.copy(), state.velocities.copy(),
               engine.total_energy())
        engine.close()
    finally:
        tracing.uninstall()
    return out, rec.snapshot()


@pytest.mark.parametrize("fields, span", [
    ({"reps": (6, 6, 6)}, "md.neighbor.query"),
    ({"engine": "wse", "reps": (8, 8, 2), "force_symmetry": True,
      "swap_interval": 5}, "core.density_sweep"),
])
def test_traced_run_leaves_trajectory_bitwise_unchanged(fields, span):
    from repro.runtime import RunSpec

    spec = RunSpec(seed=4, **fields)
    plain, _ = _trajectory(spec, 12, traced=False)
    traced, snap = _trajectory(spec, 12, traced=True)
    assert snap["calls"][span] >= 12
    assert snap["calls"]["runtime.build_engine"] == 1
    assert plain[0].tobytes() == traced[0].tobytes()
    assert plain[1].tobytes() == traced[1].tobytes()
    assert plain[2] == traced[2]


def test_root_time_counts_only_outermost_spans():
    rec = SpanRecorder()
    t_outer = rec.enter()
    t_inner = rec.enter()
    rec.exit("inner", t_inner)
    rec.exit("outer", t_outer)
    t_next = rec.enter()
    rec.exit("next", t_next)
    snap = rec.snapshot()
    assert snap["total"]["inner"] <= snap["total"]["outer"]
    assert snap["root_s"] == pytest.approx(
        snap["total"]["outer"] + snap["total"]["next"])


# -- output checks ------------------------------------------------------------

def _reply(job_id, cache, steps, telemetry, spec_hash="h", resume_step=0):
    return {"ok": True, "job": {
        "id": job_id, "state": "done", "cache": cache, "steps": steps,
        "resume_step": resume_step, "spec_hash": spec_hash,
        "result": {"telemetry": telemetry}}}


def test_check_replies_compares_hits_with_their_producer():
    req = serve_mix.Request(0, "miss", {}, 50)
    tele = {"steps": 50, "wall_time_s": 0.25}
    good = [(req, _reply("j1", "miss", 50, tele), 0.1),
            (req, _reply("j2", "hit", 50, dict(tele)), 0.01)]
    failures, failed, actual = serve_mix.check_replies(good)
    assert (failures, failed) == ([], 0)
    assert actual == {"miss": 1, "hit": 1, "resume": 0, "coalesced": 0}
    resumed = (req, _reply("j3", "resume", 100, tele, "g", resume_step=50),
               0.1)
    # hits cost no engine steps; a coalesced reply counts its job once
    assert serve_mix.computed_steps(good + [resumed, resumed]) == 100

    bad = good[:1] + [(req, _reply("j2", "hit", 50,
                                   dict(tele, wall_time_s=0.26)), 0.01)]
    failures, failed, _ = serve_mix.check_replies(bad)
    assert failed == 1 and "hit telemetry" in failures[0]

    other = serve_mix.Request(1, "miss", {}, 50)
    error = [(req, {"ok": False, "error": "boom"}, 0.1),
             (other, _reply("j3", "miss", 50, {"e": float("nan")}), 0.1)]
    _, failed, _ = serve_mix.check_replies(error)
    assert failed == 2
    # one job failing two checks counts once
    wrong = [(req, _reply("j1", "miss", 50, tele), 0.1),
             (other, _reply("j2", "hit", 100, {"steps": 1}), 0.01)]
    failures, failed, _ = serve_mix.check_replies(wrong)
    assert failed == 1 and len(failures) == 2


def test_check_point_comparison():
    assert engines.compare({"total_energy": -1.0 - 5e-10},
                           {"total_energy": -1.0}) == []
    assert engines.compare({"total_energy": -1.0 - 2e-9},
                           {"total_energy": -1.0})
    assert engines.compare({"swap_count": 3}, {"swap_count": 4})


class _FakeEngine:
    """Energy drifts by ``per_step`` eV/atom each step; 10 atoms."""

    name = "wse"

    def __init__(self, per_step):
        self.per_step, self.step_count = per_step, 1
        self.state = type("State", (), {"n_atoms": 10})()

    def step(self, n):
        self.step_count += n

    def total_energy(self):
        return 10 * self.per_step * self.step_count

    def telemetry(self):
        counters = dict.fromkeys(engines.WSE_CHECKED, 0)
        return type("Telemetry", (), {"counters": counters})()


def test_drift_is_checked_over_the_fixed_warm_up_steps():
    workload = engines.WORKLOADS["wse-ta100k"]
    recorded = dict.fromkeys(engines.WSE_CHECKED, 0)
    limit = engines.DRIFT_EV_PER_ATOM["wse"]
    steps = workload.check_steps - 1
    failures = []
    _, drift = engines.warm_up(_FakeEngine(0.9 * limit / steps), workload,
                               recorded, failures)
    assert failures == [] and drift == pytest.approx(0.9 * limit)
    engines.warm_up(_FakeEngine(1.1 * limit / steps), workload, recorded,
                    failures)
    assert len(failures) == 1 and "energy drift" in failures[0]


def test_memory_probes_read_this_process():
    from perfbench import host

    assert 0 < host.pss_mib() <= host.peak_rss_mib()


def test_stop_helpers_leaves_no_child_process():
    # a fresh interpreter: the shared-memory segment starts the resource
    # tracker, which outlives its parent unless it is stopped
    code = (
        "import sys; sys.path[:0] = [sys.argv[1]]\n"
        "from multiprocessing import shared_memory\n"
        "from perfbench import host\n"
        "shm = shared_memory.SharedMemory(create=True, size=64)\n"
        "shm.close(); shm.unlink()\n"
        "assert host.child_pids(), 'no resource tracker started'\n"
        "host.stop_helpers()\n"
        "assert host.child_pids() == [], host.child_pids()\n"
    )
    subprocess.run([sys.executable, "-c", code, str(ROOT)], check=True,
                   timeout=60)


# -- the benchmark definition -------------------------------------------------

def test_benchmark_json_matches_the_code():
    from perfbench import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == list(layers.PER_LAYER)
    refs = engines.load_references()
    for workload in engines.WORKLOADS.values():
        recorded = refs[workload.reference]
        assert recorded["check_steps"] == workload.check_steps
        assert len(recorded["values"]) == engines.N_REF


def test_layer_metrics_fill_every_name():
    snap = SpanRecorder().snapshot()
    values = layers.from_spans(snap, snap, steps=10)
    out = layers.complete(values)
    assert list(out) == [name for name, _, _ in layers.PER_LAYER]
    assert all(np.isfinite(m["value"]) for m in out.values())
    with pytest.raises(KeyError):
        layers.complete({"not.a.metric": 1.0})


def test_layer_map_covers_every_layer_metric():
    from perfbench import run

    prefixes = [prefix for prefix, _, _ in layers.LAYER_MAP.values()]
    for name, _, _ in layers.PER_LAYER:
        if not name.startswith("trace."):
            assert sum(name.startswith(p) for p in prefixes) == 1, name
    for _, moves, workloads in layers.LAYER_MAP.values():
        assert set(moves) <= set(run.END_TO_END_UNITS)
        assert set(workloads) <= set(run.WORKLOADS)
