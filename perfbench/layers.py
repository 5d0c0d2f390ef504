"""Per-layer metrics: their names, units, and what each should move.

Every traced run reports every metric below, so runs of different
workloads line up; a layer that does no work on a workload reports 0.
Times named ``*_s`` on the step loop are seconds per timestep of the
traced window; set-up and I/O layers report the mean per call.  Layer
times are as measured.  On the engine workloads the ``trace.rate_*``
pair is scaled to the reference host speed (:mod:`perfbench.hostspeed`),
so the tracing overhead compares two phases of a run at one host speed;
serve-mix reports its job rates unscaled, like its end-to-end figures.

:data:`LAYER_MAP` records, per layer, which end-to-end metric its
numbers should move and on which workload.  On the other workloads the
layer does little or no work, so the prediction there is no change.
"""

from __future__ import annotations

# (name, unit, better)
PER_LAYER = (
    ("trace.rate_untraced", "1/s", "higher"),
    ("trace.rate_traced", "1/s", "higher"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("md.neighbor.query_s", "s/step", "lower"),
    ("md.neighbor.rebuild_s", "s/step", "lower"),
    ("md.neighbor.rebuilds", "1/step", "lower"),
    ("md.cell_list.build_s", "s/step", "lower"),
    ("md.cell_list.candidates_s", "s/step", "lower"),
    ("md.neighbor.candidates", "count", "lower"),
    ("md.neighbor.pairs", "count", "lower"),
    ("md.neighbor.useful_ratio", "fraction", "higher"),
    ("md.integrate_s", "s/step", "lower"),
    ("kernels.neighbor_prefilter_s", "s/step", "lower"),
    ("kernels.neighbor_prefilter.calls", "1/step", "lower"),
    ("potentials.eam.density_s", "s/step", "lower"),
    ("potentials.eam.embed_s", "s/step", "lower"),
    ("potentials.eam.pair_force_s", "s/step", "lower"),
    ("parallel.compute_s", "s/step", "lower"),
    ("parallel.pool_spawn_s", "s", "lower"),
    ("parallel.halo_bytes_per_step", "B/step", "lower"),
    ("parallel.ghost_bytes_per_step", "B/step", "lower"),
    ("parallel.halo_s", "s/step", "lower"),
    ("parallel.halo_wait_s", "s/step", "lower"),
    ("parallel.overlap_efficiency", "fraction", "higher"),
    ("parallel.shard_imbalance", "ratio", "lower"),
    ("core.density_sweep_s", "s/step", "lower"),
    ("core.force_sweep_s", "s/step", "lower"),
    ("core.exchange_s", "s/step", "lower"),
    ("core.filter_s", "s/step", "lower"),
    ("core.swap_s", "s/step", "lower"),
    ("core.swap.moves", "1/step", "lower"),
    ("core.cycle_model_s", "s/step", "lower"),
    ("core.candidates_per_atom", "count", "lower"),
    ("core.interactions_per_atom", "count", "lower"),
    ("core.useful_ratio", "fraction", "higher"),
    ("core.sweep_buffer_mb", "MiB", "lower"),
    ("core.modeled_wse2_steps_per_s", "steps/s", "higher"),
    ("runtime.build_engine_s", "s", "lower"),
    ("runtime.engine_run_s", "s", "lower"),
    ("runtime.checkpoint_write_s", "s", "lower"),
    ("runtime.checkpoint_read_s", "s", "lower"),
    ("runtime.checkpoint_bytes", "B", "lower"),
    ("serve.cache.lookup_ms", "ms", "lower"),
    ("serve.cache.resume_lookup_ms", "ms", "lower"),
    ("serve.cache.put_ms", "ms", "lower"),
    ("serve.cache.entries", "count", "higher"),
    ("serve.hits", "count", "higher"),
    ("serve.resumes", "count", "higher"),
    ("serve.misses", "count", "lower"),
    ("serve.coalesced", "count", "higher"),
    ("serve.hit_p50_ms", "ms", "lower"),
    ("serve.overhead_ms", "ms", "lower"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}

# layer (module) -> (metric prefix, end-to-end metrics it should move,
# workloads on which it should move them)
LAYER_MAP = {
    "repro.md": ("md.", ("steps_per_s", "latency_p50_ms"), ("md-ta16k",)),
    "repro.kernels": ("kernels.", ("steps_per_s", "latency_p50_ms"),
                      ("md-ta16k",)),
    "repro.potentials": ("potentials.", ("steps_per_s", "latency_p50_ms"),
                         ("md-ta16k",)),
    "repro.parallel": ("parallel.", ("steps_per_s", "setup_s"),
                       ("md-ta16k-w2",)),
    "repro.core": ("core.", ("steps_per_s", "peak_rss_mb"), ("wse-ta100k",)),
    "repro.runtime": ("runtime.", ("setup_s", "latency_p50_ms"),
                      ("md-ta16k", "md-ta16k-w2", "wse-ta100k", "serve-mix")),
    "repro.serve": ("serve.", ("latency_p50_ms", "steps_per_s"),
                    ("serve-mix",)),
}

# step-loop spans reported per timestep: (metric, span)
_PER_STEP_SPANS = (
    ("md.neighbor.query_s", "md.neighbor.query"),
    ("md.neighbor.rebuild_s", "md.neighbor.rebuild"),
    ("md.cell_list.build_s", "md.cell_list.build"),
    ("md.cell_list.candidates_s", "md.cell_list.candidates"),
    ("md.integrate_s", "md.integrate"),
    ("kernels.neighbor_prefilter_s", "kernels.neighbor_prefilter"),
    ("potentials.eam.density_s", "potentials.eam.density"),
    ("potentials.eam.embed_s", "potentials.eam.embed"),
    ("potentials.eam.pair_force_s", "potentials.eam.pair_force"),
    ("parallel.compute_s", "parallel.compute"),
    ("core.density_sweep_s", "core.density_sweep"),
    ("core.force_sweep_s", "core.force_sweep"),
    ("core.swap_s", "core.swap"),
    ("core.cycle_model_s", "core.cycle_model"),
)

# set-up and I/O spans reported as the mean per call: (metric, span, scale)
_PER_CALL_SPANS = (
    ("parallel.pool_spawn_s", "parallel.pool_spawn", 1.0),
    ("runtime.build_engine_s", "runtime.build_engine", 1.0),
    ("runtime.engine_run_s", "runtime.engine_run", 1.0),
    ("runtime.checkpoint_write_s", "runtime.checkpoint_write", 1.0),
    ("runtime.checkpoint_read_s", "runtime.checkpoint_read", 1.0),
    ("serve.cache.lookup_ms", "serve.cache.lookup", 1e3),
    ("serve.cache.resume_lookup_ms", "serve.cache.resume_lookup", 1e3),
    ("serve.cache.put_ms", "serve.cache.put", 1e3),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def from_spans(window: dict, whole: dict, steps: int) -> dict:
    """Metrics derived from recorder snapshots.

    ``window`` covers the timed steps (``steps`` of them); ``whole``
    covers the traced run including set-up, for the per-call layers.
    """
    total, calls, counts = window["total"], window["calls"], window["counts"]
    out = {m: _ratio(total.get(s, 0.0), steps) for m, s in _PER_STEP_SPANS}
    out["md.neighbor.rebuilds"] = _ratio(
        calls.get("md.neighbor.rebuild", 0), steps)
    queries = calls.get("md.neighbor.query", 0)
    cand = counts.get("md.neighbor.candidates", 0.0)
    pairs = counts.get("md.neighbor.pairs", 0.0)
    out["md.neighbor.candidates"] = _ratio(cand, queries)
    out["md.neighbor.pairs"] = _ratio(pairs, queries)
    out["md.neighbor.useful_ratio"] = _ratio(pairs, cand)
    out["kernels.neighbor_prefilter.calls"] = _ratio(
        calls.get("kernels.neighbor_prefilter", 0), steps)
    out["core.exchange_s"] = _ratio(counts.get("core.exchange_s", 0.0), steps)
    out["core.filter_s"] = _ratio(counts.get("core.filter_s", 0.0), steps)
    out["core.swap.moves"] = _ratio(counts.get("core.swap.moves", 0.0), steps)
    out["core.sweep_buffer_mb"] = whole["gauges"].get(
        "core.sweep_buffer_bytes", 0.0) / 2**20
    for metric, span, scale in _PER_CALL_SPANS:
        out[metric] = scale * _ratio(whole["total"].get(span, 0.0),
                                     whole["calls"].get(span, 0))
    out["runtime.checkpoint_bytes"] = _ratio(
        whole["counts"].get("runtime.checkpoint_bytes", 0.0),
        whole["calls"].get("runtime.checkpoint_write", 0))
    return out


def complete(values: dict) -> dict:
    """Every per-layer metric, 0 where the layer did no work, with units."""
    unknown = set(values) - set(UNITS)
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit, _ in PER_LAYER
    }
