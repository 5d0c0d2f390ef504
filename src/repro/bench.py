"""Benchmark-regression harness: ``python -m repro bench``.

Times the two engines on the standard Table-I elements and writes a
machine-readable ``BENCH_kernels.json``:

* reference engine (cell-list + fused half-pair EAM kernels) on bulk
  Ta/Cu/W slabs — the workload the kernel layer is optimized for;
* lockstep machine (:class:`repro.core.wse_md.WseMd`) on a thin Ta
  slab — wall-clock of the *simulator* itself, not the modeled WSE-2
  rate.

Each case carries the steps/s measured on the pre-kernel-layer seed
tree (:data:`SEED_BASELINE`) so the report shows ``speedup_vs_seed``
directly.  ``--baseline`` compares against a previously written JSON
and exits non-zero when any case regresses more than ``--max-drop``
(fractional), which is how CI gates kernel changes.

Benchmark numbers are machine-dependent: compare runs from the same
host only.  The committed ``benchmarks/baseline_kernels.json`` is
refreshed whenever the kernels intentionally change speed.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "BenchCase",
    "BenchResult",
    "CASES",
    "SEED_BASELINE",
    "run_case",
    "run_bench",
    "cross_backend_notes",
    "consistency_check",
    "multiwafer_comparison",
    "attach_multiwafer",
    "baseline_for_case",
    "compare_to_baseline",
    "write_report",
    "latest_results",
    "normalize_result_row",
    "peak_rss_bytes",
    "reset_peak_rss",
]


@dataclass(frozen=True)
class BenchCase:
    """One timed workload.

    ``steps``/``warmup`` are (full, quick) pairs; warmup steps run
    untimed first so the cell-list build and first caching costs do
    not pollute the steady-state rate.  ``backend`` pins the kernel
    backend for this case (``None`` keeps whatever the harness was
    launched with); ``workers`` sizes the parallel pipeline's pool.
    ``seed_key`` names the :data:`SEED_BASELINE` row this case gates
    against — backend variants of a workload (``par-Ta-w*``) share
    the serial numpy case's seed rate, so their
    ``speedup_vs_seed`` answers "how much faster than the pre-kernel
    tree on the *same physics*", not "vs nothing".
    """

    name: str
    engine: str  # "reference" | "wse"
    element: str
    reps: tuple[int, int, int]
    steps: tuple[int, int]
    warmup: tuple[int, int] = (2, 2)
    backend: str | None = None
    workers: int = 0
    seed_key: str | None = None
    topology: tuple[int, int] | None = None
    transport: str | None = None
    #: timed windows per run; the recorded rate is the best window.
    #: Wall-clock noise on shared hosts is one-sided (throttling and
    #: interference only ever *add* time), so max-of-N windows is the
    #: consistent estimator of the steady rate.  Cases whose rates feed
    #: cross-case ratios (the Ta backend-comparison block) and the
    #: sub-second cases the regression gate watches use 3; the
    #: heavyweight lockstep cases keep a single window.
    windows: int = 1


#: Standard workloads.  Reference slabs are bulk-like (the acceptance
#: workload is the 16,000-atom Ta slab); the lockstep case is small
#: because the simulator carries per-tile overhead in Python.  The
#: ``par-Ta-w*`` cases sweep the sharded pipeline's worker count on the
#: same 16k-atom slab the serial ``ref-Ta`` case times.  The Ta
#: reference cases time a 40-step full-mode window: neighbor candidates
#: persist across steps (serially and shard-side), so a representative
#: rate must span at least two Verlet reuse periods (~16 steps each at
#: 300 K) — a window shorter than one period measures a reuse-only
#: rate no long run can sustain and hides the rebuild economics.
CASES: tuple[BenchCase, ...] = (
    BenchCase("ref-Ta", "reference", "Ta", (20, 20, 20), (40, 40), (2, 5),
              windows=3),
    # The par-Ta-* siblings are compared against ref-Ta's rate, so they
    # run immediately after it: comparison pairs timed back-to-back see
    # the same host state, while a sweep that interleaves the multi-GB
    # lockstep cases hands the later side cold caches and a throttled
    # clock (a ~15% ratio bias measured on 1-core containers).
    BenchCase("par-Ta-w1", "reference", "Ta", (20, 20, 20), (40, 40),
              (2, 5), backend="parallel", workers=1, seed_key="ref-Ta",
              windows=3),
    BenchCase("par-Ta-w2", "reference", "Ta", (20, 20, 20), (40, 40),
              (2, 5), backend="parallel", workers=2, seed_key="ref-Ta",
              windows=3),
    BenchCase("par-Ta-w4", "reference", "Ta", (20, 20, 20), (40, 40),
              (2, 5), backend="parallel", workers=4, seed_key="ref-Ta",
              windows=3),
    # par-Ta-w4 defaults to the near-square 2x2 grid (least ghost
    # surface); this explicit 4x1 sibling keeps the historical 1D
    # column layout measured on the same slab and worker count, so the
    # report's Table VI hook can compare tile shapes (each tile plays
    # one wafer-node; the halo ring plays the ghost shell).
    BenchCase("par-Ta-4x1", "reference", "Ta", (20, 20, 20), (40, 40),
              (2, 5), backend="parallel", seed_key="ref-Ta",
              topology=(4, 1), windows=3),
    BenchCase("ref-Cu", "reference", "Cu", (16, 16, 16), (6, 40), (2, 5),
              windows=3),
    BenchCase("ref-W", "reference", "W", (20, 20, 20), (6, 40), (2, 5),
              windows=3),
    BenchCase("wse-Ta", "wse", "Ta", (8, 8, 3), (20, 30), (2, 5),
              windows=3),
    # Lockstep scaling cases: the streaming sweeps keep peak memory at
    # O(chunk x grid), so the machine now runs the paper's actual
    # experiment sizes.  100k is the everyday scaling case; 800k is the
    # paper's 801,792-atom Ta slab (256 x 261 x 6 BCC cells), full mode
    # only — quick mode skips cases without a QUICK_REPS entry.
    BenchCase("wse-Ta-100k", "wse", "Ta", (128, 131, 3), (5, 10), (1, 1)),
    BenchCase("wse-Ta-800k", "wse", "Ta", (256, 261, 6), (3, 3), (1, 1)),
)

#: Quick-mode replications (small slabs so CI finishes in seconds).
#: A case with no entry here is **full-mode only** and is skipped by
#: ``--quick`` runs (wse-Ta-800k: the paper-scale slab has no small
#: stand-in — wse-Ta-100k's quick entry already covers the >=10k-atom
#: scaling regime the CI gate watches).
QUICK_REPS: dict[str, tuple[int, int, int]] = {
    "ref-Ta": (8, 8, 4),
    "ref-Cu": (6, 6, 4),
    "ref-W": (8, 8, 4),
    "wse-Ta": (5, 5, 2),
    "wse-Ta-100k": (48, 48, 3),
    "par-Ta-w1": (8, 8, 4),
    "par-Ta-w2": (8, 8, 4),
    "par-Ta-w4": (8, 8, 4),
    "par-Ta-4x1": (8, 8, 4),
}

#: steps/s measured on the seed tree (commit c12f1fa, this container)
#: with the same workloads, before the kernel layer existed.  Keyed by
#: ``(case name, mode)``.
SEED_BASELINE: dict[str, dict[str, float]] = {
    "ref-Ta": {"full": 4.875, "quick": 253.6},
    "ref-Cu": {"full": 1.611, "quick": 96.4},
    "ref-W": {"full": 1.396, "quick": 97.2},
    "wse-Ta": {"full": 72.4, "quick": 132.7},
}


@dataclass
class BenchResult:
    """Timing + workload stats for one executed case."""

    name: str
    engine: str
    element: str
    n_atoms: int
    steps: int
    wall_s: float
    steps_per_s: float
    seed_steps_per_s: float | None = None
    extra: dict = field(default_factory=dict)

    @property
    def speedup_vs_seed(self) -> float | None:
        if not self.seed_steps_per_s:
            return None
        return self.steps_per_s / self.seed_steps_per_s

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "engine": self.engine,
            "element": self.element,
            "n_atoms": self.n_atoms,
            "steps": self.steps,
            "wall_s": round(self.wall_s, 4),
            "steps_per_s": round(self.steps_per_s, 3),
            "seed_steps_per_s": self.seed_steps_per_s,
            "speedup_vs_seed": (
                round(self.speedup_vs_seed, 3)
                if self.speedup_vs_seed is not None else None
            ),
        }
        out.update(self.extra)
        return out


def _case_extra(case: BenchCase, telemetry) -> dict:
    """Engine-shaped report extras, from the unified telemetry record."""
    c = telemetry.counters
    if case.engine == "reference":
        ph = telemetry.phase_seconds
        out = {
            "pairs_per_step": round(c["pairs_per_step"], 1),
            "neighbor_rebuilds": c["neighbor_rebuilds"],
            "time_neighbor_s": round(ph["neighbor"], 4),
            "time_force_s": round(ph["force"], 4),
            "time_integrate_s": round(ph["integrate"], 4),
        }
        # topology/transport land in every reference entry (null for
        # serial runs) so 1D, 2D and socket entries in the history are
        # distinguishable and gate against the right baselines.
        out["topology"] = c.get("topology")
        out["transport"] = c.get("transport")
        if "workers" in c:
            # sharded run: worker count, layout, halo traffic and
            # cumulative per-stage shard seconds, so imbalance and
            # seam cost are visible in the report
            out["workers"] = c["workers"]
            out["halo_bytes_sent"] = c["halo_bytes_sent"]
            out["halo_bytes_recv"] = c["halo_bytes_recv"]
            out["halo_seconds"] = c["halo_seconds"]
            # fraction of halo publication time hidden behind the
            # interior kernel pass (0.0 when REPRO_PARALLEL_NO_OVERLAP
            # forced the blocking protocol)
            out["overlap_efficiency"] = c["overlap_efficiency"]
            out["shard_seconds"] = c["shard_seconds"]
        return out
    return {
        "grid": [c["grid_nx"], c["grid_ny"]],
        "b": c["b"],
        "modeled_wse2_steps_per_s": round(c["modeled_steps_per_s"], 1),
        # streaming-sweep knobs, so the memory/speed trajectory in the
        # history is auditable (chunk is the resolved, auto-sized value)
        "offset_chunk": int(c["offset_chunk"]),
        "workers": int(c["workers"]),
    }


def reset_peak_rss() -> bool:
    """Reset the kernel's peak-RSS watermark for this process.

    Writing ``5`` to ``/proc/self/clear_refs`` (Linux >= 4.0) resets
    ``VmHWM``, so each bench case's recorded peak is its own, not the
    high-water mark of whichever earlier case was largest.  Returns
    False where unsupported — then :func:`peak_rss_bytes` reports the
    process-lifetime peak (still an upper bound).
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def peak_rss_bytes() -> int | None:
    """Peak resident set size in bytes (``VmHWM``; ru_maxrss fallback)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except (ImportError, OSError):  # pragma: no cover - non-POSIX
        return None


def _execute(
    case: BenchCase, reps, steps: int, warmup: int, *, profile: bool = False
) -> BenchResult:
    """One timed case through the runtime factory — engine-agnostic."""
    from repro.kernels import active_backend_name
    from repro.runtime import RunSpec, build_engine

    spec = RunSpec(
        element=case.element,
        reps=reps,
        engine=case.engine,
        steps=steps,
        backend=case.backend,
        workers=case.workers,
        topology=case.topology,
        transport=case.transport,
        # the lockstep case benches the paper's force-symmetry path
        force_symmetry=(case.engine == "wse"),
    )
    reset_peak_rss()
    if profile:
        from repro.obs import Tracer

        engine = build_engine(spec, tracer=Tracer())
    else:
        engine = build_engine(spec)
    window_rates: list[float] = []
    try:
        engine.step(warmup)
        telemetry = None
        # Best-of-N windows: noise on shared hosts only ever slows a
        # window down, so the fastest of N repeats is the consistent
        # estimator of the steady rate (every window re-times the same
        # steady-state workload; the engine keeps running, so later
        # windows span the same rebuild cadence as the first).
        for _ in range(max(1, case.windows)):
            engine.reset_telemetry()  # report steady state, not warmup
            engine.step(steps)
            window = engine.telemetry()
            window_rates.append(window.steps_per_s)
            if telemetry is None or window.steps_per_s > telemetry.steps_per_s:
                telemetry = window
    finally:
        engine.close()
    extra = _case_extra(case, telemetry)
    if len(window_rates) > 1:
        extra["window_steps_per_s"] = [round(r, 3) for r in window_rates]
    extra["kernel_backend"] = active_backend_name()
    if case.topology is not None or case.backend == "parallel":
        # the multiwafer comparison hook needs the slab geometry (any
        # parallel case may resolve to a 2D grid via the near-square
        # default, not just explicit-topology cases)
        extra["reps"] = list(reps)
    peak = peak_rss_bytes()
    if peak is not None:
        extra["peak_rss_bytes"] = peak
    if telemetry.trace_phases is not None:
        extra["phases"] = {
            k: round(v, 4) for k, v in telemetry.trace_phases.items()
        }
    return BenchResult(
        name=case.name,
        engine=case.engine,
        element=case.element,
        n_atoms=int(telemetry.counters["n_atoms"]),
        steps=steps,
        wall_s=telemetry.wall_time_s,
        steps_per_s=telemetry.steps_per_s,
        extra=extra,
    )


def run_case(case: BenchCase, *, quick: bool = False,
             steps: int | None = None, profile: bool = False) -> BenchResult:
    """Execute one case and attach its seed baseline."""
    mode = "quick" if quick else "full"
    reps = QUICK_REPS[case.name] if quick else case.reps
    n_steps = steps if steps is not None else case.steps[1 if quick else 0]
    warmup = case.warmup[1 if quick else 0]
    result = _execute(case, reps, n_steps, warmup, profile=profile)
    # Backend variants (seed_key) gate against the serial numpy seed
    # rate of the same workload, so speedup_vs_seed is cross-backend.
    seed_name = case.seed_key or case.name
    result.seed_steps_per_s = SEED_BASELINE.get(seed_name, {}).get(mode)
    return result


def run_bench(
    *,
    quick: bool = False,
    elements: list[str] | None = None,
    engines: list[str] | None = None,
    steps: int | None = None,
    profile: bool = False,
    workers: int | None = None,
    transport: str | None = None,
    progress=None,
) -> list[BenchResult]:
    """Run the selected cases in declaration order.

    Each case pins its kernel backend explicitly (its own ``backend``
    or the backend active when the sweep started), so a ``parallel``
    case never leaks its backend into the serial cases after it.  A
    case pinned to a backend this host cannot import (``par-*``
    without fork) is skipped with a progress note rather than silently
    timing numpy under the wrong name.
    ``workers`` overrides the pool size of every 1D parallel case
    (topology cases keep their grid — a worker override would conflict
    with it) and ``transport`` overrides every parallel case's
    transport (the ``repro bench --workers``/``--transport`` flags).
    After the sweep, every 2D-topology result gains its
    measured-vs-multiwafer-model comparison when a sibling rate was
    timed (:func:`attach_multiwafer` re-runs with the baseline for the
    cross-run case).
    """
    from repro.kernels import (
        active_backend_name,
        available_backends,
        set_backend,
    )

    base_backend = active_backend_name()
    usable = set(available_backends())
    results: list[BenchResult] = []
    for case in CASES:
        if elements and case.element not in elements:
            continue
        if engines and case.engine not in engines:
            continue
        if quick and case.name not in QUICK_REPS:
            # full-mode-only case (no CI-sized stand-in exists)
            if progress:
                progress(f"  {case.name}: full mode only, skipped")
            continue
        if case.backend is not None and case.backend not in usable:
            if progress:
                progress(
                    f"  {case.name}: backend {case.backend!r} "
                    f"unavailable on this host, skipped"
                )
            continue
        is_parallel = (case.backend or base_backend) == "parallel"
        if workers is not None and is_parallel and case.topology is None:
            case = replace(case, workers=workers)
        if transport is not None and is_parallel:
            case = replace(case, transport=transport)
        if progress:
            progress(f"  {case.name} ({case.engine}) ...")
        set_backend(case.backend or base_backend)
        try:
            results.append(run_case(case, quick=quick, steps=steps,
                                    profile=profile))
        finally:
            set_backend(base_backend)
    attach_multiwafer(results)
    return results


def cross_backend_notes(
    results: list[BenchResult],
    baseline: dict | None = None,
    *,
    mode: str | None = None,
) -> list[str]:
    """Backend-vs-numpy comparison lines for ``repro bench`` output.

    Every timed case pinned to a non-default backend whose ``seed_key``
    names a numpy sibling (``par-Ta-w*`` vs ``ref-Ta``)
    yields one note stating its rate as a multiple of the sibling's.
    The sibling's rate comes from this run when it was timed, else from
    the newest ``baseline`` history entry that timed it (restricted to
    ``mode`` — quick and full numbers are never comparable); a sibling
    timed nowhere yields a note saying so, never a silent omission.
    """
    by_case = {c.name: c for c in CASES}
    by_name = {r.name: r for r in results}
    notes: list[str] = []
    for r in results:
        case = by_case.get(r.name)
        if case is None or case.backend is None or case.seed_key is None:
            continue
        sibling = case.seed_key
        ref = by_name.get(sibling)
        ref_rate = ref.steps_per_s if ref is not None else None
        source = "this run"
        if not ref_rate and baseline is not None:
            row = baseline_for_case(baseline, sibling, mode=mode)
            if row is not None:
                ref_rate = row["steps_per_s"]
                source = "baseline history"
        if not ref_rate:
            notes.append(
                f"{r.name}: no {sibling} timing in this run or the "
                f"baseline to compare against"
            )
            continue
        ratio = r.steps_per_s / ref_rate
        notes.append(
            f"{r.name} ({case.backend}): {r.steps_per_s:.2f} steps/s = "
            f"{ratio:.2f}x {sibling} ({ref_rate:.2f} steps/s, {source})"
        )
    return notes


def consistency_check(
    *,
    workers: int = 2,
    steps: int = 5,
    tol: float = 1e-9,
    topology: tuple[int, int] | None = None,
    transport: str | None = None,
) -> list[str]:
    """Parallel-vs-numpy physics agreement smoke (``bench --check``).

    Runs the tier-1-sized Ta workload ``steps`` steps under the numpy
    backend and under the parallel backend with ``workers`` shards —
    or a ``topology`` domain grid, over ``transport`` — and compares
    total energy (relative) and the worst per-atom position deviation
    against ``tol``.  Returns human-readable failure lines (empty =
    pass).  When the parallel backend is unavailable on the host the
    check degrades to comparing numpy against itself, which the
    registry has already warned about.
    """
    from repro.kernels import active_backend_name, set_backend
    from repro.runtime import RunSpec, build_engine

    base_backend = active_backend_name()
    failures: list[str] = []
    label = (
        f"{topology[0]}x{topology[1]}" if topology else f"w={workers}"
    )
    if transport:
        label += f", {transport}"

    def _run(backend: str, w: int, topo, tkind):
        set_backend(backend)
        engine = build_engine(
            RunSpec(element="Ta", reps=(6, 6, 3), steps=steps, workers=w,
                    topology=topo, transport=tkind)
        )
        try:
            engine.step(steps)
            return engine.total_energy(), engine.state.positions.copy()
        finally:
            engine.close()

    try:
        e_ref, pos_ref = _run("numpy", 0, None, None)
        e_par, pos_par = _run(
            "parallel", 0 if topology else workers, topology, transport
        )
    finally:
        set_backend(base_backend)
    rel = abs(e_par - e_ref) / max(abs(e_ref), 1e-300)
    if rel > tol:
        failures.append(
            f"total energy: parallel({label}) vs numpy relative "
            f"difference {rel:.3e} > {tol:g}"
        )
    max_dpos = float(np.max(np.abs(pos_par - pos_ref)))
    if max_dpos > 1e-9:
        failures.append(
            f"trajectory: max |dx| {max_dpos:.3e} A > 1e-9 after "
            f"{steps} steps"
        )
    return failures


def multiwafer_comparison(result: BenchResult, single_rate: float,
                          sibling: str) -> dict:
    """Measured-vs-modeled Table VI hook for a 2D-topology bench case.

    Maps the measured 2D run onto the multi-wafer ghost-region model:
    each tile plays one wafer-node holding ``n_atoms / n_domains``
    interior atoms, the halo ring plays the ghost shell (``lambda``
    sized so the model grants at least one step per refresh period),
    and the same-worker-count 1D sibling's measured rate plays the
    single-wafer rate.  Returns a JSON-ready dict with the modeled
    fraction-of-single-wafer next to the measured ratio, so Table VI
    is an experiment, not just a projection.
    """
    import math

    from repro.perfmodel.multiwafer import MultiWaferModel
    from repro.potentials.elements import ELEMENTS

    topo = result.extra.get("topology")
    reps = result.extra.get("reps")
    el = ELEMENTS[result.element]
    n_domains = topo[0] * topo[1]
    lam = max(1, math.ceil(2.0 * el.cutoff_nn))
    # BCC slab: 2 atoms per cell, reps[2] cells thick
    z_sites = max(1, 2 * int(reps[2]))
    per_domain = max(1, result.n_atoms // n_domains)
    x_sites = max(2 * lam + 1, int(round((per_domain / z_sites) ** 0.5)))
    point = MultiWaferModel().evaluate(
        result.element, x_sites, z_sites, lam, el.cutoff_nn,
        1.0 / single_rate, single_rate,
    )
    return {
        "model": {
            "x_sites": point.x_sites,
            "z_sites": point.z_sites,
            "lambda": point.lam,
            "k_steps": point.k_steps,
            "n_ghost": point.n_ghost,
            "fraction_of_single_wafer": round(
                point.fraction_of_single_wafer, 4
            ),
        },
        "measured": {
            "single_wafer_case": sibling,
            "single_wafer_steps_per_s": round(single_rate, 3),
            "steps_per_s": round(result.steps_per_s, 3),
            "fraction_of_single_wafer": round(
                result.steps_per_s / single_rate, 4
            ),
        },
    }


def attach_multiwafer(results: list[BenchResult],
                      baseline: dict | None = None,
                      *, mode: str | None = None) -> list[str]:
    """Attach the Table VI comparison to every 2D-topology result.

    The single-wafer stand-in is the same-worker-count 1D column
    sibling (``par-Ta-4x1`` for the 2x2 grid — worker-count cases
    default to the near-square layout, so the explicit ``Nx1`` case is
    the 1D one), taken from this run or, failing that, the newest
    matching ``baseline`` history entry.  Returns one human-readable
    note per 2D case (including cases with no sibling rate anywhere —
    never a silent omission).
    """
    by_name = {r.name: r for r in results}
    notes: list[str] = []
    for r in results:
        topo = r.extra.get("topology")
        if not topo or topo[1] == 1:
            continue
        n_domains = topo[0] * topo[1]
        sibling = f"par-{r.element}-{n_domains}x1"
        ref = by_name.get(sibling)
        rate = ref.steps_per_s if ref is not None else None
        if not rate and baseline is not None:
            row = baseline_for_case(baseline, sibling, mode=mode)
            if row is not None:
                rate = row["steps_per_s"]
        if not rate:
            notes.append(
                f"{r.name}: no {sibling} rate in this run or the "
                f"baseline; multiwafer comparison skipped"
            )
            continue
        comp = multiwafer_comparison(r, rate, sibling)
        r.extra["multiwafer"] = comp
        notes.append(
            f"{r.name}: measured {comp['measured']['fraction_of_single_wafer']:.2f}x "
            f"of {sibling} vs modeled Table-VI fraction "
            f"{comp['model']['fraction_of_single_wafer']:.2f} "
            f"(lambda={comp['model']['lambda']}, "
            f"k={comp['model']['k_steps']})"
        )
    return notes


def _git_sha() -> str | None:
    """Short commit SHA of the working tree, or None outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def normalize_result_row(row: dict) -> dict:
    """A copy of a history result row with schema gaps filled.

    History entries written before the backend-pinning run recorded
    neither ``kernel_backend`` nor ``workers`` on their cases (every
    case then ran the process-default numpy backend, serially).  The
    read path fills those defaults so baseline walks and trajectory
    tooling can key on them without per-row existence checks.
    """
    if "kernel_backend" in row and "workers" in row:
        return row
    out = dict(row)
    out.setdefault("kernel_backend", "numpy")
    out.setdefault("workers", None)
    return out


def latest_results(report: dict) -> list[dict]:
    """The newest run's result list from a v1 or v2 bench report.

    v1 reports (``repro-bench/1``) store one run at the top level; v2
    reports (``repro-bench/2``) keep an append-only ``history`` whose
    last entry is the newest run.  Rows are normalized on read
    (:func:`normalize_result_row`), so legacy entries look
    schema-complete to callers.
    """
    history = report.get("history")
    if history:
        rows = history[-1].get("results", [])
    else:
        rows = report.get("results", [])
    return [normalize_result_row(r) for r in rows]


def write_report(path: str, results: list[BenchResult], *,
                 quick: bool, backend: str) -> dict:
    """Append this run to the report history at ``path``.

    ``BENCH_kernels.json`` is no longer overwritten per run: each run
    becomes one ``history`` entry (timestamp, git SHA, mode, backend,
    per-case results), so the recorded trajectory of steps/s survives
    across invocations.  A v1 report already on disk is preserved as
    the first history entry; a corrupt file starts a fresh history.
    Returns the full v2 report dict.
    """
    entry = {
        "created_unix": round(time.time(), 1),
        "git_sha": _git_sha(),
        "mode": "quick" if quick else "full",
        "backend": backend,
        "numpy_version": np.__version__,
        # parallel entries are only comparable on similar hosts; record
        # the core count next to each run's worker counts
        "cpu_count": os.cpu_count(),
        "results": [r.to_json() for r in results],
    }
    history: list[dict] = []
    try:
        with open(path) as fh:
            on_disk = json.load(fh)
        if isinstance(on_disk, dict):
            if isinstance(on_disk.get("history"), list):
                history = on_disk["history"]
            elif on_disk.get("results") is not None:
                # v1 single-run report: keep it as the oldest entry
                history = [
                    {
                        k: on_disk.get(k)
                        for k in (
                            "created_unix",
                            "mode",
                            "backend",
                            "numpy_version",
                            "results",
                        )
                    }
                ]
    except (OSError, json.JSONDecodeError):
        history = []
    history.append(entry)
    report = {"schema": "repro-bench/2", "history": history}
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report


def baseline_for_case(
    baseline: dict,
    name: str,
    *,
    mode: str | None = None,
    match: dict | None = None,
) -> dict | None:
    """Newest baseline record for ``name``, walking the history backwards.

    The latest history entry need not contain every case (selective
    ``--elements``/``--engines`` runs, cases added after the last full
    sweep): the gate compares each case against the most recent entry
    that actually timed it.  ``mode`` restricts the walk to entries of
    one bench mode — quick and full numbers are never comparable.
    ``match`` restricts it further to rows agreeing on the given keys
    (an unrecorded key reads as ``None`` — the serial/default layer —
    on both sides): a ``--transport socket`` sweep must not gate
    against rates the inline tier recorded under the same case name,
    nor vice versa.  Returns ``None`` when no prior timing exists
    anywhere — the committed baseline is refreshed whenever a new
    layer combination starts being benched, so the gap is one run
    wide.  Hits are normalized (:func:`normalize_result_row`) so a
    pre-backend-pinning row never KeyErrors a caller keying on
    ``kernel_backend`` or ``workers``.
    """
    history = baseline.get("history")
    if not history:
        # v1 single-run report
        history = [baseline]
    for entry in reversed(history):
        if mode is not None and entry.get("mode") not in (mode, None):
            continue
        for r in entry.get("results", []):
            if r.get("name") != name or not r.get("steps_per_s"):
                continue
            if match and any(
                r.get(k) != v for k, v in match.items()
            ):
                continue
            return normalize_result_row(r)
    return None


def compare_to_baseline(
    results: list[BenchResult],
    baseline: dict,
    *,
    max_drop: float,
    mode: str | None = None,
) -> tuple[list[str], list[str]]:
    """Regression check vs a previous report (v1 or v2).

    Each case is compared against the latest prior history entry that
    timed it (:func:`baseline_for_case`) — a case absent from the
    newest entry still gates against its own most recent number instead
    of silently passing.  Returns ``(failures, notes)``: failure lines
    (empty = pass), plus one note per case with **no** baseline
    anywhere (new cases are reported distinctly, never silently
    skipped).
    """
    failures: list[str] = []
    notes: list[str] = []
    for r in results:
        # backend/transport/topology-forced sweeps only gate against
        # rows recorded under the same layer stack — an inline or
        # numpy-backend rate is not a floor for a loopback-TCP or
        # parallel-backend run of the same case name
        ref = baseline_for_case(
            baseline, r.name, mode=mode,
            match={
                "kernel_backend": r.extra.get("kernel_backend"),
                "transport": r.extra.get("transport"),
                "topology": r.extra.get("topology"),
            },
        )
        if ref is None:
            notes.append(
                f"{r.name}: no baseline entry (new case; recorded at "
                f"{r.steps_per_s:.2f} steps/s, gated from the next run)"
            )
            continue
        floor = (1.0 - max_drop) * ref["steps_per_s"]
        if r.steps_per_s < floor:
            failures.append(
                f"{r.name}: {r.steps_per_s:.2f} steps/s < "
                f"{floor:.2f} (baseline {ref['steps_per_s']:.2f} "
                f"- {max_drop:.0%} allowance)"
            )
    return failures, notes
