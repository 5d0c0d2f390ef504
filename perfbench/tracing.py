"""Layer timing from outside the program.

The benchmark adds no tracing to ``src/``: it wraps each layer's public
functions in place, from these files, for the length of a traced run,
and restores the originals afterwards.  A wrapper records a span — its
name, its duration and the enclosing span on the same thread — into a
:class:`SpanRecorder`, and may add counts read off the call's arguments
or result.  Spans are aggregated in memory (totals and calls) and read
out once when the run ends.

The wrapped calls (:data:`WRAPS`) are the layer boundaries named in
``BENCHMARK.json``'s per-layer metrics; :mod:`perfbench.layers` turns a
recorder snapshot into those metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class SpanRecorder:
    """Thread-safe aggregate of spans and counts.

    ``total[name]`` is inclusive time, and ``root_s`` sums the spans
    that had no enclosing span on their thread — the time the traced
    layers together held a thread.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.total: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.gauges: dict[str, float] = {}
        self.root_s = 0.0

    def enter(self) -> float:
        # spans open on this thread, so exit() can tell a root span
        self._local.depth = getattr(self._local, "depth", 0) + 1
        return time.perf_counter()

    def exit(self, name: str, t0: float) -> None:
        dt = time.perf_counter() - t0
        self._local.depth -= 1
        with self._lock:
            self.total[name] += dt
            self.calls[name] += 1
            if self._local.depth == 0:
                self.root_s += dt

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += float(amount)

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = float(value)

    def snapshot(self) -> dict:
        """JSON-ready copy of every aggregate."""
        with self._lock:
            return {
                "total": dict(self.total),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "gauges": dict(self.gauges),
                "root_s": self.root_s,
            }


def delta(after: dict, before: dict) -> dict:
    """Aggregates accumulated between two snapshots (gauges: latest)."""
    out = {}
    for key in ("total", "calls", "counts"):
        a, b = after[key], before[key]
        out[key] = {k: a[k] - b.get(k, 0) for k in a}
    out["gauges"] = dict(after["gauges"])
    out["root_s"] = after["root_s"] - before["root_s"]
    return out


# -- observers: counts read off a wrapped call ------------------------------

def _neighbor_query(rec: SpanRecorder, args, result) -> None:
    rec.add("md.neighbor.candidates", args[0].n_candidates)
    rec.add("md.neighbor.pairs", result.n_pairs)


def _sweep(rec: SpanRecorder, args, result) -> None:
    t_exchange, t_filter, _ = result
    rec.add("core.exchange_s", t_exchange)
    rec.add("core.filter_s", t_filter)
    rec.gauge("core.sweep_buffer_bytes", args[0].buffer_bytes())


def _swap(rec: SpanRecorder, args, result) -> None:
    rec.add("core.swap.moves", result)


def _checkpoint_written(rec: SpanRecorder, args, result) -> None:
    rec.add("runtime.checkpoint_bytes", sum(Path(p).stat().st_size
                                            for p in result))


@dataclass(frozen=True)
class Wrap:
    """One wrapped public callable: ``module[.owner].attr`` as ``span``."""

    span: str
    module: str
    owner: str | None
    attr: str
    observe: Callable | None = None


WRAPS = (
    Wrap("md.neighbor.query", "repro.md.neighbor_list", "NeighborList",
         "pairs", _neighbor_query),
    Wrap("md.neighbor.rebuild", "repro.md.neighbor_list", "NeighborList",
         "rebuild"),
    Wrap("md.cell_list.build", "repro.md.cell_list", "CellList", "build"),
    Wrap("md.cell_list.candidates", "repro.md.cell_list", "CellList",
         "candidate_pairs"),
    Wrap("md.integrate", "repro.md.integrators", "LeapfrogVerlet", "step"),
    Wrap("kernels.neighbor_prefilter", "repro.kernels.numpy_backend", None,
         "neighbor_prefilter"),
    Wrap("potentials.eam.density", "repro.potentials.eam", "EAMPotential",
         "fused_density"),
    Wrap("potentials.eam.embed", "repro.potentials.eam", "EAMPotential",
         "embed"),
    Wrap("potentials.eam.pair_force", "repro.potentials.eam", "EAMPotential",
         "fused_pair_force"),
    Wrap("parallel.compute", "repro.parallel.pipeline",
         "ShardedForcePipeline", "compute"),
    Wrap("parallel.pool_spawn", "repro.parallel.pipeline",
         "ShardedForcePipeline", "__init__"),
    Wrap("core.density_sweep", "repro.core.streaming", "StreamingSweeps",
         "density", _sweep),
    Wrap("core.force_sweep", "repro.core.streaming", "StreamingSweeps",
         "force", _sweep),
    Wrap("core.swap", "repro.core.swap", "SwapEngine", "apply", _swap),
    Wrap("core.cycle_model", "repro.core.cycle_model", "CycleCostModel",
         "step_cycles"),
    Wrap("runtime.build_engine", "repro.runtime.engines", None,
         "build_engine"),
    Wrap("runtime.engine_run", "repro.runtime.runner", "Runner", "run"),
    Wrap("runtime.checkpoint_write", "repro.runtime.checkpoint", None,
         "write_checkpoint", _checkpoint_written),
    Wrap("runtime.checkpoint_read", "repro.runtime.checkpoint", None,
         "read_checkpoint"),
    Wrap("serve.cache.lookup", "repro.serve.cache", "ResultCache", "lookup"),
    Wrap("serve.cache.resume_lookup", "repro.serve.cache", "ResultCache",
         "best_resume"),
    Wrap("serve.cache.put", "repro.serve.cache", "ResultCache", "put"),
)

#: modules imported before patching, so every namespace that imported a
#: wrapped function by name exists and gets the wrapper too
_PRELOAD = ("repro.runtime", "repro.serve", "repro.parallel",
            "repro.kernels.parallel_backend")


def _make_wrapper(fn, wrap: Wrap, rec: SpanRecorder):
    name, observe = wrap.span, wrap.observe

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = rec.enter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(name, t0)
        if observe is not None:
            observe(rec, args, result)
        return result

    return wrapper


class Tracing:
    """Install :data:`WRAPS` around a recorder; restore on exit."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracing already installed")
        for mod in _PRELOAD:
            importlib.import_module(mod)
        try:
            for wrap in WRAPS:
                self._install_one(wrap)
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, wrap: Wrap) -> None:
        module = importlib.import_module(wrap.module)
        if wrap.owner is not None:
            cls = getattr(module, wrap.owner)
            original = cls.__dict__[wrap.attr]
            self._patch(cls, wrap.attr, original,
                        _make_wrapper(original, wrap, self.recorder))
            return
        original = getattr(module, wrap.attr)
        wrapper = _make_wrapper(original, wrap, self.recorder)
        # every namespace that bound the function by name calls it
        # through that binding, so each one is patched
        for name, mod in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    getattr(mod, wrap.attr, None) is original:
                self._patch(mod, wrap.attr, original, wrapper)

    def _patch(self, target, attr: str, original, wrapper) -> None:
        setattr(target, attr, wrapper)
        self._patched.append((target, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    def __enter__(self) -> "Tracing":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
