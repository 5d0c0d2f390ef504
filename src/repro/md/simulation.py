"""Reference MD simulation driver.

Composes neighbor search, potential evaluation and leap-frog
integration into the Verlet loop the paper times ("Loop time" in the
LAMMPS log, Sec. IV-B).  Observers may be attached to sample state at
an interval without cluttering the loop.  The driver keeps per-phase
wall-time and neighbor-list statistics (:class:`SimStats`) — the
observability hook the ``repro bench`` harness reads.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.md.integrators import LeapfrogVerlet
from repro.md.neighbor_list import NeighborList
from repro.md.observables import EnergyReport, energy_report
from repro.md.state import AtomsState
from repro.md.thermostat import BerendsenThermostat
from repro.obs import NULL_TRACER
from repro.potentials.base import Potential

__all__ = ["Simulation", "SimStats", "StepRecord"]


@dataclass
class SimStats:
    """Accumulated loop statistics since construction.

    Wall times split the Verlet loop into its three phases: neighbor
    search (cell-list rebuild + distance filter), force evaluation
    (the potential kernels), and integration (leap-frog + thermostat).
    """

    steps: int = 0
    force_evaluations: int = 0
    neighbor_rebuilds: int = 0
    pairs_last: int = 0
    pairs_total: int = 0
    time_neighbor_s: float = 0.0
    time_force_s: float = 0.0
    time_integrate_s: float = 0.0

    @property
    def wall_time_s(self) -> float:
        """Total accounted wall time across the three phases."""
        return self.time_neighbor_s + self.time_force_s + self.time_integrate_s

    @property
    def pairs_per_step(self) -> float:
        """Mean stored (half) pairs per force evaluation."""
        if self.force_evaluations == 0:
            return 0.0
        return self.pairs_total / self.force_evaluations

    @property
    def steps_per_s(self) -> float:
        """Throughput implied by the accounted wall time."""
        if self.steps == 0 or self.wall_time_s == 0.0:
            return 0.0
        return self.steps / self.wall_time_s


@dataclass
class StepRecord:
    """Per-sample record emitted to observers."""

    step: int
    energies: EnergyReport
    max_force: float
    stats: SimStats | None = None


class Simulation:
    """Reference MD loop: neighbor search -> forces -> leap-frog.

    Parameters
    ----------
    state:
        Atom state (mutated in place by :meth:`run`).
    potential:
        Interatomic potential.
    dt_fs:
        Timestep in femtoseconds (the paper uses 2 fs).
    skin:
        Neighbor-list skin distance (A).
    thermostat:
        Optional Berendsen thermostat applied after each step.
    tracer:
        Optional :class:`repro.obs.Tracer`; phases are emitted through
        it in addition to the always-on :class:`SimStats` accounting.
    workers:
        Worker count for the sharded force pipeline when the
        ``parallel`` kernel backend is active (``None``/0 = one per
        CPU).  Ignored under serial backends.
    topology:
        ``(px, py)`` domain-grid shape for the sharded pipeline
        (``None`` = 1D ``workers x 1`` columns).  Layout, never
        physics.  Ignored under serial backends.
    transport:
        Sharded-pipeline transport (``"shared"``/``"socket"``/
        ``"inline"``/``"auto"``; ``None`` reads
        ``REPRO_PARALLEL_TRANSPORT``, defaulting to ``auto``).
        Ignored under serial backends.
    """

    def __init__(
        self,
        state: AtomsState,
        potential: Potential,
        *,
        dt_fs: float = 2.0,
        skin: float = 0.5,
        thermostat: BerendsenThermostat | None = None,
        tracer=None,
        workers: int | None = None,
        topology: tuple[int, int] | None = None,
        transport: str | None = None,
    ) -> None:
        from repro.kernels import active_backend, active_backend_name

        self.state = state
        self.potential = potential
        self.dt_fs = float(dt_fs)
        self.skin = float(skin)
        self.workers = workers
        self.topology = topology
        self.transport = transport
        self.integrator = LeapfrogVerlet(dt_fs)
        self.neighbors = NeighborList(state.box, potential.cutoff, skin=skin)
        self.thermostat = thermostat
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.step_count = 0
        self.stats = SimStats()
        self._observers: list[tuple[int, Callable[[StepRecord], None]]] = []
        self._pipeline = None
        self._close_lock = threading.Lock()
        # Pipeline construction (fork + arena) is deferred to the first
        # force evaluation so its cost lands in the traced
        # ``parallel.pool`` phase, not in engine construction.
        self._parallel_pending = bool(
            active_backend_name() == "parallel"
            and getattr(active_backend(), "provides_pipeline", False)
        )

    def close(self) -> None:
        """Release the parallel pipeline, if one was spawned.

        Idempotent and thread-safe: the serve scheduler may call this
        twice (cancellation path + worker-thread cleanup) and from a
        different thread than the one that ran the loop.
        """
        self._parallel_pending = False
        with self._close_lock:
            pipeline, self._pipeline = self._pipeline, None
        if pipeline is not None:
            pipeline.close()

    def _init_pipeline(self) -> None:
        """First-use pipeline spawn, attributed to ``parallel.pool``."""
        from repro.parallel import (
            ShardedForcePipeline,
            unsupported_reason,
            warn_fallback,
        )

        self._parallel_pending = False
        reason = unsupported_reason(self.state.box, self.potential)
        if reason is not None:
            warn_fallback(reason)
            return
        with self.tracer.phase("parallel.pool", spawn=1):
            self._pipeline = ShardedForcePipeline(
                self.state,
                self.potential,
                skin=self.skin,
                workers=self.workers,
                topology=self.topology,
                transport=self.transport,
            )

    def add_observer(
        self, interval: int, fn: Callable[[StepRecord], None]
    ) -> None:
        """Call ``fn(record)`` every ``interval`` steps."""
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self._observers.append((interval, fn))

    def compute_forces(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-atom energies and forces at the current positions."""
        tr = self.tracer
        if self._parallel_pending:
            self._init_pipeline()
        if self._pipeline is not None:
            energies, forces, info = self._pipeline.compute(
                self.state.positions, tr
            )
            st = self.stats
            st.force_evaluations += 1
            st.neighbor_rebuilds += info["rebuilds"]
            st.pairs_last = info["pairs"]
            st.pairs_total += info["pairs"]
            st.time_neighbor_s += info["t_neighbor"]
            st.time_force_s += info["t_force"]
            return energies, forces
        builds_before = self.neighbors.n_builds
        t0 = time.perf_counter()
        with tr.phase("neighbor") as ph:
            pairs = self.neighbors.pairs(self.state.positions)
            ph.add(
                pairs=pairs.n_pairs,
                rebuilds=self.neighbors.n_builds - builds_before,
            )
        t1 = time.perf_counter()
        if self.potential.supports_tracer and tr.enabled:
            # EAM-style potentials split force work into the taxonomy's
            # density/embedding/pair_force phases themselves.
            out = self.potential.compute(
                self.state.n_atoms, pairs, self.state.types, tracer=tr
            )
        elif tr.enabled:
            with tr.phase("pair_force", pairs=pairs.n_pairs):
                out = self.potential.compute(
                    self.state.n_atoms, pairs, self.state.types
                )
        else:
            out = self.potential.compute(
                self.state.n_atoms, pairs, self.state.types
            )
        t2 = time.perf_counter()
        st = self.stats
        st.force_evaluations += 1
        st.neighbor_rebuilds += self.neighbors.n_builds - builds_before
        st.pairs_last = pairs.n_pairs
        st.pairs_total += pairs.n_pairs
        st.time_neighbor_s += t1 - t0
        st.time_force_s += t2 - t1
        return out

    def potential_energy(self) -> float:
        """Total potential energy at the current positions (eV)."""
        e, _ = self.compute_forces()
        return float(np.sum(e))

    def run(self, n_steps: int) -> None:
        """Advance ``n_steps`` timesteps."""
        if n_steps < 0:
            raise ValueError(f"n_steps must be non-negative, got {n_steps}")
        tr = self.tracer
        for _ in range(n_steps):
            # the "step" envelope's self-time is the loop glue between
            # phases (LAMMPS's "Other" row), so traced time tiles the
            # engine wall time
            with tr.phase("step"):
                energies, forces = self.compute_forces()
                t0 = time.perf_counter()
                with tr.phase("integrate"):
                    self.integrator.step(self.state, forces)
                    if self.thermostat is not None:
                        self.thermostat.apply(self.state, self.dt_fs)
                self.stats.time_integrate_s += time.perf_counter() - t0
                self.step_count += 1
                self.stats.steps += 1
                if self._observers:
                    self._notify(energies, forces)

    def _notify(self, energies: np.ndarray, forces: np.ndarray) -> None:
        due = [fn for iv, fn in self._observers if self.step_count % iv == 0]
        if not due:
            return
        record = StepRecord(
            step=self.step_count,
            energies=energy_report(self.state, float(np.sum(energies))),
            max_force=float(np.max(np.abs(forces))) if len(forces) else 0.0,
            stats=replace(self.stats),
        )
        for fn in due:
            fn(record)

    def equilibrate(
        self, n_steps: int, temperature: float, tau_fs: float = 100.0
    ) -> None:
        """Run with a temporary Berendsen thermostat (paper Sec. IV-B prep)."""
        saved = self.thermostat
        self.thermostat = BerendsenThermostat(temperature, tau_fs)
        try:
            self.run(n_steps)
        finally:
            self.thermostat = saved
