"""Transport layer: socket parity, 2D topology runs, teardown robustness.

The acceptance bars pinned here: a 2x2 run matches the serial path to
<= 1e-9 (and is bitwise-reproducible for a fixed topology+transport),
an identical spec produces the *bitwise identical* trajectory under
both transports, and teardown never hangs — dead workers, double
closes, and post-mortem commands all surface cleanly.
"""

import os
import signal
import time
import warnings

import numpy as np
import pytest

from repro.kernels import active_backend_name, set_backend
from repro.md.simulation import Simulation
from repro.parallel import ShardedForcePipeline
from repro.parallel.pool import WorkerPool, fork_available
from repro.parallel.transport import (
    TRANSPORTS,
    SocketTransport,
    make_transport,
)
from repro.runtime import RunSpec, SpecError, build_engine
from tests.conftest import small_slab_state

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="parallel backend requires fork"
)


@pytest.fixture(autouse=True)
def _restore_backend():
    base = active_backend_name()
    yield
    set_backend(base)


def _serial_reference(potential, reps=(4, 4, 2), temperature=350.0):
    set_backend("numpy")
    state = small_slab_state("Ta", reps, temperature=temperature)
    sim = Simulation(state, potential, dt_fs=2.0)
    energies, forces = sim.compute_forces()
    return state, energies, forces


def _pipeline_forces(state, potential, **kwargs):
    pipe = ShardedForcePipeline(state, potential, **kwargs)
    try:
        e, f, info = pipe.compute(state.positions)
        halo = pipe.halo_bytes
    finally:
        pipe.close()
    return e, f, info, halo


class TestSocketParity:
    def test_socket_matches_numpy(self, ta_potential):
        state, e_ref, f_ref = _serial_reference(ta_potential)
        e, f, info, _ = _pipeline_forces(
            state, ta_potential, workers=2, transport="socket"
        )
        assert info["pairs"] > 0
        rel = abs(e.sum() - e_ref.sum()) / abs(e_ref.sum())
        assert rel <= 1e-9
        scale = np.max(np.abs(f_ref))
        assert np.max(np.abs(f - f_ref)) <= 1e-9 * scale

    def test_socket_is_bitwise_identical_to_shared(self, ta_potential):
        state, _, _ = _serial_reference(ta_potential)
        e_shm, f_shm, _, halo_shm = _pipeline_forces(
            state, ta_potential, topology=(2, 2), transport="shared"
        )
        e_sock, f_sock, _, halo_sock = _pipeline_forces(
            state, ta_potential, topology=(2, 2), transport="socket"
        )
        # pickling preserves float64 bits and both transports fill the
        # same slot layout, so the fixed-order reduction agrees exactly
        assert np.array_equal(e_shm, e_sock)
        assert np.array_equal(f_shm, f_sock)
        # the logical byte-accounting rule makes the halo numbers
        # comparable across transports
        assert halo_shm == halo_sock
        assert halo_shm[0] > 0 and halo_shm[1] > 0

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="carrier-pigeon"):
            make_transport("carrier-pigeon", 1, {}, {}, {})
        assert TRANSPORTS == ("shared", "socket", "inline")


class Test2DTopology:
    def test_2x2_matches_numpy(self, ta_potential):
        state, e_ref, f_ref = _serial_reference(ta_potential)
        e, f, info, _ = _pipeline_forces(
            state, ta_potential, topology=(2, 2)
        )
        assert info["pairs"] > 0
        rel = abs(e.sum() - e_ref.sum()) / abs(e_ref.sum())
        assert rel <= 1e-9
        scale = np.max(np.abs(f_ref))
        assert np.max(np.abs(f - f_ref)) <= 1e-9 * scale

    def test_topology_conflicts_rejected(self, ta_potential):
        state = small_slab_state("Ta", (4, 4, 2))
        with pytest.raises(ValueError, match="conflicts"):
            ShardedForcePipeline(
                state, ta_potential, workers=3, topology=(2, 2)
            )
        with pytest.raises(ValueError, match="1x1"):
            ShardedForcePipeline(state, ta_potential, topology=(0, 2))


def _run_trajectory(steps=5, seed=3, **spec_kwargs):
    spec = RunSpec(
        element="Ta", reps=(4, 4, 2), steps=steps, seed=seed,
        backend="parallel", **spec_kwargs,
    )
    engine = build_engine(spec)
    try:
        engine.step(steps)
        return (
            engine.state.positions.copy(),
            engine.state.velocities.copy(),
            engine.total_energy(),
        )
    finally:
        engine.close()


class TestTrajectoryReproducibility:
    def test_2x2_bitwise_reproducible(self):
        pos_a, vel_a, e_a = _run_trajectory(topology=(2, 2))
        pos_b, vel_b, e_b = _run_trajectory(topology=(2, 2))
        assert np.array_equal(pos_a, pos_b)
        assert np.array_equal(vel_a, vel_b)
        assert e_a == e_b

    def test_identical_spec_identical_under_both_transports(self):
        pos_shm, vel_shm, e_shm = _run_trajectory(
            topology=(2, 2), transport="shared"
        )
        pos_sock, vel_sock, e_sock = _run_trajectory(
            topology=(2, 2), transport="socket"
        )
        assert np.array_equal(pos_shm, pos_sock)
        assert np.array_equal(vel_shm, vel_sock)
        assert e_shm == e_sock

    def test_2x2_energy_matches_1d_layout(self):
        _, _, e_2d = _run_trajectory(topology=(2, 2))
        _, _, e_1d = _run_trajectory(workers=4)
        assert abs(e_2d - e_1d) / abs(e_1d) <= 1e-9


class TestSpecFields:
    def test_topology_string_normalized(self):
        spec = RunSpec(element="Ta", backend="parallel", topology="2x3")
        assert spec.topology == (2, 3)
        assert spec.to_dict()["topology"] == [2, 3]

    def test_topology_tuple_accepted(self):
        spec = RunSpec(element="Ta", backend="parallel", topology=(4, 1))
        assert spec.topology == (4, 1)

    def test_bad_topology_rejected(self):
        for bad in ("2x", "axb", (0, 2), (1, 2, 3)):
            with pytest.raises(SpecError, match="topology"):
                RunSpec(element="Ta", backend="parallel", topology=bad)

    def test_workers_topology_conflict_rejected(self):
        with pytest.raises(SpecError, match="conflict"):
            RunSpec(
                element="Ta", backend="parallel",
                workers=3, topology=(2, 2),
            )

    def test_bad_transport_rejected(self):
        with pytest.raises(SpecError, match="transport"):
            RunSpec(element="Ta", backend="parallel", transport="udp")

    def test_layout_is_not_physics(self):
        a = RunSpec(element="Ta")
        b = RunSpec(
            element="Ta", backend="parallel",
            topology=(2, 2), transport="socket",
        )
        assert a.spec_hash() == b.spec_hash()

    def test_round_trip_through_dict(self):
        spec = RunSpec(
            element="Ta", backend="parallel",
            topology="2x2", transport="socket",
        )
        again = RunSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.topology == (2, 2)
        assert again.transport == "socket"


class TestTeardownRobustness:
    def test_pool_close_survives_dead_worker(self):
        def _main(conn, wid, shared, cfg):
            while True:
                msg = conn.recv()
                if msg[0] == "stop":
                    break
                conn.send(("ok", 0, 0.0))

        pool = WorkerPool(2, {}, {}, main=_main, name="repro-test")
        victim = pool._procs[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5.0)
        t0 = time.perf_counter()
        pool.close()  # must not hang or raise
        assert time.perf_counter() - t0 < 10.0
        pool.close()  # idempotent
        assert pool.n_workers == 0

    def test_pool_command_reports_dead_worker(self):
        def _main(conn, wid, shared, cfg):
            while True:
                msg = conn.recv()
                if msg[0] == "stop":
                    break
                conn.send(("ok", 0, 0.0))

        pool = WorkerPool(2, {}, {}, main=_main, name="repro-test")
        try:
            os.kill(pool._procs[1].pid, signal.SIGKILL)
            pool._procs[1].join(timeout=5.0)
            with pytest.raises(RuntimeError, match="died"):
                for _ in range(5):  # pipe buffering may delay detection
                    pool.command(("ping",))
                    time.sleep(0.05)
        finally:
            pool.close()

    def test_pipeline_close_is_idempotent(self, ta_potential):
        state = small_slab_state("Ta", (4, 4, 2))
        pipe = ShardedForcePipeline(state, ta_potential, workers=2)
        pipe.compute(state.positions)
        pipe.close()
        pipe.close()  # second close is a no-op, not an error

    def test_socket_transport_close_is_idempotent(self, ta_potential):
        state = small_slab_state("Ta", (4, 4, 2))
        pipe = ShardedForcePipeline(
            state, ta_potential, workers=2, transport="socket"
        )
        pipe.compute(state.positions)
        tp = pipe.transport
        assert isinstance(tp, SocketTransport)
        tp.close()
        tp.close()
        pipe.close()

    def test_simulation_close_reaps_socket_workers(self, ta_potential):
        state = small_slab_state("Ta", (4, 4, 2))
        set_backend("parallel")
        sim = Simulation(
            state, ta_potential, workers=2, transport="socket"
        )
        sim.run(1)
        procs = list(sim._pipeline.transport._procs)
        sim.close()
        assert all(not p.is_alive() for p in procs)


class TestTelemetry:
    def test_engine_reports_layout_and_halo(self):
        spec = RunSpec(
            element="Ta", reps=(4, 4, 2), steps=3,
            backend="parallel", topology=(2, 2), transport="socket",
        )
        engine = build_engine(spec)
        try:
            engine.step(3)
            telemetry = engine.telemetry()
        finally:
            engine.close()
        c = telemetry.counters
        assert c["topology"] == [2, 2]
        assert c["transport"] == "socket"
        assert c["halo_bytes_sent"] > 0
        assert c["halo_bytes_recv"] > 0
        assert c["halo_seconds"] >= 0.0

    def test_halo_exchange_traced_as_child_span(self, ta_potential):
        from repro.obs import Tracer, required_phases

        state = small_slab_state("Ta", (4, 4, 2))
        set_backend("parallel")
        tracer = Tracer()
        sim = Simulation(
            state, ta_potential, tracer=tracer, topology=(2, 2)
        )
        try:
            sim.run(2)
        finally:
            sim.close()
        totals = tracer.phase_totals()
        required = required_phases("reference", sharded=True)
        assert "halo_exchange" in required
        for phase in required:
            assert phase in totals

    def test_required_phases_serial_fallback_has_no_halo(self):
        from repro.obs import required_phases

        assert "halo_exchange" not in required_phases("reference")
        assert "halo_exchange" not in required_phases(
            "wse", swap_interval=0, sharded=True
        )


class TestEnvDefault:
    def test_env_var_selects_transport(self, ta_potential, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_TRANSPORT", "socket")
        state = small_slab_state("Ta", (4, 4, 2))
        pipe = ShardedForcePipeline(state, ta_potential, workers=2)
        try:
            assert pipe.transport_kind == "socket"
        finally:
            pipe.close()

    def test_explicit_argument_wins(self, ta_potential, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_TRANSPORT", "socket")
        state = small_slab_state("Ta", (4, 4, 2))
        pipe = ShardedForcePipeline(
            state, ta_potential, workers=2, transport="shared"
        )
        try:
            assert pipe.transport_kind == "shared"
        finally:
            pipe.close()


class TestAutoSelection:
    """``transport="auto"`` resolution against the host's core budget.

    The policy under test: the forked tier only pays off with spare
    cores, so auto picks inline when cpus < workers (warning once per
    shape) or when there is a single worker (silently); otherwise it
    picks shared.  ``os.cpu_count() -> None`` — a real possibility the
    docs allow — must resolve like a 1-CPU host, never crash.
    """

    @staticmethod
    def _resolve(monkeypatch, cpus, workers):
        import repro.parallel as par
        from repro.parallel.transport import resolve_transport

        # force the os.cpu_count() fallback path (including None) by
        # removing the affinity API resolve_transport prefers
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        par.reset_warnings()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            kind = resolve_transport("auto", workers)
        return kind, [str(w.message) for w in caught]

    @pytest.mark.parametrize(
        "cpus,workers,expected",
        [
            (None, 2, "inline"),  # unknown core count == 1-CPU host
            (1, 2, "inline"),
            (1, 4, "inline"),
            (2, 4, "inline"),
            (4, 4, "shared"),
            (8, 2, "shared"),
        ],
    )
    def test_core_budget_picks_tier(
        self, monkeypatch, cpus, workers, expected
    ):
        kind, messages = self._resolve(monkeypatch, cpus, workers)
        assert kind == expected
        if expected == "inline":
            assert len(messages) == 1
            assert "picked the inline tier" in messages[0]
            assert f"{workers} workers" in messages[0]
        else:
            assert messages == []

    @pytest.mark.parametrize("cpus", [None, 1, 8])
    def test_single_worker_is_silently_inline(self, monkeypatch, cpus):
        kind, messages = self._resolve(monkeypatch, cpus, 1)
        assert kind == "inline"
        assert messages == []

    def test_starved_pick_warns_once_per_shape(self, monkeypatch):
        import repro.parallel as par
        from repro.parallel.transport import resolve_transport

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        par.reset_warnings()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            resolve_transport("auto", 2)
            resolve_transport("auto", 2)  # same shape: no re-warn
            resolve_transport("auto", 4)  # new shape: warns again
        assert len(caught) == 2

    def test_explicit_kind_passes_through(self, monkeypatch):
        from repro.parallel.transport import resolve_transport

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert resolve_transport("socket", 8) == "socket"
