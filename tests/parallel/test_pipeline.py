"""End-to-end pipeline correctness: parity with numpy, reproducibility,
backend gating, telemetry.

The acceptance bar these tests pin: the parallel backend agrees with
the serial numpy path on energies to <= 1e-9 relative for 1/2/4
workers, trajectories are bitwise-reproducible for a fixed worker
count and seed, and unsupported workloads fall back (once-warned) to
the serial path instead of failing.
"""

import warnings

import numpy as np
import pytest

import repro.parallel as par
from repro.kernels import active_backend_name, set_backend
from repro.md.simulation import Simulation
from repro.parallel import ShardedForcePipeline, unsupported_reason
from repro.parallel.pool import fork_available
from repro.runtime import RunSpec, SpecError, build_engine
from tests.conftest import bulk_state, small_slab_state

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="parallel backend requires fork"
)

WORKER_COUNTS = (1, 2, 4)


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


class TestForceParity:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_energies_and_forces_match_numpy(self, ta_potential, workers):
        state, e_ref, f_ref = _serial_reference(ta_potential)
        pipe = ShardedForcePipeline(state, ta_potential, workers=workers)
        try:
            e_par, f_par, info = pipe.compute(state.positions)
        finally:
            pipe.close()
        assert info["pairs"] > 0
        rel = abs(e_par.sum() - e_ref.sum()) / abs(e_ref.sum())
        assert rel <= 1e-9
        scale = np.max(np.abs(f_ref))
        assert np.max(np.abs(f_par - f_ref)) <= 1e-9 * scale

    def test_single_worker_is_bitwise_serial(self, ta_potential):
        state, e_ref, f_ref = _serial_reference(ta_potential)
        pipe = ShardedForcePipeline(state, ta_potential, workers=1)
        try:
            e_par, f_par, _ = pipe.compute(state.positions)
        finally:
            pipe.close()
        # one shard owns every pair: identical operation order, so the
        # results are the serial ones bit for bit
        assert np.array_equal(e_par, e_ref)
        assert np.array_equal(f_par, f_ref)

    def test_pair_count_matches_serial(self, ta_potential):
        state, _, _ = _serial_reference(ta_potential)
        set_backend("numpy")
        serial = Simulation(state, ta_potential)
        serial.compute_forces()
        pipe = ShardedForcePipeline(state, ta_potential, workers=3)
        try:
            _, _, info = pipe.compute(state.positions)
        finally:
            pipe.close()
        assert info["pairs"] == serial.stats.pairs_last


def _run_trajectory(workers: int, steps: int = 5, seed: int = 3):
    spec = RunSpec(
        element="Ta", reps=(4, 4, 2), steps=steps, seed=seed,
        backend="parallel", workers=workers,
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


class TestReproducibility:
    def test_bitwise_reproducible_for_fixed_workers_and_seed(self):
        pos_a, vel_a, e_a = _run_trajectory(workers=2)
        pos_b, vel_b, e_b = _run_trajectory(workers=2)
        assert np.array_equal(pos_a, pos_b)
        assert np.array_equal(vel_a, vel_b)
        assert e_a == e_b

    def test_energy_independent_of_worker_count(self):
        energies = {}
        positions = {}
        for w in WORKER_COUNTS:
            positions[w], _, energies[w] = _run_trajectory(workers=w)
        e1 = energies[1]
        for w in WORKER_COUNTS[1:]:
            assert abs(energies[w] - e1) / abs(e1) <= 1e-9
            assert np.max(np.abs(positions[w] - positions[1])) < 1e-10


class TestGating:
    def test_periodic_box_is_unsupported(self, ta_potential):
        state = bulk_state("Ta", (3, 3, 3))
        reason = unsupported_reason(state.box, ta_potential)
        assert reason is not None and "periodic" in reason

    def test_open_slab_is_supported(self, ta_potential):
        state = small_slab_state("Ta", (4, 4, 2))
        assert unsupported_reason(state.box, ta_potential) is None

    def test_fallback_warns_once_and_stays_correct(self, ta_potential):
        state = bulk_state("Ta", (3, 3, 3), temperature=200.0)
        par._warned_reasons.clear()
        set_backend("parallel")
        with pytest.warns(RuntimeWarning, match="periodic"):
            sim = Simulation(state, ta_potential)
            e_fallback = sim.potential_energy()
        assert sim._pipeline is None
        # second construction: same reason, no second warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Simulation(state, ta_potential).compute_forces()
        set_backend("numpy")
        e_serial = Simulation(state, ta_potential).potential_energy()
        assert e_fallback == e_serial

    def test_spec_rejects_negative_workers(self):
        with pytest.raises(SpecError, match="workers"):
            RunSpec(element="Ta", workers=-1)

    def test_workers_is_not_a_physics_field(self):
        a = RunSpec(element="Ta", workers=0)
        b = RunSpec(element="Ta", workers=4, backend="parallel")
        assert a.spec_hash() == b.spec_hash()


def _inline_pipeline(potential, **kw):
    state = small_slab_state("Ta", (4, 4, 2), temperature=200.0)
    return state, ShardedForcePipeline(
        state, potential, transport="inline", **kw
    )


class TestHostPolicy:
    """Scheduling choices fixed by the layout and the host, not by
    environment overrides.  Inline transport: no worker processes."""

    def test_single_tile_keeps_serial_bin_grid(self, ta_potential):
        # the w=1 bitwise-serial contract needs the serial radius-1
        # enumeration order
        _, pipe = _inline_pipeline(ta_potential, workers=1)
        try:
            assert [w.cells.subdivide for w in pipe.transport._workers] \
                == [1]
        finally:
            pipe.close()

    @pytest.mark.parametrize("topology", [(2, 1), (2, 2)])
    def test_multi_tile_builds_bin_at_half_reach(self, ta_potential,
                                                 topology):
        _, pipe = _inline_pipeline(ta_potential, topology=topology)
        try:
            subdivide = [w.cells.subdivide for w in pipe.transport._workers]
        finally:
            pipe.close()
        assert subdivide == [2] * (topology[0] * topology[1])

    def test_staggers_when_workers_exceed_cpus(self, ta_potential,
                                               monkeypatch):
        monkeypatch.setattr("repro.parallel.pipeline.usable_cpus", lambda: 1)
        _, pipe = _inline_pipeline(ta_potential, workers=2)
        try:
            assert pipe.stagger is True
        finally:
            pipe.close()

    def test_no_stagger_with_spare_cpus(self, ta_potential, monkeypatch):
        monkeypatch.setattr("repro.parallel.pipeline.usable_cpus", lambda: 8)
        _, pipe = _inline_pipeline(ta_potential, workers=2)
        try:
            assert pipe.stagger is False
        finally:
            pipe.close()

    @pytest.mark.parametrize("cpus, staggered", [(1, True), (8, False)])
    def test_rebuild_dispatch_follows_stagger(self, ta_potential,
                                              monkeypatch, cpus, staggered):
        """Only the rebuild round is dispatched as a blocking command,
        one rank at a time on a starved host; steady rounds post and
        collect and never stagger."""
        monkeypatch.setattr(
            "repro.parallel.pipeline.usable_cpus", lambda: cpus
        )
        state, pipe = _inline_pipeline(ta_potential, workers=2)
        seen = []
        command = pipe.transport.command

        def spy(msg, parts=None, *, stagger=False):
            seen.append((msg[0], stagger))
            return command(msg, parts, stagger=stagger)

        pipe.transport.command = spy
        try:
            pipe.compute(state.positions)  # first call rebuilds
            pipe.compute(state.positions)  # steady round: reuse
        finally:
            pipe.close()
        assert seen == [("rebuild", staggered)]


class TestTelemetry:
    def test_engine_reports_workers_and_shard_seconds(self):
        spec = RunSpec(
            element="Ta", reps=(4, 4, 2), steps=3,
            backend="parallel", workers=2,
        )
        engine = build_engine(spec)
        try:
            engine.step(3)
            telemetry = engine.telemetry()
        finally:
            engine.close()
        assert telemetry.counters["workers"] == 2
        shard = telemetry.counters["shard_seconds"]
        assert set(shard) == {"neighbor", "density", "force"}
        assert all(len(v) == 2 for v in shard.values())

    def test_pool_spawn_traced_as_its_own_phase(self, ta_potential):
        from repro.obs import Tracer

        state = small_slab_state("Ta", (4, 4, 2))
        set_backend("parallel")
        tracer = Tracer()
        sim = Simulation(state, ta_potential, tracer=tracer, workers=2)
        try:
            sim.run(2)
        finally:
            sim.close()
        totals = tracer.phase_totals()
        assert "parallel.pool" in totals
        for phase in ("neighbor", "density", "embedding", "pair_force"):
            assert phase in totals

    def test_overlap_telemetry_and_spans(self, monkeypatch):
        from repro.obs import Tracer

        monkeypatch.delenv("REPRO_PARALLEL_NO_OVERLAP", raising=False)
        spec = RunSpec(
            element="Ta", reps=(4, 4, 2), steps=4,
            backend="parallel", workers=2,
        )
        engine = build_engine(spec, tracer=Tracer())
        try:
            engine.step(4)
            telemetry = engine.telemetry()
            totals = engine.tracer.phase_totals()
        finally:
            engine.close()
        c = telemetry.counters
        assert c["overlap_on"] is True
        assert c["overlap_seconds"] >= 0.0
        assert c["halo_wait_seconds"] >= 0.0
        assert 0.0 <= c["overlap_efficiency"] <= 1.0
        assert "parallel.overlap" in totals
        assert "parallel.halo_wait" in totals

    def test_no_overlap_control_reports_blocking(self, monkeypatch):
        from repro.obs import Tracer

        monkeypatch.setenv("REPRO_PARALLEL_NO_OVERLAP", "1")
        spec = RunSpec(
            element="Ta", reps=(4, 4, 2), steps=3,
            backend="parallel", workers=2,
        )
        engine = build_engine(spec, tracer=Tracer())
        try:
            engine.step(3)
            telemetry = engine.telemetry()
            totals = engine.tracer.phase_totals()
        finally:
            engine.close()
        c = telemetry.counters
        assert c["overlap_on"] is False
        assert c["overlap_efficiency"] == 0.0
        assert "parallel.overlap" not in totals
        assert "parallel.halo_wait" not in totals
