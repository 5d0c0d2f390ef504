"""Reference MD engine integration tests: conservation laws, observers."""

import numpy as np
import pytest

from repro.md.integrators import LeapfrogVerlet
from repro.md.simulation import Simulation
from repro.md.thermostat import BerendsenThermostat
from tests.conftest import bulk_state, small_slab_state


class TestConservation:
    def test_energy_conservation_bulk_ta(self, ta_potential):
        state = bulk_state("Ta", (3, 3, 3), temperature=290.0)
        sim = Simulation(state, ta_potential, dt_fs=2.0)
        e0 = sim.potential_energy() + state.kinetic_energy()
        sim.run(100)
        e1 = sim.potential_energy() + state.kinetic_energy()
        assert abs(e1 - e0) / state.n_atoms < 1e-3  # eV/atom

    def test_energy_conservation_open_slab(self, ta_potential):
        state = small_slab_state("Ta", (5, 5, 2), temperature=200.0)
        sim = Simulation(state, ta_potential, dt_fs=2.0)
        e0 = sim.potential_energy() + state.kinetic_energy()
        sim.run(100)
        e1 = sim.potential_energy() + state.kinetic_energy()
        assert abs(e1 - e0) / state.n_atoms < 1e-3

    def test_momentum_conservation(self, ta_potential):
        state = small_slab_state("Ta", (4, 4, 2), temperature=290.0)
        sim = Simulation(state, ta_potential, dt_fs=2.0)
        p0 = state.momentum()
        sim.run(80)
        assert np.allclose(state.momentum(), p0, atol=1e-7 * state.n_atoms)

    def test_smaller_timestep_conserves_better(self, ta_potential):
        drifts = []
        for dt in (4.0, 1.0):
            state = bulk_state("Ta", (3, 3, 3), temperature=400.0, seed=9)
            sim = Simulation(state, ta_potential, dt_fs=dt)
            e0 = sim.potential_energy() + state.kinetic_energy()
            sim.run(int(100 * 4.0 / dt))  # same simulated time
            e1 = sim.potential_energy() + state.kinetic_energy()
            drifts.append(abs(e1 - e0))
        assert drifts[1] < drifts[0]


class TestCrystalStability:
    def test_cold_crystal_stays_put(self, ta_potential):
        state = bulk_state("Ta", (3, 3, 3), temperature=0.0)
        ref = state.positions.copy()
        sim = Simulation(state, ta_potential)
        sim.run(50)
        assert np.max(np.abs(state.positions - ref)) < 1e-8

    def test_room_temperature_crystal_does_not_melt(self, ta_potential):
        state = bulk_state("Ta", (3, 3, 3), temperature=290.0, seed=2)
        ref = state.positions.copy()
        sim = Simulation(state, ta_potential)
        sim.run(150)
        # max displacement well below the nearest-neighbor distance
        disp = np.linalg.norm(state.positions - ref, axis=1)
        assert disp.max() < 0.5 * 2.86


class TestDriverMechanics:
    def test_observer_called_at_interval(self, ta_potential):
        state = small_slab_state("Ta", (3, 3, 2))
        sim = Simulation(state, ta_potential)
        seen = []
        sim.add_observer(5, lambda rec: seen.append(rec.step))
        sim.run(20)
        assert seen == [5, 10, 15, 20]

    def test_observer_record_contents(self, ta_potential):
        state = small_slab_state("Ta", (3, 3, 2))
        sim = Simulation(state, ta_potential)
        records = []
        sim.add_observer(10, records.append)
        sim.run(10)
        rec = records[0]
        assert rec.energies.total == pytest.approx(
            rec.energies.potential + rec.energies.kinetic
        )
        assert rec.max_force > 0

    def test_bad_observer_interval_rejected(self, ta_potential):
        sim = Simulation(small_slab_state("Ta", (3, 3, 2)), ta_potential)
        with pytest.raises(ValueError):
            sim.add_observer(0, lambda r: None)

    def test_negative_steps_rejected(self, ta_potential):
        sim = Simulation(small_slab_state("Ta", (3, 3, 2)), ta_potential)
        with pytest.raises(ValueError):
            sim.run(-1)

    def test_equilibrate_restores_thermostat(self, ta_potential):
        state = small_slab_state("Ta", (3, 3, 2), temperature=100.0)
        sim = Simulation(state, ta_potential)
        sim.equilibrate(10, 290.0)
        assert sim.thermostat is None

    def test_equilibration_warms_system(self, ta_potential):
        state = small_slab_state("Ta", (4, 4, 2), temperature=50.0, seed=3)
        sim = Simulation(state, ta_potential)
        sim.equilibrate(300, 290.0, tau_fs=50.0)
        assert state.temperature() > 150.0


def _hand_stepped(potential, state, n_steps, dt_fs, thermostat=None):
    """The step update spelled out: forces, leap-frog, then thermostat."""
    forces_of = Simulation(state, potential, dt_fs=dt_fs)
    integrator = LeapfrogVerlet(dt_fs)
    for _ in range(n_steps):
        _, forces = forces_of.compute_forces()
        integrator.step(state, forces)
        if thermostat is not None:
            thermostat.apply(state, dt_fs)
    return state


class TestStepUpdate:
    """``Simulation.run`` has one update path: the leap-frog kick+drift
    of :class:`LeapfrogVerlet` on the step's forces, then the optional
    thermostat.  Trajectories match that sequence bit for bit."""

    def test_run_is_forces_then_leapfrog(self, ta_potential):
        ref = _hand_stepped(
            ta_potential, small_slab_state("Ta", (4, 4, 2), 150.0), 8, 2.0
        )
        state = small_slab_state("Ta", (4, 4, 2), 150.0)
        Simulation(state, ta_potential, dt_fs=2.0).run(8)
        assert np.array_equal(state.positions, ref.positions)
        assert np.array_equal(state.velocities, ref.velocities)

    def test_thermostat_applies_after_update(self, ta_potential):
        ref = _hand_stepped(
            ta_potential, small_slab_state("Ta", (3, 3, 2), 300.0), 6, 2.0,
            thermostat=BerendsenThermostat(100.0, 50.0),
        )
        state = small_slab_state("Ta", (3, 3, 2), 300.0)
        sim = Simulation(
            state, ta_potential, dt_fs=2.0,
            thermostat=BerendsenThermostat(100.0, 50.0),
        )
        sim.run(6)
        assert np.array_equal(state.positions, ref.positions)
        assert np.array_equal(state.velocities, ref.velocities)

    def test_equilibrate_is_a_thermostatted_run(self, ta_potential):
        ref = _hand_stepped(
            ta_potential, small_slab_state("Ta", (3, 3, 2), 50.0), 5, 2.0,
            thermostat=BerendsenThermostat(290.0, 40.0),
        )
        state = small_slab_state("Ta", (3, 3, 2), 50.0)
        Simulation(state, ta_potential, dt_fs=2.0).equilibrate(
            5, 290.0, tau_fs=40.0
        )
        assert np.array_equal(state.positions, ref.positions)
        assert np.array_equal(state.velocities, ref.velocities)
