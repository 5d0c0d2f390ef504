"""Backend registry + numpy kernel correctness tests."""

import numpy as np
import pytest

import repro.kernels as kernels
from repro.kernels import (
    DEFAULT_BACKEND,
    ENV_VAR,
    KERNEL_FUNCTIONS,
    active_backend,
    active_backend_name,
    available_backends,
    backend_status,
    register_backend,
    set_backend,
)
from repro.kernels import numpy_backend


@pytest.fixture(autouse=True)
def restore_backend():
    """Every test leaves the process-wide registry back on numpy."""
    yield
    set_backend(DEFAULT_BACKEND)


class TestRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in available_backends()

    def test_default_active(self):
        set_backend(DEFAULT_BACKEND)
        assert active_backend_name() == "numpy"
        assert active_backend() is numpy_backend

    def test_unknown_backend_falls_back_with_warning(self):
        with pytest.warns(RuntimeWarning, match="falling back"):
            name = set_backend("no-such-backend")
        assert name == "numpy"
        assert active_backend_name() == "numpy"

    def test_env_var_resolution(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        monkeypatch.setattr(kernels, "_active", None)
        monkeypatch.setattr(kernels, "_active_name", None)
        assert active_backend_name() == "numpy"

    def test_incomplete_backend_rejected(self):
        """No per-function fills: a backend missing any one interface
        function is rejected, naming exactly that function."""
        for missing in KERNEL_FUNCTIONS:
            probe = type("Probe", (), {
                fn: staticmethod(getattr(numpy_backend, fn))
                for fn in KERNEL_FUNCTIONS if fn != missing
            })
            register_backend("one-short-probe", lambda: probe())
            try:
                with pytest.raises(TypeError) as err:
                    set_backend("one-short-probe")
                assert str(err.value).endswith(f"[{missing!r}]")
            finally:
                kernels._loaders.pop("one-short-probe", None)
        assert active_backend_name() == "numpy"

    def test_status_reports_ok_for_numpy(self):
        assert backend_status()["numpy"] == "ok"

    def test_fallback_warns_once_per_name(self):
        # a campaign calling set_backend per run must not spam warnings;
        # the name here is unique to this test so the first call is
        # guaranteed to be this process's first warning for it
        import warnings as _warnings

        with pytest.warns(RuntimeWarning, match="falling back"):
            assert set_backend("warn-dedupe-probe") == "numpy"
        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            assert set_backend("warn-dedupe-probe") == "numpy"
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] \
            == []

    def test_reset_warnings_rearms_fallback(self):
        with pytest.warns(RuntimeWarning, match="falling back"):
            set_backend("warn-rearm-probe")
        kernels.reset_warnings()
        with pytest.warns(RuntimeWarning, match="warn-rearm-probe"):
            assert set_backend("warn-rearm-probe") == "numpy"

    def test_import_error_backend_falls_back_with_reason(self):
        """A backend whose platform cannot host it degrades to numpy;
        the import failure is the reason reported everywhere."""

        def loader():
            raise ImportError("toolchain absent")

        register_backend("import-error-probe", loader)
        try:
            with pytest.warns(RuntimeWarning, match="toolchain absent"):
                assert set_backend("import-error-probe") == "numpy"
            assert active_backend() is numpy_backend
            assert "import-error-probe" not in available_backends()
            assert backend_status()["import-error-probe"] \
                == "toolchain absent"
        finally:
            kernels._loaders.pop("import-error-probe", None)
            kernels._failures.pop("import-error-probe", None)

    def test_reregister_replaces_resolved_backend(self):
        """Registering a name again drops the cached module, so the
        next selection loads the new one."""
        first = type("First", (), {
            fn: staticmethod(getattr(numpy_backend, fn))
            for fn in KERNEL_FUNCTIONS
        })()
        second = type("Second", (), {
            fn: staticmethod(getattr(numpy_backend, fn))
            for fn in KERNEL_FUNCTIONS
        })()
        register_backend("reregister-probe", lambda: first)
        try:
            set_backend("reregister-probe")
            assert active_backend() is first
            register_backend("reregister-probe", lambda: second)
            set_backend("reregister-probe")
            assert active_backend() is second
            assert active_backend_name() == "reregister-probe"
        finally:
            kernels._loaders.pop("reregister-probe", None)
            kernels._resolved.pop("reregister-probe", None)

    @pytest.mark.skipif(
        "parallel" not in available_backends(),
        reason="parallel backend requires fork",
    )
    def test_parallel_reexports_numpy_kernels(self):
        """One kernel implementation: ``parallel`` hands out the numpy
        functions themselves, so its inner loops cannot drift."""
        from repro.kernels import parallel_backend

        for fn in KERNEL_FUNCTIONS:
            assert getattr(parallel_backend, fn) is getattr(numpy_backend, fn)
        assert parallel_backend.provides_pipeline is True


def _random_spline_inputs(seed, n_points=200, n_seg=17):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(n_seg, 4))
    k = rng.integers(0, n_seg, size=n_points)
    dx = rng.uniform(0.0, 0.5, size=n_points)
    return coeffs, k, dx


class TestKernelContracts:
    """Every available backend must agree with the literal definition."""

    @pytest.fixture(params=sorted(set(available_backends())))
    def backend(self, request):
        return set_backend(request.param) and active_backend()

    def test_interface_complete(self, backend):
        for fn in KERNEL_FUNCTIONS:
            assert callable(getattr(backend, fn))

    def test_spline_eval_matches_horner(self, backend):
        coeffs, k, dx = _random_spline_inputs(0)
        val, der = backend.spline_eval(coeffs, k, dx)
        c = coeffs[k]
        expect_v = c[:, 0] + dx * (c[:, 1] + dx * (c[:, 2] + dx * c[:, 3]))
        expect_d = c[:, 1] + 2.0 * c[:, 2] * dx + 3.0 * c[:, 3] * dx * dx
        assert np.allclose(val, expect_v, rtol=1e-14, atol=1e-14)
        assert np.allclose(der, expect_d, rtol=1e-13, atol=1e-13)

    def test_spline_eval_empty(self, backend):
        coeffs = np.zeros((3, 4))
        val, der = backend.spline_eval(
            coeffs, np.array([], dtype=np.int64), np.array([])
        )
        assert len(val) == 0 and len(der) == 0

    def test_accumulate_scalar_is_scatter_add(self, backend):
        rng = np.random.default_rng(1)
        idx = rng.integers(0, 10, size=300)
        w = rng.normal(size=300)
        out = backend.accumulate_scalar(idx, w, 10)
        expect = np.zeros(10)
        np.add.at(expect, idx, w)
        assert out.shape == (10,)
        assert np.allclose(out, expect, atol=1e-12)

    def test_accumulate_scalar_handles_untouched_bins(self, backend):
        out = backend.accumulate_scalar(np.array([2]), np.array([1.5]), 5)
        assert out.tolist() == [0.0, 0.0, 1.5, 0.0, 0.0]

    def test_accumulate_vec3_is_scatter_add(self, backend):
        rng = np.random.default_rng(2)
        idx = rng.integers(0, 7, size=120)
        vec = rng.normal(size=(120, 3))
        out = backend.accumulate_vec3(idx, vec, 7)
        expect = np.zeros((7, 3))
        np.add.at(expect, idx, vec)
        assert out.shape == (7, 3)
        assert np.allclose(out, expect, atol=1e-12)

    def test_accumulate_empty(self, backend):
        empty_i = np.array([], dtype=np.int64)
        assert backend.accumulate_scalar(empty_i, np.array([]), 4).shape == (4,)
        out = backend.accumulate_vec3(empty_i, np.zeros((0, 3)), 4)
        assert out.shape == (4, 3)
        assert np.all(out == 0.0)

    def _prefilter_inputs(self, seed=5):
        rng = np.random.default_rng(seed)
        n = 40
        positions = rng.uniform(0.0, 6.0, size=(n, 3))
        i, j = np.triu_indices(n, k=1)
        sel = rng.random(len(i)) < 0.5
        lengths = np.ones(3)
        periodic = np.zeros(3, dtype=bool)
        return positions, i[sel], j[sel], lengths, periodic

    def test_neighbor_prefilter_assume_inside_is_bitwise(self, backend):
        """When the caller's all-inside proof holds, the fast path is
        a pure work cut: identical indices, geometry and distances,
        bit for bit, under both compute_r arms."""
        positions, i, j, lengths, periodic = self._prefilter_inputs()
        d = positions[j] - positions[i]
        rmax = float(np.sqrt((d * d).sum(axis=1)).max()) * 1.001
        for compute_r in (True, False):
            plain = backend.neighbor_prefilter(
                positions, i, j, lengths, periodic, rmax,
                inclusive=False, compute_r=compute_r,
            )
            fast = backend.neighbor_prefilter(
                positions, i, j, lengths, periodic, rmax,
                inclusive=False, compute_r=compute_r, assume_inside=True,
            )
            for a, b in zip(plain, fast):
                assert np.array_equal(a, b)

    def test_neighbor_prefilter_assume_inside_trusts_the_caller(
        self, backend
    ):
        """The proof is load-bearing: with the flag set the predicate
        is never evaluated, so a candidate beyond rmax is emitted
        anyway.  Pins the contract so no backend quietly re-filters."""
        positions, i, j, lengths, periodic = self._prefilter_inputs()
        d = positions[j] - positions[i]
        r = np.sqrt((d * d).sum(axis=1))
        rmax = float(np.median(r))  # half the candidates are outside
        out = backend.neighbor_prefilter(
            positions, i, j, lengths, periodic, rmax,
            inclusive=False, compute_r=True, assume_inside=True,
        )
        assert len(out[0]) == len(i)
        assert np.any(out[3] >= rmax)
