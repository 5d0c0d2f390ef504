"""Pluggable compute backends for the hot-path kernels.

The physics modules (:mod:`repro.potentials`, :mod:`repro.md`) describe
*what* is computed; the kernels layer owns *how* the inner loops run.
Each backend is a module exposing the kernel interface
(:data:`KERNEL_FUNCTIONS`):

``numpy``
    The fused vectorized NumPy kernels.  Always available.
``parallel``
    The numpy kernels plus the domain-sharded worker-pool force
    pipeline (:mod:`repro.parallel`).  Optional — requires the fork
    start method; unavailable platforms fall back to ``numpy``.

A backend missing any interface function is malformed and rejected
outright.

Selection order: an explicit :func:`set_backend` call, else the
``REPRO_KERNEL_BACKEND`` environment variable, else ``numpy``.  Unknown
or unavailable backends degrade to ``numpy`` with a warning rather than
failing: the backend choice must never change whether a simulation
runs, only how fast.
"""

from __future__ import annotations

import os
import warnings
from types import ModuleType

__all__ = [
    "KERNEL_FUNCTIONS",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "available_backends",
    "register_backend",
    "set_backend",
    "active_backend",
    "active_backend_name",
    "backend_status",
    "reset_warnings",
]

#: The interface every backend module must provide.
KERNEL_FUNCTIONS = (
    "spline_eval",          # (coeffs, k, dx) -> (value, derivative)
    "accumulate_scalar",    # (idx, weights, n) -> (n,) scatter-add
    "accumulate_vec3",      # (idx, vectors, n) -> (n, 3) scatter-add
    "grouped_spline_eval",  # (bank, x, member) -> (value, derivative)
    "neighbor_prefilter",   # candidate distance filter -> (i, j, rij, r)
    "fused_density_pass",   # half-pair EAM stage 1 -> (rho_bar, d_ji, d_ij)
    "fused_force_pass",     # half-pair EAM stage 2 -> (e_pair, forces)
)

DEFAULT_BACKEND = "numpy"
ENV_VAR = "REPRO_KERNEL_BACKEND"

_loaders: dict[str, object] = {}
_active: ModuleType | None = None
_active_name: str | None = None
_failures: dict[str, str] = {}
#: Loaded backend modules by name.
_resolved: dict[str, ModuleType] = {}
#: Backend names whose fallback warning has already been emitted; a
#: long campaign calling ``set_backend`` per run warns once per name,
#: not once per call.  Long-lived processes (the serve scheduler) call
#: :func:`reset_warnings` between jobs so one job's degradation does
#: not silence the next job's — and so forked workers, which inherit
#: this set from the parent, do not inherit its suppressions.
_warned_fallbacks: set[str] = set()


def reset_warnings() -> None:
    """Re-arm the once-per-name fallback warnings.

    The warn-once cache is module state: without a reset it suppresses
    warnings for the life of the process *and* across fork, so a
    worker or a served job never hears about degradations that predate
    it.  The serve scheduler calls this before each job.
    """
    _warned_fallbacks.clear()


def register_backend(name: str, loader) -> None:
    """Register ``loader`` (a zero-arg callable returning a module-like
    object with the :data:`KERNEL_FUNCTIONS` attributes) under ``name``."""
    _loaders[name] = loader
    _resolved.pop(name, None)
    _failures.pop(name, None)


def _load(name: str) -> ModuleType | None:
    loader = _loaders.get(name)
    if loader is None:
        return None
    cached = _resolved.get(name)
    if cached is not None:
        return cached
    try:
        backend = loader()
    except ImportError as exc:  # platform cannot host the backend
        _failures[name] = str(exc)
        return None
    missing = [f for f in KERNEL_FUNCTIONS if not hasattr(backend, f)]
    if missing:
        raise TypeError(f"backend {name!r} is missing kernels: {missing}")
    _resolved[name] = backend
    return backend


def available_backends() -> list[str]:
    """Names of the backends that import successfully right now."""
    return [name for name in _loaders if _load(name) is not None]


def backend_status() -> dict[str, str]:
    """Per-backend availability: ``"ok"`` or the import failure reason."""
    out = {}
    for name in _loaders:
        out[name] = "ok" if _load(name) is not None else _failures.get(
            name, "unavailable"
        )
    return out


def set_backend(name: str) -> str:
    """Select the active backend; returns the name actually activated.

    Unknown or unavailable names fall back to :data:`DEFAULT_BACKEND`
    with a warning — performance degrades gracefully, physics never
    depends on the choice.
    """
    global _active, _active_name
    backend = _load(name)
    if backend is None:
        reason = _failures.get(name, "not registered")
        if name != DEFAULT_BACKEND and name not in _warned_fallbacks:
            _warned_fallbacks.add(name)
            warnings.warn(
                f"kernel backend {name!r} unavailable ({reason}); "
                f"falling back to {DEFAULT_BACKEND!r}",
                RuntimeWarning,
                stacklevel=2,
            )
        backend = _load(DEFAULT_BACKEND)
        name = DEFAULT_BACKEND
        if backend is None:  # pragma: no cover - numpy always present
            raise RuntimeError("default numpy backend failed to load")
    _active = backend
    _active_name = name
    from repro.obs import metrics

    metrics().counter(f"kernels.set_backend.{name}").inc()
    return name


def active_backend() -> ModuleType:
    """The active backend (resolving env/default on first use)."""
    global _active
    if _active is None:
        set_backend(os.environ.get(ENV_VAR, DEFAULT_BACKEND))
    return _active


def active_backend_name() -> str:
    """Name of the active backend (resolving on first use)."""
    active_backend()
    return _active_name  # type: ignore[return-value]


def _numpy_loader():
    from repro.kernels import numpy_backend

    return numpy_backend


def _parallel_loader():
    # raises ImportError when fork is unavailable on the platform
    from repro.kernels import parallel_backend

    return parallel_backend


register_backend("numpy", _numpy_loader)
register_backend("parallel", _parallel_loader)
