"""The ``parallel`` kernel-backend tier.

Selecting ``backend="parallel"`` means two things:

* the in-process kernels are the serial numpy ones (re-exported below —
  the registry contract is unchanged), and
* the reference engine's :class:`~repro.md.simulation.Simulation`
  additionally routes force evaluation through the domain-sharded
  :class:`~repro.parallel.pipeline.ShardedForcePipeline`
  (``provides_pipeline``), with the layout taken from
  ``RunSpec.workers``/``topology``/``transport``.  Workers own their
  tiles across steps (sparse halo packs, cross-step candidate reuse);
  their inner loops run these same numpy kernels.

Importing this module raises :class:`ImportError` when the platform
cannot host the worker pool (no fork start method), so the registry's
standard once-per-name fallback degrades ``parallel`` to ``numpy``.
"""

from __future__ import annotations

from repro.kernels.numpy_backend import (  # noqa: F401  (registry contract)
    accumulate_scalar,
    accumulate_vec3,
    fused_density_pass,
    fused_force_pass,
    grouped_spline_eval,
    neighbor_prefilter,
    spline_eval,
)
from repro.parallel.pool import fork_available

if not fork_available():  # pragma: no cover - platform-dependent
    raise ImportError(
        "parallel backend requires the fork start method "
        "(unavailable on this platform)"
    )

#: Simulation checks this flag to enable the sharded force pipeline.
provides_pipeline = True
