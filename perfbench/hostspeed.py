"""Host speed probe: scales a run's times to a fixed reference speed.

On a shared host the whole machine runs 20-30% faster or slower for
tens of seconds at a time — on every core at once — which swamps the
effect of a code change on a 20-second run.  Each engine run
therefore also times :class:`HostProbe`, a small fixed numpy workload that calls
nothing from the program under test, in the gaps between its own
timed work (never concurrently with it), and reports its times divided
by the host's slowdown, ``probe time / REFERENCE_PROBE_S``: the time
the run would have taken had the host run at the speed it had when the
benchmark was defined.  Each timed step is scaled by the slowdown of
the probes just before it (:meth:`HostProbe.local_slowdown`), so drift
within a run is followed too.  The unscaled figures and the run's
median slowdown are kept in each run's record.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench import stats

#: median probe time on the host the benchmark was defined on (Intel
#: Xeon, 2 vCPUs under KVM, numpy 2.4, Python 3.11); fixed for good,
#: because changing it rescales every recorded figure
REFERENCE_PROBE_S = 0.0085
#: probes whose median gives the local slowdown: enough to damp the
#: noise of one ~10 ms sample, few enough to follow the drift
LOCAL_PROBES = 5


class HostProbe:
    """A ~10 ms mix of the array work MD does: gather, reduce, scatter,
    sort and one streaming pass over a 16 MB array."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._pos = rng.random((16000, 3)) * 60.0
        self._i = rng.integers(0, 16000, 50_000)
        self._j = rng.integers(0, 16000, 50_000)
        self._big = rng.random(1_000_000)
        self._out = np.empty_like(self._big)
        self.samples: list[float] = []
        self._work()  # first-touch page faults and lazy set-up, untimed

    def _work(self) -> None:
        d = self._pos[self._i] - self._pos[self._j]
        r = np.sqrt(np.einsum("ij,ij->i", d, d))
        np.bincount(self._i, weights=r, minlength=16000)
        np.argsort(self._j, kind="stable")
        np.multiply(self._big, r[0], out=self._out)

    def __call__(self) -> None:
        t0 = time.perf_counter()
        self._work()
        self.samples.append(time.perf_counter() - t0)

    def slowdown(self) -> float:
        """Host slowness over all probes so far (> 1: slower)."""
        return stats.median(self.samples) / REFERENCE_PROBE_S

    def local_slowdown(self) -> float:
        """Host slowness over the latest :data:`LOCAL_PROBES` probes."""
        return stats.median(self.samples[-LOCAL_PROBES:]) / REFERENCE_PROBE_S
