"""Summary statistics shared by every workload.

Timings are reported as a median, and a tail percentile only when at
least ``MIN_BEYOND`` samples lie beyond it: a p90 of 30 samples rests
on three values and moves with every one of them.
"""

from __future__ import annotations

import math
import statistics

#: the tail percentile reported, and the samples that must lie
#: strictly beyond it for it to be reported
TAIL_PCT, MIN_BEYOND = 90, 10
#: set-ups per run: at least SETUP_MIN, then more until SETUP_BUDGET_S
#: of set-up time is sampled, at most SETUP_MAX (a 0.1 s set-up is
#: sampled 15 times, a 1.4 s one 3 times)
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 2.0


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def enough_setups(times: list[float]) -> bool:
    """Whether the set-up samples taken so far suffice (see SETUP_*)."""
    return len(times) >= SETUP_MAX or (
        len(times) >= SETUP_MIN and sum(times) >= SETUP_BUDGET_S)


def tail_percentile(values):
    """Nearest-rank :data:`TAIL_PCT` percentile and the count of samples
    beyond it.

    Returns ``(value, n_beyond)``, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond the percentile — the caller then
    reports no tail at all rather than one resting on a handful of
    samples.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return None
    rank = max(1, math.ceil(TAIL_PCT * n / 100))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        return None
    return float(xs[rank - 1]), beyond

