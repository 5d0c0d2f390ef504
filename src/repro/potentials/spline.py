"""Uniform-knot cubic spline tables with vectorized evaluation.

The WSE implementation in the paper stores every potential component
(``rho_i``, ``F_i``, ``phi_ij``) as a polynomial spline table in each
tile's SRAM and evaluates it with a segment lookup plus a low-order
polynomial (Table III rows "Spline segment" / "Density evaluation").
This module provides the same representation for the host-side code:
a natural cubic spline on uniformly spaced knots, evaluated by

1. ``k, dx = segment(x)`` — integer segment index and local offset,
2. a cubic polynomial in ``dx`` with per-segment coefficients.

Evaluation is fully vectorized over NumPy arrays and returns both the
value and the first derivative, because EAM forces need ``rho'``,
``phi'`` and ``F'`` (Eq. 4 of the paper).
"""

from __future__ import annotations

import numpy as np

from repro.kernels import active_backend
from repro.obs import metrics

__all__ = [
    "UniformCubicSpline",
    "SplineGroup",
    "natural_cubic_second_derivatives",
]


def natural_cubic_second_derivatives(y: np.ndarray, h: float) -> np.ndarray:
    """Second derivatives of a natural cubic spline on uniform knots.

    Solves the standard tridiagonal system with zero curvature at both
    ends.  ``y`` are knot values, ``h`` the uniform knot spacing.
    """
    n = len(y)
    if n < 2:
        raise ValueError(f"need at least 2 knots, got {n}")
    m = np.zeros(n, dtype=np.float64)
    if n == 2:
        return m
    # Interior equations: m[i-1] + 4 m[i] + m[i+1] = 6 (y[i-1]-2y[i]+y[i+1])/h^2
    rhs = 6.0 * (y[:-2] - 2.0 * y[1:-1] + y[2:]) / (h * h)
    # Thomas algorithm for the (n-2)x(n-2) system with diag 4, off-diag 1.
    k = n - 2
    cp = np.empty(k)
    dp = np.empty(k)
    cp[0] = 1.0 / 4.0
    dp[0] = rhs[0] / 4.0
    for i in range(1, k):
        denom = 4.0 - cp[i - 1]
        cp[i] = 1.0 / denom
        dp[i] = (rhs[i] - dp[i - 1]) / denom
    sol = np.empty(k)
    sol[-1] = dp[-1]
    for i in range(k - 2, -1, -1):
        sol[i] = dp[i] - cp[i] * sol[i + 1]
    m[1:-1] = sol
    return m


class UniformCubicSpline:
    """Natural cubic spline on uniformly spaced knots.

    Parameters
    ----------
    x0:
        Position of the first knot.
    h:
        Uniform knot spacing (must be positive).
    y:
        Knot values, length >= 2.
    extrapolate_low:
        Behaviour below ``x0``: ``"linear"`` continues with the boundary
        slope (safe for close-approach pair potentials), ``"clamp"``
        evaluates at ``x0``, ``"error"`` raises.
    zero_above:
        If True (the default for cutoff potentials), evaluation above the
        last knot returns exactly 0 for both value and derivative.
        Otherwise the boundary value is clamped.
    """

    def __init__(
        self,
        x0: float,
        h: float,
        y: np.ndarray,
        *,
        extrapolate_low: str = "linear",
        zero_above: bool = True,
    ) -> None:
        if h <= 0:
            raise ValueError(f"knot spacing must be positive, got {h}")
        if extrapolate_low not in ("linear", "clamp", "error"):
            raise ValueError(f"unknown extrapolate_low: {extrapolate_low!r}")
        y = np.asarray(y, dtype=np.float64)
        if y.ndim != 1 or len(y) < 2:
            raise ValueError("y must be a 1-D array with at least 2 knots")
        self.x0 = float(x0)
        self.h = float(h)
        self.y = y
        self.n = len(y)
        self.extrapolate_low = extrapolate_low
        self.zero_above = zero_above
        m = natural_cubic_second_derivatives(y, self.h)
        # Per-segment polynomial coefficients in the local variable
        # t = (x - x_k),   s(t) = c0 + c1 t + c2 t^2 + c3 t^3,
        # packed row-contiguous so evaluation is one gather per point
        # (the layout a WSE tile would hold per spline segment).
        hh = self.h
        self.coeffs = np.empty((self.n - 1, 4), dtype=np.float64)
        self.coeffs[:, 0] = y[:-1]
        self.coeffs[:, 1] = (
            (y[1:] - y[:-1]) / hh - hh * (2.0 * m[:-1] + m[1:]) / 6.0
        )
        self.coeffs[:, 2] = m[:-1] / 2.0
        self.coeffs[:, 3] = (m[1:] - m[:-1]) / (6.0 * hh)

    @property
    def x_max(self) -> float:
        """Position of the last knot."""
        return self.x0 + (self.n - 1) * self.h

    def knots(self) -> np.ndarray:
        """Knot abscissae as an array."""
        return self.x0 + self.h * np.arange(self.n)

    def segment(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Segment index and local offset for each ``x`` (paper Table III).

        Indices are clipped into the valid segment range; out-of-range
        handling is applied by :meth:`evaluate`.
        """
        x = np.asarray(x, dtype=np.float64)
        t = (x - self.x0) / self.h
        k = np.clip(np.floor(t).astype(np.int64), 0, self.n - 2)
        dx = x - (self.x0 + k * self.h)
        return k, dx

    def evaluate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Value and first derivative at ``x`` (both arrays, vectorized)."""
        x = np.asarray(x, dtype=np.float64)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if self.extrapolate_low == "error" and np.any(x < self.x0):
            bad = float(np.min(x))
            raise ValueError(f"evaluation below first knot: {bad} < {self.x0}")
        k, dx = self.segment(x)
        if self.extrapolate_low == "clamp":
            dx = np.where(x < self.x0, 0.0, dx)
        metrics().counter("kernels.spline_eval.calls").inc()
        val, der = active_backend().spline_eval(self.coeffs, k, dx)
        if self.zero_above:
            above = x >= self.x_max
            val = np.where(above, 0.0, val)
            der = np.where(above, 0.0, der)
        else:
            above = x > self.x_max
            if np.any(above):
                val = np.where(above, self.y[-1], val)
                der = np.where(above, 0.0, der)
        if scalar:
            return val[0], der[0]
        return val, der

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Value only (convenience wrapper around :meth:`evaluate`)."""
        return self.evaluate(x)[0]

    def derivative(self, x: np.ndarray) -> np.ndarray:
        """First derivative only."""
        return self.evaluate(x)[1]

    @classmethod
    def from_function(
        cls,
        fn,
        x0: float,
        x1: float,
        n: int,
        **kwargs,
    ) -> "UniformCubicSpline":
        """Sample ``fn`` on ``n`` uniform knots over ``[x0, x1]``."""
        if n < 2:
            raise ValueError(f"need at least 2 knots, got {n}")
        if x1 <= x0:
            raise ValueError(f"empty interval [{x0}, {x1}]")
        xs = np.linspace(x0, x1, n)
        ys = np.asarray([fn(float(x)) for x in xs], dtype=np.float64)
        return cls(x0, (x1 - x0) / (n - 1), ys, **kwargs)

    def group_with(self, *others: "UniformCubicSpline") -> "SplineGroup":
        """Pack this spline with ``others`` into one :class:`SplineGroup`."""
        return SplineGroup([self, *others])

    def nbytes(self, dtype_size: int = 4) -> int:
        """SRAM footprint of the table at a given element size.

        The WSE stores tables in FP32; with 4 coefficient arrays this is
        what a tile must budget out of its 48 kB (see
        :mod:`repro.wse.tile`).
        """
        return 4 * (self.n - 1) * dtype_size


class SplineGroup:
    """Several uniform-knot splines fused into one coefficient bank.

    The lockstep machine's streaming passes evaluate every candidate of
    a whole offset chunk in one batch; with more than one atom type the
    points of that batch hit *different* splines (per source type, per
    type pair).  Rather than looping splines and masking, the group
    concatenates the member tables into a single packed ``(sum nseg, 4)``
    bank and maps each point's member index to a row offset, so one
    fused :func:`~repro.kernels` ``spline_eval`` gather serves the whole
    batch — exactly the per-point arithmetic of
    :meth:`UniformCubicSpline.evaluate`, so results are bitwise
    identical to the per-spline loops it replaces.

    All members must share ``extrapolate_low`` and ``zero_above`` (true
    for every EAM table family: all ``rho``, all ``phi``, all ``F`` of
    one potential are built with one flag set).
    """

    def __init__(self, splines: list[UniformCubicSpline]) -> None:
        if not splines:
            raise ValueError("SplineGroup needs at least one member spline")
        low = {s.extrapolate_low for s in splines}
        above = {s.zero_above for s in splines}
        if len(low) > 1 or len(above) > 1:
            raise ValueError(
                "grouped splines must share boundary handling, got "
                f"extrapolate_low={sorted(low)}, zero_above={sorted(above)}"
            )
        self.members = list(splines)
        self.extrapolate_low = splines[0].extrapolate_low
        self.zero_above = splines[0].zero_above
        self._x0 = np.array([s.x0 for s in splines], dtype=np.float64)
        self._h = np.array([s.h for s in splines], dtype=np.float64)
        self._nseg = np.array([s.n - 1 for s in splines], dtype=np.int64)
        self._x_max = np.array([s.x_max for s in splines], dtype=np.float64)
        self._y_last = np.array([s.y[-1] for s in splines], dtype=np.float64)
        self._row0 = np.concatenate(
            ([0], np.cumsum(self._nseg)[:-1])
        ).astype(np.int64)
        self.coeffs = np.ascontiguousarray(
            np.concatenate([s.coeffs for s in splines], axis=0)
        )
        self._bank: tuple | None = None

    @property
    def n_members(self) -> int:
        return len(self.members)

    def bank(self) -> tuple:
        """The packed coefficient bank as a kernel-ready tuple.

        This is the argument the :mod:`repro.kernels`
        ``grouped_spline_eval`` / ``fused_density_pass`` /
        ``fused_force_pass`` kernels take: ``(coeffs, row0, x0, h,
        nseg, x_max, y_last, clamp_low, zero_above)``, all per-member
        arrays C-contiguous.  Built once and cached, so every step
        reuses the same array objects.
        """
        cached = self._bank
        if cached is None:
            cached = (
                self.coeffs,
                self._row0,
                self._x0,
                self._h,
                self._nseg,
                self._x_max,
                self._y_last,
                self.extrapolate_low == "clamp",
                self.zero_above,
            )
            self._bank = cached
        return cached

    def evaluate(
        self, x: np.ndarray, member: np.ndarray | int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Value and derivative at ``x``, point ``p`` using spline
        ``member[p]``.

        ``member`` broadcasts against ``x`` (a scalar evaluates the
        whole batch through one member).  Per point the arithmetic is
        identical to the member's own :meth:`UniformCubicSpline.evaluate`
        — the batch dispatches to the active backend's
        ``grouped_spline_eval`` whole-pass kernel.
        """
        x = np.asarray(x, dtype=np.float64)
        g = np.asarray(member, dtype=np.int64)
        if self.extrapolate_low == "error" and np.any(x < self._x0[g]):
            bad = float(np.min(x - self._x0[g]))
            raise ValueError(f"evaluation below first knot by {-bad}")
        metrics().counter("kernels.spline_eval.calls").inc()
        return active_backend().grouped_spline_eval(self.bank(), x, g)
