"""The sharded force pipeline: per-step orchestration over a transport.

Each worker permanently owns its tile: halo-pack positions, types,
owned mask, candidate pairs and the rebuild reference all live
shard-side between steps, so a steady-state timestep is **three**
lockstep rounds moving only sparse packs — the host analogue of the
paper's neighbor-only fabric traffic:

1. **dens** (inside the ``neighbor`` phase) — the parent evaluates the
   Verlet skin/2 trigger itself against the rebuild reference (it owns
   every position, so its global ``max |d|`` is arithmetically *equal*
   to an OR-reduce of per-tile triggers over the covering tile-local
   sets — and bit-equal to the serial NeighborList's check), then
   ships each tile the *owned* rows of its cached halo pack
   (``positions[own_ids_k]``, the index lists persisting until the
   next rebuild), posts the ``dens`` command, and **publishes the
   ghost rows asynchronously while the workers already run**: each
   tile distance-filters and densities its *interior* candidates
   (owned-owned pairs — no ghost row ever read) under the trigger's
   displacement bound riding on the command, blocks on ``halo_wait``
   only right before its *boundary* pass, then merges the two partial
   sums in pinned interior-then-boundary order.  When the trigger
   trips, a ``rebuild`` round runs instead: a fresh balanced
   :class:`~repro.parallel.domains.DomainGrid` is planned, new pack
   ids are cut (with their owned/ghost row splits), and each tile
   rebuilds its candidates from its pack alone (bit-identical to a
   global build) — no stale-pack scatter, no speculative compute is
   ever discarded, and rebuild packs travel whole and blocking (their
   ids just changed; there is nothing safe to overlap).
2. **force** — the parent reduces the gathered ``rho`` packs by
   scatter-adding them **in fixed rank order** into an owned-region
   accumulator, evaluates the embedding stage, ships each tile its
   owned ``F'(rho_bar)`` rows, posts ``force``, publishes the ghost
   rows mid-flight (interior force pass first, boundary after the
   wait, same pinned merge), and reduces the gathered
   pair-energy/force packs the same way.

``REPRO_PARALLEL_NO_OVERLAP=1`` restores the blocking protocol —
ghosts published *before* the command — for A/B testing and bisection.
The worker arithmetic is identical in both modes (the split and merge
happen either way; only the publish scheduling moves), so overlap-on
trajectories are bitwise-identical to overlap-off.  The hidden
publish time and the workers' residual stalls are accounted as
``parallel.overlap`` / ``parallel.halo_wait`` spans, summarized by
:attr:`ShardedForcePipeline.overlap_efficiency`.

The fixed-order pack reduction makes a run bitwise-reproducible for a
given (topology, transport) — and since both transports deliver the
same float64 bits in the same pack layout, bitwise-identical across
transports too.  A single tile owns every pair, so ``workers=1`` stays
bitwise-serial.  Across topologies the physics agrees to floating-
point summation tolerance, like any domain-decomposed MD code.

Halo accounting: every round's *exposed* communication time — pack
scatter/gather cost plus the slack between the command's wall time and
the slowest worker's compute time — is emitted as a pre-measured
``halo_exchange`` child span inside the enclosing phase, with the
transport's byte deltas as counters.  The bytes are **actual sparse
pack bytes** (per-tile prefix sizes, not ``nbytes x workers``
broadcasts), and the ghost-row share — the part that scales with tile
*boundary* area rather than system size — is tracked separately as
``parallel.halo.bytes_ghost``.  Because the density pass runs inside
the ``neighbor``-phase dens round, its worker seconds are
re-attributed to the ``density`` phase via a pre-measured child span,
keeping the reference taxonomy unchanged.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.obs import NULL_TRACER, metrics
from repro.parallel.domains import (
    owned_mask_local,
    plan_grid,
    tile_local_ids,
    warn_halo_dominated,
)
from repro.parallel.transport import make_transport, usable_cpus

__all__ = ["ShardedForcePipeline"]

_STAGES = ("neighbor", "density", "force")

#: Per-row pack bytes by channel (float64 3-vectors and scalars).
_ROW_BYTES = {
    "positions": 24, "types": 8, "f_der": 8,
    "rho": 8, "epair": 8, "forces": 24,
}


class ShardedForcePipeline:
    """Persistent domain-sharded evaluator for one simulation's forces.

    Construct once per :class:`~repro.md.simulation.Simulation` (the
    construction cost — arena/sockets + worker spawn — is what the
    ``parallel.pool`` phase accounts for) and call :meth:`compute` once
    per force evaluation.  Must be :meth:`close`\\ d to reap the
    workers; an abandoned pipeline is cleaned up by GC/daemon
    semantics.

    ``topology`` is the ``(px, py)`` domain grid; ``None`` picks the
    most nearly square factorization of the worker count (least tile
    boundary, hence least ghost traffic — pass an explicit
    ``(workers, 1)`` for the historical 1D column layout).
    ``transport``
    selects how bytes reach the workers (``"shared"``, ``"socket"``,
    ``"inline"`` or ``"auto"``; ``None`` reads
    ``REPRO_PARALLEL_TRANSPORT``, defaulting to ``auto`` — inline
    virtual workers when the host has fewer cores than workers, forked
    shared memory otherwise).  Setting ``REPRO_PARALLEL_NO_REUSE`` to a
    non-empty,
    non-zero value disables cross-step candidate reuse (a rebuild every
    step — the property-test control and a debugging fallback), warned
    about once per process.
    """

    def __init__(
        self,
        state,
        potential,
        *,
        skin: float = 0.5,
        workers: int | None = None,
        topology: tuple[int, int] | None = None,
        transport: str | None = None,
    ) -> None:
        n = state.n_atoms
        if topology is not None:
            px, py = int(topology[0]), int(topology[1])
            if px < 1 or py < 1:
                raise ValueError(
                    f"topology must be at least 1x1, got {px}x{py}"
                )
            if workers and workers != px * py:
                raise ValueError(
                    f"workers={workers} conflicts with topology "
                    f"{px}x{py} ({px * py} tiles)"
                )
        else:
            w = max(1, int(workers if workers else (os.cpu_count() or 1)))
            # Most nearly square factorization: least tile perimeter,
            # hence least ghost-row traffic per step.
            py = int(np.sqrt(w))
            while w % py:
                py -= 1
            px = w // py
        self.topology = (px, py)
        self.n_workers = px * py
        self.skin = float(skin)
        self.cutoff = float(potential.cutoff)
        self.reach = self.cutoff + self.skin
        self.n_atoms = n
        self.potential = potential
        self._types = np.asarray(state.types, dtype=np.int64)
        self.no_reuse = os.environ.get(
            "REPRO_PARALLEL_NO_REUSE", ""
        ) not in ("", "0")
        # Overlapped halo exchange: ghosts publish while the round's
        # command is already in flight.  The escape hatch restores the
        # blocking publish-then-command order (bitwise-identical
        # results either way; scheduling only).
        self.overlap = os.environ.get(
            "REPRO_PARALLEL_NO_OVERLAP", ""
        ) in ("", "0")
        # On a host with fewer cores than workers, concurrent shards
        # timeshare cores and evict each other's caches mid-pass, so
        # heavy rounds run fastest dispatched one rank at a time.
        # Results are identical either way (the reduction order is
        # fixed by rank, not arrival); this is purely a wall-clock
        # policy.
        self.stagger = usable_cpus() < self.n_workers
        # Tile builds bin at half the reach (radius-2 stencil): the
        # finer grid hugs the reach sphere tighter, cutting the raw
        # candidate stream the build prefilter consumes by ~40%.  Only
        # the enumeration *order* changes — the prefiltered candidate
        # set is identical — so the w=1 bitwise-serial contract pins
        # single-tile runs to the serial radius-1 enumeration.
        subdivide = 1 if self.n_workers == 1 else 2
        cfg = {
            "potential": potential,
            "box": state.box,
            "cutoff": self.cutoff,
            "reach": self.reach,
            "skin": self.skin,
            "n_atoms": n,
            "subdivide": subdivide,
        }
        kind = transport or os.environ.get(
            "REPRO_PARALLEL_TRANSPORT", "auto"
        )
        self.transport = make_transport(
            kind,
            self.n_workers,
            inputs={
                "positions": ((n, 3), np.float64),
                "types": ((n,), np.int64),
                "f_der": ((n,), np.float64),
            },
            outputs={
                "rho": ((n,), np.float64),
                "epair": ((n,), np.float64),
                "forces": ((n, 3), np.float64),
            },
            cfg=cfg,
            halo=("positions", "f_der"),
        )
        #: cached halo pack index lists, one per tile; valid until the
        #: next rebuild (None = no build yet)
        self._ids: list[np.ndarray] | None = None
        #: per-tile owned/ghost splits of ``_ids`` — global ids and the
        #: pack-row positions they land in — recomputed at rebuild;
        #: steady rounds ship owned rows synchronously and publish the
        #: ghost rows asynchronously
        self._own_ids: list[np.ndarray] = []
        self._own_rows: list[np.ndarray] = []
        self._ghost_ids: list[np.ndarray] = []
        self._ghost_rows: list[np.ndarray] = []
        #: monotone step-publication sequence (the double-buffer clock)
        self._seq = 0
        #: the same lists concatenated in rank order — the index vector
        #: the single-pass bincount reductions run over
        self._ids_flat: np.ndarray | None = None
        #: rebuild reference positions for the parent-side skin trigger
        #: (bit-equal to the serial NeighborList's check, and to an
        #: OR-reduce of per-tile checks over the covering local sets)
        self._ref_positions: np.ndarray | None = None
        self._counts: list[int] = [0] * self.n_workers
        #: owned-region accumulators reused every step (steady-state
        #: steps allocate nothing on the reduction path beyond the
        #: returned force array itself, which the caller keeps)
        self._rho = np.zeros(n)
        self._epair = np.zeros(n)
        self._closed = False
        self.n_builds = 0
        self.last_pair_count = 0
        #: current ghost-row count, sum over tiles of (local - owned) —
        #: the boundary-scaling share of every pack
        self.ghost_atoms = 0
        #: cumulative ghost-row bytes moved (the O(boundary) component
        #: of bytes_sent + bytes_recv)
        self.ghost_bytes = 0
        #: cumulative per-worker seconds per stage (bench telemetry)
        self.shard_seconds: dict[str, list[float]] = {
            s: [0.0] * self.n_workers for s in _STAGES
        }
        #: cumulative exposed halo-exchange seconds (bench telemetry)
        self.halo_seconds = 0.0
        #: cumulative ghost-publish seconds spent while a round's
        #: command was already in flight (the hidden halo share)
        self.overlap_seconds = 0.0
        #: cumulative slowest-rank ``halo_wait`` stall per round (the
        #: halo share that stayed exposed inside worker compute)
        self.halo_wait_seconds = 0.0
        #: grow-only reduction scratch (rank-concatenated pack rows)
        self._concat: dict[str, np.ndarray] = {}
        reg = metrics()
        reg.gauge("parallel.workers").set(float(self.n_workers))
        reg.gauge("parallel.topology.px").set(float(px))
        reg.gauge("parallel.topology.py").set(float(py))

    @property
    def transport_kind(self) -> str:
        return self.transport.kind

    @property
    def halo_bytes(self) -> tuple[int, int]:
        """Cumulative (sent, received) sparse pack bytes over the transport."""
        return self.transport.bytes_sent, self.transport.bytes_recv

    @property
    def overlap_efficiency(self) -> float:
        """Fraction of halo publication time hidden behind compute.

        ``overlap / (overlap + wait)``: publish seconds spent while a
        command was in flight, over that plus the slowest rank's
        residual ``halo_wait`` stalls.  1.0 means every published byte
        was fully absorbed by interior compute; with overlap disabled
        nothing is ever hidden, so the field reads 0.0.
        """
        hidden = self.overlap_seconds
        wait = self.halo_wait_seconds
        if hidden + wait <= 0.0:
            return 1.0 if self.overlap else 0.0
        return hidden / (hidden + wait)

    # -- ghost accounting --------------------------------------------------

    def _charge_ghost(self, *channels: str) -> None:
        """Credit the ghost-row share of pack transfers just performed."""
        amount = self.ghost_atoms * sum(_ROW_BYTES[c] for c in channels)
        if amount:
            self.ghost_bytes += amount
            metrics().counter("parallel.halo.bytes_ghost").inc(float(amount))

    # -- the step ----------------------------------------------------------

    def compute(
        self, positions: np.ndarray, tr=NULL_TRACER
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Energies, forces and step accounting at ``positions``.

        Returns ``(energies, forces, info)`` where ``info`` carries
        ``pairs``, ``rebuilds``, ``t_neighbor`` and ``t_force`` for the
        caller's :class:`~repro.md.simulation.SimStats`.
        """
        if len(positions) != self.n_atoms:
            raise ValueError(
                f"pipeline built for {self.n_atoms} atoms, "
                f"got {len(positions)}"
            )
        reg = metrics()
        t0 = time.perf_counter()
        with tr.phase("neighbor") as ph:
            reason = self._forced_rebuild_reason()
            d_max = 0.0
            if reason is None:
                # Parent-side skin trigger: same arithmetic as the
                # serial NeighborList (and as an OR-reduce of per-tile
                # checks — the tile-local sets cover every atom), but
                # resolved before any scatter or round, so a triggered
                # step never ships a stale pack or wastes a pass.
                delta = positions - self._ref_positions
                max_d2 = float(np.max(np.einsum("ij,ij->i", delta, delta)))
                if max_d2 > (self.skin / 2.0) ** 2:
                    reason = "displacement"
                else:
                    d_max = float(np.sqrt(max_d2))
            if reason is not None:
                replies = self._rebuild_round(positions, reason, tr)
                reg.counter("neighbor.rebuilds").inc()
                reg.counter(f"neighbor.rebuilds.{reason}").inc()
            else:
                # Clean step: ship the owned rows, post the command,
                # publish the ghost rows while the interior pass runs.
                # The trigger's displacement bound rides on the command
                # — it upper-bounds every tile's local bound, feeding
                # the shards' bit-neutral cross-step filter cuts
                # without any per-tile displacement pass.
                self._seq += 1
                replies = self._steady_round(
                    "neighbor", ("dens", d_max, self._seq),
                    "positions", positions, tr,
                )
                reg.counter("neighbor.reuses").inc()
            n_pairs = int(sum(r[1] for r in replies))
            den_secs = [r[3] for r in replies]
            den_sum = sum(den_secs)
            # The density pass ran inside the dens/rebuild round; hand
            # its worker seconds to the density phase as a pre-measured
            # child so the reference taxonomy stays truthful.
            tr.record("density", den_sum)
            self._account_stage(
                "neighbor", [r[2] - r[3] - r[4] for r in replies], ph
            )
            ph.add(pairs=n_pairs, rebuilds=0 if reason is None else 1)
        t1 = time.perf_counter()
        with tr.phase("density", pairs=n_pairs) as ph:
            packs = self._gather_round("density", ("rho",), tr)
            self._charge_ghost("rho")
            # Seam reduction: accumulate every tile's pack in fixed
            # rank order — bitwise-reproducible per topology, and
            # elementwise (hence bitwise-serial) for a single tile.
            # bincount over the rank-concatenated id list performs the
            # same additions in the same order as a per-tile
            # scatter-add loop (equal ids sum in order of appearance),
            # just in one pass.
            self._reduce_1d(self._rho, packs["rho"])
            self._account_stage("density", den_secs, ph)
        with tr.phase("embedding"):
            f_val, f_der = self.potential.embed(self._rho, self._types)
        with tr.phase("pair_force", pairs=n_pairs) as ph:
            self._seq += 1
            force_replies = self._steady_round(
                "pair_force", ("force", self._seq), "f_der", f_der, tr,
            )
            packs = self._gather_round(
                "pair_force", ("epair", "forces"), tr
            )
            self._charge_ghost("epair", "forces")
            self._reduce_1d(self._epair, packs["epair"])
            pack = self._concat_packs("forces", packs["forces"])
            forces = np.empty((self.n_atoms, 3))
            for c in range(3):
                forces[:, c] = np.bincount(
                    self._ids_flat, weights=pack[:, c],
                    minlength=self.n_atoms,
                )
            self._account_stage(
                "force", [r[2] - r[4] for r in force_replies], ph
            )
        t2 = time.perf_counter()
        self.last_pair_count = n_pairs
        reg.counter("parallel.steps").inc()
        reg.counter("parallel.pairs").inc(float(n_pairs))
        info = {
            "pairs": n_pairs,
            "rebuilds": 0 if reason is None else 1,
            "t_neighbor": max(0.0, (t1 - t0) - den_sum),
            "t_force": (t2 - t1) + den_sum,
        }
        return self._epair + f_val, forces, info

    # -- rebuild policy (the forced arms; displacement is shard-side) ------

    def _reduce_1d(self, out: np.ndarray, packs: list) -> None:
        """Fixed-order seam reduction of per-tile scalar packs.

        ``bincount`` over the rank-concatenated ids adds equal-index
        contributions in order of appearance — the identical addition
        sequence a per-tile ``out[ids] += pack`` loop performs, so the
        result is bitwise-equal to the loop (and elementwise for a
        single tile, preserving the ``workers=1`` bitwise-serial
        guarantee).
        """
        out[:] = np.bincount(
            self._ids_flat,
            weights=self._concat_packs("scalar", packs),
            minlength=self.n_atoms,
        )

    def _concat_packs(self, key: str, packs: list) -> np.ndarray:
        """Rank-order concatenation into grow-only scratch.

        Bit-identical to ``np.concatenate`` (same rows, same order);
        the reuse just keeps steady steps off the allocator — pack
        sizes only change on a rebuild.
        """
        total = sum(len(p) for p in packs)
        buf = self._concat.get(key)
        if buf is None or buf.shape[0] < total:
            tail = packs[0].shape[1:] if packs else ()
            buf = np.empty((total, *tail), dtype=np.float64)
            self._concat[key] = buf
        return np.concatenate(packs, axis=0, out=buf[:total])

    def _forced_rebuild_reason(self) -> str | None:
        if self._ids is None:
            return "first"
        if self.skin == 0.0:
            return "skin_zero"
        if self.no_reuse:
            from repro import parallel as par

            par.warn_once(
                "no_reuse",
                "cross-step candidate reuse disabled "
                "(REPRO_PARALLEL_NO_REUSE); rebuilding every step",
            )
            return "no_reuse"
        return None

    def _rebuild_round(
        self, positions: np.ndarray, reason: str, tr
    ) -> list[tuple]:
        """Plan a fresh grid, cut new halo packs, run the rebuild round."""
        grid = plan_grid(
            positions, self.topology[0], self.topology[1], self.reach
        )
        warn_halo_dominated(
            positions, self.topology[0], self.topology[1], self.reach
        )
        ids = [
            tile_local_ids(positions, grid, t, self.reach)
            for t in range(self.n_workers)
        ]
        parts = [
            (len(ids[t]), grid.tile_bounds(t))
            for t in range(self.n_workers)
        ]
        self._ids = ids
        self._ids_flat = np.concatenate(ids) if ids else np.empty(
            0, dtype=np.int64
        )
        # Owned/ghost split per tile, from the same half-open ownership
        # comparisons the worker applies to its pack — bit-identical
        # decisions, so parent row splits and worker row splits agree.
        self._own_ids, self._own_rows = [], []
        self._ghost_ids, self._ghost_rows = [], []
        for t in range(self.n_workers):
            owned = owned_mask_local(
                positions[ids[t]], grid.tile_bounds(t)
            )
            own_rows = np.nonzero(owned)[0]
            ghost_rows = np.nonzero(~owned)[0]
            self._own_rows.append(own_rows)
            self._ghost_rows.append(ghost_rows)
            self._own_ids.append(ids[t][own_rows])
            self._ghost_ids.append(ids[t][ghost_rows])
        self._ref_positions = np.array(positions, copy=True)
        self._counts = [len(i) for i in ids]
        self.ghost_atoms = int(sum(self._counts)) - self.n_atoms
        metrics().gauge("parallel.ghost_atoms").set(float(self.ghost_atoms))
        self.n_builds += 1
        tp = self.transport
        tp.set_counts(self._counts)
        tpub0 = time.perf_counter()
        tp.scatter("positions", positions, ids)
        tp.scatter("types", self._types, ids)
        self._charge_ghost("positions", "types")
        t_pub = time.perf_counter() - tpub0
        return self._round("neighbor", ("rebuild",), tr, t_pub, parts=parts)

    # -- rounds ------------------------------------------------------------

    def _steady_round(
        self, stage: str, msg: tuple, channel: str, source, tr
    ) -> list[tuple]:
        """One overlapped steady round: owned scatter, post, publish, collect.

        With overlap on, the ghost publish runs *after* the command is
        posted — the workers' interior passes absorb its latency, and
        its wall time lands in the ``parallel.overlap`` span instead of
        the exposed halo total.  The slowest rank's residual
        ``halo_wait`` stall (reply tail) is recorded alongside; the two
        together feed :attr:`overlap_efficiency`.  With overlap off the
        publish happens before the post (the historical blocking order)
        and is charged as exposed halo time.
        """
        tp = self.transport
        sent0, recv0 = tp.bytes_sent, tp.bytes_recv
        t0 = time.perf_counter()
        tp.scatter_rows(channel, source, self._own_ids, self._own_rows)
        t_own = time.perf_counter() - t0
        t_ghost = 0.0
        if self.overlap:
            tp.post(msg)
            tg0 = time.perf_counter()
            tp.publish(
                channel, source, self._ghost_ids, self._ghost_rows,
                self._seq,
            )
            t_ghost = time.perf_counter() - tg0
        else:
            tg0 = time.perf_counter()
            tp.publish(
                channel, source, self._ghost_ids, self._ghost_rows,
                self._seq,
            )
            t_ghost = time.perf_counter() - tg0
            tp.post(msg)
        self._charge_ghost(channel)
        tc0 = time.perf_counter()
        replies = tp.collect()
        wall = time.perf_counter() - tc0
        compute = max((r[2] for r in replies if len(r) > 2), default=0.0)
        wait_max = max((r[4] for r in replies if len(r) > 4), default=0.0)
        exposed = t_own + max(0.0, wall - compute)
        if self.overlap:
            # the publish ran while the command was in flight: its cost
            # is hidden (up to the workers' measured residual stalls)
            self.overlap_seconds += t_ghost
            self.halo_wait_seconds += wait_max
            tr.record("parallel.overlap", t_ghost, {"stage": stage})
            tr.record("parallel.halo_wait", wait_max, {"stage": stage})
        else:
            exposed += t_ghost
        self._record_halo(stage, exposed, sent0, recv0, tr)
        return replies

    def _round(
        self, stage: str, msg: tuple, tr, t_pub: float = 0.0, parts=None
    ) -> list[tuple]:
        """One command round, with halo-exchange accounting.

        Compute-heavy commands honor the stagger policy (one rank at a
        time on CPU-starved hosts).

        The round's exposed communication time is the pack scatter cost
        plus the command wall time not covered by the slowest worker's
        compute time; it lands as a pre-measured ``halo_exchange``
        child span of the current phase, with the transport's byte
        deltas (actual pack bytes) attached as counters.
        """
        tp = self.transport
        sent0, recv0 = tp.bytes_sent, tp.bytes_recv
        t0 = time.perf_counter()
        # Only the rebuild round is long enough (tens of ms of binning
        # and candidate generation per rank) for one-rank-at-a-time
        # dispatch to pay for its serialized pipe round-trips; the
        # short steady rounds measure faster letting the OS interleave.
        stagger = self.stagger and msg[0] == "rebuild"
        replies = tp.command(msg, parts, stagger=stagger)
        wall = time.perf_counter() - t0
        compute = max((r[2] for r in replies), default=0.0)
        exposed = t_pub + max(0.0, wall - compute)
        self._record_halo(stage, exposed, sent0, recv0, tr)
        return replies

    def _gather_round(self, stage: str, names: tuple, tr) -> dict:
        """Pull result packs; account the gather as halo exchange."""
        tp = self.transport
        sent0, recv0 = tp.bytes_sent, tp.bytes_recv
        t0 = time.perf_counter()
        packs = {name: tp.gather(name) for name in names}
        self._record_halo(
            stage, time.perf_counter() - t0, sent0, recv0, tr
        )
        return packs

    def _record_halo(
        self, stage: str, exposed: float, sent0: int, recv0: int, tr
    ) -> None:
        tp = self.transport
        d_sent = tp.bytes_sent - sent0
        d_recv = tp.bytes_recv - recv0
        tr.record(
            "halo_exchange",
            exposed,
            {"bytes_sent": d_sent, "bytes_recv": d_recv, "stage": stage},
        )
        self.halo_seconds += exposed
        reg = metrics()
        reg.counter("parallel.halo.seconds").inc(exposed)
        reg.counter("parallel.halo.bytes_sent").inc(float(d_sent))
        reg.counter("parallel.halo.bytes_recv").inc(float(d_recv))

    def _account_stage(self, stage: str, secs: list[float], ph) -> None:
        """Attach per-shard timings to the span, metrics and telemetry."""
        total = self.shard_seconds[stage]
        for wid, s in enumerate(secs):
            total[wid] += s
        ph.add(shard_sum_s=sum(secs), shard_max_s=max(secs))
        metrics().histogram(f"parallel.{stage}.shard_s").observe_many(secs)

    def reset_shard_stats(self) -> None:
        """Zero the cumulative shard timings (steady-state benching)."""
        for stage in self.shard_seconds:
            self.shard_seconds[stage] = [0.0] * self.n_workers
        self.halo_seconds = 0.0
        self.overlap_seconds = 0.0
        self.halo_wait_seconds = 0.0

    def close(self) -> None:
        """Reap the workers and release the transport (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.transport.close()
