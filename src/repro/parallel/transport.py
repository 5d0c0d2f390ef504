"""Pluggable transports: how the pipeline reaches its shard workers.

The sharded force pipeline moves *sparse halo packs*, never full
arrays, and this module pins the movement down as the
:class:`Transport` protocol so the decomposition logic never knows how
bytes travel:

* **scatter** — :meth:`Transport.scatter` packs, per rank, only the
  rows a tile's halo region needs (``source[ids[k]]``) into that
  rank's slot prefix.  The id lists are the pipeline's cached halo
  pack indices, recomputed only on a candidate rebuild.
* **command + barrier** — :meth:`Transport.command` broadcasts one
  small message (optionally extended with a per-rank part) and blocks
  for every worker's reply, in rank order.  Replies are
  ``(flag, n_pairs, seconds, density_seconds, halo_wait_seconds)``
  tails; worker errors re-raise in the parent by exception name, like
  the serial path.  :meth:`Transport.post` / :meth:`Transport.collect`
  split the round so the parent can work while the shards compute.
* **publish** — :meth:`Transport.publish` ships a step's *ghost* rows
  asynchronously, after the round's command is already in flight: the
  workers run their interior pass on the owned rows delivered by
  :meth:`Transport.scatter_rows` and block (``wait_halo``) only right
  before the boundary pass.  Packs are double-buffered per step parity
  (shared: 2-slot arena side channels + seqlock flags; socket: eager
  ``__halo__`` frames absorbed by a buffered receive; inline:
  trivially complete), so publishing step ``N``'s ghosts can never
  tear a reader still on step ``N - 1``.
* **gather** — :meth:`Transport.gather` returns each rank's staged
  output prefix (partial density, pair energy, forces over its local
  atoms).  The parent scatter-adds the packs **in fixed rank order**
  (the seam reduction), so a trajectory is bitwise-reproducible for a
  given (topology, transport) — and because both transports deliver
  identical float64 bits in identical pack layouts, bitwise-identical
  *across* transports too.

Two implementations:

* :class:`ForkTransport` ("shared") — the historical single-host path:
  forked workers inherit a :class:`~repro.parallel.shm.SharedArena`
  holding one ``(n_workers, capacity, ...)`` row-per-rank array per
  channel; scatters are ``np.take`` straight into the rank's row,
  gathers are prefix views — zero copies beyond the pack itself.
* :class:`SocketTransport` ("socket") — the same worker protocol over
  TCP (:mod:`multiprocessing.connection`): packs ride as pickled
  buffers piggybacked on commands and replies, so shards can live in
  other processes or on other hosts (``repro.parallel.worker`` is the
  remote entry point; CI exercises loopback).

Both count ``bytes_sent``/``bytes_recv`` as the *actual pack prefix
bytes* — charged when a pack is scattered and when a gathered pack is
consumed — so halo-traffic numbers are real sparse volumes and are
identical across transports by construction (a speculative result the
parent discards is never charged, on either transport).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Protocol

import numpy as np

from repro.parallel.pool import WorkerPool, _RERAISABLE
from repro.parallel.shm import SharedArena

__all__ = [
    "Transport",
    "ShardWorker",
    "ForkTransport",
    "SocketTransport",
    "InlineTransport",
    "make_transport",
    "resolve_transport",
    "worker_loop",
    "remote_worker_main",
    "TRANSPORTS",
]

TRANSPORTS = ("shared", "socket", "inline")

#: Seconds to wait for a worker to exit before terminating it.
_REAP_TIMEOUT_S = 5.0


class Transport(Protocol):
    """What :class:`~repro.parallel.pipeline.ShardedForcePipeline` needs."""

    kind: str
    n_workers: int
    bytes_sent: int
    bytes_recv: int

    def set_counts(self, counts: list[int]) -> None: ...

    def scatter(
        self, name: str, source: np.ndarray, ids: list[np.ndarray]
    ) -> None: ...

    def scatter_rows(
        self,
        name: str,
        source: np.ndarray,
        ids: list[np.ndarray],
        rows: list[np.ndarray],
    ) -> None: ...

    def publish(
        self,
        name: str,
        source: np.ndarray,
        ids: list[np.ndarray],
        rows: list[np.ndarray],
        seq: int,
    ) -> None: ...

    def command(
        self, msg: tuple, parts: list[tuple] | None = None
    ) -> list[tuple]: ...

    def post(
        self, msg: tuple, parts: list[tuple] | None = None
    ) -> None: ...

    def collect(self) -> list[tuple]: ...

    def barrier(self) -> None: ...

    def gather(self, name: str) -> list[np.ndarray]: ...

    def close(self) -> None: ...


class _PackStage:
    """Grow-only staging buffers for pack gathers, keyed by (channel, tile).

    Every steady round gathers ``source[ids]`` rows before they cross a
    transport; staging them through per-key grow-only scratch means the
    steady state allocates nothing — the id lists only change on a
    rebuild, so after the first round every gather lands in an
    already-sized buffer (pinned by the no-allocation-growth arm of the
    halo byte-gate test).
    """

    def __init__(self) -> None:
        self._bufs: dict = {}

    def take(self, key, source: np.ndarray, idx: np.ndarray) -> np.ndarray:
        n = len(idx)
        buf = self._bufs.get(key)
        if buf is None or buf.shape[0] < n or buf.dtype != source.dtype:
            buf = np.empty((n, *source.shape[1:]), source.dtype)
            self._bufs[key] = buf
        view = buf[:n]
        np.take(source, idx, axis=0, out=view)
        return view


def _pack_nbytes(source: np.ndarray, idx: np.ndarray) -> int:
    """Bytes of the ``source[idx]`` pack, without materializing it."""
    row = source.dtype.itemsize
    for dim in source.shape[1:]:
        row *= dim
    return len(idx) * row


# -- the worker protocol (transport-independent) ---------------------------


class ShardWorker:
    """One tile's persistent protocol state machine.

    The worker owns its tile across steps: halo-pack positions, types,
    the owned-region mask and the local-index candidate list (with its
    build-time separations) all persist between commands, so a
    steady-state step moves only the pack and the results.  The Verlet
    skin trigger itself is evaluated parent-side (the parent owns every
    position, so its global check equals the OR over the covering tile
    sets exactly); by the time a ``dens`` command arrives, the
    candidates are guaranteed fresh.

    The candidate list is held as an **interior/boundary split**
    (:func:`~repro.parallel.domains.split_interior_boundary`): interior
    candidates touch only owned rows, so the interior filter + kernel
    pass runs before the step's ghost rows have even arrived; the
    worker blocks on the channel's ``wait_halo`` only immediately
    before the boundary pass.  Per-atom results merge as whole partial
    sums in a pinned order (``interior + boundary``), and a round with
    an empty class skips the merge outright — a single-tile run (no
    ghosts, empty boundary) therefore computes the exact unsplit bits,
    preserving the ``w=1`` bitwise-serial contract.

    * ``("dens", max_disp, seq)`` — read the owned position rows and
      distance-filter the *interior* candidates under the parent's
      global displacement bound (a valid upper bound for every tile,
      already in hand from the skin trigger): the bound either proves
      every candidate is still inside the cutoff (the filter skips its
      mask and compaction outright) or pre-masks candidates provably
      still out of range.  Run the interior density pass, wait for the
      step's ghost rows (``seq``), then filter + density the boundary
      class and merge, staging the local ``rho`` pack.
    * ``("rebuild", n_local, bounds)`` — read a freshly planned full
      pack (positions + types), recompute the owned mask from the tile
      bounds, rebuild the local candidate list via the seam rule and
      split it at the seam, then filter + density as above (no wait:
      rebuild packs arrive whole, before the command).
    * ``("force", seq)`` — read the ``f_der`` pack, run the pair-force
      pass over the cached interior pairs, wait for the ghost ``f_der``
      rows, run the boundary pass and merge, stage ``epair``/``forces``.

    :meth:`handle` returns ``("ok", flag, n_pairs, seconds,
    density_seconds, halo_wait_seconds)`` replies (or
    ``("error", type, text)``).  The compute body is identical under
    every transport — forked, remote *and* inline — which is what makes
    cross-transport trajectories bitwise-equal; and identical whether
    the parent published the ghosts before or after the command
    (``REPRO_PARALLEL_NO_OVERLAP``), which is what makes overlap-on
    bitwise-equal to overlap-off.

    Inner loops call the process's active kernel backend: ``numpy``,
    or ``parallel``, which re-exports the same numpy kernels.
    """

    def __init__(self, channel, cfg: dict):
        from repro.md.cell_list import CellList

        self.channel = channel
        self.cfg = cfg
        self.potential = cfg["potential"]
        self.cutoff = cfg["cutoff"]
        self.reach = cfg["reach"]
        self.cells = CellList(  # reused buffers across rebuilds
            cfg["box"], self.reach,
            subdivide=cfg.get("subdivide", 1),
        )
        self.n_local = 0
        self.types_l = None
        self.shard_int = None  # interior candidates (owned-owned)
        self.shard_bnd = None  # boundary candidates (touching a ghost)
        self.table_int = None
        self.table_bnd = None
        self.cache_int: dict = {}
        self.cache_bnd: dict = {}
        self.ghost_rows = np.empty(0, dtype=np.int64)
        self.positions = None  # current pack (persists dens -> force)
        self.d_max = 0.0  # parent's displacement bound since the rebuild

    def _wait_halo(self, name: str, seq) -> float:
        """Block until the step's ghost rows landed; return the stall.

        A tile with no ghost rows (single-worker runs, interior-only
        tiles of degenerate decompositions) never waits — the parent
        publishes nothing for it.  ``seq is None`` marks a rebuild
        round, whose packs arrived whole before the command.
        """
        if seq is None or len(self.ghost_rows) == 0:
            return 0.0
        t0 = time.perf_counter()
        self.channel.wait_halo(name, seq)
        return time.perf_counter() - t0

    def _two_phase_density(self, t0: float, seq) -> tuple:
        """Interior filter + density, ghost wait, boundary pass, merge."""
        pos = self.positions
        self.table_int = self.shard_int.pairs(
            pos, self.cutoff, max_disp=self.d_max
        )
        td = time.perf_counter()
        rho_int, self.cache_int = self.potential.fused_density(
            self.n_local, self.table_int, self.types_l
        )
        t_dens = time.perf_counter() - td
        t_wait = self._wait_halo("positions", seq)
        self.table_bnd = self.shard_bnd.pairs(
            pos, self.cutoff, max_disp=self.d_max
        )
        td = time.perf_counter()
        if self.table_bnd.n_pairs:
            rho_bnd, self.cache_bnd = self.potential.fused_density(
                self.n_local, self.table_bnd, self.types_l
            )
            # pinned merge order: interior partial + boundary partial;
            # an empty class skips the merge so the populated class's
            # bits pass through untouched (the w=1 exactness hinge)
            if self.table_int.n_pairs:
                rho = np.add(rho_int, rho_bnd, out=rho_int)
            else:
                rho = rho_bnd
        else:
            self.cache_bnd = {}
            rho = rho_int
        t_dens += time.perf_counter() - td
        self.channel.put("rho", rho)
        n_pairs = self.table_int.n_pairs + self.table_bnd.n_pairs
        return (
            "ok", 0, n_pairs, time.perf_counter() - t0, t_dens, t_wait,
        )

    def handle(self, msg: tuple) -> tuple:
        """Serve one command, returning its reply tuple."""
        from repro.parallel.domains import (
            build_local_pairs,
            owned_mask_local,
            split_interior_boundary,
        )

        cmd = msg[0]
        t0 = time.perf_counter()
        try:
            if cmd == "dens":
                self.positions = self.channel.get("positions", self.n_local)
                # The parent's global displacement bound (from its skin
                # trigger) rides on the command: it upper-bounds every
                # tile's local displacement, so the tile pays no einsum
                # of its own.  A looser bound only weakens the provably
                # bit-neutral cross-step cuts, never the emitted pairs.
                self.d_max = float(msg[1])
                return self._two_phase_density(t0, msg[2])
            if cmd == "rebuild":
                self.n_local = int(msg[1])
                bounds = msg[2]
                self.positions = self.channel.get(
                    "positions", self.n_local
                )
                self.types_l = self.channel.get("types", self.n_local)
                owned = owned_mask_local(self.positions, bounds)
                shard = build_local_pairs(
                    self.positions, owned,
                    box=self.cfg["box"], reach=self.reach,
                    cells=self.cells,
                )
                self.shard_int, self.shard_bnd = split_interior_boundary(
                    shard, owned
                )
                self.ghost_rows = np.nonzero(~owned)[0]
                set_rows = getattr(self.channel, "set_rows", None)
                if set_rows is not None:
                    set_rows(np.nonzero(owned)[0], self.ghost_rows)
                self.d_max = 0.0
                return self._two_phase_density(t0, None)
            if cmd == "force":
                seq = msg[1] if len(msg) > 1 else None
                f_der = self.channel.get("f_der", self.n_local)
                e_int, f_int = self.potential.fused_pair_force(
                    self.n_local, self.table_int, f_der, self.types_l,
                    cache=self.cache_int,
                )
                t_wait = self._wait_halo("f_der", seq)
                if self.table_bnd.n_pairs:
                    e_bnd, f_bnd = self.potential.fused_pair_force(
                        self.n_local, self.table_bnd, f_der, self.types_l,
                        cache=self.cache_bnd,
                    )
                    if self.table_int.n_pairs:
                        e_pair = np.add(e_int, e_bnd, out=e_int)
                        forces = np.add(f_int, f_bnd, out=f_int)
                    else:
                        e_pair, forces = e_bnd, f_bnd
                else:
                    e_pair, forces = e_int, f_int
                self.channel.put("epair", e_pair)
                self.channel.put("forces", forces)
                n_pairs = self.table_int.n_pairs + self.table_bnd.n_pairs
                return (
                    "ok", 0, n_pairs,
                    time.perf_counter() - t0, 0.0, t_wait,
                )
            if cmd == "ping":
                return ("ok", 0, 0, time.perf_counter() - t0, 0.0, 0.0)
            return ("error", "ValueError", f"unknown command {cmd!r}")
        except Exception as exc:  # report, keep serving
            return ("error", type(exc).__name__, str(exc))


def worker_loop(channel, wid: int, cfg: dict) -> None:
    """Serve :class:`ShardWorker` commands over a channel until stop."""
    worker = ShardWorker(channel, cfg)
    while True:
        try:
            msg = channel.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        channel.send(worker.handle(msg))
    channel.close()


class _ArenaChannel:
    """Worker-side channel over fork-inherited shared memory + a pipe.

    Every arena array is ``(n_workers, capacity, ...)``; this worker
    reads input pack prefixes from — and writes output pack prefixes
    into — its own row.  A parent scatter is instantly visible.

    Ghost rows arrive through the ``<name>__halo`` side channels: two
    ``(capacity, ...)`` slots per halo channel, indexed by step parity,
    with a per-channel ``__halo_seq__`` flag the parent stores *after*
    the slot write.  :meth:`wait_halo` spins on the flag (an aligned
    int64: the store is atomic, and publication ordering leans on
    x86-TSO plus the interpreter's per-array-op call boundaries — on a
    weaker memory model run ``REPRO_PARALLEL_NO_OVERLAP=1``), then
    copies the slot into its ghost rows.  Two slots mean the parent may
    publish step ``N + 1`` while a straggler still reads step ``N``.
    """

    def __init__(
        self,
        conn,
        wid: int,
        shared: dict,
        outputs: tuple,
        halo: tuple = (),
    ) -> None:
        self._conn = conn
        skip = set(outputs) | {_halo_name(h) for h in halo} | {_HALO_SEQ}
        self._in = {k: v[wid] for k, v in shared.items() if k not in skip}
        self._out = {k: shared[k][wid] for k in outputs}
        self._halo = {h: shared[_halo_name(h)][wid] for h in halo}
        self._flags = shared[_HALO_SEQ][wid] if halo else None
        self._col = {h: i for i, h in enumerate(halo)}
        self._ghost_rows = np.empty(0, dtype=np.int64)

    def recv(self):
        return self._conn.recv()

    def send(self, reply: tuple) -> None:
        self._conn.send(reply)

    def get(self, name: str, n: int) -> np.ndarray:
        return self._in[name][:n]

    def put(self, name: str, data: np.ndarray) -> None:
        self._out[name][: len(data)] = data

    def set_rows(self, own_rows: np.ndarray, ghost_rows: np.ndarray) -> None:
        self._ghost_rows = ghost_rows

    def wait_halo(self, name: str, seq: int) -> None:
        flags = self._flags
        col = self._col[name]
        spins = 0
        while flags[col] < seq:
            spins += 1
            # yield immediately; back off to a short sleep so a stalled
            # parent never pins this core at 100%
            time.sleep(0.0 if spins < 2000 else 5e-5)
        rows = self._ghost_rows
        self._in[name][rows] = self._halo[name][seq & 1][: len(rows)]

    def close(self) -> None:
        self._conn.close()


class _SocketChannel:
    """Worker-side channel over one ``multiprocessing.connection`` link.

    Incoming messages are ``(msg, packs)`` — each pack a
    ``("full" | "own", rows)`` pair that either replaces the persistent
    local buffer (rebuild) or refreshes its owned rows (steady step);
    outputs staged with :meth:`put` piggyback on the next reply as
    ``(reply, outputs)``.  Ghost rows travel as separate eagerly-sent
    ``("__halo__", seq, packs)`` frames: the connection is FIFO, so a
    frame published *before* the command (the no-overlap path) is
    absorbed by the buffered :meth:`recv` loop, and one published after
    is drained by :meth:`wait_halo` right before the boundary pass.
    """

    def __init__(self, conn) -> None:
        self._conn = conn
        self._in: dict[str, np.ndarray] = {}
        self._staged: dict[str, np.ndarray] = {}
        self._own_rows = np.empty(0, dtype=np.int64)
        self._ghost_rows = np.empty(0, dtype=np.int64)
        self._halo_seq: dict[str, int] = {}

    def _ensure(self, name: str, pack: np.ndarray) -> np.ndarray:
        """Persistent local buffer for a row-patched channel.

        Channels that only ever travel as owned/ghost row patches
        (``f_der``) never arrive whole; their buffer is allocated here,
        sized to the current local set, and replaced when a rebuild
        changes that size.
        """
        n = len(self._own_rows) + len(self._ghost_rows)
        buf = self._in.get(name)
        if buf is None or len(buf) != n:
            buf = np.empty((n, *pack.shape[1:]), pack.dtype)
            self._in[name] = buf
        return buf

    def _apply_halo(self, frame: tuple) -> None:
        _, seq, packs = frame
        for name, pack in packs.items():
            self._ensure(name, pack)[self._ghost_rows] = pack
            self._halo_seq[name] = seq

    def recv(self):
        while True:
            obj = self._conn.recv()
            if obj and obj[0] == "__halo__":
                self._apply_halo(obj)
                continue
            msg, bufs = obj
            for name, (tag, pack) in bufs.items():
                if tag == "full":
                    self._in[name] = pack
                else:
                    self._ensure(name, pack)[self._own_rows] = pack
            return msg

    def send(self, reply: tuple) -> None:
        self._conn.send((reply, self._staged))
        self._staged = {}

    def get(self, name: str, n: int) -> np.ndarray:
        pack = self._in[name]
        if len(pack) != n:  # pragma: no cover - protocol violation
            raise RuntimeError(
                f"pack {name!r} has {len(pack)} rows, expected {n}"
            )
        return pack

    def put(self, name: str, data: np.ndarray) -> None:
        self._staged[name] = np.ascontiguousarray(data)

    def set_rows(self, own_rows: np.ndarray, ghost_rows: np.ndarray) -> None:
        self._own_rows = own_rows
        self._ghost_rows = ghost_rows

    def wait_halo(self, name: str, seq: int) -> None:
        while self._halo_seq.get(name, -1) < seq:
            frame = self._conn.recv()
            if not frame or frame[0] != "__halo__":
                # pragma: no cover - protocol violation: commands never
                # overtake their round's reply
                raise RuntimeError(
                    f"expected a halo frame for {name!r}, got {frame!r:.60}"
                )
            self._apply_halo(frame)

    def close(self) -> None:
        self._conn.close()


#: Arena array holding one published-step flag per (rank, halo channel).
_HALO_SEQ = "__halo_seq__"


def _halo_name(channel: str) -> str:
    """Arena name of a channel's double-buffered ghost side channel."""
    return f"{channel}__halo"


def _fork_worker_entry(conn, wid: int, shared: dict, cfg: dict) -> None:
    """Fork-pool entry: wrap the inherited arena into a channel."""
    channel = _ArenaChannel(
        conn, wid, shared, cfg["outputs"], cfg.get("halo", ())
    )
    worker_loop(channel, wid, cfg)


def remote_worker_main(address, authkey: bytes, rank: int) -> None:
    """Socket-transport worker entry: connect, handshake, serve.

    Runs in a separate process (loopback CI) or on another host
    (``python -m repro.parallel.worker``).  The handshake carries the
    rank so the parent can order connections deterministically, then
    the parent ships the full worker config (potential included) in a
    ``setup`` message before the first command.
    """
    from multiprocessing.connection import Client

    conn = Client(address, authkey=authkey)
    conn.send(("hello", rank))
    msg = conn.recv()
    if msg[0] != "setup":  # pragma: no cover - protocol violation
        conn.close()
        raise RuntimeError(f"expected setup message, got {msg[0]!r}")
    cfg = msg[1]
    worker_loop(_SocketChannel(conn), rank, cfg)


# -- parent-side transports ------------------------------------------------


class ForkTransport:
    """Shared-memory transport: SharedArena + forked worker pool.

    ``inputs``/``outputs`` are ``{name: (shape, dtype)}`` per-rank
    capacity specs; every channel gets a leading ``n_workers`` row
    dimension in the arena, and only pack prefixes ever move.
    """

    kind = "shared"

    def __init__(
        self,
        n_workers: int,
        inputs: dict,
        outputs: dict,
        cfg: dict,
        *,
        name: str = "repro-shard",
        halo: tuple = (),
    ) -> None:
        self.n_workers = n_workers
        self.bytes_sent = 0
        self.bytes_recv = 0
        self._counts = [0] * n_workers
        self._halo = tuple(halo)
        self._col = {h: i for i, h in enumerate(self._halo)}
        specs = {
            cname: ((n_workers, *shape), dtype)
            for cname, (shape, dtype) in {**inputs, **outputs}.items()
        }
        for h in self._halo:
            shape, dtype = inputs[h]
            # two ghost slots per rank, indexed by step parity
            specs[_halo_name(h)] = ((n_workers, 2, *shape), dtype)
        if self._halo:
            # SharedMemory is zero-filled, so every flag starts below
            # the first published seq (the pipeline counts from 1)
            specs[_HALO_SEQ] = ((n_workers, len(self._halo)), np.int64)
        self.arena = SharedArena(specs)
        self._stage = _PackStage()
        cfg = dict(cfg, outputs=tuple(outputs), halo=self._halo)
        self.pool = WorkerPool(
            n_workers, self.arena.arrays, cfg, main=_fork_worker_entry,
            name=name,
        )

    def set_counts(self, counts: list[int]) -> None:
        self._counts = list(counts)

    def scatter(self, name: str, source, ids: list[np.ndarray]) -> None:
        rows = self.arena[name]
        for k, idx in enumerate(ids):
            pack = rows[k, : len(idx)]
            np.take(source, idx, axis=0, out=pack)
            self.bytes_sent += pack.nbytes

    def scatter_rows(
        self,
        name: str,
        source,
        ids: list[np.ndarray],
        rows: list[np.ndarray],
    ) -> None:
        arena_rows = self.arena[name]
        for k, idx in enumerate(ids):
            pack = self._stage.take((name, k), source, idx)
            arena_rows[k][rows[k]] = pack
            self.bytes_sent += pack.nbytes

    def publish(
        self,
        name: str,
        source,
        ids: list[np.ndarray],
        rows: list[np.ndarray],
        seq: int,
    ) -> None:
        halo = self.arena[_halo_name(name)]
        flags = self.arena[_HALO_SEQ]
        col = self._col[name]
        slot = seq & 1
        for k, idx in enumerate(ids):
            if len(idx):
                pack = halo[k, slot, : len(idx)]
                np.take(source, idx, axis=0, out=pack)
                self.bytes_sent += pack.nbytes
            # the flag store comes program-order after the slot write;
            # aligned int64 stores are atomic and x86-TSO keeps them
            # ordered (see _ArenaChannel.wait_halo)
            flags[k, col] = seq

    def command(
        self,
        msg: tuple,
        parts: list[tuple] | None = None,
        *,
        stagger: bool = False,
    ) -> list[tuple]:
        return self.pool.command(msg, parts, stagger=stagger)

    def post(self, msg: tuple, parts: list[tuple] | None = None) -> None:
        self.pool.post(msg, parts)

    def collect(self) -> list[tuple]:
        return self.pool.collect()

    def barrier(self) -> None:
        self.pool.command(("ping",))

    def gather(self, name: str) -> list[np.ndarray]:
        rows = self.arena[name]
        packs = [rows[k, : self._counts[k]] for k in range(self.n_workers)]
        self.bytes_recv += sum(p.nbytes for p in packs)
        return packs

    def close(self) -> None:
        self.pool.close()
        self.arena.close()


class SocketTransport:
    """TCP transport over :mod:`multiprocessing.connection`.

    The parent listens on loopback, spawns (or, via
    ``repro.parallel.worker``, awaits) one worker per rank, and sends
    each rank only *its* scattered packs, pickled onto the next
    command; workers return their staged output packs piggybacked on
    replies.  Pickling preserves float64 bits, so the pack reduction
    matches the shared-memory transport bitwise.
    """

    kind = "socket"

    def __init__(
        self,
        n_workers: int,
        inputs: dict,
        outputs: dict,
        cfg: dict,
        *,
        name: str = "repro-shard",
        address: tuple[str, int] = ("127.0.0.1", 0),
        spawn_workers: bool = True,
        halo: tuple = (),
    ) -> None:
        from multiprocessing.connection import Listener

        self.n_workers = n_workers
        self.bytes_sent = 0
        self.bytes_recv = 0
        self._counts = [0] * n_workers
        self._stage = _PackStage()
        self._pending: list[dict[str, tuple]] = [
            {} for _ in range(n_workers)
        ]
        self._received: list[dict[str, np.ndarray]] = [
            {} for _ in range(n_workers)
        ]
        authkey = os.urandom(16)
        self._listener = Listener(address, authkey=authkey)
        self._procs = []
        if spawn_workers:
            ctx = multiprocessing.get_context("fork")
            for rank in range(n_workers):
                proc = ctx.Process(
                    target=remote_worker_main,
                    args=(self._listener.address, authkey, rank),
                    daemon=True,
                    name=f"{name}-sock-{rank}",
                )
                proc.start()
                self._procs.append(proc)
        # Accept in arrival order, then seat by handshake rank so the
        # pack reduction order is the topology's, not the race's.
        self._conns: list = [None] * n_workers
        for _ in range(n_workers):
            conn = self._listener.accept()
            hello = conn.recv()
            if hello[0] != "hello":  # pragma: no cover - protocol violation
                raise RuntimeError(f"expected hello, got {hello[0]!r}")
            rank = int(hello[1])
            if not 0 <= rank < n_workers or self._conns[rank] is not None:
                raise RuntimeError(f"bad worker rank {rank}")
            self._conns[rank] = conn
        setup = ("setup", dict(cfg, outputs=tuple(outputs)))
        for conn in self._conns:
            conn.send(setup)

    def set_counts(self, counts: list[int]) -> None:
        self._counts = list(counts)

    def scatter(self, name: str, source, ids: list[np.ndarray]) -> None:
        source = np.asarray(source)
        for k, idx in enumerate(ids):
            pack = self._stage.take((name, k), source, idx)
            self._pending[k][name] = ("full", pack)
            self.bytes_sent += pack.nbytes

    def scatter_rows(
        self,
        name: str,
        source,
        ids: list[np.ndarray],
        rows: list[np.ndarray],
    ) -> None:
        # the worker knows its own/ghost rows; only the owned values
        # travel, tagged so the channel patches rather than replaces
        source = np.asarray(source)
        for k, idx in enumerate(ids):
            pack = self._stage.take((name, k), source, idx)
            self._pending[k][name] = ("own", pack)
            self.bytes_sent += pack.nbytes

    def publish(
        self,
        name: str,
        source,
        ids: list[np.ndarray],
        rows: list[np.ndarray],
        seq: int,
    ) -> None:
        # eager send: the frame rides the connection behind (or, in the
        # no-overlap path, ahead of) the round's command — FIFO order
        # is the only synchronization the buffered receive needs
        source = np.asarray(source)
        for k, idx in enumerate(ids):
            if not len(idx):
                continue
            pack = self._stage.take((_halo_name(name), k), source, idx)
            self._conns[k].send(("__halo__", seq, {name: pack}))
            self.bytes_sent += pack.nbytes

    def command(
        self,
        msg: tuple,
        parts: list[tuple] | None = None,
        *,
        stagger: bool = False,
    ) -> list[tuple]:
        if not stagger:
            self.post(msg, parts)
            return self.collect()
        replies: list[tuple] = []
        for wid, conn in enumerate(self._conns):
            rank_msg = msg if parts is None else msg + tuple(parts[wid])
            conn.send((rank_msg, self._pending[wid]))
            self._pending[wid] = {}
            # One worker at a time: on CPU-starved hosts this stops
            # the shards evicting each other's caches mid-pass.
            # Replies are identical either way.
            replies.append(self._recv_reply(wid))
        return self._finish(replies)

    def post(self, msg: tuple, parts: list[tuple] | None = None) -> None:
        for wid, conn in enumerate(self._conns):
            rank_msg = msg if parts is None else msg + tuple(parts[wid])
            conn.send((rank_msg, self._pending[wid]))
            self._pending[wid] = {}

    def collect(self) -> list[tuple]:
        replies = [self._recv_reply(wid) for wid in range(len(self._conns))]
        return self._finish(replies)

    def _finish(self, replies: list[tuple]) -> list[tuple]:
        error: tuple | None = None
        for wid, reply in enumerate(replies):
            if reply and reply[0] == "error" and error is None:
                error = (wid, reply[1], reply[2])
        if error is not None:
            wid, kind, text = error
            exc_type = _RERAISABLE.get(kind, RuntimeError)
            raise exc_type(f"shard worker {wid}: {text}")
        return replies

    def _recv_reply(self, wid: int) -> tuple:
        """One rank's reply payload; staged packs are absorbed en route."""
        try:
            reply, out = self._conns[wid].recv()
        except (EOFError, OSError) as exc:
            reply = ("error", "RuntimeError", f"worker {wid} died: {exc}")
            out = {}
        self._received[wid].update(out)
        if reply[0] == "error":
            return reply
        return reply[1:]

    def barrier(self) -> None:
        self.command(("ping",))

    def gather(self, name: str) -> list[np.ndarray]:
        packs = []
        for wid in range(self.n_workers):
            pack = self._received[wid][name]
            if len(pack) != self._counts[wid]:  # pragma: no cover
                raise RuntimeError(
                    f"rank {wid} staged {len(pack)} rows of {name!r}, "
                    f"expected {self._counts[wid]}"
                )
            self.bytes_recv += pack.nbytes
            packs.append(pack)
        return packs

    def close(self) -> None:
        """Stop and reap the workers (idempotent, dead-worker safe)."""
        for conn in self._conns:
            if conn is None:
                continue
            try:
                conn.send((("stop",), {}))
            except (BrokenPipeError, OSError):
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        self._conns = []
        for proc in self._procs:
            proc.join(timeout=_REAP_TIMEOUT_S)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        self._procs = []
        if self._listener is not None:
            self._listener.close()
            self._listener = None


class _InlineChannel:
    """In-process channel: packs live in two plain dicts.

    Input packs are stored by :meth:`InlineTransport.scatter` into
    per-rank reusable buffers; outputs staged with :meth:`put` are read
    back by :meth:`InlineTransport.gather`.  ``recv``/``send`` never
    run — the transport invokes :meth:`ShardWorker.handle` directly.

    Halo publication is trivially complete: the transport finishes
    every pack write during :meth:`InlineTransport.publish`, before the
    round's handlers run inside ``collect()``, so :meth:`wait_halo`
    only asserts the protocol ordering (a wait can never block).
    """

    def __init__(self) -> None:
        self.inputs: dict[str, np.ndarray] = {}
        self.outputs: dict[str, np.ndarray] = {}
        self.halo_seq: dict[str, int] = {}

    def get(self, name: str, n: int) -> np.ndarray:
        return self.inputs[name]

    def put(self, name: str, data: np.ndarray) -> None:
        self.outputs[name] = data

    def set_rows(self, own_rows: np.ndarray, ghost_rows: np.ndarray) -> None:
        pass  # the transport writes rows parent-side

    def wait_halo(self, name: str, seq: int) -> None:
        if self.halo_seq.get(name, -1) < seq:  # pragma: no cover
            raise RuntimeError(
                f"halo {name!r} seq {seq} not published before collect()"
            )


class InlineTransport:
    """In-process transport: virtual shard workers, zero IPC.

    Hosts ``n_workers`` :class:`ShardWorker` state machines inside the
    parent process and runs each command synchronously in rank order.
    The compute body, pack layouts and fixed-order reduction are
    exactly the forked/remote ones, so trajectories are bitwise-equal
    to the other transports by construction — this tier changes
    *where* the protocol runs, never what it computes.

    Exists because process parallelism needs spare cores: on a host
    with fewer CPUs than workers the forked tiers timeshare one core
    and pay IPC + context-switch tax for zero concurrency, while the
    tile decomposition itself is still profitable (tile-sized arrays
    cache better than the global arrays, and dead-block pruning makes
    tile rebuilds cheaper than a global rebuild).  ``resolve_transport``
    picks this tier automatically on such hosts.

    Byte counters report the same sparse pack prefixes the wire
    transports would carry — halo volume is a protocol property, not a
    copper property — so accounting stays comparable across tiers.
    Input packs reuse per-rank buffers sized from ``inputs`` capacity
    specs: steady-state steps allocate nothing on the scatter path.
    """

    kind = "inline"

    def __init__(
        self,
        n_workers: int,
        inputs: dict,
        outputs: dict,
        cfg: dict,
        *,
        name: str = "repro-shard",
        halo: tuple = (),
    ) -> None:
        self.n_workers = n_workers
        self.bytes_sent = 0
        self.bytes_recv = 0
        self._counts = [0] * n_workers
        self._channels = [_InlineChannel() for _ in range(n_workers)]
        self._buffers = [
            {
                cname: np.empty(shape, dtype)
                for cname, (shape, dtype) in inputs.items()
            }
            for _ in range(n_workers)
        ]
        self._own_part: dict[str, tuple] = {}
        self._full_ids: dict = {}
        wcfg = dict(cfg, outputs=tuple(outputs))
        self._workers = [
            ShardWorker(ch, wcfg)
            for ch in self._channels
        ]

    def set_counts(self, counts: list[int]) -> None:
        self._counts = list(counts)

    def scatter(self, name: str, source, ids: list[np.ndarray]) -> None:
        for k, idx in enumerate(ids):
            pack = self._buffers[k][name][: len(idx)]
            np.take(source, idx, axis=0, out=pack)
            self._channels[k].inputs[name] = pack
            self.bytes_sent += pack.nbytes

    def scatter_rows(
        self,
        name: str,
        source,
        ids: list[np.ndarray],
        rows: list[np.ndarray],
    ) -> None:
        # in-process there is nothing to overlap with: defer the write
        # and fuse it with publish() into the single full-prefix
        # np.take of the blocking path (same bits, same cost); only
        # the byte accounting observes the owned/ghost split
        for idx in ids:
            self.bytes_sent += _pack_nbytes(source, idx)
        self._own_part[name] = (source, ids, rows)

    def publish(
        self,
        name: str,
        source,
        ids: list[np.ndarray],
        rows: list[np.ndarray],
        seq: int,
    ) -> None:
        own_source, own_ids, own_rows = self._own_part.pop(name)
        for k, g_idx in enumerate(ids):
            full = self._fused_ids(
                name, k, own_ids[k], own_rows[k], g_idx, rows[k]
            )
            pack = self._buffers[k][name][: len(full)]
            np.take(own_source, full, axis=0, out=pack)
            self._channels[k].inputs[name] = pack
            self._channels[k].halo_seq[name] = seq
            self.bytes_sent += _pack_nbytes(source, g_idx)

    def _fused_ids(self, name, k, own_ids, own_rows, ghost_ids, ghost_rows):
        """Owned + ghost ids re-interleaved to the full pack order.

        Cached per (channel, rank) against the id-list identities —
        the pipeline only replaces them on a rebuild, so steady steps
        reuse the composite without allocating.
        """
        key = (name, k)
        cached = self._full_ids.get(key)
        if cached is not None and cached[0] is own_ids and cached[1] is ghost_ids:
            return cached[2]
        full = np.empty(len(own_ids) + len(ghost_ids), dtype=np.int64)
        full[own_rows] = own_ids
        full[ghost_rows] = ghost_ids
        self._full_ids[key] = (own_ids, ghost_ids, full)
        return full

    def command(
        self,
        msg: tuple,
        parts: list[tuple] | None = None,
        *,
        stagger: bool = False,
    ) -> list[tuple]:
        # stagger is meaningless here: rank order IS the execution
        # order, with no competing processes to interleave.
        self.post(msg, parts)
        return self.collect()

    def post(self, msg: tuple, parts: list[tuple] | None = None) -> None:
        self._posted = (msg, parts)

    def collect(self) -> list[tuple]:
        msg, parts = self._posted
        replies: list[tuple] = []
        for wid, worker in enumerate(self._workers):
            rank_msg = msg if parts is None else msg + tuple(parts[wid])
            replies.append(worker.handle(rank_msg))
        error: tuple | None = None
        for wid, reply in enumerate(replies):
            if reply and reply[0] == "error" and error is None:
                error = (wid, reply[1], reply[2])
        if error is not None:
            wid, kind, text = error
            exc_type = _RERAISABLE.get(kind, RuntimeError)
            raise exc_type(f"shard worker {wid}: {text}")
        return [r[1:] for r in replies]

    def barrier(self) -> None:
        self.command(("ping",))

    def gather(self, name: str) -> list[np.ndarray]:
        packs = []
        for wid in range(self.n_workers):
            pack = self._channels[wid].outputs[name]
            if len(pack) != self._counts[wid]:  # pragma: no cover
                raise RuntimeError(
                    f"rank {wid} staged {len(pack)} rows of {name!r}, "
                    f"expected {self._counts[wid]}"
                )
            self.bytes_recv += pack.nbytes
            packs.append(pack)
        return packs

    def close(self) -> None:
        self._workers = []
        self._channels = []
        self._buffers = []


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-linux
        return os.cpu_count() or 1


def resolve_transport(kind: str | None, n_workers: int) -> str:
    """Resolve ``None``/``"auto"`` to a concrete transport kind.

    Process-backed transports only pay off with spare cores: when the
    host has fewer CPUs than workers (or only one worker), the forked
    tiers add IPC and context-switch cost for zero concurrency, so
    ``auto`` picks the inline tier instead — same bits, no processes.

    A core-starved auto-inline pick warns once per (workers, cpus)
    shape: the user asked for parallelism the host cannot deliver, and
    should know the shards run in-process (``n_workers == 1`` stays
    silent — a single worker has nothing to overlap regardless).
    """
    if kind not in (None, "auto"):
        return kind
    if n_workers == 1:
        return "inline"
    cpus = usable_cpus()
    if cpus < n_workers:
        from repro.parallel import warn_once

        warn_once(
            f"auto-inline-{n_workers}w-{cpus}c",
            f"transport='auto' picked the inline tier: {n_workers} "
            f"workers but only {cpus} usable CPU(s), so forked workers "
            f"would timeshare cores for no concurrency "
            f"(set REPRO_PARALLEL_TRANSPORT=shared to override)",
        )
        return "inline"
    return "shared"


def make_transport(
    kind: str | None,
    n_workers: int,
    inputs: dict,
    outputs: dict,
    cfg: dict,
    *,
    name: str = "repro-shard",
    halo: tuple = (),
) -> ForkTransport | SocketTransport | InlineTransport:
    """Construct the named transport (``None``/``"auto"`` adapt to host).

    ``halo`` names the input channels whose ghost rows may be published
    asynchronously (:meth:`Transport.publish`); the shared-memory tier
    sizes its double-buffered side channels from it at arena-creation
    time, pre-fork.
    """
    kind = resolve_transport(kind, n_workers)
    if kind == "shared":
        return ForkTransport(
            n_workers, inputs, outputs, cfg, name=name, halo=halo
        )
    if kind == "socket":
        return SocketTransport(
            n_workers, inputs, outputs, cfg, name=name, halo=halo
        )
    if kind == "inline":
        return InlineTransport(
            n_workers, inputs, outputs, cfg, name=name, halo=halo
        )
    raise ValueError(
        f"unknown transport {kind!r}; expected one of {TRANSPORTS}"
    )
