"""Declarative run configuration: the :class:`RunSpec`.

A spec names everything that determines a trajectory — workload
(element, slab replications, temperature), engine, timestep, thermostat,
swap interval, duration and seed — in one frozen dataclass loadable
from TOML or JSON.  The engine factory (:mod:`repro.runtime.engines`)
turns a spec into a running engine; two engines built from the same
spec produce the same physics, and two *reference* engines built from
the same spec produce bit-identical trajectories.

Validation is strict and loud: unknown keys, out-of-range values and
unsupported combinations raise :class:`SpecError` at parse time, never
silently at step 10,000 of a campaign.

:meth:`RunSpec.spec_hash` digests only the physics-determining fields
(not ``steps``, ``backend`` or checkpointing knobs), so a checkpoint
written under a spec can be resumed with a longer ``steps`` or a
different kernel backend but never with different physics.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path

__all__ = ["SpecError", "ThermostatSpec", "RunSpec"]

ENGINES = ("reference", "wse")
THERMOSTAT_KINDS = ("berendsen", "langevin")

#: Fields that determine the trajectory (hashed for checkpoint
#: compatibility).  ``steps`` is run *length*, ``backend``/``workers``
#: are run *speed*, ``checkpoint_interval`` is bookkeeping — none
#: change physics, so all are excluded.
PHYSICS_FIELDS = (
    "element",
    "reps",
    "temperature",
    "engine",
    "dt_fs",
    "skin",
    "seed",
    "thermostat",
    "swap_interval",
    "force_symmetry",
)


class SpecError(ValueError):
    """A run spec is malformed, out of range, or inconsistent."""


@dataclass(frozen=True)
class ThermostatSpec:
    """Temperature-control section of a run spec.

    ``tau_fs`` is the Berendsen coupling time or the Langevin damping
    time (both in femtoseconds; LAMMPS conventions).
    """

    kind: str
    temperature: float
    tau_fs: float = 100.0

    def __post_init__(self) -> None:
        if self.kind not in THERMOSTAT_KINDS:
            raise SpecError(
                f"unknown thermostat kind {self.kind!r}; "
                f"expected one of {THERMOSTAT_KINDS}"
            )
        if self.temperature < 0:
            raise SpecError(
                f"thermostat temperature must be >= 0, got {self.temperature}"
            )
        if self.tau_fs <= 0:
            raise SpecError(f"thermostat tau_fs must be > 0, got {self.tau_fs}")

    @classmethod
    def from_dict(cls, data: dict) -> "ThermostatSpec":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise SpecError(f"unknown thermostat keys: {sorted(unknown)}")
        if "kind" not in data or "temperature" not in data:
            raise SpecError("thermostat requires 'kind' and 'temperature'")
        return cls(**data)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "temperature": float(self.temperature),
            "tau_fs": float(self.tau_fs),
        }


@dataclass(frozen=True)
class RunSpec:
    """Everything that determines one MD run.

    Attributes
    ----------
    element:
        Benchmark metal (``Cu``, ``W``, ``Ta``).
    reps:
        Thin-slab unit-cell replications ``(nx, ny, nz)``.
    temperature:
        Initial Maxwell-Boltzmann temperature (K); 0 leaves atoms cold.
    engine:
        ``"reference"`` (the LAMMPS-analogue loop) or ``"wse"`` (the
        lockstep wafer machine).
    steps:
        Run length in timesteps.
    seed:
        Master seed; split into independent named streams
        (:mod:`repro.runtime.rng`) so the spec fully determines the
        trajectory.
    dt_fs:
        Timestep (femtoseconds; the paper uses 2 fs).
    skin:
        Reference-engine neighbor-list skin (A); ignored by ``wse``.
    backend:
        Kernel backend (``numpy`` or ``parallel``; both run the same
        numpy kernels, ``parallel`` adds the sharded force pipeline);
        ``None`` keeps the process default.  An unknown name falls
        back to ``numpy`` with one warning.
    workers:
        Worker count for the ``parallel`` backend's sharded force
        pipeline (0 = one per CPU), or — on the ``wse`` engine — for
        the offset-dispatch pool that sweeps neighborhood-offset
        slices in forked workers (0 = serial sweeps).  Like
        ``backend``, it changes speed, never physics: wse trajectories
        are bitwise-reproducible per worker count and ``workers=1``
        matches the serial path bitwise.
    topology:
        Domain-grid shape ``(px, py)`` for the ``parallel`` backend's
        2D decomposition (``None`` keeps the 1D ``workers x 1`` column
        layout; accepts a ``"PXxPY"`` string in spec files).  Implies
        ``px * py`` workers — setting ``workers`` to a conflicting
        count is an error.  Like ``workers``, a layout/speed knob,
        never physics: trajectories are bitwise-reproducible per
        (topology, transport) and excluded from the spec hash.
    transport:
        How the sharded pipeline reaches its workers: ``"shared"``
        (fork + shared memory), ``"socket"`` (the same protocol over
        TCP, for out-of-process or remote shards), ``"inline"``
        (virtual workers inside the parent process — the zero-IPC tier
        for hosts with fewer cores than workers), or ``"auto"`` (the
        default: inline when the host is core-starved, shared
        otherwise).  Never physics — every transport produces
        bitwise-identical trajectories — so it is excluded from the
        spec hash.
    offset_chunk:
        WSE streaming-sweep batch size: how many neighborhood offsets
        are stacked per exchange chunk (0 auto-sizes from the grid so
        the chunk buffers stay around 100 MB).  Peak memory is
        O(chunk x grid); any chunking yields bitwise-identical
        trajectories, so this is a speed/memory knob, never physics.
        Ignored by ``reference``.
    thermostat:
        Optional temperature control applied every step.  ``langevin``
        requires the reference engine (per-atom noise needs a stable
        atom order); ``berendsen`` runs on both.
    swap_interval:
        WSE atom-swap remapping interval (0 disables); ignored by
        ``reference``.
    force_symmetry:
        WSE half-neighborhood optimization (Sec. VI-A); ignored by
        ``reference``.
    checkpoint_interval:
        Write a checkpoint every N steps when the runner is given a
        checkpoint prefix (0 = only a final checkpoint).
    """

    element: str = "Ta"
    reps: tuple[int, int, int] = (8, 8, 3)
    temperature: float = 290.0
    engine: str = "reference"
    steps: int = 100
    seed: int = 0
    dt_fs: float = 2.0
    skin: float = 0.5
    backend: str | None = None
    workers: int = 0
    topology: tuple[int, int] | None = None
    transport: str | None = None
    offset_chunk: int = 0
    thermostat: ThermostatSpec | None = None
    swap_interval: int = 0
    force_symmetry: bool = False
    checkpoint_interval: int = 0

    def __post_init__(self) -> None:
        from repro.potentials.elements import ELEMENTS

        if self.element not in ELEMENTS:
            raise SpecError(
                f"unknown element {self.element!r}; "
                f"expected one of {sorted(ELEMENTS)}"
            )
        if self.engine not in ENGINES:
            raise SpecError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        reps = tuple(int(r) for r in self.reps)
        if len(reps) != 3 or any(r < 1 for r in reps):
            raise SpecError(f"reps must be three positive ints, got {self.reps}")
        object.__setattr__(self, "reps", reps)
        if self.temperature < 0:
            raise SpecError(
                f"temperature must be >= 0, got {self.temperature}"
            )
        if self.steps < 0:
            raise SpecError(f"steps must be >= 0, got {self.steps}")
        if self.dt_fs <= 0:
            raise SpecError(f"dt_fs must be > 0, got {self.dt_fs}")
        if self.skin < 0:
            raise SpecError(f"skin must be >= 0, got {self.skin}")
        if self.swap_interval < 0:
            raise SpecError(
                f"swap_interval must be >= 0, got {self.swap_interval}"
            )
        if self.checkpoint_interval < 0:
            raise SpecError(
                f"checkpoint_interval must be >= 0, "
                f"got {self.checkpoint_interval}"
            )
        if self.workers < 0:
            raise SpecError(f"workers must be >= 0, got {self.workers}")
        if self.topology is not None:
            topo = self.topology
            if isinstance(topo, str):
                parts = topo.lower().split("x")
                if len(parts) != 2 or not all(p.isdigit() for p in parts):
                    raise SpecError(
                        f"topology must be 'PXxPY', got {self.topology!r}"
                    )
                topo = (int(parts[0]), int(parts[1]))
            try:
                topo = tuple(int(p) for p in topo)
            except (TypeError, ValueError) as exc:
                raise SpecError(
                    f"topology must be two positive ints, got {self.topology!r}"
                ) from exc
            if len(topo) != 2 or topo[0] < 1 or topo[1] < 1:
                raise SpecError(
                    f"topology must be two positive ints, got {self.topology!r}"
                )
            object.__setattr__(self, "topology", topo)
            if self.workers and self.workers != topo[0] * topo[1]:
                raise SpecError(
                    f"workers={self.workers} conflicts with topology "
                    f"{topo[0]}x{topo[1]} ({topo[0] * topo[1]} domains)"
                )
        if self.transport is not None:
            from repro.parallel.transport import TRANSPORTS

            if self.transport != "auto" and self.transport not in TRANSPORTS:
                raise SpecError(
                    f"unknown transport {self.transport!r}; "
                    f"expected one of {TRANSPORTS} or 'auto'"
                )
        if self.offset_chunk < 0:
            raise SpecError(
                f"offset_chunk must be >= 0, got {self.offset_chunk}"
            )
        if isinstance(self.thermostat, dict):
            object.__setattr__(
                self, "thermostat", ThermostatSpec.from_dict(self.thermostat)
            )
        if (
            self.thermostat is not None
            and self.thermostat.kind == "langevin"
            and self.engine == "wse"
        ):
            raise SpecError(
                "langevin thermostat requires engine='reference' "
                "(per-atom noise needs a stable atom order)"
            )

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Build a spec from a plain mapping, rejecting unknown keys."""
        if not isinstance(data, dict):
            raise SpecError(f"spec must be a table/object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise SpecError(f"unknown spec keys: {sorted(unknown)}")
        data = dict(data)
        if isinstance(data.get("thermostat"), dict):
            data["thermostat"] = ThermostatSpec.from_dict(data["thermostat"])
        try:
            return cls(**data)
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise SpecError(str(exc)) from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "RunSpec":
        """Load a spec from a ``.toml`` or ``.json`` file."""
        path = Path(path)
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise SpecError(f"cannot read spec file {path}: {exc}") from exc
        suffix = path.suffix.lower()
        if suffix == ".toml":
            import tomllib

            try:
                data = tomllib.loads(raw.decode("utf-8"))
            except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
                raise SpecError(f"invalid TOML in {path}: {exc}") from exc
        elif suffix == ".json":
            try:
                data = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise SpecError(f"invalid JSON in {path}: {exc}") from exc
        else:
            raise SpecError(
                f"unsupported spec format {suffix!r} for {path}; "
                "expected .toml or .json"
            )
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        """JSON/TOML-ready plain mapping (inverse of :meth:`from_dict`)."""
        out = {
            "element": self.element,
            "reps": list(self.reps),
            "temperature": float(self.temperature),
            "engine": self.engine,
            "steps": int(self.steps),
            "seed": int(self.seed),
            "dt_fs": float(self.dt_fs),
            "skin": float(self.skin),
            "swap_interval": int(self.swap_interval),
            "force_symmetry": bool(self.force_symmetry),
            "checkpoint_interval": int(self.checkpoint_interval),
        }
        if self.backend is not None:
            out["backend"] = self.backend
        if self.workers:
            out["workers"] = int(self.workers)
        if self.topology is not None:
            out["topology"] = list(self.topology)
        if self.transport is not None:
            out["transport"] = self.transport
        if self.offset_chunk:
            out["offset_chunk"] = int(self.offset_chunk)
        if self.thermostat is not None:
            out["thermostat"] = self.thermostat.to_dict()
        return out

    def with_engine(self, engine: str) -> "RunSpec":
        """Copy of this spec targeting a different engine."""
        return replace(self, engine=engine)

    def spec_hash(self) -> str:
        """Digest of the physics-determining fields (see module docs)."""
        payload = {}
        for name in PHYSICS_FIELDS:
            value = getattr(self, name)
            if isinstance(value, ThermostatSpec):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            payload[name] = value
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]
