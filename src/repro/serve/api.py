"""The serve wire protocol: a JSON-lines TCP API over the scheduler.

One request per connection, newline-delimited JSON both ways.  The
request is an object with an ``op`` plus op-specific fields; the
response is ``{"ok": true, ...}`` or ``{"ok": false, "error": ...,
"code": ...}`` where ``code`` mirrors the CLI's exit codes (2 for a
malformed spec, 1 for anything else).  A request line longer than
:data:`MAX_REQUEST_BYTES` gets a code-1 "request too large" reply.

Ops
---
``ping``
    Liveness probe.
``submit``
    ``spec`` (a :meth:`RunSpec.to_dict` mapping), optional ``steps``
    override, ``replicas``/``sweep`` for ensembles, ``wait`` (default
    true) to block until terminal, ``watch`` to stream each
    :class:`~repro.serve.events.JobEvent` as an interim
    ``{"event": ...}`` line before the final response.
``jobs`` / ``status`` / ``cancel``
    The job table, one job by id, and cancellation.
``stats``
    Scheduler snapshot: slots, job states, cache counters.
``shutdown``
    Acknowledge, then stop the server loop.

:class:`ServeClient` is the blocking counterpart used by the
``repro submit`` / ``repro jobs`` commands and tests — plain sockets,
no asyncio required in the caller.
"""

from __future__ import annotations

import asyncio
import json
import socket

from repro.runtime.spec import RunSpec, SpecError
from repro.serve.queue import Job
from repro.serve.scheduler import JobScheduler

__all__ = ["ServeServer", "ServeClient", "run_server"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7421
#: Longest accepted request line (the asyncio stream-buffer limit).
MAX_REQUEST_BYTES = 64 * 1024
#: How long an oversized request's unread tail is drained before the
#: connection closes anyway.
_DRAIN_TIMEOUT_S = 5.0


class ServeServer:
    """Asyncio TCP front-end for one :class:`JobScheduler`."""

    def __init__(
        self,
        scheduler: JobScheduler,
        *,
        host: str = DEFAULT_HOST,
        port: int = 0,
    ) -> None:
        self.scheduler = scheduler
        self.host = host
        self._requested_port = port
        self._server: asyncio.Server | None = None
        self.shutdown_requested = asyncio.Event()

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self._requested_port,
            limit=MAX_REQUEST_BYTES,
        )

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_until_shutdown(self) -> None:
        """Run until a ``shutdown`` op arrives, then drain the scheduler."""
        if self._server is None:
            await self.start()
        await self.shutdown_requested.wait()
        await self.close()
        await self.scheduler.close()

    # -- connection handling -----------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                line = await reader.readline()
            except ValueError:  # the line overran MAX_REQUEST_BYTES
                await self._send(writer, {
                    "ok": False, "code": 1,
                    "error": f"request too large (line limit "
                             f"{MAX_REQUEST_BYTES} bytes)",
                })
                await self._drain(reader)
                return
            if not line:
                return
            try:
                request = json.loads(line)
            except json.JSONDecodeError as exc:
                await self._send(writer, {
                    "ok": False, "error": f"bad request: {exc}", "code": 1,
                })
                return
            await self._dispatch(request, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response; nothing to salvage
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    @staticmethod
    async def _drain(reader: asyncio.StreamReader) -> None:
        """Consume the rest of an oversized request (to its newline, or
        until the client closes).  Closing a socket with unread input
        makes the kernel reset the connection, which can discard the
        error reply before the client reads it."""

        async def consume() -> None:
            while True:
                chunk = await reader.read(MAX_REQUEST_BYTES)
                if not chunk or b"\n" in chunk:
                    return

        try:
            await asyncio.wait_for(consume(), _DRAIN_TIMEOUT_S)
        except asyncio.TimeoutError:
            pass

    async def _send(self, writer: asyncio.StreamWriter, obj: dict) -> None:
        writer.write(json.dumps(obj).encode() + b"\n")
        await writer.drain()

    async def _dispatch(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> None:
        op = request.get("op")
        if op == "ping":
            await self._send(writer, {"ok": True, "pong": True})
        elif op == "submit":
            await self._op_submit(request, writer)
        elif op == "jobs":
            await self._send(writer, {
                "ok": True,
                "jobs": [
                    self._summary(job) for job in self.scheduler.jobs.all()
                ],
            })
        elif op == "status":
            job = self.scheduler.jobs.get(str(request.get("id")))
            if job is None:
                await self._send(writer, {
                    "ok": False,
                    "error": f"no such job {request.get('id')!r}",
                    "code": 1,
                })
            else:
                await self._send(writer, {"ok": True, "job": job.as_dict()})
        elif op == "cancel":
            cancelled = await self.scheduler.cancel(str(request.get("id")))
            await self._send(writer, {"ok": True, "cancelled": cancelled})
        elif op == "stats":
            await self._send(
                writer, {"ok": True, "stats": self.scheduler.snapshot()}
            )
        elif op == "shutdown":
            await self._send(writer, {"ok": True, "stopping": True})
            self.shutdown_requested.set()
        else:
            await self._send(writer, {
                "ok": False, "error": f"unknown op {op!r}", "code": 1,
            })

    @staticmethod
    def _summary(job: Job) -> dict:
        out = job.as_dict()
        out.pop("result", None)  # keep the listing line-sized
        return out

    async def _op_submit(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> None:
        try:
            spec = RunSpec.from_dict(request.get("spec") or {})
        except SpecError as exc:
            await self._send(writer, {
                "ok": False, "error": f"invalid run spec: {exc}", "code": 2,
            })
            return
        steps = request.get("steps")
        replicas = int(request.get("replicas") or 1)
        sweep = request.get("sweep") or None
        watch = bool(request.get("watch"))
        wait = bool(request.get("wait", True)) or watch

        sub = self.scheduler.bus.subscribe() if watch else None
        try:
            if replicas > 1 or sweep:
                jobs = await self.scheduler.submit_ensemble(
                    spec, replicas=replicas, sweep=sweep, steps=steps
                )
            else:
                jobs = [await self.scheduler.submit(spec, steps=steps)]
            pending = {job.id for job in jobs if not job.terminal}
            if watch:
                while pending:
                    event = await sub.get()
                    if event.job_id not in {j.id for j in jobs}:
                        continue
                    await self._send(writer, {"event": event.as_dict()})
                    if (
                        event.kind == "state"
                        and self.scheduler.jobs.get(event.job_id).terminal
                    ):
                        pending.discard(event.job_id)
            elif wait:
                for job in jobs:
                    await self.scheduler.wait(job)
        except SpecError as exc:
            await self._send(writer, {
                "ok": False, "error": f"invalid run spec: {exc}", "code": 2,
            })
            return
        finally:
            if sub is not None:
                sub.close()
        payload = {"ok": True, "jobs": [job.as_dict() for job in jobs]}
        if len(jobs) == 1:
            payload["job"] = payload["jobs"][0]
        await self._send(writer, payload)


class ServeClient:
    """Blocking JSON-lines client (one connection per request)."""

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        *,
        timeout: float = 600.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    def request(self, payload: dict, *, on_event=None) -> dict:
        """Send one request; interim ``{"event": ...}`` lines go to
        ``on_event``, the final response is returned."""
        with socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        ) as conn:
            conn.sendall(json.dumps(payload).encode() + b"\n")
            with conn.makefile("r", encoding="utf-8") as fh:
                for line in fh:
                    obj = json.loads(line)
                    if "event" in obj and "ok" not in obj:
                        if on_event is not None:
                            on_event(obj["event"])
                        continue
                    return obj
        raise ConnectionError("server closed the stream without a response")

    # -- convenience ops ---------------------------------------------------

    def ping(self) -> bool:
        try:
            return bool(self.request({"op": "ping"}).get("pong"))
        except OSError:
            return False

    def submit(
        self,
        spec: dict,
        *,
        steps: int | None = None,
        replicas: int = 1,
        sweep: dict | None = None,
        wait: bool = True,
        watch: bool = False,
        on_event=None,
    ) -> dict:
        payload = {
            "op": "submit", "spec": spec, "wait": wait, "watch": watch,
        }
        if steps is not None:
            payload["steps"] = int(steps)
        if replicas != 1:
            payload["replicas"] = int(replicas)
        if sweep:
            payload["sweep"] = sweep
        return self.request(payload, on_event=on_event)

    def jobs(self) -> dict:
        return self.request({"op": "jobs"})

    def status(self, job_id: str) -> dict:
        return self.request({"op": "status", "id": job_id})

    def cancel(self, job_id: str) -> dict:
        return self.request({"op": "cancel", "id": job_id})

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})


def run_server(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    *,
    slots: int = 2,
    cache_dir: str | None = None,
    cache_bytes: int = 2 * 1024**3,
    progress_interval: int = 0,
    announce=print,
) -> int:
    """Blocking entry point: serve until a ``shutdown`` op arrives."""
    from repro.serve.cache import ResultCache

    async def _serve() -> None:
        cache = (
            ResultCache(cache_dir, max_bytes=cache_bytes)
            if cache_dir
            else None
        )
        scheduler = JobScheduler(
            slots=slots, cache=cache, progress_interval=progress_interval
        )
        server = ServeServer(scheduler, host=host, port=port)
        await server.start()
        announce(
            f"repro serve: listening on {host}:{server.port} "
            f"({slots} slot{'s' if slots != 1 else ''}, "
            f"cache {cache_dir or 'off'})"
        )
        await server.serve_until_shutdown()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0
