"""The async job scheduler: bounded runner slots over the runtime.

One :class:`JobScheduler` owns everything between an accepted
:class:`~repro.runtime.spec.RunSpec` and a served result:

* a bounded pool of **persistent runner slots** — an
  :class:`asyncio.Semaphore` gating a thread pool of the same width,
  so at most ``slots`` engines step concurrently while any number of
  jobs wait queued;
* **coalescing**: a submission whose ``(spec_hash, steps)`` key is
  already in flight attaches to the running job instead of spawning a
  duplicate engine run;
* the **result cache** (:class:`~repro.serve.cache.ResultCache`):
  exact keys return the stored telemetry without touching an engine,
  and longer requests resume from the deepest stored checkpoint;
* **ensembles**: N replicas / parameter sweeps expanded into jobs that
  share lattice + potential construction through the runtime's
  workload cache and amortize slot spawn across the batch;
* **lifecycle + cancellation**: ``queued -> running -> done | failed |
  cancelled``, with cancellation delivered cross-thread through
  :meth:`~repro.runtime.runner.Runner.request_stop` — the loop breaks
  at the next chunk boundary and the partial trajectory is cached, so
  cancelled work is still resumable;
* **event streaming**: state transitions, log lines, and per-interval
  progress samples (fed by the runner's existing observer bus) pushed
  to :class:`~repro.serve.events.EventBus` subscribers.

Thread discipline: job state transitions happen on the scheduler's
event loop; the engine loop runs in a worker thread and communicates
back only through ``loop.call_soon_threadsafe``.  Each served job
starts by re-arming the kernel/parallel warn-once caches
(:func:`repro.kernels.reset_warnings`) so one job's backend
degradation warnings are not silenced by an earlier, unrelated job's.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from repro.obs import label, metrics
from repro.runtime.runner import Runner
from repro.runtime.spec import RunSpec, SpecError
from repro.serve.cache import ResultCache
from repro.serve.events import EventBus
from repro.serve.queue import Job, JobState, JobTable

__all__ = ["JobScheduler"]


class JobScheduler:
    """Accept RunSpecs, schedule them on runner slots, cache results.

    Parameters
    ----------
    slots:
        Concurrent engine runs (and worker threads).  Queued jobs wait.
    cache:
        Optional :class:`ResultCache`; without one every job is a fresh
        run and nothing is stored.
    bus:
        Optional :class:`EventBus` for subscribers; one is created when
        omitted.
    progress_interval:
        Steps between streamed progress events (0 = one tenth of each
        job's target, at least 1).
    """

    def __init__(
        self,
        *,
        slots: int = 2,
        cache: ResultCache | None = None,
        bus: EventBus | None = None,
        progress_interval: int = 0,
    ) -> None:
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self.slots = int(slots)
        self.cache = cache
        self.bus = bus if bus is not None else EventBus()
        self.progress_interval = int(progress_interval)
        self.jobs = JobTable()
        self._inflight: dict[tuple, Job] = {}
        self._sem = asyncio.Semaphore(self.slots)
        self._executor = ThreadPoolExecutor(
            max_workers=self.slots, thread_name_prefix="repro-serve"
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        #: (element, reps) -> shared slab/potential (ensemble amortization)
        self._workload_cache: dict = {}
        self._workload_lock = threading.Lock()
        self._ensembles = 0
        self._closed = False

    # -- submission --------------------------------------------------------

    async def submit(
        self,
        spec: RunSpec,
        *,
        steps: int | None = None,
        ensemble: str | None = None,
    ) -> Job:
        """Accept one request; returns its (possibly coalesced) job.

        ``steps`` overrides the spec's run length.  A request whose
        ``(spec_hash, steps)`` is already queued or running attaches to
        that job — concurrent duplicates cost one engine run.
        """
        if self._closed:
            raise RuntimeError("scheduler is closed")
        self._loop = asyncio.get_running_loop()
        if steps is not None:
            spec = replace(spec, steps=int(steps))
        target = spec.steps
        key = (spec.spec_hash(), target)
        existing = self._inflight.get(key)
        if existing is not None and not existing.terminal:
            existing.coalesced += 1
            self._log(existing, "coalesced a duplicate submission")
            metrics().counter("serve.coalesced").inc()
            return existing
        job = self.jobs.new(spec, target, ensemble=ensemble)
        job.done_event = asyncio.Event()
        self._inflight[key] = job
        metrics().counter("serve.submitted").inc()
        self._log(job, f"queued: {spec.element} {spec.reps} "
                       f"x {target} steps ({spec.engine})")
        self.bus.publish(job.id, "state", {"state": job.state.value})
        job.task = asyncio.create_task(self._run_job(job))
        # safety net: a task cancelled before its body ever ran skips
        # _run_job's state handling entirely — without this callback
        # the job would stay QUEUED and its done_event never fire
        job.task.add_done_callback(lambda task: self._task_done(job, task))
        return job

    def _task_done(self, job: Job, task: asyncio.Task) -> None:
        if self._inflight.get(job.key) is job:
            self._inflight.pop(job.key, None)
        if job.terminal:
            return
        if task.cancelled():
            self._set_state(job, JobState.CANCELLED)
        elif task.exception() is not None:  # pragma: no cover - net
            job.error = repr(task.exception())
            self._set_state(job, JobState.FAILED, error=job.error)

    async def submit_ensemble(
        self,
        spec: RunSpec,
        *,
        replicas: int = 1,
        sweep: dict | None = None,
        steps: int | None = None,
    ) -> list[Job]:
        """Batch submission: N replicas and/or a parameter sweep.

        Replica ``i`` runs ``seed + i``; ``sweep`` maps one spec field
        to a list of values (crossed with the replicas).  All jobs in
        the batch share lattice + potential construction through the
        workload cache and drain through the same persistent slots.
        """
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self._ensembles += 1
        batch = f"e{self._ensembles:03d}"
        variants = [spec]
        if sweep:
            from dataclasses import fields

            known = {f.name for f in fields(RunSpec)}
            variants = []
            for field_name, values in sweep.items():
                if field_name not in known:
                    raise SpecError(
                        f"unknown sweep field {field_name!r}; "
                        f"expected a RunSpec field"
                    )
                for value in values:
                    variants.append(replace(spec, **{field_name: value}))
        jobs = []
        for variant in variants:
            for i in range(replicas):
                member = replace(variant, seed=variant.seed + i)
                jobs.append(
                    await self.submit(member, steps=steps, ensemble=batch)
                )
        metrics().counter("serve.ensembles").inc()
        return jobs

    async def wait(self, job: Job) -> Job:
        """Block until the job reaches a terminal state."""
        await job.done_event.wait()
        return job

    async def cancel(self, job_id: str) -> bool:
        """Cancel a queued or running job; ``False`` if already done.

        A queued job is dropped before it ever takes a slot; a running
        job is asked to stop at the next chunk boundary, its partial
        checkpoint is cached, and its state becomes ``cancelled``.
        """
        job = self.jobs.get(job_id)
        if job is None or job.terminal:
            return False
        job.cancel_requested = True
        self._log(job, "cancellation requested")
        runner = job.runner
        if runner is not None:
            runner.request_stop()
        elif job.state is JobState.QUEUED and job.task is not None:
            job.task.cancel()
        await job.done_event.wait()
        return job.state is JobState.CANCELLED

    # -- loop-side internals -----------------------------------------------

    def _set_state(self, job: Job, state: JobState, **payload) -> None:
        job.state = state
        metrics().counter(label("serve.jobs", state=state.value)).inc()
        self.bus.publish(
            job.id, "state", {"state": state.value, **payload}
        )
        if job.terminal:
            job.done_event.set()

    def _log(self, job: Job, line: str) -> None:
        job.log.append(line)
        self.bus.publish(job.id, "log", {"line": line})

    def _post(self, fn, *args) -> None:
        """Run ``fn`` on the scheduler loop from a worker thread."""
        self._loop.call_soon_threadsafe(fn, *args)

    async def _run_job(self, job: Job) -> None:
        try:
            async with self._sem:
                if job.cancel_requested:
                    self._set_state(job, JobState.CANCELLED)
                    return
                self._set_state(job, JobState.RUNNING)
                result = await asyncio.get_running_loop().run_in_executor(
                    self._executor, self._execute, job
                )
                job.result = result
                if job.cancel_requested and result.get("steps", 0) < job.steps:
                    self._set_state(job, JobState.CANCELLED)
                else:
                    self._set_state(job, JobState.DONE, cache=job.cache)
        except asyncio.CancelledError:
            self._set_state(job, JobState.CANCELLED)
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            job.error = f"{type(exc).__name__}: {exc}"
            self._log(job, f"failed: {job.error}")
            self._set_state(job, JobState.FAILED, error=job.error)
        finally:
            if self._inflight.get(job.key) is job:
                self._inflight.pop(job.key, None)

    # -- worker-thread execution -------------------------------------------

    def _execute(self, job: Job) -> dict:
        """Serve one job on a worker thread; returns the result dict."""
        from repro.kernels import reset_warnings as reset_kernel_warnings
        from repro.parallel import reset_warnings as reset_parallel_warnings

        # per-job re-arm: an earlier job's fallback must not silence
        # this job's, and vice versa (warn-once caches are process
        # state that also survives fork)
        reset_kernel_warnings()
        reset_parallel_warnings()

        spec = job.spec
        spec_hash, target = job.key

        if self.cache is not None:
            entry = self.cache.lookup(spec_hash, target)
            if entry is not None:
                telemetry = self.cache.telemetry(spec_hash, target)
                if telemetry is not None:
                    job.cache = "hit"
                    self._post(
                        self._log, job,
                        f"cache hit: ({spec_hash}, {target}) served from "
                        f"stored result, no engine run",
                    )
                    return {
                        "telemetry": telemetry,
                        "cache": "hit",
                        "resume_step": 0,
                        "steps": target,
                        "checkpoint": str(self.cache.prefix(spec_hash, target)),
                    }
                # checkpoint valid but telemetry sidecar unreadable:
                # fall through and recompute
                self.cache.evict(spec_hash, target)

        runner = self._build_runner(job, spec_hash, target)
        job.runner = runner
        if job.cancel_requested:  # close the submit/cancel race
            runner.request_stop()
        interval = self.progress_interval or max(1, target // 10)
        runner.add_observer(interval, self._make_progress_observer(job))
        metrics().counter("serve.engine_runs").inc()
        try:
            telemetry = runner.run(target - runner.engine.step_count)
            reached = runner.engine.step_count
        finally:
            runner.close()
        job.runner = None

        tele = telemetry.as_dict()
        tele["serve"] = {
            "job": job.id,
            "resume_step": int(job.resume_step),
            "reached_step": int(reached),
            "cache": job.cache,
        }
        checkpoint = None
        if self.cache is not None:
            self.cache.put(
                spec_hash,
                reached,
                tele,
                src_prefix=self.cache.prefix(spec_hash, target),
            )
            checkpoint = str(self.cache.prefix(spec_hash, reached))
            self._post(
                self._log, job,
                f"cached result under ({spec_hash}, {reached})",
            )
        if reached < target:
            self._post(
                self._log, job,
                f"stopped at step {reached} of {target}",
            )
        return {
            "telemetry": tele,
            "cache": job.cache,
            "resume_step": int(job.resume_step),
            "steps": int(reached),
            "checkpoint": checkpoint,
        }

    def _build_runner(self, job: Job, spec_hash: str, target: int) -> Runner:
        """Fresh or resumed runner, checkpointing into the cache dir."""
        from repro.runtime.engines import build_state

        spec = job.spec
        prefix = (
            self.cache.prefix(spec_hash, target)
            if self.cache is not None
            else None
        )
        if self.cache is not None:
            entry = self.cache.best_resume(spec_hash, target)
            if entry is not None:
                runner = Runner.resume(
                    spec,
                    self.cache.prefix(spec_hash, entry.steps),
                    checkpoint_prefix=prefix,
                )
                job.cache = "resume"
                job.resume_step = runner.engine.step_count
                self._post(
                    self._log, job,
                    f"resumed from cached checkpoint at step "
                    f"{job.resume_step} (of {target})",
                )
                return runner
        job.cache = "miss"
        with self._workload_lock:
            state, potential = build_state(
                spec, workload_cache=self._workload_cache
            )
        self._post(self._log, job, "cache miss: fresh engine run")
        return Runner.from_spec(
            spec,
            checkpoint_prefix=prefix,
            state=state,
            potential=potential,
        )

    def _make_progress_observer(self, job: Job):
        """Runner observer streaming progress through the event bus."""

        def observer(event) -> None:
            step = event.step
            payload = {"step": int(step), "of": int(job.steps)}
            try:
                payload["temperature"] = round(
                    float(event.state.temperature()), 3
                )
            except Exception:  # pragma: no cover - engine-specific
                pass
            self._post(self.bus.publish, job.id, "progress", payload)

        return observer

    # -- lifecycle ---------------------------------------------------------

    async def close(self) -> None:
        """Cancel outstanding jobs, drain the slots, release the pool."""
        if self._closed:
            return
        self._closed = True
        pending = [job for job in self.jobs.all() if not job.terminal]
        for job in pending:
            job.cancel_requested = True
            runner = job.runner
            if runner is not None:
                runner.request_stop()
            elif job.state is JobState.QUEUED and job.task is not None:
                job.task.cancel()
        for job in pending:
            await job.done_event.wait()
        self._executor.shutdown(wait=True)

    def snapshot(self) -> dict:
        """JSON-ready view of the whole scheduler (API stats op)."""
        states: dict[str, int] = {}
        for job in self.jobs.all():
            states[job.state.value] = states.get(job.state.value, 0) + 1
        out = {
            "slots": self.slots,
            "jobs": len(self.jobs),
            "states": states,
        }
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        return out
