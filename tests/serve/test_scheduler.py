"""JobScheduler: coalescing, cache dispositions, ensembles, cancel.

No pytest-asyncio in the test environment, so every test drives its
own loop with ``asyncio.run``.
"""

import asyncio
import json

import pytest

from repro.runtime import RunSpec, Runner
from repro.serve import JobScheduler, JobState, ResultCache

SPEC = RunSpec(
    element="Ta", reps=(3, 3, 2), temperature=120.0, seed=5,
    engine="reference", steps=4,
)


def _scheduler(tmp_path, **kwargs):
    kwargs.setdefault("cache", ResultCache(tmp_path / "cache"))
    return JobScheduler(**kwargs)


class TestCacheSemantics:
    def test_identical_request_is_a_hit_with_bitwise_telemetry(
        self, tmp_path
    ):
        async def body():
            sched = _scheduler(tmp_path)
            first = await sched.submit(SPEC)
            await sched.wait(first)
            second = await sched.submit(SPEC)
            await sched.wait(second)
            await sched.close()
            return first, second

        first, second = asyncio.run(body())
        assert first.state is JobState.DONE and first.cache == "miss"
        assert second.state is JobState.DONE and second.cache == "hit"
        # the hit returns the *stored* record: bitwise-identical JSON
        assert json.dumps(
            first.result["telemetry"], sort_keys=True
        ) == json.dumps(second.result["telemetry"], sort_keys=True)

    def test_concurrent_duplicates_coalesce_to_one_run(self, tmp_path):
        async def body():
            sched = _scheduler(tmp_path)
            jobs = [await sched.submit(SPEC) for _ in range(4)]
            await sched.wait(jobs[0])
            await sched.close()
            return sched, jobs

        sched, jobs = asyncio.run(body())
        assert len({job.id for job in jobs}) == 1  # one Job object
        assert jobs[0].coalesced == 3
        assert sched.cache.misses == 1 and sched.cache.hits == 0

    def test_longer_request_resumes_from_checkpoint(self, tmp_path):
        async def body():
            sched = _scheduler(tmp_path)
            short = await sched.submit(SPEC)
            await sched.wait(short)
            longer = await sched.submit(SPEC, steps=8)
            await sched.wait(longer)
            await sched.close()
            return longer

        longer = asyncio.run(body())
        assert longer.state is JobState.DONE
        assert longer.cache == "resume"
        assert longer.resume_step == 4
        assert longer.result["telemetry"]["serve"]["resume_step"] == 4
        assert longer.result["steps"] == 8

    def test_resumed_trajectory_matches_uninterrupted(self, tmp_path):
        import numpy as np

        from repro.runtime import read_checkpoint

        async def body():
            sched = _scheduler(tmp_path)
            await sched.wait(await sched.submit(SPEC))
            longer = await sched.submit(SPEC, steps=8)
            await sched.wait(longer)
            cache = sched.cache
            await sched.close()
            return cache

        cache = asyncio.run(body())
        served = read_checkpoint(cache.prefix(SPEC.spec_hash(), 8)).state
        straight = Runner.from_spec(SPEC)
        straight.run(8)
        state = straight.engine.state
        straight.close()
        np.testing.assert_array_equal(
            served.positions[np.argsort(served.ids)],
            state.positions[np.argsort(state.ids)],
        )

    def test_speed_knob_change_still_hits(self, tmp_path):
        """backend/workers/topology/transport/offset_chunk are not
        physics: same cache key."""
        from dataclasses import replace

        async def body():
            sched = _scheduler(tmp_path)
            await sched.wait(await sched.submit(SPEC))
            tweaked = replace(
                SPEC, backend="parallel", topology=(2, 1),
                transport="inline", offset_chunk=7,
            )
            job = await sched.submit(tweaked)
            await sched.wait(job)
            await sched.close()
            return job

        job = asyncio.run(body())
        assert job.cache == "hit"

    def test_physics_change_misses(self, tmp_path):
        from dataclasses import replace

        async def body():
            sched = _scheduler(tmp_path)
            await sched.wait(await sched.submit(SPEC))
            other = await sched.submit(replace(SPEC, seed=6))
            await sched.wait(other)
            await sched.close()
            return other

        assert asyncio.run(body()).cache == "miss"

    def test_no_cache_scheduler_always_runs(self, tmp_path):
        async def body():
            sched = JobScheduler(cache=None)
            a = await sched.submit(SPEC)
            await sched.wait(a)
            b = await sched.submit(SPEC)
            await sched.wait(b)
            await sched.close()
            return a, b

        a, b = asyncio.run(body())
        assert a.cache == "miss" and b.cache == "miss"

    def test_cache_survives_scheduler_restart(self, tmp_path):
        async def first_life():
            sched = _scheduler(tmp_path)
            await sched.wait(await sched.submit(SPEC))
            await sched.close()

        async def second_life():
            sched = _scheduler(tmp_path)  # fresh ResultCache, same dir
            job = await sched.submit(SPEC)
            await sched.wait(job)
            await sched.close()
            return job

        asyncio.run(first_life())
        assert asyncio.run(second_life()).cache == "hit"


class TestLifecycle:
    def test_states_and_events_stream_in_order(self, tmp_path):
        async def body():
            sched = _scheduler(tmp_path)
            sub = sched.bus.subscribe()
            job = await sched.submit(SPEC)
            await sched.wait(job)
            await sched.close()
            events = []
            while not sub.queue.empty():
                events.append(sub.queue.get_nowait())
            return job, events

        job, events = asyncio.run(body())
        states = [
            e.payload["state"] for e in events if e.kind == "state"
        ]
        assert states == ["queued", "running", "done"]
        assert any(e.kind == "progress" for e in events)
        assert all(e.job_id == job.id for e in events)

    def test_gauge_count_is_flat_over_many_jobs(self, tmp_path):
        """Per-job values live on the job and its events, never in the
        process-wide registry: finishing N more jobs (misses, a hit
        and a resume) adds no gauge."""
        from dataclasses import replace

        from repro.obs import metrics

        def gauges():
            return set(metrics().as_dict()["gauges"])

        async def body():
            sched = _scheduler(tmp_path)
            await sched.wait(await sched.submit(SPEC))
            before = gauges()
            jobs = [await sched.submit(replace(SPEC, seed=s))
                    for s in (11, 12, 13)]
            jobs.append(await sched.submit(SPEC))
            jobs.append(await sched.submit(replace(SPEC, steps=6)))
            for job in jobs:
                await sched.wait(job)
            await sched.close()
            return before, gauges(), jobs

        before, after, jobs = asyncio.run(body())
        assert [j.state for j in jobs] == [JobState.DONE] * len(jobs)
        assert [j.cache for j in jobs[-2:]] == ["hit", "resume"]
        assert jobs[-1].as_dict()["resume_step"] == SPEC.steps
        assert after == before
        assert not any("job=" in name for name in after)

    def test_failed_job_captures_error(self, tmp_path, monkeypatch):
        def explode(self, job, spec_hash, target):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(JobScheduler, "_build_runner", explode)

        async def body():
            sched = _scheduler(tmp_path)
            bad = await sched.submit(SPEC)
            await sched.wait(bad)
            ok = await sched.cancel(bad.id)  # terminal: not cancellable
            await sched.close()
            return bad, ok

        bad, ok = asyncio.run(body())
        assert bad.state is JobState.FAILED
        assert "engine exploded" in bad.error
        assert not ok

    def test_cancel_queued_job_never_runs(self, tmp_path):
        async def body():
            sched = _scheduler(tmp_path, slots=1)
            blocker = await sched.submit(SPEC)
            queued = await sched.submit(SPEC, steps=16)
            cancelled = await sched.cancel(queued.id)
            await sched.wait(blocker)
            await sched.close()
            return queued, cancelled

        queued, cancelled = asyncio.run(body())
        assert cancelled
        assert queued.state is JobState.CANCELLED
        assert queued.runner is None  # never took a slot

    def test_cancel_unknown_or_done_job_is_false(self, tmp_path):
        async def body():
            sched = _scheduler(tmp_path)
            job = await sched.submit(SPEC)
            await sched.wait(job)
            late = await sched.cancel(job.id)
            ghost = await sched.cancel("j9999")
            await sched.close()
            return late, ghost

        assert asyncio.run(body()) == (False, False)

    def test_close_cancels_outstanding_jobs(self, tmp_path):
        async def body():
            sched = _scheduler(tmp_path, slots=1)
            running = await sched.submit(SPEC, steps=200)
            queued = await sched.submit(SPEC, steps=300)
            await asyncio.sleep(0.05)
            await sched.close()
            return running, queued

        running, queued = asyncio.run(body())
        assert running.terminal
        assert queued.state is JobState.CANCELLED

    def test_submit_after_close_raises(self, tmp_path):
        async def body():
            sched = _scheduler(tmp_path)
            await sched.close()
            with pytest.raises(RuntimeError, match="closed"):
                await sched.submit(SPEC)

        asyncio.run(body())


class TestEnsembles:
    def test_replicas_fan_out_over_seeds(self, tmp_path):
        async def body():
            sched = _scheduler(tmp_path)
            jobs = await sched.submit_ensemble(SPEC, replicas=3)
            for job in jobs:
                await sched.wait(job)
            await sched.close()
            return jobs

        jobs = asyncio.run(body())
        assert [job.spec.seed for job in jobs] == [5, 6, 7]
        assert len({job.ensemble for job in jobs}) == 1
        assert all(job.state is JobState.DONE for job in jobs)
        # replicas share one workload-cache slot (same element+reps)
        assert len({job.key for job in jobs}) == 3

    def test_sweep_crosses_with_replicas(self, tmp_path):
        async def body():
            sched = _scheduler(tmp_path)
            jobs = await sched.submit_ensemble(
                SPEC, replicas=2, sweep={"temperature": [50.0, 150.0]}
            )
            for job in jobs:
                await sched.wait(job)
            await sched.close()
            return jobs

        jobs = asyncio.run(body())
        combos = {(job.spec.temperature, job.spec.seed) for job in jobs}
        assert combos == {(50.0, 5), (50.0, 6), (150.0, 5), (150.0, 6)}

    def test_ensemble_shares_workload_construction(self, tmp_path):
        async def body():
            sched = _scheduler(tmp_path)
            jobs = await sched.submit_ensemble(SPEC, replicas=3)
            for job in jobs:
                await sched.wait(job)
            shared = dict(sched._workload_cache)
            await sched.close()
            return jobs, shared

        jobs, shared = asyncio.run(body())
        assert all(job.state is JobState.DONE for job in jobs)
        # one slab+potential construction for the whole batch
        assert list(shared) == [(SPEC.element, SPEC.reps)]

    def test_snapshot_counts_states(self, tmp_path):
        async def body():
            sched = _scheduler(tmp_path)
            job = await sched.submit(SPEC)
            await sched.wait(job)
            snap = sched.snapshot()
            await sched.close()
            return snap

        snap = asyncio.run(body())
        assert snap["states"] == {"done": 1}
        assert snap["cache"]["entries"] == 1
