"""Unit tests for the Flux scheduling policies."""

import pytest

from repro.flux import EasyBackfillPolicy, FcfsPolicy, FluxJob, Jobspec, make_policy
from repro.flux.jobspec import FluxJobState
from repro.platform import ResourceSpec, generic


def _job(jid, cores, duration=100.0, urgency=16):
    return FluxJob(job_id=jid, spec=Jobspec(
        command="x", resources=ResourceSpec(cores=cores),
        duration=duration, urgency=urgency))


@pytest.fixture
def alloc():
    # 2 nodes x 8 cores = 16 cores
    return generic(2).allocate_nodes(2)


class TestFcfs:
    def test_matches_in_order(self, alloc):
        policy = FcfsPolicy()
        queue = [_job("a", 4), _job("b", 4), _job("c", 4)]
        matches = policy.match(queue, alloc, [], now=0.0)
        assert [j.job_id for j, _ in matches] == ["a", "b", "c"]

    def test_blocks_at_first_misfit(self, alloc):
        policy = FcfsPolicy()
        queue = [_job("a", 12), _job("big", 16), _job("small", 1)]
        matches = policy.match(queue, alloc, [], now=0.0)
        # "a" placed (12 cores), "big" cannot fit -> strict FCFS stops.
        assert [j.job_id for j, _ in matches] == ["a"]

    def test_urgency_reorders(self, alloc):
        policy = FcfsPolicy()
        queue = [_job("low", 4, urgency=10), _job("high", 4, urgency=20)]
        matches = policy.match(queue, alloc, [], now=0.0)
        assert matches[0][0].job_id == "high"

    def test_limit_respected(self, alloc):
        policy = FcfsPolicy()
        queue = [_job(str(i), 1) for i in range(10)]
        matches = policy.match(queue, alloc, [], now=0.0, limit=3)
        assert len(matches) == 3

    def test_placements_hold_resources(self, alloc):
        policy = FcfsPolicy()
        matches = policy.match([_job("a", 10)], alloc, [], now=0.0)
        assert alloc.free_cores == 6
        alloc.release(matches[0][1])
        assert alloc.free_cores == 16


class TestEasyBackfill:
    def test_backfills_short_jobs(self, alloc):
        policy = EasyBackfillPolicy()
        running = [_job("r", 8, duration=100.0)]
        running[0].start_time = 0.0
        running[0].grant = alloc.try_place(running[0].spec.resources)
        # Head needs 16 cores: blocked until t=100.  A 50 s filler fits
        # in the window; a 200 s one does not.
        queue = [_job("head", 16, duration=100.0),
                 _job("short", 4, duration=50.0),
                 _job("long", 4, duration=200.0)]
        matches = policy.match(queue, alloc, running, now=0.0)
        assert [j.job_id for j, _ in matches] == ["short"]

    def test_no_blocking_behaves_like_fcfs(self, alloc):
        policy = EasyBackfillPolicy()
        queue = [_job("a", 4), _job("b", 4)]
        matches = policy.match(queue, alloc, [], now=0.0)
        assert [j.job_id for j, _ in matches] == ["a", "b"]

    def test_shadow_time_computation(self, alloc):
        running = [_job("r1", 8, duration=30.0), _job("r2", 8, duration=60.0)]
        for r in running:
            r.start_time = 0.0
            r.grant = alloc.try_place(r.spec.resources)
        head = _job("head", 12, duration=10.0)
        shadow = EasyBackfillPolicy._shadow_time(head, alloc, running, now=0.0)
        # Needs 12 cores: r1's 8 at t=30 are not enough, r2 at t=60 is.
        assert shadow == 60.0

    def test_shadow_time_infinite_when_unsatisfiable(self, alloc):
        head = _job("head", 32, duration=10.0)
        shadow = EasyBackfillPolicy._shadow_time(head, alloc, [], now=0.0)
        assert shadow == float("inf")

    def test_backfill_beats_fcfs_on_heterogeneous_mix(self, alloc):
        running = [_job("r", 12, duration=100.0)]
        running[0].start_time = 0.0
        running[0].grant = alloc.try_place(running[0].spec.resources)
        queue = [_job("head", 16, duration=100.0),
                 _job("f1", 2, duration=10.0),
                 _job("f2", 2, duration=10.0)]
        fcfs = FcfsPolicy().match(list(queue), alloc, running, now=0.0)
        easy = EasyBackfillPolicy().match(list(queue), alloc, running, now=0.0)
        for _, grant in easy:
            alloc.release(grant)
        assert len(fcfs) == 0
        assert len(easy) == 2


class TestFactory:
    def test_make_policy(self):
        assert isinstance(make_policy("fcfs"), FcfsPolicy)
        assert isinstance(make_policy("easy"), EasyBackfillPolicy)

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            make_policy("random")
