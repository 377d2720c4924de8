"""Property-based tests for scheduler non-oversubscription invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flux import FcfsPolicy, EasyBackfillPolicy, FluxJob, Jobspec
from repro.platform import ResourceSpec, generic

job_lists = st.lists(
    st.tuples(st.integers(1, 32), st.floats(1.0, 500.0), st.integers(0, 31)),
    min_size=1, max_size=30)


def make_jobs(rows):
    return [FluxJob(job_id=f"j{i}", spec=Jobspec(
        command="x", resources=ResourceSpec(cores=cores), duration=dur,
        urgency=urg)) for i, (cores, dur, urg) in enumerate(rows)]


class TestPolicyInvariants:
    @given(job_lists, st.integers(1, 6), st.integers(1, 8))
    @settings(max_examples=80)
    def test_fcfs_never_oversubscribes(self, rows, n_nodes, cpn):
        alloc = generic(n_nodes, cores_per_node=cpn).allocate_nodes(n_nodes)
        jobs = make_jobs(rows)
        matches = FcfsPolicy().match(jobs, alloc, [], now=0.0)
        placed_cores = sum(grant.cores for _, grant in matches)
        assert placed_cores <= alloc.total_cores
        assert placed_cores + alloc.free_cores == alloc.total_cores

    @given(job_lists, st.integers(1, 6), st.integers(1, 8))
    @settings(max_examples=80)
    def test_easy_never_oversubscribes(self, rows, n_nodes, cpn):
        alloc = generic(n_nodes, cores_per_node=cpn).allocate_nodes(n_nodes)
        jobs = make_jobs(rows)
        matches = EasyBackfillPolicy().match(jobs, alloc, [], now=0.0)
        placed_cores = sum(grant.cores for _, grant in matches)
        assert placed_cores + alloc.free_cores == alloc.total_cores

    @given(job_lists, st.integers(2, 6))
    @settings(max_examples=80)
    def test_easy_matches_superset_of_fcfs_count(self, rows, n_nodes):
        """Backfill never schedules fewer jobs than strict FCFS."""
        jobs = make_jobs(rows)
        alloc1 = generic(n_nodes).allocate_nodes(n_nodes)
        fcfs = FcfsPolicy().match(list(jobs), alloc1, [], now=0.0)
        jobs2 = make_jobs(rows)
        alloc2 = generic(n_nodes).allocate_nodes(n_nodes)
        easy = EasyBackfillPolicy().match(list(jobs2), alloc2, [], now=0.0)
        assert len(easy) >= len(fcfs)

    @given(job_lists, st.integers(1, 6))
    @settings(max_examples=50)
    def test_matched_jobs_unique(self, rows, n_nodes):
        alloc = generic(n_nodes).allocate_nodes(n_nodes)
        jobs = make_jobs(rows)
        matches = FcfsPolicy().match(jobs, alloc, [], now=0.0)
        ids = [j.job_id for j, _ in matches]
        assert len(ids) == len(set(ids))
