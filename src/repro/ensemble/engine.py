"""Ensemble execution: many seeds of one config, cheaply.

:func:`run_ensemble` is the sweep-shaped entry point the paper's
methodology calls for — throughput/utilization *distributions* over
seeds, not a single run.  It picks the cheapest engine that preserves
the correctness contract:

``vectorized``
    The structure-of-arrays fast path in
    :mod:`repro.ensemble.vectorized` — all members advance in
    lock-stepped cohorts through the (exact) launcher pipeline
    recurrence (srun/dragon over the task index, single-instance flux
    over scheduler-cycle boundaries — see
    :mod:`repro.ensemble.vec_flux` / :mod:`repro.ensemble.vec_dragon`),
    sharing the captured bootstrap preamble, the workload descriptions
    and the platform topology.  Per-seed cost is an order of magnitude
    below a kernel run (gated by ``benchmarks/test_perf_ensemble.py``).

``replay``
    Generic fallback: one real :func:`run_experiment` per seed with
    the per-sweep setup (workload construction, config validation)
    hoisted out of the loop.  Used for launchers/workloads the
    recurrences do not cover (multi-partition hierarchies, staged or
    faulty workloads, degenerate zero-cv latencies).  Replay sweeps of
    :data:`_AUTO_REPLAY_MIN_SEEDS` or more seeds are sharded over the
    process pool automatically, one worker per usable core, unless the
    caller pinned ``parallel``, so no launcher is left at 1x per-seed
    cost where a second core exists.

Either way the results are *identical* to N independent sequential
runs — same metric floats, byte-identical exported profiles.  The
determinism tests pin both engines against the real stack.

``parallel=`` composes with :mod:`repro.experiments.parallel` by
splitting the seed list into contiguous batches, one worker process
per batch, each running the same engine on its slice.  Profilers do
not survive pickling, so parallel ensembles return traces only via
``profile_dir`` (exported inside the worker), mirroring
``run_many``'s ``profile_paths`` contract.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analytics.profiler import Profiler
from ..exceptions import ConfigurationError
from ..platform.latency import FRONTIER_LATENCIES, LatencyModel
from .seeds import SeedsLike, resolve_seeds
from .vectorized import run_vectorized, supports_vectorized

#: Engine names accepted by ``run_ensemble(engine=...)``.
ENGINE_VECTORIZED = "vectorized"
ENGINE_REPLAY = "replay"
_ENGINES = (ENGINE_VECTORIZED, ENGINE_REPLAY)

#: Smallest replay sweep that auto-shards over the process pool when
#: the caller left ``parallel`` unset.  Below this the pool spawn
#: overhead dominates the handful of kernel runs it would hide.
_AUTO_REPLAY_MIN_SEEDS = 4


@dataclass
class EnsembleMember:
    """One seed's outcome inside an ensemble."""

    seed: int
    result: "ExperimentResult"  # noqa: F821 - forward ref, lazy import
    profiler: Optional[Profiler] = field(repr=False, default=None)
    #: Where the member's profile was exported (``profile_dir`` runs).
    profile_path: Optional[str] = None


@dataclass(frozen=True)
class EnsembleResult:
    """All members of one multi-seed sweep."""

    config: "ExperimentConfig"  # noqa: F821
    seeds: Tuple[int, ...]
    members: Tuple[EnsembleMember, ...]
    engine: str                 #: ``vectorized`` or ``replay``
    wall_seconds: float         #: whole-sweep wall time
    n_workers: int = 1          #: worker processes used

    @property
    def results(self) -> List["ExperimentResult"]:  # noqa: F821
        return [m.result for m in self.members]

    @property
    def wall_seconds_per_seed(self) -> float:
        return self.wall_seconds / max(len(self.members), 1)

    @property
    def provenance(self) -> Dict[str, int]:
        """How each member was obtained: counts by ``fresh`` /
        ``cached`` / ``resumed`` (same shape as
        :attr:`~repro.experiments.harness.AggregateResult.provenance`).
        """
        counts: Dict[str, int] = {}
        for member in self.members:
            kind = member.result.provenance
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def aggregate(self) -> "AggregateResult":  # noqa: F821
        """Across-seed aggregation, same formulas as ``run_repetitions``."""
        from ..experiments.harness import AggregateResult

        results = self.results
        n = len(results)
        return AggregateResult(
            config=self.config,
            n_reps=n,
            throughput_avg=sum(r.throughput.avg for r in results) / n,
            throughput_max=max(r.throughput.peak for r in results),
            utilization_avg=sum(r.utilization_cores for r in results) / n,
            makespan_avg=sum(r.makespan for r in results) / n,
            results=tuple(results),
        )


def _profile_path(profile_dir: str, seed: int) -> str:
    return os.path.join(profile_dir, f"profile-seed{seed}.jsonl")


def _select_engine(cfg, latencies: LatencyModel,
                   engine: Optional[str]) -> str:
    if engine is None:
        return (ENGINE_VECTORIZED
                if supports_vectorized(cfg, latencies) else ENGINE_REPLAY)
    if engine not in _ENGINES:
        raise ConfigurationError(
            f"unknown ensemble engine {engine!r}; pick from {_ENGINES}")
    if engine == ENGINE_VECTORIZED and not supports_vectorized(cfg,
                                                               latencies):
        raise ConfigurationError(
            f"config {cfg.exp_id!r} does not qualify for the vectorized "
            "ensemble engine (single-partition srun/flux/dragon with a "
            "uniform synthetic workload and stochastic latencies only)")
    return engine


def _run_members(cfg, seeds: Sequence[int], latencies: LatencyModel,
                 engine: str, keep_profiles: bool,
                 profile_dir: Optional[str],
                 telemetry=None, store=None) -> List[EnsembleMember]:
    """Run one batch of seeds in-process with the chosen engine.

    ``telemetry`` (a
    :class:`~repro.observability.telemetry.SweepTelemetry`) receives
    one ``member_done`` per completed seed — live for the replay
    engine, after the cohort recurrence (which feeds the intra-run
    :meth:`~repro.observability.telemetry.SweepTelemetry.cohort` hook
    instead) for the vectorized one.

    ``store`` (a :class:`~repro.store.RunStore`) memoizes at per-seed
    granularity: seeds already stored are delivered from the store
    (profile exports come from the cached bytes — identical by the
    determinism contract), and only the missing seeds reach the
    engine, which then populates the store with them.
    ``keep_profiles`` needs live profiler objects, so it bypasses the
    cache *read* (every seed simulates) while still populating.
    """
    need_records = keep_profiles or profile_dir is not None
    on_member = None
    if telemetry is not None:
        def on_member(result):
            telemetry.member_done(result.n_tasks, result.n_done,
                                  result.n_failed,
                                  provenance=result.provenance)
    cached_runs = {}
    digests = {}
    if store is not None:
        for seed in seeds:
            digests[seed] = store.digest_for(cfg, seed=seed)
        if not keep_profiles:
            for seed in seeds:
                hit = store.fetch(digests[seed])
                if hit is not None:
                    cached_runs[seed] = hit
    missing = [seed for seed in seeds if seed not in cached_runs]
    results, profilers = [], []
    notified = set()
    if missing:
        if engine == ENGINE_VECTORIZED:
            results, profilers = run_vectorized(
                cfg, missing, latencies,
                keep_profiles=need_records or store is not None,
                progress=telemetry.cohort if telemetry is not None
                else None)
            if store is not None:
                for seed, result, profiler in zip(missing, results,
                                                  profilers):
                    stored = store.put(digests[seed], cfg.with_seed(seed),
                                       result, profiler=profiler)
                    result.cache = {"digest": digests[seed],
                                    "hit": False, "stored": stored}
        else:
            results, profilers = _run_replay(cfg, missing, latencies,
                                             keep_profiles=need_records,
                                             on_member=on_member,
                                             store=store, digests=digests)
            # Replay members already streamed their telemetry live
            # (seed by seed, as each run lands); don't re-fire below.
            notified = set(missing)
    fresh = dict(zip(missing, zip(results, profilers)))
    members = []
    for seed in seeds:
        if seed in cached_runs:
            hit = cached_runs[seed]
            result = hit.to_result(cfg.with_seed(seed))
            path = None
            if profile_dir is not None:
                from ..resilience.atomic import atomic_write_bytes

                path = _profile_path(profile_dir, seed)
                atomic_write_bytes(path, hit.profile_bytes())
            members.append(EnsembleMember(seed=seed, result=result,
                                          profiler=None,
                                          profile_path=path))
        else:
            result, profiler = fresh[seed]
            path = None
            if profile_dir is not None:
                from ..analytics import save_profile

                path = _profile_path(profile_dir, seed)
                save_profile(profiler, path)
            members.append(EnsembleMember(
                seed=seed, result=result,
                profiler=profiler if keep_profiles else None,
                profile_path=path))
        if on_member is not None and seed not in notified:
            on_member(members[-1].result)
    return members


def _run_replay(cfg, seeds: Sequence[int], latencies: LatencyModel,
                keep_profiles: bool, on_member=None,
                store=None, digests=None):
    """Generic engine: sequential per-seed runs, setup hoisted.

    The workload descriptions are built once for the whole batch and
    handed to every :func:`run_experiment` call — description
    construction is seed-independent, and the per-run task objects are
    built *from* the shared descriptions, so sharing them is exactly
    the kernel's own bulk-submission idiom.

    ``store``/``digests`` populate the run store as each seed lands
    (the caller already established these seeds are misses, so no
    cache *read* happens here).  ``on_member`` fires the moment a
    seed's simulation returns — before the store write, so progress
    telemetry is never delayed behind a disk ``put``.
    """
    from ..experiments.harness import build_workload, run_experiment

    descriptions = (build_workload(cfg)
                    if cfg.workload != "impeccable" else None)
    need_session = keep_profiles or store is not None
    results, profilers = [], []
    for seed in seeds:
        member_cfg = cfg.with_seed(seed)
        result = run_experiment(member_cfg, latencies,
                                keep_session=need_session,
                                descriptions=descriptions)
        result.tasks = []
        results.append(result)
        if on_member is not None:
            on_member(result)
        profiler = None
        if need_session:
            # Session teardown bookkeeping only exists when a session
            # was actually kept; the plain fast path (no profiles, no
            # store) never materializes one.
            if result.session is not None:
                profiler = result.session.profiler
                result.session.close()
                result.session = None
            if store is not None:
                stored = store.put(digests[seed], member_cfg, result,
                                   profiler=profiler)
                result.cache = {"digest": digests[seed],
                                "hit": False, "stored": stored}
        profilers.append(profiler if keep_profiles else None)
    return results, profilers


def _run_batch(payload):
    """Worker entry point for parallel ensembles (module-level so the
    pool can pickle it).  Profilers cannot cross the process boundary;
    traces only come back via ``profile_dir`` exports."""
    cfg, seeds, latencies, engine, profile_dir, cache = payload
    from ..resilience.crash import crash_point, crash_value
    from ..store import RunStore

    # Crash-injection hook (tests only; inert without the env var):
    # ``REPRO_CRASH_AT=pool:<seed>`` kills the worker holding that
    # seed's batch, exercising the coordinator's salvage-and-resubmit.
    if crash_value("pool") is not None:
        for seed in seeds:
            crash_point("pool", float(seed))
    members = _run_members(cfg, seeds, latencies, engine,
                           keep_profiles=False, profile_dir=profile_dir,
                           store=RunStore.resolve(cache))
    for member in members:
        member.profiler = None
    return members


def _split_batches(seeds: Sequence[int], n_workers: int
                   ) -> List[List[int]]:
    """Contiguous near-equal batches, one per worker, order preserved."""
    n = len(seeds)
    base, extra = divmod(n, n_workers)
    batches, start = [], 0
    for w in range(n_workers):
        size = base + (1 if w < extra else 0)
        if size:
            batches.append(list(seeds[start:start + size]))
        start += size
    return batches


def write_ensemble_bundle(directory, result: EnsembleResult,
                          telemetry=None):
    """Write an ensemble run's observability bundle into ``directory``.

    The manifest carries a whole-sweep ``ensemble`` section — engine,
    worker count, seed list, wall time and one metrics row per member
    — alongside the usual config/versions/host blocks, so a sharded
    farm of sweeps stays auditable the same way single runs are.
    Per-seed profile exports already sitting inside the bundle
    directory (``profile_dir`` pointed there) are indexed in the
    manifest's ``files`` section as ``profile_seed<seed>``;
    ``telemetry`` records (when the sweep streamed progress) land in
    ``telemetry.jsonl``.  Returns ``{artifact name: path}``.
    """
    from ..observability.manifest import build_manifest, write_bundle

    rows = []
    for member in result.members:
        r = member.result
        rows.append({
            "seed": member.seed,
            "n_tasks": r.n_tasks,
            "n_done": r.n_done,
            "n_failed": r.n_failed,
            "throughput_avg": r.throughput.avg,
            "throughput_peak": r.throughput.peak,
            "utilization_cores": r.utilization_cores,
            "makespan": r.makespan,
        })
    manifest = build_manifest(config=result.config, extra={
        "ensemble": {
            "engine": result.engine,
            "n_workers": result.n_workers,
            "seeds": list(result.seeds),
            "wall_seconds": result.wall_seconds,
            "members": rows,
        }})
    bundle_dir = os.path.abspath(directory)
    extra_files = {}
    for member in result.members:
        path = member.profile_path
        if path is not None and \
                os.path.dirname(os.path.abspath(path)) == bundle_dir:
            extra_files[f"profile_seed{member.seed}"] = path
    return write_bundle(directory, manifest, telemetry=telemetry,
                        extra_files=extra_files or None)


def run_ensemble(cfg, seeds: Optional[SeedsLike] = None,
                 n_reps: Optional[int] = None,
                 latencies: LatencyModel = FRONTIER_LATENCIES,
                 keep_profiles: bool = False,
                 profile_dir: Optional[str] = None,
                 parallel=None,
                 engine: Optional[str] = None,
                 progress=None,
                 bundle=None,
                 cache=None) -> EnsembleResult:
    """Run ``cfg`` under many seeds and return all members.

    Parameters
    ----------
    seeds:
        Explicit seed list — a sequence of ints or a spec string like
        ``"1,2,5-20"``.  Defaults to ``cfg.seed + rep`` for
        ``n_reps`` repetitions (3 when neither is given), matching
        :func:`~repro.experiments.harness.run_repetitions`.
    keep_profiles:
        Attach each member's profiler to its
        :class:`EnsembleMember` (incompatible with ``parallel``;
        profilers do not pickle).
    profile_dir:
        Export each member's trace to
        ``<dir>/profile-seed<seed>.jsonl`` — byte-identical to the
        export of an independent ``run_experiment`` at that seed.
    parallel:
        Fan batches of seeds out over worker processes
        (``"auto"``/``0`` = one per usable core; an int = that many), via the
        same pool semantics as :mod:`repro.experiments.parallel`.
        When unset, replay sweeps of ``>= 4`` seeds without
        ``keep_profiles`` auto-shard (``"auto"``) — pass
        ``parallel=1`` to force a serial replay.
    engine:
        Force ``"vectorized"`` or ``"replay"``; default picks
        vectorized whenever the config qualifies.
    progress:
        Stream live telemetry records (``source: "ensemble"``): a
        callable sink, a pre-built
        :class:`~repro.observability.telemetry.TelemetryBus`, or any
        truthy value for buffered-only records.  One record per
        completed seed (rate-limited; the last is always emitted),
        plus intra-cohort task progress on the vectorized engine.
    bundle:
        Write an observability bundle into this directory via
        :func:`write_ensemble_bundle`.  Per-seed profiles are
        exported into it unless ``profile_dir`` redirects them.
    cache:
        A :class:`~repro.store.RunStore` (or a directory path for
        one) memoizing members at per-seed granularity: seeds with a
        stored run are delivered from the store without simulating
        (``result.provenance == "cached"``, profile exports
        byte-identical by the determinism contract); only the missing
        seeds reach the engine, which populates the store with them.
        ``keep_profiles`` needs live profilers, so it bypasses cache
        reads while still populating.
    """
    if seeds is not None and n_reps is not None:
        raise ConfigurationError("pass seeds= or n_reps=, not both")
    if seeds is None:
        reps = 3 if n_reps is None else n_reps
        if reps < 1:
            raise ConfigurationError("n_reps must be >= 1")
        seed_list = [cfg.seed + rep for rep in range(reps)]
    else:
        seed_list = resolve_seeds(seeds)
    chosen = _select_engine(cfg, latencies, engine)
    if (parallel is None and chosen == ENGINE_REPLAY
            and not keep_profiles
            and len(seed_list) >= _AUTO_REPLAY_MIN_SEEDS):
        # Cohort-sharded parallel replay: configs the recurrences
        # cannot cover still amortize — contiguous seed batches on the
        # process pool, reusing the salvage/resubmit machinery below.
        # "auto" sizes the pool by usable cores, so a single usable
        # core replays serially in-process; BENCH_ensemble.json
        # ``replay_parallel`` records the pool's win from two workers
        # on two usable cores.
        parallel = "auto"
    if bundle is not None and profile_dir is None:
        profile_dir = str(bundle)
    if profile_dir is not None:
        os.makedirs(profile_dir, exist_ok=True)
    telemetry = None
    if progress is not None or bundle is not None:
        # Bundle runs record telemetry even without a live sink, so
        # the bundle's ``telemetry.jsonl`` is never empty.
        from ..observability.telemetry import SweepTelemetry

        telemetry = SweepTelemetry.create("ensemble", len(seed_list),
                                          progress)

    wall0 = time.perf_counter()
    n_workers = 1
    if parallel is not None:
        from ..experiments.parallel import resolve_jobs

        n_workers = resolve_jobs(parallel, n_items=len(seed_list))
    if n_workers > 1 and len(seed_list) > 1:
        if keep_profiles:
            raise ConfigurationError(
                "keep_profiles does not compose with parallel ensembles; "
                "use profile_dir to export traces inside the workers")
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        from ..exceptions import HostFailureError
        from ..experiments.parallel import POOL_RETRIES, POOL_RETRY_BACKOFF

        payloads = [(cfg, batch, latencies, chosen, profile_dir, cache)
                    for batch in _split_batches(seed_list, n_workers)]
        # submit + as_completed (not pool.map): progress is reported
        # the moment each batch lands, while the result list is still
        # restored to input order below.  A pool worker killed by the
        # OS breaks the pool; landed batches are salvaged and only the
        # missing ones are resubmitted (each batch is an independent
        # seeded replay, so a re-run is bit-identical).
        batches: List[Optional[List[EnsembleMember]]] = [None] * len(payloads)

        def land(i, batch):
            batches[i] = batch
            if telemetry is not None:
                for member in batch:
                    r = member.result
                    telemetry.member_done(r.n_tasks, r.n_done, r.n_failed,
                                          provenance=r.provenance)

        pending = list(range(len(payloads)))
        retries = 0
        while pending:
            broken = None
            with ProcessPoolExecutor(max_workers=len(pending)) as pool:
                futures = {pool.submit(_run_batch, payloads[i]): i
                           for i in pending}
                for future in as_completed(futures):
                    try:
                        batch = future.result()
                    except BrokenProcessPool as exc:
                        broken = exc
                        continue
                    land(futures[future], batch)
            if broken is None:
                break
            pending = [i for i in pending if batches[i] is None]
            if not pending:
                break
            if retries >= POOL_RETRIES:
                raise HostFailureError(
                    f"ensemble pool lost workers {retries + 1} times; "
                    f"{len(pending)} of {len(payloads)} batches incomplete"
                ) from broken
            time.sleep(POOL_RETRY_BACKOFF * (2 ** retries))
            retries += 1
        members = [m for batch in batches for m in batch]
    else:
        n_workers = 1
        from ..store import RunStore

        members = _run_members(cfg, seed_list, latencies, chosen,
                               keep_profiles, profile_dir,
                               telemetry=telemetry,
                               store=RunStore.resolve(cache))
    wall = time.perf_counter() - wall0
    per_seed = wall / max(len(members), 1)
    for member in members:
        member.result.wall_seconds = per_seed
    result = EnsembleResult(
        config=cfg,
        seeds=tuple(seed_list),
        members=tuple(members),
        engine=chosen,
        wall_seconds=wall,
        n_workers=n_workers,
    )
    if bundle is not None:
        write_ensemble_bundle(
            bundle, result,
            telemetry=telemetry.records if telemetry is not None else None)
    return result
