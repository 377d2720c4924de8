"""Process-parallel experiment fan-out.

Every experiment run is a self-contained, seeded, deterministic
simulation, so independent runs (the repetitions of
:func:`~repro.experiments.harness.run_repetitions`, or the
configurations of a sweep) can execute in separate worker processes
with no coordination at all.  The contract is strict: a parallel run
produces *exactly* the results of the equivalent serial loop — same
metrics, same ordering, and byte-identical trace exports — because
each worker seeds its own simulation from the config and nothing is
shared between runs.

Two things do not survive the trip back from a worker process:

* ``ExperimentResult.tasks`` — task objects hold live generator
  frames and environment references and are not picklable;
* ``ExperimentResult.session`` — same reason, via the kernel queue.

Both are stripped (``tasks=[]``, ``session=None``) from parallel
results.  Callers that need the trace pass ``profile_path``: the
worker then exports the profiler's JSONL *inside* the worker, where
the session still exists, and the file lands on the shared
filesystem.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Callable, List, Optional, Sequence, Union

from ..exceptions import ConfigurationError, HostFailureError
from ..platform.latency import FRONTIER_LATENCIES, LatencyModel
from .configs import ExperimentConfig

__all__ = ["resolve_jobs", "run_many", "usable_cores"]

#: Fresh-pool retries after a :class:`BrokenProcessPool` (a pool
#: worker killed by the OS — OOM, signal, node policy) before giving
#: up.  Each retry resubmits only the units that have no result yet;
#: everything already completed is salvaged, not re-run.
POOL_RETRIES = 2
POOL_RETRY_BACKOFF = 0.5


def usable_cores() -> int:
    """CPUs this process may run on: its affinity mask, which a
    container or ``taskset`` can make smaller than the host's
    ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API
        return os.cpu_count() or 1


def resolve_jobs(jobs: Union[int, str, None] = None,
                 n_items: Optional[int] = None) -> int:
    """Turn a ``--parallel`` style argument into a worker count.

    ``None``, ``0`` and ``"auto"`` mean *one per usable core*
    (:func:`usable_cores`); an integer
    requests exactly that many workers.  The result is clamped to
    ``n_items`` when given (more workers than runs is pure overhead)
    and is always at least 1.
    """
    if jobs is None or jobs == 0 or jobs == "auto":
        resolved = usable_cores()
    else:
        try:
            resolved = int(jobs)
        except (TypeError, ValueError):
            raise ConfigurationError(f"bad parallel job count {jobs!r}")
        if resolved < 0:
            raise ConfigurationError(f"negative parallel job count {jobs}")
        if resolved == 0:
            resolved = usable_cores()
    if n_items is not None:
        resolved = min(resolved, max(n_items, 1))
    return max(resolved, 1)


def _run_one(payload):
    """Worker entry point: run one experiment, return a picklable result.

    Module-level (not a closure) so the pool can pickle it.  The
    import of the harness is deferred to avoid a circular import —
    ``harness`` imports :func:`run_many` lazily for the same reason.
    """
    cfg, latencies, profile_path, bundle_path, cache = payload
    from ..resilience.crash import crash_point, crash_value
    from .harness import run_experiment

    # Crash-injection hook (tests only; inert without the env var):
    # ``REPRO_CRASH_AT=pool:<seed>`` hard-kills the pool worker that
    # picked up the first unit with that seed (or later), which the
    # parent sees as a BrokenProcessPool and must recover from.
    if crash_value("pool") is not None:
        crash_point("pool", float(cfg.seed))
    keep = profile_path is not None
    result = run_experiment(cfg, latencies, keep_session=keep,
                            bundle=bundle_path, cache=cache)
    if keep:
        from ..analytics import save_profile

        save_profile(result.session.profiler, profile_path)
    return replace(result, tasks=[], session=None)


def run_many(configs: Sequence[ExperimentConfig],
             latencies: LatencyModel = FRONTIER_LATENCIES,
             jobs: Union[int, str, None] = None,
             profile_paths: Optional[Sequence[Optional[str]]] = None,
             bundle_paths: Optional[Sequence[Optional[str]]] = None,
             progress: Optional[Callable] = None,
             ledger=None,
             cache=None,
             ) -> List["ExperimentResult"]:  # noqa: F821
    """Run several independent experiments, fanned out over processes.

    Results come back in input order regardless of completion order.
    With one worker (or one config) the pool is skipped entirely and
    the runs execute in-process — the serial fallback used by callers
    that were handed ``--parallel 1`` or run on a single-core box.

    ``bundle_paths`` works like ``profile_paths``: each named run
    writes its observability bundle inside the worker (spans, metrics,
    manifest and Perfetto trace do not survive pickling either).

    ``progress(n_completed, n_total, result)`` is called in the parent
    process as each run lands, in completion order (the telemetry
    feed ``run_repetitions(progress=)`` builds on).

    ``ledger`` (a :class:`~repro.resilience.SweepLedger`) makes the
    fan-out restartable: units already recorded as complete are not
    re-run (their metrics documents are rehydrated instead), and every
    unit that lands is durably recorded before the next progress call.

    A pool worker killed by the OS surfaces as
    :class:`BrokenProcessPool`; every result that already landed is
    salvaged, and only the unfinished units are resubmitted to a
    fresh pool (with backoff, up to :data:`POOL_RETRIES` times).
    A *deterministic* simulation error is never retried — it would
    fail identically — and propagates as-is.

    ``cache`` (a :class:`~repro.store.RunStore` or directory path)
    memoizes each unit through the content-addressed run store: hits
    are delivered inside the worker without simulating, misses
    populate the store there (concurrent workers racing on one digest
    resolve to one winner via atomic rename).
    """
    configs = list(configs)
    if profile_paths is None:
        profile_paths = [None] * len(configs)
    elif len(profile_paths) != len(configs):
        raise ConfigurationError(
            f"{len(profile_paths)} profile paths for {len(configs)} configs")
    if bundle_paths is None:
        bundle_paths = [None] * len(configs)
    elif len(bundle_paths) != len(configs):
        raise ConfigurationError(
            f"{len(bundle_paths)} bundle paths for {len(configs)} configs")
    payloads = [(cfg, latencies, path, bpath, cache)
                for cfg, path, bpath in zip(configs, profile_paths,
                                            bundle_paths)]
    results: List[Optional["ExperimentResult"]] = [None] * len(payloads)
    completed = 0

    def land(i, result, record=True):
        nonlocal completed
        results[i] = result
        if ledger is not None and record:
            ledger.record(configs[i], result)
        completed += 1
        if progress is not None:
            progress(completed, len(payloads), result)

    pending = []
    for i, cfg in enumerate(configs):
        doc = ledger.completed(cfg) if ledger is not None else None
        if doc is not None:
            from ..resilience.checkpoint import result_from_doc

            result = result_from_doc(cfg, doc)
            result.provenance = "resumed"
            land(i, result, record=False)
        else:
            pending.append(i)
    n_workers = resolve_jobs(jobs, n_items=len(pending))
    if n_workers <= 1 or len(pending) <= 1:
        for i in pending:
            land(i, _run_one(payloads[i]))
        return results
    # submit + as_completed (not pool.map): the progress callback
    # fires the moment each run lands; input order is restored via
    # the futures -> index map.
    retries = 0
    while pending:
        broken = None
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = {pool.submit(_run_one, payloads[i]): i
                       for i in pending}
            for future in as_completed(futures):
                try:
                    result = future.result()
                except BrokenProcessPool as exc:
                    # This future's worker died (or the pool it needed
                    # did); keep draining — futures that finished
                    # before the breakage still hold good results.
                    broken = exc
                    continue
                land(futures[future], result)
        if broken is None:
            break
        pending = [i for i in pending if results[i] is None]
        if not pending:
            break
        if retries >= POOL_RETRIES:
            raise HostFailureError(
                f"parallel pool lost workers {retries + 1} times; "
                f"{len(pending)} of {len(payloads)} runs incomplete "
                f"(seeds {[configs[i].seed for i in pending]})"
            ) from broken
        time.sleep(POOL_RETRY_BACKOFF * (2 ** retries))
        retries += 1
        n_workers = resolve_jobs(jobs, n_items=len(pending))
    return results
