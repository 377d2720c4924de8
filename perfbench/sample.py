"""One benchmark sample: a fixed slice of one workload in this process.

The driver (``run.py``) starts every sample as a fresh interpreter, so
no GC history or warm cache carries over from one sample to the next::

    python3 perfbench/sample.py <workload> <seed> <mode> <spawn>

``seed`` is the benchmark's workload seed and alone fixes the sample's
inputs, so every sample of a run measures the same work however many
samples fit in the run.  ``mode``
is ``plain`` (end-to-end timing), ``digest`` (also exports and hashes
every member's profile, untraced) or ``traced`` (``digest`` under the
layer tracer).  ``spawn`` is the driver's ``time.monotonic()`` just
before it started this process, so ``setup_s`` covers interpreter
start and imports.  The last stdout line is the sample's JSON record.

Every run is checked outside the timed region against the summaries
pinned in ``reference.json`` (regenerate with ``pin.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import sys
import threading
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_DIR = ROOT / "src" / "repro"
REFERENCE_FILE = HERE / "reference.json"
WORK_DIR = HERE / ".work"

WORKLOADS = ("hybrid_sweep", "impeccable_srun", "ensemble_store")
MODES = ("plain", "digest", "traced")

#: Members per sample and the pinned seed pool each workload draws
#: consecutive member seeds from.  hybrid_sweep runs four members in
#: one process: the in-process GC drift shows by the fourth.
MEMBERS = {"hybrid_sweep": 4, "impeccable_srun": 8}
POOL = {"hybrid_sweep": 24, "impeccable_srun": 48}

#: ensemble_store traffic: the repo's seeded Zipf sweep from
#: ``benchmarks/test_perf_store.py`` (96 draws of Zipf(1.3) from
#: ``default_rng(2026)``, folded into 32 seeds), rotated by an offset
#: drawn from the workload seed.  The rotation changes which seeds
#: are requested but not how often a seed repeats, so every workload
#: seed has the same hit count and the same mix of puts and loads.
REQUESTS = 96
ZIPF_EXPONENT = 1.3
ZIPF_STREAM_SEED = 2026
SEED_SPACE = 32
#: Requests per ``run_ensemble`` call.
BATCH = 8

SUMMARY_FIELDS = ("n_tasks", "n_done", "n_failed", "makespan",
                  "throughput_avg", "throughput_peak", "utilization_cores")


def workload_config(workload: str):
    """The one simulation config a workload sweeps over seeds."""
    from repro.experiments import ExperimentConfig, table1_configs

    if workload == "ensemble_store":
        return ExperimentConfig(exp_id="ensemble_store", launcher="srun",
                                workload="null", n_nodes=4, waves=1)
    exp_id, nodes = {"hybrid_sweep": ("flux+dragon", 64),
                     "impeccable_srun": ("impeccable_srun", 1024)}[workload]
    return next(cfg for cfg in table1_configs()
                if cfg.exp_id == exp_id and cfg.n_nodes == nodes)


def member_seeds(workload: str, seed: int) -> list:
    """Consecutive simulation seeds of a sample, from the pinned pool."""
    pool, k = POOL[workload], MEMBERS[workload]
    base = random.Random(seed).randrange(pool)
    return [(base + j) % pool for j in range(k)]


def request_stream(seed: int) -> list:
    """Zipf-distributed seed requests of an ensemble_store sample."""
    import numpy as np

    offset = random.Random(seed).randrange(SEED_SPACE)
    draws = np.random.default_rng(ZIPF_STREAM_SEED).zipf(
        ZIPF_EXPONENT, size=REQUESTS)
    return [int(offset + d) % SEED_SPACE for d in draws]


def summary(result) -> dict:
    return {"n_tasks": result.n_tasks, "n_done": result.n_done,
            "n_failed": result.n_failed, "makespan": result.makespan,
            "throughput_avg": result.throughput.avg,
            "throughput_peak": result.throughput.peak,
            "utilization_cores": result.utilization_cores}


def check(result, pinned) -> str:
    """Why ``result`` is wrong against its pinned summary, or ``""``."""
    if pinned is None:
        return "seed not in the pinned reference"
    if result.n_done + result.n_failed != result.n_tasks:
        return (f"tasks not conserved: {result.n_done} done + "
                f"{result.n_failed} failed != {result.n_tasks}")
    got = summary(result)
    for key in SUMMARY_FIELDS:
        if got[key] != pinned[key]:
            return f"{key} {got[key]!r} != pinned {pinned[key]!r}"
    return ""


def profile_sha256(profiler) -> str:
    from repro.store.store import export_profile_bytes

    return hashlib.sha256(export_profile_bytes(profiler)).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def host_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def thread_count() -> int:
    """OS threads of this process, native ones (BLAS pools) included."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:  # pragma: no cover - no procfs
        return threading.active_count()


class Sample:
    """Everything one sample measures, as the JSON record it prints."""

    def __init__(self, workload: str, mode: str, reference: dict,
                 spawn: float) -> None:
        self.workload = workload
        self.mode = mode
        self.pinned = reference[workload]["members"]
        #: Per simulation call: wall seconds, CPU seconds, tasks.
        self.walls: list = []
        self.cpu_s: list = []
        self.run_tasks: list = []
        self.tasks = 0
        self.attempted = 0
        self.failures: list = []
        self.failed_runs = 0
        self.violations: list = []
        self.events = 0
        self.records = 0
        self.max_threads = 0
        self.processes_started = 0
        self.spawn = spawn
        self.setup_s = None
        self.store: dict = {}
        self.tracer = self.counters = None
        if mode == "traced":
            from layertrace import Counters, LayerTracer

            self.tracer = LayerTracer(PACKAGE_DIR)
            self.counters = Counters()
        if (workload_config(workload).cache_key()
                != reference[workload]["cache_key"]):
            self.violations.append(
                "workload config differs from the pinned one")

    @contextmanager
    def tracing(self):
        """Trace the body (``traced`` mode) with the counting wrappers
        in place."""
        if self.tracer is None:
            yield
        else:
            from layertrace import install_counters

            with install_counters(self.counters), self.tracer.active():
                yield

    def timed(self, fn):
        """Run ``fn`` as one timed simulation call (traced if asked)."""
        if self.setup_s is None:
            self.setup_s = time.monotonic() - self.spawn
        c0, w0 = time.process_time(), time.perf_counter_ns()
        with self.tracing():
            out = fn()
        self.walls.append((time.perf_counter_ns() - w0) / 1e9)
        self.cpu_s.append(time.process_time() - c0)
        self.max_threads = max(self.max_threads, thread_count())
        return out

    def fail(self, what: str, count: int = 1) -> None:
        self.failures.append(what)
        self.failed_runs += count

    def record(self) -> dict:
        doc = {
            "workload": self.workload, "mode": self.mode,
            "setup_s": self.setup_s, "walls": self.walls,
            "cpu_s": self.cpu_s, "run_tasks": self.run_tasks,
            "tasks": self.tasks,
            "attempted": self.attempted, "failed": self.failed_runs,
            "failures": self.failures[:20], "violations": self.violations,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "events": self.events,
            "records": self.records, "store": self.store,
        }
        if self.tracer is not None:
            from layertrace import NAMES

            t, c = self.tracer, self.counters
            doc["trace"] = {
                "self_ns": dict(zip(NAMES, t.self_ns)),
                "crossings": dict(zip(NAMES, t.crossings)),
                "gc_ns": t.gc_ns, "gc_collected": t.gc_collected,
                "place_calls": c.place_calls, "place_hits": c.place_hits,
                "match_calls": c.match_calls,
                "match_grants": c.match_grants,
                "put_ns": c.put_ns, "fetch_ns": c.fetch_ns,
            }
        return doc


def _experiment_sample(s: Sample, seed: int) -> None:
    """hybrid_sweep / impeccable_srun: member seeds run serially."""
    from repro.analytics import validate_trace
    from repro.experiments import build_workload, run_experiment

    cfg = workload_config(s.workload)
    keep = s.mode != "plain"
    with s.tracing():
        descriptions = (build_workload(cfg)
                        if cfg.workload != "impeccable" else None)
    for sim_seed in member_seeds(s.workload, seed):
        s.attempted += 1
        member = cfg.with_seed(sim_seed)
        try:
            result = s.timed(lambda: run_experiment(
                member, descriptions=descriptions, keep_session=keep))
        except Exception:  # noqa: BLE001 - a raising run is a failed run
            s.fail(f"seed {sim_seed}: {traceback.format_exc(limit=3)}")
            continue
        s.tasks += result.n_tasks
        s.run_tasks.append(result.n_tasks)
        pinned = s.pinned.get(str(sim_seed))
        why = check(result, pinned)
        if keep and not why:
            session = result.session
            s.events += session.env.snapshot()["seq"]
            s.records += len(session.profiler)
            if profile_sha256(session.profiler) != pinned["profile_sha256"]:
                why = "profile digest differs from the pinned one"
            else:
                cores = cfg.n_nodes * session.cluster.cores_per_node
                bad = validate_trace(session.profiler, total_cores=cores)
                if bad:
                    why = f"validate_trace: {bad[0]}"
        result.session = None
        if why:
            s.fail(f"seed {sim_seed}: {why}")


def _ensemble_sample(s: Sample, seed: int) -> None:
    """ensemble_store: Zipf seed requests in batches through one store."""
    from repro.analytics import validate_trace
    from repro.experiments import run_ensemble
    from repro.platform.profiles import FRONTIER_CORES_PER_NODE
    from repro.store import STATS, RunStore

    cfg = workload_config(s.workload)
    requests = request_stream(seed)
    root = WORK_DIR / f"store-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    with s.tracing():
        store = RunStore(root)
    before = STATS.snapshot()
    # Store digest of every checked run, by seed (digest modes only).
    run_digests = {}
    try:
        for start in range(0, len(requests), BATCH):
            batch = requests[start:start + BATCH]
            s.attempted += len(batch)
            try:
                ens = s.timed(lambda: run_ensemble(cfg, seeds=batch,
                                                   cache=store))
            except Exception:  # noqa: BLE001 - the batch's runs failed
                s.fail(f"batch {batch}: {traceback.format_exc(limit=3)}",
                       len(batch))
                continue
            if ens.engine != "vectorized" or ens.n_workers != 1:
                s.violations.append(
                    f"ensemble ran engine={ens.engine} "
                    f"workers={ens.n_workers}, not vectorized in-process")
            s.run_tasks.append(sum(m.result.n_tasks for m in ens.members))
            s.tasks += s.run_tasks[-1]
            for member in ens.members:
                why = check(member.result, s.pinned.get(str(member.seed)))
                if why:
                    s.fail(f"seed {member.seed}: {why}")
                elif s.mode != "plain":
                    run_digests[str(member.seed)] = member.result.cache[
                        "digest"]
        delta = STATS.delta(before)
        s.store = {
            "hits": delta["hits"], "misses": delta["misses"],
            "stored": delta["stored"],
            # Artifact bytes (profile + result); entry.json carries a
            # timestamp, so its size is not repeatable.
            "bytes": sum(row["bytes"] for row in store.entries()),
        }
        if not (delta["hits"] and delta["misses"]):
            s.violations.append(
                f"sample did not exercise both store hits and misses "
                f"({delta['hits']} hits, {delta['misses']} misses)")
        # Hold every stored profile's sha256 to the pinned one.
        for key, run_digest in run_digests.items():
            entry = store.get(run_digest).entry
            digest = entry["artifacts"]["profile.jsonl"]["sha256"]
            if digest != s.pinned[key]["profile_sha256"]:
                s.fail(f"seed {key}: profile digest differs from "
                       "the pinned one")
        if s.counters is not None:
            cores = cfg.n_nodes * FRONTIER_CORES_PER_NODE
            for profiler in s.counters.stored_profilers:
                bad = validate_trace(profiler, total_cores=cores)
                if bad:
                    s.fail(f"validate_trace: {bad[0]}")
            s.records = s.counters.records
            s.counters.stored_profilers.clear()
    finally:
        shutil.rmtree(root, ignore_errors=True)


def run_sample(workload: str, seed: int, mode: str, spawn: float,
               reference: dict) -> dict:
    """Run one sample in this process and return its record."""
    import multiprocessing.process

    s = Sample(workload, mode, reference, spawn)
    start = multiprocessing.process.BaseProcess.start

    def counting_start(proc):
        s.processes_started += 1
        return start(proc)

    multiprocessing.process.BaseProcess.start = counting_start
    try:
        if s.workload == "ensemble_store":
            _ensemble_sample(s, seed)
        else:
            _experiment_sample(s, seed)
    finally:
        multiprocessing.process.BaseProcess.start = start
    if s.processes_started:
        s.violations.append(
            f"started {s.processes_started} worker processes")
    if s.max_threads > host_cpus():
        s.violations.append(
            f"{s.max_threads} threads on {host_cpus()} CPUs")
    return s.record()


def main(argv) -> int:
    workload, seed, mode, spawn = argv
    if workload not in WORKLOADS or mode not in MODES:
        print(f"sample: bad workload/mode {workload!r}/{mode!r}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE_DIR.parent))
    doc = run_sample(workload, int(seed), mode, float(spawn),
                     load_reference())
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
