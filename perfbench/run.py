"""The repo's benchmark: simulated tasks per host second, end to end
and layer by layer, on three workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py                 # every workload, untraced
    python3 perfbench/run.py --write-spec    # regenerate BENCHMARK.json

Every sample runs in a fresh interpreter (``sample.py``), one at a
time, so GC history never carries over between samples and at most
two processes (this driver and one sample) exist at once.  The
workload seed alone fixes a sample's inputs, so every sample of a run
measures the same work, however many of them fit in ``--seconds``.
With ``--trace 0`` samples run for ``--seconds`` (at least
``MIN_SAMPLES`` of them) and the end-to-end metrics are medians over
them.  With
``--trace 1`` the driver runs one sample twice, untraced and then
under the layer tracer (``layertrace.py``); both must export the
pinned profiles byte for byte and count the same events and store
operations, and the per-layer metrics come from the traced one.  The
last stdout line is the JSON result; the lines before it print every
metric by name and unit.  Every run is checked against the summaries
pinned in ``reference.json``; a run that raises, loses tasks or
differs from its pinned summary counts as failed (``error_rate`` =
failed / attempted, reported in the result's ``attempted`` and
``failed`` fields).

Workloads (all in one process, no pool, no shards):

* ``hybrid_sweep`` — flux+dragon, mixed exec/function null tasks,
  64 nodes, 16 partitions per runtime, 4 consecutive seeds serially
  through ``run_experiment``.  The paper's headline RP+Flux+Dragon
  configuration; drives the kernel, agent/router, both backends and
  the profiler, and is long-lived enough for GC drift to show (it is
  largest at the fourth member).
* ``impeccable_srun`` — the IMPECCABLE.v2 campaign on srun at 1,024
  nodes, 8 seeds serially.  The paper's production workload; the one
  that loads placement (multi-node/GPU tasks) and the only one that
  drives ``rjms`` (slurmctld, the 112-srun ceiling).  No flux/dragon.
* ``ensemble_store`` — the repo's seeded Zipf sweep (96 requests,
  Zipf(1.3) folded into 32 seeds, as in ``benchmarks/
  test_perf_store.py``) rotated by a seed-drawn offset, served 8 at a
  time by ``run_ensemble`` (srun, 4 nodes, one null wave) through a
  store that starts empty each sample.  The
  multi-seed sweep path: store puts and hits side by side, and the
  vectorized engine bypasses the DES kernel, so a kernel change should
  show no change here.

End-to-end metrics (``--trace 0``), each a median over the run:
``tasks_per_s`` and ``tasks_per_cpu_s`` (tasks a sample's simulation
calls complete — for ensemble_store, serve, store hits included — per
wall or CPU second of those calls), ``run_s_p50``/``run_s_p90`` (wall
time of one ``run_experiment``/``run_ensemble`` call), ``setup_s``
(process start to the first simulation call: imports, config,
workload build, store open) and ``peak_rss_mb`` of each sample.

Per-layer metrics (``--trace 1``) and what each should move:

===============================================  =========================================
metric                                           moves
===============================================  =========================================
sim.self_us_per_task, sim.events_per_task        tasks_per_s on hybrid_sweep (kernel ~27%);
                                                 nothing on ensemble_store
gc.pause_us_per_task, gc.collected_per_task      tasks_per_s, run_s_p90 on hybrid_sweep;
                                                 trades against peak_rss_mb there
core/flux/dragon .self_us_per_task,              tasks_per_s on hybrid_sweep; flux and
.crossings_per_task, flux.match_grant_ratio      dragon move nothing on impeccable_srun
platform.self_us_per_task, .crossings_per_task,  tasks_per_s, run_s_p50 on impeccable_srun
platform.place_hit_ratio, rjms.self_us_per_task, (about 5% of hybrid_sweep)
rjms.crossings_per_task
analytics.self_us_per_task,                      tasks_per_s on hybrid_sweep
analytics.records_per_task
workloads.self_us_per_task,                      setup_s, run_s_p50
experiments.self_us_per_task
ensemble.self_us_per_task, store.self_us_per_    tasks_per_s on ensemble_store only
task, store.put_ms_p50, store.load_ms_p50,
store.hit_ratio, store.bytes_per_put,
resilience.self_us_per_task (the store's
fsync'd atomic writes)
trace.overhead_ratio                             untraced / traced tasks_per_s
===============================================  =========================================

The layer self times plus the GC pauses add up to the traced wall
time by construction (see ``layertrace.py``), so no metric reports
their sum.

``observability``, ``other`` (packages outside the list and the
package's top-level modules) and ``bench`` (this benchmark's frames)
complete the split.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

from layertrace import NAMES  # noqa: E402
from sample import MEMBERS, REQUESTS, WORK_DIR, WORKLOADS  # noqa: E402

RUN_SECONDS = 40
#: Fewest samples a ``--trace 0`` run takes, however short ``--seconds``.
MIN_SAMPLES = 3
#: Seconds after which a run stops waiting for its samples, so that
#: it ends well inside the 180 s a run may take.
DEADLINE = 165

WHY = {
    "hybrid_sweep": "paper's headline flux+dragon config, 64 nodes: "
                    "kernel, agent, both backends, profiler, GC drift "
                    "over consecutive seeds",
    "impeccable_srun": "paper's production campaign on srun at 1024 "
                       "nodes: placement-heavy, the only rjms driver, "
                       "no flux or dragon",
    "ensemble_store": "Zipf seed sweep through run_ensemble and a "
                      "fresh run store: store puts and hits, vectorized "
                      "engine that bypasses the DES kernel",
}

#: (name, unit, better, bound) of every end-to-end metric.
END_TO_END = (
    ("tasks_per_s", "tasks/s", "higher", 0.25),
    ("tasks_per_cpu_s", "tasks/cpu-s", "higher", 0.25),
    ("run_s_p50", "s", "lower", 0.25),
    ("run_s_p90", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def _per_layer():
    out = []
    for layer in NAMES:
        out.append((f"{layer}.self_us_per_task", "us/task", "lower"))
        if layer != "bench":
            out.append((f"{layer}.crossings_per_task", "1/task", "lower"))
    out += [
        ("sim.events_per_task", "1/task", "lower"),
        ("gc.pause_us_per_task", "us/task", "lower"),
        ("gc.collected_per_task", "1/task", "lower"),
        ("flux.match_grant_ratio", "ratio", "higher"),
        ("platform.place_hit_ratio", "ratio", "higher"),
        ("analytics.records_per_task", "1/task", "lower"),
        ("store.put_ms_p50", "ms", "lower"),
        ("store.load_ms_p50", "ms", "lower"),
        ("store.hit_ratio", "ratio", "higher"),
        ("store.bytes_per_put", "B", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return tuple(out)


PER_LAYER = _per_layer()


def spec() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def run_sample(workload: str, seed: int, index: int, mode: str,
               deadline: float):
    """One sample in a fresh interpreter; its record, or ``None``."""
    # Fixed hashing keeps traced counts repeatable; no bytecode
    # writes keeps every sample's imports alike and inside the checkout.
    env = dict(os.environ, TMPDIR=str(WORK_DIR / "tmp"),
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "sample.py"), workload, str(seed),
             mode, repr(spawn)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - spawn, 1.0))
    except subprocess.TimeoutExpired:
        print(f"{workload} sample {index}: timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} sample {index}: exit {proc.returncode}\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def planned_runs(workload: str) -> int:
    return MEMBERS.get(workload, REQUESTS)


def _quantile(values, q: int) -> float:
    """The ``q``-th percentile (linear interpolation between ranks)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Outcome:
    """Correctness bookkeeping over a run's samples."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, workload: str, rec) -> bool:
        if rec is None:
            self.attempted += planned_runs(workload)
            self.failed += planned_runs(workload)
            self.problems.append("sample crashed")
            return False
        self.attempted += rec["attempted"]
        self.failed += rec["failed"]
        self.problems += rec["failures"] + rec["violations"]
        return True

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def end_to_end(samples) -> dict:
    """Rates per sample and call times over every simulation call, as
    medians, which a slow call or sample (host interference) cannot
    drag along."""
    walls = [w for s in samples for w in s["walls"]]
    return {
        "tasks_per_s": statistics.median(
            s["tasks"] / sum(s["walls"]) for s in samples),
        "tasks_per_cpu_s": statistics.median(
            s["tasks"] / sum(s["cpu_s"]) for s in samples),
        "run_s_p50": statistics.median(walls),
        "run_s_p90": _quantile(walls, 90),
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }


def per_layer(plain: dict, traced: dict) -> dict:
    t = traced["trace"]
    tasks = traced["tasks"]
    out = {}
    for layer in NAMES:
        out[f"{layer}.self_us_per_task"] = t["self_ns"][layer] / 1e3 / tasks
        if layer != "bench":
            out[f"{layer}.crossings_per_task"] = (
                t["crossings"][layer] / tasks)
    store = traced["store"]
    lookups = store.get("hits", 0) + store.get("misses", 0)
    out.update({
        "sim.events_per_task": traced["events"] / tasks,
        "gc.pause_us_per_task": t["gc_ns"] / 1e3 / tasks,
        "gc.collected_per_task": t["gc_collected"] / tasks,
        "flux.match_grant_ratio": (t["match_grants"] / t["match_calls"]
                                   if t["match_calls"] else 0.0),
        "platform.place_hit_ratio": (t["place_hits"] / t["place_calls"]
                                     if t["place_calls"] else 0.0),
        "analytics.records_per_task": traced["records"] / tasks,
        "store.put_ms_p50": (statistics.median(t["put_ns"]) / 1e6
                             if t["put_ns"] else 0.0),
        "store.load_ms_p50": (statistics.median(t["fetch_ns"]) / 1e6
                              if t["fetch_ns"] else 0.0),
        "store.hit_ratio": store["hits"] / lookups if lookups else 0.0,
        "store.bytes_per_put": (store["bytes"] / store["stored"]
                                if store.get("stored") else 0.0),
        "trace.overhead_ratio": (
            (plain["tasks"] / sum(plain["walls"]))
            / (tasks / sum(traced["walls"]))),
    })
    return out


def _counts(rec: dict) -> tuple:
    store = rec["store"]
    return (rec["events"], store.get("hits"), store.get("misses"),
            store.get("stored"))


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; ``(outcome, metrics)``."""
    outcome = Outcome()
    start = time.monotonic()
    deadline = start + DEADLINE
    if trace:
        plain = run_sample(workload, seed, 0, "digest", deadline)
        traced = run_sample(workload, seed, 0, "traced", deadline)
        ok = outcome.add(workload, plain) & outcome.add(workload, traced)
        if not ok:
            return outcome, {}
        # Both samples held every profile to its pinned digest.
        if _counts(plain) != _counts(traced):
            outcome.problems.append("tracing changed event or store counts")
        return outcome, per_layer(plain, traced)
    samples = []
    durations = []
    # Start another sample only while a typical one still ends inside
    # ``seconds``, so that a run lasts ``seconds`` on any host.
    while (len(durations) < MIN_SAMPLES
           or time.monotonic() - start + statistics.median(durations)
           <= seconds):
        t0 = time.monotonic()
        rec = run_sample(workload, seed, len(durations), "plain", deadline)
        durations.append(time.monotonic() - t0)
        if outcome.add(workload, rec):
            samples.append(rec)
    if not samples:
        return outcome, {}
    return outcome, end_to_end(samples)


def report(workload: str, outcome: Outcome, metrics: dict,
           trace: bool) -> dict:
    units = {n: u for n, u, *_ in (PER_LAYER if trace else END_TO_END)}
    for name, value in metrics.items():
        print(f"{workload:16s} {name:32s} {value:14.6g} {units[name]}")
    print(f"{workload:16s} {'error_rate':32s} "
          f"{outcome.failed / max(outcome.attempted, 1):14.6g} ratio "
          f"({outcome.failed}/{outcome.attempted} runs failed)")
    for problem in outcome.problems[:10]:
        print(f"{workload:16s} problem: {problem.strip()}", file=sys.stderr)
    return {
        "correct": outcome.correct and bool(metrics),
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec(), indent=2) + "\n", encoding="utf-8")
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}",
              file=sys.stderr)
        return 2
    (WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        results = []
        for workload in ([args.workload] if args.workload else WORKLOADS):
            outcome, metrics = measure(workload, args.seed, args.seconds,
                                       bool(args.trace))
            results.append(report(workload, outcome, metrics,
                                  bool(args.trace)))
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
