"""Tests of the benchmark itself (not collected by the repo's suite).

    python3 -m pytest perfbench -q

They run every workload on a held-out workload seed, check that a
wrong pinned summary shows up as failed runs, and that the traced run
is read-only and repeats its counts exactly.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import sample  # noqa: E402

#: A workload seed never used while the benchmark was tuned.
HELD_OUT_SEED = 97

#: Per-layer metrics that are timings, so they cannot repeat exactly.
TIMED = ("_us_per_task", "_ms_p50", "trace.overhead_ratio",
         "gc.collected_per_task")


def _bench(workload: str, trace: int, seconds: float = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(HELD_OUT_SEED), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice():
    return {w: (_bench(w, 1), _bench(w, 1)) for w in sample.WORKLOADS}


def test_spec_matches_benchmark_json():
    committed = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert committed == run.spec()


@pytest.mark.parametrize("workload", sample.WORKLOADS)
def test_held_out_seed_passes_output_check(workload):
    result = _bench(workload, 0)
    assert result["correct"], result
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m[0] for m in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sample.WORKLOADS)
def test_perturbed_reference_counts_as_failed(workload):
    reference = copy.deepcopy(sample.load_reference())
    seeds = (sample.request_stream(HELD_OUT_SEED)
             if workload == "ensemble_store"
             else sample.member_seeds(workload, HELD_OUT_SEED))
    pinned = reference[workload]["members"][str(seeds[0])]
    pinned["makespan"] = pinned["makespan"] * (1 + 1e-12) + 1e-9
    rec = sample.run_sample(workload, HELD_OUT_SEED, "plain",
                            time.monotonic(), reference)
    assert rec["failed"] == seeds.count(seeds[0])
    outcome = run.Outcome()
    outcome.add(workload, rec)
    result = run.report(workload, outcome, run.end_to_end([rec]), False)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


@pytest.mark.parametrize("workload", sample.WORKLOADS)
def test_traced_run_is_read_only_and_repeats_counts(workload,
                                                    traced_twice):
    first, second = traced_twice[workload]
    # ``correct`` covers the traced-vs-untraced profile digests.
    assert first["correct"] and second["correct"], first
    counts = [name for name in first["metrics"]
              if not name.endswith(TIMED)]
    assert counts
    for name in counts:
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"]), name


def test_every_layer_has_self_time_somewhere(traced_twice):
    from layertrace import LAYERS

    for layer in LAYERS:
        name = f"{layer}.self_us_per_task"
        assert any(first["metrics"][name]["value"] > 0
                   for first, _ in traced_twice.values()), layer
