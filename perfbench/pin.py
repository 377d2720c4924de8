"""Regenerate ``reference.json``: the pinned per-seed run summaries.

    python3 perfbench/pin.py

For every seed a workload can draw, it records the summary the
benchmark checks each run against (task counts, makespan, throughput
average and peak, core utilization — compared exactly) and the
sha256 of the run's exported profile, and it runs ``validate_trace``
on that profile.  Pin only from a commit whose traces are known to be
right: a later change that alters any trace then shows as failed runs.
"""

from __future__ import annotations

import json
import sys

from sample import (POOL, REFERENCE_FILE, SEED_SPACE, PACKAGE_DIR,
                    profile_sha256, summary, workload_config)


def _pin(result, profiler, cores: int) -> dict:
    from repro.analytics import validate_trace

    bad = validate_trace(profiler, total_cores=cores)
    if bad:
        raise SystemExit(f"pin: {result.config.exp_id} seed "
                         f"{result.config.seed}: {bad[0]}")
    return dict(summary(result), profile_sha256=profile_sha256(profiler))


def main() -> int:
    sys.path.insert(0, str(PACKAGE_DIR.parent))
    from repro.experiments import build_workload, run_ensemble, run_experiment
    from repro.platform.profiles import FRONTIER_CORES_PER_NODE

    reference = {}
    for workload, pool in POOL.items():
        cfg = workload_config(workload)
        cores = cfg.n_nodes * FRONTIER_CORES_PER_NODE
        descriptions = (build_workload(cfg)
                        if cfg.workload != "impeccable" else None)
        members = {}
        for seed in range(pool):
            result = run_experiment(cfg.with_seed(seed), keep_session=True,
                                    descriptions=descriptions)
            members[str(seed)] = _pin(result, result.session.profiler, cores)
            result.session = None
            print(f"{workload} seed {seed}: makespan {result.makespan:.3f}",
                  file=sys.stderr)
        reference[workload] = {"cache_key": cfg.cache_key(),
                               "members": members}

    cfg = workload_config("ensemble_store")
    cores = cfg.n_nodes * FRONTIER_CORES_PER_NODE
    ens = run_ensemble(cfg, seeds=list(range(SEED_SPACE)),
                       keep_profiles=True)
    reference["ensemble_store"] = {
        "cache_key": cfg.cache_key(),
        "members": {str(m.seed): _pin(m.result, m.profiler, cores)
                    for m in ens.members}}
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1,
                                         sort_keys=True) + "\n",
                              encoding="utf-8")
    print(f"wrote {REFERENCE_FILE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
