"""Canonical run identity: normalization, exclusions, fingerprints."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from repro.experiments.configs import config_by_id
from repro.experiments.harness import build_workload
from repro.store.keys import (
    CACHE_KEY_EXCLUDED,
    cache_key,
    code_fingerprint,
    normalize_config,
    run_digest,
    workload_digest,
)


def cfg(**overrides):
    return config_by_id("srun", n_nodes=1, waves=1, **overrides)


class TestNormalization:
    def test_excluded_fields_absent(self):
        doc = normalize_config(cfg())
        for name in CACHE_KEY_EXCLUDED:
            assert name not in doc

    def test_behavior_fields_present(self):
        doc = normalize_config(cfg())
        for name in ("launcher", "workload", "n_nodes", "n_partitions",
                     "duration", "waves"):
            assert name in doc

    def test_json_serializable_with_defaults_filled(self):
        import json

        doc = normalize_config(cfg())
        json.dumps(doc, sort_keys=True, default=repr)  # must not raise


class TestCacheKey:
    def test_stable_across_calls(self):
        assert cache_key(cfg()) == cache_key(cfg())

    def test_seed_excluded(self):
        assert cache_key(cfg(seed=0)) == cache_key(cfg(seed=999))

    def test_labels_excluded(self):
        base = cfg()
        relabeled = replace(base, exp_id="renamed",
                            tags={"campaign": "x"})
        assert cache_key(base) == cache_key(relabeled)

    def test_trace_neutral_switches_excluded(self):
        # bulk/lean are pinned trace-neutral by the determinism
        # suites; the cache key must not distinguish them.
        base = cfg()
        assert cache_key(base) == cache_key(replace(base, bulk=True))
        assert cache_key(base) == cache_key(replace(base, lean=True))

    def test_behavior_fields_included(self):
        base = cfg()
        assert cache_key(base) != cache_key(replace(base, waves=2))
        assert cache_key(base) != cache_key(replace(base, n_nodes=2))
        assert cache_key(base) != cache_key(replace(base, duration=5.0))

    def test_config_method_delegates(self):
        c = cfg()
        assert c.cache_key() == cache_key(c)


class TestRunDigest:
    def test_per_seed_granularity(self):
        c = cfg()
        d0 = run_digest(c, seed=0)
        d1 = run_digest(c, seed=1)
        assert d0 != d1
        # and seed defaults to cfg.seed
        assert run_digest(c) == run_digest(c, seed=c.seed)

    def test_seed_equivalent_configs_share_digest(self):
        # with_seed(s) on the base config and an explicit seed= on the
        # digest are the same run — the sweep fast path relies on it.
        c = cfg()
        assert run_digest(c, seed=7) == run_digest(c.with_seed(7))

    def test_sharded_component(self):
        # The config key ignores shards, the run digest does not:
        # sharded and serial traces differ.
        c = config_by_id("flux_n", n_nodes=8, n_partitions=4)
        assert cache_key(c) == cache_key(replace(c, shards=2))
        assert run_digest(c) != run_digest(replace(c, shards=2))
        assert run_digest(c) == run_digest(replace(c, shards=1))

    def test_derived_workload_matches_none(self):
        c = cfg()
        descriptions = build_workload(c)
        assert run_digest(c, descriptions=descriptions, derived=True) \
            == run_digest(c, descriptions=None)

    def test_custom_workload_changes_digest(self):
        c = cfg()
        descriptions = build_workload(c)
        assert run_digest(c, descriptions=descriptions, derived=False) \
            != run_digest(c)

    def test_workload_digest_is_content_addressed(self):
        c = cfg()
        a = build_workload(c)
        b = build_workload(c)
        assert workload_digest(a) == workload_digest(b)
        assert workload_digest(a[:-1]) != workload_digest(a)

    def test_fingerprint_component(self):
        c = cfg()
        assert run_digest(c, fingerprint="a" * 64) \
            != run_digest(c, fingerprint="b" * 64)


class TestCodeFingerprint:
    def test_memoized_and_stable(self):
        assert code_fingerprint() == code_fingerprint()

    def test_source_change_invalidates(self, tmp_path: Path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text("x = 1\n")
        before = code_fingerprint(pkg, refresh=True)
        (pkg / "a.py").write_text("x = 2\n")
        assert code_fingerprint(pkg, refresh=True) != before

    def test_new_file_invalidates(self, tmp_path: Path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text("x = 1\n")
        before = code_fingerprint(pkg, refresh=True)
        (pkg / "b.py").write_text("y = 1\n")
        assert code_fingerprint(pkg, refresh=True) != before

    def test_non_python_files_ignored(self, tmp_path: Path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text("x = 1\n")
        before = code_fingerprint(pkg, refresh=True)
        (pkg / "notes.md").write_text("irrelevant\n")
        assert code_fingerprint(pkg, refresh=True) == before
