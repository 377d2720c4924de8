"""Canonical run identity: what makes two runs *the same run*.

A run digest is a sha256 over five components:

``config``
    The canonical cache key of the :class:`ExperimentConfig` —
    every behavior-affecting field, serialized with sorted keys at
    every nesting level (dict insertion order must never leak into
    the digest), defaults filled by ``dataclasses.asdict``.  Fields
    that are *labels* (``exp_id``, ``tags``), *pinned trace-neutral
    execution knobs* (``bulk``, ``lean``) or keyed by their own
    component (``seed``, ``shards``) are excluded: the determinism
    suites guarantee that same-seed traces are byte-identical across
    ``bulk`` and ``lean``, so two configs differing only there denote
    the same simulated run (see :data:`CACHE_KEY_EXCLUDED`).

``seed``
    Kept out of the config key so sweeps get per-seed granularity: a
    64-seed ensemble with 60 seeds already stored simulates only the
    missing 4.

``sharded``
    Whether the run executes on the partition-sharded engine.  A
    sharded run's trace differs from the serial one (one-window-stale
    routing counters, partitioned RNG; ``docs/MODEL.md`` §6), so the
    two never share an entry.  The shard count is not keyed: a
    sharded trace does not depend on how the partitions are grouped
    into shards.

``workload``
    ``"derived"`` when the task set comes from
    :func:`~repro.experiments.harness.build_workload` (then it is a
    pure function of the config and adds no information), otherwise a
    content digest of the caller-supplied description list.

``code``
    A fingerprint of every ``.py`` source file in the installed
    ``repro`` package — any source change, anywhere, invalidates
    every cached run.  Coarse on purpose: a stale hit is a
    correctness bug, a spurious miss is one re-simulation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

#: Version of the digest scheme itself; bump on any change to the
#: normalization or fingerprint rules so old stores go stale instead
#: of serving entries keyed under different semantics.
KEY_SCHEME = 2

#: Config fields excluded from the cache key.  ``exp_id`` and
#: ``tags`` are labels (no effect on the simulation); ``seed`` and
#: ``shards`` are keyed by their own digest components (see
#: :func:`is_sharded`); ``bulk`` and ``lean`` are execution switches
#: whose trace-neutrality is pinned by
#: ``tests/property/test_prop_bulk_submit.py`` — byte-identical
#: profiles for any value.
CACHE_KEY_EXCLUDED = ("exp_id", "tags", "seed", "bulk", "lean", "shards")


def normalize_config(cfg) -> Dict[str, Any]:
    """The behavior-defining document of a config.

    ``dataclasses.asdict`` fills every default and recurses into
    nested dataclasses (fault specs, retry policies); the excluded
    label/execution fields are dropped.  The result is
    JSON-serializable and — once dumped with ``sort_keys=True`` —
    independent of dict insertion order at every level.
    """
    doc = dataclasses.asdict(cfg)
    for name in CACHE_KEY_EXCLUDED:
        doc.pop(name, None)
    return doc


def canonical_json(doc: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators, ``repr``
    fallback for non-JSON leaves (enums, paths)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      default=repr)


def cache_key(cfg) -> str:
    """sha256 of the normalized config document (seed excluded)."""
    payload = canonical_json(normalize_config(cfg))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def is_sharded(cfg) -> bool:
    """Whether ``cfg`` runs on the partition-sharded engine (two or
    more shards once resolved on this host)."""
    if cfg.shards is None:
        return False
    from ..shard import resolve_shards

    return resolve_shards(cfg.shards) >= 2


def workload_digest(descriptions: Sequence) -> str:
    """Content digest of an explicit task-description list.

    Only needed when a caller hands :func:`run_experiment` a workload
    that is *not* the config-derived one; the canonical sweeps pass
    ``build_workload`` output, which the harness marks as derived and
    which therefore adds nothing beyond the config key.
    """
    hasher = hashlib.sha256()
    for desc in descriptions:
        hasher.update(canonical_json(
            dataclasses.asdict(desc)).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


# -- code-version fingerprint ------------------------------------------------

_FINGERPRINT_CACHE: Dict[str, str] = {}


def code_fingerprint(root: Optional[Path] = None,
                     refresh: bool = False) -> str:
    """Fingerprint of the ``repro`` package's source tree.

    sha256 over the sorted ``(relative path, content sha256)`` pairs
    of every ``.py`` file under the package directory.  Memoized per
    process (source files do not change under a running simulation);
    ``refresh`` forces a re-scan, which the tests use to observe
    invalidation without restarting the interpreter.
    """
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
    root = Path(root)
    key = str(root)
    if not refresh and key in _FINGERPRINT_CACHE:
        return _FINGERPRINT_CACHE[key]
    hasher = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        try:
            content = path.read_bytes()
        except OSError:  # pragma: no cover - racing file removal
            continue
        digest = hashlib.sha256(content).hexdigest()
        hasher.update(f"{rel}:{digest}\n".encode("utf-8"))
    fingerprint = hasher.hexdigest()
    _FINGERPRINT_CACHE[key] = fingerprint
    return fingerprint


def run_digest(cfg, seed: Optional[int] = None,
               descriptions: Optional[Sequence] = None,
               derived: bool = True,
               fingerprint: Optional[str] = None) -> str:
    """The content address of one run.

    ``seed`` defaults to ``cfg.seed``; ``descriptions``/``derived``
    select the workload component (see module docstring);
    ``fingerprint`` overrides the code fingerprint (tests).
    """
    if seed is None:
        seed = cfg.seed
    if derived or descriptions is None:
        workload = "derived"
    else:
        workload = workload_digest(descriptions)
    payload = canonical_json({
        "scheme": KEY_SCHEME,
        "config": cache_key(cfg),
        "seed": int(seed),
        "sharded": is_sharded(cfg),
        "workload": workload,
        "code": fingerprint if fingerprint is not None
        else code_fingerprint(),
    })
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
