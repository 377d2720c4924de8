"""Per-layer wall-time accounting with a ``sys.setprofile`` hook.

The simulated stack does most of its per-task work in generators the
DES kernel resumes (``FluxInstance._sched_loop``,
``DragonRuntime._gs_loop``, ``Agent._handle``), so timing the public
entry points alone would charge everything to ``sim``.  The hook here
instead watches every Python frame the interpreter enters and opens a
*span* whenever the stack crosses into a different layer, where a
layer is one ``src/repro/<layer>/`` package.  Frames outside the
package (stdlib, NumPy, C builtins, this benchmark's own wrappers)
belong to the layer that called them.

A span's self time is its duration minus its child spans and minus
the cyclic-GC pauses (``gc.callbacks``) that landed inside it, so the
self times of all layers plus the GC pauses add up to the traced wall
time exactly.  Spans are folded into per-layer totals as they close;
nothing per span is kept, and the hook allocates no GC-tracked
objects, so the collector runs on the same schedule as untraced.

The thin wrappers in :func:`install_counters` add the ratios the
layers do not expose: placement attempts that placed, Flux ``match``
calls that granted, and the store's put/fetch latencies.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List

#: Layers reported by name: one per ``src/repro/<layer>/`` package a
#: workload drives.  Code in other packages and in the package's
#: top-level modules counts as ``other``; frames of the benchmark
#: itself (and whatever they call outside the package) as ``bench``.
LAYERS = ("sim", "core", "flux", "dragon", "rjms", "platform",
          "analytics", "workloads", "experiments", "ensemble", "store",
          "observability", "resilience")
OTHER = len(LAYERS)
BENCH = OTHER + 1
NAMES = LAYERS + ("other", "bench")
_INHERIT = -1


class LayerTracer:
    """Self time and crossing counts per layer, over traced intervals."""

    def __init__(self, package_dir: Path) -> None:
        self._prefix = str(Path(package_dir).resolve()) + os.sep
        self._index = {name: i for i, name in enumerate(LAYERS)}
        self.self_ns: List[int] = [0] * len(NAMES)
        self.crossings: List[int] = [0] * len(NAMES)
        self.gc_ns = 0
        self.gc_collected = 0

    def _classify(self, filename: str) -> int:
        if not filename.startswith(self._prefix):
            return _INHERIT
        head, sep, _ = filename[len(self._prefix):].partition(os.sep)
        return self._index.get(head, OTHER) if sep else OTHER

    @contextmanager
    def active(self):
        """Trace the body; totals accumulate across activations."""
        perf = time.perf_counter_ns
        classify = self._classify
        file_layer: Dict[str, int] = {}
        self_ns, crossings = self.self_ns, self.crossings
        # Parallel stacks of ints and frame references: appending to
        # them allocates nothing the cyclic collector tracks.
        frames: list = [None]
        layers: List[int] = [BENCH]
        starts: List[int] = []
        excluded: List[int] = [0]
        gc_state = [0, 0, 0]  # pause start, pause ns, collected

        def hook(frame, event, arg):
            if event == "call":
                filename = frame.f_code.co_filename
                layer = file_layer.get(filename)
                if layer is None:
                    layer = file_layer[filename] = classify(filename)
                if layer < 0 or layer == layers[-1]:
                    return
                frames.append(frame)
                layers.append(layer)
                crossings[layer] += 1
                excluded.append(0)
                starts.append(perf())
            elif event == "return" and frame is frames[-1]:
                duration = perf() - starts.pop()
                frames.pop()
                self_ns[layers.pop()] += duration - excluded.pop()
                excluded[-1] += duration

        def on_gc(phase, info):
            if phase == "start":
                gc_state[0] = perf()
            else:
                pause = perf() - gc_state[0]
                gc_state[1] += pause
                gc_state[2] += info["collected"]
                excluded[-1] += pause

        gc.callbacks.append(on_gc)
        starts.append(perf())
        sys.setprofile(hook)
        try:
            yield self
        finally:
            sys.setprofile(None)
            gc.callbacks.remove(on_gc)
            now = perf()
            # Close whatever is still open (only the root span unless
            # the body raised mid-crossing).
            while starts:
                duration = now - starts.pop()
                frames.pop()
                self_ns[layers.pop()] += duration - excluded.pop()
                if excluded:
                    excluded[-1] += duration
            self.gc_ns += gc_state[1]
            self.gc_collected += gc_state[2]


class Counters:
    """Outcome counts and latencies from the thin wrappers."""

    def __init__(self) -> None:
        self.place_calls = 0
        self.place_hits = 0
        self.match_calls = 0
        self.match_grants = 0
        self.put_ns: List[int] = []
        self.fetch_ns: List[int] = []
        self.records = 0
        #: Profilers of freshly stored runs (validated after tracing).
        self.stored_profilers: list = []


def _wrap(cls, name: str, make):
    original = getattr(cls, name)
    setattr(cls, name, make(original))
    return cls, name, original


@contextmanager
def install_counters(counters: Counters):
    """Patch the counting wrappers in for the body's duration.

    Each wrapper returns exactly what the original returns, so the
    simulation (and its trace) cannot tell it is there.
    """
    from repro.flux.scheduler import EasyBackfillPolicy, FcfsPolicy
    from repro.platform.cluster import Allocation
    from repro.store import RunStore

    perf = time.perf_counter_ns

    def place(original):
        def try_place(self, spec):
            placements = original(self, spec)
            counters.place_calls += 1
            if placements is not None:
                counters.place_hits += 1
            return placements
        return try_place

    def match(original):
        def wrapped(self, *args, **kwargs):
            matches = original(self, *args, **kwargs)
            counters.match_calls += 1
            if matches:
                counters.match_grants += 1
            return matches
        return wrapped

    def put(original):
        def wrapped(self, digest, cfg, result, profile_bytes=None,
                    profiler=None):
            t0 = perf()
            stored = original(self, digest, cfg, result,
                              profile_bytes=profile_bytes, profiler=profiler)
            counters.put_ns.append(perf() - t0)
            if stored and profiler is not None:
                counters.records += len(profiler)
                counters.stored_profilers.append(profiler)
            return stored
        return wrapped

    def fetch(original):
        def wrapped(self, digest, touch=True):
            t0 = perf()
            hit = original(self, digest, touch=touch)
            counters.fetch_ns.append(perf() - t0)
            return hit
        return wrapped

    patches = [_wrap(Allocation, "try_place", place),
               _wrap(FcfsPolicy, "match", match),
               _wrap(EasyBackfillPolicy, "match", match),
               _wrap(RunStore, "put", put),
               _wrap(RunStore, "fetch", fetch)]
    try:
        yield counters
    finally:
        for cls, name, original in patches:
            setattr(cls, name, original)
