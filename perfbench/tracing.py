"""Timing spans recorded from outside the program.

``Tracer.installed()`` wraps the public functions of each anglemerge module
(and the two AngleCache methods and two Clustering methods that carry the
heavy stages) in spans, and restores the originals on exit. Nothing inside
``src/`` is changed. Each span records its layer-qualified name, the call
it belongs to, its parent, its start and end, and its peak memory.

Peak memory is the highest ``tracemalloc`` reading during the span minus
the reading at its start, so it needs ``tracemalloc`` to be tracing; with
it off, every peak reads 0. A parent's peak includes its children's.
"""

from __future__ import annotations

import functools
import json
import sys
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter

from anglemerge import bounds, cli, engine, geometry, metrics, pipeline, synthetic

# (span name, owner, attribute). Module functions are replaced in every
# anglemerge module that imported them by name, so calls made through
# ``from .x import f`` are traced too.
MODULE_TARGETS = [
    ("geometry.normalize_rows", geometry, "normalize_rows"),
    ("geometry.compute_angles", geometry, "compute_angles"),
    ("geometry.load_points_csv", geometry, "load_points_csv"),
    ("engine.initial_clustering", engine, "initial_clustering"),
    ("engine.run_merging", engine, "run_merging"),
    ("engine.compute_scores", engine, "compute_scores"),
    ("engine.select_clustering", engine, "select_clustering"),
    ("pipeline.cluster_dataset", pipeline, "cluster_dataset"),
    ("cli.main", cli, "main"),
    ("metrics.clustering_error", metrics, "clustering_error"),
    ("metrics.nmi", metrics, "nmi"),
    ("synthetic.generate", synthetic, "gen_subspace_normal"),
    ("synthetic.generate", synthetic, "gen_subspace_dependent"),
    ("bounds.bound_report", bounds, "bound_report"),
]
CLASS_TARGETS = [
    ("geometry.acute_square", geometry.AngleCache, "acute_square"),
    ("geometry.grouped_sums", geometry.AngleCache, "grouped_sums"),
    ("engine.from_labels", engine.Clustering, "from_labels"),
    ("engine.merge", engine.Clustering, "merge"),
]
READS_DURING_MERGE = "geometry.reads_during_merge"


@dataclass
class Span:
    name: str
    call: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    peak_bytes: int = 0
    base_bytes: int = 0
    peak_abs: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    """Spans and counts of one run, kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.call = "none"
        self._stack: list[int] = []
        self._angles = None  # the AngleCache of the call in progress

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        current, peak = tracemalloc.get_traced_memory()
        if parent is not None:
            self.spans[parent].peak_abs = max(self.spans[parent].peak_abs, peak)
        tracemalloc.reset_peak()
        rec = Span(name, self.call, parent, start=0.0, base_bytes=current, peak_abs=current)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec.start = perf_counter()
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._stack.pop()
            rec.peak_abs = max(rec.peak_abs, tracemalloc.get_traced_memory()[1])
            rec.peak_bytes = rec.peak_abs - rec.base_bytes
            if parent is not None:
                owner = self.spans[parent]
                owner.child_s += rec.seconds
                owner.peak_abs = max(owner.peak_abs, rec.peak_abs)
                tracemalloc.reset_peak()

    def count(self, name: str, value: float) -> None:
        self.counts[self.call][name] += value

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        if name == "geometry.compute_angles":
            @functools.wraps(fn)
            def traced_angles(*args, **kwargs):
                self._angles = traced(*args, **kwargs)
                return self._angles

            return traced_angles
        if name == "engine.run_merging":
            # Acceptance criterion 10: merges never re-read the angle cache.
            @functools.wraps(fn)
            def traced_merging(*args, **kwargs):
                cache = self._angles
                before = cache.reads if cache is not None else 0
                result = traced(*args, **kwargs)
                if cache is not None:
                    self.count(READS_DURING_MERGE, cache.reads - before)
                return result

            return traced_merging
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target in a span for the duration of the block."""
        undo = []
        modules = [m for key, m in list(sys.modules.items())
                   if key == "anglemerge" or key.startswith("anglemerge.")]
        try:
            for name, owner, attr in MODULE_TARGETS:
                original = getattr(owner, attr, None)
                if original is None:
                    print(f"perfbench: {owner.__name__}.{attr} not found; "
                          f"{name} is not traced", file=sys.stderr)
                    continue
                wrapped = self._wrap(name, original)
                for module in modules:
                    if getattr(module, attr, None) is original:
                        undo.append((module, attr, original))
                        setattr(module, attr, wrapped)
            for name, cls, attr in CLASS_TARGETS:
                original = cls.__dict__.get(attr)
                if original is None:
                    print(f"perfbench: {cls.__name__}.{attr} not found; "
                          f"{name} is not traced", file=sys.stderr)
                    continue
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, original.__func__))
                else:
                    wrapped = self._wrap(name, original)
                undo.append((cls, attr, original))
                setattr(cls, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
            self._angles = None

    def summary(self) -> dict[str, dict[str, float]]:
        """Per call: ``<span>.s``, ``.self_s``, ``.peak_mb``, ``.calls`` and the counts."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for rec in self.spans:
            row = out[rec.call]
            row[f"{rec.name}.s"] += rec.seconds
            row[f"{rec.name}.self_s"] += rec.self_seconds
            row[f"{rec.name}.calls"] += 1
            row[f"{rec.name}.peak_mb"] = max(row[f"{rec.name}.peak_mb"], rec.peak_bytes / 2**20)
        for call, counts in self.counts.items():
            out[call].update(counts)
        return out

    def dump(self, path) -> None:
        """Write every span and count as JSON."""
        fields = ("name", "call", "parent", "start", "end", "child_s", "peak_bytes")
        spans = [{k: v for k, v in asdict(rec).items() if k in fields} for rec in self.spans]
        counts = {call: dict(values) for call, values in self.counts.items()}
        path.write_text(json.dumps({"spans": spans, "counts": counts}) + "\n")

