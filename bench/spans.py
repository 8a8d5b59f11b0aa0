"""In-memory spans and counters recorded around calls into covfields.

The traced run replaces module attributes (the bindings one module uses to
call another, e.g. ``covfields.transport.ctf_grid``) with wrappers that
open a span and bump counters; :meth:`Tracer.uninstall` puts the original
objects back.  The untraced run installs nothing, so it runs the program
exactly as users do.  Nothing under ``src/`` is edited.

A span records (name, start, end, parent).  A span's self time is its
duration minus the durations of its direct children; summed over all
spans, self times equal the summed duration of the top-level spans.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict


class Tracer:
    """Span stack, finished spans and named counters for one traced round."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()  # bindings install() looked for and did not find

    # -- recording ---------------------------------------------------------
    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Self time summed by span name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for (name, t0, t1, _), c in zip(self.spans, child):
            out[name] += (t1 - t0) - c
        return out

    def top_level_time(self) -> float:
        return sum(t1 - t0 for _, t0, t1, parent in self.spans if parent < 0)

    # -- patching ----------------------------------------------------------
    def wrap(self, owner, attr: str, span: str | None = None, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper.

        A binding the package no longer has is named in :attr:`missing` (the
        run reports it) rather than skipped without a word, since the metrics
        it feeds would read 0 and look like a gain.

        ``span`` names the span opened around each call (None: no span).
        ``count(counts, result, args, kwargs)`` updates counters after the
        call returns.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            name = f"{owner.__module__}.{owner.__name__}" if isinstance(owner, type) else owner.__name__
            self.missing.add(f"{name}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if span is None:
                result = original(*args, **kwargs)
            else:
                result = tracer.call(span, original, args, kwargs)
            if count is not None:
                count(tracer.counts, result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def records(self, round_index: int) -> list[dict]:
        """The finished spans as JSON-ready records tagged with their round."""
        return [{"round": round_index, "name": name, "start": t0, "end": t1, "parent": parent}
                for name, t0, t1, parent in self.spans]


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _bump(key: str):
    def count(counts, result, args, kwargs):
        counts[key] += 1

    return count


def _count_ctf_grid(counts, result, args, kwargs):
    measure = _arg(args, kwargs, 0, "measure")
    m = int(result.query_points.shape[0])
    counts["fields.ctf_grid_calls"] += 1
    counts["fields.query_points"] += m
    counts["fields.pair_evals"] += m * int(measure.size)


def _count_candidates(counts, result, args, kwargs):
    counts["fields.candidates"] += int(len(result))


def _count_flow(counts, result, args, kwargs):
    counts["fields.flow_steps"] += int(len(result.path)) - 1


def _count_linkage(counts, result, args, kwargs):
    n = int(result.n_leaves)
    counts["clustering.mst_edges"] += n - 1
    counts["clustering.cophenetic_cells"] += n * n


def _count_lp(counts, result, args, kwargs):
    counts["transport.lp_vars"] += int(len(_arg(args, kwargs, 0, "c")))


def _io_bytes(path_pos: int, path_name: str):
    def count(counts, result, args, kwargs):
        counts["measures.io_bytes"] += os.path.getsize(str(_arg(args, kwargs, path_pos, path_name)))

    return count


def install(tracer: Tracer) -> None:
    """Wrap every cross-module binding the workloads go through."""
    from covfields import cli, clustering, experiments, fields, kernels, measures, transport

    for owner in (experiments, clustering, transport, cli):
        tracer.wrap(owner, "ctf_grid", "fields.ctf_grid", _count_ctf_grid)
    tracer.wrap(fields, "ctf_at", None, _bump("fields.ctf_at_calls"))
    index = getattr(fields, "_BucketIndex", None)
    if isinstance(index, type):
        tracer.wrap(index, "candidates", "fields.neighbour", _count_candidates)
        tracer.wrap(index, "__init__", "fields.neighbour")
    else:
        tracer.missing.add("covfields.fields._BucketIndex")
    tracer.wrap(cli, "basin_labels", "fields.flow")
    tracer.wrap(fields, "flow_to_attractor", None, _count_flow)
    tracer.wrap(fields, "frechet_value", None, _bump("fields.frechet_value_calls"))
    tracer.wrap(fields, "frechet_gradient", None, _bump("fields.frechet_gradient_calls"))
    tracer.wrap(fields.FieldGrid, "save_csv", "fields.save_csv")

    for owner in (measures, experiments, clustering):
        tracer.wrap(owner, "empirical_measure", "measures.gen")
    for owner in (measures, experiments):
        tracer.wrap(owner, "gen_arrangement_suite", "measures.gen")
    tracer.wrap(measures, "save_measure", "measures.io", _io_bytes(1, "path"))
    tracer.wrap(cli, "load_measure", "measures.io", _io_bytes(0, "path"))
    tracer.wrap(measures, "load_measure", "measures.io", _io_bytes(0, "path"))

    tracer.wrap(kernels.RadialKernel, "normalizer", None, _bump("kernels.normalizer_calls"))
    tracer.wrap(transport, "derive_constants", "kernels.derive_constants")

    tracer.wrap(experiments, "circle_tensor", "geometry.circle_tensor",
                _bump("geometry.circle_tensor_calls"))

    tracer.wrap(transport, "w1_exact", "transport.w1", _bump("transport.w1_calls"))
    tracer.wrap(transport, "linprog", None, _count_lp)
    tracer.wrap(transport, "winf_exact", "transport.winf")
    tracer.wrap(transport, "maximum_flow", None, _bump("transport.maxflow_calls"))
    tracer.wrap(transport, "check_stability_smooth", "transport.check_smooth")

    tracer.wrap(clustering, "tensorized_distances", "clustering.distances")
    tracer.wrap(clustering, "single_linkage", "clustering.linkage", _count_linkage)
    tracer.wrap(clustering, "cut", "clustering.cut", _bump("clustering.cut_calls"))
    tracer.wrap(clustering, "mean_cophenetic", "clustering.cophenetic_stats")
    tracer.wrap(clustering, "cophenetic_std", "clustering.cophenetic_stats")
    tracer.wrap(clustering, "topk_reassign", "clustering.reassign")
    tracer.wrap(clustering, "score", "clustering.score", _bump("clustering.score_calls"))

    tracer.wrap(experiments, "run_converge", "experiments")
    tracer.wrap(experiments, "run_cluster_benchmark", "experiments")
    tracer.wrap(cli, "main", "cli")
