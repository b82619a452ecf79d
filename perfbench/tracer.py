"""In-memory spans and counters, installed on a live engine by attribute replacement.

:meth:`Tracer.installed` wraps the public entry points of dsmatch's layers
for the duration of a ``with`` block and restores every attribute on exit,
so the package itself carries no tracing code:

* ``graph``:    ``DynamicGraph.apply_update`` (class attribute, since the
  graph uses ``__slots__``);
* ``synopsis``: the engine's ``SynopsisIndex.maintain`` and
  ``scan_for_degree``, and a call count on ``NeighborListStore.mbr``;
* ``matcher``:  the engine's ``process_update`` and ``register`` (the root
  spans), the module's ``refine``, and call counts on its ``make_plan`` and
  ``dominated_within``; ``AnswerSet.add``, ``discard`` and ``answers_on_edge``.

``embedding.label_vector`` is an ``lru_cache``, so its call count is read
from ``cache_info()`` rather than wrapped.

A span is ``(id, parent_id, name, start, end)``; parent 0 means a root.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import dsmatch.matcher as matcher_mod
from dsmatch.embedding import label_vector
from dsmatch.graph import DynamicGraph
from dsmatch.matcher import AnswerSet

_MISSING = object()


def label_vector_calls() -> int:
    info = label_vector.cache_info()
    return info.hits + info.misses


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack = [0]
        self._next_id = 1

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_maintain(self, _args, report) -> None:
        c = self.counts
        c["synopsis.entries_added"] += report.entries_added
        c["synopsis.entries_removed"] += report.entries_removed
        c["synopsis.entries_moved"] += report.entries_moved
        c["synopsis.entries_refreshed"] += report.entries_refreshed
        c["synopsis.lists_s"] += report.list_update_seconds
        c["synopsis.entries_s"] += report.entry_update_seconds

    def _on_refine(self, args, _result) -> None:
        if args[4] == 2:  # depth 2: a join seeded on an inserted edge
            self.counts["matcher.seeds"] += 1

    def _on_scan(self, _args, _result) -> None:
        self.counts["synopsis.scan_calls"] += 1

    # -- installation ----------------------------------------------------------

    @contextmanager
    def installed(self, engine):
        """Wrap the engine's layer entry points; restore them all on exit."""
        undo = []

        def patch(owner, attr, wrapped) -> None:
            own = vars(owner).get(attr, _MISSING)
            undo.append((owner, attr, own))
            setattr(owner, attr, wrapped)

        lv_before = label_vector_calls()
        try:
            patch(DynamicGraph, "apply_update",
                  self._span("graph.apply", DynamicGraph.apply_update))
            index = engine.index
            patch(index, "maintain",
                  self._span("synopsis.maintain", index.maintain, self._on_maintain))
            patch(index, "scan_for_degree",
                  self._span("synopsis.scan", index.scan_for_degree, self._on_scan))
            patch(index.lists, "mbr", self._count("synopsis.mbr_calls", index.lists.mbr))
            patch(engine, "process_update",
                  self._span("matcher.process_update", engine.process_update))
            patch(engine, "register", self._span("matcher.register", engine.register))
            patch(matcher_mod, "refine",
                  self._span("matcher.refine", matcher_mod.refine, self._on_refine))
            patch(matcher_mod, "make_plan",
                  self._count("matcher.plan_calls", matcher_mod.make_plan))
            patch(matcher_mod, "dominated_within",
                  self._count("matcher.endpoint_checks", matcher_mod.dominated_within))
            for attr in ("add", "discard", "answers_on_edge"):
                patch(AnswerSet, attr,
                      self._span("matcher.answers_index", getattr(AnswerSet, attr)))
            yield self
        finally:
            for owner, attr, own in reversed(undo):
                if own is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, own)
            self.counts["embedding.label_vector_calls"] += label_vector_calls() - lv_before

    # -- reading -----------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Summed span duration per name."""
        out: dict[str, float] = defaultdict(float)
        for _, _, name, t0, t1 in self.spans:
            out[name] += t1 - t0
        return out

    def self_times(self) -> dict[str, float]:
        """Per name, summed span duration minus the duration of direct children."""
        children: dict[int, float] = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            children[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for sid, _, name, t0, t1 in self.spans:
            out[name] += (t1 - t0) - children[sid]
        return out

    def write(self, path: Path, phase: str) -> None:
        """Append this tracer's spans as JSON lines tagged with ``phase``."""
        with path.open("a") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps(
                    {"phase": phase, "id": sid, "parent": parent, "name": name,
                     "start": t0, "end": t1}
                ) + "\n")
