"""The benchmark's tracer and grid-margin probe, run on a small live engine.

``perfbench/tracer.py`` wraps engine attributes by name and reads
``MaintenanceReport`` fields; ``perfbench/harness.py``'s grid-margin probe
reads ``scan_for_degree``, ``embedding_of`` and the histogram store.  A
change to any of them fails here, not only under ``--trace 1``.
"""

from pathlib import Path

import dsmatch.matcher as matcher_mod
from dsmatch.generate import sample_queries
from dsmatch.graph import DELETE, INSERT, DynamicGraph
from dsmatch.matcher import MatchEngine
from dsmatch.oracle import enumerate_matches

from conftest import small_world
from test_synopsis import random_update_stream

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_on_small_engine(cfg_zipf, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from harness import grid_margin
    from tracer import Tracer

    g = small_world(n=80, avg_deg=5.0, alphabet=3, seed=23)
    engine = MatchEngine(g.copy(), cfg_zipf)
    q = sample_queries(g, 1, 4, 2.0, seed=13)[0]
    ops = random_update_stream(g, 20, seed=41, alphabet=3)
    assert {op.kind for op in ops} == {INSERT, DELETE}
    apply_update, refine = DynamicGraph.apply_update, matcher_mod.refine

    reg = Tracer()
    with reg.installed(engine):
        engine.register("q0", q)
    assert reg.counts["synopsis.scan_calls"] == len(q)
    assert {"matcher.register", "synopsis.scan"} <= set(reg.totals())

    tr = Tracer()
    with tr.installed(engine):
        for op in ops:
            engine.process_update(op)
    names = [name for _, _, name, _, _ in tr.spans]
    for name in ("matcher.process_update", "graph.apply", "synopsis.maintain"):
        assert names.count(name) == len(ops)
    assert tr.counts["synopsis.lists_s"] > 0.0
    assert tr.counts["synopsis.entries_s"] == 0.0
    assert reg.counts["synopsis.mbr_calls"] + tr.counts["synopsis.mbr_calls"] > 0
    assert "embedding.label_vector_calls" in tr.counts

    # every wrapped attribute is restored
    assert "maintain" not in vars(engine.index)
    assert "mbr" not in vars(engine.index.lists)
    assert DynamicGraph.apply_update is apply_update
    assert matcher_mod.refine is refine

    # grid scans over the updated graph agree with the probe's linear filter
    _, scans, mismatches = grid_margin(engine, ["q0"])
    assert (scans, mismatches) == (len(q), 0)
    assert engine.queries["q0"].answers.mappings() == enumerate_matches(engine.graph, q)
