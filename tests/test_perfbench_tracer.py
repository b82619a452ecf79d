"""The benchmark's tracer, grid-margin probe and exactness gate.

``perfbench/tracer.py`` wraps engine attributes by name and reads
``MaintenanceReport`` fields; ``perfbench/harness.py``'s grid-margin probe
reads ``scan_for_degree``, ``embedding_of`` and the histogram store.  A
change to any of them fails here, not only under ``--trace 1``.
"""

import subprocess
import sys
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
    q, q1 = sample_queries(g, 2, 4, 2.0, seed=13)
    ops = random_update_stream(g, 20, seed=41, alphabet=3)
    assert {op.kind for op in ops} == {INSERT, DELETE}
    seeds = []  # depth-2 joins: inserts seeding a plan, under the tracer's wrapper
    real_refine = matcher_mod.refine

    def counted_refine(plan, graph, store, seed, depth, roots=()):
        seeds.append(depth == 2)
        return real_refine(plan, graph, store, seed, depth, roots)

    monkeypatch.setattr(matcher_mod, "refine", counted_refine)
    apply_update, refine = DynamicGraph.apply_update, matcher_mod.refine

    reg = Tracer()
    with reg.installed(engine):
        engine.register("q0", q)
    assert reg.counts["synopsis.scan_calls"] == len(q)
    assert {"matcher.register", "synopsis.scan"} <= set(reg.totals())

    tr = Tracer()
    with tr.installed(engine):
        seeds.clear()
        for op in ops:
            engine.process_update(op)
        # the tracer counts seeds from the module's refine, which the insert
        # path must call by name for the count to see them
        assert tr.counts["matcher.seeds"] == sum(seeds) > 0
        # the stream dropped the label columns; this registration refills
        # them from the histograms and builds no grid (in a traced run,
        # grid_margin's first scan does), without calling lists.mbr
        engine.register("q1", q1)
        boxed = [v for v in engine.graph.vertices() if engine.graph.degree(v)][:3]
        for v in boxed:
            engine.index.lists.mbr(v, 1)
    names = [name for _, _, name, _, _ in tr.spans]
    for name in ("matcher.process_update", "graph.apply", "synopsis.maintain"):
        assert names.count(name) == len(ops)
    # maintain reads no clock, so its report's seconds are zero
    assert tr.counts["synopsis.lists_s"] == 0.0
    assert tr.counts["synopsis.entries_s"] == 0.0
    assert reg.counts["synopsis.mbr_calls"] + tr.counts["synopsis.mbr_calls"] == len(boxed) == 3
    assert "embedding.label_vector_calls" in tr.counts

    # every wrapped attribute is restored
    assert "maintain" not in vars(engine.index)
    assert "mbr" not in vars(engine.index.lists)
    assert DynamicGraph.apply_update is apply_update
    assert matcher_mod.refine is refine

    # grid scans over the updated graph agree with the probe's linear filter
    _, scans, mismatches = grid_margin(engine, ["q0"])
    assert (scans, mismatches) == (len(q), 0)
    for name, query in (("q0", q), ("q1", q1)):
        assert engine.queries[name].answers.mappings() == enumerate_matches(engine.graph, query)


def test_exactness_gate_fails_on_a_planted_wrong_answer():
    # a gate that cannot fail would pass every benchmark run it guards
    run = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "sw-delete-q20",
         "--seconds", "1", "--plant-wrong-answer"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "exactness gate: FAILED" in run.stdout
