import itertools
from collections import Counter, defaultdict

import pytest

import dsmatch.matcher as matcher_mod
from dsmatch.embedding import EmbeddingConfig, dominates
from dsmatch.errors import (
    DuplicateEdge,
    InvalidParams,
    LabelConflict,
    MissingEdge,
    MissingLabel,
    SelfLoop,
)
from dsmatch.generate import sample_queries, split_stream
from dsmatch.graph import DELETE, INSERT, DynamicGraph, UpdateOp, dump_graph
from dsmatch.matcher import (
    AnswerSet,
    JoinPlan,
    MatchEngine,
    QueryGraph,
    embed_query,
    format_answers,
    make_plan,
    refine,
)
from dsmatch.oracle import enumerate_matches
from dsmatch.synopsis import FILTER_EPS, NeighborListStore, SynopsisIndex

from conftest import make_graph, small_world
from test_synopsis import random_update_stream


def q_edge(la=0, lb=1):
    return QueryGraph({0: la, 1: lb}, [(0, 1)])


def q_triangle(labels=(0, 1, 2)):
    return QueryGraph(dict(enumerate(labels)), [(0, 1), (1, 2), (0, 2)])


# -- QueryGraph validation ----------------------------------------------------


def test_query_validation():
    with pytest.raises(InvalidParams):
        QueryGraph({0: 1}, [])  # single vertex
    with pytest.raises(InvalidParams):
        QueryGraph({0: 1, 1: 2}, [])  # degree-0 vertices
    with pytest.raises(InvalidParams):
        QueryGraph({0: 1, 1: 2, 2: 3, 3: 4}, [(0, 1), (2, 3)])  # disconnected
    with pytest.raises(InvalidParams):
        QueryGraph({0: 1, 1: 2}, [(0, 0)])  # self-loop


def test_query_text_roundtrip():
    q = q_triangle()
    q2 = QueryGraph.from_text(q.to_text())
    assert q2.labels == q.labels and q2.edges == q.edges


# -- query embedding -----------------------------------------------------------


def test_embed_query_single_edge(any_mode_cfg):
    from dsmatch.embedding import compose, label_vector

    q = q_edge(3, 4)
    embeds = embed_query(q, any_mode_cfg)
    want = compose(label_vector(3, any_mode_cfg), label_vector(4, any_mode_cfg), 3, any_mode_cfg)
    assert embeds[0] == want


def test_embed_query_matches_identical_data_vertex(any_mode_cfg):
    # same label, same neighbor-label multiset -> identical embedding
    from dsmatch.embedding import embed_vertex

    g = make_graph([(0, 1), (0, 2)], {0: 5, 1: 6, 2: 7})
    q = QueryGraph({0: 5, 1: 6, 2: 7}, [(0, 1), (0, 2)])
    assert embed_query(q, any_mode_cfg)[0] == embed_vertex(g, 0, any_mode_cfg)


def test_query_anchor_dominates_data_vertex(any_mode_cfg):
    # queries sampled as subgraphs: each query vertex's embedding dominates
    # its original data vertex's embedding
    from dsmatch.embedding import embed_vertex

    g = small_world(n=100, avg_deg=5.0, alphabet=4, seed=9)
    for q in sample_queries(g, 5, 4, 2.0, seed=31):
        matches = enumerate_matches(g, q)
        assert matches  # subgraph by construction
        embeds = embed_query(q, any_mode_cfg)
        for m in matches:
            for pos, qi in enumerate(q.vertex_order):
                assert dominates(embeds[qi], embed_vertex(g, m[pos], any_mode_cfg))


# -- planning -------------------------------------------------------------------


def test_make_plan_greedy_trace():
    q = QueryGraph({0: 0, 1: 1, 2: 2}, [(0, 1), (1, 2)])  # path a-b-c
    plan = make_plan(q, {0: 5, 1: 1, 2: 3})
    assert plan == (1, 2, 0)  # b first, then the cheaper neighbor c, then a


def test_make_plan_tie_break_is_bfs_like():
    q = QueryGraph({i: 0 for i in range(4)}, [(0, 1), (1, 2), (2, 3)])
    plan = make_plan(q, {i: 2 for i in range(4)})
    assert plan == (0, 1, 2, 3)


def test_make_plan_prefix_connectivity():
    g = small_world(n=60, avg_deg=4.0, alphabet=3, seed=12)
    for q in sample_queries(g, 10, 5, 2.5, seed=3):
        sizes = {qi: (qi * 7919) % 13 for qi in q.vertex_order}
        plan = make_plan(q, sizes)
        assert sorted(plan) == list(q.vertex_order)
        for n in range(1, len(plan)):
            assert any(q.has_edge(plan[i], plan[n]) for i in range(n))


def test_make_plan_seeded_first_pair():
    q = q_triangle()
    plan = make_plan(q, {0: 9, 1: 9, 2: 9}, first=(2, 1))
    assert plan[:2] == (2, 1)
    with pytest.raises(InvalidParams):
        make_plan(QueryGraph({0: 0, 1: 0, 2: 0}, [(0, 1), (1, 2)]), {0: 1, 1: 1, 2: 1}, first=(0, 2))


# -- refinement ------------------------------------------------------------------


def compiled(q, order, graph, cfg):
    """q's JoinPlan for ``order``, and a histogram store over ``graph``."""
    plan = JoinPlan.compile(q, tuple(order), embed_query(q, cfg))
    return plan, NeighborListStore.build(graph, cfg)


def test_join_plan_levels(cfg_zipf):
    q = QueryGraph({5: 1, 7: 2, 9: 3}, [(5, 7), (7, 9)])
    plan, _ = compiled(q, (7, 9, 5), DynamicGraph(), cfg_zipf)
    embeds = embed_query(q, cfg_zipf)
    assert plan.back == ((), (0,), (0,))
    assert plan.labels == (2, 3, 1)
    assert plan.degrees == (2, 1, 1)
    assert plan.embeds == (embeds[7], embeds[9], embeds[5])
    assert plan.norm_pos == (1, 2, 0)


def test_refine_full_seed_returns_it(triangle, cfg_zipf):
    plan, store = compiled(q_triangle(), (0, 1, 2), triangle, cfg_zipf)
    assert refine(plan, triangle, store, [0, 1, 2], 3) == {(0, 1, 2)}


def test_refine_empty_candidates(triangle, cfg_zipf):
    plan, store = compiled(q_triangle(), (0, 1, 2), triangle, cfg_zipf)
    assert refine(plan, triangle, store, [], 0) == set()  # no roots
    # the root admitted, but no neighbor of it carries the level-1 label
    plan, store = compiled(q_triangle((0, 1, 1)), (0, 1, 2), triangle, cfg_zipf)
    assert refine(plan, triangle, store, [], 0, [0]) == set()


def test_refine_matches_seeded_oracle(cfg_zipf):
    g = small_world(n=60, avg_deg=5.0, alphabet=3, seed=14)
    q = sample_queries(g, 1, 4, 2.0, seed=8)[0]
    matches = enumerate_matches(g, q)
    sizes = {qi: 1 for qi in q.vertex_order}
    plan, store = compiled(q, make_plan(q, sizes), g, cfg_zipf)

    # unseeded: refine from every vertex as a root equals the oracle
    assert refine(plan, g, store, [], 0, sorted(g.vertices())) == matches
    # seeded: equals the oracle restricted to mappings extending the seed
    assert matches
    some = sorted(matches)[0]
    pos0 = plan.norm_pos[0]
    seeded = refine(plan, g, store, [some[pos0]], 1)
    assert seeded == {m for m in matches if m[pos0] == some[pos0]}


def test_refine_plan_invariance(cfg_zipf):
    # any valid plan yields the same normalized mapping set
    g = small_world(n=50, avg_deg=5.0, alphabet=3, seed=15)
    q = sample_queries(g, 1, 4, 2.5, seed=9)[0]
    by_label = {}
    for v in g.vertices():
        by_label.setdefault(g.labels[v], []).append(v)
    results = set()
    seen_plans = set()
    for perm in itertools.permutations(q.vertex_order):
        ok = all(
            any(q.has_edge(perm[i], perm[n]) for i in range(n))
            for n in range(1, len(perm))
        )
        if not ok:
            continue
        seen_plans.add(perm)
        plan, store = compiled(q, perm, g, cfg_zipf)
        out = refine(plan, g, store, [], 0, by_label.get(q.labels[perm[0]], ()))
        results.add(frozenset(out))
    assert len(seen_plans) > 1
    assert len(results) == 1
    assert results == {frozenset(enumerate_matches(g, q))}


# -- answer sets -----------------------------------------------------------------


def test_answer_set_inverted_index_covers_edges():
    q = q_triangle((0, 0, 0))
    a = AnswerSet(q)
    assert a.add((1, 2, 3))
    assert not a.add((1, 2, 3))  # set semantics
    assert a.add((2, 1, 3))
    assert a.answers_on_edge((1, 2)) == {(1, 2, 3), (2, 1, 3)}
    a.discard((1, 2, 3))
    assert a.answers_on_edge((1, 2)) == {(2, 1, 3)}
    a.discard((2, 1, 3))
    assert a.answers_on_edge((1, 2)) == frozenset()
    assert len(a) == 0


# -- initial match ----------------------------------------------------------------


def engine_on(g, mode="zipf", m=3, k=5, **kw):
    return MatchEngine(g.copy(), EmbeddingConfig(d=2, mode=mode), m_groups=m, k_cells=k, **kw)


def test_initial_match_forced_single_edge(any_mode_cfg):
    g = make_graph([(0, 1), (1, 2)], {0: 3, 1: 4, 2: 5})
    engine = MatchEngine(g.copy(), any_mode_cfg)
    rq = engine.register("q", q_edge(3, 4))
    assert rq.answers.mappings() == {(0, 1)}


def test_initial_match_triangle_automorphisms(any_mode_cfg):
    tri = make_graph([(0, 1), (1, 2), (0, 2)], {0: 1, 1: 2, 2: 3})
    engine = MatchEngine(tri.copy(), any_mode_cfg)
    rq = engine.register("distinct", q_triangle((1, 2, 3)))
    assert rq.answers.mappings() == {(0, 1, 2)}

    same = make_graph([(0, 1), (1, 2), (0, 2)], {0: 1, 1: 1, 2: 1})
    engine2 = MatchEngine(same.copy(), any_mode_cfg)
    rq2 = engine2.register("auto", q_triangle((1, 1, 1)))
    assert len(rq2.answers) == 6  # all vertex orderings


@pytest.mark.parametrize("mode", ["plain", "base", "zipf"])
def test_initial_match_equals_oracle_many(mode):
    cfg = EmbeddingConfig(d=2, mode=mode)
    for seed in (1, 2, 3):
        g = small_world(n=120, avg_deg=5.0, alphabet=4, seed=seed)
        engine = MatchEngine(g.copy(), cfg)
        for i, q in enumerate(sample_queries(g, 6, 4, 2.0, seed=seed)):
            rq = engine.register(f"q{i}", q)
            assert rq.answers.mappings() == enumerate_matches(g, q)


def test_register_box_tests_each_root_once(any_mode_cfg, monkeypatch):
    # the scan box-tests plan.order[0]'s candidates against its bucket's box
    # table; refine takes them as roots without boxing them again.  Distinct
    # query labels keep every other scan and join level off the roots'
    # (vertex, degree, embedding) keys.
    g = small_world(n=120, avg_deg=5.0, alphabet=3, seed=3)
    engine = MatchEngine(g.copy(), any_mode_cfg)
    store = engine.index.lists
    d = any_mode_cfg.d
    box_tests = Counter()
    admits, box_table = store.admits, store.box_table
    fills = defaultdict(list)  # (vertex, delta) -> its tail bounds, per fill

    def counted(v, delta, q_embed):
        box_tests[v, delta, q_embed] += 1
        return admits(v, delta, q_embed)

    def recorded(vs, delta):
        table = box_table(vs, delta)
        for i, v in enumerate(vs):
            fills[v, delta].append(table[2 * d * i:2 * d * (i + 1)])
        return table

    runs = []
    real_refine = matcher_mod.refine

    def recording(plan, graph, st, seed, depth, roots=()):
        roots = list(roots)
        runs.append((plan, roots))
        return real_refine(plan, graph, st, seed, depth, roots)

    monkeypatch.setattr(store, "admits", counted)
    monkeypatch.setattr(store, "box_table", recorded)
    monkeypatch.setattr(matcher_mod, "refine", recording)
    q = QueryGraph({0: 0, 1: 1, 2: 2}, [(0, 1), (1, 2)])
    rq = engine.register("path", q)
    assert rq.answers.mappings() == enumerate_matches(g, q) != set()
    [(plan, roots)] = runs
    assert roots
    delta, q_embed = plan.degrees[0], plan.embeds[0]
    for r in roots:
        assert box_tests[r, delta, q_embed] == 0
        [bounds] = fills[r, delta]  # one table fill holds r's box at delta
        assert all(
            lo - FILTER_EPS <= x <= hi + FILTER_EPS
            for x, lo, hi in zip(q_embed[d:], bounds[0::2], bounds[1::2])
        )


@pytest.mark.slow
def test_initial_match_oracle_equivalence_50_graphs():
    # 50 random small-world graphs x 20 sampled queries each
    cfg = EmbeddingConfig(d=2, mode="zipf")
    for seed in range(50):
        g = small_world(n=200, avg_deg=5.0, alphabet=5, seed=1000 + seed)
        engine = MatchEngine(g.copy(), cfg)
        queries = sample_queries(g, 10, 4, 2.0, seed=seed) + sample_queries(
            g, 10, 5, 2.5, seed=seed + 7000
        )
        for i, q in enumerate(queries):
            rq = engine.register(f"q{i}", q)
            assert rq.answers.mappings() == enumerate_matches(g, q)


def test_oversized_query_degree_yields_empty(any_mode_cfg):
    g = make_graph([(0, 1), (1, 2)], {0: 0, 1: 0, 2: 0})
    star = QueryGraph({i: 0 for i in range(5)}, [(0, i) for i in range(1, 5)])
    engine = MatchEngine(g.copy(), any_mode_cfg)
    rq = engine.register("big", star)
    assert len(rq.answers) == 0


# -- incremental updates -----------------------------------------------------------


def test_insert_single_edge_delta(any_mode_cfg):
    g = make_graph([(0, 1)], {0: 0, 1: 1, 2: 0, 3: 1})
    engine = MatchEngine(g.copy(), any_mode_cfg)
    engine.register("q", q_edge(0, 1))
    result = engine.process_update(UpdateOp(INSERT, 2, 3))
    assert result.deltas["q"].added == {(2, 3)}
    assert engine.queries["q"].answers.mappings() == {(0, 1), (2, 3)}


def test_insert_irrelevant_labels_empty_delta(any_mode_cfg):
    g = make_graph([(0, 1)], {0: 0, 1: 1, 2: 5, 3: 6})
    engine = MatchEngine(g.copy(), any_mode_cfg)
    engine.register("q", q_edge(0, 1))
    result = engine.process_update(UpdateOp(INSERT, 2, 3))
    assert result.deltas["q"].added == frozenset()


def test_insert_symmetric_labels_needs_both_orientations(any_mode_cfg):
    # A-A query edge: (u, v) and (v, u) seed different mappings
    g = make_graph([], {0: 0, 1: 0})
    engine = MatchEngine(g.copy(), any_mode_cfg)
    engine.register("q", q_edge(0, 0))
    result = engine.process_update(UpdateOp(INSERT, 0, 1))
    assert result.deltas["q"].added == {(0, 1), (1, 0)}


def test_inserts_never_plan_after_registration(monkeypatch, cfg_zipf):
    # join plans are fixed at registration; "path" has a same-label edge
    # (1-1) and shares the label pair (0, 1) with "star"
    g = small_world(n=60, avg_deg=4.0, alphabet=3, seed=83)
    g0, stream = split_stream(g, 0.3, 0.0, seed=5)
    queries = {
        "path": QueryGraph({0: 0, 1: 1, 2: 1}, [(0, 1), (1, 2)]),
        "star": QueryGraph({0: 0, 1: 1, 2: 2}, [(0, 1), (0, 2)]),
    }
    engine = MatchEngine(g0.copy(), cfg_zipf)
    for name, q in queries.items():
        engine.register(name, q)
    plan_calls = []
    real_make_plan = matcher_mod.make_plan
    monkeypatch.setattr(
        matcher_mod, "make_plan", lambda *a, **kw: plan_calls.append(a) or real_make_plan(*a, **kw)
    )
    added = 0
    for op in stream[:40]:
        result = engine.process_update(op)
        assert list(result.deltas) == list(queries)
        for name, q in queries.items():
            added += len(result.deltas[name].added)
            assert engine.queries[name].answers.mappings() == enumerate_matches(engine.graph, q)
    assert added > 0
    assert plan_calls == []


def test_delete_removes_only_hit_answers(any_mode_cfg):
    g = make_graph(
        [(0, 1), (2, 3)], {0: 0, 1: 1, 2: 0, 3: 1, 4: 7, 5: 8}
    )
    engine = MatchEngine(g.copy(), any_mode_cfg)
    engine.register("q", q_edge(0, 1))
    assert len(engine.queries["q"].answers) == 2
    result = engine.process_update(UpdateOp(DELETE, 0, 1))
    assert result.deltas["q"].removed == {(0, 1)}
    assert engine.queries["q"].answers.mappings() == {(2, 3)}
    # an edge whose labels match no query edge never appears in any image
    engine.process_update(UpdateOp(INSERT, 4, 5))
    res2 = engine.process_update(UpdateOp(DELETE, 4, 5))
    assert res2.deltas["q"].removed == frozenset()


def test_delete_removing_nothing_shares_one_empty_delta(cfg_zipf):
    g = make_graph([(0, 1), (4, 5)], {0: 0, 1: 1, 4: 7, 5: 8})
    engine = MatchEngine(g.copy(), cfg_zipf)
    for name, q in (("a", q_edge(0, 1)), ("b", q_edge(1, 0)), ("c", q_edge(7, 8))):
        engine.register(name, q)
    result = engine.process_update(UpdateOp(DELETE, 0, 1))
    assert result.deltas["a"].removed == {(0, 1)}
    assert result.deltas["b"].removed == {(1, 0)}
    unchanged = result.deltas["c"]
    assert not unchanged.added and not unchanged.removed
    result = engine.process_update(UpdateOp(DELETE, 4, 5))
    assert result.deltas["c"].removed == {(4, 5)}
    engine.process_update(UpdateOp(INSERT, 0, 5))
    result = engine.process_update(UpdateOp(DELETE, 0, 5))
    assert list(result.deltas) == ["a", "b", "c"]
    assert all(d is unchanged for d in result.deltas.values())


def test_rejected_op_leaves_engine_untouched(any_mode_cfg):
    g = make_graph([(0, 1), (1, 2)], {0: 0, 1: 1, 2: 0})
    engine = MatchEngine(g.copy(), any_mode_cfg)
    engine.register("q", q_edge(0, 1))
    engine.register("path", QueryGraph({0: 0, 1: 1, 2: 0}, [(0, 1), (1, 2)]))

    def state():
        answers = {name: rq.answers.mappings() for name, rq in engine.queries.items()}
        return dump_graph(engine.graph), engine.index.snapshot(), answers

    before = state()
    rejected = [
        (LabelConflict, UpdateOp(INSERT, 7, 0, label_u=3, label_v=9)),
        (MissingLabel, UpdateOp(INSERT, 8, 9, label_u=3)),
        (DuplicateEdge, UpdateOp(INSERT, 0, 1)),
        (MissingEdge, UpdateOp(DELETE, 0, 2)),
        (MissingEdge, UpdateOp(DELETE, 0, 7)),
        (SelfLoop, UpdateOp(INSERT, 1, 1)),
    ]
    for error, op in rejected:
        with pytest.raises(error):
            engine.process_update(op)
        assert state() == before, op
    # the rejected vertex 7 never existed, so it may arrive with label 0
    result = engine.process_update(UpdateOp(INSERT, 7, 1, label_u=0))
    assert engine.graph.label(7) == 0
    assert result.deltas["q"].added == {(7, 1)}
    assert result.deltas["path"].added == {(0, 1, 7), (2, 1, 7), (7, 1, 0), (7, 1, 2)}


def test_insert_then_delete_net_zero(any_mode_cfg):
    g = small_world(n=80, avg_deg=4.0, alphabet=3, seed=19)
    engine = MatchEngine(g.copy(), any_mode_cfg)
    queries = sample_queries(g, 4, 4, 2.0, seed=11)
    for i, q in enumerate(queries):
        engine.register(f"q{i}", q)
    before = {n: rq.answers.mappings() for n, rq in engine.queries.items()}
    u, v = 0, 40
    assert not engine.graph.has_edge(u, v)
    r1 = engine.process_update(UpdateOp(INSERT, u, v))
    r2 = engine.process_update(UpdateOp(DELETE, u, v))
    for name in engine.queries:
        assert r1.deltas[name].added == r2.deltas[name].removed
        assert engine.queries[name].answers.mappings() == before[name]


def test_zero_registered_queries_graph_still_maintained(any_mode_cfg):
    g = make_graph([(0, 1)], {0: 0, 1: 1})
    engine = MatchEngine(g.copy(), any_mode_cfg)
    result = engine.process_update(UpdateOp(INSERT, 0, 2, label_v=4))
    assert result.deltas == {}
    assert engine.graph.has_edge(0, 2)
    rebuilt = type(engine.index).build(
        engine.graph, engine.groups, any_mode_cfg, engine.index.k_cells,
        domain=engine.index.domain,
    )
    assert engine.index.snapshot() == rebuilt.snapshot()


def test_deletion_modes_agree(any_mode_cfg):
    # the edge-to-answers index removes exactly what a scan over the
    # pre-delete answers' edge images finds
    g = small_world(n=80, avg_deg=5.0, alphabet=3, seed=23)
    queries = sample_queries(g, 3, 4, 2.0, seed=13)
    engine = MatchEngine(g.copy(), any_mode_cfg)
    for i, q in enumerate(queries):
        engine.register(f"q{i}", q)
    _, stream = split_stream(g, 0.0, 0.2, seed=5)
    removed_total = 0
    for op in stream:
        edge = op.edge()
        want = {
            name: {m for m in rq.answers if edge in set(rq.answers.edge_images(m))}
            for name, rq in engine.queries.items()
        }
        result = engine.process_update(op)
        assert result.deltas.keys() == want.keys()
        for name, delta in result.deltas.items():
            assert delta.removed == want[name]
            removed_total += len(delta.removed)
    assert removed_total > 0


def test_deletes_compute_no_boxes(any_mode_cfg, monkeypatch):
    # a delete edits two histograms and the answer index and computes no box
    g = small_world(n=80, avg_deg=5.0, alphabet=3, seed=23)
    engine = MatchEngine(g.copy(), any_mode_cfg)
    for i, q in enumerate(sample_queries(g, 3, 4, 2.0, seed=13)):
        engine.register(f"q{i}", q)
    calls = []
    mbr, admits = NeighborListStore.mbr, NeighborListStore.admits

    def counted(self, v, delta):
        calls.append((v, delta))
        return mbr(self, v, delta)

    def counted_admits(self, v, delta, q_embed):
        calls.append((v, delta))
        return admits(self, v, delta, q_embed)

    monkeypatch.setattr(NeighborListStore, "mbr", counted)
    monkeypatch.setattr(NeighborListStore, "admits", counted_admits)
    _, stream = split_stream(g, 0.0, 0.2, seed=5)
    removed = 0
    for op in stream:
        assert op.kind == DELETE
        removed += sum(len(d.removed) for d in engine.process_update(op).deltas.values())
    assert removed > 0
    assert calls == []


def test_full_stream_exactness_mixed_updates(any_mode_cfg):
    # cumulative answers equal per-snapshot recompute over a mixed stream
    g = small_world(n=70, avg_deg=4.0, alphabet=3, seed=29)
    engine = MatchEngine(g.copy(), any_mode_cfg)
    queries = sample_queries(g, 4, 4, 2.0, seed=17)
    for i, q in enumerate(queries):
        engine.register(f"q{i}", q)
    for op in random_update_stream(g, 120, seed=41, alphabet=3):
        result = engine.process_update(op)
        for i, q in enumerate(queries):
            rq = engine.queries[f"q{i}"]
            got = rq.answers.mappings()
            assert got == enumerate_matches(engine.graph, q)
            if op.kind == DELETE:
                # every removed mapping contained the deleted edge; no
                # surviving mapping contains it
                key = op.edge()
                for m in result.deltas[f"q{i}"].removed:
                    images = set()
                    for ia, ib in q.edge_index_pairs:
                        a, b = m[ia], m[ib]
                        images.add((a, b) if a < b else (b, a))
                    assert key in images
                assert not rq.answers.answers_on_edge(key)


def test_mapping_validity_independent_check(any_mode_cfg):
    g = small_world(n=80, avg_deg=5.0, alphabet=4, seed=31)
    engine = MatchEngine(g.copy(), any_mode_cfg)
    queries = sample_queries(g, 4, 5, 2.5, seed=19)
    for i, q in enumerate(queries):
        engine.register(f"q{i}", q)
    for op in random_update_stream(g, 60, seed=43, alphabet=4):
        engine.process_update(op)
    for i, q in enumerate(queries):
        for m in engine.queries[f"q{i}"].answers.mappings():
            assert len(set(m)) == len(m)  # injective
            for pos, qi in enumerate(q.vertex_order):
                assert engine.graph.labels[m[pos]] == q.labels[qi]
            for ia, ib in q.edge_index_pairs:
                assert engine.graph.has_edge(m[ia], m[ib])


def test_insertion_delta_contains_inserted_edge(any_mode_cfg):
    g = small_world(n=80, avg_deg=4.0, alphabet=3, seed=37)
    engine = MatchEngine(g.copy(), any_mode_cfg)
    queries = sample_queries(g, 3, 4, 2.0, seed=23)
    for i, q in enumerate(queries):
        engine.register(f"q{i}", q)
    for op in random_update_stream(g, 80, seed=47, alphabet=3):
        result = engine.process_update(op)
        if op.kind != INSERT:
            continue
        key = op.edge()
        for i, q in enumerate(queries):
            for m in result.deltas[f"q{i}"].added:
                images = set()
                for ia, ib in q.edge_index_pairs:
                    a, b = m[ia], m[ib]
                    images.add((a, b) if a < b else (b, a))
                assert key in images


def test_update_timings_present(any_mode_cfg):
    g = make_graph([(0, 1)], {0: 0, 1: 1, 2: 0, 3: 1})
    engine = MatchEngine(g.copy(), any_mode_cfg)
    engine.register("q", q_edge(0, 1))
    stages = ["graph", "embedding_update", "filtering", "refinement", "answers_index"]
    for op in (UpdateOp(INSERT, 2, 3), UpdateOp(DELETE, 0, 1)):
        result = engine.process_update(op)
        assert sorted(result.timings) == sorted(stages), op
        assert all(seconds >= 0.0 for seconds in result.timings.values())


def test_delete_probes_only_queries_filed_under_its_label_pair(cfg_zipf, monkeypatch):
    # "ab" is filed under (0, 1) twice, once per query edge; "cd" never is
    g = make_graph([(0, 1), (1, 2), (3, 4)], {0: 0, 1: 1, 2: 0, 3: 2, 4: 3})
    engine = MatchEngine(g.copy(), cfg_zipf)
    engine.register("ab", QueryGraph({0: 0, 1: 1, 2: 0}, [(0, 1), (1, 2)]))
    engine.register("cd", q_edge(2, 3))
    probed = []
    answers_on_edge = AnswerSet.answers_on_edge

    def counted(self, key):
        probed.append(self.query)
        return answers_on_edge(self, key)

    monkeypatch.setattr(AnswerSet, "answers_on_edge", counted)
    result = engine.process_update(UpdateOp(DELETE, 0, 1))
    assert probed == [engine.queries["ab"].query]
    assert result.deltas["ab"].removed == {(0, 1, 2), (2, 1, 0)}
    assert list(result.deltas) == ["ab", "cd"]


def test_answer_output_format():
    q = q_edge(0, 1)
    text = format_answers(q, [(5, 7), (1, 2)])
    assert text.splitlines() == ["match q0->1 q1->2", "match q0->5 q1->7"]


def test_engine_bootstraps_from_empty_graph(any_mode_cfg):
    # degree groups and grid domain freeze over an edgeless start; answers
    # must still track exactly as vertices and edges stream in
    g = DynamicGraph()
    engine = MatchEngine(g.copy(), any_mode_cfg)
    q = q_triangle((0, 1, 2))
    engine.register("q", q)
    assert len(engine.queries["q"].answers) == 0
    ops = [
        UpdateOp(INSERT, 0, 1, 0, 1),
        UpdateOp(INSERT, 1, 2, 1, 2),
        UpdateOp(INSERT, 0, 2, 0, 2),
        UpdateOp(INSERT, 2, 3, 2, 0),
    ]
    for op in ops:
        engine.process_update(op)
        assert engine.queries["q"].answers.mappings() == enumerate_matches(
            engine.graph, q
        )
    assert engine.queries["q"].answers.mappings() == {(0, 1, 2)}


@pytest.mark.parametrize(
    "cfg_kw,engine_kw",
    [
        ({"d": 1, "mode": "zipf"}, {}),
        ({"d": 3, "mode": "base"}, {}),
        ({"d": 2, "mode": "zipf", "alpha": 10.0, "beta": 100.0}, {}),  # ratio 10
        ({"d": 2, "mode": "zipf"}, {"m_groups": 1}),
        ({"d": 2, "mode": "plain"}, {"k_cells": 1}),
        ({"d": 2, "mode": "base"}, {"m_groups": 8, "k_cells": 10}),
    ],
)
def test_exactness_across_parameter_space(cfg_kw, engine_kw):
    # sweepable corners: single cell, single group, more groups than
    # distinct degrees, tiny/large arity, minimum relocation ratio
    cfg = EmbeddingConfig(**cfg_kw)
    g = small_world(n=60, avg_deg=4.0, alphabet=3, seed=61)
    engine = MatchEngine(g.copy(), cfg, **engine_kw)
    queries = sample_queries(g, 3, 4, 2.0, seed=37)
    for i, q in enumerate(queries):
        rq = engine.register(f"q{i}", q)
        assert rq.answers.mappings() == enumerate_matches(g, q)
    for op in random_update_stream(g, 50, seed=53, alphabet=3):
        engine.process_update(op)
        for i, q in enumerate(queries):
            got = engine.queries[f"q{i}"].answers.mappings()
            assert got == enumerate_matches(engine.graph, q)


def test_delete_everything_then_rebuild(any_mode_cfg):
    g = make_graph([(0, 1), (1, 2), (0, 2)], {0: 0, 1: 1, 2: 2})
    engine = MatchEngine(g.copy(), any_mode_cfg)
    q = q_triangle((0, 1, 2))
    engine.register("q", q)
    assert len(engine.queries["q"].answers) == 1
    for u, v in [(0, 1), (1, 2), (0, 2)]:
        engine.process_update(UpdateOp(DELETE, u, v))
    assert len(engine.queries["q"].answers) == 0
    for u, v in [(0, 1), (1, 2), (0, 2)]:
        engine.process_update(UpdateOp(INSERT, u, v))
    assert engine.queries["q"].answers.mappings() == {(0, 1, 2)}


def test_register_mid_stream(any_mode_cfg):
    # a query registered after the stream has advanced starts from an
    # exact initial match on the current snapshot and stays exact
    g = small_world(n=70, avg_deg=4.0, alphabet=3, seed=73)
    engine = MatchEngine(g.copy(), any_mode_cfg)
    ops = random_update_stream(g, 60, seed=59, alphabet=3)
    q1, q2 = sample_queries(g, 2, 4, 2.0, seed=61)
    engine.register("early", q1)
    for op in ops[:30]:
        engine.process_update(op)
    rq2 = engine.register("late", q2)
    assert rq2.answers.mappings() == enumerate_matches(engine.graph, q2)
    # its scans read grids rebuilt over the current snapshot
    rebuilt = SynopsisIndex.build(
        engine.graph, engine.groups, any_mode_cfg, engine.index.k_cells,
        domain=engine.index.domain,
    )
    for qi in q2.vertex_order:
        args = (rq2.embeds[qi], q2.degree(qi), q2.labels[qi])
        want, want_stats = rebuilt.scan_for_degree(*args)
        assert sorted(engine.index.scan_for_degree(*args)[0]) == sorted(want)
        assert rq2.scan_stats[qi] == want_stats
    for op in ops[30:]:
        engine.process_update(op)
        for name, q in (("early", q1), ("late", q2)):
            got = engine.queries[name].answers.mappings()
            assert got == enumerate_matches(engine.graph, q)
