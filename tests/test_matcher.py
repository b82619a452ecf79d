import gc
import itertools
import time
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsmatch.matcher as matcher_mod
import dsmatch.synopsis as synopsis_mod
from dsmatch.embedding import EmbeddingConfig, dominates, embed_vertex
from dsmatch.errors import (
    DsmatchError,
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
    UNCHANGED,
    AnswerSet,
    JoinPlan,
    MatchEngine,
    QueryGraph,
    embed_query,
    format_answers,
    label_needs,
    make_plan,
    refine,
)
from dsmatch.oracle import enumerate_matches
from dsmatch.rng import Rng
from dsmatch.synopsis import (
    GridSynopsis,
    LabelColumns,
    NeighborListStore,
    ScanStats,
    SynopsisIndex,
)

from conftest import make_graph, small_world, unpack
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


@pytest.mark.parametrize("labels, edges", [
    ({0: 1, "x": 2}, [(0, "x")]),  # once a bare TypeError from sorted
    ({0.0: 1, 1: 2}, [(0.0, 1)]),
    ({True: 1, 2: 1}, [(True, 2)]),
    ({0: True, 1: 1}, [(0, 1)]),  # once matched label-1 data vertices
    ({0: 1.5, 1: 1}, [(0, 1)]),  # once registered with no answers
    ({0: None, 1: 1}, [(0, 1)]),
    ({0: "1", 1: 1}, [(0, 1)]),
    ({0: 1, 1: 1}, [(0, 1.0)]),  # 1.0 == 1, a labeled id, but no int
    ({0: 1, 1: 1}, [(0, 1), (False, 1)]),
    ({0: 1, 1: 1}, [(0, 1, 2)]),  # once a bare ValueError from unpacking
    ({0: 1, 1: 1}, [(0,)]),
    ({0: 1, 1: 1}, [5]),  # once a bare TypeError from iterating the edge
], ids=["str-id", "float-id", "bool-id", "bool-label", "float-label", "none-label",
        "str-label", "float-edge-id", "bool-edge-id", "triple-edge", "single-edge", "int-edge"])
def test_query_rejects_an_id_or_label_that_is_not_an_int(labels, edges):
    # the graph's rule for a new vertex: ids and labels are ints, no bool;
    # and an edge is a pair of them
    with pytest.raises(InvalidParams, match="must be ints|not an int|not a pair"):
        QueryGraph(labels, edges)


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
    # path 0-1-2-3 with 4 hanging off 1, pinned on the edge 1-2
    q = QueryGraph({i: i for i in range(5)}, [(0, 1), (1, 2), (2, 3), (1, 4)])
    plan = make_plan(q, {0: 5, 1: 1, 2: 3, 3: 0, 4: 2}, (1, 2))
    # then the cheapest neighbor of the prefix each time: 3 (via 2), 4, 0
    assert plan == (1, 2, 3, 4, 0)


def test_make_plan_tie_break_is_bfs_like():
    q = QueryGraph({i: 0 for i in range(5)}, [(0, 1), (1, 2), (2, 3), (3, 4)])
    sizes = {i: 2 for i in range(5)}
    assert make_plan(q, sizes, (0, 1)) == (0, 1, 2, 3, 4)
    # equal sizes: the smallest id on the frontier of the prefix goes next
    assert make_plan(q, sizes, (2, 3)) == (2, 3, 1, 0, 4)


def test_make_plan_prefix_connectivity():
    g = small_world(n=60, avg_deg=4.0, alphabet=3, seed=12)
    for q in sample_queries(g, 10, 5, 2.5, seed=3):
        sizes = {qi: (qi * 7919) % 13 for qi in q.vertex_order}
        for qa, qb in q.edges:
            for first in ((qa, qb), (qb, qa)):
                plan = make_plan(q, sizes, first)
                assert plan[:2] == first
                assert sorted(plan) == list(q.vertex_order)
                for n in range(1, len(plan)):
                    assert any(q.has_edge(plan[i], plan[n]) for i in range(n))


def reference_plan(q, cand_sizes, first):
    """The plan of the frontier rebuilt at every step from all query
    vertices, as ``make_plan`` once did."""
    plan = list(first)
    chosen = set(plan)
    while len(plan) < len(q.vertex_order):
        frontier = [
            v
            for v in q.vertex_order
            if v not in chosen and any(n in chosen for n in q.adj[v])
        ]
        nxt = min(frontier, key=lambda v: (cand_sizes[v], v))
        plan.append(nxt)
        chosen.add(nxt)
    return tuple(plan)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_make_plan_kept_frontier_equals_the_rebuilt_one(data):
    # random connected queries (a random tree plus extra edges) whose
    # candidate sizes, drawn from {0, 1, 2}, tie often: every plan, from
    # either orientation of every edge, equals the reference's
    n = data.draw(st.integers(2, 9), label="n")
    edges = {(data.draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges |= set(data.draw(st.lists(extra, max_size=2 * n), label="extra"))
    q = QueryGraph({i: 0 for i in range(n)}, edges)
    sizes = {i: data.draw(st.integers(0, 2)) for i in range(n)}
    for qa, qb in q.edges:
        for first in ((qa, qb), (qb, qa)):
            assert make_plan(q, sizes, first) == reference_plan(q, sizes, first)


def test_make_plan_seeded_first_pair():
    q = q_triangle()
    plan = make_plan(q, {0: 9, 1: 9, 2: 9}, first=(2, 1))
    assert plan[:2] == (2, 1)
    with pytest.raises(InvalidParams):
        make_plan(QueryGraph({0: 0, 1: 0, 2: 0}, [(0, 1), (1, 2)]), {0: 1, 1: 1, 2: 1}, first=(0, 2))


# -- refinement ------------------------------------------------------------------


def compiled(q, order, graph, cfg):
    """q's JoinPlan for ``order``, and a histogram store over ``graph``."""
    plan = JoinPlan.compile(q, tuple(order), label_needs(q))
    return plan, NeighborListStore(graph, cfg)


def test_join_plan_levels(cfg_zipf):
    # each level holds its vertex's neighbor labels with their counts,
    # sorted by label, the very tuples label_needs built
    q = QueryGraph({5: 1, 7: 2, 9: 3, 11: 1}, [(5, 7), (7, 9), (7, 11)])
    needs = label_needs(q)
    plan = JoinPlan.compile(q, (7, 9, 5, 11), needs)
    assert plan.back == ((), (0,), (0,), (0,))
    assert plan.labels == (2, 3, 1, 1)
    assert plan.needs == (((1, 2), (3, 1)), ((2, 1),), ((2, 1),), ((2, 1),))
    assert all(plan.needs[n] is needs[qn] for n, qn in enumerate(plan.order))
    assert plan.norm_pos == (1, 2, 0, 3)


def probed_back(q, order):
    """``JoinPlan.back`` by a ``has_edge`` probe per pair of levels, as
    ``JoinPlan.compile`` once built it."""
    return tuple(
        tuple(i for i in range(n) if q.has_edge(order[i], qn)) for n, qn in enumerate(order)
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_join_plan_back_levels_equal_the_pairwise_probes(data):
    # random connected queries (a random tree plus extra edges) on ids
    # spread apart, so a set's order is not the ids': for any order of
    # the vertices and for make_plan's orders, each level's back-levels
    # equal the probes', ascending, and the per-level reads equal the
    # vertex's own
    n = data.draw(st.integers(2, 9), label="n")
    edges = {(data.draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges |= set(data.draw(st.lists(extra, max_size=2 * n), label="extra"))
    ids = data.draw(st.lists(st.integers(0, 99), min_size=n, max_size=n, unique=True), label="ids")
    q = QueryGraph({ids[i]: data.draw(st.integers(0, 2)) for i in range(n)},
                   [(ids[a], ids[b]) for a, b in edges])
    needs = label_needs(q)
    sizes = {qi: data.draw(st.integers(0, 2)) for qi in q.vertex_order}
    orders = [tuple(data.draw(st.permutations(q.vertex_order), label="order"))]
    orders += [make_plan(q, sizes, first) for e in q.edges for first in (e, e[::-1])]
    for order in orders:
        plan = JoinPlan.compile(q, order, needs)
        assert plan.back == probed_back(q, order)
        assert plan.labels == tuple(q.labels[qn] for qn in order)
        assert plan.needs == tuple(needs[qn] for qn in order)
        assert plan.norm_pos == tuple(q.vertex_order.index(qn) for qn in order)


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
    plan, store = compiled(q, make_plan(q, sizes, q.edges[0]), g, cfg_zipf)

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


def test_discarding_an_absent_answer_changes_nothing():
    # absent images share every edge, some edges or none with stored ones
    q = q_triangle((0, 0, 0))
    a = AnswerSet(q)
    for m in ((1, 2, 3), (2, 3, 4)):
        a.add(m)
    absent = [(3, 2, 1), (1, 2, 4), (7, 8, 9)]
    edges = {key for m in [*a, *absent] for key in a.edge_images(m)}
    before = (a.mappings(), {key: a.answers_on_edge(key) for key in edges})
    for m in absent:
        a.discard(m)
        assert (a.mappings(), {key: a.answers_on_edge(key) for key in edges}) == before, m


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


def spy_on_boxes(monkeypatch):
    """Count, by name and vertex, the calls of the store's capped-sum and
    box reads."""
    calls = Counter()
    for name in ("capped_sums", "mbr"):
        real = getattr(NeighborListStore, name)

        def spy(self, v, *args, _real=real, _name=name):
            calls[_name, v] += 1
            return _real(self, v, *args)

        monkeypatch.setattr(NeighborListStore, name, spy)
    return calls


def test_register_count_tests_each_root_and_reads_no_box(any_mode_cfg, monkeypatch):
    # the scan count-tests every vertex of plan.order[0]'s label against
    # the label's count columns, so the join's roots are exactly the
    # need-less scan's box candidates that cover the level's label counts,
    # fewer than them; refine count-tests each root again, reading its
    # histogram once, as no later level draws the centre's label.  Neither
    # the scans nor the join compute a capped sum or a box.  The leaves'
    # labels differ from the centre's, which keeps their scans off the
    # roots' label.
    g = small_world(n=120, avg_deg=5.0, alphabet=3, seed=3)
    engine = MatchEngine(g.copy(), any_mode_cfg)
    store = engine.index.lists
    joining = [False]

    class Recording(dict):
        """A mapping that counts, in ``reads``, the join's reads of each key."""

        def __getitem__(self, v):
            if joining[0]:
                self.reads[v] += 1
            return super().__getitem__(v)

    hist = Recording(store.hist)
    hist.reads = Counter()
    runs = []
    real_refine = matcher_mod.refine

    def recording(plan, graph, st, seed, depth, roots=()):
        roots = list(roots)
        runs.append((plan, roots))
        joining[0] = True
        try:
            return real_refine(plan, graph, st, seed, depth, roots)
        finally:
            joining[0] = False

    monkeypatch.setattr(store, "hist", hist)
    monkeypatch.setattr(matcher_mod, "refine", recording)
    calls = spy_on_boxes(monkeypatch)
    q = QueryGraph({0: 0, 1: 1, 2: 2, 3: 1}, [(0, 1), (0, 2), (0, 3)])
    rq = engine.register("star", q)
    assert rq.answers.mappings() == enumerate_matches(g, q) != set()
    assert calls == Counter()
    [(plan, roots)] = runs
    assert plan.order[0] == 0
    assert all(hist.reads[r] == 1 for r in roots)
    boxed, _ = engine.index.scan_for_degree(rq.embeds[0], q.degree(0), q.labels[0])
    assert sorted(roots) == sorted(v for v in boxed if covers(g, v, plan.needs[0]))
    assert 0 < len(roots) < len(boxed)
    # the need scan examines the whole label and prunes by count alone
    size = sum(label == q.labels[0] for label in g.labels.values())
    assert rq.scan_stats[0] == ScanStats(
        examined=size, pruned_box=size - len(roots), survivors=len(roots))


def test_register_fills_each_count_column_once(any_mode_cfg, monkeypatch):
    # query vertices of label 0 at degrees 1 to 4, whose neighbors all
    # carry label 0: the first scan fills all of label 0's count columns
    # from the histograms, the scans at the other degrees read them, and
    # registration fills no other label, builds no grid and computes no
    # capped sum or box.  The label holds its vertices in graph order and
    # one column per label their histograms hold, equal to their neighbor
    # counts of that label, in 1-byte fields, as no degree reaches 128
    g = small_world(n=120, avg_deg=5.0, alphabet=3, seed=3)
    engine = MatchEngine(g.copy(), any_mode_cfg)
    index = engine.index
    q = QueryGraph({i: 0 for i in range(5)}, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3)])
    assert sorted(q.degree(u) for u in q.vertex_order) == [1, 2, 2, 3, 4]
    fills = Counter()  # label -> fills
    reads = defaultdict(set)  # label -> query degrees read at
    degree = [0]
    scan_for_degree, fill = index.scan_for_degree, LabelColumns.fill

    def scan(q_embed, q_degree, *args):
        degree[0] = q_degree
        return scan_for_degree(q_embed, q_degree, *args)

    def read(columns, label):
        fills[label] += label not in columns.columns
        reads[label].add(degree[0])
        return fill(columns, label)

    monkeypatch.setattr(index, "scan_for_degree", scan)
    monkeypatch.setattr(LabelColumns, "fill", read)
    calls = spy_on_boxes(monkeypatch)
    rq = engine.register("degrees", q)
    assert rq.answers.mappings() == enumerate_matches(g, q)
    assert calls == Counter() and index._grids is None
    assert fills == {0: 1} and reads == {0: {1, 2, 3, 4}}
    columns = index._columns
    vs = columns.members[0]
    assert vs == [v for v in g.vertices() if g.labels[v] == 0]
    want = {lbl: [sum(g.labels[u] == lbl for u in g.neighbors(v)) for v in vs]
            for lbl in {g.labels[u] for v in vs for u in g.neighbors(v)}}
    w, cols = columns.columns[0]
    assert w == 1 and max(map(g.degree, vs)) < 128
    got = {lbl: list(unpack(col, len(vs), w)) for lbl, col in cols.items()}
    assert list(columns.columns) == [0] and got == want


def test_register_reads_each_label_histogram_once(any_mode_cfg, monkeypatch):
    # the label-0 query vertices 0 and 3 need neighbors of labels 0, 1 and
    # 2, so label 0's columns are asked for six times; its first need fills
    # them all in one pass, reading each label-0 vertex's histogram once,
    # and the later needs read no histogram.  Labels 1 and 2 are filled
    # alike, so the fills read each vertex of a query label once
    g = small_world(n=120, avg_deg=5.0, alphabet=3, seed=3)
    engine = MatchEngine(g.copy(), any_mode_cfg)
    store = engine.index.lists
    q = QueryGraph({0: 0, 1: 1, 2: 2, 3: 0}, [(0, 1), (0, 2), (0, 3), (3, 1), (3, 2)])
    assert label_needs(q)[0] == label_needs(q)[3] == ((0, 1), (1, 1), (2, 1))
    filling = [False]  # whether a fill is running

    class Recording(dict):
        """A mapping that counts, in ``reads``, the fills' reads of each key."""

        def __getitem__(self, v):
            if filling[0]:
                self.reads[v] += 1
            return super().__getitem__(v)

    hist = Recording(store.hist)
    hist.reads = Counter()
    asked = Counter()  # label -> fills asked for
    fill = LabelColumns.fill

    def read(columns, label):
        asked[label] += 1
        filling[0] = True
        try:
            return fill(columns, label)
        finally:
            filling[0] = False

    monkeypatch.setattr(store, "hist", hist)
    monkeypatch.setattr(LabelColumns, "fill", read)
    rq = engine.register("two-needs", q)
    assert rq.answers.mappings() == enumerate_matches(g, q) != set()
    assert asked == {0: 2, 1: 1, 2: 1}
    assert hist.reads == Counter(g.vertices())  # one read per vertex of labels 0, 1 and 2


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
    assert result.deltas == {}
    assert result.deltas.get("q", UNCHANGED) is UNCHANGED


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
        before = {name: engine.queries[name].answers.mappings() for name in queries}
        result = engine.process_update(op)
        assert list(result.deltas) == [
            name for name in queries if engine.queries[name].answers.mappings() != before[name]
        ]
        for name, q in queries.items():
            added += len(result.deltas.get(name, UNCHANGED).added)
            assert engine.queries[name].answers.mappings() == enumerate_matches(engine.graph, q)
    assert added > 0
    assert plan_calls == []


def test_register_files_one_plan_per_query_edge(monkeypatch, cfg_zipf):
    # one plan object per query edge, read by both orientations of its
    # label pair, each entry carrying the label counts of the plan's level
    # its endpoint takes; every plan of a query shares one count tuple per
    # query vertex; the registration join runs the greedy order from the
    # cheapest vertex, which is one of those plans
    g = small_world(n=80, avg_deg=5.0, alphabet=3, seed=21)
    engine = MatchEngine(g.copy(), cfg_zipf)
    root_plans = []
    real_refine = matcher_mod.refine

    def recording_refine(plan, graph, store, seed, depth, roots=()):
        if depth == 0:
            root_plans.append(plan)
        return real_refine(plan, graph, store, seed, depth, roots)

    monkeypatch.setattr(matcher_mod, "refine", recording_refine)
    queries = sample_queries(g, 8, 5, 2.5, seed=4)
    assert any(len(q.edges) >= len(q) for q in queries)  # some have a cycle
    for i, q in enumerate(queries):
        name = f"q{i}"
        rq = engine.register(name, q)
        embeds = embed_query(q, cfg_zipf)
        needs = label_needs(q)
        shared = {}  # query vertex -> the one count tuple its plans hold
        sizes = {
            qi: len(list(engine.index.scan_for_degree(
                embeds[qi], q.degree(qi), q.labels[qi], needs[qi])[0]))
            for qi in q.vertex_order
        }
        plans, filed = {}, defaultdict(list)
        for key, pair in engine.pairs.items():
            for owner, plan, flip, need_u, need_v in pair.seeds:
                if owner != name:
                    continue
                assert pair.queries[name] is rq
                plans[id(plan)] = plan
                filed[id(plan)].append((key, flip))
                # the flip is resolved at filing: u takes level 1 if flipped
                lu, lv = (1, 0) if flip else (0, 1)
                assert key == (plan.labels[lu], plan.labels[lv])
                assert need_u is plan.needs[lu] and need_v is plan.needs[lv]
        assert len(plans) == len(q.edges)
        for plan in plans.values():
            for qn, need in zip(plan.order, plan.needs):
                assert need == needs[qn] and shared.setdefault(qn, need) is need
        assert sorted(tuple(sorted(p.order[:2])) for p in plans.values()) == list(q.edges)
        for pid, plan in plans.items():
            qa, qb = plan.order[:2]
            assert (sizes[qa], qa) < (sizes[qb], qb)
            la, lb = q.labels[qa], q.labels[qb]
            assert sorted(filed[pid]) == sorted([((la, lb), False), ((lb, la), True)])

        ref = [min(q.vertex_order, key=lambda v: (sizes[v], v))]
        while len(ref) < len(q):
            frontier = [v for v in q.vertex_order if v not in ref and q.adj[v] & set(ref)]
            ref.append(min(frontier, key=lambda v: (sizes[v], v)))
        assert root_plans[-1].order == tuple(ref)
        assert id(root_plans[-1]) in plans
    assert len(root_plans) == len(queries)


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
    assert res2.deltas == {}


def test_delete_removing_nothing_shares_one_empty_delta(cfg_zipf):
    g = make_graph([(0, 1), (4, 5)], {0: 0, 1: 1, 4: 7, 5: 8})
    engine = MatchEngine(g.copy(), cfg_zipf)
    for name, q in (("a", q_edge(0, 1)), ("b", q_edge(1, 0)), ("c", q_edge(7, 8))):
        engine.register(name, q)
    # a query the op left alone has no delta; readers take the shared
    # empty one in its place
    assert not UNCHANGED.added and not UNCHANGED.removed
    result = engine.process_update(UpdateOp(DELETE, 0, 1))
    assert list(result.deltas) == ["a", "b"]
    assert result.deltas["a"].removed == {(0, 1)}
    assert result.deltas["b"].removed == {(1, 0)}
    assert result.deltas.get("c", UNCHANGED) is UNCHANGED
    result = engine.process_update(UpdateOp(DELETE, 4, 5))
    assert list(result.deltas) == ["c"]
    assert result.deltas["c"].removed == {(4, 5)}
    engine.process_update(UpdateOp(INSERT, 0, 5))
    result = engine.process_update(UpdateOp(DELETE, 0, 5))
    assert result.deltas == {}
    assert all(result.deltas.get(name, UNCHANGED) is UNCHANGED for name in "abc")


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


@pytest.mark.parametrize(
    "op",
    [
        UpdateOp(INSERT, 1, 7, label_v=1.5),
        UpdateOp(INSERT, 1, 7, label_v="x"),
        UpdateOp(INSERT, 1, 7, label_v=True),
        UpdateOp(INSERT, 1, "a", label_v=0),
        UpdateOp(INSERT, "a", 1, label_u=0),
        UpdateOp(INSERT, 1, 7.0, label_v=0),
    ],
    ids=["float-label", "str-label", "bool-label", "str-id", "str-id-first", "float-id"],
)
def test_new_vertex_of_a_non_int_id_or_label_leaves_engine_untouched(cfg_zipf, op):
    # such an insert once changed the graph and then raised part-way: in
    # the label vector (the histograms kept no count for the new edge) or
    # in the answer set's edge keys (after one answer was added); the
    # delete of that edge then removed it and raised in ``op.edge()``.
    # The op and that delete now raise before any mutation, and the next
    # valid op applies
    g = make_graph([(0, 1), (1, 2)], {0: 0, 1: 1, 2: 0})
    engine = MatchEngine(g.copy(), cfg_zipf)
    engine.register("q", q_edge(0, 1))
    engine.register("path", QueryGraph({0: 0, 1: 1, 2: 0}, [(0, 1), (1, 2)]))

    def state():
        hist = {v: dict(h) for v, h in engine.index.lists.hist.items()}
        answers = {name: rq.answers.mappings() for name, rq in engine.queries.items()}
        return dump_graph(engine.graph), hist, set(engine.index.lists.frames), answers

    before = state()
    with pytest.raises(DsmatchError):
        engine.process_update(op)
    assert state() == before
    with pytest.raises(DsmatchError):
        engine.process_update(UpdateOp(DELETE, op.u, op.v))
    assert state() == before
    result = engine.process_update(UpdateOp(INSERT, 7, 1, label_u=0))
    assert result.deltas["q"].added == {(7, 1)}
    for rq in engine.queries.values():
        assert rq.answers.mappings() == enumerate_matches(engine.graph, rq.query)


@pytest.mark.parametrize(
    "op",
    [
        UpdateOp(INSERT, 0, 1.0),
        UpdateOp(INSERT, 1.0, 0),
        UpdateOp(INSERT, True, 0),
        UpdateOp(INSERT, 2, False),
        UpdateOp(INSERT, True, 3, label_v=0),
        UpdateOp(INSERT, 3, 2.0, label_u=1),
    ],
    ids=["float", "float-first", "true", "false", "true-to-new", "new-to-float"],
)
def test_insert_by_an_equal_non_int_id_leaves_engine_untouched(cfg_zipf, op):
    # 1.0 and True equal vertex 1, and False vertex 0: such an insert was
    # once accepted, and left the float or bool in an adjacency set and an
    # answer, in a graph that its own dump could not load.  Now it raises
    # before any mutation, and the same edge by int ids applies
    g = make_graph([(1, 2)], {0: 0, 1: 1, 2: 0})
    engine = MatchEngine(g.copy(), cfg_zipf)
    engine.register("q", q_edge(0, 1))
    engine.register("path", QueryGraph({0: 0, 1: 1, 2: 0}, [(0, 1), (1, 2)]))

    def state():
        hist = {v: dict(h) for v, h in engine.index.lists.hist.items()}
        answers = {name: rq.answers.mappings() for name, rq in engine.queries.items()}
        return dump_graph(engine.graph), hist, answers

    before = state()
    with pytest.raises(InvalidParams, match="must be ints"):
        engine.process_update(op)
    assert state() == before
    engine.process_update(UpdateOp(INSERT, int(op.u), int(op.v), op.label_u, op.label_v))
    assert all(type(n) is int for nbrs in engine.graph.adj.values() for n in nbrs)
    for rq in engine.queries.values():
        assert rq.answers.mappings() == enumerate_matches(engine.graph, rq.query)


def test_duplicate_registration_leaves_engine_untouched(cfg_zipf):
    g = make_graph([(0, 1), (1, 2)], {0: 0, 1: 1, 2: 0})
    engine = MatchEngine(g.copy(), cfg_zipf)
    engine.register("q", q_edge(0, 1))
    engine.register("path", QueryGraph({0: 0, 1: 1, 2: 0}, [(0, 1), (1, 2)]))

    def state():
        pairs = {
            key: (list(pair.seeds), dict(pair.queries))
            for key, pair in engine.pairs.items()
        }
        answers = {name: rq.answers.mappings() for name, rq in engine.queries.items()}
        return dict(engine.queries), pairs, answers

    before = state()
    # the package's own error, so an ``except DsmatchError`` handler sees it;
    # the second query shares the first's label pair (0, 1)
    with pytest.raises(DsmatchError, match="already registered"):
        engine.register("q", QueryGraph({0: 1, 1: 0, 2: 1}, [(0, 1), (1, 2)]))
    assert state() == before
    assert engine.queries["q"].query.edges == ((0, 1),)


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
    assert list(r1.deltas) == list(r2.deltas)
    for name in engine.queries:
        assert r1.deltas.get(name, UNCHANGED).added == r2.deltas.get(name, UNCHANGED).removed
        assert engine.queries[name].answers.mappings() == before[name]


def test_zero_registered_queries_graph_still_maintained(any_mode_cfg):
    g = make_graph([(0, 1)], {0: 0, 1: 1})
    engine = MatchEngine(g.copy(), any_mode_cfg)
    result = engine.process_update(UpdateOp(INSERT, 0, 2, label_v=4))
    assert result.deltas == {}
    assert engine.graph.has_edge(0, 2)
    rebuilt = SynopsisIndex(
        engine.graph, engine.index.groups, any_mode_cfg, engine.index.k_cells,
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
        assert list(result.deltas) == [name for name, hit in want.items() if hit]
        for name, delta in result.deltas.items():
            assert delta.removed == want[name]
            removed_total += len(delta.removed)
    assert removed_total > 0


HUB_CONFIGS = pytest.mark.parametrize("cfg_kw", [
    {"d": 2, "mode": "plain"},
    {"d": 2, "mode": "base"},
    {"d": 2, "mode": "zipf"},
    {"d": 1, "mode": "zipf"},
    {"d": 3, "mode": "base"},
], ids=["plain", "base", "zipf", "zipf-d1", "base-d3"])


def hub_stream_engine(cfg):
    """An engine over a small-world graph plus a hub of degree 40, the
    graph before the stream, and a mixed stream: the engine holds six
    queries, two of them on label 3, which the graph lacks and the stream
    brings in, and the stream ends churning at the hub, attaching new
    vertices of degree 1."""
    rng = Rng(29)
    g = small_world(n=60, avg_deg=4.0, alphabet=3, seed=71)
    hub = max(g.labels) + 1
    g.add_vertex(hub, 0)
    for v in range(hub + 1, hub + 41):
        g.add_vertex(v, rng.randint(0, 2))
        g.add_edge(hub, v)
    engine = MatchEngine(g.copy(), cfg)
    queries = sample_queries(g, 4, 4, 2.0, seed=17) + [
        QueryGraph({0: 3, 1: 0, 2: 1}, [(0, 1), (0, 2), (1, 2)]),
        QueryGraph({0: 0, 1: 3, 2: 2}, [(0, 1), (0, 2)]),
    ]
    for i, q in enumerate(queries):
        engine.register(f"q{i}", q)
    assert 3 not in engine.index.lists.frames
    live = g.copy()
    ops = random_update_stream(g, 150, seed=31, alphabet=4)
    for op in ops:
        live.apply_update(op)
    for i in range(60):
        if i % 2:
            op = UpdateOp(DELETE, hub, rng.choice(sorted(live.neighbors(hub))))
        else:
            op = UpdateOp(INSERT, hub, max(live.labels) + 1, label_v=rng.randint(0, 3))
        live.apply_update(op)
        ops.append(op)
    return engine, g, ops


@HUB_CONFIGS
def test_updates_read_no_walk(cfg_kw, monkeypatch):
    # construction reads the grid domain off packed label vectors and
    # builds no grid; the six registrations right after it, whose scans
    # fill label columns from the histograms, build no grid either: neither
    # reads a capped sum or computes a box.  Inserts count-test seeds
    # against histograms and deletes edit them and the answer index: no
    # update reads a capped sum or a box either
    calls = spy_on_boxes(monkeypatch)
    engine, _, ops = hub_stream_engine(EmbeddingConfig(**cfg_kw))
    assert not calls
    assert engine.index._grids is None and engine.index._columns.columns
    seen = Counter()  # (kind, filed pair, created a vertex)
    added = removed = 0
    for op in ops:
        created = op.u not in engine.graph.labels or op.v not in engine.graph.labels
        result = engine.process_update(op)
        labels = engine.graph.labels
        seen[op.kind, (labels[op.u], labels[op.v]) in engine.pairs, created] += 1
        added += sum(len(d.added) for d in result.deltas.values())
        removed += sum(len(d.removed) for d in result.deltas.values())
    assert not calls
    assert seen[INSERT, True, False] and seen[INSERT, True, True] and seen[DELETE, True, False]
    assert added > 0 and removed > 0


class CountedReads:
    """An iterator over ``items`` that counts the items it was asked for,
    the one that ended it included."""

    def __init__(self, items):
        self.items, self.reads, self.yielded = iter(items), 0, 0

    def __iter__(self):
        return self

    def __next__(self):
        self.reads += 1
        item = next(self.items)
        self.yielded += 1
        return item


def test_registration_reads_only_the_start_vertex_candidates(monkeypatch):
    # every need scan's candidates are wrapped: a registration, before or
    # amid a stream, reads one vertex's alone, the one of smallest
    # (survivors, id), through to its end, and its answers are exact
    g = small_world(n=150, avg_deg=5.0, alphabet=3, seed=53)
    engine = MatchEngine(g.copy())
    spies = []
    scan_for_degree = engine.index.scan_for_degree

    def scan(*args):
        cands, stats = scan_for_degree(*args)
        spies.append(CountedReads(cands))
        return spies[-1], stats

    monkeypatch.setattr(engine.index, "scan_for_degree", scan)
    ops = random_update_stream(g, 80, seed=59, alphabet=3)
    queries = sample_queries(g, 8, 4, 2.0, seed=61) + [
        QueryGraph({0: 0, 1: 9}, [(0, 1)]),  # label 9 has no vertex: nothing survives
    ]
    for i, q in enumerate(queries):
        for op in ops[10 * i : 10 * i + 10]:
            engine.process_update(op)
        spies.clear()
        rq = engine.register(f"q{i}", q)
        assert len(spies) == len(q)
        start = min(q.vertex_order, key=lambda qi: (rq.scan_stats[qi].survivors, qi))
        read = [qi for qi, spy in zip(q.vertex_order, spies) if spy.reads]
        assert read == [start]
        spy = spies[q.vertex_order.index(start)]
        assert spy.yielded == rq.scan_stats[start].survivors == spy.reads - 1
        assert rq.answers.mappings() == enumerate_matches(engine.graph, q)


@HUB_CONFIGS
def test_registration_builds_no_grid_and_fills_only_its_labels(cfg_kw, monkeypatch):
    # construction, six registrations and a mixed stream build no grid; a
    # query registered after one more op, and another after k more, build
    # none either and fill only their own labels, each once.  The grid
    # decides none of their candidates: each need scan keeps exactly the
    # need-less grid scan's candidates that cover the need
    builds = [0]
    fills = Counter()  # label -> fills
    build_grid, fill = GridSynopsis.__init__, LabelColumns.fill

    def build(grid, *args):
        builds[0] += 1
        build_grid(grid, *args)

    def read(columns, label):
        fills[label] += label not in columns.columns
        return fill(columns, label)

    monkeypatch.setattr(GridSynopsis, "__init__", build)
    monkeypatch.setattr(LabelColumns, "fill", read)
    engine, g, ops = hub_stream_engine(EmbeddingConfig(**cfg_kw))
    scans = []  # (args, candidates) of registration's scans
    scan_for_degree = engine.index.scan_for_degree

    def scan(*args):  # reads each scan's one-pass candidates into a list
        cands, stats = scan_for_degree(*args)
        scans.append((args, (list(cands), stats)))
        return iter(scans[-1][1][0]), stats

    monkeypatch.setattr(engine.index, "scan_for_degree", scan)
    k = 4
    for op in ops[: -1 - k]:
        engine.process_update(op)
    assert builds == [0]
    late = sample_queries(g, 2, 4, 2.0, seed=37)
    for name, q, before in (("late-1", late[0], ops[-1 - k : -k]), ("late-k", late[1], ops[-k:])):
        for op in before:
            engine.process_update(op)
        builds[0] = 0
        fills.clear()
        scans.clear()
        rq = engine.register(name, q)
        assert builds == [0]
        assert fills == Counter(set(q.labels.values()))
        assert rq.answers.mappings() == enumerate_matches(engine.graph, q)
        assert len(scans) == len(q)
        for qi, ((embed, degree, label, need), (cands, _)) in zip(q.vertex_order, scans):
            assert embed == ()  # registration embeds no query vertex
            boxed, _ = scan_for_degree(rq.embeds[qi], degree, label)  # builds the grids
            assert sorted(cands) == sorted(v for v in boxed if covers(engine.graph, v, need))


def test_stage_times_add_up_to_each_ops_stamped_span(monkeypatch):
    # a clock reading 0, 1, 2, ... makes every difference exact: what each
    # op adds to the caller's sink must sum to its last stamp minus its
    # first, over inserts that refine, inserts that do not, and deletes
    engine, _, ops = hub_stream_engine(EmbeddingConfig(d=2, mode="zipf"))
    stamps = []

    def clock():
        stamps.append(float(len(stamps)))
        return stamps[-1]

    monkeypatch.setattr(matcher_mod, "perf_counter", clock)
    stages = {}  # a plain dict: the engine must not rely on defaultdict
    kinds = Counter()  # (kind, refined)
    for op in ops:
        stamps.clear()
        before = dict(stages)
        engine.process_update(op, stages)
        added = {k: seconds - before.get(k, 0.0) for k, seconds in stages.items()}
        assert sum(added.values()) == stamps[-1] - stamps[0] > 0
        assert min(added.values()) >= 0
        kinds[op.kind, added["refinement"] > 0] += 1
    assert kinds[INSERT, True] and kinds[INSERT, False] and kinds[DELETE, False]


def test_updates_without_a_sink_read_no_clock(monkeypatch):
    # by default neither process_update nor maintain reads a clock, and no
    # op builds a report of its own: a clock that raises changes nothing,
    # and the deltas equal a twin engine's, run with a sink
    cfg = EmbeddingConfig(d=2, mode="zipf")
    engine, _, ops = hub_stream_engine(cfg)
    twin, _, _ = hub_stream_engine(cfg)
    stages = {}
    want = [twin.process_update(op, stages).deltas for op in ops]
    assert stages["refinement"] > 0.0

    def no_clock():
        raise AssertionError("a clock was read without a sink")

    for mod in (matcher_mod, synopsis_mod, time):
        monkeypatch.setattr(mod, "perf_counter", no_clock, raising=False)
    reports = []
    maintain = engine.index.maintain

    def recording_maintain(op):
        reports.append(maintain(op))
        return reports[-1]

    monkeypatch.setattr(engine.index, "maintain", recording_maintain)
    got = [engine.process_update(op).deltas for op in ops]
    assert got == want
    assert any(d.added for ds in got for d in ds.values())
    assert any(d.removed for ds in got for d in ds.values())
    assert len(reports) == len(ops) and all(r is reports[0] for r in reports)
    report = reports[0]
    assert (report.entries_added, report.entries_removed, report.entries_moved,
            report.entries_refreshed, report.list_update_seconds,
            report.entry_update_seconds) == (0, 0, 0, 0, 0.0, 0.0)


def covers(graph, v, need):
    """v has at least c neighbors labeled l for every (l, c) of ``need``,
    counted from the graph's adjacency."""
    have = Counter(graph.labels[n] for n in graph.adj[v])
    return all(have[lbl] >= c for lbl, c in need)


@HUB_CONFIGS
def test_seeded_joins_equal_label_count_cover(cfg_kw, monkeypatch):
    # on every insert, the seeds refined are exactly those whose two seeded
    # endpoints cover the label counts of the plan's first two levels:
    # over a mixed stream that brings in label 3, which a query has but the
    # graph lacks, and then churns at a hub, attaching new vertices of
    # degree 1
    engine, _, ops = hub_stream_engine(EmbeddingConfig(**cfg_kw))
    seeded = []
    real_refine = matcher_mod.refine

    def recording_refine(plan, graph, store, seed, depth, roots=()):
        if depth == 2:
            seeded.append((plan, list(seed)))
        return real_refine(plan, graph, store, seed, depth, roots)

    monkeypatch.setattr(matcher_mod, "refine", recording_refine)
    graph, degree = engine.graph, engine.graph.degree
    verdicts = Counter()  # (seeded, an endpoint of degree below its counts' sum)
    new_label = 0
    for op in ops:
        seeded.clear()
        engine.process_update(op)
        if op.kind != INSERT:
            assert seeded == []
            continue
        u, v = op.u, op.v
        key = graph.labels[u], graph.labels[v]
        new_label += 3 in key and key in engine.pairs
        want = []
        for _, plan, flip, need_u, need_v in engine.pairs[key].seeds if key in engine.pairs else ():
            a, b = (v, u) if flip else (u, v)
            ok = covers(graph, a, plan.needs[0]) and covers(graph, b, plan.needs[1])
            short = sum(c for _, c in need_u) > degree(u) or sum(c for _, c in need_v) > degree(v)
            verdicts[ok, short] += 1
            if ok:
                want.append((plan, [a, b]))
        assert seeded == want
    assert verdicts[True, False] and verdicts[False, False] and verdicts[False, True]
    assert verdicts[True, True] == 0 and new_label > 0
    for name, rq in engine.queries.items():
        assert rq.answers.mappings() == enumerate_matches(engine.graph, rq.query)


@HUB_CONFIGS
def test_label_count_cover_implies_box_containment(cfg_kw):
    # the count test is sound against the box test and strictly stronger:
    # over every same-label (data vertex, query vertex) pair, before and
    # after the hub stream, a vertex covering the query vertex's label
    # counts has its box at the query degree around the query embedding,
    # while some vertices boxed around it miss a count
    cfg = EmbeddingConfig(**cfg_kw)
    engine, _, ops = hub_stream_engine(cfg)
    graph, store = engine.graph, engine.index.lists
    outcomes = Counter()  # (counts covered, box contains)

    def check():
        by_label = defaultdict(list)
        for v in graph.vertices():
            by_label[graph.labels[v]].append(v)
        for rq in engine.queries.values():
            q = rq.query
            needs = label_needs(q)
            for qi in q.vertex_order:
                p, delta = embed_vertex(q, qi, cfg), q.degree(qi)
                for v in by_label[q.labels[qi]]:
                    covered = all(store.hist[v].get(l, 0) >= c for l, c in needs[qi])
                    assert covered == covers(graph, v, needs[qi])
                    boxed = delta <= graph.degree(v) and store.mbr(v, delta).contains(p)
                    outcomes[covered, boxed] += 1

    check()
    for op in ops:
        engine.process_update(op)
    check()
    assert outcomes[True, False] == 0
    assert outcomes[True, True] and outcomes[False, True] and outcomes[False, False]


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
                for m in result.deltas.get(f"q{i}", UNCHANGED).removed:
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
            assert not result.deltas.get(f"q{i}", UNCHANGED).removed
            for m in result.deltas.get(f"q{i}", UNCHANGED).added:
                images = set()
                for ia, ib in q.edge_index_pairs:
                    a, b = m[ia], m[ib]
                    images.add((a, b) if a < b else (b, a))
                assert key in images


def test_update_timings_present(any_mode_cfg):
    # a sink collects the five stages, each op adding to them; without one
    # the sink is left alone and every result's timings is one shared,
    # read-only empty mapping
    g = make_graph([(0, 1)], {0: 0, 1: 1, 2: 0, 3: 1})
    engine = MatchEngine(g.copy(), any_mode_cfg)
    engine.register("q", q_edge(0, 1))
    names = ["graph", "embedding_update", "filtering", "refinement", "answers_index"]
    stages = {}
    results = []
    for op in (UpdateOp(INSERT, 2, 3), UpdateOp(DELETE, 0, 1)):
        before = dict(stages)
        results.append(engine.process_update(op, stages))
        assert sorted(stages) == sorted(names), op
        assert all(stages[k] >= before.get(k, 0.0) >= 0.0 for k in names), op
    assert results[0].deltas["q"].added == {(2, 3)}
    before = dict(stages)
    for op in (UpdateOp(INSERT, 0, 1), UpdateOp(DELETE, 2, 3)):
        results.append(engine.process_update(op))
    assert stages == before
    empty = results[0].timings
    assert len(empty) == 0 and all(r.timings is empty for r in results)
    with pytest.raises(TypeError):
        empty["graph"] = 0.0


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
    assert list(result.deltas) == ["ab"]


def test_deltas_name_exactly_the_changed_queries_in_registration_order(cfg_zipf):
    # "edge" and "path" share the label pair (0, 1); "absent" has labels no
    # vertex carries, so no op ever reaches it
    g = small_world(n=70, avg_deg=4.0, alphabet=3, seed=29)
    queries = {
        "edge": q_edge(0, 1),
        "s0": sample_queries(g, 1, 4, 2.0, seed=17)[0],
        "path": QueryGraph({0: 0, 1: 1, 2: 1}, [(0, 1), (1, 2)]),
        "absent": q_edge(7, 8),
        "tri": q_triangle((0, 1, 2)),
    }
    engine = MatchEngine(g.copy(), cfg_zipf)
    for name, q in queries.items():
        engine.register(name, q)
    seen = Counter()
    kinds = set()
    for op in random_update_stream(g, 120, seed=41, alphabet=3):
        before = {name: engine.queries[name].answers.mappings() for name in queries}
        result = engine.process_update(op)
        after = {name: engine.queries[name].answers.mappings() for name in queries}
        changed = [name for name in queries if after[name] != before[name]]
        assert list(result.deltas) == changed, op
        for name in changed:
            delta = result.deltas[name]
            assert delta.added == after[name] - before[name]
            assert delta.removed == before[name] - after[name]
            seen[name] += 1
            kinds.add((op.kind, name))
    for name, q in queries.items():
        assert engine.queries[name].answers.mappings() == enumerate_matches(engine.graph, q)
    assert seen["absent"] == 0
    assert {(INSERT, "edge"), (DELETE, "edge"), (INSERT, "path"), (DELETE, "path")} <= kinds
    assert len(seen) == 4


@HUB_CONFIGS
def test_engine_never_estimates_the_grid_domain(cfg_kw, monkeypatch):
    # only grid reads need the domain and the label frames: construction,
    # six registrations and a mixed stream that brings a new label compute
    # neither; the first snapshot estimates the domain once, over the graph
    # as it stands, and later reads keep that value
    graphs = []
    estimate = synopsis_mod.estimate_domain

    def spy(graph, cfg):
        graphs.append(graph)
        return estimate(graph, cfg)

    monkeypatch.setattr(synopsis_mod, "estimate_domain", spy)
    engine, _, ops = hub_stream_engine(EmbeddingConfig(**cfg_kw))
    for op in ops:
        engine.process_update(op)
    assert graphs == [] and not engine.index.lists.frames
    snapshot = engine.index.snapshot()
    assert graphs == [engine.graph]
    assert engine.index.snapshot() == snapshot and engine.index.domain == snapshot["domain"]
    assert graphs == [engine.graph]


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
        ({"d": 2, "mode": "zipf", "alpha": 10.0}, {}),  # ratio 10
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
    # its scans read label columns filled over the current snapshot
    rebuilt = SynopsisIndex(
        engine.graph, engine.index.groups, any_mode_cfg, engine.index.k_cells,
        domain=engine.index.domain,
    )
    for qi in q2.vertex_order:
        args = (rq2.embeds[qi], q2.degree(qi), q2.labels[qi], label_needs(q2)[qi])
        want, want_stats = rebuilt.scan_for_degree(*args)
        assert sorted(engine.index.scan_for_degree(*args)[0]) == sorted(want)
        assert rq2.scan_stats[qi] == want_stats
    for op in ops[30:]:
        engine.process_update(op)
        for name, q in (("early", q1), ("late", q2)):
            got = engine.queries[name].answers.mappings()
            assert got == enumerate_matches(engine.graph, q)


def test_engine_leaves_no_cyclic_garbage(cfg_zipf):
    # build, registration and every update free what they allocate by
    # reference counting alone: a cycle left per join would make a stream
    # of inserts pay for the cyclic collector's passes
    g = small_world(n=80, avg_deg=5.0, alphabet=3, seed=23)
    queries = sample_queries(g, 3, 4, 2.0, seed=13)
    mixed = random_update_stream(g, 40, seed=41, alphabet=3)
    gc.collect()
    gc.disable()
    try:
        engine = MatchEngine(g.copy(), cfg_zipf)
        assert gc.collect() == 0
        for i, q in enumerate(queries):
            engine.register(f"q{i}", q)
        assert gc.collect() == 0
        hit = sorted({e for rq in engine.queries.values()
                      for m in rq.answers for e in rq.answers.edge_images(m)})[:5]
        undo = [UpdateOp(DELETE if op.kind == INSERT else INSERT, op.u, op.v)
                for op in reversed(mixed)]
        phases = {
            "deletes that remove answers": [UpdateOp(DELETE, u, v) for u, v in hit],
            "re-inserts that seed joins": [UpdateOp(INSERT, u, v) for u, v in hit],
            "mixed stream": mixed,
            "its inverse": undo,
        }
        for phase, ops in phases.items():
            changed = [engine.process_update(op).deltas for op in ops]
            assert any(changed), phase
            assert gc.collect() == 0, phase
    finally:
        gc.enable()
