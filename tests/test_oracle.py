import math

import pytest

from dsmatch.errors import DegreeOutOfRange, DegreeTooLarge
from dsmatch.graph import DELETE, INSERT, DynamicGraph, UpdateOp
from dsmatch.matcher import MatchEngine, QueryGraph
from dsmatch.oracle import (
    enumerate_matches,
    recompute_stream_check,
    star_subset_embeddings,
)
from dsmatch.synopsis import Mbr

from conftest import make_graph, small_world


def test_query_larger_than_graph_is_empty():
    g = make_graph([(0, 1)], {0: 0, 1: 0})
    q = QueryGraph({i: 0 for i in range(3)}, [(0, 1), (1, 2)])
    assert enumerate_matches(g, q) == frozenset()


def test_clique_automorphism_count():
    n = 4
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = make_graph(pairs, {i: 0 for i in range(n)})
    q = QueryGraph({i: 0 for i in range(n)}, pairs)
    assert len(enumerate_matches(g, q)) == math.factorial(n)


def test_relabeling_invariance():
    g = small_world(n=40, avg_deg=4.0, alphabet=3, seed=44)
    q = QueryGraph({0: 0, 1: 1, 2: 0}, [(0, 1), (1, 2)])
    n = len(enumerate_matches(g, q))
    # permute vertex ids of g
    perm = {v: (v * 17 + 3) % 40 for v in range(40)}
    g2 = DynamicGraph()
    for v, lbl in g.labels.items():
        g2.add_vertex(perm[v], lbl)
    for u, v in g.edges():
        g2.add_edge(perm[u], perm[v])
    assert len(enumerate_matches(g2, q)) == n


# -- the four-expert collaboration example -------------------------------------
#
# Four-role ring pattern over a seven-person network: one team is present
# throughout; a second team forms when two members start collaborating and
# dissolves when another pair stops.

ROLE_A, ROLE_B, ROLE_C, ROLE_D = 0, 1, 2, 3


def collaboration_example():
    labels = {
        1: ROLE_A, 2: ROLE_B, 3: ROLE_C, 4: ROLE_A,
        5: ROLE_D, 6: ROLE_C, 7: ROLE_B,
    }
    edges = [
        (1, 2), (2, 3), (3, 5), (5, 1),  # standing team v1,v2,v3,v5
        (6, 7),  # deleted at t=2
        (6, 5), (5, 4),  # second team scaffolding around v5
    ]
    g0 = make_graph(edges, labels)
    query = QueryGraph(
        {1: ROLE_A, 2: ROLE_B, 3: ROLE_C, 4: ROLE_D},
        [(1, 2), (2, 3), (3, 4), (4, 1)],
    )
    stream = [
        UpdateOp(INSERT, 4, 7, timestamp=1),
        UpdateOp(DELETE, 6, 7, timestamp=2),
    ]
    return g0, query, stream


def test_collaboration_example_oracle_counts():
    g, q, stream = collaboration_example()
    assert len(enumerate_matches(g, q)) == 1
    g.apply_update(stream[0])
    assert len(enumerate_matches(g, q)) == 2
    g.apply_update(stream[1])
    assert len(enumerate_matches(g, q)) == 1


# -- star subset enumeration ----------------------------------------------------


def test_star_subsets_full_degree_singleton(any_mode_cfg):
    from dsmatch.embedding import embed_vertex

    g = make_graph([(0, 1), (0, 2)], {0: 0, 1: 1, 2: 2})
    vecs = star_subset_embeddings(g, 0, 2, any_mode_cfg)
    assert vecs == {embed_vertex(g, 0, any_mode_cfg)}


def test_star_subsets_binomial_count(any_mode_cfg):
    g = make_graph([(0, i) for i in (1, 2, 3)], {0: 0, 1: 1, 2: 2, 3: 3})
    assert len(star_subset_embeddings(g, 0, 2, any_mode_cfg)) == 3


def test_star_subsets_guards(any_mode_cfg):
    g = make_graph([(0, i) for i in range(1, 25)], {i: 0 for i in range(25)})
    with pytest.raises(DegreeTooLarge):
        star_subset_embeddings(g, 0, 2, any_mode_cfg)
    g2 = make_graph([(0, 1)], {0: 0, 1: 1})
    with pytest.raises(DegreeOutOfRange):
        star_subset_embeddings(g2, 0, 2, any_mode_cfg)


# -- stream verdicts --------------------------------------------------------------


def test_recompute_check_empty_stream(cfg_zipf):
    g = make_graph([(0, 1)], {0: 0, 1: 1})
    q = QueryGraph({0: 0, 1: 1}, [(0, 1)])
    report = recompute_stream_check(g, [], [q], cfg_zipf)
    assert report.ok
    assert report.updates_checked == 0
    assert "zero divergences" in report.describe()


def test_recompute_check_catches_missing_orientation(cfg_zipf, monkeypatch):
    # an engine that drops the (1, 0) orientation's seed entry after
    # registration misses the symmetric image
    g = make_graph([], {0: 5, 1: 5})
    q = QueryGraph({0: 5, 1: 5}, [(0, 1)])
    engine = MatchEngine(g.copy(), cfg_zipf)
    register = engine.register

    def register_then_drop(name, query):
        rq = register(name, query)
        engine.seeds[5, 5] = [e for e in engine.seeds[5, 5] if e[1][:2] != (1, 0)]
        return rq

    monkeypatch.setattr(engine, "register", register_then_drop)
    stream = [UpdateOp(INSERT, 0, 1, timestamp=1)]
    report = recompute_stream_check(g, stream, [q], cfg_zipf, engine=engine)
    assert not report.ok
    assert report.divergence.timestamp == 1
    assert report.divergence.missing == {(1, 0)}
    assert report.divergence.extra == frozenset()
    assert "missing" in report.describe()


def test_recompute_check_catches_dropped_op(cfg_zipf, monkeypatch):
    # the recompute replays the stream on its own graph copy, so an engine
    # that silently skips an op cannot agree with itself
    g = make_graph([], {0: 0, 1: 1, 2: 0, 3: 1})
    q = QueryGraph({0: 0, 1: 1}, [(0, 1)])
    engine = MatchEngine(g.copy(), cfg_zipf)
    process_update = engine.process_update
    monkeypatch.setattr(
        engine, "process_update", lambda op: None if op.timestamp == 2 else process_update(op)
    )
    stream = [
        UpdateOp(INSERT, 0, 1, timestamp=1),
        UpdateOp(INSERT, 2, 3, timestamp=2),
        UpdateOp(INSERT, 0, 3, timestamp=3),
    ]
    report = recompute_stream_check(g, stream, [q], cfg_zipf, engine=engine)
    assert not report.ok
    assert report.updates_checked == 2
    assert report.divergence.timestamp == 2
    assert report.divergence.missing == {(2, 3)}
    assert report.divergence.extra == frozenset()


def test_recompute_check_box_filter_is_optional(cfg_zipf, monkeypatch):
    # the per-degree box check, in the registration scan and at insert
    # endpoints, is pruning only; disabling it cannot change any answer set
    g = small_world(n=60, avg_deg=4.0, alphabet=3, seed=51)
    from dsmatch.generate import sample_queries, split_stream

    queries = sample_queries(g, 3, 4, 2.0, seed=27)
    g0, stream = split_stream(g, 0.1, 0.0, seed=7)
    monkeypatch.setattr(Mbr, "contains", lambda self, p, eps=0.0: True)
    engine = MatchEngine(g0.copy(), cfg_zipf)
    report = recompute_stream_check(g0, stream, queries, cfg_zipf, engine=engine)
    assert report.ok, report.describe()


def test_recompute_check_full_stream(cfg_base):
    g = small_world(n=60, avg_deg=4.0, alphabet=3, seed=52)
    from dsmatch.generate import sample_queries, split_stream

    queries = sample_queries(g, 3, 4, 2.0, seed=28)
    g0, stream = split_stream(g, 0.1, 0.0, seed=8)
    report = recompute_stream_check(g0, stream, queries, cfg_base)
    assert report.ok, report.describe()
    assert report.updates_checked == len(stream)
