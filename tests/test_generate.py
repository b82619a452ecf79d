import math
import statistics

import pytest

from dsmatch.embedding import BETA
from dsmatch.errors import InvalidParams, InvalidRate
from dsmatch.generate import (
    BenchConfig,
    _grow_connected,
    generate_graph,
    ring_params_for_avg_degree,
    sample_queries,
    split_stream,
)
from dsmatch.graph import DELETE, INSERT, dump_graph, dump_stream
from dsmatch.matcher import QueryGraph
from dsmatch.oracle import enumerate_matches
from dsmatch.rng import Rng


def test_pure_ring_lattice_degrees():
    g = generate_graph(20, 4, 0.0, alphabet=3, seed=1)
    assert all(g.degree(v) == 4 for v in g.vertices())
    assert g.num_edges == 40


def test_same_seed_byte_identical():
    a = generate_graph(100, 4, 0.3, alphabet=5, label_dist="zipf", seed=9)
    b = generate_graph(100, 4, 0.3, alphabet=5, label_dist="zipf", seed=9)
    assert dump_graph(a) == dump_graph(b)
    c = generate_graph(100, 4, 0.3, alphabet=5, label_dist="zipf", seed=10)
    assert dump_graph(a) != dump_graph(c)


@pytest.mark.parametrize("target", [3.0, 4.0, 5.0, 6.0, 7.0])
def test_average_degree_calibration(target):
    k, p = ring_params_for_avg_degree(target)
    degs = []
    for seed in range(3):
        g = generate_graph(600, k, p, alphabet=5, seed=seed)
        degs.append(2 * g.num_edges / g.num_vertices)
    assert statistics.fmean(degs) == pytest.approx(target, rel=0.10)


def test_generated_graph_is_connected():
    g = generate_graph(150, 2, 0.5, alphabet=4, seed=3)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    assert len(seen) == g.num_vertices


def test_label_distributions_cover_alphabet():
    for dist in ("uniform", "gaussian", "zipf"):
        g = generate_graph(500, 4, 0.2, alphabet=6, label_dist=dist, seed=4)
        labels = set(g.labels.values())
        assert labels <= set(range(6))
    zipf_g = generate_graph(2000, 4, 0.0, alphabet=6, label_dist="zipf", seed=5)
    counts = [0] * 6
    for lbl in zipf_g.labels.values():
        counts[lbl] += 1
    assert counts[0] > counts[5]  # rank-1 label clearly most frequent


def test_generate_graph_param_validation():
    with pytest.raises(InvalidParams):
        generate_graph(10, 3, 0.1, alphabet=3)  # odd k
    with pytest.raises(InvalidParams):
        generate_graph(4, 4, 0.1, alphabet=3)  # n too small
    with pytest.raises(InvalidParams):
        generate_graph(10, 4, 1.5, alphabet=3)
    with pytest.raises(InvalidParams):
        generate_graph(10, 4, 0.1, alphabet=3, label_dist="pareto")


# -- stream splitting -----------------------------------------------------------


def test_split_zero_rates_empty_stream():
    g = generate_graph(50, 4, 0.1, alphabet=3, seed=6)
    g0, stream = split_stream(g, 0.0, 0.0, seed=1)
    assert stream == []
    assert g0.num_edges == g.num_edges


def test_split_insertion_partition_identity():
    g = generate_graph(100, 4, 0.25, alphabet=4, seed=7)
    g0, stream = split_stream(g, 0.1, 0.0, seed=2)
    assert g0.num_edges + len(stream) == g.num_edges
    assert all(op.kind == INSERT for op in stream)
    assert [op.timestamp for op in stream] == list(range(1, len(stream) + 1))


def test_split_insertion_replay_reconstructs():
    g = generate_graph(80, 4, 0.2, alphabet=4, seed=8)
    g0, stream = split_stream(g, 0.15, 0.0, seed=3)
    replay = g0.copy()
    for op in stream:
        replay.apply_update(op)
    assert dump_graph(replay) == dump_graph(g)


def test_split_deletion_mode():
    g = generate_graph(80, 4, 0.2, alphabet=4, seed=9)
    g0, stream = split_stream(g, 0.0, 0.1, seed=4)
    assert g0.num_edges == g.num_edges
    assert all(op.kind == DELETE for op in stream)
    replay = g0.copy()
    for op in stream:
        replay.apply_update(op)
    assert replay.num_edges == g.num_edges - len(stream)


def test_split_rate_validation():
    g = generate_graph(50, 4, 0.1, alphabet=3, seed=10)
    with pytest.raises(InvalidRate):
        split_stream(g, 0.6, 0.0)
    with pytest.raises(InvalidRate):
        split_stream(g, 0.1, 0.1)


# -- query sampling ---------------------------------------------------------------


def test_sample_size_two_is_an_edge():
    g = generate_graph(60, 4, 0.2, alphabet=4, seed=11)
    for q in sample_queries(g, 5, 2, 1.0, seed=5):
        assert len(q.vertex_order) == 2
        assert len(q.edges) == 1


def test_sampled_queries_always_match():
    g = generate_graph(120, 4, 0.25, alphabet=5, seed=12)
    for q in sample_queries(g, 10, 5, 2.5, seed=6):
        assert len(enumerate_matches(g, q)) >= 1


def test_sampled_queries_connected_and_sized():
    g = generate_graph(120, 4, 0.25, alphabet=5, seed=13)
    for size in (3, 4, 6):
        for q in sample_queries(g, 5, size, 2.0, seed=7):
            assert len(q.vertex_order) == size
            assert q.vertex_order == tuple(range(size))
            # QueryGraph construction already validates connectivity


def test_sample_determinism():
    g = generate_graph(100, 4, 0.25, alphabet=5, seed=14)
    a = sample_queries(g, 6, 4, 2.0, seed=8)
    b = sample_queries(g, 6, 4, 2.0, seed=8)
    assert [q.to_text() for q in a] == [q.to_text() for q in b]


def _full_scan_thin_edges(g, chosen, avg_deg, rng):
    """Reference thinning: the induced edges from a scan of every graph edge."""
    chosen_set = set(chosen)
    induced = [(u, v) for u, v in g.edges() if u in chosen_set and v in chosen_set]
    adj = {v: [] for v in chosen}
    for u, v in induced:
        adj[u].append(v)
        adj[v].append(u)
    tree, seen, stack = [], {chosen[0]}, [chosen[0]]
    while stack:
        u = stack.pop()
        for v in sorted(adj[u]):
            if v not in seen:
                seen.add(v)
                tree.append((u, v) if u < v else (v, u))
                stack.append(v)
    target = max(len(chosen) - 1, round(avg_deg * len(chosen) / 2))
    keep = set(tree)
    extras = [e for e in induced if e not in keep]
    rng.shuffle(extras)
    for e in extras:
        if len(keep) >= target:
            break
        keep.add(e)
    relabel = {v: i for i, v in enumerate(sorted(chosen))}
    labels = {relabel[v]: g.labels[v] for v in chosen}
    return QueryGraph(labels, [(relabel[u], relabel[v]) for u, v in keep])


@pytest.mark.parametrize("n, avg_deg, seed", [(60, 4, 21), (150, 6, 22), (300, 8, 23)])
def test_sampling_equals_full_edge_scan(n, avg_deg, seed):
    # the induced edges come from the chosen vertices' adjacency alone
    g = generate_graph(n, avg_deg, 0.3, alphabet=5, seed=seed)
    starts = sorted(v for v in g.vertices() if g.degree(v) >= 1)
    # query degrees below the induced ones, so the extras are shuffled and cut
    for size, q_deg, q_seed in ((3, 2.0, 1), (6, 2.0, 2), (10, 2.5, 3)):
        rng = Rng(q_seed)
        expected = [
            _full_scan_thin_edges(g, _grow_connected(g, starts, size, rng), q_deg, rng)
            for _ in range(8)
        ]
        got = sample_queries(g, 8, size, q_deg, seed=q_seed)
        assert [(q.labels, q.edges) for q in got] == [(q.labels, q.edges) for q in expected]


def test_bench_config_wiring():
    cfg = BenchConfig(n_vertices=200, alphabet=5, label_dist="zipf",
                      query_count=3, query_size=4, master_seed=42)
    g = cfg.make_graph()
    assert g.num_vertices == 200
    g0, stream = cfg.make_split(g)
    assert len(stream) == round(0.1 * g.num_edges)
    queries = cfg.make_queries(g)
    assert len(queries) == 3
    ecfg = cfg.embedding_config()
    assert BETA / ecfg.alpha == pytest.approx(1000.0)
    assert ecfg.mode == "zipf"
    full, g0_, stream_, queries_ = cfg.make_inputs()
    assert (dump_graph(full), dump_graph(g0_)) == (dump_graph(g), dump_graph(g0))
    assert dump_stream(stream_) == dump_stream(stream)
    assert [q.to_text() for q in queries_] == [q.to_text() for q in queries]


@pytest.mark.parametrize("bad, says", [
    ("x", "must be a real number"), ("1000", "must be a real number"),
    (None, "must be a real number"), (True, "must be a real number"),
    (1000j, "must be a real number"), (0, "positive and finite"),
    (-1.0, "positive and finite"), (math.inf, "positive and finite"),
    (math.nan, "positive and finite"),
])
def test_embedding_config_rejects_a_bad_beta_alpha_ratio(bad, says):
    # ratio="x" once raised a bare TypeError from the range check
    with pytest.raises(InvalidParams, match=says):
        BenchConfig(beta_alpha_ratio=bad).embedding_config()
