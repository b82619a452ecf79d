"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion; any assertion failure marks the corresponding criterion
red.  The statistical criteria are deterministic end to end (fixed seeds,
integer-mixed randomness), so their outcomes are reproducible bit for bit.
"""

import time

import pytest

from dsmatch.bench import run_engine, run_naive
from dsmatch.costmodel import collect_stats, estimate_cost, normal_cdf
from dsmatch.embedding import EmbeddingConfig, compose, dominates, label_vector
from dsmatch.generate import BenchConfig, sample_queries
from dsmatch.matcher import MatchEngine, embed_query
from dsmatch.oracle import enumerate_matches, star_subset_embeddings
from dsmatch.rng import Rng
from dsmatch.synopsis import (
    NeighborListStore,
    SynopsisIndex,
    compute_degree_groups,
)

from conftest import small_world
from test_oracle import collaboration_example
from test_synopsis import graph_with_degrees, random_update_stream

ALL_MODES = ("plain", "base", "zipf")

# mean pruning-power differences below this are ties at desk scale: the
# label filter dominates the full-pipeline metric and is mode-invariant, leaving
# mode differences of a few 1e-4 with unstable sign, while any genuine
# regression of a mode shows up in whole percentage points
PP_TIE_TOLERANCE = 0.005


def report(num: int, text: str) -> None:
    print(f"\n[criterion {num:2d}] PASS  {text}")


def queries_sized_4_to_6(g, seed):
    out = []
    for size, count in ((4, 7), (5, 7), (6, 6)):
        out.extend(sample_queries(g, count, size, 2.5, seed=seed * 1000 + size))
    return out


# -- criteria 1 and 5: exactness and no false dismissals -----------------------


@pytest.mark.slow
def test_c01_c05_full_stream_exactness_and_no_false_dismissal():
    """After every update on every stream, the engine's answer sets equal
    brute-force recompute, and every oracle match image passes the synopsis
    scan for its query vertex (10 seeds x insert-only and delete-only)."""
    t0 = time.perf_counter()
    divergences = 0
    scan_misses = 0
    updates = 0
    for seed in range(1, 11):
        for kind in ("insert", "delete"):
            cfg = BenchConfig(
                n_vertices=200,
                alphabet=5,
                avg_deg=5.0,
                insertion_rate=0.1 if kind == "insert" else 0.0,
                deletion_rate=0.1 if kind == "delete" else 0.0,
                master_seed=seed,
            )
            g = cfg.make_graph()
            g0, stream = cfg.make_split(g)
            queries = queries_sized_4_to_6(g, seed)
            assert len(queries) == 20
            ecfg = cfg.embedding_config()
            engine = MatchEngine(g0.copy(), ecfg)
            embeds = {}
            for i, q in enumerate(queries):
                engine.register(f"q{i}", q)
                embeds[i] = embed_query(q, ecfg)
            for op in stream:
                engine.process_update(op)
                updates += 1
                for i, q in enumerate(queries):
                    want = enumerate_matches(engine.graph, q)
                    got = engine.queries[f"q{i}"].answers.mappings()
                    if got != want:
                        divergences += 1
                    if not want:
                        continue
                    for pos, qi in enumerate(q.vertex_order):
                        cands, _ = engine.index.scan_for_degree(
                            embeds[i][qi], q.degree(qi), q.labels[qi]
                        )
                        if not {m[pos] for m in want} <= set(cands):
                            scan_misses += 1
    elapsed = time.perf_counter() - t0
    assert divergences == 0
    assert scan_misses == 0
    assert elapsed < 300.0
    report(1, f"exact after all {updates} updates (10 seeds x 2 stream kinds, "
              f"20 queries each) in {elapsed:.1f}s")
    report(5, f"zero scan misses across the same runs ({updates} updates)")


# -- criterion 2: dominance of every star substructure --------------------------


def test_c02_star_substructure_dominance_exhaustive():
    """For every vertex of degree <= 10 in a 300-vertex random graph, every
    one of its 2^deg star substructures embeds dominated by the unit star,
    under all three modes."""
    from dsmatch.embedding import embed_vertex

    g = small_world(n=300, avg_deg=5.0, alphabet=8, seed=12)
    checked = 0
    for mode in ALL_MODES:
        cfg = EmbeddingConfig(d=2, mode=mode)
        for v in g.vertices():
            deg = g.degree(v)
            if not 1 <= deg <= 10:
                continue
            full = embed_vertex(g, v, cfg)
            lbl = g.labels[v]
            bare = compose(label_vector(lbl, cfg), (0.0,) * cfg.d, lbl, cfg)
            assert dominates(bare, full)  # the zero-leaf substructure
            checked += 1
            for delta in range(1, deg + 1):
                for sub in star_subset_embeddings(g, v, delta, cfg):
                    assert dominates(sub, full)
                    checked += 1
    report(2, f"{checked} substructure embeddings dominated, 3 modes, zero violations")


# -- criterion 3: per-degree box exactness ---------------------------------------


def test_c03_box_bounds_equal_enumeration():
    """Histogram boxes equal exhaustive substructure-enumeration bounds
    componentwise within 1e-9, for deg <= 10 and every delta, 5 graphs."""
    checked = 0
    for seed in range(1, 6):
        g = small_world(n=150, avg_deg=5.0, alphabet=6, seed=seed)
        for mode in ALL_MODES:
            cfg = EmbeddingConfig(d=2, mode=mode)
            store = NeighborListStore.build(g, cfg)
            dims = 2 * cfg.d
            for v in g.vertices():
                deg = g.degree(v)
                if not 1 <= deg <= 10:
                    continue
                for delta in range(1, deg + 1):
                    box = store.mbr(v, delta)
                    vecs = star_subset_embeddings(g, v, delta, cfg)
                    for j in range(dims):
                        lo = min(vec[j] for vec in vecs)
                        hi = max(vec[j] for vec in vecs)
                        assert abs(box.low[j] - lo) <= 1e-9
                        assert abs(box.high[j] - hi) <= 1e-9
                    checked += 1
    report(3, f"{checked} (vertex, delta) boxes equal enumeration bounds within 1e-9")


# -- criterion 4: incremental maintenance equals rebuild --------------------------


def test_c04_maintenance_equals_rebuild_after_1000_updates():
    """After 1,000 mixed random updates the maintained histograms, sums, and
    synopsis entries match a from-scratch build (entries exact, floats
    within 1e-9)."""
    from dsmatch.embedding import neighbor_sum

    cfg = EmbeddingConfig(d=2, mode="zipf")
    g = small_world(n=200, avg_deg=5.0, alphabet=6, seed=33)
    index = SynopsisIndex.build(g, compute_degree_groups(g, 3), cfg, 5)
    ops = random_update_stream(g, 1000, seed=77, alphabet=6)
    assert len(ops) == 1000
    for op in ops:
        g.apply_update(op)
        index.maintain(op)
    rebuilt = SynopsisIndex.build(g, index.groups, cfg, index.k_cells, domain=index.domain)
    assert index.snapshot() == rebuilt.snapshot()  # entry sets and histograms exact
    worst = 0.0
    for v in g.vertices():
        got = index.lists.neighbor_sum(v)
        want = neighbor_sum(g, v, cfg)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
    assert worst <= 1e-9
    report(4, f"1000 mixed updates: snapshot identical to rebuild, "
              f"max neighbor-sum drift {worst:.2e}")


# -- criterion 6: pruning power and mode ordering ----------------------------------


@pytest.mark.slow
def test_c06_pruning_power_and_mode_ordering():
    """On the default synthetic Zipf-labeled configuration at |V| = 10K
    (5 seeds x 20 queries): the zipf mode's mean pruning power is >= 0.80,
    the mode ordering zipf >= base >= plain holds on mean pruning power up
    to the documented tie tolerance, and holds strictly on the
    dominance-only pruning power that the embedding designs compete on."""
    pp = {m: [] for m in ALL_MODES}
    dom_pp = {m: [] for m in ALL_MODES}
    for seed in (1, 2, 3, 4, 5):
        cfg = BenchConfig(
            n_vertices=10_000, alphabet=15, label_dist="zipf",
            query_count=20, query_size=8, master_seed=seed,
        )
        g = cfg.make_graph()
        queries = cfg.make_queries(g)
        groups = compute_degree_groups(g, 3)
        for mode in ALL_MODES:
            ecfg = EmbeddingConfig(d=2, alpha=0.1, beta=100.0, mode=mode)
            index = SynopsisIndex.build(g, groups, ecfg, 5)
            for q in queries:
                embeds = embed_query(q, ecfg)
                for qi in q.vertex_order:
                    _, s = index.scan_for_degree(embeds[qi], q.degree(qi), q.labels[qi])
                    pp[mode].append(s.pruning_power)
                    dom_pp[mode].append(s.dominance_pruning_power)
    mean = lambda xs: sum(xs) / len(xs)
    pp_mean = {m: mean(v) for m, v in pp.items()}
    dom_mean = {m: mean(v) for m, v in dom_pp.items()}

    assert pp_mean["zipf"] >= 0.80
    # full-pipeline metric: ordering up to ties
    assert pp_mean["zipf"] >= pp_mean["base"] - PP_TIE_TOLERANCE
    assert pp_mean["base"] >= pp_mean["plain"] - PP_TIE_TOLERANCE
    # dominance-only metric: strict ordering with real margins
    assert dom_mean["zipf"] >= dom_mean["base"] >= dom_mean["plain"]
    assert dom_mean["zipf"] - dom_mean["plain"] > 0.05
    report(6, "mean pruning power "
              + " ".join(f"{m}={pp_mean[m]:.4f}" for m in ALL_MODES)
              + " | dominance-only "
              + " ".join(f"{m}={dom_mean[m]:.4f}" for m in ALL_MODES))


# -- criterion 7: incremental speedup ------------------------------------------------


@pytest.mark.slow
def test_c07_incremental_speedup_over_naive_recompute():
    """|V| = 10K with a 10% insertion stream: total engine time at least
    10x below per-update full recompute with the brute-force enumerator."""
    cfg = BenchConfig(
        n_vertices=10_000, alphabet=15, label_dist="zipf",
        query_count=3, query_size=4, query_avg_deg=2.0,
        insertion_rate=0.1, master_seed=2,
    )
    g = cfg.make_graph()
    g0, stream = cfg.make_split(g)
    queries = cfg.make_queries(g)
    engine_metrics, _ = run_engine(g0, stream, queries, cfg.embedding_config())
    naive_metrics = run_naive(g0, stream, queries)
    assert engine_metrics.final_answers == naive_metrics.final_answers
    ratio = naive_metrics.total_seconds / engine_metrics.total_seconds
    assert ratio >= 10.0
    report(7, f"{len(stream)} inserts, 3 queries: engine "
              f"{engine_metrics.total_seconds:.2f}s vs naive "
              f"{naive_metrics.total_seconds:.2f}s ({ratio:.0f}x)")


# -- criterion 8: degree grouping balance ---------------------------------------------


def test_c08_grouping_balance_on_powerlaw_multisets():
    """Over 100 random power-law-ish degree multisets, bucket vertex masses
    differ by at most the largest single-degree frequency."""
    rng = Rng(99)
    for trial in range(100):
        n = rng.randint(30, 300)
        degrees = [min(max(1, int((1.0 - rng.random()) ** -0.7)), 40) for _ in range(n)]
        g = graph_with_degrees(degrees)
        all_degrees = [g.degree(v) for v in g.vertices() if g.degree(v) >= 1]
        freq = {}
        for d in all_degrees:
            freq[d] = freq.get(d, 0) + 1
        m = rng.randint(1, 5)
        groups = compute_degree_groups(g, m)
        masses = [0] * groups.m
        for d in all_degrees:
            masses[groups.group_of(d)] += 1
        assert max(masses) - min(masses) <= max(freq.values()), (
            f"trial {trial}: masses {masses}, max freq {max(freq.values())}"
        )
    report(8, "100 power-law multisets: bucket masses within the largest "
              "single-degree frequency")


# -- criterion 9: cost model sanity -----------------------------------------------------


def test_c09_cost_model_sanity():
    """Phi symmetry below 1e-12, estimate monotonicity, and Spearman rank
    correlation >= 0.5 between estimates and measured pre-box candidate
    counts (500-vertex graph, 50 query vertices)."""
    from scipy.stats import spearmanr

    rng = Rng(5)
    for _ in range(200):
        x = (rng.random() - 0.5) * 16
        assert abs(normal_cdf(x) + normal_cdf(-x) - 1.0) < 1e-12

    g = small_world(n=500, avg_deg=5.0, alphabet=8, label_dist="zipf", seed=5)
    cfg = EmbeddingConfig(d=2, mode="zipf")
    index = SynopsisIndex.build(g, compute_degree_groups(g, 3), cfg, 5)
    stats = collect_stats(index.embedding_of(v) for v in g.vertices())

    # monotonicity: bumping any query coordinate never raises the estimate
    base_embed = stats.mean
    base_est = estimate_cost(base_embed, stats, g.num_vertices).estimate
    for j in range(4):
        for bump in (0.01, 1.0, 50.0):
            bumped = list(base_embed)
            bumped[j] += bump
            assert estimate_cost(tuple(bumped), stats, g.num_vertices).estimate \
                <= base_est + 1e-12

    estimates, measured = [], []
    queries = sample_queries(g, 13, 4, 2.0, seed=6)
    for q in queries:
        embeds = embed_query(q, cfg)
        for qi in q.vertex_order:
            if len(estimates) >= 50:
                break
            _, s = index.scan_for_degree(embeds[qi], q.degree(qi), q.labels[qi])
            estimates.append(estimate_cost(embeds[qi], stats, g.num_vertices).estimate)
            measured.append(s.survivors + s.pruned_box)
    assert len(estimates) == 50
    rho = spearmanr(estimates, measured).statistic
    assert rho >= 0.5
    report(9, f"phi symmetric, estimate monotone, spearman rho = {rho:.3f}")


# -- criterion 10: the collaboration-network example -------------------------------------


def test_c10_collaboration_example_via_engine():
    """The four-role ring pattern over the seven-person network: two teams
    after the insert at t=1, one after the delete at t=2."""
    g0, query, stream = collaboration_example()
    engine = MatchEngine(g0.copy(), EmbeddingConfig(d=2, mode="zipf"))
    rq = engine.register("teams", query)
    assert len(rq.answers) == 1
    engine.process_update(stream[0])
    assert len(rq.answers) == 2
    assert rq.answers.mappings() == enumerate_matches(engine.graph, query)
    engine.process_update(stream[1])
    assert len(rq.answers) == 1
    assert rq.answers.mappings() == enumerate_matches(engine.graph, query)
    report(10, "2 matches after the t=1 insert, 1 after the t=2 delete")
