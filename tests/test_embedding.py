import hashlib
import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmatch.embedding import (
    EmbeddingConfig,
    ZipfTable,
    base_vector,
    compose,
    dominates,
    embedding_key,
    embed_vertex,
    label_vector,
    neighbor_sum,
    seeded_zipf_draw,
)
from dsmatch.errors import DimensionMismatch, InvalidParams, UnknownVertex
from dsmatch.rng import mix_words, unit_open_closed

from conftest import make_graph, small_world


def test_config_validation():
    with pytest.raises(ValueError):
        EmbeddingConfig(d=0)
    # nan passes every ordered comparison, so it needs its own check
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParams, match="finite"):
            EmbeddingConfig(alpha=bad)
    with pytest.raises(ValueError):
        EmbeddingConfig(mode="base", alpha=50.0)  # ratio below 10
    with pytest.raises(InvalidParams):
        EmbeddingConfig(d=0)
    EmbeddingConfig(mode="plain", alpha=50.0)  # ratio unconstrained


@pytest.mark.parametrize("bad", ["x", "0.1", None, True, False, 0.1j, (0.1,)])
def test_config_rejects_an_alpha_that_is_not_a_real_number(bad):
    # alpha="x" and alpha=None once raised a bare TypeError, and
    # alpha=True built a config with alpha 1
    with pytest.raises(InvalidParams, match="alpha must be a real number"):
        EmbeddingConfig(alpha=bad)


@pytest.mark.parametrize("bad, says", [(0, "positive"), (-1.0, "positive"), (50, "beta/alpha")])
def test_config_keeps_its_out_of_range_alpha_messages(bad, says):
    with pytest.raises(InvalidParams, match=says):
        EmbeddingConfig(alpha=bad)
    assert EmbeddingConfig(alpha=1).alpha == 1  # an int is a real number


@pytest.mark.parametrize("field, says", [("d", "d must be >= 1"), ("seed_salt", "must be an int")])
@pytest.mark.parametrize("bad", [2.0, 1.5, True, False, "2", None])
def test_config_rejects_a_non_int_d_or_seed_salt(field, says, bad):
    # d=2.0 once built and then failed in the engine with a bare TypeError,
    # d=True acted as d=1, and seed_salt=1.5 raised in the mixer
    with pytest.raises(InvalidParams, match=says):
        EmbeddingConfig(**{field: bad})


def test_zipf_rank_takes_zero_and_draw_reads_it():
    # Rng.random() is in [0, 1): rank takes 0, draw keeps its (0, 1] domain
    table = ZipfTable(1.0, 5)
    assert table.rank(0.0) == 1
    assert table.rank(1.0) == 5
    for u in (1e-9, 0.3, 0.5, 0.77, 1.0):
        assert table.draw(u) == table.rank(u) / 5
    with pytest.raises(ValueError):
        table.draw(0.0)


# -- label vectors ---------------------------------------------------------


def test_label_vector_deterministic(any_mode_cfg):
    assert label_vector(7, any_mode_cfg) == label_vector(7, any_mode_cfg)


def test_label_vector_range_and_arity():
    cfg = EmbeddingConfig(d=5, mode="plain")
    v = label_vector(123, cfg)
    assert len(v) == 5
    assert all(0.0 < x <= 1.0 for x in v)


def test_label_vector_collisions_absent():
    cfg = EmbeddingConfig(d=2, mode="plain")
    vecs = [label_vector(lbl, cfg) for lbl in range(1000)]
    for i in range(0, 1000, 7):
        for j in range(i + 1, min(i + 8, 1000)):
            assert vecs[i] != vecs[j]
    assert len(set(vecs)) == 1000


def test_label_vector_golden_regression():
    # frozen reference output of the documented mixer; a change here means
    # every persisted synopsis/answer ordering in the wild changes too.
    # plain and base keep the top 20 bits of the mixed word: 525882 and
    # 587839 of 2^20, plus one
    cfg = EmbeddingConfig(d=2, mode="plain", seed_salt=0)
    assert label_vector(7, cfg) == (525883 / 2 ** 20, 587840 / 2 ** 20)
    assert label_vector(7, EmbeddingConfig(d=2, mode="base", seed_salt=0)) == label_vector(7, cfg)
    czipf = EmbeddingConfig(d=2, mode="zipf", seed_salt=0)
    assert label_vector(7, czipf) == (0.0068359375, 0.009765625)


def test_zipf_label_vectors_golden_digest():
    # one SHA-256 over 40,000 zipf-mode label vectors: every Zipf draw
    # they make must keep its exact value
    h = hashlib.sha256()
    for d in (2, 3):
        for salt in (0, 1):
            cfg = EmbeddingConfig(d=d, mode="zipf", seed_salt=salt)
            for label in range(10_000):
                h.update(repr(label_vector(label, cfg)).encode())
    assert h.hexdigest() == "bfeffe9ab024fe4541b8317b8da73d629c39f9fbc74d8cb9773434dfd10febbb"


def test_label_vector_components_sit_on_a_binary_grid(any_mode_cfg):
    # multiples of 2^-10 (zipf) or 2^-20 (plain, base) in (0, 1]: neighbor
    # sums below degree 2^33 are then exact in any order
    grid = 2.0 ** (10 if any_mode_cfg.mode == "zipf" else 20)
    for d in (1, 3):
        cfg = EmbeddingConfig(d=d, mode=any_mode_cfg.mode)
        for label in range(2000):
            assert all(0 < c <= 1 and (c * grid).is_integer() for c in label_vector(label, cfg))


def test_neighbor_sum_is_exact_in_any_order(any_mode_cfg):
    # a star of 3,000 leaves over 40 labels, summed in its own order, in
    # ascending and descending neighbor id, and correctly rounded by fsum
    labels = {0: 0, **{i: (i * 7) % 40 for i in range(1, 3001)}}
    g = make_graph([(0, i) for i in range(1, 3001)], labels)
    vecs = [label_vector(labels[i], any_mode_cfg) for i in range(1, 3001)]
    want = tuple(math.fsum(x[k] for x in vecs) for k in range(2))
    for order in (vecs, vecs[::-1]):
        acc = [0.0, 0.0]
        for x in order:
            acc = [a + c for a, c in zip(acc, x)]
        assert tuple(acc) == want
    assert neighbor_sum(g, 0, any_mode_cfg) == want


def test_salt_changes_vectors():
    a = label_vector(7, EmbeddingConfig(mode="plain", seed_salt=0))
    b = label_vector(7, EmbeddingConfig(mode="plain", seed_salt=1))
    assert a != b


# -- seeded zipf draws -------------------------------------------------------


def test_zipf_single_bucket_is_inverse_cdf():
    table = ZipfTable(1.2, 64)
    # independent inverse-CDF oracle
    weights = [r ** -1.2 for r in range(1, 65)]
    total = sum(weights)

    def inverse_cdf(u):
        acc = 0.0
        for rank, w in enumerate(weights, start=1):
            acc += w / total
            if u <= acc + 1e-15:
                return rank / 64
        return 1.0

    for seed in range(500):
        u = unit_open_closed(mix_words(seed))
        assert table.draw(u) == pytest.approx(inverse_cdf(u), abs=1e-12)


def test_zipf_low_mean_high_variance():
    n = 100_000
    zipf = [seeded_zipf_draw(i) for i in range(n)]
    uni = [unit_open_closed(mix_words(i)) for i in range(n)]
    assert statistics.fmean(zipf) < statistics.fmean(uni)
    rel_var = lambda xs: statistics.variance(xs) / statistics.fmean(xs) ** 2
    assert rel_var(zipf) > rel_var(uni)


@pytest.mark.slow
def test_zipf_small_exponent_approaches_uniform():
    from scipy.stats import kstest

    table = ZipfTable(0.01, 1024)
    draws = [table.draw(unit_open_closed(mix_words(i))) for i in range(100_000)]
    stat = kstest(draws, "uniform").statistic
    assert stat < 0.02


# -- neighbor sums -----------------------------------------------------------


def test_neighbor_sum_isolated_vertex(any_mode_cfg):
    g = make_graph([], {0: 3})
    assert neighbor_sum(g, 0, any_mode_cfg) == (0.0, 0.0)


def test_neighbor_sum_two_equal_labels(any_mode_cfg):
    g = make_graph([(0, 1), (0, 2)], {0: 9, 1: 4, 2: 4})
    x = label_vector(4, any_mode_cfg)
    assert neighbor_sum(g, 0, any_mode_cfg) == tuple(2 * c for c in x)


def test_neighbor_sum_star_matches_direct_sum(any_mode_cfg):
    g = make_graph([(0, 1), (0, 2), (0, 3)], {0: 0, 1: 5, 2: 6, 3: 7})
    want = [0.0, 0.0]
    for lbl in (5, 6, 7):  # ascending neighbor-id order
        x = label_vector(lbl, any_mode_cfg)
        want = [a + b for a, b in zip(want, x)]
    assert neighbor_sum(g, 0, any_mode_cfg) == tuple(want)
    with pytest.raises(UnknownVertex):
        neighbor_sum(g, 99, any_mode_cfg)


# -- composition -------------------------------------------------------------


def test_compose_plain_is_concatenation():
    cfg = EmbeddingConfig(d=2, mode="plain")
    assert compose((1.0, 2.0), (3.0, 4.0), 0, cfg) == (1.0, 2.0, 3.0, 4.0)


def test_compose_base_affine():
    cfg = EmbeddingConfig(d=2, mode="base", alpha=0.01)
    z = base_vector(5, cfg)
    x, y = (0.5, 0.5), (1.0, 2.0)
    got = compose(x, y, 5, cfg)
    concat = x + y
    for j in range(4):
        assert got[j] == pytest.approx(0.01 * concat[j] + 100.0 * z[j], abs=1e-12)
        # the concat term stays within 1% of the scaled base point
        assert abs(got[j] - 100.0 * z[j]) <= 0.01 * concat[j] + 1e-12


def test_compose_degenerate_alpha_scaling():
    # alpha -> tiny makes the embedding indistinguishable from beta * z
    cfg = EmbeddingConfig(d=2, mode="base", alpha=1e-12)
    z = base_vector(3, cfg)
    got = compose((1.0, 1.0), (5.0, 5.0), 3, cfg)
    for j in range(4):
        assert got[j] == pytest.approx(100.0 * z[j], rel=1e-9)


def test_base_vector_l1_normalized(any_mode_cfg):
    for lbl in range(50):
        z = base_vector(lbl, any_mode_cfg)
        assert len(z) == 4
        assert all(c > 0 for c in z)
        assert abs(sum(z) - 1.0) <= 1e-12
    assert base_vector(11, any_mode_cfg) == base_vector(11, any_mode_cfg)


def test_base_vector_symmetric_normalization():
    # normalization itself: four equal raws map to the barycenter
    raw = (1.0, 1.0, 1.0, 1.0)
    total = sum(raw)
    assert tuple(x / total for x in raw) == (0.25, 0.25, 0.25, 0.25)


# -- dominance and keys -------------------------------------------------------


def test_dominates_reflexive_and_incomparable():
    assert dominates((1.0, 2.0), (1.0, 2.0))
    assert not dominates((1.0, 2.0), (2.0, 1.0))
    assert not dominates((2.0, 1.0), (1.0, 2.0))
    with pytest.raises(DimensionMismatch):
        dominates((1.0,), (1.0, 2.0))


def test_star_substructures_dominated_exhaustively(any_mode_cfg):
    # every leaf subset of a degree-6 star vs the full star: 64 cases
    from itertools import combinations

    labels = {0: 0, **{i: i % 3 for i in range(1, 7)}}
    g = make_graph([(0, i) for i in range(1, 7)], labels)
    full = embed_vertex(g, 0, any_mode_cfg)
    x = label_vector(0, any_mode_cfg)
    nbrs = g.neighbors(0)
    count = 0
    for r in range(0, 7):
        for subset in combinations(nbrs, r):
            acc = [0.0, 0.0]
            for n in subset:
                xs = label_vector(g.labels[n], any_mode_cfg)
                acc = [a + b for a, b in zip(acc, xs)]
            sub = compose(x, tuple(acc), 0, any_mode_cfg)
            assert dominates(sub, full)
            count += 1
    assert count == 64


def test_key_examples():
    assert embedding_key((0.0, 0.0, 0.0)) == 0.0
    assert embedding_key((3.0, 4.0)) == 25.0


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=6),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=6, max_size=6),
)
@settings(max_examples=200)
def test_key_monotone_under_dominance(base, deltas):
    a = tuple(base)
    b = tuple(x + d for x, d in zip(base, deltas))
    assert dominates(a, b)
    assert embedding_key(a) <= embedding_key(b)


def test_embeddings_bit_stable_across_processes():
    # recomputing in a clean subprocess must reproduce identical bits
    import subprocess
    import sys

    code = (
        "from dsmatch.embedding import EmbeddingConfig, label_vector, base_vector;"
        "cfg = EmbeddingConfig(d=3, mode='zipf', seed_salt=12345);"
        "print(repr(label_vector(42, cfg)));"
        "print(repr(base_vector(42, cfg)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    cfg = EmbeddingConfig(d=3, mode="zipf", seed_salt=12345)
    assert out[0] == repr(label_vector(42, cfg))
    assert out[1] == repr(base_vector(42, cfg))


def test_star_dominance_on_random_graph_all_modes():
    # substructure embeddings dominated by the unit star, graph-wide
    g = small_world(n=60, avg_deg=4.0, alphabet=4, seed=3)
    from dsmatch.oracle import star_subset_embeddings

    for mode in ("plain", "base", "zipf"):
        cfg = EmbeddingConfig(d=2, mode=mode)
        for v in g.vertices():
            deg = g.degree(v)
            if not 1 <= deg <= 8:
                continue
            full = embed_vertex(g, v, cfg)
            for delta in range(1, deg + 1):
                for sub in star_subset_embeddings(g, v, delta, cfg):
                    assert dominates(sub, full)
