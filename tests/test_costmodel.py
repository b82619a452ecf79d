import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmatch.costmodel import (
    DimStats,
    collect_stats,
    estimate_cost,
    normal_cdf,
)
from dsmatch.embedding import EmbeddingConfig
from dsmatch.errors import TooFewVertices

from conftest import small_world


def test_collect_stats_two_points():
    stats = collect_stats([(0.0, 0.0), (2.0, 2.0)])
    assert stats.mean == (1.0, 1.0)
    assert stats.variance == (2.0, 2.0)  # unbiased, n-1 divisor
    assert stats.count == 2


def test_collect_stats_identical_points():
    stats = collect_stats([(1.5, 2.5)] * 10)
    assert stats.variance == (0.0, 0.0)


def test_collect_stats_too_few():
    with pytest.raises(TooFewVertices):
        collect_stats([(1.0,)])


def test_phi_symmetry():
    for x in (-7.5, -2.0, -0.3, 0.0, 0.7, 3.1, 9.0):
        assert abs(normal_cdf(x) + normal_cdf(-x) - 1.0) < 1e-12
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)


def test_estimate_at_the_mean():
    stats = DimStats(mean=(1.0, 1.0, 1.0, 1.0), variance=(0.5, 0.5, 0.5, 0.5), count=10)
    est = estimate_cost((1.0, 1.0, 1.0, 1.0), stats, 160)
    assert est.factors == pytest.approx((0.5,) * 4)
    assert est.estimate == pytest.approx(160 / 16)


def test_estimate_far_tail_vanishes():
    stats = DimStats(mean=(1.0,), variance=(0.25,), count=10)
    est = estimate_cost((1e6,), stats, 1000)
    assert est.estimate == pytest.approx(0.0, abs=1e-30)
    assert est.factors[0] == pytest.approx(0.0, abs=1e-30)


def test_estimate_point_mass_dimension():
    stats = DimStats(mean=(1.0, 2.0), variance=(0.0, 1.0), count=5)
    below = estimate_cost((0.5, 2.0), stats, 100)
    above = estimate_cost((1.5, 2.0), stats, 100)
    assert below.factors[0] == 1.0
    assert above.factors[0] == 0.0 and above.estimate == 0.0


def test_variance_vs_std_divisor():
    # the verbatim form divides by the variance (4), not the standard
    # deviation (2), which would give normal_cdf(-0.5)
    stats = DimStats(mean=(1.0,), variance=(4.0,), count=10)
    verbatim = estimate_cost((2.0,), stats, 100)
    assert verbatim.factors[0] == pytest.approx(normal_cdf(-0.25))


@given(
    st.lists(st.floats(0.0, 50.0), min_size=4, max_size=4),
    st.integers(0, 3),
    st.floats(0.01, 5.0),
)
@settings(max_examples=150)
def test_estimate_monotone_in_query_embedding(q, dim, bump):
    stats = DimStats(
        mean=(10.0, 20.0, 10.0, 20.0), variance=(3.0, 5.0, 3.0, 5.0), count=100
    )
    base = estimate_cost(tuple(q), stats, 1000)
    bumped = list(q)
    bumped[dim] += bump
    higher = estimate_cost(tuple(bumped), stats, 1000)
    assert higher.estimate <= base.estimate + 1e-12
    assert 0.0 <= base.estimate <= 1000.0


def test_zipf_mode_population_has_lower_means():
    # embedding-space statistics: the skewed mode's concat dimensions sit
    # lower than the uniform mode's on the same graph (>= 95% of dims,
    # several seeds)
    from dsmatch.embedding import embed_vertex

    wins = total = 0
    for seed in range(20):
        g = small_world(n=150, avg_deg=5.0, alphabet=8, label_dist="zipf", seed=seed)
        means = {}
        for mode in ("base", "zipf"):
            cfg = EmbeddingConfig(d=2, mode=mode)
            stats = collect_stats(embed_vertex(g, v, cfg) for v in g.vertices())
            means[mode] = stats.mean
        # beta*z is distributed identically across modes, so lower means in
        # the zipf mode come entirely from the alpha-scaled concat term
        for j in range(4):
            total += 1
            if means["zipf"][j] < means["base"][j]:
                wins += 1
    assert wins / total >= 0.95
