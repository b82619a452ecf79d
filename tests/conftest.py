import pytest

from dsmatch.embedding import EmbeddingConfig
from dsmatch.generate import generate_graph
from dsmatch.graph import DynamicGraph


def make_graph(pairs, labels):
    g = DynamicGraph()
    for v, lbl in labels.items():
        g.add_vertex(v, lbl)
    for u, v in pairs:
        g.add_edge(u, v)
    return g


def unpack(packed, n, w):
    """The n ints of a packed label column of w-byte fields
    (``synopsis.pack``); raises ``OverflowError`` on a wider column."""
    raw = packed.to_bytes(w * n, "little")
    return tuple(int.from_bytes(raw[i : i + w], "little") for i in range(0, w * n, w))


@pytest.fixture
def triangle():
    return make_graph([(0, 1), (1, 2), (0, 2)], {0: 0, 1: 1, 2: 2})


@pytest.fixture(params=["plain", "base", "zipf"])
def any_mode_cfg(request):
    return EmbeddingConfig(d=2, mode=request.param)


@pytest.fixture
def cfg_plain():
    return EmbeddingConfig(d=2, mode="plain")


@pytest.fixture
def cfg_base():
    return EmbeddingConfig(d=2, mode="base")


@pytest.fixture
def cfg_zipf():
    return EmbeddingConfig(d=2, mode="zipf")


def small_world(n=200, avg_deg=5.0, alphabet=5, label_dist="uniform", seed=7):
    from dsmatch.generate import ring_params_for_avg_degree

    k, p = ring_params_for_avg_degree(avg_deg)
    return generate_graph(n, k, p, alphabet, label_dist, seed=seed)
