"""Synthetic small-world graphs, update streams, and sampled queries.

Everything here is a pure function of its seed via the package mixer, so
two runs with equal parameters produce byte-identical files on any
platform.  Graphs follow the shortcut small-world construction: a ring
lattice where every vertex connects to its k nearest neighbors, plus a
random shortcut added with probability p per lattice edge (originals are
kept, so expected average degree is k * (1 + p)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .embedding import BETA, MODES, EmbeddingConfig, ZipfTable, is_real
from .errors import InvalidParams, InvalidRate, Unsatisfiable
from .graph import DELETE, INSERT, DynamicGraph, UpdateOp
from .matcher import QueryGraph
from .rng import Rng, derive_seed
from .synopsis import K_CELLS, M_GROUPS

LABEL_UNIFORM = "uniform"
LABEL_GAUSSIAN = "gaussian"
LABEL_ZIPF = "zipf"
LABEL_DISTRIBUTIONS = (LABEL_UNIFORM, LABEL_GAUSSIAN, LABEL_ZIPF)

# label ranks are drawn on [1, alphabet] then stored 0-based
_ZIPF_LABEL_EXPONENT = 1.0

# sub-stream tags for deriving child seeds from a master seed
_SEED_GRAPH = 1
_SEED_STREAM = 2
_SEED_QUERIES = 3


def ring_params_for_avg_degree(avg_deg: float) -> tuple[int, float]:
    """(k, p) hitting a target average degree, since avg = k * (1 + p)."""
    if not 2 <= avg_deg < math.inf:
        raise InvalidParams(f"average degree must be finite and >= 2, got {avg_deg}")
    k = 2 * int(avg_deg // 2)
    return k, (avg_deg - k) / k


class _LabelSampler:
    """Draws 0-based labels from one of the three supported distributions."""

    def __init__(self, dist: str, alphabet: int, rng: Rng):
        if dist not in LABEL_DISTRIBUTIONS:
            raise InvalidParams(f"unknown label distribution {dist!r}")
        if alphabet < 1:
            raise InvalidParams(f"alphabet size must be >= 1, got {alphabet}")
        self.dist = dist
        self.alphabet = alphabet
        self.rng = rng
        if dist == LABEL_ZIPF:
            self._zipf = ZipfTable(_ZIPF_LABEL_EXPONENT, alphabet)

    def draw(self) -> int:
        if self.dist == LABEL_UNIFORM:
            return self.rng.randint(1, self.alphabet) - 1
        if self.dist == LABEL_GAUSSIAN:
            # truncated to [1, alphabet], mean centered, std alphabet/6
            mean = (self.alphabet + 1) / 2
            std = self.alphabet / 6
            rank = round(self.rng.gauss(mean, std))
            return min(max(rank, 1), self.alphabet) - 1
        return self._zipf.rank(self.rng.random()) - 1


def generate_graph(
    n: int,
    ring_k: int,
    shortcut_p: float,
    alphabet: int,
    label_dist: str = LABEL_UNIFORM,
    seed: int = 0,
) -> DynamicGraph:
    """Connected small-world graph with labels drawn per ``label_dist``."""
    if ring_k < 2 or ring_k % 2 != 0:
        raise InvalidParams(f"ring_k must be even and >= 2, got {ring_k}")
    if n < ring_k + 1:
        raise InvalidParams(f"need n >= ring_k + 1, got n={n}, ring_k={ring_k}")
    if not 0.0 <= shortcut_p <= 1.0:
        raise InvalidParams(f"shortcut_p must be in [0, 1], got {shortcut_p}")
    rng = Rng(seed)
    sampler = _LabelSampler(label_dist, alphabet, rng)
    g = DynamicGraph()
    for v in range(n):
        g.add_vertex(v, sampler.draw())
    lattice = [
        (u, (u + j) % n) for u in range(n) for j in range(1, ring_k // 2 + 1)
    ]
    for u, v in lattice:
        if not g.has_edge(u, v):
            g.add_edge(u, v)
    for u, _ in lattice:
        if rng.random() < shortcut_p:
            for _attempt in range(4 * n):
                w = rng.randint(0, n - 1)
                if w != u and not g.has_edge(u, w):
                    g.add_edge(u, w)
                    break
            # a saturated vertex simply gets no shortcut
    return g


def split_stream(
    g: DynamicGraph,
    insertion_rate: float,
    deletion_rate: float,
    seed: int = 0,
) -> tuple[DynamicGraph, list[UpdateOp]]:
    """Carve an update stream out of a finished graph.

    Insertion mode removes a random slice of edges from the initial graph
    and replays them as inserts (labels attached so endpoints that start
    isolated still carry them); deletion mode keeps the full graph and
    emits deletes.  At most one rate may be nonzero, both in [0, 0.5].
    """
    for rate in (insertion_rate, deletion_rate):
        if not 0.0 <= rate <= 0.5:
            raise InvalidRate(f"rate {rate} outside [0, 0.5]")
    if insertion_rate > 0 and deletion_rate > 0:
        raise InvalidRate("insertion and deletion rates are mutually exclusive")
    rng = Rng(seed)
    edges = list(g.edges())
    if insertion_rate > 0:
        count = round(insertion_rate * len(edges))
        picked = rng.sample(edges, count)
        g0 = g.copy()
        for u, v in picked:
            g0.remove_edge(u, v)
        ops = [
            UpdateOp(INSERT, u, v, g.labels[u], g.labels[v], timestamp=i + 1)
            for i, (u, v) in enumerate(picked)
        ]
        return g0, ops
    count = round(deletion_rate * len(edges))
    picked = rng.sample(edges, count)
    ops = [UpdateOp(DELETE, u, v, timestamp=i + 1) for i, (u, v) in enumerate(picked)]
    return g.copy(), ops


def sample_queries(
    g: DynamicGraph,
    count: int,
    size: int,
    avg_deg: float,
    seed: int = 0,
) -> list[QueryGraph]:
    """Connected subgraphs of g as query patterns, relabeled to ids 0..size-1.

    Each query grows a connected vertex set by random frontier expansion,
    then keeps a spanning tree of the induced edges plus random extras up
    to the target edge count round(avg_deg * size / 2).  Every query is a
    (non-induced) subgraph of g, so it has at least one match at sampling
    time by construction.
    """
    if size < 2:
        raise InvalidParams(f"query size must be >= 2, got {size}")
    if not math.isfinite(avg_deg):
        raise InvalidParams(f"query average degree must be finite, got {avg_deg}")
    rng = Rng(seed)
    starts = sorted(v for v in g.vertices() if g.degree(v) >= 1)
    if not starts:
        raise Unsatisfiable("graph has no edges to sample from")
    queries = []
    for _ in range(count):
        chosen = _grow_connected(g, starts, size, rng)
        queries.append(_thin_edges(g, chosen, avg_deg, rng))
    return queries


def _grow_connected(
    g: DynamicGraph, starts: list[int], size: int, rng: Rng
) -> list[int]:
    for _attempt in range(200):
        start = rng.choice(starts)
        chosen = [start]
        chosen_set = {start}
        frontier = set(g.neighbors(start))
        while len(chosen) < size and frontier:
            nxt = rng.choice(sorted(frontier))
            chosen.append(nxt)
            chosen_set.add(nxt)
            frontier |= g.neighbors(nxt)
            frontier -= chosen_set
        if len(chosen) == size:
            return chosen
    raise Unsatisfiable(f"no connected region of {size} vertices found")


def _thin_edges(
    g: DynamicGraph, chosen: list[int], avg_deg: float, rng: Rng
) -> QueryGraph:
    chosen_set = set(chosen)
    induced = sorted((u, v) for u in chosen for v in g.adj[u] & chosen_set if u < v)
    # spanning tree over the induced subgraph (connected by construction)
    tree = []
    seen = {chosen[0]}
    stack = [chosen[0]]
    while stack:
        u = stack.pop()
        for v in sorted(g.adj[u] & chosen_set):
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
    edges = [(relabel[u], relabel[v]) for u, v in keep]
    return QueryGraph(labels, edges)


@dataclass
class BenchConfig:
    """Knobs for one benchmark scenario, seed included.

    Embedding parameters mirror EmbeddingConfig; beta is the fixed
    ``embedding.BETA`` and ``beta_alpha_ratio`` derives alpha.  They, the
    degree groups and the grid cells shape only the grid view.  The
    ring lattice's k and shortcut probability are derived from ``avg_deg``.
    Each field is a CLI flag through ``SCENARIO_PARAMS``, which reads its
    default from here.
    """

    n_vertices: int = 50_000
    avg_deg: float = 5.0
    alphabet: int = 15
    label_dist: str = LABEL_UNIFORM
    d: int = EmbeddingConfig.d
    beta_alpha_ratio: float = 1000.0
    mode: str = EmbeddingConfig.mode
    m_groups: int = M_GROUPS
    k_cells: int = K_CELLS
    query_count: int = 100
    query_size: int = 8
    query_avg_deg: float = 3.0
    insertion_rate: float = 0.1
    deletion_rate: float = 0.0
    master_seed: int = 1
    seed_salt: int = EmbeddingConfig.seed_salt

    def embedding_config(self) -> EmbeddingConfig:
        ratio = self.beta_alpha_ratio
        if not is_real(ratio):
            raise InvalidParams(f"beta/alpha ratio must be a real number, got {ratio!r}")
        if not 0 < ratio < math.inf:
            raise InvalidParams(f"beta/alpha ratio must be positive and finite, got {ratio}")
        return EmbeddingConfig(
            d=self.d,
            alpha=BETA / ratio,
            mode=self.mode,
            seed_salt=self.seed_salt,
        )

    def make_graph(self) -> DynamicGraph:
        k, p = ring_params_for_avg_degree(self.avg_deg)
        return generate_graph(
            self.n_vertices,
            k,
            p,
            self.alphabet,
            self.label_dist,
            seed=derive_seed(self.master_seed, _SEED_GRAPH),
        )

    def make_split(self, g: DynamicGraph) -> tuple[DynamicGraph, list[UpdateOp]]:
        return split_stream(
            g,
            self.insertion_rate,
            self.deletion_rate,
            seed=derive_seed(self.master_seed, _SEED_STREAM),
        )

    def make_queries(self, g: DynamicGraph) -> list[QueryGraph]:
        return sample_queries(
            g,
            self.query_count,
            self.query_size,
            self.query_avg_deg,
            seed=derive_seed(self.master_seed, _SEED_QUERIES),
        )

    def make_inputs(self) -> tuple[DynamicGraph, DynamicGraph, list[UpdateOp], list[QueryGraph]]:
        """The scenario's (full graph, initial graph, stream, queries)."""
        full = self.make_graph()
        g0, stream = self.make_split(full)
        return full, g0, stream, self.make_queries(full)


class ScenarioParam(NamedTuple):
    """A scenario flag ``--<flag>`` setting BenchConfig's ``field``.

    ``kind`` is the flag's type, or its tuple of choices; ``sweep`` marks
    the numeric parameters the ``sweep`` subcommand may vary, and ``view``
    the grid view's parameters, which no engine path reads and only
    ``run`` offers, for its ``--dump-synopses`` file.
    """

    flag: str
    field: str
    kind: type | tuple[str, ...]
    help: str | None = None
    sweep: bool = False
    view: bool = False

    @property
    def dest(self) -> str:
        return self.flag.replace("-", "_")


# every scenario flag in CLI order; defaults are BenchConfig's
SCENARIO_PARAMS = (
    ScenarioParam("n", "n_vertices", int, "graph size |V|", sweep=True),
    ScenarioParam("avg-deg", "avg_deg", float, sweep=True),
    ScenarioParam("alphabet", "alphabet", int, "number of distinct labels", sweep=True),
    ScenarioParam("label-dist", "label_dist", LABEL_DISTRIBUTIONS),
    ScenarioParam("d", "d", int, "label-vector arity", view=True),
    ScenarioParam("ratio", "beta_alpha_ratio", float,
                  "beta/alpha ratio of the embedding relocation", view=True),
    ScenarioParam("mode", "mode", MODES, "embedding mode", view=True),
    ScenarioParam("m", "m_groups", int, "degree groups", view=True),
    ScenarioParam("k", "k_cells", int, "grid cells per dimension", view=True),
    ScenarioParam("query-count", "query_count", int),
    ScenarioParam("query-size", "query_size", int, sweep=True),
    ScenarioParam("query-avg-deg", "query_avg_deg", float, sweep=True),
    ScenarioParam("insertion-rate", "insertion_rate", float),
    ScenarioParam("deletion-rate", "deletion_rate", float),
    ScenarioParam("seed", "master_seed", int, "master seed"),
    ScenarioParam("salt", "seed_salt", int, "embedding seed salt", view=True),
)
