"""Query registration, candidate retrieval, and exact answer maintenance.

A registered query keeps a live answer set: the exact set of injective,
label- and edge-preserving mappings of the query into the current graph
snapshot.  Answers are normalized as a tuple of data-vertex ids aligned
with the query's vertices in ascending id order, so answer sets from any
vertex ordering (or from the brute-force oracle) compare directly.

Every join is compiled once, at registration, into a :class:`JoinPlan`
that :func:`refine` executes.  Updates are routed by the edge's label pair:
an insertion seeds each query edge orientation filed under its endpoint
labels onto the new edge and completes it by refinement; a deletion probes
only the queries with an edge on its label pair, each once, and drops the
stored answers whose edge image contains the deleted edge, found through an
inverted edge index.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Iterator

from .embedding import EmbeddingConfig, Vec, embed_vertex
from .errors import InvalidParams
from .graph import DynamicGraph, INSERT, Label, UpdateOp, VertexId, load_graph
from .synopsis import (
    K_CELLS,
    M_GROUPS,
    DegreeGroups,
    NeighborListStore,
    ScanStats,
    SynopsisIndex,
    compute_degree_groups,
    dominated_within,  # unused here; kept importable for perfbench's tracer, which wraps it
)

Mapping = tuple[VertexId, ...]  # images aligned with QueryGraph.vertex_order
EdgeKey = tuple[VertexId, VertexId]  # data edge as (min, max)

_NO_ANSWERS: frozenset[Mapping] = frozenset()


class QueryGraph:
    """Connected undirected labeled pattern; every vertex has degree >= 1."""

    __slots__ = ("vertex_order", "labels", "adj", "edges", "index_of", "edge_index_pairs")

    def __init__(self, labels: dict[VertexId, Label], edges: Iterable[EdgeKey]):
        self.labels = dict(labels)
        self.adj: dict[VertexId, set[VertexId]] = {v: set() for v in self.labels}
        edge_set = set()
        for u, v in edges:
            if u == v:
                raise InvalidParams(f"query has a self-loop on vertex {u}")
            if u not in self.labels or v not in self.labels:
                raise InvalidParams(f"query edge ({u}, {v}) references an unlabeled vertex")
            edge_set.add((u, v) if u < v else (v, u))
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.edges: tuple[EdgeKey, ...] = tuple(sorted(edge_set))
        self.vertex_order: tuple[VertexId, ...] = tuple(sorted(self.labels))
        self.index_of = {q: i for i, q in enumerate(self.vertex_order)}
        self.edge_index_pairs = tuple(
            (self.index_of[u], self.index_of[v]) for u, v in self.edges
        )
        self._validate()

    def _validate(self) -> None:
        if len(self.vertex_order) < 2:
            raise InvalidParams("query needs at least two vertices")
        if any(not nbrs for nbrs in self.adj.values()):
            isolated = [v for v, nbrs in self.adj.items() if not nbrs]
            raise InvalidParams(f"query vertices {isolated} have degree 0")
        seen = {self.vertex_order[0]}
        frontier = [self.vertex_order[0]]
        while frontier:
            nxt = []
            for u in frontier:
                for w in self.adj[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        if len(seen) != len(self.vertex_order):
            raise InvalidParams("query graph is not connected")

    @classmethod
    def from_text(cls, text: str) -> "QueryGraph":
        g = load_graph(text)
        return cls(g.labels, g.edges())

    def __len__(self) -> int:
        return len(self.vertex_order)

    def degree(self, q: VertexId) -> int:
        return len(self.adj[q])

    def has_edge(self, a: VertexId, b: VertexId) -> bool:
        return b in self.adj[a]

    def to_text(self) -> str:
        out = [f"t {len(self.vertex_order)} {len(self.edges)}"]
        out.extend(f"v {v} {self.labels[v]}" for v in self.vertex_order)
        out.extend(f"e {u} {v}" for u, v in self.edges)
        return "\n".join(out) + "\n"


def embed_query(q: QueryGraph, cfg: EmbeddingConfig) -> dict[VertexId, Vec]:
    """Embed each query vertex exactly as a data vertex would be."""
    return {qi: embed_vertex(q, qi, cfg) for qi in q.vertex_order}


def make_plan(
    q: QueryGraph,
    cand_sizes: dict[VertexId, int],
    first: tuple[VertexId, VertexId] | None = None,
) -> tuple[VertexId, ...]:
    """Connected vertex ordering, greedily by smallest candidate set.

    Starts from the globally smallest candidate set (ties to the smallest
    id) and repeatedly appends the cheapest neighbor of the chosen prefix.
    ``first`` pins the two leading vertices (they must form a query edge),
    which the insertion path uses to seed the join on a new data edge.
    """
    if first is not None:
        qa, qb = first
        if not q.has_edge(qa, qb):
            raise InvalidParams(f"({qa}, {qb}) is not a query edge")
        plan = [qa, qb]
    else:
        start = min(q.vertex_order, key=lambda v: (cand_sizes[v], v))
        plan = [start]
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


@dataclass(frozen=True)
class JoinPlan:
    """A vertex ordering of one query with the data its join reads per level.

    Level n maps ``order[n]``; ``back[n]`` lists the earlier levels joined
    to it by a query edge, and ``labels``, ``degrees`` and ``embeds`` hold
    its label, query degree and embedding.  ``norm_pos[n]`` is the position
    of ``order[n]`` in ``QueryGraph.vertex_order``.
    """

    order: tuple[VertexId, ...]
    back: tuple[tuple[int, ...], ...]
    labels: tuple[Label, ...]
    degrees: tuple[int, ...]
    embeds: tuple[Vec, ...]
    norm_pos: tuple[int, ...]

    @classmethod
    def compile(
        cls, q: QueryGraph, order: tuple[VertexId, ...], embeds: dict[VertexId, Vec]
    ) -> "JoinPlan":
        return cls(
            order=order,
            back=tuple(
                tuple(i for i in range(n) if q.has_edge(order[i], qn))
                for n, qn in enumerate(order)
            ),
            labels=tuple(q.labels[qn] for qn in order),
            degrees=tuple(q.degree(qn) for qn in order),
            embeds=tuple(embeds[qn] for qn in order),
            norm_pos=tuple(q.index_of[qn] for qn in order),
        )


def refine(
    plan: JoinPlan,
    graph: DynamicGraph,
    store: NeighborListStore,
    seed: list[VertexId],
    depth: int,
    roots: Iterable[VertexId] = (),
) -> set[Mapping]:
    """Left-deep depth-first completion of a partial mapping.

    Level 0 draws candidates from ``roots``, every later level from the
    neighbors of its smallest mapped back-neighbor.  A candidate is admitted
    iff it is unused, carries the level's label, is adjacent to every
    back-neighbor's image and passes ``store.admits``; roots skip that box
    test, which the caller's scan has run against its buckets' box tables.
    Complete assignments are emitted in normalized form.  The caller
    guarantees the seed itself is consistent.
    """
    size = len(plan.order)
    back, want, degrees, embeds = plan.back, plan.labels, plan.degrees, plan.embeds
    M: list[VertexId] = list(seed) + [0] * (size - len(seed))
    used = set(seed)
    out: set[Mapping] = set()
    adj = graph.adj
    labels = graph.labels
    admits = store.admits

    def rec(n: int) -> None:
        if n == size:
            norm = [0] * size
            for pos, img in zip(plan.norm_pos, M):
                norm[pos] = img
            out.add(tuple(norm))
            return
        cands = adj[M[min(back[n], key=lambda i: len(adj[M[i]]))]] if n else roots
        for u in cands:
            if u in used or labels[u] != want[n]:
                continue
            ok = True
            for i in back[n]:
                if u not in adj[M[i]]:
                    ok = False
                    break
            if ok and (not n or admits(u, degrees[n], embeds[n])):
                M[n] = u
                used.add(u)
                rec(n + 1)
                used.discard(u)

    rec(depth)
    return out


class AnswerSet:
    """Normalized mappings plus an inverted data-edge -> answers index."""

    def __init__(self, query: QueryGraph):
        self.query = query
        self._maps: set[Mapping] = set()
        self._by_edge: dict[EdgeKey, set[Mapping]] = defaultdict(set)

    def __len__(self) -> int:
        return len(self._maps)

    def __contains__(self, m: Mapping) -> bool:
        return m in self._maps

    def __iter__(self) -> Iterator[Mapping]:
        return iter(self._maps)

    def mappings(self) -> frozenset[Mapping]:
        return frozenset(self._maps)

    def edge_images(self, m: Mapping) -> Iterator[EdgeKey]:
        for ia, ib in self.query.edge_index_pairs:
            a, b = m[ia], m[ib]
            yield (a, b) if a < b else (b, a)

    def add(self, m: Mapping) -> bool:
        if m in self._maps:
            return False
        self._maps.add(m)
        for key in self.edge_images(m):
            self._by_edge[key].add(m)
        return True

    def discard(self, m: Mapping) -> None:
        if m not in self._maps:
            return
        self._maps.discard(m)
        for key in self.edge_images(m):
            bucket = self._by_edge.get(key)
            if bucket is not None:
                bucket.discard(m)
                if not bucket:
                    del self._by_edge[key]

    def answers_on_edge(self, key: EdgeKey) -> frozenset[Mapping]:
        """The answers whose edge image contains ``key``; shared when none."""
        bucket = self._by_edge.get(key)
        return frozenset(bucket) if bucket else _NO_ANSWERS


@dataclass
class RegisteredQuery:
    name: str
    query: QueryGraph
    embeds: dict[VertexId, Vec]
    scan_stats: dict[VertexId, ScanStats]
    answers: AnswerSet

    @property
    def mean_pruning_power(self) -> float:
        stats = list(self.scan_stats.values())
        return sum(s.pruning_power for s in stats) / len(stats)


@dataclass(frozen=True)
class QueryDelta:
    added: frozenset[Mapping] = frozenset()
    removed: frozenset[Mapping] = frozenset()


_UNCHANGED = QueryDelta()

# plan.order[:2] is a query edge orientation, to be seeded onto an inserted
# data edge (u, v) as order[0] -> u, order[1] -> v
SeedEntry = tuple[RegisteredQuery, JoinPlan]


@dataclass
class UpdateResult:
    op: UpdateOp
    deltas: dict[str, QueryDelta]
    timings: dict[str, float] = field(default_factory=dict)


class MatchEngine:
    """Continuous exact subgraph matching over one dynamic graph.

    Owns the graph, the synopsis index (degree groups frozen from the
    graph at construction), and any number of registered queries.  All
    mutation goes through :meth:`register` and :meth:`process_update`
    (the writers, one at a time); reads may happen freely between them.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        cfg: EmbeddingConfig,
        m_groups: int = M_GROUPS,
        k_cells: int = K_CELLS,
    ):
        self.graph = graph
        self.cfg = cfg
        self.groups: DegreeGroups = compute_degree_groups(graph, m_groups)
        self.index = SynopsisIndex.build(graph, self.groups, cfg, k_cells)
        self.queries: dict[str, RegisteredQuery] = {}
        # (label_a, label_b) -> the entries whose plan.order[:2] has those
        # labels; both orientations of every query edge are filed
        self.seeds: dict[tuple[Label, Label], list[SeedEntry]] = {}
        # (label_a, label_b) -> the queries with an edge on that label pair,
        # each once, by name: the only queries a delete there can reach
        self.pair_queries: dict[tuple[Label, Label], dict[str, RegisteredQuery]] = {}

    def register(self, name: str, query: QueryGraph) -> RegisteredQuery:
        """Exact answers on the current snapshot, and the query's seed entries."""
        if name in self.queries:
            raise ValueError(f"query {name!r} already registered")
        embeds = embed_query(query, self.cfg)
        cand_sets: dict[VertexId, list[VertexId]] = {}
        scan_stats: dict[VertexId, ScanStats] = {}
        for qi in query.vertex_order:
            cands, stats = self.index.scan_for_degree(
                embeds[qi], query.degree(qi), query.labels[qi]
            )
            cand_sets[qi] = cands
            scan_stats[qi] = stats
        sizes = {qi: len(c) for qi, c in cand_sets.items()}
        plan = JoinPlan.compile(query, make_plan(query, sizes), embeds)
        answers = AnswerSet(query)
        for m in refine(plan, self.graph, self.index.lists, [], 0, cand_sets[plan.order[0]]):
            answers.add(m)
        rq = RegisteredQuery(name, query, embeds, scan_stats, answers)
        for qa, qb in query.edges:
            for first in ((qa, qb), (qb, qa)):
                seed = JoinPlan.compile(query, make_plan(query, sizes, first=first), embeds)
                key = (query.labels[first[0]], query.labels[first[1]])
                self.seeds.setdefault(key, []).append((rq, seed))
                self.pair_queries.setdefault(key, {})[name] = rq
        self.queries[name] = rq
        return rq

    # -- incremental maintenance ------------------------------------------

    def process_update(self, op: UpdateOp) -> UpdateResult:
        """Apply one op to graph and index, then to the queries it can touch.

        The graph rejects a bad op before mutating anything, and nothing
        after an accepted op can raise (the histogram and answer-set edits
        are plain dict and set updates; the box read in ``admits`` sits
        behind its degree check), so every op applies fully or not at all.
        Only the queries filed under the edge's label pair are visited;
        every query whose answers did not change shares one empty delta.
        """
        timings = {
            "graph": 0.0,
            "embedding_update": 0.0,
            "filtering": 0.0,
            "refinement": 0.0,
            "answers_index": 0.0,
        }
        t0 = perf_counter()
        self.graph.apply_update(op)
        timings["graph"] = perf_counter() - t0
        timings["embedding_update"] = self.index.maintain(op).list_update_seconds

        deltas = dict.fromkeys(self.queries, _UNCHANGED)
        if op.kind == INSERT:
            found, timings["filtering"], timings["refinement"] = self._on_insert(op.u, op.v)
            t1 = perf_counter()
            for name, added in found.items():
                answers = self.queries[name].answers
                for m in added:
                    answers.add(m)
                deltas[name] = QueryDelta(added=frozenset(added))
        else:
            t1 = perf_counter()
            edge = op.edge()
            pair = (self.graph.labels[op.u], self.graph.labels[op.v])
            for name, rq in self.pair_queries.get(pair, {}).items():
                victims = rq.answers.answers_on_edge(edge)
                if victims:
                    for m in victims:
                        rq.answers.discard(m)
                    deltas[name] = QueryDelta(removed=victims)
        timings["answers_index"] = perf_counter() - t1
        return UpdateResult(op=op, deltas=deltas, timings=timings)

    def _on_insert(
        self, u: VertexId, v: VertexId
    ) -> tuple[dict[str, set[Mapping]], float, float]:
        """New answers, per query name, that use the just-inserted edge (u, v).

        Each seed entry under (label(u), label(v)) whose endpoints both pass
        the box admission test is completed by refinement from [u, v].
        """
        graph = self.graph
        labels = graph.labels
        store = self.index.lists
        admits = store.admits
        found: dict[str, set[Mapping]] = {}
        t_refine = 0.0
        t_start = perf_counter()
        for rq, plan in self.seeds.get((labels[u], labels[v]), ()):
            degrees, embeds = plan.degrees, plan.embeds
            if not (admits(u, degrees[0], embeds[0]) and admits(v, degrees[1], embeds[1])):
                continue
            t1 = perf_counter()
            added = refine(plan, graph, store, [u, v], 2)
            t_refine += perf_counter() - t1
            if added:
                found.setdefault(rq.name, set()).update(added)
        t_filter = perf_counter() - t_start - t_refine
        return found, t_filter, t_refine


def format_mapping(query: QueryGraph, m: Mapping) -> str:
    pairs = " ".join(
        f"q{qid}->{img}" for qid, img in zip(query.vertex_order, m)
    )
    return f"match {pairs}"


def format_answers(query: QueryGraph, answers: Iterable[Mapping]) -> str:
    return "\n".join(format_mapping(query, m) for m in sorted(answers))


def format_delta(query: QueryGraph, delta: QueryDelta) -> str:
    """Answer lines prefixed '+' for additions and '-' for removals."""
    lines = [f"+ {format_mapping(query, m)}" for m in sorted(delta.added)]
    lines += [f"- {format_mapping(query, m)}" for m in sorted(delta.removed)]
    return "\n".join(lines)
