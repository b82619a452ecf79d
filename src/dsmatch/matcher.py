"""Query registration, candidate retrieval, and exact answer maintenance.

A registered query keeps a live answer set: the exact set of injective,
label- and edge-preserving mappings of the query into the current graph
snapshot.  Answers are normalized as a tuple of data-vertex ids aligned
with the query's vertices in ascending id order, so answer sets from any
vertex ordering (or from the brute-force oracle) compare directly.

Edge insertions extend answers from the inserted edge outward: one table
lookup on its endpoint labels yields the query edge orientations that fit,
each seeded onto it and completed by a left-deep join planned at
registration.  Edge deletions drop exactly the stored answers whose edge
image contains the deleted edge, found through an inverted edge index.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterable, Iterator

from .embedding import EmbeddingConfig, Vec, compose, label_vector
from .errors import InvalidParams
from .graph import DynamicGraph, INSERT, Label, UpdateOp, VertexId, load_graph
from .synopsis import (
    FILTER_EPS,
    DegreeGroups,
    ScanStats,
    SynopsisIndex,
    compute_degree_groups,
    dominated_within,
)

Mapping = tuple[VertexId, ...]  # images aligned with QueryGraph.vertex_order
EdgeKey = tuple[VertexId, VertexId]  # data edge as (min, max)


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

    @classmethod
    def from_graph(cls, g: DynamicGraph) -> "QueryGraph":
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
    out = {}
    for qi in q.vertex_order:
        acc = [0.0] * cfg.d
        for n in sorted(q.adj[qi]):
            x = label_vector(q.labels[n], cfg)
            for k in range(cfg.d):
                acc[k] += x[k]
        lbl = q.labels[qi]
        out[qi] = compose(label_vector(lbl, cfg), tuple(acc), lbl, cfg)
    return out


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


CandidateSource = Callable[[int, list], Iterable[VertexId]]


def refine(
    q: QueryGraph,
    plan: tuple[VertexId, ...],
    graph: DynamicGraph,
    seed: list[VertexId],
    depth: int,
    candidates_for: CandidateSource,
) -> set[Mapping]:
    """Left-deep depth-first completion of a partial mapping.

    At level n a candidate is admitted iff it is unused (injectivity) and
    the data edge exists for every query edge from plan[n] back into the
    mapped prefix.  Complete assignments are emitted in normalized form.
    The caller guarantees the seed itself is consistent.
    """
    size = len(plan)
    back = [
        [i for i in range(n) if q.has_edge(plan[i], plan[n])] for n in range(size)
    ]
    norm_pos = [q.index_of[qi] for qi in plan]
    M: list[VertexId] = list(seed) + [0] * (size - len(seed))
    used = set(seed)
    out: set[Mapping] = set()
    adj = graph.adj

    def rec(n: int) -> None:
        if n == size:
            norm = [0] * size
            for pos, img in zip(norm_pos, M):
                norm[pos] = img
            out.add(tuple(norm))
            return
        for u in candidates_for(n, M):
            if u in used:
                continue
            ok = True
            for i in back[n]:
                if u not in adj[M[i]]:
                    ok = False
                    break
            if ok:
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
        return frozenset(self._by_edge.get(key, ()))


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

# (query, plan, candidate source): plan[:2] is a query edge orientation, to
# be seeded onto an inserted data edge (u, v) as plan[0] -> u, plan[1] -> v
SeedEntry = tuple[RegisteredQuery, tuple[VertexId, ...], CandidateSource]


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
        m_groups: int = 3,
        k_cells: int = 5,
    ):
        self.graph = graph
        self.cfg = cfg
        self.groups: DegreeGroups = compute_degree_groups(graph, m_groups)
        self.index = SynopsisIndex.build(graph, self.groups, cfg, k_cells)
        self.queries: dict[str, RegisteredQuery] = {}
        # (label_a, label_b) -> the entries whose plan[:2] has those labels;
        # both orientations of every query edge are filed
        self.seeds: dict[tuple[Label, Label], list[SeedEntry]] = {}

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
        plan = make_plan(query, sizes)

        def from_cand_sets(n: int, _m: list) -> Iterable[VertexId]:
            return cand_sets[plan[n]]

        answers = AnswerSet(query)
        for m in refine(query, plan, self.graph, [], 0, from_cand_sets):
            answers.add(m)
        rq = RegisteredQuery(name, query, embeds, scan_stats, answers)
        for qa, qb in query.edges:
            for first in ((qa, qb), (qb, qa)):
                seed_plan = make_plan(query, sizes, first=first)
                key = (query.labels[first[0]], query.labels[first[1]])
                self.seeds.setdefault(key, []).append(
                    (rq, seed_plan, self._adjacency_candidates(rq, seed_plan))
                )
        self.queries[name] = rq
        return rq

    # -- incremental maintenance ------------------------------------------

    def process_update(self, op: UpdateOp) -> UpdateResult:
        """Apply one op to graph and index, then to every registered query."""
        timings = {
            "graph": 0.0,
            "embedding_update": 0.0,
            "synopsis_update": 0.0,
            "filtering": 0.0,
            "refinement": 0.0,
        }
        t0 = perf_counter()
        effect = self.graph.apply_update(op)
        timings["graph"] = perf_counter() - t0
        report = self.index.maintain(effect)
        timings["embedding_update"] = report.list_update_seconds
        timings["synopsis_update"] = report.entry_update_seconds

        if op.kind == INSERT:
            found, timings["filtering"], timings["refinement"] = self._on_insert(op.u, op.v)
            deltas = dict.fromkeys(self.queries, _UNCHANGED)
            for name, added in found.items():
                answers = self.queries[name].answers
                for m in added:
                    answers.add(m)
                deltas[name] = QueryDelta(added=frozenset(added))
        else:
            edge = op.edge()
            t1 = perf_counter()
            deltas = {
                name: QueryDelta(removed=self._on_delete(rq, edge))
                for name, rq in self.queries.items()
            }
            timings["refinement"] = perf_counter() - t1
        return UpdateResult(op=op, deltas=deltas, timings=timings)

    def _endpoint_ok(self, q: QueryGraph, qi: VertexId, v: VertexId, q_embed: Vec) -> bool:
        """Necessary-conditions filter for mapping query vertex qi onto v."""
        dq = q.degree(qi)
        if dq > self.index.lists.degree(v):
            return False
        if not dominated_within(q_embed, self.index.embedding_of(v)):
            return False
        return self.index.lists.mbr(v, dq).contains(q_embed, FILTER_EPS)

    def _on_insert(
        self, u: VertexId, v: VertexId
    ) -> tuple[dict[str, set[Mapping]], float, float]:
        """New answers, per query name, that use the just-inserted edge (u, v).

        Each seed entry under (label(u), label(v)) whose endpoints pass the
        filters is completed by refinement.  Its per-level candidates come
        from the current adjacency (label-checked and filtered by the same
        dominance/box conditions the synopsis scan applies).
        """
        graph = self.graph
        labels = graph.labels
        found: dict[str, set[Mapping]] = {}
        t_refine = 0.0
        t_start = perf_counter()
        for rq, plan, source in self.seeds.get((labels[u], labels[v]), ()):
            q, qa, qb = rq.query, plan[0], plan[1]
            if not self._endpoint_ok(q, qa, u, rq.embeds[qa]):
                continue
            if not self._endpoint_ok(q, qb, v, rq.embeds[qb]):
                continue
            t1 = perf_counter()
            added = refine(q, plan, graph, [u, v], 2, source)
            t_refine += perf_counter() - t1
            found.setdefault(rq.name, set()).update(added)
        t_filter = perf_counter() - t_start - t_refine
        return found, t_filter, t_refine

    def _adjacency_candidates(
        self, rq: RegisteredQuery, plan: tuple[VertexId, ...]
    ) -> CandidateSource:
        """Candidates for plan levels >= 1, derived from current adjacency.

        Prefix connectivity guarantees at least one back-edge, so every
        admissible image is a neighbor of an already-mapped vertex; the
        smallest such neighborhood is enumerated and filtered.
        """
        q = rq.query
        graph = self.graph
        labels = graph.labels
        back = [
            [i for i in range(n) if q.has_edge(plan[i], plan[n])]
            for n in range(len(plan))
        ]

        def source(n: int, M: list) -> Iterator[VertexId]:
            qn = plan[n]
            want = q.labels[qn]
            anchor = min(back[n], key=lambda i: len(graph.adj[M[i]]))
            embed = rq.embeds[qn]
            for u in graph.adj[M[anchor]]:
                if labels[u] == want and self._endpoint_ok(q, qn, u, embed):
                    yield u

        return source

    def _on_delete(self, rq: RegisteredQuery, edge: EdgeKey) -> frozenset[Mapping]:
        victims = rq.answers.answers_on_edge(edge)
        for m in victims:
            rq.answers.discard(m)
        return victims


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
