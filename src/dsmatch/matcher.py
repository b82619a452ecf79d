"""Query registration, candidate retrieval, and exact answer maintenance.

A registered query keeps a live answer set: the exact set of injective,
label- and edge-preserving mappings of the query into the current graph
snapshot.  Answers are normalized as a tuple of data-vertex ids aligned
with the query's vertices in ascending id order, so answer sets from any
vertex ordering (or from the brute-force oracle) compare directly.

Registration compiles one :class:`JoinPlan` per query edge, which
:func:`refine` executes, and appends a seed entry for it to one label-pair
table under each orientation of the edge's labels, holding the neighbor
label counts each endpoint of an inserted edge must cover.  A data vertex
can take a query vertex only if, for every label, it has at least as many
neighbors carrying it as the query vertex has: the count test, read off
the store's neighbor-label histograms.  It implies the per-degree box
test, so it prunes at least as much, and computes no box.  Registration's
scans apply it to every vertex of a query vertex's label, through packed
label columns, not a grid, and the join to every vertex it maps.  Plans
are ordered by the scans' candidate counts, and only the initial join's
start vertex has its candidates decoded.  An
update reads only its edge's label pair: an insertion count-tests every
seed there against both endpoints' histograms and completes each
admitted seed on the new edge by refinement; a deletion
drops each of the pair's queries' stored answers whose edge image contains
the deleted edge, found through an inverted edge index.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter
from types import MappingProxyType
from typing import ClassVar, Iterable, Iterator

from .embedding import EmbeddingConfig, Vec, embed_vertex
from .errors import InvalidParams
from .graph import DynamicGraph, INSERT, Label, UpdateOp, VertexId, load_graph
from .synopsis import (
    K_CELLS,
    M_GROUPS,
    NeighborListStore,
    Need,
    ScanStats,
    SynopsisIndex,
    compute_degree_groups,
    dominated_within,  # unused here; kept importable for perfbench's tracer, which wraps it
)

Mapping = tuple[VertexId, ...]  # images aligned with QueryGraph.vertex_order
EdgeKey = tuple[VertexId, VertexId]  # data edge as (min, max)

_NO_ANSWERS: frozenset[Mapping] = frozenset()


class QueryGraph:
    """Connected undirected labeled pattern over int ids and labels; every
    vertex has degree >= 1."""

    __slots__ = ("vertex_order", "labels", "adj", "edges", "index_of", "edge_index_pairs")

    def __init__(self, labels: dict[VertexId, Label], edges: Iterable[EdgeKey]):
        # the graph's rule for a new vertex (a bool is no int here either):
        # answers order ids, and a label must equal a data vertex's to match
        for v, label in labels.items():
            if type(v) is not int or type(label) is not int:
                raise InvalidParams(
                    f"query vertex ids and labels must be ints, got {v!r} labeled {label!r}"
                )
        edges = tuple(edges)
        for e in edges:
            if not isinstance(e, (tuple, list)) or len(e) != 2:
                raise InvalidParams(f"query edge {e!r} is not a pair of vertex ids")
            if any(type(v) is not int for v in e):
                raise InvalidParams(f"query edge {e!r} has a vertex id that is not an int")
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
        seen, stack = set(), [self.vertex_order[0]]
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(self.adj[u])
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


def label_needs(q: QueryGraph) -> dict[VertexId, Need]:
    """Per query vertex, its neighbors' labels with their counts, sorted:
    a data vertex can take it only if it has at least that many neighbors
    of each label."""
    return {
        qi: tuple(sorted(Counter(q.labels[n] for n in q.adj[qi]).items()))
        for qi in q.vertex_order
    }


def make_plan(
    q: QueryGraph,
    cand_sizes: dict[VertexId, int],
    first: tuple[VertexId, VertexId],
) -> tuple[VertexId, ...]:
    """Connected vertex ordering led by the query edge ``first``.

    After the two pinned vertices it repeatedly appends the neighbor of the
    chosen prefix with the smallest candidate set (ties to the smallest id),
    so the continuation depends only on the set ``first`` names.  The
    frontier gains each chosen vertex's unchosen neighbors as it goes.
    Each vertex's (size, id) key is built once per call, not per comparison.
    """
    qa, qb = first
    if not q.has_edge(qa, qb):
        raise InvalidParams(f"({qa}, {qb}) is not a query edge")
    key = {v: (size, v) for v, size in cand_sizes.items()}
    plan = [qa, qb]
    chosen = set(plan)
    frontier = (q.adj[qa] | q.adj[qb]) - chosen
    while frontier:
        nxt = min(frontier, key=key.__getitem__)
        plan.append(nxt)
        chosen.add(nxt)
        frontier.discard(nxt)
        frontier |= q.adj[nxt] - chosen
    return tuple(plan)


@dataclass(frozen=True)
class JoinPlan:
    """A vertex ordering of one query with the data its join reads per level.

    Level n maps ``order[n]``; ``back[n]`` lists the earlier levels joined
    to it by a query edge, and ``labels`` and ``needs`` hold its label and
    its neighbor label counts (:func:`label_needs`, each tuple shared with
    every plan of the query).  ``norm_pos[n]`` is the position of
    ``order[n]`` in ``QueryGraph.vertex_order``.
    """

    order: tuple[VertexId, ...]
    back: tuple[tuple[int, ...], ...]
    labels: tuple[Label, ...]
    needs: tuple[Need, ...]
    norm_pos: tuple[int, ...]

    @classmethod
    def compile(
        cls, q: QueryGraph, order: tuple[VertexId, ...], needs: dict[VertexId, Need]
    ) -> "JoinPlan":
        """The plan of ``order``, an ordering of all of ``q``'s vertices.
        One pass over ``q.adj`` in level order, through each vertex's
        position in ``order``, appends each level to the back-levels of
        its later neighbors, so each lists them ascending, with no probe
        per pair of levels."""
        pos = {qn: n for n, qn in enumerate(order)}
        back: list[list[int]] = [[] for _ in order]
        for n, qn in enumerate(order):
            for m in map(pos.__getitem__, q.adj[qn]):
                if m > n:
                    back[m].append(n)
        return cls(
            order=order,
            back=tuple(map(tuple, back)),
            labels=tuple(map(q.labels.__getitem__, order)),
            needs=tuple(map(needs.__getitem__, order)),
            norm_pos=tuple(map(q.index_of.__getitem__, order)),
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
    back-neighbor's image and covers the level's neighbor label counts in
    ``store.hist``, roots included.  Complete assignments are emitted in
    normalized form.  The caller guarantees the seed itself is consistent.
    The join allocates no reference cycle (``rec`` is deleted once done,
    which breaks the one its closure makes), so a call leaves nothing for
    the cyclic collector.
    """
    size = len(plan.order)
    back, want, needs = plan.back, plan.labels, plan.needs
    M: list[VertexId] = list(seed) + [0] * (size - len(seed))
    used = set(seed)
    out: set[Mapping] = set()
    adj = graph.adj
    labels = graph.labels
    hist = store.hist

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
            for i in back[n]:
                if u not in adj[M[i]]:
                    break
            else:
                h = hist[u]
                for lbl, c in needs[n]:
                    if h.get(lbl, 0) < c:
                        break
                else:
                    M[n] = u
                    used.add(u)
                    rec(n + 1)
                    used.discard(u)

    rec(depth)
    del rec
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
    cfg: EmbeddingConfig
    scan_stats: dict[VertexId, ScanStats]
    answers: AnswerSet

    @cached_property
    def embeds(self) -> dict[VertexId, Vec]:
        """:func:`embed_query` on first read; no engine path reads it."""
        return embed_query(self.query, self.cfg)

    @property
    def mean_pruning_power(self) -> float:
        stats = list(self.scan_stats.values())
        return sum(s.pruning_power for s in stats) / len(stats)


@dataclass(frozen=True)
class QueryDelta:
    added: frozenset[Mapping] = frozenset()
    removed: frozenset[Mapping] = frozenset()


UNCHANGED = QueryDelta()

# (query name, plan, flip, neighbor label counts u must cover, the same
# for v): seeds the plan on an inserted edge (u, v) with [v, u] if flipped,
# else with [u, v], so u takes level 1 of the plan if flipped
Seed = tuple[str, JoinPlan, bool, Need, Need]


@dataclass(slots=True)
class LabelPair:
    """What one label pair (label(u), label(v)) files, in registration
    order: the seed entries of every query edge on it, and its queries by
    name."""

    seeds: list[Seed] = field(default_factory=list)
    queries: dict[str, RegisteredQuery] = field(default_factory=dict)

    def file(self, seed: Seed, rq: RegisteredQuery) -> None:
        self.seeds.append(seed)
        self.queries[rq.name] = rq


_NO_PAIR = LabelPair()  # the empty filing of every label pair that no query edge has

# the keys under which process_update adds an op's seconds to a caller's sink
STAGES = ("graph", "filtering", "refinement", "answers_index", "embedding_update")


@dataclass(slots=True)
class UpdateResult:
    """One applied op and the deltas of the queries whose answers changed,
    in registration order; read ``deltas`` with ``.get(name, UNCHANGED)``.
    ``timings`` is one shared, read-only empty mapping: stage seconds go
    only to a sink passed to :meth:`MatchEngine.process_update`."""

    op: UpdateOp
    deltas: dict[str, QueryDelta]
    timings: ClassVar[MappingProxyType] = MappingProxyType({})


class MatchEngine:
    """Continuous exact subgraph matching over one dynamic graph.

    Owns the graph, the synopsis index (degree groups frozen at build, the
    grid domain at first read), and any number of registered queries.  All
    mutation goes through :meth:`register` and :meth:`process_update`
    (the writers, one at a time); reads may happen freely between them.
    No engine path reads an embedding, a degree group or a grid, so ``cfg``,
    ``m_groups`` and ``k_cells`` shape only the index's grid view, and
    ``MatchEngine(graph)`` takes their defaults.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        cfg: EmbeddingConfig = EmbeddingConfig(),
        m_groups: int = M_GROUPS,
        k_cells: int = K_CELLS,
    ):
        self.graph = graph
        self.cfg = cfg
        self.index = SynopsisIndex(graph, compute_degree_groups(graph, m_groups), cfg, k_cells)
        self.queries: dict[str, RegisteredQuery] = {}
        # (label(u), label(v)) -> the seeds an insert (u, v) tests against
        # u's and v's histograms, and the only queries a delete there
        # reaches; only register writes it
        self.pairs: dict[tuple[Label, Label], LabelPair] = {}

    def register(self, name: str, query: QueryGraph) -> RegisteredQuery:
        """Exact answers on the current snapshot, and one plan per query edge.

        One need scan per query vertex gives its candidate count, its
        ``ScanStats.survivors``.  Each plan leads with its edge's endpoint
        of smaller (candidate count, id); the initial join runs the plan of
        the edge from the cheapest vertex to its cheapest neighbor, and
        decodes that vertex's candidates, the only ones read, as it
        iterates them.
        """
        if name in self.queries:
            raise InvalidParams(f"query {name!r} already registered")
        needs = label_needs(query)
        cand_sets: dict[VertexId, Iterable[VertexId]] = {}
        scan_stats: dict[VertexId, ScanStats] = {}
        for qi in query.vertex_order:
            cand_sets[qi], scan_stats[qi] = self.index.scan_for_degree(
                (), query.degree(qi), query.labels[qi], needs[qi]
            )
        sizes = {qi: stats.survivors for qi, stats in scan_stats.items()}
        plans: dict[tuple[VertexId, VertexId], JoinPlan] = {}  # by leading pair
        for qa, qb in query.edges:  # qa < qb, so a tie leads with qa
            first = (qa, qb) if sizes[qa] <= sizes[qb] else (qb, qa)
            plans[first] = JoinPlan.compile(query, make_plan(query, sizes, first), needs)
        start = min(query.vertex_order, key=lambda v: (sizes[v], v))
        plan = plans[start, min(query.adj[start], key=lambda v: (sizes[v], v))]
        answers = AnswerSet(query)
        for m in refine(plan, self.graph, self.index.lists, [], 0, cand_sets[start]):
            answers.add(m)
        rq = RegisteredQuery(name, query, self.cfg, scan_stats, answers)
        for plan in plans.values():
            (la, lb), (na, nb) = plan.labels[:2], plan.needs[:2]
            for key, seed in (
                ((la, lb), (name, plan, False, na, nb)),
                ((lb, la), (name, plan, True, nb, na)),
            ):  # one key if la == lb
                pair = self.pairs.get(key)
                if pair is None:
                    pair = self.pairs[key] = LabelPair()
                pair.file(seed, rq)
        self.queries[name] = rq
        return rq

    # -- incremental maintenance ------------------------------------------

    def process_update(self, op: UpdateOp, stages: dict[str, float] | None = None) -> UpdateResult:
        """Apply one op to graph and index, then to the queries it can touch.

        The graph rejects a bad op before mutating anything, and nothing
        after an accepted op can raise (the histogram and answer-set edits
        are plain dict and set updates, and the count tests read histograms
        that maintenance has just given both endpoints), so every op applies
        fully or not at all.  No step computes a capped sum or a box.
        Only the queries filed under the edge's label pair are visited, and
        the result's deltas name only the queries whose answers changed.
        Without ``stages`` no clock is read; given that dict, each
        :data:`STAGES` key gains its difference of neighbouring clock stamps,
        refinement split off filtering, so they add up to the op's span.
        """
        timed = stages is not None
        t0 = perf_counter() if timed else 0.0
        self.graph.apply_update(op)
        t1 = perf_counter() if timed else 0.0
        self.index.maintain(op)
        t2 = t3 = perf_counter() if timed else 0.0  # a delete seeds nothing

        labels = self.graph.labels
        pair = self.pairs.get((labels[op.u], labels[op.v]), _NO_PAIR)
        deltas: dict[str, QueryDelta] = {}
        if op.kind == INSERT:
            found = self._on_insert(pair, op.u, op.v, stages)
            t3 = perf_counter() if timed else 0.0
            for name, added in found.items():
                answers = self.queries[name].answers
                for m in added:
                    answers.add(m)
                deltas[name] = QueryDelta(added=frozenset(added))
        elif pair.queries:
            edge = op.edge()
            for name, rq in pair.queries.items():
                victims = rq.answers.answers_on_edge(edge)
                if victims:
                    for m in victims:
                        rq.answers.discard(m)
                    deltas[name] = QueryDelta(removed=victims)
        if timed:
            t4 = perf_counter()
            for stage, seconds in zip(STAGES, (t1 - t0, t3 - t2, 0.0, t4 - t3, t2 - t1)):
                stages[stage] = stages.get(stage, 0.0) + seconds
        return UpdateResult(op, deltas)

    def _on_insert(
        self, pair: LabelPair, u: VertexId, v: VertexId, stages: dict[str, float] | None
    ) -> dict[str, set[Mapping]]:
        """New answers, per query name, that use the just-inserted edge (u, v).

        Each seed of ``pair``, the label pair (label(u), label(v)), is
        count-tested against u's and then v's histograms; one both cover is
        refined from [u, v], or from [v, u] when it is filed flipped.  The
        joins' seconds move from ``stages``' filtering to its refinement.
        """
        graph, store = self.graph, self.index.lists
        found: dict[str, set[Mapping]] = {}
        refine_s = 0.0
        hu, hv = store.hist[u], store.hist[v]
        for name, plan, flip, need_u, need_v in pair.seeds:
            for lbl, c in need_u:
                if hu.get(lbl, 0) < c:
                    break
            else:
                for lbl, c in need_v:
                    if hv.get(lbl, 0) < c:
                        break
                else:
                    t0 = perf_counter() if stages is not None else 0.0
                    added = refine(plan, graph, store, [v, u] if flip else [u, v], 2)
                    if stages is not None:
                        refine_s += perf_counter() - t0
                    if added:
                        found.setdefault(name, set()).update(added)
        if refine_s:  # stamped, so given a sink
            stages["refinement"] = stages.get("refinement", 0.0) + refine_s
            stages["filtering"] = stages.get("filtering", 0.0) - refine_s
        return found


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
