"""Ground truth by brute force, independent of the engine's index paths.

:func:`enumerate_matches` is plain backtracking over label-filtered
candidates on the raw graph; it deliberately uses a different vertex
ordering than the engine (ascending query-vertex id under a connectivity
constraint) and touches no embedding or synopsis code, so correlated bugs
between the two sides are unlikely.  Answers use the same normalization as
the engine -- images ordered by ascending query-vertex id -- which is
re-implemented here on purpose rather than imported.

:func:`star_subset_embeddings` exhaustively embeds every star subset of a
vertex and is the independent check for the histogram bounding boxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import DegreeOutOfRange, DegreeTooLarge
from .graph import DynamicGraph, UpdateOp, VertexId

Mapping = tuple[VertexId, ...]

_MAX_ENUM_DEGREE = 20


def enumerate_matches(g: DynamicGraph, query) -> frozenset[Mapping]:
    """All injective label- and edge-preserving query images in g.

    ``query`` is any object exposing ``vertex_order``, ``labels``, ``adj``
    (the matcher's QueryGraph fits).  Result mappings are tuples of data
    vertex ids aligned with ``query.vertex_order``.
    """
    order = _connectivity_order(query)
    size = len(order)
    q_adj = query.adj
    g_adj = g.adj
    g_labels = g.labels
    back = [
        [i for i in range(n) if order[i] in q_adj[order[n]]] for n in range(size)
    ]
    norm_pos = [query.index_of[qi] for qi in order]

    want0 = query.labels[order[0]]
    roots = sorted(v for v, lbl in g_labels.items() if lbl == want0)

    want = [query.labels[qi] for qi in order]
    out: set[Mapping] = set()
    M = [0] * size
    used: set[VertexId] = set()

    def rec(n: int) -> None:
        if n == size:
            norm = [0] * size
            for pos, img in zip(norm_pos, M):
                norm[pos] = img
            out.add(tuple(norm))
            return
        bs = back[n]
        anchor = min(bs, key=lambda i: len(g_adj[M[i]]))
        lbl = want[n]
        for u in g_adj[M[anchor]]:
            if u in used or g_labels[u] != lbl:
                continue
            ok = True
            for i in bs:
                if i != anchor and u not in g_adj[M[i]]:
                    ok = False
                    break
            if ok:
                M[n] = u
                used.add(u)
                rec(n + 1)
                used.discard(u)

    for r in roots:
        M[0] = r
        used.add(r)
        rec(1)
        used.discard(r)
    return frozenset(out)


def _connectivity_order(query) -> list[VertexId]:
    """Ascending-id order constrained to keep a connected prefix."""
    remaining = set(query.vertex_order)
    order = [min(remaining)]
    remaining.discard(order[0])
    while remaining:
        frontier = sorted(
            v for v in remaining if any(n not in remaining for n in query.adj[v])
        )
        order.append(frontier[0])
        remaining.discard(frontier[0])
    return order


def star_subset_embeddings(
    g: DynamicGraph, v: VertexId, delta: int, cfg
) -> set[tuple[float, ...]]:
    """Embeddings of every delta-leaf star subset centered at v.

    Exponential by design; refuses degrees above the enumeration cap.
    Neighbor sums are exact, so results compare with the engine's vectors
    with ``==``.
    """
    from .embedding import compose, label_vector  # this oracle checks embeddings

    deg = g.degree(v)
    if deg > _MAX_ENUM_DEGREE:
        raise DegreeTooLarge(f"degree {deg} exceeds enumeration cap {_MAX_ENUM_DEGREE}")
    if not 1 <= delta <= deg:
        raise DegreeOutOfRange(f"delta {delta} outside [1, {deg}]")
    lbl = g.labels[v]
    vecs = [label_vector(g.labels[n], cfg) for n in g.neighbors(v)]
    x = label_vector(lbl, cfg)
    out = set()
    for subset in combinations(range(deg), delta):
        acc = [0.0] * cfg.d
        for i in subset:
            xv = vecs[i]
            for k in range(cfg.d):
                acc[k] += xv[k]
        out.add(compose(x, tuple(acc), lbl, cfg))
    return out


@dataclass
class Divergence:
    timestamp: int
    query_name: str
    missing: frozenset[Mapping]  # in the recompute, absent from the engine
    extra: frozenset[Mapping]  # in the engine, absent from the recompute


@dataclass
class VerdictReport:
    ok: bool
    updates_checked: int
    divergence: Divergence | None = None

    def describe(self) -> str:
        if self.ok:
            return f"ok: {self.updates_checked} updates, zero divergences"
        d = self.divergence
        return (
            f"divergence at t={d.timestamp} query={d.query_name}: "
            f"{len(d.missing)} missing, {len(d.extra)} extra"
        )


def _recompute(g0: DynamicGraph, stream: list[UpdateOp], queries: list):
    """Full recompute on a copy of ``g0``: yields ``(None, answers)``, then
    ``(op, answers)`` after applying each op, with ``answers`` every query's
    matches in query order."""
    graph = g0.copy()
    yield None, [enumerate_matches(graph, q) for q in queries]
    for op in stream:
        graph.apply_update(op)
        yield op, [enumerate_matches(graph, q) for q in queries]


def recompute_stream_check(
    g0: DynamicGraph,
    stream: list[UpdateOp],
    queries: list,
    engine=None,
) -> VerdictReport:
    """Replay a stream through the engine and full recompute side by side.

    The recompute runs on the check's own copy of ``g0``, to which every op
    is applied independently of the engine, so a fault in the engine's
    graph (a dropped op, say) shows up as a divergence.  Compares answer
    sets for every registered query after registration and after every
    update; stops at the first divergence.  A pre-built engine can be
    injected (test fixtures use this to plant deliberate faults).
    """
    from .matcher import MatchEngine  # harness wiring, not ground-truth code

    if engine is None:
        engine = MatchEngine(g0.copy())
    names = [f"q{i}" for i in range(len(queries))]
    for name, q in zip(names, queries):
        engine.register(name, q)
    checked = 0
    for op, wants in _recompute(g0, stream, queries):
        if op is not None:
            engine.process_update(op)
            checked += 1
        for name, want in zip(names, wants):
            got = engine.queries[name].answers.mappings()
            if got != want:
                timestamp = 0 if op is None else op.timestamp or checked
                div = Divergence(timestamp, name, missing=want - got, extra=got - want)
                return VerdictReport(ok=False, updates_checked=checked, divergence=div)
    return VerdictReport(ok=True, updates_checked=checked)
