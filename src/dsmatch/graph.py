"""Mutable undirected vertex-labeled graph under an edge update stream.

The graph is the single source of truth for adjacency and labels.  Updates
are applied one at a time (single writer).  Each op is validated in full
before its first mutation, so a rejected op leaves the graph untouched and
an accepted one is the only thing downstream index maintenance needs.

Text formats (UTF-8):

* graph/query file: optional header ``t <num_vertices> <num_edges>``,
  vertex lines ``v <id> <label>``, edge lines ``e <u> <v>``, ``#`` comments.
* stream file: ``+ <u> <v> [<label_u> <label_v>]`` inserts, ``- <u> <v>``
  deletes, one op per line, timestamps implied by position (1-based).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import (
    DuplicateEdge,
    LabelConflict,
    MissingEdge,
    MissingLabel,
    ParseError,
    SelfLoop,
    UndeclaredVertex,
    UnknownVertex,
)

VertexId = int
Label = int

INSERT = "+"
DELETE = "-"


@dataclass(frozen=True)
class UpdateOp:
    """One edge insertion or deletion.

    Labels are only consulted when the corresponding endpoint is new to the
    graph; the timestamp is informational (stream position wins).
    """

    kind: str  # INSERT or DELETE
    u: VertexId
    v: VertexId
    label_u: Label | None = None
    label_v: Label | None = None
    timestamp: int = 0

    def edge(self) -> tuple[VertexId, VertexId]:
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)


class DynamicGraph:
    """Undirected labeled graph with set-based adjacency.

    Invariants maintained by construction: adjacency is symmetric, free of
    self-loops and multi-edges, and ``degree(v) == len(adj[v])``.  Vertices
    are never garbage-collected when their degree drops to zero; they keep
    their label so later insertions can revive them.
    """

    __slots__ = ("labels", "adj", "num_edges", "timestamp")

    def __init__(self) -> None:
        self.labels: dict[VertexId, Label] = {}
        self.adj: dict[VertexId, set[VertexId]] = {}
        self.num_edges = 0
        self.timestamp = 0

    # -- read access ---------------------------------------------------

    def __contains__(self, v: VertexId) -> bool:
        return v in self.labels

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    def vertices(self) -> Iterator[VertexId]:
        return iter(self.labels)

    def label(self, v: VertexId) -> Label:
        try:
            return self.labels[v]
        except KeyError:
            raise UnknownVertex(f"vertex {v} not in graph") from None

    def degree(self, v: VertexId) -> int:
        try:
            return len(self.adj[v])
        except KeyError:
            raise UnknownVertex(f"vertex {v} not in graph") from None

    def neighbors(self, v: VertexId) -> set[VertexId]:
        try:
            return self.adj[v]
        except KeyError:
            raise UnknownVertex(f"vertex {v} not in graph") from None

    def sorted_neighbors(self, v: VertexId) -> list[VertexId]:
        """Neighbors in ascending id order (the canonical summation order)."""
        return sorted(self.neighbors(v))

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        nbrs = self.adj.get(u)
        return nbrs is not None and v in nbrs

    def edges(self) -> Iterator[tuple[VertexId, VertexId]]:
        """Each undirected edge once, as (min, max), in sorted order."""
        for u in sorted(self.adj):
            for v in sorted(self.adj[u]):
                if u < v:
                    yield (u, v)

    def copy(self) -> "DynamicGraph":
        g = DynamicGraph()
        g.labels = dict(self.labels)
        g.adj = {v: set(nbrs) for v, nbrs in self.adj.items()}
        g.num_edges = self.num_edges
        g.timestamp = self.timestamp
        return g

    # -- construction and mutation ---------------------------------------

    def add_vertex(self, v: VertexId, label: Label) -> None:
        existing = self.labels.get(v)
        if existing is None:
            self.labels[v] = label
            self.adj[v] = set()
        elif existing != label:
            raise LabelConflict(f"vertex {v} already labeled {existing}, got {label}")

    def add_edge(self, u: VertexId, v: VertexId) -> None:
        """Insert edge between two existing vertices."""
        if u == v:
            raise SelfLoop(f"self-loop on vertex {u}")
        if u not in self.labels or v not in self.labels:
            missing = u if u not in self.labels else v
            raise UnknownVertex(f"vertex {missing} not in graph")
        if v in self.adj[u]:
            raise DuplicateEdge(f"edge ({u}, {v}) already present")
        self.adj[u].add(v)
        self.adj[v].add(u)
        self.num_edges += 1

    def remove_edge(self, u: VertexId, v: VertexId) -> None:
        if u not in self.labels or v not in self.labels:
            missing = u if u not in self.labels else v
            raise UnknownVertex(f"vertex {missing} not in graph")
        if v not in self.adj[u]:
            raise MissingEdge(f"edge ({u}, {v}) not present")
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        self.num_edges -= 1

    def apply_update(self, op: UpdateOp) -> None:
        """Apply one stream op, or raise and leave the graph untouched.

        Every check runs before the first mutation: self-loop, unknown kind,
        and for an insert a duplicate edge, then a missing label (a new
        endpoint must carry one) or a conflicting label on either endpoint;
        for a delete a missing edge.  Insertions handle all three endpoint
        cases (both existing, one new, both new).  The graph timestamp
        advances by one per applied op regardless of ``op.timestamp``.
        """
        u, v = op.u, op.v
        if u == v:
            raise SelfLoop(f"self-loop update on vertex {u}")
        if op.kind == INSERT:
            if self.has_edge(u, v):
                raise DuplicateEdge(f"edge ({u}, {v}) already present")
            endpoints = ((u, op.label_u), (v, op.label_v))
            for w, lbl in endpoints:
                have = self.labels.get(w)
                if have is None:
                    if lbl is None:
                        raise MissingLabel(f"new vertex {w} arrived without a label")
                elif lbl is not None and have != lbl:
                    raise LabelConflict(f"vertex {w} already labeled {have}, got {lbl}")
            for w, lbl in endpoints:
                if w not in self.labels:
                    self.add_vertex(w, lbl)
            self.add_edge(u, v)
        elif op.kind == DELETE:
            if not self.has_edge(u, v):
                raise MissingEdge(f"edge ({u}, {v}) not present")
            self.remove_edge(u, v)
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")
        self.timestamp += 1


# -- text formats ------------------------------------------------------------


def _tokens(text: str) -> Iterator[tuple[int, list[str]]]:
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line.split()


def load_graph(text: str) -> DynamicGraph:
    """Parse a graph file.  Edge order is irrelevant (two-pass parse)."""
    g = DynamicGraph()
    header: tuple[int, int] | None = None
    edge_lines: list[tuple[int, int, int]] = []
    for line_no, parts in _tokens(text):
        tag = parts[0]
        if tag == "t":
            if len(parts) != 3:
                raise ParseError("header needs 't <num_vertices> <num_edges>'", line_no)
            header = (_int(parts[1], line_no), _int(parts[2], line_no))
        elif tag == "v":
            if len(parts) != 3:
                raise ParseError("vertex line needs 'v <id> <label>'", line_no)
            vid, lbl = _int(parts[1], line_no), _int(parts[2], line_no)
            if vid in g.labels and g.labels[vid] != lbl:
                raise ParseError(f"vertex {vid} redeclared with a different label", line_no)
            g.add_vertex(vid, lbl)
        elif tag == "e":
            if len(parts) != 3:
                raise ParseError("edge line needs 'e <u> <v>'", line_no)
            edge_lines.append((line_no, _int(parts[1], line_no), _int(parts[2], line_no)))
        else:
            raise ParseError(f"unknown line tag {tag!r}", line_no)

    for line_no, u, v in edge_lines:
        if u not in g.labels or v not in g.labels:
            missing = u if u not in g.labels else v
            raise UndeclaredVertex(f"edge references undeclared vertex {missing}", line_no)
        try:
            g.add_edge(u, v)
        except (SelfLoop, DuplicateEdge) as exc:
            raise ParseError(str(exc), line_no) from None

    if header is not None and header != (g.num_vertices, g.num_edges):
        raise ParseError(
            f"header declares {header[0]} vertices / {header[1]} edges, "
            f"file contains {g.num_vertices} / {g.num_edges}"
        )
    return g


def dump_graph(g: DynamicGraph) -> str:
    """Serialize deterministically (sorted ids); inverse of :func:`load_graph`."""
    out = [f"t {g.num_vertices} {g.num_edges}"]
    out.extend(f"v {v} {g.labels[v]}" for v in sorted(g.labels))
    out.extend(f"e {u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"


def load_stream(text: str) -> list[UpdateOp]:
    """Parse a stream file; timestamps are assigned 1, 2, 3, ... in file order."""
    ops: list[UpdateOp] = []
    for line_no, parts in _tokens(text):
        tag = parts[0]
        if tag == INSERT:
            if len(parts) not in (3, 5):
                raise ParseError("insert needs '+ <u> <v> [<label_u> <label_v>]'", line_no)
            lu = _int(parts[3], line_no) if len(parts) == 5 else None
            lv = _int(parts[4], line_no) if len(parts) == 5 else None
            ops.append(UpdateOp(INSERT, _int(parts[1], line_no), _int(parts[2], line_no),
                                lu, lv, timestamp=len(ops) + 1))
        elif tag == DELETE:
            if len(parts) != 3:
                raise ParseError("delete needs '- <u> <v>'", line_no)
            ops.append(UpdateOp(DELETE, _int(parts[1], line_no), _int(parts[2], line_no),
                                timestamp=len(ops) + 1))
        else:
            raise ParseError(f"unknown stream tag {tag!r}", line_no)
    return ops


def dump_stream(ops: Iterable[UpdateOp]) -> str:
    lines = []
    for op in ops:
        if op.kind == INSERT and op.label_u is not None and op.label_v is not None:
            lines.append(f"+ {op.u} {op.v} {op.label_u} {op.label_v}")
        elif op.kind == INSERT:
            lines.append(f"+ {op.u} {op.v}")
        else:
            lines.append(f"- {op.u} {op.v}")
    return "\n".join(lines) + ("\n" if lines else "")


def _int(token: str, line_no: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"expected integer, got {token!r}", line_no) from None
    if value < 0:
        raise ParseError(f"expected non-negative integer, got {value}", line_no)
    return value
