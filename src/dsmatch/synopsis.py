"""Degree-grouped grid synopses over vertex embeddings.

One synopsis per degree group.  A vertex of degree ``deg`` appears in every
group whose lower bound it exceeds, filed under the upper corner of the
bounding box of its star-subset embeddings at the group-capped degree.
Cells of each grid are kept in descending order of their squared-norm key
so scans can stop early once no remaining cell can be dominated by a query
embedding.

Per-degree bounding boxes are never materialized.  Every neighbor
contributes its label's vector, so each vertex keeps only a histogram of
its neighbors' labels.  On each dimension, the box for any degree delta
spans the sum of the delta smallest to the sum of the delta largest
neighbor components; both come from one walk over a store-wide order of
labels by component, taking each present label's count until delta is
used up.  An update is one histogram edit per endpoint.

The grids are build-only.  Only candidate scans read them, so an update
just drops them, and the next scan, snapshot or dump rebuilds them from the
histograms with the same frozen degree groups, domain and cell count: a
maintained index equals a rebuild by construction.

Scans and maintenance follow the single-writer contract of the graph:
maintenance is exclusive, and so is the first scan, snapshot or dump after
it, which rebuilds the grids; later scans may run concurrently.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from time import perf_counter
from typing import Iterable

from .embedding import (
    EmbeddingConfig,
    MODE_PLAIN,
    Vec,
    base_vector,
    embedding_key,
    label_vector,
)
from .errors import DegreeOutOfRange
from .graph import DynamicGraph, INSERT, Label, UpdateOp, VertexId

# Slack applied to filter comparisons only (never to the exact dominance
# predicate): sums of identical floats taken in different orders can differ
# in the last ulps, and a pruning filter must never drop a true match over
# rounding.  False positives this lets through are removed by refinement.
FILTER_EPS = 1e-9

# grid domain headroom over the initial-graph estimate of embedding extents
_DOMAIN_EPS = 0.01

# cap on exhaustive search over degree-group boundary placements
_MAX_BOUNDARY_COMBOS = 200_000


def dominated_within(a: Vec, b: Vec, eps: float = FILTER_EPS) -> bool:
    """Filter-grade dominance: a[j] <= b[j] + eps on every dimension."""
    return all(ai <= bi + eps for ai, bi in zip(a, b))


# -- degree grouping ----------------------------------------------------------


@dataclass(frozen=True)
class DegreeGroups:
    """Partition of [1, inf) into contiguous integer degree intervals.

    ``cutoffs`` holds the interior boundaries; group j (0-based) covers
    (lower_j, upper_j] with lower_0 = 0 and the last upper bound infinite.
    """

    cutoffs: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.cutoffs) + 1

    def lower(self, j: int) -> int:
        return 0 if j == 0 else self.cutoffs[j - 1]

    def upper(self, j: int) -> float:
        return self.cutoffs[j] if j < len(self.cutoffs) else math.inf

    def group_of(self, degree: int) -> int:
        if degree < 1:
            raise ValueError(f"degree {degree} belongs to no group")
        return bisect_left(self.cutoffs, degree)

    def capped_degree(self, degree: int, j: int) -> int:
        """min(degree, upper_j); equals degree in the unbounded last group."""
        up = self.upper(j)
        return degree if math.isinf(up) else min(degree, int(up))


def compute_degree_groups(g0: DynamicGraph, m: int) -> DegreeGroups:
    """Choose m degree intervals with near-equal vertex mass over g0.

    Degree-zero vertices carry no mass (they sit in no synopsis).  When m
    exceeds the number of distinct positive degrees, every distinct degree
    becomes its own group.  Balance objective: minimize max - min bucket
    mass, ties broken toward the smaller max and then the lexicographically
    smallest boundaries, found by exhaustive search over boundary
    placements (greedy fallback above a combination-count cap).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    freq: dict[int, int] = {}
    for v in g0.vertices():
        d = g0.degree(v)
        if d >= 1:
            freq[d] = freq.get(d, 0) + 1
    degrees = sorted(freq)
    n = len(degrees)
    if n == 0 or m == 1:
        return DegreeGroups(())
    if m >= n:
        return DegreeGroups(tuple(degrees[:-1]))

    masses = [freq[d] for d in degrees]
    n_cuts = m - 1
    if math.comb(n - 1, n_cuts) <= _MAX_BOUNDARY_COMBOS:
        best = None
        for cuts in itertools.combinations(range(1, n), n_cuts):
            sizes = []
            prev = 0
            for c in (*cuts, n):
                sizes.append(sum(masses[prev:c]))
                prev = c
            key = (max(sizes) - min(sizes), max(sizes), cuts)
            if best is None or key < best:
                best = key
                best_cuts = cuts
        return DegreeGroups(tuple(degrees[c - 1] for c in best_cuts))

    # greedy: close a bucket once it reaches its fair share of what remains
    cuts = []
    remaining = sum(masses)
    groups_left = m
    acc = 0
    for i, mass in enumerate(masses):
        acc += mass
        if len(cuts) < n_cuts and acc >= remaining / groups_left:
            cuts.append(degrees[i])
            remaining -= acc
            acc = 0
            groups_left -= 1
    return DegreeGroups(tuple(cuts))


# -- per-vertex neighbor-label histograms --------------------------------------


@dataclass(frozen=True)
class Mbr:
    """Axis-aligned box over embedding space; first d dims are degenerate
    (every star subset shares the center vertex, hence its coordinates)."""

    low: Vec
    high: Vec

    def contains(self, p: Vec, eps: float = 0.0) -> bool:
        return all(lo - eps <= x <= hi + eps for lo, x, hi in zip(self.low, p, self.high))


def _extreme_sum(hist: dict[Label, int], order, delta: int) -> float:
    """Sum of the first ``delta`` neighbor components met along ``order``.

    ``order`` yields (component, label) pairs; each label present in the
    histogram contributes min(count, what is left of delta) copies.
    """
    acc = 0.0
    for comp, lbl in order:
        c = hist.get(lbl)
        if c:
            if c >= delta:
                return acc + delta * comp
            acc += c * comp
            delta -= c
    return acc


class NeighborListStore:
    """Per-vertex neighbor-label histograms for one graph, plus boxes.

    Every neighbor contributes its label's vector, so ``hist[v]`` (label ->
    number of neighbors carrying it) is all the state a box needs.  A
    store-wide label table holds, per label seen, its box frame: the d head
    coordinates, and the constant added to ``alpha * raw_sum`` on each tail
    dimension (plain mode is alpha = 1 with zero constants).  ``order[k]``
    lists the (component on dimension k, label) pairs of every known label
    in ascending order.  Every float read
    from the store is a pure function of a histogram and the label table, so
    a maintained store equals a rebuild by construction.
    """

    def __init__(self, graph: DynamicGraph, cfg: EmbeddingConfig):
        self.graph = graph
        self.cfg = cfg
        self.alpha = 1.0 if cfg.mode == MODE_PLAIN else cfg.alpha
        self.hist: dict[VertexId, dict[Label, int]] = {}
        self.frames: dict[Label, tuple[Vec, Vec]] = {}  # head, tail constants
        self.order: list[list[tuple[float, Label]]] = [[] for _ in range(cfg.d)]

    @classmethod
    def build(cls, graph: DynamicGraph, cfg: EmbeddingConfig) -> "NeighborListStore":
        store = cls(graph, cfg)
        labels = graph.labels
        for lbl in set(labels.values()):
            store._frame(lbl)
        for v in graph.vertices():
            hist: dict[Label, int] = {}
            for n in graph.adj[v]:
                lbl = labels[n]
                hist[lbl] = hist.get(lbl, 0) + 1
            store.hist[v] = hist
        return store

    def _frame(self, label: Label) -> tuple[Vec, Vec]:
        """The label's box frame; a label seen first is also ordered."""
        frame = self.frames.get(label)
        if frame is None:
            cfg = self.cfg
            x = label_vector(label, cfg)
            if cfg.mode == MODE_PLAIN:
                frame = (x, (0.0,) * cfg.d)
            else:
                z = base_vector(label, cfg)
                a, b = cfg.alpha, cfg.beta
                head = tuple(a * x[k] + b * z[k] for k in range(cfg.d))
                frame = (head, tuple(b * z[cfg.d + k] for k in range(cfg.d)))
            self.frames[label] = frame
            for k, order in enumerate(self.order):
                insort(order, (x[k], label))
        return frame

    def count(self, v: VertexId, label: Label, step: int) -> None:
        """Add ``step`` (+1 or -1) neighbors carrying ``label`` to v."""
        self._frame(label)
        hist = self.hist.setdefault(v, {})
        c = hist.get(label, 0) + step
        if c:
            hist[label] = c
        else:
            del hist[label]

    def degree(self, v: VertexId) -> int:
        hist = self.hist.get(v)
        return sum(hist.values()) if hist else 0

    def neighbor_sum(self, v: VertexId) -> Vec:
        hist = self.hist.get(v, {})
        deg = sum(hist.values())
        return tuple(_extreme_sum(hist, order, deg) for order in self.order)

    def embedding(self, v: VertexId) -> Vec:
        """Current full-star embedding of v, from the maintained histogram."""
        head, tail = self._frame(self.graph.label(v))
        a = self.alpha
        return head + tuple(a * y + t for y, t in zip(self.neighbor_sum(v), tail))

    def mbr(self, v: VertexId, delta: int) -> Mbr:
        """Bounds over embeddings of all delta-leaf star subsets of v."""
        hist = self.hist.get(v, {})
        deg = sum(hist.values())
        if not 1 <= delta <= deg:
            raise DegreeOutOfRange(
                f"delta {delta} outside [1, {deg}] for vertex {v}"
            )
        head, tail = self._frame(self.graph.label(v))
        a = self.alpha
        low = []
        high = []
        for order, t in zip(self.order, tail):
            low.append(a * _extreme_sum(hist, order, delta) + t)
            high.append(a * _extreme_sum(hist, reversed(order), delta) + t)
        return Mbr(low=head + tuple(low), high=head + tuple(high))


# -- grid synopses ------------------------------------------------------------


@dataclass
class VertexEntry:
    vertex: VertexId
    ub_delta: int
    corner: Vec  # upper corner of the box at the capped degree


class Cell:
    __slots__ = ("coords", "corner", "key", "entries")

    def __init__(self, coords: tuple[int, ...], corner: Vec):
        self.coords = coords
        self.corner = corner
        self.key = embedding_key(corner)
        self.entries: list[VertexEntry] = []


@dataclass
class ScanStats:
    """Per-scan pruning accounting.

    ``examined`` counts entries in every cell reached before the key
    cutoff; the pruned_* fields partition examined - survivors by the
    filter that removed each entry, applied in order: whole-cell
    dominance, per-entry corner dominance, label equality, per-degree
    box membership.
    """

    cells_scanned: int = 0
    examined: int = 0
    pruned_cell: int = 0
    pruned_dominance: int = 0
    pruned_label: int = 0
    pruned_box: int = 0
    survivors: int = 0

    @property
    def pruning_power(self) -> float:
        """1 - survivors/examined; 1.0 when the key cutoff examined nothing."""
        if self.examined == 0:
            return 1.0
        return 1.0 - self.survivors / self.examined

    @property
    def dominated(self) -> int:
        """Entries the query embedding dominates, labels disregarded.

        This is the false-alarm count the embedding-mode designs compete
        on; the label and box filters downstream are mode-insensitive.
        """
        return self.examined - self.pruned_cell - self.pruned_dominance

    @property
    def dominance_pruning_power(self) -> float:
        """1 - dominated/examined: pruning by dominance filters alone."""
        if self.examined == 0:
            return 1.0
        return 1.0 - self.dominated / self.examined


class GridSynopsis:
    """Equal-width grid over one degree group's capped-degree corners.

    Built once from its entries and never edited.  The top interval on each
    dimension is unbounded (its corner coordinate is +inf): values beyond
    the frozen domain clamp into it, which keeps the key cutoff and cell
    dominance sound when the graph drifts past the initial extent estimate.
    """

    def __init__(
        self,
        group: int,
        lower: int,
        upper: float,
        k_cells: int,
        domain: float,
        entries: Iterable[VertexEntry],
    ):
        self.group = group
        self.lower = lower
        self.upper = upper
        self.k_cells = k_cells
        self.domain = domain
        self.width = domain / k_cells
        self.cells: dict[tuple[int, ...], Cell] = {}
        for entry in entries:
            coords = self.cell_coords(entry.corner)
            cell = self.cells.get(coords)
            if cell is None:
                cell = self.cells[coords] = Cell(coords, self._cell_corner(coords))
            cell.entries.append(entry)
        self.order: list[tuple[float, tuple[int, ...]]] = sorted(  # (-key, coords)
            (-cell.key, coords) for coords, cell in self.cells.items()
        )

    def __len__(self) -> int:
        return sum(len(cell.entries) for cell in self.cells.values())

    def cell_coords(self, point: Vec) -> tuple[int, ...]:
        k = self.k_cells
        w = self.width
        return tuple(min(int(x / w) if x > 0 else 0, k - 1) for x in point)

    def _cell_corner(self, coords: tuple[int, ...]) -> Vec:
        return tuple(
            math.inf if c == self.k_cells - 1 else (c + 1) * self.width for c in coords
        )

    def snapshot(self) -> dict:
        """Canonical content for equality checks (entry order independent)."""
        return {
            coords: sorted((e.vertex, e.ub_delta, e.corner) for e in cell.entries)
            for coords, cell in self.cells.items()
        }

    def dump(self) -> str:
        lines = []
        for negkey, coords in self.order:
            cell = self.cells[coords]
            cs = ",".join(map(str, coords))
            lines.append(f"cell {cs} key={-negkey:.6g} entries={len(cell.entries)}")
        return "\n".join(lines)


def scan_candidates(
    syn: GridSynopsis,
    q_embed: Vec,
    q_degree: int,
    q_label: int,
    lists: NeighborListStore,
) -> tuple[list[VertexId], ScanStats]:
    """Candidate vertices for one query vertex from one synopsis.

    Walks cells in descending key order and stops once a cell key falls
    below the query key (minus a float-safety slack); inside surviving
    cells keeps a vertex only if the query embedding dominates the stored
    corner, its label matches, and the query embedding lies inside the
    vertex's box at exactly the query degree.  All three are necessary
    conditions for a match, so no true match image is ever dropped.
    """
    stats = ScanStats()
    out: list[VertexId] = []
    key_q = embedding_key(q_embed)
    # dominance is checked with +eps per dimension; widen the key cutoff by
    # the worst-case key growth so the two filters cannot disagree
    cutoff = key_q - 2.0 * FILTER_EPS * len(q_embed) * syn.domain - 1e-12
    labels = lists.graph.labels
    for negkey, coords in syn.order:
        if -negkey < cutoff:
            break
        cell = syn.cells[coords]
        n = len(cell.entries)
        stats.cells_scanned += 1
        stats.examined += n
        if not dominated_within(q_embed, cell.corner):
            stats.pruned_cell += n
            continue
        for entry in cell.entries:
            v = entry.vertex
            if not dominated_within(q_embed, entry.corner):
                stats.pruned_dominance += 1
            elif labels.get(v) != q_label:
                stats.pruned_label += 1
            elif q_degree > lists.degree(v) or not lists.mbr(v, q_degree).contains(
                q_embed, FILTER_EPS
            ):
                stats.pruned_box += 1
            else:
                out.append(v)
                stats.survivors += 1
    return out, stats


# -- the full index -----------------------------------------------------------


@dataclass
class MaintenanceReport:
    """Time spent on one update's histogram edits.

    Grids are rebuilt rather than edited, so the entry fields stay zero;
    they remain for readers of the report such as perfbench's tracer.
    """

    entries_added: int = 0
    entries_removed: int = 0
    entries_moved: int = 0
    entries_refreshed: int = 0
    list_update_seconds: float = 0.0
    entry_update_seconds: float = 0.0


class SynopsisIndex:
    """All degree-group synopses plus the shared neighbor-label histograms.

    Degree groups and the grid domain are frozen at build time (from the
    initial graph).  Maintenance edits only the histograms, which equal a
    rebuild by construction, and drops the grids; :attr:`synopses` rebuilds
    them from the histograms when next read.  So every scan, ``snapshot()``
    and ``dump()`` sees exactly what a from-scratch build over the current
    snapshot (with the same frozen parameters) would produce.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        groups: DegreeGroups,
        cfg: EmbeddingConfig,
        k_cells: int,
        domain: float,
        lists: NeighborListStore,
    ):
        self.graph = graph
        self.groups = groups
        self.cfg = cfg
        self.k_cells = k_cells
        self.domain = domain
        self.lists = lists
        self._grids: list[GridSynopsis] | None = self._build_grids()

    @classmethod
    def build(
        cls,
        graph: DynamicGraph,
        groups: DegreeGroups,
        cfg: EmbeddingConfig,
        k_cells: int,
        domain: float | None = None,
    ) -> "SynopsisIndex":
        if k_cells < 1:
            raise ValueError(f"k_cells must be >= 1, got {k_cells}")
        lists = NeighborListStore.build(graph, cfg)
        if domain is None:
            domain = default_domain(lists, cfg)
        return cls(graph, groups, cfg, k_cells, domain, lists)

    def _build_grids(self) -> list[GridSynopsis]:
        groups = self.groups
        adj = self.graph.adj
        mbr = self.lists.mbr
        entries: list[list[VertexEntry]] = [[] for _ in range(groups.m)]
        for v in self.graph.vertices():
            degree = len(adj[v])
            for j in range(groups.m):
                if degree <= groups.lower(j):  # lower bounds ascend with j
                    break
                ub = groups.capped_degree(degree, j)
                entries[j].append(VertexEntry(v, ub, mbr(v, ub).high))
        return [
            GridSynopsis(j, groups.lower(j), groups.upper(j), self.k_cells, self.domain, e)
            for j, e in enumerate(entries)
        ]

    @property
    def synopses(self) -> list[GridSynopsis]:
        """The grids, rebuilt first if an update came after the last build."""
        if self._grids is None:
            self._grids = self._build_grids()
        return self._grids

    def maintain(self, op: UpdateOp) -> MaintenanceReport:
        """Apply one graph update to the histograms and drop the grids.

        Must be called with the op that the graph this index was built over
        has just accepted, before any other op is applied.  Both endpoints
        then exist, so neither histogram edit can fail.
        """
        t0 = perf_counter()
        step = 1 if op.kind == INSERT else -1
        self.lists.count(op.u, self.graph.label(op.v), step)
        self.lists.count(op.v, self.graph.label(op.u), step)
        self._grids = None
        return MaintenanceReport(list_update_seconds=perf_counter() - t0)

    def scan_for_degree(
        self, q_embed: Vec, q_degree: int, q_label: int
    ) -> tuple[list[VertexId], ScanStats]:
        syn = self.synopses[self.groups.group_of(q_degree)]
        return scan_candidates(syn, q_embed, q_degree, q_label, self.lists)

    def embedding_of(self, v: VertexId) -> Vec:
        return self.lists.embedding(v)

    def snapshot(self) -> dict:
        return {
            "domain": self.domain,
            "cutoffs": self.groups.cutoffs,
            "synopses": [syn.snapshot() for syn in self.synopses],
            "lists": {
                v: tuple(sorted(hist.items()))
                for v, hist in self.lists.hist.items()
                if hist
            },
        }

    def dump(self) -> str:
        parts = []
        for syn in self.synopses:
            parts.append(
                f"# synopsis {syn.group} degrees ({syn.lower}, {syn.upper}] "
                f"entries={len(syn)}"
            )
            text = syn.dump()
            if text:
                parts.append(text)
        return "\n".join(parts) + "\n"


def default_domain(lists: NeighborListStore, cfg: EmbeddingConfig) -> float:
    """Grid extent from the current graph's largest neighbor-sum component.

    Optimized modes are dominated by the beta term, so the extent is beta
    plus headroom plus the (small) alpha image of the sum estimate; plain
    mode just covers the raw concat range.  Later growth past the estimate
    clamps into the unbounded top interval.
    """
    sum_max = 0.0
    for v, hist in lists.hist.items():
        if hist:
            sum_max = max(sum_max, *lists.neighbor_sum(v))
    if cfg.mode == MODE_PLAIN:
        return (1.0 + _DOMAIN_EPS) * max(1.0, sum_max)
    return cfg.beta * (1.0 + _DOMAIN_EPS) + cfg.alpha * max(1.0, sum_max)
