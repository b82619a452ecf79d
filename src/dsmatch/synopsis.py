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
neighbor components; both come from one pass over the vertex's walk, its
(component, count) pairs sorted once per histogram state, taking each count
until delta is used up.  An update is one histogram edit per endpoint.  A
grid cell buckets its vertices by label, whose d head coordinates a scan
tests once per bucket, and keeps only their tail coordinates.  A scan
skips a bucket whole when a query tail coordinate exceeds the bucket's
maximum, and box-tests an entry against its bucket's box table at the
query degree: every entry's tail bounds at that degree, computed once.

The grids are build-only.  Only candidate scans read them, so an update
just drops them, with their tail maxima and box tables, and the next scan,
snapshot or dump rebuilds them from the histograms with the same frozen
degree groups, domain and cell count: a maintained index equals a rebuild
by construction.

Scans and maintenance follow the single-writer contract of the graph:
maintenance is exclusive, and so is the first scan, snapshot or dump after
it, which rebuilds the grids, the first box read of a vertex after it,
which fills the vertex's walk, and the first scan to reach a bucket at a
query degree, which fills its tail maximum and box table; later reads may
run concurrently.
"""

from __future__ import annotations

import itertools
import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from time import perf_counter
from typing import Iterable

from .embedding import (
    EmbeddingConfig,
    MODE_PLAIN,
    Vec,
    compose,
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

# default degree-group count m and grid cells per dimension k
M_GROUPS = 3
K_CELLS = 5

# one tail dimension's (low, high) for a vertex whose degree is below delta
_NO_BOX = (math.inf, -math.inf)


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

    # greedy: close a bucket once it reaches its fair share of what remains,
    # or once the distinct degrees after this one are just enough to give
    # every later bucket one
    cuts = []
    remaining = sum(masses)
    groups_left = m
    acc = 0
    for i, mass in enumerate(masses):
        acc += mass
        if len(cuts) < n_cuts and (acc >= remaining / groups_left or n - 1 - i < groups_left):
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


def _walk_sum(walk: tuple, start: int, stop: int, step: int, delta: int) -> float:
    """Sum of the first ``delta`` components on a walk segment: step 2 reads
    its (component, count) pairs ascending from ``start`` (a low bound),
    step -2 descending (a high bound), each pair giving min(count, what is
    left of delta) copies of its component."""
    acc = 0.0
    i = start
    while i != stop:  # a while loop: a range() costs more than these short walks
        c = walk[i + 1]
        if c >= delta:
            return acc + delta * walk[i]
        acc += c * walk[i]
        delta -= c
        i += step
    return acc


class NeighborListStore:
    """Per-vertex neighbor-label histograms for one graph, plus boxes.

    Every neighbor contributes its label's vector, so ``hist[v]`` (label ->
    number of neighbors carrying it) is all the state a box needs.  A
    store-wide label table holds, per label seen, its box frame: the d head
    coordinates, and the constant added to ``alpha * raw_sum`` on each tail
    dimension (plain mode is alpha = 1 with zero constants).  ``keys[k]``
    maps each label seen to its sort key on dimension k: its label-vector
    component, then the label.  Boxes and neighbor sums read a vertex's
    walk: one flat tuple holding, per dimension in turn, the (component,
    count) pairs of its histogram's labels in ``keys`` order.  It is built
    when first read, and any histogram edit drops every walk.  Every float
    read from the store is a pure function of a histogram and the label
    table, so a maintained store equals a rebuild by construction.
    """

    def __init__(self, graph: DynamicGraph, cfg: EmbeddingConfig):
        self.graph = graph
        self.cfg = cfg
        self.alpha = 1.0 if cfg.mode == MODE_PLAIN else cfg.alpha
        self.hist: dict[VertexId, dict[Label, int]] = {}
        self.frames: dict[Label, tuple[Vec, Vec]] = {}  # head, tail constants
        self.keys: list[dict[Label, tuple[float, Label]]] = [{} for _ in range(cfg.d)]
        self._walks: dict[VertexId, tuple] = {}

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
        """The label's box frame; a label seen first also gets its sort keys."""
        frame = self.frames.get(label)
        if frame is None:
            d = self.cfg.d
            x = label_vector(label, self.cfg)
            for comp, keys in zip(x, self.keys):
                keys[label] = (comp, label)
            e = compose(x, (0.0,) * d, label, self.cfg)  # a star with no leaves
            frame = self.frames[label] = (e[:d], e[d:])
        return frame

    def count(self, v: VertexId, label: Label, step: int) -> None:
        """Add ``step`` (+1 or -1) neighbors carrying ``label`` to v."""
        self._frame(label)
        if self._walks:  # all of them: later edits then pay one truthiness test
            self._walks.clear()
        hist = self.hist.setdefault(v, {})
        c = hist.get(label, 0) + step
        if c:
            hist[label] = c
        else:
            del hist[label]

    def degree(self, v: VertexId) -> int:
        hist = self.hist.get(v)
        return sum(hist.values()) if hist else 0

    def walk(self, v: VertexId) -> tuple:
        """v's walk: d segments of (component, count) pairs, one sort each."""
        walk = self._walks.get(v)
        if walk is None:
            hist = self.hist.get(v, {})
            pairs = []
            for keys in self.keys:
                for lbl in sorted(hist, key=keys.__getitem__):
                    pairs.append(keys[lbl][0])
                    pairs.append(hist[lbl])
            walk = self._walks[v] = tuple(pairs)
        return walk

    def neighbor_sum(self, v: VertexId) -> Vec:
        walk, deg = self.walk(v), self.degree(v)
        n = len(walk) // self.cfg.d
        return tuple(_walk_sum(walk, k * n, k * n + n, 2, deg) for k in range(self.cfg.d))

    def embedding(self, v: VertexId) -> Vec:
        """Current full-star embedding of v, from the maintained histogram."""
        head, tail = self._frame(self.graph.label(v))
        a = self.alpha
        return head + tuple(a * y + t for y, t in zip(self.neighbor_sum(v), tail))

    def mbr(self, v: VertexId, delta: int) -> Mbr:
        """Bounds over embeddings of all delta-leaf star subsets of v."""
        deg = self.degree(v)
        if not 1 <= delta <= deg:
            raise DegreeOutOfRange(
                f"delta {delta} outside [1, {deg}] for vertex {v}"
            )
        head = self._frame(self.graph.label(v))[0]
        box = self.box_table((v,), delta)
        return Mbr(low=head + tuple(box[0::2]), high=head + tuple(box[1::2]))

    def box_table(self, vs: Iterable[VertexId], delta: int) -> array:
        """Per vertex of ``vs``, per tail dimension, the low then the high
        bound of its box at delta, each computed as ``admits`` computes it.
        A vertex of degree below delta gets (+inf, -inf) on every dimension,
        a box that no point lies in."""
        adj, labels, frames = self.graph.adj, self.graph.labels, self.frames
        a, d = self.alpha, self.cfg.d
        out = array("d")
        for v in vs:
            if delta > len(adj[v]):
                out.extend(_NO_BOX * d)
                continue
            walk = self.walk(v)
            n = len(walk) // d
            for lo, t in zip(range(0, len(walk), n), frames[labels[v]][1]):
                out.append(a * _walk_sum(walk, lo, lo + n, 2, delta) + t)
                out.append(a * _walk_sum(walk, lo + n - 2, lo - 2, -2, delta) + t)
        return out

    def admits(self, v: VertexId, delta: int, q_embed: Vec) -> bool:
        """delta <= deg(v) and ``q_embed`` in v's box at delta, within FILTER_EPS.

        Precondition: ``q_embed`` embeds a vertex labeled label(v), so its d
        head coordinates equal the box's (``compose``).  Per tail dimension
        the low bound, then the high bound is tested, returning at the first
        failure.  Admission implies dominance; deg(v) is read from the graph.
        """
        if delta > len(self.graph.adj[v]):
            return False
        walk, a, d = self.walk(v), self.alpha, self.cfg.d
        n = len(walk) // d
        tail = self.frames[self.graph.labels[v]][1]
        for k in range(d):
            lo = k * n
            x, t = q_embed[d + k], tail[k]
            if x < a * _walk_sum(walk, lo, lo + n, 2, delta) + t - FILTER_EPS:
                return False
            if x > a * _walk_sum(walk, lo + n - 2, lo - 2, -2, delta) + t + FILTER_EPS:
                return False
        return True


# -- grid synopses ------------------------------------------------------------


class Cell:
    """One grid cell: its corner, its key and its entries bucketed by label.

    A bucket holds its vertices and, flat in one array, their d tail
    coordinates each.  Two reads of a bucket are kept once the first scan
    that needs them has computed them: its maximum tail coordinate per
    dimension, and per query degree its box table (``box_table``).  Both die
    with the grid, so they always describe the current graph.
    """

    __slots__ = ("corner", "key", "buckets", "tail_max", "tables")

    def __init__(self, corner: Vec):
        self.corner = corner
        self.key = embedding_key(corner)
        self.buckets: dict[Label, tuple[list[VertexId], array]] = {}
        self.tail_max: dict[Label, tuple[float, ...]] = {}
        self.tables: dict[tuple[Label, int], array] = {}  # (label, delta) -> box table

    def __len__(self) -> int:
        return sum(len(vs) for vs, _ in self.buckets.values())

    def max_tail(self, label: Label, d: int) -> tuple[float, ...]:
        """The label bucket's largest tail coordinate per dimension, found once."""
        top = self.tail_max.get(label)
        if top is None:
            tails = self.buckets[label][1]
            top = self.tail_max[label] = tuple(max(tails[k::d]) for k in range(d))
        return top

    def box_table(self, label: Label, delta: int, lists: NeighborListStore) -> array:
        """The label bucket's ``lists.box_table`` at delta, filled once."""
        table = self.tables.get((label, delta))
        if table is None:
            table = self.tables[label, delta] = lists.box_table(self.buckets[label][0], delta)
        return table


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
        entries: Iterable[tuple[VertexId, Label, Vec, list[float]]],
    ):
        self.group = group
        self.lower = lower
        self.upper = upper
        self.k_cells = k_cells
        self.domain = domain
        self.width = domain / k_cells
        self.cells: dict[tuple[int, ...], Cell] = {}
        for v, label, head, tail in entries:
            coords = self.cell_coords(head) + self.cell_coords(tail)
            cell = self.cells.get(coords)
            if cell is None:
                cell = self.cells[coords] = Cell(self._cell_corner(coords))
            bucket = cell.buckets.get(label)
            if bucket is None:
                bucket = cell.buckets[label] = ([], array("d"))
            bucket[0].append(v)
            bucket[1].fromlist(tail)
        self.order: list[tuple[float, tuple[int, ...]]] = sorted(  # (-key, coords)
            (-cell.key, coords) for coords, cell in self.cells.items()
        )

    def __len__(self) -> int:
        return sum(map(len, self.cells.values()))

    def cell_coords(self, point: Vec) -> tuple[int, ...]:
        k = self.k_cells
        w = self.width
        return tuple(min(int(x / w) if x > 0 else 0, k - 1) for x in point)

    def _cell_corner(self, coords: tuple[int, ...]) -> Vec:
        return tuple(
            math.inf if c == self.k_cells - 1 else (c + 1) * self.width for c in coords
        )

    def snapshot(self, lists: NeighborListStore) -> dict:
        """Canonical content for equality checks (entry order independent):
        per cell, sorted (vertex, capped degree, corner)."""
        adj, d, frames = lists.graph.adj, lists.cfg.d, lists.frames
        return {
            coords: sorted(
                (v, min(len(adj[v]), self.upper), frames[lbl][0] + tuple(tails[i * d:i * d + d]))
                for lbl, (vs, tails) in c.buckets.items()
                for i, v in enumerate(vs)
            )
            for coords, c in self.cells.items()
        }

    def dump(self) -> str:
        lines = []
        for negkey, coords in self.order:
            cell = self.cells[coords]
            cs = ",".join(map(str, coords))
            lines.append(f"cell {cs} key={-negkey:.6g} entries={len(cell)}")
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

    A bucket fails dominance whole when the query's head coordinates exceed
    its label's, or a tail coordinate exceeds the bucket's maximum.  The box
    test reads the bucket's box table at the query degree.
    """
    stats = ScanStats()
    out: list[VertexId] = []
    key_q = embedding_key(q_embed)
    # dominance is checked with +eps per dimension; widen the key cutoff by
    # the worst-case key growth so the two filters cannot disagree
    cutoff = key_q - 2.0 * FILTER_EPS * len(q_embed) * syn.domain - 1e-12
    d = lists.cfg.d
    q_head, q_tail = q_embed[:d], q_embed[d:]
    pruned_dominance = pruned_label = pruned_box = 0
    for negkey, coords in syn.order:
        if -negkey < cutoff:
            break
        cell = syn.cells[coords]
        n = len(cell)
        stats.cells_scanned += 1
        stats.examined += n
        if not dominated_within(q_embed, cell.corner):
            stats.pruned_cell += n
            continue
        for label, (vs, tails) in cell.buckets.items():
            # every corner in the bucket has its label's frame head
            if not (
                dominated_within(q_head, lists.frames[label][0])
                and dominated_within(q_tail, cell.max_tail(label, d))
            ):
                pruned_dominance += len(vs)
                continue
            other_label = label != q_label
            box = None  # filled when the first entry reaches the box test
            j = 0  # v's tail coordinates are tails[j:j + d], its bounds box[2j:2j + 2d]
            for v in vs:
                for k in range(d):
                    if q_tail[k] > tails[j + k] + FILTER_EPS:
                        pruned_dominance += 1
                        break
                else:
                    if other_label:
                        pruned_label += 1
                    else:
                        if box is None:
                            box = cell.box_table(label, q_degree, lists)
                        b = 2 * j
                        for x in q_tail:
                            if x < box[b] - FILTER_EPS or x > box[b + 1] + FILTER_EPS:
                                pruned_box += 1
                                break
                            b += 2
                        else:
                            out.append(v)
                j += d
    stats.pruned_dominance = pruned_dominance
    stats.pruned_label = pruned_label
    stats.pruned_box = pruned_box
    stats.survivors = len(out)
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
        """One grid per degree group: each vertex above its lower bound, filed
        under its box's high corner at the group-capped degree."""
        lists, adj, labels, groups = self.lists, self.graph.adj, self.graph.labels, self.groups
        a, d = lists.alpha, self.cfg.d

        def entries(j: int):
            lower, upper = groups.lower(j), groups.upper(j)
            for v in self.graph.vertices():
                degree = len(adj[v])
                if degree > lower:
                    walk, label, ub = lists.walk(v), labels[v], min(degree, upper)
                    n = len(walk) // d
                    head, tail = lists.frames[label]
                    yield v, label, head, [
                        a * _walk_sum(walk, lo + n - 2, lo - 2, -2, ub) + t
                        for lo, t in zip(range(0, len(walk), n), tail)
                    ]

        return [
            GridSynopsis(j, groups.lower(j), groups.upper(j), self.k_cells, self.domain, entries(j))
            for j in range(groups.m)
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
            "synopses": [syn.snapshot(self.lists) for syn in self.synopses],
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
