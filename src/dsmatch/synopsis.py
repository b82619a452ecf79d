"""Degree-grouped grid synopses and label count columns over vertex
embeddings.

One grid per degree group.  A vertex of degree ``deg`` appears in every
group whose lower bound it exceeds, filed under the upper corner of the
bounding box of its star-subset embeddings at the group-capped degree.
Cells are kept in descending order of their squared-norm key, so scans stop
once no remaining cell can be dominated by a query embedding.

Boxes are never materialized.  Each vertex keeps a histogram of its
neighbors' labels; each label is a run of equal components per dimension,
so the box for degree delta spans the sum of the delta smallest to the sum
of the delta largest components, the runs taken largest first.  An update
is one histogram edit per endpoint.  A grid cell keeps its entries as rows
in graph order, each a vertex, its label and its corner; a scan compares
the corner as floats, then the label, then the box at the query degree.

Registration reads no grid.  Given a query vertex's need (its neighbor
label counts), a scan keeps the vertices of its label with at least as many
neighbors of each needed label: count cover implies the box at the query
degree, which lies inside the grid corner, so the grid would decide none of
them.  :class:`LabelColumns` packs those counts into one int per (label,
needed label) of unsigned fields, each label's 1, 2, 4 or 8 bytes wide as
its vertices' degrees need (:func:`pack`), and its scan tests a column
whole against a needed count (:func:`at_least`); a needed count too wide
for the fields keeps no vertex.  A scan counts its candidates off the
mask's set bits and returns them as a one-pass iterator
(:func:`selected`), decoded only when read.
No comparison carries a slack: neighbor sums are exact and rounding is
monotone (:mod:`dsmatch.embedding`), so every filter admits each true
match image.

The grid domain is estimated on its first read, over the graph as it then
stands, from the largest exact neighbor-sum component
(:func:`estimate_domain`).

Grids and label columns are built only when read: the first need-less
scan, snapshot or dump builds each grid in one pass over the vertices,
boxing each at the group-capped degree, and a label's first need fills
its columns in one pass over its vertices' histograms.  An update drops
both, so the next read derives them from the histograms with the same
degree groups, domain and cell count: a maintained index equals a rebuild
by construction.  Maintenance is exclusive (the graph's single-writer
contract), and so are the first reads that write: the domain's first
read, and a grid build or a label fill since construction or the last
update.  Later reads may run concurrently; the store's sums and boxes
cache nothing, and its label frames are pure functions of a label, filled
on first read.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Callable, Iterable, Iterator, Sequence

from .embedding import (
    BETA,
    EmbeddingConfig,
    MODE_PLAIN,
    Vec,
    compose,
    dominates,
    embed_vertex,
    embedding_key,
    is_real,
    label_vector,
    neighbor_sum,
)
from .errors import DegreeOutOfRange, InvalidParams
from .graph import DynamicGraph, INSERT, Label, UpdateOp, VertexId

# unused here, as no filter has a slack; the benchmark harness imports both
FILTER_EPS = 0.0
dominated_within = dominates

# grid domain headroom over the initial-graph estimate of embedding extents
_DOMAIN_EPS = 0.01

# cap on exhaustive search over degree-group boundary placements
_MAX_BOUNDARY_COMBOS = 200_000

# default degree-group count m and grid cells per dimension k
M_GROUPS = 3
K_CELLS = 5

# the array typecodes of unsigned ints by byte width, narrowest first
_TYPECODES = {1: "B", 2: "H", 4: "I", 8: "Q"}

Need = tuple[tuple[Label, int], ...]  # (label, neighbors carrying it), by label


def pack(col: array) -> int:
    """One int whose i-th little-endian field of ``col.itemsize`` bytes
    holds ``col[i]``, whatever the host's byte order; a big-endian host
    swaps ``col``'s bytes in place."""
    if sys.byteorder == "big":
        col.byteswap()
    return int.from_bytes(col.tobytes(), "little")


def repeated(reps: dict[tuple[bytes, int], int], field: bytes, n: int) -> int:
    """``field`` packed n times, kept in ``reps`` for later scans."""
    key = (field, n)
    return reps.get(key) or reps.setdefault(key, int.from_bytes(field * n, "little"))


def at_least(col: int, xs: int, signs: int) -> int:
    """Bit 8w - 1 of w-byte field i set iff ``col[i] >= x``, where each field
    of ``xs`` holds x and each of ``signs`` bit 8w - 1 alone, every value of
    ``col`` and x an int in [0, T), T = 2^(8w - 1).

    The top bit is clear in x and in every value of ``col``: setting it puts
    a field at ``col[i] + T``, and the difference ``col[i] + T - x`` lies in
    [1, 2T), at or above T iff ``col[i] >= x``.  No field goes negative or
    past 8w bits: no borrow crosses."""
    return ((col ^ signs) - xs) & signs


# -- degree grouping ----------------------------------------------------------


@dataclass(frozen=True)
class DegreeGroups:
    """Partition of [1, inf) into contiguous integer degree intervals.

    ``cutoffs`` holds the interior boundaries; group j (0-based) covers
    (lower_j, upper_j] with lower_0 = 0 and the last upper bound infinite.
    """

    cutoffs: tuple[int, ...]

    def __post_init__(self):
        c = self.cutoffs
        ints = isinstance(c, tuple) and all(type(x) is int for x in c)
        if not ints or not all(a < b for a, b in zip((0, *c), c)):
            raise InvalidParams(
                f"degree-group cutoffs must be a tuple of strictly increasing ints >= 1, got {c}"
            )

    @property
    def m(self) -> int:
        return len(self.cutoffs) + 1

    def lower(self, j: int) -> int:
        return 0 if j == 0 else self.cutoffs[j - 1]

    def upper(self, j: int) -> float:
        return self.cutoffs[j] if j < len(self.cutoffs) else math.inf

    def group_of(self, degree: int) -> int:
        if degree < 1:
            raise DegreeOutOfRange(f"degree {degree} outside every group's range [1, inf)")
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
    if type(m) is not int or m < 1:
        raise InvalidParams(f"m must be >= 1 and an int, got {m!r}")
    freq = Counter(map(len, g0.adj.values()))
    del freq[0]
    degrees = sorted(freq)
    n = len(degrees)
    if n == 0 or m == 1:
        return DegreeGroups(())
    if m >= n:
        return DegreeGroups(tuple(degrees[:-1]))

    masses = [freq[d] for d in degrees]
    n_cuts = m - 1
    if math.comb(n - 1, n_cuts) <= _MAX_BOUNDARY_COMBOS:
        ends = list(itertools.accumulate(masses, initial=0))  # ends[i]: mass of degrees[:i]
        best = None
        for cuts in itertools.combinations(range(1, n), n_cuts):
            sizes = [ends[b] - ends[a] for a, b in zip((0, *cuts), (*cuts, n))]
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


class LabelTable(dict):
    """Label -> ``of(label)``, computed on its first read by subscript."""

    def __init__(self, of: Callable[[Label], object]):
        self.of = of

    def __missing__(self, label: Label):
        return self.setdefault(label, self.of(label))


def label_frame(label: Label, cfg: EmbeddingConfig) -> tuple[Vec, Vec]:
    """The label's box frame: a leafless star's d head coordinates, and the
    constants its d tail coordinates add to ``alpha * raw_sum``."""
    e = compose(label_vector(label, cfg), (0.0,) * cfg.d, label, cfg)
    return e[: cfg.d], e[cfg.d :]


class NeighborListStore:
    """Per-vertex neighbor-label histograms for one graph, plus boxes.

    Every neighbor contributes its label's vector, so ``hist[v]`` (label ->
    number of neighbors carrying it) is all the state a box needs.  Two
    label tables, filled on first read, hold per label its box frame
    (:func:`label_frame`; plain mode is alpha = 1 with zero constants) and,
    in ``comps[k]``, its label-vector component on dimension k.
    Boxes and capped sums (:meth:`capped_sums`) are read off a histogram
    afresh and never kept.  Sums of components are exact in any order, so
    each is a pure function of a histogram and the label tables.
    """

    def __init__(self, graph: DynamicGraph, cfg: EmbeddingConfig):
        self.graph = graph
        self.cfg = cfg
        self.alpha = 1.0 if cfg.mode == MODE_PLAIN else cfg.alpha
        self.frames = LabelTable(lambda lbl: label_frame(lbl, cfg))
        self.comps = [LabelTable(lambda lbl, k=k: label_vector(lbl, cfg)[k]) for k in range(cfg.d)]
        labels = graph.labels
        self.hist: dict[VertexId, dict[Label, int]] = {}
        for v in graph.vertices():
            hist = self.hist[v] = {}
            for n in graph.adj[v]:
                lbl = labels[n]
                hist[lbl] = hist.get(lbl, 0) + 1

    def count(self, v: VertexId, label: Label, step: int) -> None:
        """Add ``step`` (+1 or -1) neighbors carrying ``label`` to v."""
        hist = self.hist.get(v)
        if hist is None:
            hist = self.hist[v] = {}
        c = hist.get(label, 0) + step
        if c:
            hist[label] = c
        else:
            del hist[label]

    def degree(self, v: VertexId) -> int:
        return len(self.graph.adj.get(v, ()))

    def capped_sums(self, v: VertexId, caps: Sequence[int]) -> list[float]:
        """Per dimension in turn, the sum of v's ``cap`` largest neighbor
        components at each cap of ``caps``, ascending in [0, deg(v)]: its
        raw high box bounds.  Each label is a run of equal components, one
        per neighbor carrying it; the runs, largest first, are taken
        greedily, each cap's sum emitted in the run it ends in."""
        hist = self.hist[v]
        out, n = [], len(caps)
        for comps in self.comps:
            total, taken, i = 0.0, 0, 0
            for lbl in sorted(hist, key=comps.__getitem__, reverse=True):
                c, x = hist[lbl], comps[lbl]
                while i < n and caps[i] <= taken + c:
                    out.append(total + (caps[i] - taken) * x)
                    i += 1
                if i == n:
                    break
                total += c * x
                taken += c
        return out

    def mbr(self, v: VertexId, delta: int) -> Mbr:
        """Bounds over embeddings of all delta-leaf star subsets of v: per
        dimension, the sums of its delta smallest and delta largest neighbor
        components, the former all deg(v) of them less the deg(v) - delta
        largest: sums are exact, so one ``capped_sums`` call gives both."""
        deg = self.degree(v)
        if not 1 <= delta <= deg:
            raise DegreeOutOfRange(f"delta {delta} outside [1, {deg}] for vertex {v}")
        head, tail = self.frames[self.graph.label(v)]
        caps = sorted((delta, deg - delta, deg))
        a, sums = self.alpha, self.capped_sums(v, caps)
        rest, high = sums[caps.index(deg - delta) :: 3], sums[caps.index(delta) :: 3]
        return Mbr(
            low=head + tuple(a * (s - x) + t for s, x, t in zip(sums[2::3], rest, tail)),
            high=head + tuple(a * s + t for s, t in zip(high, tail)),
        )


# -- grid synopses ------------------------------------------------------------


class Cell:
    """One grid cell: its coordinates, corner and key, and one row per
    entry in graph order: the vertex, its label and its corner."""

    __slots__ = ("coords", "corner", "key", "rows")

    def __init__(self, coords: tuple[int, ...], corner: Vec):
        self.coords = coords
        self.corner = corner
        self.key = embedding_key(corner)
        self.rows: list[tuple[VertexId, Label, Vec]] = []


@dataclass
class ScanStats:
    """Per-scan pruning accounting.

    For a grid scan, ``examined`` counts entries in every cell reached
    before the key cutoff; the pruned_* fields partition examined -
    survivors by the filter that removed each entry, applied in order:
    whole-cell dominance, per-entry corner dominance, label equality, and
    box membership at the query degree (``pruned_box``).  A need scan
    examines the query label's vertices, ``pruned_box`` counts those that
    fail the count test, and the other fields are 0.
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
        return 1.0 - self.survivors / self.examined if self.examined else 1.0

    @property
    def dominated(self) -> int:
        """Entries the query embedding dominates, labels disregarded: the
        false-alarm count the embedding modes compete on, as the label and
        box filters downstream are mode-insensitive."""
        return self.examined - self.pruned_cell - self.pruned_dominance

    @property
    def dominance_pruning_power(self) -> float:
        """1 - dominated/examined: pruning by dominance filters alone."""
        return 1.0 - self.dominated / self.examined if self.examined else 1.0


class GridSynopsis:
    """Equal-width grid over one degree group's capped-degree corners.

    Built once and never edited, in one pass over the graph's vertices:
    each vertex above the group's lower bound, filed under the high corner
    of its box at the group-capped degree.  ``cells`` lists the non-empty
    cells in scan order, descending key with ties on coordinates.  The top
    interval on each dimension is unbounded (its corner coordinate is
    +inf): values beyond the frozen domain clamp into it, which keeps the
    key cutoff and cell dominance sound when the graph drifts past the
    initial extent estimate.
    """

    def __init__(
        self, store: NeighborListStore, group: int, lower: int, upper: float, k_cells: int,
        domain: float,
    ):
        self.store = store
        self.group = group
        self.lower = lower
        self.upper = upper
        self.k_cells = k_cells
        self.width = w = domain / k_cells
        adj, mbr, top = store.graph.adj, store.mbr, k_cells - 1
        cells: dict[tuple[int, ...], Cell] = {}
        for v, label in store.graph.labels.items():  # graph order
            deg = len(adj[v])
            if deg <= lower:
                continue
            corner = mbr(v, min(deg, upper)).high
            # per value, its interval; values past the domain clamp into the top one
            coords = tuple(min(int(x / w) if x > 0 else 0, top) for x in corner)
            cell = cells.get(coords)
            if cell is None:
                cell = cells[coords] = Cell(coords, self._cell_corner(coords))
            cell.rows.append((v, label, corner))
        self.cells: list[Cell] = sorted(cells.values(), key=lambda c: (-c.key, c.coords))

    def __len__(self) -> int:
        return sum(len(c.rows) for c in self.cells)

    def _cell_corner(self, coords: tuple[int, ...]) -> Vec:
        return tuple(
            math.inf if c == self.k_cells - 1 else (c + 1) * self.width for c in coords
        )

    def snapshot(self) -> dict:
        """Canonical content for equality checks (entry order independent):
        per cell, sorted (vertex, capped degree, corner)."""
        adj = self.store.graph.adj
        return {
            c.coords: sorted((v, min(len(adj[v]), self.upper), corner) for v, _, corner in c.rows)
            for c in self.cells
        }

    def dump(self) -> str:
        return "\n".join(
            f"cell {','.join(map(str, c.coords))} key={c.key:.6g} entries={len(c.rows)}"
            for c in self.cells
        )


def scan_candidates(
    syn: GridSynopsis, q_embed: Vec, q_degree: int, q_label: int
) -> tuple[list[VertexId], ScanStats]:
    """Candidate vertices for one query vertex from one synopsis, whose
    degree group must hold ``q_degree``.

    Walks cells in descending key order and stops once a cell key falls
    below the query key; inside surviving cells keeps a vertex only if the
    query embedding dominates the stored corner, its label matches, and its
    box at exactly the query degree holds the query embedding, each row of
    a surviving cell meeting the tests in that order.  Each test is a
    necessary condition for a match, so no true match image is ever
    dropped.
    """
    if not syn.lower < q_degree <= syn.upper:
        raise DegreeOutOfRange(
            f"query degree {q_degree} outside synopsis {syn.group}'s group "
            f"({syn.lower}, {syn.upper}]"
        )
    out: list[VertexId] = []
    cutoff = embedding_key(q_embed)
    degree, mbr = syn.store.degree, syn.store.mbr
    scanned = examined = pruned_cell = pruned_dominance = pruned_label = pruned_box = 0
    for cell in syn.cells:
        if cell.key < cutoff:
            break
        scanned += 1
        examined += len(cell.rows)
        if not dominates(q_embed, cell.corner):
            pruned_cell += len(cell.rows)
            continue
        for v, label, corner in cell.rows:
            if not dominates(q_embed, corner):
                pruned_dominance += 1
            elif label != q_label:
                pruned_label += 1
            elif q_degree <= degree(v) and mbr(v, q_degree).contains(q_embed):
                out.append(v)
            else:
                pruned_box += 1
    return out, ScanStats(
        scanned, examined, pruned_cell, pruned_dominance, pruned_label, pruned_box, len(out)
    )


# -- label columns ------------------------------------------------------------


class LabelColumns:
    """Per label, the vertices carrying it in graph order (``members``) and,
    per needed label, one packed column (:func:`pack`) of their neighbor
    counts of it, one field of the label's width per vertex.  A label's first
    need fills all of its columns in one pass over its vertices'
    histograms (:meth:`fill`); a label that no histogram holds reads 0,
    the all-zero column.  :meth:`scan` alone reads the field layout.  The
    index drops the whole structure on every update."""

    def __init__(self, store: NeighborListStore):
        self.store = store
        self.members: dict[Label, list[VertexId]] = {}
        for v, label in store.graph.labels.items():
            self.members.setdefault(label, []).append(v)
        self.columns: dict[Label, tuple[int, dict[Label, int]]] = {}
        self.repeats: dict[tuple[bytes, int], int] = {}  # for :func:`repeated`

    def fill(self, label: Label) -> tuple[int, dict[Label, int]]:
        """The label's field width w and count columns by needed label, filled
        on first call: w bytes, the fewest of 1, 2, 4 and 8 with 2^(8w - 1)
        above every member's degree, which bounds its counts."""
        cols = self.columns.get(label)
        if cols is None:
            vs = self.members.get(label, ())
            top = max(map(len, map(self.store.graph.adj.__getitem__, vs)), default=0)
            w = next(w for w in _TYPECODES if top < 1 << 8 * w - 1)
            zeros = array(_TYPECODES[w], bytes(w * len(vs)))
            filled: dict[Label, array] = {}
            hist = self.store.hist
            for i, v in enumerate(vs):
                for lbl, c in hist[v].items():
                    col = filled.get(lbl)
                    if col is None:
                        col = filled[lbl] = zeros[:]
                    col[i] = c
            cols = self.columns[label] = w, {lbl: pack(col) for lbl, col in filled.items()}
        return cols

    def scan(self, label: Label, need: Need) -> tuple[Iterator[VertexId], int, int]:
        """The vertices of ``label`` that cover ``need``, as a one-pass
        iterator in graph order (:func:`selected`), how many they are, and
        how many vertices the label has.  The needed counts' masks
        (:func:`at_least`) AND until one is empty; each field's top bit
        selects, and a kept field holds that bit alone, so the mask's bit
        count is the kept count.  A needed count of 2^(8w - 1) or more,
        which no w-byte count reaches, keeps none."""
        (w, cols), vs, reps = self.fill(label), self.members.get(label, ()), self.repeats
        n, top = len(vs), 1 << 8 * w - 1
        signs = mask = repeated(reps, top.to_bytes(w, "little"), n)
        for needed, c in need:
            if c >= top:
                return iter(()), 0, n
            mask &= at_least(cols.get(needed, 0), repeated(reps, c.to_bytes(w, "little"), n), signs)
            if not mask:
                break
        return selected(vs, mask, w), mask.bit_count(), n


def selected(vs: list[VertexId], mask: int, w: int) -> Iterator[VertexId]:
    """The members ``vs[i]`` whose w-byte field i of ``mask`` has its top
    bit set, in order.  A generator: it cuts the mask into bytes on the
    first read, not before.  No update edits ``vs``, so it yields the
    scanned snapshot's vertices whenever it is read."""
    yield from compress(vs, mask.to_bytes(w * len(vs), "little")[w - 1 :: w])


# -- the full index -----------------------------------------------------------


class MaintenanceReport:
    """Six class-level zeros, in the one report that
    :meth:`SynopsisIndex.maintain` returns for every update: grids are
    rebuilt, not edited, and maintenance reads no clock."""

    __slots__ = ()
    entries_added = entries_removed = entries_moved = entries_refreshed = 0
    list_update_seconds = entry_update_seconds = 0.0


_MAINTAINED = MaintenanceReport()


def check_k_cells(k_cells: int) -> int:
    """``k_cells``, a grid's cells per dimension, if it is an int >= 1."""
    if type(k_cells) is not int or k_cells < 1:
        raise InvalidParams(f"k_cells must be >= 1 and an int, got {k_cells!r}")
    return k_cells


class SynopsisIndex:
    """All degree-group grids and the label columns over the shared
    neighbor-label histograms.

    Degree groups are frozen at construction, and the grid domain, finite
    and positive, if not given, at its first read: :func:`estimate_domain`
    over the graph as it then stands.  The first grid build, ``snapshot()``
    or ``dump()`` reads it; no engine path does.  Maintenance edits only
    the histograms and drops the grids and label columns, which the next
    read derives afresh.  So every scan, ``snapshot()`` and ``dump()`` sees
    exactly what a from-scratch build over the current snapshot (with the
    same groups and domain) would produce.
    """

    def __init__(
        self, graph: DynamicGraph, groups: DegreeGroups, cfg: EmbeddingConfig, k_cells: int,
        domain: float | None = None,
    ):
        self.k_cells = check_k_cells(k_cells)
        if domain is not None:
            if not (is_real(domain) and math.isfinite(domain) and domain > 0):
                raise InvalidParams(f"domain must be finite and > 0, got {domain}")
            self.domain = domain
        self.graph = graph
        self.groups = groups
        self.cfg = cfg
        self.lists = NeighborListStore(graph, cfg)
        self._grids: list[GridSynopsis] | None = None
        self._columns: LabelColumns | None = None

    @cached_property
    def domain(self) -> float:
        """The grid extent, estimated on first read unless given."""
        return estimate_domain(self.graph, self.cfg)

    @property
    def synopses(self) -> list[GridSynopsis]:
        """The grids, built first if none were built since construction or
        the last update."""
        if self._grids is None:
            groups = self.groups
            self._grids = [
                GridSynopsis(self.lists, j, groups.lower(j), groups.upper(j), self.k_cells,
                             self.domain)
                for j in range(groups.m)
            ]
        return self._grids

    def maintain(self, op: UpdateOp) -> MaintenanceReport:
        """Apply one graph update to the histograms and drop the grids and
        label columns.

        Must be called with the op that the graph this index was built over
        has just accepted, before any other op is applied.  Both endpoints
        then exist, so neither histogram edit can fail.  Reads no clock
        and returns one shared all-zero report.
        """
        labels, count = self.graph.labels, self.lists.count
        step = 1 if op.kind == INSERT else -1
        count(op.u, labels[op.v], step)
        count(op.v, labels[op.u], step)
        self._grids = self._columns = None
        return _MAINTAINED

    def scan_for_degree(
        self, q_embed: Vec, q_degree: int, q_label: int, need: Need | None = None
    ) -> tuple[Iterable[VertexId], ScanStats]:
        """Candidates for a query vertex of degree ``q_degree`` >= 1.  Without
        a need, a list: :func:`scan_candidates` on the grid of its group.
        Given one, the vertices of ``q_label`` that cover it, all of its
        vertices examined (:meth:`LabelColumns.scan`): a one-pass iterator
        in graph order, decoded only as it is read, which yields this
        snapshot's candidates even if read after an update."""
        group = self.groups.group_of(q_degree)  # raises below degree 1, need or not
        if need is None:
            return scan_candidates(self.synopses[group], q_embed, q_degree, q_label)
        if self._columns is None:
            self._columns = LabelColumns(self.lists)
        kept, survivors, n = self._columns.scan(q_label, need)
        return kept, ScanStats(examined=n, pruned_box=n - survivors, survivors=survivors)

    def embedding_of(self, v: VertexId) -> Vec:
        return embed_vertex(self.graph, v, self.cfg)

    def snapshot(self) -> dict:
        return {
            "domain": self.domain,
            "cutoffs": self.groups.cutoffs,
            "synopses": [syn.snapshot() for syn in self.synopses],
            "lists": {v: tuple(sorted(h.items())) for v, h in self.lists.hist.items() if h},
        }

    def dump(self) -> str:
        parts = []
        for syn in self.synopses:
            parts.append(f"# synopsis {syn.group} degrees ({syn.lower}, {syn.upper}] "
                         f"entries={len(syn)}")
            text = syn.dump()
            if text:
                parts.append(text)
        return "\n".join(parts) + "\n"


def estimate_domain(graph: DynamicGraph, cfg: EmbeddingConfig) -> float:
    """:func:`default_domain` of the graph's largest neighbor-sum component,
    read off every vertex's exact sums (:func:`neighbor_sum`)."""
    sums = itertools.chain.from_iterable(neighbor_sum(graph, v, cfg) for v in graph.vertices())
    return default_domain(cfg, max(sums, default=0.0))


def default_domain(cfg: EmbeddingConfig, sum_max: float) -> float:
    """Grid extent from ``sum_max``, the largest neighbor-sum component
    over the graph (:func:`estimate_domain`).

    Optimized modes are dominated by the BETA term, so the extent is BETA
    plus headroom plus the (small) alpha image of the sum estimate; plain
    mode just covers the raw concat range.  Later growth past the estimate
    clamps into the unbounded top interval.
    """
    if cfg.mode == MODE_PLAIN:
        return (1.0 + _DOMAIN_EPS) * max(1.0, sum_max)
    return BETA * (1.0 + _DOMAIN_EPS) + cfg.alpha * max(1.0, sum_max)
