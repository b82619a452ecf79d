import itertools
import math
import re
from array import array
from collections import Counter, namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmatch.embedding import (
    GRID_BITS,
    EmbeddingConfig,
    compose,
    embed_vertex,
    embedding_key,
    label_vector,
    neighbor_sum,
)
from dsmatch.errors import DegreeOutOfRange, InvalidParams
from dsmatch.graph import DELETE, INSERT, DynamicGraph, UpdateOp
from dsmatch.oracle import star_subset_embeddings
from dsmatch.rng import Rng
from dsmatch.synopsis import (
    DegreeGroups,
    Mbr,
    NeighborListStore,
    ScanStats,
    SynopsisIndex,
    _TYPECODES,
    at_least,
    compute_degree_groups,
    default_domain,
    dominated_within,
    pack,
    scan_candidates,
)

from conftest import make_graph, small_world, unpack


# -- degree grouping ----------------------------------------------------------


def graph_with_degrees(degree_multiset):
    """Star-forest whose positive-degree vertex multiset is as requested."""
    g = DynamicGraph()
    nxt = 0
    for deg in degree_multiset:
        center = nxt
        g.add_vertex(center, 0)
        nxt += 1
        for _ in range(deg):
            g.add_vertex(nxt, 1)
            g.add_edge(center, nxt)
            nxt += 1
    return g


def bucket_masses(groups: DegreeGroups, degrees):
    masses = [0] * groups.m
    for d in degrees:
        if d >= 1:
            masses[groups.group_of(d)] += 1
    return masses


def test_single_group():
    g = graph_with_degrees([1, 2, 3])
    groups = compute_degree_groups(g, 1)
    assert groups.cutoffs == ()
    assert groups.group_of(1) == groups.group_of(10 ** 6) == 0
    assert groups.upper(0) == math.inf


def test_most_balanced_split_on_small_multiset():
    # a graph whose degree multiset is exactly {1,1,1,2,2,3}:
    # 0-1, 0-2, 0-3, 3-4, 4-5 gives degrees 3,1,1,2,2,1
    g = make_graph(
        [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)], {v: 0 for v in range(6)}
    )
    assert sorted(g.degree(v) for v in g.vertices()) == [1, 1, 1, 2, 2, 3]
    groups = compute_degree_groups(g, 3)
    # the most balanced integer split: (0,1], (1,2], (2,inf) with masses 3,2,1
    assert groups.cutoffs == (1, 2)
    assert bucket_masses(groups, [g.degree(v) for v in g.vertices()]) == [3, 2, 1]
    assert groups.cutoffs == _best_cuts_for({1: 3, 2: 2, 3: 1}, 3)


def _best_cuts_for(freq, m):
    """Independent exhaustive search used as the grouping oracle."""
    degrees = sorted(freq)
    masses = [freq[d] for d in degrees]
    n = len(degrees)
    best_key, best_cuts = None, None
    for cuts in itertools.combinations(range(1, n), m - 1):
        sizes, prev = [], 0
        for c in (*cuts, n):
            sizes.append(sum(masses[prev:c]))
            prev = c
        key = (max(sizes) - min(sizes), max(sizes), cuts)
        if best_key is None or key < best_key:
            best_key, best_cuts = key, cuts
    return tuple(degrees[c - 1] for c in best_cuts)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_grouping_matches_exhaustive_oracle(data):
    n_distinct = data.draw(st.integers(min_value=2, max_value=8))
    degrees = sorted(
        data.draw(
            st.lists(
                st.integers(1, 30), min_size=n_distinct, max_size=n_distinct, unique=True
            )
        )
    )
    freq = {d: data.draw(st.integers(1, 20)) for d in degrees}
    m = data.draw(st.integers(1, n_distinct))
    # the implementation consumes a graph; feed it the same multiset
    multiset = [d for d, f in freq.items() for _ in range(f)]
    g = graph_with_degrees(multiset)
    leaf_mass = sum(d * f for d, f in freq.items())
    freq_with_leaves = dict(freq)
    freq_with_leaves[1] = freq_with_leaves.get(1, 0) + leaf_mass
    groups = compute_degree_groups(g, m)
    if m == 1:
        assert groups.cutoffs == ()
        return
    distinct = sorted(freq_with_leaves)
    if m >= len(distinct):
        assert groups.cutoffs == tuple(distinct[:-1])
        return
    assert groups.cutoffs == _best_cuts_for(freq_with_leaves, m)


class DegreeStub:
    """Just the graph surface ``compute_degree_groups`` reads, its ``adj``:
    one vertex per entry of ``degrees``, with that many (unnamed)
    neighbors."""

    def __init__(self, degrees):
        self.adj = {v: range(d) for v, d in enumerate(degrees)}


def test_exhaustive_grouping_equals_slice_sums_on_many_distinct_degrees():
    # the exhaustive search sizes each bucket off prefix sums of the
    # masses; on multisets of up to 60 distinct degrees and m = 2 to 5,
    # every placement count under the cap, its cutoffs equal those of the
    # slice-summing reference
    rng = Rng(29)
    checked = 0
    while checked < 40:
        n, m = rng.randint(2, 60), rng.randint(2, 5)
        if not m < n or math.comb(n - 1, m - 1) > 20_000:
            continue
        degrees = sorted(rng.sample(range(1, 200), n))
        freq = {d: rng.randint(1, 30) for d in degrees}
        stub = DegreeStub([d for d, f in freq.items() for _ in range(f)])
        assert compute_degree_groups(stub, m).cutoffs == _best_cuts_for(freq, m)
        checked += 1


@pytest.mark.parametrize("m", [2.5, 3.0, True, "3", None])
def test_non_int_group_count_is_rejected(m):
    with pytest.raises(InvalidParams, match=r"m must be >= 1 and an int"):
        compute_degree_groups(graph_with_degrees([1, 2, 3]), m)


@pytest.mark.parametrize("k", [2.5, 5.0, True, "5", None])
def test_non_int_cell_count_is_rejected(cfg_plain, k):
    # at 2.5 the grid would have a fractional top interval
    g = make_graph([(0, 1)], {0: 0, 1: 1})
    with pytest.raises(InvalidParams, match=r"k_cells must be >= 1 and an int"):
        SynopsisIndex(g, DegreeGroups(()), cfg_plain, k)


def test_grouping_m_exceeding_distinct_collapses():
    g = graph_with_degrees([4, 4, 7])
    groups = compute_degree_groups(g, 10)
    assert groups.cutoffs == (1, 4)  # distinct degrees {1, 4, 7}
    assert groups.m == 3


def test_greedy_grouping_fills_every_group_when_mass_sits_on_top():
    # degrees 1..60 once each plus 2,000 vertices of degree 61: C(60, 4)
    # boundary placements exceed the exhaustive cap, so the greedy path runs,
    # and no bucket reaches its fair share before the top degree
    degrees = list(range(1, 61)) + [61] * 2000
    groups = compute_degree_groups(DegreeStub(degrees), 5)
    assert groups.m == 5
    assert all(a < b for a, b in zip(groups.cutoffs, groups.cutoffs[1:]))
    masses = bucket_masses(groups, degrees)
    assert min(masses) > 0
    assert max(masses) - min(masses) <= 2000  # c08: the largest single-degree mass


# -- per-degree boxes ----------------------------------------------------------


def test_mbr_plain_hand_example():
    # neighbor labels 4, 2, 2, 1 put components c4 < c2 = c2 < c1 on the one
    # dimension: delta 2 spans [c4 + c2, c2 + c1], delta 3 [c4 + 2c2, 2c2 + c1]
    cfg = EmbeddingConfig(d=1, mode="plain")
    g = make_graph([(0, 1), (0, 2), (0, 3), (0, 4)], {0: 0, 1: 4, 2: 2, 3: 2, 4: 1})
    store = NeighborListStore(g, cfg)
    (c1,), (c2,), (c4,) = (label_vector(lbl, cfg) for lbl in (1, 2, 4))
    assert c4 < c2 < c1
    x = label_vector(0, cfg)
    box = store.mbr(0, 2)
    assert box.low == (x[0], pytest.approx(c4 + c2))
    assert box.high == (x[0], pytest.approx(c2 + c1))
    box = store.mbr(0, 3)
    assert box.low == (x[0], pytest.approx(c4 + 2 * c2))
    assert box.high == (x[0], pytest.approx(2 * c2 + c1))


def test_mbr_full_degree_degenerates_to_point(any_mode_cfg):
    g = make_graph([(0, 1), (0, 2), (0, 3)], {0: 0, 1: 1, 2: 2, 3: 1})
    store = NeighborListStore(g, any_mode_cfg)
    box = store.mbr(0, 3)
    assert all(abs(l - h) <= 1e-12 for l, h in zip(box.low, box.high))
    assert box.high == pytest.approx(embed_vertex(g, 0, any_mode_cfg), abs=1e-9)


def test_mbr_out_of_range(any_mode_cfg):
    g = make_graph([(0, 1)], {0: 0, 1: 1})
    store = NeighborListStore(g, any_mode_cfg)
    for bad in (0, 2):
        with pytest.raises(DegreeOutOfRange):
            store.mbr(0, bad)


def test_mbr_equals_enumeration_bounds(any_mode_cfg):
    # exhaustive subset enumeration is the box oracle (degrees <= 10)
    g = small_world(n=80, avg_deg=5.0, alphabet=4, seed=11)
    store = NeighborListStore(g, any_mode_cfg)
    dims = 2 * any_mode_cfg.d
    checked = 0
    for v in g.vertices():
        deg = g.degree(v)
        if not 1 <= deg <= 10:
            continue
        for delta in range(1, deg + 1):
            box = store.mbr(v, delta)
            vecs = star_subset_embeddings(g, v, delta, any_mode_cfg)
            lo = tuple(min(vec[j] for vec in vecs) for j in range(dims))
            hi = tuple(max(vec[j] for vec in vecs) for j in range(dims))
            assert all(abs(a - b) <= 1e-9 for a, b in zip(box.low, lo))
            assert all(abs(a - b) <= 1e-9 for a, b in zip(box.high, hi))
            checked += 1
    assert checked > 100


# -- synopsis construction -----------------------------------------------------


def build_index(g, cfg, m=3, k=5):
    return SynopsisIndex(g, compute_degree_groups(g, m), cfg, k)


def test_build_empty_graph(any_mode_cfg):
    g = DynamicGraph()
    for v in range(3):
        g.add_vertex(v, v)
    idx = SynopsisIndex(g, DegreeGroups((2, 4)), any_mode_cfg, 5)
    assert all(len(syn) == 0 for syn in idx.synopses)


def test_degree5_vertex_entry_caps(cfg_base):
    # groups (0,2], (2,4], (4,inf): a degree-5 center lands in all three
    g = make_graph([(0, i) for i in range(1, 6)], {0: 0, **{i: 1 for i in range(1, 6)}})
    idx = SynopsisIndex(g, DegreeGroups((2, 4)), cfg_base, 5)
    caps = {syn.group: _entry(idx, syn.group, 0).ub_delta for syn in idx.synopses}
    assert caps == {0: 2, 1: 4, 2: 5}
    # each entry is filed under the high corner of the box at its cap
    for syn in idx.synopses:
        entry = _entry(idx, syn.group, 0)
        assert entry.corner == idx.lists.mbr(0, entry.ub_delta).high
    # leaves have degree 1: group 0 only
    assert len(idx.synopses[0]) == 6
    assert len(idx.synopses[1]) == 1
    assert len(idx.synopses[2]) == 1


def test_entry_count_identity(any_mode_cfg):
    g = small_world(n=100, avg_deg=5.0, alphabet=5, seed=4)
    idx = build_index(g, any_mode_cfg)
    groups = idx.groups
    want = sum(
        sum(1 for j in range(groups.m) if g.degree(v) > groups.lower(j))
        for v in g.vertices()
    )
    assert sum(len(syn) for syn in idx.synopses) == want


def test_cell_order_matches_keys(any_mode_cfg):
    g = small_world(n=100, avg_deg=5.0, alphabet=5, seed=4)
    idx = build_index(g, any_mode_cfg)
    for syn in idx.synopses:
        order = [(-cell.key, cell.coords) for cell in syn.cells]
        assert order == sorted(order)
        assert len(set(order)) == len(order)  # one cell per coordinates
        for cell in syn.cells:
            assert cell.key == embedding_key(cell.corner)
            assert cell.corner == syn._cell_corner(cell.coords)


@pytest.mark.parametrize(
    "cutoffs", [(5, 4), (4, 4), (0, 3), (-2, 3), (2.5, 4), [2, 4], (True, 2), (1, 2, True)]
)
def test_malformed_cutoffs_are_rejected(cutoffs):
    # the build reads each vertex's caps in ascending order off the cutoffs;
    # a list would build groups that the frozen dataclass cannot hash
    with pytest.raises(InvalidParams, match=re.escape(str(cutoffs))):
        DegreeGroups(cutoffs)


@pytest.mark.parametrize("domain", [0.0, math.nan, -1.0, math.inf, True, False, "x", "1.0", 1j])
def test_bad_domain_is_rejected(cfg_plain, domain):
    # at -1.0 the grid would file vertex 0 where its own embedding's scan
    # at degree 1 cannot reach it; True once built a grid of domain 1, and
    # "x" once raised a bare TypeError
    g = make_graph([(0, 1)], {0: 0, 1: 1})
    with pytest.raises(InvalidParams, match="domain"):
        SynopsisIndex(g, DegreeGroups(()), cfg_plain, 5, domain=domain)
    idx = SynopsisIndex(g, DegreeGroups(()), cfg_plain, 5)
    assert idx.scan_for_degree(idx.embedding_of(0), 1, 0)[0] == [0]


def hub_and_loner(cfg):
    """A small-world graph plus an isolated vertex and a hub of degree 40
    in the open group (4, inf), with their index."""
    g = small_world(n=60, avg_deg=4.0, alphabet=4, seed=11)
    loner, hub = max(g.labels) + 1, max(g.labels) + 2
    g.add_vertex(loner, 1)
    g.add_vertex(hub, 0)
    for v in range(hub + 1, hub + 41):
        g.add_vertex(v, v % 7)
        g.add_edge(hub, v)
    idx = SynopsisIndex(g, DegreeGroups((2, 4)), cfg, 5)
    assert g.degree(loner) == 0 and idx.groups.group_of(g.degree(hub)) == 2
    return g, idx, hub


def largest_neighbor_sum(g, cfg):
    return max(c for v in g.vertices() for c in neighbor_sum(g, v, cfg))


@pytest.mark.parametrize("mode", ["plain", "base", "zipf"])
def test_domain_comes_from_every_neighbor_sum(mode):
    cfg = EmbeddingConfig(d=2, mode=mode)
    g, idx, _ = hub_and_loner(cfg)
    assert idx.domain == default_domain(cfg, largest_neighbor_sum(g, cfg))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("mode", ["plain", "base", "zipf"])
@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_domain_equals_the_largest_fsum_neighbor_sum(mode, d, data):
    # on random graphs, with isolated vertices, maybe a hub of degree >= 100,
    # and on the edgeless graph over the same vertices, the domain equals
    # the one read off the largest math.fsum neighbor sum; every label
    # component, times 2^GRID_BITS, is an int in [1, 2^GRID_BITS], so those
    # sums are exact
    cfg = EmbeddingConfig(d=d, mode=mode)
    n = data.draw(st.integers(1, 30), label="vertices")
    labels = dict(enumerate(data.draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n),
                                      label="labels")))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])
    edges = data.draw(st.sets(pairs, max_size=60), label="edges")
    hub = data.draw(st.one_of(st.just(0), st.integers(100, 300)), label="hub degree")
    if hub:  # a new vertex, linked to n + 1 .. n + hub, labeled 0-15 off a drawn seed
        rng = Rng(data.draw(st.integers(0, 2**32), label="hub seed"))
        labels.update({v: rng.randint(0, 15) for v in range(n, n + hub + 1)})
        edges |= {(n, v) for v in range(n + 1, n + hub + 1)}
    one = 2**GRID_BITS
    for g in (make_graph([], labels), make_graph(sorted(edges), labels)):
        idx = SynopsisIndex(g, compute_degree_groups(g, 3), cfg, 5)
        sums = (c for v in g.vertices() for c in neighbor_sum(g, v, cfg))
        assert idx.domain == default_domain(cfg, max(sums, default=0.0))
        for lbl in set(labels.values()):
            assert all((c * one).is_integer() and 1 <= c * one <= one
                       for c in label_vector(lbl, cfg))


@pytest.mark.parametrize("mode", ["plain", "base", "zipf"])
def test_rebuild_keeps_the_domain_frozen(mode):
    cfg = EmbeddingConfig(d=2, mode=mode)
    g, idx, hub = hub_and_loner(cfg)
    old, sum_max = idx.domain, largest_neighbor_sum(g, cfg)
    for v in range(hub + 41, hub + 81):  # the hub's neighbor sum grows
        op = UpdateOp(INSERT, hub, v, label_v=v % 3)
        g.apply_update(op)
        idx.maintain(op)
    assert largest_neighbor_sum(g, cfg) > sum_max
    assert default_domain(cfg, largest_neighbor_sum(g, cfg)) != old
    snapshot = idx.snapshot()
    assert snapshot["domain"] == idx.domain == old
    assert snapshot == SynopsisIndex(g, idx.groups, cfg, idx.k_cells, domain=old).snapshot()
    # a corner coordinate past the kept domain clamps into the top interval;
    # plain sums pass it here, while the other modes' BETA headroom holds
    past = {c for syn in snapshot["synopses"] for coords, rows in syn.items()
            for _, _, corner in rows for c, x in zip(coords, corner) if x > old}
    assert past == ({idx.k_cells - 1} if mode == "plain" else set())


@pytest.mark.parametrize("mode", ["plain", "base", "zipf"])
def test_domain_first_read_after_updates_is_estimated_over_the_current_graph(mode):
    cfg = EmbeddingConfig(d=2, mode=mode)
    g, idx, hub = hub_and_loner(cfg)
    initial = default_domain(cfg, largest_neighbor_sum(g, cfg))
    for v in range(hub + 41, hub + 81):  # the hub's neighbor sum grows
        op = UpdateOp(INSERT, hub, v, label_v=v % 3)
        g.apply_update(op)
        idx.maintain(op)
    snapshot = idx.snapshot()
    assert snapshot == SynopsisIndex(g, idx.groups, cfg, idx.k_cells).snapshot()
    assert snapshot["domain"] == idx.domain == default_domain(cfg, largest_neighbor_sum(g, cfg))
    assert idx.domain != initial


# -- incremental maintenance ---------------------------------------------------


def test_insert_delete_involution(any_mode_cfg):
    g = small_world(n=60, avg_deg=4.0, alphabet=4, seed=5)
    idx = build_index(g, any_mode_cfg)
    before = idx.snapshot()
    op_in = UpdateOp(INSERT, 0, 33)
    if g.has_edge(0, 33):  # pick a guaranteed-absent edge instead
        op_in = UpdateOp(INSERT, 0, 34) if not g.has_edge(0, 34) else UpdateOp(INSERT, 1, 35)
    g.apply_update(op_in)
    idx.maintain(op_in)
    assert idx.snapshot() != before
    op_out = UpdateOp(DELETE, op_in.u, op_in.v)
    g.apply_update(op_out)
    idx.maintain(op_out)
    assert idx.snapshot() == before


def test_group_boundary_crossing(cfg_base):
    # degree 2 -> 3 crosses the (0,2],(2,4] boundary: new entry appears in
    # group 1 while the group-0 entry stays capped at 2 with fresh content
    g = make_graph([(0, 1), (0, 2)], {0: 0, 1: 1, 2: 1, 3: 2})
    idx = SynopsisIndex(g, DegreeGroups((2, 4)), cfg_base, 5)
    assert _entry(idx, 1, 0) is None
    box_before = idx.lists.mbr(0, 2)
    op = UpdateOp(INSERT, 0, 3)
    g.apply_update(op)
    idx.maintain(op)
    assert _entry(idx, 1, 0) is not None
    entry0 = _entry(idx, 0, 0)
    assert entry0.ub_delta == 2
    assert _entry(idx, 1, 0).ub_delta == 3
    # the capped box content changed: the new neighbor's distinct components
    # shift the 2-smallest or the 2-largest sums on every dimension
    box_after = idx.lists.mbr(0, 2)
    assert box_after != box_before
    # validated against a full rebuild with identical frozen parameters
    rebuilt = SynopsisIndex(g, idx.groups, cfg_base, 5, domain=idx.domain)
    assert idx.snapshot() == rebuilt.snapshot()


Entry = namedtuple("Entry", "vertex ub_delta corner")


def _entry(idx, group, v):
    """v's entry in the group's grid, found through its cells' rows, as
    (vertex, ub_delta, corner).  It must equal v's snapshot row; None if
    absent."""
    syn = idx.synopses[group]
    found = [(cell.coords, corner) for cell in syn.cells for u, _, corner in cell.rows if u == v]
    assert len(found) <= 1
    if not found:
        return None
    [(coords, corner)] = found
    entry = Entry(v, min(idx.graph.degree(v), syn.upper), corner)
    assert [r for r in syn.snapshot()[coords] if r[0] == v] == [entry]
    return entry


def random_update_stream(g, n_ops, seed, new_vertex_rate=0.1, alphabet=5):
    """Mixed inserts/deletes valid against a live copy of g; returns ops."""
    rng = Rng(seed)
    live = g.copy()
    ops = []
    next_vid = max(live.labels) + 1
    for i in range(n_ops):
        edges = list(live.edges())
        do_delete = edges and rng.random() < 0.45
        if do_delete:
            u, v = rng.choice(edges)
            op = UpdateOp(DELETE, u, v, timestamp=i + 1)
        elif rng.random() < new_vertex_rate:
            u = rng.choice(sorted(live.labels))
            op = UpdateOp(
                INSERT, u, next_vid,
                label_u=live.labels[u], label_v=rng.randint(0, alphabet - 1),
                timestamp=i + 1,
            )
            next_vid += 1
        else:
            vids = sorted(live.labels)
            for _ in range(200):
                u, v = rng.choice(vids), rng.choice(vids)
                if u != v and not live.has_edge(u, v):
                    break
            else:
                continue
            op = UpdateOp(INSERT, u, v, timestamp=i + 1)
        live.apply_update(op)
        ops.append(op)
    return ops


@pytest.mark.parametrize("mode", ["plain", "base", "zipf"])
def test_maintenance_equals_rebuild_after_stream(mode):
    cfg = EmbeddingConfig(d=2, mode=mode)
    g = small_world(n=80, avg_deg=5.0, alphabet=5, seed=8)
    idx = build_index(g, cfg)
    domain = idx.domain  # read, so frozen over the initial graph
    for op in random_update_stream(g, 500, seed=21):
        g.apply_update(op)
        idx.maintain(op)
    rebuilt = SynopsisIndex(g, idx.groups, cfg, idx.k_cells, domain=domain)
    assert idx.snapshot() == rebuilt.snapshot()
    # maintained neighbor sums equal from-scratch sums
    for v in g.vertices():
        deg = g.degree(v)
        if deg:
            assert tuple(idx.lists.capped_sums(v, (deg,))) == neighbor_sum(g, v, cfg)
        else:
            assert idx.lists.hist[v] == {}


def test_hub_degree_boxes_and_rebuild_under_churn(any_mode_cfg):
    # a hub of degree >= 2,000 over labels 0-15, whose zipf components tie
    # (four labels share 1/1024 on dimension 0), churned by inserts and
    # deletes; boxes are checked against sorted neighbor components
    rng = Rng(61)
    labels = {0: 0, **{v: rng.randint(0, 15) for v in range(1, 2401)}}
    g = make_graph([(0, v) for v in range(1, 2401)], labels)
    for v in range(1, 2400, 7):
        g.add_edge(v, v + 1)
    idx = build_index(g, any_mode_cfg)
    domain = idx.domain  # read, so frozen over the initial graph
    next_vid = 2401
    for i in range(300):
        if i % 2:
            op = UpdateOp(DELETE, 0, rng.choice(sorted(g.neighbors(0))))
        else:
            op = UpdateOp(INSERT, 0, next_vid, label_v=rng.randint(0, 15))
            next_vid += 1
        g.apply_update(op)
        idx.maintain(op)
    if any_mode_cfg.mode == "zipf":
        tied = {lbl for lbl in range(16) if label_vector(lbl, any_mode_cfg)[0] == 1 / 1024}
        assert len(tied) == 4
        assert tied <= {g.labels[n] for n in g.neighbors(0)}
    rebuilt = SynopsisIndex(g, idx.groups, any_mode_cfg, idx.k_cells, domain=domain)
    assert idx.snapshot() == rebuilt.snapshot()

    deg = g.degree(0)
    assert deg >= 2000
    comps = [
        sorted(label_vector(g.labels[n], any_mode_cfg)[k] for n in g.neighbors(0))
        for k in range(any_mode_cfg.d)
    ]
    x = label_vector(0, any_mode_cfg)
    for delta in (1, 2, 3, deg // 2, deg):
        low = compose(x, tuple(sum(c[:delta]) for c in comps), 0, any_mode_cfg)
        high = compose(x, tuple(sum(c[-delta:]) for c in comps), 0, any_mode_cfg)
        assert idx.lists.mbr(0, delta) == Mbr(low, high)


@pytest.mark.parametrize("mode", ["plain", "base", "zipf"])
def test_mbr_containment_equals_reference_box(mode):
    # the store's box, containing or not, against the enumerated reference
    # box, for every vertex and delta in 1..deg+1, probed at the low and
    # high corners and the centre of the reference boxes at delta - 1,
    # delta and delta + 1, and one float step outside each of their tail
    # bounds; past the degree there is no box to read
    cfg = EmbeddingConfig(d=2, mode=mode)
    g = small_world(n=60, avg_deg=5.0, alphabet=4, seed=19)
    idx = build_index(g, cfg)
    lists = idx.lists

    def probes(box):
        centre = tuple((lo + hi) / 2 for lo, hi in zip(box.low, box.high))
        out = [box.low, box.high, centre]
        for j in range(cfg.d, 2 * cfg.d):
            for bound, outward in ((box.low[j], -math.inf), (box.high[j], math.inf)):
                out.append(centre[:j] + (math.nextafter(bound, outward),) + centre[j + 1:])
        return out

    def check():
        outcomes = []
        for v in g.vertices():
            deg = g.degree(v)
            refs = {delta: reference_box(g, v, delta, cfg) for delta in range(1, deg + 1)}
            for delta in range(1, deg + 2):
                near = [refs[n] for n in (delta - 1, delta, delta + 1) if n in refs]
                if delta > deg:
                    with pytest.raises(DegreeOutOfRange):
                        lists.mbr(v, delta)
                    continue
                box = lists.mbr(v, delta)
                for p in (p for ref in near for p in probes(ref)):
                    want = all(lo <= x <= hi for lo, x, hi in zip(refs[delta].low, p, refs[delta].high))
                    assert box.contains(p) == want
                    outcomes.append(want)
        assert True in outcomes and False in outcomes

    check()
    for op in random_update_stream(g, 150, seed=29, alphabet=4):
        g.apply_update(op)
        idx.maintain(op)
    check()


def reference_box(g, v, delta, cfg):
    """v's box at delta: the componentwise min and max of its delta-leaf
    star-subset embeddings, enumerated up to degree 8; above it, the same
    bounds from the sums of the delta smallest and the delta largest
    neighbor components on each dimension."""
    if g.degree(v) <= 8:
        vecs = star_subset_embeddings(g, v, delta, cfg)
        return Mbr(low=tuple(map(min, zip(*vecs))), high=tuple(map(max, zip(*vecs))))
    lbl = g.labels[v]
    x = label_vector(lbl, cfg)
    comps = [sorted(label_vector(g.labels[n], cfg)[k] for n in g.neighbors(v)) for k in range(cfg.d)]
    return Mbr(
        low=compose(x, tuple(sum(c[:delta]) for c in comps), lbl, cfg),
        high=compose(x, tuple(sum(c[-delta:]) for c in comps), lbl, cfg),
    )


@pytest.mark.parametrize("hub", [0, 5_000])
@pytest.mark.parametrize("mode", ["plain", "base", "zipf"])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_capped_sums_and_boxes_equal_sorted_components(mode, hub, data):
    # a star over a random histogram of labels 0-15, whose zipf components
    # tie, one label raised by ``hub`` neighbors.  The store reads each
    # label as a run of equal components; caps and deltas land on the runs'
    # boundaries, inside runs and at the degree, and every read equals the
    # expanded components, sorted, summed with math.fsum
    cfg = EmbeddingConfig(d=2, mode=mode)
    hist = data.draw(st.dictionaries(st.integers(0, 15), st.integers(1, 40), min_size=1,
                                     max_size=8), label="hist")
    if hub:
        hist[data.draw(st.sampled_from(sorted(hist)), label="hub label")] += hub
    leaves = [lbl for lbl, c in sorted(hist.items()) for _ in range(c)]
    g = make_graph([(0, n) for n in range(1, len(leaves) + 1)],
                   {0: data.draw(st.integers(0, 15), label="centre"),
                    **{n: lbl for n, lbl in enumerate(leaves, 1)}})
    lists, deg = NeighborListStore(g, cfg), len(leaves)
    assert lists.hist[0] == hist
    comps = [sorted((label_vector(lbl, cfg)[k] for lbl in leaves), reverse=True)
             for k in range(cfg.d)]
    # per dimension, the label runs' ends in either order and one past each,
    # 1, and one short of the degree
    ends = {deg}
    for k, smallest in itertools.product(range(cfg.d), (False, True)):
        runs = sorted(hist, key=lambda lbl: label_vector(lbl, cfg)[k], reverse=not smallest)
        ends.update(itertools.accumulate(hist[lbl] for lbl in runs))
    marks = sorted(({1, deg - 1} | ends | {e + 1 for e in ends if e < deg}) - {0})
    chosen = data.draw(st.lists(st.one_of(st.sampled_from(marks), st.integers(0, deg)),
                                max_size=6), label="caps")
    caps = sorted({*chosen, deg})
    assert lists.capped_sums(0, caps) == [math.fsum(c[:cap]) for c in comps for cap in caps]
    drawn = data.draw(st.lists(st.sampled_from(marks), max_size=4), label="deltas")
    # one short of the degree is the first box that must sort its runs
    for delta in sorted({1, deg - 1, deg, *drawn} - {0}):
        assert lists.mbr(0, delta) == reference_box(g, 0, delta, cfg)


def assert_reads_equal_enumeration(idx, g):
    """Everything the store reads is exact, checked with ``==``: label
    vectors sit on their grid; each histogram counts its vertex's neighbor
    labels; the neighbor sum, and ``capped_sums`` at every degree, equal
    ``math.fsum`` of the largest components; ``mbr`` equals
    ``reference_box``, contains a query tail exactly on each bound and not
    one float step outside it, and has no box past the degree."""
    lists, cfg = idx.lists, idx.cfg
    d = cfg.d
    grid = 2.0 ** (10 if cfg.mode == "zipf" else 20)
    for lbl in set(g.labels.values()):
        assert all(0 < c <= 1 and (c * grid).is_integer() for c in label_vector(lbl, cfg))
    for v in g.vertices():
        vecs = [label_vector(g.labels[n], cfg) for n in g.neighbors(v)]
        assert lists.hist[v] == Counter(g.labels[n] for n in g.neighbors(v))
        exact = tuple(math.fsum(x[k] for x in vecs) for k in range(d))
        assert neighbor_sum(g, v, cfg) == exact
        deg = g.degree(v)
        if deg:
            assert tuple(lists.capped_sums(v, (deg,))) == exact
            largest = [sorted((x[k] for x in vecs), reverse=True) for k in range(d)]
            caps = range(1, deg + 1)
            want = [math.fsum(c[:cap]) for c in largest for cap in caps]
            assert lists.capped_sums(v, caps) == want
        for delta in range(1, deg + 1):
            box = reference_box(g, v, delta, cfg)
            read = lists.mbr(v, delta)
            assert read == box
            centre = tuple((lo + hi) / 2 for lo, hi in zip(box.low, box.high))
            for j in range(d, 2 * d):
                for bound, outward in ((box.low[j], -math.inf), (box.high[j], math.inf)):
                    for x, inside in ((bound, True), (math.nextafter(bound, outward), False)):
                        assert read.contains(centre[:j] + (x,) + centre[j + 1:]) == inside
        with pytest.raises(DegreeOutOfRange):
            lists.mbr(v, deg + 1)


def run_hub_churn(mode, check, m=3):
    """A small-world graph plus a hub of degree 240 over labels 0-15, whose
    zipf components tie on dimension 0, with its index over m degree
    groups; ``check(idx, g)`` runs on it before a mixed stream, with one
    vertex isolated after it and a label first seen there, and after that
    vertex's revival and more churn at the hub."""
    cfg = EmbeddingConfig(d=2, mode=mode)
    rng = Rng(83)
    g = small_world(n=60, avg_deg=5.0, alphabet=4, seed=37)
    hub = max(g.labels) + 1
    g.add_vertex(hub, 0)
    for v in range(hub + 1, hub + 241):
        g.add_vertex(v, rng.randint(0, 15))
        g.add_edge(hub, v)
    idx = build_index(g, cfg, m)
    lists = idx.lists
    if mode == "zipf":
        tied = {lbl for lbl in range(16) if label_vector(lbl, cfg)[0] == 1 / 1024}
        assert len(tied) == 4 and tied <= {g.labels[n] for n in g.neighbors(hub)}

    def apply(op):
        g.apply_update(op)
        idx.maintain(op)

    check(idx, g)
    ops = random_update_stream(g, 150, seed=89, alphabet=4)
    assert {op.kind for op in ops} == {INSERT, DELETE}
    for op in ops:
        apply(op)
    # label 16 is first seen here, at the hub and at a vertex of the graph
    assert 16 not in lists.frames
    fresh = max(g.labels) + 1
    apply(UpdateOp(INSERT, hub, fresh, label_v=16))
    apply(UpdateOp(INSERT, fresh, min(g.vertices())))
    loner = next(v for v in sorted(g.vertices()) if v != hub and g.degree(v) >= 2)
    lbl = g.labels[loner]
    for n in sorted(g.neighbors(loner)):
        apply(UpdateOp(DELETE, loner, n))
    assert g.degree(loner) == 0
    assert lists.hist[loner] == {} and neighbor_sum(g, loner, cfg) == (0.0,) * cfg.d
    check(idx, g)
    apply(UpdateOp(INSERT, loner, hub))
    for i in range(200):
        if i % 2:
            apply(UpdateOp(DELETE, hub, rng.choice(sorted(g.neighbors(hub)))))
        else:
            v = max(g.labels) + 1
            apply(UpdateOp(INSERT, hub, v, label_v=rng.randint(0, 15)))
    assert g.degree(loner) == 1 and g.labels[loner] == lbl
    check(idx, g)


@pytest.mark.parametrize("mode", ["plain", "base", "zipf"])
def test_reads_equal_star_subset_enumeration(mode):
    run_hub_churn(mode, assert_reads_equal_enumeration)


def assert_count_columns_equal_histograms(idx, g):
    """Fill every label's count columns as a need scan does, and read the
    column of every label the graph holds, and of one it does not.  A
    label's members are its vertices in graph order, and each column holds,
    packed in that order at the label's field width, their neighbor counts
    of the needed label from the shadow graph's adjacency; its test against
    a count c, ``at_least``, must give ``count >= c`` on every member,
    probed at c from 0 to one past the largest count.  The width is 1 byte
    while every member's degree stays below 128, else 2 bytes below 2^15.
    The first fill makes a column for each label the members' histograms
    hold; any other label, the unseen one included, is absent and reads 0,
    the all-zero column, as the scan reads it.  Columns die with every
    update, and each check here follows construction or an update, so it
    starts with none.  Returns each label's width."""
    assert idx._columns is None
    outcomes = set()
    labels = set(g.labels.values())
    unseen = max(labels) + 1
    # a need scan reads no embedding; the unseen label has no members
    assert need_scan(idx, (), 1, unseen, ((unseen, 1),)) == ([], ScanStats())
    columns = idx._columns
    members = {}
    for v in g.vertices():
        members.setdefault(g.labels[v], []).append(v)
    assert columns.members == members
    widths = {}
    for label, vs in members.items():
        n = len(vs)
        filled = columns.fill(label)
        assert columns.fill(label) is filled is columns.columns[label]
        w, cols = filled
        top = max(map(g.degree, vs))
        assert w == (1 if top < 2**7 else 2) and top < 2**15
        widths[label] = w
        signs = int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")
        assert set(cols) == {g.labels[u] for v in vs for u in g.neighbors(v)}
        for needed in (*labels, unseen):
            col = cols.get(needed, 0)
            want = [sum(g.labels[u] == needed for u in g.neighbors(v)) for v in vs]
            assert unpack(col, n, w) == tuple(want)  # unpack raises on a wider column
            for c in range(max(want) + 2):
                xs = int.from_bytes(c.to_bytes(w, "little") * n, "little")
                got = _fields(at_least(col, xs, signs), n, w)
                assert got == [k >= c for k in want]
                outcomes.update(got)
    assert outcomes == {True, False}
    return widths


@pytest.mark.parametrize("mode", ["plain", "base", "zipf"])
def test_count_columns_equal_histograms(mode):
    # columns die with every update: after maintenance each is filled
    # afresh.  The hub, of label 0 and degree 240 or so at every check,
    # gets its label 2-byte fields; the other labels stay at 1 byte
    seen = []

    def check(idx, g):
        seen.append(assert_count_columns_equal_histograms(idx, g))

    run_hub_churn(mode, check)
    assert len(seen) == 3
    assert all(w[0] == 2 and set(w.values()) == {1, 2} for w in seen)


def test_box_reads_follow_a_histogram_edit(cfg_zipf):
    # a box read before an update must not be served after it: the store
    # sums the histogram afresh per read, and the need-less scan's last
    # stage reads its boxes from the store
    g = make_graph([(0, 1), (0, 2), (3, 4)], {0: 0, 1: 1, 2: 2, 3: 3, 4: 4})
    idx = build_index(g, cfg_zipf, m=1)
    lists = idx.lists

    def reads():
        return lists.mbr(0, 2), tuple(lists.capped_sums(0, (g.degree(0),)))

    for op in [UpdateOp(INSERT, 0, 3), UpdateOp(DELETE, 0, 1), UpdateOp(INSERT, 0, 4)]:
        before = reads()
        g.apply_update(op)
        idx.maintain(op)
        after = reads()
        assert after == (reference_box(g, 0, 2, cfg_zipf), neighbor_sum(g, 0, cfg_zipf))
        assert all(a != b for a, b in zip(after, before))


def test_count_reads_follow_a_histogram_edit(cfg_zipf):
    # a count column read before an update must not be served after it:
    # every update drops the label columns
    g = make_graph([(0, 1), (0, 2), (3, 4)], {0: 0, 1: 1, 2: 2, 3: 3, 4: 4})
    idx = build_index(g, cfg_zipf, m=1)
    labels = (1, 3, 4)

    def reads():
        idx.scan_for_degree(idx.embedding_of(0), 1, g.labels[0], ((1, 1),))
        [vs] = [vs for vs in idx._columns.members.values() if 0 in vs]
        at, n, (w, cols) = vs.index(0), len(vs), idx._columns.columns[g.labels[0]]
        assert w == 1
        return tuple(unpack(cols.get(lbl, 0), n, w)[at] for lbl in labels)

    for op in [UpdateOp(INSERT, 0, 3), UpdateOp(DELETE, 0, 1), UpdateOp(INSERT, 0, 4)]:
        before = reads()
        g.apply_update(op)
        idx.maintain(op)
        after = reads()
        counts = tuple(sum(g.labels[u] == lbl for u in g.neighbors(0)) for lbl in labels)
        assert after == counts and after != before


# -- scans ---------------------------------------------------------------------


def test_scan_dominating_nothing(any_mode_cfg):
    g = small_world(n=100, avg_deg=5.0, alphabet=5, seed=4)
    idx = build_index(g, any_mode_cfg)
    huge = tuple(idx.domain * 2 for _ in range(2 * any_mode_cfg.d))
    cands, stats = idx.scan_for_degree(huge, 2, 0)
    assert cands == []
    assert stats.examined == stats.pruned_cell  # only unbounded-top cells examined
    assert stats.pruning_power == 1.0


def test_scan_star_center_survives(any_mode_cfg):
    # data star A with 3 leaves; query star = same center label, 2 leaves
    g = make_graph(
        [(0, 1), (0, 2), (0, 3)], {0: 7, 1: 1, 2: 2, 3: 3}
    )
    idx = SynopsisIndex(g, DegreeGroups((2,)), any_mode_cfg, 5)
    x = label_vector(7, any_mode_cfg)
    acc = [0.0] * any_mode_cfg.d
    for lbl in (1, 3):  # two of the three leaf labels
        xv = label_vector(lbl, any_mode_cfg)
        acc = [a + b for a, b in zip(acc, xv)]
    q_embed = compose(x, tuple(acc), 7, any_mode_cfg)
    cands, stats = idx.scan_for_degree(q_embed, 2, 7)
    assert 0 in cands
    assert stats.survivors >= 1


def test_scan_candidates_module_surface(cfg_zipf):
    g = small_world(n=50, avg_deg=4.0, alphabet=3, seed=2)
    idx = build_index(g, cfg_zipf, m=1)
    q = idx.embedding_of(next(iter(g.vertices())))
    syn = idx.synopses[0]
    direct = scan_candidates(syn, q, 1, g.labels[0])
    via_index = idx.scan_for_degree(q, 1, g.labels[0])
    assert direct[0] == via_index[0]


def test_scan_soundness_against_matches(any_mode_cfg):
    # every oracle match image must appear among the scan candidates
    from dsmatch.matcher import embed_query
    from dsmatch.oracle import enumerate_matches
    from dsmatch.generate import sample_queries

    g = small_world(n=120, avg_deg=5.0, alphabet=4, seed=13)
    idx = build_index(g, any_mode_cfg)
    queries = sample_queries(g, 8, 4, 2.0, seed=5)
    for q in queries:
        matches = enumerate_matches(g, q)
        embeds = embed_query(q, any_mode_cfg)
        for pos, qi in enumerate(q.vertex_order):
            cands, _ = idx.scan_for_degree(embeds[qi], q.degree(qi), q.labels[qi])
            images = {m[pos] for m in matches}
            assert images <= set(cands)


def test_key_cutoff_never_skips_dominated_cell(any_mode_cfg):
    # dominates(q, C.corner) implies key(q) <= C.key, so scanning in key
    # order with the cutoff cannot skip a dominated cell
    g = small_world(n=100, avg_deg=5.0, alphabet=5, seed=6)
    idx = build_index(g, any_mode_cfg)
    rng = Rng(17)
    for syn in idx.synopses:
        for cell in syn.cells[:20]:
            corner = cell.corner
            q = tuple(
                max(0.0, c - rng.random()) if c != math.inf else rng.random() * idx.domain
                for c in corner
            )
            if dominated_within(q, corner):
                assert embedding_key(q) <= cell.key


def test_synopsis_dump_format(cfg_base):
    g = make_graph([(0, 1)], {0: 0, 1: 1})
    idx = build_index(g, cfg_base, m=1)
    text = idx.dump()
    assert "# synopsis 0" in text
    assert "key=" in text and "entries=" in text


def covers(g, v, need):
    """v has at least c neighbors labeled l for every (l, c) of ``need``,
    counted from the graph's adjacency."""
    return all(sum(g.labels[u] == lbl for u in g.neighbors(v)) >= c for lbl, c in need)


def naive_candidates(idx, q_embed, q_degree, q_label, need=None):
    """Linear-scan reference: same per-vertex predicates, no grid at all;
    given a need, every vertex of the label that covers it."""
    if need is not None:
        return set(reference_need_scan(idx, q_label, need)[0])
    group = idx.groups.group_of(q_degree)
    syn = idx.synopses[group]
    out = set()
    for v in idx.graph.vertices():
        deg = idx.graph.degree(v)
        if deg <= syn.lower:
            continue
        ub = min(deg, idx.groups.upper(group))
        corner = idx.lists.mbr(v, ub).high
        if not dominated_within(q_embed, corner):
            continue
        if idx.graph.labels[v] != q_label:
            continue
        if q_degree <= deg and idx.lists.mbr(v, q_degree).contains(q_embed):
            out.add(v)
    return out


def reference_scan(syn, q_embed, q_degree, q_label):
    """The grid scan loop, entry by entry, against the graph.

    Every entry meets every filter in turn: dominance of the full corner,
    boxed through ``mbr`` at the group-capped degree rather than read from
    the grid, then its label read off the graph, then the box at the query
    degree through ``mbr().contains``.
    """
    lists = syn.store
    stats = ScanStats()
    out = []
    cutoff = embedding_key(q_embed)
    for cell in syn.cells:
        if cell.key < cutoff:
            break
        entries = [v for v, _, _ in cell.rows]
        stats.cells_scanned += 1
        stats.examined += len(entries)
        if not dominated_within(q_embed, cell.corner):
            stats.pruned_cell += len(entries)
            continue
        for v in entries:
            ub = min(lists.degree(v), syn.upper)  # the group-capped degree
            if not dominated_within(q_embed, lists.mbr(v, ub).high):
                stats.pruned_dominance += 1
            elif lists.graph.labels.get(v) != q_label:
                stats.pruned_label += 1
            elif not (q_degree <= lists.degree(v) and lists.mbr(v, q_degree).contains(q_embed)):
                stats.pruned_box += 1
            else:
                out.append(v)
                stats.survivors += 1
    return out, stats


def need_scan(idx, *args):
    """``idx.scan_for_degree(*args)`` with its one-pass candidates read
    into a list."""
    cands, stats = idx.scan_for_degree(*args)
    return list(cands), stats


def reference_need_scan(idx, q_label, need):
    """The need scan vertex by vertex: every vertex of the label, in graph
    order, kept iff its adjacency covers ``need``."""
    g = idx.graph
    vs = [v for v in g.vertices() if g.labels[v] == q_label]
    out = [v for v in vs if covers(g, v, need)]
    return out, ScanStats(examined=len(vs), pruned_box=len(vs) - len(out), survivors=len(out))


@pytest.mark.parametrize("mode", ["plain", "base", "zipf"])
def test_scan_stats_equal_reference_scan(mode):
    # bucketed grid scan and per-entry reference, and label-column need
    # scan and per-vertex reference: equal candidate lists and equal
    # ScanStats, before and after incremental maintenance; a need keeps a
    # subset of the box's candidates, and fewer of them overall
    from dsmatch.matcher import embed_query, label_needs
    from dsmatch.generate import sample_queries

    cfg = EmbeddingConfig(d=2, mode=mode)
    g = small_world(n=120, avg_deg=5.0, alphabet=4, seed=71)
    idx = build_index(g, cfg)
    queries = sample_queries(g, 6, 4, 2.0, seed=43)

    def check():
        total, counted = ScanStats(), 0
        for q in queries:
            embeds, needs = embed_query(q, cfg), label_needs(q)
            for qi in q.vertex_order:
                args = (embeds[qi], q.degree(qi), q.labels[qi])
                syn = idx.synopses[idx.groups.group_of(q.degree(qi))]
                got = scan_candidates(syn, *args)
                assert got == reference_scan(syn, *args)
                with_need = need_scan(idx, *args, needs[qi])
                assert with_need == reference_need_scan(idx, q.labels[qi], needs[qi])
                assert set(with_need[0]) <= set(got[0])
                counted += with_need[1].survivors
                for f in ("pruned_cell", "pruned_dominance", "pruned_label", "pruned_box",
                          "survivors"):
                    setattr(total, f, getattr(total, f) + getattr(got[1], f))
        assert counted < total.survivors
        # every filter removed something; in base and zipf modes no other
        # label's corner is dominated, so only plain mode prunes by label
        assert min(total.pruned_cell, total.pruned_dominance, total.pruned_box) > 0
        assert total.survivors > 0
        assert (total.pruned_label > 0) == (mode == "plain")

    check()
    for op in random_update_stream(g, 150, seed=47, alphabet=4):
        g.apply_update(op)
        idx.maintain(op)
    check()


@pytest.mark.parametrize("mode", ["plain", "base", "zipf"])
def test_scan_equals_linear_filter(mode):
    # the grid path (key cutoff, cell dominance, per-cell entries) must
    # return exactly the vertices the raw predicates admit, with and
    # without each query vertex's need, before and after incremental
    # maintenance
    from dsmatch.matcher import embed_query, label_needs
    from dsmatch.generate import sample_queries

    cfg = EmbeddingConfig(d=2, mode=mode)
    g = small_world(n=120, avg_deg=5.0, alphabet=4, seed=71)
    idx = build_index(g, cfg)
    queries = sample_queries(g, 6, 4, 2.0, seed=43)

    def check():
        for q in queries:
            embeds, needs = embed_query(q, cfg), label_needs(q)
            for qi in q.vertex_order:
                for need in (None, needs[qi]):
                    args = (embeds[qi], q.degree(qi), q.labels[qi], need)
                    got, _ = idx.scan_for_degree(*args)
                    assert set(got) == naive_candidates(idx, *args)

    check()
    for op in random_update_stream(g, 150, seed=47, alphabet=4):
        g.apply_update(op)
        idx.maintain(op)
    check()


def assert_scan_equals_reference_at_tail_thresholds(idx, g):
    """For each tail dimension k and each distinct tail coordinate k, t, of
    a cell's rows of one label, scan for a query whose tail coordinate k is
    t, the float the dominance test compares against, and one ulp either
    side of it; the query's other coordinates are those of a row with that
    t, its label the row's and its degree the row's vertex's, capped at the
    grid's upper bound as a scan reads a grid only at degrees of its group.
    Each scan must equal ``reference_scan``, list and counts."""
    d = idx.lists.cfg.d
    tied = 0
    for syn in idx.synopses:
        for cell in syn.cells:
            for label in {lbl for _, lbl, _ in cell.rows}:
                rows = [(v, corner) for v, lbl, corner in cell.rows if lbl == label]
                for k in range(d, 2 * d):
                    first = {}  # t -> the first row of the label with it
                    for v, corner in rows:
                        first.setdefault(corner[k], (v, corner))
                    tied += len(first) < len(rows)
                    for t, (v, corner) in first.items():
                        q_degree = min(g.degree(v), syn.upper)
                        for x in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)):
                            args = (corner[:k] + (x,) + corner[k + 1:], q_degree, label)
                            assert scan_candidates(syn, *args) == reference_scan(syn, *args)
    assert tied  # some cell holds rows of one label that tie on a tail coordinate


@pytest.mark.parametrize("mode", ["plain", "base", "zipf"])
def test_scan_at_each_tail_threshold(mode):
    # a row whose tail coordinate ties the query's passes the dominance
    # test; one ulp above it, it fails
    run_hub_churn(mode, assert_scan_equals_reference_at_tail_thresholds)


# per query coordinate, what a drawn query does to the real one it starts from
_NUDGES = {
    "same": lambda x: x,
    "down": lambda x: math.nextafter(x, -math.inf),
    "up": lambda x: math.nextafter(x, math.inf),
    "half": lambda x: x / 2,
}


@pytest.mark.parametrize("mode", ["plain", "base", "zipf"])
def test_need_less_scan_equals_reference_scan(mode):
    # random graphs on labels 0..3 plus a hub past the top cutoff, random
    # cutoffs and cells per dimension, and queries that start at a real
    # corner, box bound or embedding, each coordinate kept, one ulp either
    # side or halved, of the vertex's label or another: each need-less
    # scan equals the per-entry reference, candidates in order and every
    # ScanStats field, and some scans keep several vertices
    cfg = EmbeddingConfig(d=2, mode=mode)
    kept = Counter()  # scans by candidate count, capped at 2

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(data=st.data())
    def check(data):
        n = data.draw(st.integers(2, 20), label="n")
        labels = dict(enumerate(data.draw(
            st.lists(st.integers(0, 3), min_size=n, max_size=n), label="labels")))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] < e[1])
        edges = data.draw(st.sets(pairs, max_size=3 * n), label="edges")
        cutoffs = tuple(sorted(data.draw(st.sets(st.integers(1, 8), max_size=3), label="cutoffs")))
        hub_degree = max(cutoffs, default=0) + data.draw(st.integers(1, 12), label="past the top")
        leaves = data.draw(st.lists(st.integers(0, 3), min_size=hub_degree, max_size=hub_degree),
                           label="leaf labels")
        hub = data.draw(st.integers(0, n - 1), label="hub")
        labels |= {n + i: lbl for i, lbl in enumerate(leaves)}
        edges |= {(hub, n + i) for i in range(hub_degree)}
        g = make_graph(sorted(edges), labels)
        idx = SynopsisIndex(g, DegreeGroups(cutoffs), cfg, data.draw(st.integers(1, 5), label="k"))
        lists, vs = idx.lists, [v for v in g.vertices() if g.degree(v)]
        for _ in range(data.draw(st.integers(1, 6), label="queries")):
            v = data.draw(st.sampled_from(vs), label="v")
            q_degree = data.draw(st.integers(1, g.degree(v)), label="q_degree")
            syn = idx.synopses[idx.groups.group_of(q_degree)]
            start = data.draw(st.sampled_from([
                lists.mbr(v, min(g.degree(v), syn.upper)).high,  # v's corner in the scanned grid
                lists.mbr(v, q_degree).high,
                lists.mbr(v, q_degree).low,
                idx.embedding_of(v),
            ]), label="start")
            # a box at a vertex's degree is a point: a query that keeps every
            # coordinate of a hub leaf's is the one its like leaves survive
            nudges = data.draw(st.one_of(
                st.just(["same"] * len(start)),
                st.lists(st.sampled_from(sorted(_NUDGES)), min_size=len(start),
                         max_size=len(start)),
            ), label="nudges")
            q_embed = tuple(_NUDGES[how](x) for how, x in zip(nudges, start))
            q_label = data.draw(st.one_of(st.just(g.labels[v]), st.integers(0, 4)),
                                label="q_label")
            got = idx.scan_for_degree(q_embed, q_degree, q_label)
            assert got == reference_scan(syn, q_embed, q_degree, q_label)
            kept[min(len(got[0]), 2)] += 1

    check()
    assert kept[2] > 0


def assert_snapshot_corners_equal_boxes(idx, g):
    """Every grid holds each vertex above its lower bound once, and the
    corner ``snapshot`` decodes for it is the high bound of its box at the
    group-capped degree."""
    for syn in idx.synopses:
        rows = [row for cell_rows in syn.snapshot().values() for row in cell_rows]
        assert sorted(v for v, _, _ in rows) == sorted(
            v for v in g.vertices() if g.degree(v) > syn.lower
        )
        for v, ub, corner in rows:
            assert ub == min(g.degree(v), syn.upper)
            assert corner == idx.lists.mbr(v, ub).high


@pytest.mark.parametrize("m", [1, 3, 8])
@pytest.mark.parametrize("mode", ["plain", "base", "zipf"])
def test_snapshot_decodes_each_corner(mode, m):
    # a maintained and a fresh snapshot decode alike, so comparing them
    # cannot catch a decoding fault; the box oracle can.  At m = 8 the build
    # files some vertices in many grids, at caps below and at their degree
    def check(idx, g):
        assert_snapshot_corners_equal_boxes(idx, g)
        most = max(sum(g.degree(v) > syn.lower for syn in idx.synopses) for v in g.vertices())
        assert most == idx.groups.m >= min(m, 5)  # m = 8 gives 5 groups here

    run_hub_churn(mode, check, m)


def test_scan_outside_its_group_raises_degree_out_of_range(cfg_zipf):
    # vertex 0 has degree 2, the top of group 0, (0, 2]: a query equal to
    # its embedding dominates its corner and reaches its bucket's box test
    g = make_graph([(0, 1), (0, 2), (3, 4), (3, 5), (3, 6)], {v: v % 2 for v in range(7)})
    idx = SynopsisIndex(g, DegreeGroups((2, 4)), cfg_zipf, 5)
    q = idx.embedding_of(0)
    assert scan_candidates(idx.synopses[0], q, 2, 0)[0] == [0]
    with pytest.raises(DegreeOutOfRange, match=r"degree 3 .*\(0, 2\]"):
        scan_candidates(idx.synopses[0], q, 3, 0)
    with pytest.raises(DegreeOutOfRange, match=r"degree 2 .*\(2, 4\]"):
        scan_candidates(idx.synopses[1], q, 2, 0)
    for bad in (0, -1):
        with pytest.raises(DegreeOutOfRange, match=rf"degree {bad} .*\[1, inf\)"):
            idx.scan_for_degree(q, bad, 0)


# -- the packed column tests ---------------------------------------------------


def counts(w):
    """Ints at_least is argued over at width w: [0, T), T = 2^(8w - 1), with
    2^53 + 1, the first a float cannot hold, and both ends."""
    top = 2 ** (8 * w - 1)
    marks = [c for c in (0, 1, 2, 2**32, 2**53, 2**53 + 1, top - 2, top - 1) if c < top]
    return st.one_of(st.sampled_from(marks), st.integers(min_value=0, max_value=top - 1))


def _fields(mask, n, w):
    """Per w-byte field of a test's mask, whether its top bit is set; no
    other bit may be."""
    signs = int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")
    assert mask & ~signs == 0
    return [bool(mask >> (8 * w * (i + 1) - 1) & 1) for i in range(n)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_packed_tests_equal_int_comparisons(data):
    # at each field width, columns mixing 0, 2^53 + 1 where it fits, the
    # largest count, exact ties with x and x one either side
    w = data.draw(st.sampled_from(sorted(_TYPECODES)), label="w")
    code = _TYPECODES[w]
    assert array(code).itemsize == w
    x = data.draw(counts(w), label="x")
    near = st.sampled_from([c for c in (x - 1, x, x + 1) if 0 <= c < 2 ** (8 * w - 1)])
    col = data.draw(st.lists(st.one_of(near, counts(w)), min_size=1, max_size=24), label="col")
    n = len(col)
    packed = pack(array(code, col))
    assert packed == sum(c << 8 * w * i for i, c in enumerate(col))
    assert unpack(packed, n, w) == tuple(col)
    signs = int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")
    xs = int.from_bytes(x.to_bytes(w, "little") * n, "little")
    assert _fields(at_least(packed, xs, signs), n, w) == [c >= x for c in col]


def _two_label_0_stars(cfg):
    # vertices 0 (degree 1) and 2 (degree 3) share label 0 in the open
    # group, and all their neighbors carry label 1
    g = make_graph([(0, 1), (2, 3), (2, 4), (2, 5)], {0: 0, 1: 1, 2: 0, 3: 1, 4: 1, 5: 1})
    idx = SynopsisIndex(g, DegreeGroups(()), cfg, 1)
    [syn] = idx.synopses
    [cell] = syn.cells
    assert [v for v, label, _ in cell.rows if label == 0] == [0, 2]
    return idx, syn


def test_rows_past_a_vertex_degree_fail_the_box_test(cfg_plain):
    # a need-less query at degree 2 equal to vertex 0's embedding dominates
    # both corners: the box prunes 0 by its degree and 2 by its box low.
    # The star with two label-1 leaves keeps 2 alone
    idx, syn = _two_label_0_stars(cfg_plain)
    q = idx.embedding_of(0)
    cands, stats = scan_candidates(syn, q, 2, 0)
    assert (cands, stats) == reference_scan(syn, q, 2, 0)
    assert cands == [] and stats.pruned_box == 2
    leaves = tuple(2 * c for c in label_vector(1, cfg_plain))
    star = compose(label_vector(0, cfg_plain), leaves, 0, cfg_plain)
    cands, stats = scan_candidates(syn, star, 2, 0)
    assert (cands, stats) == reference_scan(syn, star, 2, 0)
    assert cands == [2]


def test_entries_below_the_query_degree_fail_the_last_stage(cfg_plain):
    # the same queries with a need of two label-1 neighbors: the count test
    # examines both label-0 vertices, prunes 0 by its count and keeps 2,
    # whatever the query's embedding
    idx, _ = _two_label_0_stars(cfg_plain)
    need = ((1, 2),)
    leaves = tuple(2 * c for c in label_vector(1, cfg_plain))
    star = compose(label_vector(0, cfg_plain), leaves, 0, cfg_plain)
    for q in (idx.embedding_of(0), star):
        cands, stats = need_scan(idx, q, 2, 0, need)
        assert (cands, stats) == reference_need_scan(idx, 0, need)
        assert cands == [2] and stats == ScanStats(examined=2, pruned_box=1, survivors=1)


def test_pack_and_needed_count_reject_a_negative_int(cfg_plain):
    # the packed test's precondition, no negative count or needed count, is
    # the field type's: at no width can a column or a need scan's operand
    # hold -1
    for code in _TYPECODES.values():
        with pytest.raises(OverflowError):
            pack(array(code, [0, -1]))
    for degree in (127, 128):
        idx = SynopsisIndex(_label_0_hub(degree), DegreeGroups(()), cfg_plain, 1)
        with pytest.raises(OverflowError):
            idx.scan_for_degree((), 1, 0, ((1, -1),))
        assert idx._columns.columns[0][0] == (1 if degree < 128 else 2)
        assert need_scan(idx, (), 1, 0, ((1, 0),))[0] == [0, 1]


def _label_0_hub(degree):
    """Vertex 0, of label 0 and the given degree, over leaves of labels 1
    and 2 in turn, and vertex 1, of label 0 too, over two of them."""
    leaves = {v: 1 + v % 2 for v in range(2, degree + 2)}
    return make_graph([(0, v) for v in leaves] + [(1, 2), (1, 3)], {0: 0, 1: 0, **leaves})


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_need_scan_iterator_equals_the_per_vertex_count_test(data):
    # random graphs on labels 0..2, with or without a label-0 hub of
    # degree 128 (2-byte fields for label 0, else 1-byte), and random
    # needs over labels 0..3, label 3 held by no vertex (its column all
    # zero), counts drawn around both widths' limits: each scan yields,
    # once and in graph order, the vertices the per-vertex count test
    # keeps, and its survivors count them
    n = data.draw(st.integers(1, 24), label="n")
    labels = dict(enumerate(data.draw(
        st.lists(st.integers(0, 2), min_size=n, max_size=n), label="labels")))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])
    edges = data.draw(st.sets(pairs, max_size=3 * n), label="edges")
    hub = data.draw(st.booleans(), label="hub")
    if hub:  # vertex n over 128 new leaves of labels 1 and 2 in turn
        labels |= {n: 0, **{v: 1 + v % 2 for v in range(n + 1, n + 129)}}
        edges |= {(n, v) for v in range(n + 1, n + 129)}
    g = make_graph(sorted(edges), labels)
    idx = SynopsisIndex(g, DegreeGroups(()), EmbeddingConfig(mode="plain"), 1)
    counts = st.sampled_from([0, 1, 2, 3, 64, 65, 127, 128, 2**15 - 1, 2**15, 2**64])
    for label in range(4):
        need = tuple(sorted(data.draw(
            st.dictionaries(st.integers(0, 3), counts, max_size=3), label="need").items()))
        cands, stats = idx.scan_for_degree((), 1, label, need)
        got = list(cands)
        want = reference_need_scan(idx, label, need)[0]
        assert got == want == [v for v in g.vertices() if g.labels[v] == label
                               and covers(g, v, need)]
        assert stats.survivors == len(got) and list(cands) == []
    assert idx._columns.columns[0][0] == (2 if hub else 1)


def test_field_width_follows_the_largest_degree(cfg_plain):
    # label 0's largest member degree at 127 gives 1-byte fields and at
    # 128 2-byte ones; at each width, need scans equal the per-vertex
    # count test, and a need of 2^(8w - 1) or more examines every member
    # and keeps none
    for degree, w in ((127, 1), (128, 2)):
        g = _label_0_hub(degree)
        idx = SynopsisIndex(g, DegreeGroups(()), cfg_plain, 1)
        halves = (degree // 2, degree - degree // 2)  # label-2 and label-1 leaves
        needs = [((1, c),) for c in range(halves[1] + 2)] + [
            ((1, 1), (2, c)) for c in (0, 1, halves[0] - 1, halves[0], halves[0] + 1)
        ]
        for need in needs:
            assert need_scan(idx, (), 1, 0, need) == reference_need_scan(idx, 0, need)
        assert idx._columns.columns[0][0] == w
        top = 2 ** (8 * w - 1)
        for need in (((1, top),), ((1, top + 1),), ((1, 1), (2, top)), ((1, 2**64),)):
            assert need_scan(idx, (), 1, 0, need) == ([], ScanStats(examined=2, pruned_box=2))


def test_answers_hold_across_a_width_boundary(cfg_base):
    # a 3-vertex path over labels 1, 0, 2 registered while label 0's hub
    # has degree 128 (2-byte fields), kept through a delete that takes the
    # label back to 1-byte fields and an insert that brings it to 2 again;
    # a copy registered after each update fills the label at its new width
    from dsmatch.matcher import MatchEngine, QueryGraph
    from dsmatch.oracle import enumerate_matches

    g = _label_0_hub(128)
    engine = MatchEngine(g.copy(), cfg_base)
    q = QueryGraph({0: 1, 1: 0, 2: 2}, [(0, 1), (1, 2)])

    def register(w):
        engine.register(f"q{len(engine.queries)}", q)
        assert engine.index._columns.columns[0][0] == w
        want = enumerate_matches(g, q)
        assert all(rq.answers.mappings() == want for rq in engine.queries.values())
        return want

    assert len(register(2)) == 64 * 64 + 1
    for op, w in ((UpdateOp(DELETE, 0, 2), 1), (UpdateOp(INSERT, 0, 2), 2)):
        engine.process_update(op)
        g.apply_update(op)
        register(w)
    assert len(engine.queries) == 3
