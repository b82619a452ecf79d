import itertools
import math
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmatch.embedding import EmbeddingConfig, embed_vertex, embedding_key, label_vector
from dsmatch.errors import DegreeOutOfRange
from dsmatch.graph import DELETE, INSERT, DynamicGraph, UpdateOp
from dsmatch.oracle import star_subset_embeddings
from dsmatch.rng import Rng
from dsmatch.synopsis import (
    FILTER_EPS,
    DegreeGroups,
    Mbr,
    NeighborListStore,
    ScanStats,
    SynopsisIndex,
    compute_degree_groups,
    dominated_within,
    scan_candidates,
)

from conftest import make_graph, small_world


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


def test_grouping_m_exceeding_distinct_collapses():
    g = graph_with_degrees([4, 4, 7])
    groups = compute_degree_groups(g, 10)
    assert groups.cutoffs == (1, 4)  # distinct degrees {1, 4, 7}
    assert groups.m == 3


def test_greedy_grouping_fills_every_group_when_mass_sits_on_top():
    # degrees 1..60 once each plus 2,000 vertices of degree 61: C(60, 4)
    # boundary placements exceed the exhaustive cap, so the greedy path runs,
    # and no bucket reaches its fair share before the top degree
    class DegreeStub:
        degrees = list(range(1, 61)) + [61] * 2000

        def vertices(self):
            return range(len(self.degrees))

        def degree(self, v):
            return self.degrees[v]

    groups = compute_degree_groups(DegreeStub(), 5)
    assert groups.m == 5
    assert all(a < b for a, b in zip(groups.cutoffs, groups.cutoffs[1:]))
    masses = bucket_masses(groups, DegreeStub.degrees)
    assert min(masses) > 0
    assert max(masses) - min(masses) <= 2000  # c08: the largest single-degree mass


@pytest.mark.slow
def test_grouping_balance_property_powerlaw():
    # bucket masses never differ by more than the largest single-degree mass
    rng = Rng(99)
    for trial in range(100):
        n = rng.randint(30, 300)
        degrees = [max(1, int((1.0 - rng.random()) ** -0.7)) for _ in range(n)]
        degrees = [min(d, 40) for d in degrees]
        g = graph_with_degrees(degrees)
        all_degrees = [g.degree(v) for v in g.vertices() if g.degree(v) >= 1]
        freq = {}
        for d in all_degrees:
            freq[d] = freq.get(d, 0) + 1
        m = rng.randint(1, 5)
        groups = compute_degree_groups(g, m)
        masses = bucket_masses(groups, all_degrees)
        assert max(masses) - min(masses) <= max(freq.values())


# -- per-degree boxes ----------------------------------------------------------


def test_mbr_plain_hand_example():
    # neighbor labels 4, 2, 2, 1 put components c4 < c2 = c2 < c1 on the one
    # dimension: delta 2 spans [c4 + c2, c2 + c1], delta 3 [c4 + 2c2, 2c2 + c1]
    cfg = EmbeddingConfig(d=1, mode="plain")
    g = make_graph([(0, 1), (0, 2), (0, 3), (0, 4)], {0: 0, 1: 4, 2: 2, 3: 2, 4: 1})
    store = NeighborListStore.build(g, cfg)
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
    store = NeighborListStore.build(g, any_mode_cfg)
    box = store.mbr(0, 3)
    assert all(abs(l - h) <= 1e-12 for l, h in zip(box.low, box.high))
    assert box.high == pytest.approx(store.embedding(0), abs=1e-9)


def test_mbr_out_of_range(any_mode_cfg):
    g = make_graph([(0, 1)], {0: 0, 1: 1})
    store = NeighborListStore.build(g, any_mode_cfg)
    for bad in (0, 2):
        with pytest.raises(DegreeOutOfRange):
            store.mbr(0, bad)


def test_mbr_equals_enumeration_bounds(any_mode_cfg):
    # exhaustive subset enumeration is the box oracle (degrees <= 10)
    g = small_world(n=80, avg_deg=5.0, alphabet=4, seed=11)
    store = NeighborListStore.build(g, any_mode_cfg)
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
    return SynopsisIndex.build(g, compute_degree_groups(g, m), cfg, k)


def test_build_empty_graph(any_mode_cfg):
    g = DynamicGraph()
    for v in range(3):
        g.add_vertex(v, v)
    idx = SynopsisIndex.build(g, DegreeGroups((2, 4)), any_mode_cfg, 5)
    assert all(len(syn) == 0 for syn in idx.synopses)


def test_degree5_vertex_entry_caps(cfg_base):
    # groups (0,2], (2,4], (4,inf): a degree-5 center lands in all three
    g = make_graph([(0, i) for i in range(1, 6)], {0: 0, **{i: 1 for i in range(1, 6)}})
    idx = SynopsisIndex.build(g, DegreeGroups((2, 4)), cfg_base, 5)
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
        keys = [-negkey for negkey, _ in syn.order]
        assert keys == sorted(keys, reverse=True)
        for negkey, coords in syn.order:
            assert syn.cells[coords].key == -negkey
            assert embedding_key_matches(syn, coords)


def embedding_key_matches(syn, coords):
    cell = syn.cells[coords]
    return cell.key == embedding_key(cell.corner)


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
    idx = SynopsisIndex.build(g, DegreeGroups((2, 4)), cfg_base, 5)
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
    rebuilt = SynopsisIndex.build(g, idx.groups, cfg_base, 5, domain=idx.domain)
    assert idx.snapshot() == rebuilt.snapshot()


Entry = namedtuple("Entry", "vertex ub_delta corner")


def _entry(idx, group, v):
    """v's entry in the group's grid, found through its cells' buckets, as
    its snapshot row (vertex, ub_delta, corner); None if absent."""
    syn = idx.synopses[group]
    found = [
        coords
        for coords, cell in syn.cells.items()
        for vs, _ in cell.buckets.values()
        for u in vs
        if u == v
    ]
    assert len(found) <= 1
    if not found:
        return None
    (row,) = [r for r in syn.snapshot(idx.lists)[found[0]] if r[0] == v]
    return Entry(*row)


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
    for op in random_update_stream(g, 500, seed=21):
        g.apply_update(op)
        idx.maintain(op)
    rebuilt = SynopsisIndex.build(g, idx.groups, cfg, idx.k_cells, domain=idx.domain)
    assert idx.snapshot() == rebuilt.snapshot()
    # maintained neighbor sums agree with from-scratch sums
    from dsmatch.embedding import neighbor_sum

    for v in g.vertices():
        got = idx.lists.neighbor_sum(v)
        want = neighbor_sum(g, v, cfg)
        assert all(abs(a - b) <= 1e-9 for a, b in zip(got, want))


def test_hub_degree_boxes_and_rebuild_under_churn(any_mode_cfg):
    # a hub of degree >= 2,000 over labels 0-15, whose zipf components tie
    # (four labels share 1/1024 on dimension 0), churned by inserts and
    # deletes; boxes are checked against sorted neighbor components
    from dsmatch.embedding import compose

    rng = Rng(61)
    labels = {0: 0, **{v: rng.randint(0, 15) for v in range(1, 2401)}}
    g = make_graph([(0, v) for v in range(1, 2401)], labels)
    for v in range(1, 2400, 7):
        g.add_edge(v, v + 1)
    idx = build_index(g, any_mode_cfg)
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
    rebuilt = SynopsisIndex.build(g, idx.groups, any_mode_cfg, idx.k_cells, domain=idx.domain)
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
        box = idx.lists.mbr(0, delta)
        assert all(abs(a - b) <= 1e-9 for a, b in zip(box.low, low))
        assert all(abs(a - b) <= 1e-9 for a, b in zip(box.high, high))


@pytest.mark.parametrize("mode", ["plain", "base", "zipf"])
def test_admits_equals_box_containment(mode):
    # the tail-only, early-exit box test against the full box's contains,
    # for every vertex and delta in 1..deg+1, probed at the low and high
    # corners and the centre of the boxes at delta - 1, delta and delta + 1,
    # and 2 * FILTER_EPS outside each of their tail bounds
    cfg = EmbeddingConfig(d=2, mode=mode)
    g = small_world(n=60, avg_deg=5.0, alphabet=4, seed=19)
    idx = build_index(g, cfg)
    lists = idx.lists

    def probes(box):
        centre = tuple((lo + hi) / 2 for lo, hi in zip(box.low, box.high))
        out = [box.low, box.high, centre]
        for j in range(cfg.d, 2 * cfg.d):
            for bound, step in ((box.low[j], -2 * FILTER_EPS), (box.high[j], 2 * FILTER_EPS)):
                out.append(centre[:j] + (bound + step,) + centre[j + 1:])
        return out

    def check():
        outcomes = []
        for v in g.vertices():
            deg = g.degree(v)
            boxes = {delta: lists.mbr(v, delta) for delta in range(1, deg + 1)}
            for delta in range(1, deg + 2):
                near = [boxes[n] for n in (delta - 1, delta, delta + 1) if n in boxes]
                for p in (p for box in near for p in probes(box)):
                    want = delta <= deg and boxes[delta].contains(p, FILTER_EPS)
                    assert lists.admits(v, delta, p) == want
                    outcomes.append(want)
        assert True in outcomes and False in outcomes

    check()
    for op in random_update_stream(g, 150, seed=29, alphabet=4):
        g.apply_update(op)
        idx.maintain(op)
    check()


def _extreme_sum(hist, labels, keys, delta):
    """Sum of the first ``delta`` neighbor components met walking ``labels``."""
    acc = 0.0
    for lbl in labels:
        c = hist[lbl]
        comp = keys[lbl][0]
        if c >= delta:
            return acc + delta * comp
        acc += c * comp
        delta -= c
    return acc


def reference_box(lists, v, delta):
    """v's box at delta, sorting its histogram's labels on every call."""
    hist = lists.hist.get(v, {})
    head, tail = lists.frames[lists.graph.labels[v]]
    a = lists.alpha
    low, high = [], []
    for keys, t in zip(lists.keys, tail):
        labels = sorted(hist, key=keys.__getitem__)
        low.append(a * _extreme_sum(hist, labels, keys, delta) + t)
        high.append(a * _extreme_sum(hist, reversed(labels), keys, delta) + t)
    return Mbr(low=head + tuple(low), high=head + tuple(high))


def reference_neighbor_sum(lists, v):
    hist = lists.hist.get(v, {})
    deg = sum(hist.values())
    return tuple(_extreme_sum(hist, sorted(hist, key=k.__getitem__), k, deg) for k in lists.keys)


def reference_admits(lists, v, delta, q_embed):
    if delta > lists.degree(v):
        return False
    box = reference_box(lists, v, delta)
    d = lists.cfg.d
    return all(
        lo - FILTER_EPS <= x <= hi + FILTER_EPS
        for lo, x, hi in zip(box.low[d:], q_embed[d:], box.high[d:])
    )


def assert_walk_reads_equal_reference(lists, g):
    """mbr, admits and neighbor_sum are bit-equal to the sort-per-call box,
    for every vertex and every delta in 1..deg; admits is probed on both
    sides of each tail bound's exact FILTER_EPS threshold."""
    d = lists.cfg.d
    outcomes = set()
    for v in g.vertices():
        assert lists.neighbor_sum(v) == reference_neighbor_sum(lists, v)
        deg = g.degree(v)
        for delta in range(1, deg + 1):
            box = reference_box(lists, v, delta)
            assert lists.mbr(v, delta) == box
            centre = tuple((lo + hi) / 2 for lo, hi in zip(box.low, box.high))
            for j in range(d, 2 * d):
                for edge in (box.low[j] - FILTER_EPS, box.high[j] + FILTER_EPS):
                    below, above = math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)
                    for x in (below, edge, above):
                        p = centre[:j] + (x,) + centre[j + 1:]
                        want = reference_admits(lists, v, delta, p)
                        assert lists.admits(v, delta, p) == want
                        outcomes.add(want)
        assert not lists.admits(v, deg + 1, lists.embedding(v))
    assert outcomes == {True, False}


def run_hub_churn(mode, check):
    """A small-world graph plus a hub of degree 240 over labels 0-15, whose
    zipf components tie on dimension 0, with its index; ``check(idx, g)``
    runs on it before a mixed stream, with one vertex isolated after it,
    and after that vertex's revival and more churn at the hub."""
    cfg = EmbeddingConfig(d=2, mode=mode)
    rng = Rng(83)
    g = small_world(n=60, avg_deg=5.0, alphabet=4, seed=37)
    hub = max(g.labels) + 1
    g.add_vertex(hub, 0)
    for v in range(hub + 1, hub + 241):
        g.add_vertex(v, rng.randint(0, 15))
        g.add_edge(hub, v)
    idx = build_index(g, cfg)
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
    loner = next(v for v in sorted(g.vertices()) if v != hub and g.degree(v) >= 2)
    lbl = g.labels[loner]
    for n in sorted(g.neighbors(loner)):
        apply(UpdateOp(DELETE, loner, n))
    assert g.degree(loner) == 0
    assert lists.neighbor_sum(loner) == (0.0,) * cfg.d
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
def test_walk_reads_equal_sort_per_call_reference(mode):
    run_hub_churn(mode, lambda idx, g: assert_walk_reads_equal_reference(idx.lists, g))


def assert_box_tables_equal_admits(idx, g):
    """Fill every bucket's box table at every delta from 1 to one past the
    bucket's largest degree, as a scan fills it; then each filled table's
    test, ``lo - FILTER_EPS <= x <= hi + FILTER_EPS`` per tail dimension,
    must give ``admits``' verdict on every entry it covers, probed at each
    bound's FILTER_EPS threshold and one ulp either side of it."""
    lists, d = idx.lists, idx.cfg.d
    outcomes = set()
    for syn in idx.synopses:
        for cell in syn.cells.values():
            for label, (vs, _) in cell.buckets.items():
                for delta in range(1, max(g.degree(v) for v in vs) + 2):
                    cell.box_table(label, delta, lists)
            for (label, delta), table in cell.tables.items():
                vs = cell.buckets[label][0]
                head = lists.frames[label][0]
                assert len(table) == 2 * d * len(vs)
                for i, v in enumerate(vs):
                    bounds = table[2 * d * i:2 * d * (i + 1)]
                    lows, highs = bounds[0::2], bounds[1::2]
                    if delta > g.degree(v):  # no box: nothing passes either test
                        assert tuple(bounds) == (math.inf, -math.inf) * d
                        assert not lists.admits(v, delta, head + (0.0,) * d)
                        continue
                    centre = tuple((lo + hi) / 2 for lo, hi in zip(lows, highs))
                    for k in range(d):
                        for edge in (lows[k] - FILTER_EPS, highs[k] + FILTER_EPS):
                            for x in (math.nextafter(edge, -math.inf), edge,
                                      math.nextafter(edge, math.inf)):
                                q_tail = centre[:k] + (x,) + centre[k + 1:]
                                want = lists.admits(v, delta, head + q_tail)
                                assert want == all(
                                    lo - FILTER_EPS <= y <= hi + FILTER_EPS
                                    for y, lo, hi in zip(q_tail, lows, highs)
                                )
                                outcomes.add(want)
    assert outcomes == {True, False}


@pytest.mark.parametrize("mode", ["plain", "base", "zipf"])
def test_box_tables_equal_admits(mode):
    # tables die with the grid: after maintenance each is filled afresh
    run_hub_churn(mode, assert_box_tables_equal_admits)


def test_walk_is_dropped_by_a_histogram_edit(cfg_zipf):
    # a box read before an update must not be served after it
    g = make_graph([(0, 1), (0, 2), (3, 4)], {0: 0, 1: 1, 2: 2, 3: 3, 4: 4})
    idx = build_index(g, cfg_zipf, m=1)
    lists = idx.lists
    steps = [UpdateOp(INSERT, 0, 3), UpdateOp(DELETE, 0, 1), UpdateOp(INSERT, 0, 4)]
    for op in steps:
        before = lists.mbr(0, 2), lists.neighbor_sum(0), lists.embedding(0)
        g.apply_update(op)
        idx.maintain(op)
        after = lists.mbr(0, 2), lists.neighbor_sum(0), lists.embedding(0)
        assert after[:2] == (reference_box(lists, 0, 2), reference_neighbor_sum(lists, 0))
        assert after[2] == pytest.approx(embed_vertex(g, 0, cfg_zipf), abs=1e-9)
        assert all(a != b for a, b in zip(after, before))
        probe = after[0].low
        assert lists.admits(0, 2, probe) == reference_admits(lists, 0, 2, probe) is True


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
    idx = SynopsisIndex.build(g, DegreeGroups((2,)), any_mode_cfg, 5)
    from dsmatch.embedding import compose

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
    direct = scan_candidates(syn, q, 1, g.labels[0], idx.lists)
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
        for _, coords in syn.order[:20]:
            corner = syn.cells[coords].corner
            q = tuple(
                max(0.0, c - rng.random()) if c != math.inf else rng.random() * idx.domain
                for c in corner
            )
            from dsmatch.synopsis import dominated_within

            if dominated_within(q, corner):
                assert embedding_key(q) <= syn.cells[coords].key + 1e-6


def test_synopsis_dump_format(cfg_base):
    g = make_graph([(0, 1)], {0: 0, 1: 1})
    idx = build_index(g, cfg_base, m=1)
    text = idx.dump()
    assert "# synopsis 0" in text
    assert "key=" in text and "entries=" in text


def naive_candidates(idx, q_embed, q_degree, q_label):
    """Linear-scan reference: same per-vertex predicates, no grid at all."""
    from dsmatch.synopsis import FILTER_EPS

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
        if q_degree > deg or not idx.lists.mbr(v, q_degree).contains(q_embed, FILTER_EPS):
            continue
        out.add(v)
    return out


def reference_scan(syn, q_embed, q_degree, q_label, lists):
    """The per-entry scan loop that label buckets replaced.

    Every entry meets every filter in turn: dominance of the full corner,
    boxed through ``mbr`` at the group-capped degree rather than read from
    the grid, then label, then the box at the query degree through
    ``mbr().contains``.
    """
    stats = ScanStats()
    out = []
    cutoff = embedding_key(q_embed) - 2.0 * FILTER_EPS * len(q_embed) * syn.domain - 1e-12
    for negkey, coords in syn.order:
        if -negkey < cutoff:
            break
        cell = syn.cells[coords]
        entries = [v for vs, _ in cell.buckets.values() for v in vs]
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
            elif not (
                q_degree <= lists.degree(v)
                and lists.mbr(v, q_degree).contains(q_embed, FILTER_EPS)
            ):
                stats.pruned_box += 1
            else:
                out.append(v)
                stats.survivors += 1
    return out, stats


@pytest.mark.parametrize("mode", ["plain", "base", "zipf"])
def test_scan_stats_equal_reference_scan(mode):
    # bucketed scan and per-entry reference: equal candidate lists and
    # equal ScanStats, before and after incremental maintenance
    from dsmatch.matcher import embed_query
    from dsmatch.generate import sample_queries

    cfg = EmbeddingConfig(d=2, mode=mode)
    g = small_world(n=120, avg_deg=5.0, alphabet=4, seed=71)
    idx = build_index(g, cfg)
    queries = sample_queries(g, 6, 4, 2.0, seed=43)

    def check():
        total = ScanStats()
        for q in queries:
            embeds = embed_query(q, cfg)
            for qi in q.vertex_order:
                args = (embeds[qi], q.degree(qi), q.labels[qi], idx.lists)
                syn = idx.synopses[idx.groups.group_of(q.degree(qi))]
                got = scan_candidates(syn, *args)
                assert got == reference_scan(syn, *args)
                for f in ("pruned_cell", "pruned_dominance", "pruned_label", "pruned_box",
                          "survivors"):
                    setattr(total, f, getattr(total, f) + getattr(got[1], f))
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
    # return exactly the vertices the raw predicates admit, before and
    # after incremental maintenance
    from dsmatch.matcher import embed_query
    from dsmatch.generate import sample_queries

    cfg = EmbeddingConfig(d=2, mode=mode)
    g = small_world(n=120, avg_deg=5.0, alphabet=4, seed=71)
    idx = build_index(g, cfg)
    queries = sample_queries(g, 6, 4, 2.0, seed=43)

    def check():
        for q in queries:
            embeds = embed_query(q, cfg)
            for qi in q.vertex_order:
                got, _ = idx.scan_for_degree(embeds[qi], q.degree(qi), q.labels[qi])
                want = naive_candidates(idx, embeds[qi], q.degree(qi), q.labels[qi])
                assert set(got) == want

    check()
    for op in random_update_stream(g, 150, seed=47, alphabet=4):
        g.apply_update(op)
        idx.maintain(op)
    check()
