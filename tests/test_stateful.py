"""Stateful differential fuzzing of MatchEngine.

A hypothesis rule-based machine drives one engine over a small labeled
graph with inserts (some of them creating a labeled vertex), deletes,
re-inserts of deleted edges, hubs (several new labeled leaves on one
vertex, whose degree then passes the top frozen degree cutoff and, in
plain mode, whose neighbor sums can pass the frozen grid domain and clamp
into the top interval), rejected ops (duplicate and missing edges,
self-loops, and inserts whose new endpoint has a float, str or bool id or
label) and queries registered mid-stream.
A shadow graph receives the same accepted ops.  After every step each
registered query's answers equal the brute-force oracle's on the shadow
graph, and the engine's index equals a fresh build over the engine's
graph with the same degree groups, cell count and domain: its snapshot,
and every label's members and count columns it has filled, once the
latest query's vertices are scanned again as a registration now would.  A fresh build
runs the same capped sums as the engine's, so on a third of the vertices
in turn the store's capped sums at the vertex's group caps equal sums
over its shadow adjacency's sorted components, and the count test the
matcher runs is sound against the box test: a vertex whose histogram
covers a registered query vertex's neighbor label counts (as its shadow
adjacency does too) has the query vertex's embedding in its box at the
query degree.
Each accepted op's deltas are the answer-set differences it caused,
naming only the queries it changed; a rejected op changes neither graph,
index snapshot, filled label columns nor answers.  The label-pair table equals a refiling of every
registered query's plans.
Two profiles run the machine, both derandomized: 50 examples of 30 steps,
and a slow-marked one of 150 examples of 60 steps.
"""

import math
from bisect import bisect_left
from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from dsmatch.embedding import EmbeddingConfig, label_vector
from dsmatch.errors import DsmatchError, DuplicateEdge, MissingEdge, SelfLoop
from dsmatch.generate import sample_queries
from dsmatch.graph import DELETE, INSERT, UpdateOp, dump_graph
from dsmatch.matcher import UNCHANGED, MatchEngine, label_needs
from dsmatch.oracle import enumerate_matches
from dsmatch.synopsis import SynopsisIndex

from conftest import small_world

ALPHABET = 3  # new vertices may also carry label ALPHABET, which g0 lacks


class EngineMachine(RuleBasedStateMachine):
    @initialize(
        mode=st.sampled_from(["plain", "base", "zipf"]),
        seed=st.integers(0, 3),
        m_groups=st.integers(1, 3),
    )
    def build(self, mode, seed, m_groups):
        self.shadow = small_world(n=16, avg_deg=3.0, alphabet=ALPHABET, seed=seed)
        self.engine = MatchEngine(self.shadow.copy(), EmbeddingConfig(d=2, mode=mode), m_groups)
        self.pool = sample_queries(self.shadow, 4, 3, 2.0, seed=seed) + sample_queries(
            self.shadow, 2, 4, 2.0, seed=seed + 10
        )
        self.queries = {}
        self.deleted = []  # edges this run deleted, maybe inserted again since
        self.checks = 0  # invariant checks run, which rotate the vertices probed
        self.engine.register("q0", self.pool.pop())
        self.queries["q0"] = self.engine.queries["q0"].query
        # read, so the grid domain is frozen over g0 and hubs can drift past it
        assert self.engine.index.domain > 0

    def answers(self):
        return {name: rq.answers.mappings() for name, rq in self.engine.queries.items()}

    def state(self):
        return dump_graph(self.engine.graph), self.engine.index.snapshot(), self.answers()

    def apply(self, op):
        before = self.answers()
        result = self.engine.process_update(op)
        self.shadow.apply_update(op)
        after = self.answers()
        for name in self.queries:
            delta = result.deltas.get(name, UNCHANGED)
            assert delta.added == after[name] - before[name]
            assert delta.removed == before[name] - after[name]
        assert all(d.added or d.removed for d in result.deltas.values())

    def absent_pairs(self):
        vs = sorted(self.shadow.labels)
        return [(u, v) for u in vs for v in vs if u < v and not self.shadow.has_edge(u, v)]

    @rule(data=st.data())
    def insert(self, data):
        u, v = data.draw(st.sampled_from(self.absent_pairs()))
        self.apply(UpdateOp(INSERT, *data.draw(st.permutations([u, v]))))

    @rule(data=st.data(), label=st.integers(0, ALPHABET), both_new=st.booleans())
    def insert_new_vertex(self, data, label, both_new):
        new = max(self.shadow.labels) + 1
        if both_new:
            op = UpdateOp(INSERT, new, new + 1, label_u=label, label_v=(label + 1) % ALPHABET)
        else:
            u = data.draw(st.sampled_from(sorted(self.shadow.labels)))
            op = UpdateOp(INSERT, u, new, label_v=label)
        self.apply(op)

    @rule(data=st.data(), labels=st.lists(st.integers(0, ALPHABET), min_size=3, max_size=6))
    def hub(self, data, labels):
        # on a vertex of the largest degree, which the initial graph's top
        # cutoff lies below, so the open last group holds it
        top = max(self.shadow.degree(v) for v in self.shadow.labels)
        u = data.draw(st.sampled_from(
            sorted(v for v in self.shadow.labels if self.shadow.degree(v) == top)
        ))
        for label in labels:
            self.apply(UpdateOp(INSERT, u, max(self.shadow.labels) + 1, label_v=label))

    @precondition(lambda self: self.shadow.num_edges)
    @rule(data=st.data())
    def delete(self, data):
        u, v = data.draw(st.sampled_from(list(self.shadow.edges())))
        self.apply(UpdateOp(DELETE, v, u) if data.draw(st.booleans()) else UpdateOp(DELETE, u, v))
        self.deleted.append((u, v))

    @precondition(lambda self: any(not self.shadow.has_edge(*e) for e in self.deleted))
    @rule(data=st.data())
    def reinsert(self, data):
        gone = [e for e in self.deleted if not self.shadow.has_edge(*e)]
        self.apply(UpdateOp(INSERT, *data.draw(st.sampled_from(gone))))

    @rule(data=st.data(), kind=st.sampled_from(["duplicate", "missing", "self-loop"]))
    def rejected(self, data, kind):
        if kind == "duplicate" and self.shadow.num_edges:
            edge = data.draw(st.sampled_from(list(self.shadow.edges())))
            error, op = DuplicateEdge, UpdateOp(INSERT, *edge)
        elif kind == "missing":
            pair = data.draw(st.sampled_from(self.absent_pairs()))
            error, op = MissingEdge, UpdateOp(DELETE, *pair)
        else:
            v = data.draw(st.sampled_from(sorted(self.shadow.labels)))
            error, op = SelfLoop, UpdateOp(INSERT, v, v)
        before = self.state()
        try:
            self.engine.process_update(op)
        except error:
            pass
        else:
            raise AssertionError(f"{op} was accepted")
        assert self.state() == before

    @rule(
        data=st.data(),
        bad_id=st.sampled_from(["new", "equal", None]),
        bad=st.sampled_from([0.5, 1.0, "0", "x", True, False]),
    )
    def rejected_non_int(self, data, bad_id, bad):
        # an insert from an existing vertex to a new one whose id (a float
        # or str no vertex id equals) or label is not an int, or to another
        # existing one by a non-int id equal to its own (a float, or a bool
        # for 1 and 0)
        u = data.draw(st.sampled_from(sorted(self.shadow.labels)))
        new = max(self.shadow.labels) + 1
        if bad_id == "equal":
            others = sorted(set(self.shadow.labels) - {u})
            twins = [bool(w) for w in others if w in (0, 1)] + [float(w) for w in others]
            op = UpdateOp(INSERT, u, data.draw(st.sampled_from(twins)))
        elif bad_id == "new":
            bad = new + bad if isinstance(bad, float) else str(bad)
            op = UpdateOp(INSERT, u, bad, label_v=0)
        else:
            op = UpdateOp(INSERT, u, new, label_v=bad)
        index = self.engine.index
        columns = index._columns
        filled = columns and dict(columns.columns)
        before = self.state()
        try:
            self.engine.process_update(op)
        except DsmatchError:
            pass
        else:
            raise AssertionError(f"{op} was accepted")
        assert self.state() == before
        assert index._columns is columns and (columns and columns.columns) == filled

    @precondition(lambda self: self.pool)
    @rule()
    def register(self):
        name = f"q{len(self.queries)}"
        rq = self.engine.register(name, self.pool.pop())
        self.queries[name] = rq.query

    @invariant()
    def exact(self):
        assert dump_graph(self.engine.graph) == dump_graph(self.shadow)
        for name, q in self.queries.items():
            assert self.engine.queries[name].answers.mappings() == enumerate_matches(self.shadow, q)
        index = self.engine.index
        fresh = SynopsisIndex(
            self.engine.graph, index.groups, index.cfg, index.k_cells, domain=index.domain
        )
        rq = self.engine.queries[f"q{len(self.queries) - 1}"]
        q, needs = rq.query, label_needs(rq.query)
        for qi in q.vertex_order:
            args = (rq.embeds[qi], q.degree(qi), q.labels[qi], needs[qi])
            (got, stats), (want, want_stats) = (i.scan_for_degree(*args) for i in (index, fresh))
            assert (list(got), stats) == (list(want), want_stats)
        columns, twin = index._columns, fresh._columns
        assert columns.members == twin.members and columns.columns
        for label, cols in columns.columns.items():
            assert twin.fill(label) == cols
        assert index.snapshot() == fresh.snapshot()

    @invariant()
    def label_pairs_equal_a_rebuild(self):
        # refiling every registered query's plans, in registration order,
        # gives the same seeds per label pair, flips, label counts and
        # queries as the table that registration appended to
        pairs = self.engine.pairs
        plans = {name: {} for name in self.engine.queries}
        for pair in pairs.values():
            for name, plan, *_ in pair.seeds:
                plans[name][frozenset(plan.order[:2])] = plan
        want = {}
        for name, rq in self.engine.queries.items():
            assert set(plans[name]) == {frozenset(e) for e in rq.query.edges}
            for edge in rq.query.edges:
                plan = plans[name][frozenset(edge)]
                levels = [(plan.labels[i], plan.needs[i]) for i in (0, 1)]
                for flip, (a, b) in ((False, levels), (True, levels[::-1])):
                    seeds, queries = want.setdefault((a[0], b[0]), ([], {}))
                    seeds.append((name, plan, flip, a[1], b[1]))
                    queries[name] = rq
        got = {key: (pair.seeds, pair.queries) for key, pair in pairs.items()}
        assert got == want

    @invariant()
    def capped_sums_and_label_counts_are_sound(self):
        index, shadow = self.engine.index, self.shadow
        lists, cutoffs = index.lists, index.groups.cutoffs
        self.checks += 1
        for v in sorted(shadow.labels)[self.checks % 3 :: 3]:  # a third per step
            deg = shadow.degree(v)
            if deg:
                caps = (*cutoffs[: bisect_left(cutoffs, deg)], deg)
                comps = [sorted((label_vector(shadow.labels[n], index.cfg)[k]
                                 for n in shadow.adj[v]), reverse=True)
                         for k in range(index.cfg.d)]
                want = [math.fsum(c[:cap]) for c in comps for cap in caps]
                assert lists.capped_sums(v, caps) == want
            have = Counter(shadow.labels[n] for n in shadow.adj[v])
            for rq in self.engine.queries.values():
                q = rq.query
                for qi, need in label_needs(q).items():
                    if q.labels[qi] != shadow.labels[v]:
                        continue
                    covered = all(lists.hist[v].get(lbl, 0) >= c for lbl, c in need)
                    assert covered == all(have[lbl] >= c for lbl, c in need)
                    if covered:
                        assert lists.mbr(v, q.degree(qi)).contains(rq.embeds[qi])


EngineMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=30, derandomize=True, deadline=None
)
TestEngineMachine = EngineMachine.TestCase


@pytest.mark.slow
class TestEngineMachineLong(EngineMachine.TestCase):
    """The same machine, longer: more examples of more steps each."""

    settings = settings(
        max_examples=150, stateful_step_count=60, derandomize=True, deadline=None
    )
