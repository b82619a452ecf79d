import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmatch.errors import (
    DsmatchError,
    DuplicateEdge,
    InvalidParams,
    LabelConflict,
    MissingEdge,
    MissingLabel,
    ParseError,
    SelfLoop,
    UndeclaredVertex,
    UnknownVertex,
)
from dsmatch.graph import (
    DELETE,
    INSERT,
    DynamicGraph,
    UpdateOp,
    dump_graph,
    dump_stream,
    load_graph,
    load_stream,
)

from conftest import make_graph


def test_smallest_insertion():
    g = DynamicGraph()
    assert g.apply_update(UpdateOp(INSERT, 0, 1, label_u=10, label_v=11)) is None
    assert g.num_vertices == 2
    assert g.num_edges == 1
    assert g.degree(0) == 1 and g.degree(1) == 1
    assert g.label(0) == 10 and g.label(1) == 11


def test_delete_reports_isolated():
    g = make_graph([(0, 1)], {0: 0, 1: 0})
    g.apply_update(UpdateOp(DELETE, 0, 1))
    assert g.num_edges == 0
    assert g.degree(0) == 0 and g.degree(1) == 0
    # vertices survive with their labels
    assert 0 in g and 1 in g
    assert g.label(0) == 0 and g.label(1) == 0


def test_path_closed_into_triangle():
    g = make_graph([(0, 1), (1, 2)], {0: 0, 1: 1, 2: 2})
    g.apply_update(UpdateOp(INSERT, 0, 2))
    assert g.degree(0) == 2 and g.degree(2) == 2 and g.degree(1) == 2
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert g.num_edges == 3


def test_one_new_endpoint_and_both_new():
    g = make_graph([(0, 1)], {0: 0, 1: 1})
    g.apply_update(UpdateOp(INSERT, 1, 5, label_v=3))
    assert 5 in g and g.label(5) == 3 and g.degree(5) == 1
    assert g.label(1) == 1 and g.degree(1) == 2
    assert 8 not in g and 9 not in g
    g.apply_update(UpdateOp(INSERT, 8, 9, label_u=4, label_v=4))
    assert g.label(8) == 4 and g.label(9) == 4
    assert g.degree(8) == 1 and g.degree(9) == 1
    assert g.num_vertices == 5


def test_update_errors():
    # every rejected op leaves the graph exactly as it was
    g = make_graph([(0, 1)], {0: 0, 1: 1})
    before = dump_graph(g)
    rejected = [
        (DuplicateEdge, UpdateOp(INSERT, 0, 1)),
        (MissingEdge, UpdateOp(DELETE, 0, 5)),
        (SelfLoop, UpdateOp(INSERT, 2, 2, label_u=0, label_v=0)),
        (MissingLabel, UpdateOp(INSERT, 0, 7)),
        (LabelConflict, UpdateOp(INSERT, 0, 2, label_u=9, label_v=9)),
        # a new first endpoint must not survive a rejection on the second
        (LabelConflict, UpdateOp(INSERT, 7, 0, label_u=3, label_v=9)),
        (MissingLabel, UpdateOp(INSERT, 8, 9, label_u=3)),
        (InvalidParams, UpdateOp("*", 0, 2)),
        # a new endpoint's id and label must be ints, bools excluded
        (InvalidParams, UpdateOp(INSERT, 0, 2, label_v=1.5)),
        (InvalidParams, UpdateOp(INSERT, 0, 2, label_v=True)),
        (InvalidParams, UpdateOp(INSERT, 0, "a", label_v=0)),
        (InvalidParams, UpdateOp(INSERT, 2.0, 0, label_u=0)),
        (InvalidParams, UpdateOp(INSERT, 7, 0, label_u="x")),
        # so must an existing endpoint's, which 1.0 and True equal
        (InvalidParams, UpdateOp(INSERT, 1.0, 7, label_v=0)),
        (InvalidParams, UpdateOp(INSERT, 7, True, label_u=0)),
    ]
    for error, op in rejected:
        with pytest.raises(error):
            g.apply_update(op)
        assert dump_graph(g) == before, op


@pytest.mark.parametrize("v, label", [(True, 0), (2.0, 0), ("a", 0), (2, 1.0), (2, False),
                                      (2, "1"), (2, None)])
def test_add_vertex_rejects_a_non_int_id_or_label(v, label):
    # no vertex 1 or 0, which True and False would equal
    g = make_graph([(5, 6)], {5: 0, 6: 1})
    before = dump_graph(g)
    with pytest.raises(InvalidParams, match="must be ints"):
        g.add_vertex(v, label)
    assert dump_graph(g) == before


# -- parsing -------------------------------------------------------------


GRAPH_TEXT = """\
# toy graph
t 3 2
v 0 7
v 1 8
v 2 7
e 0 1
e 2 1
"""


def test_load_graph_roundtrip():
    g = load_graph(GRAPH_TEXT)
    assert g.num_vertices == 3 and g.num_edges == 2
    assert g.labels == {0: 7, 1: 8, 2: 7}
    assert load_graph(dump_graph(g)).labels == g.labels
    assert list(load_graph(dump_graph(g)).edges()) == list(g.edges())


def test_load_graph_edge_order_insensitive():
    shuffled = "v 1 8\ne 0 1\nv 0 7\n"  # edge listed before one endpoint
    g = load_graph(shuffled)
    assert g.has_edge(0, 1)


def test_load_graph_errors_carry_line_numbers():
    with pytest.raises(UndeclaredVertex) as exc:
        load_graph("v 0 1\ne 0 3\n")
    assert exc.value.line_no == 2
    with pytest.raises(ParseError) as exc:
        load_graph("v 0 1\nv x 2\n")
    assert exc.value.line_no == 2
    with pytest.raises(ParseError):
        load_graph("t 5 0\nv 0 1\n")  # header mismatch
    with pytest.raises(ParseError):
        load_graph("v 0 1\nv 1 1\ne 0 1\ne 1 0\n")  # duplicate edge


def edge01() -> DynamicGraph:
    return make_graph([(0, 1)], {0: 0, 1: 1})


@pytest.mark.parametrize("call, error, line_no", [
    pytest.param(lambda: load_graph("v 0 1\nt 1\n"), ParseError, 2, id="header-fields"),
    pytest.param(lambda: load_graph("v 0 1\nv 1\n"), ParseError, 2, id="vertex-fields"),
    pytest.param(lambda: load_graph("v 0 1\nv 1 1\ne 0 1 1\n"), ParseError, 3, id="edge-fields"),
    pytest.param(lambda: load_graph("v 0 1\nx 0 1\n"), ParseError, 2, id="graph-tag"),
    pytest.param(lambda: load_graph("v 0 1\nv 0 2\n"), ParseError, 2, id="relabeled"),
    pytest.param(lambda: load_graph("v 0 1\nv -1 1\n"), ParseError, 2, id="negative-id"),
    pytest.param(lambda: load_stream("+ 0 1\n+ 0 1 5\n"), ParseError, 2, id="insert-fields"),
    pytest.param(lambda: load_stream("+ 0 1\n- 0 1 5\n"), ParseError, 2, id="delete-fields"),
    pytest.param(lambda: load_stream("+ 0 1\n* 0 1\n"), ParseError, 2, id="stream-tag"),
    pytest.param(lambda: edge01().label(9), UnknownVertex, None, id="label-unknown"),
    pytest.param(lambda: edge01().degree(9), UnknownVertex, None, id="degree-unknown"),
    pytest.param(lambda: edge01().neighbors(9), UnknownVertex, None, id="neighbors-unknown"),
    pytest.param(lambda: edge01().add_vertex(0, 1), LabelConflict, None, id="add-vertex-relabel"),
    pytest.param(lambda: edge01().add_edge(0, 0), SelfLoop, None, id="add-edge-self-loop"),
    pytest.param(lambda: edge01().add_edge(0, 9), UnknownVertex, None, id="add-edge-unknown"),
])
def test_malformed_lines_and_unknown_vertices_raise(call, error, line_no):
    with pytest.raises(DsmatchError) as exc:
        call()
    assert type(exc.value) is error
    assert getattr(exc.value, "line_no", None) == line_no


def test_load_stream_assigns_positional_timestamps():
    ops = load_stream("+ 0 1 5 6\n- 0 1\n+ 2 3\n")
    assert [op.timestamp for op in ops] == [1, 2, 3]
    assert ops[0].kind == INSERT and ops[0].label_u == 5 and ops[0].label_v == 6
    assert ops[1].kind == DELETE
    assert ops[2].label_u is None
    assert load_stream(dump_stream(ops)) == [
        UpdateOp(op.kind, op.u, op.v, op.label_u, op.label_v, op.timestamp) for op in ops
    ]


def test_dump_stream_round_trips_inserts_with_both_labels_or_neither():
    ops = [UpdateOp(INSERT, 0, 1, 3, 4, timestamp=1), UpdateOp(INSERT, 1, 2, timestamp=2),
           UpdateOp(DELETE, 0, 1, timestamp=3), UpdateOp(INSERT, 2, 3, 0, 0, timestamp=4)]
    assert dump_stream(ops) == "+ 0 1 3 4\n+ 1 2\n- 0 1\n+ 2 3 0 0\n"
    assert load_stream(dump_stream(ops)) == ops


@pytest.mark.parametrize("op", [UpdateOp(INSERT, 0, 1, label_v=3),
                                UpdateOp(INSERT, 0, 1, label_u=0)])
def test_dump_stream_rejects_an_insert_with_one_label(op):
    # "+ 0 1" would drop the label, and replaying it on a graph without
    # the new endpoint would raise MissingLabel
    with pytest.raises(InvalidParams, match=re.escape(repr(op))):
        dump_stream([UpdateOp(INSERT, 5, 6), op])


# -- stream properties ----------------------------------------------------


@st.composite
def insert_streams(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    labels = {v: draw(st.integers(0, 3)) for v in range(n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=len(pairs)))
    return labels, edges


@given(insert_streams())
@settings(max_examples=60)
def test_insert_then_delete_round_trip(stream):
    labels, edges = stream
    g = DynamicGraph()
    for v, lbl in labels.items():
        g.add_vertex(v, lbl)
    base_degrees = {v: 0 for v in labels}
    for u, v in edges:
        g.apply_update(UpdateOp(INSERT, u, v))
    for u, v in edges:
        g.apply_update(UpdateOp(DELETE, u, v))
    assert g.num_edges == 0
    assert {v: g.degree(v) for v in labels} == base_degrees


@given(insert_streams(), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_invariants_hold_after_every_op(stream, rnd):
    labels, edges = stream
    g = DynamicGraph()
    for v, lbl in labels.items():
        g.add_vertex(v, lbl)
    live = set()
    touched = {v: 0 for v in labels}
    plan = []
    for u, v in edges:
        plan.append((INSERT, u, v))
        live.add((u, v))
        if live and rnd.random() < 0.4:
            e = rnd.choice(sorted(live))
            live.discard(e)
            plan.append((DELETE, *e))
    for kind, u, v in plan:
        g.apply_update(UpdateOp(kind, u, v))
        touched[u] += 1 if kind == INSERT else -1
        touched[v] += 1 if kind == INSERT else -1
        for w, nbrs in g.adj.items():
            assert w not in nbrs
            for x in nbrs:
                assert w in g.adj[x]
        assert {w: g.degree(w) for w in labels} == touched
