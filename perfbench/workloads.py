"""Fixed-seed workloads: initial graph, update stream and query set.

Every input is a pure function of the workload and the seed, drawn through
dsmatch's own generators and :class:`dsmatch.rng.Rng`, so one seed gives
byte-identical inputs on any machine.  Nothing here is timed: the engine
only ever receives the finished graph, stream and queries.

All workloads share the engine parameters of the ``dsmatch`` CLI defaults
(zipf embedding mode, d=2, m=3 degree groups, k=5 cells) and the same
small-world base graph shape: 20,000 vertices, average degree 5, 15
uniformly drawn labels, queries of 8 vertices with average degree 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from dsmatch.embedding import EmbeddingConfig
from dsmatch.generate import BenchConfig
from dsmatch.graph import DELETE, INSERT, DynamicGraph, UpdateOp
from dsmatch.matcher import QueryGraph
from dsmatch.rng import Rng, derive_seed

N_VERTICES = 20_000
AVG_DEGREE = 5.0
ALPHABET = 15
QUERY_SIZE = 8
QUERY_AVG_DEGREE = 3.0

# hub-mixed shape: 8 hubs of ~5,000 neighbors, ~44% of ops touching a hub
HUBS = 8
HUB_DEGREE = 5_000
HUB_MIXED_OPS = 1_500
HUB_OP_SHARE = 0.44
REINSERT_SHARE = 0.02  # share of deleted edges inserted again later

# sub-stream tag for the hub generator, disjoint from dsmatch.generate's tags
_SEED_HUBS = 0x4B


@dataclass(frozen=True)
class Workload:
    name: str
    query_count: int
    warmups: int  # stream replays that are checked but not measured
    replays: int  # measured stream replays per run, after the warm-ups
    default_seed: int
    insertion_rate: float = 0.0  # share of base edges streamed as inserts
    deletion_rate: float = 0.0  # share of base edges streamed as deletes
    hubs: bool = False  # hub-mixed stream instead of a plain split


WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="sw-insert-q100", query_count=100, warmups=1, replays=2,
                 default_seed=1, insertion_rate=0.03),
        Workload(name="hub-mixed-q20", query_count=20, warmups=2, replays=3,
                 default_seed=2, hubs=True),
        Workload(name="sw-delete-q20", query_count=20, warmups=1, replays=4,
                 default_seed=3, deletion_rate=0.1),
    )
}


@dataclass
class Inputs:
    g0: DynamicGraph
    stream: list[UpdateOp]
    queries: list[QueryGraph]
    cfg: EmbeddingConfig
    m_groups: int
    k_cells: int
    notes: dict = field(default_factory=dict)  # generator facts worth printing


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate one workload's inputs from its seed."""
    bc = BenchConfig(
        n_vertices=N_VERTICES,
        avg_deg=AVG_DEGREE,
        alphabet=ALPHABET,
        query_count=workload.query_count,
        query_size=QUERY_SIZE,
        query_avg_deg=QUERY_AVG_DEGREE,
        insertion_rate=workload.insertion_rate,
        deletion_rate=workload.deletion_rate,
        master_seed=seed,
    )
    full = bc.make_graph()
    queries = bc.make_queries(full)
    notes: dict = {}
    if workload.hubs:
        g0, stream, notes = hub_mixed(full, seed)
    else:
        g0, stream = bc.make_split(full)
    return Inputs(g0, stream, queries, bc.embedding_config(), bc.m_groups, bc.k_cells, notes)


def hub_mixed(base: DynamicGraph, seed: int) -> tuple[DynamicGraph, list[UpdateOp], dict]:
    """Add hub vertices to ``base`` and carve an interleaved stream around them.

    Hubs are new vertices with a label one above every base label, so no
    query sampled from ``base`` can map onto them.  Each of the HUBS hubs
    links to HUB_DEGREE distinct base vertices.  HUB_MIXED_OPS edges are
    picked, HUB_OP_SHARE of them hub edges and the rest base edges; half of
    each kind is held out of the initial graph and inserted, the other half
    is deleted.  REINSERT_SHARE of the deleted edges are inserted again at
    a random later point.  Ops are interleaved by random sort keys.
    """
    rng = Rng(derive_seed(seed, _SEED_HUBS))
    full = base.copy()
    base_ids = sorted(base.vertices())
    hub_label = max(base.labels.values()) + 1
    first_hub = base_ids[-1] + 1
    hub_ids = list(range(first_hub, first_hub + HUBS))
    hub_edges = []
    for h in hub_ids:
        full.add_vertex(h, hub_label)
        for v in sorted(rng.sample(base_ids, HUB_DEGREE)):
            full.add_edge(v, h)
            hub_edges.append((v, h))

    n_hub = round(HUB_MIXED_OPS * HUB_OP_SHARE)
    hub_pick = rng.sample(hub_edges, n_hub)
    base_pick = rng.sample(list(base.edges()), HUB_MIXED_OPS - n_hub)
    inserts = hub_pick[: n_hub // 2] + base_pick[: len(base_pick) // 2]
    deletes = hub_pick[n_hub // 2 :] + base_pick[len(base_pick) // 2 :]

    g0 = full.copy()
    for u, v in inserts:
        g0.remove_edge(u, v)
    keyed = [(rng.random(), INSERT, e) for e in inserts]
    delete_keys = [(rng.random(), DELETE, e) for e in deletes]
    keyed += delete_keys
    for key, _, e in rng.sample(delete_keys, round(len(deletes) * REINSERT_SHARE)):
        keyed.append((key + (1.0 - key) * rng.random(), INSERT, e))
    keyed.sort()

    labels = full.labels
    stream = [
        UpdateOp(kind, u, v, labels[u], labels[v], timestamp=i + 1)
        if kind == INSERT
        else UpdateOp(kind, u, v, timestamp=i + 1)
        for i, (_, kind, (u, v)) in enumerate(keyed)
    ]
    hub_set = set(hub_ids)
    hub_ops = sum(1 for op in stream if op.u in hub_set or op.v in hub_set)
    degrees = [g0.degree(h) for h in hub_ids]
    notes = {
        "hub_op_share": hub_ops / len(stream),
        "hub_degree_min": min(degrees),
        "hub_degree_max": max(degrees),
        "reinserts": len(stream) - len(inserts) - len(deletes),
    }
    return g0, stream, notes
