"""Exact continuous subgraph matching over dynamic vertex-labeled graphs.

The engine maintains, for any number of registered query patterns, the
exact set of subgraph-isomorphism answers under a stream of edge inserts
and deletes.  Candidate retrieval keeps the vertices of a query vertex's
label that cover its neighbor-label counts, read off incrementally
maintained neighbor-label histograms; degree-grouped grid synopses over
vertex embeddings serve the dominance scans that analyse pruning.  A
brute-force oracle and a benchmark harness round out the package.
"""

from .embedding import (
    EmbeddingConfig,
    MODE_BASE,
    MODE_PLAIN,
    MODE_ZIPF,
    compose,
    dominates,
    embedding_key,
    embed_vertex,
    label_vector,
    neighbor_sum,
    seeded_zipf_draw,
)
from .errors import DsmatchError
from .graph import (
    DELETE,
    INSERT,
    DynamicGraph,
    UpdateOp,
    dump_graph,
    dump_stream,
    load_graph,
    load_stream,
)
from .matcher import (
    AnswerSet,
    MatchEngine,
    QueryGraph,
    RegisteredQuery,
    embed_query,
    make_plan,
    refine,
)
from .oracle import enumerate_matches, recompute_stream_check, star_subset_embeddings
from .synopsis import (
    DegreeGroups,
    Mbr,
    SynopsisIndex,
    compute_degree_groups,
    scan_candidates,
)

__version__ = "0.1.0"

__all__ = [
    "AnswerSet",
    "DegreeGroups",
    "DELETE",
    "DsmatchError",
    "DynamicGraph",
    "EmbeddingConfig",
    "INSERT",
    "MatchEngine",
    "Mbr",
    "MODE_BASE",
    "MODE_PLAIN",
    "MODE_ZIPF",
    "QueryGraph",
    "RegisteredQuery",
    "SynopsisIndex",
    "UpdateOp",
    "compose",
    "compute_degree_groups",
    "dominates",
    "dump_graph",
    "dump_stream",
    "embed_query",
    "embed_vertex",
    "embedding_key",
    "enumerate_matches",
    "label_vector",
    "load_graph",
    "load_stream",
    "make_plan",
    "neighbor_sum",
    "recompute_stream_check",
    "refine",
    "scan_candidates",
    "seeded_zipf_draw",
    "star_subset_embeddings",
]
