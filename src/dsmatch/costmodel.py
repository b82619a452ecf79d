"""Product-form estimate of how many vertices a query embedding dominates.

Treats each embedding dimension of a random data vertex as a random
variable with the snapshot's empirical mean and variance; the probability
that one query coordinate falls below it is approximated with the standard
normal CDF, and the candidate-count estimate is the vertex count times the
product over dimensions.

As printed in its source derivation the CDF argument divides by the
variance rather than the standard deviation; that form is implemented
verbatim and is the default, with the conventional form available behind
``use_std``.  The estimate is an analysis tool (it motivates the skewed
embedding mode), not part of the query path.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Sequence

from .embedding import EmbeddingConfig, Vec
from .errors import TooFewVertices
from .graph import DynamicGraph
from .matcher import QueryGraph, embed_query
from .synopsis import SynopsisIndex, compute_degree_groups


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the error function (|err| < 1e-12)."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@dataclass(frozen=True)
class DimStats:
    """Per-dimension sample mean and unbiased variance of all embeddings."""

    mean: Vec
    variance: Vec
    count: int


def collect_stats(embeddings: Iterable[Vec]) -> DimStats:
    vecs = list(embeddings)
    n = len(vecs)
    if n < 2:
        raise TooFewVertices(f"need >= 2 embeddings for variance, got {n}")
    dims = len(vecs[0])
    mean = [sum(v[j] for v in vecs) / n for j in range(dims)]
    var = [
        sum((v[j] - mean[j]) ** 2 for v in vecs) / (n - 1) for j in range(dims)
    ]
    return DimStats(mean=tuple(mean), variance=tuple(var), count=n)


@dataclass(frozen=True)
class CostEstimate:
    estimate: float
    factors: Vec

    def __float__(self) -> float:
        return self.estimate


def estimate_cost(
    q_embed: Vec, stats: DimStats, n_vertices: int, use_std: bool = False
) -> CostEstimate:
    """Estimated count of data vertices whose embedding q_embed dominates.

    A zero-variance dimension is a point mass: its factor is 1 when the
    query coordinate does not exceed the mean and 0 otherwise.
    """
    factors = []
    for j, (mu, var) in enumerate(zip(stats.mean, stats.variance)):
        if var == 0.0:
            factors.append(1.0 if q_embed[j] <= mu else 0.0)
            continue
        scale = math.sqrt(var) if use_std else var
        factors.append(normal_cdf((mu - q_embed[j]) / scale))
    est = float(n_vertices)
    for f in factors:
        est *= f
    return CostEstimate(estimate=est, factors=tuple(factors))


@dataclass
class ModeComparisonRow:
    mode: str
    graph: str
    query_id: int
    pruning_power: float
    estimated_cost: float
    measured_candidates: float
    wall_clock_us: float


@dataclass
class ModeComparisonReport:
    rows: list[ModeComparisonRow]

    def mean_pruning_power(self, mode: str) -> float:
        vals = [r.pruning_power for r in self.rows if r.mode == mode]
        return sum(vals) / len(vals)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(
            [
                "mode",
                "graph",
                "query_id",
                "pruning_power",
                "estimated_cost",
                "measured_candidates",
                "wall_clock_us",
            ]
        )
        for r in self.rows:
            w.writerow(
                [
                    r.mode,
                    r.graph,
                    r.query_id,
                    f"{r.pruning_power:.6f}",
                    f"{r.estimated_cost:.6f}",
                    f"{r.measured_candidates:.3f}",
                    f"{r.wall_clock_us:.1f}",
                ]
            )
        return buf.getvalue()


def compare_embedding_modes(
    g: DynamicGraph,
    queries: Sequence[QueryGraph],
    cfgs: Sequence[EmbeddingConfig],
    m_groups: int = 3,
    k_cells: int = 5,
    graph_name: str = "graph",
) -> ModeComparisonReport:
    """Measured pruning power vs. estimated cost per mode, per query.

    ``measured_candidates`` is the mean per-query-vertex count of entries
    surviving the dominance filters but not yet the per-degree box check,
    which is the quantity the estimator models.
    """
    rows: list[ModeComparisonRow] = []
    groups = compute_degree_groups(g, m_groups)
    for cfg in cfgs:
        index = SynopsisIndex.build(g, groups, cfg, k_cells)
        stats = collect_stats(index.embedding_of(v) for v in g.vertices())
        for qid, q in enumerate(queries):
            t0 = perf_counter()
            embeds = embed_query(q, cfg)
            powers = []
            pre_box = []
            ests = []
            for qi in q.vertex_order:
                _, s = index.scan_for_degree(embeds[qi], q.degree(qi), q.labels[qi])
                powers.append(s.pruning_power)
                pre_box.append(s.survivors + s.pruned_box)
                ests.append(
                    estimate_cost(embeds[qi], stats, g.num_vertices).estimate
                )
            elapsed_us = (perf_counter() - t0) * 1e6
            rows.append(
                ModeComparisonRow(
                    mode=cfg.mode,
                    graph=graph_name,
                    query_id=qid,
                    pruning_power=sum(powers) / len(powers),
                    estimated_cost=sum(ests) / len(ests),
                    measured_candidates=sum(pre_box) / len(pre_box),
                    wall_clock_us=elapsed_us,
                )
            )
    return ModeComparisonReport(rows=rows)
