"""Product-form estimate of how many vertices a query embedding dominates.

Treats each embedding dimension of a random data vertex as a random
variable with the snapshot's empirical mean and variance; the probability
that one query coordinate falls below it is approximated with the standard
normal CDF, and the candidate-count estimate is the vertex count times the
product over dimensions.

As printed in its source derivation the CDF argument divides by the
variance rather than the standard deviation; that form is implemented
verbatim.  This module is the estimator only: an analysis tool that
motivates the skewed embedding mode, not part of the query path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .embedding import Vec
from .errors import TooFewVertices


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


def estimate_cost(q_embed: Vec, stats: DimStats, n_vertices: int) -> CostEstimate:
    """Estimated count of data vertices whose embedding q_embed dominates.

    A zero-variance dimension is a point mass: its factor is 1 when the
    query coordinate does not exceed the mean and 0 otherwise.
    """
    factors = []
    for j, (mu, var) in enumerate(zip(stats.mean, stats.variance)):
        if var == 0.0:
            factors.append(1.0 if q_embed[j] <= mu else 0.0)
            continue
        factors.append(normal_cdf((mu - q_embed[j]) / var))
    est = float(n_vertices)
    for f in factors:
        est *= f
    return CostEstimate(estimate=est, factors=tuple(factors))
