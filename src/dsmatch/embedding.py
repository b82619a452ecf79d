"""Per-vertex dominance embeddings over labels and 1-hop neighborhoods.

A vertex embedding has 2d dimensions: a d-vector determined only by the
vertex's label (strictly positive, seeded), concatenated with the
componentwise sum of the neighbors' label vectors.  Because a sub-star of
a vertex's neighborhood drops non-negative summands, its embedding is
componentwise <= the full star's embedding; that dominance relation is
what all index pruning in this package relies on.

Three modes share that property:

* ``plain``      -- the raw concatenation.
* ``base``       -- affine re-location ``alpha * concat + BETA * z`` where
  ``z`` is a label-seeded point on the L1-unit diagonal; with
  ``alpha << BETA`` embeddings of equal-label vertices cluster tightly
  around their diagonal point, which sharpens pruning.
* ``zipf``       -- like ``base`` but label-vector components are drawn from
  a seeded Zipf distribution (low mean, high variance) instead of a
  uniform one, which a query-cost analysis favors.

All draws come from the integer mixer in :mod:`dsmatch.rng`, so every
vector is a pure, bit-stable function of (label, dimension, salt).

Dominance holds in floats, with no slack.  Label-vector components are
multiples of 2^-10 (``zipf``) or 2^-20 (``plain``, ``base``) in (0, 1], so
every neighbor sum below degree 2^33 is exact in any order; and rounding is
monotone, so exact sums s <= s' give ``alpha * s + t <= alpha * s' + t`` in
floats when both sides add the same label term t.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from operator import le

from .errors import DimensionMismatch, InvalidParams, UnknownVertex
from .graph import Label, VertexId
from .rng import mix_words, unit_open_closed

MODE_PLAIN = "plain"
MODE_BASE = "base"
MODE_ZIPF = "zipf"
MODES = (MODE_PLAIN, MODE_BASE, MODE_ZIPF)

# stream tags keep the label-vector, base-vector, and zipf draws disjoint
_TAG_LABEL_VEC = 0x5B
_TAG_BASE_VEC = 0xBA

# the zipf mode's label-vector components: exponent s over ranks 1..1024
ZIPF_S = 1.2
ZIPF_RANKS = 1024

# the plain and base modes' label-vector components: multiples of 2^-20
GRID_BITS = 20

# the base and zipf modes' scale of the diagonal term; alpha scales the concat
BETA = 100.0

Vec = tuple[float, ...]


@dataclass(frozen=True)
class EmbeddingConfig:
    """Embedding parameters; hashable so derived tables can be cached.

    ``alpha`` only matters for the ``base`` and ``zipf`` modes and must
    satisfy ``BETA / alpha >= 10`` there (the re-location argument needs
    the concat term to act as small noise on the diagonal term).
    """

    d: int = 2
    alpha: float = 0.1
    mode: str = MODE_ZIPF
    seed_salt: int = 0

    def __post_init__(self):
        if type(self.d) is not int or self.d < 1:
            raise InvalidParams(f"d must be >= 1 and an int, got {self.d!r}")
        if type(self.seed_salt) is not int:
            raise InvalidParams(f"seed_salt must be an int, got {self.seed_salt!r}")
        if self.mode not in MODES:
            raise InvalidParams(f"mode must be one of {MODES}, got {self.mode!r}")
        if not is_real(self.alpha):
            raise InvalidParams(f"alpha must be a real number, got {self.alpha!r}")
        if not math.isfinite(self.alpha):
            raise InvalidParams(f"alpha must be finite, got {self.alpha}")
        if self.alpha <= 0:
            raise InvalidParams("alpha must be positive")
        if self.mode != MODE_PLAIN and BETA / self.alpha < 10:
            raise InvalidParams(
                f"beta/alpha must be >= 10 for mode {self.mode!r}, "
                f"got {BETA / self.alpha:g}"
            )


def is_real(x) -> bool:
    """Whether ``x`` is a real number and not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


# -- seeded Zipf draws --------------------------------------------------------


class ZipfTable:
    """Inverse-CDF sampler for Zipf(s) over ranks 1..n.

    A uniform draw is placed by bisecting the cumulative rank masses, so
    the result follows the Zipf distribution exactly.  The ``zipf`` mode
    draws from one table, at ``ZIPF_S`` over ``ZIPF_RANKS`` ranks, and
    the generator's zipf labels are ranks of a table over the alphabet.
    """

    def __init__(self, s: float, n: int):
        self.n = n
        weights = [r ** -s for r in range(1, n + 1)]
        total = sum(weights)
        cdf = []
        acc = 0.0
        for w in weights:
            acc += w
            cdf.append(acc / total)
        cdf[-1] = 1.0  # guard against rounding just below one
        self._cdf = cdf

    def rank(self, u: float) -> int:
        """The rank in 1..n whose CDF interval holds u; 0 maps to rank 1."""
        return bisect.bisect_left(self._cdf, u) + 1

    def draw(self, u: float) -> float:
        """Map a uniform u in (0, 1] to rank/n in (0, 1]."""
        if not 0.0 < u <= 1.0:
            raise ValueError(f"u must be in (0, 1], got {u}")
        return self.rank(u) / self.n


_ZIPF_TABLE = ZipfTable(ZIPF_S, ZIPF_RANKS)


def seeded_zipf_draw(seed: int) -> float:
    """Deterministic Zipf-distributed value in (0, 1] for a 64-bit seed."""
    return _ZIPF_TABLE.draw(unit_open_closed(mix_words(seed)))


# -- label-seeded vectors -----------------------------------------------------


@lru_cache(maxsize=None)
def label_vector(label: Label, cfg: EmbeddingConfig) -> Vec:
    """The d-vector determined by a vertex label, components in (0, 1].

    Per-dimension seeds mix (stream tag, salt, label, dimension); the
    ``zipf`` mode pushes each uniform draw through the Zipf table, the
    others keep the top ``GRID_BITS`` bits of the mixed seed.
    """
    out = []
    for k in range(cfg.d):
        seed = mix_words(_TAG_LABEL_VEC, cfg.seed_salt, label, k)
        if cfg.mode == MODE_ZIPF:
            out.append(seeded_zipf_draw(seed))
        else:
            out.append(unit_open_closed(mix_words(seed), GRID_BITS))
    return tuple(out)


@lru_cache(maxsize=None)
def base_vector(label: Label, cfg: EmbeddingConfig) -> Vec:
    """Label-seeded point on the L1-unit diagonal of the positive orthant.

    2d strictly-positive uniform draws normalized to L1 norm 1.
    """
    raw = [
        unit_open_closed(mix_words(_TAG_BASE_VEC, cfg.seed_salt, label, k))
        for k in range(2 * cfg.d)
    ]
    total = sum(raw)
    return tuple(x / total for x in raw)


def neighbor_sum(g, v: VertexId, cfg: EmbeddingConfig) -> Vec:
    """Componentwise sum of label vectors over v's 1-hop neighbors.

    ``g`` is any graph with ``labels`` and ``adj`` dicts (a DynamicGraph or
    a QueryGraph).  The sum is exact, so the neighbors' order is immaterial.
    """
    if v not in g.labels:
        raise UnknownVertex(f"vertex {v} not in graph")
    vecs = [label_vector(g.labels[n], cfg) for n in g.adj[v]]
    return tuple(math.fsum(x[k] for x in vecs) for k in range(cfg.d))


# -- composition, dominance, keys --------------------------------------------


def compose(x: Vec, y: Vec, label: Label, cfg: EmbeddingConfig) -> Vec:
    """Assemble the 2d embedding from a label vector and a neighbor sum."""
    if cfg.mode == MODE_PLAIN:
        return x + y
    z = base_vector(label, cfg)
    a = cfg.alpha
    concat = x + y
    return tuple(a * concat[j] + BETA * z[j] for j in range(2 * cfg.d))


def embed_vertex(g, v: VertexId, cfg: EmbeddingConfig) -> Vec:
    """Embedding of v's full 1-hop star; ``g`` is as for :func:`neighbor_sum`."""
    y = neighbor_sum(g, v, cfg)
    lbl = g.labels[v]
    return compose(label_vector(lbl, cfg), y, lbl, cfg)


def dominates(a: Vec, b: Vec) -> bool:
    """True iff a[j] <= b[j] on every dimension (equality allowed)."""
    if len(a) != len(b):
        raise DimensionMismatch(f"arity {len(a)} vs {len(b)}")
    return all(map(le, a, b))


def embedding_key(a: Vec) -> float:
    """Sum of squares, one rounding per step: monotone under dominance."""
    acc = 0.0
    for c in a:
        acc += c * c
    return acc
