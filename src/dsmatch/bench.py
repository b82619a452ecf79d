"""Benchmark runs: the engine over a stream, and a full-recompute baseline.

The baseline replays the same stream on a bare graph and re-enumerates
every query's answers from scratch after each update with the brute-force
enumerator; it is the reference point for incremental speedup claims and a
secondary correctness check (final answers must agree).

Metric rows are plain dicts with a fixed column order so the ``bench``
and ``sweep`` subcommands can emit stable CSV.
"""

from __future__ import annotations

import csv
import io
from collections import defaultdict
from dataclasses import dataclass, field, replace
from time import perf_counter

from .embedding import EmbeddingConfig
from .generate import SCENARIO_PARAMS
from .graph import DynamicGraph, UpdateOp
from .matcher import MatchEngine, Mapping, QueryGraph
from .oracle import enumerate_matches
from .synopsis import K_CELLS, M_GROUPS

RUN_COLUMNS = (
    "mode",
    "query_id",
    "initial_answers",
    "final_answers",
    "added",
    "removed",
    "pruning_power",
    "build_s",
    "initial_match_s",
    "stream_s",
    "graph_s",
    "filtering_s",
    "refinement_s",
    "answers_index_s",
    "embedding_update_s",
    "total_s",
)


@dataclass
class RunMetrics:
    mode: str
    build_seconds: float
    initial_match_seconds: float
    stream_seconds: float
    stage_seconds: dict[str, float]
    per_query: list[dict]
    final_answers: dict[str, frozenset[Mapping]]
    updates: int
    # (timestamp, per-query deltas) per op, populated on request only
    delta_log: list[tuple[int, dict]] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return self.build_seconds + self.initial_match_seconds + self.stream_seconds

    def rows(self) -> list[dict]:
        out = []
        for q in self.per_query:
            row = {c: "" for c in RUN_COLUMNS}
            row.update(
                mode=self.mode,
                query_id=q["query_id"],
                initial_answers=q["initial_answers"],
                final_answers=q["final_answers"],
                added=q["added"],
                removed=q["removed"],
                pruning_power=f"{q['pruning_power']:.6f}" if q["pruning_power"] != "" else "",
                build_s=f"{self.build_seconds:.6f}",
                initial_match_s=f"{self.initial_match_seconds:.6f}",
                stream_s=f"{self.stream_seconds:.6f}",
                graph_s=f"{self.stage_seconds.get('graph', 0.0):.6f}",
                filtering_s=f"{self.stage_seconds.get('filtering', 0.0):.6f}",
                refinement_s=f"{self.stage_seconds.get('refinement', 0.0):.6f}",
                answers_index_s=f"{self.stage_seconds.get('answers_index', 0.0):.6f}",
                embedding_update_s=f"{self.stage_seconds.get('embedding_update', 0.0):.6f}",
                total_s=f"{self.total_seconds:.6f}",
            )
            out.append(row)
        return out


def run_engine(
    g0: DynamicGraph,
    stream: list[UpdateOp],
    queries: list[QueryGraph],
    cfg: EmbeddingConfig,
    m_groups: int = M_GROUPS,
    k_cells: int = K_CELLS,
    collect_deltas: bool = False,
) -> tuple[RunMetrics, MatchEngine]:
    """Build, register, replay; returns metrics plus the live engine."""
    t0 = perf_counter()
    engine = MatchEngine(g0.copy(), cfg, m_groups=m_groups, k_cells=k_cells)
    build_s = perf_counter() - t0

    names = [f"q{i}" for i in range(len(queries))]
    initial: dict[str, int] = {}
    t0 = perf_counter()
    for name, q in zip(names, queries):
        rq = engine.register(name, q)
        initial[name] = len(rq.answers)
    initial_s = perf_counter() - t0

    added = dict.fromkeys(names, 0)
    removed = dict.fromkeys(names, 0)
    stages: dict[str, float] = defaultdict(float)
    delta_log: list[tuple[int, dict]] = []
    t0 = perf_counter()
    for op in stream:
        result = engine.process_update(op)
        for k, v in result.timings.items():
            stages[k] += v
        for name, delta in result.deltas.items():
            added[name] += len(delta.added)
            removed[name] += len(delta.removed)
        if collect_deltas:
            delta_log.append((op.timestamp, result.deltas))
    stream_s = perf_counter() - t0

    per_query = []
    finals: dict[str, frozenset[Mapping]] = {}
    for name in names:
        rq = engine.queries[name]
        finals[name] = rq.answers.mappings()
        per_query.append(
            {
                "query_id": name,
                "initial_answers": initial[name],
                "final_answers": len(rq.answers),
                "added": added[name],
                "removed": removed[name],
                "pruning_power": rq.mean_pruning_power,
            }
        )
    metrics = RunMetrics(
        mode="engine",
        build_seconds=build_s,
        initial_match_seconds=initial_s,
        stream_seconds=stream_s,
        stage_seconds=stages,
        per_query=per_query,
        final_answers=finals,
        updates=len(stream),
        delta_log=delta_log,
    )
    return metrics, engine


def run_naive(
    g0: DynamicGraph, stream: list[UpdateOp], queries: list[QueryGraph]
) -> RunMetrics:
    """Per-update full recompute with the brute-force enumerator."""
    graph = g0.copy()
    names = [f"q{i}" for i in range(len(queries))]

    t0 = perf_counter()
    answers = {
        name: enumerate_matches(graph, q) for name, q in zip(names, queries)
    }
    initial_s = perf_counter() - t0
    initial = {name: len(a) for name, a in answers.items()}

    added = dict.fromkeys(names, 0)
    removed = dict.fromkeys(names, 0)
    t0 = perf_counter()
    for op in stream:
        graph.apply_update(op)
        for name, q in zip(names, queries):
            fresh = enumerate_matches(graph, q)
            added[name] += len(fresh - answers[name])
            removed[name] += len(answers[name] - fresh)
            answers[name] = fresh
    stream_s = perf_counter() - t0

    per_query = [
        {
            "query_id": name,
            "initial_answers": initial[name],
            "final_answers": len(answers[name]),
            "added": added[name],
            "removed": removed[name],
            "pruning_power": "",
        }
        for name in names
    ]
    return RunMetrics(
        mode="naive",
        build_seconds=0.0,
        initial_match_seconds=initial_s,
        stream_seconds=stream_s,
        stage_seconds={},
        per_query=per_query,
        final_answers=dict(answers),
        updates=len(stream),
    )


def rows_to_csv(columns: tuple[str, ...], rows: list[dict]) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=list(columns))
    w.writeheader()
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


SWEEP_COLUMNS = (
    "param",
    "value",
    "n_vertices",
    "updates",
    "initial_answers",
    "final_answers",
    "mean_pruning_power",
    "build_s",
    "initial_match_s",
    "stream_s",
    "total_s",
)

# sweepable BenchConfig fields and their types, keyed by the CLI spelling
SWEEP_PARAMS = {p.dest: (p.field, p.kind) for p in SCENARIO_PARAMS if p.sweep}


def sweep(base_config, param: str, values: list) -> list[dict]:
    """Re-run the engine once per value of one parameter.

    The master seed is held fixed, so runs that share the same graph
    parameters also share the graph, stream, and query sample.
    """
    if param not in SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter {param!r}; choose from {sorted(SWEEP_PARAMS)}")
    attr, cast = SWEEP_PARAMS[param]
    rows = []
    for value in values:
        cfg = replace(base_config, **{attr: cast(value)})
        _, g0, stream, queries = cfg.make_inputs()
        metrics, _ = run_engine(
            g0, stream, queries, cfg.embedding_config(), cfg.m_groups, cfg.k_cells
        )
        powers = [q["pruning_power"] for q in metrics.per_query]
        rows.append(
            {
                "param": param,
                "value": value,
                "n_vertices": cfg.n_vertices,
                "updates": metrics.updates,
                "initial_answers": sum(q["initial_answers"] for q in metrics.per_query),
                "final_answers": sum(q["final_answers"] for q in metrics.per_query),
                "mean_pruning_power": f"{sum(powers) / len(powers):.6f}" if powers else "",
                "build_s": f"{metrics.build_seconds:.6f}",
                "initial_match_s": f"{metrics.initial_match_seconds:.6f}",
                "stream_s": f"{metrics.stream_seconds:.6f}",
                "total_s": f"{metrics.total_seconds:.6f}",
            }
        )
    return rows
