"""Benchmark runs: the engine over a stream, and a full-recompute baseline.

The baseline is the oracle's full-recompute replay: the same stream on a
bare graph, every query's answers re-enumerated from scratch after each
update by the brute-force enumerator.  It is the reference point for
incremental speedup claims and a secondary correctness check (final
answers must agree).

Metric rows are plain dicts with a fixed column order so the ``bench``
and ``sweep`` subcommands can emit stable CSV.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from time import perf_counter

from .errors import InvalidParams
from .generate import SCENARIO_PARAMS
from .graph import DynamicGraph, UpdateOp
from .matcher import STAGES, UNCHANGED, MatchEngine, Mapping, QueryDelta, QueryGraph
from .oracle import _recompute

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
    *(f"{stage}_s" for stage in STAGES),
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
        seconds = {
            "build_s": self.build_seconds,
            "initial_match_s": self.initial_match_seconds,
            "stream_s": self.stream_seconds,
            **{f"{stage}_s": self.stage_seconds.get(stage, 0.0) for stage in STAGES},
            "total_s": self.total_seconds,
        }
        run = {"mode": self.mode, **{c: f"{s:.6f}" for c, s in seconds.items()}}
        out = []
        for q in self.per_query:
            power = q["pruning_power"]
            out.append({**run, **q, "pruning_power": "" if power is None else f"{power:.6f}"})
        return out


def _per_query(
    names: list[str],
    initial: list[int],
    log: list[tuple[int, dict]],
    finals: dict[str, frozenset[Mapping]],
    powers: list[float | None],
) -> list[dict]:
    """Each query's answer counts after registration and after the stream,
    and the answers its ops added and removed, from the per-op deltas."""
    per_query = []
    for name, start, power in zip(names, initial, powers):
        deltas = [op_deltas.get(name, UNCHANGED) for _, op_deltas in log]
        per_query.append(
            {
                "query_id": name,
                "initial_answers": start,
                "final_answers": len(finals[name]),
                "added": sum(len(d.added) for d in deltas),
                "removed": sum(len(d.removed) for d in deltas),
                "pruning_power": power,
            }
        )
    return per_query


def run_engine(
    g0: DynamicGraph,
    stream: list[UpdateOp],
    queries: list[QueryGraph],
    collect_deltas: bool = False,
) -> tuple[RunMetrics, MatchEngine]:
    """Build, register, replay; returns metrics plus the live engine."""
    t0 = perf_counter()
    engine = MatchEngine(g0.copy())
    build_s = perf_counter() - t0

    names = [f"q{i}" for i in range(len(queries))]
    t0 = perf_counter()
    initial = [len(engine.register(name, q).answers) for name, q in zip(names, queries)]
    initial_s = perf_counter() - t0

    stages: dict[str, float] = defaultdict(float)
    log: list[tuple[int, dict]] = []
    t0 = perf_counter()
    for op in stream:
        result = engine.process_update(op, stages)
        log.append((op.timestamp, result.deltas))
    stream_s = perf_counter() - t0

    registered = [engine.queries[name] for name in names]
    finals = {rq.name: rq.answers.mappings() for rq in registered}
    powers = [rq.mean_pruning_power for rq in registered]
    metrics = RunMetrics(
        mode="engine",
        build_seconds=build_s,
        initial_match_seconds=initial_s,
        stream_seconds=stream_s,
        stage_seconds=stages,
        per_query=_per_query(names, initial, log, finals, powers),
        final_answers=finals,
        updates=len(stream),
        delta_log=log if collect_deltas else [],
    )
    return metrics, engine


def run_naive(
    g0: DynamicGraph, stream: list[UpdateOp], queries: list[QueryGraph]
) -> RunMetrics:
    """Per-update full recompute with the brute-force enumerator."""
    names = [f"q{i}" for i in range(len(queries))]
    replay = _recompute(g0, stream, queries)

    t0 = perf_counter()
    _, answers = next(replay)
    initial_s = perf_counter() - t0
    initial = [len(a) for a in answers]

    log: list[tuple[int, dict]] = []
    t0 = perf_counter()
    for op, fresh in replay:
        deltas = {
            name: QueryDelta(added=new - old, removed=old - new)
            for name, old, new in zip(names, answers, fresh)
        }
        log.append((op.timestamp, deltas))
        answers = fresh
    stream_s = perf_counter() - t0

    finals = dict(zip(names, answers))
    return RunMetrics(
        mode="naive",
        build_seconds=0.0,
        initial_match_seconds=initial_s,
        stream_seconds=stream_s,
        stage_seconds={},
        per_query=_per_query(names, initial, log, finals, [None] * len(names)),
        final_answers=finals,
        updates=len(stream),
    )


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
    """Re-run the engine once per value of one parameter, converting every
    value first: a malformed one raises ``InvalidParams`` before any run.

    The master seed is held fixed, so runs that share the same graph
    parameters also share the graph, stream, and query sample.  Only the
    parameters of the graph and the queries sweep: no engine path reads an
    embedding, degree group or grid, so the grid view's parameters would
    move only the timing columns.
    """
    if param not in SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter {param!r}; choose from {sorted(SWEEP_PARAMS)}")
    attr, cast = SWEEP_PARAMS[param]
    try:
        configs = [replace(base_config, **{attr: cast(value)}) for value in values]
    except ValueError as exc:
        raise InvalidParams(f"sweep --param {param} --values: {exc}") from None
    rows = []
    for value, cfg in zip(values, configs):
        _, g0, stream, queries = cfg.make_inputs()
        metrics, _ = run_engine(g0, stream, queries)
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
