"""Closed-loop stream benchmark: set-up, registration, per-update latency.

One client replays the stream one ``process_update`` at a time and waits
for each delta, as the engine is a single writer.  ``--trace 0`` measures
the end-to-end metrics with no tracing installed; ``--trace 1`` measures
the per-layer metrics on a separate, traced replay (see ``tracer.py``) and
prints how much the tracing itself cost.  Both modes end with the
exactness gate (see ``exactness.py``) and exit 1 if it finds a divergence.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

from dsmatch.errors import DsmatchError
from dsmatch.graph import DELETE, INSERT, UpdateOp
from dsmatch.matcher import MatchEngine
from dsmatch.synopsis import FILTER_EPS, dominated_within

import exactness
from gauge import GAUGE_REF_S, Gauge
from tracer import Tracer
from workloads import WORKLOADS, Inputs, Workload, make_inputs

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"
SETUP_BUILDS = 3  # setup_s is the median of this many engine builds
MARGIN_QUERIES = 20  # synopsis.grid_margin covers the scans of this many queries

# UpdateResult.timings keys under their per-layer names
STAGE_NAMES = {
    "graph": "graph.apply",
    "embedding_update": "synopsis.lists",
    "synopsis_update": "synopsis.entries",
    "filtering": "matcher.filter",
    "refinement": "matcher.refine",
}

@dataclass
class StreamRun:
    latencies: list[float] = field(default_factory=list)  # applied ops only
    applied: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    stages: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    deltas: list[exactness.Delta] = field(default_factory=list)  # non-empty only

    @property
    def update_s(self) -> float:
        """Time spent inside process_update, summed over the applied ops."""
        return sum(self.latencies)

    @property
    def inserts(self) -> int:
        return sum(1 for op in self.applied if op.kind == INSERT)


def replay(engine: MatchEngine, ops, deadline: float, gauge: Gauge | None = None) -> StreamRun:
    """Apply ops in order until they run out or ``deadline`` has passed.

    Each op's latency is its CPU time scaled by ``gauge`` when one is
    given, else its wall time; ``deadline`` is wall time.
    """
    clock = perf_counter if gauge is None else thread_time
    run = StreamRun()
    for op in ops:
        run.attempted += 1
        t0 = clock()
        try:
            result = engine.process_update(op)
        except DsmatchError:
            run.failed += 1
        else:
            run.latencies.append(clock() - t0)
            if gauge is not None:
                gauge.add(run.latencies[-1])
            run.applied.append(op)
            for stage, seconds in result.timings.items():
                run.stages[stage] += seconds
            for name, delta in result.deltas.items():
                if delta.added or delta.removed:
                    run.deltas.append((name, delta.added, delta.removed))
        if perf_counter() >= deadline:
            break
    if gauge is not None:
        run.latencies = gauge.close()
    return run


def undo(engine: MatchEngine, applied, labels, initial) -> bool:
    """Apply the inverse of ``applied`` in reverse order.

    This returns graph, index and answer sets to their state before the
    replay, so the next replay starts from the same registered engine.
    True if no inverse op raised and the answers are ``initial`` again.
    """
    inverse = [
        UpdateOp(DELETE, op.u, op.v) if op.kind == INSERT
        else UpdateOp(INSERT, op.u, op.v, labels[op.u], labels[op.v])
        for op in reversed(applied)
    ]
    return replay(engine, inverse, math.inf).failed == 0 and answers_of(engine) == initial


def answers_of(engine: MatchEngine) -> dict[str, frozenset]:
    return {name: rq.answers.mappings() for name, rq in engine.queries.items()}


def register_all(engine: MatchEngine, inputs: Inputs, gauge: Gauge | None = None) -> None:
    """Register every query, each as one call timed by ``gauge`` if given."""
    for i, q in enumerate(inputs.queries):
        if gauge is None:
            engine.register(f"q{i}", q)
        else:
            gauge.call(engine.register, f"q{i}", q)


def gate(inputs: Inputs, initial, run: StreamRun, final, plant: bool) -> list[str]:
    """Exactness problems of one replay; ``plant`` first drops one final answer."""
    if plant:
        name = next(iter(final))
        final = dict(final)
        final[name] = frozenset(list(final[name])[1:]) if final[name] else frozenset({(-1,)})
    problems = []
    if run.failed:
        problems.append(f"{run.failed} of {run.attempted} ops raised")
    queries = {f"q{i}": q for i, q in enumerate(inputs.queries)}
    problems += exactness.check(inputs.g0, run.applied, queries, initial, run.deltas, final)
    return problems


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_ledger(title: str, rows: list[tuple[str, float]], wall: float) -> None:
    print(f"{title} ({wall:.4f} s):")
    for name, seconds in rows:
        print(f"  {name:<34} {seconds:10.4f} s {100.0 * seconds / wall:6.1f}%")
    total = sum(s for _, s in rows)
    print(f"  {'sum':<34} {total:10.4f} s {100.0 * total / wall:6.1f}%")


def print_stage_ledger(run: StreamRun) -> float:
    """Stage ledger from UpdateResult.timings; returns the unattributed share."""
    wall = run.update_s
    rows = [(STAGE_NAMES.get(k, k), v) for k, v in run.stages.items()]
    unattributed = wall - sum(v for _, v in rows)
    print_ledger(
        f"stage ledger, {len(run.applied)} updates, update time",
        rows + [("unattributed", unattributed)],
        wall,
    )
    return unattributed / wall


# -- end-to-end run ------------------------------------------------------------


def build(inputs: Inputs) -> tuple[MatchEngine, float]:
    """A fresh engine on a copy of the initial graph, and its set-up CPU time, gauge-scaled."""
    g = inputs.g0.copy()
    gc.collect()
    gauge = Gauge()
    engine = gauge.call(MatchEngine, g, inputs.cfg, inputs.m_groups, inputs.k_cells)
    return engine, gauge.close()[0]


def replay_figures(run: StreamRun) -> tuple[float, float, float]:
    """(updates per second, p50 us, p99 us) of one whole replay."""
    lat = sorted(run.latencies)
    return len(lat) / run.update_s, 1e6 * percentile(lat, 0.50), 1e6 * percentile(lat, 0.99)


def untraced(inputs: Inputs, wl: Workload, seconds: float, plant: bool):
    """End-to-end metrics; every replay is checked.

    The engine is built and every query registered.  It then replays the
    stream ``wl.warmups`` times to warm up and ``wl.replays`` times more,
    undoing each replay before the next.  After each undo more engines are
    built and dropped, SETUP_BUILDS in all by the last one, so the set-up
    samples are spread over the run.  ``setup_s`` is the median of the
    builds.  Each stream figure is worked out over each measured replay's
    whole stream, and the median over the measured replays is reported.
    ``seconds`` caps the first replay; later ones apply the same ops.  The
    first replay goes through the exactness gate; every later one must
    reproduce its deltas and answers, and every undo must restore the
    initial answers.

    Every time here is CPU time of this thread, scaled to the reference
    speed by a gauge (see ``gauge.py``).  The engine is single threaded and
    does no I/O, so on a core of its own its CPU time equals its wall time;
    on a shared VM CPU time leaves out the time the host gives the core to
    other guests, and the gauge takes out the swings in the core's speed.
    """
    problems = []
    engine, seconds_built = build(inputs)
    setup = [seconds_built]
    gauge = Gauge()
    register_all(engine, inputs, gauge)
    register_s = sum(gauge.close())
    initial = answers_of(engine)

    runs: list[StreamRun] = []
    speeds = []  # per replay, the reference loop time over the median reading
    while not problems and len(runs) < wl.warmups + wl.replays:
        gc.collect()
        gauge = Gauge()
        if not runs:
            run = replay(engine, inputs.stream, perf_counter() + seconds, gauge)
            rss = peak_rss_mb()
            final = answers_of(engine)
            problems += gate(inputs, initial, run, final, plant)
        else:
            run = replay(engine, inputs.stream[: runs[0].attempted], math.inf, gauge)
            if run.deltas != runs[0].deltas or answers_of(engine) != final:
                problems.append(f"replay {len(runs) + 1} differs from replay 1")
        runs.append(run)
        speeds.append(GAUGE_REF_S / statistics.median(gauge.readings))
        if not undo(engine, run.applied, inputs.g0.labels, initial):
            problems.append(f"undoing replay {len(runs)} did not restore the initial answers")
        while len(setup) < SETUP_BUILDS * len(runs) / (wl.warmups + wl.replays):
            setup.append(build(inputs)[1])

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    if len(runs) <= wl.warmups or not runs[0].latencies:
        return {}, attempted, failed, problems
    figures = [replay_figures(run) for run in runs]
    ups, p50, p99 = (statistics.median(col) for col in zip(*figures[wl.warmups :]))
    n = len(runs[0].latencies)
    rows = [
        ("setup_s", statistics.median(setup), "s", f"median of {len(setup)} engine builds"),
        ("register_s", register_s, "s", f"{len(inputs.queries)} queries"),
        ("stream_ups", ups, "1/s", f"{n} updates per replay"),
        ("update_us_p50", p50, "us", f"n={n} per replay"),
        ("update_us_p99", p99, "us", f"n={n} per replay, {n - math.ceil(0.99 * n)} samples beyond"),
        ("peak_rss_mb", rss, "MB", "read before the exactness gate"),
    ]
    print(
        f"{wl.warmups} warm-up replays; stream figures are the median of replays "
        f"{wl.warmups + 1}-{len(runs)}"
    )
    for i, ((u, a, b), speed) in enumerate(zip(figures, speeds), 1):
        print(
            f"  replay {i}: {u:10.2f} updates/s  p50 {a:10.2f} us  p99 {b:10.2f} us"
            f"  (machine at {speed:.2f}x the reference speed)"
        )
    print("  set-up: " + " ".join(f"{t:.4f}" for t in setup) + " s")
    for name, value, unit, detail in rows:
        print(f"{name:<16} {value:14.4f} {unit:<4} ({detail})")
    print(f"ops failed: {failed} of {attempted}")
    return {name: (value, unit) for name, value, unit, _ in rows}, attempted, failed, problems


# -- per-layer run ---------------------------------------------------------------


def grid_margin(engine: MatchEngine, names: list[str]) -> tuple[float, int, int]:
    """Time of a label-bucket linear filter over the grid scan's, scan by scan.

    The linear filter applies the same predicates as the grid scan's
    survivors (label, degree, dominance of the full embedding, the box at
    the query degree) to every vertex of the query vertex's label.
    Returns (ratio, scans, scans whose candidate sets differ).
    """
    index = engine.index
    lists = index.lists
    buckets = defaultdict(list)
    for v, label in engine.graph.labels.items():
        buckets[label].append(v)
    grid_s = linear_s = 0.0
    scans = mismatches = 0
    for name in names:
        rq = engine.queries[name]
        q = rq.query
        for qi in q.vertex_order:
            embed, deg = rq.embeds[qi], q.degree(qi)
            t0 = perf_counter()
            grid, _ = index.scan_for_degree(embed, deg, q.labels[qi])
            t1 = perf_counter()
            linear = [
                v for v in buckets[q.labels[qi]]
                if deg <= lists.degree(v)
                and dominated_within(embed, index.embedding_of(v))
                and lists.mbr(v, deg).contains(embed, FILTER_EPS)
            ]
            t2 = perf_counter()
            grid_s += t1 - t0
            linear_s += t2 - t1
            scans += 1
            mismatches += sorted(grid) != sorted(linear)
    return linear_s / grid_s, scans, mismatches


def traced(inputs: Inputs, seconds: float, plant: bool, spans_path: Path):
    """Per-layer metrics from a traced registration and a traced replay.

    Times here are wall times, the clock of ``UpdateResult.timings``, so
    the stage ledger adds up.

    After registration the engine replays the stream untraced and then,
    after undoing it, replays the same ops traced, so the difference of
    their update times is the tracing overhead.
    """
    engine, _ = build(inputs)
    reg = Tracer()
    with reg.installed(engine):
        register_all(engine, inputs)
    initial = answers_of(engine)
    names = list(engine.queries)
    margin, margin_scans, margin_mismatches = grid_margin(engine, names[:MARGIN_QUERIES])
    scan_stats = [s for rq in engine.queries.values() for s in rq.scan_stats.values()]

    # a first replay and its undo bring the engine to the state both timed
    # replays start from
    warm = replay(engine, inputs.stream, perf_counter() + seconds)
    ops = inputs.stream[: warm.attempted]
    restored = undo(engine, warm.applied, inputs.g0.labels, initial)
    base = replay(engine, ops, math.inf)
    restored &= undo(engine, base.applied, inputs.g0.labels, initial)
    tr = Tracer()
    with tr.installed(engine):
        run = replay(engine, ops, math.inf)

    problems = gate(inputs, initial, run, answers_of(engine), plant)
    if not restored:
        problems.append("undoing a replay did not restore the initial answers")
    if not run.deltas == base.deltas == warm.deltas:
        problems.append("traced and untraced replays produced different deltas")
    if margin_mismatches:
        problems.append(
            f"grid scan and linear filter disagree on {margin_mismatches} of {margin_scans} scans"
        )
    if not run.latencies:
        return {}, run.attempted, run.failed, problems

    wall = run.update_s
    unattributed = print_stage_ledger(run)
    totals, selfs = tr.totals(), tr.self_times()
    c, rc = tr.counts, reg.counts
    lists_s, entries_s = c["synopsis.lists_s"], c["synopsis.entries_s"]
    op_spans = totals["matcher.process_update"]
    print_ledger(
        "self-time ledger, traced update time",
        [
            ("matcher.process_update (self)", selfs["matcher.process_update"]),
            ("graph.apply", selfs["graph.apply"]),
            ("synopsis.lists", lists_s),
            ("synopsis.entries", entries_s),
            ("synopsis.maintain (rest)", selfs["synopsis.maintain"] - lists_s - entries_s),
            ("matcher.refine", selfs["matcher.refine"]),
            ("matcher.answers_index", selfs["matcher.answers_index"]),
            ("tracer, outside the op spans", wall - op_spans),
        ],
        wall,
    )
    overhead = wall - base.update_s
    print(
        f"tracing overhead: traced {wall:.4f} s - untraced {base.update_s:.4f} s "
        f"= {overhead:.4f} s ({100.0 * overhead / base.update_s:+.1f}%)"
    )
    print(f"grid margin: linear filter / grid scan = {margin:.4f} over {margin_scans} scans")

    examined = sum(s.examined for s in scan_stats)
    survivors = sum(s.survivors for s in scan_stats)
    orientations = run.inserts * 2 * sum(len(q.edges) for q in inputs.queries)
    graph_s, maintain_s = totals["graph.apply"], totals["synopsis.maintain"]
    metrics = {
        "graph.apply_s": (graph_s, "s"),
        "synopsis.lists_s": (lists_s, "s"),
        "synopsis.entries_s": (entries_s, "s"),
        "synopsis.entries_added": (c["synopsis.entries_added"], "count"),
        "synopsis.entries_removed": (c["synopsis.entries_removed"], "count"),
        "synopsis.entries_moved": (c["synopsis.entries_moved"], "count"),
        "synopsis.entries_refreshed": (c["synopsis.entries_refreshed"], "count"),
        "synopsis.maintain_s": (maintain_s, "s"),
        "synopsis.scan_s": (reg.totals()["synopsis.scan"], "s"),
        "synopsis.scan_calls": (rc["synopsis.scan_calls"], "count"),
        "synopsis.scan.examined": (examined, "count"),
        "synopsis.scan.survivors": (survivors, "count"),
        "synopsis.scan.pruning_power": (1.0 - survivors / examined if examined else 1.0, "ratio"),
        "synopsis.mbr_calls": (rc["synopsis.mbr_calls"] + c["synopsis.mbr_calls"], "count"),
        "synopsis.grid_margin": (margin, "ratio"),
        "embedding.label_vector_calls": (
            rc["embedding.label_vector_calls"] + c["embedding.label_vector_calls"], "count"),
        "matcher.update_s": (op_spans - graph_s - maintain_s, "s"),
        "matcher.refine_s": (run.stages["refinement"], "s"),
        "matcher.answers_index_s": (totals["matcher.answers_index"], "s"),
        "matcher.register_refine_s": (reg.totals()["matcher.refine"], "s"),
        "matcher.query_visits": (len(run.applied) * len(inputs.queries), "count"),
        "matcher.seeds": (c["matcher.seeds"], "count"),
        "matcher.seed_share": (c["matcher.seeds"] / orientations if orientations else 0.0, "ratio"),
        "matcher.endpoint_checks": (c["matcher.endpoint_checks"], "count"),
        "matcher.plan_calls": (rc["matcher.plan_calls"] + c["matcher.plan_calls"], "count"),
        "matcher.answers_added": (sum(len(a) for _, a, _ in run.deltas), "count"),
        "matcher.answers_removed": (sum(len(r) for _, _, r in run.deltas), "count"),
        "stream.unattributed_share": (unattributed, "ratio"),
        "stream.traced_wall_s": (wall, "s"),
        "trace.overhead_s": (overhead, "s"),
    }

    OUT_DIR.mkdir(exist_ok=True)
    spans_path.unlink(missing_ok=True)
    reg.write(spans_path, "register")
    tr.write(spans_path, "stream")
    print(f"spans written to {spans_path}")
    return metrics, run.attempted, run.failed, problems


# -- command line ------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="cap on the first stream replay, in seconds (default 20)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    p.add_argument("--plant-wrong-answer", action="store_true",
                   help="self-test of the gate: drop one answer before checking, "
                        "which must make the run fail")
    args = p.parse_args(argv)

    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    t0 = perf_counter()
    inputs = make_inputs(wl, seed)
    inserts = sum(1 for op in inputs.stream if op.kind == INSERT)
    print(
        f"workload {wl.name}, seed {seed}: |V|={inputs.g0.num_vertices} "
        f"|E|={inputs.g0.num_edges}, {len(inputs.stream)} ops "
        f"({inserts} inserts, {len(inputs.stream) - inserts} deletes), "
        f"{len(inputs.queries)} queries; generated in {perf_counter() - t0:.1f} s"
    )
    if inputs.notes:
        print("  " + ", ".join(f"{k}={v:.4g}" for k, v in inputs.notes.items()))

    if args.trace:
        spans_path = OUT_DIR / f"{wl.name}-seed{seed}.spans.jsonl"
        metrics, attempted, failed, problems = traced(
            inputs, args.seconds, args.plant_wrong_answer, spans_path
        )
    else:
        metrics, attempted, failed, problems = untraced(
            inputs, wl, args.seconds, args.plant_wrong_answer
        )

    for line in problems:
        print(f"EXACTNESS: {line}")
    print(f"exactness gate: {'FAILED' if problems else 'passed'}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 1 if problems else 0
