"""Command-line interface.

Subcommands: ``gen`` (synthetic graph/stream/queries to files), ``run``
(engine over an initial graph + stream + queries), ``oracle`` (brute-force
answers), ``verify`` (engine vs. recompute over a whole stream, first
divergence reported), ``bench`` (engine vs. naive recompute, CSV), and
``sweep`` (one parameter varied, CSV).

Every flag with a DSMATCH_* environment variable counterpart (the flag
name upper-cased, dashes to underscores, e.g. ``DSMATCH_SEED``) takes its
default from the environment when set.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from contextlib import nullcontext
from functools import partial
from pathlib import Path

from .bench import RUN_COLUMNS, SWEEP_COLUMNS, SWEEP_PARAMS, run_engine, run_naive, sweep
from .errors import DsmatchError
from .generate import SCENARIO_PARAMS, BenchConfig
from .graph import dump_graph, dump_stream, load_graph, load_stream
from .matcher import UNCHANGED, QueryGraph, format_answers, format_delta
from .oracle import enumerate_matches, recompute_stream_check
from .synopsis import SynopsisIndex, check_k_cells, compute_degree_groups, estimate_domain


def _env(name: str, default):
    return os.environ.get("DSMATCH_" + name.upper().replace("-", "_"), default)


def _add_config_args(p: argparse.ArgumentParser, n_default: int = 50_000, view=False) -> None:
    """The scenario flags, the grid view's only if ``view``."""
    g = p.add_argument_group("scenario parameters")
    defaults = BenchConfig(n_vertices=n_default)
    for param in SCENARIO_PARAMS:
        if param.view and not view:
            continue
        kind = {"choices": param.kind} if isinstance(param.kind, tuple) else {"type": param.kind}
        default = _env(param.flag, getattr(defaults, param.field))
        g.add_argument("--" + param.flag, default=default, help=param.help, **kind)


def _config_from(args) -> BenchConfig:
    """The flags' scenario; a subcommand without the view's flags takes their defaults."""
    return BenchConfig(**{p.field: getattr(args, p.dest) for p in SCENARIO_PARAMS
                          if p.dest in args})


def _load_queries(paths: list[str]) -> list[QueryGraph]:
    """Query graphs from files, and from the ``*.txt`` files of directories;
    a directory holding none is a mistyped path, not an empty query set."""
    files: list[Path] = []
    for p in map(Path, paths):
        if p.is_dir():
            found = sorted(p.glob("*.txt"))
            if not found:
                raise FileNotFoundError(f"{p}: directory holds no *.txt query file")
            files.extend(found)
        else:
            files.append(p)
    return [QueryGraph.from_text(f.read_text()) for f in files]


def _inputs_from(args) -> tuple:
    """(config, g0, stream, queries), inputs from files or generated from flags."""
    cfg = _config_from(args)
    if args.graph:
        g0 = load_graph(Path(args.graph).read_text())
        stream = load_stream(Path(args.stream).read_text()) if args.stream else []
        return cfg, g0, stream, _load_queries(args.queries or [])
    _, g0, stream, queries = cfg.make_inputs()
    return cfg, g0, stream, queries


def _add_input_args(p: argparse.ArgumentParser, n_default: int = 50_000, view=False) -> None:
    g = p.add_argument_group("inputs (files, or omit --graph to generate)")
    g.add_argument("--graph", help="initial graph file")
    g.add_argument("--stream", help="update stream file")
    g.add_argument("--queries", nargs="*", help="query files or directories")
    _add_config_args(p, n_default, view)


def _write_csv(path: str | Path | None, columns: tuple[str, ...], rows: list[dict]) -> None:
    """A header line, then one line per row: to the file at ``path``, or to
    stdout when it is None."""
    with open(path, "w", newline="") if path else nullcontext(sys.stdout) as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def cmd_gen(args) -> int:
    cfg = _config_from(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    full, g0, stream, queries = cfg.make_inputs()
    (out / "graph.txt").write_text(dump_graph(full))
    (out / "g0.txt").write_text(dump_graph(g0))
    (out / "stream.txt").write_text(dump_stream(stream))
    qdir = out / "queries"
    qdir.mkdir(exist_ok=True)
    for i, q in enumerate(queries):
        (qdir / f"q{i:03d}.txt").write_text(q.to_text())
    print(
        f"wrote {out}: |V|={full.num_vertices} |E|={full.num_edges} "
        f"stream={len(stream)} queries={len(queries)}"
    )
    return 0


def cmd_run(args) -> int:
    cfg, g0, stream, queries = _inputs_from(args)
    # the grid view's parameters, checked before the run though only the dump reads them
    ecfg, groups = cfg.embedding_config(), compute_degree_groups(g0, cfg.m_groups)
    k_cells = check_k_cells(cfg.k_cells)
    metrics, engine = run_engine(g0, stream, queries, collect_deltas=args.emit_deltas)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, (q, (name, answers)) in enumerate(zip(queries, metrics.final_answers.items())):
        text = format_answers(q, answers)
        (out / f"answers_q{i:03d}.txt").write_text(text + ("\n" if text else ""))
        if args.emit_deltas:
            blocks = []
            for ts, deltas in metrics.delta_log:
                body = format_delta(q, deltas.get(name, UNCHANGED))
                if body:
                    blocks.append(f"# t={ts}\n{body}")
            (out / f"deltas_q{i:03d}.txt").write_text(
                "\n".join(blocks) + ("\n" if blocks else "")
            )
    _write_csv(out / "metrics.csv", RUN_COLUMNS, metrics.rows())
    if args.dump_synopses:  # g0's degree groups and grid domain, over the final graph
        view = SynopsisIndex(engine.graph, groups, ecfg, k_cells, estimate_domain(g0, ecfg))
        Path(args.dump_synopses).write_text(view.dump())
    print(
        f"{len(stream)} updates, {sum(map(len, metrics.final_answers.values()))} "
        f"final answers, total {metrics.total_seconds:.3f}s -> {out}"
    )
    return 0


def cmd_oracle(args) -> int:
    g = load_graph(Path(args.graph).read_text())
    queries = _load_queries(args.queries)
    for i, q in enumerate(queries):
        answers = enumerate_matches(g, q)
        print(f"# query {i}: {len(answers)} matches")
        text = format_answers(q, answers)
        if text:
            print(text)
    return 0


def cmd_verify(args) -> int:
    _, g0, stream, queries = _inputs_from(args)
    report = recompute_stream_check(g0, stream, queries)
    print(report.describe())
    return 0 if report.ok else 1


def cmd_bench(args) -> int:
    _, g0, stream, queries = _inputs_from(args)
    engine_metrics, _ = run_engine(g0, stream, queries)
    rows = engine_metrics.rows()
    status = 0
    if not args.skip_naive:
        naive_metrics = run_naive(g0, stream, queries)
        if naive_metrics.final_answers != engine_metrics.final_answers:
            print("error: engine and naive final answers disagree", file=sys.stderr)
            status = 1
        rows += naive_metrics.rows()
        ratio = naive_metrics.total_seconds / max(engine_metrics.total_seconds, 1e-12)
        print(
            f"engine {engine_metrics.total_seconds:.3f}s vs naive "
            f"{naive_metrics.total_seconds:.3f}s ({ratio:.1f}x)"
        )
    _write_csv(args.out, RUN_COLUMNS, rows)
    return status


def cmd_sweep(args) -> int:
    _write_csv(args.out, SWEEP_COLUMNS, sweep(_config_from(args), args.param, args.values))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dsmatch",
        description="Exact continuous subgraph matching over dynamic labeled graphs.",
        epilog="Flag defaults can be set via DSMATCH_* environment variables.",
    )
    # no abbreviated flags: where a subcommand has no --d, --d must not read as --deletion-rate
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=partial(argparse.ArgumentParser, allow_abbrev=False))

    g = sub.add_parser("gen", help="generate a synthetic graph, stream, and queries")
    _add_config_args(g)
    g.add_argument("--out", required=True, help="output directory")
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("run", help="run the engine over a stream")
    _add_input_args(r, view=True)
    r.add_argument("--out", required=True, help="output directory")
    r.add_argument("--emit-deltas", action="store_true",
                   help="write per-update answer deltas alongside final answers")
    r.add_argument("--dump-synopses", help="write a synopsis cell dump to this file")
    r.set_defaults(func=cmd_run)

    o = sub.add_parser("oracle", help="brute-force answers on a snapshot")
    o.add_argument("--graph", required=True)
    o.add_argument("--queries", nargs="+", required=True)
    o.set_defaults(func=cmd_oracle)

    v = sub.add_parser("verify", help="engine vs full recompute over a stream")
    _add_input_args(v, n_default=200)
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="engine vs naive per-update recompute")
    _add_input_args(b, n_default=1000)
    b.add_argument("--out", help="CSV output path (stdout when omitted)")
    b.add_argument("--skip-naive", action="store_true")
    b.set_defaults(func=cmd_bench)

    s = sub.add_parser("sweep", help="vary one parameter, one engine run per value")
    _add_config_args(s, n_default=1000)
    s.add_argument("--param", required=True, choices=sorted(SWEEP_PARAMS))
    s.add_argument("--values", nargs="+", required=True)
    s.add_argument("--out", help="CSV output path (stdout when omitted)")
    s.set_defaults(func=cmd_sweep)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # run, verify and bench read --stream and --queries only alongside --graph
    if getattr(args, "graph", "") is None and (args.stream, args.queries) != (None, None):
        parser.error(f"{args.command}: --stream and --queries need --graph")
    try:
        return args.func(args)
    except (DsmatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
