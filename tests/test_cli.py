import argparse
import csv
import inspect
import os

import pytest

from dsmatch.bench import RUN_COLUMNS, SWEEP_PARAMS, run_engine, run_naive, sweep
from dsmatch.cli import build_parser, main
from dsmatch.embedding import BETA, MODES, EmbeddingConfig
from dsmatch.generate import SCENARIO_PARAMS, BenchConfig
from dsmatch.graph import DELETE, UpdateOp, dump_stream, load_graph, load_stream
from dsmatch.matcher import MatchEngine, QueryDelta, QueryGraph, format_delta
from dsmatch.oracle import recompute_stream_check
from dsmatch.synopsis import (
    K_CELLS,
    M_GROUPS,
    SynopsisIndex,
    compute_degree_groups,
    estimate_domain,
)


BASE_FLAGS = [
    "--n", "120", "--alphabet", "5", "--label-dist", "zipf",
    "--query-count", "3", "--query-size", "4", "--seed", "3",
]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_gen_writes_expected_files(tmp_path):
    out = tmp_path / "data"
    assert main(["gen", *BASE_FLAGS, "--out", str(out)]) == 0
    assert (out / "graph.txt").exists()
    assert (out / "g0.txt").exists()
    assert (out / "stream.txt").exists()
    qfiles = sorted((out / "queries").glob("q*.txt"))
    assert len(qfiles) == 3


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["gen", *BASE_FLAGS, "--out", str(a)])
    main(["gen", *BASE_FLAGS, "--out", str(b)])
    assert (a / "graph.txt").read_text() == (b / "graph.txt").read_text()
    assert (a / "stream.txt").read_text() == (b / "stream.txt").read_text()


def test_run_from_files_and_metrics(tmp_path):
    data = tmp_path / "data"
    main(["gen", *BASE_FLAGS, "--out", str(data)])
    out = tmp_path / "run"
    argv = [
        "run",
        "--graph", str(data / "g0.txt"),
        "--stream", str(data / "stream.txt"),
        "--queries", str(data / "queries"),
        "--out", str(out),
        "--dump-synopses", str(out / "synopses.txt"),
    ]
    rc = main(argv)
    assert rc == 0
    rows = read_csv(out / "metrics.csv")
    assert len(rows) == 3
    assert rows[0]["mode"] == "engine"
    assert float(rows[0]["total_s"]) > 0
    # run passes a stage sink: the stages are timed, and they add up to no
    # more than the stream's time (up to the CSV's six-decimal rounding)
    assert float(rows[0]["graph_s"]) > 0
    assert float(rows[0]["embedding_update_s"]) > 0
    stage_s = sum(float(rows[0][f"{s}_s"]) for s in
                  ("graph", "embedding_update", "filtering", "refinement", "answers_index"))
    assert stage_s <= float(rows[0]["stream_s"]) + 5e-6
    answers = sorted(out.glob("answers_q*.txt"))
    assert len(answers) == 3
    for f in answers:
        for line in f.read_text().splitlines():
            assert line.startswith("match q0->")
    # the dump is a from-scratch build over the final graph, with the
    # degree groups and grid domain frozen over g0
    args = build_parser().parse_args(argv)
    cfg = BenchConfig(**{p.field: getattr(args, p.dest) for p in SCENARIO_PARAMS})
    g0 = load_graph((data / "g0.txt").read_text())
    stream = load_stream((data / "stream.txt").read_text())
    g = g0.copy()
    for op in stream:
        g.apply_update(op)
    ecfg, groups = cfg.embedding_config(), compute_degree_groups(g0, cfg.m_groups)
    domain = SynopsisIndex(g0, groups, ecfg, cfg.k_cells).domain
    text = (out / "synopses.txt").read_text()
    assert stream and groups.m > 1 and "key=" in text
    assert text == SynopsisIndex(g, groups, ecfg, cfg.k_cells, domain=domain).dump()
    headers = [line for line in text.splitlines() if line.startswith("# synopsis")]
    assert len(headers) == groups.m
    for j, header in enumerate(headers):
        entries = sum(g.degree(v) > groups.lower(j) for v in g.vertices())
        assert header.endswith(f" entries={entries}")


VIEW_FLAGS = {"m": 2, "k": 3, "d": 3, "mode": "base", "ratio": 500, "salt": 9}


def test_dump_at_non_default_view_flags_reads_every_flag(tmp_path):
    # the view's six flags all differ from their defaults, and the dump is
    # the one view built with all six: a flag wired to the wrong place, or
    # to nothing, gives another dump
    data = tmp_path / "data"
    assert main(["gen", *BASE_FLAGS, "--out", str(data)]) == 0
    dump = tmp_path / "synopses.txt"
    assert main([
        "run", "--graph", str(data / "g0.txt"), "--stream", str(data / "stream.txt"),
        "--queries", str(data / "queries"), "--out", str(tmp_path / "out"),
        *(a for flag, value in VIEW_FLAGS.items() for a in (f"--{flag}", str(value))),
        "--dump-synopses", str(dump),
    ]) == 0
    g0 = load_graph((data / "g0.txt").read_text())
    g = g0.copy()
    for op in load_stream((data / "stream.txt").read_text()):
        g.apply_update(op)

    def view(m, k, d, mode, ratio, salt):
        ecfg = EmbeddingConfig(d=d, alpha=BETA / ratio, mode=mode, seed_salt=salt)
        return SynopsisIndex(g, compute_degree_groups(g0, m), ecfg, k, estimate_domain(g0, ecfg))

    text = dump.read_text()
    assert text == view(**VIEW_FLAGS).dump()
    defaults = BenchConfig()
    for flag, field in [("m", "m_groups"), ("k", "k_cells"), ("d", "d"), ("mode", "mode"),
                        ("ratio", "beta_alpha_ratio"), ("salt", "seed_salt")]:
        assert text != view(**{**VIEW_FLAGS, flag: getattr(defaults, field)}).dump(), flag


def test_run_answers_match_oracle_cli(tmp_path, capsys):
    data = tmp_path / "data"
    main(["gen", *BASE_FLAGS, "--out", str(data)])
    out = tmp_path / "run"
    main([
        "run", "--graph", str(data / "graph.txt"), "--queries", str(data / "queries"),
        "--out", str(out),
    ])
    capsys.readouterr()
    rc = main([
        "oracle", "--graph", str(data / "graph.txt"), "--queries", str(data / "queries"),
    ])
    assert rc == 0
    oracle_out = capsys.readouterr().out
    blocks = {}
    current = None
    for line in oracle_out.splitlines():
        if line.startswith("# query"):
            current = int(line.split()[2].rstrip(":"))
            blocks[current] = []
        elif line.startswith("match"):
            blocks[current].append(line)
    for i in range(3):
        got = (out / f"answers_q{i:03d}.txt").read_text().splitlines()
        assert got == blocks[i]


def test_verify_subcommand_synthetic(capsys):
    rc = main([
        "verify", "--n", "80", "--alphabet", "4", "--label-dist", "uniform",
        "--query-count", "2", "--query-size", "4", "--seed", "4",
    ])
    assert rc == 0
    assert "zero divergences" in capsys.readouterr().out


def test_bench_subcommand_schema(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main([
        "bench", "--n", "100", "--alphabet", "5", "--query-count", "2",
        "--query-size", "4", "--seed", "5", "--out", str(out),
    ])
    assert rc == 0
    rows = read_csv(out)
    modes = {r["mode"] for r in rows}
    assert modes == {"engine", "naive"}
    engine_rows = [r for r in rows if r["mode"] == "engine"]
    naive_rows = [r for r in rows if r["mode"] == "naive"]
    assert len(engine_rows) == len(naive_rows) == 2
    for er, nr in zip(engine_rows, naive_rows):
        assert er["final_answers"] == nr["final_answers"]
        assert er.keys() == nr.keys()


def test_bench_exits_nonzero_when_answers_disagree(tmp_path, monkeypatch):
    import dsmatch.cli as cli

    def lossy_naive(*args):
        metrics = run_naive(*args)
        name, answers = next((n, a) for n, a in metrics.final_answers.items() if a)
        metrics.final_answers[name] = answers - {min(answers)}
        return metrics

    monkeypatch.setattr(cli, "run_naive", lossy_naive)
    rc = main([
        "bench", "--n", "100", "--alphabet", "5", "--query-count", "2",
        "--query-size", "4", "--seed", "5", "--out", str(tmp_path / "bench.csv"),
    ])
    assert rc == 1


def test_sweep_subcommand(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--n", "100", "--alphabet", "5", "--query-count", "2",
        "--query-size", "4", "--seed", "6", "--param", "n",
        "--values", "100", "120", "--out", str(out),
    ])
    assert rc == 0
    rows = read_csv(out)
    assert [(r["value"], r["n_vertices"]) for r in rows] == [("100", "100"), ("120", "120")]
    # each row holds one engine run over its value's scenario, seed held fixed
    for row, n in zip(rows, (100, 120)):
        cfg = BenchConfig(n_vertices=n, alphabet=5, query_count=2, query_size=4, master_seed=6)
        _, g0, stream, queries = cfg.make_inputs()
        metrics, _ = run_engine(g0, stream, queries)
        assert int(row["updates"]) == len(stream)
        assert int(row["final_answers"]) == sum(map(len, metrics.final_answers.values()))


def test_sweep_with_a_malformed_value_fails_before_any_run(tmp_path, monkeypatch, capsys):
    import dsmatch.bench as bench_mod

    runs = []
    monkeypatch.setattr(bench_mod, "run_engine", lambda *args: runs.append(args))
    out = tmp_path / "sweep.csv"
    argv = ["sweep", *BASE_FLAGS, "--param", "n", "--values", "300", "abc", "--out", str(out)]
    assert main(argv) == 2
    assert runs == [] and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'abc'" in err and "Traceback" not in err


def test_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("DSMATCH_N", "64")
    from dsmatch.cli import build_parser

    args = build_parser().parse_args(["gen", "--out", str(tmp_path)])
    assert args.n == 64


def test_malformed_env_value_is_a_usage_error_only_where_used(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DSMATCH_N", "foo")
    graph = tmp_path / "g.txt"
    graph.write_text("v 0 1\nv 1 2\ne 0 1\n")
    # oracle has no --n, so the value is never read
    assert main(["oracle", "--graph", str(graph), "--queries", str(graph)]) == 0
    assert "# query 0: 1 matches" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "invalid int value: 'foo'" in capsys.readouterr().err


def test_cli_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("v 0 1\ne 0 9\n")
    rc = main(["oracle", "--graph", str(bad), "--queries", str(bad)])
    assert rc == 2


# exit 1 from verify means a divergence was found; a bad flag is exit 2
EXTRA_ARGS = {
    "run": ["--out", "{tmp}/out"],
    "dump": ["--out", "{tmp}/out", "--dump-synopses", "{tmp}/synopses.txt"],
    "sweep": ["--param", "n", "--values", "120"],
}


@pytest.mark.parametrize("command", ["run", "verify", "bench", "sweep"])
@pytest.mark.parametrize("flag, value, says", [
    ("--avg-deg", "nan", "average degree must be finite"),
    ("--query-avg-deg", "nan", "query average degree must be finite"),
])
def test_out_of_domain_scenario_parameter_is_an_error_not_a_traceback(
    tmp_path, capsys, command, flag, value, says
):
    extra = [a.format(tmp=tmp_path) for a in EXTRA_ARGS.get(command, [])]
    assert main([command, *BASE_FLAGS, flag, value, *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and says in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "dump"])
@pytest.mark.parametrize("flag, value, says", [
    ("--k", "0", "k_cells must be >= 1"),
    ("--m", "0", "m must be >= 1"),
    ("--d", "0", "d must be >= 1"),
    ("--ratio", "5", "beta/alpha must be >= 10"),
    ("--ratio", "0", "beta/alpha ratio must be positive and finite"),
    ("--ratio", "nan", "beta/alpha ratio must be positive and finite"),
    ("--ratio", "inf", "beta/alpha ratio must be positive and finite"),
])
def test_out_of_domain_index_parameter_is_an_error_not_a_traceback(
    tmp_path, capsys, command, flag, value, says
):
    # only run takes the grid view's flags, and checks them before the run
    # whether or not it writes the dump that reads them
    extra = [a.format(tmp=tmp_path) for a in EXTRA_ARGS[command]]
    assert main(["run", *BASE_FLAGS, flag, value, *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and says in err and "Traceback" not in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "synopses.txt").exists()


@pytest.mark.parametrize("command", ["gen", "verify", "bench", "sweep"])
@pytest.mark.parametrize("flag", ["--d", "--ratio", "--mode", "--m", "--k", "--salt"])
def test_only_run_takes_the_grid_view_flags(tmp_path, capsys, command, flag):
    # --d is no abbreviation of --deletion-rate either
    extra = {"gen": ["--out", str(tmp_path / "out")], **EXTRA_ARGS}.get(command, [])
    with pytest.raises(SystemExit) as exc:
        main([command, *BASE_FLAGS, flag, "2", *extra])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


def test_sweep_takes_no_grid_view_parameter(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", *BASE_FLAGS, "--param", "k", "--values", "2", "5"])
    assert exc.value.code == 2
    assert "argument --param: invalid choice: 'k'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "verify", "bench"])
@pytest.mark.parametrize("given", [["--stream", "s.txt"], ["--queries", "q"], ["--queries"]])
def test_input_files_without_graph_are_a_usage_error(tmp_path, monkeypatch, capsys, command, given):
    # generating the inputs instead would silently ignore the named files
    def no_generation(self):
        raise AssertionError("inputs generated")

    monkeypatch.setattr(BenchConfig, "make_inputs", no_generation)
    out = ["--out", str(tmp_path / "out")] if command == "run" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "300", *given, *out])
    assert exc.value.code == 2
    assert f"{command}: --stream and --queries need --graph" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--graph", "{missing}", "--out", "{tmp}/out"],
    ["run", "--graph", "{graph}", "--stream", "{missing}", "--out", "{tmp}/out"],
    ["verify", "--graph", "{graph}", "--queries", "{missing}"],
    ["bench", "--graph", "{tmp}", "--skip-naive"],  # a directory: unreadable
    ["oracle", "--graph", "{missing}", "--queries", "{graph}"],
])
def test_unreadable_input_file_is_an_error_not_a_traceback(tmp_path, capsys, argv):
    graph = tmp_path / "g.txt"
    graph.write_text("v 0 1\nv 1 2\ne 0 1\n")
    paths = {"missing": tmp_path / "missing.txt", "graph": graph, "tmp": tmp_path}
    assert main([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "verify", "oracle"])
def test_query_directory_without_query_files_is_an_error(tmp_path, capsys, command):
    # zero queries from a mistyped directory would pass for an empty query set
    graph = tmp_path / "g.txt"
    graph.write_text("v 0 1\nv 1 2\ne 0 1\n")
    empty = tmp_path / "queries"
    empty.mkdir()
    (empty / "notes.md").write_text("not a query\n")
    out = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert main([command, "--graph", str(graph), "--queries", str(empty), *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no *.txt query file" in err
    assert not (tmp_path / "out").exists()


def test_engine_and_naive_final_answers_agree():
    cfg = BenchConfig(
        n_vertices=120, alphabet=5, label_dist="zipf",
        query_count=3, query_size=4, master_seed=7,
    )
    g = cfg.make_graph()
    g0, stream = cfg.make_split(g)
    queries = cfg.make_queries(g)
    engine_metrics, _ = run_engine(g0, stream, queries)
    naive_metrics = run_naive(g0, stream, queries)
    assert engine_metrics.final_answers == naive_metrics.final_answers


def test_metric_rows_fill_every_run_column():
    cfg = BenchConfig(n_vertices=100, alphabet=5, query_count=2, query_size=4, master_seed=5)
    _, g0, stream, queries = cfg.make_inputs()
    engine_metrics, _ = run_engine(g0, stream, queries)
    for row in engine_metrics.rows() + run_naive(g0, stream, queries).rows():
        assert set(row) == set(RUN_COLUMNS), row["mode"]


def test_csv_to_stdout_equals_csv_to_file(tmp_path, capsys):
    argv = ["sweep", *BASE_FLAGS, "--param", "n", "--values", "100", "120"]
    assert main([*argv, "--out", str(tmp_path / "sweep.csv")]) == 0
    assert main(argv) == 0

    def untimed(text):
        lines = [line.split(",") for line in text.split("\r\n")]
        keep = [i for i, c in enumerate(lines[0]) if not c.endswith("_s")]
        return [[cells[i] for i in keep] for cells in lines if cells != [""]]

    file_text = (tmp_path / "sweep.csv").read_bytes().decode()
    assert file_text.endswith("\r\n") and "\n" not in file_text.replace("\r\n", "")
    assert untimed(capsys.readouterr().out) == untimed(file_text)


def test_gen_then_run_metrics_deterministic(tmp_path):
    outs = []
    for tag in ("x", "y"):
        out = tmp_path / tag
        main(["run", *BASE_FLAGS, "--out", str(out)])
        rows = read_csv(out / "metrics.csv")
        outs.append(
            [
                {k: v for k, v in row.items() if not k.endswith("_s")}
                for row in rows
            ]
        )
    assert outs[0] == outs[1]  # identical modulo wall-clock columns


def test_run_emit_deltas(tmp_path):
    out = tmp_path / "run"
    rc = main(["run", *BASE_FLAGS, "--emit-deltas", "--out", str(out)])
    assert rc == 0
    delta_files = sorted(out.glob("deltas_q*.txt"))
    assert len(delta_files) == 3
    saw_delta_line = False
    for f in delta_files:
        for line in f.read_text().splitlines():
            assert line.startswith(("# t=", "+ match ", "- match "))
            saw_delta_line |= line.startswith(("+ match ", "- match "))
    assert saw_delta_line  # a 10% insert stream produces at least one delta


def test_emitted_deltas_equal_answer_snapshot_differences(tmp_path):
    # a fresh engine replays the run's inputs; each deltas_q*.txt must equal
    # the file rebuilt from the answers before and after every op
    data = tmp_path / "data"
    assert main(["gen", *BASE_FLAGS, "--out", str(data)]) == 0
    inserts = load_stream((data / "stream.txt").read_text())
    mixed = inserts + [UpdateOp(DELETE, op.u, op.v) for op in inserts[::2]]
    (data / "mixed.txt").write_text(dump_stream(mixed))
    out = tmp_path / "run"
    assert main([
        "run", "--graph", str(data / "g0.txt"), "--stream", str(data / "mixed.txt"),
        "--queries", str(data / "queries"), "--emit-deltas", "--out", str(out),
    ]) == 0

    queries = [QueryGraph.from_text(f.read_text()) for f in sorted((data / "queries").glob("*.txt"))]
    engine = MatchEngine(load_graph((data / "g0.txt").read_text()))
    for i, q in enumerate(queries):
        engine.register(f"q{i}", q)
    blocks = [[] for _ in queries]
    for op in load_stream((data / "mixed.txt").read_text()):
        before = [rq.answers.mappings() for rq in engine.queries.values()]
        engine.process_update(op)
        for i, rq in enumerate(engine.queries.values()):
            after = rq.answers.mappings()
            delta = QueryDelta(added=after - before[i], removed=before[i] - after)
            if after != before[i]:
                blocks[i].append(f"# t={op.timestamp}\n{format_delta(queries[i], delta)}")
    assert sum(map(len, blocks)) > 0
    assert any(line.startswith("- match ") for b in blocks for block in b for line in block.splitlines())
    for i, qblocks in enumerate(blocks):
        want = "\n".join(qblocks) + ("\n" if qblocks else "")
        assert (out / f"deltas_q{i:03d}.txt").read_bytes() == want.encode()


def test_verify_deletion_stream(capsys):
    rc = main([
        "verify", "--n", "80", "--alphabet", "4", "--query-count", "2",
        "--query-size", "4", "--seed", "13",
        "--insertion-rate", "0", "--deletion-rate", "0.1",
    ])
    assert rc == 0
    assert "zero divergences" in capsys.readouterr().out


def test_scenario_flags_take_bench_config_defaults(monkeypatch):
    for name in list(os.environ):
        if name.startswith("DSMATCH_"):
            monkeypatch.delenv(name)
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    n_defaults = {"gen": 50_000, "run": 50_000, "verify": 200, "bench": 1000, "sweep": 1000}
    defaults = BenchConfig()
    flags = 0
    for command, n_default in n_defaults.items():
        actions = {a.dest: a for a in subparsers[command]._actions}
        for param in SCENARIO_PARAMS:
            if param.view and command != "run":  # only run writes the grid view
                assert param.dest not in actions, (command, param.flag)
                continue
            got = actions[param.dest].default
            want = n_default if param.dest == "n" else getattr(defaults, param.field)
            assert (got, type(got)) == (want, type(want)), (command, param.flag)
            flags += 1
    assert next(a for a in subparsers["run"]._actions if a.dest == "mode").choices == MODES
    assert [p.flag for p in SCENARIO_PARAMS if p.view] == ["d", "ratio", "mode", "m", "k", "salt"]
    assert flags == 56  # 16 on run, 10 on each of the other four


def test_sweep_params_are_the_documented_five():
    # the view's parameters reach no engine path, so they do not sweep
    assert set(SWEEP_PARAMS) == {"n", "avg_deg", "alphabet", "query_size", "query_avg_deg"}


def test_grid_defaults_have_one_definition():
    params = inspect.signature(MatchEngine).parameters
    assert params["cfg"].default == EmbeddingConfig() == BenchConfig().embedding_config()
    assert (params["m_groups"].default, params["k_cells"].default) == (M_GROUPS, K_CELLS)
    defaults = BenchConfig()
    assert (defaults.m_groups, defaults.k_cells) == (M_GROUPS, K_CELLS)
    # the engine's callers leave the grid's parameters to those defaults
    for fn in (run_engine, recompute_stream_check):
        assert not {"cfg", "m_groups", "k_cells"} & set(inspect.signature(fn).parameters), fn
