import argparse
import csv
import inspect
import os

import pytest

from dsmatch.bench import SWEEP_PARAMS, run_engine, run_naive, sweep
from dsmatch.cli import build_parser, main
from dsmatch.embedding import MODES
from dsmatch.generate import SCENARIO_PARAMS, BenchConfig
from dsmatch.matcher import MatchEngine
from dsmatch.oracle import recompute_stream_check
from dsmatch.synopsis import K_CELLS, M_GROUPS


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
    rc = main([
        "run",
        "--graph", str(data / "g0.txt"),
        "--stream", str(data / "stream.txt"),
        "--queries", str(data / "queries"),
        "--out", str(out),
        "--dump-synopses", str(out / "synopses.txt"),
    ])
    assert rc == 0
    rows = read_csv(out / "metrics.csv")
    assert len(rows) == 3
    assert rows[0]["mode"] == "engine"
    assert float(rows[0]["total_s"]) > 0
    assert float(rows[0]["graph_s"]) >= 0
    assert float(rows[0]["answers_index_s"]) >= 0
    answers = sorted(out.glob("answers_q*.txt"))
    assert len(answers) == 3
    for f in answers:
        for line in f.read_text().splitlines():
            assert line.startswith("match q0->")
    assert "key=" in (out / "synopses.txt").read_text()


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
        "--query-size", "4", "--seed", "6", "--param", "k",
        "--values", "2", "5", "--out", str(out),
    ])
    assert rc == 0
    rows = read_csv(out)
    assert [r["value"] for r in rows] == ["2", "5"]
    # answers are parameter-independent: only timing may differ
    assert rows[0]["final_answers"] == rows[1]["final_answers"]
    assert rows[0]["initial_answers"] == rows[1]["initial_answers"]


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


def test_engine_and_naive_final_answers_agree():
    cfg = BenchConfig(
        n_vertices=120, alphabet=5, label_dist="zipf",
        query_count=3, query_size=4, master_seed=7,
    )
    g = cfg.make_graph()
    g0, stream = cfg.make_split(g)
    queries = cfg.make_queries(g)
    engine_metrics, _ = run_engine(g0, stream, queries, cfg.embedding_config())
    naive_metrics = run_naive(g0, stream, queries)
    assert engine_metrics.final_answers == naive_metrics.final_answers


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
    for command, n_default in n_defaults.items():
        actions = {a.dest: a for a in subparsers[command]._actions}
        for param in SCENARIO_PARAMS:
            got = actions[param.dest].default
            want = n_default if param.dest == "n" else getattr(defaults, param.field)
            assert (got, type(got)) == (want, type(want)), (command, param.flag)
        assert actions["mode"].choices == MODES


def test_sweep_params_are_the_documented_nine():
    assert set(SWEEP_PARAMS) == {
        "d", "ratio", "m", "k", "alphabet", "query_size", "query_avg_deg", "avg_deg", "n",
    }


def test_grid_defaults_have_one_definition():
    for fn in (MatchEngine, run_engine, recompute_stream_check):
        params = inspect.signature(fn).parameters
        assert params["m_groups"].default == M_GROUPS, fn
        assert params["k_cells"].default == K_CELLS, fn
    defaults = BenchConfig()
    assert (defaults.m_groups, defaults.k_cells) == (M_GROUPS, K_CELLS)
