"""``tools/bench_record.py``: it parses perfbench's output, its summaries
and verdicts are right on synthetic pairs, it alternates which tree runs
first, it records the src tree each side ran, and it exits nonzero on a
run that reports ``correct: false``, whose record it still writes.
Perfbench itself is never run here."""

import importlib.util
import json
from contextlib import contextmanager
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"

# perfbench/run.py --workload sw-delete-q20 at its default seed, untraced
CAPTURED = """\
workload sw-delete-q20, seed 3: |V|=20000 |E|=50105, 5010 ops (0 inserts, 5010 deletes), \
20 queries; generated in 0.4 s
1 warm-up replays; stream figures are the median of replays 2-5
  replay 1:  160557.74 updates/s  p50       5.68 us  p99       9.28 us  \
(machine at 0.72x the reference speed)
  replay 2:  152550.59 updates/s  p50       6.41 us  p99       9.08 us  \
(machine at 0.76x the reference speed)
  replay 3:  152481.99 updates/s  p50       6.41 us  p99       9.12 us  \
(machine at 0.78x the reference speed)
  replay 4:  152629.07 updates/s  p50       6.41 us  p99       8.81 us  \
(machine at 0.77x the reference speed)
  replay 5:  155653.52 updates/s  p50       6.28 us  p99       8.25 us  \
(machine at 0.72x the reference speed)
  set-up: 0.2447 0.2442 0.2564 s
setup_s                  0.2447 s    (median of 3 engine builds)
register_s               0.2203 s    (20 queries)
stream_ups          152589.8276 1/s  (5010 updates per replay)
update_us_p50            6.4092 us   (n=5010 per replay)
update_us_p99            8.9458 us   (n=5010 per replay, 50 samples beyond)
peak_rss_mb             52.0898 MB   (read before the exactness gate)
ops failed: 0 of 25050
exactness gate: passed
{"correct": true, "attempted": 25050, "failed": 0, "metrics": \
{"setup_s": {"value": 0.2447108877268503, "unit": "s"}, \
"register_s": {"value": 0.22032364991519418, "unit": "s"}, \
"stream_ups": {"value": 152589.8275656768, "unit": "1/s"}, \
"update_us_p50": {"value": 6.409187841630296, "unit": "us"}, \
"update_us_p99": {"value": 8.9458144335585, "unit": "us"}, \
"peak_rss_mb": {"value": 52.08984375, "unit": "MB"}}}
"""

# the same with --seconds 1 --plant-wrong-answer: the exactness gate fails
# before the measured replays, so the result holds no metric
PLANTED = """\
workload sw-delete-q20, seed 3: |V|=20000 |E|=50105, 5010 ops (0 inserts, 5010 deletes), \
20 queries; generated in 0.2 s
EXACTNESS: q0: initial + added - removed differs from final answers
EXACTNESS: q0: final answers differ from the oracle
exactness gate: FAILED
{"correct": false, "attempted": 5010, "failed": 0, "metrics": {}}
"""

METRICS = ["setup_s", "register_s", "stream_ups", "update_us_p50", "update_us_p99", "peak_rss_mb"]


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_record_tool", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def run(values, correct=True, seed=3):
    """A parsed run whose metrics take ``values``, in ``METRICS`` order."""
    return {"seed": seed, "correct": correct, "attempted": 10, "failed": 0,
            "metrics": dict(zip(METRICS, values)), "speeds": [1.0]}


def test_parses_captured_perfbench_output():
    tool = load_tool()
    rec = tool.parse(CAPTURED)
    assert rec == {
        "seed": 3,
        "correct": True,
        "attempted": 25050,
        "failed": 0,
        "metrics": {
            "setup_s": 0.2447108877268503,
            "register_s": 0.22032364991519418,
            "stream_ups": 152589.8275656768,
            "update_us_p50": 6.409187841630296,
            "update_us_p99": 8.9458144335585,
            "peak_rss_mb": 52.08984375,
        },
        "speeds": [0.72, 0.76, 0.78, 0.77, 0.72],
    }
    assert list(rec["metrics"]) == list(tool.benchmark()["metrics"]) == METRICS


@pytest.mark.parametrize("stdout", ["", "perfbench: no dsmatch sources under src\n",
                                    CAPTURED.rsplit("\n", 2)[0] + "\n"])
def test_output_without_a_result_raises(stdout):
    tool = load_tool()
    with pytest.raises(tool.NoResult):
        tool.parse(stdout)


def test_verdicts_on_synthetic_pairs():
    tool = load_tool()
    # per metric, the working tree's runs against the other tree's, pair by pair
    base = [[1.0, 1.0, 100.0, 10.0, 20.0, 50.0] for _ in range(4)]
    new = [
        [0.5, 1.30, 70.0, 9.0, 21.0, 52.0],
        [0.6, 1.20, 80.0, 11.0, 21.0, 52.0],
        [0.7, 1.40, 90.0, 9.5, 19.0, 52.0],
        [1.1, 1.20, 101.0, 9.5, 21.0, 53.0],
    ]
    summary = tool.summarize([run(v) for v in new], [run(v) for v in base])
    # lower is better: 3 of 4 won, median -35%
    assert summary["setup_s"]["median"] == pytest.approx(0.65)
    assert summary["setup_s"]["pairs_won"] == 3
    assert summary["setup_s"]["change"] == pytest.approx(-0.35)
    assert summary["setup_s"]["within_bound"]
    # lower is better, median +25% against a bound of 0.25: just within
    assert summary["register_s"]["pairs_won"] == 0
    assert summary["register_s"]["median"] == pytest.approx(1.25)
    assert summary["register_s"]["within_bound"]
    # higher is better: median 85 is -15%, within 0.25; one pair won
    assert summary["stream_ups"]["pairs_won"] == 1
    assert summary["stream_ups"]["within_bound"]
    assert summary["update_us_p50"]["pairs_won"] == 3
    assert summary["update_us_p99"]["pairs_won"] == 1
    # peak_rss_mb's bound is 0.05: +4% is within it, +6% is not
    assert summary["peak_rss_mb"]["within_bound"]
    assert summary["peak_rss_mb"]["bound"] == 0.05
    worse = tool.summarize([run([1.0] * 5 + [53.0])] * 4, [run(v) for v in base])
    assert not worse["peak_rss_mb"]["within_bound"]
    slower = tool.summarize([run([1.0, 1.0, 74.0, 10.0, 20.0, 50.0])] * 4, [run(v) for v in base])
    assert not slower["stream_ups"]["within_bound"]
    assert all(row["pairs"] == 4 for row in summary.values())
    assert summary["setup_s"]["quartiles"] == pytest.approx((0.575, 0.8))
    assert summary["setup_s"]["against_quartiles"] == (1.0, 1.0)
    # 3 of 4 pairs won is short of nine tenths: no claim, however large the gap
    assert not any(row["claim_met"] for row in summary.values())


def test_claims_need_nine_tenths_of_pairs_and_a_gap_past_the_spread():
    tool = load_tool()
    # the other tree's setup_s runs 1.0 to 1.9, quartiles (1.225, 1.675):
    # a spread of 0.45 about a median of 1.45
    base = [[1.0 + i / 10, 1.0, 100.0, 10.0, 20.0, 50.0] for i in range(10)]
    assert tool.quartiles([r[0] for r in base]) == pytest.approx((1.225, 1.675))

    def summary(setup, ups):
        # the working tree's runs: pair i reads setup[i] s and ups[i] 1/s
        new = [[s, 1.0, u, 10.0, 20.0, 50.0] for s, u in zip(setup, ups)]
        return tool.summarize([run(v) for v in new], [run(v) for v in base])

    # every pair won and a median of 0.95, 0.5 below the other's: met.
    # Higher is better for stream_ups: 9 of 10 pairs won by 10 against a
    # spread of 0, so met too
    met = summary([0.5 + i / 10 for i in range(10)], [110.0] * 9 + [100.0])
    assert met["setup_s"]["pairs_won"] == 10 and met["setup_s"]["claim_met"]
    assert met["stream_ups"]["pairs_won"] == 9 and met["stream_ups"]["claim_met"]
    assert not met["register_s"]["claim_met"]  # ten ties win nothing
    # every pair won but a median of 1.05, 0.4 below the other's, inside
    # its spread; stream_ups won 8 of 10, under nine tenths: neither met
    unmet = summary([0.6 + i / 10 for i in range(10)], [110.0] * 8 + [100.0] * 2)
    assert unmet["setup_s"]["pairs_won"] == 10 and not unmet["setup_s"]["claim_met"]
    assert unmet["stream_ups"]["pairs_won"] == 8 and not unmet["stream_ups"]["claim_met"]


def test_runs_alone_have_no_verdict():
    tool = load_tool()
    summary = tool.summarize([run([float(i)] * 6) for i in (1, 2, 3)], None)
    assert summary["setup_s"] == {"median": 2.0, "quartiles": (1.5, 2.5)}
    assert tool.quartiles([4.0]) == (4.0, 4.0)


def stub_trees(monkeypatch, tool, results):
    """Run perfbench from ``results[tree]`` in turn, and log each tree run."""
    order = []

    def fake_run(tree, args):
        name = "work" if tree == tool.ROOT else "other"
        order.append(name)
        assert args[:2] == ["--workload", "sw-delete-q20"]
        return results[name].pop(0)

    @contextmanager
    def fake_checkout(rev):
        yield Path("/nonexistent/other")

    monkeypatch.setattr(tool, "run_perfbench", fake_run)
    monkeypatch.setattr(tool, "checkout", fake_checkout)
    monkeypatch.setattr(tool, "git", lambda *args, **kw: "abc123")
    return order


def test_pairs_alternate_and_the_record_is_written(monkeypatch, tmp_path, capsys):
    tool = load_tool()
    results = {"work": [run([0.5] * 6) for _ in range(4)],
               "other": [run([1.0] * 6) for _ in range(4)]}
    order = stub_trees(monkeypatch, tool, results)
    out = tmp_path / "bench.json"
    args = ["--workload", "sw-delete-q20", "--runs", "4", "--against", "HEAD~1", "--out", str(out)]
    assert tool.main(args) == 0
    assert order == ["work", "other", "other", "work", "work", "other", "other", "work"]
    rec = json.loads(out.read_text())
    assert rec["commit"] == rec["against"] == "abc123"
    assert rec["seed"] == 3 and rec["correct"]
    assert rec["python"].count(".") == 2
    assert len(rec["runs"]) == len(rec["against_runs"]) == 4
    assert rec["summary"]["register_s"]["pairs_won"] == 4
    assert rec["summary"]["register_s"]["claim_met"]
    assert not rec["summary"]["stream_ups"]["within_bound"]  # higher is better there
    out = capsys.readouterr().out
    assert "written to" in out
    assert "won 4/4 within bound 0.25 claim met" in out
    assert "won 0/4 OUTSIDE bound 0.25 claim not met" in out


def test_a_run_that_is_not_correct_exits_nonzero(monkeypatch, tmp_path, capsys):
    tool = load_tool()
    results = {"work": [run([1.0] * 6), run([1.0] * 6, correct=False)],
               "other": [run([1.0] * 6) for _ in range(2)]}
    stub_trees(monkeypatch, tool, results)
    out = tmp_path / "bench.json"
    args = ["--workload", "sw-delete-q20", "--runs", "2", "--against", "HEAD~1", "--out", str(out)]
    assert tool.main(args) == 1
    assert not json.loads(out.read_text())["correct"]
    assert "correct: false" in capsys.readouterr().err
    # alone, too
    stub_trees(monkeypatch, tool, {"work": [run([1.0] * 6, correct=False)]})
    assert tool.main(["--workload", "sw-delete-q20", "--runs", "1", "--out", str(out)]) == 1


def test_a_failed_gate_writes_a_record_without_a_summary(monkeypatch, tmp_path, capsys):
    tool = load_tool()
    planted = tool.parse(PLANTED)
    assert planted == {"seed": 3, "correct": False, "attempted": 5010, "failed": 0,
                       "metrics": {}, "speeds": []}
    out = tmp_path / "bench.json"
    stub_trees(monkeypatch, tool, {"work": [planted], "other": [run([1.0] * 6)]})
    args = ["--workload", "sw-delete-q20", "--runs", "1", "--out", str(out)]
    assert tool.main([*args, "--against", "HEAD~1"]) == 1
    rec = json.loads(out.read_text())
    assert rec["correct"] is False and rec["summary"] is None
    assert rec["runs"] == [planted]
    assert "correct: false" in capsys.readouterr().err
    stub_trees(monkeypatch, tool, {"work": [tool.parse(PLANTED)]})
    assert tool.main(args) == 1
    assert json.loads(out.read_text())["summary"] is None


def test_a_run_without_a_result_exits_2(monkeypatch, tmp_path, capsys):
    tool = load_tool()
    stub_trees(monkeypatch, tool, {})
    monkeypatch.setattr(tool, "run_perfbench", lambda tree, args: tool.parse(""))
    out = tmp_path / "bench.json"
    assert tool.main(["--workload", "sw-delete-q20", "--runs", "1", "--out", str(out)]) == 2
    assert not out.exists()
    assert "no perfbench result" in capsys.readouterr().err


def throwaway_repo(monkeypatch, tool, root):
    """A git repository at ``root`` holding BENCH_x.json and src/engine.py
    in one commit, which the tool's git commands then run in; perfbench
    runs return fixed results.  Returns a git runner for ``root``."""
    git = tool.git

    def git_in_repo(*args, **kw):
        return git(*args, cwd=root)

    (root / "src").mkdir()
    for name in ("BENCH_x.json", "src/engine.py"):
        (root / name).write_text("1\n")
    git_in_repo("init", "-q")
    git_in_repo("add", "-A")
    commit(git_in_repo, "init")
    monkeypatch.setattr(tool, "git", git_in_repo)
    monkeypatch.setattr(tool, "run_perfbench", lambda tree, args: run([1.0] * 6))
    return git_in_repo


def commit(git_in_repo, message):
    git_in_repo("-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false",
                "commit", "-q", "-a", "-m", message)


def test_uncommitted_changes_ignore_the_records_the_tool_writes(monkeypatch, tmp_path):
    # a second record in one tree must not count the BENCH_*.json the first wrote
    tool = load_tool()
    throwaway_repo(monkeypatch, tool, tmp_path)
    (tmp_path / "BENCH_x.json").write_text("2\n")
    assert tool.record("sw-delete-q20", 1, None, [])["uncommitted_changes"] is False
    (tmp_path / "src" / "engine.py").write_text("2\n")
    assert tool.record("sw-delete-q20", 1, None, [])["uncommitted_changes"] is True


def test_the_record_names_the_src_tree_each_side_ran(monkeypatch, tmp_path):
    # the src tree hash matches any commit with the same sources: the
    # working tree's includes its uncommitted edits, and a record names the
    # compared commit's too; neither counts files outside src
    tool = load_tool()
    git = throwaway_repo(monkeypatch, tool, tmp_path)
    monkeypatch.setattr(tool, "checkout", lambda rev: contextmanager(lambda: (yield tmp_path))())
    first = git("rev-parse", "HEAD:src")
    assert tool.record("sw-delete-q20", 1, None, [])["src_tree"] == first
    (tmp_path / "BENCH_x.json").write_text("2\n")
    assert tool.record("sw-delete-q20", 1, None, [])["src_tree"] == first
    (tmp_path / "src" / "engine.py").write_text("2\n")
    edited = tool.record("sw-delete-q20", 1, "HEAD", [])
    assert edited["src_tree"] != first and edited["against_src_tree"] == first
    # recording left the edits where they were
    assert git("diff", "--name-only").splitlines() == ["BENCH_x.json", "src/engine.py"]
    assert git("stash", "list") == ""
    commit(git, "edit")
    assert git("rev-parse", "HEAD:src") == edited["src_tree"]
    assert tool.record("sw-delete-q20", 1, "HEAD~1", [])["against_src_tree"] == first
