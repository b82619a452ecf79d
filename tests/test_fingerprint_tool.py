"""``tools/fingerprint.py``: its output layout and its ``--check`` verdicts
on hashes, cyclic garbage and late answers with the replay stubbed out,
its garbage counts, and its hashes against the committed
``tools/fingerprints.txt``."""

import gc
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("fingerprint_tool", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_one_workload_prints_bare_lines_and_none_prints_every_block(monkeypatch, capsys):
    tool = load_tool()
    monkeypatch.setattr(
        tool, "fingerprint", lambda w: ({"scan_stats": f"h-{w}", "final": "f"}, {"stream": 0}, []))
    assert tool.main(["--workload", "sw-delete-q20"]) == 0
    assert capsys.readouterr().out == "scan_stats h-sw-delete-q20\nfinal      f\n"
    assert tool.main([]) == 0
    want = "".join(f"# {w}\nscan_stats h-{w}\nfinal      f\n" for w in tool.WORKLOADS)
    assert capsys.readouterr().out == want
    assert list(tool.WORKLOADS) == ["sw-insert-q100", "hub-mixed-q20", "sw-delete-q20"]


def test_check_names_each_differing_hash_and_exits_1(monkeypatch, capsys):
    tool = load_tool()
    want = tool.committed()
    assert len(want) == 9 * len(tool.WORKLOADS)

    def committed_parts(workload):
        return {part: h for (w, part), h in want.items() if w == workload}

    clean = {"build": 0, "register": 0, "stream": 0, "late": 0}
    monkeypatch.setattr(tool, "fingerprint", lambda w: (committed_parts(w), clean, []))
    assert tool.main(["--check"]) == 0
    assert capsys.readouterr().out == (
        "all hashes match tools/fingerprints.txt\n"
        "no cyclic garbage after build, register, stream or late\n"
    )

    def two_moved(workload):
        parts = committed_parts(workload)
        if workload == "hub-mixed-q20":
            parts["deltas"] = "0" * 64
        if workload == "sw-delete-q20":
            parts["scan_stats"] = "1" * 64
        return parts, clean, []

    monkeypatch.setattr(tool, "fingerprint", two_moved)
    assert tool.main(["--check"]) == 1
    assert capsys.readouterr().out == (
        "differs: hub-mixed-q20 deltas\ndiffers: sw-delete-q20 scan_stats\n"
        "no cyclic garbage after build, register, stream or late\n"
    )
    assert tool.main(["--check", "--workload", "sw-insert-q100"]) == 0
    assert tool.main(["--check", "--workload", "sw-delete-q20"]) == 1
    assert "differs: sw-delete-q20 scan_stats\n" in capsys.readouterr().out


def test_check_names_each_phase_that_left_cyclic_garbage_and_exits_1(monkeypatch, capsys):
    # every hash matches, but one phase of one workload left reference cycles
    tool = load_tool()
    want = tool.committed()

    def littered(workload):
        garbage = {"build": 0, "register": 0, "stream": 0, "late": 0}
        if workload == "sw-insert-q100":
            garbage["register"] = 2100
        return {part: h for (w, part), h in want.items() if w == workload}, garbage, []

    monkeypatch.setattr(tool, "fingerprint", littered)
    assert tool.main(["--check"]) == 1
    assert capsys.readouterr().out == (
        "all hashes match tools/fingerprints.txt\n"
        "cyclic garbage: sw-insert-q100 register left 2100 unreachable objects\n"
    )
    assert tool.main(["--check", "--workload", "hub-mixed-q20"]) == 0


def test_late_answers_that_differ_are_named_and_exit_1(monkeypatch, capsys):
    # every hash matches and no phase left garbage, but one late query's
    # initial answers differ from its maintained twin's final answers: both
    # modes name it on stderr and exit 1
    tool = load_tool()
    want = tool.committed()
    clean = {"build": 0, "register": 0, "stream": 0, "late": 0}

    def stale(workload):
        late = ["late3"] if workload == "hub-mixed-q20" else []
        return {part: h for (w, part), h in want.items() if w == workload}, clean, late

    monkeypatch.setattr(tool, "fingerprint", stale)
    assert tool.main(["--check"]) == 1
    out = capsys.readouterr()
    assert out.out.startswith("all hashes match tools/fingerprints.txt\n")
    assert out.err == "late answers differ: hub-mixed-q20 late3\n"
    assert tool.main([]) == 1
    assert capsys.readouterr().err == "late answers differ: hub-mixed-q20 late3\n"
    assert tool.main(["--check", "--workload", "sw-delete-q20"]) == 0


def test_garbage_is_counted_in_the_phase_that_left_it(monkeypatch):
    # a cycle made per registration is counted, and freed, in the phase
    # that registered: register, and late for the second registrations;
    # the collector is back on afterwards
    tool = load_tool()
    register = tool.MatchEngine.register

    def leaky(self, name, q):
        cycle = []
        cycle.append(cycle)
        return register(self, name, q)

    monkeypatch.setattr(tool.MatchEngine, "register", leaky)
    _, garbage, stale = tool.fingerprint("sw-delete-q20")
    # one list per query, registered before the stream and again after it
    assert garbage == {"build": 0, "register": 20, "stream": 0, "late": 20}
    assert stale == []  # every late query starts from its twin's final answers
    assert gc.isenabled()


@pytest.mark.slow
def test_fingerprints_match_committed_file(capsys):
    # tools/fingerprints.txt holds the tool's output for every workload; a
    # change that moves a hash on purpose rewrites the file
    tool = load_tool()
    assert tool.main([]) == 0
    assert capsys.readouterr().out == (TOOL.parent / "fingerprints.txt").read_text()
