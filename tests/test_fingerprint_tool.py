"""``tools/fingerprint.py``: its output layout and its ``--check`` verdicts
with the hashing stubbed out, and its hashes against the committed
``tools/fingerprints.txt``."""

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
    monkeypatch.setattr(tool, "fingerprint", lambda w: {"scan_stats": f"h-{w}", "final": "f"})
    assert tool.main(["--workload", "sw-delete-q20"]) == 0
    assert capsys.readouterr().out == "scan_stats h-sw-delete-q20\nfinal      f\n"
    assert tool.main([]) == 0
    want = "".join(f"# {w}\nscan_stats h-{w}\nfinal      f\n" for w in tool.WORKLOADS)
    assert capsys.readouterr().out == want
    assert list(tool.WORKLOADS) == ["sw-insert-q100", "hub-mixed-q20", "sw-delete-q20"]


def test_check_names_each_differing_hash_and_exits_1(monkeypatch, capsys):
    tool = load_tool()
    want = tool.committed()
    assert len(want) == 6 * len(tool.WORKLOADS)

    def committed_parts(workload):
        return {part: h for (w, part), h in want.items() if w == workload}

    monkeypatch.setattr(tool, "fingerprint", committed_parts)
    assert tool.main(["--check"]) == 0
    assert capsys.readouterr().out == "all hashes match tools/fingerprints.txt\n"

    def two_moved(workload):
        parts = committed_parts(workload)
        if workload == "hub-mixed-q20":
            parts["deltas"] = "0" * 64
        if workload == "sw-delete-q20":
            parts["scan_stats"] = "1" * 64
        return parts

    monkeypatch.setattr(tool, "fingerprint", two_moved)
    assert tool.main(["--check"]) == 1
    assert capsys.readouterr().out == (
        "differs: hub-mixed-q20 deltas\ndiffers: sw-delete-q20 scan_stats\n"
    )
    assert tool.main(["--check", "--workload", "sw-insert-q100"]) == 0
    assert tool.main(["--check", "--workload", "sw-delete-q20"]) == 1
    assert capsys.readouterr().out.endswith("differs: sw-delete-q20 scan_stats\n")


@pytest.mark.slow
def test_fingerprints_match_committed_file(capsys):
    # tools/fingerprints.txt holds the tool's output for every workload; a
    # change that moves a hash on purpose rewrites the file
    tool = load_tool()
    assert tool.main([]) == 0
    assert capsys.readouterr().out == (TOOL.parent / "fingerprints.txt").read_text()
