"""``tools/fingerprint.py``: its output layout with the hashing stubbed
out, and its hashes against the committed ``tools/fingerprints.txt``."""

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


@pytest.mark.slow
def test_fingerprints_match_committed_file(capsys):
    # tools/fingerprints.txt holds the tool's output for every workload; a
    # change that moves a hash on purpose rewrites the file
    tool = load_tool()
    assert tool.main([]) == 0
    assert capsys.readouterr().out == (TOOL.parent / "fingerprints.txt").read_text()
