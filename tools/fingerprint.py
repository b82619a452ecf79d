"""Hashes of everything an engine answers on perfbench workloads.

    python3 tools/fingerprint.py --workload sw-delete-q20
    python3 tools/fingerprint.py
    python3 tools/fingerprint.py --check

With ``--workload`` it hashes that workload; without, every workload, each
as a block headed ``# <workload>``.  With ``--check`` it compares the
hashes against ``tools/fingerprints.txt`` instead of printing them, and
checks that the engine left no cyclic garbage: it names each differing
(workload, part) and each (workload, phase) that left some, and exits 1,
or exits 0 when all match and no phase left any.

For each workload, builds its inputs with ``perfbench/workloads.py`` at the
workload's default seed, registers every query
as ``q0``, ``q1``, ... and replays the stream once.  It prints one SHA-256
per line for:

* ``index``:      ``engine.index.snapshot()`` right after construction,
  each grid's cells as ``[coords, rows]`` lists;
* ``scan_stats``: every query's per-vertex ``ScanStats``;
* ``candidates``: every query vertex's sorted ``scan_for_degree``
  candidates, scanned again with its need (``label_needs``) right after
  registration, as registration scans;
* ``initial``:    the answers right after registration;
* ``deltas``:     each op's non-empty per-query deltas, or that it raised;
* ``final``:      the answers after the last op.

Two trees that print the same six hashes built the same index, found the
same candidates with the same pruning counts and kept the same answers
after every op.

The collector is off while the engine is built, registers and replays, and
``gc.collect()`` after each of those phases (``build``, ``register``,
``stream``) counts the unreachable objects that reference counting left,
which the engine keeps at zero: a reference cycle per update would make a
stream pay for the cyclic collector's passes.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from dsmatch.errors import DsmatchError  # noqa: E402
from dsmatch.matcher import MatchEngine, label_needs  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def answers(engine: MatchEngine) -> dict[str, list]:
    return {name: sorted(rq.answers) for name, rq in engine.queries.items()}


def index_view(snapshot: dict) -> dict:
    """A ``SynopsisIndex.snapshot()`` in canonical JSON form: cells as
    ``[coords, rows]`` lists and histograms as ``[vertex, pairs]`` lists,
    each sorted."""
    return {
        "domain": snapshot["domain"],
        "cutoffs": list(snapshot["cutoffs"]),
        "synopses": [sorted([list(c), rows] for c, rows in syn.items())
                     for syn in snapshot["synopses"]],
        "lists": sorted([v, pairs] for v, pairs in snapshot["lists"].items()),
    }


def committed() -> dict[tuple[str, str], str]:
    """The hashes in ``tools/fingerprints.txt``, by (workload, part)."""
    out, workload = {}, None
    for line in (ROOT / "tools" / "fingerprints.txt").read_text().splitlines():
        if line.startswith("# "):
            workload = line[2:]
        elif line:
            part, h = line.split()
            out[workload, part] = h
    return out


def fingerprint(workload: str) -> tuple[dict[str, str], dict[str, int]]:
    """The workload's hashes by part, and the cyclic garbage by phase."""
    wl = WORKLOADS[workload]
    inputs = make_inputs(wl, wl.default_seed)
    gc.collect()
    gc.disable()
    try:
        return replay(inputs)
    finally:
        gc.enable()


def replay(inputs) -> tuple[dict[str, str], dict[str, int]]:
    """:func:`fingerprint` on built inputs, run with the collector off."""
    engine = MatchEngine(inputs.g0.copy(), inputs.cfg, inputs.m_groups, inputs.k_cells)
    garbage = {"build": gc.collect()}
    index = index_view(engine.index.snapshot())
    for i, q in enumerate(inputs.queries):
        engine.register(f"q{i}", q)
    garbage["register"] = gc.collect()
    scan_stats = {
        name: [[qi, dataclasses.asdict(s)] for qi, s in rq.scan_stats.items()]
        for name, rq in engine.queries.items()
    }
    candidates = {}
    for name, rq in engine.queries.items():
        q, needs = rq.query, label_needs(rq.query)
        candidates[name] = [
            [qi, sorted(engine.index.scan_for_degree(
                rq.embeds[qi], q.degree(qi), q.labels[qi], needs[qi])[0])]
            for qi in q.vertex_order
        ]
    initial = answers(engine)
    deltas = []
    for op in inputs.stream:
        try:
            result = engine.process_update(op)
        except DsmatchError as exc:
            deltas.append(["raised", type(exc).__name__])
            continue
        deltas.append([
            [name, sorted(d.added), sorted(d.removed)]
            for name, d in result.deltas.items()
            if d.added or d.removed
        ])
    garbage["stream"] = gc.collect()
    hashes = {
        "index": digest(index),
        "scan_stats": digest(scan_stats),
        "candidates": digest(candidates),
        "initial": digest(initial),
        "deltas": digest(deltas),
        "final": digest(answers(engine)),
    }
    return hashes, garbage


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="tools/fingerprint.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=list(WORKLOADS), help="default: every workload")
    p.add_argument("--check", action="store_true",
                   help="compare with tools/fingerprints.txt and check for cyclic garbage; "
                        "exit 1 on any difference or garbage")
    args = p.parse_args(argv)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.check:
        want = committed()
        differing, littered = [], []
        for workload in workloads:
            hashes, garbage = fingerprint(workload)
            differing += [(workload, part) for part, h in hashes.items()
                          if want.get((workload, part)) != h]
            littered += [(workload, phase, n) for phase, n in garbage.items() if n]
        for workload, part in differing:
            print(f"differs: {workload} {part}")
        if not differing:
            print("all hashes match tools/fingerprints.txt")
        for workload, phase, n in littered:
            print(f"cyclic garbage: {workload} {phase} left {n} unreachable objects")
        if not littered:
            print("no cyclic garbage after build, register or stream")
        return 1 if differing or littered else 0
    for workload in workloads:
        if not args.workload:
            print(f"# {workload}")
        for part, h in fingerprint(workload)[0].items():
            print(f"{part:<10} {h}")
    return 0

if __name__ == "__main__":
    sys.exit(main())
