"""Hashes of everything an engine answers on perfbench workloads.

    python3 tools/fingerprint.py --workload sw-delete-q20
    python3 tools/fingerprint.py
    python3 tools/fingerprint.py --check

With ``--workload`` it hashes that workload; without, every workload, each
as a block headed ``# <workload>``.  With ``--check`` it compares the
hashes against ``tools/fingerprints.txt`` instead of printing them, and
checks that the engine left no cyclic garbage: it names each differing
(workload, part) and each (workload, phase) that left some, and exits 1,
or exits 0 when all match and no phase left any.  Either way it names each
late query whose initial answers differ from its maintained twin's final
answers, and exits 1 if there is one.

For each workload, builds its inputs with ``perfbench/workloads.py`` at the
workload's default seed, registers every query
as ``q0``, ``q1``, ... and replays the stream once.  It then registers
every query again, as ``late0``, ``late1``, ...  It prints one SHA-256
per line for:

* ``index``:      ``engine.index.snapshot()`` right after construction,
  each grid's cells as ``[coords, rows]`` lists; this first read of the
  grid domain estimates it over the initial graph;
* ``scan_stats``: every query's per-vertex ``ScanStats``; a need scan
  examines the query vertex's whole label and prunes by count alone;
* ``candidates``: every query vertex's sorted ``scan_for_degree``
  candidates, scanned again with its need (``label_needs``) and no
  embedding right after registration, as registration scans, through the
  label columns;
* ``grid_scans``: for the first ``MARGIN_QUERIES`` queries (as many as
  perfbench's ``synopsis.grid_margin`` scans), each vertex's need-less
  ``scan_for_degree`` candidates in scan order and its ``ScanStats``,
  scanned right after registration with the vertex embedded by
  ``embed_query``: the grid path, which no engine path reads;
* ``initial``:    the answers right after registration;
* ``deltas``:     each op's non-empty per-query deltas, or that it raised;
* ``final``:      the answers after the last op;
* ``index_after``: ``engine.index.snapshot()`` after the last op: grids
  built over the updated graph with the degree groups and grid domain
  frozen over the initial one;
* ``late``:       every late query's sorted need-scan candidates and its
  initial answers, so registration after updates is covered too.

Two trees that print the same nine hashes built the same index, found the
same candidates with the same pruning counts, by need and by grid, and kept
the same answers after every op, grid the updated graph alike, and
register alike on it.

The collector is off while the engine is built, registers, replays and
registers again, and ``gc.collect()`` after each of those phases
(``build``, ``register`` with its grid scans, ``stream``, ``late``) counts
the unreachable objects that reference counting left, which the engine
keeps at zero: a reference cycle per update would make a stream pay for
the cyclic collector's passes.
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
from dsmatch.matcher import MatchEngine, embed_query, label_needs  # noqa: E402
from harness import MARGIN_QUERIES  # noqa: E402
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


def fingerprint(workload: str) -> tuple[dict[str, str], dict[str, int], list[str]]:
    """The workload's hashes by part, the cyclic garbage by phase, and the
    late queries whose initial answers differ from their twins' final
    answers."""
    wl = WORKLOADS[workload]
    inputs = make_inputs(wl, wl.default_seed)
    gc.collect()
    gc.disable()
    try:
        return replay(inputs)
    finally:
        gc.enable()


def candidates_of(engine: MatchEngine, names) -> dict[str, list]:
    """Per query, each vertex's sorted candidates, scanned with its need and,
    as registration scans, no embedding: a need scan reads none."""
    out = {}
    for name in names:
        q = engine.queries[name].query
        needs = label_needs(q)
        out[name] = [
            [qi, sorted(engine.index.scan_for_degree(
                (), q.degree(qi), q.labels[qi], needs[qi])[0])]
            for qi in q.vertex_order
        ]
    return out


def grid_scans_of(engine: MatchEngine, names, cfg) -> list[list]:
    """Per query vertex, its need-less grid scan's candidates in scan order
    and its ``ScanStats``, the query embedded afresh by ``embed_query``."""
    out = []
    for name in names:
        q = engine.queries[name].query
        embeds = embed_query(q, cfg)
        for qi in q.vertex_order:
            cands, stats = engine.index.scan_for_degree(embeds[qi], q.degree(qi), q.labels[qi])
            out.append([name, qi, list(cands), dataclasses.asdict(stats)])
    return out


def replay(inputs) -> tuple[dict[str, str], dict[str, int], list[str]]:
    """:func:`fingerprint` on built inputs, run with the collector off."""
    engine = MatchEngine(inputs.g0.copy(), inputs.cfg, inputs.m_groups, inputs.k_cells)
    garbage = {"build": gc.collect()}
    index = index_view(engine.index.snapshot())
    for i, q in enumerate(inputs.queries):
        engine.register(f"q{i}", q)
    grid_scans = grid_scans_of(engine, list(engine.queries)[:MARGIN_QUERIES], inputs.cfg)
    garbage["register"] = gc.collect()
    scan_stats = {
        name: [[qi, dataclasses.asdict(s)] for qi, s in rq.scan_stats.items()]
        for name, rq in engine.queries.items()
    }
    candidates = candidates_of(engine, list(engine.queries))
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
    final = answers(engine)
    index_after = index_view(engine.index.snapshot())
    late = [f"late{i}" for i in range(len(inputs.queries))]
    for name, q in zip(late, inputs.queries):
        engine.register(name, q)
    garbage["late"] = gc.collect()
    late_answers = {name: sorted(engine.queries[name].answers) for name in late}
    stale = [name for i, name in enumerate(late) if late_answers[name] != final[f"q{i}"]]
    hashes = {
        "index": digest(index),
        "scan_stats": digest(scan_stats),
        "candidates": digest(candidates),
        "grid_scans": digest(grid_scans),
        "initial": digest(initial),
        "deltas": digest(deltas),
        "final": digest(final),
        "index_after": digest(index_after),
        "late": digest([candidates_of(engine, late), late_answers]),
    }
    return hashes, garbage, stale


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="tools/fingerprint.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=list(WORKLOADS), help="default: every workload")
    p.add_argument("--check", action="store_true",
                   help="compare with tools/fingerprints.txt and check for cyclic garbage; "
                        "exit 1 on any difference or garbage")
    args = p.parse_args(argv)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    differing, littered, stale = [], [], []
    want = committed() if args.check else {}
    for workload in workloads:
        hashes, garbage, late = fingerprint(workload)
        stale += [(workload, name) for name in late]
        if args.check:
            differing += [(workload, part) for part, h in hashes.items()
                          if want.get((workload, part)) != h]
            littered += [(workload, phase, n) for phase, n in garbage.items() if n]
            continue
        if not args.workload:
            print(f"# {workload}")
        for part, h in hashes.items():
            print(f"{part:<10} {h}")
    if args.check:
        for workload, part in differing:
            print(f"differs: {workload} {part}")
        if not differing:
            print("all hashes match tools/fingerprints.txt")
        for workload, phase, n in littered:
            print(f"cyclic garbage: {workload} {phase} left {n} unreachable objects")
        if not littered:
            print("no cyclic garbage after build, register, stream or late")
    for workload, name in stale:
        print(f"late answers differ: {workload} {name}", file=sys.stderr)
    return 1 if differing or littered or stale else 0

if __name__ == "__main__":
    sys.exit(main())
