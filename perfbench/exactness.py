"""Exactness gate: the engine's answers against the brute-force oracle.

The stream prefix the engine applied is replayed on an independent copy of
the initial graph, and every query is enumerated from scratch with
:func:`dsmatch.oracle.enumerate_matches` before and after it.  Per query
the gate checks that

* the initial answer set equals the oracle's on the initial graph;
* every delta is exact: each added answer was absent and each removed
  answer present when the op arrived;
* initial + added - removed equals the engine's final answer set;
* the final answer set equals the oracle's on the replayed graph.
"""

from __future__ import annotations

from dsmatch.graph import DynamicGraph, UpdateOp
from dsmatch.oracle import enumerate_matches

Delta = tuple[str, frozenset, frozenset]  # (query name, added, removed)


def check(
    g0: DynamicGraph,
    applied: list[UpdateOp],
    queries: dict,
    initial: dict[str, frozenset],
    deltas: list[Delta],
    final: dict[str, frozenset],
) -> list[str]:
    """Every divergence found, as one line each; empty when exact."""
    problems = []
    live = {name: set(answers) for name, answers in initial.items()}
    for name, added, removed in deltas:
        cur = live[name]
        if not removed <= cur:
            problems.append(f"{name}: removed {len(removed - cur)} answers it did not hold")
        cur -= removed
        if added & cur:
            problems.append(f"{name}: added {len(added & cur)} answers it already held")
        cur |= added

    replay = g0.copy()
    for op in applied:
        replay.apply_update(op)
    for name, q in queries.items():
        if enumerate_matches(g0, q) != initial[name]:
            problems.append(f"{name}: initial answers differ from the oracle")
        if live[name] != final[name]:
            problems.append(f"{name}: initial + added - removed differs from final answers")
        if enumerate_matches(replay, q) != final[name]:
            problems.append(f"{name}: final answers differ from the oracle")
    return problems
