"""Record perfbench runs, alone or paired against another commit, in BENCH_<workload>.json.

    python3 tools/bench_record.py --workload sw-delete-q20 --runs 10
    python3 tools/bench_record.py --workload sw-delete-q20 --runs 10 --against HEAD~1

Runs ``perfbench/run.py`` ``--runs`` times, each in a fresh interpreter, and
parses each run's last line, the JSON result, and its gauge readings (the
``machine at ...x`` lines).  With ``--against REV`` it checks REV out into
a temporary ``git worktree`` and runs the two trees in ``--runs`` pairs,
alternating which tree runs first, then removes the worktree.  The
working tree runs as it stands, uncommitted edits included; the record
says whether it had any.

``BENCH_<workload>.json`` (in the repository root unless ``--out`` says
otherwise) holds the commit and the one compared against, the hash of the
``src`` tree each ran (``git rev-parse <rev>:src``, the working tree's with
its uncommitted edits to tracked files), so a record matches every commit
with the same sources, the seed, the Python version, every run, and per
end-to-end metric of ``BENCHMARK.json``: the median and quartiles of each
tree's runs, and with ``--against`` the pairs the working tree won, the
metric's bound, whether the working tree's median stayed within it, and
whether a gain may be claimed (``claim_met``): the working tree won at
least nine tenths of the pairs, ties counting for neither, and its median
beats the other tree's by more than that tree's quartile spread.
The tool exits 1 if any run reported ``correct: false``; that record has
no summary, as a failed exactness gate stops perfbench before it measures
anything.  It exits 2 if a run printed no result.
"""

from __future__ import annotations

import argparse
import functools
import json
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SEED = re.compile(r"^workload \S+, seed (-?\d+):", re.M)
_SPEED = re.compile(r"\(machine at ([0-9.]+)x the reference speed\)")


@functools.cache
def benchmark() -> dict:
    """``BENCHMARK.json``, with its end-to-end metrics by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec["metrics"] = {m["name"]: m for m in spec["end_to_end"]}
    return spec


class NoResult(Exception):
    """A perfbench run printed no JSON result."""


def parse(stdout: str) -> dict:
    """One run's record from perfbench's standard output: its seed, result
    fields, metric values and gauge speeds."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        seed = int(_SEED.search(stdout).group(1))
    except (IndexError, ValueError, AttributeError) as exc:
        raise NoResult(f"no perfbench result in output ending {lines[-3:]}") from exc
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "speeds": [float(x) for x in _SPEED.findall(stdout)],
    }


def run_perfbench(tree: Path, args: list[str]) -> dict:
    """One perfbench run of ``tree`` with the same interpreter as this tool."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=tree, capture_output=True, text=True
    )
    return parse(proc.stdout)


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def worktree_commit() -> str:
    """A dangling commit of the working tree's edits to tracked files, or
    HEAD without any; the identity it names is a placeholder."""
    made = git("-c", "user.name=bench_record", "-c", "user.email=bench_record@localhost",
               "stash", "create")
    return made or "HEAD"


@contextmanager
def checkout(rev: str):
    """REV checked out, detached, in a temporary worktree."""
    with tempfile.TemporaryDirectory(prefix="bench_record-") as tmp:
        tree = Path(tmp) / "tree"
        git("worktree", "add", "--detach", str(tree), rev)
        try:
            yield tree
        finally:
            git("worktree", "remove", "--force", str(tree))


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def better(metric: str, x: float, y: float) -> bool:
    """x is strictly better than y."""
    return x < y if benchmark()["metrics"][metric]["better"] == "lower" else x > y


def within_bound(metric: str, new: float, old: float) -> bool:
    """``new`` is not worse than ``old`` by more than the metric's bound."""
    spec = benchmark()["metrics"][metric]
    bound = spec["bound"]
    if spec["better"] == "lower":
        return new <= old * (1 + bound)
    return new >= old * (1 - bound)


def claim_met(metric: str, won: int, pairs: int, new: float, old: float,
              spread: float) -> bool:
    """A gain may be claimed: ``won`` of ``pairs`` is at least nine tenths,
    and the median ``new`` beats ``old`` by more than ``spread``."""
    gap = old - new if benchmark()["metrics"][metric]["better"] == "lower" else new - old
    return 10 * won >= 9 * pairs and gap > spread


def summarize(runs: list[dict], against: list[dict] | None) -> dict:
    """Per end-to-end metric, each tree's median and quartiles and, given
    the paired runs of ``against``, the pairs won, the bound, whether the
    median stayed within it and whether a gain may be claimed."""
    out = {}
    for metric, spec in benchmark()["metrics"].items():
        xs = [r["metrics"][metric] for r in runs]
        row = {"median": statistics.median(xs), "quartiles": quartiles(xs)}
        if against is not None:
            ys = [r["metrics"][metric] for r in against]
            base, (q1, q3) = statistics.median(ys), quartiles(ys)
            won = sum(better(metric, x, y) for x, y in zip(xs, ys))
            row.update(
                against_median=base,
                against_quartiles=(q1, q3),
                change=row["median"] / base - 1,
                pairs_won=won,
                pairs=len(xs),
                bound=spec["bound"],
                within_bound=within_bound(metric, row["median"], base),
                claim_met=claim_met(metric, won, len(xs), row["median"], base, q3 - q1),
            )
        out[metric] = row
    return out


def record(workload: str, n: int, rev: str | None, extra: list[str]) -> dict:
    """Run the benchmark n times, or n pairs against rev, alternating which
    tree runs first, and build the record."""
    args = ["--workload", workload, *extra]
    runs, against = [], None
    if rev is None:
        runs = [run_perfbench(ROOT, args) for _ in range(n)]
    else:
        against = []
        with checkout(rev) as tree:
            for i in range(n):
                order = [(runs, ROOT), (against, tree)]
                for out, at in order if i % 2 == 0 else reversed(order):
                    out.append(run_perfbench(at, args))
    every = runs + (against or [])
    correct = all(r["correct"] for r in every)
    return {
        "workload": workload,
        "commit": git("rev-parse", "HEAD"),
        "src_tree": git("rev-parse", f"{worktree_commit()}:src"),
        # the BENCH_*.json files this tool rewrites are not changes to what it measures
        "uncommitted_changes": bool(
            git("status", "--porcelain", "--untracked-files=no", "--", ":(exclude)BENCH_*.json")
        ),
        "against": git("rev-parse", rev) if rev else None,
        "against_src_tree": git("rev-parse", f"{rev}:src") if rev else None,
        "seed": every[0]["seed"],
        "python": platform.python_version(),
        "perfbench_args": args,
        "summary": summarize(runs, against) if correct else None,
        "runs": runs,
        "against_runs": against,
        "correct": correct,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="tools/bench_record.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in benchmark()["workloads"]])
    p.add_argument("--runs", type=int, default=10, help="runs, or pairs with --against")
    p.add_argument("--against", metavar="REV", help="commit to pair every run with")
    p.add_argument("--seed", type=int, help="passed to perfbench (default: the workload's)")
    p.add_argument("--out", type=Path, help="default: BENCH_<workload>.json in the repo root")
    args = p.parse_args(argv)
    if args.runs < 1:
        p.error("--runs must be at least 1")
    extra = [] if args.seed is None else ["--seed", str(args.seed)]
    try:
        rec = record(args.workload, args.runs, args.against, extra)
    except NoResult as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 2
    out = args.out or ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(rec, indent=1) + "\n")
    for metric, row in (rec["summary"] or {}).items():
        line = f"{metric:<14} {row['median']:14.4f}"
        if args.against:
            line += (f" against {row['against_median']:14.4f} ({100 * row['change']:+6.1f}%)"
                     f" won {row['pairs_won']}/{row['pairs']}"
                     f" {'within' if row['within_bound'] else 'OUTSIDE'} bound {row['bound']}"
                     f" claim {'met' if row['claim_met'] else 'not met'}")
        print(line)
    print(f"written to {out}")
    if not rec["correct"]:
        print("bench_record: a run reported correct: false", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
