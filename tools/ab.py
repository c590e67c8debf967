"""A/B the declared benchmark: a commit against its parent, pair by pair.

    python tools/ab.py [--change REF] [--workload W]... [--seed 1000]

Clones the repository twice into a temporary directory, one tree at the
change (default ``HEAD``; any commit object works, e.g. ``git stash
create``'s) and one at its first parent.
For each workload it then runs ``benchmarks/e2e/run.py --workload W
--seed S --seconds 10 --trace 0`` in both trees, alternating which side
goes first; pair ``i`` uses seed ``S + i`` on both sides, and both run
with ``PYTHONDONTWRITEBYTECODE=1``.  The 1-minute load average is
recorded before every run, and a pair where either run started above
the CPU count is dropped and replaced, up to twice as many attempts as
the 10 pairs.  It prints ``run.py``'s verdict and the
change's pair wins per workload x end-to-end metric, and appends every
raw run, kept or dropped, to ``benchmarks/ab/history.jsonl``, keyed by
(parent, change).  Exits 1 if any metric reads ``worse``, any run
failed a check or any kept run did not report a declared metric.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
from run import summarize, verdict  # noqa: E402

HISTORY = ROOT / "benchmarks" / "ab" / "history.jsonl"
SECONDS = 10
PAIRS = 10
MAX_LOAD = float(len(os.sched_getaffinity(0)))


def _git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def _tree(sha: str, into: Path) -> Path:
    """A clean clone of the repository checked out at ``sha``."""
    _git("clone", "-q", "--shared", "--no-checkout", str(ROOT), str(into))
    _git("checkout", "-q", "--detach", sha, cwd=into)
    return into


def _run(tree: Path, workload: str, seed: int) -> dict:
    """One declared-command run in ``tree``: its result line and load1."""
    load1 = os.getloadavg()[0]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"load1": load1, "correct": result["correct"] and done.returncode == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=1000)
    args = parser.parse_args(argv)
    change = _git("rev-parse", args.change)
    parent = _git("rev-parse", f"{change}^")
    declared = spec["end_to_end"]
    status = 0
    HISTORY.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        trees = {"parent": _tree(parent, Path(scratch) / "parent"),
                 "change": _tree(change, Path(scratch) / "change")}
        print(f"# parent {parent[:12]}  change {change[:12]}  "
              f"pairs {PAIRS}  max load1 {MAX_LOAD}")
        for workload in args.workload or names:
            kept = []
            for attempt in range(2 * PAIRS):
                if len(kept) == PAIRS:
                    break
                seed = args.seed + attempt
                order = ("parent", "change") if attempt % 2 == 0 else ("change", "parent")
                pair = {side: _run(trees[side], workload, seed) for side in order}
                calm = all(run["load1"] <= MAX_LOAD for run in pair.values())
                stamp = datetime.datetime.now(datetime.timezone.utc).isoformat(
                    timespec="seconds")
                with open(HISTORY, "a", encoding="utf-8") as handle:
                    for position, side in enumerate(order):
                        handle.write(json.dumps(dict(
                            pair[side], parent=parent, change=change, side=side,
                            workload=workload, seed=seed, first=position == 0,
                            kept=calm, recorded_at=stamp)) + "\n")
                if calm:
                    kept.append(pair)
            failed = sum(run["failed"] > 0 or not run["correct"]
                         for pair in kept for run in pair.values())
            if failed or len(kept) < PAIRS:
                status = 1
            print(f"# {workload}: {len(kept)} pairs kept, {failed} failed runs")
            for meta in declared:
                name, sign = meta["name"], 1 if meta["better"] == "lower" else -1
                missing = sum(name not in pair[side]["metrics"]
                              for pair in kept for side in pair)
                if not kept or missing:
                    status = 1
                    print(f"{workload:<14} {name:<12} missing from {missing} "
                          f"of {2 * len(kept)} kept runs")
                    continue
                sides = {side: [pair[side]["metrics"][name] for pair in kept]
                         for side in ("parent", "change")}
                a, b = summarize(sides["parent"]), summarize(sides["change"])
                result = verdict(a, b, meta["better"], meta["bound"])
                wins = sum(sign * (y - x) < 0
                           for x, y in zip(sides["parent"], sides["change"]))
                status |= result == "worse"
                print(f"{workload:<14} {name:<12} {a['median']:>10.5g} -> "
                      f"{b['median']:<10.5g} {(b['median'] / a['median'] - 1):+7.1%}"
                      f"  wins {wins}/{len(kept)}  {result}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
