"""The repo's benchmark: five workloads over simulate → archive → plan.

Two forms (see ``README.md``):

* ``run.py --workload NAME --seed N --seconds S --trace 0|1`` — one
  measured run in this process (``measure.py``); the command
  ``BENCHMARK.json`` declares.
* ``run.py [--workload NAME]... [--runs N] [--seed S] [--smoke]
  [--trace] [--record] [--out DIR]`` — the harness: every workload N
  times, each run in a fresh child process of the first form, printed as
  median, quartiles and sample count per metric.  ``--compare A B``
  compares two recorded sets instead of running anything.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from measure import environment, load_spec, measure

HERE = Path(__file__).resolve().parent
HISTORY = HERE / "history.jsonl"
#: A smoke run measures for this long (one iteration, in practice).
SMOKE_SECONDS = 0.05
#: What a child spends outside its measuring loop: start-up, warm-up,
#: one overrunning iteration, twin verification.
CHILD_OVERHEAD_S = 15.0


def summarize(values: List[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def run_child(workload: str, seed: int, seconds: float, trace: int,
              smoke: bool = False, out: Optional[str] = None) -> dict:
    """One measured run in a fresh process; a crash is a failed run."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        *(["--smoke"] if smoke else []),
        *(["--out", out] if out else []),
    ]
    # Own session, so a timeout can take the run's children down too.
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = child.communicate(timeout=5 * (seconds + CHILD_OVERHEAD_S))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        stdout = ""
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or len(lines) < 2:
        print(f"run failed: {' '.join(command)} (exit {child.returncode})",
              file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "detail": {}}
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    return result


def run_set(workloads: List[str], runs: int, seed: int, seconds: float,
            smoke: bool, trace: bool, out: Optional[str]) -> dict:
    """Run every workload ``runs`` times (+ one traced run); summarize."""
    # Load is read here, before the set's own runs load the box.
    record: dict = {"env": environment(), "results": {}, "layers": {},
                    "failed_ops_share": {}}
    for workload in workloads:
        results = [
            run_child(workload, seed + i, seconds, 0, smoke) for i in range(runs)
        ]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        record["failed_ops_share"][workload] = {
            "value": failed / attempted, "failed": failed, "attempted": attempted,
        }
        by_metric: Dict[str, dict] = {}
        for result in results:
            for name, metric in result["metrics"].items():
                entry = by_metric.setdefault(name, {"unit": metric["unit"], "values": []})
                entry["values"].append(metric["value"])
        record["results"][workload] = {
            name: {"unit": entry["unit"], **summarize(entry["values"])}
            for name, entry in by_metric.items()
        }
        if trace:
            traced = run_child(workload, seed, seconds, 1, smoke, out)
            record["layers"][workload] = {
                **traced["metrics"],
                "failed": traced["failed"],
                "unavailable": traced["detail"].get("unavailable", []),
            }
    return record


def print_set(record: dict) -> None:
    env = record["env"]
    print("# " + " ".join(f"{key}={value}" for key, value in env.items()))
    if env["noisy"]:
        print("# noisy: this set started above 0.5 x cores of load")
    row = "{:<14} {:<34} {:<6} {:>14} {:>14} {:>14} {:>3}"
    print(row.format("workload", "metric", "unit", "median", "q1", "q3", "n"))
    for workload, metrics in record["results"].items():
        for name, m in metrics.items():
            print(row.format(workload, name, m["unit"], f"{m['median']:.6g}",
                             f"{m['q1']:.6g}", f"{m['q3']:.6g}", m["n"]))
        share = record["failed_ops_share"][workload]
        print(row.format(workload, "failed_ops_share", "ratio",
                         f"{share['value']:.6g}", "", "",
                         f"{share['failed']}/{share['attempted']}"))
    for workload, layers in record["layers"].items():
        print(f"# per-layer, traced run of {workload}"
              + (f" (unavailable: {', '.join(layers['unavailable'])})"
                 if layers["unavailable"] else ""))
        for name, m in layers.items():
            # Layers the workload bypasses did no work: left out.
            if isinstance(m, dict) and m["value"] != 0:
                print(row.format(workload, name, m["unit"], f"{m['value']:.6g}",
                                 "", "", 1))


def append_history(record: dict) -> None:
    """One line per invocation; earlier lines are never rewritten."""
    record = dict(record, recorded_at=datetime.datetime.now(
        datetime.timezone.utc).isoformat(timespec="seconds"))
    with open(HISTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """Section 8's rule for one metric on one workload, A → B."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    if spread > bound:
        # Too wide to resolve — unless one side wins every single run.
        a_values = [sign * v for v in a["values"]]
        b_values = [sign * v for v in b["values"]]
        if max(b_values) < min(a_values):
            return "better"
        if min(b_values) > max(a_values):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unchanged"


def compare(first: int, second: int) -> int:
    """Print a verdict per workload × end-to-end metric; 1 if any worse."""
    with open(HISTORY, encoding="utf-8") as handle:
        history = [json.loads(line) for line in handle if line.strip()]
    a, b = history[first], history[second]
    declared = {m["name"]: m for m in load_spec()["end_to_end"]}
    print(f"# A = entry {first} ({a['env']['sha']}, {a['recorded_at']})  "
          f"B = entry {second} ({b['env']['sha']}, {b['recorded_at']})")
    row = "{:<14} {:<12} {:>12} {:>12} {:>8}  {}"
    print(row.format("workload", "metric", "A median", "B median", "change", "verdict"))
    any_worse = False
    for workload in a["results"]:
        for name, meta in declared.items():
            sa = a["results"][workload].get(name)
            sb = b["results"].get(workload, {}).get(name)
            if sa is None or sb is None:
                continue
            result = verdict(sa, sb, meta["better"], meta["bound"])
            any_worse |= result == "worse"
            change = (sb["median"] - sa["median"]) / sa["median"]
            print(row.format(workload, name, f"{sa['median']:.6g}",
                             f"{sb['median']:.6g}", f"{change:+.1%}", result))
        for entry in (a, b):
            if entry["failed_ops_share"][workload]["value"] > 0:
                any_worse = True
                print(f"{workload}: failed operations in entry "
                      f"{entry['recorded_at']}")
    return 1 if any_worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=29,
                        help="seeds fleet, simulator and query script; "
                             "run i of a set uses seed + i")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure one workload in this process for this "
                             "long and print the result object")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also make a traced run (per-layer metrics)")
    parser.add_argument("--runs", type=int, default=5,
                        help="untraced runs per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="~1/50 size, one short run, every check on")
    parser.add_argument("--record", action="store_true",
                        help="append this set to history.jsonl")
    parser.add_argument("--compare", type=int, nargs=2, metavar=("A", "B"),
                        help="compare two history entries by index "
                             "(negative counts from the end)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write the traced runs' spans here")
    parser.add_argument("--corrupt-archive", action="store_true",
                        help="testing aid: damage one archive row of "
                             "plan_pipeline so its checks must fail")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.seconds is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--seconds needs exactly one --workload")
        return measure(args)
    if args.smoke and args.record:
        parser.error("--smoke sets are not recorded")
    record = run_set(
        args.workload or names,
        runs=1 if args.smoke else args.runs,
        seed=args.seed,
        seconds=SMOKE_SECONDS if args.smoke else spec["run_seconds"],
        smoke=args.smoke,
        trace=bool(args.trace) or args.smoke,
        out=args.out,
    )
    print_set(record)
    if args.record:
        append_history(record)
    failed = any(s["failed"] for s in record["failed_ops_share"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
