"""One measured run: one workload, in this process, for ``--seconds``.

This is the form ``BENCHMARK.json``'s command takes:
``run.py --workload NAME --seed N --seconds S --trace 0|1``.  The run
warms up with one untimed smoke-size iteration, then repeats *set-up +
timed region* until ``--seconds`` have passed, and reports medians over
the iterations.  ``--trace 0`` prints the end-to-end metrics, measured
with no wrapper installed anywhere.  ``--trace 1`` traces every second
iteration and prints the per-layer metrics; the untraced iterations in
between give the tracing overhead from within the same process.

The last line of standard output is the result object; the line before
it carries the environment header and what could not be measured.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from spans import ROOT as ROOT_SPAN, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
#: Scratch space inside the checkout; each run removes its own part.
WORK_DIR = HERE / ".work"

#: per-layer metric -> (span name, field of ``SpanTotals``).
SPAN_METRICS = {
    "simulation.run_s": ("simulation.run", "total_s"),
    "simulation.run_block_s": ("simulation.run_block", "total_s"),
    "simulation.run_block_calls": ("simulation.run_block", "calls"),
    "simulation.sync_state_s": ("simulation.sync_state", "total_s"),
    "store.record_s": ("store.record", "total_s"),
    "store.record_calls": ("store.record", "calls"),
    "store.record_rows": ("store.record", "rows"),
    "store.seal_s": ("store.seal", "total_s"),
    "store.seal_calls": ("store.seal", "calls"),
    "store.evict_s": ("store.evict", "total_s"),
    "store.evict_calls": ("store.evict", "calls"),
    "store.evicted_rows": ("store.evict", "rows"),
    "regression_analysis.observe_s": ("regression_analysis.observe", "total_s"),
    "regression_analysis.observe_calls": ("regression_analysis.observe", "calls"),
    "streaming.run_s": ("streaming.run", "total_s"),
    "streaming.loop_self_s": ("streaming.run", "self_s"),
    "sharding.record_s": ("sharding.record", "total_s"),
    "sharding.record_calls": ("sharding.record", "calls"),
    "sharding.flush_s": ("sharding.flush", "total_s"),
    "sharding.gather_s": ("sharding.gather", "total_s"),
    "sharding.gather_calls": ("sharding.gather", "calls"),
    "sharding.aggregate_mean_s": ("sharding.aggregate_mean", "total_s"),
    "sharding.aggregate_max_s": ("sharding.aggregate_max", "total_s"),
    "sharding.aggregate_count_s": ("sharding.aggregate_count", "total_s"),
    "sharding.pool_matrix_s": ("sharding.pool_matrix", "total_s"),
    "sharding.per_server_values_s": ("sharding.per_server_values", "total_s"),
    "workers.client_record_s": ("workers.client_record", "total_s"),
    "workers.client_flush_s": ("workers.client_flush", "total_s"),
    "workers.client_call_s": ("workers.client_call", "total_s"),
    "workers.client_calls": ("workers.client_call", "calls"),
    "transport.send_ingest_s": ("transport.send_ingest", "total_s"),
    "transport.send_ingest_calls": ("transport.send_ingest", "calls"),
    "transport.recv_s": ("transport.recv", "total_s"),
    "export.export_s": ("export.export", "total_s"),
    "export.import_s": ("export.import", "total_s"),
    "metric_validation.validate_s": ("metric_validation.validate_all", "total_s"),
    "planner.plan_s": ("planner.plan", "total_s"),
    "availability.study_s": ("availability.study", "total_s"),
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    """The header every result carries."""
    import numpy

    cpus = len(os.sched_getaffinity(0))
    load1 = os.getloadavg()[0]
    status = _git("status", "--porcelain")
    return {
        "cpus": cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sha": _git("rev-parse", "--short", "HEAD") or "unknown",
        "dirty": bool(status) if status is not None else None,
        "load1": load1,
        # Started on a busy box: flagged, not silently recorded.
        "noisy": load1 > 0.5 * cpus,
    }


def layer_metrics(iteration, tracer) -> Dict[str, Optional[float]]:
    """One traced iteration's per-layer values (``None`` = unavailable)."""
    totals = tracer.totals()
    out: Dict[str, Optional[float]] = {}
    for metric, (span, field) in SPAN_METRICS.items():
        if span in tracer.missing:
            out[metric] = None
        elif span in totals:
            out[metric] = getattr(totals[span], field)
    out.update(iteration.facts)
    root = totals[ROOT_SPAN]
    out["trace.unaccounted_share"] = root.self_s / root.total_s
    out["trace.spans"] = len(tracer.spans)
    out["harness.work_units"] = iteration.work
    return out


def _median_by_key(rows: List[dict]) -> Dict[str, Optional[float]]:
    out: Dict[str, Optional[float]] = {}
    for key in {key for row in rows for key in row}:
        values = [row[key] for row in rows if row.get(key) is not None]
        out[key] = statistics.median(values) if values else None
    return out


def fresh_import_s() -> float:
    """What start-up costs a user: a fresh interpreter importing
    everything the workloads use."""
    from workloads import child_env

    env = child_env()
    env["PYTHONPATH"] = str(HERE) + os.pathsep + env["PYTHONPATH"]
    started = perf_counter()
    subprocess.run([sys.executable, "-c", "import workloads"], env=env, check=True)
    return perf_counter() - started


def measure(args) -> int:
    """Run one workload in a scratch directory of its own."""
    # Everything the run writes — archives, and the program's own
    # anonymous spill files — stays under this directory.
    WORK_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    os.environ["TMPDIR"] = scratch
    try:
        return _measure(args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:  # another run is still using it
            pass


def _measure(args) -> int:
    """Run one workload for ``args.seconds``; print the result line."""
    t_import = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import SIZES, WORKLOADS, Checks

    import_s = [perf_counter() - t_import]
    if not args.smoke:
        import_s = [fresh_import_s() for _ in range(5)]

    spec = load_spec()
    env = environment()
    (name,) = args.workload
    traced = bool(args.trace)
    checks = Checks()
    workload_class = WORKLOADS[name]

    if not args.smoke:
        # Warm-up: imports, NumPy lazy init, first-use code paths.
        workload_class(SIZES[name]["smoke"], args.seed, checks).iterate()

    workload = workload_class(
        SIZES[name]["smoke" if args.smoke else "full"], args.seed, checks
    )
    if args.corrupt_archive:
        workload.corrupt_archive = True
    plain, layers, traced_walls = [], [], []
    started = perf_counter()
    index = 0
    while True:
        armed = traced and index % 2 == 1
        workload.tracer = Tracer(f"{name}-seed{args.seed}-{index}", armed)
        gc.collect()  # the last iteration's garbage is not this one's cost
        iteration = workload.iterate()
        if armed:
            traced_walls.append(iteration.wall_s)
            layers.append(layer_metrics(iteration, workload.tracer))
            if args.out is not None:
                os.makedirs(args.out, exist_ok=True)
                workload.tracer.write(
                    Path(args.out) / f"{name}-seed{args.seed}.spans.jsonl"
                )
        else:
            plain.append(iteration)
        index += 1
        if perf_counter() - started >= args.seconds and index >= 1 + traced:
            break
    peak_rss_mb = resource.getrusage(workload.rss_of).ru_maxrss / 1024.0
    workload.tracer = Tracer("verify")
    workload.verify()

    wall_s = statistics.median(it.wall_s for it in plain)
    if traced:
        measured = _median_by_key(layers)
        measured["trace.overhead_share"] = (
            statistics.median(traced_walls) - wall_s
        ) / wall_s
        declared = spec["per_layer"]
    else:
        measured = {
            "setup_s": statistics.median(import_s)
            + statistics.median(it.setup_s for it in plain),
            "wall_s": wall_s,
            "work_per_s": statistics.median(it.work / it.work_s for it in plain),
            "peak_rss_mb": peak_rss_mb,
        }
        declared = spec["end_to_end"]

    metrics, unavailable = {}, []
    for entry in declared:
        value = measured.get(entry["name"], 0.0)
        if value is None:
            # A layer hook lost its target: the end-to-end metrics do
            # not depend on it, so report and carry on.
            unavailable.append(entry["name"])
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    names = {entry["name"] for entry in declared}
    undeclared = sorted(set(measured) - names)
    for label, listed in (("unavailable", unavailable), ("undeclared", undeclared)):
        if listed:
            print(f"warning: {label} metrics: {', '.join(listed)}", file=sys.stderr)

    print(json.dumps({"detail": {
        "workload": name, "seed": args.seed, "trace": int(traced),
        "iterations": index, "env": env,
        "wall_s": [it.wall_s for it in plain],
        "setup_s": [it.setup_s for it in plain],
        "work_rate": [it.work / it.work_s for it in plain],
        "traced_wall_s": traced_walls,
        "import_s": import_s,
        "unavailable": unavailable, "undeclared": undeclared,
    }}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0
