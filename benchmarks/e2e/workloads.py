"""The five workloads: what each one builds, times and checks.

Every workload drives only public surfaces of ``repro`` (see
``README.md``) and always with the default engine.  One *iteration* is
one fresh set-up (timed as a ``setup_s`` sample, never part of
``wall_s``) followed by one timed region and its cheap output checks;
:meth:`Workload.verify` holds the comparisons against an independently
built twin, run once after peak memory has been sampled so the twin
never inflates ``peak_rss_mb``.
"""

from __future__ import annotations

import json
import os
import pickle
import resource
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.builders import (
    PAPER_DATACENTERS,
    build_paper_fleet,
    build_single_pool_fleet,
)
from repro.cluster.service import service_catalog
from repro.cluster.simulation import SimulationConfig, Simulator
from repro.cluster.streaming import ALARM_COUNTERS
from repro.core.availability import study_fleet_availability
from repro.core.metric_validation import MetricValidator
from repro.core.planner import CapacityPlanner
from repro.core.regression_analysis import OnlineRegressionAlarm
from repro.core.slo import QoSRequirement
from repro.telemetry.export import export_store, import_store
from repro.telemetry.query_server import QueryClient
from repro.telemetry.sharding import ShardedMetricStore
from repro.telemetry.store import MetricStore
from repro.telemetry.transport import TcpTransport
from repro.telemetry.workers import TcpShardClient

from stream_host import build_stream
from spans import Hook, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"

REQUESTS = "Requests/sec"
#: Counters of the streamed runs that have a tracked ``mean`` series.
TRACKED = ALARM_COUNTERS

#: Workload sizes.  ``smoke`` is ~1/50 of ``full`` with every check on.
SIZES: Dict[str, Dict[str, dict]] = {
    "plan_pipeline": {
        "full": dict(servers=6, datacenters=3, windows=720),
        "smoke": dict(servers=2, datacenters=2, windows=180),
    },
    "sim_wide": {
        "full": dict(servers=1000, windows=4000),
        "smoke": dict(servers=100, windows=800),
    },
    "shard_tcp": {
        "full": dict(servers=1000, windows=3000, series=32),
        "smoke": dict(servers=100, windows=600, series=8),
    },
    "stream_retain": {
        "full": dict(servers=64, windows=16000, retain=2048),
        "smoke": dict(servers=16, windows=1280, retain=256),
    },
    "query_mix": {
        "full": dict(servers=64, windows=8000, retain=2048, queries=500),
        "smoke": dict(servers=16, windows=1280, retain=256, queries=50),
    },
}


class Checks:
    """Output checks: each one is an attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


@dataclass
class Iteration:
    """What one set-up + timed region measured."""

    setup_s: float
    wall_s: float
    #: Units of work in the workload's primary phase, and its seconds.
    work: int
    work_s: float
    #: Layer facts the workload reads itself (not from spans).
    facts: Dict[str, Optional[float]] = field(default_factory=dict)


def same(a, b) -> bool:
    """Bit-for-bit equality of two query answers (NaN equals NaN)."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(
            a, b, equal_nan=a.dtype.kind == "f"
        )
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(same(a[k], b[k]) for k in a))
    if isinstance(a, (tuple, list)):
        return (isinstance(b, (tuple, list)) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    if hasattr(a, "windows") and hasattr(a, "values"):  # TimeSeries
        return same(a.windows, b.windows) and same(a.values, b.values)
    return a == b


def stage_facts(simulator) -> Dict[str, Optional[float]]:
    """The simulator's own coarse stage timers, if it still has them."""
    stages = getattr(simulator, "stage_seconds", None) or {}
    return {
        "demand_engine.busy_s": stages.get("demand"),
        "simulation.observe_s": stages.get("observe"),
        "simulation.ingest_s": stages.get("ingest"),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def reap(process: subprocess.Popen, timeout: float = 30.0) -> None:
    """Wait for a child that was told to exit; kill it if it does not."""
    try:
        process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    finally:
        for pipe in (process.stdin, process.stdout):
            if pipe is not None:
                pipe.close()


def _rows_of_values(args, kwargs, _result) -> int:
    # record_columns(self, pool, dc, counter, windows, indices, values)
    # and record_batch(self, pool, dc, counter, window, ids, values).
    values = kwargs["values"] if "values" in kwargs else args[6]
    return int(np.size(values))


SIMULATOR_HOOKS = [
    Hook(Simulator, "run_block", "simulation.run_block"),
    Hook(Simulator, "sync_server_state", "simulation.sync_state"),
]
STORE_HOOKS = [
    Hook(MetricStore, "record_columns", "store.record", _rows_of_values),
    Hook(MetricStore, "record_batch", "store.record", _rows_of_values),
    Hook(MetricStore, "record_fast", "store.record", lambda *_: 1),
]


class Workload:
    """Base: one instance per child process and size."""

    name = ""
    #: Whose ``ru_maxrss`` is ``peak_rss_mb``: the process that holds
    #: the store — this one, or the program's own child.
    rss_of = resource.RUSAGE_SELF
    #: What the traced iterations wrap, besides the workload's own spans.
    hooks: List[Hook] = []

    def __init__(self, size: dict, seed: int, checks: Checks) -> None:
        self.size = size
        self.seed = seed
        self.checks = checks
        #: Replaced by the runner before each iteration; armed only on
        #: the traced iterations of a ``--trace 1`` run.
        self.tracer = Tracer("idle")

    def region(self):
        """The timed region's root span (a no-op unless armed)."""
        return self.tracer.region(self.hooks)

    def span(self, name: str):
        return self.tracer.span(name)

    def iterate(self) -> Iteration:
        raise NotImplementedError

    def verify(self) -> None:
        """Twin comparisons, outside every timer and after peak RSS."""


class PlanPipeline(Workload):
    """simulate → export_store → import_store → validate → plan → study."""

    name = "plan_pipeline"
    #: Testing aid (``--corrupt-archive``): damage one archive row
    #: after export, so the output checks must fail.
    corrupt_archive = False

    hooks = SIMULATOR_HOOKS + STORE_HOOKS

    def iterate(self) -> Iteration:
        size = self.size
        t_setup = perf_counter()
        fleet = build_paper_fleet(
            servers_per_deployment=size["servers"],
            datacenters=PAPER_DATACENTERS[: size["datacenters"]],
            seed=self.seed,
        )
        simulator = Simulator(
            fleet, seed=self.seed,
            config=SimulationConfig(record_request_classes=True, block_windows=64),
        )
        catalog = service_catalog()
        qos = {
            pool: QoSRequirement(latency_p95_ms=catalog[pool].slo_latency_ms)
            for pool in fleet.pool_ids
        }
        # Under the run's scratch directory (measure.py sets TMPDIR).
        scratch = Path(tempfile.mkdtemp(prefix="archive-"))
        archive = scratch / "telemetry.csv"
        setup_s = perf_counter() - t_setup
        try:
            t0 = perf_counter()
            with self.region():
                with self.span("simulation.run"):
                    simulator.run(size["windows"])
                store = simulator.store
                with self.span("export.export"):
                    rows = export_store(store, archive)
                if self.corrupt_archive:
                    _corrupt_one_row(archive)
                with self.span("export.import"):
                    imported = import_store(archive)
                with self.span("metric_validation.validate_all"):
                    reports = MetricValidator(imported).validate_all()
                with self.span("planner.plan"):
                    plan = CapacityPlanner(imported, qos).plan()
                with self.span("availability.study"):
                    study = study_fleet_availability(imported)
            wall_s = perf_counter() - t0
            archive_bytes = archive.stat().st_size
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

        check = self.checks.check
        samples = store.sample_count()
        check(rows == samples, "rows written == sample_count()")
        check(imported.sample_count() == samples, "imported sample_count()")
        check(_same_tables(store, imported), "imported columns equal the source's")
        valid = sum(1 for report in reports if report.status.is_valid)
        check(valid == len(fleet.pool_ids), "every pool validates")
        check(len(study.reports) == len(fleet.pool_ids), "availability covers every pool")
        self._last = (store, qos, plan.render_savings_table())

        spans = self.tracer.totals()
        export_s = spans["export.export"].total_s if "export.export" in spans else None
        import_s = spans["export.import"].total_s if "export.import" in spans else None
        facts = stage_facts(simulator)
        facts.update({
            "export.archive_bytes": archive_bytes,
            "export.archive_bytes_per_sample": archive_bytes / rows,
            "export.export_rows_per_s": rows / export_s if export_s else None,
            "export.import_rows_per_s": rows / import_s if import_s else None,
            "metric_validation.pools_valid": valid,
            "planner.pools": len(plan.summaries),
        })
        return Iteration(setup_s, wall_s, samples, wall_s, facts)

    def verify(self) -> None:
        store, qos, table = self._last
        reference = CapacityPlanner(store, qos).plan().render_savings_table()
        self.checks.check(
            table == reference, "plan on the archive equals plan on the live store"
        )


def _corrupt_one_row(archive: Path) -> None:
    with open(archive, encoding="utf-8", newline="") as handle:
        lines = handle.readlines()
    head, _, value = lines[len(lines) // 2].rstrip("\r\n").rpartition(",")
    lines[len(lines) // 2] = f"{head},{float(value) + 1.0!r}\r\n"
    with open(archive, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(lines)


def _same_tables(source, imported) -> bool:
    """Every imported column equals the source store's, row order aside.

    Server indices are interned per store, so rows are compared by
    server *name*, in (window, name) order.
    """
    def canonical(store):
        out = {}
        for key, windows, servers, values in store.iter_tables():
            indices, inverse = np.unique(servers, return_inverse=True)
            names = np.array([store.server_name(int(i)) for i in indices])
            by_name = np.argsort(np.argsort(names))[inverse]
            order = np.lexsort((by_name, windows))
            out[key] = (np.sort(names), windows[order], by_name[order], values[order])
        return out

    return same(canonical(source), canonical(imported))


class SimWide(Workload):
    """Wide fleet, short horizon, nothing leaves memory."""

    name = "sim_wide"

    def __init__(self, size, seed, checks) -> None:
        super().__init__(size, seed, checks)
        self._samples: Optional[int] = None

    hooks = SIMULATOR_HOOKS + STORE_HOOKS

    def _build(self, block_windows: int) -> Simulator:
        fleet = build_single_pool_fleet(
            "B", n_datacenters=1, servers_per_deployment=self.size["servers"],
            seed=self.seed,
        )
        return Simulator(
            fleet, store=MetricStore(), seed=self.seed,
            config=SimulationConfig(block_windows=block_windows),
        )

    def iterate(self) -> Iteration:
        t_setup = perf_counter()
        simulator = self._build(block_windows=64)
        setup_s = perf_counter() - t_setup
        t0 = perf_counter()
        with self.region():
            with self.span("simulation.run"):
                simulator.run(self.size["windows"])
            samples = simulator.store.sample_count()
        wall_s = perf_counter() - t0
        if self._samples is None:
            self._samples = samples
        self.checks.check(
            samples == self._samples and samples > 0,
            "sample count equal across iterations",
        )
        return Iteration(setup_s, wall_s, samples, wall_s, stage_facts(simulator))

    def verify(self) -> None:
        twin = self._build(block_windows=1)
        twin.run(self.size["windows"])
        self.checks.check(
            twin.store.sample_count() == self._samples,
            "sample count equals the block_windows=1 twin's",
        )


class ShardTcp(Workload):
    """The sharding/workers/transport layers, writes beside reads."""

    name = "shard_tcp"
    rss_of = resource.RUSAGE_CHILDREN
    N_SHARDS = 4

    def __init__(self, size, seed, checks) -> None:
        super().__init__(size, seed, checks)
        self._samples: Optional[int] = None
        self._answers: Optional[dict] = None

    hooks = SIMULATOR_HOOKS + [
        Hook(ShardedMetricStore, "record_columns", "sharding.record",
             _rows_of_values),
        Hook(ShardedMetricStore, "flush", "sharding.flush"),
        Hook(ShardedMetricStore, "gather_columns", "sharding.gather"),
        Hook(TcpShardClient, "record_columns", "workers.client_record"),
        Hook(TcpShardClient, "flush", "workers.client_flush"),
        Hook(TcpShardClient, "call", "workers.client_call"),
        Hook(TcpTransport, "send_ingest", "transport.send_ingest"),
        Hook(TcpTransport, "recv", "transport.recv"),
    ]

    def _fleet(self):
        return build_single_pool_fleet(
            "B", n_datacenters=1, servers_per_deployment=self.size["servers"],
            seed=self.seed,
        )

    def _read_phase(self, store, names) -> dict:
        """The fixed read script; one span per call."""
        answers = {}
        for reducer in ("mean", "max", "count"):
            with self.span(f"sharding.aggregate_{reducer}"):
                answers[reducer] = store.pool_window_aggregate(
                    "B", REQUESTS, reducer=reducer
                )
        with self.span("sharding.pool_matrix"):
            answers["pool_matrix"] = store.pool_matrix("B", REQUESTS)
        with self.span("sharding.per_server_values"):
            answers["per_server_values"] = store.per_server_values("B", REQUESTS)
        series_s = []
        for name in names:
            t0 = perf_counter()
            with self.span("sharding.server_series"):
                answers[name] = store.server_series("B", REQUESTS, name)
            series_s.append(perf_counter() - t0)
        answers["series_p50_ms"] = float(np.median(series_s)) * 1000.0
        return answers

    def iterate(self) -> Iteration:
        size = self.size
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t_setup = perf_counter()
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "shard-server",
             "--listen", "127.0.0.1:0", "--max-sessions", str(self.N_SHARDS)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=child_env(),
        )
        store = None
        try:
            line = server.stdout.readline()
            if not line.startswith("shard-server listening on "):
                raise RuntimeError(f"shard-server failed to start (got {line!r})")
            address = line.rsplit(" ", 1)[-1].strip()
            store = ShardedMetricStore(
                backend="tcp", shard_addrs=[address] * self.N_SHARDS
            )
            fleet = self._fleet()
            simulator = Simulator(
                fleet, store=store, seed=self.seed,
                config=SimulationConfig(block_windows=64),
            )
            setup_s = perf_counter() - t_setup

            with self.region():
                t0 = perf_counter()
                with self.span("simulation.run"):
                    simulator.run(size["windows"])
                with self.span("sharding.sample_count"):
                    samples = store.sample_count()
                ingest_s = perf_counter() - t0
                # Which servers to read is seeded, and not on any clock.
                names = [str(name) for name in np.random.default_rng(self.seed).choice(
                    store.servers_in_pool("B"), size["series"], replace=False
                )]
                t0 = perf_counter()
                answers = self._read_phase(store, names)
                read_s = perf_counter() - t0
        finally:
            if store is not None:
                store.close()
            if store is None:
                server.kill()
            reap(server)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)

        if self._samples is None:
            self._samples = samples
        self.checks.check(
            samples == self._samples and samples > 0,
            "sample count equal across iterations",
        )
        self.checks.check(server.returncode == 0, "shard-server exited 0")
        facts = stage_facts(simulator)
        facts.update({
            "sharding.ingest_s": ingest_s,
            "sharding.ingest_samples_per_s": samples / ingest_s,
            "sharding.read_s": read_s,
            "sharding.server_series_p50_ms": answers.pop("series_p50_ms"),
            "transport.computed_ingest_bytes": samples * 24,
            "workers.server_cpu_s": (after.ru_utime + after.ru_stime)
            - (before.ru_utime + before.ru_stime),
            "workers.server_peak_rss_mb": after.ru_maxrss / 1024.0,
        })
        self._answers = answers
        wall_s = ingest_s + read_s
        return Iteration(setup_s, wall_s, samples, wall_s, facts)

    def verify(self) -> None:
        twin = MetricStore()
        Simulator(
            self._fleet(), store=twin, seed=self.seed,
            config=SimulationConfig(block_windows=64),
        ).run(self.size["windows"])
        names = [k for k in self._answers
                 if k not in ("mean", "max", "count", "pool_matrix", "per_server_values")]
        reference = self._read_phase(twin, names)
        for key, answer in self._answers.items():
            self.checks.check(
                same(answer, reference[key]),
                f"sharded {key} answer is bit-identical to the unsharded twin's",
            )


class StreamRetain(Workload):
    """Narrow fleet, long horizon, bounded hot memory."""

    name = "stream_retain"
    hooks = SIMULATOR_HOOKS + STORE_HOOKS + [
        Hook(MetricStore, "seal_through", "store.seal"),
        Hook(MetricStore, "evict_windows", "store.evict",
             lambda _args, _kwargs, result: result or 0),
        Hook(OnlineRegressionAlarm, "observe", "regression_analysis.observe"),
    ]

    def iterate(self) -> Iteration:
        size = self.size
        t_setup = perf_counter()
        stream = build_stream(size["servers"], size["retain"], self.seed)
        setup_s = perf_counter() - t_setup
        store = stream.sim.store
        t0 = perf_counter()
        with self.region():
            with self.span("streaming.run"):
                report = stream.run(max_windows=size["windows"])
            samples = store.sample_count()
        wall_s = perf_counter() - t0

        check = self.checks.check
        hot = store.hot_sample_count()
        check(hot + report.evicted_rows == samples, "hot + evicted == total")
        check(store.evicted_before == size["windows"] - size["retain"],
              "evicted_before == windows - retain")
        check(not report.alerts, "no alert on the clean run")
        self._store = store
        facts = stage_facts(stream.sim)
        facts.update({
            "store.hot_samples": hot,
            "streaming.blocks": report.blocks,
            "regression_analysis.alerts": len(report.alerts),
        })
        return Iteration(setup_s, wall_s, samples, wall_s, facts)

    def verify(self) -> None:
        # ``mean`` is tracked; ``sum`` and ``count`` are not, so they
        # re-gather the whole horizon through the spill archive, and
        # the store divides exactly these two to form a mean.
        store = self._store
        for counter in TRACKED:
            tracked = store.pool_window_aggregate("B", counter, reducer="mean")
            sums = store.pool_window_aggregate("B", counter, reducer="sum")
            counts = store.pool_window_aggregate("B", counter, reducer="count")
            self.checks.check(
                same(tracked.windows, sums.windows)
                and same(tracked.values, sums.values / counts.values),
                f"untracked full-horizon mean of {counter!r} equals the tracked series",
            )


class QueryMix(Workload):
    """A single closed-loop client against an idle, mostly spilled store."""

    name = "query_mix"
    rss_of = resource.RUSAGE_CHILDREN

    def _script(self, server_ids) -> List[tuple]:
        """The seeded quiescent-phase script: ``(kind, method, args, kwargs)``."""
        rng = np.random.default_rng(self.seed)
        n = self.size["queries"]
        # An exact 50/30/20 mix in seeded order: every seed does the
        # same amount of work.
        kinds = np.repeat([0, 1, 2], [n // 2, 3 * n // 10, n - n // 2 - 3 * n // 10])
        rng.shuffle(kinds)
        ops: List[tuple] = []
        for kind in kinds:
            if kind == 0:
                ops.append(("status", "status", (), {}))
            elif kind == 1:
                counter = TRACKED[int(rng.integers(len(TRACKED)))]
                ops.append(("aggregate_tracked", "aggregate", ("B", counter),
                            {"reducer": "mean"}))
            else:
                ops.append(("server_series", "server_series",
                            ("B", REQUESTS, str(rng.choice(server_ids))), {}))
        scans = [
            ("aggregate_cold", "aggregate", ("B", counter), {"reducer": reducer})
            for counter in TRACKED for reducer in ("sum", "max")
        ]
        scans += [
            ("pool_matrix", "pool_matrix", ("B", TRACKED[i % len(TRACKED)]), {})
            for i in range(8)
        ]
        # Scans land at seeded positions among the interactive queries.
        for scan in scans:
            ops.insert(int(rng.integers(len(ops) + 1)), scan)
        return ops

    def _live_phase(self, client, facts) -> None:
        """Hammer the streaming host until it finishes (traced runs only)."""
        latencies, errors = [], 0
        target = self.size["windows"]
        while True:
            t0 = perf_counter()
            try:
                if len(latencies) % 2:
                    client.aggregate("B", REQUESTS, reducer="mean")
                    done = False
                else:
                    done = client.status().get("windows", 0) >= target
            except RuntimeError:
                errors += 1
                break
            latencies.append(perf_counter() - t0)
            if done:
                break
        facts.update({
            "query_server.live_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
            "query_server.live_p99_ms": float(np.percentile(latencies, 99)) * 1e3,
            "query_server.live_queries": len(latencies),
            "query_server.errors": errors,
        })

    def _quiescent_phase(self, client, ops, sealed):
        """Play the script against the idle host, then re-ask the cold scans.

        Returns per-kind latencies, the number of failed calls or
        replies, and (traced iterations only) every answer.
        """
        latencies: Dict[str, List[float]] = {}
        answers: List[object] = []
        failed = 0

        def ask(kind, method, args, kwargs):
            started = perf_counter()
            try:
                with self.span(f"query_server.{kind}"):
                    answer = client.call(method, *args, **kwargs)
            except RuntimeError as error:  # incl. ShardConnectionError
                print(f"query failed: {error}", file=sys.stderr)
                return None
            latencies.setdefault(kind, []).append(perf_counter() - started)
            return answer

        cold: Dict[tuple, object] = {}
        for kind, method, args, kwargs in ops:
            answer = ask(kind, method, args, kwargs)
            if answer is None:
                failed += 1
                continue
            if kind in ("status", "aggregate_tracked", "aggregate_cold"):
                failed += answer["sealed_through"] != sealed
            if kind == "aggregate_cold":
                cold[(method, args, kwargs["reducer"])] = answer
            if self.tracer.armed:
                answers.append(answer)
        # The same cold scans again: memoized now, and not a bit different.
        for (method, args, reducer), first in cold.items():
            again = ask("aggregate_warm", method, args, {"reducer": reducer})
            failed += again is None or not same(again, first)
        return latencies, failed, answers

    def iterate(self) -> Iteration:
        size = self.size
        facts: Dict[str, Optional[float]] = {}
        t_setup = perf_counter()
        host = subprocess.Popen(
            [sys.executable, str(HERE / "stream_host.py"),
             "--servers", str(size["servers"]), "--windows", str(size["windows"]),
             "--retain", str(size["retain"]), "--seed", str(self.seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, env=child_env(),
        )
        client = None
        try:
            line = host.stdout.readline()
            if not line.startswith("query server listening on "):
                raise RuntimeError(f"stream host failed to start (got {line!r})")
            client = QueryClient(line.rsplit(" ", 1)[-1].strip())
            if self.tracer.armed:
                self._live_phase(client, facts)
            streamed = json.loads(host.stdout.readline())
            server_ids = client.call("servers_in_pool", "B")
            ops = self._script(server_ids)
            setup_s = perf_counter() - t_setup

            t0 = perf_counter()
            with self.region():
                latencies, failed_calls, answers = self._quiescent_phase(
                    client, ops, streamed["sealed_through"]
                )
            wall_s = perf_counter() - t0
        finally:
            if client is not None:
                client.close()
            host.stdin.close()
            reap(host)

        n_ops = len(ops) + sum(op[0] == "aggregate_cold" for op in ops)
        self.checks.attempted += n_ops
        self.checks.failed += failed_calls
        self.checks.check(host.returncode == 0, "stream host exited 0")
        self.checks.check(streamed["alerts"] == 0, "no alert on the clean run")
        self.checks.check(
            streamed["sealed_through"] == size["windows"] - 1,
            "the host sealed the whole horizon",
        )

        interactive = [
            s for kind in ("status", "aggregate_tracked", "server_series")
            for s in latencies.get(kind, [])
        ]
        scans = latencies.get("aggregate_cold", []) + latencies.get("pool_matrix", [])

        def p(values, q):
            return float(np.percentile(values, q)) * 1e3 if values else None

        facts.update({
            f"query_server.{kind}_p50_ms": p(latencies.get(kind, []), 50)
            for kind in ("status", "aggregate_tracked", "server_series",
                         "aggregate_cold", "aggregate_warm", "pool_matrix")
        })
        facts.update({
            "query_server.query_p50_ms": p(interactive, 50),
            "query_server.query_p99_ms": p(interactive, 99),
            "query_server.scan_p50_ms": p(scans, 50),
            "query_server.queries_per_s": n_ops / wall_s,
            # Computed, not read off the wire: the size of the pickle.
            "query_server.reply_bytes_p50": float(np.median(
                [len(pickle.dumps(answer)) for answer in answers]
            )) if answers else None,
            "streaming.live_samples_per_s":
                streamed["samples"] / streamed["stream_s"],
            "store.hot_samples": streamed["hot_samples"],
        })
        return Iteration(setup_s, wall_s, len(interactive), sum(interactive), facts)


WORKLOADS = {
    cls.name: cls
    for cls in (PlanPipeline, SimWide, ShardTcp, StreamRetain, QueryMix)
}
