"""Shared fixtures: pre-simulated metric stores.

Simulation is the expensive part of most tests, so a few canonical
stores are built once per session and shared read-only.  Tests that
mutate simulators build their own.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.builders import (
    PAPER_DATACENTERS,
    build_paper_fleet,
    build_single_pool_fleet,
)
from repro.cluster.simulation import SimulationConfig, Simulator
from repro.telemetry.counters import Counter

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Counter set including the per-class workload splits (pool A needs them).
FULL_COUNTERS = (
    Counter.REQUESTS.value,
    Counter.PROCESSOR_UTILIZATION.value,
    Counter.LATENCY_P95.value,
    Counter.AVAILABILITY.value,
    Counter.NETWORK_BYTES_TOTAL.value,
    Counter.MEMORY_WORKING_SET.value,
    "Requests/sec[table_user]",
    "Requests/sec[table_index]",
)


def chunk_list_rows(store):
    """Check the chunk-list invariant of ``_Table``'s docstring on every
    table of ``store`` (clauses 2 and 3) and return ``{key: (windows,
    servers, values)}`` read chunk by chunk, cold then hot, for the
    caller to hold against its own record of append order (clause 1).
    A test helper reading private state; nothing in ``src/`` checks this.
    """
    rows = {}
    for key, table in store._tables.items():
        parts = []
        for position, chunk in enumerate(table._cold + table._hot):
            if position < len(table._cold):
                assert chunk.columns is None
                (batch,) = store._spill.batches([chunk], -math.inf, math.inf)
                columns = batch.columns()
            else:
                assert chunk.offset is None
                columns = chunk.columns
            windows, servers, values = columns
            assert chunk.rows == windows.size == servers.size == values.size > 0
            assert (chunk.lo, chunk.hi) == (windows.min(), windows.max())
            parts.append(columns)
        assert table.n_rows == sum(c.rows for c in table._cold + table._hot)
        assert table.hot_rows == sum(c.rows for c in table._hot)
        rows[key] = tuple(np.concatenate(column) for column in zip(*parts))
    return rows


@pytest.fixture(scope="session")
def pool_b_sim():
    """One pool (B), one DC, 30 servers, 2 days, no downtime policies."""
    fleet = build_single_pool_fleet(
        "B", n_datacenters=1, servers_per_deployment=30, seed=11
    )
    sim = Simulator(
        fleet,
        seed=11,
        config=SimulationConfig(apply_availability_policies=False),
    )
    sim.run(1440)
    return sim


@pytest.fixture(scope="session")
def pool_b_store(pool_b_sim):
    return pool_b_sim.store


@pytest.fixture(scope="session")
def multi_dc_sim():
    """Pool D across 4 DCs, 16 servers each, 2 days (for DR planning)."""
    fleet = build_single_pool_fleet(
        "D", n_datacenters=4, servers_per_deployment=16, seed=13
    )
    sim = Simulator(
        fleet,
        seed=13,
        config=SimulationConfig(apply_availability_policies=False),
    )
    sim.run(1440)
    return sim


@pytest.fixture(scope="session")
def fleet_sim():
    """Small paper fleet: all 7 pools, all 9 DCs, availability policies on.

    Nine datacenters matter: the disaster-recovery headroom for losing
    one DC is ~1/8 of demand, as in the paper's fleet, instead of the
    ~1/2 a three-DC toy would impose.
    """
    fleet = build_paper_fleet(
        servers_per_deployment=6,
        datacenters=PAPER_DATACENTERS,
        seed=17,
    )
    sim = Simulator(
        fleet,
        seed=17,
        config=SimulationConfig(counters=FULL_COUNTERS),
    )
    sim.run(1440)  # two days
    return sim


@pytest.fixture(scope="session")
def fleet_store(fleet_sim):
    return fleet_sim.store


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


class ShardServerProcesses:
    """Spawn and reap real ``repro shard-server`` subprocesses.

    The one place the Popen/stdout-line/reap dance lives (it used to be
    copy-pasted across the CLI, fault-tolerance and benchmark suites).
    ``spawn`` returns ``(process, address)`` — the address parsed from
    the server's first stdout line, the documented scripting interface
    for ``--listen`` port 0.  Callers that end servers with signals
    still own the timing; the fixture's teardown reaps whatever is
    left, so a failing test never leaks a child.
    """

    def __init__(self) -> None:
        self._processes: list = []

    def spawn(self, max_sessions: int | None = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        argv = [
            sys.executable, "-m", "repro", "shard-server",
            "--listen", "127.0.0.1:0",
        ]
        if max_sessions is not None:
            argv += ["--max-sessions", str(max_sessions)]
        process = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        self._processes.append(process)
        line = process.stdout.readline()
        assert line.startswith("shard-server listening on "), line
        return process, line.rsplit(" ", 1)[-1].strip()

    def reap(self, process) -> None:
        """Kill (if still alive) and wait; idempotent."""
        if process.poll() is None:
            process.kill()
        process.wait(timeout=30)
        if process.stdout is not None and not process.stdout.closed:
            process.stdout.close()

    def reap_all(self) -> None:
        for process in self._processes:
            self.reap(process)
        self._processes.clear()


@pytest.fixture(scope="session")
def shard_server_processes():
    """Session-scoped spawner/reaper for shard-server subprocesses."""
    spawner = ShardServerProcesses()
    yield spawner
    spawner.reap_all()


@pytest.fixture(scope="session")
def shard_server():
    """One loopback shard server shared by every tcp-backend test.

    One ``ShardServer`` can host any number of shard sessions (each
    connection gets a fresh store), so the whole suite's tcp stores
    point their ``shard_addrs`` at this single listener.  Tests that
    exercise server *failure* start their own throwaway server
    instead.
    """
    from repro.telemetry.workers import ShardServer

    with ShardServer("127.0.0.1:0") as server:
        yield server
