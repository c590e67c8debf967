"""The read surface is one table: every reader of it answers the same.

``store.READ_SURFACE`` is the only spelling of the store's read API;
the remote-shard proxies and the live query surface are generated from
it.  This file asks every listed name of a plain ``MetricStore``, a
serial and a tcp ``ShardedMetricStore`` and a ``QueryClient`` on a live
surface, over one small fixed fleet with part of its history spilled,
and requires equal answers.
"""

import numpy as np
import pytest

from repro.telemetry.query_server import (
    LiveQuerySurface,
    QueryClient,
    QueryServer,
)
from repro.telemetry.series import TimeSeries
from repro.telemetry.sharding import ShardedMetricStore
from repro.telemetry.store import READ_SURFACE, MetricStore

#: Arguments for each listed read.  A name added to the table without
#: an entry here fails ``test_every_listed_read_has_arguments``.
ARGS = {
    "pools": (),
    "datacenters": (),
    "max_window": (),
    "evicted_before": (),
    "counters_for_pool": ("A",),
    "servers_in_pool": ("A", "dc2"),
    "datacenters_for_pool": ("B",),
    "datacenters_for_pool_counter": ("A", "rps"),
    "server_name": (3,),
    "sample_count": (),
    "hot_sample_count": (),
    "iter_tables": (),
    "gather_columns": ("A", "cpu"),
    "pool_window_aggregate": ("A", "cpu", None, 1, 5, "sum"),
    "per_server_values": ("B", "rps", "dc1"),
    "server_series": ("A", "cpu", "dc1.A.s1"),
    "pool_matrix": ("B", "cpu"),
    "all_values": ("rps",),
}


def _fill(store):
    rng = np.random.default_rng(5)
    for pool in ("A", "B"):
        for dc in ("dc1", "dc2"):
            indices = store.intern_servers(
                [f"{dc}.{pool}.s{i}" for i in range(5)]
            )
            for window in range(6):
                for counter in ("cpu", "rps"):
                    store.record_batch(
                        pool, dc, counter, window, indices, rng.uniform(0, 9, 5)
                    )
    store.evict_windows(2)  # reads below window 2 come from the spill
    return store


def _local_reader(store):
    def read(name, args):
        answer = getattr(store, name)
        return answer if READ_SURFACE[name] else answer(*args)

    return read


@pytest.fixture(scope="module")
def readers(shard_server):
    single = _fill(MetricStore())
    serial = _fill(ShardedMetricStore(n_shards=3))
    tcp = _fill(
        ShardedMetricStore(backend="tcp", shard_addrs=[shard_server.address] * 2)
    )
    with QueryServer(LiveQuerySurface(single)) as server:
        with QueryClient(server.address) as client:
            yield {
                "single": _local_reader(single),
                "serial": _local_reader(serial),
                "tcp": _local_reader(tcp),
                "live": lambda name, args: client.call(name, *args),
            }
    tcp.close()


def _canonical(name, answer):
    if name == "iter_tables":
        # A sharded store yields one slice of a table per shard.
        rows = {}
        for key, windows, servers, values in answer:
            rows.setdefault(key, []).extend(
                zip(windows.tolist(), servers.tolist(), values.tolist())
            )
        return {key: sorted(table) for key, table in rows.items()}
    if name == "all_values":
        return np.sort(answer)  # shard-major order: a multiset
    return answer


def _assert_same(got, want):
    if isinstance(want, TimeSeries):
        got, want = (got.windows, got.values), (want.windows, want.values)
    if isinstance(want, np.ndarray):
        np.testing.assert_array_equal(got, want)  # NaN cells compare equal
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want)
        for key in want:
            _assert_same(got[key], want[key])
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for got_item, want_item in zip(got, want):
            _assert_same(got_item, want_item)
    else:
        assert got == want


def test_every_listed_read_has_arguments():
    assert set(ARGS) == set(READ_SURFACE)


@pytest.mark.parametrize("name", list(READ_SURFACE))
def test_every_reader_answers_alike(readers, name):
    want = _canonical(name, readers["single"](name, ARGS[name]))
    assert not hasattr(want, "__len__") or len(want), "a vacuous fixture"
    for kind in ("serial", "tcp", "live"):
        _assert_same(_canonical(name, readers[kind](name, ARGS[name])), want)
