"""Streaming mode: bit-identity, retention bounds, and the online alarm.

Guarantees protecting ``simulate --stream``:

* streaming a fleet block by block through
  :class:`~repro.cluster.streaming.StreamingSimulator` stores telemetry
  **bit-identical** to one batch ``run()`` of the same horizon — on
  every shard backend (serial / tcp), with block sizes 1 and 64,
  *including after rolling retention has evicted most of the run to
  the spill archive* — and its CSV export is **byte-identical**;
* rolling retention keeps the hot store bounded: after any block, hot
  rows never exceed the retained window span times the fleet's rows
  per window, while totals (and every query) still see all history;
* the online regression alarm fires a named alert within a bounded
  number of blocks of a mid-stream injected latency regression, and
  never fires on a clean run of the same seed.
"""

import numpy as np
import pytest

from repro.cluster.builders import build_single_pool_fleet
from repro.cluster.deployment import leak_fix_with_latency_regression
from repro.cluster.faults import RandomFailures
from repro.cluster.simulation import DEFAULT_COUNTERS, SimulationConfig, Simulator
from repro.cluster.streaming import ALARM_COUNTERS, StreamingSimulator
from repro.core.regression_analysis import OnlineRegressionAlarm
from repro.telemetry.counters import Counter
from repro.telemetry.export import export_store
from repro.telemetry.sharding import BACKENDS, ShardedMetricStore
from repro.telemetry.store import SpillArchive

WINDOWS = 192
RETAIN = 48

#: Aggregates maintained incrementally during the streamed runs, so the
#: bit-identity sweep exercises the tracked fast path (sealed-series
#: slices) alongside the spill-merging recompute path.
TRACK = (
    ("B", Counter.REQUESTS.value, None, "mean"),
    ("B", Counter.LATENCY_P95.value, "DC1", "max"),
)


def _simulator(seed=41, store=None, block_windows=1, **config_kwargs):
    fleet = build_single_pool_fleet(
        "B", n_datacenters=2, servers_per_deployment=6, seed=seed
    )
    return Simulator(
        fleet,
        store=store,
        seed=seed,
        config=SimulationConfig(
            block_windows=block_windows,
            random_failures=RandomFailures(daily_probability=0.3, seed=7),
            **config_kwargs,
        ),
    )


def _sharded(n_shards=3, backend="serial", server=None):
    kwargs = {}
    if backend == "tcp":
        kwargs["shard_addrs"] = [server.address] * n_shards
    return ShardedMetricStore(n_shards=n_shards, backend=backend, **kwargs)


def _stream(store=None, block_windows=1, retain=RETAIN, windows=WINDOWS):
    sim = _simulator(store=store, block_windows=block_windows)
    stream = StreamingSimulator(sim, retain_windows=retain, track=TRACK)
    report = stream.run(max_windows=windows)
    return sim.store, report


def _assert_stores_identical(a, b):
    assert a.pools == b.pools
    assert a.sample_count() == b.sample_count()
    assert a.max_window == b.max_window
    for pool in a.pools:
        assert a.counters_for_pool(pool) == b.counters_for_pool(pool)
        for counter in a.counters_for_pool(pool):
            for reducer in ("mean", "sum", "max", "count"):
                sa = a.pool_window_aggregate(pool, counter, reducer=reducer)
                sb = b.pool_window_aggregate(pool, counter, reducer=reducer)
                np.testing.assert_array_equal(sa.windows, sb.windows)
                np.testing.assert_array_equal(sa.values, sb.values)
            wa, ids_a, ma = a.pool_matrix(pool, counter)
            wb, ids_b, mb = b.pool_matrix(pool, counter)
            np.testing.assert_array_equal(wa, wb)
            assert ids_a == ids_b
            np.testing.assert_array_equal(ma, mb)
            assert a.servers_in_pool(pool) == b.servers_in_pool(pool)
            for server in a.servers_in_pool(pool):
                xa = a.server_series(pool, counter, server)
                xb = b.server_series(pool, counter, server)
                np.testing.assert_array_equal(xa.windows, xb.windows)
                np.testing.assert_array_equal(xa.values, xb.values)


_BATCH_REFS = {}


@pytest.fixture(scope="module")
def batch_reference():
    """Plain batch runs of the streamed horizon, one per block size.

    Streaming is bit-identical to a batch run *of the same block
    size* (larger blocks draw the RNG in a different order than
    per-window stepping, by design — see
    ``test_sim_equivalence.TestBlockedEquivalence``), so the ground
    truth is keyed by ``block_windows``.
    """

    def reference(block_windows):
        if block_windows not in _BATCH_REFS:
            sim = _simulator(block_windows=block_windows)
            sim.run(WINDOWS)
            _BATCH_REFS[block_windows] = sim.store
        return _BATCH_REFS[block_windows]

    return reference


class TestStreamingBitIdentity:
    """Streamed telemetry == batch telemetry, bit for bit.

    ``run_block`` issues exactly the call sequence one big ``run()``
    would, so this holds by construction — these tests pin it against
    every backend and block size, with retention evicting all but the
    trailing ``RETAIN`` windows to spill mid-run (so most of the
    compared queries merge the archive back).
    """

    @pytest.mark.parametrize("block_windows", [1, 64])
    def test_single_store_matches_batch(self, batch_reference, block_windows):
        streamed, report = _stream(block_windows=block_windows)
        assert report.windows == WINDOWS
        assert report.stopped_by == "max-windows"
        assert streamed.evicted_before == WINDOWS - RETAIN
        assert report.evicted_rows > 0
        _assert_stores_identical(batch_reference(block_windows), streamed)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("block_windows", [1, 64])
    def test_backend_matches_batch(
        self, batch_reference, backend, block_windows, shard_server
    ):
        with _sharded(backend=backend, server=shard_server) as store:
            streamed, report = _stream(
                store=store, block_windows=block_windows
            )
            assert report.evicted_rows > 0
            _assert_stores_identical(batch_reference(block_windows), streamed)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_export_byte_identical(
        self, batch_reference, backend, tmp_path, shard_server
    ):
        """Post-eviction exports merge the spill archive back exactly."""
        batch_path = tmp_path / "batch.csv"
        export_store(batch_reference(16), batch_path)
        with _sharded(backend=backend, server=shard_server) as store:
            streamed, _ = _stream(store=store, block_windows=16)
            streamed_path = tmp_path / f"{backend}.csv"
            export_store(streamed, streamed_path)
        assert batch_path.read_bytes() == streamed_path.read_bytes()

    def test_partial_final_block_matches_batch(self, batch_reference):
        """max_windows not divisible by the block size still runs all."""
        streamed, report = _stream(block_windows=60)
        assert report.windows == WINDOWS
        assert report.blocks == 4
        _assert_stores_identical(batch_reference(60), streamed)

    def test_streaming_without_retention_matches_batch(self, batch_reference):
        streamed, report = _stream(block_windows=16, retain=None)
        assert report.evicted_rows == 0
        assert streamed.evicted_before == 0
        _assert_stores_identical(batch_reference(16), streamed)


class TestRollingRetention:
    def test_hot_rows_bounded_by_retention(self):
        streamed, report = _stream(block_windows=16)
        n_servers = sum(
            len(streamed.servers_in_pool(pool)) for pool in streamed.pools
        )
        n_counters = sum(
            len(streamed.counters_for_pool(pool)) for pool in streamed.pools
        )
        bound = RETAIN * n_servers * n_counters
        assert streamed.hot_sample_count() <= bound
        # Eviction moves rows, never drops them.
        assert (
            streamed.hot_sample_count() + report.evicted_rows
            == streamed.sample_count()
        )

    def test_watermark_tracks_the_clock(self):
        streamed, _ = _stream(block_windows=16)
        assert streamed.evicted_before == WINDOWS - RETAIN
        # Everything from the watermark up is still hot and queryable
        # without touching the archive; everything below reads back too.
        series = streamed.pool_window_aggregate(
            "B", Counter.REQUESTS.value, reducer="count"
        )
        assert series.windows[0] == 0
        assert series.windows[-1] == WINDOWS - 1

    def test_retention_validation(self):
        sim = _simulator()
        with pytest.raises(ValueError):
            StreamingSimulator(sim, retain_windows=0)


class TestStreamingDriver:
    def test_report_counts_blocks(self):
        _, report = _stream(block_windows=64, retain=None, windows=192)
        assert report.windows == 192
        assert report.blocks == 3
        assert report.alerts == []

    def test_zero_max_windows(self):
        sim = _simulator()
        report = StreamingSimulator(sim).run(max_windows=0)
        assert report.windows == 0
        assert report.blocks == 0
        assert sim.store.sample_count() == 0

    def test_interrupt_is_a_clean_stop(self):
        """SIGINT mid-stream still reconciles and reports."""
        sim = _simulator(block_windows=16)
        stream = StreamingSimulator(sim, retain_windows=RETAIN)

        def boom():
            raise KeyboardInterrupt

        stream.schedule(48, boom)
        report = stream.run(max_windows=WINDOWS)
        assert report.stopped_by == "interrupt"
        assert 0 < report.windows < WINDOWS
        assert sim.store.max_window == report.windows - 1

    def test_schedule_validation(self):
        stream = StreamingSimulator(_simulator())
        with pytest.raises(ValueError):
            stream.schedule(-1, lambda: None)
        with pytest.raises(ValueError):
            stream.run(max_windows=-1)

    def test_scheduled_action_fires_before_its_block(self):
        sim = _simulator(block_windows=16)
        stream = StreamingSimulator(sim)
        fired_at = []
        stream.schedule(40, lambda: fired_at.append(sim.current_window))
        stream.run(max_windows=64)
        # Window 40 lives in block [32, 48): the action fires at the
        # block boundary before it, never after.
        assert fired_at == [32]


ALARM_SEED = 42
ALARM_BLOCK = 16
ALARM_HORIZON = 720
INJECT_AT = 480


def _alarm_run(inject: bool, seed: int = ALARM_SEED):
    fleet = build_single_pool_fleet(
        "B", n_datacenters=1, servers_per_deployment=8, seed=seed
    )
    counters = tuple(dict.fromkeys(DEFAULT_COUNTERS + ALARM_COUNTERS))
    sim = Simulator(
        fleet,
        seed=seed,
        config=SimulationConfig(block_windows=ALARM_BLOCK, counters=counters),
    )
    alarm = OnlineRegressionAlarm("B")
    stream = StreamingSimulator(sim, retain_windows=512, alarm=alarm)
    if inject:
        stream.schedule(
            INJECT_AT,
            lambda: sim.set_version(
                "B", leak_fix_with_latency_regression(queue_multiplier=3.0)
            ),
        )
    report = stream.run(max_windows=ALARM_HORIZON)
    return alarm, report


class TestOnlineAlarm:
    """The regression gate run per block over the tracked series."""

    def test_alert_within_bounded_blocks_of_injection(self):
        alarm, report = _alarm_run(inject=True)
        assert alarm.fired
        assert len(report.alerts) == 1
        alert = report.alerts[0]
        assert alert.name == "latency-regression"
        assert alert.pool_id == "B"
        # Fires after the injection, within the documented bound: the
        # recent-profile span plus one block of seal latency.
        assert INJECT_AT <= alert.window
        assert alert.window <= INJECT_AT + alarm.recent_windows + ALARM_BLOCK
        assert "latency delta" in alert.detail

    def test_clean_run_never_fires(self):
        alarm, report = _alarm_run(inject=False)
        assert not alarm.fired
        assert report.alerts == []

    def test_alert_is_latched(self):
        """One alert per alarm, no matter how long the stream runs on."""
        alarm, report = _alarm_run(inject=True)
        assert len(report.alerts) == 1
        assert alarm.observe(None, ALARM_HORIZON + 10_000) is None


class TestSpillReadsAtBlockOne:
    """The knob's other side: at ``block_windows=1`` a long retained
    stream holds thousands of one-window chunks per table.  Nothing on
    the per-block path may walk the spilled ones — counted as
    ``SpillArchive.read_into`` calls, not timed."""

    def test_hot_path_never_reads_the_spill(self, monkeypatch):
        offsets = []
        read_into = SpillArchive.read_into

        def counting_read(self, offset, buffers, nbytes):
            offsets.append(offset)
            return read_into(self, offset, buffers, nbytes)

        monkeypatch.setattr(SpillArchive, "read_into", counting_read)
        windows, retain = 1600, 64
        sim = _simulator(block_windows=1)
        stream = StreamingSimulator(sim, retain_windows=retain, track=TRACK[:1])
        store = sim.store
        pool, counter, _dc, reducer = TRACK[0]

        def read_above_the_watermark():
            lo = store.evicted_before
            server = store.server_name(0)
            tracked = store.pool_window_aggregate(
                pool, counter, start=lo + 8, reducer=reducer
            )
            assert tracked.windows[0] == lo + 8
            series = store.server_series(pool, counter, server, start=lo)
            assert (series.windows >= lo).all()
            assert store.pool_matrix(pool, Counter.LATENCY_P95.value, start=lo)[0][0] == lo

        for window in range(retain + 10, windows, 97):
            stream.schedule(window, read_above_the_watermark)
        report = stream.run(max_windows=windows)
        assert report.blocks == windows
        assert store.evicted_before == windows - retain
        # 1600 seals, 1536 evictions and 16 rounds of reads later:
        assert offsets == []
        # One full-range read loads each spilled chunk of the tables it
        # covers exactly once.
        store.gather_columns(pool, counter)
        cold = [
            chunk.offset
            for dc in store.datacenters
            for chunk in store._tables[pool, dc, counter]._cold
        ]
        assert len(cold) == 2 * (windows - retain)
        assert sorted(offsets) == sorted(cold)
