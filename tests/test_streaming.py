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
  never fires on a clean run of the same seed; its alerts are those of
  the batch gate run at every sealed window, while it fits in batch
  only the baseline and the verdicts that could fail.
"""

import numpy as np
import pytest

from repro.cluster.builders import build_single_pool_fleet
from repro.cluster.deployment import leak_fix_with_latency_regression
from repro.cluster.faults import RandomFailures
from repro.cluster.simulation import DEFAULT_COUNTERS, SimulationConfig, Simulator
from repro.cluster.streaming import ALARM_COUNTERS, StreamingSimulator
from repro.core import regression_analysis
from repro.core.regression_analysis import OnlineRegressionAlarm, profile_response
from repro.telemetry.counters import Counter
from repro.telemetry.export import export_store
from repro.telemetry.sharding import BACKENDS, ShardedMetricStore
from repro.telemetry.store import MetricStore, SpillArchive, _TrackedAggregate

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


def _alarm_stream(
    inject: bool,
    seed: int = ALARM_SEED,
    block: int = ALARM_BLOCK,
    horizon: int = ALARM_HORIZON,
    store=None,
):
    """Stream the alarm fleet; returns (store, alarm, report)."""
    fleet = build_single_pool_fleet(
        "B", n_datacenters=1, servers_per_deployment=8, seed=seed
    )
    counters = tuple(dict.fromkeys(DEFAULT_COUNTERS + ALARM_COUNTERS))
    sim = Simulator(
        fleet,
        store=store,
        seed=seed,
        config=SimulationConfig(block_windows=block, counters=counters),
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
    report = stream.run(max_windows=horizon)
    return sim.store, alarm, report


def _alarm_run(inject: bool, seed: int = ALARM_SEED):
    _store, alarm, report = _alarm_stream(inject, seed)
    return alarm, report


def _alert_fields(alert):
    report = alert.report
    return (
        alert.name, alert.window, alert.detail,
        report.max_latency_regression_ms, report.max_cpu_regression_pct,
    )


def _batch_gate(store, alarm, observed):
    """The batch gate at every observed window, as a plain loop.

    Returns the alerts it raises (at most the first failing verdict, as
    :func:`_alert_fields`) and the windows whose verdict passed.
    """
    gate, baseline, passed = alarm.gate, None, set()
    for window in observed:
        if window + 1 < alarm.baseline_windows + alarm.recent_windows:
            continue
        try:
            if baseline is None:
                baseline = profile_response(
                    store, "B", "baseline", start=0, stop=alarm.baseline_windows
                )
            recent = profile_response(
                store, "B", "recent",
                start=window + 1 - alarm.recent_windows, stop=window + 1,
            )
            report = gate.compare(baseline, recent)
        except ValueError:
            continue
        if report.passed:
            passed.add(window)
            continue
        if report.latency_regressed:
            name = "latency-regression"
            detail = (
                f"max latency delta {report.max_latency_regression_ms:+.1f} ms "
                f"> {gate.latency_tolerance_ms:.1f} ms tolerance"
            )
        elif report.cpu_regressed:
            name = "cpu-regression"
            detail = (
                f"max CPU delta {report.max_cpu_regression_pct:+.1f} pts "
                f"> {gate.cpu_tolerance_pct:.1f} pts tolerance"
            )
        else:
            name = "memory-leak"
            detail = (
                "working set growing "
                f"{recent.memory_slope_bytes_per_window / 1e6:.2f} MB/window"
            )
        fields = (
            name, window, detail,
            report.max_latency_regression_ms, report.max_cpu_regression_pct,
        )
        return [fields], passed
    return [], passed


def _spy_alarm(monkeypatch):
    """Record every observed window, and those whose batch fit the
    alarm's closed-form filter skipped as proved passing."""
    observed, skipped = [], []
    observe = OnlineRegressionAlarm.observe
    clearly_passes = OnlineRegressionAlarm._clearly_passes

    def spy_observe(self, store, through_window):
        observed.append(through_window)
        return observe(self, store, through_window)

    def spy_clearly_passes(self):
        proved = clearly_passes(self)
        if proved:
            skipped.append(observed[-1])
        return proved

    monkeypatch.setattr(OnlineRegressionAlarm, "observe", spy_observe)
    monkeypatch.setattr(OnlineRegressionAlarm, "_clearly_passes", spy_clearly_passes)
    return observed, skipped


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

    @pytest.mark.parametrize("inject", [True, False], ids=["injected", "clean"])
    @pytest.mark.parametrize("block", [1, 16, 64])
    @pytest.mark.parametrize("seed", [42, 7])
    def test_alarm_is_the_batch_gate(self, monkeypatch, seed, block, inject):
        """Same alerts as the batch gate run at every sealed window, and
        a batch fit skipped only where the batch verdict passed."""
        observed, skipped = _spy_alarm(monkeypatch)
        store, alarm, report = _alarm_stream(inject, seed=seed, block=block)
        expected, passed = _batch_gate(store, alarm, observed)
        assert [_alert_fields(alert) for alert in report.alerts] == expected
        assert len(expected) == int(inject)
        assert skipped and set(skipped) <= passed

    def test_sharded_store_gives_the_single_store_alert(self):
        _store, _alarm, single = _alarm_stream(inject=True)
        with ShardedMetricStore(n_shards=3, backend="serial") as store:
            _store, _alarm, sharded = _alarm_stream(inject=True, store=store)
        assert single.alerts
        assert [_alert_fields(alert) for alert in sharded.alerts] == [
            _alert_fields(alert) for alert in single.alerts
        ]


class TestAlarmCost:
    """The batch fit is the exception and each window is read once,
    pinned by counting."""

    HORIZON = 1440

    @pytest.fixture
    def fits(self, monkeypatch):
        fits = []

        def counting(*args, **kwargs):
            fits.append(args[2])
            return profile_response(*args, **kwargs)

        monkeypatch.setattr(regression_analysis, "profile_response", counting)
        return fits

    def test_clean_run_fits_only_the_baseline(self, fits):
        _store, _alarm, report = _alarm_stream(inject=False, horizon=self.HORIZON)
        assert report.alerts == []
        assert fits == ["baseline"]

    def test_injected_run_refits_a_handful_of_times(self, fits):
        _store, _alarm, report = _alarm_stream(inject=True, horizon=self.HORIZON)
        assert len(report.alerts) == 1
        assert 2 <= len(fits) <= 3

    @pytest.mark.parametrize("inject", [True, False], ids=["injected", "clean"])
    def test_each_window_is_read_about_once(self, monkeypatch, inject):
        requested = []
        aggregate = MetricStore.pool_window_aggregate

        def counting(self, pool_id, counter, datacenter_id=None, start=None,
                     stop=None, reducer="mean"):
            if counter == Counter.REQUESTS.value:
                requested.append(stop - start)
            return aggregate(
                self, pool_id, counter, datacenter_id, start, stop, reducer
            )

        monkeypatch.setattr(MetricStore, "pool_window_aggregate", counting)
        _store, alarm, _report = _alarm_stream(inject, horizon=self.HORIZON)
        # Not one trailing range per block: 90 blocks here would ask
        # for 68 × 120 windows.
        assert sum(requested) <= self.HORIZON + alarm.recent_windows


class TestTrackedSeriesAppend:
    """A tracked series appends in amortised O(new windows): counted as
    the elements each read after a seal had to copy (a read sharing
    memory with the previous one copied only the appended rows)."""

    @staticmethod
    def _copied(seals: int) -> int:
        tracker = _TrackedAggregate("mean")
        copied, previous = 0, None
        for seal in range(seals):
            windows = np.arange(4 * seal, 4 * seal + 4)
            tracker.extend(windows, windows * 0.5, int(windows[-1]))
            current = tracker.columns()
            for old, new in zip(previous or (), current):
                assert np.array_equal(old, new[: old.size])
            for i, new in enumerate(current):
                shared = previous is not None and np.shares_memory(previous[i], new)
                copied += new.size - previous[i].size if shared else new.size
            previous = current
        assert np.array_equal(current[0], np.arange(4 * seals))
        return copied

    def test_reads_after_each_seal_copy_linearly(self):
        n = 256
        assert self._copied(4 * n) <= 4.4 * self._copied(n)


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
