"""Lifecycle and protocol tests of the remote (tcp) shard client.

The equivalence guarantees (remote shards answer bit-identically to a
single store) live in ``test_sharded_store.py`` /
``test_sim_equivalence.py``, which parametrize over ``BACKENDS``.  This
file covers what is specific to the client/serve-loop actor itself:
session lifecycle (close is orderly, idempotent and fork-safe — no
leaked sessions), the batching/flush ingest protocol, interner
replication, and deferred ingest-error delivery.
"""

import os
import time

import numpy as np
import pytest

from repro.telemetry.sharding import ShardedMetricStore


def _fill(store, n_servers=6, n_windows=4):
    rng = np.random.default_rng(3)
    ids = [f"s{i:02d}" for i in range(n_servers)]
    indices = store.intern_servers(ids)
    for window in range(n_windows):
        store.record_batch(
            "P", "dc", "cpu", window, indices, rng.uniform(0, 1, n_servers)
        )
    return store


def _tcp(shard_server, n_shards=2, **kwargs):
    return ShardedMetricStore(
        backend="tcp", shard_addrs=[shard_server.address] * n_shards, **kwargs
    )


def _live_sessions(server) -> int:
    with server._lock:
        return len(server._sessions)


def _assert_sessions_end(server, baseline: int) -> None:
    """The server prunes a session once its serve loop has exited, so
    falling back to ``baseline`` proves close() ended the sessions it
    opened (a session ends asynchronously after the client's goodbye)."""
    deadline = time.monotonic() + 10
    while _live_sessions(server) > baseline and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _live_sessions(server) <= baseline


class TestLifecycle:
    def test_backend_validation(self, shard_server):
        with pytest.raises(ValueError):
            ShardedMetricStore(n_shards=2, backend="rayon")
        with pytest.raises(ValueError):
            _tcp(shard_server, flush_rows=0)
        with pytest.raises(ValueError):
            # tcp cannot guess where its shard servers live ...
            ShardedMetricStore(n_shards=2, backend="tcp")
        with pytest.raises(ValueError):
            # ... and owns the shard_addrs knob exclusively.
            ShardedMetricStore(n_shards=2, backend="serial",
                               shard_addrs=["127.0.0.1:1"])
        # No backend named means the in-process one.
        assert ShardedMetricStore(n_shards=2).backend == "serial"

    def test_tcp_shard_count_follows_addresses(self, shard_server):
        addrs = [shard_server.address] * 3
        with ShardedMetricStore(backend="tcp", shard_addrs=addrs) as store:
            assert store.backend == "tcp"
            assert store.n_shards == 3
            assert [shard.address for shard in store.shards] == addrs

    def test_double_close_is_a_noop(self, shard_server):
        baseline = _live_sessions(shard_server)
        store = _tcp(shard_server)
        _fill(store)
        assert store.sample_count() == 24
        store.close()
        store.close()  # must be a no-op, not an error
        assert all(shard.closed for shard in store.shards)
        _assert_sessions_end(shard_server, baseline)

    def test_close_after_fork_leaves_owner_sessions_alive(self, shard_server):
        """A forked copy of the store must not end the parent's sessions.

        Forks inherit the proxy objects (and their socket descriptors,
        which share one connection with the parent's); only the
        creating process may end a session, otherwise a fork that exits
        cleanly would yank live shards out from under the parent.
        """
        store = _tcp(shard_server)
        try:
            _fill(store)
            expected = store.sample_count()

            pid = os.fork()
            if pid == 0:  # the forked copy: close, report, vanish
                try:
                    store.close()
                    os._exit(0)
                except BaseException:
                    os._exit(1)
            deadline = time.monotonic() + 30
            while True:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    break
                assert time.monotonic() < deadline, "forked close() hung"
                time.sleep(0.01)
            assert os.waitstatus_to_exitcode(status) == 0

            # The parent's sessions survived the fork's close() and
            # still answer.
            assert store.sample_count() == expected
        finally:
            store.close()

    def test_query_after_close_raises(self, shard_server):
        store = _tcp(shard_server)
        _fill(store)
        store.close()
        with pytest.raises(RuntimeError):
            store.sample_count()
        with pytest.raises(RuntimeError):
            store.record_batch(
                "P", "dc", "cpu", 99, np.array([0], dtype=np.int64), np.ones(1)
            )

    def test_context_manager_closes_sessions_on_exception(self, shard_server):
        baseline = _live_sessions(shard_server)
        with pytest.raises(RuntimeError, match="boom"):
            with _tcp(shard_server) as store:
                _fill(store)
                raise RuntimeError("boom")
        assert all(shard.closed for shard in store.shards)
        _assert_sessions_end(shard_server, baseline)


class TestIngestProtocol:
    def test_small_parts_coalesce_until_flush(self, shard_server):
        """Ingest buffers parts and ships them as one message."""
        with _tcp(shard_server, flush_rows=10_000) as store:
            _fill(store, n_servers=4, n_windows=5)
            # Nothing forced a flush yet: every part is still pending
            # client-side (5 windows x 1 part per shard per window).
            assert all(shard._pending for shard in store.shards)
            assert all(shard._pending_rows == 10 for shard in store.shards)
            # The first query flushes and observes all writes.
            assert store.sample_count() == 20
            assert all(not shard._pending for shard in store.shards)

    def test_flush_rows_threshold_triggers_send(self, shard_server):
        with _tcp(shard_server, flush_rows=8) as store:
            _fill(store, n_servers=4, n_windows=5)
            # 2 rows/shard/window with an 8-row threshold: the buffer
            # must have been shipped at least once before any query.
            assert all(shard._pending_rows < 8 for shard in store.shards)
            assert store.sample_count() == 20

    def test_facade_flush_is_explicit_barrier(self, shard_server):
        with _tcp(shard_server, flush_rows=10_000) as store:
            _fill(store, n_servers=4, n_windows=2)
            store.flush()
            assert all(not shard._pending for shard in store.shards)
            assert store.sample_count() == 8

    def test_deferred_ingest_error_surfaces_on_next_query(self):
        """An ingest command that fails in the serve loop is delivered
        on the next RPC instead of being dropped.  Malformed columns
        never get that far (the client refuses them), so the failure is
        provoked server-side: a session store that rejects a counter."""
        from repro.telemetry.store import MetricStore
        from repro.telemetry.workers import ShardServer

        class PickyStore(MetricStore):
            def record_columns(self, pool_id, datacenter_id, counter, *columns):
                if counter == "forbidden":
                    raise KeyError("no such counter here")
                super().record_columns(pool_id, datacenter_id, counter, *columns)

        class PickyServer(ShardServer):
            def _session_store(self):
                return PickyStore()

        with PickyServer() as server, _tcp(server, n_shards=1) as store:
            indices = store.intern_servers(["a", "b"])
            store.record_batch("P", "dc", "forbidden", 0, indices, np.ones(2))
            store.record_batch("P", "dc", "cpu", 0, indices, np.ones(2))
            store.flush()  # fire-and-forget: the failure is not seen yet
            with pytest.raises(KeyError, match="no such counter"):
                store.sample_count()
            # The session survives its own error and keeps serving; the
            # failed frame's later commands were dropped with it.
            assert store.sample_count() == 0
            store.record_batch("P", "dc", "cpu", 1, indices, np.ones(2))
            assert store.sample_count() == 2

    def test_malformed_columns_raise_at_the_caller(self, shard_server):
        """The layout check runs client-side: the call raises, nothing
        is buffered, no frame is sent, and the session keeps serving."""
        with _tcp(shard_server, n_shards=1) as store:
            shard = store.shards[0]
            sent = []
            send_ingest = shard._transport.send_ingest

            def spy(names, commands):
                sent.append(len(commands))
                send_ingest(names, commands)

            shard._transport.send_ingest = spy
            one = np.zeros(1, dtype=np.int64)
            for target in (shard, store):
                with pytest.raises(ValueError, match=r"shapes \(\(2,\), \(1,\)"):
                    target.record_columns(
                        "P", "dc", "cpu", np.zeros(2, dtype=np.int64), one,
                        np.ones(1),
                    )
                with pytest.raises(ValueError, match=r"dtypes \('float64',"):
                    target.record_columns(
                        "P", "dc", "cpu", np.zeros(1), one, np.ones(1)
                    )
            assert not shard._pending
            assert store.sample_count() == 0 and sent == []
            # int32 indices are a lossless cast, stored as int64.
            store.record_columns(
                "P", "dc", "cpu", np.zeros(1, dtype=np.int32),
                np.zeros(1, dtype=np.int32), np.ones(1, dtype=np.float32),
            )
            assert store.sample_count() == 1 and sent == [1]
            windows, servers, values = store.gather_columns("P", "cpu")
            assert (windows.dtype, servers.dtype, values.dtype) == (
                np.int64, np.int64, np.float64
            )

    def test_interner_replication_names_queries(self, shard_server):
        """Sessions learn names via deltas, never via shared memory."""
        with _tcp(shard_server) as store:
            _fill(store, n_servers=5, n_windows=3)
            per_server = store.per_server_values("P", "cpu")
            assert set(per_server) == {f"s{i:02d}" for i in range(5)}
            # Late-interned servers reach sessions with later messages.
            late = store.intern_servers(["late0", "late1"])
            store.record_batch("P", "dc", "cpu", 7, late, np.ones(2))
            assert "late0" in store.per_server_values("P", "cpu")
            _windows, names, _matrix = store.pool_matrix("P", "cpu")
            assert "late1" in names

    def test_record_fast_and_record_many_ride_the_buffer(
        self, shard_server, monkeypatch
    ):
        """All four convenience verbs reduce to ``record_columns``:
        they leave as kind-1 binary frames only — never a pickle — and
        store exactly what a local ``MetricStore`` stores."""
        from repro.telemetry import transport
        from repro.telemetry.counters import CounterSample
        from repro.telemetry.store import MetricStore

        def sample(window, server, value):
            return CounterSample(
                window_index=window, server_id=server, pool_id="P",
                datacenter_id="dc", counter="cpu", value=value,
            )

        def feed(store):
            store.record_fast(0, "a", "P", "dc", "cpu", 1.0)
            store.record_fast(0, "b", "P", "dc", "cpu", 2.0)
            store.record(sample(1, "b", 4.0))
            store.record_many([sample(1, "a", 3.0), sample(2, "c", 5.0)])
            store.record_batch(
                "P", "dc", "cpu", 3, ["a", "b", "c"], np.array([6.0, 7.0, 8.0])
            )

        local = MetricStore()
        feed(local)

        pickled_tags = []
        send = transport.TcpTransport.send

        def spy_send(self, message):
            pickled_tags.append(message[0])
            send(self, message)

        binary_frames = []
        send_ingest = transport.TcpTransport.send_ingest

        def spy_send_ingest(self, names, commands):
            binary_frames.append(len(commands))
            send_ingest(self, names, commands)

        monkeypatch.setattr(transport.TcpTransport, "send", spy_send)
        monkeypatch.setattr(transport.TcpTransport, "send_ingest", spy_send_ingest)
        with _tcp(shard_server) as store:
            feed(store)
            # Nothing left yet: every verb rode the coalescing buffer.
            assert binary_frames == []
            assert sum(shard._pending_rows for shard in store.shards) == 8
            assert store.sample_count() == local.sample_count() == 8
            # One coalesced binary frame per shard; pickle carried only
            # the control plane (the in-process server's replies too).
            assert len(binary_frames) == 2 and sum(binary_frames) >= 5
            assert set(pickled_tags) == {"call", "ok"}
            for reducer in ("sum", "count", "max", "mean"):
                expected = local.pool_window_aggregate("P", "cpu", reducer=reducer)
                actual = store.pool_window_aggregate("P", "cpu", reducer=reducer)
                np.testing.assert_array_equal(actual.windows, expected.windows)
                np.testing.assert_array_equal(actual.values, expected.values)
            expected = local.per_server_values("P", "cpu")
            actual = store.per_server_values("P", "cpu")
            assert actual.keys() == expected.keys()
            for name, values in expected.items():
                np.testing.assert_array_equal(actual[name], values)


class TestCloseFailoverRace:
    """close() racing a session retirement must not double-close.

    The regression: ``TcpShardClient._retire`` closes a failed session
    on whichever thread observed the failure, *outside* the membership
    lock, while a concurrent ``close()`` empties the same session list
    — unless leaving the list is a lock-guarded test-and-set, both
    paths could run the full teardown (``stop`` + transport close)
    twice on one session.
    These hammers lose the race on purpose, many times in a row.
    """

    ROUNDS = 15

    def test_close_racing_failover_never_double_closes(self, shard_server):
        import threading

        from repro.telemetry.store import ServerInterner
        from repro.telemetry.workers import TcpShardClient

        failures = []
        for _ in range(self.ROUNDS):
            client = TcpShardClient(
                0,
                ServerInterner(),
                [shard_server.address, shard_server.address],
                io_timeout=10,
            )
            primary = client._transport
            barrier = threading.Barrier(3)

            def crash_then_query(client=client, primary=primary, barrier=barrier):
                barrier.wait()
                # The failure the failover path reacts to: the primary's
                # socket dies under it mid-session.
                primary.close()
                try:
                    client.call("sample_count")
                except RuntimeError:
                    pass  # closed under us or every member gone: clean ends
                except Exception as error:  # pragma: no cover - regression
                    failures.append(error)

            def close_group(client=client, barrier=barrier):
                barrier.wait()
                try:
                    client.close()
                except Exception as error:  # pragma: no cover - regression
                    failures.append(error)

            threads = [
                threading.Thread(target=crash_then_query),
                threading.Thread(target=close_group),
            ]
            for thread in threads:
                thread.start()
            barrier.wait()
            for thread in threads:
                thread.join(30)
            assert not any(thread.is_alive() for thread in threads)
            client.close()  # idempotent once the dust settles
            assert client.closed
        assert failures == []

    def test_many_threads_close_one_session(self, shard_server):
        """N concurrent close() calls collapse to exactly one teardown."""
        import threading

        from repro.telemetry.store import ServerInterner
        from repro.telemetry.workers import TcpShardClient

        for _ in range(self.ROUNDS):
            client = TcpShardClient(0, ServerInterner(), shard_server.address)
            errors = []
            barrier = threading.Barrier(5)

            def close_it(client=client, barrier=barrier, errors=errors):
                barrier.wait()
                try:
                    client.close()
                except Exception as error:  # pragma: no cover - regression
                    errors.append(error)

            threads = [threading.Thread(target=close_it) for _ in range(4)]
            for thread in threads:
                thread.start()
            barrier.wait()
            for thread in threads:
                thread.join(30)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert client.closed
