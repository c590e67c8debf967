"""Fault tolerance of the replicated tcp shard fleet.

The acceptance suite of the replication work (run via ``make
test-faults``, and small enough to ride in tier-1 too):

* **kill -9 a real primary mid-ingest** — a subprocess
  ``repro shard-server`` hosting both primaries is SIGKILLed halfway
  through ingest; the run completes via replica failover and the
  exported archive is *byte-identical* to an unsharded twin's.
* **restart/rejoin round-trip** — a shard's server is stopped, a fresh
  one started, and ``rejoin_shard`` replays the shard client's journal
  through the ``resync`` RPC; every query class and the export then
  match a never-crashed twin bit-for-bit, including after a first
  rejoin that itself died mid-replay while ingest kept arriving, for a
  replicated shard that lost every session, and with rows still
  unflushed when the shard died.
* **fault matrix** — every :mod:`repro.telemetry.faultinject` failure
  mode against an *un-replicated* shard surfaces as the named
  per-shard error within the ``io_timeout`` bound: never a hang.
* **the session list, by property** — a Hypothesis state machine kills
  the sessions of one ``TcpShardClient`` in any order between ingest,
  reads and evictions and compares every answer with a local twin;
  beside it the three things a merge of the sessions could get wrong:
  the frames every wire carries, the per-session names counter, and a
  mutating call whose first session answers ``err``.
* **CLI surface** — ``--replica-addrs`` / ``--inject-fault``
  validation and the end-to-end failover run through ``repro
  simulate``.

Equivalence of healthy replicated stores rides the usual parametrized
suites; this file is exclusively about runs where something dies.
"""

import time
import weakref

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cli import main
from repro.telemetry.export import export_store
from repro.telemetry.faultinject import (
    FaultSpec,
    FaultyTransport,
    inject_client,
    inject_store,
    parse_fault_spec,
)
from repro.telemetry.sharding import ShardedMetricStore
from repro.telemetry.store import MetricStore, ServerInterner, SpillArchive
from repro.telemetry.workers import (
    ShardConnectionError,
    ShardJournal,
    ShardServer,
    TcpShardClient,
    serve_shard,
)

REDUCERS = ("mean", "sum", "max", "count")

#: Generous wall-clock ceiling for operations that must fail *promptly*
#: (the io_timeout used below is 2s; anything near this bound is a hang).
PROMPT_S = 20.0


def _fill_windows(store, start, stop, n_servers=16):
    """Deterministic ingest for windows ``[start, stop)``.

    Pure function of (pool, dc, counter, window), so any two stores fed
    the same window range hold identical rows — the twin-comparison
    backbone of this file, and splittable at any window boundary to
    bracket a mid-ingest crash.
    """
    for pool in ("A", "B"):
        for dc in ("dc1", "dc2"):
            ids = [f"{dc}.{pool}.s{i:03d}" for i in range(n_servers)]
            indices = store.intern_servers(ids)
            base = float(ord(pool) * 7 + ord(dc[-1]))
            for window in range(start, stop):
                for offset, counter in enumerate(("cpu", "rps")):
                    values = (
                        np.arange(n_servers, dtype=np.float64) * 0.75
                        + window * 1.25 + offset * 10.0 + base
                    )
                    store.record_batch(pool, dc, counter, window, indices, values)
    return store


def _fill_shared(store, start, stop, n_servers=16):
    """``_fill_windows``'s rows, handed over the engine's way: one
    (windows, servers) pair per table for every counter, so the
    facade's partition and each ingest frame share key columns."""
    for pool in ("A", "B"):
        for dc in ("dc1", "dc2"):
            ids = [f"{dc}.{pool}.s{i:03d}" for i in range(n_servers)]
            indices = store.intern_servers(ids)
            base = float(ord(pool) * 7 + ord(dc[-1]))
            windows = np.repeat(np.arange(start, stop, dtype=np.int64), n_servers)
            servers = np.tile(indices, stop - start)
            for offset, counter in enumerate(("cpu", "rps")):
                values = (
                    np.tile(np.arange(n_servers, dtype=np.float64) * 0.75, stop - start)
                    + windows * 1.25 + offset * 10.0 + base
                )
                store.record_columns(pool, dc, counter, windows, servers, values)
    return store


def _assert_twins(single, sharded, tmp_path, tag):
    """Every query class and the export must match bit-for-bit."""
    assert sharded.sample_count() == single.sample_count()
    assert sharded.pools == single.pools
    assert sharded.max_window == single.max_window
    for reducer in REDUCERS:
        a = single.pool_window_aggregate("A", "cpu", reducer=reducer)
        b = sharded.pool_window_aggregate("A", "cpu", reducer=reducer)
        np.testing.assert_array_equal(a.windows, b.windows)
        np.testing.assert_array_equal(a.values, b.values)
    wa, na, ma = single.pool_matrix("B", "rps")
    wb, nb, mb = sharded.pool_matrix("B", "rps")
    np.testing.assert_array_equal(wa, wb)
    assert na == nb
    np.testing.assert_array_equal(ma, mb)
    a = single.per_server_values("A", "rps")
    b = sharded.per_server_values("A", "rps")
    assert set(a) == set(b)
    for server in a:
        np.testing.assert_array_equal(a[server], b[server])
    single_path = tmp_path / f"single-{tag}.csv"
    sharded_path = tmp_path / f"sharded-{tag}.csv"
    assert export_store(single, single_path) == export_store(sharded, sharded_path)
    assert single_path.read_bytes() == sharded_path.read_bytes()


class TestKillPrimaryMidIngest:
    """The tentpole acceptance test: SIGKILL the primary, keep going."""

    @pytest.mark.slow
    def test_archive_byte_identical_after_kill9(
        self, tmp_path, shard_server_processes
    ):
        primary, primary_addr = shard_server_processes.spawn()
        replica, replica_addr = shard_server_processes.spawn()
        store = None
        try:
            single = _fill_windows(MetricStore(), 0, 40)
            store = ShardedMetricStore(
                backend="tcp",
                shard_addrs=[primary_addr, primary_addr],
                replica_addrs=[replica_addr, replica_addr],
                flush_rows=256,
                io_timeout=30,
            )
            _fill_windows(store, 0, 20)
            # A query is the sync barrier: every member has consumed
            # every frame the facade flushed so far.
            assert store.sample_count() > 0
            primary.kill()  # SIGKILL — no goodbye, no FIN ordering
            primary.wait(timeout=30)
            # Ingest straight into the corpse: the dead sessions fail
            # mid-run and both shards fail over to their replicas.
            _fill_windows(store, 20, 40)
            _assert_twins(single, store, tmp_path, "kill9")
            for shard in store.shards:
                assert shard.live_addresses == (replica_addr,)
                assert shard.address == primary_addr  # identity is stable
        finally:
            if store is not None:
                store.close()
            shard_server_processes.reap(primary)
            shard_server_processes.reap(replica)


def _frames(client):
    """How many flushed frames a shard client's journal holds."""
    return sum(isinstance(entry, tuple) for entry in client._journal._entries)


class TestRestartRejoin:
    """Stop a shard's server, restart, resync — bit-identical again."""

    def test_rejoin_matches_never_crashed_twin(self, tmp_path):
        single = _fill_windows(MetricStore(), 0, 30)
        with ShardServer("127.0.0.1:0") as keeper:
            victim = ShardServer("127.0.0.1:0").start()
            store = ShardedMetricStore(
                backend="tcp",
                shard_addrs=[keeper.address, victim.address],
                journal=True,
                flush_rows=128,
                io_timeout=30,
            )
            try:
                _fill_windows(store, 0, 30)
                assert store.sample_count() == single.sample_count()
                # Several flushes, or the replay proves little.
                assert _frames(store.shards[1]) > 5
                victim.stop()  # takes its sessions down with it: a crash
                with pytest.raises(RuntimeError, match="shard 1"):
                    # An uncached query that must touch the dead shard.
                    store.pool_window_aggregate("A", "cpu", reducer="sum")
                with ShardServer("127.0.0.1:0") as reborn:
                    store.rejoin_shard(1, address=reborn.address)
                    assert store.shards[1].address == reborn.address
                    _assert_twins(single, store, tmp_path, "rejoin")
            finally:
                store.close()
                victim.stop()

    def test_rejoin_replays_evictions_where_they_happened(self, tmp_path):
        """Evictions are journaled between the frames they fell
        between (and a zero-row batch is not journaled at all), so the
        rejoined shard has the pre-crash hot/cold split, not only the
        pre-crash rows."""
        single = _fill_windows(MetricStore(), 0, 20)
        victim = ShardServer("127.0.0.1:0").start()
        store = ShardedMetricStore(
            backend="tcp", shard_addrs=[victim.address, victim.address],
            journal=True, flush_rows=128, io_timeout=30,
        )
        try:
            _fill_windows(store, 0, 10)
            assert store.evict_windows(6) > 0
            empty = np.array([], dtype=np.int64)
            store.record_columns("A", "dc1", "cpu", empty, empty, empty.astype(float))
            _fill_windows(store, 10, 20)
            assert store.evict_windows(15) > 0
            hot = [shard.hot_sample_count() for shard in store.shards]
            for shard in store.shards:
                assert _frames(shard) > 2
                replayed = list(shard._journal.replay())
                cutoffs = [
                    (position, args) for position, (method, args)
                    in enumerate(replayed) if method == "evict_windows"
                ]
                # 10 windows x 8 tables before the first cutoff, as
                # many again before the second, nothing after it.
                assert cutoffs == [(80, (6,)), (161, (15,))]
                assert all(args[5].size for method, args in replayed
                           if method == "record_columns")
            victim.stop()
            with ShardServer("127.0.0.1:0") as reborn:
                for shard_id in (0, 1):
                    store.rejoin_shard(shard_id, address=reborn.address)
                assert [s.hot_sample_count() for s in store.shards] == hot
                assert store.sample_count() > sum(hot)
                _assert_twins(single, store, tmp_path, "rejoin-evicted")
        finally:
            store.close()
            victim.stop()

    def test_rejoin_replays_frames_with_shared_keys(self, tmp_path):
        """A journaled frame is a kind-1 payload, references and all:
        its replay hands the shard one key array per shared pair, and
        the rejoined shard answers like a never-crashed twin."""
        single = _fill_windows(MetricStore(), 0, 12)
        victim = ShardServer("127.0.0.1:0").start()
        store = ShardedMetricStore(
            backend="tcp", shard_addrs=[victim.address, victim.address],
            journal=True, flush_rows=128, io_timeout=30,
        )
        try:
            _fill_shared(store, 0, 12)
            assert _frames(store.shards[1]) > 0
            # One table's cpu and rps, decoded from the first frame.
            (_m, cpu), (_m, rps) = list(store.shards[1]._journal.replay())[:2]
            assert (cpu[2], rps[2]) == ("cpu", "rps")
            assert cpu[3] is rps[3] and cpu[4] is rps[4]
            victim.stop()
            with ShardServer("127.0.0.1:0") as reborn:
                for shard_id in (0, 1):
                    store.rejoin_shard(shard_id, address=reborn.address)
                _assert_twins(single, store, tmp_path, "rejoin-shared")
        finally:
            store.close()
            victim.stop()

    def test_rejoin_requires_journal(self, shard_server):
        with ShardedMetricStore(
            backend="tcp", shard_addrs=[shard_server.address]
        ) as store:
            with pytest.raises(RuntimeError, match="journal=True"):
                store.rejoin_shard(0)

    def test_rejoin_validation(self, shard_server):
        with ShardedMetricStore(
            backend="tcp", shard_addrs=[shard_server.address], journal=True
        ) as store:
            with pytest.raises(ValueError, match="out of range"):
                store.rejoin_shard(5)
        with ShardedMetricStore(n_shards=2) as store:
            with pytest.raises(ValueError, match="tcp"):
                store.rejoin_shard(0)

    def test_rejoin_failure_leaves_old_handle_and_is_retryable(self, tmp_path):
        single = _fill_windows(MetricStore(), 0, 10)
        victim = ShardServer("127.0.0.1:0").start()
        store = ShardedMetricStore(
            backend="tcp", shard_addrs=[victim.address],
            journal=True, io_timeout=30, connect_timeout=0.3,
        )
        try:
            _fill_windows(store, 0, 10)
            store.flush()
            shard = store.shards[0]
            victim.stop()
            # Rejoin towards a dead address fails cleanly ...
            with pytest.raises((RuntimeError, ConnectionError)):
                store.rejoin_shard(0)
            assert store.shards[0] is shard and not shard.closed
            # ... and a retry against a live server still succeeds.
            with ShardServer("127.0.0.1:0") as reborn:
                store.rejoin_shard(0, address=reborn.address)
                _assert_twins(single, store, tmp_path, "retry")
        finally:
            store.close()
            victim.stop()

    def test_rejoin_that_dies_mid_replay_loses_nothing(self, tmp_path):
        """A rejoin whose new shard dies after ``resync``, ingest that
        keeps arriving (buffered, or journaled at a flush before the
        dead shard refuses it), then a rejoin that works: still the
        never-crashed twin."""
        single = _fill_windows(MetricStore(), 0, 30)
        with ShardServer("127.0.0.1:0") as keeper:
            victim = ShardServer("127.0.0.1:0").start()
            store = ShardedMetricStore(
                backend="tcp",
                shard_addrs=[keeper.address, victim.address],
                journal=True,
                flush_rows=128,
                io_timeout=30,
            )
            try:
                _fill_windows(store, 0, 20)
                assert _frames(store.shards[1]) > 2
                victim_address = victim.address
                victim.stop()
                dial = store._dial_shard
                doomed_clients = []

                def doomed_dial(shard_id, addresses):
                    # resync and two ingest frames pass, then the
                    # socket dies: mid-replay.
                    client = dial(shard_id, addresses)
                    inject_client(client, FaultSpec("kill", after_frames=3))
                    doomed_clients.append(client)
                    return client

                with ShardServer("127.0.0.1:0") as doomed:
                    store._dial_shard = doomed_dial
                    with pytest.raises(RuntimeError, match="connection lost"):
                        store.rejoin_shard(1, address=doomed.address)
                    store._dial_shard = dial
                # The fresh client alone was closed; the shard's own
                # handle keeps its journal and buffer.
                assert [client.closed for client in doomed_clients] == [True]
                assert not store.shards[1].closed
                assert store.shards[1].address == victim_address
                _fill_windows(_RefusedByDeadShard(store), 20, 30)
                with ShardServer("127.0.0.1:0") as reborn:
                    store.rejoin_shard(1, address=reborn.address)
                    _assert_twins(single, store, tmp_path, "rejoin-twice")
            finally:
                store.close()
                victim.stop()

    def test_replicated_shard_rejoins_after_losing_every_session(self, tmp_path):
        """Primary dies (failover), then the replica: both servers come
        back on their addresses and one rejoin re-seeds both sessions
        from a journal written once per flush, not once per session."""
        single = _fill_windows(MetricStore(), 0, 30)
        with ShardServer("127.0.0.1:0") as keeper:
            primary = ShardServer("127.0.0.1:0").start()
            replica = ShardServer("127.0.0.1:0").start()
            addresses = (primary.address, replica.address)
            store = ShardedMetricStore(
                backend="tcp",
                shard_addrs=[keeper.address, primary.address],
                replica_addrs=["", replica.address],
                journal=True,
                flush_rows=128,
                io_timeout=30,
            )
            try:
                _fill_windows(store, 0, 10)
                assert store.sample_count() > 0
                # Equal rows per call on both shards, so equal flushes.
                assert _frames(store.shards[1]) == _frames(store.shards[0]) > 2
                primary.stop()
                _fill_windows(store, 10, 20)
                assert store.sample_count() > 0
                assert store.shards[1].live_addresses == (replica.address,)
                replica.stop()
                _fill_windows(_RefusedByDeadShard(store), 20, 30)
                with pytest.raises(RuntimeError, match="shard 1"):
                    store.pool_window_aggregate("B", "rps", reducer="max")
                assert store.shards[1].live_addresses == ()
                with ShardServer(addresses[0]) as again, ShardServer(addresses[1]):
                    store.rejoin_shard(1)
                    assert store.shards[1].live_addresses == addresses
                    assert store.shards[1].address == again.address
                    _assert_twins(single, store, tmp_path, "rejoin-replicated")
            finally:
                store.close()
                primary.stop()
                replica.stop()

    def test_rows_unflushed_at_death_are_in_the_rejoined_shard(self, tmp_path):
        """Rows still in the client's buffer when its server died never
        reached the journal; the rejoin carries them over to the new
        sessions instead of dropping them."""
        single = _fill_windows(MetricStore(), 0, 10)
        with ShardServer("127.0.0.1:0") as keeper:
            victim = ShardServer("127.0.0.1:0").start()
            store = ShardedMetricStore(
                backend="tcp",
                shard_addrs=[keeper.address, victim.address],
                journal=True,
                flush_rows=1 << 20,
                io_timeout=30,
            )
            try:
                _fill_windows(store, 0, 5)
                store.flush()
                _fill_windows(store, 5, 10)
                assert _frames(store.shards[1]) == 1
                assert store.shards[1]._pending
                victim.stop()
                with ShardServer("127.0.0.1:0") as reborn:
                    store.rejoin_shard(1, address=reborn.address)
                    _assert_twins(single, store, tmp_path, "rejoin-unflushed")
                    assert _frames(store.shards[1]) == 2
            finally:
                store.close()
                victim.stop()


class _RefusedByDeadShard:
    """``_fill_windows`` target: each batch is buffered, or refused at a
    flush by the dead shard 1 — whose half is journaled all the same."""

    def __init__(self, store):
        self._store = store
        self.intern_servers = store.intern_servers

    def record_batch(self, *args):
        try:
            self._store.record_batch(*args)
        except ShardConnectionError as error:
            assert str(error).startswith("shard 1 ")


def _command(step, rows, rng):
    """A ``record_columns`` command whose keys hold ``,`` ``"`` and
    non-ASCII: the journal holds bytes, not CSV."""
    return (
        f'po,ol"{step}', "dc-\u00e9", "Requ\u00eates/sec,\u4e16",
        np.full(rows, step - 4, dtype=np.int64),
        rng.integers(0, 1 << 40, rows),
        rng.standard_normal(rows),
    )


def _assert_same_commands(got, want):
    assert [method for method, _ in got] == [method for method, _ in want]
    for (_, a), (_, b) in zip(got, want):
        if len(b) == 1:  # a cutoff
            assert a == b
            continue
        assert a[:3] == b[:3]
        for x, y in zip(a[3:], b[3:]):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestShardJournal:
    """The journal itself: order, frames on disk, replay, close."""

    def test_replay_preserves_order_across_spills(self):
        journal = ShardJournal()
        rng = np.random.default_rng(1)
        sent = [("record_columns", _command(i, 1, rng)) for i in range(10)]
        for lo, hi in ((0, 3), (3, 4), (4, 10)):  # frames of 3, 1, 6
            journal.append([args for _m, args in sent[lo:hi]])
        _assert_same_commands(list(journal.replay()), sent)
        # Replay is repeatable (rejoin may be retried).
        _assert_same_commands(list(journal.replay()), sent)
        journal.close()
        journal.close()  # idempotent
        assert list(journal.replay()) == []

    def test_abandoned_replay_then_append_keeps_order(self):
        journal = ShardJournal()
        rng = np.random.default_rng(2)
        sent = [("record_columns", _command(i, 2, rng)) for i in range(8)]
        for i in range(0, 6, 2):
            journal.append([sent[i][1], sent[i + 1][1]])
        replay = journal.replay()
        _assert_same_commands([next(replay)], sent[:1])
        replay.close()  # the rejoin's fresh shard died mid-replay
        journal.append([sent[6][1], sent[7][1]])
        _assert_same_commands(list(journal.replay()), sent)
        journal.close()

    def test_spilled_columns_and_evictions_replay_in_position(self):
        """What a shard client journals: flushed frames of
        ``record_columns`` commands around ``evict_windows`` cutoffs."""
        journal = ShardJournal()
        rng = np.random.default_rng(3)
        sent, frame = [], []
        for step in range(13):
            if step % 4 == 3:
                if frame:
                    journal.append(frame)
                    frame = []
                sent.append(("evict_windows", (step,)))
                journal.cutoff(step)
                continue
            sent.append(("record_columns", _command(step, 1 + step % 3, rng)))
            frame.append(sent[-1][1])
        journal.append(frame)
        assert sum(isinstance(entry, tuple) for entry in journal._entries) == 4
        for _ in range(2):  # replay is repeatable
            _assert_same_commands(list(journal.replay()), sent)
        journal.close()

    def test_memory_stays_bounded(self):
        """The journal keeps no row in memory: the arrays it was handed
        are free once the caller drops them, and each frame or cutoff
        is one small entry."""
        journal = ShardJournal()
        rng = np.random.default_rng(4)
        handed = []
        for step in range(100):
            command = _command(step, 64, rng)
            handed.append(weakref.ref(command[5]))
            journal.append([command])
            if step % 10 == 9:
                journal.cutoff(step)
            del command
        assert all(ref() is None for ref in handed)
        assert len(journal._entries) == 110
        assert all(
            isinstance(entry, int)
            or all(isinstance(field, int) for field in entry)
            for entry in journal._entries
        )
        assert sum(1 for _ in journal.replay()) == 110
        journal.close()

    def test_failed_write_keeps_the_buffer_and_sends_nothing(
        self, shard_server, monkeypatch
    ):
        interner = ServerInterner()
        servers = np.array([interner.intern(f"s{i}") for i in range(4)])
        client = TcpShardClient(0, interner, shard_server.address, journal=True)
        try:
            client.record_columns(
                "A", "dc", "cpu", np.zeros(4, dtype=np.int64), servers,
                np.arange(4.0),
            )

            def full_disk(self, buffers):
                raise OSError("no space left on device")

            with monkeypatch.context() as patch:
                patch.setattr(SpillArchive, "append", full_disk)
                with pytest.raises(OSError, match="no space"):
                    client.flush()
            assert len(client._pending) == 1 and _frames(client) == 0
            # Had the failed flush sent its frame, the shard would
            # now hold the rows twice.
            assert client.sample_count() == 4
            assert _frames(client) == 1
        finally:
            client.close()

    def test_validation(self, shard_server):
        with pytest.raises(ValueError, match="backend='tcp'"):
            ShardedMetricStore(n_shards=2, journal=True)
        # A client without a journal refuses to rejoin, and the fresh
        # client it was handed is closed, not leaked.
        interner = ServerInterner()
        client = TcpShardClient(0, interner, shard_server.address)
        fresh = TcpShardClient(0, interner, shard_server.address, journal=True)
        try:
            with pytest.raises(RuntimeError, match="journal=True"):
                client.rejoin(fresh)
            assert fresh.closed and not client.closed
        finally:
            client.close()
            fresh.close()


class TestFaultMatrix:
    """Un-replicated shard + injected fault = named error, never a hang."""

    EXPECT = {
        "drop": "I/O timed out",
        "hang": "I/O timed out",
        "corrupt": "connection lost",
        "kill": "connection lost",
    }

    @pytest.mark.parametrize("mode", sorted(EXPECT))
    def test_fault_surfaces_as_named_per_shard_error(self, mode):
        with ShardServer("127.0.0.1:0") as server:
            store = ShardedMetricStore(
                backend="tcp", shard_addrs=[server.address],
                flush_rows=64, io_timeout=2,
            )
            try:
                indices = store.intern_servers([f"s{i}" for i in range(8)])
                store.record_batch("A", "dc1", "cpu", 0, indices, np.ones(8))
                store.flush()
                assert store.sample_count() == 8  # healthy before the fault
                wrapped = inject_store(store, FaultSpec(mode))
                assert isinstance(wrapped, FaultyTransport)
                start = time.monotonic()
                with pytest.raises(RuntimeError, match=r"shard 0 \(") as err:
                    store.record_batch(
                        "A", "dc1", "cpu", 1, indices, np.ones(8)
                    )
                    store.flush()
                    store.pool_window_aggregate("A", "cpu", reducer="sum")
                elapsed = time.monotonic() - start
                assert self.EXPECT[mode] in str(err.value)
                assert server.address in str(err.value)
                assert elapsed < PROMPT_S, f"{mode} took {elapsed:.1f}s"
            finally:
                store.close()

    def test_delay_mode_is_benign(self, tmp_path):
        single = _fill_windows(MetricStore(), 0, 5, n_servers=4)
        with ShardServer("127.0.0.1:0") as server:
            store = ShardedMetricStore(
                backend="tcp", shard_addrs=[server.address], io_timeout=30,
            )
            try:
                wrapped = inject_store(store, FaultSpec("delay", delay_s=0.001))
                _fill_windows(store, 0, 5, n_servers=4)
                _assert_twins(single, store, tmp_path, "delay")
                assert wrapped.frames_sent > 0
            finally:
                store.close()

    def test_after_frames_defers_the_fault(self):
        with ShardServer("127.0.0.1:0") as server:
            store = ShardedMetricStore(
                backend="tcp", shard_addrs=[server.address], io_timeout=2,
            )
            try:
                wrapped = inject_store(store, FaultSpec("kill", after_frames=2))
                indices = store.intern_servers(["a", "b"])
                store.record_batch("A", "dc1", "cpu", 0, indices, np.ones(2))
                store.flush()                     # frame 1: passes
                assert store.sample_count() == 2  # frame 2: passes
                assert not wrapped.armed or wrapped.frames_sent >= 2
                with pytest.raises(RuntimeError, match="connection lost"):
                    store.record_batch(
                        "A", "dc1", "cpu", 1, indices, np.ones(2)
                    )
                    store.flush()
                    store.sample_count()
            finally:
                store.close()

    def test_replica_turns_fault_into_failover(self, tmp_path):
        """Same kill fault, but with a replica: run completes, bits equal."""
        single = _fill_windows(MetricStore(), 0, 10, n_servers=4)
        with ShardServer("127.0.0.1:0") as server:
            store = ShardedMetricStore(
                backend="tcp",
                shard_addrs=[server.address],
                replica_addrs=[server.address],
                flush_rows=32, io_timeout=30,
            )
            try:
                inject_store(store, FaultSpec("kill", after_frames=3))
                _fill_windows(store, 0, 10, n_servers=4)
                _assert_twins(single, store, tmp_path, "failover")
                assert len(store.shards[0].live_addresses) == 1
            finally:
                store.close()


def _assert_names_every_address(error, addresses):
    """The all-dead error: one clause per configured address, and the
    last transport error underneath."""
    assert isinstance(error, ShardConnectionError)
    for address in set(addresses):
        assert str(error).count(address) == addresses.count(address)
    assert isinstance(error.__cause__, (EOFError, OSError))


class SessionListMachine(RuleBasedStateMachine):
    """Ingest / flush / read / evict / kill-a-session in any order.

    One ``TcpShardClient`` with three sessions on one in-process
    server, beside a local ``MetricStore`` twin fed the same calls.
    The invariant under test is the client's: every live session has
    been sent the same frames, so while one session lives every read
    equals the twin's whichever session answers — and a killed session
    costs exactly itself, noticed by whichever operation next touches
    its wire.  ``self.alive`` is the model: the sessions not yet
    killed, in list order.
    """

    def __init__(self):
        super().__init__()
        self.server = ShardServer("127.0.0.1:0").start()
        self.interner = ServerInterner()
        self.twin = MetricStore(interner=self.interner)
        self.addresses = (self.server.address,) * 3
        self.client = TcpShardClient(
            0, self.interner, self.addresses, flush_rows=6, io_timeout=10
        )
        self.alive = list(self.client._sessions)
        self.window = 0

    def teardown(self):
        self.client.close()
        self.server.stop()

    def _assert_gone(self, operation):
        with pytest.raises(ShardConnectionError) as excinfo:
            operation()
        _assert_names_every_address(excinfo.value, self.addresses)
        assert self.client.live_addresses == ()

    @precondition(lambda self: self.alive)
    @rule(
        servers=st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True),
        ghost=st.booleans(),
    )
    def record(self, servers, ghost):
        """A small batch for the next window; sometimes a server is
        interned that reports nothing (its name still has to arrive)."""
        if ghost:
            self.interner.intern(f"ghost{len(self.interner.names)}")
        indices = self.interner.intern_many([f"s{i}" for i in servers])
        windows = np.full(indices.size, self.window, dtype=np.int64)
        values = indices * 0.5 + self.window
        for store in (self.twin, self.client):
            store.record_columns("P", "dc", "cpu", windows, indices, values)
        self.window += 1

    @precondition(lambda self: self.alive)
    @rule()
    def flush(self):
        self.client.flush()

    @rule()
    def read(self):
        if not self.alive:
            return self._assert_gone(self.client.sample_count)
        assert self.client.sample_count() == self.twin.sample_count()
        for got, want in zip(
            self.client.gather_columns("P", "cpu"),
            self.twin.gather_columns("P", "cpu"),
        ):
            np.testing.assert_array_equal(got, want)
        if self.interner.names:
            newest = len(self.interner.names) - 1
            assert self.client.server_name(newest) == self.interner.names[newest]

    @rule(back=st.integers(0, 3))
    def evict(self, back):
        cutoff = max(self.window - back, 0)
        if not self.alive:
            return self._assert_gone(lambda: self.client.evict_windows(cutoff))
        assert self.client.evict_windows(cutoff) == self.twin.evict_windows(cutoff)
        assert self.client.hot_sample_count() == self.twin.hot_sample_count()
        # A mutating call visits every session: the killed are all gone.
        assert self.client._live() == self.alive

    @precondition(lambda self: self.alive)
    @rule(k=st.integers(0, 2))
    def kill(self, k):
        """Close live session k's transport under the client."""
        self.alive.pop(k % len(self.alive)).transport.close()

    @invariant()
    def a_kill_costs_exactly_the_killed(self):
        live = self.client._live()
        # Nobody healthy was retired, nobody retired came back, order kept.
        assert [session for session in live if session in self.alive] == self.alive
        assert len(self.client.live_addresses) == len(live)
        assert self.client.address == self.addresses[0]
        assert self.client.addresses == self.addresses


SessionListMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestSessionListMachine = SessionListMachine.TestCase


def _wire_image(commands):
    """An ingest command list as comparable bytes."""
    return [
        (command[:3], [column.tobytes() for column in command[3:]])
        for command in commands
    ]


class _AsFacade:
    """``_fill_windows`` target over a bare client: interns through the
    client's interner and records each batch as columns."""

    def __init__(self, client):
        self._client = client

    def intern_servers(self, server_ids):
        return self._client._interner.intern_many(server_ids)

    def record_batch(self, pool, dc, counter, window, indices, values):
        self._client.record_columns(
            pool, dc, counter,
            np.full(len(indices), window, dtype=np.int64), indices, values,
        )


class _EvictProbeServer(ShardServer):
    """Sessions whose store records ``evict_windows`` cutoffs and, if
    asked to, raises on the first one."""

    def __init__(self, fail_first: bool) -> None:
        super().__init__("127.0.0.1:0")
        self.cutoffs = []
        self._fail = fail_first

    def _session_store(self):
        server = self

        class ProbedStore(MetricStore):
            def evict_windows(self, before):
                server.cutoffs.append(before)
                if server._fail:
                    server._fail = False
                    raise OSError("spill disk full")
                return super().evict_windows(before)

        return ProbedStore()


class TestSessionList:
    """What merging the replica class into the client could get wrong."""

    def test_every_wire_carries_the_same_ingest_in_the_same_order(self):
        with ShardServer("127.0.0.1:0") as server:
            interner = ServerInterner()
            client = TcpShardClient(
                0, interner, [server.address] * 3, flush_rows=8, io_timeout=10
            )
            try:
                assert len(client._sessions) == 3
                wires = []
                for session in client._sessions:
                    wire, send = [], session.transport.send_ingest
                    wires.append(wire)

                    def spy(names, commands, wire=wire, send=send):
                        wire.append((list(names), _wire_image(commands)))
                        send(names, commands)

                    session.transport.send_ingest = spy
                twin = MetricStore(interner=interner)
                for store in (twin, _AsFacade(client)):
                    _fill_windows(store, 0, 6, n_servers=3)
                client.flush()
                assert client._pending == [] and len(wires[0]) > 2
                assert wires[0] == wires[1] == wires[2]
                sent = sum(
                    len(columns[2]) // 8
                    for _names, image in wires[0] for _key, columns in image
                )
                assert sent == twin.sample_count() == client.sample_count()
            finally:
                client.close()

    def test_names_sent_is_counted_per_session(self):
        """A read's ``call`` frame carries the interner delta to the
        session that answers it and to no other — so a survivor still
        has to be sent the names its dead primary got.  One counter
        shared by the sessions fails this."""
        with ShardServer("127.0.0.1:0") as server:
            interner = ServerInterner()
            client = TcpShardClient(
                0, interner, [server.address] * 2, io_timeout=10
            )
            try:
                ghost = interner.intern("ghost")  # a name with no rows
                assert client.server_name(ghost) == "ghost"  # via the primary
                assert [s.names_sent for s in client._sessions] == [1, 0]
                client._transport.close()  # the primary dies
                assert client.server_name(ghost) == "ghost"  # via the survivor
                assert client.live_addresses == (server.address,)
            finally:
                client.close()

    def test_store_error_on_a_mutating_call_reaches_every_session(self):
        """An ``err`` reply is an answer, not a failure: it retires
        nobody and is raised only after every live session was asked,
        so no session is left one call behind and a retry converges."""
        twin = _fill_windows(MetricStore(), 0, 8, n_servers=3)
        with _EvictProbeServer(fail_first=True) as flaky, \
                _EvictProbeServer(fail_first=False) as steady:
            addresses = [flaky.address, steady.address]
            client = TcpShardClient(
                0, ServerInterner(), addresses, io_timeout=10
            )
            try:
                _fill_windows(_AsFacade(client), 0, 8, n_servers=3)
                with pytest.raises(OSError, match="spill disk full"):
                    client.evict_windows(5)
                assert flaky.cutoffs == [5] and steady.cutoffs == [5]
                assert client.live_addresses == tuple(addresses)
                evicted = twin.evict_windows(5)
                assert client.evict_windows(5) == evicted > 0  # retryable
                assert flaky.cutoffs == [5, 5] == steady.cutoffs
                hot = client.hot_sample_count()  # the primary's
                client._transport.close()
                assert client.hot_sample_count() == hot  # the survivor's
                assert hot == twin.hot_sample_count()
                assert client.live_addresses == (steady.address,)
            finally:
                client.close()

    def test_all_dead_error_names_every_address(self):
        with ShardServer("127.0.0.1:0") as one, ShardServer("127.0.0.1:0") as two:
            addresses = [one.address, two.address]
            client = TcpShardClient(0, ServerInterner(), addresses, io_timeout=10)
            try:
                for session in client._sessions:
                    session.transport.close()
                for _ in range(2):  # and it stays the answer
                    with pytest.raises(
                        ShardConnectionError, match=r"shard 0 \("
                    ) as excinfo:
                        client.sample_count()
                    _assert_names_every_address(excinfo.value, addresses)
                    assert str(excinfo.value).count("connection lost") == 2
            finally:
                client.close()
            with pytest.raises(RuntimeError, match="closed"):
                client.sample_count()


class TestFaultSpecParsing:
    def test_modes_and_after(self):
        assert parse_fault_spec("kill") == FaultSpec("kill")
        assert parse_fault_spec("HANG:7").mode == "hang"
        assert parse_fault_spec("drop:3").after_frames == 3

    @pytest.mark.parametrize("bad", ["explode", "kill:x", "kill:-1", ""])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)

    def test_transport_wrapper_validation(self):
        with pytest.raises(ValueError):
            FaultyTransport(object(), "explode")
        with pytest.raises(ValueError):
            FaultyTransport(object(), "kill", after_frames=-1)

    def test_inject_store_validation(self, shard_server):
        with ShardedMetricStore(n_shards=2) as store:
            with pytest.raises(ValueError, match="tcp"):
                inject_store(store, FaultSpec("kill"))
        with ShardedMetricStore(
            backend="tcp", shard_addrs=[shard_server.address]
        ) as store:
            with pytest.raises(ValueError, match="out of range"):
                inject_store(store, FaultSpec("kill", shard=3))


class TestCliFaultSurface:
    """--replica-addrs / --inject-fault through ``repro simulate``."""

    BASE = [
        "simulate",
        "--windows", "6",
        "--servers", "2",
        "--datacenters", "1",
        "--pools", "B",
    ]

    def test_replica_addrs_requires_tcp_backend(self):
        assert main(self.BASE + ["--replica-addrs", "127.0.0.1:9400"]) == 2

    def test_replica_addrs_must_align_with_shards(self):
        assert main(self.BASE + [
            "--shard-backend", "tcp",
            "--shard-addrs", "127.0.0.1:9400,127.0.0.1:9401",
            "--replica-addrs", "127.0.0.1:9402",
        ]) == 2

    def test_inject_fault_requires_tcp_backend(self):
        assert main(self.BASE + ["--inject-fault", "kill"]) == 2

    def test_inject_fault_rejects_unknown_mode(self):
        assert main(self.BASE + [
            "--shard-backend", "tcp",
            "--shard-addrs", "127.0.0.1:9400",
            "--inject-fault", "explode",
        ]) == 2

    @pytest.mark.slow
    def test_injected_kill_fails_over_with_replica(
        self, tmp_path, shard_server_processes
    ):
        """End to end: the replicated CLI run survives its own fault
        injection and writes the byte-identical archive; the same fault
        without a replica is the named per-shard failure (exit 1)."""
        primary, primary_addr = shard_server_processes.spawn()
        replica, replica_addr = shard_server_processes.spawn()
        try:
            single = tmp_path / "single.csv"
            failover = tmp_path / "failover.csv"
            assert main(self.BASE + [str(single)]) == 0
            assert main(self.BASE + [
                "--shard-backend", "tcp",
                "--shard-addrs", primary_addr,
                "--replica-addrs", replica_addr,
                "--inject-fault", "kill",
                str(failover),
            ]) == 0
            assert single.read_bytes() == failover.read_bytes()
            # No replica: the same fault is a run-ending per-shard error.
            assert main(self.BASE + [
                "--shard-backend", "tcp",
                "--shard-addrs", replica_addr,
                "--inject-fault", "kill",
            ]) == 1
        finally:
            shard_server_processes.reap(primary)
            shard_server_processes.reap(replica)


class _RefusesFirstPartials(ShardServer):
    """The first session's store answers its first ``window_partials``
    with an ``err``; every other session is an ordinary shard."""

    def __init__(self) -> None:
        super().__init__("127.0.0.1:0")
        self._first = True

    def _session_store(self):
        if not self._first:
            return None
        self._first = False

        class RefusingStore(MetricStore):
            refused = False

            def window_partials(self, *args, **kwargs):
                if not self.refused:
                    self.refused = True
                    raise ValueError("refused once")
                return super().window_partials(*args, **kwargs)

        return RefusingStore()


class _DiesMidRead(ShardServer):
    """A primary whose sessions die on their first ``window_partials``:
    after the call frame arrived, before any reply."""

    def _serve_session(self, transport) -> None:
        class DyingStore(MetricStore):
            def window_partials(self, *args, **kwargs):
                transport.close()
                raise ConnectionError("died mid-read")

        serve_shard(transport, store=DyingStore())


class TestScatterGather:
    """A read sends every shard its call before reading any reply; what
    that could break is a session left holding a reply."""

    def test_err_from_one_shard_leaves_every_session_in_step(self):
        single = _fill_windows(MetricStore(), 0, 10)
        with _RefusesFirstPartials() as server:
            store = ShardedMetricStore(
                backend="tcp", shard_addrs=[server.address] * 3, io_timeout=10
            )
            try:
                _fill_windows(store, 0, 10)
                with pytest.raises(ValueError, match="refused once"):
                    store.pool_window_aggregate("A", "cpu", reducer="sum")
                # The other shards' replies were read, so every later
                # reply answers the call it belongs to.
                assert store.sample_count() == single.sample_count()
                for reducer in REDUCERS:
                    a = single.pool_window_aggregate("A", "cpu", reducer=reducer)
                    b = store.pool_window_aggregate("A", "cpu", reducer=reducer)
                    assert a.windows.tolist() == b.windows.tolist()
                    assert a.values.tobytes() == b.values.tobytes()
                assert all(
                    shard.live_addresses == (server.address,)
                    for shard in store.shards
                )
            finally:
                store.close()

    def test_primary_dying_between_scatter_and_gather_fails_over(self, tmp_path):
        single = _fill_windows(MetricStore(), 0, 10)
        with _DiesMidRead("127.0.0.1:0") as primary, \
                ShardServer("127.0.0.1:0") as replica:
            store = ShardedMetricStore(
                backend="tcp",
                shard_addrs=[primary.address] * 2,
                replica_addrs=[replica.address] * 2,
                io_timeout=10,
            )
            try:
                _fill_windows(store, 0, 10)
                _assert_twins(single, store, tmp_path, "scatter-failover")
                for shard in store.shards:
                    assert shard.live_addresses == (replica.address,)
            finally:
                store.close()
