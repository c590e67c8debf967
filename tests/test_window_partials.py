"""Aggregates as mergeable residue-class partials.

Every aggregate reduces :class:`WindowPartials`: per window the row
count, the maximum, and each server class's rows (``index & 63``)
summed in row order, folded in ascending class order.  A sharded store
routes a whole class to one shard, so the merged partials — and every
answer built on them — equal a single store's bit for bit, whatever
the ingest order and on both backends; a tcp ``mean`` moves partials,
never rows.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.telemetry.query_server import LiveQuerySurface
from repro.telemetry.sharding import ShardedMetricStore
from repro.telemetry.store import (
    CLASSES,
    REDUCERS,
    MetricStore,
    WindowPartials,
)
from repro.telemetry.workers import ClientSession

N_SERVERS = 150
NAMES = [f"s{i}" for i in range(N_SERVERS)]


def _reference(windows, servers, values, reducer):
    """The reduction spelled as loops: per window, each class's rows
    summed in row order from 0.0, classes folded in ascending order."""
    out = {}
    for window in sorted(set(windows.tolist())):
        rows = np.flatnonzero(windows == window)
        if reducer == "count":
            out[window] = float(rows.size)
        else:
            total = None
            for cls in range(CLASSES):
                part = 0.0
                members = [r for r in rows if servers[r] % CLASSES == cls]
                for r in members:
                    part += values[r]
                if members:
                    total = part if total is None else total + part
            out[window] = total / rows.size if reducer == "mean" else total
    return out


class TestKernel:
    @pytest.mark.parametrize("reducer", ["sum", "mean", "count"])
    def test_matches_the_loop_reference(self, reducer):
        rng = np.random.default_rng(11)
        windows = rng.integers(3, 20, 400)
        servers = rng.integers(0, 300, 400)
        values = rng.standard_normal(400) * 10.0 ** rng.integers(-3, 12, 400)
        series = WindowPartials.of(windows, servers, values, reducer).series(
            reducer
        )
        want = _reference(windows, servers, values, reducer)
        assert series.windows.tolist() == sorted(want)
        assert series.values.tolist() == [want[w] for w in sorted(want)]

    def test_layout_materialises_present_classes_only(self):
        windows = np.array([5, 5, 7, 9, 9], dtype=np.int64)
        servers = np.array([64, 3, 130, 3, 1], dtype=np.int64)
        values = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        partials = WindowPartials.of(windows, servers, values, "sum")
        assert partials.windows.tolist() == [5, 7, 9]
        assert partials.counts.tolist() == [2, 1, 2]
        assert partials.classes.tolist() == [0, 1, 2, 3]
        assert partials.sums.tolist() == [
            [1.0, 0.0, 0.0],
            [0.0, 0.0, 16.0],
            [0.0, 4.0, 0.0],
            [2.0, 0.0, 8.0],
        ]
        assert partials.maxima.size == 0

    @pytest.mark.parametrize(
        "values, sign",
        [([-0.0, 0.0], False), ([0.0, -0.0], False), ([-0.0, -0.0], True)],
    )
    def test_signed_zero_maximum_ignores_row_order(self, values, sign):
        partials = WindowPartials.of(
            np.zeros(2, np.int64), np.arange(2), np.array(values), "max"
        )
        assert partials.maxima.tolist() == [0.0]
        assert bool(np.signbit(partials.maxima[0])) is sign

    def test_unknown_reducer_and_empty_scope(self):
        empty = np.empty(0, np.int64)
        with pytest.raises(ValueError, match="median"):
            WindowPartials.of(empty, empty, np.empty(0), "median")
        for reducer in REDUCERS:
            series = WindowPartials.of(empty, empty, np.empty(0), reducer).series(
                reducer
            )
            assert series.windows.size == series.values.size == 0


_values = st.one_of(
    st.floats(allow_nan=False, width=64),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
)
_rows = st.tuples(
    st.sampled_from(["dc1", "dc2"]),
    st.integers(0, 11),
    st.integers(0, N_SERVERS - 1),
    _values,
)


@st.composite
def _histories(draw):
    """Batches of rows in any order, duplicate cells allowed, each
    followed by an eviction cutoff — so a later batch brings late rows
    below the watermark."""
    batches = draw(st.lists(st.lists(_rows, max_size=50), min_size=1, max_size=4))
    return [(batch, draw(st.integers(0, 12))) for batch in batches]


def _apply(store, history):
    store.intern_servers(NAMES)
    for reducer in REDUCERS:
        store.track_aggregate("P", "c", None, reducer)
    for batch, cutoff in history:
        for dc in ("dc1", "dc2"):
            rows = [row for row in batch if row[0] == dc]
            if rows:
                _dc, windows, servers, values = zip(*rows)
                store.record_columns(
                    "P", dc, "c", np.array(windows, np.int64),
                    np.array(servers, np.int64), np.array(values, float),
                )
        store.evict_windows(cutoff)
    # Sealed in two steps once every row is in: the tracked series
    # grows by increments, which must equal one full recompute.
    store.seal_through(5)
    store.seal_through(store.max_window)
    return store


def _same(got, want):
    assert got.windows.tolist() == want.windows.tolist()
    assert got.values.tobytes() == want.values.tobytes()


def _assert_bit_identical(single, sharded):
    for reducer in REDUCERS:
        for dc in (None, "dc1"):
            for start, stop in ((None, None), (3, 9)):
                scope = ("P", "c", dc, start, stop, reducer)
                want = single.pool_window_aggregate(*scope)
                _same(sharded.pool_window_aggregate(*scope), want)
                for a, b in zip(
                    sharded.window_partials(*scope), single.window_partials(*scope)
                ):
                    assert a.tobytes() == b.tobytes()
        tracked = sharded.pool_window_aggregate("P", "c", reducer=reducer)
        _same(tracked, sharded.window_partials("P", "c", reducer=reducer).series(
            reducer
        ))
        _same(tracked, single.pool_window_aggregate("P", "c", reducer=reducer))
        live = LiveQuerySurface(sharded).aggregate("P", "c", reducer=reducer)
        assert live["windows"].tolist() == tracked.windows.tolist()
        assert live["values"].tobytes() == tracked.values.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf, NaN max
class TestShardedBitIdentity:
    """Single ≡ sharded for any ingest order: a class's rows keep their
    relative order on the one shard that holds them."""

    @given(history=_histories(), n=st.sampled_from([1, 2, 3, 5]))
    @example(  # one shard's maximum is +0.0, the other's -0.0
        history=[([("dc1", 0, 0, 0.0), ("dc1", 0, 1, -0.0)], 0)], n=2
    )
    @settings(max_examples=150, deadline=None)
    def test_serial(self, history, n):
        single = _apply(MetricStore(), history)
        _assert_bit_identical(single, _apply(ShardedMetricStore(n_shards=n), history))

    @given(history=_histories(), n=st.sampled_from([1, 2, 3, 5]))
    @settings(max_examples=20, deadline=None)
    def test_tcp(self, shard_server, history, n):
        single = _apply(MetricStore(), history)
        with ShardedMetricStore(
            backend="tcp", shard_addrs=[shard_server.address] * n
        ) as sharded:
            _assert_bit_identical(single, _apply(sharded, history))


def test_tcp_mean_moves_partials_not_rows(shard_server, monkeypatch):
    """Each shard answers a ``mean`` with at most 64 x 8 B per window —
    its classes' sums — and no shard is asked for its rows."""
    asked, replies = [], []
    send_call, receive = ClientSession.send_call, ClientSession.receive

    def spy_send(self, names, method, args, kwargs):
        asked.append(method)
        return send_call(self, names, method, args, kwargs)

    def spy_receive(self):
        reply = receive(self)
        replies.append(len(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)))
        return reply

    n_windows = 40
    with ShardedMetricStore(
        backend="tcp", shard_addrs=[shard_server.address] * 4
    ) as store:
        indices = store.intern_servers(NAMES)
        rng = np.random.default_rng(2)
        for window in range(n_windows):
            store.record_batch("P", "dc1", "c", window, indices, rng.random(N_SERVERS))
        rows_per_shard = N_SERVERS * n_windows // 4
        assert store.sample_count() == 4 * rows_per_shard
        monkeypatch.setattr(ClientSession, "send_call", spy_send)
        monkeypatch.setattr(ClientSession, "receive", spy_receive)
        store.pool_window_aggregate("P", "c", reducer="mean")
    assert asked == ["window_partials"] * 4
    assert len(replies) == 4
    # The bound is below what the shard's rows alone would weigh.
    assert max(replies) <= CLASSES * 8 * n_windows < 24 * rows_per_shard
