"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.baselines.queuing import erlang_c_wait_probability
from repro.cluster.latency import LatencyModel
from repro.stats.descriptive import empirical_cdf, percentile_profile
from repro.stats.regression import fit_linear, fit_polynomial
from repro.telemetry.query_server import LiveQuerySurface
from repro.telemetry.series import TimeSeries
from repro.telemetry.store import MetricStore
from repro.workload.diurnal import DiurnalPattern, WINDOWS_PER_DAY
from repro.workload.request_mix import RequestClass, RequestMix
from tests.conftest import chunk_list_rows

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
positive_floats = st.floats(
    min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestRegressionProperties:
    @given(
        slope=st.floats(min_value=-100, max_value=100, allow_nan=False),
        intercept=st.floats(min_value=-100, max_value=100, allow_nan=False),
        n=st.integers(min_value=3, max_value=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_exact_line_recovered(self, slope, intercept, n):
        x = np.linspace(0.0, 10.0, n)
        model = fit_linear(x, slope * x + intercept)
        assert model.slope == pytest.approx(slope, abs=1e-6 + 1e-6 * abs(slope))
        assert model.intercept == pytest.approx(
            intercept, abs=1e-6 + 1e-6 * abs(intercept)
        )

    @given(
        values=st.lists(finite_floats, min_size=4, max_size=60),
    )
    @settings(max_examples=50, deadline=None)
    def test_r2_at_most_one(self, values):
        x = np.arange(len(values), dtype=float)
        model = fit_linear(x, values)
        assert model.r2 <= 1.0 + 1e-9

    @given(
        coeffs=st.tuples(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            st.floats(min_value=-5, max_value=5, allow_nan=False),
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_quadratic_exact_recovery(self, coeffs):
        a, b, c = coeffs
        x = np.linspace(-3, 3, 20)
        model = fit_polynomial(x, a * x**2 + b * x + c, degree=2)
        pred = model.predict(1.7)
        expected = a * 1.7**2 + b * 1.7 + c
        assert pred == pytest.approx(expected, abs=1e-6 + 1e-4 * abs(expected))


class TestDescriptiveProperties:
    @given(values=st.lists(finite_floats, min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_percentile_profile_monotone(self, values):
        profile = percentile_profile(values)
        assert np.all(np.diff(profile) >= -1e-12)

    @given(values=st.lists(finite_floats, min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_cdf_is_monotone_distribution(self, values):
        cdf = empirical_cdf(values)
        assert np.all(np.diff(cdf.ps) >= 0)
        assert cdf.ps[-1] == pytest.approx(1.0)
        assert cdf.fraction_at_or_below(float(np.max(values))) == pytest.approx(1.0)

    @given(
        values=st.lists(finite_floats, min_size=1, max_size=100),
        x=finite_floats,
    )
    @settings(max_examples=60, deadline=None)
    def test_cdf_fractions_complement(self, values, x):
        cdf = empirical_cdf(values)
        total = cdf.fraction_at_or_below(x) + cdf.fraction_above(x)
        assert total == pytest.approx(1.0)


class TestTimeSeriesProperties:
    @given(values=st.lists(finite_floats, min_size=2, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_align_with_self_is_identity(self, values):
        ts = TimeSeries(np.arange(len(values)), np.asarray(values))
        a, b = ts.align_with(ts)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, ts.values)

    @given(
        values=st.lists(finite_floats, min_size=1, max_size=100),
        factor=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_resample_sum_conserves_total(self, values, factor):
        ts = TimeSeries(np.arange(len(values)), np.asarray(values))
        down = ts.resample(factor, "sum")
        assert float(down.values.sum()) == pytest.approx(
            float(ts.values.sum()), rel=1e-9, abs=1e-6
        )


class TestWorkloadProperties:
    @given(
        base=st.floats(min_value=1.0, max_value=1e5, allow_nan=False),
        amplitude=st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
        window=st.integers(min_value=0, max_value=10 * WINDOWS_PER_DAY),
    )
    @settings(max_examples=80, deadline=None)
    def test_demand_never_negative(self, base, amplitude, window):
        pattern = DiurnalPattern(
            base_rps=base, daily_amplitude=amplitude, second_harmonic=0.1
        )
        assert pattern.demand_at(window) >= 0.0

    @given(
        total=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        window=st.integers(min_value=0, max_value=5000),
        drift=st.floats(min_value=0.0, max_value=0.8, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_split_volume_conserves_total(self, total, window, drift):
        mix = RequestMix(
            classes=(
                RequestClass("a", 0.01),
                RequestClass("b", 0.02),
                RequestClass("c", 0.05),
            ),
            proportions=(0.5, 0.3, 0.2),
            drift=drift,
        )
        # The split the simulator and generate_trace apply per window.
        split = total * mix.shares_block(np.array([window]))[0]
        assert split.sum() == pytest.approx(total, rel=1e-9, abs=1e-9)
        assert np.all(split >= 0)


class TestLatencyModelProperties:
    @given(
        rps=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        util=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_latency_finite_positive(self, rps, util):
        model = LatencyModel(base_ms=10.0)
        latency = model.p95_ms(rps, util)
        assert np.isfinite(latency)
        assert latency >= model.base_ms

    @given(
        u1=st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
        u2=st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_latency_monotone_in_utilization(self, u1, u2):
        assume(u1 < u2)
        model = LatencyModel(base_ms=10.0, cold_ms=0.0)
        assert model.p95_ms(100.0, u1) <= model.p95_ms(100.0, u2)


class TestRetentionProperties:
    """Rolling retention (``evict_windows``) is a placement change only.

    Random (horizon, block, retention, fleet-size) combinations, driven
    the way the streaming loop drives the store — ingest a block, evict
    everything below ``current - retain`` — must never drop a window
    inside the retention horizon, must read evicted windows back from
    the spill archive bit-equal to a never-evicted store, and must keep
    hot rows bounded by ``retain × servers``.
    """

    @staticmethod
    def _streamed_pair(n_windows, n_servers, block, retain, seed):
        """(evicting store, never-evicting reference, evicted row count)."""
        rng = np.random.default_rng(seed)
        evicting, reference = MetricStore(), MetricStore()
        ids = [f"s{i:02d}" for i in range(n_servers)]
        idx = evicting.intern_servers(ids)
        reference.intern_servers(ids)
        evicted = 0
        for start in range(0, n_windows, block):
            stop = min(start + block, n_windows)
            windows = np.repeat(
                np.arange(start, stop, dtype=np.int64), n_servers
            )
            servers = np.tile(idx, stop - start)
            values = rng.normal(100.0, 15.0, windows.size)
            for store in (evicting, reference):
                # record_columns takes ownership of its arrays.
                store.record_columns(
                    "B", "DC1", "Requests/sec",
                    windows.copy(), servers.copy(), values.copy(),
                )
            cutoff = stop - retain
            if cutoff > 0:
                evicted += evicting.evict_windows(cutoff)
        return evicting, reference, evicted

    retention_args = dict(
        n_windows=st.integers(min_value=1, max_value=120),
        n_servers=st.integers(min_value=1, max_value=6),
        block=st.integers(min_value=1, max_value=32),
        retain=st.integers(min_value=1, max_value=48),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )

    @given(**retention_args)
    @settings(max_examples=25, deadline=None)
    def test_retention_horizon_never_dropped(
        self, n_windows, n_servers, block, retain, seed
    ):
        evicting, _, evicted = self._streamed_pair(
            n_windows, n_servers, block, retain, seed
        )
        # The watermark never reaches into the retained span, and hot +
        # evicted account for every row ever ingested.
        assert evicting.evicted_before <= max(0, n_windows - retain)
        assert evicting.hot_sample_count() + evicted == n_windows * n_servers
        assert (
            evicting.hot_sample_count()
            == (n_windows - evicting.evicted_before) * n_servers
        )

    @given(**retention_args)
    @settings(max_examples=25, deadline=None)
    def test_evicted_windows_read_back_bit_equal(
        self, n_windows, n_servers, block, retain, seed
    ):
        evicting, reference, _ = self._streamed_pair(
            n_windows, n_servers, block, retain, seed
        )
        for reducer in ("mean", "sum", "max", "count"):
            a = evicting.pool_window_aggregate(
                "B", "Requests/sec", reducer=reducer
            )
            b = reference.pool_window_aggregate(
                "B", "Requests/sec", reducer=reducer
            )
            np.testing.assert_array_equal(a.windows, b.windows)
            np.testing.assert_array_equal(a.values, b.values)
        for server in evicting.servers_in_pool("B"):
            xa = evicting.server_series("B", "Requests/sec", server)
            xb = reference.server_series("B", "Requests/sec", server)
            np.testing.assert_array_equal(xa.windows, xb.windows)
            np.testing.assert_array_equal(xa.values, xb.values)

    @given(**retention_args)
    @settings(max_examples=25, deadline=None)
    def test_hot_rows_bounded(self, n_windows, n_servers, block, retain, seed):
        evicting, _, _ = self._streamed_pair(
            n_windows, n_servers, block, retain, seed
        )
        # The loop evicts after each block, so at rest the hot span is
        # at most the retained span (plus nothing — eviction ran last).
        assert evicting.hot_sample_count() <= retain * n_servers


#: Fixed topology of the interleaving machine: two DCs, two servers
#: each.  Small on purpose — hypothesis explores interleavings, not
#: fleet size (the retention suite above randomizes sizes).
_SM_DCS = ("DC1", "DC2")
_SM_SERVERS_PER_DC = 2
_SM_N = len(_SM_DCS) * _SM_SERVERS_PER_DC


class StreamedStoreMachine(RuleBasedStateMachine):
    """Arbitrary ingest / ``seal_through`` / ``evict_windows`` / query
    interleavings against a naive recompute oracle.

    The machine drives one :class:`MetricStore` exactly the way the
    streaming loop is allowed to — windows ingested in order, seals at
    any completed window, evictions at any cutoff inside the sealed
    span — but in *every* order hypothesis can shrink to, reading
    through the same :class:`LiveQuerySurface` the query server serves.
    The oracle is deliberately dumb: plain dicts of every row ever
    ingested, recomputed per query.  Values are small integers, so
    every reducer (mean included: an exact integer sum, one division)
    is bit-exact on both sides.
    """

    def __init__(self):
        super().__init__()
        self.store = MetricStore()
        self.surface = LiveQuerySurface(self.store)
        ids = [f"s{i}" for i in range(_SM_N)]
        self.idx = self.store.intern_servers(ids)
        self.names = ids
        self.store.track_aggregate("B", "rps", None, "mean")
        #: dc -> window -> {server index -> value}: the naive oracle.
        self.rows = {dc: {} for dc in _SM_DCS}
        self.next_window = 0
        self.sealed = -1
        self.watermark = 0
        self.evicted_rows = 0

    # -- mutations (the streaming loop's alphabet) ---------------------
    @rule(
        masks=st.lists(
            st.booleans(), min_size=_SM_N, max_size=_SM_N
        ),
        values=st.lists(
            st.integers(min_value=0, max_value=1000),
            min_size=_SM_N, max_size=_SM_N,
        ),
    )
    def ingest_window(self, masks, values):
        """One whole window arrives: a per-DC subset of servers reports."""
        window = self.next_window
        for dc_i, dc in enumerate(_SM_DCS):
            lo = dc_i * _SM_SERVERS_PER_DC
            members = [
                (self.idx[i], values[i])
                for i in range(lo, lo + _SM_SERVERS_PER_DC)
                if masks[i]
            ]
            if not members:
                continue
            indices = np.array([m[0] for m in members], dtype=np.int64)
            vals = np.array([m[1] for m in members], dtype=np.float64)
            self.store.record_batch("B", dc, "rps", window, indices, vals)
            self.rows[dc][window] = {
                index: value for index, value in members
            }
        self.next_window += 1

    @precondition(lambda self: self.next_window > 0)
    @rule(back=st.integers(min_value=0, max_value=8))
    def seal(self, back):
        """Seal through any completed window (re-sealing lower: no-op)."""
        target = self.next_window - 1 - back
        if target < 0:
            return
        self.store.seal_through(target)
        self.sealed = max(self.sealed, target)

    @rule(back=st.integers(min_value=0, max_value=8))
    def evict(self, back):
        """Evict at any cutoff inside the sealed span (idempotent below
        the watermark); the return value must equal the oracle's count
        of rows crossing the watermark."""
        cutoff = self.sealed + 1 - back
        if cutoff < 0:
            return
        expected = sum(
            len(by_server)
            for dc in _SM_DCS
            for w, by_server in self.rows[dc].items()
            if self.watermark <= w < cutoff
        )
        moved = self.store.evict_windows(cutoff)
        if cutoff <= self.watermark:
            assert moved == 0
        else:
            assert moved == expected
            self.watermark = cutoff
            self.evicted_rows += moved

    # -- queries (through the served surface) --------------------------
    def _oracle_aggregate(self, datacenter_id, reducer):
        per_window = {}
        for dc in _SM_DCS:
            if datacenter_id is not None and dc != datacenter_id:
                continue
            for window, by_server in self.rows[dc].items():
                per_window.setdefault(window, []).extend(by_server.values())
        windows = sorted(per_window)
        reduce = {
            "mean": lambda v: float(sum(v)) / len(v),
            "sum": lambda v: float(sum(v)),
            "max": lambda v: float(max(v)),
            "count": lambda v: float(len(v)),
        }[reducer]
        return (
            np.array(windows, dtype=np.int64),
            np.array([reduce(per_window[w]) for w in windows]),
        )

    @precondition(lambda self: any(self.rows[dc] for dc in _SM_DCS))
    @rule(
        datacenter_id=st.sampled_from((None,) + _SM_DCS),
        reducer=st.sampled_from(("mean", "sum", "max", "count")),
    )
    def query_aggregate(self, datacenter_id, reducer):
        if datacenter_id is not None and not self.rows[datacenter_id]:
            return
        series = self.surface.pool_window_aggregate(
            "B", "rps", datacenter_id=datacenter_id, reducer=reducer
        )
        windows, values = self._oracle_aggregate(datacenter_id, reducer)
        np.testing.assert_array_equal(series.windows, windows)
        np.testing.assert_array_equal(series.values, values)

    @rule(server=st.integers(min_value=0, max_value=_SM_N - 1))
    def query_server_series(self, server):
        dc = _SM_DCS[server // _SM_SERVERS_PER_DC]
        index = self.idx[server]
        expected = sorted(
            (w, by_server[index])
            for w, by_server in self.rows[dc].items()
            if index in by_server
        )
        if not expected:
            return
        series = self.surface.server_series("B", "rps", self.names[server])
        np.testing.assert_array_equal(
            series.windows, np.array([w for w, _ in expected], dtype=np.int64)
        )
        np.testing.assert_array_equal(
            series.values, np.array([v for _, v in expected])
        )

    # -- invariants ----------------------------------------------------
    @invariant()
    def accounting_holds(self):
        total = sum(
            len(by_server)
            for dc in _SM_DCS
            for by_server in self.rows[dc].values()
        )
        assert self.store.sample_count() == total
        assert (
            self.store.hot_sample_count() + self.evicted_rows == total
        )
        assert self.store.evicted_before == self.watermark

    @invariant()
    def chunk_list_holds(self):
        """``_Table``'s invariant after every step: spans and row sums
        are what the chunks hold, ``cold ++ hot`` is the order the
        oracle saw rows arrive in, and the watermark separates them."""
        rows = chunk_list_rows(self.store)
        for dc in _SM_DCS:
            expected = [
                (window, index, value)
                for window, by_server in self.rows[dc].items()
                for index, value in by_server.items()
            ]
            if not expected:
                assert ("B", dc, "rps") not in rows
                continue
            for column, want in zip(rows["B", dc, "rps"], zip(*expected)):
                np.testing.assert_array_equal(column, want)
            table = self.store._tables["B", dc, "rps"]
            assert all(chunk.hi < self.watermark for chunk in table._cold)
            assert all(chunk.lo >= self.watermark for chunk in table._hot)

    @invariant()
    def watermarks_monotone(self):
        assert self.store.sealed_through == self.sealed
        assert self.watermark <= max(self.sealed + 1, 0)


TestStreamedStoreMachine = StreamedStoreMachine.TestCase
TestStreamedStoreMachine.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)


class TestErlangCProperties:
    @given(
        offered=st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
        servers=st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=100, deadline=None)
    def test_probability_in_unit_interval(self, offered, servers):
        p = erlang_c_wait_probability(offered, 1.0, servers)
        assert 0.0 <= p <= 1.0

    @given(
        offered=st.floats(min_value=0.1, max_value=20.0, allow_nan=False),
        servers=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_servers(self, offered, servers):
        p1 = erlang_c_wait_probability(offered, 1.0, servers)
        p2 = erlang_c_wait_probability(offered, 1.0, servers + 1)
        assert p2 <= p1 + 1e-12
