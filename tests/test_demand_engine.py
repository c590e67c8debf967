"""Equivalence suite for the columnar demand engine.

The demand tensor (:mod:`repro.workload.demand_engine`) replaces the
per-window scalar pipeline — diurnal evaluation, surge scan, outage
failover, request-mix split — with one block computation.  These tests
pin the equivalences that rewrite rests on:

* :meth:`DiurnalPattern.demand_block` is *bitwise* equal to per-window
  ``demand_at`` calls;
* :meth:`RequestMix.shares_block` is bitwise equal to sequential
  ``shares_at`` calls against a twin RNG (same stream consumption);
* the engine's scalar ``surge_factor`` / ``outage_active`` lookups and
  their blocked counterparts agree with a brute-force event-list scan;
* ``compute_demand_block`` matches an independent transcription of the
  original per-window scalar algorithm — including surge stacking,
  multi-datacenter failover, and the zero-survivor /
  zero-survivor-total corners — and its one-window rows are bitwise
  equal to ``Simulator.offered_demand``;
* event caches invalidate when outages/surges are added mid-run;
* a full simulation with surges, outages and a drifting mix keeps
  identical availability, and statistically equivalent noisy counters,
  across block sizes (its exact bytes are pinned by
  ``tests/test_sim_golden.py``).
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster.builders import build_paper_fleet, build_single_pool_fleet
from repro.cluster.datacenter import Datacenter, Fleet, PoolDeployment
from repro.cluster.faults import DatacenterOutage, TrafficSurge
from repro.cluster.simulation import SimulationConfig, Simulator
from repro.workload.demand_engine import DemandEngine
from repro.workload.diurnal import (
    WINDOWS_PER_DAY,
    WINDOWS_PER_WEEK,
    DiurnalPattern,
)
from repro.workload.request_mix import RequestClass, RequestMix

# ----------------------------------------------------------------------
# Reference implementation: the original per-window scalar algorithm
# ----------------------------------------------------------------------


def _reference_offered_demand(fleet, outages, surges, window):
    """Transcription of the pre-engine scalar demand pipeline.

    Kept deliberately independent of the engine (plain Python loops over
    the raw event lists) so the tests compare two implementations, not
    the engine with itself.
    """
    demand = {}
    for d in fleet.deployments():
        base = d.pattern.demand_at(window)
        factor = 1.0
        for s in surges:
            if (
                s.datacenter_id == d.datacenter_id
                and (s.pool_id is None or s.pool_id == d.pool_id)
                and s.start_window <= window < s.start_window + s.duration_windows
            ):
                factor *= s.factor
        demand[(d.pool_id, d.datacenter_id)] = base * factor

    failed_dcs = {
        o.datacenter_id
        for o in outages
        if o.start_window <= window < o.start_window + o.duration_windows
    }
    if failed_dcs:
        for pool_id in fleet.pool_ids:
            keys = [
                (d.pool_id, d.datacenter_id)
                for d in fleet.deployments_of_pool(pool_id)
            ]
            failed = [k for k in keys if k[1] in failed_dcs]
            survivors = [k for k in keys if k[1] not in failed_dcs]
            displaced = sum(demand[k] for k in failed)
            for k in failed:
                demand[k] = 0.0
            if displaced > 0.0 and survivors:
                total = sum(demand[k] for k in survivors)
                for k in survivors:
                    share = (
                        demand[k] / total if total > 0.0 else 1.0 / len(survivors)
                    )
                    demand[k] += displaced * share
    return demand


class _ConstPattern:
    """Duck-typed pattern exposing only the scalar ``demand_at``.

    Stands in for trace replays / ramps: the engine must fall back to
    per-window scalar evaluation when ``demand_block`` is absent.
    """

    def __init__(self, rps):
        self.rps = float(rps)

    def demand_at(self, window):
        return self.rps


def _const_fleet(dc_rps, pool_id="B"):
    """One pool across len(dc_rps) datacenters with fixed demands."""
    datacenters = [
        Datacenter(f"DC{i + 1}", f"region-{i + 1}", 0.0)
        for i in range(len(dc_rps))
    ]
    base = build_single_pool_fleet(
        pool_id, n_datacenters=len(dc_rps), servers_per_deployment=2
    )
    fleet = Fleet(datacenters)
    for dc, (template, rps) in zip(
        datacenters, zip(base.deployments(), dc_rps)
    ):
        fleet.add_deployment(
            PoolDeployment(
                pool=dataclasses.replace(
                    template.pool, datacenter_id=dc.datacenter_id
                ),
                datacenter=dc,
                pattern=_ConstPattern(rps),
            )
        )
    return fleet


# ----------------------------------------------------------------------
# Layer 1: vectorized primitives vs their scalar originals
# ----------------------------------------------------------------------


class TestDiurnalBlock:
    @pytest.mark.parametrize(
        "pattern",
        [
            DiurnalPattern(base_rps=500.0),
            DiurnalPattern(base_rps=120.0, timezone_offset_hours=9.5),
            DiurnalPattern(base_rps=80.0, weekend_factor=0.4, weekly_growth=0.05),
            DiurnalPattern(base_rps=300.0, weekly_growth=-1.0),  # clamps to 0
            DiurnalPattern(
                base_rps=50.0,
                daily_amplitude=0.0,
                second_harmonic=0.0,
                peak_hour_local=3.0,
            ),
        ],
    )
    def test_demand_block_bitwise_matches_demand_at(self, pattern):
        """Every element equals the scalar evaluation float-for-float."""
        windows = np.concatenate(
            [
                np.arange(0, 2 * WINDOWS_PER_DAY, 7),
                np.arange(WINDOWS_PER_WEEK - 10, WINDOWS_PER_WEEK + 10),
                np.arange(2 * WINDOWS_PER_WEEK, 2 * WINDOWS_PER_WEEK + 30),
            ]
        )
        block = pattern.demand_block(windows)
        scalar = np.array([pattern.demand_at(int(w)) for w in windows])
        np.testing.assert_array_equal(block, scalar)

    def test_negative_growth_clamps_to_zero(self):
        pattern = DiurnalPattern(base_rps=300.0, weekly_growth=-1.0)
        late = np.arange(2 * WINDOWS_PER_WEEK, 2 * WINDOWS_PER_WEEK + 5)
        assert (pattern.demand_block(late) == 0.0).all()


class TestSharesBlock:
    def _drifting_mix(self, n_classes=3, drift=0.4):
        return RequestMix(
            classes=tuple(
                RequestClass(name=f"c{i}", cpu_cost=0.01 * (i + 1))
                for i in range(n_classes)
            ),
            proportions=tuple(float(i + 1) for i in range(n_classes)),
            drift=drift,
        )

    def test_block_matches_sequential_bitwise_with_jitter(self):
        """Twin RNGs: one block draw == per-window draws, row for row."""
        mix = self._drifting_mix()
        windows = np.arange(100, 420, dtype=np.int64)
        rng_a = np.random.default_rng(99)
        rng_b = np.random.default_rng(99)
        block = mix.shares_block(windows, rng_a)
        rows = np.stack([mix.shares_at(int(w), rng_b) for w in windows])
        np.testing.assert_array_equal(block, rows)
        # Both generators end in the same state.
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_block_matches_sequential_without_jitter(self):
        mix = self._drifting_mix(drift=0.25)
        windows = np.arange(0, 50, dtype=np.int64)
        block = mix.shares_block(windows)
        rows = np.stack([mix.shares_at(int(w)) for w in windows])
        np.testing.assert_array_equal(block, rows)

    def test_drift_free_mix_draws_nothing(self):
        """No drift => broadcast base shares and an untouched RNG."""
        mix = RequestMix.single()
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        block = mix.shares_block(np.arange(64), rng)
        assert rng.bit_generator.state == before
        np.testing.assert_array_equal(
            block, np.ones((64, 1))
        )

    def test_rows_are_distributions(self):
        mix = self._drifting_mix(n_classes=4, drift=0.6)
        block = mix.shares_block(np.arange(200), np.random.default_rng(1))
        np.testing.assert_allclose(block.sum(axis=1), 1.0, rtol=1e-12)
        assert (block > 0).all()


# ----------------------------------------------------------------------
# Layer 2: engine lookups vs brute-force event scans
# ----------------------------------------------------------------------


@pytest.fixture
def event_fleet():
    return build_paper_fleet(servers_per_deployment=2, pools=("A", "B", "C"))


@pytest.fixture
def events():
    surges = [
        TrafficSurge("DC2", start_window=100, duration_windows=200, factor=4.0),
        # Overlaps the first surge for [150, 300): factors stack.
        TrafficSurge("DC2", start_window=150, duration_windows=150, factor=1.5),
        # Pool-scoped: applies to B only.
        TrafficSurge(
            "DC5", start_window=50, duration_windows=400, factor=2.0, pool_id="B"
        ),
    ]
    outages = [
        DatacenterOutage("DC1", start_window=200, duration_windows=100),
        # Overlaps the DC1 outage for [250, 300).
        DatacenterOutage("DC7", start_window=250, duration_windows=120),
    ]
    return surges, outages


class TestEngineLookups:
    def test_surge_factor_matches_bruteforce(self, event_fleet, events):
        surges, outages = events
        engine = DemandEngine(event_fleet, outages, surges)
        for window in (0, 99, 100, 149, 150, 299, 300, 449, 450):
            for d in event_fleet.deployments():
                expected = 1.0
                for s in surges:
                    if (
                        s.datacenter_id == d.datacenter_id
                        and (s.pool_id is None or s.pool_id == d.pool_id)
                        and s.start_window
                        <= window
                        < s.start_window + s.duration_windows
                    ):
                        expected *= s.factor
                assert engine.surge_factor(
                    d.pool_id, d.datacenter_id, window
                ) == pytest.approx(expected, rel=0, abs=0)

    def test_overlapping_surges_stack(self, event_fleet, events):
        surges, _ = events
        engine = DemandEngine(event_fleet, [], surges)
        assert engine.surge_factor("A", "DC2", 200) == 4.0 * 1.5
        assert engine.surge_factor("A", "DC2", 120) == 4.0
        assert engine.surge_factor("B", "DC5", 60) == 2.0
        assert engine.surge_factor("A", "DC5", 60) == 1.0  # pool-scoped

    def test_outage_active_matches_bruteforce(self, event_fleet, events):
        _, outages = events
        engine = DemandEngine(event_fleet, outages, [])
        for window in (0, 199, 200, 249, 250, 299, 300, 369, 370):
            for o in outages:
                # The fixture's outages hit distinct datacenters, so the
                # brute-force check is a single interval test.
                expected = (
                    o.start_window <= window < o.start_window + o.duration_windows
                )
                assert engine.outage_active(o.datacenter_id, window) == expected
        assert not engine.outage_active("DC4", 225)

    def test_block_lookups_match_scalar(self, event_fleet, events):
        surges, outages = events
        engine = DemandEngine(event_fleet, outages, surges)
        windows = np.arange(0, 500, dtype=np.int64)
        for d in event_fleet.deployments():
            factors = engine.surge_factor_block(
                d.pool_id, d.datacenter_id, windows
            )
            scalar = np.array(
                [
                    engine.surge_factor(d.pool_id, d.datacenter_id, int(w))
                    for w in windows
                ]
            )
            np.testing.assert_array_equal(factors, scalar)
        for dc in ("DC1", "DC7", "DC4"):
            mask = engine.outage_mask_block(dc, windows)
            scalar = np.array(
                [engine.outage_active(dc, int(w)) for w in windows]
            )
            np.testing.assert_array_equal(mask, scalar)


# ----------------------------------------------------------------------
# Layer 3: the demand tensor vs the reference scalar pipeline
# ----------------------------------------------------------------------


class TestDemandBlockVsReference:
    def _assert_block_matches_reference(self, fleet, outages, surges, windows):
        engine = DemandEngine(fleet, outages, surges)
        block = engine.compute_demand_block(np.asarray(windows, dtype=np.int64))
        for i, window in enumerate(windows):
            expected = _reference_offered_demand(fleet, outages, surges, window)
            got = block.row_dict(i)
            assert got.keys() == expected.keys()
            for key in expected:
                assert got[key] == pytest.approx(
                    expected[key], rel=1e-12, abs=1e-9
                ), (key, window)

    def test_no_events(self, event_fleet):
        self._assert_block_matches_reference(
            event_fleet, [], [], list(range(0, 300, 11))
        )

    def test_surges_only(self, event_fleet, events):
        surges, _ = events
        self._assert_block_matches_reference(
            event_fleet, [], surges, list(range(90, 470, 7))
        )

    def test_outage_failover_multi_dc(self, event_fleet, events):
        """Overlapping outages: two DCs' demand folds into survivors."""
        surges, outages = events
        self._assert_block_matches_reference(
            event_fleet, outages, surges, list(range(180, 390, 3))
        )

    def test_block_straddles_outage_boundaries(self, event_fleet, events):
        """Blocks that cross outage start/end windows stay correct."""
        _, outages = events
        for boundary in (200, 300, 250, 370):
            windows = list(range(boundary - 4, boundary + 4))
            self._assert_block_matches_reference(
                event_fleet, outages, [], windows
            )

    def test_rows_bitwise_equal_simulator_offered_demand(
        self, event_fleet, events
    ):
        """Per-window and blocked demand share one code path: bitwise."""
        surges, outages = events
        sim = Simulator(event_fleet, seed=3)
        for s in surges:
            sim.add_surge(s)
        for o in outages:
            sim.add_outage(o)
        engine = DemandEngine(event_fleet, outages, surges)
        windows = np.arange(190, 320, dtype=np.int64)
        block = engine.compute_demand_block(windows)
        for i, window in enumerate(windows):
            assert block.row_dict(i) == sim.offered_demand(int(window))


class TestFailoverCorners:
    def test_all_datacenters_out_demand_lost(self):
        """No survivors: displaced demand vanishes, nothing negative."""
        fleet = _const_fleet([100.0, 200.0, 300.0])
        outages = [
            DatacenterOutage(dc.datacenter_id, start_window=10, duration_windows=20)
            for dc in fleet.datacenters
        ]
        engine = DemandEngine(fleet, outages, [])
        block = engine.compute_demand_block(np.array([5, 15, 35]))
        assert block.row_dict(0) != {}
        assert all(v == 0.0 for v in block.row_dict(1).values())
        assert all(v > 0.0 for v in block.row_dict(2).values())
        self_check = _reference_offered_demand(fleet, outages, [], 15)
        assert block.row_dict(1) == self_check

    def test_zero_survivor_total_splits_evenly(self):
        """Survivors with zero demand share the displaced load evenly."""
        fleet = _const_fleet([500.0, 0.0, 0.0])
        outages = [DatacenterOutage("DC1", start_window=0, duration_windows=50)]
        engine = DemandEngine(fleet, outages, [])
        row = engine.compute_demand_block(np.array([25])).row_dict(0)
        pool = fleet.pool_ids[0]
        assert row[(pool, "DC1")] == 0.0
        assert row[(pool, "DC2")] == pytest.approx(250.0)
        assert row[(pool, "DC3")] == pytest.approx(250.0)
        assert row == pytest.approx(
            _reference_offered_demand(fleet, outages, [], 25)
        )

    def test_nothing_displaced_no_redistribution(self):
        """A failed DC with zero demand leaves survivors untouched."""
        fleet = _const_fleet([0.0, 80.0, 120.0])
        outages = [DatacenterOutage("DC1", start_window=0, duration_windows=50)]
        engine = DemandEngine(fleet, outages, [])
        row = engine.compute_demand_block(np.array([10])).row_dict(0)
        pool = fleet.pool_ids[0]
        assert row[(pool, "DC2")] == 80.0
        assert row[(pool, "DC3")] == 120.0

    def test_mixed_blocks_cover_every_regime_per_row(self):
        """One block spanning lost/even-split/proportional/no-outage rows."""
        fleet = _const_fleet([500.0, 100.0, 300.0])
        outages = [
            DatacenterOutage("DC1", start_window=10, duration_windows=10),
            DatacenterOutage("DC2", start_window=15, duration_windows=10),
            DatacenterOutage("DC3", start_window=15, duration_windows=10),
        ]
        engine = DemandEngine(fleet, outages, [])
        windows = np.arange(0, 40, dtype=np.int64)
        block = engine.compute_demand_block(windows)
        for i, window in enumerate(windows):
            expected = _reference_offered_demand(fleet, outages, [], int(window))
            assert block.row_dict(i) == pytest.approx(expected), window

    def test_duck_typed_pattern_fallback(self):
        """Patterns without demand_block go through scalar demand_at."""
        fleet = _const_fleet([42.0, 58.0])
        engine = DemandEngine(fleet, [], [])
        block = engine.compute_demand_block(np.arange(5))
        pool = fleet.pool_ids[0]
        np.testing.assert_array_equal(block.column(pool, "DC1"), 42.0)
        np.testing.assert_array_equal(block.column(pool, "DC2"), 58.0)


class TestCacheInvalidation:
    def test_add_surge_and_outage_refresh_caches(self, event_fleet):
        sim = Simulator(event_fleet, seed=0)
        before = sim.offered_demand(120)
        sim.add_surge(
            TrafficSurge("DC2", start_window=100, duration_windows=100, factor=3.0)
        )
        surged = sim.offered_demand(120)
        for key in before:
            factor = 3.0 if key[1] == "DC2" else 1.0
            assert surged[key] == pytest.approx(before[key] * factor)
        sim.add_outage(
            DatacenterOutage("DC3", start_window=110, duration_windows=50)
        )
        failed_over = sim.offered_demand(120)
        assert all(
            failed_over[key] == 0.0 for key in failed_over if key[1] == "DC3"
        )
        assert sum(failed_over.values()) == pytest.approx(sum(surged.values()))


# ----------------------------------------------------------------------
# Layer 4: full-simulation equivalence with events and drift
# ----------------------------------------------------------------------


def _run_with_events(block_windows=1, windows=240):
    # Pool A's mix drifts (drift=0.5), exercising the share-jitter draws.
    fleet = build_single_pool_fleet(
        "A", n_datacenters=3, servers_per_deployment=5, seed=11
    )
    config = SimulationConfig(
        record_request_classes=True, block_windows=block_windows
    )
    sim = Simulator(fleet, seed=11, config=config)
    sim.add_surge(
        TrafficSurge("DC2", start_window=40, duration_windows=80, factor=3.0)
    )
    sim.add_surge(
        TrafficSurge("DC1", start_window=60, duration_windows=30, factor=1.5, pool_id="A")
    )
    sim.add_outage(DatacenterOutage("DC3", start_window=100, duration_windows=60))
    sim.run(windows)
    return sim.store


class TestFullSimulationWithEvents:
    def test_blocked_availability_identical_under_events(self):
        """Outage gating of the online mask survives blocking."""
        from repro.telemetry.counters import Counter

        batch = _run_with_events()
        blocked = _run_with_events(block_windows=32)
        assert batch.sample_count() == blocked.sample_count()
        for dc in batch.datacenters_for_pool("A"):
            a = batch.pool_window_aggregate(
                "A", Counter.AVAILABILITY.value, datacenter_id=dc
            )
            b = blocked.pool_window_aggregate(
                "A", Counter.AVAILABILITY.value, datacenter_id=dc
            )
            np.testing.assert_array_equal(a.windows, b.windows)
            np.testing.assert_array_equal(a.values, b.values)

    def test_blocked_statistically_equivalent_under_events(self):
        from repro.telemetry.counters import Counter

        batch = _run_with_events(windows=720)
        blocked = _run_with_events(block_windows=48, windows=720)
        for counter in (
            Counter.REQUESTS.value,
            Counter.PROCESSOR_UTILIZATION.value,
        ):
            a = batch.pool_window_aggregate("A", counter).values
            b = blocked.pool_window_aggregate("A", counter).values
            assert a.mean() == pytest.approx(b.mean(), rel=0.02)
