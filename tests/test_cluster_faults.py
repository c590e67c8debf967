"""Unit tests for repro.cluster.faults."""

import numpy as np
import pytest

from repro.cluster.faults import (
    DatacenterOutage,
    MaintenancePolicy,
    RandomFailures,
    RepurposingPolicy,
    RollingMaintenance,
    TrafficSurge,
    policy_for_availability,
    policy_online_mask_block,
)
from repro.workload.diurnal import WINDOWS_PER_DAY


def _mean_availability(policy, n_servers=20, days=2):
    online = 0
    total = 0
    for w in range(days * WINDOWS_PER_DAY):
        for s in range(n_servers):
            online += policy.is_online(s, n_servers, w)
            total += 1
    return online / total


class TestRollingMaintenance:
    def test_target_downtime_achieved(self):
        policy = RollingMaintenance(daily_downtime_fraction=0.02)
        availability = _mean_availability(policy)
        assert availability == pytest.approx(0.98, abs=0.005)

    def test_zero_downtime(self):
        policy = RollingMaintenance(daily_downtime_fraction=0.0)
        assert _mean_availability(policy, n_servers=3, days=1) == 1.0

    def test_slots_staggered(self):
        # At any instant only a small share of servers should be out.
        policy = RollingMaintenance(daily_downtime_fraction=0.1)
        n = 50
        for w in range(0, WINDOWS_PER_DAY, 37):
            offline = sum(
                1 for s in range(n) if not policy.is_online(s, n, w)
            )
            assert offline <= n * 0.2

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            RollingMaintenance(daily_downtime_fraction=1.0)


class TestMaintenancePolicy:
    def test_high_target(self):
        policy = MaintenancePolicy(target_availability=0.95)
        assert _mean_availability(policy) == pytest.approx(0.95, abs=0.01)


class TestRepurposingPolicy:
    def test_for_target_availability(self):
        policy = RepurposingPolicy.for_target_availability(0.71)
        availability = _mean_availability(policy, n_servers=40, days=3)
        assert availability == pytest.approx(0.71, abs=0.04)

    def test_high_target_means_no_borrowing(self):
        policy = RepurposingPolicy.for_target_availability(0.99)
        assert policy.borrowed_fraction == 0.0

    def test_downtime_is_nocturnal(self):
        policy = RepurposingPolicy(borrowed_fraction=0.5, night_start_hour=1.0, night_hours=8.0)
        n = 20
        # Mid-afternoon window: no borrowing.
        afternoon = int(15 / 24 * WINDOWS_PER_DAY)
        offline_pm = sum(1 for s in range(n) if not policy.is_online(s, n, afternoon))
        # 3 AM window: borrowed subset offline.
        night = int(3 / 24 * WINDOWS_PER_DAY)
        offline_night = sum(1 for s in range(n) if not policy.is_online(s, n, night))
        assert offline_night >= 9
        assert offline_pm <= 2  # only base maintenance

    def test_rotation_spreads_downtime(self):
        policy = RepurposingPolicy(borrowed_fraction=0.5, base_maintenance=0.0)
        n = 10
        night = int(3 / 24 * WINDOWS_PER_DAY)
        day0 = {s for s in range(n) if not policy.is_online(s, n, night)}
        day1 = {
            s for s in range(n)
            if not policy.is_online(s, n, night + WINDOWS_PER_DAY)
        }
        assert day0 != day1


class TestPolicyForAvailability:
    def test_high_availability_uses_rolling(self):
        assert isinstance(policy_for_availability(0.98), MaintenancePolicy)

    def test_low_availability_uses_repurposing(self):
        assert isinstance(policy_for_availability(0.8), RepurposingPolicy)

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            policy_for_availability(0.0)


class TestRandomFailures:
    def test_deterministic_per_seed(self):
        failures = RandomFailures(daily_probability=0.5, seed=3)
        flags1 = [failures.is_failed(4, w) for w in range(100)]
        flags2 = [failures.is_failed(4, w) for w in range(100)]
        assert flags1 == flags2

    def test_zero_probability_never_fails(self):
        failures = RandomFailures(daily_probability=0.0)
        assert not any(failures.is_failed(0, w) for w in range(2 * WINDOWS_PER_DAY))

    def test_rate_roughly_matches(self):
        failures = RandomFailures(daily_probability=0.5, duration_windows=10, seed=1)
        failed_days = 0
        for server in range(200):
            if any(failures.is_failed(server, w) for w in range(WINDOWS_PER_DAY)):
                failed_days += 1
        assert 60 <= failed_days <= 140  # ~100 expected


def _scalar_grid(policy, n_servers, windows):
    """The reference grid: one scalar ``is_online`` call per cell."""
    return np.array(
        [
            [policy.is_online(i, n_servers, int(w)) for i in range(n_servers)]
            for w in windows
        ]
    )


class TestBlockMasks:
    """Cross-window mask grids match the scalar policies cell for cell."""

    POLICIES = (
        RollingMaintenance(daily_downtime_fraction=0.1),
        MaintenancePolicy(target_availability=0.97),
        RepurposingPolicy(borrowed_fraction=0.4),
    )

    @pytest.mark.parametrize(
        "policy", POLICIES, ids=lambda p: type(p).__name__
    )
    def test_block_rows_equal_per_window_masks(self, policy):
        # Across midnight and into the repurposing night window.
        windows = np.arange(700, 800)
        block = policy_online_mask_block(policy, 13, windows)
        assert block.shape == (windows.size, 13)
        np.testing.assert_array_equal(block, _scalar_grid(policy, 13, windows))

    def test_rolling_block_wraps_midnight(self):
        policy = RollingMaintenance(daily_downtime_fraction=0.3)
        windows = np.arange(WINDOWS_PER_DAY - 5, WINDOWS_PER_DAY + 5)
        block = policy_online_mask_block(policy, 10, windows)
        np.testing.assert_array_equal(block, _scalar_grid(policy, 10, windows))

    def test_block_fallback_for_custom_policy(self):
        class OddWindowsOnly:
            def is_online(self, server_index, n_servers, window):
                return window % 2 == 1

        block = policy_online_mask_block(OddWindowsOnly(), 4, np.arange(6))
        assert block.shape == (6, 4)
        np.testing.assert_array_equal(block[:, 0], [False, True] * 3)

    def test_failure_block_equals_is_failed(self):
        failures = RandomFailures(daily_probability=0.5, duration_windows=10, seed=1)
        windows = np.arange(WINDOWS_PER_DAY - 40, WINDOWS_PER_DAY + 40)
        block = failures.failed_mask_block(9, windows)
        expected = np.array(
            [[failures.is_failed(i, int(w)) for i in range(9)] for w in windows]
        )
        assert expected.any()
        np.testing.assert_array_equal(block, expected)


class TestEvents:
    def test_outage_active_range(self):
        outage = DatacenterOutage("DC1", start_window=10, duration_windows=5)
        assert not outage.active_at(9)
        assert outage.active_at(10)
        assert outage.active_at(14)
        assert not outage.active_at(15)

    def test_outage_validation(self):
        with pytest.raises(ValueError):
            DatacenterOutage("DC1", start_window=-1, duration_windows=5)
        with pytest.raises(ValueError):
            DatacenterOutage("DC1", start_window=0, duration_windows=0)

    def test_surge_applies_to(self):
        surge = TrafficSurge("DC5", 100, 50, factor=4.0, pool_id="D")
        assert surge.applies_to("D", "DC5", 120)
        assert not surge.applies_to("B", "DC5", 120)
        assert not surge.applies_to("D", "DC1", 120)
        assert not surge.applies_to("D", "DC5", 10)

    def test_surge_all_pools_when_unset(self):
        surge = TrafficSurge("DC5", 0, 10, factor=2.0)
        assert surge.applies_to("anything", "DC5", 5)

    def test_surge_validation(self):
        with pytest.raises(ValueError):
            TrafficSurge("DC1", 0, 10, factor=0.0)
