"""Unit and behavioural tests for repro.cluster.simulation and builders."""

import numpy as np
import pytest

from repro.cluster.builders import (
    PAPER_DATACENTERS,
    build_grouping_study_fleet,
    build_paper_fleet,
    build_single_pool_fleet,
    pattern_for_deployment,
    peak_rps_per_server,
)
from repro.cluster.faults import DatacenterOutage, TrafficSurge
from repro.cluster.hardware import GENERATION_2014
from repro.cluster.service import service_catalog
from repro.cluster.simulation import SimulationConfig, Simulator
from repro.telemetry.counters import Counter


@pytest.fixture()
def small_sim():
    fleet = build_single_pool_fleet(
        "B", n_datacenters=2, servers_per_deployment=8, seed=3
    )
    return Simulator(
        fleet, seed=3, config=SimulationConfig(apply_availability_policies=False)
    )


class TestBuilders:
    def test_paper_fleet_shape(self):
        fleet = build_paper_fleet(
            servers_per_deployment=4, datacenters=PAPER_DATACENTERS[:2], seed=0
        )
        assert fleet.pool_ids == ("A", "B", "C", "D", "E", "F", "G")
        assert fleet.total_servers() == 7 * 2 * 4

    def test_unknown_pool_rejected(self):
        with pytest.raises(KeyError):
            build_paper_fleet(pools=["Z"])

    def test_single_pool_fleet(self):
        fleet = build_single_pool_fleet("D", n_datacenters=3, servers_per_deployment=5)
        assert fleet.pool_ids == ("D",)
        assert len(fleet.datacenters) == 3

    def test_peak_rps_positive(self):
        profile = service_catalog()["B"]
        rps = peak_rps_per_server(profile, GENERATION_2014)
        assert 300 < rps < 500  # ~(12 - 1.2) / 0.028

    def test_pattern_hits_provisioning_target(self):
        profile = service_catalog()["B"]
        dc = PAPER_DATACENTERS[0]
        n = 20
        pattern = pattern_for_deployment(profile, dc, n, GENERATION_2014)
        peak_per_server = pattern.daily_peak() / n
        target = peak_rps_per_server(profile, GENERATION_2014)
        assert peak_per_server == pytest.approx(target, rel=0.01)

    def test_grouping_study_fleet_labels(self):
        fleet, labels = build_grouping_study_fleet(
            n_tight_pools=3, n_noisy_pools=2, servers_per_pool=4,
            n_datacenters=1, seed=0,
        )
        assert len(labels) == 5
        assert sum(labels.values()) == 3
        assert set(fleet.pool_ids) == set(labels)


class TestSimulatorBasics:
    def test_window_advances(self, small_sim):
        small_sim.run(5)
        assert small_sim.current_window == 5

    def test_negative_windows_rejected(self, small_sim):
        with pytest.raises(ValueError):
            small_sim.run(-1)

    def test_counters_recorded(self, small_sim):
        small_sim.run(10)
        store = small_sim.store
        assert store.pools == ("B",)
        rps = store.pool_window_aggregate("B", Counter.REQUESTS.value)
        assert len(rps) == 10

    def test_counter_filter_respected(self):
        fleet = build_single_pool_fleet("B", servers_per_deployment=4, seed=1)
        sim = Simulator(
            fleet, seed=1,
            config=SimulationConfig(
                counters=(Counter.REQUESTS.value,),
                apply_availability_policies=False,
            ),
        )
        sim.run(3)
        assert sim.store.counters_for_pool("B") == (Counter.REQUESTS.value,)

    def test_deterministic_under_seed(self):
        def run():
            fleet = build_single_pool_fleet("B", servers_per_deployment=4, seed=5)
            sim = Simulator(
                fleet, seed=5,
                config=SimulationConfig(apply_availability_policies=False),
            )
            sim.run(20)
            return sim.store.pool_window_aggregate(
                "B", Counter.PROCESSOR_UTILIZATION.value
            ).values

        np.testing.assert_array_equal(run(), run())

    def test_stage_timers_populated_by_default_config(self):
        fleet = build_single_pool_fleet("B", servers_per_deployment=4, seed=5)
        sim = Simulator(fleet, seed=5)
        assert sim.config.block_windows == 1
        sim.run(10)
        assert set(sim.stage_seconds) == {"demand", "observe", "ingest"}
        assert all(seconds > 0 for seconds in sim.stage_seconds.values())

    def test_resize_changes_per_server_load(self, small_sim):
        small_sim.run(20)
        before = small_sim.store.pool_window_aggregate(
            "B", Counter.REQUESTS.value, datacenter_id="DC1", start=0, stop=20
        ).mean()
        small_sim.resize_pool("B", "DC1", 4)
        small_sim.run(20)
        after = small_sim.store.pool_window_aggregate(
            "B", Counter.REQUESTS.value, datacenter_id="DC1", start=20, stop=40
        ).mean()
        assert after > before * 1.5

    def test_set_version_applies_to_all_dcs(self, small_sim):
        from repro.cluster.deployment import SoftwareVersion

        small_sim.set_version("B", SoftwareVersion(name="v2"))
        for deployment in small_sim.fleet.deployments():
            assert all(s.version.name == "v2" for s in deployment.pool.servers)

    def test_unknown_pool_resize_rejected(self, small_sim):
        with pytest.raises(KeyError):
            small_sim.resize_pool("Z", "DC1", 5)


class TestDemandEvents:
    def test_outage_redistributes_demand(self, small_sim):
        small_sim.add_outage(DatacenterOutage("DC1", 0, 10))
        demand = small_sim.offered_demand(5)
        assert demand[("B", "DC1")] == 0.0
        # DC2 absorbs DC1's traffic.
        baseline = small_sim.fleet.deployment("B", "DC2").pattern.demand_at(5)
        assert demand[("B", "DC2")] > baseline

    def test_total_demand_conserved_during_outage(self, small_sim):
        no_outage = sum(small_sim.offered_demand(5).values())
        small_sim.add_outage(DatacenterOutage("DC1", 0, 10))
        with_outage = sum(small_sim.offered_demand(5).values())
        assert with_outage == pytest.approx(no_outage)

    def test_outage_marks_servers_offline(self, small_sim):
        small_sim.add_outage(DatacenterOutage("DC1", 0, 5))
        small_sim.run(3)
        availability = small_sim.store.pool_window_aggregate(
            "B", Counter.AVAILABILITY.value, datacenter_id="DC1", reducer="mean"
        )
        assert availability.values[0] == 0.0

    def test_server_states_synced_after_run(self):
        """Post-run Server.state reflects the last window's mask."""
        from repro.cluster.server import ServerState

        fleet = build_single_pool_fleet(
            "B", n_datacenters=2, servers_per_deployment=4, seed=3
        )
        sim = Simulator(
            fleet, seed=3,
            config=SimulationConfig(apply_availability_policies=False),
        )
        sim.add_outage(DatacenterOutage("DC1", 0, 100))
        sim.run(3)
        down = fleet.deployment("B", "DC1").pool
        up = fleet.deployment("B", "DC2").pool
        assert all(s.state is ServerState.OFFLINE_FAILED for s in down.servers)
        assert down.online_count == 0
        assert up.online_count == 4

    def test_working_set_flushed_after_run(self):
        """Leak accounting lands back on the Server objects post-run."""
        from repro.cluster.deployment import leaky_version

        fleet = build_single_pool_fleet(
            "B", n_datacenters=1, servers_per_deployment=2, seed=3
        )
        sim = Simulator(
            fleet, seed=3,
            config=SimulationConfig(apply_availability_policies=False),
        )
        sim.set_version("B", leaky_version(mb_per_window=4.0))
        baseline = fleet.deployment("B", "DC1").pool.servers[0].working_set_mb
        sim.run(10)
        grown = fleet.deployment("B", "DC1").pool.servers[0].working_set_mb
        assert grown == pytest.approx(baseline + 40.0)

    def test_surge_multiplies_demand(self, small_sim):
        small_sim.add_surge(TrafficSurge("DC2", 0, 10, factor=4.0, pool_id="B"))
        surged = small_sim.offered_demand(5)[("B", "DC2")]
        base = small_sim.fleet.deployment("B", "DC2").pattern.demand_at(5)
        assert surged == pytest.approx(4.0 * base)

    def test_unknown_dc_event_rejected(self, small_sim):
        with pytest.raises(KeyError):
            small_sim.add_outage(DatacenterOutage("DC99", 0, 5))
        with pytest.raises(KeyError):
            small_sim.add_surge(TrafficSurge("DC99", 0, 5, factor=2.0))


class TestAvailabilityPolicies:
    def test_policies_reduce_availability(self):
        fleet = build_single_pool_fleet("B", servers_per_deployment=10, seed=7)
        sim = Simulator(fleet, seed=7)  # policies on; pool B repurposes
        sim.run(720)
        availability = sim.store.all_values(Counter.AVAILABILITY.value)
        assert availability.mean() < 0.9

    def test_policy_override(self):
        from repro.cluster.faults import AlwaysOnline

        fleet = build_single_pool_fleet("B", servers_per_deployment=10, seed=7)
        sim = Simulator(fleet, seed=7)
        sim.set_availability_policy("B", "DC1", AlwaysOnline())
        sim.run(100)
        availability = sim.store.all_values(Counter.AVAILABILITY.value)
        assert availability.mean() == 1.0
