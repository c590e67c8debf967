"""Unit tests for repro.cluster.pool and datacenter."""

import numpy as np
import pytest

from repro.cluster.datacenter import Datacenter, Fleet, PoolDeployment
from repro.cluster.deployment import SoftwareVersion
from repro.cluster.hardware import GENERATION_2014, GENERATION_2017
from repro.cluster.pool import ServerPool
from repro.cluster.service import service_catalog
from repro.cluster.simulation import SimulationConfig, Simulator
from repro.telemetry.counters import Counter
from repro.workload.diurnal import DiurnalPattern


@pytest.fixture()
def profile():
    return service_catalog()["B"]


@pytest.fixture()
def pool(profile, rng):
    return ServerPool.build(
        pool_id="B", datacenter_id="DC1", profile=profile,
        n_servers=10, hardware=GENERATION_2014, rng=rng,
    )


class TestBuild:
    def test_sizes(self, pool):
        assert pool.size == 10
        assert pool.online_count == 10

    def test_server_ids_unique(self, pool):
        ids = [s.server_id for s in pool.servers]
        assert len(set(ids)) == 10

    def test_zero_servers_rejected(self, profile, rng):
        with pytest.raises(ValueError):
            ServerPool.build("B", "DC1", profile, 0, GENERATION_2014, rng)

    def test_hardware_mix(self, profile, rng):
        pool = ServerPool.build(
            "B", "DC1", profile, 10, GENERATION_2014, rng,
            hardware_mix={GENERATION_2014: 0.6, GENERATION_2017: 0.4},
        )
        gens = [s.hardware.generation for s in pool.servers]
        assert gens.count("gen2014") == 6
        assert gens.count("gen2017") == 4

    def test_hardware_mix_must_sum_to_one(self, profile, rng):
        with pytest.raises(ValueError):
            ServerPool.build(
                "B", "DC1", profile, 10, GENERATION_2014, rng,
                hardware_mix={GENERATION_2014: 0.5},
            )


class TestResize:
    def test_shrink(self, pool, rng):
        pool.resize(6, rng)
        assert pool.size == 6

    def test_grow_clones_configuration(self, pool, rng):
        pool.set_version(SoftwareVersion(name="v9"))
        pool.resize(14, rng)
        assert pool.size == 14
        assert all(s.version.name == "v9" for s in pool.servers)

    def test_shrink_to_zero_rejected(self, pool, rng):
        with pytest.raises(ValueError):
            pool.resize(0, rng)


class _Offline:
    """Availability policy holding a fixed set of server indices offline."""

    def __init__(self, offline):
        self.offline = frozenset(offline)

    def is_online(self, server_index, n_servers, window):
        return server_index not in self.offline


def _route_one_window(pool, offline=()):
    """Window 0 of ``pool`` alone in a fleet, demand noise off.

    Returns the window's total demand and server_id -> recorded
    Requests/sec — the load balancer's split as the block path computes
    it — plus server_id -> recorded availability.
    """
    dc = Datacenter("DC1", "us-west", -8.0)
    fleet = Fleet([dc])
    fleet.add_deployment(
        PoolDeployment(pool=pool, datacenter=dc, pattern=DiurnalPattern(base_rps=1000.0))
    )
    sim = Simulator(
        fleet,
        config=SimulationConfig(workload_noise=0.0, apply_availability_policies=False),
    )
    sim.set_availability_policy("B", "DC1", _Offline(offline))
    total = sim.offered_demand(0)[("B", "DC1")]
    sim.step()
    rps = sim.store.per_server_values("B", Counter.REQUESTS.value)
    online = sim.store.per_server_values("B", Counter.AVAILABILITY.value)
    return total, rps, online


class TestRouting:
    def test_even_split(self, pool):
        total, rps, _ = _route_one_window(pool)
        assert len(rps) == 10
        for per_server in rps.values():
            assert per_server[0] == pytest.approx(total / 10)

    def test_offline_servers_excluded(self, pool):
        total, rps, _ = _route_one_window(pool, offline=[0])
        assert len(rps) == 9
        assert pool.servers[0].server_id not in rps
        for per_server in rps.values():
            assert per_server[0] == pytest.approx(total / 9)

    def test_no_online_servers_drops_traffic(self, pool):
        _, rps, online = _route_one_window(pool, offline=range(10))
        assert rps == {}
        assert all(value[0] == 0.0 for value in online.values())

    def test_step_reports_all_servers(self, pool):
        _, rps, online = _route_one_window(pool, offline=[0])
        assert len(online) == 10  # offline servers still report availability
        offline_id = pool.servers[0].server_id
        assert online[offline_id][0] == 0.0
        assert offline_id not in rps


class TestFleet:
    def test_topology_accessors(self, pool, profile):
        dc = Datacenter("DC1", "us-west", -8.0)
        fleet = Fleet([dc])
        deployment = PoolDeployment(
            pool=pool, datacenter=dc, pattern=DiurnalPattern(base_rps=100.0)
        )
        fleet.add_deployment(deployment)
        assert fleet.pool_ids == ("B",)
        assert fleet.total_servers() == 10
        assert fleet.servers_of_pool("B") == 10
        assert fleet.deployment("B", "DC1") is deployment
        assert list(fleet.deployments()) == [deployment]

    def test_duplicate_deployment_rejected(self, pool, profile):
        dc = Datacenter("DC1", "r", 0.0)
        fleet = Fleet([dc])
        deployment = PoolDeployment(
            pool=pool, datacenter=dc, pattern=DiurnalPattern(base_rps=100.0)
        )
        fleet.add_deployment(deployment)
        with pytest.raises(ValueError):
            fleet.add_deployment(deployment)

    def test_unknown_datacenter_rejected(self, pool):
        fleet = Fleet([Datacenter("DC1", "r", 0.0)])
        other = PoolDeployment(
            pool=pool,
            datacenter=Datacenter("DC9", "r", 0.0),
            pattern=DiurnalPattern(base_rps=100.0),
        )
        with pytest.raises(KeyError):
            fleet.add_deployment(other)

    def test_missing_deployment_lookup(self):
        fleet = Fleet([Datacenter("DC1", "r", 0.0)])
        with pytest.raises(KeyError):
            fleet.deployment("B", "DC1")

    def test_duplicate_datacenters_rejected(self):
        with pytest.raises(ValueError):
            Fleet([Datacenter("DC1", "r", 0.0), Datacenter("DC1", "r", 1.0)])

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            Fleet([])
