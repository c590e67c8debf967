"""Integration tests: the full methodology, end to end.

Each test walks more than one module boundary: simulate -> telemetry ->
validate -> group -> fit -> plan -> verify against the simulator's
ground truth (which the planner never saw).
"""

import numpy as np
import pytest

from repro.cluster.builders import build_single_pool_fleet
from repro.cluster.service import service_catalog
from repro.cluster.simulation import SimulationConfig, Simulator
from repro.core.curves import fit_pool_response
from repro.core.headroom import HeadroomPlanner
from repro.core.metric_validation import MetricValidator
from repro.core.slo import QoSRequirement
from repro.telemetry.counters import Counter


class TestBlackBoxDiscipline:
    """The planner recovers ground truth it was never shown."""

    def test_cpu_cost_recovered_from_telemetry(self, pool_b_store):
        model, _ = fit_pool_response(pool_b_store, "B", "DC1")
        truth = service_catalog()["B"].cpu_cost_per_rps()
        assert model.model.slope == pytest.approx(truth, rel=0.05)

    def test_idle_cpu_recovered(self, pool_b_store):
        model, _ = fit_pool_response(pool_b_store, "B", "DC1")
        truth = service_catalog()["B"].noise.idle_cpu_pct
        assert model.model.intercept == pytest.approx(truth, abs=0.5)

    def test_latency_floor_recovered(self, pool_b_store):
        _, qos = fit_pool_response(pool_b_store, "B", "DC1")
        profile = service_catalog()["B"]
        # Forecast at a moderate load point vs ground truth.
        rps = 300.0
        util = (profile.noise.idle_cpu_pct + profile.cpu_cost_per_rps() * rps) / 100
        truth = profile.latency.p95_ms(rps, util)
        assert qos.forecast_latency(rps) == pytest.approx(truth, rel=0.05)


class TestPlanThenVerify:
    """Apply a plan to the simulator and check QoS still holds."""

    @pytest.fixture(scope="class")
    def planned_world(self):
        fleet = build_single_pool_fleet(
            "B", n_datacenters=2, servers_per_deployment=24, seed=81
        )
        sim = Simulator(
            fleet, seed=81,
            config=SimulationConfig(apply_availability_policies=False),
        )
        sim.run(1440)
        qos = QoSRequirement(latency_p95_ms=36.0)
        planner = HeadroomPlanner(sim.store, survive_dc_loss=False)
        plan = planner.plan_pool("B", qos)
        return sim, plan, qos

    def test_plan_saves_capacity(self, planned_world):
        _sim, plan, _qos = planned_world
        assert plan.efficiency_savings > 0.15

    def test_qos_holds_after_applying_plan(self, planned_world):
        sim, plan, qos = planned_world
        for deployment_plan in plan.deployments:
            sim.resize_pool(
                "B", deployment_plan.datacenter_id, deployment_plan.planned_servers
            )
        start = sim.current_window
        sim.run(720)  # one full day at the reduced size
        for deployment_plan in plan.deployments:
            latency = sim.store.pool_window_aggregate(
                "B", Counter.LATENCY_P95.value,
                datacenter_id=deployment_plan.datacenter_id,
                start=start,
            )
            p95_of_means = latency.percentile(95)
            assert p95_of_means <= qos.latency_p95_ms * 1.05, (
                f"{deployment_plan.datacenter_id}: {p95_of_means:.1f} ms "
                f"exceeds SLO {qos.latency_p95_ms}"
            )

    def test_validation_still_passes_after_reduction(self, planned_world):
        sim, _plan, _qos = planned_world
        report = MetricValidator(sim.store).validate("B", "DC1")
        assert report.status.is_valid


class TestFailureInjection:
    """Unplanned failures must not corrupt planning inputs."""

    def test_random_failures_do_not_break_fits(self):
        from repro.cluster.faults import RandomFailures

        fleet = build_single_pool_fleet(
            "B", n_datacenters=1, servers_per_deployment=20, seed=83
        )
        sim = Simulator(
            fleet, seed=83,
            config=SimulationConfig(
                apply_availability_policies=False,
                random_failures=RandomFailures(daily_probability=0.1, seed=83),
            ),
        )
        sim.run(1440)
        resource, qos = fit_pool_response(sim.store, "B", "DC1")
        truth = service_catalog()["B"].cpu_cost_per_rps()
        assert resource.model.slope == pytest.approx(truth, rel=0.1)
        assert qos.model.coefficients[0] > 0

    def test_availability_counter_reflects_failures(self):
        from repro.cluster.faults import RandomFailures

        fleet = build_single_pool_fleet(
            "B", n_datacenters=1, servers_per_deployment=20, seed=85
        )
        sim = Simulator(
            fleet, seed=85,
            config=SimulationConfig(
                apply_availability_policies=False,
                random_failures=RandomFailures(daily_probability=0.5, seed=85),
            ),
        )
        sim.run(720)
        availability = np.concatenate(list(
            sim.store.per_server_values("B", Counter.AVAILABILITY.value).values()
        ))
        assert 0.9 < availability.mean() < 1.0


class TestPublicApi:
    def test_quickstart_docstring_flow(self):
        # The flow shown in repro.__doc__, at toy scale, with its imports.
        from repro.cluster.builders import PAPER_DATACENTERS, build_paper_fleet
        from repro.cluster.simulation import Simulator
        from repro.core.planner import CapacityPlanner
        from repro.core.slo import QoSRequirement

        fleet = build_paper_fleet(
            servers_per_deployment=3,
            datacenters=PAPER_DATACENTERS[:2],
            pools=["B", "D"],
            seed=7,
        )
        simulator = Simulator(fleet, seed=7)
        simulator.run_days(1)
        qos = {p: QoSRequirement(latency_p95_ms=60.0) for p in fleet.pool_ids}
        plan = CapacityPlanner(simulator.store, qos, survive_dc_loss=False).plan()
        table = plan.render_savings_table()
        assert "Server Pool" in table
