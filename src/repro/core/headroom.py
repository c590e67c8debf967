"""Step 2 — right-sizing pool headroom.

Converts the fitted QoS curve into the minimal per-datacenter server
allocation that (a) serves the observed demand within the latency SLO,
(b) keeps a configurable safety margin, and (c) still survives the
loss of any single datacenter with the survivors absorbing the failed
region's traffic — the disaster-recovery headroom the paper insists
must be preserved ("effectively no impact on ... the capacity required
for disaster recovery", §Abstract).

The planner is black-box: demand, response curves and current pool
sizes all come from telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.curves import WorkloadQoSModel, fit_qos_model
from repro.core.slo import QoSRequirement
from repro.telemetry.counters import Counter
from repro.telemetry.store import MetricStore


@dataclass(frozen=True)
class DeploymentPlan:
    """Right-sized allocation for one pool in one datacenter.

    ``planned_servers`` is capped at the current allocation: this
    planner right-sizes *headroom* (Table IV reports savings, never
    growth).  A deployment whose ``required_normal`` exceeds
    ``current_servers`` is under-provisioned — visible in the fields;
    sizing the expansion is left to the operator.
    """

    pool_id: str
    datacenter_id: str
    current_servers: int
    required_normal: int
    required_with_dr: int
    peak_demand_rps: float
    max_rps_per_server: float

    @property
    def planned_servers(self) -> int:
        return self.required_with_dr

    @property
    def savings_servers(self) -> int:
        return max(self.current_servers - self.planned_servers, 0)


@dataclass(frozen=True)
class HeadroomPlan:
    """Right-sizing outcome for one pool across all datacenters."""

    pool_id: str
    deployments: Tuple[DeploymentPlan, ...]
    latency_impact_ms: float
    qos: QoSRequirement
    binding_scenario: str

    @property
    def current_servers(self) -> int:
        return sum(d.current_servers for d in self.deployments)

    @property
    def planned_servers(self) -> int:
        return sum(d.planned_servers for d in self.deployments)

    @property
    def efficiency_savings(self) -> float:
        """Fraction of the pool's servers the plan releases."""
        if self.current_servers == 0:
            return 0.0
        return 1.0 - self.planned_servers / self.current_servers

    def describe(self) -> str:
        return (
            f"pool {self.pool_id}: {self.current_servers} -> "
            f"{self.planned_servers} servers "
            f"({self.efficiency_savings:.0%} savings, "
            f"+{self.latency_impact_ms:.1f} ms at peak, "
            f"binding scenario: {self.binding_scenario})"
        )


class HeadroomPlanner:
    """Right-size every deployment of a pool from telemetry alone."""

    def __init__(
        self,
        store: MetricStore,
        safety_margin: float = 0.9,
        survive_dc_loss: bool = True,
        demand_percentile: float = 99.5,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0.0 < safety_margin <= 1.0:
            raise ValueError("safety_margin must be in (0, 1]")
        if not 50.0 <= demand_percentile <= 100.0:
            raise ValueError("demand_percentile must be in [50, 100]")
        self.store = store
        self.safety_margin = safety_margin
        self.survive_dc_loss = survive_dc_loss
        self.demand_percentile = demand_percentile
        self._rng = rng if rng is not None else np.random.default_rng(0)

    # ------------------------------------------------------------------
    def _demand_series(self, pool_id: str, datacenter_id: str) -> np.ndarray:
        series = self.store.pool_window_aggregate(
            pool_id,
            Counter.REQUESTS.value,
            datacenter_id=datacenter_id,
            reducer="sum",
        )
        return series.values

    def _max_rps_per_server(
        self, pool_id: str, datacenter_id: str, qos: QoSRequirement
    ) -> Tuple[float, WorkloadQoSModel]:
        model = fit_qos_model(
            self.store, pool_id, datacenter_id=datacenter_id, rng=self._rng
        )
        max_rps = model.max_rps_within(qos.latency_p95_ms) * self.safety_margin
        return max_rps, model

    @staticmethod
    def _required(demand: np.ndarray, max_rps: float, percentile: float) -> int:
        if demand.size == 0:
            return 1
        peak = float(np.percentile(demand, percentile))
        return max(int(np.ceil(peak / max_rps)), 1)

    # ------------------------------------------------------------------
    def plan_pool(self, pool_id: str, qos: QoSRequirement) -> HeadroomPlan:
        """Compute the right-sized allocation for one pool."""
        datacenters = self.store.datacenters_for_pool(pool_id)
        if not datacenters:
            raise KeyError(f"pool {pool_id!r} has no telemetry")

        demands: Dict[str, np.ndarray] = {}
        max_rps: Dict[str, float] = {}
        models: Dict[str, WorkloadQoSModel] = {}
        current: Dict[str, int] = {}
        for dc in datacenters:
            demands[dc] = self._demand_series(pool_id, dc)
            rate, model = self._max_rps_per_server(pool_id, dc, qos)
            max_rps[dc] = rate
            models[dc] = model
            current[dc] = len(self.store.servers_in_pool(pool_id, dc))

        # Normal-operation requirement per datacenter.
        required_normal = {
            dc: self._required(demands[dc], max_rps[dc], self.demand_percentile)
            for dc in datacenters
        }

        # Disaster-recovery requirement: for every single-DC loss the
        # survivors absorb the failed DC's traffic proportionally.
        required_dr = dict(required_normal)
        binding = "normal operation"
        if self.survive_dc_loss and len(datacenters) > 1:
            # Align demand arrays to a common length (simulations keep
            # them aligned; defensive truncation otherwise).
            min_len = min(d.size for d in demands.values())
            aligned = {dc: demands[dc][:min_len] for dc in datacenters}
            for failed in datacenters:
                survivors = [dc for dc in datacenters if dc != failed]
                survivor_total = np.zeros(min_len)
                for dc in survivors:
                    survivor_total += aligned[dc]
                with np.errstate(divide="ignore", invalid="ignore"):
                    for dc in survivors:
                        share = np.where(
                            survivor_total > 0,
                            aligned[dc] / survivor_total,
                            1.0 / len(survivors),
                        )
                        scenario_demand = aligned[dc] + share * aligned[failed]
                        needed = self._required(
                            scenario_demand, max_rps[dc], self.demand_percentile
                        )
                        if needed > required_dr[dc]:
                            required_dr[dc] = needed
                            binding = f"loss of {failed}"

        deployments: List[DeploymentPlan] = []
        latency_impacts: List[float] = []
        for dc in datacenters:
            demand = demands[dc]
            peak = float(np.percentile(demand, self.demand_percentile)) if demand.size else 0.0
            plan = DeploymentPlan(
                pool_id=pool_id,
                datacenter_id=dc,
                current_servers=current[dc],
                required_normal=required_normal[dc],
                required_with_dr=min(required_dr[dc], max(current[dc], 1)),
                peak_demand_rps=peak,
                max_rps_per_server=max_rps[dc],
            )
            deployments.append(plan)
            if current[dc] > 0 and plan.planned_servers > 0:
                before = models[dc].forecast_latency(peak / current[dc])
                after = models[dc].forecast_latency(peak / plan.planned_servers)
                latency_impacts.append(after - before)

        impact = float(max(latency_impacts)) if latency_impacts else 0.0
        return HeadroomPlan(
            pool_id=pool_id,
            deployments=tuple(deployments),
            latency_impact_ms=max(impact, 0.0),
            qos=qos,
            binding_scenario=binding,
        )

    def plan_all(
        self, qos_by_pool: Dict[str, QoSRequirement]
    ) -> Dict[str, HeadroomPlan]:
        """Plan every pool that has both telemetry and a QoS contract."""
        plans: Dict[str, HeadroomPlan] = {}
        for pool_id in self.store.pools:
            if pool_id not in qos_by_pool:
                continue
            plans[pool_id] = self.plan_pool(pool_id, qos_by_pool[pool_id])
        return plans
