"""Step 2 — Response Surface Methodology (§II-B2, Fig 7).

RSM iterates two moves:

1. **Model** — fit the latency-vs-server-count response (Eq. 1) on all
   data collected so far, within each total-load partition;
2. **Extrapolate** — follow the fitted gradient to the next candidate
   server count, run a supervised production experiment there for
   about a week, and repeat.

Iterations stop when the *forecast* latency at the next reduction step
would break the QoS limit (Fig 7's 14 ms line), or when a measurement
already did — in which case the optimizer rolls back, exactly as the
paper's "manually supervised" operators would restore capacity.

The optimizer is black-box: experiments happen behind the
:class:`ExperimentRunner` protocol, and all read-outs come from the
metric store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Tuple

import numpy as np

from repro.core.curves import ServersQoSModel, fit_servers_qos_model
from repro.core.partitions import (
    LoadPartition,
    partition_by_total_load,
    partition_observations,
)
from repro.core.slo import QoSRequirement
from repro.telemetry.counters import Counter
from repro.telemetry.store import MetricStore


class ExperimentRunner(Protocol):
    """Something that can change a pool's size and let time pass.

    In this repo the runner wraps the simulator; against a real fleet
    it would file a capacity change and wait.  ``run_reduction``
    returns the [start, stop) window range covering the experiment.
    """

    def run_reduction(
        self,
        pool_id: str,
        datacenter_id: str,
        n_servers: int,
        duration_windows: int,
    ) -> Tuple[int, int]:
        ...


@dataclass(frozen=True)
class RsmIteration:
    """One model/extrapolate cycle."""

    iteration: int
    n_servers: int
    measured_latency_p95_ms: float
    forecast_next_latency_ms: Optional[float]
    next_n_servers: Optional[int]
    qos_violated: bool

    def describe(self) -> str:
        parts = [
            f"iter {self.iteration}: n = {self.n_servers}, "
            f"measured p95 = {self.measured_latency_p95_ms:.1f} ms"
        ]
        if self.forecast_next_latency_ms is not None:
            parts.append(
                f"forecast @ n = {self.next_n_servers}: "
                f"{self.forecast_next_latency_ms:.1f} ms"
            )
        if self.qos_violated:
            parts.append("QoS limit hit")
        return "; ".join(parts)


@dataclass(frozen=True)
class RsmResult:
    """Outcome of the full RSM loop."""

    pool_id: str
    datacenter_id: str
    initial_servers: int
    recommended_servers: int
    iterations: Tuple[RsmIteration, ...]
    partition_models: Tuple[ServersQoSModel, ...]
    qos: QoSRequirement

    @property
    def reduction_fraction(self) -> float:
        return 1.0 - self.recommended_servers / self.initial_servers

    def describe(self) -> str:
        lines = [
            f"RSM for pool {self.pool_id} @ {self.datacenter_id}: "
            f"{self.initial_servers} -> {self.recommended_servers} servers "
            f"({self.reduction_fraction:.0%} reduction) "
            f"within p95 <= {self.qos.latency_p95_ms:g} ms"
        ]
        lines.extend("  " + it.describe() for it in self.iterations)
        return "\n".join(lines)


class ResponseSurfaceOptimizer:
    """Iterative server-reduction search under a QoS limit."""

    def __init__(
        self,
        store: MetricStore,
        pool_id: str,
        datacenter_id: str,
        qos: QoSRequirement,
        runner: ExperimentRunner,
        iteration_windows: int = 300,
        reduction_step: float = 0.1,
        n_partitions: int = 4,
        min_servers: int = 2,
        max_iterations: int = 8,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0.0 < reduction_step < 0.5:
            raise ValueError("reduction_step must be in (0, 0.5)")
        if iteration_windows < 20:
            raise ValueError("iteration_windows must be >= 20")
        self.store = store
        self.pool_id = pool_id
        self.datacenter_id = datacenter_id
        self.qos = qos
        self.runner = runner
        self.iteration_windows = iteration_windows
        self.reduction_step = reduction_step
        self.n_partitions = n_partitions
        self.min_servers = min_servers
        self.max_iterations = max_iterations
        self._rng = rng if rng is not None else np.random.default_rng(0)

    # ------------------------------------------------------------------
    def _fit_partition_models(self) -> List[ServersQoSModel]:
        """Fit Eq. 1 in every usable total-load partition (all history)."""
        total = self.store.pool_window_aggregate(
            self.pool_id,
            Counter.REQUESTS.value,
            datacenter_id=self.datacenter_id,
            reducer="sum",
        )
        partitions = partition_by_total_load(total, self.n_partitions)
        models: List[ServersQoSModel] = []
        for partition in partitions:
            ns, ls = partition_observations(
                self.store, self.pool_id, self.datacenter_id, partition
            )
            if ns.size < 6 or np.unique(ns).size < 2:
                continue
            try:
                models.append(
                    fit_servers_qos_model(
                        ns, ls, self.pool_id, self.datacenter_id,
                        partition.index, rng=self._rng,
                    )
                )
            except ValueError:
                continue
        return models

    def _measured_latency(self, start: int, stop: int) -> float:
        series = self.store.pool_window_aggregate(
            self.pool_id,
            Counter.LATENCY_P95.value,
            datacenter_id=self.datacenter_id,
            start=start,
            stop=stop,
        )
        if series.is_empty:
            raise ValueError("experiment produced no latency telemetry")
        return series.mean()

    def _forecast_at(self, models: List[ServersQoSModel], n: int) -> Optional[float]:
        """Worst-case (max) latency forecast across partition models.

        The heaviest-load partition binds, but deployments and shifts
        can make any partition the binding one — taking the max errs on
        the side of over-allocating, per the paper's stated bias.
        """
        if not models:
            return None
        return max(model.forecast_latency(n) for model in models)

    # ------------------------------------------------------------------
    def optimize(self, initial_servers: int) -> RsmResult:
        """Run the RSM loop from an initial pool size."""
        if initial_servers < self.min_servers:
            raise ValueError("initial_servers below min_servers")
        n = initial_servers
        last_good = initial_servers
        iterations: List[RsmIteration] = []
        models: List[ServersQoSModel] = []

        for iteration in range(self.max_iterations):
            start, stop = self.runner.run_reduction(
                self.pool_id, self.datacenter_id, n, self.iteration_windows
            )
            measured = self._measured_latency(start, stop)
            violated = measured > self.qos.latency_p95_ms
            models = self._fit_partition_models()

            if violated:
                iterations.append(
                    RsmIteration(
                        iteration=iteration,
                        n_servers=n,
                        measured_latency_p95_ms=measured,
                        forecast_next_latency_ms=None,
                        next_n_servers=None,
                        qos_violated=True,
                    )
                )
                # Operators restore capacity immediately (§II-B2).
                self.runner.run_reduction(
                    self.pool_id, self.datacenter_id, last_good,
                    max(self.iteration_windows // 4, 20),
                )
                n = last_good
                break

            last_good = n
            next_n = max(int(np.floor(n * (1.0 - self.reduction_step))), self.min_servers)
            if next_n >= n:
                iterations.append(
                    RsmIteration(
                        iteration=iteration,
                        n_servers=n,
                        measured_latency_p95_ms=measured,
                        forecast_next_latency_ms=None,
                        next_n_servers=None,
                        qos_violated=False,
                    )
                )
                break
            forecast = self._forecast_at(models, next_n)
            iterations.append(
                RsmIteration(
                    iteration=iteration,
                    n_servers=n,
                    measured_latency_p95_ms=measured,
                    forecast_next_latency_ms=forecast,
                    next_n_servers=next_n,
                    qos_violated=False,
                )
            )
            if forecast is not None and forecast > self.qos.latency_p95_ms:
                # The model predicts the next step breaks QoS: stop here.
                break
            n = next_n

        return RsmResult(
            pool_id=self.pool_id,
            datacenter_id=self.datacenter_id,
            initial_servers=initial_servers,
            recommended_servers=last_good,
            iterations=tuple(iterations),
            partition_models=tuple(models),
            qos=self.qos,
        )
