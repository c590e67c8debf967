"""Discrete-time fleet simulation engine (columnar hot path).

Advances the fleet in blocks of telemetry windows (one window = 120 s):

1. compute each deployment's offered demand from its diurnal pattern,
   multiplicative noise, active surges, and outage-driven failover —
   one (windows x deployments) tensor per block;
2. apply availability policies, random failures and outages to decide
   which servers are online — one boolean (windows x servers) grid per
   pool;
3. route traffic evenly across online servers and emit each counter for
   every online (window, server) cell of a pool as one NumPy array
   (:func:`repro.cluster.server.observe_pool_block`), which the store
   ingests with one ``record_columns`` call per counter.

There is one emission path.  :attr:`SimulationConfig.block_windows`
sets how many windows advance per block: 1 (the default) emits window
by window; larger blocks amortize the per-block Python and RNG-call
overhead that dominates small fleets.  Every block size yields
identical availability masks and sample counts; noisy counters are
drawn from the same distributions but in block-sized RNG calls, so
their values are bit-reproducible per (seed, block size) and
statistically equivalent across block sizes.

The store may be a single :class:`~repro.telemetry.store.MetricStore`
or a :class:`~repro.telemetry.sharding.ShardedMetricStore`; the
simulator only uses the shared ingest/interning surface, and sharded
telemetry is bit-identical to single-store telemetry either way.

Interventions — resizing pools, deploying software versions, injecting
outages and surges — are the experimental controls of §II-B and §II-D.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.datacenter import Fleet, PoolDeployment
from repro.cluster.deployment import SoftwareVersion
from repro.cluster.faults import (
    AvailabilityPolicy,
    DatacenterOutage,
    RandomFailures,
    RepurposingPolicy,
    TrafficSurge,
    policy_for_availability,
    policy_online_mask_block,
)
from repro.cluster.server import ServerState, observe_pool_block
from repro.telemetry.counters import Counter, workload_counter
from repro.telemetry.sharding import ShardedMetricStore
from repro.telemetry.store import MetricStore
from repro.workload.demand_engine import DemandEngine

#: Anything the simulator can ingest into: a single store or a shard set.
StoreLike = Union[MetricStore, ShardedMetricStore]

#: Counters recorded by default — the planner's working set.
DEFAULT_COUNTERS: Tuple[str, ...] = (
    Counter.REQUESTS.value,
    Counter.PROCESSOR_UTILIZATION.value,
    Counter.LATENCY_P95.value,
    Counter.AVAILABILITY.value,
)


@dataclass
class SimulationConfig:
    """Knobs of the simulation engine."""

    #: Which counters to persist (None = all emitted counters).
    counters: Optional[Tuple[str, ...]] = DEFAULT_COUNTERS
    #: Also persist the per-request-class workload counters
    #: ("Requests/sec[...]"), which metric validation needs to split a
    #: noisy aggregate metric (§II-A1).  Their names are per-service,
    #: so they cannot be listed statically in ``counters``.
    record_request_classes: bool = False
    #: Coefficient of variation of per-window demand noise.
    workload_noise: float = 0.04
    #: Enable rare random server crashes.
    random_failures: Optional[RandomFailures] = None
    #: Apply each profile's availability_mean as a policy (True for
    #: fleet studies; False for controlled reduction experiments).
    apply_availability_policies: bool = True
    #: Windows advanced per block: :meth:`Simulator.run` emits one
    #: (windows x servers) block per counter per deployment.  1 (the
    #: default) emits window by window.
    block_windows: int = 1

    def __post_init__(self) -> None:
        if self.block_windows < 1:
            raise ValueError("block_windows must be >= 1")


class Simulator:
    """Drives a :class:`~repro.cluster.datacenter.Fleet` through time.

    ``store`` may be a :class:`~repro.telemetry.store.MetricStore`
    (default) or a :class:`~repro.telemetry.sharding.ShardedMetricStore`
    — telemetry recorded through either is bit-identical.
    """

    def __init__(
        self,
        fleet: Fleet,
        store: Optional[StoreLike] = None,
        seed: int = 0,
        config: Optional[SimulationConfig] = None,
    ) -> None:
        self.fleet = fleet
        self.store = store if store is not None else MetricStore()
        self.config = config if config is not None else SimulationConfig()
        self._rng = np.random.default_rng(seed)
        self._window = 0
        self._outages: List[DatacenterOutage] = []
        self._surges: List[TrafficSurge] = []
        self._policies: Dict[Tuple[str, str], AvailabilityPolicy] = {}
        #: Per-deployment cache of interned store index arrays, keyed by
        #: the identity of the pool's server-id tuple so pool resizes
        #: re-intern automatically.
        self._index_cache: Dict[
            Tuple[str, str], Tuple[Tuple[str, ...], np.ndarray]
        ] = {}
        #: Columnar demand engine: holds references to the (growing)
        #: outage/surge lists, so events added mid-run are picked up.
        self._demand_engine = DemandEngine(fleet, self._outages, self._surges)
        #: Per-deployment cache of the emission counter set passed to
        #: the observe functions (None = emit everything).
        self._emit_cache: Dict[Tuple[str, str], Tuple[tuple, FrozenSet[str]]] = {}
        #: Cumulative seconds per stage (demand tensor build / counter
        #: emission / store ingest).
        self.stage_seconds: Dict[str, float] = {
            "demand": 0.0, "observe": 0.0, "ingest": 0.0,
        }
        if self.config.apply_availability_policies:
            for deployment in fleet.deployments():
                policy = policy_for_availability(
                    deployment.pool.profile.availability_mean
                )
                if isinstance(policy, RepurposingPolicy):
                    # Repurposing happens during the *local* nightly
                    # trough; shift the window by the region's timezone.
                    local_night = (
                        policy.night_start_hour
                        - deployment.datacenter.timezone_offset_hours
                    ) % 24.0
                    policy = replace(policy, night_start_hour=local_night)
                self._policies[(deployment.pool_id, deployment.datacenter_id)] = policy

    # ------------------------------------------------------------------
    # Experimental controls
    # ------------------------------------------------------------------
    @property
    def current_window(self) -> int:
        """Next window to be simulated."""
        return self._window

    def add_outage(self, outage: DatacenterOutage) -> None:
        self.fleet.datacenter(outage.datacenter_id)  # validate id
        self._outages.append(outage)

    def add_surge(self, surge: TrafficSurge) -> None:
        self.fleet.datacenter(surge.datacenter_id)  # validate id
        self._surges.append(surge)

    def set_availability_policy(
        self,
        pool_id: str,
        datacenter_id: str,
        policy: Optional[AvailabilityPolicy],
    ) -> None:
        """Override (or with None, remove) a deployment's policy."""
        self.fleet.deployment(pool_id, datacenter_id)  # validate
        key = (pool_id, datacenter_id)
        if policy is None:
            self._policies.pop(key, None)
        else:
            self._policies[key] = policy

    def resize_pool(self, pool_id: str, datacenter_id: str, n_servers: int) -> None:
        """Change a deployment's server count (the §II-B2 control)."""
        deployment = self.fleet.deployment(pool_id, datacenter_id)
        deployment.pool.resize(n_servers, self._rng)

    def set_version(
        self,
        pool_id: str,
        version: SoftwareVersion,
        datacenter_id: Optional[str] = None,
    ) -> None:
        """Deploy a software version pool-wide or to one datacenter."""
        deployments = (
            [self.fleet.deployment(pool_id, datacenter_id)]
            if datacenter_id is not None
            else self.fleet.deployments_of_pool(pool_id)
        )
        if not deployments:
            raise KeyError(f"pool {pool_id!r} has no deployments")
        for deployment in deployments:
            deployment.pool.set_version(version)

    # ------------------------------------------------------------------
    # Demand
    # ------------------------------------------------------------------
    def _outage_active(self, datacenter_id: str, window: int) -> bool:
        return self._demand_engine.outage_active(datacenter_id, window)

    def offered_demand(self, window: int) -> Dict[Tuple[str, str], float]:
        """Noise-free demand per (pool, datacenter) after failover.

        Base diurnal demand, scaled by surges, with failed datacenters'
        demand redistributed proportionally over survivors of the same
        pool: the one-window slice of the columnar
        :meth:`~repro.workload.demand_engine.DemandEngine.compute_demand_block`
        the simulator itself steps through.
        """
        block = self._demand_engine.compute_demand_block(
            np.array([window], dtype=np.int64)
        )
        return block.row_dict(0)

    # ------------------------------------------------------------------
    # Server state
    # ------------------------------------------------------------------
    def _update_server_states(self, deployment: PoolDeployment, window: int) -> None:
        """Write one window's online-ness onto the ``Server`` objects."""
        pool = deployment.pool
        key = (deployment.pool_id, deployment.datacenter_id)
        policy = self._policies.get(key)
        outage = self._outage_active(deployment.datacenter_id, window)
        failures = self.config.random_failures
        n = pool.size
        for index, server in enumerate(pool.servers):
            if outage:
                server.state = ServerState.OFFLINE_FAILED
            elif failures is not None and failures.is_failed(index, window):
                server.state = ServerState.OFFLINE_FAILED
            elif policy is not None and not policy.is_online(index, n, window):
                server.state = ServerState.OFFLINE_MAINTENANCE
            else:
                server.state = ServerState.ONLINE

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _emit_counters(self, deployment: PoolDeployment) -> Optional[FrozenSet[str]]:
        """The counter set ``observe_pool_block`` should emit (None = all).

        The config's wanted counters plus, when request classes are
        recorded, the deployment's per-class workload counters.  Cached
        per deployment and revalidated against the config so mid-run
        config edits take effect.
        """
        config = self.config
        if not config.counters:
            return None
        key = (deployment.pool_id, deployment.datacenter_id)
        marker = (config.counters, config.record_request_classes)
        entry = self._emit_cache.get(key)
        if entry is not None and entry[0] == marker:
            return entry[1]
        wanted = set(config.counters)
        if config.record_request_classes:
            wanted.update(
                workload_counter(name) for name in deployment.mix.class_names
            )
        result = frozenset(wanted)
        self._emit_cache[key] = (marker, result)
        return result

    def _store_indices(
        self, deployment: PoolDeployment, server_ids: Tuple[str, ...]
    ) -> np.ndarray:
        key = (deployment.pool_id, deployment.datacenter_id)
        entry = self._index_cache.get(key)
        if entry is not None and entry[0] is server_ids:
            return entry[1]
        indices = self.store.intern_servers(server_ids)
        self._index_cache[key] = (server_ids, indices)
        return indices

    def _online_mask_block(
        self, deployment: PoolDeployment, windows: np.ndarray
    ) -> np.ndarray:
        """(n_windows, n_servers) online grid.

        A server serves traffic iff its datacenter is up, it has not
        randomly crashed, and its availability policy keeps it online
        (the same rule :meth:`_update_server_states` applies per
        server).  Fully vectorized: policy grid, random-failure grid
        (one cached day-draw lookup per distinct day) and per-window
        outage rows.
        """
        n = deployment.pool.size
        policy = self._policies.get((deployment.pool_id, deployment.datacenter_id))
        if policy is not None:
            mask = policy_online_mask_block(policy, n, windows)
        else:
            mask = np.ones((windows.size, n), dtype=bool)
        failures = self.config.random_failures
        if failures is not None:
            mask &= ~failures.failed_mask_block(n, windows)
        out = self._demand_engine.outage_mask_block(
            deployment.datacenter_id, windows
        )
        if out.any():
            mask[out] = False
        return mask

    def _step_deployment_block(
        self,
        deployment: PoolDeployment,
        windows: np.ndarray,
        base_demand: np.ndarray,
    ) -> None:
        """Advance one deployment a whole block of windows at once.

        Consumes one column of the block demand tensor: noisy totals,
        then the ``(n_windows, n_classes)`` share matrix from
        :meth:`~repro.workload.request_mix.RequestMix.shares_block`
        (one jitter draw for the whole block), divided by the online
        counts — the load balancer's even split; a window with no
        online server drops its traffic — into the per-server RPS
        matrix :func:`~repro.cluster.server.observe_pool_block` takes.
        """
        pool = deployment.pool
        pool_id = deployment.pool_id
        dc_id = deployment.datacenter_id
        n_windows = int(windows.size)
        stage = self.stage_seconds
        t_start = perf_counter()

        # Noisy demand per window.  Draws are skipped for windows with
        # zero demand (or zero noise).
        noise = self.config.workload_noise
        totals = np.array(base_demand, dtype=float)
        if noise > 0:
            active = totals > 0
            n_active = int(active.sum())
            if n_active:
                sigma = np.sqrt(np.log1p(noise**2))
                totals[active] *= self._rng.lognormal(
                    -0.5 * sigma**2, sigma, size=n_active
                )
        mix = deployment.mix
        volumes = totals[:, None] * mix.shares_block(windows, self._rng)
        t_demand = perf_counter()

        mask_block = self._online_mask_block(deployment, windows)
        counts = mask_block.sum(axis=1)
        per_server_rps = np.zeros_like(volumes)
        np.divide(
            volumes, counts[:, None], out=per_server_rps,
            where=counts[:, None] > 0,
        )

        arrays = pool.server_arrays()
        emit = self._emit_counters(deployment)
        flat_windows, flat_positions, observations = observe_pool_block(
            pool.profile, arrays, mask_block, windows,
            mix.class_names, per_server_rps, self._rng, emit,
        )
        t_observe = perf_counter()

        store = self.store
        indices = self._store_indices(deployment, arrays.server_ids)
        availability = Counter.AVAILABILITY.value
        if emit is None or availability in emit:
            store.record_columns(
                pool_id,
                dc_id,
                availability,
                np.repeat(windows, pool.size),
                np.tile(indices, n_windows),
                mask_block.astype(float).ravel(),
            )
        if flat_windows.size:
            flat_indices = indices[flat_positions]
            # observe_pool_block emitted only the wanted counters.
            for counter, values in observations.items():
                store.record_columns(
                    pool_id, dc_id, counter, flat_windows, flat_indices, values
                )
        t_ingest = perf_counter()
        stage["demand"] += t_demand - t_start
        stage["observe"] += t_observe - t_demand
        stage["ingest"] += t_ingest - t_observe

    def _step_block(self, n_windows: int) -> None:
        """Simulate ``n_windows`` consecutive windows as one block."""
        windows = np.arange(
            self._window, self._window + n_windows, dtype=np.int64
        )
        t_start = perf_counter()
        block = self._demand_engine.compute_demand_block(windows)
        self.stage_seconds["demand"] += perf_counter() - t_start
        for deployment in self.fleet.deployments():
            self._step_deployment_block(
                deployment,
                windows,
                block.column(deployment.pool_id, deployment.datacenter_id),
            )
        self._window += n_windows

    def step(self) -> None:
        """Simulate one telemetry window (a block of one).

        Per-server ``Server.state`` / ``working_set_mb`` are *not*
        maintained window to window (that per-server loop is exactly
        the cost the columnar path removes); :meth:`run` reconciles
        them on completion.  Callers driving ``step()`` directly and
        reading pool state mid-run must call :meth:`sync_server_state`
        first — telemetry in the store is always correct either way.
        """
        self.run_block(1)

    def sync_server_state(self) -> None:
        """Write the columnar state back onto the Server objects.

        The hot path tracks online-ness as masks and working sets as
        cached arrays, leaving ``Server.state`` /
        ``Server.working_set_mb`` untouched window to window.  This
        reconciles them with the last simulated window for post-run
        introspection (``pool.online_servers()``, leak inspection).
        Called automatically at the end of :meth:`run`.
        """
        if self._window == 0:
            return
        last_window = self._window - 1
        for deployment in self.fleet.deployments():
            self._update_server_states(deployment, last_window)
            deployment.pool.flush_arrays()

    def run(self, n_windows: int) -> None:
        """Simulate ``n_windows`` consecutive windows.

        Advances in blocks of :attr:`SimulationConfig.block_windows`
        windows (the last block is truncated to the remaining windows).
        Per-server ``Server.state`` / ``working_set_mb`` are reconciled
        by :meth:`sync_server_state` on completion.
        """
        self.run_block(n_windows)
        self.sync_server_state()

    def run_block(self, n_windows: int) -> None:
        """Advance ``n_windows`` windows *without* the final state sync.

        The streaming driver's building block: repeated ``run_block``
        calls issue exactly the call sequence one big :meth:`run` of
        the total horizon would (same blocks, same RNG draws, same
        emission order), so a streamed simulation's telemetry is
        bit-identical to the batch run by construction.  Callers that
        read per-server ``Server.state`` afterwards must call
        :meth:`sync_server_state` themselves — :meth:`run` does both.
        """
        if n_windows < 0:
            raise ValueError("n_windows must be non-negative")
        block = self.config.block_windows
        remaining = n_windows
        while remaining > 0:
            step = min(block, remaining)
            self._step_block(step)
            remaining -= step

    def run_days(self, days: float) -> None:
        """Simulate a number of days (720 windows per day)."""
        from repro.workload.diurnal import WINDOWS_PER_DAY

        self.run(int(round(days * WINDOWS_PER_DAY)))
