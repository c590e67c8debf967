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

Each (deployment, block) step is planned (demand, online grid, emit
set), then applied, its kernels drawing from the one generator.  With a
second CPU, consecutive steps of >= :data:`DRAW_AHEAD_CELLS` online
cells in one call are drawn ahead by schedule, each on a draw thread
while the step before it applies, and replayed: same calls, same bytes
(a call off schedule raises; on an error unapplied draws are undone).

The store may be a single :class:`~repro.telemetry.store.MetricStore`
or a :class:`~repro.telemetry.sharding.ShardedMetricStore`; the
simulator only uses the shared ingest/interning surface, and sharded
telemetry is bit-identical to single-store telemetry either way.

Interventions — resizing pools, deploying software versions, injecting
outages and surges — are the experimental controls of §II-B and §II-D.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple, Union

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
from repro.cluster.server import (
    Draw,
    ServerState,
    observation_draws,
    observe_pool_block,
)
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


#: Online cells (window x server) from which a step beside another
#: such step is drawn ahead, on the draw thread; other steps draw as
#: they apply.  The measured crossover is in docs/ARCHITECTURE.md.
DRAW_AHEAD_CELLS = 8_192


def _second_cpu() -> bool:
    """Whether this process may run on more than one CPU."""
    affinity = getattr(os, "sched_getaffinity", None)  # not on every OS
    return (len(affinity(0)) if affinity else os.cpu_count() or 1) > 1


def _draw(rng: np.random.Generator, step: "_Step",
          schedule: List[Draw]) -> Tuple["_Replay", float]:
    """Draw ``step``'s ``schedule`` on ``rng``, keeping the state before
    it on the step: a replayer of the arrays and the seconds spent."""
    step.rng_state = rng.bit_generator.state
    t_start = perf_counter()
    draws = [getattr(rng, name)(*params, size=size)
             for name, params, size in schedule]
    return _Replay(schedule, draws), perf_counter() - t_start


class _Replay:
    """Stands in for the generator: hands out a step's drawn arrays.

    Each call must be the next scheduled ``(method, params, size)``
    and :meth:`finish` raises on draws left over, so a schedule that
    drifts from the kernels fails instead of shifting the stream.
    """

    def __init__(self, schedule: List[Draw], draws: List[np.ndarray]) -> None:
        self._schedule = schedule
        self._draws = draws
        self._next = 0

    def _take(self, method: str, params: tuple, size) -> np.ndarray:
        at = self._next
        wanted = self._schedule[at] if at < len(self._schedule) else None
        if wanted != (method, params, size):
            raise RuntimeError(
                f"draw {at}: {method}{params} size={size} is off the "
                f"schedule, which has {wanted}"
            )
        self._next = at + 1
        return self._draws[at]

    def __getattr__(self, method: str):
        """Any generator method: ``rng.normal(0, 1, size=n)`` and the like."""
        if method.startswith("_"):
            raise AttributeError(method)
        return lambda *params, size=None: self._take(method, params, size)

    def finish(self) -> None:
        left = len(self._schedule) - self._next
        if left:
            raise RuntimeError(f"{left} scheduled draws left over")


@dataclass
class _Step:
    """One (deployment, block) step as planned: all but its draws."""

    deployment: PoolDeployment
    windows: np.ndarray
    #: Noise-free demand column, made noisy in place by the apply.
    totals: np.ndarray
    #: Windows whose demand draws noise (None: no draw), and the
    #: ``(mean, sigma)`` of that unit-mean lognormal.
    active: Optional[np.ndarray]
    n_active: int
    noise: Tuple[float, float]
    mask: np.ndarray
    emit: Optional[FrozenSet[str]]
    #: Online cells: the size of each observation draw.
    cells: int
    #: ``current_window`` once applied, on a block's last step.
    next_window: Optional[int] = None
    #: Generator state before the step was drawn ahead (None: not yet).
    rng_state: Optional[dict] = None

    def schedule(self) -> List[Draw]:
        """The apply's generator calls in order: demand noise, share jitter,
        then :func:`~repro.cluster.server.observation_draws`."""
        calls = [("lognormal", self.noise, self.n_active)] if self.n_active else []
        calls += self.deployment.mix.share_draws(self.windows.size)
        profile = self.deployment.pool.profile
        return calls + observation_draws(profile, self.emit, self.cells)


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
        #: Cumulative seconds per stage: demand tensor build, counter
        #: emission (the wait for a step's draws included) and store
        #: ingest, all on the caller's thread; and ``draw``, generator
        #: time of steps drawn ahead of their apply, on either thread.
        self.stage_seconds: Dict[str, float] = {
            "demand": 0.0, "observe": 0.0, "ingest": 0.0, "draw": 0.0,
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
        outage = self._demand_engine.outage_active(deployment.datacenter_id, window)
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

    def _plan_steps(self, n_windows: int) -> Iterator[_Step]:
        """The steps of ``n_windows`` windows, planned a block at a time
        (measurably faster than one step at a time at block 1)."""
        deployments = list(self.fleet.deployments())
        start, stop = self._window, self._window + n_windows
        while start < stop:
            windows = np.arange(
                start, min(start + self.config.block_windows, stop),
                dtype=np.int64,
            )
            start = int(windows[-1]) + 1
            t_start = perf_counter()
            block = self._demand_engine.compute_demand_block(windows)
            self.stage_seconds["demand"] += perf_counter() - t_start
            steps = [
                self._plan_step(
                    deployment, windows,
                    block.column(deployment.pool_id, deployment.datacenter_id),
                )
                for deployment in deployments
            ]
            if not steps:
                self._window = start
                continue
            steps[-1].next_window = start
            yield from steps

    def _plan_step(
        self,
        deployment: PoolDeployment,
        windows: np.ndarray,
        base_demand: np.ndarray,
    ) -> _Step:
        """One deployment's noise-free demand column, demand-noise
        parameters, online grid and emit set: the step without draws."""
        stage = self.stage_seconds
        t_start = perf_counter()
        totals = np.array(base_demand, dtype=float)
        # Draws are skipped for windows with zero demand (or zero noise).
        noise = self.config.workload_noise
        active = totals > 0 if noise > 0 else None
        n_active = 0 if active is None else int(active.sum())
        sigma = float(np.sqrt(np.log1p(noise**2)))  # unit mean, CV ``noise``
        t_demand = perf_counter()
        mask = self._online_mask_block(deployment, windows)
        emit = self._emit_counters(deployment)
        stage["demand"] += t_demand - t_start
        stage["observe"] += perf_counter() - t_demand
        return _Step(
            deployment, windows, totals, active if n_active else None,
            n_active, (-0.5 * sigma**2, sigma), mask, emit,
            int(np.count_nonzero(mask)),
        )

    def _apply_step(self, step: _Step, rng) -> None:
        """The arithmetic and ingest of one planned step, its kernels
        drawing from the generator itself or, for a step drawn ahead,
        from a :class:`_Replay` of the draws.

        Noisy totals times the ``(n_windows, n_classes)`` share matrix
        of :meth:`~repro.workload.request_mix.RequestMix.shares_block`,
        divided by the online counts (the load balancer's even split;
        a window with no online server drops its traffic), is the
        per-server RPS matrix :func:`~repro.cluster.server.observe_pool_block`
        takes.
        """
        deployment = step.deployment
        pool = deployment.pool
        pool_id = deployment.pool_id
        dc_id = deployment.datacenter_id
        windows = step.windows
        stage = self.stage_seconds
        t_start = perf_counter()

        totals = step.totals
        if step.active is not None:
            totals[step.active] *= rng.lognormal(*step.noise, size=step.n_active)
        mix = deployment.mix
        volumes = totals[:, None] * mix.shares_block(windows, rng)
        t_demand = perf_counter()

        mask_block = step.mask
        counts = mask_block.sum(axis=1)
        per_server_rps = np.zeros_like(volumes)
        np.divide(
            volumes, counts[:, None], out=per_server_rps,
            where=counts[:, None] > 0,
        )

        arrays = pool.server_arrays()
        emit = step.emit
        flat_windows, flat_positions, observations = observe_pool_block(
            pool.profile, arrays, mask_block, windows,
            mix.class_names, per_server_rps, rng, emit,
        )
        if isinstance(rng, _Replay):
            rng.finish()
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
                np.tile(indices, windows.size),
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
        if step.next_window is not None:
            self._window = step.next_window

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

        A draw thread, if any step takes it, draws at most one step
        ahead and is joined on every exit path; on an error the draws of
        steps never applied are cancelled or rewound, so between calls
        the generator stands exactly where a one-thread run leaves it.
        """
        if n_windows < 0:
            raise ValueError("n_windows must be non-negative")
        rng = self._rng
        stage = self.stage_seconds
        threshold = DRAW_AHEAD_CELLS if _second_cpu() else np.inf
        #: Steps drawn ahead (or being drawn) whose apply has not begun.
        unapplied: List[Tuple[_Step, object]] = []
        pool = None  # the draw thread's executor, made on first use

        def apply_oldest() -> None:
            step, drawn = unapplied.pop(0)
            t_wait = perf_counter()
            replay, seconds = drawn if isinstance(drawn, tuple) else drawn.result()
            stage["observe"] += perf_counter() - t_wait
            stage["draw"] += seconds
            self._apply_step(step, replay)

        def wide(step: Optional[_Step]) -> bool:
            return step is not None and step.cells >= threshold

        steps = self._plan_steps(n_windows)
        step = next(steps, None)
        try:
            while step is not None:
                following = next(steps, None)
                if not wide(step) or not (unapplied or wide(following)):
                    # No wide neighbour to overlap: draw as it applies.
                    while unapplied:
                        apply_oldest()
                    self._apply_step(step, rng)
                elif unapplied:
                    if pool is None:
                        from concurrent.futures import ThreadPoolExecutor
                        pool = ThreadPoolExecutor(1, thread_name_prefix="repro-draw")
                    # One worker: draws run in submission order.
                    drawn = pool.submit(_draw, rng, step, step.schedule())
                    unapplied.append((step, drawn))
                    apply_oldest()
                else:  # drawn here, so the next draw overlaps its apply
                    unapplied.append((step, _draw(rng, step, step.schedule())))
                step = following
            while unapplied:
                apply_oldest()
        finally:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
            if unapplied and unapplied[0][0].rng_state is not None:
                rng.bit_generator.state = unapplied[0][0].rng_state

    def run_days(self, days: float) -> None:
        """Simulate a number of days (720 windows per day)."""
        from repro.workload.diurnal import WINDOWS_PER_DAY

        self.run(int(round(days * WINDOWS_PER_DAY)))
