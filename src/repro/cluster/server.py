"""Server resource model.

A :class:`Server` converts the request volume routed to it into the
observable counter values of Fig 2.  The translation is the simulator's
ground truth; the planner only ever sees the emitted counters.

The counter math has one home, :func:`observe_pool_block` over a
:class:`ServerArrays` view: every counter for every online (window,
server) cell of a pool is computed as one NumPy expression, which is
what lets the simulator advance thousand-server fleets at array speed.

Behaviours reproduced from the paper's measurements:

* CPU tracks per-class workload linearly (plus idle base and noise);
* network bytes/packets track workload linearly with moderate,
  per-datacenter-varying noise;
* disk reads and memory paging are dominated by background activity
  (paging, periodic log uploads) — vertical bands at any workload;
* disk queue length is near-constant in steady state;
* latency follows the service's ground-truth
  :class:`~repro.cluster.latency.LatencyModel`;
* a leaky software version grows its working set each window.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.deployment import BASELINE_VERSION, SoftwareVersion
from repro.cluster.hardware import GENERATION_2014, HardwareSpec
from repro.cluster.service import MicroServiceProfile
from repro.telemetry.counters import Counter, workload_counter

#: Average network packet size (bytes) used to derive the packet counter.
_PACKET_BYTES = 1_100.0

#: Baseline resident working set (MB) for a freshly started server.
_BASE_WORKING_SET_MB = 9_000.0


class ServerState(enum.Enum):
    """Operational state; only ONLINE servers receive traffic."""

    ONLINE = "online"
    OFFLINE_MAINTENANCE = "offline_maintenance"
    OFFLINE_REPURPOSED = "offline_repurposed"
    OFFLINE_FAILED = "offline_failed"

    @property
    def is_online(self) -> bool:
        return self is ServerState.ONLINE


@dataclass
class Server:
    """One simulated server in a pool."""

    server_id: str
    pool_id: str
    datacenter_id: str
    profile: MicroServiceProfile
    hardware: HardwareSpec = field(default=GENERATION_2014)
    version: SoftwareVersion = field(default=BASELINE_VERSION)
    state: ServerState = field(default=ServerState.ONLINE)
    #: Per-server phase for the periodic log-upload spike so that the
    #: fleet's spikes are decorrelated.
    noise_phase: int = 0
    working_set_mb: float = field(default=_BASE_WORKING_SET_MB)

    def restart(self) -> None:
        """Restart the service process: the working set resets."""
        self.working_set_mb = _BASE_WORKING_SET_MB


# ----------------------------------------------------------------------
# Columnar observation
# ----------------------------------------------------------------------


@dataclass
class ServerArrays:
    """Column view of a pool's servers for the vectorized hot path.

    One array per per-server attribute the counter math reads, gathered
    once from the ``Server`` objects and cached by the pool until its
    composition changes (resize, version deploy).  ``working_set_mb`` is
    *owned* by this view while it is active; :meth:`flush` writes it
    back to the ``Server`` objects before the pool mutates them.
    """

    server_ids: Tuple[str, ...]
    cpu_scale: np.ndarray
    version_cpu_multiplier: np.ndarray
    #: Elementwise ``cpu_scale * version_cpu_multiplier`` — the only
    #: form the counter math consumes, prebuilt so the hot path gathers
    #: one column instead of two.
    cpu_scale_mult: np.ndarray
    latency_base_delta_ms: np.ndarray
    latency_queue_multiplier: np.ndarray
    memory_leak_mb_per_window: np.ndarray
    noise_phase: np.ndarray
    working_set_mb: np.ndarray

    @classmethod
    def from_servers(cls, servers: Sequence["Server"]) -> "ServerArrays":
        return cls(
            server_ids=tuple(s.server_id for s in servers),
            cpu_scale=np.array([s.hardware.cpu_scale for s in servers]),
            version_cpu_multiplier=np.array(
                [s.version.cpu_multiplier for s in servers]
            ),
            cpu_scale_mult=np.array(
                [s.hardware.cpu_scale * s.version.cpu_multiplier for s in servers]
            ),
            latency_base_delta_ms=np.array(
                [s.version.latency_base_delta_ms for s in servers]
            ),
            latency_queue_multiplier=np.array(
                [s.version.latency_queue_multiplier for s in servers]
            ),
            memory_leak_mb_per_window=np.array(
                [s.version.memory_leak_mb_per_window for s in servers]
            ),
            noise_phase=np.array([s.noise_phase for s in servers], dtype=np.int64),
            working_set_mb=np.array([s.working_set_mb for s in servers]),
        )

    def flush(self, servers: Sequence["Server"]) -> None:
        """Write the mutable working-set column back to the servers."""
        for server, ws in zip(servers, self.working_set_mb):
            server.working_set_mb = float(ws)


class _Gates:
    """Which counter groups a pool emission must compute.

    Derived once per call from the caller's wanted-counter set (``None``
    = emit everything).  Counters share intermediates, so the gates are
    dependency-aware: CPU must be computed whenever latency or errors
    need the utilization, disk reads whenever memory paging couples to
    them, and so on.  Skipping a group skips both its math *and* its
    RNG draws, so the stream depends on the set — which the simulator
    derives once from its config.
    """

    __slots__ = (
        "requests", "cpu", "cpu_value", "p95", "p95_value", "p50",
        "bytes", "bytes_value", "packets", "disk", "disk_value",
        "pages", "queue", "working_set", "errors", "availability",
    )

    def __init__(self, counters: Optional[FrozenSet[str]]) -> None:
        def want(counter: Counter) -> bool:
            return counters is None or counter.value in counters

        self.requests = want(Counter.REQUESTS)
        self.availability = want(Counter.AVAILABILITY)
        self.cpu_value = want(Counter.PROCESSOR_UTILIZATION)
        self.p95_value = want(Counter.LATENCY_P95)
        self.p50 = want(Counter.LATENCY_P50)
        self.errors = want(Counter.ERRORS)
        self.p95 = self.p95_value or self.p50
        self.cpu = self.cpu_value or self.p95 or self.errors
        self.bytes_value = want(Counter.NETWORK_BYTES_TOTAL)
        self.packets = want(Counter.NETWORK_PACKETS)
        self.bytes = self.bytes_value or self.packets
        self.disk_value = want(Counter.DISK_READ_BYTES)
        self.pages = want(Counter.MEMORY_PAGES)
        self.disk = self.disk_value or self.pages
        self.queue = want(Counter.DISK_QUEUE_LENGTH)
        self.working_set = want(Counter.MEMORY_WORKING_SET)


def observe_pool_block(
    profile: MicroServiceProfile,
    arrays: ServerArrays,
    online_mask: np.ndarray,
    windows: np.ndarray,
    class_names: Sequence[str],
    class_rps: np.ndarray,
    rng: np.random.Generator,
    counters: Optional[FrozenSet[str]] = None,
) -> Tuple[np.ndarray, np.ndarray, Dict[str, np.ndarray]]:
    """A block of windows of counter values in one vectorized pass.

    The single home of the Fig 2 counter math: the counters of
    ``len(windows)`` consecutive windows are computed as one set of
    NumPy expressions over the flattened (window, online server) grid.
    A block of one window is plain per-window emission; larger blocks
    amortize the per-call Python and RNG overhead.

    ``online_mask`` is the boolean (n_windows, n_servers) online grid;
    ``class_rps`` is the ``(n_windows, n_classes)`` per-*server* RPS
    matrix (the even load-balancer split of each window's volume),
    with columns in ``class_names`` order.  Per-window totals and cost
    reductions accumulate column by column in class order, so the
    summation order — and hence every bit — is fixed.

    Returns ``(flat_windows, flat_positions, observations)`` where the
    flat arrays enumerate the online (window, server) cells in
    window-major order — the store's canonical row order — and
    ``observations`` maps counter name to the aligned value array.
    Availability is *not* included: the caller derives it from
    ``online_mask`` for all servers, offline included (offline servers
    emit nothing else).

    ``counters`` restricts emission to the named counters (plus the
    intermediates they depend on); ``None`` emits everything.  Skipped
    counters skip their RNG draws too, so the stream depends on the
    set — but not on anything else, and the emitted draws always come
    in the same relative order.

    Each draw is sized for the whole block, so a block of W windows
    consumes different draw shapes than W one-window calls: output is
    bit-reproducible per block size and statistically equivalent
    across block sizes (same distributions, different draws).  Leak
    accounting advances for the whole block regardless of ``counters``,
    with each emitted working set reflecting the cumulative online
    windows up to and including its own.
    """
    n_windows, n_servers = online_mask.shape
    class_rps = np.asarray(class_rps, dtype=float)
    if len(windows) != n_windows or class_rps.shape[0] != n_windows:
        raise ValueError("windows and class_rps must match the mask")
    if class_rps.shape[1] != len(class_names):
        raise ValueError("class_rps columns must match class_names")
    windows = np.asarray(windows, dtype=np.int64)
    # Window-major enumeration of online cells: np.nonzero on a 2-D
    # array walks rows first.
    window_pos, flat_positions = np.nonzero(online_mask)
    flat_windows = windows[window_pos]
    flat_count = int(window_pos.size)
    noise = profile.noise
    gates = _Gates(counters)
    mix = profile.mix

    # Per-window reductions over the class axis, accumulated column by
    # column so the summation order (and hence every bit) is fixed.
    total_rps_w = np.zeros(n_windows)
    for k in range(class_rps.shape[1]):
        total_rps_w += class_rps[:, k]
    total_rps = total_rps_w[window_pos]
    observations: Dict[str, np.ndarray] = {}

    if gates.requests:
        observations[Counter.REQUESTS.value] = total_rps

    if noise.log_upload_period_windows > 0 and (gates.cpu or gates.disk):
        phase = arrays.noise_phase[flat_positions]
        upload_active = (
            (flat_windows + phase) % noise.log_upload_period_windows
        ) < noise.log_upload_duration_windows
    else:
        upload_active = np.zeros(flat_count, dtype=bool)

    # --- CPU ----------------------------------------------------------
    if gates.cpu:
        cpu_costs = mix.cpu_costs
        work_w = np.zeros(n_windows)
        for k in range(class_rps.shape[1]):
            work_w += cpu_costs[k] * class_rps[:, k]
        cpu = (
            noise.idle_cpu_pct
            + work_w[window_pos] * arrays.cpu_scale_mult[flat_positions]
        )
        cpu = cpu + rng.normal(0.0, noise.idle_cpu_noise_pct, size=flat_count)
        cpu = cpu + noise.log_upload_cpu_pct * upload_active
        cpu = cpu * rng.normal(1.0, profile.cpu_observation_noise, size=flat_count)
        cpu = np.clip(cpu, 0.0, 100.0)
        utilization = cpu / 100.0
        if gates.cpu_value:
            observations[Counter.PROCESSOR_UTILIZATION.value] = cpu

    # --- Latency ------------------------------------------------------
    if gates.p95:
        model = profile.latency
        util_clamped = np.minimum(utilization, model.utilization_cap - 1e-6)
        # The cold-start term depends only on the window's total RPS:
        # evaluate the exp per window and gather, not per online cell.
        cold_w = model.cold_ms * np.exp(-total_rps_w / model.warmup_rps)
        queue = model.queue_coeff_ms * util_clamped**2 / (1.0 - util_clamped)
        p95 = (
            model.base_ms
            + arrays.latency_base_delta_ms[flat_positions]
            + cold_w[window_pos]
            + queue * arrays.latency_queue_multiplier[flat_positions]
        )
        p95 = p95 * rng.normal(
            1.0, profile.latency_observation_noise, size=flat_count
        )
        p95 = np.maximum(p95, 0.1)
        if gates.p95_value:
            observations[Counter.LATENCY_P95.value] = p95
        if gates.p50:
            observations[Counter.LATENCY_P50.value] = model.median_fraction * p95

    # --- Network ------------------------------------------------------
    if gates.bytes:
        bytes_coeffs = mix.bytes_per_request
        bytes_w = np.zeros(n_windows)
        for k in range(class_rps.shape[1]):
            bytes_w += bytes_coeffs[k] * class_rps[:, k]
        # Network counters are linear in workload but visibly noisier
        # than CPU (Fig 2 "we see more variation of bytes and packets"):
        # retransmits, connection churn and co-located control traffic.
        bytes_total = bytes_w[window_pos] * rng.normal(1.0, 0.15, size=flat_count)
        bytes_total = np.maximum(bytes_total, 0.0)
        if gates.bytes_value:
            observations[Counter.NETWORK_BYTES_TOTAL.value] = bytes_total
        if gates.packets:
            observations[Counter.NETWORK_PACKETS.value] = bytes_total / _PACKET_BYTES

    # --- Disk and memory (background-dominated; Fig 2's bands) --------
    if gates.disk:
        disk_read = np.abs(
            rng.normal(0.0, noise.disk_noise_bytes, size=flat_count)
        )
        disk_read = disk_read + noise.log_upload_disk_bytes * upload_active
        if gates.disk_value:
            observations[Counter.DISK_READ_BYTES.value] = disk_read
    if gates.pages:
        memory_pages = np.abs(
            rng.normal(0.0, noise.memory_pages_noise, size=flat_count)
        )
        # Paging correlates with disk reads (the paper infers most disk
        # activity is paging); couple them loosely.
        memory_pages = memory_pages + disk_read / 8e3 * rng.uniform(
            0.5, 1.5, size=flat_count
        )
        observations[Counter.MEMORY_PAGES.value] = memory_pages
    if gates.queue:
        observations[Counter.DISK_QUEUE_LENGTH.value] = np.maximum(
            rng.normal(noise.disk_queue_mean, 1.0, size=flat_count), 0.0
        )

    # --- Memory working set (leak accounting; always advanced) --------
    leak = arrays.memory_leak_mb_per_window
    if gates.working_set:
        # cumulative[w, s] = online windows of s in the block up to w
        # inclusive; each emitted value reflects its own window.
        cumulative = np.cumsum(online_mask, axis=0, dtype=np.int64)
        emitted_ws = (
            arrays.working_set_mb[flat_positions]
            + leak[flat_positions] * cumulative[window_pos, flat_positions]
        )
        observations[Counter.MEMORY_WORKING_SET.value] = emitted_ws * 1e6
        if n_windows:
            arrays.working_set_mb += leak * cumulative[-1]
    elif n_windows:
        arrays.working_set_mb += leak * online_mask.sum(axis=0)

    # --- Errors -------------------------------------------------------
    # Near zero in steady state; grows only at extreme utilization.
    if gates.errors:
        error_rate = np.where(
            utilization > 0.9, (utilization - 0.9) * total_rps * 0.5, 0.0
        )
        observations[Counter.ERRORS.value] = np.maximum(
            rng.normal(error_rate, 0.01), 0.0
        )

    for k, name in enumerate(class_names):
        name = workload_counter(name)
        if counters is None or name in counters:
            observations[name] = class_rps[window_pos, k]
    return flat_windows, flat_positions, observations
