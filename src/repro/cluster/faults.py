"""Failures, maintenance and unplanned capacity events.

Three distinct sources of unavailability shape the paper's §III-B2
analysis:

* **rolling planned maintenance** — software/config/data deployments
  drain a few servers at a time; well-managed pools lose only ~2 % of
  server-time this way (the 98 % availability mode of Fig 14);
* **off-peak repurposing** — some pools lend a large share of their
  servers to offline validation work during the nightly trough (the
  <80 % availability population of Fig 14);
* **unplanned failures** — rare random server crashes.

Separately, *unplanned capacity events* (natural experiments, §II-B1)
shift traffic: a datacenter outage redistributes its demand onto the
surviving datacenters (Figs 4-5), and a regional surge multiplies one
datacenter's demand (the 4x event of Fig 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Protocol

import numpy as np

from repro.workload.diurnal import WINDOWS_PER_DAY


class AvailabilityPolicy(Protocol):
    """Decides, deterministically, whether a server is online.

    Implementations may additionally provide the vectorized
    ``online_mask_block(n_servers, windows) -> np.ndarray`` the
    simulator's hot path uses; :func:`policy_online_mask_block` falls
    back to the per-index method for policies that don't.
    """

    def is_online(self, server_index: int, n_servers: int, window: int) -> bool:
        """True when the server should be serving traffic this window."""
        ...


def policy_online_mask_block(
    policy: AvailabilityPolicy, n_servers: int, windows: np.ndarray
) -> np.ndarray:
    """(n_windows, n_servers) boolean online grid for a window block.

    Uses the policy's vectorized ``online_mask_block`` when available,
    otherwise loops ``is_online`` per cell (custom user policies), so
    every policy's grid equals its scalar answers exactly.
    """
    block_fn = getattr(policy, "online_mask_block", None)
    if block_fn is not None:
        return block_fn(n_servers, windows)
    return np.array(
        [
            [policy.is_online(i, n_servers, int(w)) for i in range(n_servers)]
            for w in windows
        ],
        dtype=bool,
    ).reshape(len(windows), n_servers)


@dataclass(frozen=True)
class AlwaysOnline:
    """No planned downtime at all (used in controlled experiments)."""

    def is_online(self, server_index: int, n_servers: int, window: int) -> bool:
        return True

    def online_mask_block(self, n_servers: int, windows: np.ndarray) -> np.ndarray:
        return np.ones((len(windows), n_servers), dtype=bool)


@dataclass(frozen=True)
class RollingMaintenance:
    """Staggered daily maintenance slots.

    Every server is offline for ``daily_downtime_fraction`` of each day;
    slots are staggered across the pool so only a small share of servers
    is out at any instant — the planned-deployment pattern behind the
    98 % availability mode.
    """

    daily_downtime_fraction: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 <= self.daily_downtime_fraction < 1.0:
            raise ValueError("daily_downtime_fraction must be in [0, 1)")

    def is_online(self, server_index: int, n_servers: int, window: int) -> bool:
        if self.daily_downtime_fraction == 0.0 or n_servers < 1:
            return True
        downtime = max(int(round(self.daily_downtime_fraction * WINDOWS_PER_DAY)), 1)
        day_offset = window % WINDOWS_PER_DAY
        slot_start = int(server_index / n_servers * WINDOWS_PER_DAY)
        slot_end = slot_start + downtime
        if slot_end <= WINDOWS_PER_DAY:
            return not slot_start <= day_offset < slot_end
        # Slot wraps past midnight.
        return not (day_offset >= slot_start or day_offset < slot_end - WINDOWS_PER_DAY)

    def online_mask_block(self, n_servers: int, windows: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`is_online` over a whole window block."""
        windows = np.asarray(windows, dtype=np.int64)
        if self.daily_downtime_fraction == 0.0 or n_servers < 1:
            return np.ones((windows.size, max(n_servers, 0)), dtype=bool)
        downtime = max(int(round(self.daily_downtime_fraction * WINDOWS_PER_DAY)), 1)
        day_offset = (windows % WINDOWS_PER_DAY)[:, None]
        slot_start = (
            np.arange(n_servers, dtype=float) / n_servers * WINDOWS_PER_DAY
        ).astype(np.int64)[None, :]
        slot_end = slot_start + downtime
        plain = (slot_start <= day_offset) & (day_offset < slot_end)
        wrapped = (day_offset >= slot_start) | (day_offset < slot_end - WINDOWS_PER_DAY)
        offline = np.where(slot_end <= WINDOWS_PER_DAY, plain, wrapped)
        return ~offline


@dataclass(frozen=True)
class MaintenancePolicy:
    """Rolling maintenance tuned to hit a target mean availability."""

    target_availability: float = 0.98

    def __post_init__(self) -> None:
        if not 0.0 < self.target_availability <= 1.0:
            raise ValueError("target_availability must be in (0, 1]")

    def is_online(self, server_index: int, n_servers: int, window: int) -> bool:
        rolling = RollingMaintenance(
            daily_downtime_fraction=1.0 - self.target_availability
        )
        return rolling.is_online(server_index, n_servers, window)

    def online_mask_block(self, n_servers: int, windows: np.ndarray) -> np.ndarray:
        rolling = RollingMaintenance(
            daily_downtime_fraction=1.0 - self.target_availability
        )
        return rolling.online_mask_block(n_servers, windows)


@dataclass(frozen=True)
class RepurposingPolicy:
    """Off-peak repurposing: a rotating subset lent out nightly.

    ``borrowed_fraction`` of servers is taken for offline validation
    during a nightly window of ``night_hours`` hours starting at
    ``night_start_hour`` (local-ish; we use simulation time, which is
    adequate because the policy applies per deployment).  Membership of
    the borrowed subset rotates daily so downtime spreads evenly.
    """

    borrowed_fraction: float
    night_start_hour: float = 1.0
    night_hours: float = 9.0
    base_maintenance: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 <= self.borrowed_fraction <= 0.95:
            raise ValueError("borrowed_fraction must be in [0, 0.95]")
        if not 0.0 < self.night_hours < 24.0:
            raise ValueError("night_hours must be in (0, 24)")

    @classmethod
    def for_target_availability(
        cls,
        target_availability: float,
        night_hours: float = 9.0,
    ) -> "RepurposingPolicy":
        """Solve for the borrowed fraction that yields the target.

        Mean availability = 1 - base_maintenance
                              - borrowed_fraction * night_hours / 24.
        """
        base = 0.02
        downtime = 1.0 - target_availability - base
        if downtime <= 0:
            return cls(borrowed_fraction=0.0, night_hours=night_hours)
        fraction = downtime * 24.0 / night_hours
        fraction = min(fraction, 0.95)
        return cls(borrowed_fraction=fraction, night_hours=night_hours)

    def _in_night_window(self, window: int) -> bool:
        hour = (window % WINDOWS_PER_DAY) / WINDOWS_PER_DAY * 24.0
        end = self.night_start_hour + self.night_hours
        if end <= 24.0:
            return self.night_start_hour <= hour < end
        return hour >= self.night_start_hour or hour < end - 24.0

    def is_online(self, server_index: int, n_servers: int, window: int) -> bool:
        if n_servers < 1:
            return True
        maintenance = RollingMaintenance(daily_downtime_fraction=self.base_maintenance)
        if not maintenance.is_online(server_index, n_servers, window):
            return False
        if self.borrowed_fraction == 0.0 or not self._in_night_window(window):
            return True
        day = window // WINDOWS_PER_DAY
        n_borrowed = int(math.floor(self.borrowed_fraction * n_servers))
        if n_borrowed == 0:
            return True
        # Rotate which servers are borrowed each day.
        offset = (day * n_borrowed) % n_servers
        position = (server_index - offset) % n_servers
        return position >= n_borrowed

    def online_mask_block(self, n_servers: int, windows: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`is_online` over a whole window block.

        Cells equal the scalar answers exactly: the night-window test,
        the daily rotation offset and the borrowed-position test are all
        evaluated on the window vector with the same expressions
        :meth:`is_online` uses per window.
        """
        windows = np.asarray(windows, dtype=np.int64)
        if n_servers < 1:
            return np.ones((windows.size, 0), dtype=bool)
        maintenance = RollingMaintenance(daily_downtime_fraction=self.base_maintenance)
        mask = maintenance.online_mask_block(n_servers, windows)
        n_borrowed = int(math.floor(self.borrowed_fraction * n_servers))
        if self.borrowed_fraction == 0.0 or n_borrowed == 0:
            return mask
        hour = (windows % WINDOWS_PER_DAY) / WINDOWS_PER_DAY * 24.0
        end = self.night_start_hour + self.night_hours
        if end <= 24.0:
            night = (self.night_start_hour <= hour) & (hour < end)
        else:
            night = (hour >= self.night_start_hour) | (hour < end - 24.0)
        if not night.any():
            return mask
        # The borrowed subset rotates *daily*: one membership vector per
        # distinct day in the block, applied to that day's night rows.
        day = windows // WINDOWS_PER_DAY
        indices = np.arange(n_servers)
        for d in np.unique(day[night]):
            offset = (int(d) * n_borrowed) % n_servers
            borrowed = ((indices - offset) % n_servers) < n_borrowed
            rows = night & (day == d)
            mask[rows] &= ~borrowed
        return mask


def policy_for_availability(target: float) -> AvailabilityPolicy:
    """Pick the policy class that matches a target mean availability.

    Pools at or above ~94 % run plain rolling maintenance; anything
    lower implies off-peak repurposing (the paper's explanation for the
    low-availability population).
    """
    if not 0.0 < target <= 1.0:
        raise ValueError("target availability must be in (0, 1]")
    if target >= 0.94:
        return MaintenancePolicy(target_availability=target)
    return RepurposingPolicy.for_target_availability(target)


@dataclass(frozen=True)
class RandomFailures:
    """Rare unplanned server crashes.

    Each server independently fails with ``daily_probability`` per day;
    a failure lasts ``duration_windows``.  Deterministic per (server,
    day) via a hash-seeded draw so simulation remains reproducible.
    """

    daily_probability: float = 0.002
    duration_windows: int = 30
    seed: int = 0

    def is_failed(self, server_index: int, window: int) -> bool:
        if self.daily_probability <= 0.0:
            return False
        day = window // WINDOWS_PER_DAY
        draw, start = _failure_draw(self.seed, server_index, day)
        if draw >= self.daily_probability:
            return False
        offset = window % WINDOWS_PER_DAY
        return start <= offset < start + self.duration_windows

    def failed_mask_block(self, n_servers: int, windows: np.ndarray) -> np.ndarray:
        """(n_windows, n_servers) grid of :meth:`is_failed` answers.

        One cached per-day draw lookup per distinct day in the block —
        so the per-server generator seeding costs once per day — with
        the day's rows filled by a single broadcast comparison.
        """
        windows = np.asarray(windows, dtype=np.int64)
        if self.daily_probability <= 0.0 or n_servers < 1:
            return np.zeros((windows.size, max(n_servers, 0)), dtype=bool)
        out = np.empty((windows.size, n_servers), dtype=bool)
        days = windows // WINDOWS_PER_DAY
        offsets = windows % WINDOWS_PER_DAY
        for day in np.unique(days):
            rows = np.flatnonzero(days == day)
            draws, starts = _failure_draws_for_day(self.seed, n_servers, int(day))
            failed_day = draws < self.daily_probability
            day_offsets = offsets[rows][:, None]
            out[rows] = (
                failed_day[None, :]
                & (starts[None, :] <= day_offsets)
                & (day_offsets < starts[None, :] + self.duration_windows)
            )
        return out


@lru_cache(maxsize=65536)
def _failure_draw(seed: int, server_index: int, day: int) -> tuple:
    """The (uniform draw, outage start window) for one server-day.

    Identical to the pre-vectorization inline draws: one ``random()``
    then one ``integers(0, WINDOWS_PER_DAY)`` from a generator seeded by
    (seed, server, day).  The start is drawn unconditionally so cached
    and uncached paths agree.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, server_index, day]))
    draw = float(rng.random())
    start = int(rng.integers(0, WINDOWS_PER_DAY))
    return draw, start


@lru_cache(maxsize=64)
def _failure_draws_for_day(seed: int, n_servers: int, day: int) -> tuple:
    """Per-server (draws, starts) arrays for one day, cached."""
    draws = np.empty(n_servers, dtype=float)
    starts = np.empty(n_servers, dtype=np.int64)
    for index in range(n_servers):
        draws[index], starts[index] = _failure_draw(seed, index, day)
    return draws, starts


@dataclass(frozen=True)
class DatacenterOutage:
    """A whole-datacenter outage: its traffic fails over elsewhere.

    During [start_window, start_window + duration_windows) the affected
    datacenter serves nothing and every pool's demand there is
    redistributed across that pool's surviving datacenters,
    proportionally to their own demand — the §II-B1 natural experiment
    that raised surviving pools' load by a median 56 % (Fig 4).
    """

    datacenter_id: str
    start_window: int
    duration_windows: int

    def __post_init__(self) -> None:
        if self.duration_windows < 1:
            raise ValueError("duration_windows must be >= 1")
        if self.start_window < 0:
            raise ValueError("start_window must be non-negative")

    def active_at(self, window: int) -> bool:
        return self.start_window <= window < self.start_window + self.duration_windows


@dataclass(frozen=True)
class TrafficSurge:
    """A regional demand surge (the 4x event of Fig 6).

    Multiplies one datacenter's demand for one pool (or all pools when
    ``pool_id`` is None) by ``factor`` during the event.
    """

    datacenter_id: str
    start_window: int
    duration_windows: int
    factor: float
    pool_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise ValueError("factor must be positive")
        if self.duration_windows < 1:
            raise ValueError("duration_windows must be >= 1")

    def active_at(self, window: int) -> bool:
        return self.start_window <= window < self.start_window + self.duration_windows

    def applies_to(self, pool_id: str, datacenter_id: str, window: int) -> bool:
        if not self.active_at(window):
            return False
        if self.datacenter_id != datacenter_id:
            return False
        return self.pool_id is None or self.pool_id == pool_id
