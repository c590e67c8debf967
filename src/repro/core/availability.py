"""§III-B2 — server and pool availability analysis.

"We measured the percentage of time each server was online daily ...
the overall average availability was 83 %.  Most servers are online at
least 80 % of the time, with a large population at 85 % and 98 %."

Well-managed pools need only ~2 % downtime for planned maintenance, so
the gap between a pool's availability and the best-practice 98 % is
reclaimable capacity — the "Online Savings" column of Table IV.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.stats.descriptive import histogram_fractions
from repro.telemetry.counters import Counter
from repro.telemetry.store import MetricStore
from repro.workload.diurnal import WINDOWS_PER_DAY

#: Availability achieved by pools with best-practice rolling
#: maintenance (the 98 % mode of Fig 14).
BEST_PRACTICE_AVAILABILITY: float = 0.98


def daily_availability(
    store: MetricStore,
    pool_id: str,
    datacenter_id: Optional[str] = None,
) -> Dict[str, np.ndarray]:
    """Per-server arrays of daily availability fractions.

    A server's availability on a day is the mean of its AVAILABILITY
    counter (1.0 online / 0.0 offline) over that day's windows.
    """
    _windows, names, matrix = store.pool_matrix(
        pool_id, Counter.AVAILABILITY.value, datacenter_id=datacenter_id
    )
    out: Dict[str, np.ndarray] = {}
    if matrix.size == 0:
        return out
    n_windows = matrix.shape[0]
    n_days = n_windows // WINDOWS_PER_DAY
    with warnings.catch_warnings():
        # Server-days with no observations (late joiners) are all-NaN
        # slices; they are dropped below, so the nanmean warning is
        # noise.
        warnings.simplefilter("ignore", category=RuntimeWarning)
        if n_days >= 1:
            # One reshape + nanmean over the dense (window, server)
            # cube replaces the per-server loop; a server's missing
            # windows (NaN) simply don't contribute to its daily mean.
            trimmed = matrix[: n_days * WINDOWS_PER_DAY]
            daily = np.nanmean(
                trimmed.reshape(n_days, WINDOWS_PER_DAY, matrix.shape[1]), axis=1
            )
        else:
            daily = np.nanmean(matrix, axis=0, keepdims=True)
    for column, server_id in enumerate(names):
        values = daily[:, column]
        values = values[~np.isnan(values)]
        if values.size:
            out[server_id] = values
    return out


@dataclass(frozen=True)
class AvailabilityReport:
    """Availability summary for one pool."""

    pool_id: str
    mean_availability: float
    server_daily_values: np.ndarray  # flattened per-server-per-day fractions
    pool_daily_series: np.ndarray  # pool-mean availability per day

    @property
    def online_savings(self) -> float:
        """Capacity reclaimable by adopting best-practice maintenance.

        The fraction of the pool's server-time currently lost beyond
        the best-practice 2 % downtime.
        """
        gap = BEST_PRACTICE_AVAILABILITY - self.mean_availability
        return float(max(gap, 0.0))

    def distribution(self, bin_edges: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Histogram of daily server availability (Fig 14 series)."""
        if bin_edges is None:
            bin_edges = np.linspace(0.0, 1.0, 21)
        fractions = histogram_fractions(self.server_daily_values, bin_edges)
        return bin_edges, fractions

    def describe(self) -> str:
        return (
            f"pool {self.pool_id}: mean availability "
            f"{self.mean_availability:.1%}, online savings "
            f"{self.online_savings:.1%}"
        )


def analyze_pool_availability(
    store: MetricStore,
    pool_id: str,
    datacenter_id: Optional[str] = None,
) -> AvailabilityReport:
    """Build the availability report for one pool."""
    per_server = daily_availability(store, pool_id, datacenter_id)
    if not per_server:
        raise ValueError(f"no availability telemetry for pool {pool_id!r}")
    all_days = np.concatenate(list(per_server.values()))
    n_days = max(arr.size for arr in per_server.values())
    pool_daily = np.full(n_days, np.nan)
    for day in range(n_days):
        vals = [arr[day] for arr in per_server.values() if arr.size > day]
        pool_daily[day] = float(np.mean(vals))
    return AvailabilityReport(
        pool_id=pool_id,
        mean_availability=float(all_days.mean()),
        server_daily_values=all_days,
        pool_daily_series=pool_daily,
    )


@dataclass(frozen=True)
class FleetAvailabilityStudy:
    """Fleet-wide availability read-outs (Figs 14-15, §III-B2)."""

    reports: Tuple[AvailabilityReport, ...]

    @property
    def overall_mean(self) -> float:
        daily_values = np.concatenate([r.server_daily_values for r in self.reports])
        return float(daily_values.mean())

    @property
    def infrastructure_overhead(self) -> float:
        """1 - availability of the best pool (the paper's ~2 % estimate).

        Planned infrastructure maintenance hits every pool; the most
        available pool's downtime approximates that common floor.
        """
        best = max(r.mean_availability for r in self.reports)
        return 1.0 - best

    def availability_histogram(
        self, bin_edges: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fleet-wide Fig 14 distribution."""
        if bin_edges is None:
            bin_edges = np.linspace(0.0, 1.0, 21)
        daily_values = np.concatenate([r.server_daily_values for r in self.reports])
        return bin_edges, histogram_fractions(daily_values, bin_edges)

    def online_savings_by_pool(self) -> Dict[str, float]:
        return {r.pool_id: r.online_savings for r in self.reports}

    def pool_report(self, pool_id: str) -> AvailabilityReport:
        for report in self.reports:
            if report.pool_id == pool_id:
                return report
        raise KeyError(f"no availability report for pool {pool_id!r}")


def study_fleet_availability(
    store: MetricStore,
    pool_ids: Optional[List[str]] = None,
) -> FleetAvailabilityStudy:
    """Run the availability analysis over many pools."""
    pools = pool_ids if pool_ids is not None else list(store.pools)
    reports = tuple(analyze_pool_availability(store, p) for p in pools)
    if not reports:
        raise ValueError("no pools to analyze")
    return FleetAvailabilityStudy(reports=reports)
