"""Workload traces: realised per-window demand with noise.

A :class:`WorkloadTrace` is what actually hits a pool during
simulation: for every telemetry window, the total offered RPS and its
split across request classes.  Traces are produced from a
:class:`~repro.workload.diurnal.DiurnalPattern` plus multiplicative
noise, or recorded back out of a simulation for use as the "historical
data" the planner consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.workload.diurnal import DiurnalPattern
from repro.workload.request_mix import RequestMix


@dataclass(frozen=True)
class WorkloadTrace:
    """Realised workload: per-window totals and per-class volumes.

    ``class_volumes`` maps request-class name to an array aligned with
    ``totals``; the arrays sum (over classes) to ``totals``.
    """

    start_window: int
    totals: np.ndarray
    class_volumes: Dict[str, np.ndarray]

    def __post_init__(self) -> None:
        totals = np.asarray(self.totals, dtype=float)
        object.__setattr__(self, "totals", totals)
        volumes = {k: np.asarray(v, dtype=float) for k, v in self.class_volumes.items()}
        for name, arr in volumes.items():
            if arr.shape != totals.shape:
                raise ValueError(
                    f"class volume {name!r} misaligned with totals: "
                    f"{arr.shape} != {totals.shape}"
                )
        object.__setattr__(self, "class_volumes", volumes)

    def __len__(self) -> int:
        return int(self.totals.size)

    @property
    def windows(self) -> np.ndarray:
        return np.arange(self.start_window, self.start_window + len(self))

    @property
    def class_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self.class_volumes))

    def total_at(self, window: int) -> float:
        idx = window - self.start_window
        if not 0 <= idx < len(self):
            raise IndexError(f"window {window} outside trace range")
        return float(self.totals[idx])

    def class_volume_at(self, window: int) -> Dict[str, float]:
        idx = window - self.start_window
        if not 0 <= idx < len(self):
            raise IndexError(f"window {window} outside trace range")
        return {name: float(arr[idx]) for name, arr in self.class_volumes.items()}

    def scaled(self, factor: float) -> "WorkloadTrace":
        """Uniformly scale the trace (e.g. to model a traffic surge)."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return WorkloadTrace(
            start_window=self.start_window,
            totals=self.totals * factor,
            class_volumes={k: v * factor for k, v in self.class_volumes.items()},
        )

    def concat(self, other: "WorkloadTrace") -> "WorkloadTrace":
        """Concatenate a contiguous follow-on trace."""
        if other.start_window != self.start_window + len(self):
            raise ValueError("traces are not contiguous")
        if set(other.class_volumes) != set(self.class_volumes):
            raise ValueError("traces have different request classes")
        return WorkloadTrace(
            start_window=self.start_window,
            totals=np.concatenate([self.totals, other.totals]),
            class_volumes={
                k: np.concatenate([v, other.class_volumes[k]])
                for k, v in self.class_volumes.items()
            },
        )


def generate_trace(
    pattern: DiurnalPattern,
    mix: RequestMix,
    n_windows: int,
    rng: np.random.Generator,
    noise: float = 0.04,
    start_window: int = 0,
) -> WorkloadTrace:
    """Realise a trace from a demand pattern and request mix.

    ``noise`` is the coefficient of variation of multiplicative
    log-normal noise applied per window — real request volumes jitter
    around the diurnal mean ("instantaneous variations in workload",
    §II-A).
    """
    if n_windows < 0:
        raise ValueError("n_windows must be non-negative")
    if noise < 0:
        raise ValueError("noise must be non-negative")
    demand = pattern.demand_series(n_windows, start_window=start_window)
    if noise > 0 and n_windows > 0:
        sigma = np.sqrt(np.log1p(noise**2))
        jitter = rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma, size=n_windows)
        totals = demand * jitter
    else:
        totals = demand.copy()

    windows = np.arange(start_window, start_window + n_windows, dtype=np.int64)
    volumes = totals[:, None] * mix.shares_block(windows, rng)
    class_volumes = {
        name: volumes[:, k].copy() for k, name in enumerate(mix.class_names)
    }
    return WorkloadTrace(
        start_window=start_window,
        totals=totals,
        class_volumes=class_volumes,
    )
