"""Request classes and mixes.

§II-A1 recounts that a MemCached-like micro-service's workload metric
was "noisy because the workload was measuring requests to multiple
tables.  After splitting workload into two metrics for each table, both
exhibited a linear relationship with CPU."  To reproduce that failure
mode and its fix we model workloads as a *mix* of request classes with
heterogeneous per-request processing costs.  When the mix proportions
drift over time, the aggregate request counter decorrelates from CPU;
per-class counters restore the linear relationship.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

import numpy as np


#: Bounds of the multiplicative per-window share jitter.
_JITTER = (0.97, 1.03)


def _frozen_array(values: Sequence[float], dtype=float) -> np.ndarray:
    """An immutable ndarray for per-mix constants shared across calls."""
    array = np.asarray(values, dtype=dtype)
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class RequestClass:
    """One class of requests (e.g. one table of a key-value store).

    ``cpu_cost`` is the percentage points of one server's CPU consumed
    per request/second of this class; ``bytes_per_request`` drives the
    network counters; ``latency_weight`` scales the class's contribution
    to queueing delay.
    """

    name: str
    cpu_cost: float
    bytes_per_request: float = 2_000.0
    latency_weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("request class name must be non-empty")
        if self.cpu_cost < 0:
            raise ValueError("cpu_cost must be non-negative")
        if self.bytes_per_request < 0:
            raise ValueError("bytes_per_request must be non-negative")


@dataclass(frozen=True)
class RequestMix:
    """A set of request classes with baseline proportions.

    ``drift`` controls how far the mix wanders over time: 0 keeps the
    proportions fixed (aggregate counter stays linear with CPU), while
    larger values let the shares swing, reproducing the noisy-metric
    pathology that §II-A1's validation loop detects.
    """

    classes: Tuple[RequestClass, ...]
    proportions: Tuple[float, ...]
    drift: float = 0.0

    def __post_init__(self) -> None:
        if len(self.classes) != len(self.proportions):
            raise ValueError("classes and proportions must have equal length")
        if not self.classes:
            raise ValueError("a request mix needs at least one class")
        total = sum(self.proportions)
        if total <= 0:
            raise ValueError("proportions must sum to a positive value")
        if abs(total - 1.0) > 1e-9:
            normalised = tuple(p / total for p in self.proportions)
            object.__setattr__(self, "proportions", normalised)
        if not 0.0 <= self.drift < 1.0:
            raise ValueError("drift must be in [0, 1)")

    @classmethod
    def single(cls, name: str = "default", cpu_cost: float = 0.03) -> "RequestMix":
        """A one-class mix (the common, well-instrumented case)."""
        return cls(
            classes=(RequestClass(name=name, cpu_cost=cpu_cost),),
            proportions=(1.0,),
        )

    @property
    def class_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.classes)

    # ------------------------------------------------------------------
    # Per-mix constants, computed once and shared by every call.
    # ``cached_property`` stores into the instance ``__dict__`` directly,
    # which works on a frozen dataclass; the arrays are marked read-only
    # because ``shares_at``/``shares_block`` hand them out as-is on the
    # drift-free fast path.
    # ------------------------------------------------------------------
    @property
    def drifts(self) -> bool:
        """Whether class shares move (and draw jitter) window to window."""
        return self.drift != 0.0 and len(self.classes) > 1

    @cached_property
    def proportions_array(self) -> np.ndarray:
        """Baseline proportions as an immutable float vector."""
        return _frozen_array(self.proportions)

    @cached_property
    def cpu_costs(self) -> np.ndarray:
        """Per-class ``cpu_cost`` in class order (immutable)."""
        return _frozen_array([c.cpu_cost for c in self.classes])

    @cached_property
    def bytes_per_request(self) -> np.ndarray:
        """Per-class ``bytes_per_request`` in class order (immutable)."""
        return _frozen_array([c.bytes_per_request for c in self.classes])

    @cached_property
    def latency_weights(self) -> np.ndarray:
        """Per-class ``latency_weight`` in class order (immutable)."""
        return _frozen_array([c.latency_weight for c in self.classes])

    @cached_property
    def _drift_phases(self) -> np.ndarray:
        return _frozen_array(np.arange(len(self.classes)) * 2.3)

    @cached_property
    def _drift_periods(self) -> np.ndarray:
        return _frozen_array(700.0 + 180.0 * np.arange(len(self.classes)))

    @cached_property
    def _by_name(self) -> Dict[str, RequestClass]:
        return {c.name: c for c in self.classes}

    def mean_cpu_cost(self) -> float:
        """Expected CPU cost per request under the baseline proportions."""
        return float(
            sum(c.cpu_cost * p for c, p in zip(self.classes, self.proportions))
        )

    def shares_at(
        self,
        window: int,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Class shares for one window, with slow sinusoidal drift.

        The drift is deterministic in ``window`` (plus optional jitter)
        so traces remain reproducible under a fixed seed.
        """
        base = self.proportions_array
        if not self.drifts:
            return base
        # Each class share oscillates with its own period; shares are
        # renormalised so they remain a distribution.
        wobble = self.drift * np.sin(
            2.0 * np.pi * window / self._drift_periods + self._drift_phases
        )
        shares = np.clip(base * (1.0 + wobble), 1e-6, None)
        if rng is not None:
            shares *= rng.uniform(*_JITTER, size=shares.size)
        return shares / shares.sum()

    def shares_block(
        self,
        windows: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """(n_windows, n_classes) class-share matrix for a window block.

        Row ``i`` equals ``shares_at(windows[i], rng)`` float-for-float:
        the sinusoidal drift is evaluated on the whole window vector at
        once, and the jitter is one ``rng.uniform`` call for the whole
        block, which consumes the generator stream in exactly the order
        the per-window calls would (row-major, one row per window).
        Drift-free (or single-class) mixes draw nothing, like
        :meth:`shares_at`.
        """
        windows = np.asarray(windows, dtype=np.int64)
        base = self.proportions_array
        if not self.drifts:
            return np.broadcast_to(base, (windows.size, base.size))
        wobble = self.drift * np.sin(
            2.0 * np.pi * windows[:, None] / self._drift_periods
            + self._drift_phases
        )
        shares = np.clip(base * (1.0 + wobble), 1e-6, None)
        if rng is not None:
            shares *= rng.uniform(*_JITTER, size=shares.shape)
        return shares / shares.sum(axis=1, keepdims=True)

    def share_draws(self, n_windows: int) -> list:
        """The generator calls :meth:`shares_block` makes for a block,
        as ``(method, parameters, size)``: one jitter fill, or none."""
        if not self.drifts:
            return []
        return [("uniform", _JITTER, (n_windows, len(self.classes)))]

    def cpu_for(self, class_rps: Dict[str, float]) -> float:
        """Ground-truth CPU (percentage points) for a per-class volume."""
        by_name = self._by_name
        total = 0.0
        for name, rps in class_rps.items():
            if name not in by_name:
                raise KeyError(f"unknown request class {name!r}")
            total += by_name[name].cpu_cost * rps
        return total
