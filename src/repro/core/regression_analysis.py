"""Step 4 — offline regression analysis (§II-D, Fig 16).

"Our system uses two server pools of the same size and hardware, one
running with the change and the other without.  We precisely generate
identical workloads to each pool enabling us to detect changes with
high confidence and precision.  We make small workload increments over
time to obtain a broad set of data for latency and resource
utilization.  Finally, we compare the pool results to understand the
impact of the change."

A :class:`ResponseProfile` is the fitted (CPU, latency, memory) response
of one pool over a workload ramp; the :class:`RegressionGate` compares a
change profile against a baseline profile and issues a verdict *before*
the change reaches production.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.stats.regression import LinearModel, PolynomialModel, fit_linear, fit_polynomial
from repro.telemetry.counters import Counter
from repro.telemetry.store import MetricStore

#: A working set growing faster than this (0.1 MB per window) is a leak.
LEAK_SLOPE_BYTES_PER_WINDOW = 1e5


@dataclass(frozen=True)
class ResponseProfile:
    """Fitted response of one pool to a ramped synthetic workload."""

    label: str
    pool_id: str
    datacenter_id: Optional[str]
    cpu_model: LinearModel
    latency_model: PolynomialModel
    memory_slope_bytes_per_window: float
    rps_range: Tuple[float, float]
    #: Raw per-level latency samples, for Fig 16-style box plots:
    #: level (rounded RPS) -> latency values.
    latency_by_level: Dict[float, np.ndarray] = field(default_factory=dict)

    def forecast_latency(self, rps_per_server: float) -> float:
        return self.latency_model.predict_scalar(rps_per_server)

    def forecast_cpu(self, rps_per_server: float) -> float:
        return self.cpu_model.predict_scalar(rps_per_server)

    @property
    def has_memory_leak(self) -> bool:
        """Working set growing steadily over the run indicates a leak."""
        return self.memory_slope_bytes_per_window > LEAK_SLOPE_BYTES_PER_WINDOW


def profile_response(
    store: MetricStore,
    pool_id: str,
    label: str,
    datacenter_id: Optional[str] = None,
    start: Optional[int] = None,
    stop: Optional[int] = None,
    n_levels: int = 12,
) -> ResponseProfile:
    """Fit a pool's response profile from ramp telemetry."""
    rps = store.pool_window_aggregate(
        pool_id, Counter.REQUESTS.value, datacenter_id=datacenter_id,
        start=start, stop=stop,
    )
    cpu = store.pool_window_aggregate(
        pool_id, Counter.PROCESSOR_UTILIZATION.value, datacenter_id=datacenter_id,
        start=start, stop=stop,
    )
    latency = store.pool_window_aggregate(
        pool_id, Counter.LATENCY_P95.value, datacenter_id=datacenter_id,
        start=start, stop=stop,
    )
    x_cpu, y_cpu = rps.align_with(cpu)
    x_lat, y_lat = rps.align_with(latency)
    if x_cpu.size < 10 or x_lat.size < 10:
        raise ValueError(f"insufficient ramp telemetry for pool {pool_id!r}")

    cpu_model = fit_linear(x_cpu, y_cpu)
    latency_model = fit_polynomial(x_lat, y_lat, degree=2)

    # Memory slope: pool-mean working set vs window index.
    memory = store.pool_window_aggregate(
        pool_id, Counter.MEMORY_WORKING_SET.value, datacenter_id=datacenter_id,
        start=start, stop=stop,
    )
    if len(memory) >= 10:
        memory_fit = fit_linear(memory.windows.astype(float), memory.values)
        memory_slope = memory_fit.slope
    else:
        memory_slope = 0.0

    # Bucket latencies by workload level for box-plot style read-outs.
    latency_by_level: Dict[float, List[float]] = {}
    if x_lat.size:
        lo, hi = float(x_lat.min()), float(x_lat.max())
        edges = np.linspace(lo, hi, n_levels + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        idx = np.clip(np.digitize(x_lat, edges) - 1, 0, n_levels - 1)
        for i, center in enumerate(centers):
            values = y_lat[idx == i]
            if values.size:
                latency_by_level[float(np.round(center, 2))] = values

    return ResponseProfile(
        label=label,
        pool_id=pool_id,
        datacenter_id=datacenter_id,
        cpu_model=cpu_model,
        latency_model=latency_model,
        memory_slope_bytes_per_window=memory_slope,
        rps_range=(float(x_lat.min()), float(x_lat.max())),
        latency_by_level={k: np.asarray(v) for k, v in latency_by_level.items()},
    )


@dataclass(frozen=True)
class RegressionReport:
    """Verdict of comparing a change against its baseline."""

    baseline: ResponseProfile
    change: ResponseProfile
    workload_grid: np.ndarray
    latency_delta_ms: np.ndarray
    cpu_delta_pct: np.ndarray
    max_latency_regression_ms: float
    max_cpu_regression_pct: float
    memory_leak_fixed: bool
    memory_leak_introduced: bool
    latency_regressed: bool
    cpu_regressed: bool

    @property
    def passed(self) -> bool:
        return not (
            self.latency_regressed or self.cpu_regressed or self.memory_leak_introduced
        )

    def capacity_impact_fraction(self, latency_limit_ms: float) -> float:
        """Capacity cost of the change at a given latency SLO.

        Compares the max admissible per-server RPS before and after; a
        positive value means the change needs that much more capacity.
        """
        grid = self.workload_grid
        base_ok = grid[self.baseline.latency_model.predict(grid) <= latency_limit_ms]
        change_ok = grid[self.change.latency_model.predict(grid) <= latency_limit_ms]
        if base_ok.size == 0:
            return 0.0
        base_max = float(base_ok.max())
        change_max = float(change_ok.max()) if change_ok.size else 0.0
        if base_max <= 0:
            return 0.0
        return 1.0 - change_max / base_max

    def describe(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"regression gate: {verdict} "
            f"({self.baseline.label} -> {self.change.label})",
            f"  max latency regression: {self.max_latency_regression_ms:+.1f} ms",
            f"  max CPU regression: {self.max_cpu_regression_pct:+.1f} pts",
            f"  memory leak fixed: {self.memory_leak_fixed}, "
            f"introduced: {self.memory_leak_introduced}",
        ]
        return "\n".join(lines)


class RegressionGate:
    """Compares response profiles and gates deployments."""

    def __init__(
        self,
        latency_tolerance_ms: float = 2.0,
        cpu_tolerance_pct: float = 1.0,
        grid_points: int = 50,
    ) -> None:
        if latency_tolerance_ms < 0 or cpu_tolerance_pct < 0:
            raise ValueError("tolerances must be non-negative")
        self.latency_tolerance_ms = latency_tolerance_ms
        self.cpu_tolerance_pct = cpu_tolerance_pct
        self.grid_points = grid_points

    def compare(
        self,
        baseline: ResponseProfile,
        change: ResponseProfile,
    ) -> RegressionReport:
        """Score the change across the common workload range."""
        lo = max(baseline.rps_range[0], change.rps_range[0])
        hi = min(baseline.rps_range[1], change.rps_range[1])
        if hi <= lo:
            raise ValueError("profiles have no overlapping workload range")
        grid = np.linspace(lo, hi, self.grid_points)
        latency_delta = change.latency_model.predict(grid) - baseline.latency_model.predict(grid)
        cpu_delta = change.cpu_model.predict(grid) - baseline.cpu_model.predict(grid)
        max_latency = float(latency_delta.max())
        max_cpu = float(cpu_delta.max())
        return RegressionReport(
            baseline=baseline,
            change=change,
            workload_grid=grid,
            latency_delta_ms=latency_delta,
            cpu_delta_pct=cpu_delta,
            max_latency_regression_ms=max_latency,
            max_cpu_regression_pct=max_cpu,
            memory_leak_fixed=baseline.has_memory_leak and not change.has_memory_leak,
            memory_leak_introduced=not baseline.has_memory_leak and change.has_memory_leak,
            latency_regressed=max_latency > self.latency_tolerance_ms,
            cpu_regressed=max_cpu > self.cpu_tolerance_pct,
        )


@dataclass(frozen=True)
class RegressionAlert:
    """A latched online-alarm verdict: what fired, where, and when."""

    #: ``"latency-regression"``, ``"cpu-regression"`` or ``"memory-leak"``.
    name: str
    pool_id: str
    #: The sealed window index at which the alarm fired.
    window: int
    report: RegressionReport
    detail: str


#: The counters the online alarm's response profiles are fitted from,
#: in the order its ring holds them: the workload (x of both response
#: fits), the CPU and latency responses, and the working set.  A
#: streaming driver tracks them incrementally (mean), so an
#: observation never re-gathers rows or touches spill.
ALARM_COUNTERS = (
    Counter.REQUESTS.value,
    Counter.PROCESSOR_UTILIZATION.value,
    Counter.LATENCY_P95.value,
    Counter.MEMORY_WORKING_SET.value,
)

#: Unit roundoff of float64.
_ROUNDOFF = 2.0 ** -53

#: Roundings the skip test allows per unit of a fit's error factor
#: (see :meth:`OnlineRegressionAlarm._clearly_passes`).
_SLACK_ROUNDINGS = 16.0


def _inverse(m: List[List[float]]) -> Optional[List[List[float]]]:
    """Inverse of a positive definite 2×2 or 3×3 matrix by cofactors;
    ``None`` when its determinant is not positive."""
    if len(m) == 2:
        (a, b), (c, d) = m
        adjugate = [[d, -b], [-c, a]]
        det = a * d - b * c
    else:
        (a, b, c), (d, e, f), (g, h, i) = m
        adjugate = [
            [e * i - f * h, c * h - b * i, b * f - c * e],
            [f * g - d * i, a * i - c * g, c * d - a * f],
            [d * h - e * g, b * g - a * h, a * e - b * d],
        ]
        det = a * adjugate[0][0] + b * adjugate[1][0] + c * adjugate[2][0]
    if not det > 0:
        return None
    return [[v / det for v in row] for row in adjugate]


def _horner(coefficients: Iterable[float], x: float) -> float:
    """A polynomial (highest power first) at ``x``, in Python floats."""
    value = 0.0
    for coefficient in coefficients:
        value = value * x + coefficient
    return value


def _unit_range_fit(
    x: np.ndarray, y: np.ndarray, degree: int
) -> Optional[Tuple[List[float], float, float, float]]:
    """Least squares of ``y`` on the powers ``u**k``, ``k <= degree`` (1 or 2).

    ``u = (x - c) / h``, with ``c`` and ``h`` the centre and half-width
    of ``x``'s range, so ``u`` spans [-1, 1] and the normal equations —
    built from Σuᵏ for k ≤ 2·degree and Σuᵏy for k ≤ degree — stay well
    conditioned whatever the offset of ``x``.  Returns
    ``(coefficients, c, h, error)``: the coefficients, lowest power
    first, and the factor by which ``2⁻⁵³ · scale`` bounds how far a
    value of this fit on ``x``'s range may sit from the same fit solved
    on raw ``x`` by ``lstsq`` / ``polyfit``.  ``None`` when ``x`` has
    no spread or the normal matrix is singular.
    """
    x_lo, x_hi = float(x.min()), float(x.max())
    c, h = 0.5 * (x_lo + x_hi), 0.5 * (x_hi - x_lo)
    if not h > 0:
        return None
    u = (x - c) / h
    sums = [float(u.size), float(u.sum()), float(u @ u)]
    moments = [float(y.sum()), float(u @ y)]
    if degree == 2:
        u2 = u * u
        sums += [float(u2 @ u), float(u2 @ u2)]
        moments.append(float(u2 @ y))
    normal = [sums[i : i + degree + 1] for i in range(degree + 1)]
    inverse = _inverse(normal)
    if inverse is None:
        return None
    coefficients = [sum(v * t for v, t in zip(row, moments)) for row in inverse]
    # κ of the design in u, from κ_F of the normal matrix (≥ its κ₂ =
    # κ_u²); and a bound on κ₁ of the change of basis between u and raw
    # x (its columns sum to (|c| + h)ᵏ, its inverse's to
    # ((1 + |c|) / h)ᵏ), so κ_u·κ_basis bounds the raw design's κ.
    kappa = math.sqrt(math.sqrt(
        sum(v * v for row in normal for v in row)
        * sum(v * v for row in inverse for v in row)
    ))
    basis = (1 + abs(c) + h) * max(1.0, (1 + abs(c)) / h)
    kappa_basis = basis * basis if degree == 2 else basis
    return coefficients, c, h, u.size * kappa * (kappa + kappa_basis)


class OnlineRegressionAlarm:
    """The :class:`RegressionGate` run *online*, once per sealed block.

    The streaming counterpart of
    ``benchmarks/bench_fig16_regression_gate.py``: the first
    ``baseline_windows`` of the live run are fitted once into the
    baseline :class:`ResponseProfile`; from then on each
    :meth:`observe` gates the trailing ``recent_windows`` against it.
    The first failing verdict is latched as a named
    :class:`RegressionAlert` — a long-running fleet raises it within a
    bounded number of blocks of a mid-stream regression (bounded by
    ``recent_windows`` plus one block: once the trailing window is fully
    post-change, the shifted response curve is what gets fitted).

    An observation reads only the windows sealed since the previous
    one.  The alarm keeps a ring of ``recent_windows`` rows, each
    window's pool means of :data:`ALARM_COUNTERS`, with a window that
    has no sample of a counter marked missing for that counter (so
    pairs align per pair, as :meth:`TimeSeries.align_with` aligns
    them).  From the ring it solves the two response fits in closed
    form and bounds the gate's deltas by their *continuous* maximum
    over the common workload range, which is at least the gate's grid
    maximum: a conservative filter.  When every bound clears its
    tolerance by more than a rounding slack, the batch verdict is
    proved a pass and nothing is fitted.  Every other observation runs
    :func:`profile_response` and :meth:`RegressionGate.compare` on the
    trailing range, as the batch gate does, so every alert (name,
    window, detail and report) is the batch path's by construction.

    Works against any store with the query surface (single or sharded,
    any backend).  Observations before enough telemetry exists — or
    whose profile fits fail (insufficient aligned samples, no
    overlapping workload range) — are skipped, not raised: an online
    alarm must never take the ingest loop down.
    """

    def __init__(
        self,
        pool_id: str,
        datacenter_id: Optional[str] = None,
        baseline_windows: int = 240,
        recent_windows: int = 120,
        gate: Optional[RegressionGate] = None,
    ) -> None:
        if baseline_windows < 10 or recent_windows < 10:
            raise ValueError(
                "baseline_windows and recent_windows must be >= 10 "
                "(profile fits need at least 10 aligned samples)"
            )
        self.pool_id = pool_id
        self.datacenter_id = datacenter_id
        self.baseline_windows = baseline_windows
        self.recent_windows = recent_windows
        self.gate = gate if gate is not None else RegressionGate()
        self._baseline: Optional[ResponseProfile] = None
        #: The first failing verdict, latched; ``None`` while healthy.
        self.alert: Optional[RegressionAlert] = None
        #: The ring: row ``w % recent_windows`` holds window ``w`` — its
        #: index (as the float the memory fit takes), and per ring
        #: counter its pool mean and whether it had a sample.
        self._ring_windows = np.zeros(recent_windows)
        self._ring_values = np.zeros((len(ALARM_COUNTERS), recent_windows))
        self._ring_present = np.zeros(
            (len(ALARM_COUNTERS), recent_windows), dtype=bool
        )
        #: ``(store, through_window)`` the ring was last filled from.
        self._ring_source: Optional[Tuple[object, int]] = None

    @property
    def fired(self) -> bool:
        return self.alert is not None

    def observe(
        self, store, through_window: int
    ) -> Optional[RegressionAlert]:
        """Gate the trailing window range; returns the alert if it fires.

        ``through_window`` is the last window whose telemetry is
        complete (the streaming driver's sealed watermark).  Idempotent
        after firing: the latched alert stays, further observations
        return ``None``.
        """
        if self.alert is not None:
            return None
        if through_window + 1 < self.baseline_windows + self.recent_windows:
            return None
        try:
            self._slide(store, through_window)
            if self._baseline is None:
                self._baseline = profile_response(
                    store, self.pool_id, "baseline",
                    datacenter_id=self.datacenter_id,
                    start=0, stop=self.baseline_windows,
                )
            if self._clearly_passes():
                return None
            recent = profile_response(
                store, self.pool_id, "recent",
                datacenter_id=self.datacenter_id,
                start=through_window + 1 - self.recent_windows,
                stop=through_window + 1,
            )
            report = self.gate.compare(self._baseline, recent)
        except ValueError:
            # Not enough aligned telemetry yet, or disjoint workload
            # ranges (e.g. a surge): skip this observation.
            return None
        if report.passed:
            return None
        if report.latency_regressed:
            name = "latency-regression"
            detail = (
                f"max latency delta {report.max_latency_regression_ms:+.1f} ms "
                f"> {self.gate.latency_tolerance_ms:.1f} ms tolerance"
            )
        elif report.cpu_regressed:
            name = "cpu-regression"
            detail = (
                f"max CPU delta {report.max_cpu_regression_pct:+.1f} pts "
                f"> {self.gate.cpu_tolerance_pct:.1f} pts tolerance"
            )
        else:
            name = "memory-leak"
            detail = (
                "working set growing "
                f"{recent.memory_slope_bytes_per_window / 1e6:.2f} MB/window"
            )
        self.alert = RegressionAlert(
            name=name,
            pool_id=self.pool_id,
            window=through_window,
            report=report,
            detail=detail,
        )
        return self.alert

    def _slide(self, store, through_window: int) -> None:
        """Read the windows sealed since the last call into the ring."""
        size = self.recent_windows
        stop = through_window + 1
        start = stop - size
        if self._ring_source is not None:
            source, through = self._ring_source
            if source is store and through <= through_window:
                start = max(start, through + 1)
        # A read that raises leaves the ring to be refilled in full.
        self._ring_source = None
        if start < stop:
            windows = np.arange(start, stop)
            rows = windows % size
            self._ring_windows[rows] = windows
            self._ring_present[:, rows] = False
            for counter, values, present in zip(
                ALARM_COUNTERS, self._ring_values, self._ring_present
            ):
                series = store.pool_window_aggregate(
                    self.pool_id, counter, datacenter_id=self.datacenter_id,
                    start=start, stop=stop,
                )
                rows = series.windows % size
                values[rows] = series.values
                present[rows] = True
        self._ring_source = (store, through_window)

    def _clearly_passes(self) -> bool:
        """Whether the batch verdict on the ring's windows is proved a pass.

        Raises ``ValueError`` where the batch path raises too, on the
        same checks: fewer than 10 aligned samples for either response
        fit, or no workload range in common with the baseline.  ``False`` means "not
        proved": the caller refits in batch.

        The filter's fits and the batch's solve the same least-squares
        problems in float64 (unit roundoff 2⁻⁵³), the filter by normal
        equations in a centred, scaled ``u``, the batch by ``lstsq`` /
        ``polyfit`` on raw ``x``.  A backward-stable solve of n points
        puts a fitted value within about n·κ·2⁻⁵³ of the data's scale
        of the exact fit, κ the design's condition number; the normal
        equations square κ.  So the two fits' values on the common range
        differ by at most n·κ_u·(κ_u + κ_basis)·2⁻⁵³·scale, the factor
        :func:`_unit_range_fit` returns, with κ_u·κ_basis bounding the
        raw design's κ.  ``scale`` is the largest response plus the
        magnitudes of the terms both sides evaluate, which also covers
        ``polyval``'s rounding on the gate's grid.  The vertex is found
        to within rounding too, and the delta is flat there, so its
        error is second order.  A margin counts as proved only when it
        clears its tolerance by ``_SLACK_ROUNDINGS`` (16) times that
        bound: a constant factor of slack over first-order error bounds
        that are themselves worst cases.  On the benchmark's streamed
        fleets the slack stays under 1 % of each tolerance (about 0.1 %
        for latency), so it costs next to no skips.
        """
        baseline, gate = self._baseline, self.gate
        rps, cpu, latency, memory = self._ring_values
        has_rps, has_cpu, has_latency, has_memory = self._ring_present
        on_cpu = has_rps & has_cpu
        on_latency = has_rps & has_latency
        if np.count_nonzero(on_cpu) < 10 or np.count_nonzero(on_latency) < 10:
            raise ValueError(f"insufficient ramp telemetry for pool {self.pool_id!r}")
        x = rps[on_latency]
        lo = max(baseline.rps_range[0], float(x.min()))
        hi = min(baseline.rps_range[1], float(x.max()))
        if hi <= lo:
            raise ValueError("profiles have no overlapping workload range")
        with np.errstate(all="ignore"):
            return (
                self._delta_bound(
                    x, latency[on_latency],
                    baseline.latency_model.coefficients, lo, hi,
                )
                < gate.latency_tolerance_ms
                and self._delta_bound(
                    rps[on_cpu], cpu[on_cpu],
                    (baseline.cpu_model.slope, baseline.cpu_model.intercept),
                    lo, hi,
                )
                < gate.cpu_tolerance_pct
                and (
                    baseline.has_memory_leak
                    or self._memory_bound(
                        self._ring_windows[has_memory], memory[has_memory]
                    )
                    <= LEAK_SLOPE_BYTES_PER_WINDOW
                )
            )

    def _delta_bound(
        self, x, y, baseline: Tuple[float, ...], lo: float, hi: float
    ) -> float:
        """Max over [lo, hi] of the recent fit of ``y`` on ``x`` minus the
        ``baseline`` polynomial (``polyval`` order, degree 1 or 2), plus
        slack: a line peaks at an end of the range, a concave quadratic
        may also peak at its vertex."""
        degree = len(baseline) - 1
        fit = _unit_range_fit(x, y, degree)
        if fit is None:
            return math.inf
        a, c, h, error = fit
        points = [lo, hi]
        if degree == 2:
            # The delta in u is d2·u² + d1·u + d0.
            b2, b1, _b0 = baseline
            d2 = a[2] - b2 * h * h
            d1 = a[1] - (2 * b2 * c + b1) * h
            if d2 < 0:
                vertex = c - h * d1 / (2 * d2)
                if lo < vertex < hi:
                    points.append(vertex)
        delta = max(
            _horner(a[::-1], (p - c) / h) - _horner(baseline, p) for p in points
        )
        m = max(abs(lo), abs(hi))
        scale = (
            float(np.abs(y).max()) + sum(map(abs, a))
            + _horner(map(abs, baseline), m)
        )
        return delta + _SLACK_ROUNDINGS * error * _ROUNDOFF * scale

    def _memory_bound(self, windows, y) -> float:
        """The recent working-set slope per window, plus slack; 0 with
        fewer than 10 samples, as :func:`profile_response` has it."""
        if y.size < 10:
            return 0.0
        fit = _unit_range_fit(windows, y, 1)
        if fit is None:
            return math.inf
        (a0, a1), _c, h, error = fit
        scale = (float(np.abs(y).max()) + abs(a0) + abs(a1)) / h
        return a1 / h + _SLACK_ROUNDINGS * error * _ROUNDOFF * scale
