"""Measurement substrate: perf counters, time series and the metric store.

The planner side of the library (``repro.core``) is black-box by design:
it may only observe the fleet through the windowed counter samples that
land in a :class:`~repro.telemetry.store.MetricStore` — exactly the
visibility the paper's authors had into their production service
(performance counters averaged over 120 s windows, §III).
"""
