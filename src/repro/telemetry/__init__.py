"""Measurement substrate: perf counters, time series and the metric store.

The planner side of the library (``repro.core``) is black-box by design:
it may only observe the fleet through the windowed counter samples that
land in a :class:`~repro.telemetry.store.MetricStore` — exactly the
visibility the paper's authors had into their production service
(performance counters averaged over 120 s windows, §III).
"""

from repro.telemetry.counters import (
    Counter,
    CounterSample,
    WINDOW_SECONDS,
    workload_counter,
)
from repro.telemetry.series import TimeSeries
from repro.telemetry.sharding import BACKENDS, ShardedMetricStore
from repro.telemetry.store import MetricStore, ServerInterner
from repro.telemetry.transport import TcpTransport
from repro.telemetry.workers import ShardServer, TcpShardClient

__all__ = [
    "BACKENDS",
    "TcpTransport",
    "ShardServer",
    "TcpShardClient",
    "Counter",
    "CounterSample",
    "WINDOW_SECONDS",
    "workload_counter",
    "TimeSeries",
    "MetricStore",
    "ServerInterner",
    "ShardedMetricStore",
]
