"""Performance-counter taxonomy.

The paper's measurement substrate samples OS performance counters every
100 ns and averages them over 120-second windows (§III).  Fig 2 plots
six of those counters against workload; we reproduce the same taxonomy
here.  Counters fall into three behavioural classes the paper calls
out:

* **workload-linear** counters (CPU, network bytes/packets) track the
  request rate tightly and are candidates for the limiting resource;
* **noisy** counters (disk reads, memory paging) show vertical bands —
  wide variation at a fixed workload — because they are dominated by
  background activity;
* **steady-state** counters (queue lengths, error counts) sit near a
  constant in normal operation and suit anomaly detection instead.
"""

from __future__ import annotations

import enum

#: Window length over which raw samples are averaged before storage.
#: "averaged over a 120 s window ... selected to be as large as possible
#: to minimize the cost of storage" (§III).
WINDOW_SECONDS: int = 120


class Counter(enum.Enum):
    """Every counter the simulated servers expose.

    The values are the human-readable names used in reports; they match
    the y-axis titles of Fig 2 where applicable.
    """

    # Workload counters (requests per second), one per request class.
    # Pool-level workload is the REQUESTS counter; per-class counters
    # are named dynamically via :func:`workload_counter`.
    REQUESTS = "Requests/sec"

    # Resource counters (Fig 2).
    PROCESSOR_UTILIZATION = "Processor Utilization"
    NETWORK_BYTES_TOTAL = "Network Bytes Total"
    NETWORK_PACKETS = "Network Packets/sec"
    DISK_READ_BYTES = "Disk Read Bytes/sec"
    DISK_QUEUE_LENGTH = "Disk Queue Length"
    MEMORY_PAGES = "Memory Pages/sec"
    MEMORY_WORKING_SET = "Memory Working Set Bytes"

    # QoS counters.
    LATENCY_P95 = "Latency 95th Percentile (ms)"
    LATENCY_P50 = "Latency Median (ms)"
    ERRORS = "Errors/sec"

    # Operational counters.
    AVAILABILITY = "Server Online"  # 1.0 online for the window, else 0.0

    @property
    def is_resource(self) -> bool:
        return self in _RESOURCE_COUNTERS

    @property
    def is_qos(self) -> bool:
        return self in (Counter.LATENCY_P95, Counter.LATENCY_P50, Counter.ERRORS)


_RESOURCE_COUNTERS = frozenset(
    {
        Counter.PROCESSOR_UTILIZATION,
        Counter.NETWORK_BYTES_TOTAL,
        Counter.NETWORK_PACKETS,
        Counter.DISK_READ_BYTES,
        Counter.DISK_QUEUE_LENGTH,
        Counter.MEMORY_PAGES,
        Counter.MEMORY_WORKING_SET,
    }
)


def workload_counter(request_class: str) -> str:
    """Name of the per-request-class workload counter.

    §II-A1's MemCached-like example needed the aggregate request metric
    split into one workload counter per table before the linear CPU
    relationship emerged; these derived counter names support that
    splitting step.
    """
    if not request_class:
        raise ValueError("request_class must be non-empty")
    return f"Requests/sec[{request_class}]"
