"""Streaming simulation: an unbounded clock loop over a batch core.

Both related fleet simulators are *step-forever* loops — a clock
advances, demand arrives, state updates, repeat — while ours was
batch-only: fixed horizon, memoized full-recompute queries.
:class:`StreamingSimulator` closes that gap without forking the
engine: it drives the existing :class:`~repro.cluster.simulation.\
Simulator` one emission block at a time via
:meth:`~repro.cluster.simulation.Simulator.run_block`, which issues
*exactly* the call sequence one big ``run()`` of the same horizon
would — so streamed telemetry is bit-identical to the batch run by
construction, on every shard backend.

Around that core the loop adds the three things a run-for-days fleet
needs:

* **Incremental aggregates** — after each block the store's
  :meth:`seal_through` extends the tracked per-window aggregate
  series, so operator queries over sealed history are served from the
  maintained series instead of re-gathering (and re-reading spill)
  per query.
* **Rolling retention** — windows older than ``retain_windows`` are
  evicted to the store's spill archive each block; hot memory stays
  bounded by the retained span while queries that reach below the
  watermark still merge the archive back exactly.
* **An online alarm** — an
  :class:`~repro.core.regression_analysis.OnlineRegressionAlarm`
  observed once per sealed block, latching a named
  :class:`~repro.core.regression_analysis.RegressionAlert` within a
  bounded number of blocks of a mid-stream regression.

The loop runs until ``max_windows`` or ``KeyboardInterrupt`` (SIGINT:
the ``repro simulate --stream`` entry point), then reconciles
per-server state exactly like a finishing batch run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.simulation import Simulator
from repro.core.regression_analysis import OnlineRegressionAlarm, RegressionAlert
from repro.telemetry.counters import Counter
from repro.telemetry.query_server import LiveQuerySurface, QueryServer

#: The counters the online alarm's response profiles are fitted from;
#: tracked incrementally (mean) so per-block alarm evaluation never
#: re-gathers or touches spill.
ALARM_COUNTERS = (
    Counter.REQUESTS.value,
    Counter.PROCESSOR_UTILIZATION.value,
    Counter.LATENCY_P95.value,
    Counter.MEMORY_WORKING_SET.value,
)


@dataclass
class StreamingReport:
    """What a streaming run did: progress, retention, and verdicts."""

    #: Windows simulated by this ``run`` call.
    windows: int = 0
    #: Blocks the clock loop advanced.
    blocks: int = 0
    #: Rows moved to the spill archive by rolling retention.
    evicted_rows: int = 0
    #: Every alert the online alarm raised (latched: at most one per
    #: alarm, kept in firing order).
    alerts: List[RegressionAlert] = field(default_factory=list)
    #: ``"max-windows"`` or ``"interrupt"``.
    stopped_by: str = "max-windows"


class StreamingSimulator:
    """Drive a :class:`Simulator` as an unbounded block-clock loop.

    Parameters
    ----------
    sim:
        The simulator to stream.  Its ``config.block_windows`` is the
        clock tick: every loop iteration advances one emission block
        (so ``block_windows=1`` streams per window).
    retain_windows:
        Keep only the trailing N windows hot; older rows are evicted
        to the store's spill archive after each block.  ``None``
        disables retention (everything stays hot, like batch mode).
    alarm:
        An :class:`OnlineRegressionAlarm` observed once per sealed
        block.  Its profile counters are registered as tracked (mean)
        aggregates so each observation reads the incrementally
        maintained series.
    track:
        Extra aggregates to maintain incrementally: an iterable of
        ``(pool_id, counter, datacenter_id, reducer)`` tuples passed
        to the store's ``track_aggregate``.
    query_listen:
        ``host:port`` to serve live operator queries on (port 0 picks
        an ephemeral port — read it back from :attr:`query_address`).
        Starts a :class:`~repro.telemetry.query_server.QueryServer`
        whose sessions share one read-only
        :class:`~repro.telemetry.query_server.LiveQuerySurface` over
        ``sim.store``.  The clock loop holds the store's lock across
        every whole block, so readers observe only sealed block
        boundaries — a live answer for any window ``w <=
        sealed_through`` is bit-identical to a finished batch twin.
        The server outlives :meth:`run` (so a finished run stays
        queryable); call :meth:`close` to stop it.
    """

    def __init__(
        self,
        sim: Simulator,
        retain_windows: Optional[int] = None,
        alarm: Optional[OnlineRegressionAlarm] = None,
        track: Sequence[Tuple[str, str, Optional[str], str]] = (),
        query_listen: Optional[str] = None,
    ) -> None:
        if retain_windows is not None and retain_windows < 1:
            raise ValueError("retain_windows must be >= 1 (or None)")
        self.sim = sim
        self.retain_windows = retain_windows
        self.alarm = alarm
        self._actions: Dict[int, List[Callable[[], None]]] = {}
        store = sim.store
        for pool_id, counter, datacenter_id, reducer in track:
            store.track_aggregate(pool_id, counter, datacenter_id, reducer)
        if alarm is not None:
            for counter in ALARM_COUNTERS:
                store.track_aggregate(
                    alarm.pool_id, counter, alarm.datacenter_id, "mean"
                )
        #: Live progress mirrored for the query surface, updated under
        #: the store lock at each block boundary: the sealed watermark,
        #: windows/blocks advanced, and every latched alert so far.
        self.sealed_window: int = -1
        self.windows: int = 0
        self.blocks: int = 0
        self.alerts: List[RegressionAlert] = []
        self._query_server: Optional[QueryServer] = None
        if query_listen is not None:
            surface = LiveQuerySurface(store, streamer=self)
            self._query_server = QueryServer(surface, address=query_listen)
            self._query_server.start()

    @property
    def query_address(self) -> Optional[str]:
        """The query server's bound ``host:port`` (None when not serving)."""
        if self._query_server is None:
            return None
        return self._query_server.address

    def close(self) -> None:
        """Stop the query server, if one is running (idempotent)."""
        if self._query_server is not None:
            self._query_server.stop()

    def schedule(self, window: int, action: Callable[[], None]) -> None:
        """Run ``action`` before the block containing ``window`` starts.

        The streaming fault/rollout hook: schedule a
        ``sim.set_version(...)`` to inject a mid-stream regression, a
        ``resize_pool`` to model a capacity change, and so on.
        Actions fire at block granularity — before the first block
        whose window range includes ``window``.
        """
        if window < 0:
            raise ValueError("window must be non-negative")
        self._actions.setdefault(window, []).append(action)

    def _fire_due_actions(self, next_block_end: int) -> None:
        due = [w for w in self._actions if w < next_block_end]
        for window in sorted(due):
            for action in self._actions.pop(window):
                action()

    def run(self, max_windows: Optional[int] = None) -> StreamingReport:
        """Stream blocks until ``max_windows`` (or forever until SIGINT).

        Returns a :class:`StreamingReport`; per-server state is
        reconciled (``sync_server_state``) on every exit path, so the
        fleet is inspectable after an interrupt too.
        """
        if max_windows is not None and max_windows < 0:
            raise ValueError("max_windows must be non-negative (or None)")
        sim = self.sim
        store = sim.store
        block = max(1, sim.config.block_windows)
        report = StreamingReport()
        try:
            while True:
                step = block
                if max_windows is not None:
                    step = min(step, max_windows - report.windows)
                    if step <= 0:
                        report.stopped_by = "max-windows"
                        break
                # The whole block span — ingest, seal, alarm, evict —
                # mutates under the store lock, so a live query-server
                # reader only ever observes sealed block boundaries
                # (every visible window final), never a half-ingested
                # block.  Between iterations the lock is free and
                # readers drain.
                with store.lock:
                    self._fire_due_actions(sim.current_window + step)
                    sim.run_block(step)
                    report.windows += step
                    report.blocks += 1
                    sealed = sim.current_window - 1
                    store.seal_through(sealed)
                    if self.alarm is not None:
                        alert = self.alarm.observe(store, sealed)
                        if alert is not None:
                            report.alerts.append(alert)
                            self.alerts.append(alert)
                    if self.retain_windows is not None:
                        cutoff = sim.current_window - self.retain_windows
                        if cutoff > 0:
                            report.evicted_rows += int(
                                store.evict_windows(cutoff) or 0
                            )
                    self.sealed_window = sealed
                    self.windows = report.windows
                    self.blocks = report.blocks
        except KeyboardInterrupt:
            report.stopped_by = "interrupt"
        finally:
            sim.sync_server_state()
        return report
