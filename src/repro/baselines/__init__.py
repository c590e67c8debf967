"""Baseline capacity-planning approaches the paper argues against.

* :mod:`~repro.baselines.queuing` — the white-box queuing-theory
  planner (M/M/c / Erlang-C): accurate only while its hand-maintained
  service-time model matches reality (§I: "models based on simplified
  assumptions are either inaccurate, or are quickly invalidated").
* :mod:`~repro.baselines.autoscaler` — reactive dynamic allocation:
  ignores provisioning lag at its peril (§I's second objection).
* :mod:`~repro.baselines.static_peak` — provision for peak plus a fixed
  headroom fudge factor: the industry default the paper's savings are
  measured against.
"""
