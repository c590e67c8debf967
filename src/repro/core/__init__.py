"""The paper's primary contribution: black-box capacity planning.

Implements the four-step methodology of Fig 1:

1. **Measure** (:mod:`~repro.core.metric_validation`,
   :mod:`~repro.core.grouping`) — validate workload metrics against the
   limiting resource and identify capacity-planning server groups.
2. **Optimize** (:mod:`~repro.core.curves`, :mod:`~repro.core.rsm`,
   :mod:`~repro.core.natural_experiments`,
   :mod:`~repro.core.headroom`) — fit the workload/resource/QoS
   relationships from history, natural experiments and RSM-driven
   reduction experiments, then right-size each pool's headroom.
3. **Model** (:mod:`repro.workload.synthetic`) — reproducible synthetic
   workloads matching production response characteristics.
4. **Validate** (:mod:`~repro.core.regression_analysis`) — offline A/B
   regression gates for every change before deployment.

Everything here is *black-box*: the only inputs are telemetry queries
against a :class:`~repro.telemetry.store.MetricStore` and the
experiment interventions a service operator could perform.
"""
