"""repro — black-box capacity-headroom right-sizing for global online services.

A full reproduction of Verbowski et al., "Right-sizing Server Capacity
Headroom for Global Online Services" (ICDCS 2018): the four-step
black-box capacity-planning methodology, a simulated geo-distributed
micro-service fleet standing in for the paper's proprietary 100K-server
substrate, baseline planners, and the analyses behind every table and
figure in the paper's evaluation.

Quickstart::

    from repro.cluster.builders import build_paper_fleet
    from repro.cluster.simulation import Simulator
    from repro.core.planner import CapacityPlanner
    from repro.core.slo import QoSRequirement

    fleet = build_paper_fleet(servers_per_deployment=8)
    simulator = Simulator(fleet, seed=7)
    simulator.run_days(2)

    qos = {p: QoSRequirement(latency_p95_ms=60.0) for p in fleet.pool_ids}
    planner = CapacityPlanner(simulator.store, qos)
    print(planner.plan().render_savings_table())
"""

__version__ = "0.1.0"
