"""Production-system simulator (ground truth).

This package stands in for the proprietary 100K-server fleet the paper
measured.  It simulates datacenters, micro-service pools, and servers
whose resource usage and QoS follow ground-truth models the planner
never sees — preserving the black-box discipline: ``repro.core`` only
observes the fleet through the telemetry the simulator emits.
"""
