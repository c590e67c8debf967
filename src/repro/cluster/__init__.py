"""Production-system simulator (ground truth).

This package stands in for the proprietary 100K-server fleet the paper
measured.  It simulates datacenters, micro-service pools, and servers
whose resource usage and QoS follow ground-truth models the planner
never sees — preserving the black-box discipline: ``repro.core`` only
observes the fleet through the telemetry the simulator emits.
"""

from repro.cluster.hardware import HardwareSpec, GENERATION_2014, GENERATION_2017
from repro.cluster.latency import LatencyModel
from repro.cluster.server import Server, ServerArrays, ServerState, observe_pool_block
from repro.cluster.service import MicroServiceProfile, service_catalog
from repro.cluster.pool import ServerPool
from repro.cluster.datacenter import Datacenter, Fleet, PoolDeployment
from repro.cluster.deployment import SoftwareVersion
from repro.cluster.faults import (
    DatacenterOutage,
    MaintenancePolicy,
    RepurposingPolicy,
)
from repro.cluster.simulation import SimulationConfig, Simulator
from repro.cluster.builders import build_paper_fleet, build_single_pool_fleet

__all__ = [
    "HardwareSpec",
    "GENERATION_2014",
    "GENERATION_2017",
    "LatencyModel",
    "Server",
    "ServerArrays",
    "ServerState",
    "observe_pool_block",
    "MicroServiceProfile",
    "service_catalog",
    "ServerPool",
    "Datacenter",
    "Fleet",
    "PoolDeployment",
    "SoftwareVersion",
    "DatacenterOutage",
    "MaintenancePolicy",
    "RepurposingPolicy",
    "SimulationConfig",
    "Simulator",
    "build_paper_fleet",
    "build_single_pool_fleet",
]
