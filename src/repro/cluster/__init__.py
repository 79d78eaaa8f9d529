"""Cluster substrate: devices and utilisation metrics.

The discrete-event simulator lives in :mod:`repro.sim`;
:class:`SimResult` / :class:`TaskRecord` are re-exported here.
"""

from repro.cluster.device import (
    Cluster,
    Device,
    heterogeneous_cluster,
    pi_cluster,
    raspberry_pi,
)
from repro.cluster.metrics import DeviceReport, UtilizationTable, utilization_table
from repro.sim.result import SimResult, TaskRecord

__all__ = [
    "Cluster",
    "Device",
    "DeviceReport",
    "SimResult",
    "TaskRecord",
    "UtilizationTable",
    "heterogeneous_cluster",
    "pi_cluster",
    "raspberry_pi",
    "utilization_table",
]
