"""Cluster simulation: topologies, workloads, churn, one event engine.

The paper's simulated results (Fig. 8 capacity, Fig. 10 latency,
Table I utilisation) all come from one queueing model: deterministic-
service FIFO stages priced by the Eq. 9 cost tables.  This package is
that model's single implementation —

* :mod:`repro.sim.topology` — named :class:`NetworkLink` objects with
  bandwidth / latency / jitter / loss, ``star`` / ``mesh`` /
  ``fat-tree`` builders, shortest-path routing and per-link FIFO
  contention.  The flat :class:`~repro.cost.comm.NetworkModel` WLAN is
  the degenerate one-link topology (:meth:`Topology.bus`).
* :mod:`repro.workload.processes` — lazy :class:`ArrivalProcess`
  generators (diurnal, flash crowd, trace replay, composite) that
  scale to millions of requests without materialising them.
* :mod:`repro.sim.scenario` — :func:`simulate_scenario`, the front
  door: plan, scheme or switcher; device churn and mobility (devices
  leaving and joining mid-run) and crash-at-frame faults, all
  re-planned through one replan/degraded ladder.
* :mod:`repro.sim.engine` — the event loop itself.

:func:`repro.simulate` is :func:`simulate_scenario` plus the serving
layer's analytic micro-batching replay (``max_batch > 1``).
"""

from repro.sim.engine import run_scenario
from repro.sim.result import SimResult, SimStats, TaskRecord
from repro.sim.scenario import ChurnEvent, correlated_churn, simulate_scenario
from repro.sim.topology import NetworkLink, Topology

__all__ = [
    "ChurnEvent",
    "NetworkLink",
    "SimResult",
    "SimStats",
    "TaskRecord",
    "Topology",
    "correlated_churn",
    "run_scenario",
    "simulate_scenario",
]
