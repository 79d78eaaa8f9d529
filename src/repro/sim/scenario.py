"""Scenario composition: topology × workload × churn → one run.

:func:`simulate_scenario` is the one front door to the event engine
(:func:`repro.simulate` delegates to it).  The plan side is a scheme
name, a :class:`~repro.schemes.Scheme`, a ready
:class:`~repro.core.plan.PipelinePlan` or an
:class:`~repro.adaptive.switcher.AdaptiveSwitcher`; the scenario
dimensions are

* ``topology`` — a :class:`~repro.sim.topology.Topology`; transfers
  route hop by hop with per-link FIFO contention.  The default
  :meth:`Topology.bus` is the flat 50 Mbps WLAN with communication
  folded into stage service.
* ``arrivals`` — a lazy :class:`~repro.workload.ArrivalProcess` (or a
  plain list of submit times).
* ``churn`` — :class:`ChurnEvent` entries: devices leave and join
  mid-run.  :func:`correlated_churn` builds the correlated-failure
  bursts (a rack power cut, a WiFi segment dropping) that independent
  per-device fault schedules cannot express.
* ``faults`` — a :class:`~repro.runtime.faults.FaultSchedule` of
  ``crash(device, at_frame)`` entries, each firing on an arrival
  count rather than a time.

Churn and crashes re-plan the survivors through one replan/degraded
ladder — the one the fault-tolerance layer uses — emitting
``device_dead`` / ``device_join`` / ``replan`` / ``degraded`` trace
events.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cost.comm import NetworkModel, wifi_50mbps
from repro.cost.flops import CostOptions, DEFAULT_OPTIONS
from repro.runtime.timing import PlanTiming, plan_timing
from repro.runtime.trace import TraceEvent, coerce_tracer
from repro.sim.engine import Transmission, run_scenario, token_bus_transmissions
from repro.sim.topology import Topology
from repro.workload.processes import ArrivalProcess

__all__ = ["ChurnEvent", "correlated_churn", "simulate_scenario"]


@dataclass(frozen=True)
class ChurnEvent:
    """One device leaving or (re)joining the cluster at ``time``."""

    time: float
    device: str
    kind: str = "leave"

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("churn time must be non-negative")
        if self.kind not in ("leave", "join"):
            raise ValueError(
                f"churn kind must be 'leave' or 'join', not {self.kind!r}"
            )


def correlated_churn(
    devices: "Sequence[str]",
    at: float,
    stagger_s: float = 0.0,
    rejoin_after: Optional[float] = None,
) -> "Tuple[ChurnEvent, ...]":
    """A correlated failure burst: ``devices`` all leave around ``at``
    (``stagger_s`` apart, modelling detection skew), and optionally all
    rejoin ``rejoin_after`` seconds later — the rack-power-cut /
    WiFi-segment-drop pattern."""
    if not devices:
        raise ValueError("a churn burst needs at least one device")
    events: "List[ChurnEvent]" = []
    for i, device in enumerate(devices):
        leave_at = at + i * stagger_s
        events.append(ChurnEvent(leave_at, device, "leave"))
        if rejoin_after is not None:
            events.append(ChurnEvent(leave_at + rejoin_after, device, "join"))
    return tuple(sorted(events, key=lambda e: (e.time, e.device)))


def _topology_transmissions(topology: Topology, network: NetworkModel):
    """Per-stage :class:`Transmission` templates: invert the flat-model
    communication times back to bytes, then route anchor → device over
    the topology (see :meth:`PlanTiming.stage_transfers`)."""

    def for_timing(timing: PlanTiming):
        return tuple(
            tuple(
                Transmission(topology.route(src, dst), nbytes)
                for src, dst, nbytes in stage
            )
            for stage in timing.stage_transfers(network, entry=topology.entry)
        )

    return for_timing


def _crash_frames(faults) -> "Dict[str, int]":
    """``device -> first crash frame`` of a :class:`FaultSchedule`.

    Only crashes have an event-level counterpart; delays, drops and
    flaky links act inside one frame's execution, which the frame-level
    :class:`~repro.runtime.core.SimTransport` models instead.
    """
    if faults is None:
        return {}
    if faults.delays or faults.drops or faults.flaky_links:
        raise ValueError(
            "the event simulator models crash faults only; run delay, "
            "drop and flaky_link faults on the frame-level SimTransport "
            "(e.g. through repro.serve.PipelineServer)"
        )
    crash_at: "Dict[str, int]" = {}
    for c in faults.crashes:
        crash_at[c.device] = min(
            c.at_frame, crash_at.get(c.device, c.at_frame)
        )
    return crash_at


def _plan_side(
    model, target, cluster, network, options, churn_events, crash_at,
    measured_services, tracer,
):
    """Resolve the plan side into the engine's ``(initial, pick,
    on_churn)`` hooks.

    A switcher picks its active candidate per arrival.  A scheme or a
    plan runs one timing table, which crashes and churn swap through a
    single ladder: the live devices are re-planned with the scheme,
    falling back to the whole model on the fastest survivor
    (``degraded``) when the scheme cannot plan them.  A crash fires
    from the arrival hook, on the ``at_frame``-th arrival; churn fires
    at its timestamp.
    """
    from repro.adaptive.switcher import AdaptiveSwitcher
    from repro.cluster.device import Cluster
    from repro.core.plan import PipelinePlan
    from repro.runtime.faults import StageFailure
    from repro.schemes import Scheme, get_scheme
    from repro.schemes.base import PlanningError
    from repro.schemes.local import local_fallback_plan

    if isinstance(target, str):
        target = get_scheme(target)
    if isinstance(target, AdaptiveSwitcher):
        if churn_events or crash_at or measured_services is not None:
            raise ValueError(
                "churn=, faults= and measured_services= need a scheme "
                "(or a plan), not an AdaptiveSwitcher replay"
            )
        timings = target.plan_timings(model, network, options)

        def pick_active(now: float, depth: int) -> PlanTiming:
            return timings[target.on_arrival(now, queue_depth=depth).name]

        return timings[target.active.name], pick_active, None
    if isinstance(target, Scheme):
        if cluster is None:
            raise ValueError("a scheme needs cluster= to plan over")
    elif not isinstance(target, PipelinePlan):
        raise TypeError(
            "plan_or_scheme must be a PipelinePlan, Scheme, scheme name "
            f"or AdaptiveSwitcher, not {type(target).__name__}"
        )
    elif churn_events or crash_at:
        raise ValueError(
            "simulating churn or crashes needs a scheme (or scheme name) "
            "to re-plan the survivors — a bare plan cannot be rebuilt"
        )

    # -- initial live set (devices joining later start outside) -------
    names = {d.name for d in cluster} if cluster is not None else set()
    live = set(names)
    if churn_events or crash_at:
        named = {e.device for e in churn_events} | set(crash_at)
        unknown = sorted(named - names)
        if unknown:
            raise ValueError(
                f"churn or faults name devices not in the cluster: "
                f"{', '.join(unknown)}"
            )
        first_kind: "Dict[str, str]" = {}
        for event in sorted(churn_events, key=lambda e: e.time):
            first_kind.setdefault(event.device, event.kind)
        live = {name for name in names if first_kind.get(name) != "join"}
        if not live:
            raise ValueError("every device joins mid-run; none left to plan")

    if isinstance(target, Scheme):
        members = tuple(d for d in cluster if d.name in live)
        plan = target.plan(model, Cluster(members), network, options)
        base_name = target.name
    else:
        plan = target
        base_name = plan.mode
    current = plan_timing(
        model, plan, network, options, name=base_name,
        measured_services=measured_services,
    )

    def emit(kind: str, frame: int, device: str, now: float) -> None:
        if tracer is not None:
            tracer.emit(TraceEvent(kind, frame, 0, device, now, now))

    def replan(now: float, frame: int) -> PlanTiming:
        nonlocal current
        survivors = tuple(d for d in cluster if d.name in live)
        if not survivors:
            raise StageFailure("every device in the cluster is dead")
        try:
            fresh = target.plan(model, Cluster(survivors), network, options)
            kind = "replan"
        except PlanningError:
            best = max(survivors, key=lambda d: d.capacity)
            fresh = local_fallback_plan(model, best)
            kind = "degraded"
        current = plan_timing(
            model, fresh, network, options, name=f"{base_name}+{kind}"
        )
        emit(kind, frame, ",".join(sorted(names - live)), now)
        return current

    crashed: "Set[str]" = set()  # a crash is permanent: no rejoin

    def on_churn(now: float, event: ChurnEvent) -> Optional[PlanTiming]:
        leaving = event.kind == "leave"
        if leaving != (event.device in live) or event.device in crashed:
            return None  # already gone / already present / crashed
        if leaving:
            live.discard(event.device)
        else:
            live.add(event.device)
        kind = "device_dead" if leaving else "device_join"
        emit(kind, -1, event.device, now)
        return replan(now, -1)

    arrived = itertools.count()

    def pick_crashing(now: float, depth: int) -> PlanTiming:
        index = next(arrived)
        due = sorted(d for d, at in crash_at.items() if index >= at)
        for device in due:
            del crash_at[device]
        crashed.update(due)
        dying = [d for d in due if d in live]
        if not dying:
            return current
        for device in dying:
            live.discard(device)
            emit("device_dead", index, device, now)
        return replan(now, index)

    def pick_current(now: float, depth: int) -> PlanTiming:
        return current

    return (
        current,
        pick_crashing if crash_at else pick_current,
        on_churn if churn_events else None,
    )


def simulate_scenario(
    model,
    plan_or_scheme,
    cluster=None,
    *,
    topology: Optional[Topology] = None,
    network: Optional[NetworkModel] = None,
    arrivals=None,
    options: Optional[CostOptions] = None,
    churn: "Sequence[ChurnEvent]" = (),
    faults=None,
    measured_services: "Optional[Sequence[float]]" = None,
    trace=None,
    queue_capacity: Optional[int] = None,
    seed: int = 0,
    sample_network: bool = False,
    keep_records: bool = True,
):
    """Simulate one scenario; see the module docstring.

    ``arrivals`` is an :class:`~repro.workload.ArrivalProcess`
    (streamed lazily under ``numpy.random.default_rng(seed)``) or a
    plain sequence of submit times.  ``sample_network=True`` samples
    per-link jitter and loss instead of charging their deterministic
    expectations.  ``keep_records=False`` returns a constant-memory
    :class:`~repro.sim.result.SimStats` instead of a full
    :class:`~repro.sim.result.SimResult` — the million-request mode.

    Churn and crashes need a scheme (or scheme name) plus ``cluster``
    so the survivors can be re-planned; a device whose first churn
    event is a ``join`` starts outside the cluster and enters mid-run
    (mobility).  ``faults`` is a
    :class:`~repro.runtime.faults.FaultSchedule` of crashes: each
    ``crash(device, at_frame)`` kills its device for good on the
    ``at_frame``-th arrival (counted from 0, shed arrivals included; a
    later churn ``join`` of it is ignored), so it fires at a frame even
    when arrivals share a timestamp.  ``measured_services``
    replaces the initial plan's analytic per-stage service times with
    measured ones (one entry per stage, seconds — see
    :meth:`repro.schemes.local.LocalPlanExecutor.measure`).
    """
    tracer = coerce_tracer(trace)
    if topology is None:
        topology = Topology.bus(network or wifi_50mbps())
    network = network or topology.as_network_model()
    options = options or DEFAULT_OPTIONS
    churn_events = tuple(churn)
    crash_at = _crash_frames(faults)

    if arrivals is None:
        raise ValueError(
            "simulate_scenario() needs arrivals= (an ArrivalProcess or "
            "a sequence of submit times)"
        )
    if isinstance(arrivals, ArrivalProcess) or hasattr(arrivals, "times"):
        arrival_iter: "Iterator[float]" = arrivals.times(
            np.random.default_rng(seed)
        )
    else:
        arrival_iter = iter(sorted(float(t) for t in arrivals))

    if topology.is_bus and not topology.contended:
        transmissions_for = None
    elif topology.is_bus:
        transmissions_for = token_bus_transmissions(topology.links[0])
    else:
        transmissions_for = _topology_transmissions(topology, network)
    link_rng = (
        np.random.default_rng(seed + 1) if sample_network else None
    )

    initial, pick, on_churn = _plan_side(
        model, plan_or_scheme, cluster, network, options, churn_events,
        crash_at, measured_services, tracer,
    )
    return run_scenario(
        arrival_iter,
        initial,
        pick,
        transmissions_for=transmissions_for,
        churn=[(e.time, e) for e in churn_events],
        on_churn=on_churn,
        tracer=tracer,
        queue_capacity=queue_capacity,
        rng=link_rng,
        keep_records=keep_records,
    )
