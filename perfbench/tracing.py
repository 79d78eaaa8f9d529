"""Per-layer instrumentation that stays outside the program.

Two pieces:

* :class:`TimedScheme` wraps any :class:`repro.schemes.Scheme` and
  times each ``plan()`` call.  Passed to ``FleetScheduler.place`` and
  ``simulate_scenario`` it measures the ``core`` planner without
  touching either.
* :func:`reduce_serve_trace` turns the events a
  :class:`repro.runtime.trace.Tracer` collected from a
  ``PipelineServer`` into per-layer figures.  It corrects for how the
  runtime records spans:

  - ``emit_stage_trace`` copies a cross-frame batch's spans onto every
    member frame, so totals count each distinct span once;
  - ``enqueue`` spans are zero-width on the threaded server, so queue
    wait is taken from the frame record (admission) to the first
    stage-0 send;
  - ``recv`` spans are zero-width on process transports, where the
    compute span is anchored to the receive end; the receive path is
    the gap between a task's send end and its compute start;
  - overhead is self time: the frame's wall time minus queue wait minus
    the part of it covered by send, compute and receive spans.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

from repro.cost.flops import segment_flops
from repro.partition.regions import Region
from repro.runtime.trace import RECOVERY_KINDS
from repro.schemes import Scheme

from common import mean

Interval = Tuple[float, float]


class TimedScheme(Scheme):
    """A scheme that records the wall time of every ``plan()`` call."""

    def __init__(self, inner: Scheme) -> None:
        self.inner = inner
        self.name = inner.name  # plan_usage keys stay the scheme's own
        self.calls: "List[float]" = []

    def plan(self, model, cluster, network, *args, **kwargs):
        start = perf_counter()
        try:
            return self.inner.plan(model, cluster, network, *args, **kwargs)
        finally:
            self.calls.append(perf_counter() - start)


def union_length(intervals: "Sequence[Interval]") -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def planned_task_flops(model, program) -> "Dict[Tuple[int, str], float]":
    """FLOPs the cost model plans for each (stage, device) task, halo
    included (one multiply-accumulate counts as one FLOP, as in
    :mod:`repro.cost.flops`)."""
    flops = {}
    for stage in program.stages:
        for task in stage.tasks:
            _, h, w = stage.out_shape
            region = task.region if task.region is not None else Region.full(h, w)
            flops[(stage.index, task.device_name)] = segment_flops(
                model, stage.start, stage.end, region
            )
    return flops


def redundancy(model, program) -> float:
    """Task-tile FLOPs over unpartitioned stage FLOPs (halo waste)."""
    tiles = sum(planned_task_flops(model, program).values())
    whole = sum(
        segment_flops(
            model, stage.start, stage.end,
            Region.full(stage.out_shape[1], stage.out_shape[2]),
        )
        for stage in program.stages
    )
    return tiles / whole if whole else 0.0


def _task_spans(events) -> "Dict[Tuple[int, str], Dict[str, object]]":
    """One frame's events keyed by (stage, device) then kind."""
    tasks: "Dict[Tuple[int, str], Dict[str, object]]" = defaultdict(dict)
    for e in events:
        if e.kind in ("send", "compute", "recv"):
            tasks[(e.stage, e.device)].setdefault(e.kind, e)
    return tasks


def frame_breakdown(records, events) -> "List[Dict[str, float]]":
    """Blocking-path decomposition of every completed frame (seconds).

    Each frame sees its batch's full spans: a member of a batch waits
    for the whole batch, so per-frame figures are not divided.
    """
    by_frame = defaultdict(list)
    for e in events:
        by_frame[e.frame].append(e)
    rows = []
    for r in records:
        if r.status != "done" or r.frame not in by_frame:
            continue
        tasks = _task_spans(by_frame[r.frame])
        if not tasks:
            continue
        send: "Dict[int, List[Interval]]" = defaultdict(list)
        recv: "Dict[int, List[Interval]]" = defaultdict(list)
        comp: "Dict[int, List[Interval]]" = defaultdict(list)
        nbytes = 0
        for (stage, _device), kinds in tasks.items():
            s, c, v = kinds.get("send"), kinds.get("compute"), kinds.get("recv")
            if s is not None:
                send[stage].append((s.start, s.end))
                nbytes += s.nbytes
            if c is not None:
                comp[stage].append((c.start, c.end))
                if s is not None and c.start > s.end:
                    recv[stage].append((s.end, c.start))
            if v is not None:
                recv[stage].append((v.start, v.end))
                nbytes += v.nbytes
        first_send = min(lo for lo, _ in send[0]) if send[0] else r.admitted_at
        wall = r.completion - r.admitted_at
        queue_wait = max(0.0, first_send - r.admitted_at)
        every = [iv for d in (send, recv, comp) for ivs in d.values() for iv in ivs]
        covered = union_length(every)
        compute = {s: union_length(ivs) for s, ivs in comp.items()}
        rows.append({
            "wall": wall,
            "queue_wait": queue_wait,
            "send": sum(union_length(ivs) for ivs in send.values()),
            "recv": sum(union_length(ivs) for ivs in recv.values()),
            "compute": sum(compute.values()),
            "compute_per_stage": mean(compute.values()),
            "overhead": max(0.0, wall - queue_wait - covered),
            "bytes": float(nbytes),
        })
    return rows


def device_totals(events, task_flops) -> "Dict[str, object]":
    """Distinct compute spans per device (a batch's span counted once)
    with the FLOPs they executed, over the events' wall span."""
    members: "Dict[Tuple, int]" = defaultdict(int)
    for e in events:
        if e.kind == "compute":
            members[(e.stage, e.device, e.start, e.end)] += 1
    busy: "Dict[str, float]" = defaultdict(float)
    flops = 0.0
    for (stage, device, start, end), batch in members.items():
        busy[device] += end - start
        flops += task_flops.get((stage, device), 0.0) * batch
    spans = [e for e in events if e.kind in ("send", "compute", "recv")]
    wall = (
        max(e.end for e in spans) - min(e.start for e in spans) if spans else 0.0
    )
    return {"busy": dict(busy), "flops": flops, "wall": wall}


def reduce_serve_trace(
    closed_events, open_records, open_events, task_flops
) -> "Dict[str, float]":
    """Per-layer figures of one traced serving run.

    ``closed_events`` come from the traced closed-loop phase (device
    load and FLOP rate); ``open_records``/``open_events`` from the
    traced open-loop reference step (the per-frame decomposition).
    """
    rows = frame_breakdown(open_records, open_events)
    totals = device_totals(closed_events, task_flops)
    busy = totals["busy"]
    busy_s = sum(busy.values())
    wall = totals["wall"]

    def share(part: str) -> float:
        return mean(row[part] / row["wall"] for row in rows if row["wall"] > 0)

    nn_share = share("compute")
    serve_share = share("queue_wait")
    recovery = sum(
        1 for e in list(closed_events) + list(open_events)
        if e.kind in RECOVERY_KINDS
    )
    return {
        "serve.queue_wait_ms": 1e3 * mean(r["queue_wait"] for r in rows),
        "serve.frame_share": serve_share,
        "runtime.send_ms": 1e3 * mean(r["send"] for r in rows),
        "runtime.recv_ms": 1e3 * mean(r["recv"] for r in rows),
        "runtime.overhead_ms": 1e3 * mean(r["overhead"] for r in rows),
        "runtime.bytes_per_frame": mean(r["bytes"] for r in rows),
        "runtime.frame_share": max(0.0, 1.0 - nn_share - serve_share),
        "runtime.retries": float(recovery),
        "nn.compute_ms": 1e3 * mean(r["compute_per_stage"] for r in rows),
        "nn.frame_share": nn_share,
        "nn.busy_share": max(busy.values()) / wall if busy and wall > 0 else 0.0,
        "nn.gflops_per_s": totals["flops"] / busy_s / 1e9 if busy_s > 0 else 0.0,
    }
