"""camera-vgg16: a planned CNN pipeline served over shared memory.

A PICO plan of vgg16 is served through ``PipelineServer`` over
``ShmTransport`` (one worker process per device, tensors in shared
memory).  Load comes from the server's single admission loop:

1. a closed loop (``policy="block"``, fixed in-flight window) gives
   ``throughput_per_s``;
2. an open-loop reference step at a fixed camera frame rate gives the
   latency percentiles over all its frames, each timed from its due
   time;
3. an open-loop rate ladder above the reference climbs until a step
   misses the p90 limit, sheds, or leaves a backlog (``serve.max_rate_fps``).

Every output is compared bit for bit with ``Engine.forward_features``
of its input, and every sent frame must end as done, shed or failed.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.cluster.device import heterogeneous_cluster
from repro.cost.comm import NetworkModel
from repro.models.zoo import get_model
from repro.nn.executor import Engine
from repro.nn.tiles import clear_program_cache
from repro.runtime import ShmTransport, Tracer, compile_plan
from repro.schemes.pico import PicoScheme
from repro.serve import PipelineServer, ServerConfig

from common import CheckFailed, mean, median_setup, percentile, rng_for
from tracing import planned_task_flops, reduce_serve_trace, redundancy


# vgg16 on the paper's heterogeneous mix: 3 stages, the first split
# across 2 devices, so halo tiles and split/stitch run.  Compute
# dominates each stage; frames arrive at a fixed camera frame rate about
# half of the closed-loop capacity.
FREQS_MHZ = (1200.0, 1000.0, 800.0, 600.0)
MBPS = 1000.0
WINDOW = 6  # closed-loop admission queue (policy "block")
OPEN_CAPACITY = 32  # open-loop admission queue (policy "shed")
POOL = 8  # distinct seeded input frames
WARMUP_FRAMES = 8
REF_RATE = 3.5  # open-loop reference step, frames/s
LADDER = (4.5, 5.5, 6.5)  # traced steps above the reference, frames/s
LIMIT_MS = 1000.0  # p90 latency limit of a ladder step
SETUP_REPEATS = 3
# Shares of --seconds.  Untraced runs give the closed loop its share and
# the reference step the rest; traced runs split the closed share into
# an untraced and a traced half, trace the reference step for its own
# share and climb the ladder with what is left (the ladder feeds only
# the per-layer ``serve.max_rate_fps``).
CLOSED_SHARE = 0.3
TRACED_REFERENCE_SHARE = 0.25


def _setup(seed: int, tracer):
    """Model and weights, plan, compile, transport open with spawn."""
    parts = {}
    start = perf_counter()
    model = get_model("vgg16", input_hw=64)
    engine = Engine(model, seed=seed)
    parts["nn.init_s"] = perf_counter() - start
    cluster = heterogeneous_cluster(list(FREQS_MHZ))
    network = NetworkModel.from_mbps(MBPS)
    start = perf_counter()
    plan = PicoScheme().plan(model, cluster, network)
    parts["core.plan_ms"] = 1e3 * (perf_counter() - start)
    start = perf_counter()
    program = compile_plan(model, plan)
    parts["program.compile_ms"] = 1e3 * (perf_counter() - start)
    start = perf_counter()
    transport = ShmTransport(model, engine.weights)
    server = PipelineServer(program, transport, tracer=tracer)
    parts["runtime.open_s"] = perf_counter() - start
    return (model, engine, program, server), parts


def _discard(product) -> None:
    """Close a set-up's server and drop the compiled-segment cache, so
    the next set-up compiles from scratch as a fresh process would."""
    product[3].close()
    clear_program_cache()


def _check_plan(program) -> None:
    """The workload is only what it claims if the plan has its shape."""
    if program.n_stages < 3:
        raise CheckFailed(
            f"plan has {program.n_stages} stages, workload needs >= 3"
        )
    if program.stages[0].n_tasks < 2:
        raise CheckFailed("first stage is not split across devices")


def _check(result, order: "Sequence[int]", refs) -> "Tuple[int, int]":
    """Every frame accounted for, every output bit-exact.

    Returns ``(shed, failed)`` counts.
    """
    frames = sorted(r.frame for r in result.records)
    if frames != list(range(len(order))):
        raise CheckFailed(
            f"{len(order)} frames sent, {len(frames)} accounted for"
        )
    shed = failed = 0
    for r in result.records:
        if r.status == "done":
            out = result.outputs.get(r.frame)
            if out is None or not np.array_equal(out, refs[order[r.frame]]):
                raise CheckFailed(f"frame {r.frame}: output differs from "
                                  "Engine.forward_features")
        elif r.status == "shed":
            shed += 1
        elif r.status == "failed":
            failed += 1
        else:
            raise CheckFailed(f"frame {r.frame} ended as {r.status!r}")
    return shed, failed


def _steady_rate(result, warm: int) -> float:
    """Completions per second after the first ``warm`` completions."""
    done = sorted(r.completion for r in result.records if r.status == "done")
    if len(done) <= warm + 1:
        raise CheckFailed("closed loop completed too few frames to time")
    return (len(done) - warm) / (done[-1] - done[warm - 1])


def _closed(server, pool, refs, rng, frames: int):
    server.config = ServerConfig(queue_capacity=WINDOW, policy="block")
    order = rng.integers(len(pool), size=frames)
    result = server.serve([pool[i] for i in order])
    shed, failed = _check(result, order, refs)
    rate = _steady_rate(result, server.program.n_stages)
    return result, rate, len(order), shed + failed


def _open_step(server, pool, refs, rng, rate: float, seconds: float):
    """One open-loop step at a fixed frame rate, every frame timed from
    its due time.

    The server stamps ``arrival`` after its own sleep and starts its
    schedule after its threads; the schedule's epoch is estimated as
    the earliest stamp minus its scheduled offset, which separates the
    generator's lag and the start offset from the latency.
    """
    server.config = ServerConfig(queue_capacity=OPEN_CAPACITY, policy="shed")
    n = max(2, int(round(rate * seconds)))
    offsets = np.arange(n) / rate
    order = rng.integers(len(pool), size=n)
    called = server.transport.clock()
    result = server.serve([pool[i] for i in order], arrivals=offsets.tolist())
    shed, failed = _check(result, order, refs)
    epoch = min(r.arrival - offsets[r.frame] for r in result.records)
    latency = [
        1e3 * (r.completion - epoch - offsets[r.frame])
        for r in result.records if r.status == "done"
    ]
    lag = [1e3 * (r.arrival - epoch - offsets[r.frame]) for r in result.records]
    last = result.records[-1]
    last_ms = (
        1e3 * (last.completion - epoch - offsets[last.frame])
        if last.status == "done" else float("inf")
    )
    p90 = percentile(latency, 90)
    return {
        "rate": rate,
        "sent": n,
        "done": len(latency),
        "shed": shed,
        "failed": failed,
        "p50_ms": percentile(latency, 50),
        "p90_ms": p90,
        "p99_ms": percentile(latency, 99),
        "last_ms": last_ms,
        "generator_lag_ms": mean(lag),
        "start_offset_ms": 1e3 * (epoch - called),
        "passed": bool(
            shed == 0 and failed == 0 and p90 <= LIMIT_MS and last_ms <= LIMIT_MS
        ),
    }, result


def run(name: str, seed: int, seconds: float, trace: bool) -> "Dict[str, object]":
    tracer = Tracer() if trace else None
    (model, engine, program, server), setup_s, setup_parts = median_setup(
        lambda: _setup(seed, tracer), SETUP_REPEATS, _discard
    )
    try:
        _check_plan(program)
        inputs = rng_for(seed, 0)
        pool = [
            inputs.standard_normal(model.input_shape).astype(np.float32)
            for _ in range(POOL)
        ]
        refs = [engine.forward_features(x) for x in pool]
        load = rng_for(seed, 1)

        # Warm-up: fills caches and sizes the closed loop to its time.
        server.tracer = None
        _, warm_rate, _, _ = _closed(server, pool, refs, load, WARMUP_FRAMES)
        closed_s = CLOSED_SHARE * seconds
        attempted = failed = 0
        closed_runs = []
        for traced in ((False, True) if trace else (False,)):
            span = closed_s / 2 if trace else closed_s
            n = max(WARMUP_FRAMES, int(warm_rate * span))
            if traced:
                tracer.clear()
            server.tracer = tracer if traced else None
            result, rate, sent, lost = _closed(server, pool, refs, load, n)
            closed_runs.append((rate, tracer.events if traced else ()))
            attempted += sent
            failed += lost

        if trace:
            tracer.clear()
        server.tracer = tracer
        ref, ref_result = _open_step(
            server, pool, refs, load, REF_RATE,
            (TRACED_REFERENCE_SHARE if trace else 1.0 - CLOSED_SHARE) * seconds,
        )
        ref_events = tracer.events if trace else ()
        attempted += ref["sent"]
        failed += ref["shed"] + ref["failed"]
        gated = (attempted, failed)

        # Ladder above the reference, untraced; stops at the first miss.
        server.tracer = None
        step_s = (1.0 - CLOSED_SHARE - TRACED_REFERENCE_SHARE) * seconds / len(LADDER)
        steps = [ref]
        if trace and ref["passed"]:
            for rate in LADDER:
                step, _ = _open_step(server, pool, refs, load, rate, step_s)
                steps.append(step)
                attempted += step["sent"]
                failed += step["failed"]
                if not step["passed"]:
                    break
        passing = [s["rate"] for s in steps if s["passed"]]
    finally:
        server.close()

    untraced_rate = closed_runs[0][0]
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": untraced_rate,
        "latency_p50_ms": ref["p50_ms"],
        "latency_p90_ms": ref["p90_ms"],
        "served_share": (gated[0] - gated[1]) / gated[0],
    }
    layers: "Dict[str, float]" = {}
    if trace:
        traced_rate, closed_events = closed_runs[1]
        layers.update(reduce_serve_trace(
            closed_events, ref_result.records, ref_events,
            planned_task_flops(model, program),
        ))
        layers.update(setup_parts)
        layers.update({
            "serve.shed": float(ref["shed"]),
            "serve.generator_lag_ms": ref["generator_lag_ms"],
            "serve.start_offset_ms": ref["start_offset_ms"],
            "serve.max_rate_fps": max(passing) if passing else 0.0,
            "serve.latency_p99_ms": ref["p99_ms"],
            "partition.redundancy": redundancy(model, program),
            "trace.overhead_share": 1.0 - traced_rate / untraced_rate,
        })
    details = {
        "plan": program.describe(),
        "closed_rates_per_s": [r[0] for r in closed_runs],
        "ladder": steps,
        "limit_ms": LIMIT_MS,
        "setup_parts": setup_parts,
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "layers": layers,
        "details": details,
    }
