"""control-churn: the fleet control plane's response to device deaths.

A ``ModelRegistry`` holds four models.  A fixed list of episodes is
replayed in rounds: in each episode a fresh ``FleetScheduler`` places
four SLO tenants on a 12-device pool, then one sequential caller kills
leased devices one at a time and runs the churn response for each:
``on_device_dead``, ``replace_tenant`` for every stranded tenant, then
``compile_plan`` of its new plan.  The response time per death is the
replan latency.  Only the planner, the cost tables, the scheduler and
plan compilation do work here.

Episode ``i`` starts its cascade of deaths at device ``i`` of the pool,
so the episodes cover every starting device and are the same for every
seed; the seed orders them.  Response times fall into classes a few
milliseconds apart (by which tenants a death strands), and deaths
sampled from the seed moved the percentiles across those gaps.  The
deaths are fixed in the warm-up round and replayed unchanged in every
later round, so every round does the same work.  The program's
compiled-segment cache is cleared before each death, so every response
compiles its plans from scratch.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List

from repro.cluster.device import heterogeneous_cluster
from repro.cost.comm import NetworkModel
from repro.cost.tables import SegmentTable
from repro.fleet import FleetScheduler, ModelRegistry, TenantClass
from repro.models.zoo import get_model
from repro.nn.tiles import clear_program_cache
from repro.runtime import compile_plan
from repro.schemes.base import PlanningError
from repro.schemes.pico import PicoScheme

from common import (
    CheckFailed, mean, median_setup, per_item, percentile, replay, rng_for,
)
from tracing import TimedScheme

MODELS = ("vgg16", "resnet34", "mobilenet_v2", "yolov2")
FREQS_MHZ = (1200.0,) * 3 + (1000.0,) * 3 + (800.0,) * 3 + (600.0,) * 3
MBPS = 100.0
TENANTS = (
    TenantClass("camera", "vgg16", rate=4.0, slo=1.0, priority=2),
    TenantClass("faces", "resnet34", rate=6.0, slo=0.5, priority=1),
    TenantClass("mobile", "mobilenet_v2", rate=12.0, slo=0.2, priority=1),
    TenantClass("detect", "yolov2", rate=3.0, slo=1.5, priority=0),
)
BY_NAME = {t.name: t for t in TENANTS}
DEATHS_PER_EPISODE = 4
SETUP_REPEATS = 3


def _setup():
    """Models, cost tables and engines in a registry; the pool."""
    parts = {"cost.table_build_s": 0.0, "nn.init_s": 0.0}
    registry = ModelRegistry()
    for name in MODELS:
        model = get_model(name, input_hw=64)
        # Built outside the process-wide table registry, so every
        # set-up pays for it, as a fresh process would.
        start = perf_counter()
        SegmentTable(model, registry.options)
        parts["cost.table_build_s"] += perf_counter() - start
        start = perf_counter()
        registry.register(name, model)
        parts["nn.init_s"] += perf_counter() - start
    cluster = heterogeneous_cluster(list(FREQS_MHZ))
    return (registry, cluster, NetworkModel.from_mbps(MBPS)), parts


def _check_placement(scheduler, registry, tenant, placement, program) -> None:
    dead = scheduler.pool.dead
    if not placement.devices or set(placement.devices) & dead:
        raise CheckFailed(
            f"{tenant.name}: placement leases dead devices "
            f"{sorted(set(placement.devices) & dead)}"
        )
    if program.model_name != registry.get(tenant.model).model.name:
        raise CheckFailed(
            f"{tenant.name}: compiled program is for {program.model_name}, "
            f"tenant runs {tenant.model}"
        )
    if program.plan != placement.plan:
        raise CheckFailed(f"{tenant.name}: compiled program is for another plan")


def _respond(scheduler, registry, victim: str):
    """One churn response, timed: the stranded tenants re-placed and
    their plans compiled.  Returns (seconds, [(tenant, placement,
    program, compile seconds)]); placement is None on PlanningError."""
    clear_program_cache()
    results = []
    start = perf_counter()
    for tenant_name in scheduler.on_device_dead(victim):
        tenant = BY_NAME[tenant_name]
        try:
            placement = scheduler.replace_tenant(tenant_name)
        except PlanningError:
            results.append((tenant, None, None, 0.0))
            continue
        compiled_at = perf_counter()
        program = compile_plan(registry.get(tenant.model).model, placement.plan)
        results.append((tenant, placement, program, perf_counter() - compiled_at))
    return perf_counter() - start, results


def _episode(first, victims, registry, cluster, network, traced):
    """Place the tenants, then answer each death of the episode.

    ``victims`` is the episode's death list.  When empty it is filled
    in: each death hits the first device, from pool position ``first``
    on (wrapping round), that is alive and leased, so every response
    has stranded tenants to re-place.
    """
    names = [d.name for d in cluster]
    names = names[first:] + names[:first]
    scheduler = FleetScheduler(registry, cluster, network)
    schemes = {
        t.name: (TimedScheme(PicoScheme()) if traced else PicoScheme())
        for t in TENANTS
    }
    start = perf_counter()
    scheduler.place(TENANTS, schemes=schemes)
    place_s = perf_counter() - start
    for t in TENANTS:
        placement = scheduler.placements[t.name]
        program = compile_plan(registry.get(t.model).model, placement.plan)
        _check_placement(scheduler, registry, t, placement, program)
    before = {k: len(getattr(s, "calls", ())) for k, s in schemes.items()}
    row = {"place_s": place_s, "replan_s": [], "compile_s": [],
           "stranded": [], "placed": 0, "in_slo": 0, "errors": 0, "failed": 0}
    drawing = not victims
    for k in range(DEATHS_PER_EPISODE):
        if drawing:
            pool = scheduler.pool
            leased = [n for n in names if n not in pool.dead and pool.holders(n)]
            if not leased:
                break
            victims.append(leased[0])
        if k == len(victims):
            break
        took, results = _respond(scheduler, registry, victims[k])
        row["replan_s"].append(took)
        row["stranded"].append(len(results))
        row["failed"] += any(placement is None for _, placement, _, _ in results)
        for tenant, placement, program, compile_s in results:
            row["placed"] += 1
            if placement is None:
                row["errors"] += 1
                continue
            _check_placement(scheduler, registry, tenant, placement, program)
            row["compile_s"].append(compile_s)
            row["in_slo"] += bool(placement.meets_slo)
    row["plan_calls"] = [
        c for key, s in schemes.items() for c in getattr(s, "calls", ())[before[key]:]
    ]
    return row


def run(name: str, seed: int, seconds: float, trace: bool) -> "Dict[str, object]":
    (registry, cluster, network), setup_s, parts = median_setup(
        _setup, SETUP_REPEATS, lambda product: None
    )
    episodes = [int(i) for i in rng_for(seed, 3).permutation(len(cluster))]
    victims: "List[List[str]]" = [[] for _ in episodes]

    def one_round(traced):
        return [
            _episode(first, victims[k], registry, cluster, network, traced)
            for k, first in enumerate(episodes)
        ]

    # Warm-up: fixes the deaths and fills the planner's cost tables.
    warm = one_round(False)
    halves = {
        traced: replay(lambda: one_round(traced), seconds / 2 if trace else seconds)
        for traced in ((False, True) if trace else (False,))
    }

    def figures(rounds):
        """Each death's fastest response over the rounds, and churn
        responses per second of control-plane work (placements and
        responses, each at its fastest)."""
        replans = per_item(
            [[t for row in r for t in row["replan_s"]] for r in rounds]
        )
        places = per_item([[row["place_s"] for row in r] for r in rounds])
        return replans, len(replans) / (sum(replans) + sum(places))

    base = halves[False]
    replans, rate = figures(base)
    placed = sum(row["placed"] for row in warm)
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": rate,
        "latency_p50_ms": 1e3 * percentile(replans, 50),
        "latency_p90_ms": 1e3 * percentile(replans, 90),
        "served_share":
            sum(row["in_slo"] for row in warm) / placed if placed else 1.0,
    }
    layers: "Dict[str, float]" = {}
    if trace:
        rows = [row for r in halves[True] for row in r]
        _, traced_rate = figures(halves[True])
        plan_calls = [c for row in rows for c in row["plan_calls"]]
        layers.update(parts)
        layers.update({
            "core.plan_ms": 1e3 * mean(plan_calls),
            "core.plan_calls_per_replan":
                len(plan_calls) / sum(len(row["replan_s"]) for row in rows),
            "program.compile_ms":
                1e3 * mean(c for row in rows for c in row["compile_s"]),
            "fleet.place_ms": 1e3 * mean(row["place_s"] for row in rows),
            "fleet.stranded_per_death":
                mean(s for row in warm for s in row["stranded"]),
            "fleet.planning_errors": float(sum(row["errors"] for row in warm)),
            "trace.overhead_share": 1.0 - traced_rate / rate,
        })
    failed = sum(row["failed"] for r in base for row in r)
    details = {
        "episode_starts": episodes,
        "rounds": {str(k): len(v) for k, v in halves.items()},
        "victims": victims,
        "replan_ms": [1e3 * t for t in replans],
        "placed_per_round": placed,
        "in_slo_per_round": sum(row["in_slo"] for row in warm),
        "failed_responses": failed,
        "setup_parts": parts,
    }
    return {
        "attempted": len(replans) * len(base),
        "failed": failed,
        "metrics": metrics,
        "layers": layers,
        "details": details,
    }
