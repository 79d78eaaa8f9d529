"""sim-fleet-day: the scenario simulator over a day of churn.

One sequential caller replays a fixed list of simulated fleet-days in
rounds, each day with its own seeded diurnal arrival stream (peak above
capacity) and seeded leave/rejoin churn that ``PicoScheme`` re-plans,
in the constant-memory stats mode (``keep_records=False``).  The
network is a fat tree over 12 heterogeneous devices.  The engine,
per-link hops and the arrival process do most of the work; nothing is
computed for real.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Dict, List

import numpy as np

from repro.cluster.device import heterogeneous_cluster
from repro.core.plan import plan_cost
from repro.models.zoo import get_model
from repro.schemes.pico import PicoScheme
from repro.sim import ChurnEvent, Topology, simulate_scenario
from repro.workload.processes import DiurnalProcess

from common import CheckFailed, mean, per_item, percentile, replay, rng_for
from tracing import TimedScheme

FREQS_MHZ = (1200.0,) * 3 + (1000.0,) * 3 + (800.0,) * 3 + (600.0,) * 3
HOST_MBPS = 100.0
DAY_PERIODS = 1000  # one simulated day lasts this many plan periods
BASE_LOAD, PEAK_LOAD = 0.3, 1.3  # diurnal trough/peak over capacity
QUEUE_CAPACITY = 16
# Devices that leave and rejoin once a day.  A re-plan is adopted only
# when the pipeline drains, which it never does while load is above
# capacity; with several leaves a day, some land where it drains.
LEAVERS_PER_DAY = 3
# Seeded days replayed in every round.  Each day is timed at its
# fastest round; few days make many rounds in a run, so each day has
# many chances to fall wholly inside one of the host's fast spells.
DAYS = 6


def _setup():
    """Model, cluster, fat-tree topology and the initial plan."""
    parts = {}
    model = get_model("vgg16", input_hw=64)
    cluster = heterogeneous_cluster(list(FREQS_MHZ))
    names = [d.name for d in cluster]
    start = perf_counter()
    topology = Topology.fat_tree(names, mbps=HOST_MBPS)
    parts["sim.topology_build_ms"] = 1e3 * (perf_counter() - start)
    network = topology.as_network_model()
    start = perf_counter()
    plan = PicoScheme().plan(model, cluster, network)
    parts["core.plan_ms"] = 1e3 * (perf_counter() - start)
    period = plan_cost(model, plan, network).period
    planned = [d.name for d in plan.all_devices]
    return (model, cluster, planned, topology, period), parts


def _day(seed: int, day: int, planned, period: float):
    """One day's arrival process and churn, both drawn from the seed.
    The devices that leave are in the initial plan, so each leave
    forces a re-plan."""
    horizon = DAY_PERIODS * period
    arrivals = DiurnalProcess(
        BASE_LOAD / period, PEAK_LOAD / period, horizon, horizon
    )
    rng = rng_for(seed, 2, day)
    churn: "List[ChurnEvent]" = []
    leaving = rng.choice(len(planned), size=LEAVERS_PER_DAY, replace=False)
    for device in leaving:
        leave = float(rng.uniform(0.1, 0.7)) * horizon
        back = leave + float(rng.uniform(0.05, 0.25)) * horizon
        churn.append(ChurnEvent(leave, planned[device], "leave"))
        churn.append(ChurnEvent(back, planned[device], "join"))
    churn.sort(key=lambda e: (e.time, e.device))
    return arrivals, churn, int(rng.integers(2**31))


def _simulate(seed, day, model, cluster, planned, topology, period, traced):
    """One simulated day, timed, and its accounting checked."""
    arrivals, churn, day_seed = _day(seed, day, planned, period)
    scheme = TimedScheme(PicoScheme()) if traced else PicoScheme()
    start = perf_counter()
    stats = simulate_scenario(
        model, scheme, cluster, topology=topology,
        arrivals=arrivals, churn=churn, queue_capacity=QUEUE_CAPACITY,
        seed=day_seed, keep_records=False,
    )
    wall = perf_counter() - start
    # Checks, outside the timed call: the same stream drawn alone under
    # the same seed gives the request count, and the churn must show up
    # as re-plans in plan_usage.
    start = perf_counter()
    drawn = sum(1 for _ in arrivals.times(np.random.default_rng(day_seed)))
    draw_s = perf_counter() - start
    if stats.completed + stats.shed_count != drawn:
        raise CheckFailed(
            f"day {day}: {drawn} requests drawn, "
            f"{stats.completed} completed + {stats.shed_count} shed"
        )
    if not any("+replan" in plan for plan in stats.plan_usage):
        raise CheckFailed(f"day {day}: churn left no re-plan in plan_usage")
    return {
        "wall": wall, "submitted": drawn, "completed": stats.completed,
        "events": stats.n_events, "sum_latency": stats.sum_latency,
        "draw_s": draw_s,
        # The day's first plan() is its initial plan; the rest re-plan.
        "replans": scheme.calls[1:] if traced else [],
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> "Dict[str, object]":
    setups = []

    def set_up():
        start = perf_counter()
        product, layer_parts = _setup()
        setups.append((perf_counter() - start, layer_parts))
        return product

    model, cluster, planned, topology, period = set_up()

    def one_round(traced):
        # A set-up takes a few milliseconds; one per round spreads the
        # set-up samples over the run, so their median sees the host as
        # the rest of the run does.
        set_up()
        return [
            _simulate(seed, day, model, cluster, planned, topology, period, traced)
            for day in range(DAYS)
        ]

    def total(rows, key):
        return sum(row[key] for row in rows)

    def rate(rounds):
        """Requests per second, each day timed at its fastest round."""
        walls = per_item([[d["wall"] for d in r] for r in rounds])
        return total(rounds[0], "submitted") / sum(walls), walls

    # Warm-up: fills the planner's cost tables the re-plans use.  The
    # virtual-time outcomes depend on the seed alone.
    warm = one_round(False)
    halves = {
        traced: replay(lambda: one_round(traced), seconds / 2 if trace else seconds)
        for traced in ((False, True) if trace else (False,))
    }
    throughput, walls = rate(halves[False])
    setup_s = statistics.median(t for t, _ in setups)
    parts = {
        key: statistics.median(p[key] for _, p in setups) for key in setups[0][1]
    }
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": throughput,
        "latency_p50_ms": 1e3 * percentile(walls, 50),
        "latency_p90_ms": 1e3 * percentile(walls, 90),
        "served_share": total(warm, "completed") / total(warm, "submitted"),
    }
    layers: "Dict[str, float]" = {}
    if trace:
        days = [d for r in halves[True] for d in r]
        traced_rate, traced_walls = rate(halves[True])
        replans = [t for d in days for t in d["replans"]]
        layers.update(parts)
        layers.update({
            "sim.events": float(total(warm, "events")),
            "sim.events_per_request":
                total(warm, "events") / total(warm, "submitted"),
            "sim.events_per_s": total(warm, "events") / sum(traced_walls),
            "sim.replans": float(len(replans)) / len(halves[True]),
            "sim.replan_ms": 1e3 * mean(replans),
            "sim.mean_latency_ms":
                1e3 * total(warm, "sum_latency") / total(warm, "completed"),
            "workload.draws_per_s":
                total(days, "submitted") / total(days, "draw_s"),
            "trace.overhead_share": 1.0 - traced_rate / throughput,
        })
    details = {
        "period_s": period,
        "days": DAYS,
        "rounds": {str(k): len(v) for k, v in halves.items()},
        "day_walls_s": walls,
        "setups": len(setups),
        "mean_virtual_latency_ms":
            1e3 * total(warm, "sum_latency") / total(warm, "completed"),
        "setup_parts": parts,
    }
    return {
        "attempted": int(total(warm, "submitted")) * len(halves[False]),
        "failed": 0,
        "metrics": metrics,
        "layers": layers,
        "details": details,
    }
