"""Scenario-simulator gate: million-request throughput and a
flash-crowd churn scenario.

Two sections land in ``BENCH_sim.json``:

* **throughput** — one million Poisson requests streamed lazily
  through :func:`repro.sim.simulate_scenario` in the constant-memory
  stats mode; the headline figure is simulator **events per second**
  (heap pops of the discrete-event engine).
* **flash_crowd** — an eight-device fleet rides a viral-clip arrival
  spike (:class:`~repro.workload.FlashCrowdProcess`) while a
  correlated churn burst drops two devices mid-crowd and returns them
  later; the gate demands the scheduler visibly reacts — ``replan``
  events present in the trace — with every request accounted for.

Exit status is non-zero when any gate fails::

    make bench-sim
    python -m repro.bench.sim --quick
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, Optional, Sequence

import numpy as np

from repro.cluster.device import heterogeneous_cluster, pi_cluster
from repro.core.plan import plan_cost
from repro.cost.comm import NetworkModel
from repro.models.toy import toy_chain
from repro.runtime.trace import RECOVERY_KINDS, Tracer
from repro.schemes.pico import PicoScheme
from repro.sim import Topology, correlated_churn, simulate_scenario
from repro.workload import get_arrivals

__all__ = ["run", "main"]

#: Conservative CI floor — the engine does several hundred thousand
#: events/s on a laptop; shared runners get an order of magnitude slack.
EVENTS_PER_S_GATE = 50_000.0


def _bench_model():
    return toy_chain(6, 1, input_hw=32, in_channels=3)


def _throughput(n_tasks: int, seed: int) -> Dict:
    model = _bench_model()
    cluster = pi_cluster(4, 800)
    network = NetworkModel.from_mbps(50.0)
    plan = PicoScheme().plan(model, cluster, network)
    period = plan_cost(model, plan, network).period
    rate = 0.95 / period  # steady utilisation, no unbounded backlog
    arrivals = get_arrivals("poisson", rate=rate, n_tasks=n_tasks)

    start = time.perf_counter()
    stats = simulate_scenario(
        model, plan, topology=Topology.bus(network), network=network,
        arrivals=arrivals, seed=seed, keep_records=False,
    )
    elapsed = time.perf_counter() - start
    events_per_s = stats.n_events / elapsed if elapsed > 0 else 0.0
    print(
        f"throughput: {n_tasks} requests -> {stats.n_events} events in "
        f"{elapsed:.2f}s ({events_per_s:,.0f} events/s, "
        f"{n_tasks / elapsed:,.0f} requests/s)"
    )
    return {
        "n_requests": int(n_tasks),
        "completed": int(stats.completed),
        "n_events": int(stats.n_events),
        "elapsed_s": float(elapsed),
        "events_per_s": float(events_per_s),
        "requests_per_s": float(n_tasks / elapsed) if elapsed > 0 else 0.0,
        "sim_makespan_s": float(stats.makespan),
        "avg_latency_s": float(stats.avg_latency),
    }


def _flash_crowd(seed: int) -> Dict:
    model = _bench_model()
    cluster = heterogeneous_cluster(
        [1200.0, 1200.0, 1000.0, 1000.0, 800.0, 800.0, 600.0, 600.0]
    )
    names = [d.name for d in cluster]
    topology = Topology.star(names, mbps=50.0, latency_s=0.0005)
    network = topology.as_network_model()
    plan = PicoScheme().plan(model, cluster, network)
    period = plan_cost(model, plan, network).period

    base = 0.5 / period
    peak = 3.0 / period  # well past capacity at the spike
    horizon = 120.0 * period
    crowd = get_arrivals(
        "flash-crowd", base_rate=base, peak_rate=peak,
        t_start=40.0 * period, ramp_s=10.0 * period,
        hold_s=30.0 * period, decay_s=10.0 * period, horizon_s=horizon,
    )
    # A WiFi segment browns out mid-crowd and comes back after the hold.
    churn = correlated_churn(
        names[-2:], at=55.0 * period, stagger_s=period, rejoin_after=25.0 * period
    )
    tracer = Tracer()
    stats = simulate_scenario(
        model, PicoScheme(), cluster,
        topology=topology, arrivals=crowd, churn=churn, trace=tracer,
        queue_capacity=16, seed=seed, keep_records=False,
    )
    recovery = [e for e in tracer.events if e.kind in RECOVERY_KINDS]
    kinds = [e.kind for e in recovery]
    replans = kinds.count("replan") + kinds.count("degraded")
    print(
        f"flash_crowd: {stats.submitted} requests "
        f"({stats.completed} done, {stats.shed_count} shed), "
        f"{len(recovery)} recovery events "
        f"({replans} replans) over {stats.makespan:.1f}s simulated"
    )
    for event in recovery:
        print(f"  t={event.start:8.2f}s {event.kind:>12s} {event.device}")
    return {
        "base_rate_per_s": float(base),
        "peak_rate_per_s": float(peak),
        "submitted": int(stats.submitted),
        "completed": int(stats.completed),
        "shed": int(stats.shed_count),
        "sim_makespan_s": float(stats.makespan),
        "recovery_events": kinds,
        "replan_events": int(replans),
        "device_dead_events": int(kinds.count("device_dead")),
        "device_join_events": int(kinds.count("device_join")),
    }


def run(
    quick: bool = False,
    out_path: Optional[str] = "BENCH_sim.json",
    seed: int = 0,
    n_tasks: Optional[int] = None,
) -> Dict:
    if n_tasks is None:
        n_tasks = 50_000 if quick else 1_000_000
    throughput = _throughput(n_tasks, seed)
    flash = _flash_crowd(seed)

    gates = {
        "all_requests_accounted": bool(
            throughput["completed"] == throughput["n_requests"]
        ),
        f"events_per_s_ge_{int(EVENTS_PER_S_GATE)}": bool(
            throughput["events_per_s"] >= EVENTS_PER_S_GATE
        ),
        "flash_crowd_replans_in_trace": bool(flash["replan_events"] >= 2),
        "flash_crowd_churn_traced": bool(
            flash["device_dead_events"] == 2
            and flash["device_join_events"] == 2
        ),
        "flash_crowd_accounted": bool(
            flash["completed"] + flash["shed"] == flash["submitted"]
        ),
    }
    result = {
        "bench": "sim",
        "quick": quick,
        "config": {"n_requests": int(n_tasks), "seed": int(seed)},
        "throughput": throughput,
        "flash_crowd": flash,
        "gates": gates,
        "pass": all(gates.values()),
    }
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")
        print(f"results written to {out_path}")
    print("PASS" if result["pass"] else f"FAIL: {gates}")
    return result


def main(argv: "Optional[Sequence[str]]" = None) -> int:
    parser = argparse.ArgumentParser(
        description="scenario simulator throughput and correctness gate"
    )
    parser.add_argument("--quick", action="store_true",
                        help="50k requests instead of a million (CI smoke)")
    parser.add_argument("--out", type=str, default="BENCH_sim.json",
                        help="output JSON path ('' = don't write)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tasks", type=int, default=0,
                        help="override the request count (0 = mode default)")
    args = parser.parse_args(argv)
    result = run(args.quick, args.out or None, args.seed, args.tasks or None)
    return 0 if result["pass"] else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
