"""Ablation — WLAN contention across pipeline stages.

The paper's Eq. 10 lets every stage's transfers proceed in parallel;
on one shared 802.11 medium they cannot.  This bench quantifies the
optimism: PICO's period under (a) the paper's contention-free model,
(b) the analytic shared-medium bound, and (c) event-level simulation
with a single network token — across bandwidths.  At 50 Mbps the
contention penalty on VGG16 is what separates our simulator's
throughput from a real testbed's.
"""

from __future__ import annotations

import repro
from repro.cluster.device import pi_cluster
from repro.core.plan import plan_cost
from repro.cost.comm import NetworkModel
from repro.cost.flops import CostOptions
from repro.models.zoo import get_model
from repro.schemes.pico import PicoScheme
from repro.workload.arrivals import saturation_arrivals


def sweep(mbps_values):
    model = get_model("vgg16")
    cluster = pi_cluster(8, 600)
    rows = []
    for mbps in mbps_values:
        net = NetworkModel.from_mbps(mbps)
        plan = PicoScheme().plan(model, cluster, net)
        paper = plan_cost(model, plan, net).period
        bound = plan_cost(model, plan, net, CostOptions(shared_medium=True)).period
        sim = repro.simulate(
            model, plan, network=net, arrivals=saturation_arrivals(40),
            topology=repro.Topology.bus(net, contended=True),
        ).steady_state(5)
        measured = 1.0 / sim.throughput
        rows.append((mbps, paper, bound, measured))
    return rows


def test_contention_sweep(benchmark):
    rows = benchmark.pedantic(sweep, args=((10.0, 50.0, 300.0),), rounds=1,
                              iterations=1)
    print()
    print(f"{'Mbps':>6s} {'Eq.10 period':>13s} {'shared bound':>13s} "
          f"{'event-level':>12s}")
    for mbps, paper, bound, measured in rows:
        print(f"{mbps:>6.0f} {paper:>12.3f}s {bound:>12.3f}s {measured:>11.3f}s")
    for _mbps, paper, bound, measured in rows:
        # The analytic bound sandwiches the event-level measurement.
        assert bound >= paper - 1e-9
        assert measured >= bound * 0.98
        # ...and the event-level period is not wildly above the bound
        # (comm/comp overlap recovers most of it).
        assert measured <= max(bound, paper) * 2.0
    # Contention matters more as bandwidth shrinks.
    penalties = [m / p for _, p, _, m in rows]
    assert penalties[0] >= penalties[-1] - 0.05
