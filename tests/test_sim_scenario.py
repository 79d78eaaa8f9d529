"""Tests for the scenario simulator.

The load-bearing guarantee: the degenerate one-link topology
reproduces the single-WLAN simulator that preceded the topology engine
**bit for bit** — full ``SimResult`` equality including traces, shed
lists and device-busy totals, checked against recorded digests —
across schemes, both communication modes and admission control.  On
top of that: churn replanning, crash-at-frame faults, mobility joins,
multi-hop behaviour and the constant-memory stats mode.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro
from repro.adaptive.switcher import build_apico_switcher
from repro.cluster.device import pi_cluster
from repro.cost.comm import NetworkModel
from repro.models.toy import toy_chain
from repro.runtime.faults import FaultSchedule
from repro.runtime.trace import Tracer
from repro.schemes.early_fused import EarlyFusedScheme
from repro.schemes.pico import PicoScheme
from repro.sim import (
    ChurnEvent,
    SimResult,
    SimStats,
    Topology,
    correlated_churn,
    simulate_scenario,
)
from repro.workload.arrivals import poisson_arrivals
from repro.workload.processes import PoissonProcess


@pytest.fixture
def net():
    return NetworkModel.from_mbps(50.0)


@pytest.fixture
def model():
    return toy_chain(6, 1, input_hw=32, in_channels=3)


@pytest.fixture
def cluster():
    return pi_cluster(4, 800)


def arrivals_list(rate=2.0, horizon=20.0, seed=5):
    return poisson_arrivals(rate, horizon, np.random.default_rng(seed))


#: sha256 (first 16 hex digits) of ``repr(SimResult)`` for each grid
#: case, recorded from the single-WLAN event loop that preceded the
#: topology engine (``simulate_plan(..., shared_medium=contended)``) on
#: the same inputs.  Keyed ``(queue_capacity, contended, scheme)``.
_RECORDED_PLAN_REPLAYS = {
    (None, False, "PicoScheme"): "028dcafa2010ca70",
    (None, False, "EarlyFusedScheme"): "0f2f4ed46d1661bc",
    (None, True, "PicoScheme"): "1893b613a7d266ff",
    (None, True, "EarlyFusedScheme"): "c40f2b433dfc2cc6",
    (3, False, "PicoScheme"): "028dcafa2010ca70",
    (3, False, "EarlyFusedScheme"): "0f2f4ed46d1661bc",
    (3, True, "PicoScheme"): "1893b613a7d266ff",
    (3, True, "EarlyFusedScheme"): "c40f2b433dfc2cc6",
}
#: The same record for the APICO switcher replay at rate 4.
_RECORDED_ADAPTIVE_REPLAY = "311da2b792781f77"


def _digest(result) -> str:
    return hashlib.sha256(repr(result).encode()).hexdigest()[:16]


class TestOneLinkDifferential:
    """The degenerate one-link topology reproduces the single-WLAN
    simulator bit for bit: full ``SimResult`` equality, trace, shed
    list and device-busy totals included, checked against digests
    recorded from that simulator."""

    @pytest.mark.parametrize("scheme_cls", [PicoScheme, EarlyFusedScheme])
    @pytest.mark.parametrize("contended", [False, True])
    @pytest.mark.parametrize("queue_capacity", [None, 3])
    def test_plan_replay_is_bit_identical(
        self, model, cluster, net, scheme_cls, contended, queue_capacity
    ):
        plan = scheme_cls().plan(model, cluster, net)
        result = repro.simulate(
            model, plan, network=net, arrivals=arrivals_list(),
            topology=Topology.bus(net, contended=contended), trace=True,
            queue_capacity=queue_capacity,
        )
        assert isinstance(result, SimResult)
        key = (queue_capacity, contended, scheme_cls.__name__)
        assert _digest(result) == _RECORDED_PLAN_REPLAYS[key]

    def test_adaptive_replay_is_bit_identical(self, model, cluster, net):
        result = repro.simulate(
            model, build_apico_switcher(model, cluster, net), network=net,
            arrivals=arrivals_list(rate=4.0), trace=True,
        )
        assert _digest(result) == _RECORDED_ADAPTIVE_REPLAY

    def test_lazy_process_matches_materialised_list(self, model, cluster, net):
        plan = PicoScheme().plan(model, cluster, net)
        legacy = poisson_arrivals(2.0, 20.0, np.random.default_rng(7))
        listed = repro.simulate(model, plan, network=net, arrivals=legacy)
        lazy = simulate_scenario(
            model, plan, topology=Topology.bus(net), network=net,
            arrivals=PoissonProcess(2.0, horizon_s=20.0), seed=7,
        )
        assert lazy == listed


class TestChurn:
    def test_correlated_burst_replans_and_rejoins(self, model, cluster, net):
        churn = correlated_churn(
            ["pi2", "pi3"], at=4.0, stagger_s=0.5, rejoin_after=8.0
        )
        tracer = Tracer()
        result = simulate_scenario(
            model, PicoScheme(), cluster,
            topology=Topology.bus(net), network=net,
            arrivals=arrivals_list(rate=1.0, horizon=25.0),
            churn=churn, trace=tracer,
        )
        kinds = [e.kind for e in tracer.events if e.frame == -1]
        assert kinds.count("device_dead") == 2
        assert kinds.count("device_join") == 2
        assert kinds.count("replan") + kinds.count("degraded") == 4
        assert result.completed == result.submitted
        # The backlog migrates onto replanned pipelines eventually.
        assert any(name.startswith("PICO") for name in result.plan_usage)

    def test_scheme_accepted_by_name(self, model, cluster, net):
        result = simulate_scenario(
            model, "pico", cluster,
            topology=Topology.bus(net), network=net,
            arrivals=[0.0, 1.0],
            churn=[ChurnEvent(2.0, "pi3", "leave")],
        )
        assert result.completed == 2

    def test_join_only_device_starts_outside(self, model, cluster, net):
        tracer = Tracer()
        result = simulate_scenario(
            model, PicoScheme(), cluster,
            topology=Topology.bus(net), network=net,
            arrivals=arrivals_list(rate=1.0, horizon=10.0),
            churn=[ChurnEvent(5.0, "pi3", "join")],
            trace=tracer,
        )
        kinds = [e.kind for e in tracer.events if e.frame == -1]
        assert kinds == ["device_join", "replan"]
        assert result.completed == result.submitted

    def test_churn_needs_a_scheme(self, model, cluster, net):
        plan = PicoScheme().plan(model, cluster, net)
        with pytest.raises(ValueError, match="scheme"):
            simulate_scenario(
                model, plan, cluster,
                topology=Topology.bus(net), network=net, arrivals=[0.0],
                churn=[ChurnEvent(1.0, "pi0", "leave")],
            )

    def test_churn_unknown_device_rejected(self, model, cluster, net):
        with pytest.raises(ValueError, match="not in the cluster"):
            simulate_scenario(
                model, PicoScheme(), cluster,
                topology=Topology.bus(net), network=net, arrivals=[0.0],
                churn=[ChurnEvent(1.0, "ghost", "leave")],
            )

    def test_correlated_churn_validates(self):
        with pytest.raises(ValueError):
            correlated_churn([], at=1.0)
        events = correlated_churn(["a", "b"], at=2.0, stagger_s=1.0)
        assert [e.time for e in events] == [2.0, 3.0]


class TestFrameCrashes:
    """``faults=`` crashes fire on an arrival count, through the same
    replan ladder as churn."""

    def test_burst_crash_fires_at_its_arrival(self, model, cluster, net):
        # Every arrival shares t=0, so only the arrival count can place
        # the crash; it must land on arrival 4, not at "time 0".
        result = repro.simulate(
            model, "pico", cluster, network=net, arrivals=[0.0] * 10,
            faults=FaultSchedule().crash("pi3", at_frame=4), trace=True,
        )
        dead = [e for e in result.trace if e.kind == "device_dead"]
        assert [(e.frame, e.device) for e in dead] == [(4, "pi3")]
        replans = [e for e in result.trace if e.kind in ("replan", "degraded")]
        assert [e.frame for e in replans] == [4]
        assert result.completed == 10

    def test_crash_composes_with_a_star_topology(self, model, cluster, net):
        names = [d.name for d in cluster]
        result = repro.simulate(
            model, "pico", cluster,
            topology=Topology.star(names, mbps=50.0, latency_s=0.0005),
            arrivals=arrivals_list(rate=1.0, horizon=10.0),
            faults=FaultSchedule().crash("pi1", at_frame=2), trace=True,
        )
        assert result.completed == result.submitted > 2
        kinds = [e.kind for e in result.trace]
        assert kinds.count("device_dead") == 1
        assert "replan" in kinds

    def test_crash_and_churn_share_one_live_set(self, model, cluster, net):
        # pi2 leaves at t=1 via churn; its crash on arrival 5 (t=2.5)
        # finds it gone and must not kill it twice or re-plan again, and
        # a crash is permanent, so the rejoin at t=3 is ignored.
        tracer = Tracer()
        result = simulate_scenario(
            model, PicoScheme(), cluster, network=net,
            arrivals=[0.5 * i for i in range(8)],
            churn=[ChurnEvent(1.0, "pi2", "leave"),
                   ChurnEvent(3.0, "pi2", "join")],
            faults=FaultSchedule().crash("pi2", at_frame=5), trace=tracer,
        )
        kinds = [e.kind for e in tracer.events if e.kind != "compute"
                 and e.kind != "enqueue"]
        assert kinds == ["device_dead", "replan"]
        assert result.completed == 8

    def test_unknown_crash_device_rejected(self, model, cluster, net):
        with pytest.raises(ValueError, match="not in the cluster: nosuch"):
            repro.simulate(
                model, "pico", cluster, network=net, arrivals=[0.0] * 4,
                faults=FaultSchedule().crash("nosuch", at_frame=2),
            )

    @pytest.mark.parametrize("faults", [
        FaultSchedule().delay("pi0", frame=1, seconds=0.5),
        FaultSchedule().drop("pi0", frame=1),
        FaultSchedule().flaky_link("pi0", frame=1),
        FaultSchedule().crash("pi0", at_frame=1).drop("pi1", frame=0),
    ], ids=["delay", "drop", "flaky_link", "crash+drop"])
    def test_frame_level_faults_rejected(self, model, cluster, net, faults):
        with pytest.raises(ValueError, match="SimTransport"):
            repro.simulate(
                model, "pico", cluster, network=net, arrivals=[0.0] * 4,
                faults=faults,
            )


class TestMultiHop:
    def test_star_runs_and_contends(self, model, cluster, net):
        arrivals = arrivals_list(rate=1.0, horizon=10.0)
        bus = simulate_scenario(
            model, PicoScheme(), cluster,
            topology=Topology.bus(net), network=net, arrivals=arrivals,
        )
        star = simulate_scenario(
            model, PicoScheme(), cluster,
            topology=Topology.star([d.name for d in cluster], mbps=50.0),
            arrivals=arrivals,
        )
        assert star.completed == len(arrivals)
        # Two store-and-forward hops per transfer plus per-link FIFO
        # contention can only slow things down vs the folded one-link run.
        assert star.avg_latency >= bus.avg_latency - 1e-9

    def test_tighter_links_hurt(self, model, cluster):
        arrivals = arrivals_list(rate=1.0, horizon=10.0)
        names = [d.name for d in cluster]
        fast = simulate_scenario(
            model, PicoScheme(), cluster,
            topology=Topology.star(names, mbps=500.0), arrivals=arrivals,
        )
        slow = simulate_scenario(
            model, PicoScheme(), cluster,
            topology=Topology.star(names, mbps=5.0), arrivals=arrivals,
        )
        assert slow.makespan > fast.makespan

    def test_sampled_network_stays_deterministic_per_seed(self, model, cluster):
        names = [d.name for d in cluster]
        topo = Topology.star(names, mbps=50.0, jitter_s=0.002, loss=0.05)
        kwargs = dict(
            topology=topo, arrivals=[0.0, 1.0, 2.0], sample_network=True,
        )
        a = simulate_scenario(model, PicoScheme(), cluster, seed=3, **kwargs)
        b = simulate_scenario(model, PicoScheme(), cluster, seed=3, **kwargs)
        assert a == b


class TestStatsMode:
    def test_stats_agree_with_records(self, model, cluster, net):
        arrivals = arrivals_list(rate=2.0, horizon=15.0)
        kwargs = dict(
            topology=Topology.bus(net), network=net, arrivals=arrivals,
            queue_capacity=4,
        )
        full = simulate_scenario(model, PicoScheme(), cluster, **kwargs)
        stats = simulate_scenario(
            model, PicoScheme(), cluster, keep_records=False, **kwargs
        )
        assert isinstance(stats, SimStats)
        assert stats.completed == full.completed
        assert stats.shed_count == len(full.shed)
        assert stats.makespan == full.makespan
        assert stats.avg_latency == pytest.approx(full.avg_latency)
        assert stats.max_latency == pytest.approx(full.max_latency)
        assert stats.device_busy == full.device_busy
        assert stats.n_events > 0


class TestValidation:
    def test_arrivals_required(self, model, cluster, net):
        with pytest.raises(ValueError, match="arrivals"):
            simulate_scenario(
                model, PicoScheme(), cluster, topology=Topology.bus(net)
            )

    def test_scheme_needs_cluster(self, model, net):
        with pytest.raises(ValueError, match="cluster"):
            simulate_scenario(
                model, PicoScheme(), topology=Topology.bus(net),
                arrivals=[0.0],
            )
