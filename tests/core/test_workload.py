"""Tests for the multi-client fleet on one SDE server and the scale-out experiment.

The fleet pins run one echo service on one server machine through the
declarative :class:`repro.cluster.Scenario` API.
"""

from __future__ import annotations

import pytest

from repro.cluster import Scenario, edit, op
from repro.core.sde import SDEConfig
from repro.errors import ClusterError, ServiceNotFoundError, TechnologyError
from repro.experiments.multi_client import (
    SCENARIO_STALE_STORM,
    format_scaling,
    run_multi_client,
)
from repro.net.latency import era_2004_cost_model
from repro.rmitypes import STRING


def _echo_scenario(
    technology: str,
    clients: int,
    calls: int,
    *,
    stale_storm: bool = False,
    config: SDEConfig | None = None,
    **client_options,
) -> Scenario:
    """One server, one echo service, ``clients`` clients of ``calls`` calls.

    ``stale_storm`` edits the service as the fleet starts, so calls to the
    stale operation stall behind the pending publication (§5.7).
    """
    scenario = (
        Scenario(sde_config=config)
        .service(
            "EchoService",
            [op("echo", (("m", STRING),), STRING, body=lambda _self, m: m)],
            technology=technology,
        )
        .clients(
            clients,
            service="EchoService",
            calls=calls,
            arguments=("ping",),
            **client_options,
        )
    )
    if stale_storm:
        scenario.at(0.0, edit("EchoService", op("added_later")))
    return scenario


class TestClientFleet:
    def test_create_client_fleet_names_and_count(self):
        world = _echo_scenario("soap", clients=1, calls=1).build().world
        fleet = world.client_fleet(3)
        assert [host.name for host in fleet] == ["fleet-client-1", "fleet-client-2", "fleet-client-3"]
        assert all(host.network is world.network for host in fleet)
        # A second fleet under the same names reuses the attached machines.
        assert world.client_fleet(3) == fleet
        assert world.client_hosts.count(fleet[0]) == 1

    def test_add_client_host_auto_names(self):
        world = _echo_scenario("soap", clients=1, calls=1).build().world
        host = world.add_client()
        assert host.name.startswith("client-")
        assert host in world.client_hosts

    @pytest.mark.parametrize("technology", ["soap", "corba"])
    def test_run_reuses_an_attached_fleet(self, technology):
        """A fleet attached before the run is the one the run drives, so
        the run is identical to one on a fresh runtime and reruns attach
        no further machines."""
        fresh = _echo_scenario(technology, clients=4, calls=5, think_time=0.01).run()
        runtime = _echo_scenario(technology, clients=4, calls=5, think_time=0.01).build()
        hosts = runtime.world.client_fleet(4)
        prebuilt = runtime.run()
        assert prebuilt.all_rtts == fresh.all_rtts
        assert prebuilt.duration == fresh.duration
        assert prebuilt.total_successes == 20
        runtime.settle()
        runtime.run()
        assert runtime.world.client_fleet(4) == hosts
        assert len(runtime.world.client_hosts) == 4


class TestWorkloadSteadyState:
    @pytest.mark.parametrize("technology", ["soap", "corba"])
    def test_all_calls_succeed(self, technology):
        report = _echo_scenario(technology, clients=6, calls=4).run()
        assert report.total_calls == 24
        assert report.total_successes == 24
        assert report.total_stale_faults == 0
        assert report.duration > 0
        assert report.mean_rtt > 0
        assert report.throughput > 0

    @pytest.mark.parametrize("technology", ["soap", "corba"])
    def test_one_keepalive_connection_per_client(self, technology):
        report = _echo_scenario(technology, clients=5, calls=3).run()
        assert report.server_connections == 5
        assert report.server_replies_sent == 15

    def test_per_client_results_recorded(self):
        report = _echo_scenario("soap", clients=3, calls=2).run()
        assert len(report.clients) == 3
        for client in report.clients:
            assert client.calls == 2
            assert client.successes == 2
            assert client.mean_rtt > 0
            assert client.max_rtt >= client.mean_rtt

    def test_think_time_stretches_duration(self):
        fast = _echo_scenario("soap", clients=2, calls=3).run()
        slow = _echo_scenario("soap", clients=2, calls=3, think_time=1.0).run()
        assert slow.duration > fast.duration + 1.5


class TestWorkloadDeterminism:
    @pytest.mark.parametrize("technology", ["soap", "corba"])
    def test_identical_runs_produce_identical_rtts(self, technology):
        def run_once():
            return _echo_scenario(
                technology,
                clients=8,
                calls=4,
                stale_storm=True,
                stale_every=4,
                think_time=0.05,
            ).run()

        first, second = run_once(), run_once()
        assert first.all_rtts == second.all_rtts
        assert first.duration == second.duration
        assert first.max_stall_queue_depth == second.max_stall_queue_depth


class TestWorkloadStaleStorm:
    @pytest.mark.parametrize("technology", ["soap", "corba"])
    def test_stall_queue_forms_and_drains(self, technology):
        report = _echo_scenario(
            technology,
            clients=8,
            calls=6,
            stale_storm=True,
            stale_every=3,
            think_time=0.05,
        ).run()
        # Every third of six calls per client is stale.
        assert report.total_stale_faults == 8 * 2
        assert report.stalled_calls > 0
        assert report.max_stall_queue_depth > 0
        # Everything drained: every call got an answer.
        assert report.total_calls == 8 * 6
        assert report.total_successes == 8 * 4


class TestWorkloadReruns:
    def test_max_stall_queue_depth_is_per_run(self):
        """A later run on the same runtime must not inherit an earlier
        run's stall-queue high-water mark.  The storm's edit is on the
        timeline, which only the first run arms."""
        runtime = _echo_scenario(
            "soap", clients=6, calls=6, stale_storm=True, stale_every=3, think_time=0.05
        ).build()
        storm = runtime.run()
        assert storm.max_stall_queue_depth > 0
        runtime.settle()

        steady = runtime.run()
        assert steady.max_stall_queue_depth == 0
        # The lifetime maximum on the handler stats survives for observers.
        handler = runtime.replicas("EchoService")[0].call_handler
        assert handler.stats.max_stall_queue_depth == storm.max_stall_queue_depth
        # Endpoint accounting is per run too, not lifetime.
        assert steady.server_replies_sent == 6 * 6
        assert steady.server_connections == 6


class TestScalingExperiment:
    @pytest.mark.parametrize("technology", ["soap", "corba"])
    def test_steady_scenario_summary(self, technology):
        result = run_multi_client(technology, clients=4, calls_per_client=3)
        assert result.total_calls == 12
        assert result.server_connections == 4
        assert result.stalled_calls == 0

    def test_stale_storm_scenario_stalls(self):
        result = run_multi_client(
            "soap", clients=6, calls_per_client=6, scenario=SCENARIO_STALE_STORM
        )
        assert result.stalled_calls > 0
        assert result.max_stall_queue_depth > 0

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_multi_client("soap", clients=1, scenario="nope")

    def test_format_scaling_renders_rows(self):
        results = [run_multi_client("soap", clients=2, calls_per_client=2)]
        table = format_scaling(results)
        assert "soap" in table
        assert "steady" in table


class TestWorkloadValidation:
    def test_unknown_technology_rejected(self):
        with pytest.raises(TechnologyError):
            Scenario().service(
                "EchoService",
                [op("echo", (("m", STRING),), STRING, body=lambda _self, m: m)],
                technology="grpc",
            ).build()
        scenario = _echo_scenario("soap", clients=1, calls=1)
        scenario.clients(2, protocol_mix={"grpc": 1.0}, calls=1, arguments=("ping",))
        with pytest.raises(ClusterError, match="grpc"):
            scenario.run()

    def test_mismatched_fleet_rejected(self):
        """A client group aimed at a service the scenario does not declare."""
        scenario = Scenario().service(
            "EchoService",
            [op("echo", (("m", STRING),), STRING, body=lambda _self, m: m)],
        )
        scenario.clients(3, service="OtherService", calls=1, arguments=("ping",))
        with pytest.raises(ServiceNotFoundError, match="OtherService"):
            scenario.run()


class TestCoreWaitAccounting:
    def test_server_max_core_wait_is_per_run(self):
        """The longest single core wait is a per-run figure (as documented):
        a light run after a heavy one must not inherit its high water,
        while the core keeps the lifetime maximum for observers.  In the
        storm a call queued behind the §5.7 stall reaches the one core late
        and collides with the next client; the rerun queues nothing."""
        runtime = _echo_scenario(
            "soap",
            clients=8,
            calls=3,
            stale_storm=True,
            stale_every=3,
            think_time=0.05,
            arrival=0.5,
            config=SDEConfig(cost_model=era_2004_cost_model(), server_cores=1),
        ).build()
        heavy = runtime.run()
        runtime.settle()
        light = runtime.run()
        heavy_wait = heavy.nodes[0].max_core_wait
        assert heavy.max_stall_queue_depth > 0
        assert light.max_stall_queue_depth == 0
        assert light.nodes[0].max_core_wait < heavy_wait
        # The core itself keeps the lifetime high-water mark.
        assert runtime.nodes[0].server_core.max_queue_delay == heavy_wait
