"""The fault-drill acceptance benchmark for :mod:`repro.faults`.

A 4-server, 256-client mixed SOAP/CORBA fleet — two replicated echo
services, failover retry policy on every client — survives a mid-run
crash, a partition that later heals, and a restart, while a developer
edits and republishes one service.  The benchmark records the cost of
*simulating* the drill; the simulated quantities (availability metrics,
RTT percentiles, per-node downtime, events dispatched) go to
``extra_info``, and the run is asserted byte-deterministic: two fresh
seeded runs produce identical per-call RTT sequences and event counts.

The central §6 assertion rides along: across crash, partition and
failover, no client ever observes a published interface older than one it
already saw (``total_recency_violations == 0``).

``deterministic_interface_parses`` is the number of WSDL plus IDL parses
in the first run, taken by wrapping the parser names the client stacks
call.  Each replica parses its published document once, however
many clients fetch it, so the count is four — two SOAP and two CORBA
replicas.  A change that brings per-client parsing back multiplies it by
the fleet size, which ``run_all.py --strict`` reads as changed work.

``REPRO_BENCH_QUICK=1`` (set by ``run_all.py --quick``) shrinks the fleet.

Run with:  pytest benchmarks/bench_fault_drill.py --benchmark-only -s
"""

from __future__ import annotations

import os
from unittest import mock

import pytest

from repro.cluster import protocols
from repro.cluster.presets import (
    FAULT_DRILL_CLIENTS,
    FAULT_DRILL_CLIENTS_QUICK,
    fault_drill_scenario,
)

_QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

#: The acceptance floor is 256 clients; quick CI grids run a quarter of it.
CLIENTS = FAULT_DRILL_CLIENTS_QUICK if _QUICK else FAULT_DRILL_CLIENTS

#: Replicas of the drill's two services that publish a parsed document.
REPLICA_DOCUMENTS = 4


@pytest.mark.benchmark(group="fault-drill")
def test_fault_drill_4x256_mixed(benchmark):
    """4 servers × 256 mixed clients through a crash + partition, deterministic."""

    def run_twice():
        with (
            mock.patch.object(protocols, "parse_wsdl", wraps=protocols.parse_wsdl) as wsdl,
            mock.patch.object(protocols, "parse_idl", wraps=protocols.parse_idl) as idl,
        ):
            first = fault_drill_scenario(CLIENTS).run()
        return first, fault_drill_scenario(CLIENTS).run(), wsdl.call_count + idl.call_count

    first, second, interface_parses = benchmark.pedantic(run_twice, rounds=1, iterations=1)

    # Byte-deterministic: identical RTT sequences, routing and event counts.
    assert first.all_rtts == second.all_rtts
    assert first.duration == second.duration
    assert first.events_dispatched == second.events_dispatched
    assert [c.replica_sequence for c in first.clients] == [
        c.replica_sequence for c in second.clients
    ]

    # Every call completed despite the faults, and failover really happened.
    assert first.total_calls + first.total_abandoned_calls == CLIENTS * 4
    assert first.total_successes == first.total_calls
    assert first.total_failed_attempts > 0
    assert first.total_retried_calls > 0
    # The §6 recency guarantee held across crash, partition and failover.
    assert first.total_recency_violations == 0
    # Availability accounting: exactly one node was ever down.
    crashed = [node for node in first.nodes if node.downtime_s > 0]
    assert [node.name for node in crashed] == ["server-1"]
    assert crashed[0].outages == 1
    # Interface documents are parsed once per replica document, not per client.
    assert interface_parses == REPLICA_DOCUMENTS

    benchmark.extra_info["clients"] = CLIENTS
    benchmark.extra_info["servers"] = 4
    benchmark.extra_info["simulated_duration_s"] = round(first.duration, 5)
    benchmark.extra_info["events_dispatched"] = first.events_dispatched
    benchmark.extra_info["mean_simulated_rtt_s"] = round(first.mean_rtt, 5)
    percentiles = first.rtt_percentiles
    benchmark.extra_info["rtt_p50_s"] = round(percentiles["p50"], 6)
    benchmark.extra_info["rtt_p95_s"] = round(percentiles["p95"], 6)
    benchmark.extra_info["rtt_p99_s"] = round(percentiles["p99"], 6)
    benchmark.extra_info["deterministic_failed_attempts"] = first.total_failed_attempts
    benchmark.extra_info["deterministic_retried_calls"] = first.total_retried_calls
    benchmark.extra_info["deterministic_abandoned_calls"] = first.total_abandoned_calls
    benchmark.extra_info["deterministic_interface_parses"] = interface_parses
    benchmark.extra_info["recency_violations"] = first.total_recency_violations
    benchmark.extra_info["server1_downtime_s"] = round(crashed[0].downtime_s, 5)
    if crashed[0].recovery_latency_s is not None:
        benchmark.extra_info["server1_recovery_latency_s"] = round(
            crashed[0].recovery_latency_s, 5
        )
