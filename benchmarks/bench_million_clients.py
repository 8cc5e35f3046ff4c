"""The million-client cohort-scale acceptance benchmark.

The fault drill at a scale the discrete fleet cannot reach: a million
clients (32 discrete representatives + cohort flows modeling the rest)
against the 4-server mixed SOAP/CORBA fleet, through a mid-run crash, a
partition that heals, a restart, **and** a rolling breaking interface
upgrade (``echo`` → ``echo_v2``).  The headline quantity is
``clients_simulated_per_second`` — how many clients one wall-clock second
of simulation carries.

The run is asserted byte-deterministic (two fresh runs produce identical
cohort fingerprints — every counter, every histogram bin), every modeled
call is accounted for, and the §6 recency guarantee holds at flow
granularity (``recency_violations == 0``) while the breaking upgrade
forces flow-level rebinds.

Two full 1M runs take about 0.5 s on a 2-core host (Python 3.11): the
plan stage's per-client work is one offset per client, everything else
is done once per flow (ARCHITECTURE.md "Cohort model", plan cost).
``REPRO_BENCH_QUICK=1`` (set by ``run_all.py --quick``) drops the scale to
100k clients.

``deterministic_plan_heap_bytes_per_client`` is the tracemalloc peak of one
plan stage (``_build_plans``) at 100k clients, per client: tracemalloc
counts allocations exactly, so the figure repeats run to run and lets
``run_all.py --strict`` tell a plan-memory regression from machine noise.

Run with:  pytest benchmarks/bench_million_clients.py --benchmark-only -s
"""

from __future__ import annotations

import os
import time
import tracemalloc

import pytest

from repro.cluster.presets import (
    MILLION_CLIENTS,
    MILLION_CLIENTS_QUICK,
    million_client_scenario,
)

_QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

CLIENTS = MILLION_CLIENTS_QUICK if _QUICK else MILLION_CLIENTS
REPRESENTATIVES = 32


def plan_heap_bytes_per_client(clients: int = MILLION_CLIENTS_QUICK) -> float:
    """Peak traced heap of one plan stage of the drill, per client."""
    runtime = million_client_scenario(clients).build()
    # An untraced pass first: one-time caches and the client hosts are then
    # in place, so the traced pass measures the steady-state plan stage.
    runtime._build_plans()
    tracemalloc.start()
    try:
        runtime._build_plans()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return round(peak / clients, 2)


@pytest.mark.benchmark(group="million-clients")
def test_million_clients_cohort_drill(benchmark):
    """1M clients × crash + partition + rolling breaking upgrade, deterministic."""

    def run_twice():
        started = time.perf_counter()
        first = million_client_scenario(CLIENTS).run()
        first_wall = time.perf_counter() - started
        second = million_client_scenario(CLIENTS).run()
        return first, second, first_wall

    first, second, first_wall = benchmark.pedantic(run_twice, rounds=1, iterations=1)

    # Byte-deterministic across full reruns: every cohort counter and
    # histogram bin, plus the discrete representatives' RTT sequences.
    assert first.cohort_fingerprint() == second.cohort_fingerprint()
    assert first.all_rtts == second.all_rtts
    assert first.events_dispatched == second.events_dispatched

    # Every client is carried: representatives discretely, the rest modeled.
    assert first.simulated_clients == CLIENTS
    assert len(first.clients) == REPRESENTATIVES
    assert first.modeled_clients == CLIENTS - REPRESENTATIVES
    # Conservation: every modeled call completed or was abandoned.
    modeled_issued = first.modeled_clients * 2
    assert (
        first.total_modeled_calls + first.total_abandoned_calls == modeled_issued
    )

    # The §6 recency guarantee held at cohort scale, through every fault
    # and the breaking upgrade.
    assert first.total_recency_violations == 0
    # The rolling upgrade really was breaking: flows rebound their stubs.
    assert first.total_rebinds > 0
    assert any(record.service == "EchoSoap" for record in first.rollouts)
    # The bounded server cores really contended: modeled latency spread out.
    percentiles = first.modeled_rtt_percentiles
    assert percentiles["p99"] > percentiles["p50"]

    benchmark.extra_info["clients_simulated"] = first.simulated_clients
    benchmark.extra_info["representatives"] = REPRESENTATIVES
    benchmark.extra_info["clients_simulated_per_second"] = round(
        first.simulated_clients / first_wall
    )
    benchmark.extra_info["events_dispatched"] = first.events_dispatched
    benchmark.extra_info["simulated_duration_s"] = round(first.duration, 5)
    benchmark.extra_info["deterministic_modeled_calls"] = first.total_modeled_calls
    benchmark.extra_info["deterministic_rebinds"] = first.total_rebinds
    benchmark.extra_info["deterministic_abandoned_calls"] = first.total_abandoned_calls
    benchmark.extra_info["recency_violations"] = first.total_recency_violations
    benchmark.extra_info["deterministic_plan_heap_bytes_per_client"] = (
        plan_heap_bytes_per_client()
    )
    benchmark.extra_info["modeled_rtt_p50_s"] = round(percentiles["p50"], 6)
    benchmark.extra_info["modeled_rtt_p95_s"] = round(percentiles["p95"], 6)
    benchmark.extra_info["modeled_rtt_p99_s"] = round(percentiles["p99"], 6)
    benchmark.extra_info["modeled_mean_rtt_s"] = round(first.modeled_mean_rtt, 6)
