"""The benchmark's four scenario workloads and their output checks.

Every workload is a :class:`repro.cluster.Scenario` built from the public
Scenario API.  The workload seed feeds exactly one thing: the seeded
open-loop :class:`repro.traffic.arrivals.Poisson` process that draws the
clients' start offsets.  After its first call a client is closed-loop: it
waits for each reply, then thinks for ``think_time`` virtual seconds.

The simulator is deterministic, so simulated results are an output check
here (fingerprint digests, call conservation, §6 recency, the §5.7 stale
count), never a metric.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from repro.cluster.cohort import CohortModel
from repro.cluster.presets import (
    FAULT_DRILL_CLIENTS,
    MILLION_CLIENTS,
    cohort_scale_cost_model,
    fault_drill_scenario,
)
from repro.cluster.report import ClusterReport
from repro.cluster.scenario import Scenario, churn, op
from repro.core.sde import SDEConfig
from repro.evolve import rolling, upgrade
from repro.rmitypes import INT, STRING
from repro.traffic.arrivals import Poisson
from repro.traffic.trace import echo_body

#: The seed whose fingerprint digests are recorded in ``expected.json``.
DEFAULT_SEED = 1

#: Mean client arrival rate (clients per virtual second) of the discrete
#: workloads: the fault drill's historical 0.5 ms spacing as a Poisson mean.
DISCRETE_ARRIVAL_RATE = 2000.0

#: The cohort drill lands its whole modeled mass within 0.2 virtual seconds,
#: like ``million_client_scenario``.
COHORT_ARRIVAL_WINDOW = 0.2


@dataclass(frozen=True)
class Workload:
    """One named workload: how to declare it, how to run it, what to expect."""

    name: str
    #: ``(clients, seed) -> Scenario``; called inside the timed region, so
    #: declaring the scenario counts towards ``setup_s`` and ``wall_s``.
    declare: Callable[[int, int], Scenario]
    #: Client count at full scale and at the self-test's reduced scale.
    clients: int
    reduced_clients: int
    #: Calls every client issues (discrete and modeled alike).
    calls: int
    #: Every ``stale_every``-th call of a discrete client is a deliberate
    #: call to a method that does not exist (a §5.7 stale call).
    stale_every: int | None = None
    #: Run with observability armed (``Scenario.run(obs=True)``).
    obs: bool = False


def _fault_drill(clients: int, seed: int) -> Scenario:
    return fault_drill_scenario(
        clients, arrival=Poisson(rate=DISCRETE_ARRIVAL_RATE, seed=seed)
    )


LIVE_EDIT_OPERATIONS = 13
LIVE_EDIT_CALLS = 32
LIVE_EDIT_STALE_EVERY = 8
LIVE_EDIT_CHURN_ROUNDS = 40
LIVE_EDIT_CHURN_PERIOD = 0.025


def _identity(_self, value):
    return value


def _live_edit(clients: int, seed: int) -> Scenario:
    # The paper's loop: both services are edited and republished every
    # 25 ms while clients keep calling, and every 8th call asks for a method
    # that is gone, so the §5.7 stall and stale fault are exercised.
    operations = [op("echo", (("message", STRING),), STRING, body=echo_body)] + [
        op(f"op{index}", (("value", INT),), INT, body=_identity)
        for index in range(LIVE_EDIT_OPERATIONS - 1)
    ]
    return (
        Scenario(name="live-edit", sde_config=SDEConfig(generation_cost=0.02))
        .servers(4)
        .service("LiveSoap", operations, technology="soap", replicas=2)
        .service("LiveCorba", operations, technology="corba", replicas=2)
        .clients(
            clients,
            protocol_mix={"soap": 0.5, "corba": 0.5},
            calls=LIVE_EDIT_CALLS,
            operation="echo",
            arguments=("hello live edit",),
            think_time=0.02,
            arrival=Poisson(rate=DISCRETE_ARRIVAL_RATE, seed=seed),
            stale_every=LIVE_EDIT_STALE_EVERY,
        )
        .at(0.01, churn("LiveSoap", LIVE_EDIT_CHURN_ROUNDS, LIVE_EDIT_CHURN_PERIOD))
        .at(0.01, churn("LiveCorba", LIVE_EDIT_CHURN_ROUNDS, LIVE_EDIT_CHURN_PERIOD))
    )


def _cohort_drill(clients: int, seed: int) -> Scenario:
    # million_client_scenario with its scalar arrival spacing replaced by a
    # seeded Poisson process of the same mean rate.
    echo_v2 = op("echo_v2", (("message", STRING),), STRING, body=echo_body)
    return fault_drill_scenario(
        clients,
        cores=2,
        cohort=CohortModel(representatives=32),
        calls=2,
        arrival=Poisson(rate=clients / COHORT_ARRIVAL_WINDOW, seed=seed),
        cost_model=cohort_scale_cost_model(),
    ).at(
        0.080,
        rolling(
            "EchoSoap",
            upgrade(add=[echo_v2], remove=["echo"], successors={"echo": "echo_v2"}),
            batch_size=1,
            drain=0.005,
        ),
    )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("fault_drill", _fault_drill, FAULT_DRILL_CLIENTS, 64, calls=4),
        Workload(
            "live_edit",
            _live_edit,
            32,
            8,
            calls=LIVE_EDIT_CALLS,
            stale_every=LIVE_EDIT_STALE_EVERY,
        ),
        Workload("cohort_drill", _cohort_drill, MILLION_CLIENTS, 20_000, calls=2),
        Workload(
            "fault_drill_obs", _fault_drill, FAULT_DRILL_CLIENTS, 64, calls=4, obs=True
        ),
    )
}


def fingerprint_digest(report: ClusterReport) -> str:
    """SHA-256 of ``repr(report.fingerprint())`` (covers the cohort part)."""
    return hashlib.sha256(repr(report.fingerprint()).encode()).hexdigest()


def cohort_digest(report: ClusterReport) -> str:
    """SHA-256 of ``repr(report.cohort_fingerprint())``."""
    return hashlib.sha256(repr(report.cohort_fingerprint()).encode()).hexdigest()


@dataclass
class Outcome:
    """Call accounting of one run, judged against the workload's plan."""

    issued: int = 0
    completed: int = 0
    abandoned: int = 0
    #: Calls whose outcome was not the expected one.
    failed: int = 0
    #: Stale faults served to the deliberate stale calls, and their number.
    probe_stale_faults: int = 0
    probes: int = 0
    recency_violations: int = 0


def judge(workload: Workload, report: ClusterReport) -> Outcome:
    """Count issued, completed and failed calls of one run.

    A normal call is expected to succeed, or, when a breaking upgrade
    reaches its client, to get the §5.7 stale fault that makes the client
    rebind (one stale fault per rebind).  A deliberate stale call is
    expected to get its stale fault.  Anything else is a failed call:
    abandoned calls, other faults, "server not initialized" faults.
    """
    outcome = Outcome()
    k = workload.stale_every
    for client in report.clients:
        issued = len(client.rtts) + client.abandoned_calls
        probes = issued // k if k else 0
        normal = issued - probes
        probe_stale = client.stale_faults - client.rebinds
        outcome.issued += issued
        outcome.completed += len(client.rtts)
        outcome.abandoned += client.abandoned_calls
        outcome.probes += probes
        outcome.probe_stale_faults += probe_stale
        outcome.failed += max(0, normal - client.successes - client.rebinds)
        outcome.failed += max(0, probes - probe_stale)
    for cohort in report.cohorts:
        issued = cohort.modeled_clients * cohort.calls_per_client
        outcome.issued += issued
        outcome.completed += cohort.calls
        outcome.abandoned += cohort.abandoned_calls
        outcome.failed += max(0, issued - cohort.successes - cohort.rebinds)
    outcome.recency_violations = report.total_recency_violations
    return outcome


def check_report(workload: Workload, clients: int, report: ClusterReport) -> list[str]:
    """Invariant checks of one run; returns the list of violations."""
    problems = []
    outcome = judge(workload, report)
    planned = clients * workload.calls
    if outcome.issued != planned:
        problems.append(f"{outcome.issued} calls issued, {planned} planned")
    if outcome.completed + outcome.abandoned != outcome.issued:
        problems.append(
            f"call conservation: {outcome.completed} completed + "
            f"{outcome.abandoned} abandoned != {outcome.issued} issued"
        )
    if outcome.recency_violations:
        problems.append(f"{outcome.recency_violations} §6 recency violations")
    if workload.stale_every and outcome.probe_stale_faults != outcome.probes:
        problems.append(
            f"{outcome.probe_stale_faults} stale faults for "
            f"{outcome.probes} deliberate stale calls"
        )
    return problems
