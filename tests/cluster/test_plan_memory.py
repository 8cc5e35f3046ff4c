"""Plan-stage memory per client: arrival offsets stay packed at every step.

A cohort group resolves one start offset per client, so the plan stage's
heap is the one cost that grows with the client count.  tracemalloc counts
Python allocations exactly, so the traced peak over one resolution (or one
``_build_plans``) is deterministic: these bounds are not timing-dependent.
Boxed offsets (a list of float objects) cost 32 bytes per client before
any temporaries; packed ``array("d")`` offsets cost 8.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.cluster import CohortModel
from repro.cluster.presets import cohort_scale_cost_model, fault_drill_scenario
from repro.traffic import ParetoHeavyTail, Poisson, resolve_offsets

CLIENTS = 100_000
#: Peak traced bytes per client allowed for one plan-stage step.
MAX_BYTES_PER_CLIENT = 24


def _peak_bytes_per_client(step) -> float:
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / CLIENTS


@pytest.mark.parametrize(
    "arrival",
    [
        Poisson(rate=CLIENTS / 0.2, seed=1),
        ParetoHeavyTail(alpha=1.5, scale=0.2 / CLIENTS, seed=1),
        0.2 / CLIENTS,
    ],
    ids=["poisson", "pareto", "scalar"],
)
def test_resolve_offsets_heap_per_client(arrival):
    per_client = _peak_bytes_per_client(lambda: resolve_offsets(arrival, CLIENTS))
    assert per_client <= MAX_BYTES_PER_CLIENT


def test_build_plans_heap_per_client_on_the_cohort_drill_shape():
    # The perfbench cohort drill's plan stage: a 50/50 SOAP/CORBA group of
    # seeded Poisson arrivals, 32 representatives and two cohort flows.
    runtime = fault_drill_scenario(
        CLIENTS,
        cores=2,
        cohort=CohortModel(representatives=32),
        calls=2,
        arrival=Poisson(rate=CLIENTS / 0.2, seed=1),
        cost_model=cohort_scale_cost_model(),
    ).build()
    per_client = _peak_bytes_per_client(runtime._build_plans)
    assert per_client <= MAX_BYTES_PER_CLIENT
