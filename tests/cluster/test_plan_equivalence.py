"""The plan stage's bulk construction equals the per-client one it replaced.

``_weighted_interleave`` returns one period of the protocol sequence and
``_build_plans`` builds each cohort flow's offsets from that period,
instead of walking every client: a flow that owns one slot of the period
in a sorted group gets a read-only strided view of the group's offsets,
and every other flow copies its offsets out by a periodic mask.  These
tests pin both paths against the per-slot and per-position constructions
they replaced, kept here as oracles, so a change to the plan stage cannot
move a fingerprint.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import CohortModel, Scenario, op
from repro.cluster.scenario import MAX_INTERLEAVE_PERIOD, _weighted_interleave
from repro.errors import ClusterError
from repro.rmitypes import STRING
from repro.traffic import Poisson, resolve_offsets


def _oracle_interleave(mix, count):
    """The per-slot largest-deficit loop, as it ran before tiling."""
    names = [name for name, weight in mix if weight > 0]
    if not names:
        raise ClusterError("protocol_mix needs at least one positive weight")
    weights = dict(mix)
    total = sum(weights[name] for name in names)
    assigned = {name: 0 for name in names}
    sequence = []
    for slot in range(1, count + 1):
        name = max(names, key=lambda n: (weights[n] / total) * slot - assigned[n])
        assigned[name] += 1
        sequence.append(name)
    return sequence


def _full_sequence(mix, count):
    unit = _weighted_interleave(mix, count)
    return [unit[slot % len(unit)] for slot in range(count)]


_NAMES = ("soap", "corba", "third", "fourth")

_dyadic = st.builds(
    lambda numerator, exponent: numerator / 2**exponent,
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=0, max_value=6),
)
_any_weight = st.one_of(
    st.just(0.0),
    _dyadic,
    st.floats(min_value=1e-3, max_value=100.0),
    st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 0.7]),
)


@st.composite
def _mixes(draw):
    size = draw(st.integers(min_value=1, max_value=4))
    weights = draw(st.lists(_any_weight, min_size=size, max_size=size))
    if not any(weight > 0 for weight in weights):
        weights[draw(st.integers(min_value=0, max_value=size - 1))] = 1.0
    return list(zip(_NAMES, weights))


class TestInterleaveOracle:
    @given(mix=_mixes(), count=st.integers(min_value=1, max_value=5000))
    @settings(max_examples=150, deadline=None)
    def test_tiled_sequence_equals_the_per_slot_rule(self, mix, count):
        assert _full_sequence(mix, count) == _oracle_interleave(mix, count)

    @given(
        mix=st.lists(_dyadic, min_size=1, max_size=4)
        .filter(lambda weights: any(weight > 0 for weight in weights))
        .map(lambda weights: list(zip(_NAMES, weights))),
        count=st.integers(min_value=1, max_value=5000),
    )
    @settings(max_examples=100, deadline=None)
    def test_dyadic_mixes_equal_the_per_slot_rule(self, mix, count):
        assert _full_sequence(mix, count) == _oracle_interleave(mix, count)

    @pytest.mark.parametrize(
        "mix, period",
        [
            ([("soap", 0.5), ("corba", 0.5)], 2),
            ([("soap", 0.75), ("corba", 0.25)], 4),
            ([("soap", 3.0), ("corba", 1.0), ("third", 4.0)], 8),
            ([("soap", 0.0), ("corba", 2.0)], 1),
        ],
    )
    def test_dyadic_mixes_tile_one_period(self, mix, period):
        assert len(_weighted_interleave(mix, 1_000_000)) == period
        assert _full_sequence(mix, 10_000) == _oracle_interleave(mix, 10_000)

    def test_non_dyadic_mix_runs_every_slot(self):
        mix = [("soap", 0.7), ("corba", 0.3)]
        assert len(_weighted_interleave(mix, 3000)) == 3000
        assert _full_sequence(mix, 3000) == _oracle_interleave(mix, 3000)

    def test_long_period_runs_every_slot(self):
        mix = [("soap", 1.0), ("corba", 2 * MAX_INTERLEAVE_PERIOD - 1.0)]
        assert len(_weighted_interleave(mix, 3 * MAX_INTERLEAVE_PERIOD)) == (
            3 * MAX_INTERLEAVE_PERIOD
        )

    def test_no_positive_weight_rejected(self):
        with pytest.raises(ClusterError, match="at least one positive weight"):
            _weighted_interleave([("soap", 0.0)], 4)


def _echo():
    return op("echo", (("message", STRING),), STRING, body=lambda _self, m: m)


def _plan_scenario(count, arrival, representatives, *, mix=None, corba=True):
    scenario = Scenario(name="plan-equivalence").servers(2)
    scenario.service("EchoSoap", [_echo()], technology="soap")
    if corba:
        scenario.service("EchoCorba", [_echo()], technology="corba")
    return scenario.clients(
        count,
        protocol_mix=mix,
        service=None if mix else "EchoSoap",
        calls=1,
        arguments=("hi",),
        arrival=arrival,
        cohort=CohortModel(representatives=representatives),
    )


def _per_position_plans(runtime):
    """Discrete and flow targets built position by position, as before."""
    group = runtime.scenario._client_groups[0]
    offsets = resolve_offsets(group.arrival, group.count)
    if group.service is not None:
        entry = runtime.registry.lookup(group.service)
        targets = [(entry.technology, entry.name)] * group.count
    else:
        targets = [
            (protocol, runtime._service_for_protocol(protocol).name)
            for protocol in _oracle_interleave(group.protocol_mix, group.count)
        ]
    discrete = min(group.count, group.cohort.representatives)
    plans = [
        (protocol, service, offsets[position].hex())
        for position, (protocol, service) in enumerate(targets[:discrete])
    ]
    members = {}
    for position in range(discrete, group.count):
        members.setdefault(targets[position], []).append(position)
    flows = [
        (protocol, service, [value.hex() for value in sorted(offsets[p] for p in positions)])
        for (protocol, service), positions in members.items()
    ]
    return plans, flows


def _bulk_plans(runtime):
    plans, flows = runtime._build_plans()
    return (
        [(plan.protocol, plan.service, plan.start_offset.hex()) for plan in plans],
        [
            (flow.protocol, flow.service, [value.hex() for value in flow.offsets])
            for flow in flows
        ],
    )


_ARRIVALS = {
    "scalar": 0.0003,
    "unsorted-callable": lambda position: ((position * 7919) % 101) * 0.001,
    "poisson": Poisson(rate=5000.0, seed=7),
    "unsorted-recording": [((position * 31) % 17) * 0.01 for position in range(2000)],
}

_MIXES = {
    "service": None,
    "half-half": {"soap": 0.5, "corba": 0.5},
    "three-one": {"soap": 0.75, "corba": 0.25},
    "non-dyadic": {"soap": 0.7, "corba": 0.3},
    "corba-only": {"soap": 0.0, "corba": 1.0},
}

#: Per mix, the protocols that own exactly one slot of the interleave
#: period (a ``service=`` group has period 1; 3:1 gives corba one of 4).
_SINGLE_SLOT = {
    "service": {"soap"},
    "half-half": {"soap", "corba"},
    "three-one": {"corba"},
    "non-dyadic": set(),
    "corba-only": {"corba"},
}

#: Scalar spacing and arrival processes resolve sorted; callables and
#: recordings may not.
_SORTED_ARRIVALS = {"scalar", "poisson"}


class TestPlanEquivalence:
    @pytest.mark.parametrize("arrival", list(_ARRIVALS), ids=str)
    @pytest.mark.parametrize("mix", list(_MIXES), ids=str)
    @pytest.mark.parametrize(
        "count, representatives",
        [(1000, 32), (1000, 0), (1001, 3), (35, 32), (33, 32), (10, 32)],
    )
    def test_flows_equal_the_per_position_construction(
        self, arrival, mix, count, representatives
    ):
        law = _ARRIVALS[arrival]
        if isinstance(law, list):
            law = law[:count]
        runtime = _plan_scenario(count, law, representatives, mix=_MIXES[mix]).build()
        bulk = _bulk_plans(runtime)
        assert bulk == _per_position_plans(runtime)
        plans, flows = bulk
        assert len(plans) == min(count, representatives)
        assert sum(len(offsets) for *_, offsets in flows) == count - len(plans)

    @pytest.mark.parametrize("arrival", list(_ARRIVALS), ids=str)
    @pytest.mark.parametrize("mix", list(_MIXES), ids=str)
    @pytest.mark.parametrize("representatives", [32, 0, 3])
    def test_single_slot_flows_of_sorted_groups_view_the_group_array(
        self, arrival, mix, representatives
    ):
        law = _ARRIVALS[arrival]
        if isinstance(law, list):
            law = law[:1000]
        runtime = _plan_scenario(1000, law, representatives, mix=_MIXES[mix]).build()
        group = runtime.scenario._client_groups[0]
        _plans, flows = runtime._build_plans()
        viewed = _SINGLE_SLOT[mix] if arrival in _SORTED_ARRIVALS else set()
        assert {flow.protocol for flow in flows} >= viewed
        shared = set()
        for flow in flows:
            if flow.protocol in viewed:
                assert isinstance(flow.offsets, memoryview)
                assert flow.offsets.readonly
                with pytest.raises(TypeError):
                    flow.offsets[0] = -1.0
                assert isinstance(flow.offsets.obj, array)
                assert flow.offsets.obj.tolist() == resolve_offsets(
                    group.arrival, group.count
                ).tolist()
                shared.add(id(flow.offsets.obj))
            else:
                assert type(flow.offsets) is array and flow.offsets.typecode == "d"
        # Every view of a group looks into one and the same buffer.
        assert len(shared) == (1 if viewed else 0)

    @pytest.mark.parametrize("representatives", [0, 1])
    def test_one_client_mix_needs_only_the_protocol_it_gets(self, representatives):
        # One client of a half-half mix speaks soap; no CORBA service is
        # declared and none is needed.
        runtime = _plan_scenario(
            1, 0.0, representatives, mix={"soap": 0.5, "corba": 0.5}, corba=False
        ).build()
        plans, flows = _bulk_plans(runtime)
        assert [target[:2] for target in plans + flows] == [("soap", "EchoSoap")]

    def test_second_client_needs_the_missing_protocol(self):
        runtime = _plan_scenario(
            2, 0.0, 0, mix={"soap": 0.5, "corba": 0.5}, corba=False
        ).build()
        with pytest.raises(ClusterError, match="technology 'corba'"):
            runtime._build_plans()
