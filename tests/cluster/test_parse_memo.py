"""Published interface documents are parsed once per replica document.

Every client of a fleet still fetches each replica's WSDL/IDL over
simulated HTTP, but the parse itself is memoised on the replica
(:meth:`repro.cluster.registry.Replica.parsed`) and the immutable result is
shared.  Parse counts are taken by wrapping the parser names that
:mod:`repro.cluster.protocols` calls.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import STRING, Scenario, op, rolling, upgrade
from repro.cluster import protocols
from repro.cluster.presets import fault_drill_scenario
from repro.cluster.registry import Replica
from repro.core.sde import SDEConfig

ECHO = op("echo", (("m", STRING),), STRING, body=lambda _self, m: m)
ECHO_V2 = op("echo_v2", (("m", STRING),), STRING, body=lambda _self, m: m + "!")
BREAKING = upgrade(add=[ECHO_V2], remove=["echo"], successors={"echo": "echo_v2"})


@pytest.fixture
def parses(monkeypatch):
    """Count ``parse_wsdl`` / ``parse_idl`` calls made by the client stacks."""
    counts: Counter[str] = Counter()

    def counting(kind, parser):
        def wrapper(text):
            counts[kind] += 1
            return parser(text)

        return wrapper

    monkeypatch.setattr(protocols, "parse_wsdl", counting("wsdl", protocols.parse_wsdl))
    monkeypatch.setattr(protocols, "parse_idl", counting("idl", protocols.parse_idl))
    return counts


@pytest.fixture
def lookups(monkeypatch):
    """Record every memo lookup as ``(service, replica index, document)``."""
    seen: list[tuple[str, int, str]] = []
    original = Replica.parsed

    def parsed(replica, parser, text):
        seen.append((replica.service, replica.index, text))
        return original(replica, parser, text)

    monkeypatch.setattr(Replica, "parsed", parsed)
    return seen


def _without_memo(monkeypatch):
    monkeypatch.setattr(Replica, "parsed", lambda _replica, parser, text: parser(text))


def _rolling_scenario(technology: str) -> Scenario:
    return (
        Scenario(name=f"memo-roll-{technology}", sde_config=SDEConfig(generation_cost=0.02))
        .servers(2)
        .service("Echo", [ECHO], technology=technology, replicas=2)
        .clients(
            8, service="Echo", calls=8, arguments=("hi",), think_time=0.02, arrival=0.001
        )
        .at(0.03, rolling("Echo", BREAKING, batch_size=1, drain=0.03))
    )


class TestFaultDrill:
    def test_256_clients_parse_once_per_replica_document(self, parses, lookups):
        report = fault_drill_scenario(256).run()
        assert report.total_calls > 0
        # Every client looked its replicas' documents up ...
        assert len(lookups) == 256 * 2
        # ... but each (replica, document) pair was parsed once: the two
        # SOAP replicas and the two CORBA replicas, one document each.
        distinct = set(lookups)
        assert len(distinct) == 4
        assert parses == {"wsdl": 2, "idl": 2}

    def test_memo_keeps_one_entry_per_parser(self):
        runtime = fault_drill_scenario(16).build()
        runtime.run()
        for entry in runtime.registry.services:
            for replica in entry.replicas:
                assert len(replica._parsed) == 1

    def test_fingerprint_unchanged_by_the_memo(self, monkeypatch):
        memoised = fault_drill_scenario(64).run()
        _without_memo(monkeypatch)
        parsed_per_client = fault_drill_scenario(64).run()
        assert memoised.fingerprint() == parsed_per_client.fingerprint()
        assert memoised.all_rtts == parsed_per_client.all_rtts


class TestRollingUpgrade:
    @pytest.mark.parametrize("technology, kind", [("soap", "wsdl"), ("corba", "idl")])
    def test_new_document_parsed_once_per_replica(self, parses, lookups, technology, kind):
        report = _rolling_scenario(technology).run()
        assert report.total_rebinds > 0
        # Each replica went from the old document to the new one (and never
        # back), so the parses are exactly the distinct (replica, document)
        # pairs: the old and the new document on each of the two replicas.
        distinct = set(lookups)
        assert Counter(index for _service, index, _text in distinct) == {0: 2, 1: 2}
        assert parses[kind] == len(distinct)
        assert len(lookups) > len(distinct)

    @pytest.mark.parametrize("technology", ["soap", "corba"])
    def test_rebound_clients_see_the_new_description(self, monkeypatch, technology):
        stack = {"soap": protocols.SoapProtocolClient, "corba": protocols.CorbaProtocolClient}
        cls = stack[technology]
        original = cls.rebind_replica
        rebound = []

        def rebind_replica(client, replica):
            deferred = original(client, replica)
            deferred.subscribe(
                lambda value, error, _delay: rebound.append(
                    (value, error, client.bound_description(replica.index))
                )
            )
            return deferred

        monkeypatch.setattr(cls, "rebind_replica", rebind_replica)
        report = _rolling_scenario(technology).run()
        assert report.total_rebinds > 0
        assert report.total_other_faults == 0
        assert report.total_successes + report.total_stale_faults == report.total_calls
        refreshed = [(value, bound) for value, error, bound in rebound if error is None]
        assert refreshed
        for value, bound in refreshed:
            assert bound is value
            assert value.has_operation("echo_v2")
            assert not value.has_operation("echo")

    @pytest.mark.parametrize("technology", ["soap", "corba"])
    def test_fingerprint_unchanged_by_the_memo(self, monkeypatch, technology):
        memoised = _rolling_scenario(technology).run()
        _without_memo(monkeypatch)
        parsed_per_client = _rolling_scenario(technology).run()
        assert memoised.fingerprint() == parsed_per_client.fingerprint()


class TestReplicaMemo:
    def test_latest_document_replaces_the_entry(self):
        runtime = Scenario().service("Echo", [ECHO]).build()
        (replica,) = runtime.replicas("Echo")
        calls = []

        def parser(text):
            calls.append(text)
            return object()

        first = replica.parsed(parser, "v1")
        assert replica.parsed(parser, "v1") is first
        second = replica.parsed(parser, "v2")
        assert second is not first
        assert replica.parsed(parser, "v1") is not first  # only the latest is kept
        assert calls == ["v1", "v2", "v1"]
        assert len(replica._parsed) == 1

    def test_parsers_are_memoised_separately(self):
        runtime = Scenario().service("Echo", [ECHO]).build()
        (replica,) = runtime.replicas("Echo")
        assert replica.parsed(str.upper, "doc") == "DOC"
        assert replica.parsed(str.lower, "doc") == "doc"
        assert replica.parsed(str.upper, "doc") == "DOC"
        assert len(replica._parsed) == 2
