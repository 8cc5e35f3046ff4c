"""Shared pytest fixtures for the reproduction's test suite."""

from __future__ import annotations

import pytest

from repro.cluster import Scenario, op
from repro.core.sde import SDEConfig
from repro.net import Network, loopback_profile, t1_lan_profile
from repro.rmitypes import INT, STRING
from repro.sim import Scheduler
from repro.util.ids import reset_global_ids


@pytest.fixture(autouse=True)
def _reset_ids():
    """Keep generated identifiers deterministic within each test."""
    reset_global_ids()
    yield
    reset_global_ids()


@pytest.fixture
def scheduler() -> Scheduler:
    """A fresh discrete-event scheduler."""
    return Scheduler()


@pytest.fixture
def network(scheduler: Scheduler) -> Network:
    """A loopback-latency network with ``server`` and ``client`` hosts."""
    net = Network(scheduler, loopback_profile())
    net.add_host("server")
    net.add_host("client")
    return net


@pytest.fixture
def lan_network(scheduler: Scheduler) -> Network:
    """A T1-LAN-latency network with ``server`` and ``client`` hosts."""
    net = Network(scheduler, t1_lan_profile())
    net.add_host("server")
    net.add_host("client")
    return net


@pytest.fixture
def fast_scenario() -> Scenario:
    """A one-server scenario with fast publication settings."""
    return Scenario(sde_config=SDEConfig(publication_timeout=1.0, generation_cost=0.05))


@pytest.fixture
def calculator_world(fast_scenario: Scenario):
    """A built world with a published SOAP Calculator and a connected CDE
    binding: ``(runtime, calculator class, binding)``."""
    runtime = fast_scenario.service(
        "Calculator",
        [
            op("add", (("a", INT), ("b", INT)), INT, body=lambda self, a, b: a + b),
            op("greet", (("name", STRING),), STRING, body=lambda self, name: f"hello {name}"),
        ],
    ).build()
    runtime.publish("Calculator")
    return runtime, runtime.dynamic_class("Calculator"), runtime.connect("Calculator")
