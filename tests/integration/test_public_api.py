"""Tests for the public package surface and the built-world runtime."""

import tomllib
from pathlib import Path

import pytest

import repro
from repro import INT, STRING, OperationSpec, Scenario, op
from repro.core.sde import SDEConfig
from repro.errors import (
    DeploymentError,
    MiddlewareError,
    NonExistentMethodError,
    ReproError,
    ServerNotInitializedError,
    SoapError,
    CorbaError,
)


class TestPublicApi:
    def test_version_exported(self):
        assert repro.__version__ == "3.0.0"

    def test_pyproject_reads_the_package_version(self):
        pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
        config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        assert config["project"]["dynamic"] == ["version"]
        assert "version" not in config["project"]
        dynamic = config["tool"]["setuptools"]["dynamic"]
        assert dynamic["version"] == {"attr": "repro.__version__"}

    def test_quickstart_from_readme(self):
        runtime = (
            Scenario()
            .service("Calculator", [op("add", (("a", INT), ("b", INT)), INT,
                                       body=lambda self, a, b: a + b)])
            .build()
        )
        runtime.settle()
        client = runtime.connect("Calculator")
        assert client.invoke("add", 2, 3) == 5
        runtime.dynamic_class("Calculator").method("add").set_body(
            lambda self, a, b: (a + b) * 100
        )
        assert client.invoke("add", 2, 3) == 500

    def test_exception_hierarchy_rooted_at_repro_error(self):
        for exception_type in (
            MiddlewareError,
            NonExistentMethodError,
            ServerNotInitializedError,
            DeploymentError,
            SoapError,
            CorbaError,
        ):
            assert issubclass(exception_type, ReproError)

    def test_non_existent_method_error_carries_metadata(self):
        error = NonExistentMethodError("add", 7)
        assert error.operation == "add"
        assert error.interface_version == 7
        assert "add" in str(error) and "7" in str(error)


class TestBuiltWorld:
    def test_default_hosts_and_clock(self):
        runtime = Scenario().build()
        assert {host.name for host in runtime.world.network.hosts} == {"server"}
        assert runtime.cde.host.name == "cde"
        assert runtime.world.now == 0.0
        runtime.world.run_for(1.5)
        assert runtime.world.now == pytest.approx(1.5)

    def test_soap_and_corba_servers_get_distinct_endpoints(self):
        runtime = Scenario().service("Alpha").service("Beta", technology="corba").build()
        alpha = runtime.replicas("Alpha")[0].call_handler.endpoint_url
        beta = runtime.replicas("Beta")[0].call_handler.endpoint_url
        assert alpha.startswith("http://server:")
        assert beta.startswith("iiop://server:")

    def test_publish_skips_the_stability_wait(self):
        runtime = (
            Scenario(sde_config=SDEConfig(publication_timeout=60.0))
            .service("Slow", [op("ping", (), INT, body=lambda self: 1)])
            .build()
        )
        runtime.publish("Slow")
        assert runtime.replicas("Slow")[0].publisher.is_published_current()
        assert runtime.world.now < 60.0

    def test_operation_spec_parameter_objects(self):
        spec = OperationSpec("greet", (("name", STRING),), STRING)
        parameters = spec.parameter_objects()
        assert parameters[0].name == "name"
        assert parameters[0].param_type == STRING

    def test_custom_sde_config_respected(self):
        config = SDEConfig(publication_timeout=0.5, generation_cost=0.01)
        runtime = (
            Scenario(sde_config=config)
            .service("Quick", [op("ping", (), INT, body=lambda self: 1)])
            .build()
        )
        assert runtime.node_of("Quick").sde.config.publication_timeout == 0.5
        runtime.world.run_for(0.6)
        assert runtime.replicas("Quick")[0].publisher.is_published_current()

    def test_settle_publishes_pending_changes(self):
        runtime = (
            Scenario(sde_config=SDEConfig(publication_timeout=2.0, generation_cost=0.1))
            .service("Svc")
            .build()
        )
        runtime.dynamic_class("Svc").add_method(
            "op", (), INT, body=lambda self: 0, distributed=True
        )
        publisher = runtime.replicas("Svc")[0].publisher
        assert not publisher.is_published_current()
        runtime.settle()
        assert publisher.is_published_current()
