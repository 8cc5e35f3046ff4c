"""Tests for the public package surface and the convenience testbed."""

import tomllib
from pathlib import Path

import pytest

import repro
from repro import INT, STRING, LiveDevelopmentTestbed, OperationSpec
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
        assert repro.__version__ == "1.9.0"

    def test_pyproject_reads_the_package_version(self):
        pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
        config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        assert config["project"]["dynamic"] == ["version"]
        assert "version" not in config["project"]
        dynamic = config["tool"]["setuptools"]["dynamic"]
        assert dynamic["version"] == {"attr": "repro.__version__"}

    def test_quickstart_from_readme(self):
        testbed = LiveDevelopmentTestbed()
        calculator, _ = testbed.create_soap_server(
            "Calculator",
            [OperationSpec("add", (("a", INT), ("b", INT)), INT,
                           body=lambda self, a, b: a + b)],
        )
        testbed.settle()
        client = testbed.connect_soap_client("Calculator")
        assert client.invoke("add", 2, 3) == 5
        calculator.method("add").set_body(lambda self, a, b: (a + b) * 100)
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


class TestTestbed:
    def test_default_hosts_and_clock(self):
        testbed = LiveDevelopmentTestbed()
        assert {host.name for host in testbed.network.hosts} == {"server", "client"}
        assert testbed.now == 0.0
        testbed.run_for(1.5)
        assert testbed.now == pytest.approx(1.5)

    def test_soap_and_corba_servers_get_distinct_endpoints(self):
        testbed = LiveDevelopmentTestbed()
        testbed.create_soap_server("Alpha", [])
        testbed.create_corba_server("Beta", [])
        alpha = testbed.sde.managed_server("Alpha").call_handler.endpoint_url
        beta = testbed.sde.managed_server("Beta").call_handler.endpoint_url
        assert alpha.startswith("http://server:")
        assert beta.startswith("iiop://server:")

    def test_publish_now_skips_the_stability_wait(self):
        testbed = LiveDevelopmentTestbed(sde_config=SDEConfig(publication_timeout=60.0))
        testbed.create_soap_server(
            "Slow", [OperationSpec("ping", (), INT, body=lambda self: 1)]
        )
        testbed.publish_now("Slow")
        publisher = testbed.sde.managed_server("Slow").publisher
        assert publisher.is_published_current()
        assert testbed.now < 60.0

    def test_operation_spec_parameter_objects(self):
        spec = OperationSpec("greet", (("name", STRING),), STRING)
        parameters = spec.parameter_objects()
        assert parameters[0].name == "name"
        assert parameters[0].param_type == STRING

    def test_custom_sde_config_respected(self):
        config = SDEConfig(publication_timeout=0.5, generation_cost=0.01)
        testbed = LiveDevelopmentTestbed(sde_config=config)
        assert testbed.sde.config.publication_timeout == 0.5
        testbed.create_soap_server(
            "Quick", [OperationSpec("ping", (), INT, body=lambda self: 1)]
        )
        testbed.run_for(0.6)
        assert testbed.sde.managed_server("Quick").publisher.is_published_current()

    def test_settle_publishes_pending_changes(self):
        testbed = LiveDevelopmentTestbed(
            sde_config=SDEConfig(publication_timeout=2.0, generation_cost=0.1)
        )
        service, _instance = testbed.create_soap_server("Svc", [])
        service.add_method("op", (), INT, body=lambda self: 0, distributed=True)
        assert not testbed.sde.managed_server("Svc").publisher.is_published_current()
        testbed.settle()
        assert testbed.sde.managed_server("Svc").publisher.is_published_current()
