"""Tests for CDE: dynamic client bindings, stub management, §6 client side."""

import pytest

from repro.core.cde import ClientStubManager
from repro.errors import NonExistentMethodError, StubError
from repro.rmitypes import INT


class TestBindingBasics:
    def test_connect_fetches_interface(self, calculator_world):
        _runtime, _calculator, binding = calculator_world
        assert binding.service_name == "Calculator"
        assert set(binding.description.operation_names()) == {"add", "greet"}
        assert binding.interface_version >= 1

    def test_invoke_known_operation(self, calculator_world):
        _runtime, _calculator, binding = calculator_world
        assert binding.invoke("add", 2, 3) == 5
        assert binding.invoke("greet", "kim") == "hello kim"
        assert binding.stats.successful_calls == 2

    def test_unknown_technology_rejected(self, calculator_world):
        runtime, _calculator, _binding = calculator_world
        with pytest.raises(StubError):
            from repro.core.cde.binding import DynamicClientBinding

            DynamicClientBinding(runtime.cde, "rmi", "http://server:8080/doc")

    def test_corba_binding_requires_ior_url(self, calculator_world):
        runtime, _calculator, _binding = calculator_world
        with pytest.raises(StubError):
            from repro.core.cde.binding import DynamicClientBinding

            DynamicClientBinding(runtime.cde, "corba", "http://server:8080/doc")

    def test_refresh_reports_interface_diff(self, calculator_world):
        runtime, calculator, binding = calculator_world
        calculator.add_method("square", (), INT, body=lambda self: 0, distributed=True)
        runtime.publish("Calculator")
        diff = binding.refresh()
        assert diff.added == ("square",)
        assert binding.description.has_operation("square")
        assert binding.stats.refreshes >= 2


class TestStaleCallHandling:
    """The client half of the §6 algorithm."""

    def test_stale_call_refreshes_view_and_reports_to_debugger(self, calculator_world):
        runtime, calculator, binding = calculator_world
        calculator.method("add").rename("sum")
        with pytest.raises(NonExistentMethodError):
            binding.invoke("add", 1, 2)
        # The view was refreshed to the forced publication.
        assert binding.description.has_operation("sum")
        assert not binding.description.has_operation("add")
        # The debugger shows the error with the interface diff.
        entry = runtime.cde.debugger.latest()
        assert entry is not None
        assert "add" in str(entry.exception)
        assert "sum" in entry.description

    def test_guarantee_record_satisfied(self, calculator_world):
        _runtime, calculator, binding = calculator_world
        calculator.method("add").rename("sum")
        with pytest.raises(NonExistentMethodError):
            binding.invoke("add", 1, 2)
        record = binding.guarantee_records[-1]
        assert record.satisfied
        assert record.client_version_after_refresh >= record.server_version
        assert "sum" in record.interface_diff.added

    def test_try_again_after_developer_adapts(self, calculator_world):
        """Figure 9: the developer inspects the error, fixes the call site,
        and re-executes via the debugger's 'try again'."""
        runtime, calculator, binding = calculator_world
        calculator.method("add").rename("sum")
        with pytest.raises(NonExistentMethodError):
            binding.invoke("add", 1, 2)
        entry = runtime.cde.debugger.latest()
        # The server developer renames the method back (the §6 corner case);
        # 'try again' then succeeds with the original call.
        calculator.method("sum").rename("add")
        runtime.publish("Calculator")
        assert runtime.cde.debugger.try_again(entry) == 3
        assert entry.resolved

    def test_naive_client_does_not_refresh(self, calculator_world):
        runtime, calculator, _binding = calculator_world
        naive = runtime.connect("Calculator", reactive_updates=False)
        calculator.method("add").rename("sum")
        with pytest.raises(NonExistentMethodError):
            naive.invoke("add", 1, 2)
        # View not refreshed: the stale operation is still the one it knows.
        assert naive.description.has_operation("add")
        assert naive.guarantee_records == []

    def test_stale_faults_counted(self, calculator_world):
        _runtime, calculator, binding = calculator_world
        calculator.method("add").rename("sum")
        with pytest.raises(NonExistentMethodError):
            binding.invoke("add", 1, 2)
        assert binding.stats.stale_faults == 1


class TestClientStubManager:
    def test_stub_class_mirrors_interface(self, calculator_world):
        runtime, _calculator, binding = calculator_world
        manager = runtime.cde.create_stub_class(binding)
        assert set(manager.operation_names) == {"add", "greet"}
        stub = manager.new_stub_instance()
        assert stub.add(4, 5) == 9

    def test_stub_class_updates_on_refresh(self, calculator_world):
        runtime, calculator, binding = calculator_world
        manager = runtime.cde.create_stub_class(binding)
        stub = manager.new_stub_instance()
        calculator.add_method("square", (), INT, body=lambda self: 0, distributed=True)
        runtime.publish("Calculator")
        binding.refresh()
        assert "square" in manager.operation_names
        assert stub.square() == 0

    def test_stub_methods_removed_when_server_drops_them(self, calculator_world):
        runtime, calculator, binding = calculator_world
        manager = runtime.cde.create_stub_class(binding)
        calculator.remove_method("greet")
        runtime.publish("Calculator")
        binding.refresh()
        assert "greet" not in manager.operation_names

    def test_stub_signature_changes_propagate_to_live_instances(self, calculator_world):
        runtime, calculator, binding = calculator_world
        manager = runtime.cde.create_stub_class(binding)
        stub = manager.new_stub_instance()
        from repro.interface import Parameter

        method = calculator.method("add")
        method.set_parameters((Parameter("a", INT), Parameter("b", INT), Parameter("c", INT)))
        method.set_body(lambda self, a, b, c: a + b + c)
        runtime.publish("Calculator")
        binding.refresh()
        assert stub.add(1, 2, 3) == 6

    def test_automatic_update_on_stale_fault(self, calculator_world):
        """The binding refresh triggered by a stale fault also updates stubs."""
        runtime, calculator, binding = calculator_world
        manager = runtime.cde.create_stub_class(binding)
        calculator.method("add").rename("sum")
        with pytest.raises(NonExistentMethodError):
            binding.invoke("add", 1, 2)
        assert "sum" in manager.operation_names
        assert "add" not in manager.operation_names
        assert manager.updates_applied >= 2
