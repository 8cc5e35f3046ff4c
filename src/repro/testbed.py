"""A convenience test/benchmark/example harness (legacy two-host shim).

Almost every experiment, example and integration test needs the same setup:
a scheduler, a two-host network (the paper's client PowerBook and server
desktop), a JPie environment with an SDE Manager on the server host, and a
CDE on the client host.  :class:`LiveDevelopmentTestbed` builds exactly that
and provides helpers for the most common developer actions (creating a
server class, adding distributed methods, connecting a client binding).

.. deprecated:: 1.1
    The testbed is now a thin adapter over the generalised cluster layer
    (:class:`repro.cluster.ClusterWorld`); it keeps its full signature for
    existing call sites, but new experiments should describe their world
    with the declarative :class:`repro.cluster.Scenario` API instead.
"""

from __future__ import annotations

import warnings
from typing import Iterable

from repro.cluster.scenario import OperationSpec
from repro.cluster.topology import ClusterWorld
from repro.core.cde import ClientDevelopmentEnvironment, DynamicClientBinding
from repro.core.sde import SDEConfig
from repro.jpie import DynamicClass, DynamicInstance
from repro.net import LatencyModel
from repro.net.latency import CostModel

__all__ = ["LiveDevelopmentTestbed", "OperationSpec", "CLIENT_SPEED_FACTOR"]

#: Relative speed of the paper's client machine (1 GHz PowerBook G4) compared
#: with its server machine (3.2 GHz Pentium 4).
CLIENT_SPEED_FACTOR = 2.5


class LiveDevelopmentTestbed:
    """A complete two-machine live-development world.

    A one-server :class:`~repro.cluster.ClusterWorld` under the hood: the
    paper's server desktop is the world's single server node, the client
    PowerBook its first client machine.
    """

    def __init__(
        self,
        latency: LatencyModel | None = None,
        cost_model: CostModel | None = None,
        sde_config: SDEConfig | None = None,
        client_speed_factor: float = CLIENT_SPEED_FACTOR,
        server_cores: int | None = None,
    ) -> None:
        warnings.warn(
            "repro.testbed.LiveDevelopmentTestbed is deprecated; describe the "
            "world with repro.cluster.Scenario instead (byte-identical results)",
            DeprecationWarning,
            stacklevel=2,
        )
        config = sde_config if sde_config is not None else SDEConfig()
        if cost_model is not None and config.cost_model is None:
            config.cost_model = cost_model
        if server_cores is not None and config.server_cores is None:
            config.server_cores = server_cores

        self.world = ClusterWorld(latency=latency)
        self.server_node = self.world.add_server("server", config)
        self.client_host = self.world.add_client("client")

        self.scheduler = self.world.scheduler
        self.network = self.world.network
        self.server_host = self.server_node.host
        self.environment = self.server_node.environment
        self.sde = self.server_node.sde
        self.manager_interface = self.server_node.manager_interface
        self.cde = ClientDevelopmentEnvironment(
            self.client_host,
            cost_model=cost_model,
            speed_factor=client_speed_factor,
        )

    # -- developer actions on the server ------------------------------------------

    def create_soap_server(
        self, name: str, operations: Iterable[OperationSpec] = ()
    ) -> tuple[DynamicClass, DynamicInstance]:
        """Create a SOAP server class with the given distributed methods,
        instantiate it, and return ``(class, instance)``."""
        return self._create_server(name, self.sde.soap_server_class, operations)

    def create_corba_server(
        self, name: str, operations: Iterable[OperationSpec] = ()
    ) -> tuple[DynamicClass, DynamicInstance]:
        """Create a CORBA server class with the given distributed methods,
        instantiate it, and return ``(class, instance)``."""
        return self._create_server(name, self.sde.corba_server_class, operations)

    def _create_server(
        self,
        name: str,
        gateway: DynamicClass,
        operations: Iterable[OperationSpec],
    ) -> tuple[DynamicClass, DynamicInstance]:
        dynamic_class = self.environment.create_class(name, superclass=gateway)
        for spec in operations:
            dynamic_class.add_method(
                spec.name,
                spec.parameter_objects(),
                spec.return_type,
                body=spec.body,
                distributed=True,
            )
        instance = dynamic_class.new_instance()
        return dynamic_class, instance

    def publish_now(self, class_name: str) -> None:
        """Force publication of the named server's interface and let the
        generation complete."""
        self.manager_interface.force_publication(class_name)
        self.run_for(self.sde.config.generation_cost * 2)

    def settle(self, class_name: str | None = None) -> None:
        """Let pending stability timers expire and publications complete."""
        margin = self.sde.config.publication_timeout + self.sde.config.generation_cost * 2
        self.run_for(margin + 0.001)

    # -- client actions --------------------------------------------------------------

    def connect_soap_client(
        self, class_name: str, reactive_updates: bool = True
    ) -> DynamicClientBinding:
        """Connect a CDE binding to the named managed SOAP server."""
        publisher = self.sde.managed_server(class_name).publisher
        return self.cde.connect_soap(publisher.document_url, reactive_updates=reactive_updates)

    def connect_corba_client(
        self, class_name: str, reactive_updates: bool = True
    ) -> DynamicClientBinding:
        """Connect a CDE binding to the named managed CORBA server."""
        publisher = self.sde.managed_server(class_name).publisher
        return self.cde.connect_corba(
            publisher.document_url,
            publisher.ior_url,  # type: ignore[attr-defined]
            reactive_updates=reactive_updates,
        )

    # -- time control -------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.scheduler.now

    def run_for(self, duration: float) -> None:
        """Advance virtual time by ``duration`` seconds."""
        self.scheduler.run_for(duration)

    def run_until_idle(self) -> None:
        """Run until no simulated work remains."""
        self.scheduler.run_until_idle()
