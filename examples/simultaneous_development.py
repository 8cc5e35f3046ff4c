"""Live, simultaneous client-server development (§6 of the paper).

Two developers work at the same time: one evolves the server interface while
the other writes client code against a CDE-managed stub class.  The script
demonstrates the full §5.7 + §6 loop:

* the server developer renames a distributed method while the client is
  actively calling it;
* the client's stale call stalls on the server until the publisher has caught
  up, then fails with "Non existent Method";
* CDE refreshes the client's view (the stub class is rewritten in place), the
  JPie debugger shows the error together with the interface diff, and the
  developer uses 'try again' after adapting.

Run with:  python examples/simultaneous_development.py
"""

from repro import Scenario, op
from repro.errors import NonExistentMethodError
from repro.rmitypes import DOUBLE, INT, STRING


def main() -> None:
    # -- the server developer starts an order service -------------------------
    runtime = (
        Scenario()
        .service(
            "OrderService",
            [
                op(
                    "price", (("quantity", INT), ("unit_price", DOUBLE)), DOUBLE,
                    body=lambda self, quantity, unit_price: quantity * unit_price,
                ),
                op(
                    "status", (("order_id", INT),), STRING,
                    body=lambda self, order_id: f"order {order_id}: packed",
                ),
            ],
        )
        .build()
    )
    orders = runtime.dynamic_class("OrderService")
    runtime.settle()

    # -- the client developer builds against a live stub class ----------------
    binding = runtime.connect("OrderService")
    stubs = runtime.cde.create_stub_class(binding)
    order_client = stubs.new_stub_instance()
    print("client stub operations:", stubs.operation_names)
    print("price(3, 9.99)  =", order_client.price(3, 9.99))
    print("status(17)      =", order_client.status(17))

    # -- meanwhile, the server developer renames price -> quote and changes
    #    its signature to include a discount ---------------------------------
    from repro.interface import Parameter

    price = orders.method("price")
    price.rename("quote")
    price.set_parameters(
        (Parameter("quantity", INT), Parameter("unit_price", DOUBLE), Parameter("discount", DOUBLE))
    )
    price.set_body(lambda self, quantity, unit_price, discount: quantity * unit_price * (1 - discount))

    # -- the client developer, unaware, keeps calling the old operation -------
    try:
        order_client.price(3, 9.99)
    except NonExistentMethodError as error:
        print("\nstale call rejected by the server:", error)

    # The reactive update already refreshed the stub class (§6).
    print("client stub operations now:", stubs.operation_names)
    entry = runtime.cde.debugger.latest()
    print("debugger entry:", entry)
    print("  context:", entry.context["diff"])

    # -- the client developer adapts to the new signature and retries ---------
    print("quote(3, 9.99, 0.10) =", order_client.quote(3, 9.99, 0.10))

    # Recency guarantee bookkeeping (checked by the Figure 8 experiment):
    record = binding.guarantee_records[-1]
    print(
        f"\nrecency guarantee: client refreshed to version "
        f"{record.client_version_after_refresh} >= server's {record.server_version} -> "
        f"{'satisfied' if record.satisfied else 'VIOLATED'}"
    )


if __name__ == "__main__":
    main()
