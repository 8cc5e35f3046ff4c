"""E7 — interface-generation cost versus interface size (§5.6 premise).

The stable-change mechanism exists because "the generation and publication of
the server interface description is a relatively expensive operation".  This
benchmark measures the wall-clock cost of generating WSDL and CORBA-IDL
documents as the number of distributed operations grows, plus the cost of the
full generate→publish→fetch→parse round trip a client refresh pays.

WSDL generation caches each operation's and struct's rendered fragments, so
the size-sweep cases clear those caches before every round and still time a
full render; the republish cases time what a live edit actually pays, one
new operation spliced into an already-published document.

Run with:  pytest benchmarks/bench_interface_generation.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.corba.idl import generate_idl, parse_idl
from repro.experiments.interface_generation import build_interface, run_interface_generation_sweep
from repro.soap.wsdl import generate_wsdl, parse_wsdl
from repro.soap.wsdl.generator import clear_fragment_caches, fragment_renders

#: Rounds of the cases that clear the fragment caches before each round.
_ROUNDS = 20


@pytest.mark.benchmark(group="interface-generation")
@pytest.mark.parametrize("operations", [5, 25, 100])
def test_wsdl_generation_cost(benchmark, operations):
    description = build_interface(operations)
    document = benchmark.pedantic(
        generate_wsdl, args=(description,), setup=clear_fragment_caches,
        rounds=_ROUNDS, iterations=1,
    )
    assert parse_wsdl(document).same_signature(description)
    benchmark.extra_info["operations"] = operations
    benchmark.extra_info["document_bytes"] = len(document)


@pytest.mark.benchmark(group="interface-generation")
@pytest.mark.parametrize("operations", [5, 25, 100])
def test_wsdl_republish_after_one_added_operation(benchmark, operations):
    """A live edit's republication: one operation more than the last one."""
    published = build_interface(operations)
    edited = build_interface(operations + 1)

    def publish_previous():
        clear_fragment_caches()
        generate_wsdl(published)

    document = benchmark.pedantic(
        generate_wsdl, args=(edited,), setup=publish_previous, rounds=_ROUNDS, iterations=1
    )
    assert parse_wsdl(document).same_signature(edited)
    benchmark.extra_info["operations"] = operations
    # The last round's setup left exactly the previous publication cached.
    benchmark.extra_info["deterministic_wsdl_fragment_renders"] = (
        fragment_renders() - operations
    )


@pytest.mark.benchmark(group="interface-generation")
@pytest.mark.parametrize("operations", [5, 25, 100])
def test_idl_generation_cost(benchmark, operations):
    description = build_interface(operations)
    document = benchmark(generate_idl, description)
    assert parse_idl(document).same_signature(description)
    benchmark.extra_info["operations"] = operations
    benchmark.extra_info["document_bytes"] = len(document)


@pytest.mark.benchmark(group="interface-generation")
def test_generate_parse_roundtrip_cost(benchmark):
    """The full cost a client refresh pays: generate + parse both documents."""
    description = build_interface(25)

    def roundtrip():
        parse_wsdl(generate_wsdl(description))
        parse_idl(generate_idl(description))

    benchmark(roundtrip)


@pytest.mark.benchmark(group="interface-generation")
def test_document_size_sweep(benchmark):
    results = benchmark.pedantic(
        run_interface_generation_sweep, setup=clear_fragment_caches,
        rounds=_ROUNDS, iterations=1,
    )
    sizes = [(result.operations, result.wsdl_bytes, result.idl_bytes) for result in results]
    assert sizes == sorted(sizes)
    print("\noperations  WSDL bytes  IDL bytes")
    for operations, wsdl_bytes, idl_bytes in sizes:
        print(f"{operations:10d}  {wsdl_bytes:10d}  {idl_bytes:9d}")
    benchmark.extra_info["sweep"] = sizes
