"""Incremental WSDL rendering is byte-identical to the full serialiser.

``generate_wsdl`` splices cached per-operation and per-struct fragments into a
freshly rendered document shell.  These properties replay random edit
sequences — adding, removing and retyping operations and structs, down to the
§5.1.1 minimal document — and check every intermediate publication against
``serialize(build_wsdl_element(description))``, the full render, byte for
byte.  Namespaces and endpoint URLs carry characters that need escaping.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.interface import InterfaceDescription, OperationSignature, Parameter
from repro.rmitypes import (
    BOOLEAN,
    DOUBLE,
    INT,
    STRING,
    VOID,
    ArrayType,
    FieldDef,
    StructType,
)
from repro.soap.wsdl.generator import (
    _PREFIXES,
    build_wsdl_element,
    clear_fragment_caches,
    fragment_renders,
    generate_wsdl,
)
from repro.xmlutil import serialize
from repro.xmlutil.serializer import _assign_prefixes, _collect_namespaces

_PRIMITIVES = (INT, DOUBLE, BOOLEAN, STRING)

#: Small name pools, so edits re-add and retype names seen before and the
#: caches are hit as well as missed.
_OPERATION_NAMES = ("add", "echo", "greet", "norm", "reset", "tags")
_STRUCT_NAMES = ("Point", "Segment", "Mail")
_MEMBER_NAMES = ("a", "b", "start", "end")

#: Text with the characters an attribute value must escape.
_escaped_text = st.text(alphabet='ab:/&<>"#', min_size=1, max_size=12)

_namespaces = st.one_of(
    st.sampled_from(("urn:calc", 'urn:a&b<c>"d"')), _escaped_text.map("urn:".__add__)
)
_endpoints = _escaped_text.map("http://server:8080/sde?q=".__add__)


def _types(structs: dict[str, StructType]):
    element = st.sampled_from(_PRIMITIVES + tuple(structs.values()))
    return st.one_of(element, element.map(ArrayType))


@st.composite
def _operation(draw, name: str, structs: dict[str, StructType]) -> OperationSignature:
    parameter_names = draw(st.lists(st.sampled_from(_MEMBER_NAMES), max_size=3, unique=True))
    parameters = tuple(Parameter(p, draw(_types(structs))) for p in parameter_names)
    return_type = draw(st.one_of(st.just(VOID), _types(structs)))
    return OperationSignature(name, parameters, return_type)


@st.composite
def _struct(draw, name: str, structs: dict[str, StructType]) -> StructType:
    field_names = draw(st.lists(st.sampled_from(_MEMBER_NAMES), max_size=3, unique=True))
    others = {key: value for key, value in structs.items() if key != name}
    return StructType(name, tuple(FieldDef(f, draw(_types(others))) for f in field_names))


def _apply_random_edit(data, operations: dict, structs: dict) -> None:
    """Add, remove or retype one operation or struct."""
    kind = data.draw(st.sampled_from(("operation", "struct")))
    pool, names = (operations, _OPERATION_NAMES) if kind == "operation" else (structs, _STRUCT_NAMES)
    name = data.draw(st.sampled_from(names))
    if name in pool and data.draw(st.booleans()):
        del pool[name]
    else:
        build = _operation if kind == "operation" else _struct
        pool[name] = data.draw(build(name, structs))


def _assert_identical(description: InterfaceDescription) -> None:
    assert generate_wsdl(description) == serialize(build_wsdl_element(description))


class TestIncrementalWsdlIdentity:
    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_random_edit_sequences_render_byte_identically(self, data):
        description = InterfaceDescription.minimal(
            "Calculator", data.draw(_namespaces), data.draw(_endpoints)
        )
        _assert_identical(description)
        operations: dict[str, OperationSignature] = {}
        structs: dict[str, StructType] = {}
        for version in range(1, data.draw(st.integers(min_value=1, max_value=12)) + 1):
            _apply_random_edit(data, operations, structs)
            if data.draw(st.integers(min_value=0, max_value=9)) == 0:
                description = replace(
                    description,
                    namespace=data.draw(_namespaces),
                    endpoint_url=data.draw(_endpoints),
                )
            description = description.with_operations(
                operations.values(), structs.values()
            ).with_version(version)
            _assert_identical(description)

    def test_minimal_document_is_identical(self):
        _assert_identical(
            InterfaceDescription.minimal("Svc", 'urn:"x"&<y>', 'http://h:1/ep?a=1&b="2"')
        )

    def test_structs_without_operations_are_identical(self):
        point = StructType("Point", (FieldDef("x", DOUBLE), FieldDef("y", DOUBLE)))
        description = InterfaceDescription.minimal("Svc", "urn:x", "http://h:1/ep")
        _assert_identical(description.with_operations((), (point,)))

    def test_same_operation_under_two_namespaces_renders_each_soap_action(self):
        operation = OperationSignature("echo", (Parameter("m", STRING),), STRING)
        for namespace in ("urn:one", "urn:two&three"):
            description = InterfaceDescription.minimal(
                "Svc", namespace, "http://h:1/ep"
            ).with_operations((operation,))
            _assert_identical(description)

    def test_republish_after_one_added_operation_renders_one_fragment_set(self):
        clear_fragment_caches()
        base = InterfaceDescription.minimal("Svc", "urn:x", "http://h:1/ep")
        operations = [OperationSignature(f"op{i}", (), INT) for i in range(10)]
        generate_wsdl(base.with_operations(operations))
        assert fragment_renders() == 10
        operations.append(OperationSignature("later", (), INT))
        generate_wsdl(base.with_operations(operations).with_version(1))
        assert fragment_renders() == 11


class TestFixedPrefixes:
    def test_prefixes_match_the_serialiser_without_structs(self):
        description = InterfaceDescription.minimal(
            "Svc", "urn:x", "http://h:1/ep"
        ).with_operations((OperationSignature("echo", (Parameter("m", STRING),), STRING),))
        assigned = _assign_prefixes(_collect_namespaces(build_wsdl_element(description)))
        assert list(assigned.items()) == list(_PREFIXES.items())

    def test_prefixes_match_the_serialiser_with_structs(self):
        point = StructType("Point", (FieldDef("x", DOUBLE),))
        description = InterfaceDescription.minimal(
            "Svc", "urn:x", "http://h:1/ep"
        ).with_operations((OperationSignature("norm", (Parameter("p", point),), DOUBLE),), (point,))
        assigned = _assign_prefixes(_collect_namespaces(build_wsdl_element(description)))
        assert list(assigned.items()) == list(_PREFIXES.items())
