"""Rendering an :class:`InterfaceDescription` into a WSDL document.

The generated document follows the WSDL 1.1 structure the paper describes
(§2.1): a ``types`` section declaring complex types, per-operation request and
response ``message`` elements, a ``portType`` listing the operations, a SOAP
``binding`` and a ``service`` whose ``soap:address`` carries the endpoint
location.  A *minimal* WSDL document (endpoint address but no operations,
§5.1.1 footnote) is simply the rendering of a minimal description.

Republication is incremental.  Descriptions are frozen values, so every
operation's fragments (its two ``message`` elements, its ``portType``
operation and its ``binding`` operation) and every struct's ``complexType``
are serialised once and cached by value; :func:`generate_wsdl` renders only
the document shell and splices the cached fragments into it.  Both the shell
and the fragments come from the ``_add_*`` builders below, so the structure
is described in one place, and the output is byte-identical to
``serialize(build_wsdl_element(description))``.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Callable, Sequence

from repro.interface import InterfaceDescription, OperationSignature
from repro.rmitypes import StructType
from repro.xmlutil import Namespaces, QName, XmlElement
from repro.xmlutil.serializer import _XML_DECLARATION, _write_element

_WSDL = Namespaces.WSDL
_SOAP = Namespaces.WSDL_SOAP
_XSD = Namespaces.XSD

#: The prefixes ``serialize`` assigns to every WSDL document: its namespaces
#: are always these three, first seen in this order (``definitions``,
#: ``schema``, then ``soap:binding``).
_PREFIXES = {_WSDL: "wsdl", _XSD: "xsd", _SOAP: "wsdlsoap"}

#: A placeholder element marking where cached fragments go in the shell.
#: Escaped attribute values never contain ``<``, so its text is unambiguous.
_SLOT = QName(None, "slot")
_SLOT_TEXT = "<slot/>"


def generate_wsdl(description: InterfaceDescription) -> str:
    """Return the WSDL document describing ``description``."""
    namespace = description.namespace
    groups: list[Sequence[str]] = []
    shell = build_wsdl_element(replace(description, operations=(), structs=()))
    if description.structs:
        shell.require(QName(_WSDL, "types")).require(QName(_XSD, "schema")).add(_SLOT)
        groups.append([_struct_fragment(struct) for struct in description.structs])
    if description.operations:
        fragments = [_operation_fragments(op, namespace) for op in description.operations]
        shell.children.insert(1, XmlElement(_SLOT))  # the messages follow types
        shell.require(QName(_WSDL, "portType")).add(_SLOT)
        shell.require(QName(_WSDL, "binding")).add(_SLOT)
        groups.extend(zip(*fragments))

    parts: list[str] = []
    _write_element(shell, _PREFIXES, parts, False, depth=0, declare_namespaces=True)
    pieces = "".join(parts).split(_SLOT_TEXT)
    document = [_XML_DECLARATION, pieces[0]]
    for group, piece in zip(groups, pieces[1:]):
        document.extend(group)
        document.append(piece)
    return "".join(document)


def clear_fragment_caches() -> None:
    """Forget every cached fragment, so the next render is a full one."""
    _operation_fragments.cache_clear()
    _struct_fragment.cache_clear()


def fragment_renders() -> int:
    """Fragment sets rendered (cache misses) since the caches were cleared."""
    return _operation_fragments.cache_info().misses + _struct_fragment.cache_info().misses


# Bounded like the QName caches; a live-edit run renders a few dozen.
@lru_cache(maxsize=4096)
def _operation_fragments(operation: OperationSignature, namespace: str) -> tuple[str, str, str]:
    """The serialised messages, portType operation and binding operation."""
    return (
        _render(lambda parent: _add_messages(parent, operation)),
        _render(lambda parent: _add_port_type_operation(parent, operation)),
        _render(lambda parent: _add_binding_operation(parent, operation, namespace)),
    )


@lru_cache(maxsize=4096)
def _struct_fragment(struct: StructType) -> str:
    """The serialised ``complexType`` declaring ``struct``."""
    return _render(lambda parent: _add_complex_type(parent, struct))


def _render(build: Callable[[XmlElement], None]) -> str:
    """Serialise the elements ``build`` adds to a scratch parent."""
    parent = XmlElement(_SLOT)
    build(parent)
    parts: list[str] = []
    for child in parent.children:
        _write_element(child, _PREFIXES, parts, False, depth=1, declare_namespaces=False)
    return "".join(parts)


def build_wsdl_element(description: InterfaceDescription) -> XmlElement:
    """Build the WSDL document as an :class:`XmlElement` tree."""
    definitions = XmlElement(
        QName(_WSDL, "definitions"),
        {
            "name": description.service_name,
            "targetNamespace": description.namespace,
            "version": str(description.version),
        },
    )

    _add_types(definitions, description)
    for operation in description.operations:
        _add_messages(definitions, operation)
    _add_port_type(definitions, description)
    _add_binding(definitions, description)
    _add_service(definitions, description)
    return definitions


def _add_types(definitions: XmlElement, description: InterfaceDescription) -> None:
    types = definitions.add(QName(_WSDL, "types"))
    schema = types.add(
        QName(_XSD, "schema"), {"targetNamespace": description.namespace}
    )
    for struct in description.structs:
        _add_complex_type(schema, struct)


def _add_complex_type(schema: XmlElement, struct: StructType) -> None:
    complex_type = schema.add(QName(_XSD, "complexType"), {"name": struct.name})
    sequence = complex_type.add(QName(_XSD, "sequence"))
    for field_def in struct.fields:
        sequence.add(
            QName(_XSD, "element"),
            {
                "name": field_def.name,
                "type": field_def.field_type.type_name,
            },
        )


def _add_messages(definitions: XmlElement, operation: OperationSignature) -> None:
    request = definitions.add(
        QName(_WSDL, "message"), {"name": f"{operation.name}Request"}
    )
    for parameter in operation.parameters:
        request.add(
            QName(_WSDL, "part"),
            {"name": parameter.name, "type": parameter.param_type.type_name},
        )
    response = definitions.add(
        QName(_WSDL, "message"), {"name": f"{operation.name}Response"}
    )
    response.add(
        QName(_WSDL, "part"),
        {"name": "return", "type": operation.return_type.type_name},
    )


def _add_port_type(definitions: XmlElement, description: InterfaceDescription) -> None:
    port_type = definitions.add(
        QName(_WSDL, "portType"), {"name": f"{description.service_name}PortType"}
    )
    for operation in description.operations:
        _add_port_type_operation(port_type, operation)


def _add_port_type_operation(port_type: XmlElement, operation: OperationSignature) -> None:
    op_element = port_type.add(QName(_WSDL, "operation"), {"name": operation.name})
    op_element.add(QName(_WSDL, "input"), {"message": f"{operation.name}Request"})
    op_element.add(QName(_WSDL, "output"), {"message": f"{operation.name}Response"})


def _add_binding(definitions: XmlElement, description: InterfaceDescription) -> None:
    binding = definitions.add(
        QName(_WSDL, "binding"),
        {
            "name": f"{description.service_name}SoapBinding",
            "type": f"{description.service_name}PortType",
        },
    )
    binding.add(
        QName(_SOAP, "binding"),
        {"style": "rpc", "transport": "http://schemas.xmlsoap.org/soap/http"},
    )
    for operation in description.operations:
        _add_binding_operation(binding, operation, description.namespace)


def _add_binding_operation(
    binding: XmlElement, operation: OperationSignature, namespace: str
) -> None:
    op_element = binding.add(QName(_WSDL, "operation"), {"name": operation.name})
    op_element.add(
        QName(_SOAP, "operation"),
        {"soapAction": f"{namespace}#{operation.name}"},
    )


def _add_service(definitions: XmlElement, description: InterfaceDescription) -> None:
    service = definitions.add(
        QName(_WSDL, "service"), {"name": description.service_name}
    )
    port = service.add(
        QName(_WSDL, "port"),
        {
            "name": f"{description.service_name}Port",
            "binding": f"{description.service_name}SoapBinding",
        },
    )
    port.add(QName(_SOAP, "address"), {"location": description.endpoint_url})
