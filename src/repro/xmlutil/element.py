"""A small, namespace-aware XML element model.

The model is intentionally simpler than a full DOM: elements have a
:class:`~repro.xmlutil.qname.QName`, string attributes (which may themselves
be namespace qualified), text content and child elements.  This is all the
SOAP, WSDL and IDL-publication code needs, and keeping it small makes the
serialiser and parser easy to reason about and to round-trip test.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import XmlError
from repro.xmlutil.qname import QName


class XmlElement:
    """An element in the XML tree."""

    def __init__(
        self,
        name: QName | str,
        attributes: dict[QName | str, str] | None = None,
        text: str = "",
    ) -> None:
        self.name = self._coerce_name(name)
        self.attributes: dict[QName, str] = {}
        for key, value in (attributes or {}).items():
            self.set_attribute(key, value)
        self.text = text
        self.children: list["XmlElement"] = []

    # -- construction -------------------------------------------------------

    @classmethod
    def _built(
        cls,
        name: QName,
        attributes: dict[QName, str],
        text: str,
        children: list["XmlElement"],
    ) -> "XmlElement":
        """An element from parts that are already checked (the parser's path).

        The caller owns ``attributes`` and ``children`` and hands them over;
        nothing is coerced or copied.
        """
        element = cls.__new__(cls)
        element.name = name
        element.attributes = attributes
        element.text = text
        element.children = children
        return element

    @staticmethod
    def _coerce_name(name: QName | str) -> QName:
        if isinstance(name, QName):
            return name
        if isinstance(name, str):
            return QName.from_clark(name)
        raise XmlError(f"element name must be QName or str, got {type(name).__name__}")

    def set_attribute(self, name: QName | str, value: str) -> None:
        """Set (or overwrite) an attribute."""
        self.attributes[self._coerce_name(name)] = str(value)

    def attribute(self, name: QName | str, default: str | None = None) -> str | None:
        """Return an attribute value, or ``default`` if absent."""
        return self.attributes.get(self._coerce_name(name), default)

    def add_child(self, child: "XmlElement") -> "XmlElement":
        """Append ``child`` and return it (to allow chained building)."""
        if not isinstance(child, XmlElement):
            raise XmlError(f"child must be XmlElement, got {type(child).__name__}")
        self.children.append(child)
        return child

    def add(
        self,
        name: QName | str,
        attributes: dict[QName | str, str] | None = None,
        text: str = "",
    ) -> "XmlElement":
        """Create a child element, append it and return it."""
        return self.add_child(XmlElement(name, attributes, text))

    # -- navigation -----------------------------------------------------------

    def find(self, name: QName | str) -> "XmlElement | None":
        """Return the first direct child with the given name, if any."""
        wanted = self._coerce_name(name)
        for child in self.children:
            if child.name == wanted:
                return child
        return None

    def find_all(self, name: QName | str) -> list["XmlElement"]:
        """Return all direct children with the given name."""
        wanted = self._coerce_name(name)
        return [child for child in self.children if child.name == wanted]

    def require(self, name: QName | str) -> "XmlElement":
        """Return the first direct child with the given name or raise."""
        child = self.find(name)
        if child is None:
            raise XmlError(f"element {self.name} has no child named {name}")
        return child

    def iter(self) -> Iterator["XmlElement"]:
        """Depth-first iteration over this element and all descendants."""
        yield self
        for child in self.children:
            yield from child.iter()

    # -- comparison -------------------------------------------------------

    def structurally_equal(self, other: "XmlElement") -> bool:
        """Deep equality on names, attributes, text and children.

        Text is compared after stripping surrounding whitespace so that
        pretty-printed and compact serialisations of the same document
        compare equal.
        """
        if self.name != other.name:
            return False
        if self.attributes != other.attributes:
            return False
        if (self.text or "").strip() != (other.text or "").strip():
            return False
        if len(self.children) != len(other.children):
            return False
        return all(
            mine.structurally_equal(theirs)
            for mine, theirs in zip(self.children, other.children)
        )

    def __repr__(self) -> str:
        return f"XmlElement({self.name}, children={len(self.children)})"
