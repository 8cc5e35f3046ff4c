"""The one-pass XML tree build equals the original two-step conversion.

``_reference_convert`` is the converter ``repro.xmlutil.parser`` used
before it built elements directly: an ``XmlElement`` constructed through
the public, checking API (name coercion, ``set_attribute``, ``add_child``).
It is kept here as the oracle.  A Hypothesis property parses random
documents both ways and requires identical trees: names and attributes
exact, text exact (never stripped for the comparison), children in order.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape, quoteattr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XmlError
from repro.xmlutil import XmlElement, parse
from repro.xmlutil.parser import _convert
from repro.xmlutil.qname import QName


def _reference_convert(node: ET.Element) -> XmlElement:
    element = XmlElement(QName.from_clark(node.tag))
    for key, value in node.attrib.items():
        element.set_attribute(QName.from_clark(key), value)
    if len(node):
        element.text = (node.text or "").strip()
    else:
        element.text = node.text or ""
    for child in node:
        element.add_child(_reference_convert(child))
    return element


def _reference_parse(text: str) -> XmlElement:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmlError(f"malformed XML: {exc}") from None
    return _reference_convert(root)


def assert_identical(mine: XmlElement, oracle: XmlElement) -> None:
    assert type(mine) is XmlElement
    assert mine.name == oracle.name
    assert list(mine.attributes.items()) == list(oracle.attributes.items())
    assert all(type(key) is QName for key in mine.attributes)
    assert mine.text == oracle.text
    assert len(mine.children) == len(oracle.children)
    for child, expected in zip(mine.children, oracle.children):
        assert_identical(child, expected)


# -- random documents ----------------------------------------------------------

_PREFIXES = {"a": "urn:example:a", "b": "http://example.org/b"}

_local = st.sampled_from(["item", "value", "Envelope", "x", "_y", "n-1", "data.v"])
#: ``None`` is a plain name, a prefix a namespaced one.
_prefix = st.sampled_from([None, "a", "b"])
_text = st.text(
    alphabet=st.sampled_from(list("ab Z09 \t\n<>&\"'é€") + [" "]), max_size=12
)


def _render_text(text: str, draw) -> str:
    """Escape ``text``, writing some characters as character references."""
    out = []
    for char in text:
        style = draw(st.sampled_from(["plain", "decimal", "hex"]))
        if char in "\t\n" or style == "plain":
            out.append(escape(char, {'"': "&quot;", "'": "&apos;"}))
        elif style == "decimal":
            out.append(f"&#{ord(char)};")
        else:
            out.append(f"&#x{ord(char):x};")
    return "".join(out)


def _name(prefix: str | None, local: str) -> str:
    return local if prefix is None else f"{prefix}:{local}"


@st.composite
def _element(draw, depth: int = 0) -> str:
    tag = _name(draw(_prefix), draw(_local))
    attributes = draw(
        st.lists(st.tuples(_prefix, _local, _text), max_size=3, unique_by=lambda a: a[:2])
    )
    rendered = "".join(
        f" {_name(prefix, local)}={quoteattr(value)}" for prefix, local, value in attributes
    )
    if depth == 0:
        rendered += "".join(f' xmlns:{p}="{uri}"' for p, uri in _PREFIXES.items())
    shape = draw(st.sampled_from(["empty", "self-closing", "leaf", "parent"]))
    if depth >= 3 or shape in ("empty", "self-closing", "leaf"):
        if shape == "self-closing":
            return f"<{tag}{rendered}/>"
        body = _render_text(draw(_text), draw) if shape == "leaf" else ""
        return f"<{tag}{rendered}>{body}</{tag}>"
    children = draw(st.lists(_element(depth + 1), min_size=1, max_size=3))
    # Indentation and tails around children, as a pretty printer writes them.
    parts = [_render_text(draw(_text), draw)]
    for child in children:
        parts.append(child)
        parts.append(_render_text(draw(_text), draw))
    return f"<{tag}{rendered}>{''.join(parts)}</{tag}>"


@settings(max_examples=300, deadline=None)
@given(_element())
def test_one_pass_build_equals_reference_conversion(document):
    assert_identical(parse(document), _reference_parse(document))


# -- fixed cases ---------------------------------------------------------------


def test_leaf_text_is_verbatim_and_parent_text_stripped():
    root = parse("<r>\n  <a>  padded  </a>\n  <b/>\n  <c>&#32;&lt;&amp;&#x20;</c>\n</r>")
    assert root.text == ""
    assert [child.text for child in root.children] == ["  padded  ", "", " <& "]


def test_attributes_keep_namespaces_and_order():
    root = parse('<r xmlns:p="urn:p" z="1" p:a="2" a="3"/>')
    assert list(root.attributes.items()) == [
        (QName(None, "z"), "1"),
        (QName("urn:p", "a"), "2"),
        (QName(None, "a"), "3"),
    ]


def test_default_namespace_applies_to_elements_only():
    root = parse('<r xmlns="urn:d" k="v"><c/></r>')
    assert root.name == QName("urn:d", "r")
    assert root.children[0].name == QName("urn:d", "c")
    assert list(root.attributes) == [QName(None, "k")]


def test_children_lists_are_independent():
    root = parse("<r><a/><b/></r>")
    first, second = root.children
    first.add("x")
    assert second.children == []
    assert root.children[0].children[0].name == QName(None, "x")


@pytest.mark.parametrize(
    "bad",
    [
        "<unclosed>",
        "<a></b>",
        "<p:a/>",  # unbound prefix
        "not xml at all",
        "",
    ],
)
def test_malformed_xml_raises_xml_error(bad):
    with pytest.raises(XmlError):
        parse(bad)
    with pytest.raises(XmlError):
        _reference_parse(bad)


@pytest.mark.parametrize(
    "tag, attributes",
    [
        ("has space", {}),
        ("{urn:x}a:b", {}),
        ("ok", {"{urn:x}bad name": "v"}),
        ("{unclosed", {}),
    ],
)
def test_invalid_names_raise_xml_error(tag, attributes):
    # Expat never yields such names from document text, so the tree is
    # built by hand: the name check lives in the conversion, not in expat.
    node = ET.Element("root")
    ET.SubElement(node, tag, attributes)
    with pytest.raises(XmlError):
        _convert(node)
    with pytest.raises(XmlError):
        _reference_convert(node)
