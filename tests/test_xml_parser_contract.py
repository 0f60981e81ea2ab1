"""The XML parser's contract: every error it reports, and round trips.

``ERRORS`` pins ``(source, message, line, column)`` for every error
branch of the parser — mismatched and unterminated tags, duplicate and
unquoted attributes, ``<`` in attribute values, unknown and empty
references, ``--`` in comments, unterminated CDATA/PI/DOCTYPE, content
after the root and a missing root.  The table was recorded from the
recursive-descent parser the iterative one replaced, so it also pins
that the replacement reports the same errors at the same places.

The Hypothesis properties check that serialize∘parse is the identity
over trees with attributes, entity-escaped characters and
whitespace-only text; that CDATA sections, character references,
comments and processing instructions in the markup parse to the same
tree; and that the compiled name pattern accepts exactly the
characters the name predicates accept.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import XMLSyntaxError
from repro.xmltree.document import Document, Element, Text
from repro.xmltree.parser import (
    _NAME,
    _is_name_char,
    _is_name_start,
    parse_document,
    parse_fragment,
)
from repro.xmltree.serializer import (
    escape_attribute,
    escape_text,
    serialize_document,
)

#: (entry point, source, message, line, column)
ERRORS = [
    ('doc', '<a><b></a>', 'mismatched closing tag: expected </b>, found </a>', 1, 10),
    ('doc', '<a>\n<b></c>\n</a>', 'mismatched closing tag: expected </b>, found </c>', 2, 7),
    ('doc', '<a></b  >', 'mismatched closing tag: expected </a>, found </b>', 1, 7),
    ('doc', '<a>', 'unexpected end of input inside <a>', 1, 4),
    ('doc', '<a><b>text', 'unexpected end of input inside <b>', 1, 11),
    ('doc', '<a>\n  <b/>\n  ', 'unexpected end of input inside <a>', 3, 3),
    ('doc', '<a', "expected '>'", 1, 3),
    ('doc', "<a x='1'", "expected '>'", 1, 9),
    ('doc', '<a/', "expected '>'", 1, 3),
    ('doc', '<a/ >', "expected '>'", 1, 3),
    ('doc', '<a></a', "expected '>'", 1, 7),
    ('doc', '<a></a x>', "expected '>'", 1, 8),
    ('doc', '<a></', 'expected an XML name', 1, 6),
    ('doc', '<a></ a>', 'expected an XML name', 1, 6),
    ('doc', '<a><', 'expected an XML name', 1, 5),
    ('doc', '<1/>', 'expected an XML name', 1, 2),
    ('doc', '<a><-b/></a>', 'expected an XML name', 1, 5),
    ('doc', '<a><!x></a>', 'expected an XML name', 1, 5),
    ('doc', '<a><!DOCTYPE a></a>', 'expected an XML name', 1, 5),
    ('doc', '<a b>', "expected '='", 1, 5),
    ('doc', "<a b c='1'/>", "expected '='", 1, 6),
    ('doc', "<a 1='x'/>", 'expected an XML name', 1, 4),
    ('doc', '<a x="1" x="2"/>', "duplicate attribute 'x'", 1, 15),
    ('doc', "<a x='1'\n   y='2' x='3'></a>", "duplicate attribute 'x'", 2, 15),
    ('doc', '<a x=1/>', "attribute 'x' value must be quoted", 1, 6),
    ('doc', '<a x=/>', "attribute 'x' value must be quoted", 1, 6),
    ('doc', '<a x=', "attribute 'x' value must be quoted", 1, 6),
    ('doc', "<a x='1/>", "unterminated value for attribute 'x'", 1, 10),
    ('doc', '<a x="abc', "unterminated value for attribute 'x'", 1, 10),
    ('doc', '<a x="<"/>', "'<' is not allowed in attribute values", 1, 7),
    ('doc', '<a x="a&lt;<"/>', "'<' is not allowed in attribute values", 1, 12),
    ('doc', "<a y='ok' x='\n<'/>", "'<' is not allowed in attribute values", 2, 1),
    ('doc', '<a>&nope;</a>', 'unknown entity &nope;', 1, 10),
    ('doc', '<a x="&nope;"/>', 'unknown entity &nope;', 1, 13),
    ('doc', '<a>\n\n  x &Amp; y</a>', 'unknown entity &Amp;', 3, 10),
    ('doc', '<a>&#;</a>', 'empty character reference', 1, 6),
    ('doc', '<a>&#x;</a>', 'empty hexadecimal character reference', 1, 7),
    ('doc', '<a>&#xZZ;</a>', 'empty hexadecimal character reference', 1, 7),
    ('doc', '<a>&#X;</a>', 'empty hexadecimal character reference', 1, 7),
    ('doc', '<a x="&#;"/>', 'empty character reference', 1, 9),
    ('doc', '<a>&;</a>', 'expected an XML name', 1, 5),
    ('doc', '<a>& b</a>', 'expected an XML name', 1, 5),
    ('doc', '<a>&amp</a>', "expected ';'", 1, 8),
    ('doc', '<a>&amp b;</a>', "expected ';'", 1, 8),
    ('doc', '<a>&#65</a>', "expected ';'", 1, 8),
    ('doc', '<a>&#x41 ;</a>', "expected ';'", 1, 9),
    ('doc', '<a>&#1114112;</a>', 'invalid character reference &#1114112;', 1, 14),
    ('doc', '<a>&#x110000;</a>', 'invalid character reference &#110000;', 1, 14),
    ('doc', '<a>&#99999999999999999999999;</a>', 'invalid character reference &#99999999999999999999999;', 1, 30),
    ('doc', '<a x="&#x110000;"/>', 'invalid character reference &#110000;', 1, 17),
    ('doc', '<a>&amp', "expected ';'", 1, 8),
    ('doc', '<a><!-- -- --></a>', "'--' is not allowed inside a comment", 1, 8),
    ('doc', '<a><!-- x --- ></a>', 'unterminated comment', 1, 8),
    ('doc', '<a><!-- x</a>', 'unterminated comment', 1, 8),
    ('doc', '<a><!--></a>', 'unterminated comment', 1, 8),
    ('doc', '<!-- -- --><a/>', "'--' is not allowed inside a comment", 1, 5),
    ('doc', '<!-- x', 'unterminated comment', 1, 5),
    ('doc', '<a/><!-- x', 'unterminated comment', 1, 9),
    ('doc', '<a/><!-- - -- -->', "'--' is not allowed inside a comment", 1, 9),
    ('doc', '<a><![CDATA[x</a>', 'unterminated CDATA section', 1, 13),
    ('doc', '<a>\n<![CDATA[x]]</a>', 'unterminated CDATA section', 2, 10),
    ('doc', '<a><?pi x</a>', 'unterminated processing instruction', 1, 6),
    ('doc', '<?pi <a/>', 'unterminated processing instruction', 1, 3),
    ('doc', '<a/><?pi', 'unterminated processing instruction', 1, 7),
    ('doc', '<!DOCTYPE a [<!ELEMENT a ANY>', 'unterminated DOCTYPE internal subset', 1, 30),
    ('doc', '<!DOCTYPE a [<!ELEMENT a [x]>]<a/>', "expected '>'", 1, 31),
    ('doc', '<!DOCTYPE a [<!ELEMENT a ANY>] x><a/>', "expected '>'", 1, 32),
    ('doc', '<!DOCTYPE a SYSTEM x><a/>', 'expected a quoted literal', 1, 20),
    ('doc', "<!DOCTYPE a SYSTEM 'x><a/>", 'unterminated literal', 1, 21),
    ('doc', "<!DOCTYPE a PUBLIC 'p'><a/>", 'expected a quoted literal', 1, 23),
    ('doc', '<!DOCTYPE a PUBLIC \'p\' "s><a/>', 'unterminated literal', 1, 25),
    ('doc', '<!DOCTYPE 1><a/>', 'expected an XML name', 1, 11),
    ('doc', '<!DOCTYPE a x><a/>', "expected '>'", 1, 13),
    ('doc', '<!DOCTYPE a', "expected '>'", 1, 12),
    ('doc', '<!DOCTYPE a><!DOCTYPE a><a/>', 'expected the root element', 1, 13),
    ('doc', "<?xml version='1.0'", 'unterminated XML declaration', 1, 1),
    ('doc', "\ufeff<?xml version='1.0'?><a></b>", 'mismatched closing tag: expected </a>, found </b>', 1, 29),
    ('doc', '<a/><b/>', 'content after the root element', 1, 5),
    ('doc', '<a/>text', 'content after the root element', 1, 5),
    ('doc', '<a/>\n\n  <b/>', 'content after the root element', 3, 3),
    ('doc', '<a/><![CDATA[x]]>', 'content after the root element', 1, 5),
    ('doc', 'plain text', 'expected the root element', 1, 1),
    ('doc', '', 'expected the root element', 1, 1),
    ('doc', '   \n ', 'expected the root element', 2, 2),
    ('doc', '<!-- c -->', 'expected the root element', 1, 11),
    ('doc', '<!DOCTYPE a>', 'expected the root element', 1, 13),
    ('doc', '<!x>', 'expected the root element', 1, 1),
    ('doc', "<?xml version='1.0'?>\n<!DOCTYPE a>\ntext", 'expected the root element', 3, 1),
    ('doc', '</a>', 'expected an XML name', 1, 2),
    ('doc', '<a>\n  <b>x</b>\n  <c>&bogus;</c>\n</a>', 'unknown entity &bogus;', 3, 13),
    ('doc', "<r>é中<é k='中'></è></r>", 'mismatched closing tag: expected </é>, found </è>', 1, 18),
    ('doc', '<a>²</a><²/>', 'content after the root element', 1, 9),
    ('doc', '<²/>', 'expected an XML name', 1, 2),
    ('doc', '<Ⅷ/>', 'expected an XML name', 1, 2),
    ('doc', '<a>&²;</a>', 'expected an XML name', 1, 5),
    ('doc', '<a>&Ⅷ;</a>', 'expected an XML name', 1, 5),
    ('frag', '<a/><b/>', 'content after the fragment element', 1, 5),
    ('frag', 'a', "expected '<'", 1, 1),
    ('frag', '  <a>\n<b></a>  ', 'mismatched closing tag: expected </b>, found </a>', 2, 7),
    ('frag', '<a></a> x', 'content after the fragment element', 1, 9),
    ('frag', '', "expected '<'", 1, 1),
]


@pytest.mark.parametrize("kind, source, message, line, column", ERRORS)
def test_error_contract(kind, source, message, line, column):
    parse = parse_document if kind == "doc" else parse_fragment
    with pytest.raises(XMLSyntaxError) as info:
        parse(source)
    assert str(info.value) == f"{message} at line {line}, column {column}"
    assert (info.value.line, info.value.column) == (line, column)


@pytest.mark.parametrize(
    "source",
    [
        # a hexadecimal reference running into the end of the input
        "<a>&#x",
        "<a>&#x41",
        # non-decimal digits: str.isdigit() admits them, int() does not
        "<a>&#²;</a>",
        "<a>&#1²;</a>",
        # more decimal digits than int() converts
        "<a>&#" + "9" * 5000 + ";</a>",
    ],
)
def test_malformed_character_references_raise_typed_errors(source):
    with pytest.raises(XMLSyntaxError):
        parse_document(source)


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------

_TAGS = ["a", "b", "c", "x-y", "n.1", "_u", "é"]
_tag = st.sampled_from(_TAGS)
#: text with characters that need escaping, and no whitespace-only runs
_word = st.text(alphabet="ab7 <>&\"'é中", min_size=1, max_size=6).filter(
    lambda value: value.strip()
)
_layout = st.sampled_from([" ", "\n  ", "\t", "\r\n"])
_attributes = st.dictionaries(
    st.sampled_from(["id", "k", "x:y", "_z"]), st.text(alphabet="a1 <>&\"'", max_size=4),
    max_size=3,
)


@st.composite
def _elements(draw, depth=0):
    children = []
    if depth < 4:
        for _ in range(draw(st.integers(0, 4))):
            if draw(st.booleans()):
                children.append(draw(_elements(depth + 1)))
            elif not children or not isinstance(children[-1], Text):
                # adjacent text nodes would merge: keep one per run
                children.append(Text(draw(st.one_of(_word, _layout))))
    return Element(draw(_tag), draw(_attributes), children)


_documents = _elements().map(Document)


@settings(max_examples=200, deadline=None)
@given(_documents)
def test_serialize_then_parse_is_the_identity(document):
    assert parse_document(serialize_document(document)) == document


def _markup(element, draw):
    """``element`` written with every construct the parser folds away:
    CDATA sections and character references for text, comments and
    processing instructions between pieces, single-quoted attributes."""
    attributes = "".join(
        " {}='{}'".format(name, escape_attribute(value).replace("'", "&apos;"))
        for name, value in element.attributes.items()
    )
    pieces = [f"<{element.tag}{attributes}>"]
    for child in element.children:
        if isinstance(child, Element):
            pieces.append(_markup(child, draw))
            continue
        for char in child.value:
            style = draw(st.integers(0, 5))
            if style == 0:
                pieces.append(f"&#{ord(char)};")
            elif style == 1:
                pieces.append(f"&#x{ord(char):X};")
            elif style == 2 and char not in "]>":
                pieces.append(f"<![CDATA[{char}]]>")
            else:
                pieces.append(escape_text(char))
            if draw(st.integers(0, 7)) == 0:
                pieces.append(
                    draw(st.sampled_from(["<!-- note -->", "<?pi data?>", "<![CDATA[]]>"]))
                )
    pieces.append(f"</{element.tag}  >")
    return "".join(pieces)


@settings(max_examples=200, deadline=None)
@given(_documents, st.data())
def test_markup_constructs_parse_to_the_same_tree(document, data):
    source = (
        "<?xml version='1.0'?>\n<!-- prologue -->\n<!DOCTYPE r [<!ELEMENT r ANY>]>\n"
        + _markup(document.root, data.draw)
        + "\n<?trailer?>\n"
    )
    assert parse_document(source) == document


# ----------------------------------------------------------------------
# Name characters
# ----------------------------------------------------------------------


@settings(max_examples=2000, deadline=None)
@given(st.characters())
def test_name_pattern_accepts_exactly_the_name_characters(char):
    assert bool(_NAME.fullmatch(char)) == _is_name_char(char)


@settings(max_examples=2000, deadline=None)
@given(st.characters())
def test_a_name_starts_exactly_where_the_predicate_allows(char):
    source = f"<{char}/>"
    if _is_name_start(char):
        assert parse_document(source).root.tag == char
    else:
        with pytest.raises(XMLSyntaxError):
            parse_document(source)


@pytest.mark.parametrize("char", ["²", "Ⅷ"])
def test_non_decimal_numerics_continue_names_but_never_start_them(char):
    # ``[^\W\d]`` admits these, so it cannot serve as the name-start class
    assert re.fullmatch(r"[^\W\d]", char)
    assert parse_document(f"<a{char}/>").root.tag == f"a{char}"
    with pytest.raises(XMLSyntaxError, match="expected an XML name"):
        parse_document(f"<{char}/>")
