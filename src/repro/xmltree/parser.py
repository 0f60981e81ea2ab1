"""A from-scratch XML parser.

A hand-written, iterative parser for the subset of XML 1.0 needed by the
reproduction (and then some): elements, attributes, text, character and
predefined entity references, CDATA sections, comments, processing
instructions, the XML declaration, and an (optionally
internal-subset-bearing) DOCTYPE declaration.  The internal subset, when
present, is handed verbatim to the DTD parser by higher layers.

It is deliberately strict about well-formedness — mismatched tags,
duplicate attributes and stray ``<`` are all reported with line/column —
because the classifier must be able to trust that a parsed document is a
tree.

Open elements live on an explicit stack, so nesting depth is bounded by
memory, never by the interpreter's recursion limit.  Markup is located
with ``str.find`` and a few compiled patterns rather than one character
at a time.  When an element's close tag is seen, its census
(:class:`repro.xmltree.document.StructureInfo`: fingerprint, height,
weight, child tags, text count) is computed from its children's and
cached on it, so the consumers downstream never walk the document again
to rebuild them.  The parser also tallies the elements per tag as they
close, which the classifier's bound screen reads instead of a walk.

No external dependencies and no ``xml.*`` stdlib modules are used: the
paper's substrate is rebuilt from scratch per the reproduction brief.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.errors import XMLSyntaxError
from repro.xmltree.document import (
    Document,
    Element,
    Text,
    closed_element,
    parsed_document,
)

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_NAME_START_EXTRA = set("_:")
_NAME_EXTRA = set("_:-.")


def _is_name_start(char: str) -> bool:
    return char.isalpha() or char in _NAME_START_EXTRA


def _is_name_char(char: str) -> bool:
    return char.isalnum() or char in _NAME_EXTRA


#: A run of name characters: ``\w`` is exactly ``str.isalnum()`` plus
#: ``_``, so this class accepts what :func:`_is_name_char` accepts.  The
#: first character is checked with :func:`_is_name_start` on its own,
#: because no ``re`` class equals ``str.isalpha()``: ``[^\W\d]`` also
#: admits non-decimal numerics such as ``²`` and ``Ⅷ``.
_NAME = re.compile(r"[\w:.\-]+")
_SPACE = re.compile(r"[ \t\r\n]*")
_HEX_DIGITS = re.compile(r"[0-9a-fA-F]*")
#: ``\d`` is the Unicode decimal digits, exactly what ``int()`` accepts
_DIGITS = re.compile(r"\d*")
#: a text run without markup or references, then a start tag without
#: attributes or an end tag: the common case
_SIMPLE_TAG = re.compile(r"([^<&]*)<(/?)([\w:.\-]+)[ \t\r\n]*(/?)>")
_BRACKET = re.compile(r"[\[\]]")


class XMLParser:
    """Single-use parser over an in-memory string.

    Use the module-level helpers :func:`parse_document` /
    :func:`parse_fragment` unless you need access to the captured
    DOCTYPE internal subset (:attr:`internal_subset`).
    """

    def __init__(self, source: str):
        self._source = source
        self._length = len(source)
        #: Raw text of the DOCTYPE internal subset, if the document had one.
        self.internal_subset: Optional[str] = None
        #: DOCTYPE root name, if declared.
        self.doctype_name: Optional[str] = None
        #: SYSTEM identifier of the DOCTYPE, if declared.
        self.doctype_system: Optional[str] = None

    # ------------------------------------------------------------------
    # Positions and errors
    # ------------------------------------------------------------------

    def _location(self, pos: int) -> Tuple[int, int]:
        line = self._source.count("\n", 0, pos) + 1
        last_newline = self._source.rfind("\n", 0, pos)
        return line, pos - last_newline

    def _error(self, message: str, pos: int) -> XMLSyntaxError:
        line, column = self._location(pos)
        return XMLSyntaxError(message, line, column)

    def _space(self, pos: int) -> int:
        """Position of the first non-whitespace character at or after ``pos``."""
        return _SPACE.match(self._source, pos).end()

    def _name(self, pos: int) -> Tuple[str, int]:
        """The XML name starting at ``pos`` and the position after it."""
        match = _NAME.match(self._source, pos)
        if match is None or not _is_name_start(self._source[pos]):
            raise self._error("expected an XML name", pos)
        return match.group(), match.end()

    def _expect(self, token: str, pos: int) -> int:
        if not self._source.startswith(token, pos):
            raise self._error(f"expected {token!r}", pos)
        return pos + len(token)

    # ------------------------------------------------------------------
    # Entities
    # ------------------------------------------------------------------

    def _reference(self, pos: int) -> Tuple[str, int]:
        """Read the entity/char reference whose ``&`` is at ``pos``."""
        source = self._source
        pos += 1
        if source.startswith("#", pos):
            pos += 1
            if source[pos : pos + 1] in ("x", "X"):
                pos += 1
                digits, base = _HEX_DIGITS.match(source, pos).group(), 16
                if not digits:
                    raise self._error("empty hexadecimal character reference", pos)
            else:
                digits, base = _DIGITS.match(source, pos).group(), 10
                if not digits:
                    raise self._error("empty character reference", pos)
            pos = self._expect(";", pos + len(digits))
            try:
                return chr(int(digits, base)), pos
            except (ValueError, OverflowError):
                raise self._error(
                    f"invalid character reference &#{digits};", pos
                ) from None
        name, pos = self._name(pos)
        pos = self._expect(";", pos)
        if name not in _PREDEFINED_ENTITIES:
            raise self._error(f"unknown entity &{name};", pos)
        return _PREDEFINED_ENTITIES[name], pos

    def _expand(self, pos: int, stop: int) -> str:
        """The text of ``source[pos:stop]`` with its references replaced.

        A reference never contains ``<`` or a quote, so none straddles
        ``stop`` (the next markup, or an attribute value's quote).
        """
        source = self._source
        pieces: List[str] = []
        while True:
            amp = source.find("&", pos, stop)
            if amp < 0:
                pieces.append(source[pos:stop])
                return "".join(pieces)
            pieces.append(source[pos:amp])
            char, pos = self._reference(amp)
            pieces.append(char)

    # ------------------------------------------------------------------
    # Comments, processing instructions, prolog
    # ------------------------------------------------------------------

    def _comment(self, pos: int) -> int:
        """Skip the comment whose ``<!--`` is at ``pos``."""
        start = pos + 4
        end = self._source.find("-->", start)
        if end < 0:
            raise self._error("unterminated comment", start)
        if self._source.find("--", start, end) >= 0:
            raise self._error("'--' is not allowed inside a comment", start)
        return end + 3

    def _processing_instruction(self, pos: int) -> int:
        """Skip the processing instruction whose ``<?`` is at ``pos``."""
        end = self._source.find("?>", pos + 2)
        if end < 0:
            raise self._error("unterminated processing instruction", pos + 2)
        return end + 2

    def _misc(self, pos: int) -> int:
        """Skip whitespace, comments and processing instructions."""
        source = self._source
        while True:
            pos = self._space(pos)
            if source.startswith("<!--", pos):
                pos = self._comment(pos)
            elif source.startswith("<?", pos):
                pos = self._processing_instruction(pos)
            else:
                return pos

    def _quoted(self, pos: int) -> Tuple[str, int]:
        quote = self._source[pos : pos + 1]
        if quote not in ("'", '"'):
            raise self._error("expected a quoted literal", pos)
        end = self._source.find(quote, pos + 1)
        if end < 0:
            raise self._error("unterminated literal", pos + 1)
        return self._source[pos + 1 : end], end + 1

    def _doctype(self, pos: int) -> int:
        """Read the DOCTYPE declaration at ``pos``; returns the position after it."""
        source = self._source
        self.doctype_name, pos = self._name(self._space(pos + len("<!DOCTYPE")))
        pos = self._space(pos)
        if source.startswith("SYSTEM", pos):
            self.doctype_system, pos = self._quoted(self._space(pos + 6))
            pos = self._space(pos)
        elif source.startswith("PUBLIC", pos):
            _public_id, pos = self._quoted(self._space(pos + 6))  # recorded nowhere
            self.doctype_system, pos = self._quoted(self._space(pos))
            pos = self._space(pos)
        if source.startswith("[", pos):
            depth = 0
            for bracket in _BRACKET.finditer(source, pos):
                depth += 1 if bracket.group() == "[" else -1
                if depth == 0:
                    break
            else:
                raise self._error("unterminated DOCTYPE internal subset", self._length)
            self.internal_subset = source[pos + 1 : bracket.start()]
            pos = self._space(bracket.end())
        return self._expect(">", pos)

    # ------------------------------------------------------------------
    # Elements
    # ------------------------------------------------------------------

    def _attribute_value(self, pos: int, quote: str, name: str) -> Tuple[str, int]:
        """The value whose opening quote ends just before ``pos``."""
        source = self._source
        end = source.find(quote, pos)
        stop = end if end >= 0 else self._length
        lt = source.find("<", pos, stop)
        # references before the first '<' are read (and reported) first
        value = self._expand(pos, stop if lt < 0 else lt)
        if lt >= 0:
            raise self._error("'<' is not allowed in attribute values", lt)
        if end < 0:
            raise self._error(
                f"unterminated value for attribute {name!r}", self._length
            )
        return value, end + 1

    def _start_tag(self, pos: int) -> Tuple[str, Dict[str, str], int, bool]:
        """Read the start tag whose ``<`` is at ``pos``.

        Returns the tag, its attributes, the position after the tag and
        whether it was self-closing.
        """
        source = self._source
        tag, pos = self._name(pos + 1)
        char = source[pos : pos + 1]
        if char == ">":
            return tag, {}, pos + 1, False
        attributes: Dict[str, str] = {}
        while True:
            pos = self._space(pos)
            char = source[pos : pos + 1]
            if char == ">":
                return tag, attributes, pos + 1, False
            if char == "/" or not char:
                if not source.startswith("/>", pos):
                    raise self._error("expected '>'", pos)
                return tag, attributes, pos + 2, True
            name, pos = self._name(pos)
            pos = self._space(self._expect("=", self._space(pos)))
            quote = source[pos : pos + 1]
            if quote not in ("'", '"'):
                raise self._error(f"attribute {name!r} value must be quoted", pos)
            value, pos = self._attribute_value(pos + 1, quote, name)
            if name in attributes:
                raise self._error(f"duplicate attribute {name!r}", pos)
            attributes[name] = value

    def _element(self, pos: int) -> Tuple[Element, int, Dict[str, int]]:
        """Read the element whose ``<`` is at ``pos``, with its content.

        Returns the element, the position after its end tag and the
        number of elements per tag in its subtree, tallied as each one
        closes.  Each
        open element is a ``(tag, attributes, children)`` frame on an
        explicit stack; the innermost one lives in locals.  Text runs
        (with references, CDATA sections, comments and processing
        instructions merged in) accumulate in ``text`` until the next
        child element or end tag.
        """
        source = self._source
        length = self._length
        find = source.find
        startswith = source.startswith
        simple_tag = _SIMPLE_TAG.match
        tag, attributes, pos, empty = self._start_tag(pos)
        if empty:
            return closed_element(tag, attributes, []), pos, {tag: 1}
        tally: Dict[str, int] = {}
        stack: List[Tuple[str, Dict[str, str], List]] = []
        children: List = []
        text: Optional[str] = None
        while True:
            # the common case in one match: a text run without markup or
            # references, then the matching end tag or a start tag
            # without attributes
            match = simple_tag(source, pos)
            if match is not None:
                run, closing, name, slash = match.groups()
                if closing:
                    simple = name == tag and not slash
                else:
                    simple = _is_name_start(name[0])
            if match is not None and simple:
                if run:
                    text = run if text is None else text + run
                pos = match.end()
                if not closing:
                    child_tag, child_attributes, empty = name, {}, bool(slash)
            else:
                # everything else, errors included, step by step
                lt = find("<", pos)
                if lt < 0:
                    lt = length
                if lt != pos:
                    run = source[pos:lt]
                    if "&" in run:
                        run = self._expand(pos, lt)
                    text = run if text is None else text + run
                if lt == length:
                    raise self._error(f"unexpected end of input inside <{tag}>", length)
                marker = source[lt + 1 : lt + 2]
                closing = marker == "/"
                if closing:
                    name, pos = self._name(lt + 2)
                    if name != tag:
                        raise self._error(
                            f"mismatched closing tag: expected </{tag}>, found </{name}>",
                            pos,
                        )
                    pos = self._expect(">", self._space(pos))
                elif marker == "!" and startswith("<!--", lt):
                    pos = self._comment(lt)
                    continue
                elif marker == "!" and startswith("<![CDATA[", lt):
                    end = find("]]>", lt + 9)
                    if end < 0:
                        raise self._error("unterminated CDATA section", lt + 9)
                    run = source[lt + 9 : end]
                    text = run if text is None else text + run
                    pos = end + 3
                    continue
                elif marker == "?":
                    pos = self._processing_instruction(lt)
                    continue
                else:
                    child_tag, child_attributes, pos, empty = self._start_tag(lt)
            if text is not None:
                children.append(Text(text))
                text = None
            if closing:
                element = closed_element(tag, attributes, children)
                tally[tag] = tally.get(tag, 0) + 1
                if not stack:
                    return element, pos, tally
                tag, attributes, children = stack.pop()
                children.append(element)
            elif empty:
                children.append(closed_element(child_tag, child_attributes, []))
                tally[child_tag] = tally.get(child_tag, 0) + 1
            else:
                stack.append((tag, attributes, children))
                tag, attributes, children = child_tag, child_attributes, []

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def parse(self) -> Document:
        """Parse a complete document (prolog + root element + trailer)."""
        source = self._source
        pos = 1 if source.startswith("\ufeff") else 0
        encoding = "UTF-8"
        pos = self._space(pos)
        if source.startswith("<?xml", pos):
            end = source.find("?>", pos)
            if end < 0:
                raise self._error("unterminated XML declaration", pos)
            declaration = source[pos:end]
            if "encoding=" in declaration:
                tail = declaration.split("encoding=", 1)[1]
                if tail and tail[0] in "'\"":
                    encoding = tail[1:].split(tail[0], 1)[0]
            pos = end + 2
        pos = self._misc(pos)
        if source.startswith("<!DOCTYPE", pos):
            pos = self._misc(self._doctype(pos))
        if not source.startswith("<", pos) or source.startswith("<!", pos):
            raise self._error("expected the root element", pos)
        root, pos, tally = self._element(pos)
        pos = self._misc(pos)
        if pos < self._length:
            raise self._error("content after the root element", pos)
        return parsed_document(
            root, tally, self.doctype_name, self.doctype_system, encoding
        )

    def parse_fragment(self) -> Element:
        """Parse a single element, with nothing but whitespace after it."""
        root, pos, _tally = self._element(self._expect("<", 0) - 1)
        if self._space(pos) < self._length:
            raise self._error("content after the fragment element", self._space(pos))
        return root


def parse_document(source: str) -> Document:
    """Parse an XML document string into a :class:`Document`.

    >>> doc = parse_document("<a><b>5</b><c>7</c></a>")
    >>> doc.root.child_tags()
    ['b', 'c']
    """
    return XMLParser(source).parse()


def parse_fragment(source: str) -> Element:
    """Parse a single element (no prolog allowed) into an :class:`Element`."""
    return XMLParser(source.strip()).parse_fragment()
