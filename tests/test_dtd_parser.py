"""Unit tests for the from-scratch DTD parser."""

import pytest

from repro.dtd import content_model as cm
from repro.dtd.parser import parse_content_model, parse_dtd
from repro.errors import DTDSyntaxError


class TestContentModelSyntax:
    @pytest.mark.parametrize(
        "source, expected",
        [
            ("EMPTY", "EMPTY"),
            ("ANY", "ANY"),
            ("(#PCDATA)", "#PCDATA"),
            ("(b)", "b"),
            ("(b, c)", ("AND", ["b", "c"])),
            ("(b | c)", ("OR", ["b", "c"])),
            ("(b, c, d)", ("AND", ["b", "c", "d"])),
            ("(b?)", ("?", ["b"])),
            ("(b*)", ("*", ["b"])),
            ("(b+)", ("+", ["b"])),
            ("(b, c)*", ("*", [("AND", ["b", "c"])])),
            ("((b | c)+, d)", ("AND", [("+", [("OR", ["b", "c"])]), "d"])),
            ("((b, c)*, (d | e))", ("AND", [("*", [("AND", ["b", "c"])]), ("OR", ["d", "e"])])),
        ],
    )
    def test_parses(self, source, expected):
        assert parse_content_model(source).to_tuple() == expected

    def test_mixed_content(self):
        model = parse_content_model("(#PCDATA | a | b)*")
        assert cm.is_mixed_model(model)
        assert cm.declared_labels(model) == frozenset({"a", "b"})

    def test_pcdata_star_degenerates(self):
        assert parse_content_model("(#PCDATA)*") == cm.pcdata()

    def test_whitespace_tolerance(self):
        assert parse_content_model("( b ,\n c )").to_tuple() == ("AND", ["b", "c"])

    @pytest.mark.parametrize(
        "source, message",
        [
            ("(b, c | d)", "cannot mix"),
            ("(b,, c)", "expected a name"),
            ("(b", "expected"),
            ("b", "expected '\\('"),
            ("(#PCDATA | a)", "expected '\\*'"),
            ("(%ent;)", "parameter-entity"),
            ("(b) trailing", "trailing characters"),
        ],
    )
    def test_syntax_errors(self, source, message):
        with pytest.raises(DTDSyntaxError, match=message):
            parse_content_model(source)

    @pytest.mark.parametrize(
        "source",
        [
            "(a | ANY)",
            "(a, EMPTY)",
            "(ANY)*",
            "(a, (b | AND))",
            "(OR)",
            "(#PCDATA | a | EMPTY)*",
        ],
    )
    def test_reserved_names_are_not_particles(self, source):
        """``ANY``/``EMPTY`` are whole content specs, never particles,
        and ``AND``/``OR`` are operator labels of the model tree."""
        with pytest.raises(DTDSyntaxError, match="cannot name a content particle"):
            parse_content_model(source)

    def test_names_that_merely_start_like_reserved_ones_parse(self):
        assert parse_content_model("(ANYTHING, (EMPTYish | ORDER))").to_tuple() == (
            "AND",
            ["ANYTHING", ("OR", ["EMPTYish", "ORDER"])],
        )


class TestDTDParsing:
    def test_figure2_dtd(self):
        dtd = parse_dtd(
            """
            <!ELEMENT a (b, c)>
            <!ELEMENT b (#PCDATA)>
            <!ELEMENT c (d)>
            <!ELEMENT d (#PCDATA)>
            """
        )
        assert dtd.element_names() == ["a", "b", "c", "d"]
        assert dtd.root == "a"
        assert dtd["a"].content.to_tuple() == ("AND", ["b", "c"])

    def test_comments_and_pis_are_skipped(self):
        dtd = parse_dtd("<!-- x --><?pi data?><!ELEMENT a (#PCDATA)>")
        assert "a" in dtd

    def test_entity_and_notation_are_skipped(self):
        dtd = parse_dtd(
            """
            <!ENTITY copy "&#169;">
            <!NOTATION gif SYSTEM "image/gif">
            <!ELEMENT a (#PCDATA)>
            """
        )
        assert dtd.element_names() == ["a"]

    def test_attlist_is_captured(self):
        dtd = parse_dtd(
            """
            <!ELEMENT a (#PCDATA)>
            <!ATTLIST a
              id ID #REQUIRED
              lang CDATA "en"
              kind (big | small) #IMPLIED
            >
            """
        )
        attrs = {attr.name: attr for attr in dtd.attlists["a"]}
        assert attrs["id"].type_spec == "ID"
        assert attrs["id"].default_spec == "#REQUIRED"
        assert attrs["lang"].default_spec == '"en"'
        assert attrs["kind"].type_spec == "(big | small)"

    def test_fixed_default(self):
        dtd = parse_dtd(
            "<!ELEMENT a (#PCDATA)><!ATTLIST a v CDATA #FIXED 'x'>"
        )
        assert dtd.attlists["a"][0].default_spec == '#FIXED "x"'

    def test_explicit_root_override(self):
        dtd = parse_dtd(
            "<!ELEMENT a (b)><!ELEMENT b (#PCDATA)>", root="b"
        )
        assert dtd.root == "b"

    def test_duplicate_element_rejected(self):
        with pytest.raises(Exception, match="duplicate"):
            parse_dtd("<!ELEMENT a (#PCDATA)><!ELEMENT a (#PCDATA)>")

    def test_garbage_rejected(self):
        with pytest.raises(DTDSyntaxError, match="expected a declaration"):
            parse_dtd("<!ELEMENT a (#PCDATA)> bogus")

    def test_errors_carry_location(self):
        with pytest.raises(DTDSyntaxError) as info:
            parse_dtd("<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (,)>")
        assert info.value.line == 2

    def test_a_reserved_particle_is_located_at_its_name(self):
        with pytest.raises(DTDSyntaxError) as info:
            parse_dtd("<!ELEMENT a (#PCDATA)>\n<!ELEMENT x (a | ANY)>")
        assert (info.value.line, info.value.column) == (2, 18)
