"""The per-element census the parser builds (``StructureInfo``).

The parser computes every element's census when its close tag is seen;
hand-built, copied and unpickled trees compute it lazily.  These tests
pin that both routes agree, that the census answers what the consumers
used to re-derive from child lists, that it never travels in a pickle,
and that neither route (nor validation) is bounded by the recursion
limit.
"""

import copyreg
import io
import pickle
from collections import Counter

import pytest

from repro.classification.stores import profile_document
from repro.errors import XMLSyntaxError
from repro.core.extended_dtd import ExtendedDTD
from repro.core.recorder import Recorder
from repro.dtd.automaton import Validator
from repro.dtd.parser import parse_dtd
from repro.generators.documents import AddDrift, DropDrift, OperatorDrift
from repro.generators.scenarios import (
    auction_scenario,
    bibliography_scenario,
    catalog_scenario,
    figure3_workload,
    newsfeed_scenario,
)
from repro.similarity.matcher import subtree_weight
from repro.xmltree import document as document_module
from repro.xmltree.document import Element, Text
from repro.xmltree.parser import parse_document
from repro.xmltree.serializer import serialize_document

DEPTH = 10_000


def _scenario_documents():
    documents = list(figure3_workload(8, 8, seed=3))
    for index, scenario in enumerate(
        (catalog_scenario, bibliography_scenario, newsfeed_scenario, auction_scenario)
    ):
        _dtd, make = scenario()
        clean = make(6, seed=index)
        documents += clean
        for drift in (
            AddDrift(0.3, seed=index),
            DropDrift(0.3, seed=index),
            OperatorDrift(0.3, seed=index),
        ):
            documents += drift.apply_many(clean)
    # parsed from markup, pretty-printed so whitespace-only text occurs
    return [
        parse_document(serialize_document(document, indent=indent))
        for document in documents
        for indent in ("", "  ")
    ]


DOCUMENTS = _scenario_documents()


def _assert_lazy_census_matches(tree: Element, parsed: Element) -> None:
    """``tree`` carries no census yet; once computed, it equals the
    parser's ``parsed`` census element by element."""
    assert all(element._structure is None for element in tree.iter_elements())
    tree.structure_info()
    for lazy, eager in zip(tree.iter_elements(), parsed.iter_elements()):
        assert eager._structure is not None
        assert lazy._structure == eager._structure


class TestCensusInvariants:
    def test_parse_time_census_equals_the_lazy_one(self):
        for document in DOCUMENTS:
            _assert_lazy_census_matches(document.root.copy(), document.root)

    def test_child_tags_and_text_count_match_the_child_lists(self):
        for document in DOCUMENTS:
            for element in document.root.iter_elements():
                info = element.structure_info()
                assert info.child_tags == tuple(element.child_tags())
                assert bool(info.text_count) == element.has_text()
                assert info.weight == subtree_weight(element)
                assert isinstance(info.weight, float)

    def test_leaves_of_one_shape_share_their_census(self, monkeypatch):
        # an empty table: other tests' leaf shapes cannot fill it up and
        # make it clear itself between the two parses
        monkeypatch.setattr(document_module, "_LEAF_CENSUSES", {})
        first = parse_document("<a><b>x</b><c/></a>").root.find("b")
        second = parse_document("<d><b>y</b></d>").root.find("b")
        assert first.structure_info() is second.structure_info()
        assert first.structure_info().child_tags is ()

    def test_invalidation_after_an_in_place_edit(self):
        document = parse_document("<a><b>x</b><c><d/></c></a>")
        document.root.find("c").children.append(Element("e", children=[Text("y")]))
        document.root.invalidate_structure_info()
        assert document.root.structure_info() == parse_document(
            "<a><b>x</b><c><d/><e>y</e></c></a>"
        ).root.structure_info()


class _SlotStatePickler(pickle.Pickler):
    """Pickles elements as the default slot-state reduction did before
    parsed documents carried a census: the class, then every slot, with
    ``_structure`` still ``None`` (it used to be computed only after
    the document had been pickled for a worker process)."""

    def reducer_override(self, obj):
        if type(obj) is Element:
            state = {
                "tag": obj.tag,
                "attributes": obj.attributes,
                "children": obj.children,
                "_structure": None,
            }
            return copyreg.__newobj__, (Element,), (None, state)
        if type(obj) is Text:
            return copyreg.__newobj__, (Text,), (None, {"value": obj.value})
        return NotImplemented


def _slot_state_size(document) -> int:
    buffer = io.BytesIO()
    _SlotStatePickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(document)
    return len(buffer.getvalue())


class TestPickling:
    def test_the_census_does_not_travel(self):
        for document in DOCUMENTS[:40]:
            clone = pickle.loads(pickle.dumps(document, pickle.HIGHEST_PROTOCOL))
            assert clone == document
            _assert_lazy_census_matches(clone.root, document.root)

    def test_the_tag_tally_does_not_travel(self):
        for document in DOCUMENTS[:40]:
            assert document.tag_counts() is not None
            clone = pickle.loads(pickle.dumps(document, pickle.HIGHEST_PROTOCOL))
            assert clone.tag_counts() is None
            assert document.copy().tag_counts() is None
            # the unpickled document is walked; the parsed one reads its tally
            assert profile_document(clone) == profile_document(document)

    def test_a_pickled_document_is_no_larger_than_before(self):
        for document in DOCUMENTS:
            size = len(pickle.dumps(document, pickle.HIGHEST_PROTOCOL))
            assert size <= _slot_state_size(document)


def _deep_markup(depth: int) -> str:
    return "<d>" * depth + "x" + "</d>" * depth


def _deep_tree(depth: int) -> Element:
    """The same chain built by hand, innermost first (no recursion)."""
    element = Element("d", children=[Text("x")])
    for _ in range(depth - 1):
        element = Element("d", children=[element])
    return element


class TestDeepDocuments:
    def test_a_deep_document_parses(self):
        document = parse_document(_deep_markup(DEPTH))
        info = document.root.structure_info()
        assert info.height == DEPTH - 1
        assert info.size == DEPTH + 1
        assert info.child_tags == ("d",)
        assert info.text_count == 0

    def test_the_deep_census_matches_the_lazy_one(self):
        parsed = parse_document(_deep_markup(DEPTH)).root.structure_info()
        built = _deep_tree(DEPTH)
        assert built.structure_info() == parsed
        built.invalidate_structure_info()
        assert built._structure is None
        assert built.structure_info() == parsed

    def test_a_deep_document_validates(self):
        dtd = parse_dtd("<!ELEMENT d (#PCDATA | d)*>", name="deep")
        assert Validator(dtd).is_valid(parse_document(_deep_markup(DEPTH)))
        other = parse_dtd("<!ELEMENT d (#PCDATA)>", name="flat")
        assert not Validator(other).is_valid(parse_document(_deep_markup(DEPTH)))

    def test_a_deep_chain_of_undeclared_tags_records(self):
        """Plus recording follows an undeclared chain under a declared
        root over an explicit stack."""
        dtd = parse_dtd("<!ELEMENT r (b)>\n<!ELEMENT b (#PCDATA)>")
        markup = "<r>" + "<u>" * DEPTH + "x" + "</u>" * DEPTH + "</r>"
        extended = ExtendedDTD(dtd)
        Recorder(extended).record(parse_document(markup))
        record = extended.records["r"]
        assert record.invalid_count == 1
        depth = 0
        while "u" in record.plus_records:
            record = record.plus_records["u"]
            assert record.invalid_count == 1
            depth += 1
        assert depth == DEPTH
        assert record.text_count == 1
        assert extended.sum_invalid_fraction == 1.0  # r is non-valid too

    def test_unclosed_deep_document_is_a_syntax_error(self):
        with pytest.raises(XMLSyntaxError, match="unexpected end of input inside <d>"):
            parse_document("<d>" * DEPTH)


class TestTagTally:
    def test_the_tally_counts_every_element(self):
        for document in DOCUMENTS:
            walked = Counter(element.tag for element in document.root.iter_elements())
            assert document.tag_counts() == walked

    def test_the_profile_reads_the_tally_as_the_walk_would(self):
        for document in DOCUMENTS:
            walked = profile_document(document.copy())
            profile = profile_document(document)
            assert profile == walked
            assert profile.text_count == sum(
                element.structure_info().text_count
                for element in document.root.iter_elements()
            )

    def test_a_self_closing_root_and_repeated_tags(self):
        assert parse_document("<a/>").tag_counts() == {"a": 1}
        assert parse_document("<a><b/><b>x</b></a>").tag_counts() == {"a": 1, "b": 2}


class TestRecorderLabels:
    def test_declared_labels_follow_the_dtd_object(self):
        """A recorder outlives evolutions: when its extended DTD is
        swapped, the labels it records valid statistics for follow."""
        extended = ExtendedDTD(parse_dtd("<!ELEMENT a (b)>\n<!ELEMENT b (#PCDATA)>"))
        recorder = Recorder(extended)
        recorder.record(parse_document("<a><b>x</b></a>"))
        assert set(extended.record_for("a").valid_label_stats) == {"b"}
        extended.dtd = parse_dtd(
            "<!ELEMENT a (b, c?)>\n<!ELEMENT b (#PCDATA)>\n<!ELEMENT c (#PCDATA)>"
        )
        extended.records.clear()
        recorder.record(parse_document("<a><b>x</b></a>"))
        assert set(extended.record_for("a").valid_label_stats) == {"b", "c"}

