"""Recording from the census against recording from the span DP.

The recorder decides each declared element's *local* validity from its
census (child tags and text count, through the validator's automaton
and the DP's own rules), and skips the check altogether for a document
tier 1 proved valid.  The reference path records from
``evaluate_document``.  Every test here asserts that the two leave the
extended DTD in exactly the same state: every counter, the valid and
plus-label stats, sequences, groups, plus records, ordered samples and
a bit-identical ``sum_invalid_fraction``.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.classification.classifier import Classifier
from repro.core.engine import XMLSource
from repro.core.evolution import EvolutionConfig
from repro.core.extended_dtd import ExtendedDTD
from repro.core.recorder import Recorder
from repro.dtd import content_model as cm
from repro.dtd.dtd import DTD, ElementDecl
from repro.dtd.parser import parse_dtd
from repro.generators.documents import AddDrift, DropDrift, OperatorDrift
from repro.generators.scenarios import (
    auction_scenario,
    bibliography_scenario,
    catalog_scenario,
    figure3_dtd,
    figure3_workload,
    newsfeed_scenario,
)
from repro.perf import FastPathConfig
from repro.similarity.evaluation import evaluate_document
from repro.similarity.matcher import StructureMatcher
from repro.similarity.triple import SimilarityConfig
from repro.xmltree.document import Document, Element, Text
from repro.xmltree.parser import parse_document
from repro.xmltree.serializer import serialize_document
from tests.test_fastpath import _recorded_state as _state, _triples


def _reference_recorder(dtd: DTD) -> Recorder:
    matcher = StructureMatcher(dtd, fastpath=FastPathConfig.disabled())
    recorder = Recorder(ExtendedDTD(dtd), matcher=matcher)
    assert not recorder.reads_census
    return recorder


def _assert_same_recording(dtd: DTD, documents) -> None:
    """Census, census told of tier 1's proofs, and the DP reference
    leave identical states after recording ``documents``."""
    census = Recorder(ExtendedDTD(dtd))
    assert census.reads_census
    proven = Recorder(ExtendedDTD(dtd))
    reference = _reference_recorder(dtd)
    classifier = Classifier([dtd], threshold=0.0)
    for document in documents:
        assert census.record(document) is None
        result = classifier.classify(document)
        proven.record(document, proven_valid=result.proven_valid)
        reference.record(document)
    expected = _state(reference.extended)
    assert _state(census.extended) == expected
    assert _state(proven.extended) == expected


def _drifted(documents, seed):
    drifted = []
    for drift in (
        AddDrift(0.3, seed=seed),
        DropDrift(0.3, seed=seed),
        OperatorDrift(0.3, seed=seed),
    ):
        drifted += drift.apply_many(documents)
    return drifted


def _reparsed(documents):
    # parsed from markup, compact and pretty-printed (whitespace text)
    return [
        parse_document(serialize_document(document, indent=indent))
        for document in documents
        for indent in ("", "  ")
    ]


# ----------------------------------------------------------------------
# Scenario workloads
# ----------------------------------------------------------------------


class TestScenarios:
    def test_the_four_scenarios_with_add_drop_operator_eras(self):
        for index, scenario in enumerate(
            (catalog_scenario, bibliography_scenario, newsfeed_scenario, auction_scenario)
        ):
            dtd, make = scenario()
            clean = make(6, seed=index)
            _assert_same_recording(dtd, _reparsed(clean + _drifted(clean, index)))

    def test_figure3_drift(self):
        documents = figure3_workload(10, 10, seed=5)
        _assert_same_recording(figure3_dtd(), _reparsed(documents))
        _assert_same_recording(figure3_dtd(), _drifted(documents, 5))

    def test_engine_fast_and_reference_paths_record_alike(self):
        """Through the pipeline — tier-1 proofs handed to the recorder,
        a mid-run evolution and drains — against the fast-paths-off
        reference."""
        dtds = [figure3_dtd()]
        documents = list(figure3_workload(12, 12, seed=9))
        for index, scenario in enumerate((catalog_scenario, auction_scenario)):
            dtd, make = scenario()
            dtds.append(dtd)
            clean = make(5, seed=index)
            documents += clean + _drifted(clean, index)
        config = EvolutionConfig(sigma=0.5, tau=0.1, min_documents=8)
        fast = XMLSource(dtds, config)
        slow = XMLSource(dtds, config, fastpath=FastPathConfig.disabled())
        fast_outcomes = fast.process_many(_reparsed(documents))
        slow_outcomes = slow.process_many(_reparsed(documents))
        assert [o.dtd_name for o in fast_outcomes] == [o.dtd_name for o in slow_outcomes]
        assert fast.evolution_count == slow.evolution_count >= 1
        assert fast.perf_snapshot()["validity_short_circuits"] > 0
        for name in fast.dtd_names():
            assert _state(fast.extended[name]) == _state(slow.extended[name])


# ----------------------------------------------------------------------
# Hand-written edge cases
# ----------------------------------------------------------------------


EDGE_DTD = """
<!ELEMENT r (e?, p*, m?, a?, s?, n?)>
<!ELEMENT e EMPTY>
<!ELEMENT p (#PCDATA)>
<!ELEMENT m (#PCDATA | b)*>
<!ELEMENT a ANY>
<!ELEMENT s (b, c)>
<!ELEMENT b (#PCDATA)>
<!ELEMENT c (#PCDATA)>
"""


def _edge_dtd() -> DTD:
    dtd = parse_dtd(EDGE_DTD, name="edge")
    # ANY nested in a model is not DTD syntax (the parser rejects it),
    # so this declaration is built in code
    dtd.add(ElementDecl("n", cm.choice("b", cm.any_content())))
    return dtd


class TestEdgeCases:
    def _check(self, *documents):
        _assert_same_recording(_edge_dtd(), list(documents))

    def test_empty_with_whitespace_text_is_full(self):
        document = parse_document("<r><e>  \n </e></r>")
        self._check(document)
        extended = ExtendedDTD(_edge_dtd())
        Recorder(extended).record(document)
        # the DP never sees whitespace, unlike the boolean validator
        assert extended.records["e"].valid_count == 1

    def test_empty_with_a_comment_or_text(self):
        self._check(
            parse_document("<r><e><!-- note --></e></r>"),
            parse_document("<r><e>text</e></r>"),
            parse_document("<r><e><b/></e></r>"),
        )

    def test_pcdata_split_into_two_runs(self):
        split = Element("p", children=[Text("one"), Text("two")])
        self._check(
            Document(Element("r", children=[split])),
            parse_document("<r><p>one<!-- c -->two</p></r>"),
            parse_document("<r><p>one<b/></p></r>"),
        )

    def test_mixed_content_with_a_foreign_child(self):
        self._check(
            parse_document("<r><m>t<b>x</b>u</m></r>"),
            parse_document("<r><m>t<b>x</b><z>y</z></m></r>"),
            parse_document("<r><m><c>y</c></m></r>"),
        )

    def test_any_accepts_everything(self):
        self._check(
            parse_document("<r><a>t<z><q/></z><b>x</b></a></r>"),
            parse_document("<r><a/></r>"),
        )

    def test_any_nested_in_a_model(self):
        self._check(
            parse_document("<r><n><b>x</b></n></r>"),
            parse_document("<r><n><c>y</c><z/>text</n></r>"),
            parse_document("<r><n/></r>"),
        )

    def test_text_in_an_element_only_model(self):
        self._check(
            parse_document("<r><s>t<b>x</b><c>y</c></s></r>"),
            parse_document("<r><s><b>x</b><c>y</c></s></r>"),
            parse_document("<r><s> <b>x</b> <c>y</c> </s></r>"),
        )

    def test_an_undeclared_root(self):
        document = parse_document("<zz><r><p>x</p></r></zz>")
        self._check(document, parse_document("<zz/>"))
        extended = ExtendedDTD(_edge_dtd())
        Recorder(extended).record(document)
        # the undeclared root is one non-valid element of three
        assert extended.sum_invalid_fraction == 1 / 3
        assert extended.valid_document_count == 0
        assert "zz" not in extended.records

    def test_undeclared_elements_under_declared_ones(self):
        self._check(
            parse_document("<r><q><q2><q3>x</q3></q2><q2/></q><u>y</u><p>z</p></r>"),
            parse_document("<r><s><b>x</b><k><k2/></k><c>y</c></s></r>"),
        )

    def test_pcdata_outside_the_mixed_forms(self):
        """A content model built in code may put ``#PCDATA`` in a
        sequence; the automaton cannot decide it, the DP does.  Tier 1
        proves nothing there, so a recorder told of its proofs records
        what the DP does."""
        _assert_same_recording(_odd_dtd(), _odd_documents())

    def test_pcdata_outside_the_mixed_forms_classifies_alike(self):
        """The boolean validator admits text anywhere in such a model;
        tier 1 does not take its word, so ``<r>t<b/><c/></r>`` scores
        below 1.0 with the fast paths on, as it does with them off."""
        dtd = _odd_dtd()
        fast = Classifier([dtd], threshold=0.0)
        slow = Classifier([dtd], threshold=0.0, fastpath=FastPathConfig.disabled())
        for document in _odd_documents():
            expected = slow.classify(document)
            result = fast.classify(document)
            assert repr(result.similarity) == repr(expected.similarity)
            # the automaton cannot decide this model: the DP scores it
            assert not result.proven_valid
        shifted = fast.classify(parse_document("<r>t<b/><c/></r>"))
        assert shifted.similarity < 1.0


def _odd_dtd() -> DTD:
    return DTD(
        [
            ElementDecl("r", cm.seq("b", cm.pcdata(), "c")),
            ElementDecl("b", cm.pcdata()),
            ElementDecl("c", cm.pcdata()),
        ],
        name="odd",
    )


def _odd_documents():
    return [
        parse_document("<r><b>x</b>t<c>y</c></r>"),
        parse_document("<r>t<b>x</b><c>y</c></r>"),
        parse_document("<r><b>x</b><c>y</c></r>"),
        parse_document("<r>t<b/><c/></r>"),
    ]


class TestSwappedDTD:
    def test_both_paths_follow_a_swapped_dtd(self):
        """A recorder outlives evolutions that swap its extended DTD's
        DTD object; census and reference path both record against the
        current one."""
        old = parse_dtd("<!ELEMENT a (b)>\n<!ELEMENT b (#PCDATA)>")
        new = parse_dtd(
            "<!ELEMENT a (b, c?)>\n<!ELEMENT b (#PCDATA)>\n<!ELEMENT c (#PCDATA)>"
        )
        document = parse_document("<a><b>x</b><c>y</c></a>")
        census = Recorder(ExtendedDTD(old))
        reference = _reference_recorder(old)
        for recorder in (census, reference):
            recorder.extended.dtd = new
            recorder.record(document)
        fresh = _reference_recorder(new)
        fresh.record(document)
        expected = _state(fresh.extended)
        assert expected[1] == 1  # valid against the new DTD
        assert _state(census.extended) == expected
        assert _state(reference.extended) == expected


# ----------------------------------------------------------------------
# Generated trees
# ----------------------------------------------------------------------


GENERATED_DTD = """
<!ELEMENT r (a | b)+>
<!ELEMENT a (b, c?, d*)>
<!ELEMENT b (#PCDATA | c)*>
<!ELEMENT c EMPTY>
<!ELEMENT d ANY>
<!ELEMENT e (a, (b | c)+)?>
"""

_TAGS = ("r", "a", "b", "c", "d", "e", "u")
_TEXTS = ("x", " ", "\n  ", "y z")


def _trees(max_leaves: int = 12):
    leaf = st.one_of(
        st.sampled_from(_TEXTS).map(Text),
        st.sampled_from(_TAGS).map(Element),
    )

    def extend(children):
        return st.builds(
            lambda tag, items: Element(tag, children=items),
            st.sampled_from(_TAGS),
            st.lists(children, max_size=4),
        )

    return st.recursive(leaf, extend, max_leaves=max_leaves).filter(
        lambda node: isinstance(node, Element)
    )


@given(st.lists(_trees(), min_size=1, max_size=3))
def test_generated_trees_record_alike(roots):
    dtd = parse_dtd(GENERATED_DTD, name="generated")
    documents = [Document(root) for root in roots]
    # also through the parser, so parse-time censuses are read too
    documents += [parse_document(serialize_document(d)) for d in documents]
    _assert_same_recording(dtd, documents)


# ----------------------------------------------------------------------
# The lazy evaluation
# ----------------------------------------------------------------------


class TestLazyEvaluation:
    def test_equals_the_eager_evaluation(self):
        for scenario in (catalog_scenario, bibliography_scenario):
            dtd, make = scenario()
            clean = make(3, seed=2)
            classifier = Classifier([dtd], threshold=0.3)
            for document in clean + _drifted(clean, 2):
                result = classifier.classify(document)
                if result.dtd_name is None:
                    assert result.evaluation is None
                    continue
                eager = evaluate_document(document, dtd, SimilarityConfig())
                assert _triples(result.evaluation) == _triples(eager)
                assert result.evaluation.triple == eager.triple

    def test_holds_the_dtd_of_classification_time(self):
        dtd = parse_dtd(
            "<!ELEMENT r (x, y?)>\n<!ELEMENT x (#PCDATA)>\n<!ELEMENT y (#PCDATA)>",
            name="simple",
        )
        classifier = Classifier([dtd], threshold=0.1)
        document = parse_document("<r><x>1</x><w>stray</w></r>")
        result = classifier.classify(document)
        evolved = parse_dtd(
            "<!ELEMENT r (x, w)>\n<!ELEMENT x (#PCDATA)>\n<!ELEMENT w (#PCDATA)>",
            name="simple",
        )
        classifier.replace_dtd(evolved)
        assert classifier.classify(document).evaluation.is_valid
        eager = evaluate_document(document, dtd, SimilarityConfig())
        assert result.evaluation.dtd is dtd
        assert _triples(result.evaluation) == _triples(eager)
        assert not result.evaluation.is_valid

    def test_proven_valid_follows_tier_one(self, simple_dtd, valid_simple_doc):
        assert Classifier([simple_dtd], threshold=0.5).classify(
            valid_simple_doc
        ).proven_valid
        reference = Classifier(
            [simple_dtd], threshold=0.5, fastpath=FastPathConfig.disabled()
        )
        assert not reference.classify(valid_simple_doc).proven_valid
