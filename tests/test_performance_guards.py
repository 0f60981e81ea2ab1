"""Performance guard tests: generous soft bounds that catch accidental
complexity blow-ups (quadratic parser loops, exponential DPs) without
being flaky on slow machines."""

import time

import pytest

from repro.core.extended_dtd import ExtendedDTD
from repro.core.evolution import EvolutionConfig, evolve_dtd
from repro.core.recorder import Recorder
from repro.dtd.automaton import ContentAutomaton
from repro.dtd.parser import parse_content_model, parse_dtd
from repro.similarity.evaluation import evaluate_document
from repro.similarity.matcher import StructureMatcher
from repro.xmltree.parser import parse_document


def _timed(fn, budget_seconds):
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"{elapsed:.2f}s exceeded {budget_seconds}s"
    return result


class TestParserScaling:
    def test_wide_document(self):
        xml = "<r>" + "<x>v</x>" * 5000 + "</r>"
        document = _timed(lambda: parse_document(xml), 2.0)
        assert len(document.root.element_children()) == 5000

    def test_deep_document(self):
        depth = 400
        xml = "<a>" * depth + "</a>" * depth
        document = _timed(lambda: parse_document(xml), 2.0)
        assert document.root.tag == "a"

    def test_long_text_with_entities(self):
        xml = "<r>" + "x&amp;" * 20000 + "</r>"
        document = _timed(lambda: parse_document(xml), 2.0)
        assert len(document.root.text()) == 40000


class TestAutomatonScaling:
    def test_long_word_acceptance(self):
        automaton = ContentAutomaton(parse_content_model("((a, b)*, c?)"))
        word = ["a", "b"] * 10000
        assert _timed(lambda: automaton.accepts(word), 2.0)

    def test_edit_alignment_on_long_input(self):
        automaton = ContentAutomaton(parse_content_model("((a | b)*)"))
        tags = ["a", "b", "z"] * 60  # 180 children, 60 deletions needed
        cost, _script = _timed(lambda: automaton.edit_alignment(tags), 5.0)
        assert cost == 60.0


class TestSimilarityScaling:
    def test_many_children_against_star_model(self):
        dtd = parse_dtd("<!ELEMENT r ((x | y)*)><!ELEMENT x (#PCDATA)><!ELEMENT y (#PCDATA)>")
        xml = "<r>" + "<x>1</x><y>2</y>" * 120 + "</r>"
        document = parse_document(xml)
        evaluation = _timed(lambda: evaluate_document(document, dtd), 5.0)
        assert evaluation.similarity == 1.0

    @pytest.mark.parametrize("model", ["(x)*", "(#PCDATA | x)*"])
    def test_wide_flat_element_against_capped_repetition(self, model):
        """A repetition body is offered segments of at most its cap, so
        20,000 children cost O(n·cap) body cells, not O(n²)."""
        dtd = parse_dtd(f"<!ELEMENT r {model}><!ELEMENT x (#PCDATA)>")
        document = parse_document("<r>" + "<x>1</x>" * 20000 + "</r>")
        evaluation = _timed(lambda: evaluate_document(document, dtd), 20.0)
        assert evaluation.similarity == 1.0

    def test_required_dag_weights_are_shared(self):
        """``t0`` requires two ``t1``, each two ``t2``, ...: the minimal
        instance has 2^23 - 1 elements, but each tag's weight is found
        once, not once per path."""
        depth = 22
        dtd = parse_dtd(
            "".join(f"<!ELEMENT t{i} (t{i + 1}, t{i + 1})>" for i in range(depth))
            + f"<!ELEMENT t{depth} EMPTY>"
        )
        matcher = StructureMatcher(dtd)
        assert _timed(lambda: matcher._min_weight("t0"), 1.0) == 2.0 ** (depth + 1) - 1

    def test_moderate_sequence_model(self):
        dtd = parse_dtd(
            "<!ELEMENT r (a?, b?, c?, d?, e?, f?)>"
            + "".join(f"<!ELEMENT {t} (#PCDATA)>" for t in "abcdef")
        )
        xml = "<r>" + "".join(f"<{t}>1</{t}>" for t in "abcdef") + "</r>"
        document = parse_document(xml)
        evaluation = _timed(lambda: evaluate_document(document, dtd), 2.0)
        assert evaluation.similarity == 1.0


class TestEvolutionScaling:
    def test_many_labels_rebuild(self):
        """30 distinct labels across instances: mining + cascade must not
        blow up combinatorially."""
        dtd = parse_dtd("<!ELEMENT r (x)><!ELEMENT x (#PCDATA)>")
        extended = ExtendedDTD(dtd)
        recorder = Recorder(extended)
        for index in range(30):
            tags = "".join(f"<t{j}>v</t{j}>" for j in range(index % 10, index % 10 + 12))
            recorder.record(parse_document(f"<r>{tags}</r>"))
        _timed(lambda: evolve_dtd(extended, EvolutionConfig(psi=0.2)), 10.0)
