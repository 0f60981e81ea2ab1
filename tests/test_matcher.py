"""Unit tests for the structural matcher (document vs content model)."""

import pytest

from repro.dtd.parser import parse_dtd
from repro.similarity.matcher import StructureMatcher, subtree_weight
from repro.similarity.tags import ThesaurusTagMatcher
from repro.similarity.triple import SimilarityConfig
from repro.xmltree.parser import parse_document


def _matcher(dtd_source, **config_kwargs):
    return StructureMatcher(parse_dtd(dtd_source), SimilarityConfig(**config_kwargs))


def _doc_similarity(dtd_source, xml):
    return _matcher(dtd_source).document_similarity(parse_document(xml).root)


_SIMPLE = """
<!ELEMENT r (x, y?, z*)>
<!ELEMENT x (#PCDATA)>
<!ELEMENT y (#PCDATA)>
<!ELEMENT z (#PCDATA)>
"""


class TestValidDocumentsScoreOne:
    @pytest.mark.parametrize(
        "xml",
        [
            "<r><x>1</x></r>",
            "<r><x>1</x><y>2</y></r>",
            "<r><x>1</x><z>3</z><z>4</z></r>",
            "<r><x>1</x><y>2</y><z>3</z></r>",
        ],
    )
    def test_valid_is_full(self, xml):
        assert _doc_similarity(_SIMPLE, xml) == 1.0

    def test_or_both_branches(self):
        dtd = "<!ELEMENT r (a | b)><!ELEMENT a (#PCDATA)><!ELEMENT b (#PCDATA)>"
        assert _doc_similarity(dtd, "<r><a>1</a></r>") == 1.0
        assert _doc_similarity(dtd, "<r><b>1</b></r>") == 1.0

    def test_empty_and_any(self):
        dtd = "<!ELEMENT r (a, b)><!ELEMENT a EMPTY><!ELEMENT b ANY>"
        assert _doc_similarity(dtd, "<r><a/><b>anything<c/></b></r>") == 1.0


class TestDeviationsLowerSimilarity:
    def test_missing_required_child(self):
        assert _doc_similarity(_SIMPLE, "<r></r>") < 1.0

    def test_extra_child(self):
        full = _doc_similarity(_SIMPLE, "<r><x>1</x></r>")
        extra = _doc_similarity(_SIMPLE, "<r><x>1</x><w>9</w></r>")
        assert extra < full

    def test_bigger_extra_subtree_hurts_more(self):
        small = _doc_similarity(_SIMPLE, "<r><x>1</x><w>9</w></r>")
        big = _doc_similarity(
            _SIMPLE, "<r><x>1</x><w><deep><deeper>9</deeper></deep></w></r>"
        )
        assert big < small

    def test_order_violation(self):
        dtd = "<!ELEMENT r (a, b)><!ELEMENT a (#PCDATA)><!ELEMENT b (#PCDATA)>"
        ok = _doc_similarity(dtd, "<r><a>1</a><b>2</b></r>")
        swapped = _doc_similarity(dtd, "<r><b>2</b><a>1</a></r>")
        assert ok == 1.0
        assert swapped < 1.0

    def test_similarity_strictly_positive_on_partial_match(self):
        value = _doc_similarity(_SIMPLE, "<r><x>1</x><w>9</w></r>")
        assert 0.0 < value < 1.0

    def test_totally_foreign_document(self):
        value = _doc_similarity(_SIMPLE, "<q><w>9</w></q>")
        assert value < 0.35


class TestLocalVersusGlobal:
    def test_example1_local_full_global_not(self, fig2_dtd, fig2_doc):
        matcher = StructureMatcher(fig2_dtd)
        root = fig2_doc.root
        assert matcher.local_similarity(root) == 1.0
        assert matcher.global_similarity(root) < 1.0

    def test_local_sees_direct_children_only(self, fig2_dtd):
        # c contains data instead of d: local of a is still full
        doc = parse_document("<a><b>5</b><c>7</c></a>")
        matcher = StructureMatcher(fig2_dtd)
        c_element = doc.root.find("c")
        assert matcher.local_similarity(c_element) < 1.0

    def test_global_of_valid_subtree_is_full(self, fig2_dtd):
        doc = parse_document("<a><b>5</b><c><d>7</d></c></a>")
        matcher = StructureMatcher(fig2_dtd)
        assert matcher.global_similarity(doc.root) == 1.0


class TestRepetitionModels:
    DTD = """
    <!ELEMENT r ((x, y)*, (u | v))>
    <!ELEMENT x (#PCDATA)>
    <!ELEMENT y (#PCDATA)>
    <!ELEMENT u (#PCDATA)>
    <!ELEMENT v (#PCDATA)>
    """

    def test_group_repetition_full(self):
        xml = "<r>" + "<x>1</x><y>2</y>" * 3 + "<u>5</u></r>"
        assert _doc_similarity(self.DTD, xml) == 1.0

    def test_partial_group(self):
        assert 0.5 < _doc_similarity(self.DTD, "<r><x>1</x><u>5</u></r>") < 1.0

    def test_both_alternatives_is_not_full(self):
        assert _doc_similarity(self.DTD, "<r><u>1</u><v>2</v></r>") < 1.0

    def test_plus_requires_one(self):
        dtd = "<!ELEMENT r (x+)><!ELEMENT x (#PCDATA)>"
        assert _doc_similarity(dtd, "<r><x>1</x></r>") == 1.0
        assert _doc_similarity(dtd, "<r></r>") < 1.0


class TestRootHandling:
    def test_root_tag_mismatch_penalised_but_content_matched(self):
        renamed = _doc_similarity(_SIMPLE, "<root2><x>1</x></root2>")
        aligned = _doc_similarity(_SIMPLE, "<r><x>1</x></r>")
        assert 0.0 < renamed < aligned

    def test_thesaurus_recovers_renamed_root(self):
        dtd = parse_dtd(_SIMPLE)
        tags = ThesaurusTagMatcher([{"r", "root2"}], synonym_factor=0.9)
        matcher = StructureMatcher(dtd, SimilarityConfig(), tags)
        doc = parse_document("<root2><x>1</x></root2>")
        plain = StructureMatcher(dtd).document_similarity(doc.root)
        assert matcher.document_similarity(doc.root) > plain


class TestWeights:
    def test_subtree_weight_counts_elements_and_text(self):
        doc = parse_document("<a><b>x</b><c><d/></c></a>")
        assert subtree_weight(doc.root) == 5.0  # a, b, 'x', c, d

    def test_alpha_zero_ignores_extras(self):
        lenient = _matcher(_SIMPLE, alpha=0.0)
        doc = parse_document("<r><x>1</x><w>9</w><w2>10</w2></r>")
        assert lenient.document_similarity(doc.root) == 1.0

    def test_cache_reuse_and_clear(self):
        matcher = _matcher(_SIMPLE)
        doc = parse_document("<r><x>1</x></r>")
        first = matcher.document_similarity(doc.root)
        second = matcher.document_similarity(doc.root)  # cached path
        assert first == second
        matcher.clear_cache()
        assert matcher.document_similarity(doc.root) == first


class TestMinimalWeights:
    #: ``a`` requires ``c`` and ``c`` requires ``a``: the cycle guard
    #: truncates each one's minimal instance inside the other's
    _RECURSIVE = "<!ELEMENT a (d, c)><!ELEMENT c (a)><!ELEMENT d EMPTY>"

    @pytest.mark.parametrize("order", [("a", "c"), ("c", "a")])
    def test_recursive_dtd_weights_do_not_depend_on_ask_order(self, order):
        matcher = _matcher(self._RECURSIVE)
        triples = {
            tag: matcher.triple_against(parse_document(f"<{tag}/>").root, tag)
            for tag in order
        }
        # a missing (d, c) owes d (1) plus c's instance c(a(d, c)) with
        # the inner c cut off (4); a missing (a) owes a(d, c(a)) (4)
        assert triples["a"].minus == 5.0
        assert triples["c"].minus == 4.0
        assert (matcher._min_weight("a"), matcher._min_weight("c")) == (4.0, 4.0)

    def test_weight_inside_a_recursion_sees_only_reachable_open_tags(self):
        matcher = _matcher(self._RECURSIVE + "<!ELEMENT r (a)>")
        # r is open but no instance of d or a reaches it
        assert matcher._min_weight("a", frozenset({"r"})) == matcher._min_weight("a")
        # a(d, c) with c already open counts c as 1
        assert matcher._min_weight("a", frozenset({"c"})) == 3.0
