"""The row-incremental span kernel against the per-span oracle.

:mod:`tests.span_oracle` keeps the structural matcher's DP as it was
before rows: one memo cell per (vertex, ``lo``, ``hi``), recomputed
from scratch, with :class:`EvalTriple` arithmetic.  The kernel in
:mod:`repro.similarity.matcher` must return bit-identical triples —
the same floats, reached by the same operations in the same order, and
the same first-maximum tie-breaks — for every document, every element,
both modes, and every setting the matcher takes.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.core.engine import XMLSource
from repro.core.evolution import EvolutionConfig
from repro.dtd import content_model as cm
from repro.dtd.dtd import DTD, ElementDecl
from repro.dtd.parser import parse_dtd
from repro.dtd.serializer import serialize_dtd
from repro.perf import FastPathConfig
from repro.similarity.matcher import StructureMatcher
from repro.similarity.tags import ThesaurusTagMatcher
from repro.similarity.triple import SimilarityConfig
from repro.xmltree.document import Document, Element, Text
from repro.xmltree.parser import parse_document
from repro.xmltree.tree import Tree
from tests.span_oracle import ReferenceMatcher

#: declared tags; ``e`` stays undeclared
_TAGS = ("a", "b", "c", "d")
_DOC_TAGS = _TAGS + ("e",)


def _bits(triple):
    """A triple down to the bit: its repr, and each value's type and hex."""
    return repr(triple), tuple((type(v).__name__, float(v).hex()) for v in triple)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


def _leaf_models():
    return st.one_of(
        st.sampled_from(_TAGS).map(cm.ref),
        st.sampled_from((cm.PCDATA, cm.ANY, cm.EMPTY)).map(Tree.leaf),
    )


def _compound(inner):
    parts = st.lists(inner, min_size=1, max_size=4)
    return st.one_of(
        parts.map(lambda items: Tree(cm.AND, items)),
        parts.map(lambda items: Tree(cm.OR, items)),
        inner.map(cm.opt),
        inner.map(cm.star),
        inner.map(cm.plus),
        # a sequence as a repetition body, the evolved Figure-3 shape
        st.lists(inner, min_size=2, max_size=3).map(
            lambda items: cm.star(Tree(cm.AND, items))
        ),
        st.lists(inner, min_size=2, max_size=3).map(
            lambda items: cm.plus(Tree(cm.AND, items))
        ),
    )


_models = st.one_of(
    st.recursive(_leaf_models(), _compound, max_leaves=7),
    st.lists(st.sampled_from(_TAGS), min_size=1, max_size=3, unique=True).map(
        lambda names: cm.mixed(*names)
    ),
)


@st.composite
def _dtds(draw):
    declarations = [ElementDecl("r", draw(_models))]
    for tag in draw(st.lists(st.sampled_from(_TAGS), max_size=4, unique=True)):
        declarations.append(ElementDecl(tag, draw(_models)))
    return DTD(declarations, root="r", name="random")


_texts = st.sampled_from(("t", "  ")).map(Text)


def _subtrees():
    base = st.sampled_from(_DOC_TAGS).map(Element)
    return st.recursive(
        base,
        lambda inner: st.builds(
            lambda tag, children: Element(tag, children=children),
            st.sampled_from(_DOC_TAGS),
            st.lists(st.one_of(inner, _texts), max_size=4),
        ),
        max_leaves=10,
    )


@st.composite
def _documents(draw):
    root_tag = draw(st.sampled_from(("r", "r", "a")))
    children = draw(st.lists(st.one_of(_subtrees(), _texts), max_size=8))
    return Document(Element(root_tag, children=children))


def _random_model(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.8:
            return cm.ref(rng.choice(_TAGS))
        return Tree.leaf(rng.choice((cm.PCDATA, cm.EMPTY, cm.ANY)))
    kind = rng.randrange(5)
    if kind == 0:
        return Tree(cm.AND, [_random_model(rng, depth - 1) for _ in range(rng.randint(2, 4))])
    if kind == 1:
        return Tree(cm.OR, [_random_model(rng, depth - 1) for _ in range(rng.randint(2, 3))])
    return (cm.opt, cm.star, cm.plus)[kind - 2](_random_model(rng, depth - 1))


def _random_element(rng, depth):
    children = []
    if depth > 0:
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.8:
                children.append(_random_element(rng, depth - 1))
            else:
                children.append(Text("t"))
    return Element(rng.choice(_DOC_TAGS), children=children)


def _random_case(rng):
    """A random DTD (root ``r``, each other tag declared or not) and a
    random document of up to seven root items, two levels deep."""
    declarations = [ElementDecl("r", _random_model(rng, 3))] + [
        ElementDecl(tag, _random_model(rng, 2)) for tag in _TAGS if rng.random() < 0.6
    ]
    children = [
        _random_element(rng, 2) if rng.random() < 0.85 else Text("t")
        for _ in range(rng.randint(0, 7))
    ]
    return DTD(declarations, root="r", name="random"), Document(Element("r", children=children))


#: (name, similarity config, tag matcher factory, fast paths)
_SETTINGS = (
    ("plain", SimilarityConfig(), lambda: None, FastPathConfig()),
    ("weighted", SimilarityConfig(alpha=0.7, beta=1.3), lambda: None, FastPathConfig()),
    (
        "thesaurus",
        SimilarityConfig(),
        lambda: ThesaurusTagMatcher([{"a", "b"}, {"d", "e"}], 0.8),
        FastPathConfig(),
    ),
    (
        "thesaurus-weighted",
        SimilarityConfig(alpha=0.7, beta=1.3),
        lambda: ThesaurusTagMatcher([{"a", "c"}], 0.6),
        FastPathConfig.disabled(),
    ),
    ("reference-paths", SimilarityConfig(), lambda: None, FastPathConfig.disabled()),
    ("shallow", SimilarityConfig(max_depth=2), lambda: None, FastPathConfig()),
)


def _preorder(root):
    stack = [root]
    while stack:
        element = stack.pop()
        yield element
        stack.extend(reversed(element.element_children()))


def _every_triple(matcher, document):
    """The document triple, then both modes' triple of every element,
    asked in one fixed order (the id cache makes order observable
    beyond the depth guard)."""
    triples = [_bits(matcher.document_triple(document.root))]
    for element in _preorder(document.root):
        for mode in ("local", "global"):
            triples.append((element.tag, mode, _bits(matcher.content_triple(element, mode))))
    return triples


def _assert_kernel_matches_oracle(dtd, document, config, tags, fastpath):
    kernel = StructureMatcher(dtd, config, tag_matcher=tags(), fastpath=fastpath)
    oracle = ReferenceMatcher(dtd, config, tag_matcher=tags(), fastpath=fastpath)
    assert _every_triple(kernel, document) == _every_triple(oracle, document)


# ----------------------------------------------------------------------
# Random models and item lists
# ----------------------------------------------------------------------


class TestDifferential:
    @settings(max_examples=250, deadline=None)
    @given(_dtds(), _documents())
    def test_random_models_and_documents(self, dtd, document):
        for _, config, tags, fastpath in _SETTINGS:
            _assert_kernel_matches_oracle(dtd, document, config, tags, fastpath)

    @settings(max_examples=80, deadline=None)
    @given(_dtds(), st.lists(_documents(), min_size=2, max_size=4))
    def test_one_matcher_across_a_document_stream(self, dtd, documents):
        """Compiled models, the structural cache and the id cache carry
        over from one document to the next exactly as the oracle's do."""
        for _, config, tags, fastpath in _SETTINGS:
            kernel = StructureMatcher(dtd, config, tag_matcher=tags(), fastpath=fastpath)
            oracle = ReferenceMatcher(dtd, config, tag_matcher=tags(), fastpath=fastpath)
            for document in documents:
                assert _every_triple(kernel, document) == _every_triple(oracle, document)
                kernel.clear_cache()
                oracle.clear_cache()

    def test_seeded_random_corpus(self):
        """Larger random models and documents than the shrinking
        strategies reach: deeper trees and wider child lists make
        score ties between different triples, where only the
        first-maximum rule decides (a last-maximum sequence DP fails
        here)."""
        rng = random.Random(20021)
        for case in range(2400):
            _, config, tags, fastpath = _SETTINGS[case % len(_SETTINGS)]
            dtd, document = _random_case(rng)
            _assert_kernel_matches_oracle(dtd, document, config, tags, fastpath)

    def test_sequence_bodies_and_shared_rows(self):
        """Hand-picked shapes: the evolved Figure-3 ``(b, c)*``, a
        sequence under ``+`` under a sequence, wide runs of foreign
        items that push past the segment cap, and one repetition whose
        best alignment needs a segment exactly as long as the cap."""
        dtd = DTD(
            [
                ElementDecl(
                    "r",
                    cm.seq(
                        cm.star(cm.seq("b", "c")),
                        cm.opt(cm.plus(cm.seq("a", cm.choice("b", "d")))),
                        cm.star("c"),
                    ),
                ),
                ElementDecl("a", cm.pcdata()),
                ElementDecl("b", cm.pcdata()),
                ElementDecl("c", cm.seq("a", cm.opt("b"))),
            ],
            root="r",
            name="shapes",
        )
        documents = [
            "<r><b>x</b><c><a>y</a></c><b>x</b><c><a/></c><e/><a>z</a><d/></r>",
            "<r>" + "<e/>" * 12 + "<b/><c/>" + "<a/><b/>" * 5 + "<c><a/><b/></c></r>",
            "<r>t<b/><e>u</e><c/>v<a/><d/><a/><b/><c/><c/></r>",
            # one (b, c) repetition spanning exactly the segment cap
            "<r><b/>" + "<e/>" * 8 + "<c><a/></c></r>",
            "<r/>",
        ]
        for xml in documents:
            for _, config, tags, fastpath in _SETTINGS:
                _assert_kernel_matches_oracle(
                    dtd, parse_document(xml), config, tags, fastpath
                )


# ----------------------------------------------------------------------
# The benchmark workloads' documents
# ----------------------------------------------------------------------


def _workloads():
    """The benchmark's seeded workload generators (``perfbench/``)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module


def _initial_and_evolved(spec):
    """The workload's DTDs as given, and as evolved by its writes."""
    initial = [parse_dtd(entry["text"], name=entry["name"]) for entry in spec["dtds"]]
    source = XMLSource(initial, EvolutionConfig(**spec["config"]))
    source.process_many(parse_document(xml) for xml in spec["writes"])
    assert source.evolution_count >= 1
    texts = {serialize_dtd(dtd) for dtd in initial}
    evolved = [source.dtd(name) for name in source.dtd_names()]
    source.close()
    return initial + [dtd for dtd in evolved if serialize_dtd(dtd) not in texts]


class TestWorkloadCorpus:
    def test_workload_documents_against_initial_and_evolved_dtds(self):
        workloads = _workloads()
        for workload, stride in (("batch_steady", 41), ("serve_mixed", 17), ("batch_drift", 23)):
            spec = workloads.make_spec(workload, 1, 20)
            dtds = _initial_and_evolved(spec)
            corpus = (spec["writes"] + spec["reads"])[::stride]
            for weights in (SimilarityConfig(), SimilarityConfig(alpha=0.7, beta=1.3)):
                for dtd in dtds:
                    kernel = StructureMatcher(dtd, weights)
                    oracle = ReferenceMatcher(dtd, weights)
                    for xml in corpus:
                        document = parse_document(xml)
                        assert _bits(kernel.document_triple(document.root)) == _bits(
                            oracle.document_triple(document.root)
                        ), (workload, dtd.name, xml)
                        kernel.clear_cache()
                        oracle.clear_cache()
