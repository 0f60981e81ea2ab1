"""Document-level evaluation: the public face of the similarity layer.

The evolution pipeline needs, per document (Sections 2 and 3):

1. a *document similarity* against each DTD of the source (drives
   classification, threshold ``sigma``);
2. for the selected DTD, a *per-element* evaluation — the local and
   global similarity of every element whose tag the DTD declares —
   which is exactly what the recording phase stores into the extended
   DTD (an element is "non valid" when its local similarity is not
   full).

:func:`evaluate_document` computes both in one pass and returns a
:class:`DocumentEvaluation`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dtd.dtd import DTD
from repro.similarity.matcher import StructureMatcher
from repro.similarity.tags import TagMatcher
from repro.similarity.triple import EvalTriple, SimilarityConfig
from repro.xmltree.document import Document, Element


class ElementEvaluation:
    """Similarity of one document element against its tag's declaration."""

    __slots__ = ("element", "declared", "local_triple", "global_triple", "config")

    def __init__(
        self,
        element: Element,
        declared: bool,
        local_triple: EvalTriple,
        global_triple: EvalTriple,
        config: SimilarityConfig,
    ):
        self.element = element
        #: whether the DTD declares this element's tag at all
        self.declared = declared
        self.local_triple = local_triple
        self.global_triple = global_triple
        self.config = config

    @property
    def local_similarity(self) -> float:
        return self.local_triple.evaluate(self.config)

    @property
    def global_similarity(self) -> float:
        return self.global_triple.evaluate(self.config)

    @property
    def is_locally_valid(self) -> bool:
        """Full local similarity — the paper's per-element validity notion."""
        return self.declared and self.local_triple.is_full

    def __repr__(self) -> str:
        return (
            f"ElementEvaluation({self.element.tag!r}, "
            f"local={self.local_similarity:.3f}, "
            f"global={self.global_similarity:.3f})"
        )


class DocumentEvaluation:
    """Similarity of a whole document against one DTD."""

    def __init__(
        self,
        document: Document,
        dtd: DTD,
        triple: EvalTriple,
        elements: List[ElementEvaluation],
        config: SimilarityConfig,
    ):
        self.document = document
        self.dtd = dtd
        self.triple = triple
        self.elements = elements
        self.config = config

    @property
    def similarity(self) -> float:
        """The numeric rank in [0, 1] used by the classifier."""
        return self.triple.evaluate(self.config)

    @property
    def element_count(self) -> int:
        return len(self.elements)

    @property
    def invalid_element_count(self) -> int:
        """Number of elements whose local similarity is not full."""
        return sum(
            1 for evaluation in self.elements if not evaluation.is_locally_valid
        )

    @property
    def invalid_element_fraction(self) -> float:
        """The per-document term of the paper's activation condition."""
        if not self.elements:
            return 0.0
        return self.invalid_element_count / len(self.elements)

    @property
    def is_valid(self) -> bool:
        """Full global similarity at the root ⇔ boolean validity."""
        return self.triple.is_full

    def __repr__(self) -> str:
        return (
            f"DocumentEvaluation(dtd={self.dtd.name!r}, "
            f"similarity={self.similarity:.3f}, "
            f"invalid={self.invalid_element_count}/{self.element_count})"
        )


def evaluate_document(
    document: Document,
    dtd: DTD,
    config: SimilarityConfig = SimilarityConfig(),
    matcher: Optional[StructureMatcher] = None,
    tag_matcher: Optional[TagMatcher] = None,
) -> DocumentEvaluation:
    """Evaluate a document against a DTD, globally and per element.

    Pass a pre-built ``matcher`` to reuse its declaration-level caches
    across many documents (the classifier does).

    >>> from repro.dtd.parser import parse_dtd
    >>> from repro.xmltree.parser import parse_document
    >>> dtd = parse_dtd("<!ELEMENT a (b)><!ELEMENT b (#PCDATA)>")
    >>> evaluate_document(parse_document("<a><b>x</b></a>"), dtd).is_valid
    True
    """
    if matcher is None:
        matcher = StructureMatcher(dtd, config, tag_matcher)
    else:
        matcher.clear_cache()
    document_triple = matcher.document_triple(document.root)
    evaluations: List[ElementEvaluation] = []
    for element in document.root.iter_elements():
        declared = element.tag in dtd
        local_triple = matcher.content_triple(element, "local")
        global_triple = matcher.content_triple(element, "global")
        if not declared:
            # an undeclared element is entirely uncaptured structure
            local_triple = local_triple.add_plus(1.0)
            global_triple = global_triple.add_plus(1.0)
        evaluations.append(
            ElementEvaluation(element, declared, local_triple, global_triple, config)
        )
    matcher.clear_cache()
    return DocumentEvaluation(document, dtd, document_triple, evaluations, config)


def similarity(
    document: Document, dtd: DTD, config: SimilarityConfig = SimilarityConfig()
) -> float:
    """Document-against-DTD similarity rank in ``[0, 1]``."""
    return StructureMatcher(dtd, config).document_similarity(document.root)


def local_similarity(
    element: Element, dtd: DTD, config: SimilarityConfig = SimilarityConfig()
) -> float:
    """Local similarity of one element (Section 3.1)."""
    return StructureMatcher(dtd, config).local_similarity(element)


def similarity_map(
    document: Document,
    dtd: DTD,
    config: SimilarityConfig = SimilarityConfig(),
) -> Dict[int, ElementEvaluation]:
    """Per-element evaluations keyed by ``id(element)`` (recorder input)."""
    evaluation = evaluate_document(document, dtd, config)
    return {id(entry.element): entry for entry in evaluation.elements}
