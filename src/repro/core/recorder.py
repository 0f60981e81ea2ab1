"""The recording phase (Section 3).

"After having classified each document, some structural information of
the document are extracted (recording phase). [...] The recording phase
allows one to carry on the evolution phase without need of analyzing
again the documents."

For each element of a classified document whose tag the DTD declares:

- full local similarity → bump the valid counters and the valid-side
  occurrence stats (used by the restriction of operators);
- otherwise → bump the non-valid counter, add the instance's direct
  child tags to ``Label``, add its tag set to the sequence multiset,
  update per-label stats and co-repetition groups, and — for labels
  the DTD declares nowhere — recursively record the child structure so
  a brand-new declaration can later be inferred (Example 5's tree (4)).

Elements with undeclared tags are *plus* structure; they are recorded
inside their closest declared ancestor's record (through the nested
plus records) and never as top-level records of their own.

Deviation note: the paper stores nested structural information for
every label ``l ∉ alphabeta(e)``.  Because XML DTD declarations are
global (one declaration per tag for the whole DTD), we narrow this to
labels declared nowhere in the DTD — for a label that *is* declared
elsewhere, the evolved content model of ``e`` simply references the
existing declaration, and inferring a second one could only conflict.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, Optional, Set

from repro.core.extended_dtd import ElementRecord, ExtendedDTD
from repro.dtd.dtd import DTD
from repro.similarity.evaluation import DocumentEvaluation, evaluate_document
from repro.similarity.matcher import StructureMatcher
from repro.similarity.triple import SimilarityConfig
from repro.xmltree.document import Document, Element


def _co_repetition_groups(occurrences: Counter) -> Dict[FrozenSet[str], int]:
    """The paper's *groups*: for every repetition count > 1, the set of
    tags repeated exactly that number of times in this instance."""
    by_count: Dict[int, Set[str]] = {}
    for tag, count in occurrences.items():
        if count > 1:
            by_count.setdefault(count, set()).add(tag)
    return {frozenset(tags): count for count, tags in by_count.items()}


class Recorder:
    """Fills an :class:`ExtendedDTD` from classified documents."""

    def __init__(
        self,
        extended: ExtendedDTD,
        config: SimilarityConfig = SimilarityConfig(),
        matcher: Optional[StructureMatcher] = None,
    ):
        self.extended = extended
        self.config = config
        # an injected matcher lets the pipeline share fast-path settings
        # and perf counters; recording always matches tags exactly, so
        # callers must not pass a thesaurus-backed matcher here
        self._matcher = matcher or StructureMatcher(extended.dtd, config)
        # ``declared_labels()`` per declaration, for the DTD object they
        # were read from: evolutions swap ``extended.dtd`` under a
        # recorder that outlives them
        self._labels: Dict[str, FrozenSet[str]] = {}
        self._labels_dtd: Optional[DTD] = None

    # ------------------------------------------------------------------

    def record(
        self,
        document: Document,
        evaluation: Optional[DocumentEvaluation] = None,
    ) -> DocumentEvaluation:
        """Record one classified document.

        An existing :class:`DocumentEvaluation` (from the classification
        phase — "since the similarity degrees have been computed in the
        first step, the second step is very quick") can be passed to
        avoid re-evaluating; otherwise the document is evaluated here.
        """
        if evaluation is None:
            evaluation = evaluate_document(
                document, self.extended.dtd, self.config, matcher=self._matcher
            )
        self.extended.document_count += 1
        self.extended.sum_invalid_fraction += evaluation.invalid_element_fraction
        if evaluation.invalid_element_count == 0:
            self.extended.valid_document_count += 1

        valid_tags_in_document: Set[str] = set()
        for element_evaluation in evaluation.elements:
            element = element_evaluation.element
            if element.tag not in self.extended.dtd:
                continue  # plus structure: captured via the parent's record
            record = self.extended.record_for(element.tag)
            if element_evaluation.is_locally_valid:
                self._record_valid(record, element)
                valid_tags_in_document.add(element.tag)
            else:
                self._record_invalid(record, element)
        for tag in valid_tags_in_document:
            self.extended.record_for(tag).documents_with_valid += 1
        return evaluation

    # ------------------------------------------------------------------

    def _declared_labels(self, name: str) -> FrozenSet[str]:
        """``alphabeta`` of the declaration of ``name`` (empty when
        undeclared), cached per DTD object."""
        dtd = self.extended.dtd
        if dtd is not self._labels_dtd:
            self._labels = {}
            self._labels_dtd = dtd
        labels = self._labels.get(name)
        if labels is None:
            decl = dtd.get(name)
            labels = decl.declared_labels() if decl else frozenset()
            self._labels[name] = labels
        return labels

    def _record_valid(self, record: ElementRecord, element: Element) -> None:
        record.valid_count += 1
        for attribute in element.attributes:
            record.attribute_counts[attribute] += 1
        tags = element.structure_info().child_tags
        for label in self._declared_labels(record.name):
            record.valid_stats_for(label).observe(tags.count(label))

    def _record_invalid(self, record: ElementRecord, element: Element) -> None:
        record.invalid_count += 1
        self._record_structure(record, element)
        # nested recording of labels unknown to the whole DTD
        declared_here = self._declared_labels(record.name)
        for child in element.children:
            if (
                not isinstance(child, Element)
                or child.tag in self.extended.dtd
                or child.tag in declared_here
            ):
                continue
            self._record_plus(record.plus_record_for(child.tag), child)

    def _record_plus(self, record: ElementRecord, element: Element) -> None:
        """Recursive recording of an element unknown to the DTD.

        Every instance is "non valid" by definition (no declaration), so
        only the invalid-side structures are filled.
        """
        record.invalid_count += 1
        self._record_structure(record, element)
        for child in element.children:
            if not isinstance(child, Element) or child.tag in self.extended.dtd:
                continue
            self._record_plus(record.plus_record_for(child.tag), child)

    @staticmethod
    def _record_structure(record: ElementRecord, element: Element) -> None:
        """The invalid-side structures of one instance, from its census."""
        for attribute in element.attributes:
            record.attribute_counts[attribute] += 1
        info = element.structure_info()
        tags = info.child_tags
        occurrences = Counter(tags)
        record.sequences[frozenset(occurrences)] += 1
        record.observe_ordered_sequence(tags)
        if info.text_count:
            record.text_count += 1
        elif not tags:
            record.empty_count += 1
        for tag in tags:  # first-seen order, document order
            if tag not in record.labels:
                record.labels[tag] = len(record.labels)
        for tag, count in occurrences.items():
            record.stats_for(tag).observe(count)
        for group, _count in _co_repetition_groups(occurrences).items():
            record.groups[group] += 1
