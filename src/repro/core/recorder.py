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

Whether an element's local similarity is full is read from its census
(:meth:`repro.dtd.automaton.Validator.content_is_full`): Section 3.1
makes full similarity coincide with validity, so it is a content-model
membership test, and a document the classifier already proved valid
needs no test at all.  The span DP's evaluation
(:func:`repro.similarity.evaluation.evaluate_document`) is the
reference path, taken when the fast paths are off and when the
similarity weights are degenerate.

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
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.extended_dtd import ElementRecord, ExtendedDTD
from repro.dtd.automaton import Validator
from repro.dtd.dtd import DTD
from repro.similarity.evaluation import DocumentEvaluation, evaluate_document
from repro.similarity.matcher import StructureMatcher
from repro.similarity.tags import ExactTagMatcher
from repro.similarity.triple import SimilarityConfig
from repro.xmltree.document import Document, Element, StructureInfo


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
        #: whether :meth:`record` reads local validity from the census;
        #: otherwise it records from the span DP's evaluation.  The two
        #: agree whenever tags match exactly and both weights are
        #: positive (a zero weight lets the DP tie-break onto optima
        #: that are not all-common); the fast-path switch keeps the DP
        #: as the reference path
        self.reads_census = (
            isinstance(self._matcher.tags, ExactTagMatcher)
            and config.alpha > 0
            and config.beta > 0
            and self._matcher.fastpath.validity_short_circuit
        )
        # per DTD object: ``declared_labels()`` per declaration, the
        # validator deciding local validity, and the matcher of the
        # reference path and of the declarations the validator cannot
        # decide.  Evolutions swap ``extended.dtd`` under a recorder
        # that outlives them
        self._dtd: Optional[DTD] = None
        self._labels: Dict[str, FrozenSet[str]] = {}
        self._validator: Optional[Validator] = None
        self._current_matcher: Optional[StructureMatcher] = None

    # ------------------------------------------------------------------

    def record(
        self,
        document: Document,
        evaluation: Optional[DocumentEvaluation] = None,
        proven_valid: bool = False,
    ) -> Optional[DocumentEvaluation]:
        """Record one classified document.

        ``proven_valid`` says the classifier proved the document valid
        against the extended DTD's current DTD, so every element is
        locally valid without a check.  An existing
        :class:`DocumentEvaluation` (from the classification phase —
        "since the similarity degrees have been computed in the first
        step, the second step is very quick") is recorded as it is.
        Otherwise local validity comes from the census when
        :attr:`reads_census` holds, and from a fresh evaluation when it
        does not.  Returns the evaluation recorded from, or ``None``
        when the census was read.
        """
        if evaluation is None and not self.reads_census:
            evaluation = evaluate_document(
                document, self.extended.dtd, self.config, matcher=self._dtd_matcher()
            )
        if evaluation is not None:
            self._record_verdicts(
                (entry.element, entry.declared, entry.is_locally_valid)
                for entry in evaluation.elements
            )
            return evaluation
        self._record_verdicts(self._census_verdicts(document, proven_valid))
        return None

    # ------------------------------------------------------------------

    def _sync(self, dtd: DTD) -> None:
        """Point the per-DTD caches at ``dtd`` (the extended DTD's)."""
        if dtd is not self._dtd:
            self._dtd = dtd
            self._labels = {}
            self._validator = None
            self._current_matcher = None

    def _declared_labels(self, name: str) -> FrozenSet[str]:
        """``alphabeta`` of the declaration of ``name`` (empty when
        undeclared), cached per DTD object."""
        self._sync(self.extended.dtd)
        labels = self._labels.get(name)
        if labels is None:
            decl = self.extended.dtd.get(name)
            labels = decl.declared_labels() if decl else frozenset()
            self._labels[name] = labels
        return labels

    def _locally_valid(self, element: Element, info: StructureInfo) -> bool:
        """Full local similarity of a declared element, from its census
        (the span DP decides the few models the automaton cannot)."""
        dtd = self.extended.dtd
        self._sync(dtd)
        validator = self._validator
        if validator is None:
            validator = self._validator = Validator(dtd)
        verdict = validator.content_is_full(element.tag, info)
        if verdict is not None:
            return verdict
        return self._dtd_matcher().content_triple(element, "local").is_full

    def _dtd_matcher(self) -> StructureMatcher:
        """A matcher for the extended DTD's current DTD: the injected
        one, or — once the DTD was swapped — one with its settings."""
        dtd = self.extended.dtd
        self._sync(dtd)
        matcher = self._current_matcher
        if matcher is None:
            matcher = self._matcher
            if matcher.dtd is not dtd:
                matcher = StructureMatcher(
                    dtd,
                    self.config,
                    fastpath=matcher.fastpath,
                    counters=matcher.counters,
                )
            self._current_matcher = matcher
        return matcher

    def _census_verdicts(
        self, document: Document, proven_valid: bool
    ) -> Iterator[Tuple[Element, bool, bool]]:
        """``(element, declared, locally valid)`` for every element, in
        preorder, with local validity read from the census."""
        dtd = self.extended.dtd
        stack = [document.root]
        while stack:
            element = stack.pop()
            info = element.structure_info()
            declared = element.tag in dtd
            yield element, declared, declared and (
                proven_valid or self._locally_valid(element, info)
            )
            if info.child_tags:
                stack.extend(reversed(element.element_children()))

    def _record_verdicts(self, verdicts: Iterable[Tuple[Element, bool, bool]]) -> None:
        """Record one document from ``(element, declared, locally
        valid)`` triples, one per element, in preorder."""
        extended = self.extended
        records = extended.records
        elements = invalid = 0
        valid_tags_in_document: Set[str] = set()
        for element, declared, valid in verdicts:
            elements += 1
            if not valid:
                invalid += 1
            if not declared:
                continue  # plus structure: captured via the parent's record
            tag = element.tag
            record = extended.record_for(tag)
            if valid:
                self._record_valid(record, element)
                valid_tags_in_document.add(tag)
            else:
                self._record_invalid(record, element)
        extended.document_count += 1
        extended.sum_invalid_fraction += invalid / elements
        if invalid == 0:
            extended.valid_document_count += 1
        for tag in valid_tags_in_document:
            records[tag].documents_with_valid += 1

    def _record_valid(self, record: ElementRecord, element: Element) -> None:
        record.valid_count += 1
        for attribute in element.attributes:
            record.attribute_counts[attribute] += 1
        tags = element.structure_info().child_tags
        for label in self._declared_labels(record.name):
            record.valid_stats_for(label).observe(tags.count(label))

    def _record_invalid(self, record: ElementRecord, element: Element) -> None:
        record.invalid_count += 1
        info = self._record_structure(record, element)
        if not info.child_tags:
            return
        # nested recording of labels unknown to the whole DTD: every
        # instance is "non valid" by definition (no declaration), so
        # only the invalid-side structures are filled.  An explicit
        # stack bounds the depth by memory, and popping in document
        # preorder creates plus records in the order recursion did
        dtd = self.extended.dtd
        declared_here = self._declared_labels(record.name)
        pending: List[Tuple[ElementRecord, Element]] = [
            (record, child)
            for child in reversed(element.element_children())
            if child.tag not in dtd and child.tag not in declared_here
        ]
        while pending:
            parent, element = pending.pop()
            nested = parent.plus_record_for(element.tag)
            nested.invalid_count += 1
            info = self._record_structure(nested, element)
            if info.child_tags:
                pending.extend(
                    (nested, child)
                    for child in reversed(element.element_children())
                    if child.tag not in dtd
                )

    @staticmethod
    def _record_structure(record: ElementRecord, element: Element) -> StructureInfo:
        """The invalid-side structures of one instance, from its census
        (which it returns)."""
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
        return info
