"""Structural similarity between XML documents and DTDs.

A faithful re-derivation of the algorithm of Bertino, Guerrini & Mesiti,
"Measuring the Structural Similarity among XML Documents and DTDs"
(technical report DISI-TR-02-02, reference [2] of the paper).  The
evolution paper relies on the following interface, which this package
provides:

- a numeric rank in ``[0, 1]`` for a document against a DTD
  (:func:`similarity`);
- evaluation triples ``(p, m, c)`` — *plus*, *minus*, *common*
  components — combined by the evaluation function
  :meth:`EvalTriple.evaluate`;
- *global* similarity (recursive; its fullness coincides with boolean
  validity) and *local* similarity (direct children only; drives the
  per-element granularity of the evolution process) — Section 3.1;
- per-element evaluations for every element of a document
  (:func:`evaluate_document`), consumed by the recording phase.
"""

from repro.similarity.triple import EvalTriple, SimilarityConfig
from repro.similarity.matcher import StructureMatcher
from repro.similarity.evaluation import (
    DocumentEvaluation,
    ElementEvaluation,
    evaluate_document,
    similarity,
    local_similarity,
)
from repro.similarity.tags import TagMatcher, ExactTagMatcher, ThesaurusTagMatcher

__all__ = [
    "EvalTriple",
    "SimilarityConfig",
    "StructureMatcher",
    "DocumentEvaluation",
    "ElementEvaluation",
    "evaluate_document",
    "similarity",
    "local_similarity",
    "TagMatcher",
    "ExactTagMatcher",
    "ThesaurusTagMatcher",
]
