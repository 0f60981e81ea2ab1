"""The per-span structural matcher DP, kept as a test oracle.

:mod:`repro.similarity.matcher` runs a row-incremental kernel: one
growing row per (content-model vertex, span start), shared by every
span end, with plain-tuple triples inside a run.  This module keeps the
formulation it replaced: every (vertex, ``lo``, ``hi``) cell is
memoised on its own and recomputes its sequence or repetition
recurrence from scratch, and every triple is an :class:`EvalTriple`
combined with ``+`` and chosen by :func:`best`.

:class:`ReferenceMatcher` is a :class:`StructureMatcher` whose
``triple_against`` (caches included) runs this DP, children and all, so
a differential compares whole documents, not single runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.dtd import content_model as cm
from repro.similarity.matcher import (
    StructureMatcher,
    _local_min_weight,
    _max_word_length,
    subtree_weight,
)
from repro.similarity.triple import EvalTriple, SimilarityConfig
from repro.xmltree.document import Element
from repro.xmltree.tree import Tree

_TEXT_TAG = cm.PCDATA


def best(candidates, config: SimilarityConfig) -> EvalTriple:
    """The candidate triple with the highest linear score.

    Ties break toward the earliest candidate, which callers exploit to
    prefer structurally simpler alignments.
    """
    chosen = None
    chosen_score = float("-inf")
    for candidate in candidates:
        candidate_score = candidate.score(config)
        if candidate_score > chosen_score:
            chosen = candidate
            chosen_score = candidate_score
    if chosen is None:
        raise ValueError("best() requires at least one candidate")
    return chosen


class _Item:
    """One direct child of the document element being matched."""

    __slots__ = ("tag", "element", "weight")

    def __init__(self, tag: str, element: Optional[Element], weight: float):
        self.tag = tag
        self.element = element  # None for text items
        self.weight = weight

    @property
    def is_text(self) -> bool:
        return self.element is None


class ReferenceMatcher(StructureMatcher):
    """A :class:`StructureMatcher` that aligns with the per-span DP."""

    def triple_against(
        self, element: Element, decl_name: str, mode: str = "global", depth: int = 0
    ) -> EvalTriple:
        counters = self.counters
        use_id_cache = mode == "global" and decl_name == element.tag
        if use_id_cache:
            cached = self._global_cache.get(id(element))
            if cached is not None and cached[0] is element:
                return cached[1]
        structural_key: Optional[Tuple[str, str, bytes]] = None
        if self.fastpath.structural_cache:
            info = element.structure_info()
            if mode == "local" or depth + info.height < self.config.max_depth:
                structural_key = (decl_name, mode, info.fingerprint)
                cached_triple = self._structural_cache.get(structural_key)
                if cached_triple is not None:
                    self._structural_cache.move_to_end(structural_key)
                    if counters is not None:
                        counters.structural_cache_hits += 1
                    if use_id_cache:
                        self._global_cache[id(element)] = (element, cached_triple)
                    return cached_triple
                if counters is not None:
                    counters.structural_cache_misses += 1
        decl = self.dtd.get(decl_name)
        if decl is None:
            items = self._items(element, mode)
            return EvalTriple(plus=sum(item.weight for item in items))
        items = self._items(element, mode)
        if counters is not None:
            counters.dp_runs += 1
        triple = _ReferenceSpanMatcher(self, items, mode, depth).match(
            decl.content, 0, len(items)
        )
        if structural_key is not None:
            self._structural_cache[structural_key] = triple
            if len(self._structural_cache) > self.fastpath.structural_cache_size:
                self._structural_cache.popitem(last=False)
                if counters is not None:
                    counters.structural_cache_evictions += 1
        if use_id_cache:
            self._global_cache[id(element)] = (element, triple)
        return triple

    def _items(self, element: Element, mode: str) -> List[_Item]:
        use_cached_weight = self.fastpath.structural_cache
        items: List[_Item] = []
        for child in element.children:
            if isinstance(child, Element):
                if mode != "global":
                    weight = 1.0
                elif use_cached_weight:
                    weight = child.structure_info().weight
                else:
                    weight = subtree_weight(child)
                items.append(_Item(child.tag, child, weight))
            elif child.value.strip():
                items.append(_Item(_TEXT_TAG, None, 1.0))
        return items

    def _child_match_triple(self, item: _Item, mode: str, depth: int) -> EvalTriple:
        """Triple for matching an element item to a leaf of its tag."""
        if mode == "local" or depth >= self.config.max_depth:
            return EvalTriple(common=1.0)
        assert item.element is not None
        decl_name = self._declared_name(item.element.tag)
        if decl_name is None:
            sub = EvalTriple(
                plus=sum(i.weight for i in self._items(item.element, "global"))
            )
        else:
            sub = self.triple_against(item.element, decl_name, "global", depth + 1)
        return sub.add_common(1.0)


class _ReferenceSpanMatcher:
    """One DP run: a fixed item list, mode, and memo table."""

    def __init__(self, owner: ReferenceMatcher, items: List[_Item], mode: str, depth: int):
        self.owner = owner
        self.items = items
        self.mode = mode
        self.depth = depth
        self.config = owner.config
        self._memo: Dict[Tuple[int, int, int], Tuple[Tree, EvalTriple]] = {}
        self._prefix = [0.0]
        for item in items:
            self._prefix.append(self._prefix[-1] + item.weight)

    def _span_plus(self, lo: int, hi: int) -> EvalTriple:
        return EvalTriple(plus=self._prefix[hi] - self._prefix[lo])

    def _min_minus(self, model: Tree) -> float:
        if self.mode == "local":
            return _local_min_weight(model)
        return self.owner._min_model_weight(model)

    def _segment_cap(self, body: Tree) -> int:
        max_length = _max_word_length(body)
        return (1 << 30) if max_length is None else 3 * max_length + 4

    def match(self, model: Tree, lo: int, hi: int) -> EvalTriple:
        key = (id(model), lo, hi)
        cached = self._memo.get(key)
        if cached is not None and cached[0] is model:
            return cached[1]
        result = self._compute(model, lo, hi)
        self._memo[key] = (model, result)
        return result

    def _compute(self, model: Tree, lo: int, hi: int) -> EvalTriple:
        label = model.label
        if label == cm.ANY:
            return EvalTriple(common=self._prefix[hi] - self._prefix[lo])
        if label == cm.EMPTY:
            return self._span_plus(lo, hi)
        if label == cm.PCDATA:
            triple = EvalTriple()
            for index in range(lo, hi):
                item = self.items[index]
                if item.is_text:
                    triple = triple.add_common(1.0)
                else:
                    triple = triple.add_plus(item.weight)
            return triple
        if cm.is_element_label(label):
            return self._match_leaf(label, lo, hi)
        if label == cm.AND:
            return self._match_sequence(model.children, lo, hi)
        if label == cm.OR:
            return best(
                (self.match(child, lo, hi) for child in model.children), self.config
            )
        if label == cm.OPT:
            skip = self._span_plus(lo, hi)
            taken = self.match(model.children[0], lo, hi)
            return best((skip, taken), self.config)
        if label in (cm.STAR, cm.PLUS):
            return self._match_repetition(model.children[0], lo, hi, label == cm.PLUS)
        raise ValueError(f"unknown content-model label {label!r}")

    def _match_leaf(self, tag: str, lo: int, hi: int) -> EvalTriple:
        candidates = [
            self._span_plus(lo, hi).add_minus(
                self.owner._min_weight(tag) if self.mode == "global" else 1.0
            )
        ]
        for index in range(lo, hi):
            item = self.items[index]
            if item.is_text:
                continue
            factor = self.owner.tags.match(item.tag, tag)
            if factor <= 0:
                continue
            matched = self.owner._child_match_triple(item, self.mode, self.depth)
            if factor < 1.0:
                matched = EvalTriple(
                    matched.plus, matched.minus, matched.common * factor
                )
            candidates.append(
                matched
                + self._span_plus(lo, index)
                + self._span_plus(index + 1, hi)
            )
        return best(candidates, self.config)

    def _match_sequence(self, parts: Sequence[Tree], lo: int, hi: int) -> EvalTriple:
        dp: List[Optional[EvalTriple]] = [None] * (hi + 1)
        dp[lo] = EvalTriple()
        for part in parts:
            next_dp: List[Optional[EvalTriple]] = [None] * (hi + 1)
            for split in range(lo, hi + 1):
                base = dp[split]
                if base is None:
                    continue
                for end in range(split, hi + 1):
                    candidate = base + self.match(part, split, end)
                    current = next_dp[end]
                    if current is None or candidate.score(self.config) > current.score(
                        self.config
                    ):
                        next_dp[end] = candidate
            dp = next_dp
        result = dp[hi]
        assert result is not None
        return result

    def _match_repetition(
        self, body: Tree, lo: int, hi: int, require_one: bool
    ) -> EvalTriple:
        none: List[EvalTriple] = [EvalTriple()] * (hi - lo + 1)
        some: List[Optional[EvalTriple]] = [None] * (hi - lo + 1)
        cap = self._segment_cap(body)
        for offset in range(1, hi - lo + 1):
            position = lo + offset
            item_plus = EvalTriple(plus=self.items[position - 1].weight)
            none[offset] = none[offset - 1] + item_plus
            candidates: List[EvalTriple] = []
            if some[offset - 1] is not None:
                candidates.append(some[offset - 1] + item_plus)
            for start_offset in range(max(0, offset - cap), offset):
                segment = self.match(body, lo + start_offset, position)
                candidates.append(none[start_offset] + segment)
                if some[start_offset] is not None:
                    candidates.append(some[start_offset] + segment)
            some[offset] = best(candidates, self.config) if candidates else None
        empty_repetition = self.match(body, lo, lo) if hi == lo else None
        final_candidates: List[EvalTriple] = []
        if some[hi - lo] is not None:
            final_candidates.append(some[hi - lo])  # type: ignore[arg-type]
        if require_one:
            penalty = EvalTriple(minus=self._min_minus(body))
            final_candidates.append(none[hi - lo] + penalty)
            if empty_repetition is not None:
                final_candidates.append(empty_repetition)
        else:
            final_candidates.append(none[hi - lo])
        return best(final_candidates, self.config)
