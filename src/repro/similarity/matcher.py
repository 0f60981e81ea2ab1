"""The structural matcher: documents against DTD content models.

This is the re-derivation of the algorithm of [2] the paper builds on
(Section 3.1): "the function visits at the same time the tree
representations of a document and a DTD associating with each node an
evaluation of plus, common and minus components between the two
structures at that level".

Formulation
-----------
For a document element ``e_d`` with tag ``t`` and a DTD declaring ``t``
with content model ``M``, the matcher computes the best *alignment* of
``e_d``'s child sequence against ``M`` — an assignment of children to
content-model positions maximising the linear score of the resulting
``(p, m, c)`` triple:

- a child matched to a model leaf of its tag contributes *common*
  (plus, recursively, the triple of its own content in *global* mode);
- a child no model position wants contributes *plus* (weighted by its
  subtree size in global mode, 1 in local mode);
- a required model part no child satisfies contributes *minus* (the
  size of its minimal instantiation).

The alignment is computed by dynamic programming over (model vertex,
child-span) pairs:

====================  ====================================================
model vertex          best triple over span ``items[lo:hi]``
====================  ====================================================
tag leaf ``x``        match one ``x`` child (others plus) or skip (minus)
``#PCDATA``           text children common, element children plus
``ANY``               everything common
``EMPTY``             everything plus
``AND``               partition the span among the parts (interval DP)
``OR``                best alternative on the whole span
``?``                 skip (span all plus, no minus) or match once
``*``/``+``           segment DP; ``+`` owes a minus if no segment matches
====================  ====================================================

The DP is row-incremental: for a fixed (vertex, ``lo``) the sequence
and repetition recurrences meet the same candidates in the same order
whatever ``hi`` is, so each such pair keeps one growing row of results
that every span end shares (DESIGN.md decision 18).

Global vs local (Section 3.1): *global* recurses into matched children
(its fullness coincides with validity); *local* scores direct children
only, each worth 1 — this is the measure that drives per-element
recording and evolution granularity.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.dtd import content_model as cm
from repro.dtd.dtd import DTD
from repro.perf import FastPathConfig, PerfCounters
from repro.similarity.tags import ExactTagMatcher, TagMatcher
from repro.similarity.triple import ZERO, EvalTriple, SimilarityConfig
from repro.xmltree.document import Element, Text
from repro.xmltree.tree import Tree

_NEG_INF = float("-inf")
#: the segment cap and row length of what nothing bounds
_UNBOUNDED = 1 << 30


def subtree_weight(element: Element) -> float:
    """Size of an element subtree: element vertices + non-empty text leaves.

    This is the *plus* weight of an unmatched subtree in global mode —
    bigger unexpected structures hurt similarity more.
    """
    weight = 1.0
    for child in element.children:
        if isinstance(child, Element):
            weight += subtree_weight(child)
        elif isinstance(child, Text) and child.value.strip():
            weight += 1.0
    return weight


class StructureMatcher:
    """Matches document elements against the declarations of one DTD.

    A matcher instance caches per-element global evaluations and
    per-declaration minimal weights, so evaluating many documents
    against the same DTD amortises well (this is what the
    classification phase does).

    Parameters
    ----------
    dtd:
        The DTD to match against.
    config:
        Similarity weights (see :class:`SimilarityConfig`).
    tag_matcher:
        Tag equality policy; defaults to exact matching.  A thesaurus
        matcher (Section 6 extension) discounts synonym matches.
    fastpath:
        Fast-path switches (see :class:`repro.perf.FastPathConfig`).
        Only ``structural_cache`` matters at this layer: when on, DP
        results are interned by ``(declaration, mode, fingerprint)`` in
        an LRU that survives :meth:`clear_cache`, so identical subtrees
        across a document stream cost one DP run total.
    counters:
        Optional shared :class:`repro.perf.PerfCounters`; the matcher
        bumps cache-hit and DP counters into it.
    """

    def __init__(
        self,
        dtd: DTD,
        config: SimilarityConfig = SimilarityConfig(),
        tag_matcher: Optional[TagMatcher] = None,
        fastpath: Optional[FastPathConfig] = None,
        counters: Optional[PerfCounters] = None,
    ):
        self.dtd = dtd
        self.config = config
        self.tags = tag_matcher or ExactTagMatcher()
        self.fastpath = fastpath or FastPathConfig()
        self.counters = counters
        # (tag, the open tags its minimal instance reaches) -> weight
        self._min_weight_cache: Dict[Tuple[str, FrozenSet[str]], float] = {}
        self._reach_cache: Dict[str, FrozenSet[str]] = {}
        # keyed by id(element); the element itself is kept as a strong
        # reference so a recycled id can never alias a freed element
        self._global_cache: Dict[int, Tuple[Element, EvalTriple]] = {}
        # tier 2: (decl name, mode, structural fingerprint) -> triple,
        # LRU-bounded; structural keys are value-based, so entries stay
        # correct across documents and across repository drains
        self._structural_cache: "OrderedDict[Tuple[str, str, bytes], EvalTriple]" = (
            OrderedDict()
        )
        # content models compiled for the span kernel, keyed by the
        # model tree, which is pinned alongside so a GC'd-and-recycled
        # id can never alias (mirrors _global_cache's pinning)
        self._compiled: Dict[int, Tuple[Tree, "_Vertex", int]] = {}

    def clear_cache(self) -> None:
        """Drop per-element (identity-keyed) memoisation — call between
        unrelated documents when the structural cache is off.

        The fingerprint-keyed structural cache is *not* dropped: its
        keys are value-based and LRU-bounded, so it is both correct and
        memory-safe across documents (that persistence is the point of
        tier 2).  Use :meth:`clear_structural_cache` for a full reset.
        """
        self._global_cache.clear()

    def clear_structural_cache(self) -> None:
        """Drop the fingerprint-keyed LRU as well (tests, memory audits)."""
        self._structural_cache.clear()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def content_triple(self, element: Element, mode: str = "global") -> EvalTriple:
        """Triple for ``element``'s content against its tag's declaration.

        The element's own tag vertex is *not* included (callers add the
        common/plus/minus contribution of the tag itself); only the
        children alignment is scored.  ``mode`` is ``"global"`` or
        ``"local"``.

        Undeclared tags score as all-plus (the DTD captures nothing of
        the content).
        """
        decl_name = self._declared_name(element.tag)
        if decl_name is None:
            return EvalTriple(plus=sum(self._children(element, mode)[1]))
        return self.triple_against(element, decl_name, mode)

    def triple_against(
        self, element: Element, decl_name: str, mode: str = "global", depth: int = 0
    ) -> EvalTriple:
        """Triple for ``element``'s content against declaration ``decl_name``.

        Lets callers match an element against a declaration other than
        its own tag's (the classifier uses it to anchor a document root
        onto the DTD root even when tags differ).
        """
        counters = self.counters
        # the id-keyed per-document cache is consulted *first* even with
        # the structural cache on: beyond max_depth the DP truncates, so
        # an element's triple depends on the depth of the first call for
        # it in this session (document_triple populates these at actual
        # tree depths; evaluate_document's depth-0 re-reads must see the
        # same values the legacy path serves)
        use_id_cache = mode == "global" and decl_name == element.tag
        if use_id_cache:
            cached = self._global_cache.get(id(element))
            if cached is not None and cached[0] is element:
                return cached[1]
        structural_key: Optional[Tuple[str, str, bytes]] = None
        if self.fastpath.structural_cache:
            info = element.structure_info()
            # local triples never recurse, so they are depth-free; global
            # triples are depth-free only while the max_depth recursion
            # guard cannot fire anywhere below this element — outside
            # that window the result depends on the depth it was
            # computed at and must not be shared
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
        elements, weights = self._children(element, mode)
        if decl is None:
            return EvalTriple(plus=sum(weights))
        root, size = self._compiled_model(decl.content)
        run = _SpanMatcher(self, size, elements, weights, mode, depth)
        # the run's tuples become an EvalTriple here, once
        triple = EvalTriple._make(run.cell(root, 0, len(weights)))
        if counters is not None:
            counters.dp_runs += 1
            counters.dp_cells += run.cells
        if structural_key is not None:
            self._structural_cache[structural_key] = triple
            if len(self._structural_cache) > self.fastpath.structural_cache_size:
                self._structural_cache.popitem(last=False)
                if counters is not None:
                    counters.structural_cache_evictions += 1
        if use_id_cache:
            self._global_cache[id(element)] = (element, triple)
        return triple

    def local_similarity(self, element: Element) -> float:
        """Local similarity of one document element (Section 3.1)."""
        return self.content_triple(element, "local").evaluate(self.config)

    def global_similarity(self, element: Element) -> float:
        """Global similarity of one document element's content."""
        return self.content_triple(element, "global").evaluate(self.config)

    def document_triple(self, root: Element) -> EvalTriple:
        """Triple for a whole document anchored at the DTD root.

        The root tag contributes common 1 when it matches the DTD root
        (possibly discounted by the tag matcher), otherwise plus 1 and
        minus 1; the root's content is matched against the DTD root's
        declaration either way, so structurally identical documents
        with a renamed root still rank high.
        """
        factor = self.tags.match(root.tag, self.dtd.root)
        content = self.triple_against(root, self.dtd.root, "global")
        if factor > 0:
            return content.add_common(factor)
        return content.add_plus(1.0).add_minus(1.0)

    def document_similarity(self, root: Element) -> float:
        """Similarity rank in [0, 1] of a document against the DTD."""
        return self.document_triple(root).evaluate(self.config)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _declared_name(self, tag: str) -> Optional[str]:
        """The declaration a tag matches, honouring the tag matcher."""
        if tag in self.dtd:
            return tag
        if isinstance(self.tags, ExactTagMatcher):
            return None
        candidates = [
            name for name in self.dtd.element_names() if self.tags.matches(tag, name)
        ]
        return candidates[0] if candidates else None

    def _children(
        self, element: Element, mode: str
    ) -> Tuple[List[Optional[Element]], List[float]]:
        """The DP's items of ``element``: each child element and each
        non-whitespace text run (``None``), with its plus weight."""
        # structure_info().weight equals subtree_weight() exactly (both
        # sum the same integers); the cached form is O(1) amortised
        global_mode = mode == "global"
        use_cached_weight = self.fastpath.structural_cache
        elements: List[Optional[Element]] = []
        weights: List[float] = []
        for child in element.children:
            if isinstance(child, Element):
                if not global_mode:
                    weight = 1.0
                elif use_cached_weight:
                    weight = child.structure_info().weight
                else:
                    weight = subtree_weight(child)
                elements.append(child)
                weights.append(weight)
            elif child.value.strip():
                elements.append(None)
                weights.append(1.0)
        return elements, weights

    def _compiled_model(self, model: Tree) -> Tuple["_Vertex", int]:
        """``model`` compiled for the span kernel (root vertex, size)."""
        cached = self._compiled.get(id(model))
        if cached is not None and cached[0] is model:
            return cached[1], cached[2]
        root, size = _compile(model)
        self._compiled[id(model)] = (model, root, size)
        return root, size

    def _min_weight(self, tag: str, open_tags: FrozenSet[str] = frozenset()) -> float:
        """Minus cost of a missing required element: its minimal instance size.

        Inside a recursion the cycle guard counts a tag already open as
        1, so the weight is a function of ``tag`` and of the open tags
        its minimal instance reaches — and is cached under that pair.
        Whatever order the DP asks in, a tag gets the same weight, and
        a tag that reaches no open tag reuses its context-free weight.
        """
        decl = self.dtd.get(tag)
        if decl is None or tag in open_tags:
            return 1.0
        context = open_tags & self._required_reach(tag)
        key = (tag, context)
        weight = self._min_weight_cache.get(key)
        if weight is None:
            weight = 1.0 + self._min_model_weight(decl.content, context | {tag})
            self._min_weight_cache[key] = weight
        return weight

    def _required_reach(self, tag: str) -> FrozenSet[str]:
        """The tags :meth:`_min_weight` of ``tag`` consults, transitively."""
        reach = self._reach_cache.get(tag)
        if reach is None:
            found: Set[str] = set()
            pending = [tag]
            while pending:
                decl = self.dtd.get(pending.pop())
                if decl is None:
                    continue
                for label in _required_labels(decl.content):
                    if label not in found:
                        found.add(label)
                        pending.append(label)
            reach = self._reach_cache[tag] = frozenset(found)
        return reach

    def _min_model_weight(
        self, model: Tree, open_tags: FrozenSet[str] = frozenset()
    ) -> float:
        label = model.label
        if label in (cm.PCDATA, cm.ANY, cm.EMPTY):
            return 0.0
        if cm.is_element_label(label):
            return self._min_weight(label, open_tags)
        if label == cm.AND:
            return sum(
                self._min_model_weight(child, open_tags) for child in model.children
            )
        if label == cm.OR:
            return min(
                self._min_model_weight(child, open_tags) for child in model.children
            )
        if label in (cm.OPT, cm.STAR):
            return 0.0
        if label == cm.PLUS:
            return self._min_model_weight(model.children[0], open_tags)
        raise ValueError(f"unknown content-model label {label!r}")


#: kinds of compiled content-model vertices
_LEAF, _AND, _OR, _OPT, _STAR, _PLUS, _PCDATA, _ANY, _EMPTY = range(9)

_KINDS = {
    cm.AND: _AND,
    cm.OR: _OR,
    cm.OPT: _OPT,
    cm.STAR: _STAR,
    cm.PLUS: _PLUS,
    cm.PCDATA: _PCDATA,
    cm.ANY: _ANY,
    cm.EMPTY: _EMPTY,
}


class _Vertex:
    """One content-model vertex, numbered for the kernel's row tables.

    ``span`` is the longest span the vertex can be asked for (the
    least segment cap of the repetitions it sits in, or unbounded),
    ``cap`` the segment cap of a repetition's body, ``local_minus``
    the minus a missing leaf or an empty ``+`` owes in local mode, and
    ``minus`` the same in global mode (computed on first use: it is a
    function of the owner's DTD, not of the model alone).
    """

    __slots__ = (
        "index", "kind", "label", "tree", "children", "span", "cap", "local_minus", "minus"
    )

    def __init__(self, index: int, kind: int, tree: Tree, span: int):
        self.index = index
        self.kind = kind
        self.label = tree.label
        self.tree = tree
        self.children: Tuple["_Vertex", ...] = ()
        self.span = span
        self.cap = 0
        self.local_minus = 0.0
        self.minus: Optional[float] = None


def _compile(model: Tree) -> Tuple[_Vertex, int]:
    """Number the vertices of ``model`` in preorder; returns the root
    vertex and the vertex count."""
    vertices: List[_Vertex] = []

    def visit(tree: Tree, span: int) -> _Vertex:
        vertex = _Vertex(len(vertices), _KINDS.get(tree.label, _LEAF), tree, span)
        vertices.append(vertex)
        if vertex.kind == _LEAF:
            vertex.local_minus = 1.0
        elif vertex.kind in (_STAR, _PLUS):
            body = tree.children[0]
            vertex.cap = _segment_cap(body)
            # the body is offered segments of at most cap items
            span = min(span, vertex.cap)
            if vertex.kind == _PLUS:
                vertex.local_minus = _local_min_weight(body)
        vertex.children = tuple(visit(child, span) for child in tree.children)
        return vertex

    return visit(model, _UNBOUNDED), len(vertices)


def _segment_cap(body: Tree) -> int:
    """Longest segment one body repetition may be offered.

    A repetition of a *bounded* body (no ``*``/``+`` inside) can match
    at most ``maxlen(body)`` items; extras interleaved within a
    repetition cost the same as extras between repetitions unless they
    sit strictly between matched items, so a window of
    ``3 * maxlen + 4`` preserves optimality except for adversarial runs
    of > 2·maxlen foreign items *inside* one repetition — in which case
    the computed similarity is a (slightly low) valid alignment score.
    Unbounded bodies get no cap.

    This turns the repetition DP from O(n²) segments into O(n·cap) on
    the wide, flat elements real documents have: extending one
    repetition row (one start ``lo``) by one span end offers at most
    ``cap`` segments, so the row up to the end ``n`` of the item list
    reads O(n·cap) body cells, and every span end that starts at ``lo``
    shares it.  The body cells themselves are the ``(start, end)``
    pairs with ``end - start <= cap``: O(n·cap) of them over the whole
    run, each stored once and, for a leaf body, computed in O(cap).
    """
    max_length = _max_word_length(body)
    return _UNBOUNDED if max_length is None else 3 * max_length + 4


class _SpanMatcher:
    """One DP run: a fixed item list, mode and depth, and the row tables
    of one compiled content model.

    ``results[v][lo][hi - lo]`` is the best triple of vertex ``v`` on
    ``items[lo:hi]`` (``None`` until computed).  A row has a slot per
    span ``v`` can be asked for: inside a repetition body offered
    segments of at most ``cap`` items that is ``cap + 1`` slots, not
    one per item to the end of the list.  Sequence and repetition
    vertices fill their result rows left to right from the state of
    their own recurrence (one per (vertex, ``lo``)), which grows on
    demand and is shared by every ``hi``: for a fixed (vertex, ``lo``)
    the recurrence meets the same candidates in the same order whatever
    ``hi`` is.  Every other vertex computes the cells it is asked for.

    Triples are plain ``(plus, minus, common)`` tuples inside a run, and
    every sum, score and first-maximum tie-break is the one the
    per-span formulation (the test oracle, ``tests/span_oracle.py``)
    computes: a candidate replaces the best so far
    only when its score ``c - alpha*p - beta*m`` is strictly higher, so
    ties keep the earliest candidate, which prefers structurally simpler
    alignments.  Triples never hold ``-0.0``, so where that formulation
    adds an empty triple (``x + 0.0``) the tuple is taken as is.
    """

    __slots__ = (
        "owner",
        "elements",
        "weights",
        "prefix",
        "local",
        "depth",
        "alpha",
        "beta",
        "results",
        "recurrences",
        "matches",
        "child_triples",
        "cells",
    )

    def __init__(
        self,
        owner: StructureMatcher,
        size: int,
        elements: List[Optional[Element]],
        weights: List[float],
        mode: str,
        depth: int,
    ):
        self.owner = owner
        self.elements = elements
        self.weights = weights
        # prefix sums of item weights for O(1) span-plus costs
        total = 0.0
        prefix = [total]
        for weight in weights:
            total += weight
            prefix.append(total)
        self.prefix = prefix
        self.local = mode == "local"
        self.depth = depth
        self.alpha = owner.config.alpha
        self.beta = owner.config.beta
        self.results: List[Optional[List[Optional[list]]]] = [None] * size
        # (vertex index, lo) -> a sequence's interval-DP columns, one
        # list per part, or a repetition's (none, some) lists
        self.recurrences: Dict[Tuple[int, int], Sequence[list]] = {}
        # leaf vertex index -> (item indices, tag factors) of its matches
        self.matches: List[Optional[Tuple[List[int], List[float]]]] = [None] * size
        # item index -> the triple of matching that item to a leaf
        self.child_triples: List[Optional[tuple]] = [None] * len(weights)
        self.cells = 0

    # -- tables ----------------------------------------------------------

    def _starts(self, vertex: _Vertex) -> List[Optional[list]]:
        """The result rows of ``vertex``, one slot per start."""
        starts = self.results[vertex.index]
        if starts is None:
            starts = self.results[vertex.index] = [None] * len(self.prefix)
        return starts

    def cell(self, vertex: _Vertex, lo: int, hi: int) -> tuple:
        """The best triple of ``vertex`` on ``items[lo:hi]``."""
        starts = self._starts(vertex)
        row = starts[lo]
        if row is None:
            row = starts[lo] = [None] * min(len(self.prefix) - lo, vertex.span + 1)
        result = row[hi - lo]
        if result is None:
            kind = vertex.kind
            if kind == _AND:
                self._extend_sequence(vertex, lo, hi, row)
            elif kind == _STAR or kind == _PLUS:
                self._extend_repetition(vertex, lo, hi, row)
            else:
                row[hi - lo] = self._point(vertex, lo, hi)
                self.cells += 1
            result = row[hi - lo]
        return result

    # -- row vertices ------------------------------------------------------

    def _extend_sequence(self, vertex: _Vertex, lo: int, hi: int, row: list) -> None:
        """Interval DP: partition ``items[lo:end]`` among the sequence
        parts, for every ``end`` up to ``hi`` not yet in the row.

        Column ``k`` holds, per ``end``, the best triple matching parts
        ``0..k`` to ``items[lo:end]``; the first maximum over split
        points ascending wins.
        """
        parts = vertex.children
        key = (vertex.index, lo)
        columns = self.recurrences.get(key)
        if columns is None:
            columns = self.recurrences[key] = [[] for _ in parts]
        alpha = self.alpha
        beta = self.beta
        cell = self.cell
        first_part = parts[0]
        first = columns[0]
        later = [
            (parts[k], self._starts(parts[k]), columns[k - 1], columns[k])
            for k in range(1, len(parts))
        ]
        for end in range(lo + len(first), hi + 1):
            # the first part extends the empty triple at lo
            first.append(cell(first_part, lo, end))
            last = first
            for part, starts, previous, column in later:
                chosen = None
                chosen_score = _NEG_INF
                for split in range(lo, end + 1):
                    part_row = starts[split]
                    triple = part_row[end - split] if part_row is not None else None
                    if triple is None:
                        triple = cell(part, split, end)
                    base = previous[split - lo]
                    plus = base[0] + triple[0]
                    minus = base[1] + triple[1]
                    common = base[2] + triple[2]
                    score = common - alpha * plus - beta * minus
                    if score > chosen_score:
                        chosen = (plus, minus, common)
                        chosen_score = score
                column.append(chosen)
                last = column
            row[end - lo] = last[end - lo]
            self.cells += 1

    def _extend_repetition(self, vertex: _Vertex, lo: int, hi: int, row: list) -> None:
        """Segment DP for ``*`` and ``+``, for every span end up to
        ``hi`` not yet in the row.

        ``none[k]``/``some[k]`` are the best triples covering
        ``items[lo:lo + k]`` with zero / at least one body repetition;
        between repetitions, individual items may be skipped as plus.
        """
        key = (vertex.index, lo)
        state = self.recurrences.get(key)
        if state is None:
            state = self.recurrences[key] = ([ZERO], [None])
            row[0] = self._repetition_result(vertex, lo, 0, ZERO, None)
            self.cells += 1
        none, some = state
        body = vertex.children[0]
        body_starts = self._starts(body)
        cap = vertex.cap
        weights = self.weights
        alpha = self.alpha
        beta = self.beta
        cell = self.cell
        for offset in range(len(none), hi - lo + 1):
            position = lo + offset
            weight = weights[position - 1]
            previous = none[offset - 1]
            none_here = (previous[0] + weight, previous[1], previous[2])
            none.append(none_here)
            chosen = None
            chosen_score = _NEG_INF
            previous = some[offset - 1]
            if previous is not None:
                plus = previous[0] + weight
                chosen = (plus, previous[1], previous[2])
                chosen_score = previous[2] - alpha * plus - beta * previous[1]
            for start in range(max(lo, position - cap), position):
                body_row = body_starts[start]
                segment = body_row[position - start] if body_row is not None else None
                if segment is None:
                    segment = cell(body, start, position)
                segment_plus, segment_minus, segment_common = segment
                base = none[start - lo]
                plus = base[0] + segment_plus
                minus = base[1] + segment_minus
                common = base[2] + segment_common
                score = common - alpha * plus - beta * minus
                if score > chosen_score:
                    chosen = (plus, minus, common)
                    chosen_score = score
                base = some[start - lo]
                if base is not None:
                    plus = base[0] + segment_plus
                    minus = base[1] + segment_minus
                    common = base[2] + segment_common
                    score = common - alpha * plus - beta * minus
                    if score > chosen_score:
                        chosen = (plus, minus, common)
                        chosen_score = score
            some.append(chosen)
            row[offset] = self._repetition_result(vertex, lo, offset, none_here, chosen)
            self.cells += 1

    def _repetition_result(
        self,
        vertex: _Vertex,
        lo: int,
        offset: int,
        none_here: tuple,
        some_here: Optional[tuple],
    ) -> tuple:
        """The repetition's triple on ``items[lo:lo + offset]``: the
        best of at least one repetition, and — for ``*`` — none at all,
        or — for ``+`` — none with the body's minimal minus owed, or
        one repetition of the empty span."""
        candidates = [] if some_here is None else [some_here]
        if vertex.kind == _PLUS:
            owed = self._minus(vertex) if not self.local else vertex.local_minus
            candidates.append((none_here[0], none_here[1] + owed, none_here[2]))
            if offset == 0:
                candidates.append(self.cell(vertex.children[0], lo, lo))
        else:
            candidates.append(none_here)
        return self._first_best(candidates)

    # -- point vertices ----------------------------------------------------

    def _point(self, vertex: _Vertex, lo: int, hi: int) -> tuple:
        kind = vertex.kind
        if kind == _LEAF:
            return self._match_leaf(vertex, lo, hi)
        if kind == _OR:
            return self._first_best(
                [self.cell(child, lo, hi) for child in vertex.children]
            )
        span = self.prefix[hi] - self.prefix[lo]
        if kind == _OPT:
            # skip (the span all plus, no minus) unless matching is better
            return self._first_best([(span, 0.0, 0.0), self.cell(vertex.children[0], lo, hi)])
        if kind == _PCDATA:
            # text items common, element items plus
            plus = common = 0.0
            elements = self.elements
            weights = self.weights
            for index in range(lo, hi):
                if elements[index] is None:
                    common += 1.0
                else:
                    plus += weights[index]
            return (plus, 0.0, common)
        if kind == _ANY:
            return (0.0, 0.0, span)
        return (span, 0.0, 0.0)  # EMPTY

    def _match_leaf(self, vertex: _Vertex, lo: int, hi: int) -> tuple:
        """Match one item of the leaf's tag (the rest plus), or none
        (the span plus, the leaf's minimal instance minus)."""
        prefix = self.prefix
        alpha = self.alpha
        beta = self.beta
        span = prefix[hi] - prefix[lo]
        owed = vertex.local_minus if self.local else self._minus(vertex)
        chosen = (span, owed, 0.0)
        chosen_score = 0.0 - alpha * span - beta * owed
        matches = self.matches[vertex.index]
        if matches is None:
            matches = self._leaf_matches(vertex)
        indices, factors = matches
        child_triples = self.child_triples
        for at in range(bisect_left(indices, lo), bisect_left(indices, hi)):
            index = indices[at]
            factor = factors[at]
            matched = child_triples[index]
            if matched is None:
                matched = self._child_triple(index)
            common = matched[2]
            if factor < 1.0:
                common = common * factor
            plus = (matched[0] + (prefix[index] - prefix[lo])) + (
                prefix[hi] - prefix[index + 1]
            )
            minus = matched[1]
            score = common - alpha * plus - beta * minus
            if score > chosen_score:
                chosen = (plus, minus, common)
                chosen_score = score
        return chosen

    # -- helpers -----------------------------------------------------------

    def _first_best(self, candidates: List[tuple]) -> tuple:
        """The first candidate of the highest score."""
        alpha = self.alpha
        beta = self.beta
        chosen = candidates[0]
        chosen_score = chosen[2] - alpha * chosen[0] - beta * chosen[1]
        for candidate in candidates[1:]:
            score = candidate[2] - alpha * candidate[0] - beta * candidate[1]
            if score > chosen_score:
                chosen = candidate
                chosen_score = score
        return chosen

    def _minus(self, vertex: _Vertex) -> float:
        """Global-mode minus of a missing leaf or an empty ``+``: the
        minimal instance size, cached on the compiled vertex."""
        minus = vertex.minus
        if minus is None:
            owner = self.owner
            if vertex.kind == _LEAF:
                minus = owner._min_weight(vertex.label)
            else:
                minus = owner._min_model_weight(vertex.children[0].tree)
            vertex.minus = minus
        return minus

    def _leaf_matches(self, vertex: _Vertex) -> Tuple[List[int], List[float]]:
        """The item indices (ascending, for bisection) and tag factors of
        every element item the leaf's tag matches."""
        tags = self.owner.tags
        label = vertex.label
        indices: List[int] = []
        factors: List[float] = []
        for index, element in enumerate(self.elements):
            if element is None:
                continue
            factor = tags.match(element.tag, label)
            if factor > 0:
                indices.append(index)
                factors.append(factor)
        matches = self.matches[vertex.index] = (indices, factors)
        return matches

    def _child_triple(self, index: int) -> tuple:
        """Triple for matching element item ``index`` to a leaf of its
        tag: common 1 for the tag, plus (in global mode, within the
        depth guard) the triple of its own content."""
        owner = self.owner
        if self.local or self.depth >= owner.config.max_depth:
            triple = (0.0, 0.0, 1.0)
        else:
            element = self.elements[index]
            assert element is not None
            decl_name = owner._declared_name(element.tag)
            if decl_name is None:
                sub = (sum(owner._children(element, "global")[1]), 0.0, 0.0)
            else:
                sub = owner.triple_against(element, decl_name, "global", self.depth + 1)
            triple = (sub[0], sub[1], sub[2] + 1.0)
        self.child_triples[index] = triple
        return triple


def _max_word_length(model: Tree) -> Optional[int]:
    """Longest word of a content model, or ``None`` when unbounded."""
    label = model.label
    if label in (cm.PCDATA, cm.ANY, cm.EMPTY):
        return 0
    if cm.is_element_label(label):
        return 1
    if label in (cm.STAR, cm.PLUS):
        inner = _max_word_length(model.children[0])
        return 0 if inner == 0 else None
    if label == cm.OPT:
        return _max_word_length(model.children[0])
    lengths = [_max_word_length(child) for child in model.children]
    if any(length is None for length in lengths):
        return None
    if label == cm.AND:
        return sum(lengths)  # type: ignore[arg-type]
    return max(lengths)  # type: ignore[arg-type,type-var]


def _required_labels(model: Tree) -> List[str]:
    """The element labels the minimal instance of ``model`` consults:
    all but those under ``?`` and ``*``."""
    label = model.label
    if label in (cm.PCDATA, cm.ANY, cm.EMPTY, cm.OPT, cm.STAR):
        return []
    if cm.is_element_label(label):
        return [label]
    return [name for child in model.children for name in _required_labels(child)]


def _local_min_weight(model: Tree) -> float:
    """Minimal number of required direct children of a model (local mode)."""
    label = model.label
    if label in (cm.PCDATA, cm.ANY, cm.EMPTY):
        return 0.0
    if cm.is_element_label(label):
        return 1.0
    if label == cm.AND:
        return sum(_local_min_weight(child) for child in model.children)
    if label == cm.OR:
        return min(_local_min_weight(child) for child in model.children)
    if label in (cm.OPT, cm.STAR):
        return 0.0
    if label == cm.PLUS:
        return _local_min_weight(model.children[0])
    raise ValueError(f"unknown content-model label {label!r}")
