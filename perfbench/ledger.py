"""An outside-in span ledger: timing wrappers around public functions.

The benchmark times each layer of the program from the outside.  It
replaces a public function (or a method, on its class) with a wrapper
that records one span per call: ``(span_id, parent_id, name, thread,
start_ns, end_ns)``.  The parent is the innermost wrapped call still
open on the same thread, so spans form one tree per thread.  Spans stay
in memory until the run ends; :func:`self_times` and :func:`totals`
turn them into per-layer costs afterwards, where a layer's *self* time
is its span's duration minus the durations of the spans nested
directly inside it.

Nothing here knows about the program: :mod:`layers` says which
functions to wrap.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

#: ``(span_id, parent_id, name, thread, start_ns, end_ns)``
Span = Tuple[int, Optional[int], str, str, int, int]


class Ledger:
    """Owns the wrappers it installs and the spans they record."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: List[Span] = []
        #: counts the wrappers' ``note`` callbacks derive from results
        self.notes: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(
        self,
        function: Callable,
        name: str,
        note: Optional[Callable[[Any, tuple], Dict[str, int]]] = None,
    ) -> Callable:
        """``function`` wrapped to record a span named ``name``; ``note``
        maps ``(result, args)`` to counts added to :attr:`notes`."""
        clock, spans, ids = self.clock, self.spans, self._ids
        stack_of = self._stack
        current_thread = threading.current_thread

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, current_thread().name, start, end))
            if note is not None:
                self.notes.update(note(result, args))
            return result

        return wrapper

    def wrap_method(self, cls: type, attr: str, name: str, note=None) -> None:
        """Wrap ``cls.attr`` — a method, or a property's getter — for
        every instance (restored by :meth:`uninstall`)."""
        original = cls.__dict__[attr]
        if isinstance(original, property):
            wrapper = property(self.timed(original.fget, name, note))
        else:
            wrapper = self.timed(original, name, note)
        self._patch(cls, attr, original, wrapper)

    def wrap_function(self, module: Any, attr: str, name: str, note=None) -> None:
        """Wrap ``module.attr`` and every loaded module global bound to
        the same function object under the same name (modules that did
        ``from module import attr``)."""
        original = getattr(module, attr)
        wrapper = self.timed(original, name, note)
        holders = [module] + [
            other
            for other in list(sys.modules.values())
            if other is not None
            and other is not module
            and getattr(other, "__dict__", {}).get(attr) is original
        ]
        for holder in holders:
            self._patch(holder, attr, original, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Each span's duration minus the durations of its direct children."""
    spans = list(spans)
    nested: Dict[int, int] = defaultdict(int)
    for _span_id, parent, _name, _thread, start, end in spans:
        if parent is not None:
            nested[parent] += end - start
    return {
        span_id: (end - start) - nested[span_id]
        for span_id, _parent, _name, _thread, start, end in spans
    }


class Total(NamedTuple):
    calls: int
    #: summed durations of the name's outermost spans (a span nested in
    #: a span of the same name is already inside its parent's duration)
    inclusive_ns: int
    self_ns: int


def totals(
    spans: Iterable[Span], where: Optional[Callable[[Span], bool]] = None
) -> Dict[str, Total]:
    """Per-name call count, inclusive and self time (optionally over the
    spans ``where`` accepts; self time always subtracts every child)."""
    spans = list(spans)
    own = self_times(spans)
    names = {span[0]: span[2] for span in spans}
    calls: Counter = Counter()
    inclusive: Counter = Counter()
    self_ns: Counter = Counter()
    for span in spans:
        if where is not None and not where(span):
            continue
        span_id, parent, name, _thread, start, end = span
        calls[name] += 1
        self_ns[name] += own[span_id]
        if parent is None or names.get(parent) != name:
            inclusive[name] += end - start
    return {
        name: Total(calls[name], inclusive[name], self_ns[name]) for name in calls
    }


def nested_calls(spans: Iterable[Span], parent_name: str, child_name: str) -> int:
    """How many ``child_name`` spans sit directly under a ``parent_name`` span."""
    spans = list(spans)
    names = {span[0]: span[2] for span in spans}
    return sum(
        1
        for _span_id, parent, name, _thread, _start, _end in spans
        if name == child_name and parent is not None and names.get(parent) == parent_name
    )
