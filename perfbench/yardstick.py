"""A fixed pure-Python routine that tells how fast the machine is now.

On a shared virtual machine the same code runs up to 2x slower for
seconds to minutes at a time, with CPU time equal to wall time: the
slowdown is inside the CPU time, so neither CPU clocks nor the fastest
of several passes remove it.  Over 128 back-to-back batch passes of one
seed, grouped as runs of 8 or 16 passes, the run's summed fastest
per-document latencies spread by 0.18 to 0.23 of their median.

So the benchmark runs this routine next to the program's own work, at
the same moments, and reports the program's time in units of the
routine's, multiplied back to milliseconds by :data:`REFERENCE_MS`: a
time reads as if the run had had the speed at which the routine takes
:data:`REFERENCE_MS`.  Over the same passes, the median over a run's
passes of each pass's scaled time spread by 0.02 to 0.03.  The routine
never changes and never touches the program, so a program that does
more work still reads slower.

The routine does what the program does most, in miniature: it
tokenizes a fixed XML-like string into a tree of small lists and counts
the tags with dict updates (about 0.1 ms).  Its data fits in the
private caches, so the program's own memory use barely moves it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import List, Sequence

#: milliseconds the routine takes at the reference speed
REFERENCE_MS = 0.1

_TAGS = ("a", "b", "c", "item", "title", "price", "name", "desc", "entry", "note")
_rng = random.Random(20020601)
_TEXT = "<root>" + "".join(
    f"<{tag}>v{_rng.randint(0, 999)}</{tag}>" for tag in (_rng.choice(_TAGS) for _ in range(90))
) + "</root>"


def _tree(text: str) -> list:
    """``[tag, children]`` nodes for the tags of ``text``."""
    root: list = ["#", []]
    stack = [root]
    at = 0
    while True:
        start = text.find("<", at)
        if start < 0:
            return root
        end = text.index(">", start)
        name = text[start + 1 : end]
        if name.startswith("/"):
            stack.pop()
        else:
            node = [name, []]
            stack[-1][1].append(node)
            stack.append(node)
        at = end + 1


def _count(node: list, counts: dict, depth: int = 0) -> None:
    for child in node[1]:
        counts[child[0]] = counts.get(child[0], 0) + depth
        _count(child, counts, depth + 1)


def timed() -> float:
    """Milliseconds one run of the routine takes.

    The garbage collector is off meanwhile: a collection of the
    program's objects that fell inside a run would read as a slow
    machine (one full collection is about 300 runs' time) and credit
    the program with its own collection.  The routine's objects die
    with the run, so it leaves the collector's counts as it found them.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        _count(_tree(_TEXT), {})
        return (time.perf_counter_ns() - start) / 1e6
    finally:
        if was_enabled:
            gc.enable()


def sample(reps: int) -> List[float]:
    """Milliseconds each of ``reps`` back-to-back runs took."""
    return [timed() for _ in range(reps)]


def scale(times: Sequence[float]) -> float:
    """The factor that turns times measured beside the routine's
    ``times`` into reference-speed times.  The mean, not the median:
    the program's times are summed over the same spell, slow moments
    included (over 128 batch passes the median spread 0.06 to 0.13
    where the mean spread 0.02 to 0.03)."""
    return REFERENCE_MS / statistics.fmean(times)
