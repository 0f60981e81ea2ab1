"""Percentiles that say how many samples back them.

A tail percentile is only reported when at least :data:`MIN_BEYOND`
samples lie beyond it; with fewer, the "p99" of a run is one or two
unlucky samples and moves from run to run for no reason.
"""

from __future__ import annotations

import math
import statistics
from typing import NamedTuple, Sequence

#: samples that must lie strictly above a reported tail percentile
MIN_BEYOND = 10
#: tail percentiles :func:`highest_supported` tries, highest first
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0)


class Percentile(NamedTuple):
    value: float
    q: float
    #: samples the percentile was taken over
    count: int
    #: samples strictly beyond the percentile's rank
    beyond: int


class TooFewSamples(ValueError):
    """A tail percentile without :data:`MIN_BEYOND` samples beyond it."""


def rank(count: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` among ``count`` samples."""
    if count < 1:
        raise TooFewSamples("no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    # round first so 99/100*1000 does not become 990.0000000000001
    return max(1, math.ceil(round(q / 100.0 * count, 9)))


def percentile(values: Sequence[float], q: float, min_beyond: int = 0) -> Percentile:
    """Nearest-rank percentile ``q`` of ``values`` with its sample count.

    Raises :class:`TooFewSamples` when fewer than ``min_beyond`` samples
    lie beyond the rank.
    """
    ordered = sorted(values)
    position = rank(len(ordered), q)
    beyond = len(ordered) - position
    if beyond < min_beyond:
        raise TooFewSamples(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it, "
            f"needs {min_beyond}"
        )
    return Percentile(ordered[position - 1], q, len(ordered), beyond)


def tail(values: Sequence[float], q: float = 99.0) -> Percentile:
    """A tail percentile that keeps :data:`MIN_BEYOND` samples beyond it."""
    return percentile(values, q, MIN_BEYOND)


def highest_supported(values: Sequence[float]) -> Percentile:
    """The highest of :data:`TAIL_CANDIDATES` with :data:`MIN_BEYOND`
    samples beyond it (the median when nothing higher is supported)."""
    for q in TAIL_CANDIDATES:
        try:
            return tail(values, q)
        except TooFewSamples:
            continue
    return percentile(values, 50.0)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median, with the
    quartiles ``statistics.quantiles(values, n=4)`` gives."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
