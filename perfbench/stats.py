"""The benchmark's own arithmetic: medians, percentiles, self time, ratios.

Pure functions over plain numbers, so ``perfbench/tests`` can pin them
without running the program.
"""

from __future__ import annotations

import statistics
from typing import List, Optional, Sequence, Tuple

# One recorded call into a layer: (name, start_s, end_s, parent index or
# None, attributes).  Parent indices point into the same span list.
Span = Tuple[str, float, float, Optional[int], dict]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks.

    An empty sequence has no percentile; it reads 0.0 so that a layer
    that did no work reports zero instead of failing the run.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles(values, n=4)``'s quartiles)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


def ratio(part: float, base: float) -> float:
    """``part / base``; 0.0 when there was no base (nothing attempted)."""
    return part / base if base else 0.0


def failure_share(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("a run attempts at least one operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed of {attempted} attempted")
    return failed / attempted


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one call stack per process, so a span's children
    lie inside it and one after another.
    """
    result = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            result[parent] -= end - start
    return result
