"""Percentiles that refuse to report a tail they have not sampled."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

#: a percentile is only reported with at least this many samples beyond it
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def samples_needed(q: float) -> int:
    """Smallest sample count with ``MIN_BEYOND`` samples beyond the
    ``q``-th percentile."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    return math.ceil(MIN_BEYOND * 100 / (100 - q) - 1e-9)


@dataclass(frozen=True)
class Stat:
    """A measured value with the number of samples behind it."""

    value: float
    n: int


def percentile(values: Sequence[float], q: float) -> Stat:
    """The ``q``-th percentile (linear interpolation between order
    statistics) and the sample count, or :class:`TooFewSamples`."""
    need = samples_needed(q)
    n = len(values)
    if n < need:
        raise TooFewSamples(
            f"p{q:g} needs >= {need} samples for {MIN_BEYOND} beyond it; "
            f"got {n}")
    ordered = sorted(values)
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return Stat(value, n)


def median(values: Sequence[float]) -> Stat:
    """Median of any non-empty sample (used for repeated set-up timings
    and per-run aggregates, which report no tail)."""
    if not values:
        raise TooFewSamples("median of an empty sample")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    value = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    return Stat(value, n)
