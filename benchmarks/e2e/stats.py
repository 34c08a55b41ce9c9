"""Small statistics the benchmark and its comparison tool share."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

#: Percentiles a timing may be reported at, lowest first.
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
#: A tail percentile must have at least this many samples above it.
MIN_TAIL_SAMPLES = 10


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile of :data:`PERCENTILES` that has at least
    :data:`MIN_TAIL_SAMPLES` of ``n`` samples above it, or None."""
    best = None
    for p in PERCENTILES:
        if n - _rank(n, p) >= MIN_TAIL_SAMPLES:
            best = p
    return best


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the ``p``-th percentile of ``n`` samples
    (exact arithmetic, so 99.9 of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(n * Fraction(str(p)) / 100))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), p) - 1]


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them (a single value is its own quartiles)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def digest(data: dict) -> str:
    """sha256 of a result's canonical JSON form."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Ledger:
    """Operations attempted and failed.  An operation fails when it
    raises, ends in a state other than ``done``, times out, leaves a
    service worker alive, or returns a result whose digest differs from
    the reference."""

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
