"""Sample statistics and arrival schedules for the benchmark (stdlib only).

Percentiles use the nearest-rank rule.  A percentile is *supported* only
when at least :data:`MIN_BEYOND` samples lie beyond it, so a tail figure is
never read off a handful of requests.
"""

from __future__ import annotations

import math
import random
import statistics

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10

#: Percentiles tried, highest first, when reporting a tail.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)


def nearest_rank(samples, q: float) -> float:
    """The nearest-rank ``q``-th percentile of a non-empty sample."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q``-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples carry the ``q``-th percentile (MIN_BEYOND beyond it)."""
    return n > 0 and beyond(n, q) >= MIN_BEYOND


def tail(samples) -> tuple[float, float] | None:
    """``(q, value)`` for the highest supported percentile, or None."""
    for q in TAIL_PERCENTILES:
        if supported(len(samples), q):
            return q, nearest_rank(samples, q)
    return None


def describe(samples, scale: float = 1.0, unit: str = "") -> str:
    """``p50=… p99=… (n=…)`` with only the percentiles the sample supports."""
    n = len(samples)
    if n == 0:
        return "no samples (n=0)"
    parts = [f"median={scale * statistics.median(samples):.4g}{unit}"]
    high = tail(samples)
    if high is not None and high[0] > 50.0:
        parts.append(f"p{high[0]:g}={scale * high[1]:.4g}{unit}")
    elif n > 1:
        parts.append("no tail percentile (too few samples)")
    return f"{' '.join(parts)} (n={n})"


def median_of_windows(groups, statistic) -> float:
    """The median over non-empty windows of ``statistic(window)``.

    A burst of interference from outside the benchmark moves the windows it
    hits; as long as it covers under half of them, the median stays put.
    """
    return statistics.median(statistic(group) for group in groups if group)


def percentile_line(name: str, samples, q: float, scale: float = 1.0, unit: str = "") -> str:
    """``name: value (n=…)``, or why the sample cannot carry the percentile."""
    n = len(samples)
    if supported(n, q):
        return f"{name}: {scale * nearest_rank(samples, q):.4g}{unit} (n={n})"
    return (f"{name}: not reported: {beyond(n, q) if n else 0} of n={n} samples lie beyond "
            f"p{q:g}, fewer than {MIN_BEYOND}")


def steal_share(samples, start: float, end: float) -> float:
    """Share of host CPU time stolen between ``start`` and ``end``.

    ``samples`` are ``(time, steal_ticks, total_ticks)``; the interval is
    read between the last sample at or before ``start`` and the first at or
    after ``end`` (0 when the samples do not bracket it).
    """
    before = [sample for sample in samples if sample[0] <= start]
    after = [sample for sample in samples if sample[0] >= end]
    if not before or not after:
        return 0.0
    first, last = max(before), min(after)
    total = last[2] - first[2]
    return (last[1] - first[1]) / total if total > 0 else 0.0


def quiet(spans, samples, limit: float, minimum: int) -> tuple[list[int], bool]:
    """Indices of the ``(start, end)`` spans whose steal share is at most ``limit``.

    Falls back to every span (and returns False) when fewer than
    ``minimum`` spans are quiet.
    """
    kept = [i for i, (start, end) in enumerate(spans)
            if steal_share(samples, start, end) <= limit]
    if len(kept) >= minimum:
        return kept, True
    return list(range(len(spans))), False


def poisson_schedule(rate: float, duration: float, seed: int) -> list[float]:
    """Arrival offsets (seconds) of a Poisson process at ``rate`` per second.

    Deterministic in ``seed``; every offset lies in ``[0, duration)``.
    """
    if rate <= 0 or duration <= 0:
        return []
    rng = random.Random(seed)
    arrivals = []
    at = rng.expovariate(rate)
    while at < duration:
        arrivals.append(at)
        at += rng.expovariate(rate)
    return arrivals
