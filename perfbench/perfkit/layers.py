"""Per-layer figures derived from spans, counters and client timings.

Every function here is pure: it takes recorded spans or scraped counters
and returns numbers, so the derivations are unit-tested apart from any
running server.
"""

from __future__ import annotations

import statistics

from perfkit.spans import covered
from perfkit.stats import tail


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def batching_waits(quote_spans, prepare_spans, batch_spans) -> list[float]:
    """Per quote: its wall time minus its ``prepare_rows`` and its batch's kernel time.

    That remainder is the admission wait plus the batch-window wait (plus
    the event-loop hops around them).  A quote's prepare span is its child;
    its batch is the ``quote_batch`` span that priced the prepared block
    (``attrs["block"]`` in ``attrs["blocks"]``) inside the quote's interval.
    """
    prepare_of = {span.parent: span for span in prepare_spans}
    batches = sorted(batch_spans, key=lambda span: span.start)
    waits = []
    for quote in quote_spans:
        prepare = prepare_of.get(quote.id)
        if prepare is None:
            continue
        block = prepare.attrs.get("block")
        batch = next(
            (
                span
                for span in batches
                if span.start >= prepare.end
                and span.end <= quote.end
                and block in span.attrs.get("blocks", ())
            ),
            None,
        )
        if batch is None:
            continue
        waits.append(quote.duration - prepare.duration - batch.duration)
    return waits


def hop_ms(route_seconds, worker_sum_seconds: float, worker_count: float) -> float:
    """Supervisor proxy hop: mean routing time minus the worker's own mean.

    ``route_seconds`` are the supervisor's ``/quote`` routing spans;
    ``worker_sum_seconds``/``worker_count`` come from the workers'
    ``repro_http_request_seconds{route="/quote"}`` histograms.
    """
    route = mean(route_seconds)
    worker = ratio(worker_sum_seconds, worker_count)
    return 1e3 * (route - worker)


def histogram_totals(families: dict, name: str, **labels) -> tuple[float, float]:
    """``(sum, count)`` over worker-labelled series of histogram ``name``.

    ``families`` is :func:`repro.obs.metrics.parse_exposition` output; only
    series carrying a ``worker`` label and every given label count.
    """
    samples = families.get(name, {}).get("samples", {})
    wanted = [f'{key}="{value}"' for key, value in labels.items()] + ['worker="']
    total = count = 0.0
    for key, value in samples.items():
        if not all(part in key for part in wanted):
            continue
        if key.startswith(f"{name}_sum"):
            total += value
        elif key.startswith(f"{name}_count"):
            count += value
    return total, count


def counter_total(families: dict, name: str) -> float:
    return sum(families.get(name, {}).get("samples", {}).values())


def overlaps(start: float, end: float, intervals) -> bool:
    return any(start < other_end and other_start < end for other_start, other_end in intervals)


def split_by_refit(quotes, refits) -> tuple[list[float], list[float]]:
    """Quote latencies split into those overlapping a refit and the rest.

    ``quotes`` are ``(due, done)`` pairs; ``refits`` ``(sent, done)`` pairs.
    """
    inside, outside = [], []
    for due, done in quotes:
        (inside if overlaps(due, done, refits) else outside).append(done - due)
    return inside, outside


def tail_ms(latencies) -> float:
    """The highest supported percentile in ms (0 when there is none)."""
    high = tail(latencies)
    return 1e3 * high[1] if high is not None else 0.0


def outermost(spans, names, exclude=()):
    """Spans named in ``names`` that are not nested inside another such span.

    Spans nested inside a span named in ``exclude`` are dropped too.
    """
    by_id = {span.id: span for span in spans}
    result = []
    for span in spans:
        if span.name not in names:
            continue
        node = by_id.get(span.parent)
        while node is not None and node.name not in names and node.name not in exclude:
            node = by_id.get(node.parent)
        if node is None:
            result.append(span)
    return result


def refit_breakdown(refits, spans) -> dict:
    """Mean solver / apply-delta / save seconds per refit, and the remainder.

    ``refits`` are client ``(sent, done)`` round trips; spans named
    ``refit.solver``, ``refit.apply_delta`` and ``refit.save`` that start
    inside a round trip are charged to it.  The solver figure includes the
    delta it applies to its own engine.  The rotation share is the round
    trip minus the union of those spans: the workers' rolling reload,
    routing, JSON decoding and the HTTP exchange.
    """
    names = ("refit.solver", "refit.apply_delta", "refit.save")
    per = {name: [] for name in names}
    rotate = []
    tops = {name: outermost(spans, {name}) for name in names}
    for sent, done in refits:
        inside = []
        for name in names:
            own = [span for span in tops[name] if sent <= span.start <= done]
            per[name].append(sum(span.duration for span in own))
            inside.extend(own)
        rotate.append((done - sent) - covered((span.start, span.end) for span in inside))
    return {
        "refit.solver_s": mean(per["refit.solver"]),
        "refit.apply_delta_s": mean(per["refit.apply_delta"]),
        "refit.save_s": mean(per["refit.save"]),
        "refit.rotate_s": mean(rotate),
    }
