"""Tests for the benchmark's own helpers (stdlib and perfkit only).

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERFBENCH))

from perfkit import calibrate, catalog, layers, load, stats  # noqa: E402
from perfkit.spans import Span, Tracer, covered, layer_table, self_times  # noqa: E402


def span(id, name, start, end, parent=None, **attrs):
    return Span(id, name, start, end, parent, attrs)


# ----------------------------------------------------------- schedule
def test_poisson_schedule_is_deterministic_in_its_seed():
    first = stats.poisson_schedule(80.0, 6.0, seed=3)
    assert first == stats.poisson_schedule(80.0, 6.0, seed=3)
    assert first != stats.poisson_schedule(80.0, 6.0, seed=4)
    assert first == sorted(first)
    assert all(0.0 <= at < 6.0 for at in first)
    assert 380 < len(first) < 580  # 480 expected; ±4.5 standard deviations


def test_poisson_schedule_empty_for_no_rate():
    assert stats.poisson_schedule(0.0, 5.0, seed=1) == []


# --------------------------------------------------------- percentiles
def test_p99_needs_ten_samples_beyond_it():
    assert stats.beyond(1000, 99.0) == 10
    assert stats.supported(1000, 99.0)
    assert not stats.supported(999, 99.0)
    assert "not reported: 9 of n=999" in stats.percentile_line("p99", list(range(999)), 99.0)
    assert stats.percentile_line("p99", list(range(1000)), 99.0) == "p99: 989 (n=1000)"


def test_tail_falls_back_to_the_highest_supported_percentile():
    assert stats.tail(list(range(200))) == (95.0, 189)
    assert stats.tail(list(range(5))) is None


def test_describe_prints_sample_count_and_only_supported_percentiles():
    text = stats.describe([0.001] * 150, scale=1e3, unit=" ms")
    assert "(n=150)" in text and "p90=1 ms" in text and "p99" not in text
    assert "no tail percentile" in stats.describe([1.0, 2.0])


def test_median_of_windows_ignores_a_burst_in_a_minority_of_windows():
    groups = [[1.0] * 10 + [50.0, 50.0]] + [[1.0] * 10] * 9 + [[]]
    assert stats.median_of_windows(groups, max) == 1.0


def test_quiet_keeps_windows_with_little_host_steal():
    # (time, steal ticks, total ticks): 10% stolen in [1, 2), none elsewhere.
    samples = [(0.0, 0, 0), (1.0, 0, 200), (2.0, 20, 400), (3.0, 20, 600)]
    spans = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
    assert stats.steal_share(samples, 1.0, 2.0) == 0.1
    assert stats.steal_share(samples, 0.5, 2.5) == 20 / 600  # widened to the samples around it
    assert stats.quiet(spans, samples, limit=0.02, minimum=2) == ([0, 2], True)
    assert stats.quiet(spans, samples, limit=0.02, minimum=3) == ([0, 1, 2], False)
    assert stats.steal_share([], 0.0, 1.0) == 0.0


# ---------------------------------------------------------------- load
class FakeClient:
    """Answers every operation after a fixed service time."""

    def __init__(self, service: float) -> None:
        self.service = service

    def run(self, op) -> None:
        op.sent = time.monotonic()
        time.sleep(self.service)
        op.status, op.done = 200, time.monotonic()


def test_open_loop_sends_on_schedule_and_records_lateness():
    ops = [load.Op("quote", "/quote", b"", due=at) for at in (0.0, 0.01, 0.02, 0.03)]
    phase = load.open_loop([FakeClient(0.002), FakeClient(0.002)], ops)
    assert phase.sent == phase.succeeded == 4
    assert all(op.sent >= op.due and op.done > op.sent for op in phase.ops)
    assert all(late >= 0 for late in load.lateness(phase))


def test_closed_loop_segments_start_every_connection_together():
    make = lambda index: load.Op("quote", "/quote", b"", index=index)  # noqa: E731
    phase = load.closed_loop([FakeClient(0.001), FakeClient(0.001)], make, 0.2, segment=0.05)
    assert len(phase.segments) == 4
    for (start, end), (next_start, _) in zip(phase.segments, phase.segments[1:]):
        assert end <= next_start
    assert all(any(start <= op.due < end for start, end in phase.segments) for op in phase.ops)
    assert len(phase.host) >= phase.sent
    assert phase.succeeded == phase.sent > 8


# ----------------------------------------------------------- self time
def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        span(1, "parent", 0.0, 10.0),
        span(2, "child", 1.0, 3.0, parent=1),
        span(3, "child", 2.0, 5.0, parent=1),  # overlaps the first child
        span(4, "child", 8.0, 12.0, parent=1),  # runs past the parent
        span(5, "grandchild", 1.5, 2.5, parent=2),
    ]
    own = self_times(spans)
    assert own[1] == 10.0 - (4.0 + 2.0)
    assert own[2] == 1.0
    assert own[5] == 1.0
    table = {name: (calls, total, own_s) for name, calls, total, own_s in layer_table(spans)}
    assert table["child"] == (3, 9.0, 1.0 + 3.0 + 4.0)


def test_covered_merges_overlaps():
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([]) == 0


# ------------------------------------------------------------- tracer
def test_tracer_nests_sync_and_async_calls_and_restores():
    class Target:
        def inner(self, x):
            return x + 1

        def outer(self, x):
            return self.inner(x) * 2

        async def waiting(self, x):
            await asyncio.sleep(0)
            return self.inner(x)

    original = Target.outer
    tracer = Tracer()
    tracer.wrap(Target, "inner", "inner", attrs=lambda args, kwargs, result: {"out": result})
    tracer.wrap(Target, "outer", "outer", cpu=True)
    tracer.wrap(Target, "waiting", "waiting")
    assert Target().outer(1) == 4
    assert asyncio.run(Target().waiting(1)) == 2
    tracer.restore()
    assert Target.outer is original
    by_name = {}
    for recorded in tracer.spans:
        by_name.setdefault(recorded.name, []).append(recorded)
    outer, waiting = by_name["outer"][0], by_name["waiting"][0]
    inner_parents = {recorded.parent for recorded in by_name["inner"]}
    assert inner_parents == {outer.id, waiting.id}
    assert "cpu" in outer.attrs and by_name["inner"][0].attrs["out"] == 2
    assert json.loads(json.dumps(tracer.dump()))[0]["name"] == "inner"


# --------------------------------------------------------- derivations
def test_hop_is_route_mean_minus_worker_mean():
    assert abs(layers.hop_ms([0.010, 0.012], 0.016, 2) - 3.0) < 1e-9
    assert layers.hop_ms([], 0.0, 0) == 0.0


def test_batching_wait_is_quote_minus_prepare_minus_its_batch():
    spans = [
        span(1, "server.quote", 0.0, 0.010),
        span(2, "state.prepare_rows", 0.0, 0.001, parent=1, block=77),
        span(3, "server.quote", 0.002, 0.012),
        span(4, "state.prepare_rows", 0.002, 0.003, parent=3, block=88),
        # One batch priced both blocks; another batch is unrelated.
        span(5, "state.quote_batch", 0.006, 0.009, blocks=[77, 88]),
        span(6, "state.quote_batch", 0.004, 0.005, blocks=[99]),
    ]
    quotes = [s for s in spans if s.name == "server.quote"]
    prepares = [s for s in spans if s.name == "state.prepare_rows"]
    batches = [s for s in spans if s.name == "state.quote_batch"]
    waits = layers.batching_waits(quotes, prepares, batches)
    assert [round(w, 9) for w in waits] == [0.006, 0.006]


def test_histogram_totals_keep_worker_series_of_the_route():
    families = {"repro_http_request_seconds": {"type": "histogram", "samples": {
        'repro_http_request_seconds_sum{route="/quote",worker="0"}': 0.5,
        'repro_http_request_seconds_count{route="/quote",worker="0"}': 100,
        'repro_http_request_seconds_sum{route="/quote",worker="1"}': 0.3,
        'repro_http_request_seconds_count{route="/quote",worker="1"}': 60,
        'repro_http_request_seconds_sum{route="/healthz",worker="1"}': 9.0,
        'repro_http_request_seconds_sum{route="/quote"}': 7.0,
        'repro_http_request_seconds_bucket{route="/quote",worker="0",le="0.01"}': 90,
    }}}
    total, count = layers.histogram_totals(families, "repro_http_request_seconds", route="/quote")
    assert (round(total, 9), count) == (0.8, 160)


def test_refit_breakdown_charges_spans_to_their_round_trip():
    spans = [
        span(1, "refit.solver", 1.1, 1.5),
        span(2, "refit.apply_delta", 1.2, 1.3, parent=1),  # inside the solver
        span(3, "refit.apply_delta", 1.5, 1.6),
        span(4, "refit.save", 1.6, 1.7),
        span(5, "refit.solver", 9.0, 9.5),  # outside every round trip
    ]
    figures = layers.refit_breakdown([(1.0, 2.0)], spans)
    assert round(figures["refit.solver_s"], 9) == 0.4
    assert round(figures["refit.apply_delta_s"], 9) == 0.2
    assert round(figures["refit.save_s"], 9) == 0.1
    assert round(figures["refit.rotate_s"], 9) == 0.4


def test_split_by_refit_and_tails():
    inside, outside = layers.split_by_refit([(0.0, 0.1), (1.0, 1.2), (3.0, 3.05)], [(0.9, 1.1)])
    assert [round(x, 9) for x in inside] == [0.2]
    assert [round(x, 9) for x in outside] == [0.1, 0.05]
    assert layers.tail_ms([0.001] * 5) == 0.0


# --------------------------------------------------------- calibration
def test_speed_scales_by_the_samples_around_a_timed_piece():
    reference = calibrate.REFERENCE_SECONDS
    assert calibrate.Speed.factor(reference, reference) == 1.0
    assert calibrate.Speed.factor(2 * reference, 2 * reference) == 0.5
    assert calibrate.Speed.factor(reference, 3 * reference) == 0.5
    speed = calibrate.Speed()
    point = speed.sample(passes=3)
    assert speed.points == [point] and point > 0.0


# ------------------------------------------------------ BENCHMARK.json
def test_benchmark_json_lists_the_catalog():
    document = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert document == catalog.benchmark_json()
    end_to_end = {metric["name"]: metric for metric in document["end_to_end"]}
    assert end_to_end["setup_s"]["bound"] == max(m["bound"] for m in document["end_to_end"])
    assert all(metric["bound"] <= 0.25 for metric in document["end_to_end"])
