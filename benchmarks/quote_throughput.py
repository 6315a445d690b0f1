"""CI serving-smoke gate: batched serving must be bit-identical, and fast.

The :class:`repro.serving.QuoteServer` exists on one promise: a quote
answered from warm, micro-batched state is **bit-identical** to calling
``solution.quote()`` cold on the same rows.  This script makes CI hold it
to that promise, and records what the warm path buys:

* fits a mixed menu on the synthetic Amazon-Books workload and serves it;
* fires a mixed stream of quote requests (1–16 consumer rows each) through
  the in-process server path — admission, micro-batching, warm kernel —
  and asserts every payment vector, revenue, and coverage equals the cold
  ``solution.quote()`` answer exactly (``==``, not ``allclose``);
* hot-reloads a second solution mid-stream and asserts the same for every
  post-reload response against the *new* solution, fingerprint-pinned;
* measures sustained quotes/sec plus p50/p99 per-request latency under
  concurrent load, and the cold-vs-warm single-request speedup, once on
  the primary mixed menu (before the reload) and once on the pure
  replacement (after it) — ``summary.throughput`` keys them by menu;
* with ``--workers N`` (N >= 2), additionally boots a supervised
  multi-process fleet (:class:`repro.serving.ServingSupervisor`) behind
  one socket and holds every HTTP-routed quote to the same bit-identity
  gate; ``--chaos`` then SIGKILLs one worker mid-load and asserts **zero**
  client-visible failures — the respawn and routing failover must absorb
  the crash entirely;
* writes ``BENCH_serving.json`` (uploaded as a CI artifact) either way —
  the fleet and chaos legs ride in the same report next to the
  single-process rows.

With fewer than two cores the event loop and the kernel worker thread
share one CPU and the latency numbers measure scheduling, not serving —
the script prints a skip notice, records ``"skipped"``, and exits 0 (the
skip is visible in the artifact, not silent), mirroring ``perf_smoke.py``.

Run from the repo root::

    PYTHONPATH=src python benchmarks/quote_throughput.py
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.api import BundlingSolver, EngineConfig
from repro.core.kernels import available_cpus
from repro.data.synthetic import amazon_books_like
from repro.data.wtp_mapping import wtp_from_ratings
from repro.obs.metrics import parse_exposition
from repro.serving import QuoteServer

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

#: Alternating registry-off/registry-on pairs in the metrics-overhead leg.
OVERHEAD_PAIRS = 9


def _fit_solutions(seed: int):
    """The served solution and a distinct replacement for the reload leg."""
    dataset = amazon_books_like(n_users=400, n_items=60, seed=seed)
    wtp = wtp_from_ratings(dataset, conversion=1.25)
    primary = BundlingSolver("mixed_greedy", EngineConfig(theta=0.1)).fit(wtp)
    replacement = BundlingSolver("components", EngineConfig(theta=0.1)).fit(wtp)
    return primary, replacement, wtp.n_items


def _requests(rng, n_requests: int, n_items: int):
    """A mixed stream of request row blocks (1–16 consumers each)."""
    sizes = rng.integers(1, 17, size=n_requests)
    return [rng.uniform(0.0, 12.0, size=(int(size), n_items)) for size in sizes]


def _identical(served, cold) -> bool:
    return (
        np.array_equal(
            np.asarray(served.payments, dtype=np.float64),
            np.asarray(cold.payments, dtype=np.float64),
        )
        and served.revenue == cold.revenue
        and served.coverage == cold.coverage
    )


async def _throughput_leg(server, solution, loads, concurrency: int) -> dict:
    """Concurrent warm quotes of *loads* against the menu *server* now serves.

    ``cold_quote_ms`` is the per-request ``solution.quote()`` with its
    engine rebuild — the path the warm server replaces — on the same menu.
    """
    latencies: list[float] = []

    async def client(blocks) -> None:
        loop = asyncio.get_running_loop()
        for rows in blocks:
            started = loop.time()
            await server.quote(rows)
            latencies.append(loop.time() - started)

    per_client = [loads[index::concurrency] for index in range(concurrency)]
    started = time.perf_counter()
    await asyncio.gather(*[client(blocks) for blocks in per_client])
    wall = time.perf_counter() - started

    cold_sample = loads[: min(len(loads), 50)]
    started = time.perf_counter()
    for rows in cold_sample:
        solution.quote(rows)
    cold_per_request = (time.perf_counter() - started) / len(cold_sample)
    warm_per_request = wall / len(loads)

    latencies.sort()
    return {
        "offers": len(solution.offers),
        "quotes_per_second": round(len(loads) / wall, 1),
        "latency_p50_ms": round(1e3 * statistics.median(latencies), 3),
        "latency_p99_ms": round(1e3 * latencies[int(0.99 * (len(latencies) - 1))], 3),
        "cold_quote_ms": round(1e3 * cold_per_request, 3),
        "warm_quote_ms": round(1e3 * warm_per_request, 3),
        "warm_speedup_x": round(cold_per_request / max(warm_per_request, 1e-9), 2),
    }


async def _run_serving(args, primary, replacement, n_items, report) -> bool:
    rng = np.random.default_rng(7)
    server = QuoteServer(
        primary,
        deadline=10.0,
        queue_depth=max(args.concurrency * 4, 64),
        batch_window=args.batch_window,
        max_batch=args.max_batch,
    )
    await server.start("127.0.0.1", 0)
    try:
        # ---------------------------------------------------- bit-identity
        requests = _requests(rng, args.identity_requests, n_items)
        served = await asyncio.gather(*[server.quote(rows) for rows in requests])
        mismatches = sum(
            not _identical(quote, primary.quote(rows))
            for quote, rows in zip(served, requests)
        )
        fingerprint_ok = all(
            quote.fingerprint == primary.fingerprint() for quote in served
        )
        batched_any = any(quote.batched for quote in served)

        # ------------------------------------- throughput, primary (mixed)
        # Own generator: the reload and components legs keep their rows.
        mixed_loads = _requests(
            np.random.default_rng(8), args.throughput_requests, n_items
        )
        throughput = {
            "mixed_greedy": await _throughput_leg(
                server, primary, mixed_loads, args.concurrency
            )
        }

        # ------------------------------------------------------ hot reload
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "replacement.json"
            replacement.save(path)
            previous, current = await server.reload(path)
        reload_requests = _requests(rng, args.identity_requests // 2 or 1, n_items)
        reloaded = await asyncio.gather(
            *[server.quote(rows) for rows in reload_requests]
        )
        reload_mismatches = sum(
            not _identical(quote, replacement.quote(rows))
            for quote, rows in zip(reloaded, reload_requests)
        )
        reload_fingerprint_ok = (
            previous == primary.fingerprint()
            and current == replacement.fingerprint()
            and all(quote.fingerprint == current for quote in reloaded)
        )

        # -------------------------- throughput, replacement (pure components)
        throughput["components"] = await _throughput_leg(
            server, replacement, _requests(rng, args.throughput_requests, n_items),
            args.concurrency,
        )

        report["summary"] = {
            "identity_requests": len(requests) + len(reload_requests),
            "bit_identical": mismatches == 0 and reload_mismatches == 0,
            "mismatches": mismatches,
            "reload_mismatches": reload_mismatches,
            "fingerprints_coherent": fingerprint_ok and reload_fingerprint_ok,
            "batched_responses_seen": batched_any,
            "throughput_requests": args.throughput_requests,
            "concurrency": args.concurrency,
            "throughput": throughput,
            "gate": "every served quote bit-identical to solution.quote(), "
            "fingerprints coherent across reload",
        }
        report["server"] = {
            "batch_window_seconds": args.batch_window,
            "max_batch": args.max_batch,
            "health": server.health(),
        }
        passed = (
            mismatches == 0
            and reload_mismatches == 0
            and fingerprint_ok
            and reload_fingerprint_ok
            and batched_any
        )
        report["summary"]["passed"] = passed
        return passed
    finally:
        await server.stop()


async def _metrics_overhead(args, primary, n_items, report) -> bool:
    """Registry-on vs registry-off quotes/sec through the warm server path.

    One server runs every pass; the registry is switched on or off
    between passes.  Each of :data:`OVERHEAD_PAIRS` pairs times
    ``--overhead-repeats`` passes per side, alternating the sides pass by
    pass and flipping which side goes first from one pair to the next,
    so neither side always runs on a box the other just warmed.  A
    pair's overhead compares the best pass of each side; the recorded
    ``overhead_pct`` is the median over the pairs, with its interquartile
    range beside it — the acceptance number for the zero-overhead-when-
    disabled contract (instrumentation must cost < 2% when enabled, and
    literally one None-check when not).
    """
    rng = np.random.default_rng(23)
    blocks = _requests(rng, args.overhead_requests, n_items)
    registry = obs.MetricsRegistry()
    server = QuoteServer(
        primary,
        deadline=30.0,
        queue_depth=max(len(blocks), 64),
        batch_window=args.batch_window,
        max_batch=args.max_batch,
    )

    async def timed_pass(enabled: bool) -> float:
        if enabled:
            obs.enable_metrics(registry)
        else:
            obs.disable_metrics()
        started = time.perf_counter()
        for index in range(0, len(blocks), 16):
            await asyncio.gather(
                *[server.quote(rows) for rows in blocks[index : index + 16]]
            )
        return time.perf_counter() - started

    await server.start("127.0.0.1", 0)
    try:
        for enabled in (True, False):  # warm-up; registers every family
            await timed_pass(enabled)
        pairs = []
        for pair in range(OVERHEAD_PAIRS):
            best = {}
            for _ in range(args.overhead_repeats):
                for enabled in (False, True) if pair % 2 == 0 else (True, False):
                    wall = await timed_pass(enabled)
                    best[enabled] = min(wall, best.get(enabled, wall))
            pairs.append((len(blocks) / best[False], len(blocks) / best[True]))
    finally:
        obs.disable_metrics()
        await server.stop()
    exposition_ok = bool(parse_exposition(registry.render()))
    overheads = [100.0 * (off - on) / off for off, on in pairs]
    q1, median, q3 = statistics.quantiles(overheads, n=4)
    passed = median < 2.0 and exposition_ok
    report["metrics_overhead"] = {
        "requests_per_pass": len(blocks),
        "repeats": args.overhead_repeats,
        "pairs": OVERHEAD_PAIRS,
        "disabled_qps": round(statistics.median(off for off, _ in pairs), 1),
        "enabled_qps": round(statistics.median(on for _, on in pairs), 1),
        "overhead_pct": round(median, 2),
        "overhead_iqr_pct": [round(q1, 2), round(q3, 2)],
        "pair_overheads_pct": [round(value, 2) for value in overheads],
        "exposition_parses": exposition_ok,
        "passed": passed,
        "gate": "median metrics-on quotes/sec within 2% of metrics-off",
    }
    return passed


def _monotonic_counters(before: dict, after: dict) -> list[str]:
    """Counter series that moved backwards between two scrapes.

    Series carrying a ``worker`` label are excluded: those come from
    per-process registries that legitimately reset when a worker is
    respawned.  Supervisor-owned series (including slot-labelled ones)
    must never regress.
    """
    regressions = []
    for name, family in before.items():
        if family["type"] != "counter":
            continue
        for key, value in family["samples"].items():
            if 'worker="' in key:
                continue
            if after.get(name, {}).get("samples", {}).get(key, 0.0) < value:
                regressions.append(key)
    return regressions


async def _fleet_scrape(host, port):
    """GET /metrics returning the raw exposition text."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            (
                "GET /metrics HTTP/1.1\r\nHost: bench\r\n"
                "Content-Length: 0\r\nConnection: close\r\n\r\n"
            ).encode()
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    head, _, content = raw.partition(b"\r\n\r\n")
    status = int(head.decode("latin-1").split("\r\n")[0].split(" ", 2)[1])
    return status, content.decode("utf-8")


async def _fleet_http(host, port, method, path, payload=None):
    """One HTTP exchange against the fleet (fresh connection each time)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = b"" if payload is None else json.dumps(payload).encode()
        writer.write(
            (
                f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            ).encode()
            + body
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    head, _, content = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, json.loads(content) if content else None


def _fleet_identical(headers, body, cold, fingerprint) -> bool:
    payments = np.array([float.fromhex(p) for p in body["payments_hex"]])
    return (
        np.array_equal(payments, np.asarray(cold.payments, dtype=np.float64))
        and float.fromhex(body["revenue_hex"]) == cold.revenue
        and headers.get("x-solution-fingerprint") == fingerprint
    )


async def _run_fleet(args, primary, n_items, report) -> bool:
    """The multi-process leg: routed bit-identity, then the chaos kill."""
    from repro.serving import ServingSupervisor

    rng = np.random.default_rng(11)
    fingerprint = primary.fingerprint()
    if args.metrics:
        # Enabled before the fleet boots: workers read the parent's
        # enablement at spawn time and ship snapshots up their heartbeats.
        obs.enable_metrics()
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "primary.json"
        primary.save(path)
        fleet = ServingSupervisor(
            path,
            workers=args.workers,
            deadline=10.0,
            queue_depth=max(args.concurrency * 4, 64),
            batch_window=args.batch_window,
            max_batch=args.max_batch,
            route_budget=60.0,
        )
        started = time.perf_counter()
        host, port = await fleet.start("127.0.0.1", 0)
        launch_seconds = time.perf_counter() - started
        try:
            # ------------------------------------------ routed bit-identity
            requests = _requests(rng, args.identity_requests, n_items)
            served = await asyncio.gather(
                *[
                    _fleet_http(host, port, "POST", "/quote", {"rows": rows.tolist()})
                    for rows in requests
                ]
            )
            failures = sum(status != 200 for status, _, _ in served)
            mismatches = sum(
                status == 200
                and not _fleet_identical(
                    headers, body, primary.quote(rows), fingerprint
                )
                for (status, headers, body), rows in zip(served, requests)
            )

            # -------------------------------------------- pre-chaos scrape
            first_scrape = None
            if args.metrics:
                scrape_status, text = await _fleet_scrape(host, port)
                first_scrape = parse_exposition(text) if scrape_status == 200 else None

            # ------------------------------------------------- chaos (kill)
            chaos = {"ran": False}
            if args.chaos:
                blocks = _requests(rng, args.chaos_requests, n_items)
                chaos_failures = 0
                chaos_mismatches = 0

                async def chaos_client(client_blocks) -> None:
                    nonlocal chaos_failures, chaos_mismatches
                    for rows in client_blocks:
                        status, headers, body = await _fleet_http(
                            host, port, "POST", "/quote", {"rows": rows.tolist()}
                        )
                        if status != 200:
                            chaos_failures += 1
                        elif not _fleet_identical(
                            headers, body, primary.quote(rows), fingerprint
                        ):
                            chaos_mismatches += 1

                async def killer() -> None:
                    await asyncio.sleep(0.2)
                    victim = next(
                        (h for h in fleet.handles if h.phase == "ready" and h.pid),
                        None,
                    )
                    if victim is not None:
                        chaos["killed_pid"] = victim.pid
                        os.kill(victim.pid, signal.SIGKILL)

                per_client = [
                    blocks[index :: args.concurrency]
                    for index in range(args.concurrency)
                ]
                chaos_started = time.perf_counter()
                await asyncio.gather(
                    *[chaos_client(client_blocks) for client_blocks in per_client],
                    killer(),
                )
                chaos = {
                    "ran": True,
                    "killed_pid": chaos.get("killed_pid"),
                    "requests": len(blocks),
                    "failed_quotes": chaos_failures,
                    "mismatches": chaos_mismatches,
                    "wall_seconds": round(time.perf_counter() - chaos_started, 3),
                    "gate": "SIGKILL one worker mid-load: zero client-visible "
                    "failures, every quote still bit-identical",
                }

            # ------------------------------------------------ metrics smoke
            if args.metrics:
                smoke = {"ran": True, "gate": (
                    "exposition parses, non-worker counters monotonic "
                    "across scrapes, respawn counted after the kill"
                )}
                try:
                    scrape_status, text = await _fleet_scrape(host, port)
                    second_scrape = parse_exposition(text)
                    smoke["exposition_parses"] = scrape_status == 200
                    regressions = (
                        _monotonic_counters(first_scrape, second_scrape)
                        if first_scrape is not None
                        else ["first scrape failed"]
                    )
                    smoke["counter_regressions"] = regressions
                    smoke["counters_monotonic"] = not regressions
                    respawn_total = sum(
                        second_scrape.get("repro_worker_respawn_total", {})
                        .get("samples", {})
                        .values()
                    )
                    smoke["worker_respawn_total"] = respawn_total
                    worker_quotes = sum(
                        value
                        for key, value in second_scrape.get(
                            "repro_quotes_total", {}
                        ).get("samples", {}).items()
                        if 'worker="' in key
                    )
                    smoke["derived"] = {
                        "fleet_requests_total": sum(
                            second_scrape.get("repro_fleet_requests_total", {})
                            .get("samples", {})
                            .values()
                        ),
                        "worker_quotes_total": worker_quotes,
                        "worker_deaths_total": sum(
                            second_scrape.get("repro_worker_deaths_total", {})
                            .get("samples", {})
                            .values()
                        ),
                        "respawn_total": respawn_total,
                    }
                    smoke["passed"] = (
                        smoke["exposition_parses"]
                        and smoke["counters_monotonic"]
                        and (not chaos["ran"] or respawn_total >= 1)
                    )
                except ValueError as exc:
                    smoke.update(
                        exposition_parses=False,
                        parse_error=str(exc),
                        passed=False,
                    )
                report["metrics_smoke"] = smoke

            health = fleet.health()
            passed = failures == 0 and mismatches == 0
            if report.get("metrics_smoke", {}).get("ran"):
                passed = passed and report["metrics_smoke"]["passed"]
            if chaos["ran"]:
                passed = (
                    passed
                    and chaos["failed_quotes"] == 0
                    and chaos["mismatches"] == 0
                    and health["counters"]["worker_deaths"] >= 1
                    and health["counters"]["respawns"] >= 1
                )
            report["fleet"] = {
                "workers": args.workers,
                "launch_seconds": round(launch_seconds, 3),
                "identity_requests": len(requests),
                "failed_quotes": failures,
                "mismatches": mismatches,
                "chaos": chaos,
                "health": health,
                "passed": passed,
                "gate": "every HTTP-routed quote bit-identical to "
                "solution.quote(), zero failures across a worker kill",
            }
            return passed
        finally:
            await fleet.stop()


def build_report(args) -> tuple[dict, int]:
    """The serving-smoke report plus the process exit code."""
    cpu_count = available_cpus()
    report = {
        "benchmark": "serving-smoke (warm batched quoting vs cold solution.quote)",
        "base": {"n_users": 400, "n_items": 60, "seed": 2},
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": cpu_count,
        },
    }
    if cpu_count < 2 and not args.force:
        report["skipped"] = (
            f"only {cpu_count} CPU available - the event loop and the kernel "
            "worker thread would measure scheduling, not serving"
        )
        print(f"SKIP: {report['skipped']}")
        return report, 0
    if cpu_count < 2:
        report["note"] = (
            "forced run on a single CPU: latency/throughput numbers include "
            "event-loop/kernel-thread contention; bit-identity is unaffected"
        )

    primary, replacement, n_items = _fit_solutions(seed=2)
    passed = asyncio.run(_run_serving(args, primary, replacement, n_items, report))
    print(json.dumps(report["summary"], indent=1))
    if not report["summary"]["bit_identical"]:
        print("FAIL: served quotes differ from solution.quote()", file=sys.stderr)
    elif not passed:
        print("FAIL: serving gate not met (see summary)", file=sys.stderr)
    if args.metrics:
        overhead_passed = asyncio.run(
            _metrics_overhead(args, primary, n_items, report)
        )
        print(json.dumps(report["metrics_overhead"], indent=1))
        if not overhead_passed:
            # Recorded, not gating: a contended CI box can blur a sub-2%
            # delta, and the artifact makes any real regression visible.
            print(
                "note: metrics overhead above the 2% target on this box",
                file=sys.stderr,
            )
    if args.workers >= 2:
        fleet_passed = asyncio.run(_run_fleet(args, primary, n_items, report))
        print(json.dumps(report["fleet"], indent=1, default=str))
        if "metrics_smoke" in report:
            print(json.dumps(report["metrics_smoke"], indent=1))
        if not fleet_passed:
            print("FAIL: fleet gate not met (see fleet report)", file=sys.stderr)
        passed = passed and fleet_passed
    elif args.chaos:
        print("note: --chaos needs --workers >= 2; chaos leg skipped")
    return report, 0 if passed else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--identity-requests", type=int, default=60,
        help="requests in the bit-identity leg (plus half after the reload)",
    )
    parser.add_argument(
        "--throughput-requests", type=int, default=400,
        help="requests in the throughput leg",
    )
    parser.add_argument(
        "--concurrency", type=int, default=16,
        help="concurrent in-process clients during the throughput leg",
    )
    parser.add_argument("--batch-window", type=float, default=0.002)
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument(
        "--workers", type=int, default=0,
        help="also run the supervised-fleet leg with this many worker "
        "processes (>= 2 to engage)",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="during the fleet leg, SIGKILL one worker mid-load and require "
        "zero client-visible failures (needs --workers >= 2)",
    )
    parser.add_argument(
        "--chaos-requests", type=int, default=120,
        help="requests fired during the chaos leg",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="run the observability legs: registry-on vs registry-off "
        "overhead microbench, and (with --workers >= 2) /metrics scrape "
        "assertions — exposition parses, non-worker counters monotonic, "
        "worker_respawn_total increments after the chaos kill",
    )
    parser.add_argument(
        "--overhead-requests", type=int, default=200,
        help="requests per timed pass of the metrics-overhead microbench",
    )
    parser.add_argument(
        "--overhead-repeats", type=int, default=3,
        help="timed passes per side in each overhead pair (best-of)",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="run even on <2 cores (numbers then include scheduling "
        "contention; the CI gate runs on real cores)",
    )
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args()
    report, code = build_report(args)
    args.output.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.output}")
    return code


if __name__ == "__main__":
    sys.exit(main())
