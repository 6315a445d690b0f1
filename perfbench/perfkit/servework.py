"""The serving workloads: ``quote`` and ``fleet_churn``, load from outside.

``quote`` runs ``python -m repro serve`` (one :class:`QuoteServer`) over
the serving menu of ``benchmarks/quote_throughput.py``: ``mixed_greedy``
with θ=0.1 on the 400×60 instance, seed 2 (117 offers).  Traffic is
read-only.  The mixed-menu kernel and the HTTP front do the work.

``fleet_churn`` runs ``python -m repro serve --workers 2 --wtp …`` over a
``pure_matching`` menu fitted on that instance cloned to 100k users.
Quote reads share the schedule and the connections with ``POST /refit``
writes, each a 1% churn delta.  The pure-menu kernel is cheap, so the
supervisor's proxy hop and the refit in the router's process weigh most.

The benchmark seed shuffles the fitted population's users and draws the
request rows, the arrival schedule and the deltas.  Request rows are
resampled from a held-out population of the same generator, so they have
its sparsity.
"""

from __future__ import annotations

import importlib.util
import json
import math
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfkit import layers
from perfkit.load import Client, Op, Phase, closed_loop, lateness, open_loop
from perfkit.procs import Server, cpu_seconds, get_json, get_text, peak_rss_mb
from perfkit.spans import layer_table, load_spans
from perfkit.stats import describe, median_of_windows, percentile_line, quiet


@dataclass(frozen=True)
class Plan:
    algorithm: str
    engine: dict
    clones: int
    workers: int
    rate: float  # open-loop quote arrivals per second
    refits: int  # refits on the open-loop schedule


PLANS = {
    "quote": Plan("mixed_greedy", {"theta": 0.1}, 1, 1, rate=75.0, refits=0),
    "fleet_churn": Plan("pure_matching", {"n_workers": 2}, 250, 2, rate=80.0, refits=3),
}
BASE = {"n_users": 400, "n_items": 60, "seed": 2}
HELD_OUT_USERS = 2000
HELD_OUT_SEED = 10_000
REQUEST_POOL = 512
MAX_ROWS = 16
CHURN = 0.01
WARMUP_SECONDS = 0.5
OPEN_SHARE = 0.75  # of --seconds; the closed-loop phase takes the rest
OPEN_WINDOW = 1.0
CLOSED_SEGMENT = 0.5
STEAL_LIMIT = 0.02
CHECKED_REPLIES = 32
CONNECTIONS = 2


def _churn_module(repo: Path):
    """``benchmarks/churn.py``, whose ``make_delta`` draws the 1% deltas."""
    spec = importlib.util.spec_from_file_location("churn_gate", repo / "benchmarks" / "churn.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class Inputs:
    solution: object
    population: object
    requests: list  # (rows, body) pairs
    deltas: list
    delta_bodies: list
    args: list


def make_inputs(ctx, plan: Plan) -> Inputs:
    from repro.api import AlgorithmSpec, BundlingSolver, EngineConfig
    from repro.core.wtp import WTPMatrix
    from repro.data.loaders import save_wtp_npz
    from repro.data.synthetic import amazon_books_like
    from repro.data.wtp_mapping import wtp_from_ratings

    rng = np.random.default_rng(ctx.seed)
    base = wtp_from_ratings(amazon_books_like(**BASE), conversion=1.25)
    if plan.clones > 1:
        base = base.clone_users(plan.clones)
    population = WTPMatrix(base.values[rng.permutation(base.n_users)])
    solver = BundlingSolver(AlgorithmSpec(plan.algorithm), EngineConfig(**plan.engine))
    solution = solver.fit(population)
    menu = ctx.scratch / "menu.json"
    solution.save(menu)
    args = ["serve", "--solution", str(menu), "--port", "0", "--metrics"]
    if plan.workers >= 2:
        pop_path = ctx.scratch / "population.npz"
        save_wtp_npz(population, pop_path)
        args += ["--workers", str(plan.workers), "--wtp", str(pop_path)]

    # One held-out population for every seed: the seed resamples its rows, so
    # the mean cost of a request does not move with the seed.
    held_out = wtp_from_ratings(
        amazon_books_like(n_users=HELD_OUT_USERS, n_items=BASE["n_items"], seed=HELD_OUT_SEED),
        conversion=1.25,
    ).values
    requests = []
    for _ in range(REQUEST_POOL):
        rows = held_out[rng.integers(0, len(held_out), size=int(rng.integers(1, MAX_ROWS + 1)))]
        requests.append((rows, json.dumps({"rows": rows.tolist()}).encode()))

    deltas, bodies = [], []
    if plan.refits:
        churn = _churn_module(ctx.repo)
        for k in range(plan.refits + 1):  # the first one is the set-up refit
            delta = churn.make_delta(population, CHURN, seed=ctx.seed * 1000 + k)
            deltas.append(delta)
            bodies.append(json.dumps({"delta": delta.to_dict()}).encode())
    return Inputs(solution, population, requests, deltas, bodies, args)


class Traffic:
    """Builds operations from the seeded request pool."""

    def __init__(self, inputs: Inputs, seed: int) -> None:
        self.inputs = inputs
        self.rng = random.Random(seed)

    def quote(self, *_ignored) -> Op:
        index = self.rng.randrange(len(self.inputs.requests))
        return Op("quote", "/quote", self.inputs.requests[index][1], index=index)

    def refit(self, k: int) -> Op:
        return Op("refit", "/refit", self.inputs.delta_bodies[k], index=k, keep_reply=True)


def _server_pids(server: Server, client: Client, fleet: bool) -> list[int]:
    pids = [server.proc.pid]
    if fleet:
        workers = get_json(client, "/healthz")["workers"]
        pids += [worker["pid"] for worker in workers if worker["pid"]]
    return pids


def _set_up(ctx, plan: Plan, keep: bool, spans_path):
    """One full set-up: inputs, fit, save, boot to /readyz, warm-up."""
    inputs = make_inputs(ctx, plan)
    server = ctx.start_server(inputs.args, spans_path)
    port = server.wait_ready()
    clients = [Client("127.0.0.1", port) for _ in range(CONNECTIONS)]
    traffic = Traffic(inputs, ctx.seed)
    phases = [closed_loop(clients, traffic.quote, WARMUP_SECONDS, name="warm-up")]
    if plan.refits:
        # The first refit loads the population lazily: set-up work.
        refit = traffic.refit(0)
        clients[0].run(refit)
        phases[0].ops.append(refit)
    if not keep:
        for client in clients:
            client.close()
        ctx.stop_server(server)
    return inputs, server, clients, traffic, phases


def _schedule(traffic: Traffic, plan: Plan, seconds: float, seed: int) -> list[Op]:
    from perfkit.stats import poisson_schedule

    ops = []
    for due in poisson_schedule(plan.rate, seconds, seed):
        op = traffic.quote()
        op.due = due
        ops.append(op)
    for k in range(plan.refits):
        op = traffic.refit(k + 1)
        op.due = seconds * (k + 0.5) / plan.refits
        ops.append(op)
    ops.sort(key=lambda op: op.due)
    return ops


def _local_chain(inputs: Inputs, refits: list[Op]):
    """Replay the served refits locally.

    Returns the fingerprints in order, the solutions by fingerprint, and
    any mismatch with what the server answered.
    """
    from repro.api import BundlingSolver

    solution, population = inputs.solution, inputs.population
    order = [solution.fingerprint()]
    by_fp = {order[0]: solution}
    problems = []
    for op in refits:
        reply = json.loads(op.reply)
        delta = inputs.deltas[op.index]
        solver = BundlingSolver(solution.algorithm_spec, solution.engine_config)
        report = solver.refit(solution, population, delta)
        solution, population = report.solution, delta.apply(population)
        fingerprint = solution.fingerprint()
        if reply["fingerprint"] != fingerprint:
            problems.append(f"refit {op.index}: served fingerprint {reply['fingerprint'][:12]} "
                            f"!= local refit {fingerprint[:12]}")
        order.append(fingerprint)
        by_fp[fingerprint] = solution
    return order, by_fp, problems


def _check_replies(ops, by_fp, inputs: Inputs) -> list[str]:
    """Sampled replies equal a cold ``solution.quote(rows)`` hex-for-hex."""
    problems = []
    for op in ops:
        reply = json.loads(op.reply)
        solution = by_fp.get(op.fingerprint)
        if solution is None:
            problems.append(f"quote {op.index}: unknown fingerprint {op.fingerprint}")
            continue
        cold = solution.quote(inputs.requests[op.index][0])
        payments = [float(p).hex() for p in np.asarray(cold.payments, dtype=np.float64)]
        if reply["payments_hex"] != payments or reply["revenue_hex"] != float(cold.revenue).hex():
            problems.append(f"quote {op.index}: served payments differ from a cold quote")
    return problems


def _check_fingerprints(quotes, refits, order) -> list[str]:
    """Every quote carries a served fingerprint, never one older than the last refit it saw."""
    position = {fp: i for i, fp in enumerate(order)}
    done = sorted((op.done, i + 1) for i, op in enumerate(refits))
    problems = []
    for op in quotes:
        if op.fingerprint not in position:
            problems.append(f"quote with unknown fingerprint {op.fingerprint}")
            continue
        floor = max((k for at, k in done if at < op.sent), default=0)
        if position[op.fingerprint] < floor:
            problems.append(f"quote sent after refit {floor} carried the fingerprint "
                            f"of refit {position[op.fingerprint]}")
    return problems[:5]


@dataclass
class Slice:
    """One slice of the open loop."""

    phase: Phase
    cpu: float  # CPU seconds of the server processes during the slice
    factor: float  # from this slice's seconds to reference seconds


def _open_slices(ctx, clients, ops, pids, seconds: float) -> list[Slice]:
    """The open loop in OPEN_WINDOW-s slices, each followed by a reference sample.

    Each slice sends the operations due in its part of the schedule and
    waits for them; the next slice starts after the sample.
    """
    slices = []
    before = ctx.speed.points[-1]
    for k in range(math.ceil(seconds / OPEN_WINDOW)):
        low = k * OPEN_WINDOW
        chunk = [op for op in ops if low <= op.due < low + OPEN_WINDOW]
        for op in chunk:
            op.due -= low
        cpu = sum(cpu_seconds(pid) for pid in pids)
        phase = open_loop(clients, chunk, name=f"open[{k}]")
        cpu = sum(cpu_seconds(pid) for pid in pids) - cpu
        after = ctx.speed.sample()
        slices.append(Slice(phase, cpu, ctx.speed.factor(before, after)))
        before = after
    return slices


def _merged(slices: list[Slice]) -> Phase:
    phase = Phase("open", started=slices[0].phase.started, ended=slices[-1].phase.ended)
    for piece in slices:
        phase.ops += piece.phase.ops
        phase.host += piece.phase.host
    return phase


def run(ctx, workload: str) -> dict:
    plan = PLANS[workload]
    fleet = plan.workers >= 2
    spans_path = ctx.scratch / "spans.json" if ctx.trace else None

    before = ctx.speed.sample()
    setups, ref_setups = [], []
    for repeat in range(ctx.setup_repeats):
        started = time.monotonic()
        keep = repeat == ctx.setup_repeats - 1
        inputs, server, clients, traffic, phases = _set_up(ctx, plan, keep, spans_path)
        setups.append(time.monotonic() - started)
        after = ctx.speed.sample()
        ref_setups.append(setups[-1] * ctx.speed.factor(before, after))
        before = after

    open_seconds = OPEN_SHARE * ctx.seconds
    ops = _schedule(traffic, plan, open_seconds, ctx.seed)
    sample = set(random.Random(ctx.seed).sample(
        [i for i, op in enumerate(ops) if op.kind == "quote"], CHECKED_REPLIES))
    for i in sample:
        ops[i].keep_reply = True

    pids = _server_pids(server, clients[0], fleet)
    cpu_before = sum(cpu_seconds(pid) for pid in pids)
    slices = _open_slices(ctx, clients, ops, pids, open_seconds)
    measured_open = _merged(slices)
    measured_closed = closed_loop(clients, traffic.quote, ctx.seconds - open_seconds,
                                  segment=CLOSED_SEGMENT)
    cpu_after = sum(cpu_seconds(pid) for pid in pids)
    phases += [measured_open, measured_closed]

    health = get_json(clients[0], "/healthz")
    families = {}
    if ctx.trace and fleet:
        from repro.obs.metrics import parse_exposition

        time.sleep(0.6)  # worker snapshots ride the 0.25 s heartbeats
        families = parse_exposition(get_text(clients[0], "/metrics"))
    rss = sum(peak_rss_mb(pid) for pid in _server_pids(server, clients[0], fleet))
    for client in clients:
        client.close()
    ctx.stop_server(server)

    # ------------------------------------------------------------ checks
    quotes = [op for phase in phases for op in phase.ops if op.kind == "quote"]
    all_refits = [op for phase in phases for op in phase.ops if op.kind == "refit"]
    served_refits = sorted((op for op in all_refits if op.ok), key=lambda op: op.done)
    order, by_fp, problems = _local_chain(inputs, served_refits)
    problems += _check_fingerprints([op for op in quotes if op.ok], served_refits, order)
    problems += _check_replies(
        [op for op in ops if op.kind == "quote" and op.keep_reply and op.ok], by_fp, inputs)

    # ----------------------------------------------------------- figures
    # Medians over the open loop's slices, keeping the slices in which
    # the hypervisor took at most STEAL_LIMIT of the CPU time: a noisy
    # neighbour slows every layer at once and says nothing about the
    # program.  The filter looks at the host only, never at latencies.
    # Each slice's times are scaled by the reference samples around it.
    open_quotes = [op for op in measured_open.ops if op.kind == "quote"]
    latencies = [op.done - op.due if op.ok else math.inf for op in open_quotes]
    slice_latencies = [[op.done - op.due if op.ok else math.inf
                        for op in piece.phase.ops if op.kind == "quote"] for piece in slices]
    open_kept, open_quiet = quiet([(piece.phase.started, piece.phase.ended) for piece in slices],
                                  measured_open.host, STEAL_LIMIT, max(3, len(slices) // 3))
    kept = [i for i in open_kept if slice_latencies[i]]
    p50_raw = statistics.median(statistics.median(slice_latencies[i]) for i in kept)
    p50 = statistics.median(statistics.median(slice_latencies[i]) * slices[i].factor
                            for i in kept)
    closed_windows = [[op.done for op in measured_closed.ops if op.ok and start <= op.due < end]
                      for start, end in measured_closed.segments]
    closed_kept, closed_quiet = quiet(measured_closed.segments, measured_closed.host,
                                      STEAL_LIMIT, max(3, len(closed_windows) // 3))
    # Completions per second between a segment's first and last completion.
    qps = median_of_windows([closed_windows[i] for i in closed_kept if len(closed_windows[i]) > 1],
                            lambda g: (len(g) - 1) / (max(g) - min(g)))
    phase_refits = [op for op in measured_open.ops if op.kind == "refit"]
    refit_walls = [op.done - op.sent for op in phase_refits if op.ok]
    # Server-side CPU, not wall time: another process that takes a CPU
    # away stretches every wall time but not the server's CPU time.  A
    # slower host moves both; the reference scaling takes that out.
    open_served = sum(op.ok for op in open_quotes)
    cpu_open = sum(piece.cpu for piece in slices)
    work_raw = 1000.0 * cpu_open / open_served if open_served else math.inf
    work = (1000.0 * sum(piece.cpu * piece.factor for piece in slices) / open_served
            if open_served else math.inf)
    attempted = sum(phase.sent for phase in phases)
    failed = sum(phase.failed for phase in phases)
    late = lateness(measured_open)
    report = [phase.summary() for phase in phases]
    report += [
        f"open loop: Poisson arrivals at {plan.rate:g} q/s offered for {open_seconds:.3g} s on "
        f"{CONNECTIONS} keep-alive connections; latency timed from each request's due time",
        f"quote_p50_ms: {1e3 * p50_raw:.4g} ms, {1e3 * p50:.4g} reference ms (median of the "
        f"medians of {len(kept)} of {len(slices)} {OPEN_WINDOW:g}-s slices"
        f"{_kept_note(open_quiet)}, n={len(latencies)}); slices (* = left out): " + " ".join(
            f"{1e3 * statistics.median(g):.3g}{'' if i in open_kept else '*'}"
            for i, g in enumerate(slice_latencies) if g),
        percentile_line("quote_p99_ms", latencies, 99.0, 1e3, " ms"),
        f"quote latency overall: {describe(latencies, 1e3, ' ms')}",
        f"generator lateness: {describe(late, 1e3, ' ms')}",
        f"work_s: {work_raw:.4g} s, {work:.4g} reference s of server CPU per 1000 open-loop "
        f"quotes ({cpu_open:.3f} s for n={open_served}"
        f"{', refits included' if plan.refits else ''})",
        f"quote_qps: {qps:.2f} 1/s (closed loop on {CONNECTIONS} connections, median of "
        f"{len(closed_kept)} of {len(closed_windows)} {CLOSED_SEGMENT:g}-s segments that start "
        f"both connections together{_kept_note(closed_quiet)}, n={measured_closed.succeeded})",
    ]
    if plan.refits:
        inside, outside = _split_by_refit(measured_open, phase_refits)
        report += [
            f"refit_s: {describe(refit_walls, 1.0, ' s')} (POST /refit round trip until the "
            "new fingerprint serves)",
            f"quotes overlapping a refit: {describe(inside, 1e3, ' ms')}",
            f"quotes not overlapping a refit: {describe(outside, 1e3, ' ms')}",
        ]
    report += [
        f"peak_rss_mb: {rss:.2f} MB (VmHWM of the server"
        f"{', supervisor and workers' if fleet else ''})",
        f"failed_frac: {layers.ratio(failed, attempted):.4g} ({failed} of {attempted})",
        f"setup_s: {statistics.median(setups):.4f} s, {statistics.median(ref_setups):.4f} "
        f"reference s (median of n={len(setups)}: {', '.join(f'{s:.4f}' for s in setups)})",
    ]
    result = {"problems": problems, "attempted": attempted, "failed": failed,
              "report": report, "end_to_end": {}}
    if math.isfinite(p50) and math.isfinite(work) and work > 0:
        result["end_to_end"] = {
            "setup_s": statistics.median(ref_setups),
            "work_s": work,
            "p50_ms": 1e3 * p50,
            "peak_rss_mb": rss,
        }
    if ctx.trace:
        spans = load_spans(json.loads(spans_path.read_text()))
        timed = [op for op in measured_open.ops + measured_closed.ops if op.kind == "quote"]
        quotes_timed = sum(op.ok for op in timed)
        figures = {
            "server.cpu_ms_per_quote": 1e3 * (cpu_after - cpu_before) / max(quotes_timed, 1)
        }
        if fleet:
            figures.update(_fleet_layers(spans, health, families, measured_open, phase_refits))
        else:
            figures.update(_quote_layers(spans, health))
        result["per_layer"] = figures
        result["table"] = layer_table(spans)
    return result


def _kept_note(was_quiet: bool) -> str:
    if was_quiet:
        return f" with host steal <= {STEAL_LIMIT:.0%}"
    return f"; too few had host steal <= {STEAL_LIMIT:.0%}, so all are kept"


def _mean_ms(spans, name) -> float:
    return 1e3 * layers.mean(s.duration for s in spans if s.name == name)


def _split_by_refit(measured_open, refits):
    """Open-loop quote latencies that overlap a refit round trip, and the rest."""
    intervals = [(op.sent, op.done) for op in refits if op.ok]
    quotes = [(op.due, op.done) for op in measured_open.ops if op.kind == "quote" and op.ok]
    return layers.split_by_refit(quotes, intervals)


def _quote_layers(spans, health) -> dict:
    def named(name):
        return [span for span in spans if span.name == name]

    counters = health["counters"]
    waits = layers.batching_waits(named("server.quote"), named("state.prepare_rows"),
                                  named("state.quote_batch"))
    return {
        "server.read_ms": _mean_ms(spans, "server.read"),
        "server.write_ms": _mean_ms(spans, "server.write"),
        "state.prepare_rows_ms": _mean_ms(spans, "state.prepare_rows"),
        "state.quote_batch_ms": _mean_ms(spans, "state.quote_batch"),
        "batching.wait_ms": 1e3 * layers.mean(waits),
        "batching.batch_size": layers.ratio(counters["quotes"], counters["batches"]),
        "choice.evaluate_forest_s": sum(s.duration for s in named("choice.evaluate_forest")),
    }


def _fleet_layers(spans, health, families, measured_open, refits) -> dict:
    routes = [s.duration for s in spans
              if s.name == "supervisor.route" and s.attrs.get("path") == "/quote"]
    worker_sum, worker_count = layers.histogram_totals(
        families, "repro_http_request_seconds", route="/quote")
    batch_sum, batch_count = layers.histogram_totals(families, "repro_batch_size")
    intervals = [(op.sent, op.done) for op in refits if op.ok]
    inside, outside = _split_by_refit(measured_open, refits)
    warm = sum(json.loads(op.reply).get("mode") == "warm" for op in refits if op.ok)
    figures = {
        "supervisor.read_ms": _mean_ms(spans, "supervisor.read"),
        "supervisor.route_ms": 1e3 * layers.mean(routes),
        "supervisor.hop_ms": layers.hop_ms(routes, worker_sum, worker_count),
        "supervisor.route_retries": health["counters"]["route_retries"],
        "worker.batch_size": layers.ratio(batch_sum, batch_count),
        "refit.warm_frac": layers.ratio(warm, len(intervals)),
        "fleet.in_refit_tail_ms": layers.tail_ms(inside),
        "fleet.out_refit_tail_ms": layers.tail_ms(outside),
    }
    figures.update(layers.refit_breakdown(intervals, spans))
    return figures
