"""The ``fit`` workload: cold in-process fits, no serving layer.

Two pair-scan heuristics run on the cloned Figure-7a population (the
400×60 Amazon-Books-like instance, seed 2, cloned ×50 to 20k users) and
the frequent-itemset baseline runs on the tier-1 ``medium`` instance
(300×40, seed 11) at ``minsup=0.2``.  The benchmark seed shuffles the
users of both populations.  It does not draw new base instances, because
the cost of a fit depends on the instance far more than any change is
allowed to move it: across base seeds 0–4 the FBT fit took 0.6–12 s.

The fits run with one engine worker.  On a machine of two CPUs shared
with other tenants, a two-thread fit waits for whichever thread lost its
CPU: one busy neighbour process slowed the two-worker fits by ~40% and
left the one-worker fits unchanged.  The sizes keep one round of the
three fits at 5–8 s, so a run times several rounds and reports medians.
"""

from __future__ import annotations

import resource
import statistics
import time

import numpy as np

from perfkit.layers import counter_total, outermost, ratio
from perfkit.spans import Tracer, layer_table, root_of

BASE = {"n_users": 400, "n_items": 60, "seed": 2}
CLONES = 50
MEDIUM = {"n_users": 300, "n_items": 40, "seed": 11}
FITS = (
    ("pure", "pure_matching", {}, "population"),
    ("mixed", "mixed_matching", {}, "population"),
    ("fbt", "mixed_freqitemset", {"minsup": 0.2}, "medium"),
)
N_WORKERS = 1
#: A set-up takes ~20 ms, so it is repeated more often than a server's.
SETUP_REPEATS = 25


def make_inputs(seed: int) -> dict:
    """Both populations, with their users shuffled by ``seed``."""
    from repro.core.wtp import WTPMatrix
    from repro.data.synthetic import amazon_books_like
    from repro.data.wtp_mapping import wtp_from_ratings

    rng = np.random.default_rng(seed)
    inputs = {}
    for key, spec, clones in (("population", BASE, CLONES), ("medium", MEDIUM, 1)):
        wtp = wtp_from_ratings(amazon_books_like(**spec), conversion=1.25)
        if clones > 1:
            wtp = wtp.clone_users(clones)
        inputs[key] = WTPMatrix(wtp.values[rng.permutation(wtp.n_users)])
    return inputs


def _solver(algorithm: str, options: dict):
    from repro.api import AlgorithmSpec, BundlingSolver, EngineConfig

    return BundlingSolver(AlgorithmSpec(algorithm, options), EngineConfig(n_workers=N_WORKERS))


def check_solution(solution, wtp, scratch, label: str) -> list[str]:
    """Cold quote reproduces the fitted revenue; save→load keeps the fingerprint."""
    from repro.api import BundlingSolution

    problems = []
    quoted = solution.quote(wtp).revenue
    if float(quoted).hex() != float(solution.expected_revenue).hex():
        problems.append(f"{label}: quote revenue {float(quoted).hex()} != fitted "
                        f"{float(solution.expected_revenue).hex()}")
    path = scratch / f"{label}.json"
    solution.save(path)
    if BundlingSolution.load(path).fingerprint() != solution.fingerprint():
        problems.append(f"{label}: fingerprint changed across save/load")
    return problems


def install(tracer: Tracer) -> None:
    """Span wrappers around the fit path's layers (in this process)."""
    from repro.algorithms import freqitemset, matching_iterative
    from repro.api.solver import BundlingSolver
    from repro.core import evaluation
    from repro.core.revenue import RevenueEngine

    def fit_attrs(args, kwargs, result):
        return {"algorithm": args[0].algorithm_spec.name}

    def pairs_attrs(args, kwargs, result):
        n = len(args[1])
        return {"all": n * (n - 1) // 2, "kept": len(result)}

    tracer.wrap(BundlingSolver, "fit", "fit", attrs=fit_attrs)
    tracer.wrap(RevenueEngine, "co_supported_pairs", "support.co_supported_pairs",
                attrs=pairs_attrs)
    tracer.wrap(RevenueEngine, "price_components", "revenue.price_components")
    tracer.wrap(RevenueEngine, "price_bundles", "revenue.price_bundles")
    tracer.wrap(RevenueEngine, "pure_merge_gains", "revenue.pure_merge_gains", cpu=True,
                attrs=lambda args, kwargs, result: {"pairs": len(args[2])})
    tracer.wrap(RevenueEngine, "mixed_merge_gains", "revenue.mixed_merge_gains", cpu=True,
                attrs=lambda args, kwargs, result: {"pairs": len(args[3])})
    tracer.wrap(RevenueEngine, "offer_state", "revenue.mixed_state")
    tracer.wrap(RevenueEngine, "merged_mixed_state", "revenue.mixed_state")
    tracer.wrap(RevenueEngine, "mixed_bundle_gain", "revenue.mixed_bundle_gain")
    tracer.wrap(matching_iterative, "solve_matching", "matching.solve_matching",
                attrs=lambda args, kwargs, result: {"edges": len(args[0]), "matched": len(result)})
    tracer.wrap(freqitemset, "maximal_frequent_itemsets", "fim.mine",
                attrs=lambda args, kwargs, result: {"itemsets": len(result)})
    tracer.wrap(evaluation, "evaluate_forest", "choice.evaluate_forest")


def _outer_total(spans, roots, names, algorithm=None, exclude=()) -> float:
    """Seconds in :func:`outermost` spans, under the ``algorithm`` fit if given."""
    return sum(
        span.duration for span in outermost(spans, names, exclude)
        if algorithm is None or roots[span.id].attrs.get("algorithm") == algorithm
    )


def fit_layers(spans, registry) -> dict:
    """The fit-path per-layer metrics from one traced round."""
    roots = root_of(spans)

    def named(name):
        return [span for span in spans if span.name == name]

    pure, mixed = named("revenue.pure_merge_gains"), named("revenue.mixed_merge_gains")
    co = named("support.co_supported_pairs")
    matches = named("matching.solve_matching")
    scans = pure + mixed
    scanned = sum(span.attrs["pairs"] for span in scans)
    hits = misses = 0.0
    if registry is not None:
        from repro.obs.metrics import parse_exposition

        families = parse_exposition(registry.render())
        hits = counter_total(families, "repro_raw_cache_hits_total")
        misses = counter_total(families, "repro_raw_cache_misses_total")
    mined = named("fim.mine")
    return {
        "support.co_supported_pairs_s": sum(span.duration for span in co),
        "support.kept_frac": ratio(sum(s.attrs["kept"] for s in co),
                                   sum(s.attrs["all"] for s in co)),
        "revenue.price_components_s": _outer_total(spans, roots, {"revenue.price_components"}),
        "revenue.pure_merge_gains_s": sum(span.duration for span in pure),
        "revenue.pure_pairs": sum(span.attrs["pairs"] for span in pure),
        "revenue.mixed_merge_gains_s": sum(span.duration for span in mixed),
        "revenue.mixed_pairs": sum(span.attrs["pairs"] for span in mixed),
        "revenue.mixed_state_s": _outer_total(spans, roots, {"revenue.mixed_state"},
                                              algorithm="mixed_matching"),
        "kernels.scan_cpu_per_wall": ratio(sum(span.attrs["cpu"] for span in scans),
                                           sum(span.duration for span in scans)),
        "kernels.raw_cache_hit_frac": ratio(hits, hits + misses),
        "matching.solve_matching_s": sum(span.duration for span in matches),
        "matching.edges": sum(span.attrs["edges"] for span in matches),
        "algorithms.merge_yield": ratio(sum(span.attrs["matched"] for span in matches), scanned),
        "choice.evaluate_forest_s": _outer_total(spans, roots, {"choice.evaluate_forest"}),
        "fim.mine_s": sum(span.duration for span in mined),
        "fim.maximal_itemsets": sum(span.attrs["itemsets"] for span in mined),
        "freqitemset.price_s": _outer_total(
            spans, roots, {"revenue.price_bundles", "revenue.mixed_bundle_gain"},
            algorithm="mixed_freqitemset", exclude={"revenue.price_components"},
        ),
    }


def run(ctx) -> dict:
    """Set up, fit, check; returns the workload result for ``run.py``."""
    from repro import obs

    speed = ctx.speed
    before = speed.sample()
    setups, inputs = [], None
    for _ in range(1 if ctx.trace else SETUP_REPEATS):
        started = time.monotonic()
        inputs = make_inputs(ctx.seed)
        setups.append(time.monotonic() - started)
    factor = speed.factor(before, speed.sample())
    ref_setups = [setup * factor for setup in setups]

    tracer = registry = None
    if ctx.trace:
        tracer = Tracer()
        install(tracer)
        registry = obs.enable_metrics()
    walls = {label: [] for label, *_ in FITS}
    ref_walls = {label: [] for label, *_ in FITS}  # in reference seconds
    solutions = {}
    attempted = failed = 0
    started = time.monotonic()
    try:
        while True:
            began_round = time.monotonic()
            for label, algorithm, options, population in FITS:
                attempted += 1
                before = speed.points[-1]
                began = time.monotonic()
                try:
                    solutions[label] = _solver(algorithm, options).fit(inputs[population])
                except Exception as exc:  # counted, reported, and fails the run
                    failed += 1
                    ctx.log(f"fit {label} failed: {exc!r}")
                    continue
                wall = time.monotonic() - began
                walls[label].append(wall)
                ref_walls[label].append(wall * speed.factor(before, speed.sample()))
            # Start another round only if it ends within --seconds.
            now = time.monotonic()
            if ctx.trace or now + (now - began_round) - started > ctx.seconds:
                break
    finally:
        if tracer is not None:
            tracer.restore()
            obs.disable_metrics()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the checks

    problems = []
    for label, _, _, population in FITS:
        if label in solutions:
            problems += check_solution(solutions[label], inputs[population], ctx.scratch, label)
    if failed:
        problems.append(f"{failed} of {attempted} fits failed")

    rounds = min(len(values) for values in walls.values())
    result = {
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {},
        "report": [f"rounds of the three fits: {rounds}"],
    }
    if rounds:
        def round_totals(times):
            return [sum(times[label][i] for label, *_ in FITS) for i in range(rounds)]

        result["end_to_end"] = {
            "setup_s": statistics.median(ref_setups),
            "work_s": statistics.median(round_totals(ref_walls)),
            "p50_ms": 1e3 * statistics.median(ref_walls["pure"]),
            "peak_rss_mb": rss,
        }
        for label, *_ in FITS:
            result["report"].append(
                f"fit_{label}_s: {statistics.median(walls[label]):.4f} s, "
                f"{statistics.median(ref_walls[label]):.4f} reference s (n={len(walls[label])})"
            )
        result["report"].append(
            f"raw (unscaled) work_s: {statistics.median(round_totals(walls)):.4f} s, "
            f"p50_ms: {1e3 * statistics.median(walls['pure']):.2f} ms"
        )
        result["report"] += [
            f"peak_rss_mb: {rss:.2f} MB (ru_maxrss of this process after the fits)",
            f"failed_frac: {ratio(failed, attempted):.4g} ({failed} of {attempted})",
            f"setup_s: {statistics.median(setups):.4f} s, {statistics.median(ref_setups):.4f} "
            f"reference s (median of n={len(setups)}: {', '.join(f'{s:.4f}' for s in setups)})",
        ]
    if tracer is not None:
        result["per_layer"] = fit_layers(tracer.spans, registry)
        result["table"] = layer_table(tracer.spans)
    return result
