"""Workloads and metrics; ``BENCHMARK.json`` lists the same names.

Every workload reports every end-to-end metric, so the names are shared
and each has a per-workload meaning.  The per-workload figures they are
built from (``fit_pure_s``, ``quote_p99_ms``, ``refit_s``, ...) are
printed by every run with their sample counts.  ``PER_LAYER`` records for
each per-layer metric the end-to-end figure it should move and on which
workload; a traced run prints that next to each value.  Layers that a
workload does not run report 0.
"""

from __future__ import annotations

#: How long one run measures (``--seconds``).
RUN_SECONDS = 25

WORKLOADS = {
    "fit": "Cold in-process fits: pair scans and MAFIA mining dominate and no serving layer runs",
    "quote": "Read-only quotes to one out-of-process server on a 117-offer mixed menu: "
             "the mixed kernel and the HTTP front work, scans and the proxy hop do nothing",
    "fleet_churn": "Quotes plus 1% churn refits through a 2-worker fleet on a 100k pure menu: "
                   "the proxy hop, the HTTP front and the refit weigh most",
}

#: Reported on every workload: name -> (unit, better, bound, meaning).  Times
#: are in reference seconds (see ``calibrate.py``).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25,
                "median of several full set-ups (25 on fit, 3 serving): inputs, fits, saves, "
                "boot to /readyz, warm-up, first refit"),
    "work_s": ("s", "lower", 0.25,
               "fit: the three fits back to back (median round); quote, fleet_churn: CPU "
               "seconds of the server processes per 1000 open-loop quotes (refits included)"),
    "p50_ms": ("ms", "lower", 0.25,
               "fit: the median pure_matching fit; quote, fleet_churn: median open-loop quote "
               "latency from due time at the fixed rate"),
    "peak_rss_mb": ("MB", "lower", 0.25,
                    "fit: the fit process's ru_maxrss; serving: VmHWM summed over server, "
                    "supervisor and workers"),
}

#: name -> (unit, better, moves, on)
PER_LAYER = {
    "support.co_supported_pairs_s": ("s", "lower", "fit_pure_s, fit_mixed_s", "fit"),
    "support.kept_frac": ("ratio", "lower", "fit_pure_s, fit_mixed_s", "fit"),
    "revenue.price_components_s": ("s", "lower", "fit_*", "fit"),
    "revenue.pure_merge_gains_s": ("s", "lower", "fit_pure_s", "fit"),
    "revenue.pure_pairs": ("count", "lower", "fit_pure_s", "fit"),
    "revenue.mixed_merge_gains_s": ("s", "lower", "fit_mixed_s", "fit"),
    "revenue.mixed_pairs": ("count", "lower", "fit_mixed_s", "fit"),
    "revenue.mixed_state_s": ("s", "lower", "fit_mixed_s", "fit"),
    "kernels.scan_cpu_per_wall": ("ratio", "higher", "fit_pure_s, fit_mixed_s", "fit"),
    "kernels.raw_cache_hit_frac": ("ratio", "higher", "fit_*", "fit"),
    "matching.solve_matching_s": ("s", "lower", "fit_pure_s, fit_mixed_s", "fit"),
    "matching.edges": ("count", "lower", "fit_pure_s, fit_mixed_s", "fit"),
    "algorithms.merge_yield": ("ratio", "higher", "fit_*", "fit"),
    "choice.evaluate_forest_s": ("s", "lower", "fit_mixed_s; quote_p50_ms", "fit; quote"),
    "fim.mine_s": ("s", "lower", "fit_fbt_s", "fit"),
    "fim.maximal_itemsets": ("count", "lower", "fit_fbt_s", "fit"),
    "freqitemset.price_s": ("s", "lower", "fit_fbt_s", "fit"),
    "server.read_ms": ("ms", "lower", "quote_p50_ms", "quote"),
    "server.write_ms": ("ms", "lower", "quote_p50_ms", "quote"),
    "state.prepare_rows_ms": ("ms", "lower", "quote_p50_ms", "quote"),
    "state.quote_batch_ms": ("ms", "lower", "quote_qps, quote_p50_ms", "quote"),
    "batching.wait_ms": ("ms", "lower", "quote_p99_ms", "quote"),
    "batching.batch_size": ("count", "higher", "quote_qps", "quote"),
    "server.cpu_ms_per_quote": ("ms", "lower", "quote_qps", "quote, fleet_churn"),
    "supervisor.read_ms": ("ms", "lower", "quote_p50_ms", "fleet_churn"),
    "supervisor.route_ms": ("ms", "lower", "quote_p50_ms", "fleet_churn"),
    "supervisor.hop_ms": ("ms", "lower", "quote_p50_ms, quote_qps", "fleet_churn"),
    "supervisor.route_retries": ("count", "lower", "failed_frac, quote_qps", "fleet_churn"),
    "worker.batch_size": ("count", "higher", "failed_frac, quote_qps", "fleet_churn"),
    "refit.solver_s": ("s", "lower", "refit_s", "fleet_churn"),
    "refit.apply_delta_s": ("s", "lower", "refit_s", "fleet_churn"),
    "refit.save_s": ("s", "lower", "refit_s", "fleet_churn"),
    "refit.rotate_s": ("s", "lower", "refit_s", "fleet_churn"),
    "refit.warm_frac": ("ratio", "higher", "refit_s", "fleet_churn"),
    "fleet.in_refit_tail_ms": ("ms", "lower", "quote_p99_ms", "fleet_churn"),
    "fleet.out_refit_tail_ms": ("ms", "lower", "quote_p99_ms", "fleet_churn"),
}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document these tables describe."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound, _) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _, _) in PER_LAYER.items()
        ],
    }

