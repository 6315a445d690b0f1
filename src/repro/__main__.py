"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``bundle``
    Fit a bundling algorithm on a ratings CSV (or the synthetic default)
    through the :class:`repro.api.BundlingSolver` facade, print the
    configuration summary, and optionally persist the fitted solution with
    ``--save-solution``.
``quote``
    Price a batch of users against a solution saved by ``bundle
    --save-solution`` — the online serving path: no bundling algorithm
    runs, the menu is fixed, only the consumers change.
``refit``
    Incrementally update a saved solution across a population delta
    (users added/removed) without re-running the bundling algorithm:
    the menu's bundles keep their structure and are warm re-priced on
    the post-delta population in O(|delta| log M) per bundle.  When the
    revenue drift exceeds ``--drift-threshold`` the command falls back
    to a full cold ``fit`` on the new population (bit-identical to
    ``bundle`` on it).  Requires the fitted population (``--wtp``, an
    ``.npz`` written by ``--save-population``/:func:`save_wtp_npz`) and
    a delta JSON (``{"removed": [...], "added": [[...], ...]}``).
``experiment``
    Regenerate one of the paper's tables/figures and print it.
``generate``
    Write a synthetic ratings dataset (calibrated to the paper's
    Amazon-Books marginals) to CSV files.
``serve``
    Run the persistent :class:`repro.serving.QuoteServer` over a saved
    solution: warm precomputed state, micro-batched quoting (bit-identical
    to ``repro quote``), per-request deadlines, bounded admission with
    explicit load shedding, and coherent hot reload via ``POST /reload``.
    With ``--wtp population.npz`` the server also accepts incremental
    ``POST /refit`` requests: warm-started re-pricing across a
    population delta, off the event loop, swapped in atomically.
    With ``--workers N`` (N >= 2) the supervised fleet runs instead: N
    worker processes sharing one menu copy via shared memory, crash
    respawn with backoff, per-worker circuit breakers, rolling
    zero-downtime reload, and graceful SIGTERM drain.
``shm-audit``
    List ``repro-*`` shared-memory blocks orphaned by a hard-killed run
    (SIGKILL skips the in-process reaper); ``--reap`` unlinks them.

Exit codes
----------
Failures map to distinct codes so wrappers can react without parsing
stderr: 2 for bad input/usage (:class:`~repro.errors.ValidationError` and
other setup errors), 3 for executor failures past the retry/degradation
ladder (:class:`~repro.errors.ExecutorError`), 4 for scan timeouts
(:class:`~repro.errors.ScanTimeoutError`), 5 for shared-memory failures
(:class:`~repro.errors.SharedMemoryError`), 6 for unusable checkpoints
(:class:`~repro.errors.CheckpointError`), 7 for serving failures
(:class:`~repro.errors.ServingError`), 8 when the serving fleet loses its
workers past recovery (:class:`~repro.errors.WorkerCrashError`), 9 when
every worker's circuit breaker is open
(:class:`~repro.errors.CircuitOpenError`), and 130 (128 + SIGINT) when a
checkpointed fit is interrupted by Ctrl-C *after* flushing a final
resumable checkpoint (:class:`~repro.errors.FitInterruptedError`).

Examples
--------
::

    python -m repro bundle --algorithm mixed_matching --users 400 --items 60
    python -m repro bundle --ratings r.csv --prices p.csv --algorithm pure_greedy
    python -m repro bundle --storage sparse --precision float32 --n-workers 4
    python -m repro bundle --executor process --n-workers 4
    python -m repro bundle --algorithm mixed_greedy --save-solution menu.json
    python -m repro bundle --checkpoint fit.ckpt --save-solution menu.json
    python -m repro bundle --checkpoint fit.ckpt --resume --save-solution menu.json
    python -m repro quote --solution menu.json --ratings new_users.csv --prices p.csv
    python -m repro refit --solution menu.json --wtp pop.npz --delta delta.json \\
        --save-solution menu2.json --save-population pop2.npz
    python -m repro serve --solution menu.json --port 8707 --deadline 0.5
    python -m repro serve --solution menu.json --wtp pop.npz --port 8707
    python -m repro serve --solution menu.json --workers 4 --drain-timeout 5
    python -m repro experiment table2
    python -m repro generate --users 500 --items 80 --out-ratings r.csv --out-prices p.csv
    python -m repro shm-audit --reap
"""

from __future__ import annotations

import argparse
import sys

from repro.algorithms.registry import algorithm_names, algorithm_options
from repro.api import AlgorithmSpec, BundlingSolution, BundlingSolver, EngineConfig
from repro.core.evaluation import revenue_gain
from repro.data.loaders import load_ratings_csv, save_ratings_csv
from repro.data.synthetic import amazon_books_like
from repro.data.wtp_mapping import DEFAULT_LAMBDA, wtp_from_ratings
from repro.errors import (
    CheckpointError,
    CircuitOpenError,
    ExecutorError,
    FitInterruptedError,
    ReproError,
    ScanTimeoutError,
    ServingError,
    SharedMemoryError,
    WorkerCrashError,
)

EXPERIMENTS = ("table1", "table2", "table45", "table6",
               "figure1", "figure2", "figure5", "figure6")

#: Exit codes per failure family (most specific class first).
_EXIT_CODES = (
    (ScanTimeoutError, 4),
    (SharedMemoryError, 5),
    (ExecutorError, 3),
    (CheckpointError, 6),
    (WorkerCrashError, 8),
    (CircuitOpenError, 9),
    (ServingError, 7),
    (FitInterruptedError, 130),
)


def _exit_code(error: ReproError) -> int:
    """The CLI exit code for *error* (2 = generic bad input/setup)."""
    for error_type, code in _EXIT_CODES:
        if isinstance(error, error_type):
            return code
    return 2


def _synthetic(users: int, items: int, seed: int):
    """Synthetic dataset with thresholds clamped for tiny catalogues."""
    dense = max(2, min(10, items // 2))
    return amazon_books_like(
        n_users=users,
        n_items=items,
        seed=seed,
        min_ratings_per_user=min(12, max(2, items // 2)),
        kcore=dense,
    )


def _add_dataset_arguments(
    parser, conversion_default: float | None = DEFAULT_LAMBDA
) -> None:
    parser.add_argument("--ratings", help="ratings CSV (user,item,rating)")
    parser.add_argument("--prices", help="prices CSV (item,price)")
    parser.add_argument("--users", type=int, default=400, help="synthetic users")
    parser.add_argument("--items", type=int, default=60, help="synthetic items")
    parser.add_argument("--seed", type=int, default=0)
    conversion_help = (
        "lambda" if conversion_default is not None
        else "lambda (default: the solution's fitted conversion)"
    )
    parser.add_argument(
        "--conversion", type=float, default=conversion_default, help=conversion_help
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mining Revenue-Maximizing Bundling Configuration (VLDB'15) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bundle = sub.add_parser("bundle", help="run a bundling algorithm")
    bundle.add_argument("--algorithm", default="mixed_matching", choices=algorithm_names())
    _add_dataset_arguments(bundle)
    bundle.add_argument("--theta", type=float, default=0.0)
    bundle.add_argument("--k", type=int, default=None, help="max bundle size")
    bundle.add_argument(
        "--save-solution", metavar="PATH", default=None,
        help="persist the fitted solution (configuration + provenance + "
             "metrics) as JSON for later `repro quote` serving",
    )
    bundle.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="persist a restartable checkpoint at iteration boundaries; "
             "a crashed fit restarts from it with --resume",
    )
    bundle.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="checkpoint cadence in iterations (default 1)",
    )
    bundle.add_argument(
        "--resume", action="store_true",
        help="resume the fit from --checkpoint instead of starting fresh "
             "(algorithm and engine come from the checkpoint's provenance)",
    )
    backend = bundle.add_argument_group("engine backend")
    backend.add_argument(
        "--precision", choices=("float64", "float32"), default=None,
        help="WTP storage dtype (float32 halves matrix memory)",
    )
    backend.add_argument(
        "--storage", choices=("dense", "sparse"), default=None,
        help="WTP storage backend (sparse = SciPy CSC)",
    )
    backend.add_argument(
        "--chunk-elements", type=int, default=None, metavar="N",
        help="element budget per streaming buffer (0 = unchunked; "
             "default: the engine's 4M-element budget)",
    )
    backend.add_argument(
        "--n-workers", type=int, default=1, metavar="W",
        help="workers for the streaming pair scans (default 1)",
    )
    backend.add_argument(
        "--executor", choices=("serial", "thread", "process"), default=None,
        help="scan execution backend: thread (default; GIL-bound fill), "
             "process (shared-memory workers, real multi-core scaling), "
             "serial (force in-order execution)",
    )
    backend.add_argument(
        "--state-dtype", choices=("float64", "float32"), default=None,
        help="mixed-strategy subtree-state dtype (float32 halves O(N*M) state)",
    )
    backend.add_argument(
        "--mixed-kernel", choices=("auto", "band", "sorted"), default=None,
        help="mixed-merge pricing kernel: sorted = O(M log M + T) per pair "
             "(deterministic adoption), band = O(T'*M) reference; "
             "default: the engine's auto resolution",
    )
    backend.add_argument(
        "--drift-threshold", type=float, default=None, metavar="X",
        help="revenue-drift ceiling for warm `repro refit` on this "
             "solution: past it the refit falls back to a full cold fit "
             "(default 0.05; serialized with the solution's provenance)",
    )

    quote = sub.add_parser(
        "quote", help="price users against a saved solution (no re-fitting)"
    )
    quote.add_argument(
        "--solution", required=True, metavar="PATH",
        help="solution JSON written by `repro bundle --save-solution`",
    )
    _add_dataset_arguments(quote, conversion_default=None)

    refit = sub.add_parser(
        "refit",
        help="incrementally re-price a saved solution across a population "
             "delta (warm start; drift-gated cold fallback)",
    )
    refit.add_argument(
        "--solution", required=True, metavar="PATH",
        help="solution JSON written by `repro bundle --save-solution`",
    )
    refit.add_argument(
        "--wtp", required=True, metavar="PATH",
        help="the fitted population as .npz (WTPMatrix.save_npz); the delta "
             "applies against it",
    )
    refit.add_argument(
        "--delta", required=True, metavar="PATH",
        help='population delta JSON: {"removed": [user indices], '
             '"added": [[wtp row], ...]}',
    )
    refit.add_argument(
        "--save-solution", metavar="PATH", default=None,
        help="persist the refit solution (warm or cold) as JSON",
    )
    refit.add_argument(
        "--save-population", metavar="PATH", default=None,
        help="persist the post-delta population as .npz for the next refit",
    )
    refit.add_argument(
        "--drift-threshold", type=float, default=None, metavar="X",
        help="override the solution's serialized drift threshold for this "
             "refit only",
    )

    serve = sub.add_parser(
        "serve", help="run the persistent quote server over a saved solution"
    )
    serve.add_argument(
        "--solution", required=True, metavar="PATH",
        help="solution JSON written by `repro bundle --save-solution`",
    )
    serve.add_argument(
        "--wtp", metavar="PATH", default=None,
        help="the fitted population as .npz: enables incremental POST "
             "/refit (without it the endpoint answers 400)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8707,
        help="listen port (0 = ephemeral; printed at startup)",
    )
    serve.add_argument(
        "--deadline", type=float, default=1.0, metavar="SECONDS",
        help="default per-request quote deadline (HTTP 504 past it); a "
             'request may override it with a "deadline" body field',
    )
    serve.add_argument(
        "--queue-depth", type=int, default=256, metavar="N",
        help="admission bound: requests beyond N waiting are shed with 429",
    )
    serve.add_argument(
        "--batch-window", type=float, default=0.002, metavar="SECONDS",
        help="micro-batch accumulation window (0 disables batching)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=64, metavar="N",
        help="largest number of requests priced in one kernel call",
    )
    serve.add_argument(
        "--read-timeout", type=float, default=5.0, metavar="SECONDS",
        help="per-connection budget for reading one request (408 past it)",
    )
    observability = serve.add_argument_group("observability")
    observability.add_argument(
        "--metrics", action="store_true",
        help="enable the metrics registry and GET /metrics (Prometheus text "
             "exposition); in fleet mode every worker's series are "
             "aggregated at the supervisor with a worker label",
    )
    observability.add_argument(
        "--trace-log", metavar="PATH", default=None,
        help="append JSONL span events (scan/batch timings) to PATH; fleet "
             "workers write PATH.worker<i>",
    )
    fleet = serve.add_argument_group("fleet (multi-process) serving")
    fleet.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes; >= 2 runs the supervised fleet (shared-"
             "memory menu, crash respawn, circuit breakers, rolling reload)",
    )
    fleet.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="graceful SIGTERM drain budget: finish in-flight quotes up to "
             "this long before exiting (a second SIGTERM aborts)",
    )
    fleet.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help="consecutive routed failures that open a worker's circuit "
             "breaker (fleet mode only)",
    )
    fleet.add_argument(
        "--heartbeat-interval", type=float, default=0.25, metavar="SECONDS",
        help="worker heartbeat cadence; a worker silent for ~6 intervals "
             "is killed and respawned (fleet mode only)",
    )

    experiment = sub.add_parser("experiment", help="regenerate a paper artifact")
    experiment.add_argument("name", choices=EXPERIMENTS)

    generate = sub.add_parser("generate", help="write a synthetic ratings dataset")
    generate.add_argument("--users", type=int, default=800)
    generate.add_argument("--items", type=int, default=120)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out-ratings", required=True)
    generate.add_argument("--out-prices", required=True)

    shm_audit = sub.add_parser(
        "shm-audit",
        help="list (and optionally reap) orphaned repro-* shared-memory blocks",
    )
    shm_audit.add_argument(
        "--reap", action="store_true",
        help="unlink the orphaned blocks after listing them",
    )
    return parser


def _load_dataset(args):
    """The ratings dataset named by CSV flags or the synthetic fallback.

    Returns ``None`` (after printing an error) when --ratings/--prices are
    not given together.
    """
    if bool(args.ratings) != bool(args.prices):
        print("error: --ratings and --prices must be given together", file=sys.stderr)
        return None
    if args.ratings:
        return load_ratings_csv(args.ratings, args.prices)
    return _synthetic(args.users, args.items, args.seed)


def _engine_config(args) -> EngineConfig:
    """Typed engine config from the CLI backend flags."""
    config_kwargs = {"theta": args.theta, "n_workers": args.n_workers}
    if args.executor is not None:
        config_kwargs["executor"] = args.executor
        if args.executor == "process" and args.n_workers <= 1:
            # The process executor only engages with >1 worker; say so
            # instead of silently running the serial scan.
            print(
                "note: --executor process needs --n-workers >= 2 to engage; "
                "running serial",
                file=sys.stderr,
            )
    if args.precision is not None:
        config_kwargs["precision"] = args.precision
    if args.storage is not None:
        config_kwargs["storage"] = args.storage
    if args.chunk_elements is not None:
        # 0 disables chunking (the engine's `None` convention).
        config_kwargs["chunk_elements"] = args.chunk_elements or None
    if args.state_dtype is not None:
        config_kwargs["state_dtype"] = args.state_dtype
    if args.mixed_kernel is not None:
        config_kwargs["mixed_kernel"] = args.mixed_kernel
    if getattr(args, "drift_threshold", None) is not None:
        config_kwargs["drift_threshold"] = args.drift_threshold
    return EngineConfig(**config_kwargs)


def _command_bundle(args) -> int:
    try:
        dataset = _load_dataset(args)
    except (OSError, ReproError) as exc:
        print(f"error: cannot load ratings: {exc}", file=sys.stderr)
        return 2
    if dataset is None:
        return 2
    engine_config = _engine_config(args)
    algo_kwargs = {}
    if args.k is not None:
        if "k" not in algorithm_options(args.algorithm):
            print(f"error: {args.algorithm} does not support --k", file=sys.stderr)
            return 2
        algo_kwargs["k"] = args.k
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return 2
    try:
        wtp = wtp_from_ratings(dataset, conversion=args.conversion)
        # Checkpointed runs stop gracefully on Ctrl-C: the first SIGINT
        # flushes a final checkpoint at the next iteration boundary and
        # exits 130; a second one aborts immediately.
        if args.checkpoint:
            from repro.api.checkpoint import graceful_sigint
        else:
            from contextlib import nullcontext as graceful_sigint
        with graceful_sigint():
            if args.resume:
                # Provenance (algorithm + engine config) comes from the
                # checkpoint, so the run finishes exactly as the crashed one
                # would have; the components baseline refits for the gain line.
                result = BundlingSolver.resume(
                    args.checkpoint, wtp, metadata={"conversion": args.conversion}
                )
                components = BundlingSolver("components", engine_config).fit(wtp)
            else:
                solver = BundlingSolver(
                    AlgorithmSpec(args.algorithm, algo_kwargs), engine_config
                )
                # One shared engine: the Components baseline reuses the singleton
                # pricings the main algorithm caches (and vice versa).
                engine = engine_config.build(wtp)
                result = solver.fit_engine(
                    engine,
                    metadata={"conversion": args.conversion},
                    checkpoint_path=args.checkpoint,
                    checkpoint_every=args.checkpoint_every,
                )
                components = BundlingSolver("components", engine_config).fit_engine(engine)
    except FitInterruptedError as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        print(
            f"resume with: python -m repro bundle --checkpoint {args.checkpoint} "
            "--resume",
            file=sys.stderr,
        )
        return _exit_code(exc)
    except ReproError as exc:
        # Bad option values (e.g. --k -1) surface at construction/fit time;
        # runtime failures keep their family's exit code (see module doc).
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)

    print(f"dataset: {dataset.n_users} users x {dataset.n_items} items "
          f"({dataset.n_ratings} ratings)")
    print(f"algorithm: {result.algorithm} ({result.strategy})")
    print(f"expected revenue: {result.expected_revenue:.2f}")
    print(f"revenue coverage: {result.coverage:.2%}")
    gain = revenue_gain(result.expected_revenue, components.expected_revenue)
    print(f"gain over components: {gain:+.2%}")
    print(f"bundle sizes: {result.configuration.size_histogram()}")
    print(f"iterations: {result.n_iterations}, wall time: {result.wall_time:.2f}s")
    if args.save_solution:
        try:
            path = result.save(args.save_solution)
        except (OSError, ReproError) as exc:
            print(f"error: cannot save solution to {args.save_solution}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"solution saved to {path}")
    return 0


def _command_quote(args) -> int:
    try:
        solution = BundlingSolution.load(args.solution)
    except (OSError, ValueError, KeyError, ReproError) as exc:
        print(f"error: cannot load solution {args.solution}: {exc}", file=sys.stderr)
        return 2
    try:
        dataset = _load_dataset(args)
    except (OSError, ReproError) as exc:
        print(f"error: cannot load ratings: {exc}", file=sys.stderr)
        return 2
    if dataset is None:
        return 2
    # Default to the conversion lambda the solution was fitted with, so
    # quoted users' WTP is on the same scale as the fit; an explicit
    # --conversion overrides it.
    conversion = args.conversion
    if conversion is None:
        conversion = solution.metadata.get("conversion")
        if conversion is None:
            # Solutions fitted outside the CLI may not record their lambda;
            # quoting at a different scale than the fit is silently wrong,
            # so say which default is being assumed.
            print(
                f"note: solution records no fitted conversion; assuming "
                f"lambda={DEFAULT_LAMBDA} (pass --conversion to override)",
                file=sys.stderr,
            )
            conversion = DEFAULT_LAMBDA
    try:
        # float() guards a non-numeric metadata value from another producer.
        wtp = wtp_from_ratings(dataset, conversion=float(conversion))
        quote = solution.quote(wtp)
    except (ReproError, TypeError, ValueError) as exc:
        print(f"error: cannot quote against {args.solution}: {exc}", file=sys.stderr)
        return _exit_code(exc) if isinstance(exc, ReproError) else 2
    print(f"solution: {solution.algorithm} ({solution.strategy}), "
          f"{len(solution.configuration)} offers over {solution.n_items} items")
    print(f"fitted expected revenue: {solution.expected_revenue:.2f}")
    print(f"quoted users: {quote.n_users}")
    print(f"expected revenue: {quote.revenue:.2f} (hex {float(quote.revenue).hex()})")
    print(f"revenue per user: {quote.revenue_per_user:.4f}")
    print(f"revenue coverage: {quote.coverage:.2%}")
    return 0


def _command_refit(args) -> int:
    import json

    from repro.api import PopulationDelta
    from repro.data.loaders import load_wtp_npz, save_wtp_npz

    try:
        solution = BundlingSolution.load(args.solution)
    except (OSError, ValueError, KeyError, ReproError) as exc:
        print(f"error: cannot load solution {args.solution}: {exc}", file=sys.stderr)
        return 2
    try:
        wtp = load_wtp_npz(args.wtp)
    except (OSError, ValueError, KeyError, ReproError) as exc:
        print(f"error: cannot load population {args.wtp}: {exc}", file=sys.stderr)
        return 2
    try:
        with open(args.delta, encoding="utf-8") as handle:
            delta = PopulationDelta.from_dict(json.load(handle))
    except (OSError, ValueError, ReproError) as exc:
        print(f"error: cannot load delta {args.delta}: {exc}", file=sys.stderr)
        return 2
    try:
        solver = BundlingSolver(solution.algorithm_spec, solution.engine_config)
        report = solver.refit(
            solution, wtp, delta, drift_threshold=args.drift_threshold
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)

    result = report.solution
    print(f"solution: {solution.algorithm} ({solution.strategy}), "
          f"{len(solution.configuration)} offers over {solution.n_items} items")
    n_users = wtp.n_users - report.n_removed + report.n_added
    print(f"delta: +{report.n_added} users, -{report.n_removed} users "
          f"-> {n_users} users")
    print(f"refit mode: {report.mode} "
          f"(drift {report.drift:.4g}, threshold {report.threshold:.4g})")
    print(f"expected revenue: {result.expected_revenue:.2f} "
          f"(hex {float(result.expected_revenue).hex()})")
    print(f"warm re-pricing took {report.warm_elapsed:.3f}s")
    if args.save_solution:
        try:
            path = result.save(args.save_solution)
        except (OSError, ReproError) as exc:
            print(f"error: cannot save solution to {args.save_solution}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"solution saved to {path}")
    if args.save_population:
        try:
            save_wtp_npz(delta.apply(wtp), args.save_population)
        except (OSError, ReproError) as exc:
            print(f"error: cannot save population to {args.save_population}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"post-delta population saved to {args.save_population}")
    return 0


def _command_serve(args) -> int:
    import asyncio

    from repro import obs
    from repro.serving import QuoteServer, ServingSupervisor

    if args.metrics:
        obs.enable_metrics()
    fleet = args.workers >= 2
    if args.trace_log and not fleet:
        obs.enable_tracing(sink_path=args.trace_log)
    options = dict(
        deadline=args.deadline,
        queue_depth=args.queue_depth,
        batch_window=args.batch_window,
        max_batch=args.max_batch,
        read_timeout=args.read_timeout,
        population=args.wtp,
    )
    try:
        if fleet:
            server = ServingSupervisor(
                args.solution,
                workers=args.workers,
                heartbeat_interval=args.heartbeat_interval,
                breaker_threshold=args.breaker_threshold,
                drain_timeout=args.drain_timeout,
                trace_log=args.trace_log,
                **options,
            )
        else:
            server = QuoteServer(args.solution, **options)
    except (OSError, ReproError) as exc:
        print(f"error: cannot serve {args.solution}: {exc}", file=sys.stderr)
        return _exit_code(exc) if isinstance(exc, ReproError) else 2

    def banner(host, port):
        if fleet:
            what = f"fleet of {args.workers} workers"
        else:
            solution = server.state.solution
            what = (f"{solution.algorithm}/{solution.strategy} "
                    f"({len(solution.configuration)} offers over "
                    f"{solution.n_items} items)")
        print(f"serving {what} on http://{host}:{port}")
        print(f"solution fingerprint: {server.fingerprint}")
        endpoints = "POST /quote, POST /reload, GET /healthz, GET /readyz"
        if args.wtp:
            endpoints = endpoints.replace(
                "POST /reload", "POST /reload, POST /refit"
            )
        if args.metrics:
            endpoints += ", GET /metrics"
        print(f"endpoints: {endpoints}")

    try:
        return asyncio.run(
            server.serve_forever(
                args.host, args.port, banner=banner,
                drain_timeout=args.drain_timeout,
            )
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except KeyboardInterrupt:
        return 0
    except OSError as exc:
        # Bind failures (port in use, privileged port) land here.
        print(f"error: cannot listen on {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 7


def _command_experiment(args) -> int:
    from repro import experiments

    if args.name == "figure6":
        print(experiments.render_figure6(experiments.figure6()))
        return 0
    artifact = getattr(experiments, args.name)()
    print(artifact.render())
    return 0


def _command_shm_audit(args) -> int:
    from repro.core.shm import orphaned_shared_blocks, reap_orphaned_blocks

    names = orphaned_shared_blocks()
    if not names:
        print("no orphaned repro-* shared-memory blocks")
        return 0
    for name in names:
        print(name)
    if args.reap:
        try:
            reaped = reap_orphaned_blocks(names)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return _exit_code(exc)
        print(f"reaped {len(reaped)} of {len(names)} block(s)")
        if len(reaped) < len(names):
            # Unreapable blocks (e.g. permissions) are an operator problem.
            return 5
    return 0


def _command_generate(args) -> int:
    dataset = _synthetic(args.users, args.items, args.seed)
    save_ratings_csv(dataset, args.out_ratings, args.out_prices)
    print(f"wrote {dataset.n_ratings} ratings for {dataset.n_users} users x "
          f"{dataset.n_items} items to {args.out_ratings} / {args.out_prices}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "bundle":
        return _command_bundle(args)
    if args.command == "quote":
        return _command_quote(args)
    if args.command == "refit":
        return _command_refit(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "experiment":
        return _command_experiment(args)
    if args.command == "shm-audit":
        return _command_shm_audit(args)
    return _command_generate(args)


if __name__ == "__main__":
    sys.exit(main())
