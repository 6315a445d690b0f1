"""One HTTP front and one reload/refit control plane for every serving process.

:class:`HttpFront` is the edge that both serving shapes share: the
single-process :class:`~repro.serving.server.QuoteServer` and the
multi-process :class:`~repro.serving.supervisor.ServingSupervisor` are
thin subclasses of it.  The front owns, once:

* the keep-alive connection loop on stdlib ``asyncio`` streams, with a
  per-request read budget (408, counted in ``read_timeouts``), a body
  limit (413) and malformed framing (400) — each of which closes the
  connection;
* the route table and the drain gate: ``/healthz``, ``/readyz`` and
  ``/metrics`` answer while draining; ``/quote``, ``/reload`` and
  ``/refit`` are refused with 503 once a drain begins; a wrong method is
  405 and an unknown path 404;
* metrics-wrapped dispatch (``repro_http_requests_total`` and
  ``repro_http_request_seconds`` by route) and one error-to-status map
  (:func:`status_of`), so a failure on any route is a typed JSON reply
  and never a dropped socket;
* ``_respond``, which stamps ``X-Solution-Fingerprint`` on every reply
  and ``Retry-After`` on a 429, and ``GET /metrics``;
* the lifecycle: :meth:`~HttpFront.start` binds the listener last and
  stops the backend again when the bind fails; :meth:`~HttpFront.stop`
  (fast), :meth:`~HttpFront.drain` (finish in-flight work first) and
  :meth:`~HttpFront.serve_forever` (SIGINT stops, the first SIGTERM
  drains and exits 0, a second aborts with 143);
* the control plane: :meth:`~HttpFront.reload` and
  :meth:`~HttpFront.refit` hold one lock (a concurrent call gets 409 with
  the in-flight target), a refit re-prices the serving solution through
  :meth:`~repro.api.solver.BundlingSolver.refit` off the event loop
  against the fitted population (:func:`coerce_population`), and one set
  of counters and one refit report serve both shapes.

A subclass supplies two strategies and the backend they run on:

* ``_handle_quote`` — how one ``/quote`` is answered (the local
  micro-batcher, or a proxy hop to a worker);
* ``_land`` — how a new menu becomes the serving one (a single-reference
  state swap, or a verified rolling rotation through the workers);
* ``_start_backend`` / ``_stop_backend``, ``_health`` and
  ``export_gauges``.

The HTTP read and write go through :func:`repro.serving.server.read_http_request`
and :func:`repro.serving.server.write_http_response`, looked up on that
module at call time so that a wrapper installed there sees every request
of either shape.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import os
import signal
import time

from repro import obs
from repro.errors import (
    CircuitOpenError,
    QuoteDeadlineError,
    ReloadConflictError,
    ReloadError,
    ServerOverloadedError,
    ServingError,
    ValidationError,
    WorkerCrashError,
)
from repro.serving import server as edge

#: Routes that get their own label on the per-route request series;
#: anything else is folded into ``other`` so a scanner probing random
#: paths cannot grow the label space without bound.
METRIC_ROUTES = ("/quote", "/reload", "/refit", "/healthz", "/readyz", "/metrics")

#: Routes that take new work: POST only, and refused once a drain begins.
WORK_ROUTES = ("/quote", "/reload", "/refit")


def status_of(error: BaseException) -> int:
    """The HTTP status an error raised while answering a request maps to."""
    if isinstance(error, QuoteDeadlineError):
        return 504
    if isinstance(error, ServerOverloadedError):
        return 429
    if isinstance(error, ReloadConflictError):
        return 409
    if isinstance(error, (WorkerCrashError, CircuitOpenError)):
        return 503
    if isinstance(error, ValidationError):
        return 400
    return 500


def coerce_population(source):
    """The fitted population as a ``WTPMatrix`` (or None).

    *source* is a :class:`~repro.core.wtp.WTPMatrix`, a dense array, a
    path to a ``.npz`` written by :func:`repro.data.save_wtp_npz`, or None.
    A path is read here, so a missing file fails at construction.
    """
    if source is None:
        return None
    from repro.core.wtp import WTPMatrix

    if isinstance(source, WTPMatrix):
        return source
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        return WTPMatrix.load_npz(source)
    return WTPMatrix(source)


def _describe(source) -> str:
    """How a reload target is named in a 409 payload."""
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        target = os.fspath(source)
        if isinstance(target, bytes):
            return target.decode("utf-8", "replace")
        return str(target)
    return type(source).__name__


def json_body(body: bytes, route: str, field: str) -> dict:
    """The request body as a JSON object carrying *field*."""
    payload = json.loads(body.decode("utf-8")) if body else {}
    if not isinstance(payload, dict) or field not in payload:
        raise ValidationError(f'{route} body needs a "{field}" field')
    return payload


class HttpFront:
    """The shared HTTP edge and control plane (see the module docstring).

    Subclasses set ``self._state`` (the serving
    :class:`~repro.serving.state.ServingState`, or None before one is
    loaded) and implement the strategy hooks.
    """

    def __init__(
        self,
        *,
        read_timeout: float,
        max_body_bytes: int,
        drain_timeout: float,
        population,
    ) -> None:
        if not (float(read_timeout) > 0):
            raise ValidationError(
                f"read_timeout must be positive, got {read_timeout!r}"
            )
        self.read_timeout = float(read_timeout)
        self.max_body_bytes = int(max_body_bytes)
        self.drain_timeout = float(drain_timeout)
        self._population = coerce_population(population)
        self._state = None
        self._server: asyncio.base_events.Server | None = None
        #: Open client connections — force-closed at stop so idle
        #: keep-alive peers cannot pin shutdown.
        self._connections: set[asyncio.StreamWriter] = set()
        self._reload_lock: asyncio.Lock | None = None
        #: Reload target currently being applied (the 409 payload for a
        #: concurrent reload or refit); None outside one.
        self._reload_target: str | None = None
        #: True once drain/stop has begun: new work is refused with 503
        #: and the health endpoints report ``draining``.
        self.draining = False
        #: Requests being dispatched right now (a drain waits for them).
        self._in_flight = 0
        self._started_at = time.monotonic()
        self.requests = 0
        self.read_timeouts = 0
        self.reloads = 0
        self.reload_failures = 0
        self.last_reload_error: str | None = None
        self.refits = 0
        self.refit_failures = 0
        self.last_refit_error: str | None = None

    # ----------------------------------------------------------------- state
    @property
    def state(self):
        """The currently serving state (None before the first load)."""
        return self._state

    @property
    def fingerprint(self) -> str | None:
        state = self._state
        return None if state is None else state.fingerprint

    def _check_population(self) -> None:
        population, state = self._population, self._state
        if population is not None and state is not None:
            if population.n_items != state.n_items:
                raise ValidationError(
                    f"refit population has {population.n_items} items; the "
                    f"serving solution was fitted on {state.n_items}"
                )

    # ------------------------------------------------------------- lifecycle
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Start the backend, then the listener; returns ``(host, port)``.

        A failure anywhere — a worker that never comes up, or a port
        already in use — stops whatever was started before re-raising.
        """
        self._reload_lock = asyncio.Lock()
        self._started_at = time.monotonic()
        self.draining = False
        try:
            await self._start_backend()
            self._server = await asyncio.start_server(
                self._handle_connection, host, port, limit=edge._HEADER_LIMIT
            )
        except BaseException:
            await self.stop()
            raise
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def stop(self) -> None:
        """Fast stop: close the listener and every connection, stop the backend."""
        await self._shutdown(graceful=False)

    async def drain(self, timeout: float | None = None) -> bool:
        """Graceful drain: refuse new work, finish in-flight, then stop.

        Closes the listener immediately (new connections are refused at
        the socket; new work on existing keep-alive connections gets 503
        ``ServerDraining``), waits up to *timeout* seconds (default
        ``drain_timeout``) for in-flight requests and the backend's queued
        work, then stops.  Returns True when everything drained inside the
        budget, False when the timeout expired with work still pending.
        """
        if timeout is None:
            timeout = self.drain_timeout
        self.draining = True
        if self._server is not None:
            # Listener sockets close synchronously; wait_closed is deferred
            # to the shutdown so draining never blocks on open keep-alive
            # connections.
            self._server.close()
        loop = asyncio.get_running_loop()
        deadline_at = loop.time() + float(timeout)
        clean = True
        while self._in_flight > 0 or self._backend_busy():
            if loop.time() >= deadline_at:
                clean = False
                break
            await asyncio.sleep(0.005)
        await self._shutdown(graceful=True)
        return clean

    async def _shutdown(self, graceful: bool) -> None:
        self.draining = True
        if self._server is not None:
            self._server.close()
            # Unblock idle keep-alive readers: without this, 3.12+'s
            # wait_closed (which waits for connection handlers) would hang
            # on any client that never sends another byte.
            for writer in list(self._connections):
                try:
                    writer.close()
                except OSError:  # pragma: no cover - transport already dead
                    pass
            await self._server.wait_closed()
            self._server = None
        await self._stop_backend(graceful)

    async def serve_forever(
        self, host: str, port: int, *, banner=None, drain_timeout: float | None = None
    ) -> int:
        """Run until SIGINT (fast stop) or SIGTERM (graceful drain).

        The CLI entry point.  SIGINT stops immediately.  The first SIGTERM
        starts a graceful drain bounded by *drain_timeout* seconds (default
        ``drain_timeout``); a second SIGTERM aborts it.  Returns the exit
        code: 0 for a stop or a completed drain, 143 (128+SIGTERM) for an
        aborted drain.
        """
        bound_host, bound_port = await self.start(host, port)
        if banner is not None:
            banner(bound_host, bound_port)
        loop = asyncio.get_running_loop()
        stop = loop.create_future()
        abort = loop.create_future()

        def _request_stop(kind: str) -> None:
            if stop.done():
                # Second signal: escalate a drain in progress to an abort.
                if kind == "drain" and not abort.done():
                    abort.set_result(None)
                return
            stop.set_result(kind)

        installed = []
        for sig, kind in ((signal.SIGINT, "stop"), (signal.SIGTERM, "drain")):
            try:
                loop.add_signal_handler(sig, _request_stop, kind)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            kind = await stop
            if kind != "drain":
                return 0
            drain_task = asyncio.ensure_future(self.drain(drain_timeout))
            await asyncio.wait({drain_task, abort}, return_when=asyncio.FIRST_COMPLETED)
            if not drain_task.done():
                drain_task.cancel()
                try:
                    await drain_task
                except asyncio.CancelledError:
                    pass
                return 143
            return 0
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            if not abort.done():
                abort.cancel()
            await self.stop()

    # --------------------------------------------------------- control plane
    @contextlib.asynccontextmanager
    async def _exclusive(self, target: str):
        """Hold the one reload/refit lock for *target*, or raise 409."""
        lock = self._reload_lock
        if lock is None:
            self._reload_lock = lock = asyncio.Lock()
        if lock.locked():
            # A concurrent change is not queued behind the in-flight one —
            # applying both in *some* order would leave whichever landed
            # last serving, invisibly.  Conflict is surfaced (HTTP 409
            # with the in-flight target) for the caller to retry.
            raise ReloadConflictError(self._reload_target)
        async with lock:
            self._reload_target = target
            try:
                yield
            finally:
                self._reload_target = None

    async def reload(self, source) -> tuple[str | None, str]:
        """Make *source* the serving menu; all-or-nothing.

        *source* is a solution path (loaded via ``BundlingSolution.load``,
        which verifies the persisted fingerprint), a ``BundlingSolution``,
        or a prebuilt state.  A failure anywhere leaves the old menu
        serving.  Returns ``(old_fingerprint, new_fingerprint)``.
        """
        async with self._exclusive(_describe(source)):
            landed = await self._swap(source)
        return landed["previous_fingerprint"], landed["fingerprint"]

    async def _swap(self, source) -> dict:
        """Land *source*, counting a failure as a failed reload."""
        try:
            landed = await self._land(source)
        except Exception as exc:
            self.reload_failures += 1
            self.last_reload_error = str(exc)
            if isinstance(exc, ReloadError):
                raise
            raise ReloadError(f"reload failed; previous state retained: {exc}") from exc
        self.reloads += 1
        self.last_reload_error = None
        return landed

    def _refit_offline(self, delta, drift_threshold):
        """The blocking half of :meth:`refit` (runs in the executor).

        Returns ``(report, new_population)``: the solver's refit of the
        serving solution across *delta*, and the population past it.
        """
        from repro.api.solver import BundlingSolver
        from repro.core.delta import PopulationDelta

        population = self._population
        if population is None:
            raise ValidationError(
                "refit requires the fitted population; start with "
                "population= (CLI: serve --wtp population.npz)"
            )
        state = self._state
        if state is None:
            raise ServingError("no solution loaded; POST /reload one first")
        if isinstance(delta, dict):
            delta = PopulationDelta.from_dict(delta)
        if not isinstance(delta, PopulationDelta):
            raise ValidationError(
                f"refit delta must be a PopulationDelta or dict, got "
                f"{type(delta).__name__}"
            )
        solution = state.solution
        solver = BundlingSolver(solution.algorithm_spec, solution.engine_config)
        report = solver.refit(
            solution, population, delta, drift_threshold=drift_threshold
        )
        return report, delta.apply(population)

    async def refit(self, delta, drift_threshold: float | None = None) -> dict:
        """Warm-refit the serving solution across a population delta.

        Runs :meth:`BundlingSolver.refit` off-loop (the solver is rebuilt
        from the serving solution's own provenance), then lands the
        refitted solution exactly like :meth:`reload` — under the same
        lock, so a refit and a reload never interleave (the loser gets
        409).  On success the in-memory population advances past the
        delta, so successive refits compound.  Failure anywhere leaves
        both the old menu and the old population serving.
        """
        async with self._exclusive("refit"):
            loop = asyncio.get_running_loop()
            started = time.monotonic()
            try:
                report, population = await loop.run_in_executor(
                    None, self._refit_offline, delta, drift_threshold
                )
                landed = await self._swap(report.solution)
            except Exception as exc:
                self.refit_failures += 1
                self.last_refit_error = str(exc)
                obs.counter_inc(
                    "repro_refit_failures_total",
                    help="Refits that failed before the state swap.",
                )
                raise
            self._population = population
            self.refits += 1
            self.last_refit_error = None
            obs.counter_inc(
                "repro_refit_total",
                help="Refits applied, by warm/cold mode.",
                labelnames=("mode",),
                mode=report.mode,
            )
            obs.observe(
                "repro_refit_duration_seconds",
                time.monotonic() - started,
                help="Wall time per refit (warm re-price plus any cold fallback).",
                buckets=obs.REFIT_DURATION_BUCKETS,
            )
            return {
                **landed,
                "mode": report.mode,
                "drift": float(report.drift) if math.isfinite(report.drift) else None,
                "threshold": report.threshold,
                "n_added": report.n_added,
                "n_removed": report.n_removed,
                "n_users": population.n_users,
                "expected_revenue": report.solution.expected_revenue,
            }

    # ---------------------------------------------------------------- health
    def health(self) -> dict:
        """The ``/healthz`` payload — live counters, not heuristics."""
        status, detail, counters = self._health()
        payload = {
            # Drain beats every other status: an operator (or the fleet
            # supervisor) must see the terminal state, not "serving".
            "status": "draining" if self.draining else status,
            "ready": self.ready and not self.draining,
            "fingerprint": self.fingerprint,
            "uptime_seconds": time.monotonic() - self._started_at,
            **detail,
            "counters": {
                "requests": self.requests,
                **counters,
                "read_timeouts": self.read_timeouts,
                "reloads": self.reloads,
                "reload_failures": self.reload_failures,
                "refits": self.refits,
                "refit_failures": self.refit_failures,
            },
        }
        if self._population is not None:
            payload["population"] = {"n_users": self._population.n_users}
        if self.last_reload_error is not None:
            payload["last_reload_error"] = self.last_reload_error
        if self.last_refit_error is not None:
            payload["last_refit_error"] = self.last_refit_error
        return payload

    # ------------------------------------------------------------- HTTP edge
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        edge.read_http_request(
                            reader, max_body_bytes=self.max_body_bytes
                        ),
                        self.read_timeout,
                    )
                except asyncio.TimeoutError:
                    # Stalled (slow-loris) client: bound the damage to one
                    # read budget, answer 408, drop the connection.
                    self.read_timeouts += 1
                    await self._respond(
                        writer,
                        408,
                        {
                            "error": "RequestReadTimeout",
                            "message": (
                                "request not received within "
                                f"{self.read_timeout:.3f}s; closing connection"
                            ),
                        },
                        keep_alive=False,
                    )
                    return
                except edge.FramingError as exc:
                    await self._respond(
                        writer,
                        exc.status,
                        {"error": exc.error, "message": str(exc)},
                        keep_alive=False,
                    )
                    return
                if request is None:  # clean EOF between requests
                    return
                self._in_flight += 1
                try:
                    keep_alive = await self._dispatch(request, writer)
                finally:
                    self._in_flight -= 1
                if not keep_alive:
                    return
        except asyncio.CancelledError:
            # Shutdown cancelled this handler mid-request.  Swallow the
            # cancellation so the task finishes cleanly (the asyncio
            # streams machinery logs cancelled handler tasks as errors) —
            # the connection is closed below either way.
            pass
        except (ConnectionResetError, BrokenPipeError):
            pass  # pragma: no cover - peer vanished mid-exchange
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def _dispatch(self, request, writer: asyncio.StreamWriter) -> bool:
        if not obs.metrics_enabled():
            return await self._route_request(request, writer)
        method, path = request[0], request[1]
        route = path if path in METRIC_ROUTES else "other"
        started = time.monotonic()
        try:
            return await self._route_request(request, writer)
        finally:
            obs.counter_inc(
                "repro_http_requests_total",
                help="HTTP requests by route and method.",
                labelnames=("route", "method"),
                route=route,
                method=method,
            )
            obs.observe(
                "repro_http_request_seconds",
                time.monotonic() - started,
                help="Wall time per HTTP request.",
                labelnames=("route",),
                route=route,
            )

    async def _route_request(self, request, writer: asyncio.StreamWriter) -> bool:
        method, path, headers, body = request
        keep_alive = headers.get("connection", "").lower() != "close"
        if method == "GET" and path == "/healthz":
            await self._respond(writer, 200, self.health(), keep_alive=keep_alive)
        elif method == "GET" and path == "/readyz":
            ready = self.ready and not self.draining
            await self._respond(
                writer,
                200 if ready else 503,
                {
                    "ready": ready,
                    "draining": self.draining,
                    "fingerprint": self.fingerprint,
                },
                keep_alive=keep_alive,
            )
        elif method == "GET" and path == "/metrics":
            # Deliberately ahead of the drain gate: scrapes must keep
            # working while draining, or the shutdown itself becomes
            # unobservable.
            await self._handle_metrics(writer, keep_alive)
        elif path in WORK_ROUTES and self.draining:
            # New work is refused once a drain begins; only requests
            # already in flight complete.
            await self._respond(
                writer,
                503,
                {
                    "error": "ServerDraining",
                    "message": "draining; not accepting new work",
                },
                keep_alive=False,
            )
            return False
        elif path in WORK_ROUTES and method != "POST":
            await self._respond(
                writer,
                405,
                {"error": "MethodNotAllowed", "message": f"POST {path}"},
                keep_alive=keep_alive,
            )
        elif path in WORK_ROUTES:
            await self._handle_work(request, writer, keep_alive)
        else:
            await self._respond(
                writer,
                404,
                {"error": "NotFound", "message": f"no route for {method} {path}"},
                keep_alive=keep_alive,
            )
        return keep_alive

    async def _handle_work(self, request, writer, keep_alive: bool) -> None:
        """``/quote``, ``/reload`` or ``/refit``; every failure a typed reply."""
        path, body = request[1], request[3]
        try:
            if path == "/quote":
                await self._handle_quote(request, writer, keep_alive)
                return
            if path == "/reload":
                payload = json_body(body, "reload", "path")
                previous, current = await self.reload(payload["path"])
                result = {"previous_fingerprint": previous, "fingerprint": current}
            else:
                payload = json_body(body, "refit", "delta")
                result = await self.refit(
                    payload["delta"], payload.get("drift_threshold")
                )
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            await self._respond(
                writer,
                400,
                {"error": "ValidationError", "message": f"bad JSON body: {exc}"},
                keep_alive=keep_alive,
            )
            return
        except Exception as exc:
            payload = {"error": type(exc).__name__, "message": str(exc)}
            if isinstance(exc, ReloadConflictError):
                payload["in_flight_path"] = exc.in_flight_path
            await self._respond(writer, status_of(exc), payload, keep_alive=keep_alive)
            return
        await self._respond(
            writer,
            200,
            result,
            keep_alive=keep_alive,
            fingerprint=result["fingerprint"],
        )

    async def _handle_metrics(
        self, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> None:
        registry = obs.metrics_registry()
        if registry is None:
            await self._respond(
                writer,
                404,
                {
                    "error": "MetricsDisabled",
                    "message": (
                        "metrics are off; start with --metrics (or call "
                        "repro.obs.enable_metrics()) to expose Prometheus series"
                    ),
                },
                keep_alive=keep_alive,
            )
            return
        self.export_gauges(registry)
        text = obs.render_snapshots(self._metric_snapshots(), registry)
        await edge.write_http_response(
            writer,
            200,
            text.encode("utf-8"),
            keep_alive=keep_alive,
            content_type=obs.EXPOSITION_CONTENT_TYPE,
        )

    def _metric_snapshots(self) -> list:
        """Other processes' metric snapshots to render after this one's."""
        return []

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        *,
        keep_alive: bool,
        fingerprint: str | None = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        stamp = fingerprint if fingerprint is not None else self.fingerprint
        extra = []
        if stamp is not None:
            extra.append(f"X-Solution-Fingerprint: {stamp}")
        if status == 429:
            # Only the single server's admission queue sheds; the fleet
            # relays its workers' 429s verbatim.
            extra.append(f"Retry-After: {self.retry_after_seconds()}")
        await edge.write_http_response(
            writer, status, body, keep_alive=keep_alive, extra_headers=extra
        )

    # ------------------------------------------------------------ strategies
    @property
    def ready(self) -> bool:
        """True while the backend can answer quotes."""
        raise NotImplementedError

    def _backend_busy(self) -> bool:
        """Work the backend still holds beyond in-flight requests."""
        return False

    async def _start_backend(self) -> None:
        """Bring the backend up; the listener binds after it."""
        raise NotImplementedError

    async def _stop_backend(self, graceful: bool) -> None:
        """Tear the backend down; *graceful* lets it finish queued work."""
        raise NotImplementedError

    async def _handle_quote(self, request, writer, keep_alive: bool) -> None:
        """Answer one ``POST /quote``; raise a typed error to fail it."""
        raise NotImplementedError

    async def _land(self, source) -> dict:
        """Make *source* serve; ``{"previous_fingerprint", "fingerprint"}``."""
        raise NotImplementedError

    def _health(self) -> tuple[str, dict, dict]:
        """``(status, payload fields, counters)`` for :meth:`health`."""
        raise NotImplementedError

    def export_gauges(self, registry) -> None:
        """Refresh the scrape-time gauges in *registry*."""
        raise NotImplementedError
