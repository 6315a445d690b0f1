"""The single-process quote server: warm state behind the shared HTTP front.

:class:`QuoteServer` is one of the two users of
:class:`~repro.serving.front.HttpFront` (the fleet supervisor is the
other).  The front owns the connection loop, routes, drain, metrics and
the reload/refit control plane; this class supplies the two strategies
that make it a single process:

* **a quote runs locally** — a :class:`~repro.serving.admission.AdmissionQueue`
  (bounded; overload sheds with HTTP 429) feeds a
  :class:`~repro.serving.batching.MicroBatcher`, which prices admitted
  requests in single warm kernel calls, bit-identical to per-request
  ``solution.quote()``;
* **a new menu lands by a single-reference swap** — the replacement
  :class:`~repro.serving.state.ServingState` is fully built off-loop
  first, so a failure anywhere leaves the old state serving.

Endpoints::

    POST /quote    {"rows": [[...], ...], "deadline": seconds?}
                   -> 200 payments/revenue/coverage (+ hex twins for
                      bit-exact comparison), fingerprint, batched flag
                   -> 400 ValidationError   (bad rows, wrong item count)
                   -> 429 ServerOverloadedError (admission queue full)
                   -> 504 QuoteDeadlineError    (deadline expired)
    POST /reload   {"path": "solution.json"}
                   -> 200 old/new fingerprints; failure keeps old state
                   -> 409 ReloadConflictError (another reload in flight;
                      payload names its target path)
    POST /refit    {"delta": {"removed": [...], "added": [[...], ...]},
                    "drift_threshold": optional}
                   -> 200 old/new fingerprints + refit mode/drift
                   -> 400 ValidationError (bad delta, or the server was
                      started without the fitted population)
                   -> 409 ReloadConflictError (a reload/refit in flight)
    GET  /healthz  -> 200 live counters (queue depth, sheds, degraded
                      batches, reloads); ``status`` is "draining" once
                      a drain begins
    GET  /readyz   -> 200 once a solution is loaded and the batcher runs,
                      503 otherwise (and while draining)
    GET  /metrics  -> Prometheus text exposition (404 when metrics are off)

429 responses carry a ``Retry-After`` computed from live queue depth ×
the observed per-batch wall clock (EWMA), capped at
:data:`MAX_RETRY_AFTER`.

Deadline guarantee: the handler awaits the ticket's future under
``asyncio.wait_for`` with its *own* clock — even a kernel thread that
hangs cannot stall a response past its deadline; the request is failed
with 504 and its ticket cancelled so the batcher skips it.

The module-level :func:`read_http_request` / :func:`write_http_response`
are the HTTP read and write of both serving shapes.
"""

from __future__ import annotations

import asyncio
import math
import time

import numpy as np

from repro.core import faults
from repro.core.retry import RetryPolicy
from repro.errors import QuoteDeadlineError, ReloadError, ServingError, ValidationError
from repro.serving.admission import AdmissionQueue, QuoteTicket
from repro.serving.batching import MicroBatcher
from repro.serving.front import HttpFront, json_body
from repro.serving.state import ServedQuote, ServingState

#: Largest request body accepted (bytes) before answering 413.
DEFAULT_MAX_BODY = 16 * 1024 * 1024

#: Stream buffer limit — must fit a full header block comfortably.
_HEADER_LIMIT = 64 * 1024

#: Ceiling on the computed 429 ``Retry-After`` (seconds): however deep the
#: backlog estimate, never tell a client to stay away longer than this.
MAX_RETRY_AFTER = 30

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class FramingError(Exception):
    """A request the edge cannot frame; answered with *status*, then closed."""

    def __init__(self, status: int, error: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.error = error


async def read_http_request(
    reader: asyncio.StreamReader, *, max_body_bytes: int = DEFAULT_MAX_BODY
):
    """One parsed request — ``(method, path, headers, body)`` — or None at EOF.

    Consults the ``slow_client`` fault site (a stalled read that the
    caller's ``wait_for`` must bound) and raises :class:`FramingError`
    for a malformed request (400) or an oversized body (413).
    """
    delay = faults.fire("slow_client")
    if delay is not None:
        # Stand-in for a client dribbling bytes: stall the read so the
        # caller's wait_for trips its read timeout.
        await asyncio.sleep(float(delay))
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise _malformed("connection closed mid-request") from None
    except asyncio.LimitOverrunError:
        raise _malformed("header block too large") from None
    try:
        lines = head.decode("latin-1").split("\r\n")
        method, target, _version = lines[0].split(" ", 2)
    except (UnicodeDecodeError, ValueError):
        raise _malformed("unparseable request line") from None
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length_header = headers.get("content-length", "0")
    try:
        length = int(length_header)
    except ValueError:
        raise _malformed(f"bad Content-Length: {length_header!r}") from None
    if length < 0:
        raise _malformed(f"bad Content-Length: {length_header!r}")
    if length > max_body_bytes:
        raise FramingError(
            413,
            "PayloadTooLarge",
            f"request body of {length} bytes exceeds the "
            f"{max_body_bytes}-byte limit",
        )
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise _malformed("connection closed mid-body") from None
    return method.upper(), target.split("?", 1)[0], headers, body


def _malformed(message: str) -> FramingError:
    return FramingError(400, "MalformedRequest", message)


async def write_http_response(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    *,
    keep_alive: bool,
    extra_headers: list[str] | None = None,
    content_type: str = "application/json",
) -> None:
    """Serialize one HTTP/1.1 response (best-effort on a gone peer).

    JSON by default; ``GET /metrics`` overrides *content_type* with the
    Prometheus text exposition type.
    """
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    if extra_headers:
        head.extend(extra_headers)
    try:
        writer.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + body)
        await writer.drain()
    except (ConnectionResetError, BrokenPipeError, OSError):
        pass  # the peer is gone; nothing left to tell it


class QuoteServer(HttpFront):
    """A persistent, robustness-first quote service over one solution.

    Parameters
    ----------
    solution:
        A :class:`~repro.api.BundlingSolution`, a prebuilt
        :class:`ServingState`, a path to a saved solution, or ``None``
        (start empty; ``/readyz`` is 503 until :meth:`reload` loads one).
    deadline:
        Default per-request wall-clock budget in seconds; a request may
        override it downward or upward via the ``deadline`` body field.
    queue_depth:
        Admission bound — requests beyond it are shed with 429.
    batch_window / max_batch:
        Micro-batch accumulation window (seconds) and size cap.
    retry:
        :class:`~repro.core.retry.RetryPolicy` for the batch kernel; the
        default retries twice and then degrades batched → sequential.
    read_timeout:
        Per-connection budget (seconds) for reading one full request;
        exceeding it answers 408 and closes the connection.
    population:
        The WTP population the solution was fitted on — a
        :class:`~repro.core.wtp.WTPMatrix`, a dense array, or a path to a
        ``.npz`` written by :func:`repro.data.save_wtp_npz`.  Required for
        ``POST /refit`` (the incremental warm refit re-prices the menu
        against it); successive refits advance it in memory so deltas
        compound.  ``None`` (default) disables ``/refit`` with a 400.
    """

    def __init__(
        self,
        solution=None,
        *,
        deadline: float = 1.0,
        queue_depth: int = 256,
        batch_window: float = 0.002,
        max_batch: int = 64,
        retry: RetryPolicy | dict | None = None,
        read_timeout: float = 5.0,
        max_body_bytes: int = DEFAULT_MAX_BODY,
        population=None,
    ) -> None:
        if not (float(deadline) > 0):
            raise ValidationError(f"deadline must be positive, got {deadline!r}")
        super().__init__(
            read_timeout=read_timeout,
            max_body_bytes=max_body_bytes,
            drain_timeout=10.0,
            population=population,
        )
        self.deadline = float(deadline)
        if solution is not None:
            self._state = self._coerce_state(solution)
        self._check_population()
        self.admission = AdmissionQueue(queue_depth)
        if retry is None:
            retry = RetryPolicy(max_attempts=3, backoff=0.01, degrade=True)
        self.batcher = MicroBatcher(
            self.admission,
            lambda: self._state,
            batch_window=batch_window,
            max_batch=max_batch,
            retry=retry,
        )
        #: Quotes between admission and resolution.  Drain waits on this
        #: rather than queue/batch introspection: a ticket is invisible to
        #: both in the instant after the batcher dequeues it and before it
        #: marks the batch in flight, and a drain poll landing in that gap
        #: would tear down mid-quote.
        self._open_quotes = 0
        self.deadline_timeouts = 0

    @staticmethod
    def _coerce_state(source) -> ServingState:
        if isinstance(source, ServingState):
            return source
        if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
            from repro.api.solution import BundlingSolution

            return ServingState(BundlingSolution.load(source))
        return ServingState(source)

    @property
    def ready(self) -> bool:
        return self._state is not None and self.batcher.running

    # --------------------------------------------------------------- backend
    async def _start_backend(self) -> None:
        self.batcher.start()

    async def _stop_backend(self, graceful: bool) -> None:
        await self.batcher.stop()

    def _backend_busy(self) -> bool:
        return (
            self._open_quotes > 0
            or self.admission.waiting > 0
            or self.batcher.in_flight
        )

    # ----------------------------------------------------------------- quote
    async def quote(self, rows, deadline: float | None = None) -> ServedQuote:
        """Admit, batch, and price one request (the in-process client path).

        Raises the same typed errors the HTTP front end maps to statuses:
        :class:`ValidationError` for bad rows or a non-positive deadline,
        :class:`ServerOverloadedError` when the admission queue sheds, and
        :class:`QuoteDeadlineError` when the wall-clock budget expires —
        regardless of whether the request was queued, batched, or
        mid-kernel when time ran out.
        """
        state = self._state
        if state is None:
            raise ServingError("no solution loaded; POST /reload one first")
        if deadline is None:
            deadline = self.deadline
        deadline = float(deadline)
        if not (deadline > 0):
            raise ValidationError(f"deadline must be positive, got {deadline!r}")
        prepared = state.prepare_rows(rows)
        loop = asyncio.get_running_loop()
        ticket = QuoteTicket(
            prepared=prepared,
            deadline_at=loop.time() + deadline,
            future=loop.create_future(),
        )
        self.admission.submit(ticket)
        self.requests += 1
        self._open_quotes += 1
        try:
            # shield(): a handler-side timeout must not cancel a future the
            # batcher may be about to resolve for someone else's batch —
            # the explicit cancel below marks it dead once we stop caring.
            return await asyncio.wait_for(asyncio.shield(ticket.future), deadline)
        except asyncio.TimeoutError:
            ticket.future.cancel()
            self.deadline_timeouts += 1
            raise QuoteDeadlineError(
                f"quote not answered within its {deadline:.3f}s deadline"
            ) from None
        finally:
            self._open_quotes -= 1

    async def _handle_quote(self, request, writer, keep_alive: bool) -> None:
        payload = json_body(request[3], "quote", "rows")
        quote = await self.quote(payload["rows"], payload.get("deadline"))
        payments = np.asarray(quote.payments, dtype=np.float64)
        await self._respond(
            writer,
            200,
            {
                "n_users": quote.n_users,
                "payments": payments.tolist(),
                "payments_hex": [float(p).hex() for p in payments],
                "revenue": quote.revenue,
                "revenue_hex": float(quote.revenue).hex(),
                "coverage": quote.coverage,
                "fingerprint": quote.fingerprint,
                "batched": quote.batched,
            },
            keep_alive=keep_alive,
            fingerprint=quote.fingerprint,
        )

    # ---------------------------------------------------------------- reload
    async def _land(self, source) -> dict:
        """Swap in *source* by a single reference, built fully off-loop.

        The replacement is loaded and precomputed **before** the swap, so
        a failure anywhere — unreadable file, corrupted payload,
        fingerprint mismatch, an injected ``reload`` fault — leaves the
        old state serving, untouched.
        """
        loop = asyncio.get_running_loop()
        new_state = await loop.run_in_executor(None, self._coerce_state, source)
        if faults.fire("reload") is not None:
            raise ReloadError("injected reload fault; previous state retained")
        previous = self._state
        # Single-reference swap: in-flight batches keep the state they
        # captured; the batcher re-prepares stale tickets on its next
        # batch against whatever this reference points at then.
        self._state = new_state
        return {
            "previous_fingerprint": None if previous is None else previous.fingerprint,
            "fingerprint": new_state.fingerprint,
        }

    # ---------------------------------------------------------------- health
    def _health(self) -> tuple[str, dict, dict]:
        state = self._state
        if state is None:
            status = "unloaded"
        elif self.batcher.last_batch_degraded:
            status = "degraded"
        else:
            status = "serving"
        detail = {
            "queue": {
                "waiting": self.admission.waiting,
                "depth": self.admission.depth,
                "saturated": self.admission.saturated,
            },
        }
        if state is not None:
            detail["solution"] = {
                "algorithm": state.algorithm,
                "strategy": state.strategy,
                "n_items": state.n_items,
                "n_offers": len(state.offers),
            }
        counters = {
            "admitted": self.admission.admitted,
            "shed": self.admission.shed,
            "batches": self.batcher.batches,
            "quotes": self.batcher.quotes,
            "expired": self.batcher.expired,
            "failed": self.batcher.failed,
            "degraded_batches": self.batcher.degraded_batches,
            "deadline_timeouts": self.deadline_timeouts,
        }
        return status, detail, counters

    # ---------------------------------------------------------------- metrics
    def export_gauges(self, registry) -> None:
        """Refresh scrape-time gauges from live server state.

        Counters are incremented at their event sites; gauges that mirror
        *current* state (queue depth, uptime, solution diagnostics) are set
        here so a scrape always reads the moment's truth rather than the
        last event's.
        """
        registry.gauge("repro_admission_queue_depth",
                       "Tickets waiting in the admission queue.").set(
            self.admission.waiting)
        registry.gauge("repro_server_uptime_seconds",
                       "Seconds since the server started.").set(
            time.monotonic() - self._started_at)
        registry.gauge("repro_open_quotes",
                       "Quotes between admission and resolution.").set(
            self._open_quotes)
        registry.gauge("repro_server_draining",
                       "1 while drain/close is in progress.").set(
            1.0 if self.draining else 0.0)
        state = self._state
        if state is not None:
            registry.gauge("repro_solution_offers",
                           "Offers on the serving menu.").set(len(state.offers))
            diagnostics = state.solution.diagnostics()
            ratio = diagnostics.get("bundle_vs_separate_ratio")
            if ratio is not None:
                registry.gauge(
                    "repro_solution_bundle_vs_separate_ratio",
                    "Kupfer bundle-vs-separate revenue ratio of the menu.",
                ).set(ratio)

    def retry_after_seconds(self) -> int:
        """The 429 ``Retry-After`` estimate, from live queue state.

        ``batches ahead × observed seconds per batch``, where the batch
        time is the batcher's EWMA of real wall clocks — a saturated
        server with slow batches tells clients to stay away longer than
        one clearing its queue in microseconds.  Falls back to 1 second
        before any batch has been observed; always an integer in
        ``[1, MAX_RETRY_AFTER]``.
        """
        per_batch = self.batcher.observed_batch_seconds
        if per_batch is None or per_batch <= 0:
            return 1
        batches_ahead = math.ceil(
            max(1, self.admission.waiting) / self.batcher.max_batch
        )
        estimate = math.ceil(batches_ahead * per_batch)
        return max(1, min(MAX_RETRY_AFTER, estimate))

    def __repr__(self) -> str:
        fp = self.fingerprint
        return (
            f"QuoteServer(fingerprint={fp[:12] + '...' if fp else None}, "
            f"deadline={self.deadline}, queue_depth={self.admission.depth})"
        )
