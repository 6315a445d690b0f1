"""The serving fleet: N supervised worker processes behind one socket.

:class:`ServingSupervisor` is the second user of
:class:`~repro.serving.front.HttpFront` (the single-process
:class:`~repro.serving.server.QuoteServer` is the first): the connection
loop, routes, drain, metrics and the reload/refit control plane are the
same code in both.  The fleet supplies the two strategies that differ:

* **a quote is proxied** — :meth:`~ServingSupervisor._route` picks the
  least-loaded healthy worker and :meth:`~ServingSupervisor._relay`
  forwards its reply byte for byte;
* **a new menu lands by a verified rolling rotation** — publish the new
  menu blocks, take one worker out of rotation at a time (never the last
  ready one), swap its state over the pipe, verify its
  ``X-Solution-Fingerprint`` over HTTP, rotate it back in, and roll every
  rotated worker back if any step fails.  ``/quote`` never answers 503
  during a rotation, and every response carries exactly one of the two
  valid fingerprints.  A refitted solution is first saved next to the
  base one as ``<solution>.refit<N>.json`` and rotated in from there.

Around those strategies the fleet keeps its own backend:

* **One state copy.** The supervisor precomputes the solution's menu-side
  arrays once and publishes them through a
  :class:`~repro.core.shm.SharedWTPStore`
  (:func:`~repro.core.shm.publish_serving_blocks`); each worker attaches
  zero-copy instead of materializing a private menu.  Shared or private,
  the arrays hold the same bits, so every fleet response stays
  bit-identical to cold ``solution.quote()``.
* **Crash recovery.** A worker that dies — process exit, heartbeat
  silence past the timeout, or the ``worker_crash`` fault SIGKILLing it
  mid-batch — is detected by the supervision tick, its in-flight requests
  are retried on a sibling (within a route budget, so clients never see
  the crash), and the slot is respawned with exponential backoff.
* **Circuit breaking.** Each worker carries a :class:`CircuitBreaker`
  (closed → open after ``breaker_threshold`` consecutive routed failures
  → half-open probe after a cooldown → closed on success).  When every
  live worker's breaker is open, the route fails with
  :class:`~repro.errors.CircuitOpenError` (503).
* **Drain.** A drain finishes in-flight proxied requests, then tells each
  worker to drain itself.

Fault sites consulted here: ``route`` (treat the picked worker as failed
without contacting it — deterministic breaker food); the workers consult
``worker_spawn``, ``heartbeat``, and ``worker_crash`` (see
:mod:`repro.serving.worker`).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import time

from repro import obs
from repro.core import faults
from repro.core.shm import SharedWTPStore
from repro.errors import (
    CircuitOpenError,
    ReloadError,
    ValidationError,
    WorkerCrashError,
)
from repro.serving.front import HttpFront
from repro.serving.server import _HEADER_LIMIT, DEFAULT_MAX_BODY, write_http_response

# The shared front reads the fleet's requests through repro.serving.server;
# the name stays importable here because perfbench/launch.py wraps the
# fleet's edge by this module's names.
from repro.serving.server import read_http_request  # noqa: F401
from repro.serving.state import ServingState
from repro.serving.worker import DEFAULT_HEARTBEAT_INTERVAL, worker_main

#: Consecutive failed spawn attempts before a slot is declared failed.
MAX_SPAWN_ATTEMPTS = 5

#: Base backoff (seconds) between respawns of one slot; doubles per
#: consecutive failure, capped at :data:`MAX_SPAWN_BACKOFF`.
SPAWN_BACKOFF = 0.05
MAX_SPAWN_BACKOFF = 2.0


class CircuitBreaker:
    """Closed → open → half-open, driven by routed-request outcomes only.

    ``threshold`` consecutive failures open the breaker; after
    ``cooldown`` seconds one probe request is allowed through
    (half-open).  The probe's outcome decides: success closes the
    breaker, failure re-opens it for another cooldown.  Timestamps come
    from the caller (the supervisor's loop clock), so the machine is
    deterministic under test.
    """

    def __init__(self, threshold: int = 3, cooldown: float = 0.5) -> None:
        if not isinstance(threshold, int) or isinstance(threshold, bool) or threshold < 1:
            raise ValidationError(
                f"breaker threshold must be a positive int, got {threshold!r}"
            )
        self.threshold = threshold
        self.cooldown = float(cooldown)
        self.state = "closed"
        self.failures = 0
        self.opened_at = 0.0

    def allow(self, now: float) -> bool:
        """May a request be routed through this breaker right now?

        An open breaker past its cooldown transitions to half-open and
        admits exactly one probe; further calls answer False until the
        probe's outcome is recorded.
        """
        if self.state == "closed":
            return True
        if self.state == "open" and now - self.opened_at >= self.cooldown:
            self.state = "half-open"
            return True
        return False

    def record_success(self) -> None:
        self.state = "closed"
        self.failures = 0

    def record_failure(self, now: float) -> None:
        if self.state == "half-open":
            self.opened_at = now
            self.state = "open"
            return
        self.failures += 1
        if self.failures >= self.threshold:
            self.state = "open"
            self.opened_at = now

    def __repr__(self) -> str:
        return f"CircuitBreaker({self.state}, failures={self.failures})"


class WorkerHandle:
    """Supervisor-side record of one worker slot."""

    def __init__(self, index: int, breaker: CircuitBreaker) -> None:
        self.index = index
        self.breaker = breaker
        self.process = None
        self.conn = None
        self.port: int | None = None
        self.pid: int | None = None
        self.fingerprint: str | None = None
        #: "starting" | "ready" | "dead" | "failed" (spawn attempts exhausted)
        self.phase = "dead"
        #: False while a rolling reload holds the worker out of rotation.
        self.in_rotation = True
        #: In-flight proxied requests (the least-loaded routing key).
        self.active = 0
        self.last_heartbeat = 0.0
        self.spawn_failures = 0
        #: Lifetime totals for this slot.  ``spawn_failures`` resets once
        #: the worker comes up; these two never do, so ``/healthz`` and
        #: ``/metrics`` can show a slot's full crash history.
        self.spawn_retries = 0
        self.respawns = 0
        #: Last metrics snapshot received on this slot's heartbeat (only
        #: populated when the fleet runs with metrics enabled).
        self.metrics_snapshot: dict | None = None
        #: Future the tick loop resolves with a worker "reloaded" /
        #: "reload_failed" message, awaited by the rolling reload.
        self.reload_reply: asyncio.Future | None = None

    @property
    def routable(self) -> bool:
        return self.phase == "ready" and self.in_rotation

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class ServingSupervisor(HttpFront):
    """N supervised quote workers behind one listening socket.

    Parameters mirror :class:`~repro.serving.server.QuoteServer` where
    they configure the per-worker servers; the fleet-level knobs are
    ``workers`` (process count), ``heartbeat_interval`` /
    ``heartbeat_timeout`` (liveness), ``breaker_threshold`` /
    ``breaker_cooldown`` (per-worker circuit breaker), ``route_budget``
    (wall-clock a single request may spend failing over before the
    client sees an error), and ``drain_timeout``.  ``population`` is read
    at construction, as the single server reads it.
    """

    def __init__(
        self,
        path,
        *,
        workers: int = 2,
        deadline: float = 1.0,
        queue_depth: int = 256,
        batch_window: float = 0.002,
        max_batch: int = 64,
        read_timeout: float = 5.0,
        max_body_bytes: int = DEFAULT_MAX_BODY,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_timeout: float | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 0.5,
        route_budget: float = 15.0,
        drain_timeout: float = 10.0,
        trace_log: str | None = None,
        population=None,
    ) -> None:
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise ValidationError(f"workers must be a positive int, got {workers!r}")
        super().__init__(
            read_timeout=read_timeout,
            max_body_bytes=max_body_bytes,
            drain_timeout=drain_timeout,
            population=population,
        )
        self._path = os.fspath(path)
        #: Refitted artifacts are saved as ``<base>.refit<N>.json`` so the
        #: chain never grows the filename, however many refits land.
        self._refit_base = self._path
        self._refit_seq = 0
        self.workers_wanted = workers
        self.heartbeat_interval = float(heartbeat_interval)
        if heartbeat_timeout is None:
            heartbeat_timeout = max(1.5, 6.0 * self.heartbeat_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown = float(breaker_cooldown)
        self.route_budget = float(route_budget)
        self._worker_options = {
            "deadline": float(deadline),
            "queue_depth": int(queue_depth),
            "batch_window": float(batch_window),
            "max_batch": int(max_batch),
            "read_timeout": self.read_timeout,
            "heartbeat_interval": self.heartbeat_interval,
            "drain_timeout": self.drain_timeout,
        }
        #: Base path for per-worker JSONL span sinks (workers append a
        #: ``.worker<i>`` suffix); forwarded at spawn time.
        self.trace_log = trace_log
        self._context = multiprocessing.get_context("spawn")
        self.handles: list[WorkerHandle] = [
            WorkerHandle(i, CircuitBreaker(self.breaker_threshold, self.breaker_cooldown))
            for i in range(workers)
        ]
        self._blocks = None
        #: One store per published menu generation; the old generation is
        #: unlinked once a rolling reload fully rotates (mappings held by
        #: workers survive the unlink until they detach).
        self._stores: list[SharedWTPStore] = []
        self._generation = 0
        self._tick_task: asyncio.Task | None = None
        self._respawn_tasks: set[asyncio.Task] = set()
        self.routed = 0
        self.route_retries = 0
        self.worker_deaths = 0
        self.heartbeat_timeouts = 0
        self.respawns = 0
        self.spawn_retries = 0

    @property
    def ready(self) -> bool:
        return any(h.phase == "ready" for h in self.handles)

    # ----------------------------------------------------------------- publish
    def _publish(self, path) -> tuple[ServingState, object]:
        """Load *path* and publish its menu into a fresh store generation."""
        from repro.api.solution import BundlingSolution

        state = ServingState(BundlingSolution.load(path))
        store = SharedWTPStore()
        self._generation += 1
        try:
            blocks = state.publish(store, key_prefix=f"menu{self._generation}")
        except BaseException:
            store.close()
            raise
        self._stores.append(store)
        return state, blocks

    def _retire_store(self, store: SharedWTPStore) -> None:
        if store in self._stores:
            self._stores.remove(store)
            store.close()

    # ------------------------------------------------------------------ spawn
    def _spawn(self, handle: WorkerHandle) -> None:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        # Observability enablement is read at spawn time, not __init__, so
        # respawned workers always match the supervisor's current state.
        options = dict(self._worker_options)
        options["metrics"] = obs.metrics_enabled()
        options["trace_log"] = self.trace_log
        process = self._context.Process(
            target=worker_main,
            args=(handle.index, self._path, self._blocks, child_conn, options),
            daemon=True,
            name=f"repro-quote-worker-{handle.index}",
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.port = None
        handle.pid = None
        handle.fingerprint = None
        handle.metrics_snapshot = None
        handle.phase = "starting"
        handle.last_heartbeat = asyncio.get_running_loop().time()

    async def _await_ready(self, handle: WorkerHandle, timeout: float = 30.0) -> bool:
        """Wait for the ``ready`` message (and verify over HTTP)."""
        loop = asyncio.get_running_loop()
        deadline_at = loop.time() + timeout
        while loop.time() < deadline_at:
            while handle.conn is not None and handle.conn.poll():
                try:
                    message = handle.conn.recv()
                except (EOFError, OSError):
                    return False
                if message[0] == "ready":
                    _, _, port, fingerprint, pid = message
                    handle.port = int(port)
                    handle.fingerprint = fingerprint
                    handle.pid = int(pid)
                    handle.last_heartbeat = loop.time()
                    if not await self._verify_worker(handle, fingerprint):
                        return False
                    handle.phase = "ready"
                    handle.spawn_failures = 0
                    handle.breaker.record_success()
                    return True
                if message[0] == "spawn_failed":
                    return False
                if message[0] == "heartbeat":
                    handle.last_heartbeat = loop.time()
                    if len(message) > 2:
                        handle.metrics_snapshot = message[2]
            if not handle.alive():
                return False
            await asyncio.sleep(0.01)
        return False

    async def _verify_worker(self, handle: WorkerHandle, expected: str | None) -> bool:
        """Probe the worker's ``/readyz`` and check its fingerprint header."""
        try:
            status, headers, _body = await asyncio.wait_for(
                self._roundtrip(handle, "GET", "/readyz", {}, b""), 5.0
            )
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
            return False
        if status != 200:
            return False
        if expected is not None and headers.get("x-solution-fingerprint") != expected:
            return False
        return True

    def _schedule_respawn(self, handle: WorkerHandle) -> None:
        """Respawn a dead slot after exponential backoff (one task per slot)."""
        if self.draining or handle.phase == "starting":
            return
        handle.phase = "starting"  # claims the slot; cleared on outcome

        async def _respawn() -> None:
            delay = min(
                MAX_SPAWN_BACKOFF, SPAWN_BACKOFF * (2.0 ** handle.spawn_failures)
            )
            await asyncio.sleep(delay)
            if self.draining:
                handle.phase = "dead"
                return
            self._reap(handle)
            self._spawn(handle)
            self.respawns += 1
            handle.respawns += 1
            obs.counter_inc(
                "repro_worker_respawn_total",
                help="Worker processes respawned after a death.",
                labelnames=("slot",),
                slot=str(handle.index),
            )
            if await self._await_ready(handle):
                return
            handle.spawn_failures += 1
            handle.spawn_retries += 1
            self.spawn_retries += 1
            obs.counter_inc(
                "repro_spawn_retries_total",
                help="Failed spawn attempts that were retried.",
                labelnames=("slot",),
                slot=str(handle.index),
            )
            self._reap(handle, kill=True)
            if handle.spawn_failures >= MAX_SPAWN_ATTEMPTS:
                handle.phase = "failed"
                return
            handle.phase = "dead"
            self._schedule_respawn(handle)

        task = asyncio.ensure_future(_respawn())
        self._respawn_tasks.add(task)
        task.add_done_callback(self._respawn_tasks.discard)

    def _reap(self, handle: WorkerHandle, kill: bool = False) -> None:
        """Join (optionally kill) a slot's dead process and close its pipe."""
        process = handle.process
        if process is not None:
            if kill and process.is_alive():
                process.kill()
            process.join(timeout=5.0)
            handle.process = None
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            handle.conn = None
        if handle.reload_reply is not None and not handle.reload_reply.done():
            handle.reload_reply.set_exception(
                WorkerCrashError(f"worker {handle.index} died mid-reload")
            )
            handle.reload_reply = None

    # ------------------------------------------------------------ supervision
    async def _tick_loop(self) -> None:
        interval = max(0.02, self.heartbeat_interval / 4.0)
        while True:
            self._tick(asyncio.get_running_loop().time())
            await asyncio.sleep(interval)

    def _tick(self, now: float) -> None:
        for handle in self.handles:
            if handle.phase == "starting":
                # The spawn/respawn task owns the pipe until the slot is
                # ready; draining it here would swallow the very "ready"
                # message _await_ready is polling for.
                continue
            self._drain_pipe(handle, now)
            if handle.phase == "ready":
                if not handle.alive():
                    handle.breaker.record_failure(now)
                    self._declare_dead(handle)
                elif now - handle.last_heartbeat > self.heartbeat_timeout:
                    # Silent worker: the process is technically alive but
                    # not talking — kill it and start over.
                    self.heartbeat_timeouts += 1
                    obs.counter_inc(
                        "repro_worker_heartbeat_timeouts_total",
                        help="Workers killed for heartbeat silence.",
                        labelnames=("slot",),
                        slot=str(handle.index),
                    )
                    handle.breaker.record_failure(now)
                    self._declare_dead(handle, kill=True)

    def _declare_dead(self, handle: WorkerHandle, kill: bool = False) -> None:
        """Count a ready slot's worker as dead, reap it, schedule a respawn."""
        self.worker_deaths += 1
        obs.counter_inc(
            "repro_worker_deaths_total",
            help="Worker deaths detected (process exit or silence).",
            labelnames=("slot",),
            slot=str(handle.index),
        )
        handle.phase = "dead"
        self._reap(handle, kill=kill)
        self._schedule_respawn(handle)

    def _drain_pipe(self, handle: WorkerHandle, now: float) -> None:
        conn = handle.conn
        if conn is None:
            return
        try:
            while conn.poll():
                message = conn.recv()
                handle.last_heartbeat = now
                kind = message[0]
                if kind == "heartbeat" and len(message) > 2:
                    handle.metrics_snapshot = message[2]
                if kind in ("reloaded", "reload_failed"):
                    reply = handle.reload_reply
                    handle.reload_reply = None
                    if reply is not None and not reply.done():
                        reply.set_result(message)
        except (EOFError, OSError):
            # Pipe gone: the liveness check below this tick handles it.
            pass

    # ---------------------------------------------------------------- backend
    async def _start_backend(self) -> None:
        """Publish the menu, then boot every worker slot concurrently."""
        loop = asyncio.get_running_loop()
        self._state, self._blocks = await loop.run_in_executor(
            None, self._publish, self._path
        )
        self._check_population()

        async def _start_slot(handle: WorkerHandle) -> None:
            attempts = 0
            while True:
                self._spawn(handle)
                if await self._await_ready(handle):
                    return
                attempts += 1
                handle.spawn_failures += 1
                handle.spawn_retries += 1
                self.spawn_retries += 1
                obs.counter_inc(
                    "repro_spawn_retries_total",
                    help="Failed spawn attempts that were retried.",
                    labelnames=("slot",),
                    slot=str(handle.index),
                )
                self._reap(handle, kill=True)
                if attempts >= MAX_SPAWN_ATTEMPTS:
                    handle.phase = "failed"
                    raise WorkerCrashError(
                        f"worker {handle.index} failed to start after "
                        f"{attempts} attempts"
                    )
                await asyncio.sleep(
                    min(MAX_SPAWN_BACKOFF, SPAWN_BACKOFF * (2.0 ** attempts))
                )

        # All slots boot concurrently — interpreter start-up dominates
        # fleet launch, so serializing it would double the latency.
        results = await asyncio.gather(
            *(_start_slot(handle) for handle in self.handles),
            return_exceptions=True,
        )
        for outcome in results:
            if isinstance(outcome, BaseException):
                raise outcome
        self._tick_task = asyncio.ensure_future(self._tick_loop())

    async def _stop_backend(self, graceful: bool) -> None:
        """Stop supervising, stop the workers, unlink every menu block."""
        if self._tick_task is not None:
            self._tick_task.cancel()
            try:
                await self._tick_task
            except asyncio.CancelledError:
                pass
            self._tick_task = None
        await self._shutdown_workers(graceful=graceful)
        while self._stores:
            store = self._stores.pop()
            try:
                store.close()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass

    async def _shutdown_workers(self, graceful: bool) -> None:
        for task in list(self._respawn_tasks):
            task.cancel()
        for task in list(self._respawn_tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        loop = asyncio.get_running_loop()
        for handle in self.handles:
            process = handle.process
            if process is None or not process.is_alive():
                self._reap(handle)
                continue
            if graceful:
                try:
                    handle.conn.send(("drain",))
                except (BrokenPipeError, OSError, AttributeError):
                    process.terminate()
            else:
                process.terminate()
        if graceful:
            deadline_at = loop.time() + self.drain_timeout + 1.0
            for handle in self.handles:
                process = handle.process
                while (
                    process is not None
                    and process.is_alive()
                    and loop.time() < deadline_at
                ):
                    await asyncio.sleep(0.02)
        for handle in self.handles:
            handle.phase = "dead" if handle.phase != "failed" else "failed"
            self._reap(handle, kill=True)

    # ---------------------------------------------------------------- routing
    def _pick(self, now: float) -> WorkerHandle | None:
        """The least-loaded routable worker whose breaker admits traffic."""
        best = None
        for handle in self.handles:
            if not handle.routable or not handle.breaker.allow(now):
                continue
            if best is None or handle.active < best.active:
                best = handle
        return best

    async def _roundtrip(
        self, handle: WorkerHandle, method: str, path: str, headers: dict, body: bytes
    ):
        """One proxied HTTP exchange with a worker (fresh connection)."""
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", handle.port, limit=_HEADER_LIMIT
        )
        try:
            head = [
                f"{method} {path} HTTP/1.1",
                "Host: 127.0.0.1",
                f"Content-Length: {len(body)}",
                "Connection: close",
            ]
            if "content-type" in headers:
                head.append(f"Content-Type: {headers['content-type']}")
            writer.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + body)
            await writer.drain()
            raw = await reader.readuntil(b"\r\n\r\n")
            lines = raw.decode("latin-1").split("\r\n")
            status = int(lines[0].split(" ", 2)[1])
            reply_headers: dict[str, str] = {}
            for line in lines[1:]:
                if not line:
                    continue
                name, _, value = line.partition(":")
                reply_headers[name.strip().lower()] = value.strip()
            length = int(reply_headers.get("content-length", "0"))
            reply_body = await reader.readexactly(length) if length else b""
            return status, reply_headers, reply_body
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _route(self, method: str, path: str, headers: dict, body: bytes):
        """Route one request to a healthy worker, failing over on crashes.

        Retries across siblings (and across respawns) within
        ``route_budget`` seconds; a worker crash is therefore never
        client-visible as long as some worker comes back inside the
        budget.  Raises :class:`CircuitOpenError` when every live worker's
        breaker is open, :class:`WorkerCrashError` when the budget expires
        with no live worker at all.
        """
        loop = asyncio.get_running_loop()
        budget_at = loop.time() + self.route_budget
        self.requests += 1
        obs.counter_inc(
            "repro_fleet_requests_total", help="Client requests routed to the fleet."
        )
        first_attempt = True
        while True:
            now = loop.time()
            if now >= budget_at:
                raise WorkerCrashError(
                    "no worker answered within the "
                    f"{self.route_budget:.1f}s route budget"
                )
            handle = self._pick(now)
            if handle is None:
                if not first_attempt:
                    self.route_retries += 1
                    self._count_route_retry()
                first_attempt = False
                if any(h.routable and h.alive() for h in self.handles):
                    # Live routable workers exist but every breaker is open
                    # and cooling down: shed rather than hammer them.
                    raise CircuitOpenError(
                        "every worker's circuit breaker is open"
                    )
                # Nothing routable (crashed / respawning): wait for a
                # respawn inside the budget.
                await asyncio.sleep(0.02)
                continue
            if not first_attempt:
                self.route_retries += 1
                self._count_route_retry()
            first_attempt = False
            if faults.fire("route") is not None:
                # Injected routing failure: the worker is treated as
                # failed without being contacted.
                handle.breaker.record_failure(loop.time())
                continue
            handle.active += 1
            try:
                attempt_budget = max(0.05, budget_at - loop.time())
                status, reply_headers, reply_body = await asyncio.wait_for(
                    self._roundtrip(handle, method, path, headers, body),
                    attempt_budget,
                )
            except (OSError, asyncio.IncompleteReadError, asyncio.TimeoutError, ValueError):
                # Give a just-killed process the beat it needs to turn
                # zombie: its sockets reset a hair before waitpid can see
                # the exit, and without the pause the retry loop would
                # read the crash as an alive-worker refusal.
                await asyncio.sleep(0.005)
                if not handle.alive():
                    # The worker died under us (SIGKILLed mid-batch, say).
                    # That is a crash, not a breaker-worthy refusal: reap
                    # and respawn now instead of waiting for the tick, and
                    # keep the breaker closed so the replacement takes the
                    # failover as soon as it is ready.  Counting instant
                    # connection-refused retries against the breaker would
                    # open it in microseconds and shed load the respawn is
                    # about to absorb.
                    if handle.phase == "ready":
                        self._declare_dead(handle)
                    await asyncio.sleep(0.02)
                    continue
                # Alive but torn/hung/refusing: record and fail over; the
                # tick loop keeps watching its heartbeat.
                handle.breaker.record_failure(loop.time())
                continue
            finally:
                handle.active -= 1
            handle.breaker.record_success()
            self.routed += 1
            obs.counter_inc(
                "repro_fleet_routed_total",
                help="Requests answered by a worker, by slot.",
                labelnames=("slot",),
                slot=str(handle.index),
            )
            return status, reply_headers, reply_body

    @staticmethod
    def _count_route_retry() -> None:
        obs.counter_inc(
            "repro_fleet_route_retries_total",
            help="Failover attempts beyond a request's first routing try.",
        )

    # ----------------------------------------------------------------- reload
    async def _land(self, source) -> dict:
        """Rotate the fleet onto *source*, one verified worker at a time.

        *source* is a solution path, or a refitted ``BundlingSolution``,
        which is first saved as ``<solution>.refit<N>.json`` (its path is
        returned under ``"path"``).  A failed rotation rolls every rotated
        worker back onto the old menu before raising.
        """
        loop = asyncio.get_running_loop()
        landed = {}
        if not (isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")):
            self._refit_seq += 1
            landed["path"] = f"{self._refit_base}.refit{self._refit_seq}.json"
            await loop.run_in_executor(None, source.save, landed["path"])
            source = landed["path"]
        path = os.fspath(source)
        new_state, new_blocks = await loop.run_in_executor(None, self._publish, path)
        old_state, old_path, old_blocks = self._state, self._path, self._blocks
        old_fingerprint = self.fingerprint
        old_store = self._stores[-2] if len(self._stores) > 1 else None
        new_store = self._stores[-1]
        # Point respawns at the new menu *before* rotating: a worker that
        # crashes mid-rotation comes back already on the new fingerprint
        # (one of the two valid ones), never on a third.
        self._state, self._path, self._blocks = new_state, path, new_blocks
        rotated: list[WorkerHandle] = []
        try:
            for handle in list(self.handles):
                if handle.phase != "ready":
                    continue  # dead/starting slots respawn onto the new menu
                if handle.fingerprint != new_state.fingerprint:
                    await self._rotate_worker(
                        handle, path, new_blocks, new_state.fingerprint
                    )
                rotated.append(handle)
        except BaseException as exc:
            # Roll back: restore the old menu for respawns and rotate the
            # already-swapped workers back (best effort).
            self._state, self._path, self._blocks = old_state, old_path, old_blocks
            for handle in rotated:
                try:
                    await self._rotate_worker(
                        handle, old_path, old_blocks, old_fingerprint
                    )
                except Exception:  # pragma: no cover - double fault
                    pass
            self._retire_store(new_store)
            raise ReloadError(
                f"rolling reload failed; previous menu restored: {exc}"
            ) from exc
        if old_store is not None:
            # Every worker is off the old blocks (their mappings survive
            # the unlink until they detach, so even a stale in-flight
            # batch stays safe).
            self._retire_store(old_store)
        return {
            "previous_fingerprint": old_fingerprint,
            "fingerprint": new_state.fingerprint,
            **landed,
        }

    async def _rotate_worker(
        self, handle: WorkerHandle, path: str, blocks, expected: str
    ) -> None:
        """Swap one worker's state and verify its fingerprint over HTTP."""
        others = [
            h for h in self.handles if h is not handle and h.routable
        ]
        if others:
            # Never rotate the last ready worker out: with siblings
            # covering, /quote keeps answering during the swap.
            handle.in_rotation = False
        try:
            reply = asyncio.get_running_loop().create_future()
            handle.reload_reply = reply
            try:
                handle.conn.send(("reload", path, blocks))
            except (BrokenPipeError, OSError, AttributeError) as exc:
                handle.reload_reply = None
                if handle.phase == "ready":
                    # The worker died before the command reached it; say
                    # so now rather than at the next supervision tick.
                    self._declare_dead(handle, kill=True)
                raise ReloadError(
                    f"worker {handle.index} unreachable for reload: {exc}"
                ) from exc
            message = await asyncio.wait_for(reply, 30.0)
            if message[0] == "reload_failed":
                raise ReloadError(
                    f"worker {handle.index} reload failed: {message[2]}"
                )
            handle.fingerprint = message[3]
            if not await self._verify_worker(handle, expected):
                raise ReloadError(
                    f"worker {handle.index} did not verify fingerprint "
                    f"{expected[:12]}... after reload"
                )
        finally:
            handle.in_rotation = True

    # ---------------------------------------------------------------- health
    def _health(self) -> tuple[str, dict, dict]:
        """Per-worker truth and fleet counters for ``/healthz``."""
        ready = sum(1 for h in self.handles if h.phase == "ready")
        if ready == 0:
            status = "down"
        elif ready < len(self.handles):
            status = "degraded"
        else:
            status = "serving"
        detail = {
            "in_flight": self._in_flight,
            "workers": [
                {
                    "index": h.index,
                    "phase": h.phase,
                    "pid": h.pid,
                    "port": h.port,
                    "in_rotation": h.in_rotation,
                    "active": h.active,
                    "breaker": h.breaker.state,
                    "breaker_failures": h.breaker.failures,
                    "spawn_failures": h.spawn_failures,
                    "spawn_retries": h.spawn_retries,
                    "respawns": h.respawns,
                    "fingerprint": h.fingerprint,
                }
                for h in self.handles
            ],
        }
        counters = {
            "routed": self.routed,
            "route_retries": self.route_retries,
            "worker_deaths": self.worker_deaths,
            "heartbeat_timeouts": self.heartbeat_timeouts,
            "respawns": self.respawns,
            "spawn_retries": self.spawn_retries,
        }
        return status, detail, counters

    # ------------------------------------------------------------- HTTP edge
    async def _handle_quote(self, request, writer, keep_alive: bool) -> None:
        """Proxy one ``/quote`` to a worker and relay its reply verbatim."""
        status, reply_headers, reply_body = await self._route(*request)
        await self._relay(
            writer, status, reply_headers, reply_body, keep_alive=keep_alive
        )

    async def _relay(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        reply_headers: dict,
        reply_body: bytes,
        *,
        keep_alive: bool,
    ) -> None:
        """Forward a worker's response verbatim (body bytes untouched)."""
        extra = []
        for name in ("x-solution-fingerprint", "retry-after"):
            if name in reply_headers:
                pretty = "-".join(part.capitalize() for part in name.split("-"))
                extra.append(f"{pretty}: {reply_headers[name]}")
        await write_http_response(
            writer, status, reply_body, keep_alive=keep_alive, extra_headers=extra
        )

    _BREAKER_STATES = {"closed": 0, "half-open": 1, "open": 2}

    def export_gauges(self, registry) -> None:
        """Refresh fleet gauges right before a scrape renders them."""
        obs.gauge_set(
            "repro_fleet_in_flight", self._in_flight,
            help="Client requests currently in flight at the edge.",
        )
        obs.gauge_set(
            "repro_fleet_workers_ready",
            sum(1 for h in self.handles if h.phase == "ready"),
            help="Workers in the ready phase.",
        )
        obs.gauge_set(
            "repro_fleet_draining", 1.0 if self.draining else 0.0,
            help="1 while the fleet is draining.",
        )
        obs.gauge_set(
            "repro_supervisor_uptime_seconds",
            time.monotonic() - self._started_at,
            help="Seconds since the supervisor started.",
        )
        for h in self.handles:
            obs.gauge_set(
                "repro_worker_breaker_state",
                float(self._BREAKER_STATES.get(h.breaker.state, 2)),
                help="Per-slot breaker state (0 closed, 1 half-open, 2 open).",
                labelnames=("slot",),
                slot=str(h.index),
            )
            obs.gauge_set(
                "repro_worker_up", 1.0 if h.phase == "ready" else 0.0,
                help="1 while the slot's worker is ready.",
                labelnames=("slot",),
                slot=str(h.index),
            )
            obs.gauge_set(
                "repro_worker_active_requests", h.active,
                help="Proxied requests in flight per slot.",
                labelnames=("slot",),
                slot=str(h.index),
            )

    def _metric_snapshots(self) -> list:
        # Every live worker's last heartbeat snapshot, with an injected
        # worker label — the fleet-wide view behind one scrape endpoint.
        return [
            (h.metrics_snapshot, {"worker": str(h.index)})
            for h in self.handles
            if h.metrics_snapshot is not None
        ]

    def __repr__(self) -> str:
        ready = sum(1 for h in self.handles if h.phase == "ready")
        return (
            f"ServingSupervisor({ready}/{len(self.handles)} workers ready, "
            f"fingerprint={(self.fingerprint or '')[:12]}...)"
        )
