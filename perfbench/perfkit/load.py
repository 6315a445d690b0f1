"""The load generator: one process, at most ``nproc`` threads, keep-alive HTTP.

Each thread owns one persistent ``http.client`` connection, so threads and
connections are capped together.  The calling thread runs one of the
loops itself, so the generator never holds more than ``connections``
threads.  Stdlib only.

Both loops also sample the host's CPU steal counters (``/proc/stat``)
before every operation, so each time window of a phase can be checked
for CPU time the hypervisor took away from this machine.

*Open loop*: operations carry due times from a fixed schedule; a thread
takes the next due operation, waits for its due time, sends it, and the
latency is timed from the due time, so a stalled server also charges the
operations queued behind the stall.  How late each send left is recorded
as generator lateness.  *Closed loop*: every connection sends its next
request as soon as the previous one is answered.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

PROC_STAT = Path("/proc/stat")


def host_ticks() -> tuple[float, int, int]:
    """``(monotonic, steal, total)``: the host CPU tick counters right now."""
    fields = [int(x) for x in PROC_STAT.read_text().split("\n", 1)[0].split()[1:9]]
    return time.monotonic(), fields[7], sum(fields)


@dataclass
class Op:
    """One HTTP operation and, after it ran, its outcome."""

    kind: str
    path: str
    body: bytes
    index: int = 0
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    fingerprint: str | None = None
    reply: bytes | None = None
    error: str | None = None
    keep_reply: bool = False

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.error is None


@dataclass
class Phase:
    """What one phase sent, and how it went."""

    name: str
    ops: list = field(default_factory=list)
    segments: list = field(default_factory=list)
    host: list = field(default_factory=list)  # host_ticks() samples
    started: float = 0.0
    ended: float = 0.0

    @property
    def sent(self) -> int:
        return len(self.ops)

    @property
    def succeeded(self) -> int:
        return sum(op.ok for op in self.ops)

    @property
    def failed(self) -> int:
        return self.sent - self.succeeded

    def summary(self) -> str:
        return (f"{self.name}: sent={self.sent} succeeded={self.succeeded} "
                f"failed={self.failed} over {self.ended - self.started:.3f}s")


class Client:
    """One keep-alive connection to the server under test."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self.conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str, body: bytes = b""):
        """``(status, headers, body)``; reconnects once on a dropped keep-alive."""
        for attempt in (0, 1):
            if self.conn is None:
                self.conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
            try:
                self.conn.request(method, path, body=body,
                                  headers={"Content-Type": "application/json"})
                response = self.conn.getresponse()
                payload = response.read()
                return response.status, response, payload
            except (http.client.RemoteDisconnected, BrokenPipeError, ConnectionResetError):
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def run(self, op: Op) -> None:
        op.sent = time.monotonic()
        try:
            status, response, payload = self.request("POST", op.path, op.body)
            op.status = status
            op.fingerprint = response.getheader("X-Solution-Fingerprint")
            if op.keep_reply or status != 200:
                op.reply = payload
        except (OSError, http.client.HTTPException) as exc:
            op.error = repr(exc)
            self.close()
        op.done = time.monotonic()

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def _fan_out(clients, target) -> None:
    """Run ``target(client)`` on every client: extra threads plus this one."""
    errors = []

    def guarded(client):
        try:
            target(client)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(client,)) for client in clients[1:]]
    for thread in threads:
        thread.start()
    try:
        guarded(clients[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def open_loop(clients, ops, name: str = "open") -> Phase:
    """Send ``ops`` (with ``due`` offsets in seconds) on schedule."""
    phase = Phase(name, list(ops))
    lock = threading.Lock()
    cursor = iter(phase.ops)
    phase.host.append(host_ticks())
    phase.started = time.monotonic()
    base = phase.started

    def loop(client: Client) -> None:
        while True:
            with lock:
                op = next(cursor, None)
            if op is None:
                return
            op.due = base + op.due
            phase.host.append(host_ticks())
            delay = op.due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            client.run(op)

    _fan_out(clients, loop)
    phase.ended = time.monotonic()
    phase.host.append(host_ticks())
    return phase


def closed_loop(clients, make_op, seconds: float, name: str = "closed",
                segment: float | None = None) -> Phase:
    """Every connection sends back to back for ``seconds``.

    With ``segment``, the phase is cut into segments of that length and
    every connection starts each segment together (a barrier), so each
    segment starts from the same state; ``phase.segments`` holds their
    ``(start, end)`` times.
    """
    phase = Phase(name)
    lock = threading.Lock()
    count = max(1, int(seconds / segment)) if segment else 1
    length = seconds / count
    barrier = threading.Barrier(len(clients), timeout=60.0)
    phase.host.append(host_ticks())
    phase.started = time.monotonic()

    def loop(client: Client) -> None:
        for _ in range(count):
            if barrier.wait() == 0:
                now = time.monotonic()
                phase.segments.append((now, now + length))
            barrier.wait()
            stop_at = phase.segments[-1][1]
            while (now := time.monotonic()) < stop_at:
                with lock:
                    op = make_op(len(phase.ops))
                    phase.ops.append(op)
                phase.host.append(host_ticks())
                op.due = now
                client.run(op)

    _fan_out(clients, loop)
    phase.ended = time.monotonic()
    phase.host.append(host_ticks())
    return phase


def lateness(phase: Phase) -> list[float]:
    """Seconds each operation left after its due time."""
    return [op.sent - op.due for op in phase.ops if op.sent]
