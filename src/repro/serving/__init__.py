"""Hardened quote serving: warm state, micro-batching, admission, reload.

The serving subsystem answers ``solution.quote()``-identical prices from a
persistent process instead of a cold per-call rebuild:

* :class:`~repro.serving.state.ServingState` — the menu precomputed once
  (supports, scales, price vector, adoption model, compiled offer forest,
  fingerprint);
* :class:`~repro.serving.admission.AdmissionQueue` — bounded admission
  with explicit load shedding (HTTP 429);
* :class:`~repro.serving.batching.MicroBatcher` — micro-batches admitted
  requests into single warm kernel calls, with deadline drops, bounded
  retries, and a batched → sequential degradation rung;
* :class:`~repro.serving.front.HttpFront` — the one HTTP front and
  reload/refit control plane both serving shapes run on: a stdlib-asyncio
  connection loop with read timeouts (408), body limits (413) and typed
  errors on every route, health/readiness/metrics endpoints, graceful
  SIGTERM drain, and reload/refit under one lock (409 on a conflict),
  every response stamped with the serving solution's fingerprint;
* :class:`~repro.serving.server.QuoteServer` — the front over one
  process: quotes run through the local micro-batcher and a new menu
  lands by a single-reference state swap;
* :class:`~repro.serving.supervisor.ServingSupervisor` — the front over
  N supervised worker processes (:mod:`repro.serving.worker`): quotes are
  proxied to the least-loaded healthy worker and a new menu lands by a
  verified rolling rotation; shared-memory menu blocks (one state copy
  per host), crash detection and respawn with backoff, and per-worker
  circuit breakers.

The load-bearing invariant, pinned by ``tests/test_serving.py`` /
``tests/test_supervisor.py`` and the ``serving-smoke`` CI job: every
successfully served quote — batched, degraded, post-reload, or routed
through the fleet — is **bit-identical** to calling ``solution.quote()``
on that request's rows alone.
"""

from repro.serving.admission import AdmissionQueue, QuoteTicket
from repro.serving.batching import MicroBatcher
from repro.serving.server import QuoteServer
from repro.serving.state import PreparedRows, ServedQuote, ServingState
from repro.serving.supervisor import CircuitBreaker, ServingSupervisor

__all__ = [
    "AdmissionQueue",
    "CircuitBreaker",
    "MicroBatcher",
    "PreparedRows",
    "QuoteServer",
    "QuoteTicket",
    "ServedQuote",
    "ServingState",
    "ServingSupervisor",
]
