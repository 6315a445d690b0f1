"""Serving fleet: crash recovery, circuit breaking, rolling reload, drain.

The contract under test: a :class:`~repro.serving.ServingSupervisor` fleet
answers every quote **bit-identical** to cold ``solution.quote()`` — across
worker crashes (``worker_crash`` fault SIGKILLing workers mid-load, with
respawn), circuit-breaker transitions (``route`` fault), and rolling
zero-downtime reloads (never a 503, every response stamped by exactly one
of the two valid fingerprints, the old one gone after rotation).

Workers are real spawned processes; the menu-side arrays live in shared
memory published once by the supervisor (the conftest leak check pins that
every block is unlinked on stop).  No pytest-asyncio: each test drives its
own event loop via ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import BundlingSolver, EngineConfig
from repro.core import faults
from repro.core.faults import parse_fault_spec
from repro.errors import (
    CircuitOpenError,
    ValidationError,
    WorkerCrashError,
)
from repro.serving import CircuitBreaker, ServingSupervisor
from repro.serving import supervisor as supervisor_module

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def fleet_solutions(small_wtp, tmp_path_factory):
    """Two fitted solutions saved to disk: the serving menu and a reload."""
    base = tmp_path_factory.mktemp("fleet-menus")
    first = BundlingSolver("mixed_greedy", EngineConfig(theta=0.15)).fit(small_wtp)
    second = BundlingSolver("mixed_greedy", EngineConfig(theta=0.2)).fit(small_wtp)
    first_path = base / "menu_a.json"
    second_path = base / "menu_b.json"
    first.save(first_path)
    second.save(second_path)
    return first, second, str(first_path), str(second_path)


@pytest.fixture(scope="module")
def request_blocks(fleet_solutions):
    first, _, _, _ = fleet_solutions
    rng = np.random.default_rng(11)
    return [
        rng.uniform(0.0, 12.0, size=(size, first.n_items))
        for size in (1, 3, 7, 2, 5)
    ]


@pytest.fixture()
def clean_faults(monkeypatch):
    yield monkeypatch
    monkeypatch.delenv(faults.FAULT_ENV, raising=False)
    monkeypatch.delenv(faults.FAULT_SEED_ENV, raising=False)
    faults.reset()


async def _request(host, port, method, path, payload=None):
    """One HTTP exchange on a fresh connection; returns (status, headers, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = b"" if payload is None else json.dumps(payload).encode()
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n".encode()
            + body
        )
        await writer.drain()
        head = (await reader.readuntil(b"\r\n\r\n")).split(b"\r\n")
        status = int(head[0].split()[1])
        headers = {}
        for line in head[1:]:
            if b":" in line:
                name, _, value = line.partition(b":")
                headers[name.strip().lower().decode()] = value.strip().decode()
        content = await reader.readexactly(int(headers.get("content-length", 0)))
        return status, headers, json.loads(content) if content else None
    finally:
        writer.close()


def _assert_payload_identical(payload, cold):
    __tracebackhide__ = True
    served = np.array([float.fromhex(value) for value in payload["payments_hex"]])
    assert np.array_equal(served, np.asarray(cold.payments, dtype=np.float64))
    assert float.fromhex(payload["revenue_hex"]) == cold.revenue


class TestCircuitBreaker:
    def test_closed_open_half_open_cycle(self):
        breaker = CircuitBreaker(threshold=3, cooldown=0.5)
        assert breaker.state == "closed" and breaker.allow(0.0)
        breaker.record_failure(1.0)
        breaker.record_failure(1.1)
        assert breaker.state == "closed"
        breaker.record_failure(1.2)
        assert breaker.state == "open"
        assert not breaker.allow(1.3)  # cooling down
        assert breaker.allow(1.8)  # cooldown elapsed: half-open probe
        assert breaker.state == "half-open"
        assert not breaker.allow(1.81)  # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed" and breaker.failures == 0

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown=0.2)
        breaker.record_failure(0.0)
        assert breaker.state == "open"
        assert breaker.allow(0.3)
        breaker.record_failure(0.3)  # probe failed
        assert breaker.state == "open"
        assert not breaker.allow(0.4)
        assert breaker.allow(0.6)  # new cooldown from the probe failure

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(threshold=2, cooldown=1.0)
        breaker.record_failure(0.0)
        breaker.record_success()
        breaker.record_failure(0.1)
        assert breaker.state == "closed"  # streak broken by the success

    def test_threshold_validation(self):
        with pytest.raises(ValidationError):
            CircuitBreaker(threshold=0)


class TestFaultGrammar:
    def test_probability_keyword_spelling(self):
        rules = parse_fault_spec("worker_crash:probability=0.2")
        assert rules["worker_crash"].mode == "probability"
        assert rules["worker_crash"].value == 0.2

    def test_probability_keyword_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            parse_fault_spec("worker_crash:probability=1.5")
        with pytest.raises(ValidationError):
            parse_fault_spec("worker_crash:probability=nope")


class TestFleetServing:
    def test_bit_identity_and_health(self, fleet_solutions, request_blocks):
        first, _, first_path, _ = fleet_solutions

        async def main():
            fleet = ServingSupervisor(first_path, workers=2)
            host, port = await fleet.start("127.0.0.1", 0)
            try:
                quotes = await asyncio.gather(
                    *(
                        _request(host, port, "POST", "/quote", {"rows": rows.tolist()})
                        for rows in request_blocks
                    )
                )
                health = await _request(host, port, "GET", "/healthz")
                ready = await _request(host, port, "GET", "/readyz")
                return quotes, health, ready
            finally:
                await fleet.stop()

        quotes, (_, _, health), (ready_status, _, ready) = asyncio.run(main())
        for (status, headers, payload), rows in zip(quotes, request_blocks):
            assert status == 200
            cold = first.quote(rows)
            _assert_payload_identical(payload, cold)
            assert headers["x-solution-fingerprint"] == first.fingerprint()
            assert payload["fingerprint"] == first.fingerprint()
        assert health["status"] == "serving"
        assert [worker["phase"] for worker in health["workers"]] == ["ready", "ready"]
        assert all(worker["breaker"] == "closed" for worker in health["workers"])
        assert ready_status == 200 and ready["ready"] is True

    def test_crash_recovery_serves_every_quote(
        self, fleet_solutions, request_blocks, clean_faults
    ):
        """worker_crash SIGKILLs workers mid-load; clients never notice.

        Seed 1 makes each worker lineage price two batches and die on its
        third, so the fleet loses workers repeatedly while the load runs —
        every quote must still come back 200 and bit-identical.
        """
        first, _, first_path, _ = fleet_solutions
        clean_faults.setenv(faults.FAULT_ENV, "worker_crash:probability=0.2")
        clean_faults.setenv(faults.FAULT_SEED_ENV, "1")
        faults.reset()
        rows = request_blocks[1]
        cold = first.quote(rows)

        async def main():
            # route_budget is generous: a respawn on a contended 1-CPU box
            # can take seconds, and the contract is that the client never
            # sees the crash, however slow the box.
            fleet = ServingSupervisor(
                first_path, workers=2, heartbeat_interval=0.2, route_budget=60.0
            )
            host, port = await fleet.start("127.0.0.1", 0)
            try:
                results = []
                for _ in range(14):
                    results.append(
                        await _request(
                            host, port, "POST", "/quote", {"rows": rows.tolist()}
                        )
                    )
                return results, fleet.health()
            finally:
                await fleet.stop()

        results, health = asyncio.run(main())
        assert len(results) == 14
        for status, headers, payload in results:
            assert status == 200, (status, payload)
            _assert_payload_identical(payload, cold)
            assert headers["x-solution-fingerprint"] == first.fingerprint()
        # Two batches per lineage before death: 14 quotes must have killed
        # and respawned workers along the way.
        assert health["counters"]["worker_deaths"] >= 2
        assert health["counters"]["respawns"] >= 2
        assert health["counters"]["route_retries"] >= 1

    def test_route_fault_opens_breakers_then_recovers(
        self, fleet_solutions, request_blocks, clean_faults
    ):
        first, _, first_path, _ = fleet_solutions
        rows = request_blocks[0]
        cold = first.quote(rows)

        async def main():
            fleet = ServingSupervisor(
                first_path,
                workers=2,
                breaker_threshold=2,
                breaker_cooldown=0.2,
                route_budget=3.0,
            )
            host, port = await fleet.start("127.0.0.1", 0)
            try:
                clean_faults.setenv(faults.FAULT_ENV, "route:always")
                faults.reset()
                shed = await _request(
                    host, port, "POST", "/quote", {"rows": rows.tolist()}
                )
                tripped = fleet.health()
                # Clear the fault: the next request rides a half-open
                # probe and closes the breakers again.
                clean_faults.delenv(faults.FAULT_ENV)
                faults.reset()
                await asyncio.sleep(0.25)
                recovered = await _request(
                    host, port, "POST", "/quote", {"rows": rows.tolist()}
                )
                healed = fleet.health()
                return shed, tripped, recovered, healed
            finally:
                await fleet.stop()

        shed, tripped, recovered, healed = asyncio.run(main())
        assert shed[0] == 503
        assert shed[2]["error"] == "CircuitOpenError"
        assert all(worker["breaker"] == "open" for worker in tripped["workers"])
        assert recovered[0] == 200
        _assert_payload_identical(recovered[2], cold)
        assert any(worker["breaker"] == "closed" for worker in healed["workers"])

    def test_rolling_reload_under_load(self, fleet_solutions, request_blocks):
        """Zero-downtime reload: no 503, one valid fingerprint per response,
        the old fingerprint gone once rotation completes."""
        first, second, first_path, second_path = fleet_solutions
        rows = request_blocks[2]
        cold_first = first.quote(rows)
        cold_second = second.quote(rows)
        old_fp, new_fp = first.fingerprint(), second.fingerprint()

        async def main():
            fleet = ServingSupervisor(first_path, workers=2)
            host, port = await fleet.start("127.0.0.1", 0)
            observed = []
            stop_load = asyncio.Event()

            async def load():
                while not stop_load.is_set():
                    observed.append(
                        await _request(
                            host, port, "POST", "/quote", {"rows": rows.tolist()}
                        )
                    )

            try:
                load_task = asyncio.ensure_future(load())
                await asyncio.sleep(0.1)
                reload_reply = await _request(
                    host, port, "POST", "/reload", {"path": second_path}
                )
                await asyncio.sleep(0.1)
                stop_load.set()
                await load_task
                after = [
                    await _request(
                        host, port, "POST", "/quote", {"rows": rows.tolist()}
                    )
                    for _ in range(4)
                ]
                return reload_reply, observed, after
            finally:
                await fleet.stop()

        (reload_status, _, reload_payload), observed, after = asyncio.run(main())
        assert reload_status == 200
        assert reload_payload["previous_fingerprint"] == old_fp
        assert reload_payload["fingerprint"] == new_fp
        assert observed, "the load loop must have run during the reload"
        for status, headers, payload in observed:
            assert status == 200  # never a 503 during the rotation
            stamp = headers["x-solution-fingerprint"]
            assert stamp in (old_fp, new_fp)
            assert payload["fingerprint"] == stamp  # never mixed in one response
            cold = cold_first if stamp == old_fp else cold_second
            _assert_payload_identical(payload, cold)
        for status, headers, payload in after:
            assert status == 200
            assert headers["x-solution-fingerprint"] == new_fp  # old one is gone
            _assert_payload_identical(payload, cold_second)

    def test_reload_failure_keeps_old_menu(self, fleet_solutions, request_blocks):
        first, _, first_path, _ = fleet_solutions
        rows = request_blocks[0]
        cold = first.quote(rows)

        async def main():
            fleet = ServingSupervisor(first_path, workers=2)
            host, port = await fleet.start("127.0.0.1", 0)
            try:
                failed = await _request(
                    host, port, "POST", "/reload", {"path": "/nope/missing.json"}
                )
                quote = await _request(
                    host, port, "POST", "/quote", {"rows": rows.tolist()}
                )
                return failed, quote, fleet.health()
            finally:
                await fleet.stop()

        failed, quote, health = asyncio.run(main())
        assert failed[0] == 500
        assert failed[2]["error"] == "ReloadError"
        assert quote[0] == 200
        assert quote[1]["x-solution-fingerprint"] == first.fingerprint()
        _assert_payload_identical(quote[2], cold)
        assert health["counters"]["reload_failures"] == 1
        assert health["counters"]["reloads"] == 0

    def test_spawn_fault_latch_respawns_once(
        self, fleet_solutions, clean_faults, tmp_path
    ):
        """Exactly one spawn dies pre-ready; backoff retry still boots it."""
        _, _, first_path, _ = fleet_solutions
        latch = tmp_path / "spawn.latch"
        clean_faults.setenv(faults.FAULT_ENV, f"worker_spawn:latch:{latch}")
        faults.reset()

        async def main():
            fleet = ServingSupervisor(first_path, workers=2)
            await fleet.start("127.0.0.1", 0)
            try:
                return fleet.health()
            finally:
                await fleet.stop()

        health = asyncio.run(main())
        assert latch.exists()  # the fault really killed one spawn
        assert [worker["phase"] for worker in health["workers"]] == ["ready", "ready"]
        assert health["counters"]["spawn_retries"] == 1

    def test_spawn_fault_always_fails_startup(
        self, fleet_solutions, clean_faults, monkeypatch
    ):
        _, _, first_path, _ = fleet_solutions
        clean_faults.setenv(faults.FAULT_ENV, "worker_spawn:always")
        faults.reset()
        monkeypatch.setattr(supervisor_module, "MAX_SPAWN_ATTEMPTS", 2)

        async def main():
            fleet = ServingSupervisor(first_path, workers=1)
            await fleet.start("127.0.0.1", 0)

        with pytest.raises(WorkerCrashError):
            asyncio.run(main())

    def test_heartbeat_silence_respawns_worker(
        self, fleet_solutions, request_blocks, clean_faults, tmp_path
    ):
        """A worker that stops heartbeating is killed and replaced."""
        first, _, first_path, _ = fleet_solutions
        clean_faults.setenv(
            faults.FAULT_ENV, f"heartbeat:latch:{tmp_path / 'hb.latch'}"
        )
        faults.reset()
        rows = request_blocks[0]
        cold = first.quote(rows)

        async def main():
            fleet = ServingSupervisor(
                first_path,
                workers=2,
                heartbeat_interval=0.1,
                heartbeat_timeout=0.6,
            )
            host, port = await fleet.start("127.0.0.1", 0)
            try:
                deadline = asyncio.get_running_loop().time() + 20.0
                while fleet.heartbeat_timeouts < 1:
                    if asyncio.get_running_loop().time() > deadline:
                        raise AssertionError("heartbeat timeout never tripped")
                    await asyncio.sleep(0.05)
                # Wait for the victim's replacement to come back up.
                while not all(h.phase == "ready" for h in fleet.handles):
                    if asyncio.get_running_loop().time() > deadline:
                        raise AssertionError("respawn never completed")
                    await asyncio.sleep(0.05)
                quote = await _request(
                    host, port, "POST", "/quote", {"rows": rows.tolist()}
                )
                return quote, fleet.health()
            finally:
                await fleet.stop()

        quote, health = asyncio.run(main())
        assert quote[0] == 200
        _assert_payload_identical(quote[2], cold)
        assert health["counters"]["heartbeat_timeouts"] >= 1
        assert health["counters"]["respawns"] >= 1

    def test_drain_finishes_in_flight_then_refuses(
        self, fleet_solutions, request_blocks
    ):
        first, _, first_path, _ = fleet_solutions
        rows = request_blocks[3]
        cold = first.quote(rows)

        async def main():
            fleet = ServingSupervisor(
                first_path, workers=2, batch_window=0.3, deadline=5.0
            )
            host, port = await fleet.start("127.0.0.1", 0)
            in_flight = asyncio.ensure_future(
                _request(
                    host,
                    port,
                    "POST",
                    "/quote",
                    {"rows": rows.tolist(), "deadline": 5.0},
                )
            )
            await asyncio.sleep(0.1)  # request is queued behind the window
            clean = await fleet.drain(10.0)
            quote = await in_flight
            refused = None
            try:
                await _request(host, port, "GET", "/healthz")
            except OSError as exc:
                refused = exc
            return clean, quote, refused

        clean, quote, refused = asyncio.run(main())
        assert clean is True
        assert quote[0] == 200
        _assert_payload_identical(quote[2], cold)
        assert refused is not None  # listener is gone after the drain


async def _raw_get(host, port, path):
    """One GET returning the raw (non-JSON) body — for /metrics scrapes."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: 0\r\nConnection: close\r\n\r\n".encode()
        )
        await writer.drain()
        head = (await reader.readuntil(b"\r\n\r\n")).split(b"\r\n")
        status = int(head[0].split()[1])
        headers = {}
        for line in head[1:]:
            if b":" in line:
                name, _, value = line.partition(b":")
                headers[name.strip().lower().decode()] = value.strip().decode()
        body = await reader.readexactly(int(headers.get("content-length", 0)))
        return status, headers, body.decode("utf-8")
    finally:
        writer.close()


class TestFleetObservability:
    def test_healthz_shape_exposes_slot_history(self, fleet_solutions):
        """/healthz carries in_flight plus durable per-slot crash history."""
        _, _, first_path, _ = fleet_solutions
        fleet = ServingSupervisor(first_path, workers=2)
        health = fleet.health()
        assert health["in_flight"] == 0
        for worker in health["workers"]:
            assert worker["spawn_retries"] == 0
            assert worker["respawns"] == 0
            assert "breaker" in worker and "active" in worker

    def test_fleet_metrics_aggregates_worker_snapshots(
        self, fleet_solutions, request_blocks
    ):
        """GET /metrics merges every worker's series under a worker label."""
        from repro import obs
        from repro.obs.metrics import parse_exposition

        first, _, first_path, _ = fleet_solutions
        obs.enable_metrics()

        async def main():
            fleet = ServingSupervisor(
                first_path, workers=2, heartbeat_interval=0.1
            )
            host, port = await fleet.start("127.0.0.1", 0)
            try:
                for rows in request_blocks[:3]:
                    status, _, _ = await _request(
                        host, port, "POST", "/quote", {"rows": rows.tolist()}
                    )
                    assert status == 200
                # The quote counters ride the *next* heartbeat after the
                # quotes land, so poll the scrape until they show up.
                deadline = asyncio.get_running_loop().time() + 10.0
                while True:
                    scrape = await _raw_get(host, port, "/metrics")
                    if 'repro_quotes_total{worker="' in scrape[2]:
                        return scrape
                    if asyncio.get_running_loop().time() > deadline:
                        raise AssertionError(
                            "worker quote counters never reached the scrape"
                        )
                    await asyncio.sleep(0.05)
            finally:
                await fleet.stop()

        status, headers, text = asyncio.run(main())
        assert status == 200
        assert headers["content-type"].startswith("text/plain; version=0.0.4")
        parsed = parse_exposition(text)
        fleet_samples = parsed["repro_fleet_requests_total"]["samples"]
        assert fleet_samples["repro_fleet_requests_total"] >= 3.0
        assert parsed["repro_fleet_workers_ready"]["samples"][
            "repro_fleet_workers_ready"
        ] == 2.0
        breaker = parsed["repro_worker_breaker_state"]["samples"]
        assert breaker['repro_worker_breaker_state{slot="0"}'] == 0.0
        assert breaker['repro_worker_breaker_state{slot="1"}'] == 0.0
        # Worker-side series carry the injected worker label, and the
        # fleet-wide sum accounts for every routed quote.
        quotes = parsed["repro_quotes_total"]["samples"]
        worker_keys = [k for k in quotes if 'worker="' in k]
        assert worker_keys
        assert sum(quotes[k] for k in worker_keys) >= 3.0


# ===================================================== incremental refit
def _fleet_delta(wtp, n_removed=6, n_added=4, seed=11):
    """A small deterministic churn event on *wtp*'s population."""
    from repro.api import PopulationDelta

    rng = np.random.default_rng(seed)
    removed = rng.choice(wtp.n_users, size=n_removed, replace=False)
    donors = rng.choice(wtp.n_users, size=n_added, replace=False)
    added = wtp.values[donors] * rng.uniform(0.85, 1.15, size=(n_added, 1))
    return PopulationDelta(added=added, removed=tuple(int(i) for i in removed))


class TestFleetRefit:
    def test_refit_rotates_fleet_to_refitted_menu(
        self, fleet_solutions, request_blocks, small_wtp, tmp_path
    ):
        """POST /refit warm-refits off-loop, persists the artifact, and
        rolls every worker onto the refitted fingerprint."""
        first, _, first_path, _ = fleet_solutions
        delta = _fleet_delta(small_wtp)
        rows = request_blocks[1]
        population_path = tmp_path / "population.npz"
        small_wtp.save_npz(population_path)

        async def main():
            fleet = ServingSupervisor(
                first_path, workers=2, population=str(population_path)
            )
            host, port = await fleet.start("127.0.0.1", 0)
            try:
                refitted = await _request(
                    host, port, "POST", "/refit",
                    {"delta": delta.to_dict(), "drift_threshold": 1e6},
                )
                quotes = [
                    await _request(
                        host, port, "POST", "/quote", {"rows": rows.tolist()}
                    )
                    for _ in range(4)
                ]
                return refitted, quotes, fleet.health()
            finally:
                await fleet.stop()

        refitted, quotes, health = asyncio.run(main())
        # The same refit, cold, through the solver API directly.
        report = BundlingSolver(first.algorithm_spec, first.engine_config).refit(
            first, small_wtp, delta, drift_threshold=1e6
        )
        new_fp = report.solution.fingerprint()
        assert refitted[0] == 200
        assert refitted[2]["mode"] == "warm"
        assert refitted[2]["previous_fingerprint"] == first.fingerprint()
        assert refitted[2]["fingerprint"] == new_fp
        assert refitted[2]["n_users"] == small_wtp.n_users - 6 + 4
        # The refitted artifact is persisted next to the base solution and
        # reproduces the fingerprint on load.
        artifact = Path(refitted[2]["path"])
        assert artifact.name == Path(first_path).name + ".refit1.json"
        from repro.api.solution import BundlingSolution

        assert BundlingSolution.load(artifact).fingerprint() == new_fp
        cold = report.solution.quote(rows)
        for status, headers, payload in quotes:
            assert status == 200
            assert headers["x-solution-fingerprint"] == new_fp
            _assert_payload_identical(payload, cold)
        assert health["fingerprint"] == new_fp
        assert health["counters"]["refits"] == 1
        assert health["counters"]["refit_failures"] == 0

    def test_worker_sigkill_mid_refit_converges_to_one_fingerprint(
        self, fleet_solutions, request_blocks, small_wtp, tmp_path, monkeypatch
    ):
        """SIGKILL a worker mid-/refit rotation: the rollback restores the
        old menu, the dead slot respawns onto it, and once the fleet is
        whole again every quote carries exactly one fingerprint."""
        import os
        import signal as signal_module

        first, _, first_path, _ = fleet_solutions
        delta = _fleet_delta(small_wtp)
        rows = request_blocks[2]
        old_fp = first.fingerprint()
        cold = first.quote(rows)
        population_path = tmp_path / "population.npz"
        small_wtp.save_npz(population_path)

        real_rotate = ServingSupervisor._rotate_worker
        killed = []

        async def killer_rotate(self, handle, path, blocks, expected):
            if not killed:
                killed.append(handle.process.pid)
                os.kill(handle.process.pid, signal_module.SIGKILL)
            return await real_rotate(self, handle, path, blocks, expected)

        monkeypatch.setattr(ServingSupervisor, "_rotate_worker", killer_rotate)

        async def main():
            fleet = ServingSupervisor(
                first_path, workers=2, population=str(population_path),
                heartbeat_interval=0.1,
            )
            host, port = await fleet.start("127.0.0.1", 0)
            try:
                refitted = await _request(
                    host, port, "POST", "/refit",
                    {"delta": delta.to_dict(), "drift_threshold": 1e6},
                )
                # Wait until the killed slot has respawned and the fleet is
                # whole again (every slot ready).
                deadline = asyncio.get_running_loop().time() + 30.0
                while not all(h.phase == "ready" for h in fleet.handles):
                    if asyncio.get_running_loop().time() > deadline:
                        raise AssertionError(
                            f"fleet never reconverged: "
                            f"{[h.phase for h in fleet.handles]}"
                        )
                    await asyncio.sleep(0.05)
                quotes = [
                    await _request(
                        host, port, "POST", "/quote", {"rows": rows.tolist()}
                    )
                    for _ in range(6)
                ]
                return refitted, quotes, fleet.health()
            finally:
                await fleet.stop()

        refitted, quotes, health = asyncio.run(main())
        assert killed, "the fault hook must have killed a worker"
        # The refit fails as a typed error, never a partial swap.
        assert refitted[0] == 500
        assert refitted[2]["error"] == "ReloadError"
        assert "previous menu restored" in refitted[2]["message"]
        # Convergence: one fingerprint — the old one — everywhere.  Six
        # round-robined quotes cover both slots, including the respawn.
        for status, headers, payload in quotes:
            assert status == 200
            assert headers["x-solution-fingerprint"] == old_fp
            assert payload["fingerprint"] == old_fp
            _assert_payload_identical(payload, cold)
        assert health["fingerprint"] == old_fp
        for worker in health["workers"]:
            assert worker["fingerprint"] == old_fp
        assert health["counters"]["refits"] == 0
        assert health["counters"]["refit_failures"] == 1
        assert health["counters"]["respawns"] >= 1
        # The population never advanced past the failed delta.
        assert health["counters"]["reload_failures"] >= 1


# ============================================================ shared front
async def _raw_exchange(host, port, raw: bytes):
    """Send *raw* bytes; return (status, body) of the one reply and the EOF."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        if raw:
            writer.write(raw)
            await writer.drain()
        head = (await reader.readuntil(b"\r\n\r\n")).split(b"\r\n")
        status = int(head[0].split()[1])
        length = 0
        for line in head[1:]:
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        body = json.loads(await reader.readexactly(length))
        return status, body, await reader.read(1)
    finally:
        writer.close()


class TestFleetEdge:
    """The fleet answers edge framing exactly like the single server."""

    def test_framing_statuses_counters_and_edge_histogram(self, fleet_solutions):
        from repro import obs
        from repro.obs.metrics import parse_exposition

        _, _, first_path, _ = fleet_solutions
        obs.enable_metrics()

        async def main():
            fleet = ServingSupervisor(
                first_path, workers=2, read_timeout=0.2, max_body_bytes=1024
            )
            host, port = await fleet.start("127.0.0.1", 0)
            try:
                results = {
                    "stalled": await _raw_exchange(
                        host, port, b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                    ),
                    "too_large": await _raw_exchange(
                        host, port,
                        b"POST /quote HTTP/1.1\r\nContent-Length: 4096\r\n\r\n",
                    ),
                    "malformed": await _raw_exchange(host, port, b"garbage\r\n\r\n"),
                }
                results["bad_method"] = await _request(host, port, "GET", "/quote")
                results["not_found"] = await _request(host, port, "GET", "/nope")
                scrape = await _raw_get(host, port, "/metrics")
                return results, scrape, fleet.health()
            finally:
                await fleet.stop()

        results, (_, _, text), health = asyncio.run(main())
        status, body, eof = results["stalled"]
        assert (status, body["error"], eof) == (408, "RequestReadTimeout", b"")
        status, body, eof = results["too_large"]
        assert (status, body["error"], eof) == (413, "PayloadTooLarge", b"")
        status, body, eof = results["malformed"]
        assert (status, body["error"], eof) == (400, "MalformedRequest", b"")
        assert results["bad_method"][0] == 405
        assert results["bad_method"][2]["error"] == "MethodNotAllowed"
        assert results["not_found"][0] == 404
        assert results["not_found"][2]["error"] == "NotFound"
        assert health["counters"]["read_timeouts"] == 1
        # The supervisor's own edge histogram (no worker label) times its
        # requests, next to the workers' labelled series.
        samples = parse_exposition(text)["repro_http_request_seconds"]["samples"]
        edge = [key for key in samples if 'route="/quote"' in key and "worker=" not in key]
        assert any(key.startswith("repro_http_request_seconds_count") for key in edge)

    def test_missing_population_fails_at_construction(self, fleet_solutions, tmp_path):
        _, _, first_path, _ = fleet_solutions
        with pytest.raises(OSError):
            ServingSupervisor(first_path, population=str(tmp_path / "missing.npz"))

    def test_cli_fleet_with_missing_population_fails_at_startup(
        self, fleet_solutions, tmp_path
    ):
        import os
        import subprocess
        import sys

        _, _, first_path, _ = fleet_solutions
        done = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--solution", first_path,
             "--workers", "2", "--port", "0",
             "--wtp", str(tmp_path / "missing.npz")],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2
        assert "cannot serve" in done.stderr

    def test_refit_save_failure_is_a_typed_reply(
        self, fleet_solutions, request_blocks, small_wtp, tmp_path
    ):
        """An OSError while landing a refit answers JSON, never a dropped socket."""
        first, _, first_path, _ = fleet_solutions
        delta = _fleet_delta(small_wtp)
        rows = request_blocks[0]

        async def main():
            fleet = ServingSupervisor(first_path, workers=2, population=small_wtp)
            fleet._refit_base = str(tmp_path / "no-such-dir" / "menu.json")
            host, port = await fleet.start("127.0.0.1", 0)
            try:
                refitted = await _request(
                    host, port, "POST", "/refit",
                    {"delta": delta.to_dict(), "drift_threshold": 1e6},
                )
                quote = await _request(
                    host, port, "POST", "/quote", {"rows": rows.tolist()}
                )
                return refitted, quote, fleet.health()
            finally:
                await fleet.stop()

        refitted, quote, health = asyncio.run(main())
        assert refitted[0] == 500
        assert refitted[2]["error"] == "ReloadError"
        assert "No such file" in refitted[2]["message"]
        assert quote[0] == 200
        assert quote[1]["x-solution-fingerprint"] == first.fingerprint()
        _assert_payload_identical(quote[2], first.quote(rows))
        assert health["counters"]["refit_failures"] == 1
        assert health["population"] == {"n_users": small_wtp.n_users}

    def test_busy_port_leaks_no_worker_and_no_block(self, fleet_solutions):
        import socket

        from repro.core.shm import active_shared_blocks

        _, _, first_path, _ = fleet_solutions
        before = set(active_shared_blocks())
        holder = socket.socket()
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        port = holder.getsockname()[1]
        fleet = ServingSupervisor(first_path, workers=2)

        async def main():
            await fleet.start("127.0.0.1", port)

        try:
            with pytest.raises(OSError):
                asyncio.run(main())
        finally:
            holder.close()
        assert all(h.process is None for h in fleet.handles)
        assert set(active_shared_blocks()) == before

    def test_busy_port_stops_the_single_server_batcher(self, fleet_solutions):
        import socket

        from repro.serving import QuoteServer

        first, _, _, _ = fleet_solutions
        holder = socket.socket()
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        server = QuoteServer(first)

        async def main():
            with pytest.raises(OSError):
                await server.start("127.0.0.1", holder.getsockname()[1])
            return server.batcher.running

        try:
            assert asyncio.run(main()) is False
        finally:
            holder.close()
