"""Server processes: start, wait for readiness, read /proc, stop for sure."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from perfkit.load import Client

PERFBENCH_DIR = Path(__file__).resolve().parent.parent


class Server:
    """``python -m repro serve …`` (or the traced launcher) in its own session."""

    def __init__(self, repo: Path, args: list[str], env: dict, spans_path: Path | None = None):
        if spans_path is None:
            command = [sys.executable, "-u", "-m", "repro", *args]
        else:
            command = [sys.executable, "-u", str(PERFBENCH_DIR / "launch.py"),
                       "--spans", str(spans_path), "--", *args]
        self.proc = subprocess.Popen(
            command, cwd=repo, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True,
        )
        self.lines: list[str] = []
        self.port: int | None = None
        self._port_ready = threading.Event()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line.rstrip("\n"))
            if self.port is None and "on http://" in line:
                self.port = int(line.rsplit(":", 1)[1].strip().rstrip("/"))
                self._port_ready.set()
        self._port_ready.set()

    def wait_ready(self, timeout: float = 60.0) -> int:
        """Block until ``/readyz`` answers 200; returns the port."""
        deadline = time.monotonic() + timeout
        self._port_ready.wait(timeout)
        if self.port is None:
            raise RuntimeError("server exited before binding:\n" + "\n".join(self.lines[-20:]))
        client = Client("127.0.0.1", self.port, timeout=5.0)
        try:
            while time.monotonic() < deadline:
                if self.proc.poll() is not None:
                    break
                try:
                    status, _, _ = client.request("GET", "/readyz")
                    if status == 200:
                        return self.port
                except OSError:
                    client.close()
                time.sleep(0.02)
        finally:
            client.close()
        raise RuntimeError("server never became ready:\n" + "\n".join(self.lines[-20:]))

    def stop(self, timeout: float = 20.0) -> int | None:
        """SIGTERM (graceful drain), then SIGKILL the whole session if needed."""
        if self.proc.poll() is None:
            try:
                os.kill(self.proc.pid, signal.SIGTERM)
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                pass
        # Workers share the session; make sure none outlives the server.
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._reader.join(5.0)
        return self.proc.returncode


def get_json(client: Client, path: str) -> dict:
    status, _, body = client.request("GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(body)


def get_text(client: Client, path: str) -> str:
    status, _, body = client.request("GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return body.decode("utf-8")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of a live process, from ``/proc``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
