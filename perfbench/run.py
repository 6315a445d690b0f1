"""The repository benchmark: one command, three workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload fit --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload quote --seed 1 --seconds 10 --trace 1

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is a separate
run with spans around each layer's public functions and prints the
per-layer metrics, a self-time table and the tracing overhead against the
last untraced run of the same workload.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed correctness check prints ``correct: false`` with
no metrics and exits 1.  Without the program's sources next to the
benchmark (``src/repro``) it exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
STATE = REPO / ".perfbench"
#: A run that has not finished by then stops its servers and exits 3.
DEADLINE_SECONDS = 170


class RunTimeout(Exception):
    pass


class Context:
    """What a workload needs: its inputs, a scratch dir, and its servers."""

    def __init__(self, args, scratch: Path) -> None:
        from perfkit.calibrate import Speed

        self.seed, self.seconds, self.trace = args.seed, args.seconds, bool(args.trace)
        self.repo, self.scratch = REPO, scratch
        self.setup_repeats = 1 if self.trace else 3
        self.env = dict(os.environ, PYTHONPATH=str(REPO / "src"), TMPDIR=str(scratch))
        self.servers = []
        self.speed = Speed()  # reference samples; times are scaled by them

    def start_server(self, serve_args, spans_path=None):
        from perfkit.procs import Server

        server = Server(self.repo, serve_args, self.env, spans_path)
        self.servers.append(server)
        return server

    def stop_server(self, server) -> None:
        code = server.stop()
        self.servers.remove(server)
        if code not in (0, None):
            self.log(f"server exited with {code}:\n" + "\n".join(server.lines[-10:]))

    def stop_all(self) -> None:
        for server in list(self.servers):
            self.stop_server(server)

    @staticmethod
    def log(message: str) -> None:
        print(message, flush=True)


def _interrupt(signum, frame):
    if signum == signal.SIGALRM:
        raise RunTimeout(f"run exceeded {DEADLINE_SECONDS} s")
    raise KeyboardInterrupt(f"signal {signum}")


def _overhead(workload: str, traced: dict) -> list[str]:
    path = STATE / f"untraced-{workload}.json"
    if not path.exists():
        return ["tracing overhead: no untraced run of this workload recorded yet"]
    untraced = json.loads(path.read_text())
    lines = ["tracing overhead (traced minus last untraced run):"]
    for name, value in traced.items():
        if name in untraced and untraced[name]:
            delta = value - untraced[name]
            lines.append(f"  {name}: {delta:+.4g} ({100 * delta / untraced[name]:+.1f}%)")
    return lines


def _cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` ticks of the host's CPUs from ``/proc/stat``."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields[:8])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fit", "quote", "fleet_churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {REPO / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    from repro.core.kernels import available_cpus
    from repro.core.shm import orphaned_shared_blocks, reap_orphaned_blocks

    from perfkit import catalog, fitwork, servework

    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=STATE / "tmp"))
    ctx = Context(args, scratch)
    blocks_before = set(orphaned_shared_blocks())
    steal_before, total_before = _cpu_ticks()
    previous = {sig: signal.signal(sig, _interrupt)
                for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGALRM)}
    signal.alarm(DEADLINE_SECONDS)
    stopped = None
    try:
        if args.workload == "fit":
            result = fitwork.run(ctx)
        else:
            result = servework.run(ctx, args.workload)
    except (KeyboardInterrupt, RunTimeout) as exc:
        stopped = exc
    finally:
        signal.alarm(0)
        # A second signal must not cut the clean-up short.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            ctx.stop_all()
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
            # Every server is stopped; anything still in /dev/shm leaked.
            leaked = sorted(set(orphaned_shared_blocks()) - blocks_before)
            if leaked:
                reap_orphaned_blocks(leaked)
            for sig, handler in previous.items():
                signal.signal(sig, handler)
    if stopped is not None:
        print(f"error: run stopped: {stopped}", file=sys.stderr)
        return 3
    if leaked:
        result["problems"].append(f"shared-memory blocks left behind: {leaked}")

    steal_after, total_after = _cpu_ticks()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: available_cpus={available_cpus()} "
          f"python={platform.python_version()} machine={platform.machine()}")
    print(f"CPU time stolen by the host during the run: "
          f"{100 * (steal_after - steal_before) / max(total_after - total_before, 1):.2f}%")
    for line in result["report"]:
        print(line)
    print(ctx.speed.describe())
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        names, table = catalog.PER_LAYER, result.get("table", [])
        metrics = {name: float(result.get("per_layer", {}).get(name, 0.0)) for name in names}
        print(f"{'span':32} {'calls':>8} {'total_s':>10} {'self_s':>10}")
        for name, calls, total, own in table:
            print(f"{name:32} {calls:>8} {total:>10.4f} {own:>10.4f}")
        for line in _overhead(args.workload, result["end_to_end"]):
            print(line)
    else:
        names = catalog.END_TO_END
        metrics = {name: float(result["end_to_end"][name])
                   for name in names if name in result["end_to_end"]}
    for name, value in metrics.items():
        unit = names[name][0]
        moves = f"  (moves {names[name][2]} on {names[name][3]})" if args.trace else ""
        print(f"{name}: {value:.6g} {unit}{moves}")

    correct = not result["problems"] and len(metrics) == len(names)
    if correct and not args.trace:
        (STATE / f"untraced-{args.workload}.json").write_text(json.dumps(result["end_to_end"]))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": ({name: {"value": value, "unit": names[name][0]}
                     for name, value in metrics.items()} if correct else {}),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
