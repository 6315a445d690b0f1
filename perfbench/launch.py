"""Traced launcher: ``python -m repro serve`` with span wrappers installed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/launch.py --spans spans.json -- serve --solution menu.json ...

The arguments after ``--`` go unchanged to ``repro.__main__.main``, so a
traced server runs the same configuration as an untraced one.  Wrappers
sit around the serving layers' public functions in this process; spawned
fleet workers start from a fresh import and stay unwrapped (their numbers
come from the ``--metrics`` exposition).  Spans stay in memory and are
written to ``--spans`` when the server exits.
"""

from __future__ import annotations

import argparse
import json
import sys


async def _await_bytes(args, kwargs) -> None:
    """Hold a request-read span until its first bytes are buffered.

    A keep-alive connection parks in ``read_http_request`` between
    requests; without this wait the read span would time the client's idle
    gap instead of the read and parse.  ``StreamReader`` has no public
    wait-for-data call, hence the private one.
    """
    reader = args[0]
    if not reader._buffer and not reader.at_eof():
        await reader._wait_for_data("readuntil")


def install(tracer, fleet: bool) -> None:
    from repro.api.solution import BundlingSolution
    from repro.api.solver import BundlingSolver
    from repro.core.revenue import RevenueEngine
    from repro.core.wtp import WTPMatrix
    from repro.serving import server, state, supervisor

    if fleet:
        tracer.wrap(supervisor, "read_http_request", "supervisor.read", before=_await_bytes)
        tracer.wrap(supervisor, "write_http_response", "supervisor.write")
        tracer.wrap(supervisor.ServingSupervisor, "_route", "supervisor.route",
                    attrs=lambda args, kwargs, result: {"path": args[2]})
        tracer.wrap(BundlingSolver, "refit", "refit.solver")
        tracer.wrap(WTPMatrix, "apply_delta", "refit.apply_delta")
        tracer.wrap(RevenueEngine, "apply_delta", "refit.apply_delta")
        tracer.wrap(BundlingSolution, "save", "refit.save")
        return
    tracer.wrap(server, "read_http_request", "server.read", before=_await_bytes)
    tracer.wrap(server, "write_http_response", "server.write")
    tracer.wrap(server.QuoteServer, "quote", "server.quote")
    tracer.wrap(state.ServingState, "prepare_rows", "state.prepare_rows",
                attrs=lambda args, kwargs, result: {"block": id(result)})
    tracer.wrap(state.ServingState, "quote_batch", "state.quote_batch",
                attrs=lambda args, kwargs, result: {"blocks": [id(b) for b in args[1]]})
    tracer.wrap(state, "evaluate_forest", "choice.evaluate_forest")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans at exit")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    from perfkit.spans import Tracer
    from repro.__main__ import main as repro_main

    tracer = Tracer()
    workers = serve_args[serve_args.index("--workers") + 1] if "--workers" in serve_args else "1"
    install(tracer, fleet=int(workers) >= 2)
    try:
        return repro_main(serve_args)
    finally:
        tracer.restore()
        with open(args.spans, "w") as handle:
            json.dump(tracer.dump(), handle)


if __name__ == "__main__":
    sys.exit(main())
