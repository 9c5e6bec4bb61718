"""The ``serve-j120`` server process: one AllocationServer on a free TCP port.

Started by :mod:`serve_j120` as ``python3 perfbench/server_child.py``. It
reads one JSON line from standard input — the seed and horizon the benchmark
generates its inputs from, and whether to trace — then builds the same
system description, serves it on 127.0.0.1 and prints ``{"port": N}``.
Afterwards each ``snapshot`` line on standard input is answered with the
probe's counters as one JSON line, and end of input stops the server, prints
a last snapshot with the process's peak RSS, and exits. Running the server
in its own process keeps the client's send loop off the server's interpreter
lock.
"""

from __future__ import annotations

import asyncio
import json
import sys

import common
from layers import (
    TIMED_BACKEND,
    Probe,
    patched,
    register_timed_backend,
    service_seams,
)
from serve_j120 import build_inputs


def _report(probe: Probe, **extra) -> None:
    print(json.dumps({**probe.snapshot(), **extra}), flush=True)


async def serve(request: dict) -> None:
    from repro.service import AllocationServer, AllocationSession, ServiceConfig

    probe = Probe()
    backend, seams = "auto", []
    if request["traced"]:
        register_timed_backend(probe)
        backend, seams = TIMED_BACKEND, service_seams(probe)
    system = build_inputs(request["seed"], request["slots"])[0]
    with patched(seams):
        session = AllocationSession(system, ServiceConfig(backend=backend))
        server = AllocationServer(session, port=0)
        await server.start()
        print(json.dumps({"port": server.port}), flush=True)
        loop = asyncio.get_running_loop()
        try:
            while await loop.run_in_executor(None, sys.stdin.readline):
                _report(probe)
        finally:
            await server.stop()
    _report(probe, peak_rss_mb=common.peak_rss_mb())


def main() -> None:
    common.bootstrap()
    asyncio.run(serve(json.loads(sys.stdin.readline())))


if __name__ == "__main__":
    main()
