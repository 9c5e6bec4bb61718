"""Workload ``serve-j120``: the live TCP service at J=120 users, per-user P2.

The server (:mod:`server_child`) runs in its own process; this process is the
one client and holds one connection. A run serves :data:`INSTANCES` seeded
Figure 2 instances one after another, each on a fresh server, and each
instance's horizon in legs, slot numbers continuing across them:

1. **warm-up** — :data:`WARM_SLOTS` slots closed loop, untimed;
2. **open loop** — updates sent at a fixed absolute rate
   (:data:`OPEN_RATE`, about half of the closed-loop capacity at the time
   the benchmark was written), each slot timed from its due time, not from
   when it was sent, so a stall is charged to every slot queued behind it;
3. **closed loop** — the next update goes out when the previous reply is in;
   ``throughput`` is the slot rate at the median round trip.

``p50_ms`` and ``throughput`` are medians over the slots of all instances;
``setup_s`` is the median of the instances' set-ups (inputs, server start,
handshake).

The traced run serves the first instance only, and adds the **rate ladder**:
fixed absolute rates, climbing until a rung's p90 due-time latency exceeds
:data:`LIMIT_MS` or its backlog does not drain; ``serve.max_rate`` is the
rate of the last rung that held. The open-loop p90 and the ladder are
per-layer figures, not gated end-to-end metrics: on a shared 2-core machine
they moved by 20% and more between runs of the same code.

Checks: every update is answered by its own ``slot_result`` (no ``error`` or
``superseded`` reply), no open-loop leg's p90 send lag exceeds
:data:`GEN_LAG_LIMIT_MS`, and the streamed total cost equals a batch
``simulate()`` of the same stream to 1e-9.
"""

from __future__ import annotations

import json
import selectors
import socket
import subprocess
import sys
import time
from pathlib import Path

from common import ROOT, Outcome, median, percentile

NUM_USERS = 120
#: Open-loop send rate, slots per second.
OPEN_RATE = 14.0
#: Ladder rungs, slots per second (absolute, so a faster server climbs higher).
RUNGS = (24.0, 27.0, 30.0, 33.0, 36.0, 40.0, 44.0, 49.0, 55.0, 60.0)
#: p90 due-time latency limit of a ladder rung, about 3x the median solve.
LIMIT_MS = 100.0
#: An open-loop leg whose p90 send lag behind the due times exceeds this is
#: invalid, and all its slots count as failed: the generator did not offer
#: the load the leg claims. A single late send is not enough.
GEN_LAG_LIMIT_MS = 5.0
#: Streamed and batch totals must agree this closely.
COST_ATOL = 1e-9
#: Slots served closed loop before the timed legs, so the cold first solve
#: and the server's lazy start-up do not queue up the open-loop leg.
WARM_SLOTS = 10
#: Shares of ``--seconds`` given to the open-loop leg and each ladder rung,
#: and the closed-loop leg's slot count per second of ``--seconds``.
OPEN_SHARE = 0.5
RUNG_SHARE = 0.075
CLOSED_SLOTS_PER_S = 6.0
#: Independent Figure 2 instances an untraced run serves, one server each.
#: Solve time depends on the instance (its users' workloads and the
#: capacities) by up to 20% between seeds, so a run spreads its slots over
#: several instances instead of one.
INSTANCES = 6
#: How long any reply may take before the run is declared hung.
REPLY_TIMEOUT_S = 60.0

CHILD = Path(__file__).resolve().parent / "server_child.py"


def plan(seconds: float) -> dict:
    """Slot counts of each leg for a run of ``seconds``."""
    return {
        "open": max(20, round(OPEN_RATE * OPEN_SHARE * seconds)),
        "rungs": [max(10, round(rate * RUNG_SHARE * seconds)) for rate in RUNGS],
        "closed": max(20, round(CLOSED_SLOTS_PER_S * seconds)),
    }


def instance_seed(seed: int, index: int) -> int:
    """Seed of the run's ``index``-th instance."""
    return seed * 1000 + index


def build_inputs(seed: int, num_slots: int):
    """The horizon's system description, observations and encoded update lines.

    The server process calls this too, with the same arguments, for the
    system it serves; the inputs are deterministic in ``(seed, num_slots)``.
    """
    from repro.experiments.fig2 import fig2_scenario
    from repro.experiments.settings import ExperimentScale
    from repro.service.protocol import encode, observation_to_update
    from repro.simulation.observations import (
        SystemDescription,
        observations_from_instance,
    )

    scale = ExperimentScale(num_users=NUM_USERS, num_slots=num_slots)
    instance = fig2_scenario(scale).build(seed=seed)
    system = SystemDescription.from_instance(instance)
    observations = observations_from_instance(instance)
    lines = [encode(observation_to_update(o)) for o in observations]
    return system, observations, lines


class Server:
    """The server process and this process's one connection to it."""

    def __init__(self, seed: int, num_slots: int, *, traced: bool) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(CHILD)],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.process.stdin.write(
                json.dumps({"seed": seed, "slots": num_slots, "traced": traced})
                + "\n"
            )
            self.process.stdin.flush()
            port = json.loads(self.process.stdout.readline())["port"]
            self.sock = socket.create_connection(("127.0.0.1", port))
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.sock, selectors.EVENT_READ)
        self._buffer = b""
        self._report: dict | None = None
        self.sock.sendall(b'{"type":"hello"}\n')
        welcome = self.replies(1)[0][1]
        if welcome.get("type") != "welcome":
            raise RuntimeError(f"unexpected handshake reply {welcome}")

    def poll(self, timeout: float) -> list[tuple[float, dict]]:
        """Replies that arrive within ``timeout`` seconds, with arrival times."""
        got = []
        if self.selector.select(max(0.0, timeout)):
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise RuntimeError("server closed the connection")
            arrived = time.perf_counter()
            self._buffer += chunk
            *complete, self._buffer = self._buffer.split(b"\n")
            got = [(arrived, json.loads(line)) for line in complete if line]
        return got

    def replies(self, count: int) -> list[tuple[float, dict]]:
        """Block until ``count`` replies arrived."""
        got = []
        deadline = time.perf_counter() + REPLY_TIMEOUT_S
        while len(got) < count:
            if time.perf_counter() > deadline:
                raise RuntimeError("timed out waiting for replies")
            got.extend(self.poll(1.0))
        return got

    def snapshot(self) -> dict:
        """The server's probe counters so far."""
        self.process.stdin.write("snapshot\n")
        self.process.stdin.flush()
        return json.loads(self.process.stdout.readline())

    def close(self) -> dict:
        """Stop the server process (idempotent); return its final report."""
        if self._report is not None:
            return self._report
        try:
            self.sock.close()
            self.selector.close()
            self.process.stdin.close()
            self._report = json.loads(self.process.stdout.readline() or "{}")
            self.process.stdout.close()
            self.process.wait(timeout=30)
            return self._report
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()


def open_loop(server: Server, lines, rate: float) -> list[dict]:
    """Send ``lines`` at ``rate`` per second; time each slot from its due time."""
    count = len(lines)
    start = time.perf_counter() + 0.02
    due = [start + k / rate for k in range(count)]
    sent = [0.0] * count
    got: list[tuple[float, dict]] = []
    k = 0
    deadline = due[-1] + REPLY_TIMEOUT_S
    while len(got) < count:
        now = time.perf_counter()
        if k < count and now >= due[k]:
            server.sock.sendall(lines[k])
            sent[k] = time.perf_counter()
            k += 1
            continue
        if now > deadline:
            raise RuntimeError("timed out waiting for open-loop replies")
        got.extend(server.poll(due[k] - now if k < count else 1.0))
    return [
        {"due": due[i], "sent": sent[i], "arrived": arrived, "reply": reply}
        for i, (arrived, reply) in enumerate(got)
    ]


def closed_loop(server: Server, lines) -> tuple[float, list[dict]]:
    """Send each line after the previous reply; return (wall, slot records)."""
    records = []
    start = time.perf_counter()
    for line in lines:
        sent = time.perf_counter()
        server.sock.sendall(line)
        ((arrived, reply),) = server.replies(1)
        records.append({"due": sent, "sent": sent, "arrived": arrived, "reply": reply})
    return time.perf_counter() - start, records


def latency_ms(record: dict) -> float:
    return 1000.0 * (record["arrived"] - record["due"])


def gen_lag_ms(record: dict) -> float:
    return 1000.0 * (record["sent"] - record["due"])


def wire_ms(record: dict) -> float:
    """Round trip minus the server's own slot latency."""
    return 1000.0 * (record["arrived"] - record["sent"]) - record["reply"]["latency_ms"]


def check_replies(outcome: Outcome, records: list[dict], first_slot: int) -> None:
    """Every record must be the ``slot_result`` of its own slot."""
    for offset, record in enumerate(records):
        outcome.attempted += 1
        reply = record["reply"]
        slot = first_slot + offset
        if reply.get("type") != "slot_result" or reply.get("slot") != slot:
            outcome.fail(f"slot {slot}: unexpected reply {reply}")
    lag = percentile([gen_lag_ms(record) for record in records], 0.90)
    if lag > GEN_LAG_LIMIT_MS:
        outcome.fail(
            f"slots {first_slot}-{first_slot + len(records) - 1}: generator p90 "
            f"lag {lag:.1f} ms (limit {GEN_LAG_LIMIT_MS} ms)",
            count=len(records),
        )


def rung_latency(records: list[dict]) -> float:
    """A rung's p90 due-time latency, or its last slot's if that is worse.

    A backlog that is still growing at the end of a rung shows as a last
    slot later than the p90, so a rung holds when this is within the limit.
    """
    latencies = [latency_ms(r) for r in records]
    return max(percentile(latencies, 0.90), latencies[-1])


def max_rate(ladder: list[tuple[float, float]]) -> float:
    """The rate of the last ``(rate, latency)`` rung within :data:`LIMIT_MS`."""
    held = 0.0
    for rate, latency in ladder:
        if latency > LIMIT_MS:
            break
        held = rate
    return held


def climb(outcome: Outcome, server: Server, lines, cursor: int, legs: dict):
    """Run the rate ladder from slot ``cursor``; return ``(rate, latency)`` rungs.

    Each rung runs once; the climb stops at the first rung over the limit.
    """
    ladder = []
    for rate, count in zip(RUNGS, legs["rungs"]):
        rung = open_loop(server, lines[cursor : cursor + count], rate)
        check_replies(outcome, rung, cursor)
        cursor += count
        ladder.append((rate, rung_latency(rung)))
        if ladder[-1][1] > LIMIT_MS:
            break
    return ladder


def batch_total(system, observations) -> float:
    """The batch ``simulate()`` total of the same stream (the reference)."""
    from repro.core.regularization import OnlineRegularizedAllocator
    from repro.service import ServiceConfig
    from repro.simulation.spine import simulate

    config = ServiceConfig()
    allocator = OnlineRegularizedAllocator(
        eps1=config.eps1, eps2=config.eps2, tol=config.tol
    )
    result = simulate(
        allocator.as_controller(system), observations, system, keep_schedule=False
    )
    return result.total_cost


def check_total(outcome: Outcome, records, system, observations) -> None:
    streamed = records[-1]["reply"]["total_cost"]
    batch = batch_total(system, observations[: len(records)])
    if abs(streamed - batch) > COST_ATOL:
        outcome.fail(f"streamed total {streamed!r} != batch simulate() {batch!r}")


def serve_instance(outcome: Outcome, seed: int, legs: dict):
    """Set up one instance, serve its legs, check it; return what was measured.

    Returns the set-up wall, the open-loop and closed-loop slot records, the
    open-loop leg's realized cost and the server's peak RSS.
    """
    horizon = WARM_SLOTS + legs["open"] + legs["closed"]
    start = time.perf_counter()
    system, observations, lines = build_inputs(seed, horizon)
    server = Server(seed, horizon, traced=False)
    setup = time.perf_counter() - start
    try:
        _, records = closed_loop(server, lines[:WARM_SLOTS])
        check_replies(outcome, records, 0)
        cursor = WARM_SLOTS + legs["open"]
        opened = open_loop(server, lines[WARM_SLOTS:cursor], OPEN_RATE)
        check_replies(outcome, opened, WARM_SLOTS)
        records.extend(opened)
        _, closed = closed_loop(server, lines[cursor : cursor + legs["closed"]])
        check_replies(outcome, closed, cursor)
        records.extend(closed)
        report = server.close()
    finally:
        server.close()
    check_total(outcome, records, system, observations)
    open_cost = (
        opened[-1]["reply"]["total_cost"]
        - records[WARM_SLOTS - 1]["reply"]["total_cost"]
    )
    return setup, opened, closed, open_cost, report.get("peak_rss_mb", 0.0)


def measure(seed: int, seconds: float) -> tuple[Outcome, list[str]]:
    """The untraced run: :data:`INSTANCES` instances, one server each."""
    outcome = Outcome()
    legs = plan(seconds)
    per_instance = {
        leg: max(10, round(legs[leg] / INSTANCES)) for leg in ("open", "closed")
    }
    setups, opened, closed, peaks = [], [], [], []
    open_cost = 0.0
    for k in range(INSTANCES):
        setup, leg_open, leg_closed, cost, peak = serve_instance(
            outcome, instance_seed(seed, k), per_instance
        )
        setups.append(setup)
        opened.extend(leg_open)
        closed.extend(leg_closed)
        open_cost += cost
        peaks.append(peak)

    latencies = [latency_ms(r) for r in opened]
    round_trips = [record["arrived"] - record["sent"] for record in closed]
    outcome.put("setup_s", median(setups))
    outcome.put("peak_rss_mb", max(peaks))
    outcome.put("throughput", 1.0 / median(round_trips))
    outcome.put("p50_ms", median(latencies))
    outcome.put("cost_index", open_cost / (len(opened) * NUM_USERS))
    notes = [
        f"serve-j120: {INSTANCES} instances; open loop {len(opened)} slots at "
        f"{OPEN_RATE:g}/s, closed loop {len(closed)} slots; "
        f"gen lag p90 {percentile([gen_lag_ms(r) for r in opened], 0.9):.3f} ms",
    ]
    return outcome, notes


def trace(seed: int, seconds: float) -> tuple[Outcome, list[str]]:
    """The traced run: closed loop on a bare and a traced server, then more.

    The bare and traced servers serve the same first slots closed loop, so
    their walls compare like with like and their costs must agree exactly;
    the traced server then serves an open-loop leg for queueing and
    generator-lag attribution, and climbs the rate ladder.
    """
    outcome = Outcome()
    seed = instance_seed(seed, 0)
    count = max(20, round(CLOSED_SLOTS_PER_S * seconds))
    legs = plan(seconds)
    ladder_start = count + legs["open"]
    horizon = ladder_start + sum(legs["rungs"])
    lines = build_inputs(seed, horizon)[2]

    bare = Server(seed, horizon, traced=False)
    try:
        bare_wall, bare_records = closed_loop(bare, lines[:count])
    finally:
        bare.close()
    traced = Server(seed, horizon, traced=True)
    try:
        traced_wall, traced_records = closed_loop(traced, lines[:count])
        snap = traced.snapshot()
        opened = open_loop(traced, lines[count:ladder_start], OPEN_RATE)
        ladder = climb(outcome, traced, lines, ladder_start, legs)
    finally:
        traced.close()
    check_replies(outcome, bare_records, 0)
    check_replies(outcome, traced_records, 0)
    check_replies(outcome, opened, count)
    if [r["reply"]["cost"] for r in bare_records] != [
        r["reply"]["cost"] for r in traced_records
    ]:
        outcome.fail("tracing changed the streamed costs")

    spent = snap["seconds"]
    counts = snap["counts"]
    parts = {
        "p2.solve_s": spent.get("p2.solve", 0.0),
        "online_approx.self_s": spent.get("observe", 0.0) - spent.get("p2.solve", 0.0),
        "spine.step_self_s": spent.get("step", 0.0) - spent.get("observe", 0.0),
        "service.decode_s": spent.get("decode", 0.0),
    }
    outside = spent.get("step", 0.0) + spent.get("decode", 0.0)
    wire = median([wire_ms(r) for r in traced_records])
    solves = counts.get("p2.solve", 0.0)
    layer = dict(parts)
    layer.update(
        {
            "trace.wall_s": traced_wall,
            "unattributed_s": traced_wall - outside,
            "p2.solves": solves,
            "p2.newton_steps": counts.get("p2.newton_steps", 0.0),
            "p2.steps_per_solve": counts.get("p2.newton_steps", 0.0) / max(1, solves),
            "p2.partial": counts.get("p2.partial", 0.0),
            "p2.fallbacks": counts.get("p2.fallbacks", 0.0),
            "service.update_bytes": median([len(line) for line in lines]),
            "service.handle_ms": 1000.0 * median(snap["samples"]["handle"]),
            "service.wire_ms": wire,
            "service.queue_ms": median(
                [latency_ms(r) - r["reply"]["latency_ms"] - wire for r in opened]
            ),
            "serve.p90_ms": percentile([latency_ms(r) for r in opened], 0.9),
            "serve.max_rate": max_rate([(OPEN_RATE, rung_latency(opened)), *ladder]),
            "serve.gen_lag_ms": percentile([gen_lag_ms(r) for r in opened], 0.9),
            "trace.overhead_frac": (traced_wall - bare_wall) / bare_wall,
        }
    )
    for name, value in layer.items():
        outcome.put(name, value)
    notes = [
        f"serve-j120 traced: {count} closed-loop slots per server; walls bare "
        f"{bare_wall:.3f} s, traced {traced_wall:.3f} s; then {len(opened)} "
        f"open-loop slots at {OPEN_RATE:g}/s",
        "  ladder (rate/s: latency ms): "
        + ", ".join(f"{rate:g}: {latency:.0f}" for rate, latency in ladder),
    ]
    return outcome, notes
