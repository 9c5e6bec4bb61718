"""Workload ``city-1m``: the aggregated service core at 10^6 users per slot.

Slots go through ``AllocationSession.handle_line`` — the framing of
``repro-edge serve --stdio`` — as JSON lines of about 6 MB, closed loop with
one caller, solved over (station, workload-bucket) cohorts: 8 lambda-buckets,
4 shards, in process. Each slot draws fresh operation prices and moves every
user one step of a station-to-station chain fitted to the Figure 2 taxi
mobility (:func:`taxi_chain`), which re-attaches about a third of the users
per slot, as the taxi traces do.

It stays on the stdio framing because the TCP server currently drops update
lines over 64 KiB (asyncio's ``readline`` limit, about 3k users here)
without an ``error`` reply. The workload must not be shrunk to fit TCP; it
moves to TCP once the wire is fixed.

Checks: every line is answered by its own ``slot_result``, the streamed total
equals an in-process ``simulate()`` of the same aggregated controller over
the same observations to 1e-9, and the worst demand/capacity residual is at
most 1e-6.
"""

from __future__ import annotations

import gc
import time

from common import Outcome, median, peak_rss_mb, timed_setup
from layers import (
    TIMED_BACKEND,
    Probe,
    patched,
    register_timed_backend,
    service_seams,
)

NUM_USERS = 1_000_000
#: Size of the Figure 2 taxi trace the city's mobility is fitted to: the
#: paper's 60 one-minute slots of one test case.
TAXI_USERS = 240
TAXI_SLOTS = 60
LAMBDA_BUCKETS = 8
SHARDS = 4
#: Slots every run serves; ``cost_index`` averages exactly these.
MIN_SLOTS = 6
COST_ATOL = 1e-9
RESIDUAL_LIMIT = 1e-6


def taxi_chain(seed: int):
    """Station occupancy and slot-to-slot chain of the Figure 2 taxi mobility.

    Both are counted on a :data:`TAXI_USERS` x :data:`TAXI_SLOTS` trace of
    the Figure 2 scenario's taxi model drawn from ``seed``: ``occupancy[i]``
    is the share of user-slots at station ``i`` and ``chain[i, k]`` the share
    of users at station ``i`` that are at station ``k`` one slot later. A
    station the trace never leaves keeps its users.
    """
    import numpy as np
    from repro.experiments.fig2 import fig2_scenario
    from repro.experiments.settings import ExperimentScale

    scale = ExperimentScale(num_users=TAXI_USERS, num_slots=TAXI_SLOTS)
    rng = np.random.default_rng([seed, 2])
    trace = fig2_scenario(scale).resolve_mobility().generate(
        TAXI_USERS, TAXI_SLOTS, rng
    )
    stations = trace.num_clouds
    attachment = trace.attachment
    occupancy = np.bincount(attachment.ravel(), minlength=stations) / attachment.size
    counts = np.zeros((stations, stations))
    np.add.at(counts, (attachment[:-1].ravel(), attachment[1:].ravel()), 1.0)
    unseen = counts.sum(axis=1) == 0
    counts[unseen, unseen] = 1.0
    return occupancy, counts / counts.sum(axis=1, keepdims=True)


def reattached_share(attachment, chain) -> float:
    """Expected share of the users at ``attachment`` that ``chain`` moves."""
    import numpy as np

    occupancy = np.bincount(attachment, minlength=len(chain)) / attachment.size
    return float(occupancy @ (1.0 - np.diag(chain)))


def build_system(seed: int):
    """The city's time-invariant system, slot-0 attachment and mobility chain."""
    import numpy as np
    from repro.core.problem import CostWeights
    from repro.pricing.bandwidth import isp_migration_prices
    from repro.pricing.capacity import provision_capacities
    from repro.pricing.reconfiguration import gaussian_reconfiguration_prices
    from repro.simulation.observations import SystemDescription
    from repro.topology.delays import inter_cloud_delay_matrix
    from repro.topology.metro import rome_metro_topology
    from repro.workload.distributions import make_workloads

    topology = rome_metro_topology()
    num_clouds = topology.num_sites
    rng = np.random.default_rng(seed)
    workloads = make_workloads("power", NUM_USERS, rng)
    occupancy, chain = taxi_chain(seed)
    attachment = rng.choice(num_clouds, size=NUM_USERS, p=occupancy)
    capacities = provision_capacities(workloads, attachment[None, :], num_clouds)
    system = SystemDescription(
        workloads=np.asarray(workloads, dtype=float),
        capacities=capacities,
        reconfig_prices=gaussian_reconfiguration_prices(num_clouds, rng),
        migration_prices=isp_migration_prices(num_clouds, rng=rng),
        inter_cloud_delay=inter_cloud_delay_matrix(topology, price_per_km=2.0),
        weights=CostWeights(),
    )
    return system, attachment, chain


def observations(seed: int, system, attachment, chain):
    """The endless slot stream: users moved along ``chain``, fresh prices."""
    import numpy as np
    from repro.pricing.operation import gaussian_operation_prices
    from repro.simulation.observations import SlotObservation

    rng = np.random.default_rng([seed, 1])
    attachment = attachment.copy()
    num_clouds = system.num_clouds
    access_delay = np.zeros(NUM_USERS)
    slot = 0
    while True:
        if slot > 0:
            before = attachment.copy()
            for station in range(num_clouds):
                users = np.flatnonzero(before == station)
                attachment[users] = rng.choice(
                    num_clouds, size=users.size, p=chain[station]
                )
        prices = gaussian_operation_prices(system.capacities, 1, rng)[0]
        yield SlotObservation(
            slot=slot,
            op_prices=prices,
            attachment=attachment.copy(),
            access_delay=access_delay,
        )
        slot += 1


def aggregation(backend: str = "auto"):
    from repro.aggregate.config import AggregationConfig

    return AggregationConfig(
        lambda_buckets=LAMBDA_BUCKETS, shards=SHARDS, workers=1, backend=backend
    )


def new_session(system, backend: str = "auto"):
    from repro.service import AllocationSession, ServiceConfig

    return AllocationSession(
        system, ServiceConfig(backend=backend, aggregation=aggregation(backend))
    )


def encode_line(observation) -> bytes:
    from repro.service.protocol import encode, observation_to_update

    return encode(observation_to_update(observation))


def serve(session, line: bytes, outcome: Outcome) -> tuple[float, dict]:
    """Feed one line to ``session.handle_line``; return (wall, reply)."""
    slot = session.expected_slot
    outcome.attempted += 1
    start = time.perf_counter()
    reply = session.handle_line(line)
    wall = time.perf_counter() - start
    if reply.get("type") != "slot_result" or reply.get("slot") != slot:
        outcome.fail(f"slot {slot}: unexpected reply {str(reply)[:200]}")
    return wall, reply


def check_residuals(outcome: Outcome, session) -> None:
    demand, capacity, _ = session.stepper.residuals
    if max(demand, capacity) > RESIDUAL_LIMIT:
        outcome.fail(f"residuals demand {demand:.3e}, capacity {capacity:.3e}")


def reference_total(seed: int, system, attachment, chain, slots: int) -> float:
    """In-process ``simulate()`` of the same aggregated controller."""
    import itertools

    from repro.core.regularization import OnlineRegularizedAllocator
    from repro.service import ServiceConfig
    from repro.simulation.spine import simulate

    config = ServiceConfig()
    allocator = OnlineRegularizedAllocator(
        eps1=config.eps1, eps2=config.eps2, tol=config.tol, aggregation=aggregation()
    )
    stream = itertools.islice(observations(seed, system, attachment, chain), slots)
    result = simulate(
        allocator.as_controller(system), stream, system, keep_schedule=False
    )
    return result.total_cost


def measure(seed: int, seconds: float) -> tuple[Outcome, list[str]]:
    """The untraced run: slots closed loop for ``seconds``."""
    outcome = Outcome()

    def set_up():
        system, attachment, chain = build_system(seed)
        return system, attachment, chain, new_session(system)

    (system, attachment, chain, session), setup_s = timed_setup(set_up, repeats=7)
    stream = observations(seed, system, attachment, chain)
    walls, replies, sizes = [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_SLOTS or time.perf_counter() - start < seconds:
        line = encode_line(next(stream))
        sizes.append(len(line))
        wall, reply = serve(session, line, outcome)
        walls.append(wall)
        replies.append(reply)
    check_residuals(outcome, session)
    streamed = session.total_cost
    del session
    gc.collect()
    reference = reference_total(seed, system, attachment, chain, len(walls))
    if abs(streamed - reference) > COST_ATOL:
        outcome.fail(f"streamed total {streamed!r} != simulate() {reference!r}")

    handled = sum(walls)
    outcome.put("setup_s", setup_s)
    outcome.put("peak_rss_mb", peak_rss_mb())
    outcome.put("throughput", NUM_USERS * len(walls) / handled)
    outcome.put("p50_ms", 1000.0 * median(walls))
    outcome.put(
        "cost_index",
        sum(r["cost"] for r in replies[:MIN_SLOTS]) / (MIN_SLOTS * NUM_USERS),
    )
    notes = [
        f"city-1m: {len(walls)} slots of {NUM_USERS} users, median line "
        f"{median(sizes) / 1e6:.2f} MB, handle_line total {handled:.2f} s; "
        f"taxi chain re-attaches {reattached_share(attachment, chain):.3f}"
        " of users per slot",
        f"  city.users_per_s={NUM_USERS * len(walls) / handled:.6g}  "
        f"city.slot_p50_ms={1000.0 * median(walls):.2f}  "
        f"city.cost_per_user_slot={outcome.metrics['cost_index']:.6g}",
    ]
    return outcome, notes


def trace(seed: int, seconds: float) -> tuple[Outcome, list[str]]:
    """The traced run: the same slots on a bare and on a traced session.

    The traced pass's wall is the summed ``handle_line`` time, the same
    region the untraced run times; both passes must produce the same costs.
    """
    outcome = Outcome()
    count = max(3, round(seconds / 2.5))
    system, attachment, chain = build_system(seed)
    stream = observations(seed, system, attachment, chain)
    lines = [encode_line(next(stream)) for _ in range(count)]

    session = new_session(system)
    bare = [serve(session, line, outcome) for line in lines]
    del session
    gc.collect()
    probe = Probe()
    with patched(service_seams(probe)):
        register_timed_backend(probe)
        session = new_session(system, backend=TIMED_BACKEND)
        traced = [serve(session, line, outcome) for line in lines]
        check_residuals(outcome, session)
    if [r["cost"] for _, r in bare] != [r["cost"] for _, r in traced]:
        outcome.fail("tracing changed the streamed costs")

    spent, counts = probe.seconds, probe.counts
    bare_wall = sum(wall for wall, _ in bare)
    traced_wall = sum(wall for wall, _ in traced)
    parts = {
        "p2.solve_s": spent["p2.solve"],
        "aggregate.self_s": spent["observe"] - spent["p2.solve"],
        "spine.step_self_s": spent["step"] - spent["observe"],
        "service.decode_s": spent["decode"],
    }
    solves = counts["p2.solve"]
    layer = dict(parts)
    layer.update(
        {
            "trace.wall_s": traced_wall,
            "unattributed_s": traced_wall - spent["step"] - spent["decode"],
            "p2.solves": solves,
            "p2.newton_steps": counts["p2.newton_steps"],
            "p2.steps_per_solve": counts["p2.newton_steps"] / max(1, solves),
            "p2.partial": counts["p2.partial"],
            "p2.fallbacks": counts["p2.fallbacks"],
            "aggregate.cohorts": counts["aggregate.cohorts"] / count,
            "aggregate.warm_hits": counts["aggregate.warm_hits"],
            "service.update_bytes": median([len(line) for line in lines]),
            "service.handle_ms": 1000.0 * median(probe.samples["handle"]),
            "trace.overhead_frac": (traced_wall - bare_wall) / bare_wall,
        }
    )
    for name, value in layer.items():
        outcome.put(name, value)
    notes = [
        f"city-1m traced: {count} slots per pass; handle_line walls bare "
        f"{bare_wall:.3f} s, traced {traced_wall:.3f} s",
    ]
    return outcome, notes
