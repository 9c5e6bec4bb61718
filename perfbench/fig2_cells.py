"""Workload ``fig2-cells``: the Figure 2 pipeline, one cell after another.

A cell is one seeded Figure 2 instance (Rome metro, taxi mobility, power
workloads, J=120 users, T=12 slots) on which all six paper algorithms run and
are normalized by offline-opt. The run is batch, serial and closed loop: the
next cell starts when the previous one finishes.

Checks on every cell: the engine's feasibility gate holds for every
algorithm, offline-opt costs no more than any algorithm, and online-approx
stays within Theorem 2's bound 1 + gamma |I|. A cell that repeats within a
run must reproduce its costs exactly.
"""

from __future__ import annotations

import time

from common import Outcome, median, peak_rss_mb, timed_setup
from layers import Probe, figure_seams, patched, register_timed_backend

NUM_USERS = 120
NUM_SLOTS = 12
#: Distinct cells per run; more than a run can finish, so cells rarely repeat.
NUM_CELLS = 16
#: Cells every run finishes; ``cost_index`` averages exactly these.
MIN_CELLS = 6
#: Rough wall of one cell, used only to size the traced run's passes.
CELL_SECONDS = 1.6
#: Cost tolerance of the offline-opt <= every algorithm check.
COST_RTOL = 1e-9

ATOMISTIC = ("perf-opt", "oper-opt", "stat-opt")
SCOPES = {"offline-opt": "offline", "online-greedy": "greedy"}


def _scenario():
    from repro.experiments.fig2 import fig2_scenario
    from repro.experiments.settings import ExperimentScale

    return fig2_scenario(ExperimentScale(num_users=NUM_USERS, num_slots=NUM_SLOTS))


def build_instances(seed: int, count: int = NUM_CELLS):
    """The run's cells: ``count`` instances drawn from ``seed``."""
    scenario = _scenario()
    return [scenario.build(seed=seed * 1000 + cell) for cell in range(count)]


def roster(backend=None):
    """The Figure 2 pipeline's six algorithms, ``all_paper_algorithms()``.

    ``backend``, when given, replaces online-approx's P2 backend.
    """
    from dataclasses import replace

    from repro.experiments.settings import all_paper_algorithms

    algorithms = all_paper_algorithms()
    if backend is None:
        return algorithms
    return [
        replace(algorithm, backend=backend)
        if algorithm.name == "online-approx"
        else algorithm
        for algorithm in algorithms
    ]


def run_cell(instance, algorithms, probe: Probe | None = None):
    """Run every algorithm on one instance; return (totals, ratios, run walls)."""
    from repro.simulation.engine import run_algorithm
    from repro.simulation.results import Comparison

    results, walls = {}, {}
    for algorithm in algorithms:
        if probe is not None:
            probe.scope = SCOPES.get(algorithm.name, "other")
        start = time.perf_counter()
        results[algorithm.name] = run_algorithm(
            algorithm, instance, keep_schedule=False
        )
        walls[algorithm.name] = time.perf_counter() - start
    comparison = Comparison(results=results, baseline="offline-opt")
    totals = {name: result.total_cost for name, result in results.items()}
    return totals, comparison.ratios(), walls


def check_cell(instance, totals, ratios) -> list[str]:
    """The cell's correctness checks; returns the failures."""
    from repro.core.bounds import competitive_ratio_bound
    from repro.experiments.settings import DEFAULT_EPS

    problems = []
    optimum = totals["offline-opt"]
    for name, total in totals.items():
        if optimum > total + COST_RTOL * max(1.0, abs(total)):
            problems.append(f"offline-opt {optimum!r} costs more than {name} {total!r}")
    bound = competitive_ratio_bound(instance, DEFAULT_EPS, DEFAULT_EPS)
    if not ratios["online-approx"] <= bound:
        problems.append(
            f"online-approx ratio {ratios['online-approx']} exceeds Theorem 2 "
            f"bound {bound}"
        )
    return problems


def _one_cell(outcome: Outcome, instance, algorithms, probe=None):
    """Run and check one cell, counting it; returns (totals, ratios, walls)."""
    outcome.attempted += 1
    try:
        totals, ratios, walls = run_cell(instance, algorithms, probe)
    except (ValueError, RuntimeError) as exc:  # infeasible schedule, LP failure
        outcome.fail(f"cell failed: {exc}")
        return None
    problems = check_cell(instance, totals, ratios)
    if problems:
        outcome.fail("; ".join(problems))
    return totals, ratios, walls


def _warm_up() -> None:
    """One tiny cell so lazy imports and solver start-up are not timed."""
    from repro.experiments.fig2 import fig2_scenario
    from repro.experiments.settings import ExperimentScale

    instance = fig2_scenario(ExperimentScale(num_users=8, num_slots=3)).build(seed=0)
    run_cell(instance, roster())


def measure(seed: int, seconds: float) -> tuple[Outcome, list[str]]:
    """The untraced run: end-to-end metrics."""
    outcome = Outcome()
    _warm_up()
    instances, setup_s = timed_setup(lambda: build_instances(seed), repeats=5)
    algorithms = roster()
    walls, ratios, seen = [], [], {}
    start = time.perf_counter()
    cell = 0
    while cell < MIN_CELLS or time.perf_counter() - start < seconds:
        index = cell % len(instances)
        began = time.perf_counter()
        done = _one_cell(outcome, instances[index], algorithms)
        walls.append(time.perf_counter() - began)
        cell += 1
        if done is None:
            continue
        totals, cell_ratios, _ = done
        if cell <= MIN_CELLS:
            ratios.append(cell_ratios["online-approx"])
        if index in seen and seen[index] != totals:
            outcome.fail(f"cell {index} did not reproduce its costs")
        seen[index] = totals
    elapsed = time.perf_counter() - start
    cells_per_s = cell / elapsed
    outcome.put("setup_s", setup_s)
    outcome.put("peak_rss_mb", peak_rss_mb())
    outcome.put("throughput", cells_per_s)
    outcome.put("p50_ms", 1000.0 * median(walls))
    outcome.put("cost_index", sum(ratios) / max(1, len(ratios)))
    notes = [
        f"fig2-cells: {cell} cells (J={NUM_USERS}, T={NUM_SLOTS}) in {elapsed:.2f} s",
        f"  fig.cells_per_s={cells_per_s:.4f} 1/s  "
        f"fig.ratio_approx={outcome.metrics['cost_index']:.6f} "
        f"(mean over the first {MIN_CELLS} cells)",
    ]
    return outcome, notes


def trace(seed: int, seconds: float) -> tuple[Outcome, list[str]]:
    """The traced run: the same cells untraced, traced, and with telemetry on.

    Each pass runs the same cells from scratch, scenario generation
    included, so the three walls compare like with like.
    """
    from repro.telemetry import telemetry_session

    outcome = Outcome()
    _warm_up()
    # Three passes share the run's seconds.
    count = max(2, min(NUM_CELLS, round(seconds / 3 / CELL_SECONDS)))

    def run_pass(algorithms, probe=None):
        start = time.perf_counter()
        cells = [
            _one_cell(outcome, instance, algorithms, probe)
            for instance in build_instances(seed, count)
        ]
        return time.perf_counter() - start, cells

    def totals(cells):
        return [None if cell is None else cell[0] for cell in cells]

    bare_wall, bare_cells = run_pass(roster())
    probe = Probe()
    backend = register_timed_backend(probe)
    with patched(figure_seams(probe)):
        traced_wall, traced_cells = run_pass(roster(backend), probe)
    with telemetry_session():
        telemetry_wall, telemetry_cells = run_pass(roster())
    for label, cells in (("traced", traced_cells), ("telemetry", telemetry_cells)):
        if totals(cells) != totals(bare_cells):
            outcome.fail(f"{label} pass changed the costs")
    walls = [cell[2] for cell in traced_cells if cell is not None]
    approx_wall = sum(wall["online-approx"] for wall in walls)
    atomistic_wall = sum(wall[name] for wall in walls for name in ATOMISTIC)

    seconds_of = probe.seconds
    counts = probe.counts
    parts = {
        "scenario.build_s": seconds_of["scenario.build"],
        "lp.offline.build_s": seconds_of["lp.offline.build"],
        "lp.offline.solve_s": seconds_of["lp.offline.solve"],
        "lp.greedy.solve_s": seconds_of["lp.greedy.solve"],
        "baselines.atomistic_s": atomistic_wall,
        "p2.solve_s": seconds_of["p2.solve"],
        "online_approx.self_s": approx_wall - seconds_of["p2.solve"],
    }
    layer = dict(parts)
    solves = counts["p2.solve"]
    layer.update(
        {
            "lp.offline.simplex_iters": counts["lp.offline.simplex_iters"],
            "lp.offline.vars": counts["lp.offline.vars"] / max(1, count),
            "lp.offline.rows": counts["lp.offline.rows"] / max(1, count),
            "lp.greedy.calls": counts["lp.greedy.slot"],
            "lp.greedy.simplex_iters": counts["lp.greedy.simplex_iters"],
            "p2.solves": solves,
            "p2.newton_steps": counts["p2.newton_steps"],
            "p2.steps_per_solve": counts["p2.newton_steps"] / max(1, solves),
            "p2.partial": counts["p2.partial"],
            "p2.fallbacks": counts["p2.fallbacks"],
            "trace.wall_s": traced_wall,
            "unattributed_s": traced_wall - sum(parts.values()),
            "trace.overhead_frac": (traced_wall - bare_wall) / bare_wall,
            "telemetry.on_overhead_frac": (telemetry_wall - bare_wall) / bare_wall,
        }
    )
    for name, value in layer.items():
        outcome.put(name, value)
    notes = [
        f"fig2-cells traced: {count} cells per pass; walls bare {bare_wall:.3f} s, "
        f"traced {traced_wall:.3f} s, telemetry on {telemetry_wall:.3f} s",
    ]
    return outcome, notes

