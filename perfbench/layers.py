"""Per-layer attribution measured from outside the program.

A :class:`Probe` wraps the program's public seams — ``Scenario.build``,
``OfflineOptimal.build_lp``, ``LinearProgramBuilder.solve``,
``OnlineGreedy.solve_slot``, the controllers' ``observe``,
``SlotStepper.step``, ``AllocationSession.handle``/``handle_line`` and the
wire decoders — with wall-clock timers for the duration of a traced pass,
then restores the originals. P2 solves are timed by :class:`TimedBackend`, a
proxy convex backend registered in the solver registry and selected the way
any backend is (``backend=`` or ``ServiceConfig.backend``). No program code
is edited; untraced runs install nothing.

A layer's self time is its own span minus the spans nested in it, so the
layer times of a traced pass plus an ``unattributed_s`` remainder sum to the
pass's wall by construction.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

#: Registry name of the timing proxy backend.
TIMED_BACKEND = "perfbench-timed"


class Probe:
    """Accumulated wall time, call counts and per-call samples by seam name."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: Which algorithm family the running LP solves belong to.
        self.scope = "other"

    def add(self, name: str, elapsed: float, *, keep: bool = False) -> None:
        self.seconds[name] += elapsed
        self.counts[name] += 1
        if keep:
            self.samples[name].append(elapsed)

    def wrap(self, name, fn, *, keep: bool = False, after=None):
        """A timed stand-in for ``fn``; ``after(result, args)`` records counts."""
        probe = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            probe.add(name, time.perf_counter() - start, keep=keep)
            if after is not None:
                after(result, args)
            return result

        return timed

    def snapshot(self) -> dict:
        """A JSON-ready copy (used to ship a server process's probe back)."""
        return {
            "seconds": dict(self.seconds),
            "counts": dict(self.counts),
            "samples": {name: list(values) for name, values in self.samples.items()},
        }


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set ``(owner, attribute, value)`` triples; always restore.

    Static methods stay static: the stand-in is re-wrapped in
    ``staticmethod`` when the original was one.
    """
    saved = []
    try:
        for owner, attribute, value in replacements:
            original = owner.__dict__[attribute]
            if isinstance(original, staticmethod):
                value = staticmethod(value)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, value)
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def _raw(owner, attribute):
    """The plain function behind a (possibly static) class attribute."""
    value = owner.__dict__[attribute]
    return value.__func__ if isinstance(value, staticmethod) else value


class TimedBackend:
    """A convex backend that times and counts every P2 solve of ``inner``.

    It forwards the session hooks the controllers call (circuit resets), so
    decisions are bit-identical to solving on ``inner`` directly.
    """

    def __init__(self, inner, probe: Probe) -> None:
        self.inner = inner
        self.probe = probe
        self.name = inner.name

    def solve(self, program, *, tol: float = 1e-8):
        start = time.perf_counter()
        result = self.inner.solve(program, tol=tol)
        probe = self.probe
        probe.add("p2.solve", time.perf_counter() - start)
        probe.counts["p2.newton_steps"] += result.iterations
        probe.counts["p2.partial"] += bool(result.partial)
        probe.counts["p2.fallbacks"] += result.primary_error is not None
        return result

    def reset_circuit(self) -> None:
        reset = getattr(self.inner, "reset_circuit", None)
        if reset is not None:
            reset()

    def reset_session(self) -> None:
        from repro.solvers.registry import reset_session

        reset_session(self.inner)


def register_timed_backend(probe: Probe) -> TimedBackend:
    """Register a proxy over the default backend under :data:`TIMED_BACKEND`."""
    from repro.solvers.registry import default_backend, register_backend

    backend = TimedBackend(default_backend(), probe)
    register_backend(TIMED_BACKEND, backend)
    return backend


def figure_seams(probe: Probe):
    """Seams of the figure pipeline: instance generation and the LPs."""
    from repro.baselines.greedy import OnlineGreedy
    from repro.baselines.offline import OfflineOptimal
    from repro.simulation.scenario import Scenario
    from repro.solvers.linear import LinearProgramBuilder

    def lp_shape(builder, _args):
        probe.counts["lp.offline.vars"] += builder.num_variables
        probe.counts["lp.offline.rows"] += builder.num_constraints

    lp_solve = _raw(LinearProgramBuilder, "solve")

    @functools.wraps(lp_solve)
    def solve(self, *args, **kwargs):
        start = time.perf_counter()
        result = lp_solve(self, *args, **kwargs)
        probe.add(f"lp.{probe.scope}.solve", time.perf_counter() - start)
        probe.counts[f"lp.{probe.scope}.simplex_iters"] += result.iterations
        return result

    return [
        (Scenario, "build", probe.wrap("scenario.build", _raw(Scenario, "build"))),
        (
            OfflineOptimal,
            "build_lp",
            probe.wrap(
                "lp.offline.build", _raw(OfflineOptimal, "build_lp"), after=lp_shape
            ),
        ),
        (LinearProgramBuilder, "solve", solve),
        (
            OnlineGreedy,
            "solve_slot",
            probe.wrap("lp.greedy.slot", _raw(OnlineGreedy, "solve_slot")),
        ),
    ]


def service_seams(probe: Probe):
    """Seams of the serving path: session dispatch, decode, spine, controllers."""
    from repro.aggregate.controller import AggregatedController
    from repro.service import protocol, server, session
    from repro.simulation.controllers import RegularizedController
    from repro.simulation.spine import SlotStepper

    def cohorts(_result, args):
        report = args[0].last_reports[-1]
        probe.counts["aggregate.cohorts"] += report.cohorts
        probe.counts["aggregate.warm_hits"] += bool(report.warm_cohort_hit)

    parse_message = protocol.parse_message
    decode_message = probe.wrap("decode", parse_message)
    return [
        (protocol, "parse_message", decode_message),
        (server, "parse_message", decode_message),
        (session, "parse_update", probe.wrap("decode", session.parse_update)),
        (
            session.AllocationSession,
            "handle",
            probe.wrap("handle", _raw(session.AllocationSession, "handle"), keep=True),
        ),
        (
            session.AllocationSession,
            "handle_line",
            probe.wrap(
                "handle_line", _raw(session.AllocationSession, "handle_line")
            ),
        ),
        (SlotStepper, "step", probe.wrap("step", _raw(SlotStepper, "step"))),
        (
            RegularizedController,
            "observe",
            probe.wrap("observe", _raw(RegularizedController, "observe")),
        ),
        (
            AggregatedController,
            "observe",
            probe.wrap(
                "observe", _raw(AggregatedController, "observe"), after=cohorts
            ),
        ),
    ]
