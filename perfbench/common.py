"""Shared plumbing for the benchmark: locating the program, statistics, results.

The benchmark lives in ``perfbench/`` next to the program's ``src/`` tree and
imports the program from there, never from an installed copy, so the code
measured is always the code in the same checkout.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Exit code when the program under test cannot be found or imported.
EXIT_NO_PROGRAM = 2
#: Exit code when a correctness check failed (a result line is printed).
EXIT_CHECK_FAILED = 1


def bootstrap() -> None:
    """Put this checkout's ``src/`` first on the import path, or exit.

    Refuses to fall back to any other ``repro`` on the path: a benchmark of
    some other copy of the program would measure the wrong code.
    """
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: program sources not found at {package}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PROGRAM)
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PROGRAM) from exc
    if Path(repro.__file__).resolve().parent != package.parent.resolve():
        print(
            f"perfbench: imported repro from {repro.__file__}, not {SRC}",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_NO_PROGRAM)


def median(values) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(fraction * len(ordered))))
    return float(ordered[rank - 1])


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(build, repeats: int = 3):
    """Run ``build()`` ``repeats`` times; return (last result, median seconds).

    Set-up is repeated so its median is steady enough to gate: work moved
    from the measured loop into set-up must show up in ``setup_s``.
    """
    walls = []
    result = None
    for _ in range(repeats):
        result = None  # release the previous copy before building the next
        start = time.perf_counter()
        result = build()
        walls.append(time.perf_counter() - start)
    return result, median(walls)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        """Record ``count`` failed operations with a reason."""
        self.failed += count
        self.problems.append(message)

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)


def load_spec() -> dict:
    """The benchmark definition (metric names and units) from BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PROGRAM) from exc


def emit(outcome: Outcome, specs: list[dict], notes: list[str]) -> int:
    """Print the human summary then the one-line JSON result; return exit code.

    ``specs`` are the BENCHMARK.json metric entries this run must report;
    a metric the workload did not produce, or one it produced that is not
    declared, is a bug in the benchmark and raises.
    """
    names = [spec["name"] for spec in specs]
    missing = sorted(set(names) - set(outcome.metrics))
    extra = sorted(set(outcome.metrics) - set(names))
    if missing or extra:
        raise RuntimeError(f"metrics missing {missing}, undeclared {extra}")
    for spec in specs:
        value = outcome.metrics[spec["name"]]
        print(f"{spec['name']:>28} {value:>14.6g} {spec['unit']}")
    for line in notes:
        print(line)
    for problem in outcome.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    correct = outcome.failed == 0 and outcome.attempted > 0
    result = {
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            spec["name"]: {
                "value": outcome.metrics[spec["name"]],
                "unit": spec["unit"],
            }
            for spec in specs
        },
    }
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if correct else EXIT_CHECK_FAILED
