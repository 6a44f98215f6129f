"""Shared pieces of the benchmark runner: host block, statistics, results."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
LOOP_REPEATS = 3


def metric_units(kind: str) -> dict[str, str]:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in spec order."""
    with open(BENCHMARK_JSON) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


class CheckFailed(AssertionError):
    """A correctness check of a workload failed."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` unless ``condition`` holds."""
    if not condition:
        raise CheckFailed(message)


def median(values) -> float:
    return statistics.median(values)


class Laps:
    """A round's host time, split where the round reaches fixed points of its work.

    A workload calls :meth:`lap` at points that fall on the same work in
    every round of a seed, so lap ``j`` of one round repeats lap ``j`` of
    the others; checks inside the round run under :meth:`untimed`.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self._paused = 0.0
        self._last = time.perf_counter()

    def lap(self) -> None:
        now = time.perf_counter()
        self.times.append(now - self._last - self._paused)
        self._last, self._paused = now, 0.0

    @contextmanager
    def untimed(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - start


def fastest_laps_rate(items: list[int], laps: list[list[float]]) -> float:
    """Work per second of a round that runs each of its laps at its fastest.

    Host speed drifts by tens of percent over seconds on a shared machine,
    and a slow spell only ever adds time; the fastest of a lap's repeats is
    the closest to the program's own cost, and summing short laps lets each
    part of the round find its fastest moment.  Every round must do the same
    work in the same number of laps.
    """
    if len(set(items)) != 1 or len({len(row) for row in laps}) != 1:
        raise ValueError("rounds differ in work or in lap count; lap minima are undefined")
    return items[0] / sum(min(column) for column in zip(*laps))


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, MB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _blas() -> dict:
    import numpy as np

    name = "unknown"
    try:
        config = np.show_config(mode="dicts")
        name = config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    # The runner pins both variables before numpy loads, so they are the
    # thread count BLAS started with.
    return {
        "name": name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def python_loop_s() -> list[float]:
    """Times of a fixed pure-Python loop: the host's noise level."""
    times = []
    for _ in range(LOOP_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return times


def host_block(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "commit": _git_commit(),
        "seed": seed,
        "python_loop_s": python_loop_s(),
    }


def result_line(*, correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    """The final stdout line: ``{correct, attempted, failed, metrics}``."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def append_record(record: dict, out_dir: str) -> str:
    """Append one run record to ``out_dir/results.jsonl``; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "results.jsonl")
    with open(path, "a") as out:
        out.write(json.dumps(record) + "\n")
    return path


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
