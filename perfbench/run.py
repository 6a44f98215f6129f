#!/usr/bin/env python3
"""Run the benchmark: one workload, or all three, for a seed.

    python3 perfbench/run.py --workload vit_noisy_eval --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload untraced for half the time and then traced
for the other half, and reports the per-layer metrics plus the tracing
overhead.  Without ``--workload`` every workload runs, each in its own
process.  The last stdout line is the result JSON; every run is also
appended to ``results.jsonl`` in ``--out`` (default ``.perfbench/``) for
``compare.py``.
"""

import os

# Pin BLAS before numpy loads: the shard threads of the noisy workload
# must not compete with BLAS threads for the host's CPUs.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import harness  # noqa: E402
from workloads import NAMES  # noqa: E402

SETUP_REPEATS = 5
SRC = os.path.join(harness.ROOT, "src")
PROGRAM = ("repro.arch", "repro.cluster", "repro.neural", "repro.serving")
#: Times the program's import in a fresh interpreter; argv[1] is ``src``.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    f"import {', '.join(PROGRAM)}; print(time.perf_counter() - start)"
)


@dataclass
class Measured:
    times: list = field(default_factory=list)  #: host seconds per round
    laps: list = field(default_factory=list)  #: host seconds per lap, per round
    items: list = field(default_factory=list)  #: work done per round
    attempted: int = 0
    failed: int = 0
    bypassed: list = field(default_factory=list)  #: per-layer metrics reading 0


def measure(workload, seconds: float, recorder=None) -> Measured:
    """Timed rounds until ``seconds`` have passed and enough rounds ran."""
    workload.start_phase()
    workload.tracing = recorder is not None
    measured = Measured()
    begin = time.perf_counter()
    while (
        len(measured.times) < workload.min_rounds()
        or time.perf_counter() - begin < seconds
    ):
        state = workload.new_round()
        if recorder is not None:
            recorder.batch = len(measured.times)
        laps = harness.Laps()
        result = workload.run_round(state, laps)
        laps.lap()
        workload.finish_round(state, result)
        measured.times.append(sum(laps.times))
        measured.laps.append(laps.times)
        measured.items.append(result.items)
        measured.attempted += result.attempted
        measured.failed += result.failed
    return measured


def import_program() -> None:
    """Import the program from the checkout's ``src``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"no program source at {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    for module in PROGRAM:
        importlib.import_module(module)


def import_s() -> float:
    """Median time of importing the program in ``SETUP_REPEATS`` fresh interpreters.

    This process's own import is a single cold sample, too noisy to report.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, SRC],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        samples.append(float(probe.stdout))
    return harness.median(samples)


def end_to_end(workload, seconds: float, setup_s: float) -> tuple[Measured, dict]:
    run = measure(workload, seconds)
    return run, {
        "setup_s": setup_s,
        "peak_rss_mb": harness.peak_rss_mb(),
        "throughput_per_s": harness.fastest_laps_rate(run.items, run.laps),
    }


def per_layer(workload, seconds: float, recorder) -> tuple[Measured, dict]:
    """Untraced for half the time, then traced: the per-layer metrics."""
    import layers

    untraced = measure(workload, seconds / 2)
    layers.install(recorder)
    try:
        run = measure(workload, seconds / 2, recorder)
    finally:
        recorder.uninstall()
    computed = {
        **layers.layer_metrics(recorder.spans, len(run.times), **workload.priced),
        **workload.layer_values(),
        "trace.overhead": harness.median(run.times) / harness.median(untraced.times),
    }
    names = harness.metric_units("per_layer")
    unknown = computed.keys() - names.keys()
    if unknown:
        raise KeyError(f"per-layer metrics not in BENCHMARK.json: {sorted(unknown)}")
    run.attempted += untraced.attempted
    run.failed += untraced.failed
    run.bypassed = sorted(names.keys() - computed.keys())
    return run, {name: computed.get(name, 0.0) for name in names}


def run_one(
    name: str, seed: int, seconds: float, trace: bool, tiny: bool, out_dir: str
) -> int:
    """Set up, measure and check one workload; print its result line."""
    from spans import SpanRecorder
    from workloads import load

    import_program()
    workload = load(name)(seed, tiny)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)

    recorder = SpanRecorder() if trace else None
    units = harness.metric_units("per_layer" if trace else "end_to_end")
    try:
        if trace:
            run, metrics = per_layer(workload, seconds, recorder)
        else:
            run, metrics = end_to_end(workload, seconds, import_s() + harness.median(setups))
        info = workload.verify()
    except harness.CheckFailed as failure:
        harness.log(f"CHECK FAILED ({name}, seed {seed}): {failure}")
        return 1
    finally:
        workload.close()

    if recorder is not None and recorder.missing:
        harness.log(f"trace targets missing from the program: {recorder.missing}")
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "rounds": len(run.times),
        "round_s": run.times,
        "laps_per_round": len(run.laps[0]),
        "median_round_per_s": harness.median(
            items / elapsed for items, elapsed in zip(run.items, run.times)
        ),
        "correct": True,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "bypassed": run.bypassed,
        "info": info,
        "host": harness.host_block(seed),
    }
    if recorder is not None:
        # One round's spans: enough to inspect, small enough to keep.
        os.makedirs(out_dir, exist_ok=True)
        record["spans"] = os.path.join(out_dir, f"spans-{name}.jsonl")
        recorder.write_jsonl(record["spans"], batch=0)
    harness.append_record(record, out_dir)
    for key in units:
        harness.log(f"  {name:24s} {key:28s} {metrics[key]:.6g} {units[key]}")
    print(json.dumps({"host": record["host"], "info": info, "rounds": record["rounds"]}))
    print(
        harness.result_line(
            correct=True,
            attempted=run.attempted,
            failed=run.failed,
            metrics={k: (metrics[k], units[k]) for k in units},
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload in its own process; non-zero if any check failed."""
    status = 0
    for name in NAMES:
        command = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--out", args.out,
        ] + (["--tiny"] if args.tiny else [])
        completed = subprocess.run(command)
        status = status or completed.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="small inputs, for the benchmark's own tests"
    )
    parser.add_argument(
        "--out", default=harness.OUT_DIR, help="directory for results.jsonl and spans"
    )
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(
        args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, args.out
    )


if __name__ == "__main__":
    sys.exit(main())
