"""The benchmark's contract: BENCHMARK.json, printed metrics, tiny runs."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH_DIR, ROOT
from workloads import NAMES

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["perfbench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert [w["name"] for w in SPEC["workloads"]] == list(NAMES)
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """(workload, trace) -> (completed process, its results.jsonl record), run once."""
    cache = {}

    def tiny_run(workload, trace):
        if (workload, trace) not in cache:
            out_dir = tmp_path_factory.mktemp(f"{workload}-{trace}")
            out = bench(
                [
                    "--workload", workload, "--seed", "3", "--seconds", "0.2",
                    "--trace", str(trace), "--tiny", "--out", str(out_dir),
                ]
            )
            assert out.returncode == 0, out.stderr[-3000:]
            lines = (out_dir / "results.jsonl").read_text().splitlines()
            cache[(workload, trace)] = out, json.loads(lines[-1])
        return cache[(workload, trace)]

    return tiny_run


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_passes_its_checks_and_prints_every_metric(workload, trace, tiny_runs):
    out, record = tiny_runs(workload, trace)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert record["workload"] == workload and record["host"]["seed"] == 3


def test_every_per_layer_metric_is_computed_by_some_workload(tiny_runs):
    bypassed = [set(tiny_runs(workload, 1)[1]["bypassed"]) for workload in NAMES]
    assert set.intersection(*bypassed) == set()


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(["--workload", NAMES[0], "--seed", "1", "--seconds", "1"], cwd=str(tmp_path))
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
