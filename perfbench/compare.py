#!/usr/bin/env python3
"""Compare two result sets of the benchmark: parent against change.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds run records as ``run.py`` appends them to
``.perfbench/results.jsonl`` (copy that file away after measuring each
commit).  Runs are paired by workload and seed.  For every workload and
end-to-end metric the report gives each side's median and quartiles and
one verdict, by the rule of the choosing-metrics guide (section 8):

* ``better``: the change wins at least 9 of every 10 pairs (ties count
  for neither side, at least 10 pairs) and the medians differ by more than
  the parent's interquartile range;
* ``unresolved``: a side's spread (IQR / median) is wider than the
  metric's bound, and not every change run beats every parent run;
* ``worse``: the change's median is worse than the parent's by more
  than the bound;
* ``no worse within bound``: otherwise.

A workload whose change side fails a larger share of operations than the
parent is marked ``worse failed share``, and its gains do not count.
Per-layer metrics from traced runs are summarised the same way; those
that are exact for a seed (virtual time, modeled hardware, counts) are
listed when they differ between the two sides for the same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from functools import cached_property

from harness import BENCHMARK_JSON

#: Per-layer ratios of host times.  With the ``*_s`` host times they are
#: the per-layer metrics that vary run to run; all others (virtual time,
#: modeled hardware, counts) are exact for a seed.
HOST_RATIOS = {"dptc.stage_coverage", "chunk.overlap_frac", "shard.imbalance", "trace.overhead"}

WIN_SHARE = 0.9
MIN_PAIRS = 10


@dataclass(frozen=True)
class Row:
    side: str  #: "parent" or "change"
    workload: str
    seed: int
    trace: int
    metric: str
    value: float


@dataclass(frozen=True)
class Summary:
    n: int
    median: float
    q1: float
    q3: float

    @property
    def spread(self) -> float:
        """Interquartile range as a share of the median."""
        return (self.q3 - self.q1) / abs(self.median) if self.median else float("inf")


def summarize(values: list[float]) -> Summary:
    if len(values) == 1:
        return Summary(1, values[0], values[0], values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return Summary(len(values), statistics.median(values), q1, q3)


def is_host_metric(name: str) -> bool:
    """Host times are named ``*_s``; virtual seconds (``fleet.makespan_vs``) are not."""
    return name.endswith("_s") or name in HOST_RATIOS


class Comparison:
    """Analyses of one result frame, each computed lazily and memoized.

    Built from the run records of both sides and the benchmark spec
    (``BENCHMARK.json``); :meth:`report` renders only what it reads.
    """

    def __init__(self, parent: list[dict], change: list[dict], spec: dict) -> None:
        self._records = {"parent": parent, "change": change}
        self.end_to_end = {m["name"]: m for m in spec["end_to_end"]}
        self.per_layer = {m["name"]: m for m in spec["per_layer"]}

    @cached_property
    def frame(self) -> list[Row]:
        """One row per (side, run, metric) of every correct run."""
        return [
            Row(side, r["workload"], r["seed"], r["trace"], name, float(m["value"]))
            for side, records in self._records.items()
            for r in records
            if r["correct"]
            for name, m in r["metrics"].items()
        ]

    @cached_property
    def workloads(self) -> list[str]:
        return sorted({row.workload for row in self.frame})

    @cached_property
    def values(self) -> dict[tuple[str, str, str], dict[int, float]]:
        """(side, workload, metric) -> {seed: value}.

        Runs are paired by seed, so a side that ran one workload's seed
        twice is refused rather than one of its runs silently dropped.
        """
        table: dict[tuple[str, str, str], dict[int, float]] = {}
        for row in self.frame:
            by_seed = table.setdefault((row.side, row.workload, row.metric), {})
            if row.seed in by_seed:
                raise ValueError(
                    f"{row.side}: {row.workload} seed {row.seed} has more than one "
                    f"{row.metric} value; keep one run per seed"
                )
            by_seed[row.seed] = row.value
        return table

    @cached_property
    def summaries(self) -> dict[tuple[str, str, str], Summary]:
        return {key: summarize(list(v.values())) for key, v in self.values.items()}

    @cached_property
    def failed_shares(self) -> dict[tuple[str, str], float]:
        """(side, workload) -> failed / attempted over all its runs."""
        totals: dict[tuple[str, str], list[int]] = {}
        for side, records in self._records.items():
            for r in records:
                total = totals.setdefault((side, r["workload"]), [0, 0])
                total[0] += r["failed"]
                total[1] += r["attempted"]
        return {key: failed / attempted for key, (failed, attempted) in totals.items()}

    def pairs(self, workload: str, metric: str) -> list[tuple[float, float]]:
        """(parent, change) values of the seeds both sides ran, by seed."""
        parent = self.values.get(("parent", workload, metric), {})
        change = self.values.get(("change", workload, metric), {})
        return [(parent[s], change[s]) for s in sorted(parent.keys() & change.keys())]

    def verdict(self, workload: str, metric: str) -> str:
        spec = self.end_to_end[metric]
        sign = 1.0 if spec["better"] == "higher" else -1.0
        parent = self.summaries.get(("parent", workload, metric))
        change = self.summaries.get(("change", workload, metric))
        if parent is None or change is None:
            return "missing"
        pairs = self.pairs(workload, metric)
        wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
        gain = sign * (change.median - parent.median)
        if (
            len(pairs) >= MIN_PAIRS
            and wins >= WIN_SHARE * len(pairs)
            and gain > parent.q3 - parent.q1
        ):
            return "better"
        if max(parent.spread, change.spread) > spec["bound"]:
            parent_runs = self.values[("parent", workload, metric)].values()
            change_runs = self.values[("change", workload, metric)].values()
            if all(sign * (c - p) > 0 for c in change_runs for p in parent_runs):
                return "no worse within bound"
            return "unresolved"
        if -gain > spec["bound"] * abs(parent.median):
            return "worse"
        return "no worse within bound"

    @cached_property
    def verdicts(self) -> dict[tuple[str, str], str]:
        result = {}
        for workload in self.workloads:
            failed_worse = self.failed_shares.get(
                ("change", workload), 0.0
            ) > self.failed_shares.get(("parent", workload), 0.0)
            for metric in self.end_to_end:
                verdict = self.verdict(workload, metric)
                if failed_worse:
                    verdict = "worse failed share" if verdict == "better" else (
                        f"{verdict}; worse failed share"
                    )
                result[(workload, metric)] = verdict
        return result

    @cached_property
    def exact_changes(self) -> list[tuple[str, str, int, float, float]]:
        """Seed-exact per-layer metrics that differ between the sides."""
        changed = []
        for workload in self.workloads:
            for metric in self.per_layer:
                if is_host_metric(metric):
                    continue
                parent = self.values.get(("parent", workload, metric), {})
                change = self.values.get(("change", workload, metric), {})
                for seed in sorted(parent.keys() & change.keys()):
                    if parent[seed] != change[seed]:
                        changed.append((workload, metric, seed, parent[seed], change[seed]))
        return changed

    def report(self) -> str:
        lines = ["workload / metric: parent median [q1, q3] | change median [q1, q3] -> verdict"]
        for workload in self.workloads:
            shares = ", ".join(
                f"{side} {self.failed_shares.get((side, workload), 0.0):.4f}"
                for side in ("parent", "change")
            )
            lines.append(f"{workload} (failed share: {shares})")
            for metric in list(self.end_to_end) + list(self.per_layer):
                cells = []
                for side in ("parent", "change"):
                    s = self.summaries.get((side, workload, metric))
                    cells.append(
                        "-" if s is None else f"{s.median:.6g} [{s.q1:.6g}, {s.q3:.6g}] n={s.n}"
                    )
                if cells == ["-", "-"]:
                    continue
                verdict = self.verdicts.get((workload, metric), "")
                lines.append(f"  {metric}: {cells[0]} | {cells[1]}" + (
                    f" -> {verdict}" if verdict else ""
                ))
        if self.exact_changes:
            lines.append("seed-exact per-layer metrics that changed:")
            for workload, metric, seed, old, new in self.exact_changes:
                lines.append(f"  {workload} {metric} seed {seed}: {old!r} -> {new!r}")
        return "\n".join(lines)


def read_records(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--bench", default=BENCHMARK_JSON, help="the benchmark spec")
    args = parser.parse_args(argv)
    with open(args.bench) as handle:
        spec = json.load(handle)
    comparison = Comparison(read_records(args.parent), read_records(args.change), spec)
    print(comparison.report())
    return 0


if __name__ == "__main__":
    sys.exit(main())
