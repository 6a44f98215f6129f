"""Observability benchmark: tracing is free when off, cheap when on.

Sections, each with a hard gate and a measurement:

* **Disabled-tracer bit-equality** (always enforced) — with the
  default no-op tracer, every pre-existing equality suite still holds,
  and turning tracing ON changes *observability only*, never math:

  - hot path: ``chunked_matmul`` under an active
    :class:`~repro.obs.trace.Tracer` is bit-identical to the untraced
    run and to the sequential per-chunk oracle — tracing runs the very
    same grouped pass, spans around its stages;
  - sharded: a multi-core :class:`~repro.core.sharding.ShardedDPTC`
    matmul is bit-identical traced vs untraced;
  - serving: the canonical demo workload
    (:func:`repro.obs.demo.run_workload`) returns bit-identical
    request results and an identical metrics snapshot traced vs
    untraced under a :class:`~repro.serving.clock.SimulatedClock`;
  - cluster: a virtual-time fleet run returns identical results and
    an identical fleet snapshot traced vs untraced.

* **Span-tree shape** (always enforced) — the traced demo workload
  emits the full promised chain with parent links intact::

      request (submit / dispatch / complete events)
      engine.iteration -> engine.batch -> shard.matmul -> shard.core
          -> hotpath.matmul -> stage.{sample,encode,compute,detect}

* **Byte determinism** (always enforced) — the JSONL dump of the demo
  workload is byte-for-byte identical across reruns for equal seeds
  (the ``repro trace --seed S`` contract).

* **Enabled-tracer overhead ceiling** (nightly) — an actively traced
  hot-path run may cost at most :data:`MAX_TRACED_OVERHEAD` times the
  untraced run on the headline noisy matmul.  ``--report-only`` (fast
  lane, 1-CPU runners) records the ratio without asserting.

Emits a ``BENCH_obs.json`` artifact (``--out PATH`` to relocate) with
every number printed.
"""

import json
import os
import time

import numpy as np

from repro.core import DPTC, NoiseModel, ShardedDPTC
from repro.core.hotpath import chunk_bounds, chunked_matmul
from repro.obs import Tracer, to_jsonl
from repro.obs.demo import run_trace_workload, run_workload

#: Headline noisy batched case for equality + overhead — the same
#: attention-shaped stack ``bench_hotpath.py`` profiles, so the
#: overhead ratio is measured on the shape the hot path is tuned for
#: (per-group span cost amortizes over real per-group math).
HEAD_BATCH = 64
HEAD_M = 32
HEAD_D = 64
HEAD_N = 32
HEAD_CHUNK = 8

#: Nightly ceiling on traced-over-untraced hot-path wall-clock.
MAX_TRACED_OVERHEAD = 1.10

#: Demo-workload shape shared by the span-tree and determinism gates.
DEMO_SEED = 0
DEMO_REQUESTS = 12
DEMO_BATCH = 4

#: The stage spans every traced group must emit.
STAGES = ("stage.sample", "stage.encode", "stage.compute", "stage.detect")


def _operands() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(7)
    a = rng.normal(size=(HEAD_BATCH, HEAD_M, HEAD_D))
    b = rng.normal(size=(HEAD_BATCH, HEAD_D, HEAD_N))
    return a, b


def hotpath_equality() -> dict:
    """Traced == untraced == sequential oracle on the noisy hot path."""
    core = DPTC(noise=NoiseModel.paper_default())
    a, b = _operands()

    def run() -> np.ndarray:
        return chunked_matmul(
            core, a, b, np.random.default_rng(3), chunk_size=HEAD_CHUNK
        )

    def per_chunk() -> np.ndarray:
        stream = np.random.default_rng(3)
        return np.concatenate([
            core.matmul(a[start:stop], b[start:stop], rng=stream)
            for start, stop in chunk_bounds(HEAD_BATCH, HEAD_CHUNK)
        ])

    untraced = run()
    oracle = per_chunk()
    tracer = Tracer()
    with tracer.activate():
        traced = run()
        traced_oracle = per_chunk()

    sharded = ShardedDPTC(
        num_cores=2, noise=NoiseModel.paper_default(), chunk_size=HEAD_CHUNK
    )
    try:
        plain = sharded.matmul(a, b, rng=np.random.default_rng(5))
        with tracer.activate():
            shard_traced = sharded.matmul(a, b, rng=np.random.default_rng(5))
    finally:
        sharded.close()

    return {
        "traced_equals_untraced": bool(np.array_equal(traced, untraced)),
        "traced_equals_oracle": bool(np.array_equal(traced_oracle, oracle)),
        "untraced_equals_oracle": bool(np.array_equal(untraced, oracle)),
        "sharded_traced_equal": bool(np.array_equal(shard_traced, plain)),
        "spans_emitted": len(tracer.collector),
    }


def serving_equality() -> dict:
    """Demo workload: identical results + snapshot, traced vs untraced."""
    _, plain_results, plain_snap = run_workload(
        traced=False, seed=DEMO_SEED, requests=DEMO_REQUESTS,
        max_batch_size=DEMO_BATCH,
    )
    collector, traced_results, traced_snap = run_workload(
        traced=True, seed=DEMO_SEED, requests=DEMO_REQUESTS,
        max_batch_size=DEMO_BATCH,
    )
    results_equal = len(plain_results) == len(traced_results) and all(
        np.array_equal(x, y) for x, y in zip(plain_results, traced_results)
    )
    return {
        "results_bit_equal": bool(results_equal),
        "snapshots_equal": plain_snap == traced_snap,
        "spans_emitted": len(collector),
    }


def _run_cluster(traced: bool) -> tuple[list, dict]:
    from repro.cluster import (
        ClusterConfig,
        ServiceModel,
        ServingCluster,
        run_virtual_open_loop,
    )
    from repro.obs.demo import TracedMatmulServable
    from repro.serving import EngineConfig, SimulatedClock

    config = ClusterConfig(
        replicas=2,
        policy="least_outstanding",
        engine=EngineConfig(max_batch_size=4, max_wait_us=500.0),
        service_model=ServiceModel(),
    )
    clock = SimulatedClock()
    tracer = Tracer(clock=clock) if traced else None
    cluster = ServingCluster(
        lambda replica_id: TracedMatmulServable(seed=11),
        config=config,
        clock=clock,
        tracer=tracer,
    )
    rng = np.random.default_rng(13)
    payloads = [rng.uniform(-1.0, 1.0, (4, 16)) for _ in range(16)]
    gaps = rng.exponential(1e-4, size=len(payloads))
    with cluster:
        report = run_virtual_open_loop(cluster, payloads, gaps)
        results = [handle.result(timeout=0) for handle in report.pop("handles")]
        snapshot = cluster.snapshot()
    return results, snapshot


def cluster_equality() -> dict:
    """Virtual-time fleet run: identical results + fleet snapshot."""
    plain_results, plain_snap = _run_cluster(traced=False)
    traced_results, traced_snap = _run_cluster(traced=True)
    results_equal = len(plain_results) == len(traced_results) and all(
        np.array_equal(x, y) for x, y in zip(plain_results, traced_results)
    )
    return {
        "results_bit_equal": bool(results_equal),
        "snapshots_equal": plain_snap == traced_snap,
    }


def span_tree_shape() -> dict:
    """The demo trace covers request -> iteration -> shard -> stage."""
    collector = run_trace_workload(
        seed=DEMO_SEED, requests=DEMO_REQUESTS, max_batch_size=DEMO_BATCH
    )
    by_id = {span.span_id: span for span in collector.spans()}
    by_name: dict[str, list] = {}
    for span in collector.spans():
        by_name.setdefault(span.name, []).append(span)

    def parents_are(name: str, parent_name: str) -> bool:
        spans = by_name.get(name, [])
        return bool(spans) and all(
            span.parent_id is not None
            and by_id[span.parent_id].name == parent_name
            for span in spans
        )

    requests = by_name.get("request", [])
    request_events = [
        {event.name for event in span.events} for span in requests
    ]
    counts = {name: len(spans) for name, spans in sorted(by_name.items())}
    return {
        "counts": counts,
        "requests_are_roots": bool(requests)
        and all(span.parent_id is None for span in requests),
        "request_count": len(requests),
        "request_lifecycle_events": bool(request_events)
        and all(
            {"submit", "dispatch", "complete"} <= names
            for names in request_events
        ),
        "chain": {
            "engine.batch<-engine.iteration": parents_are(
                "engine.batch", "engine.iteration"
            ),
            "shard.matmul<-engine.batch": parents_are(
                "shard.matmul", "engine.batch"
            ),
            "shard.core<-shard.matmul": parents_are(
                "shard.core", "shard.matmul"
            ),
            "hotpath.matmul<-shard.core": parents_are(
                "hotpath.matmul", "shard.core"
            ),
            **{
                f"{stage}<-hotpath.matmul": parents_are(
                    stage, "hotpath.matmul"
                )
                for stage in STAGES
            },
        },
    }


def byte_determinism() -> dict:
    """Equal seeds -> byte-identical JSONL dumps across reruns."""
    first = to_jsonl(
        run_trace_workload(
            seed=DEMO_SEED, requests=DEMO_REQUESTS, max_batch_size=DEMO_BATCH
        )
    )
    second = to_jsonl(
        run_trace_workload(
            seed=DEMO_SEED, requests=DEMO_REQUESTS, max_batch_size=DEMO_BATCH
        )
    )
    other_shape = to_jsonl(
        run_trace_workload(
            seed=DEMO_SEED, requests=DEMO_REQUESTS + 1,
            max_batch_size=DEMO_BATCH,
        )
    )
    return {
        "byte_identical": first == second,
        "bytes": len(first.encode()),
        "shape_sensitive": first != other_shape,
    }


def traced_overhead(repeats: int = 5) -> dict:
    """Best-of wall-clock of the traced vs untraced noisy hot path."""
    core = DPTC(noise=NoiseModel.paper_default())
    a, b = _operands()

    def run() -> np.ndarray:
        return chunked_matmul(
            core, a, b, np.random.default_rng(3), chunk_size=HEAD_CHUNK
        )

    def best_of(fn) -> float:
        fn()
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        return min(samples)

    untraced_s = best_of(run)

    def run_traced() -> np.ndarray:
        tracer = Tracer()
        with tracer.activate():
            return run()

    traced_s = best_of(run_traced)
    return {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "overhead_ratio": traced_s / untraced_s,
        "ceiling": MAX_TRACED_OVERHEAD,
    }


def run(assert_overhead: bool = True, out_path: str = "BENCH_obs.json") -> dict:
    print("Disabled-tracer bit-equality")
    hotpath = hotpath_equality()
    for key in (
        "traced_equals_untraced", "traced_equals_oracle",
        "untraced_equals_oracle", "sharded_traced_equal",
    ):
        print(f"  hotpath {key:24s}: {hotpath[key]}")
        assert hotpath[key], f"hot-path equality broke: {key}"

    serving = serving_equality()
    print(f"  serving results bit-equal     : {serving['results_bit_equal']}")
    print(f"  serving snapshots equal       : {serving['snapshots_equal']}")
    assert serving["results_bit_equal"], "tracing changed serving results"
    assert serving["snapshots_equal"], "tracing changed the metrics snapshot"

    cluster = cluster_equality()
    print(f"  cluster results bit-equal     : {cluster['results_bit_equal']}")
    print(f"  cluster snapshots equal       : {cluster['snapshots_equal']}")
    assert cluster["results_bit_equal"], "tracing changed cluster results"
    assert cluster["snapshots_equal"], "tracing changed the fleet snapshot"

    tree = span_tree_shape()
    print("\nSpan-tree shape "
          f"({sum(tree['counts'].values())} spans: {tree['counts']})")
    print(f"  requests are roots            : {tree['requests_are_roots']}")
    print(f"  request lifecycle events      : {tree['request_lifecycle_events']}")
    assert tree["requests_are_roots"], "request spans are not roots"
    assert tree["request_count"] == DEMO_REQUESTS, "missing request spans"
    assert tree["request_lifecycle_events"], (
        "request spans miss submit/dispatch/complete events"
    )
    for link, intact in tree["chain"].items():
        print(f"  {link:34s}: {intact}")
        assert intact, f"span parent link broke: {link}"

    determinism = byte_determinism()
    print(f"\nByte determinism ({determinism['bytes']} JSONL bytes)")
    print(f"  rerun byte-identical          : {determinism['byte_identical']}")
    print(f"  different workload differs    : {determinism['shape_sensitive']}")
    assert determinism["byte_identical"], "trace JSONL drifted across reruns"
    assert determinism["shape_sensitive"], "trace JSONL ignores the workload"

    cpus = os.cpu_count() or 1
    overhead = traced_overhead()
    print(f"\nEnabled-tracer overhead ({cpus} host CPU(s))")
    print(
        f"  untraced {overhead['untraced_s'] * 1e3:7.2f} ms | "
        f"traced {overhead['traced_s'] * 1e3:7.2f} ms "
        f"({overhead['overhead_ratio']:.3f}x, ceiling "
        f"{MAX_TRACED_OVERHEAD:.2f}x)"
    )
    if assert_overhead:
        assert overhead["overhead_ratio"] <= MAX_TRACED_OVERHEAD, (
            f"traced hot path costs {overhead['overhead_ratio']:.3f}x the "
            f"untraced run (ceiling {MAX_TRACED_OVERHEAD:.2f}x)"
        )

    report = {
        "host_cpus": cpus,
        "hotpath_equality": hotpath,
        "serving_equality": serving,
        "cluster_equality": cluster,
        "span_tree": tree,
        "determinism": determinism,
        "overhead": overhead,
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"\nwrote {out_path}")
    return report


def bench_obs(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["overhead_ratio"] = (
        result["overhead"]["overhead_ratio"]
    )
    benchmark.extra_info["trace_bytes"] = result["determinism"]["bytes"]


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--report-only",
        action="store_true",
        help="skip the overhead ceiling (equality/shape/determinism "
        "gates still apply)",
    )
    parser.add_argument(
        "--out", default="BENCH_obs.json", help="JSON artifact path"
    )
    cli = parser.parse_args()
    run(assert_overhead=not cli.report_only, out_path=cli.out)
