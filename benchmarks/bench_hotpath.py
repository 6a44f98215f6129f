"""Engine hot-path benchmark: stage breakdown + grouped-pass throughput.

Sections, each with a hard equivalence gate and a measurement:

* **Bit-equality gates** (always enforced) — chunked execution runs
  groups of consecutive chunks as one vectorised pass, yet every chunk
  draws what its own engine call would, in batch order, so for equal
  seeds

  - ``chunked_matmul`` == the sequential per-chunk oracle
    (``concatenate(core.matmul(chunk) for chunk in bounds)``), and it
    leaves the generator in the oracle's state,
  - the ``thread`` and ``process`` backends == ``parallel=False``
    sequential on :class:`ShardedDPTC`, across both shard axes,
  - a single chunk (``chunk_size >= batch``) reproduces the unchunked
    whole-batch call bit for bit.

* **Per-stage breakdown** — best-of wall-clock of the four hot-path
  stages (sample / encode / compute / detect) of the headline batched
  matmul, via :func:`repro.core.hotpath.profile_stages`; recorded in
  the artifact so stage regressions show up in CI trends.

* **Throughput** — effective single-engine matmul throughput (GFLOP/s
  of the headline grouped pass) must clear
  :data:`MIN_THROUGHPUT_GFLOPS` (nightly; ``--report-only`` records it
  without asserting).  The headline figure, grouped pass over one
  engine call per chunk, is reported only.

Emits a ``BENCH_hotpath.json`` artifact (``--out PATH`` to relocate)
with every number printed, including ``host_cpus``.
"""

import json
import os
import time

import numpy as np

from repro.core import DPTC, NoiseModel, ShardedDPTC
from repro.core.hotpath import chunk_bounds, chunked_matmul, profile_stages

#: Headline batched case: an attention-shaped stack.
HEAD_BATCH = 64
HEAD_M = 32
HEAD_D = 64
HEAD_N = 32

#: Chunk size of the headline run.
HEAD_CHUNK = 8

#: Nightly floor on effective single-engine matmul throughput.
MIN_THROUGHPUT_GFLOPS = 0.2


def _best_of(fn, repeats: int = 5) -> float:
    """Best-of-N wall-clock of ``fn`` in seconds (after one warm-up)."""
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return min(samples)


def _headline_operands() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(0)
    a = rng.normal(size=(HEAD_BATCH, HEAD_M, HEAD_D))
    b = rng.normal(size=(HEAD_BATCH, HEAD_D, HEAD_N))
    return a, b


def _per_chunk(core, a, b, stream, chunk_size) -> np.ndarray:
    """The oracle: one engine call per chunk, in batch order."""
    return np.concatenate(
        [
            core.matmul(a[start:stop], b[start:stop], rng=stream)
            for start, stop in chunk_bounds(a.shape[0], chunk_size)
        ],
        axis=0,
    )


def bit_equality() -> dict:
    """The chunking invariant, checked everywhere it must hold."""
    rng = np.random.default_rng(3)
    a = rng.normal(size=(13, 6, 24))
    b = rng.normal(size=(13, 24, 6))
    a[4] = 0.0  # an all-zero stack exercises the draw-less short-circuit
    core = DPTC(noise=NoiseModel.paper_default())

    oracle_exact = True
    for chunk_size in (1, 3, 5, 13):
        oracle_stream = np.random.default_rng(42)
        want = _per_chunk(core, a, b, oracle_stream, chunk_size)
        stream = np.random.default_rng(42)
        got = chunked_matmul(core, a, b, stream, chunk_size=chunk_size)
        if not (
            np.array_equal(want, got)
            and stream.bit_generator.state == oracle_stream.bit_generator.state
        ):
            oracle_exact = False

    # Single chunk == the unchunked whole-batch call.
    whole = core.matmul(a, b, rng=np.random.default_rng(11))
    single_chunk = chunked_matmul(
        core, a, b, np.random.default_rng(11), chunk_size=a.shape[0]
    )
    single_chunk_exact = bool(np.array_equal(whole, single_chunk))

    # ShardedDPTC: thread + process backends == sequential, both shard
    # axes, chunked and unchunked.
    sharded_bit_equal = {}
    for shard_axis in ("batch", "contraction"):
        for chunk_size in (None, 2):
            sequential = ShardedDPTC(
                num_cores=3, noise=NoiseModel.paper_default(),
                shard_axis=shard_axis, parallel=False, chunk_size=chunk_size,
            )
            want = sequential.matmul(a, b, rng=np.random.default_rng(5))
            sequential.close()
            equal = True
            for backend in ("thread", "process"):
                engine = ShardedDPTC(
                    num_cores=3, noise=NoiseModel.paper_default(),
                    shard_axis=shard_axis, backend=backend,
                    chunk_size=chunk_size,
                )
                got = engine.matmul(a, b, rng=np.random.default_rng(5))
                engine.close()
                if not np.array_equal(want, got):
                    equal = False
            key = f"{shard_axis}/chunk={chunk_size}"
            sharded_bit_equal[key] = equal
    return {
        "oracle_exact": oracle_exact,
        "single_chunk_exact": single_chunk_exact,
        "sharded_bit_equal": sharded_bit_equal,
    }


def stage_breakdown() -> dict:
    """Per-stage best-of timings of the headline noisy matmul."""
    a, b = _headline_operands()
    core = DPTC(noise=NoiseModel.paper_default())
    times = profile_stages(core, a, b, seed=0, repeats=3)
    return {
        "shape": [HEAD_BATCH, HEAD_M, HEAD_D, HEAD_N],
        "seconds": times,
        "share": {
            name: times[name] / times["total"]
            for name in ("sample", "encode", "compute", "detect")
        },
    }


def grouped_throughput() -> dict:
    """Headline grouped pass vs per-chunk calls + engine throughput."""
    a, b = _headline_operands()
    core = DPTC(noise=NoiseModel.paper_default())
    flop = 2.0 * HEAD_BATCH * HEAD_M * HEAD_D * HEAD_N

    whole_batch_s = _best_of(
        lambda: core.matmul(a, b, rng=np.random.default_rng(1))
    )
    per_chunk_s = _best_of(
        lambda: _per_chunk(core, a, b, np.random.default_rng(1), HEAD_CHUNK)
    )
    grouped_s = _best_of(
        lambda: chunked_matmul(
            core, a, b, np.random.default_rng(1), chunk_size=HEAD_CHUNK
        )
    )
    return {
        "shape": [HEAD_BATCH, HEAD_M, HEAD_D, HEAD_N],
        "chunk_size": HEAD_CHUNK,
        "whole_batch_s": whole_batch_s,
        "per_chunk_s": per_chunk_s,
        "grouped_s": grouped_s,
        "grouped_speedup": per_chunk_s / grouped_s,
        "throughput_gflops": flop / grouped_s / 1e9,
    }


def run(assert_speedup: bool = True, out_path: str = "BENCH_hotpath.json") -> dict:
    equality = bit_equality()
    print("Bit-equality gates (same draws, same order, same arithmetic)")
    print(f"  grouped == sequential per-chunk oracle : {equality['oracle_exact']}")
    print(f"  single chunk == unchunked whole batch  : {equality['single_chunk_exact']}")
    for key, equal in equality["sharded_bit_equal"].items():
        print(f"  sharded [{key}] thread == process == sequential : {equal}")
    assert equality["oracle_exact"], "grouped result drifted from the chunk oracle"
    assert equality["single_chunk_exact"], "single-chunk result drifted from unchunked"
    assert all(equality["sharded_bit_equal"].values()), (
        "sharded chunked execution drifted across backends/axes"
    )

    stages = stage_breakdown()
    print("\nPer-stage breakdown "
          f"([{HEAD_BATCH}x{HEAD_M}x{HEAD_D}] x [{HEAD_BATCH}x{HEAD_D}x{HEAD_N}])")
    for name in ("sample", "encode", "compute", "detect"):
        print(
            f"  {name:7s}: {stages['seconds'][name] * 1e3:7.3f} ms "
            f"({100.0 * stages['share'][name]:5.1f} %)"
        )
    print(f"  total  : {stages['seconds']['total'] * 1e3:7.3f} ms")

    cpus = os.cpu_count() or 1
    throughput = grouped_throughput()
    print(f"\nGrouped-pass throughput ({cpus} host CPU(s), chunk={HEAD_CHUNK})")
    print(
        f"  whole batch {throughput['whole_batch_s'] * 1e3:7.2f} ms | "
        f"per-chunk calls {throughput['per_chunk_s'] * 1e3:7.2f} ms | "
        f"grouped {throughput['grouped_s'] * 1e3:7.2f} ms "
        f"({throughput['grouped_speedup']:.2f}x, reported only)"
    )
    print(
        f"  engine throughput {throughput['throughput_gflops']:.3f} GFLOP/s "
        f"(floor {MIN_THROUGHPUT_GFLOPS:.2f})"
    )
    if assert_speedup:
        assert throughput["throughput_gflops"] >= MIN_THROUGHPUT_GFLOPS, (
            f"engine throughput {throughput['throughput_gflops']:.3f} GFLOP/s "
            f"below the {MIN_THROUGHPUT_GFLOPS:.2f} floor"
        )

    report = {
        "host_cpus": cpus,
        "bit_equality": equality,
        "stages": stages,
        "throughput": throughput,
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"\nwrote {out_path}")
    return report


def bench_hotpath(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["grouped_speedup"] = (
        result["throughput"]["grouped_speedup"]
    )
    benchmark.extra_info["throughput_gflops"] = (
        result["throughput"]["throughput_gflops"]
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--report-only",
        action="store_true",
        help="skip the throughput floor (bit-equality gates still apply)",
    )
    parser.add_argument(
        "--out", default="BENCH_hotpath.json", help="JSON artifact path"
    )
    cli = parser.parse_args()
    run(assert_speedup=not cli.report_only, out_path=cli.out)
