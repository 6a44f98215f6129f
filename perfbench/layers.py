"""Which program callables the traced run wraps, and the per-layer metrics.

Each layer of ``repro`` is observed at its public entry points (plus
``ShardedDPTC._core_matmul``, the per-core call, which has no public
twin).  :func:`install` wraps them on a :class:`~spans.SpanRecorder`;
:func:`layer_metrics` turns the recorded spans of ``rounds`` workload
rounds into the per-layer metrics, normalised per round.  Host times are
seconds per round; counts are per round.  The metric names and units are
those of ``BENCHMARK.json``; a metric no layer of a workload produces
reads 0 there.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from spans import ROOT, SpanRecorder, self_times, union_length


def _shape(x) -> tuple[int, ...]:
    return tuple(getattr(x, "shape", np.shape(x)))


def _normals(args, kwargs, draw) -> int:
    return sum(
        int(value.size)
        for value in (
            draw.magnitude_a,
            draw.magnitude_b,
            draw.phase_a,
            draw.phase_b,
            draw.systematic,
        )
        if isinstance(value, np.ndarray)
    )


def _gemm_flops(args, kwargs, result) -> int:
    a, b = _shape(args[1]), _shape(args[2])
    batch = np.broadcast_shapes(a[:-2], b[:-2])
    return 2 * math.prod(batch) * a[-2] * a[-1] * b[-1]


def _executor_shapes(args, kwargs, result):
    weight = kwargs.get("weight_operand", args[3] if len(args) > 3 else None)
    return _shape(args[1]), _shape(args[2]), weight


def _batch_size(args, kwargs, result) -> int:
    return len(args[1])


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer's entry points (classes and modules, not instances)."""
    from repro.cluster import cluster as cluster_mod
    from repro.cluster import router as router_mod
    from repro.cluster import store as store_mod
    from repro.core import dptc as dptc_mod
    from repro.core import sharding as sharding_mod
    from repro.neural import photonic as photonic_mod
    from repro.neural import vision as vision_mod
    from repro.serving import batcher as batcher_mod
    from repro.serving import cache as cache_mod
    from repro.serving import engine as engine_mod
    from repro.serving import scheduler as scheduler_mod
    from repro.serving import servable as servable_mod

    hit = lambda args, kwargs, result: result is not cache_mod.MISS  # noqa: E731
    DPTC = dptc_mod.DPTC
    targets = [
        (DPTC, "sample_noise", "dptc.sample", _normals),
        (DPTC, "prepare_chunk", "dptc.prepare", _gemm_flops),
        (DPTC, "compute_chunk", "dptc.compute", None),
        (DPTC, "detect_chunk", "dptc.detect", None),
        (DPTC, "finish_chunk", "chunk.finish", None),
        (sharding_mod, "pipelined_matmul", "chunk.pipeline", None),
        (sharding_mod.ShardedDPTC, "matmul", "shard.matmul", None),
        (sharding_mod.ShardedDPTC, "_core_matmul", "shard.core", None),
        (photonic_mod.PhotonicExecutor, "matmul", "executor.matmul", _executor_shapes),
        (photonic_mod, "fake_quantize", "executor.quantize", None),
        (vision_mod.TinyViT, "forward", "model.forward", None),
        (engine_mod.ServingEngine, "submit", "engine.submit", None),
        (engine_mod.ServingEngine, "step", "engine.step", None),
        (scheduler_mod.IterationScheduler, "compose", "engine.compose", None),
        (batcher_mod.DynamicBatcher, "collect", "engine.collect", None),
        (servable_mod.VisionServable, "execute", "engine.execute", _batch_size),
        (servable_mod.DecodeServable, "execute", "engine.execute", _batch_size),
        (cache_mod.SessionCache, "append_kv", "kv.append", None),
        (cache_mod.Session, "kv_arrays", "kv.read", None),
        (cache_mod.SessionCache, "swap_out", "kv.swap_out", None),
        (cache_mod.SessionCache, "swap_in", "kv.swap_in", None),
        (router_mod.Router, "route", "cluster.route", None),
        (cluster_mod.ServingCluster, "submit", "cluster.submit", None),
        (cluster_mod.ServingCluster, "step", "cluster.step", None),
        (store_mod.SharedCacheTier, "get_memo", "tier.get_memo", hit),
        (store_mod.SharedCacheTier, "put_memo", "tier.put_memo", None),
        (store_mod.SharedCacheTier, "acquire_prefix", "tier.acquire_prefix", None),
    ]
    recorder.propagate_thread_pools()
    for owner, attr, name, info in targets:
        recorder.wrap(owner, attr, name, info)


class SpanStats:
    """Per-name totals over a span list: count, time, self time, infos."""

    def __init__(self, spans) -> None:
        self.spans = spans
        self.count: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_total: dict[str, float] = defaultdict(float)
        self.infos: dict[str, list] = defaultdict(list)
        for span, own in zip(spans, self_times(spans)):
            self.count[span.name] += 1
            self.total[span.name] += span.end - span.start
            self.self_total[span.name] += own
            if span.info is not None:
                self.infos[span.name].append(span.info)


def _imbalance(stats: SpanStats) -> float:
    """Mean over multi-core sharded matmuls of max/mean per-core time."""
    spans = stats.spans
    cores: dict[int, list[float]] = defaultdict(list)
    for span in spans:
        if (
            span.name == "shard.core"
            and span.parent != ROOT
            and spans[span.parent].name == "shard.matmul"
        ):
            cores[span.parent].append(span.end - span.start)
    ratios = [
        max(times) * len(times) / sum(times)
        for times in cores.values()
        if len(times) >= 2 and sum(times) > 0
    ]
    return sum(ratios) / len(ratios) if ratios else 0.0


STAGE_SPANS = ("dptc.prepare", "dptc.compute", "dptc.detect")  #: SAMPLE is inside prepare


def _stage_coverage(stats: SpanStats) -> float:
    """Share of per-core call time inside some photonic stage.

    Stages of one core call can overlap (SAMPLE+ENCODE of the next chunk
    runs on the prefetch thread during COMPUTE), so the covered time is
    the union of the stage intervals, not their sum.
    """
    spans = stats.spans
    stages: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.name not in STAGE_SPANS:
            continue
        ancestor = span.parent
        while ancestor != ROOT and spans[ancestor].name != "shard.core":
            ancestor = spans[ancestor].parent
        if ancestor != ROOT:
            stages[ancestor].append((span.start, span.end))
    covered = total = 0.0
    for index, span in enumerate(spans):
        if span.name == "shard.core":
            total += span.end - span.start
            covered += union_length(stages.get(index, []), span.start, span.end)
    return covered / total if total else 0.0


def _overlap_frac(stats: SpanStats) -> float:
    """Share of SAMPLE+ENCODE time run on another thread than its caller."""
    total = moved = 0.0
    for span in stats.spans:
        if span.name != "dptc.prepare":
            continue
        duration = span.end - span.start
        total += duration
        if span.parent != ROOT and stats.spans[span.parent].thread != span.thread:
            moved += duration
    return moved / total if total else 0.0


def busy_fractions(records, replica_ids, origin: float, makespan: float) -> list[float]:
    """Per replica: virtual time busy serving batches / the makespan."""
    intervals: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for record in records:
        if not record.cache_hit:
            intervals[record.replica_id].append((record.started, record.finished))
    return [
        union_length(intervals[rid], origin, origin + makespan) / makespan
        for rid in sorted(replica_ids)
    ]


def modeled_cost(shapes) -> tuple[float, float]:
    """(seconds, joules) of the executed GEMMs on LT-B (Table IV), one op a call."""
    from collections import Counter

    from repro.arch.config import lt_base
    from repro.arch.energy import LTEnergyModel
    from repro.arch.latency import workload_latency
    from repro.workloads.gemm import GEMMOp

    calls = Counter(
        (a[-2], a[-1], b[-1], weight is None, math.prod(np.broadcast_shapes(a[:-2], b[:-2])))
        for a, b, weight in shapes
    )
    config = lt_base()
    energy = LTEnergyModel(config)
    seconds = joules = 0.0
    for (m, k, n, dynamic, count), times in sorted(calls.items()):
        op = [GEMMOp("call", m, k, n, dynamic=dynamic, count=count)]
        seconds += times * workload_latency(config, op)
        joules += times * energy.workload_energy(op).total
    return seconds, joules


def layer_metrics(spans, rounds: int, *, images: int = 0, tokens: int = 0) -> dict:
    """Per-layer metrics from the spans of ``rounds`` traced rounds.

    ``images`` / ``tokens`` are the items the first traced round computed.
    Only that round's GEMMs are priced: the modeled cost of a trace is not
    additive over rounds (per-core tiling rounds up), so pricing a fixed
    round keeps ``arch.*`` exact for a seed whatever the round count.
    """
    s = SpanStats(spans)

    def per(total):  # dividing keeps exact counts exact for any round count
        return total / rounds

    executions = s.count["engine.execute"]
    gets = s.infos["tier.get_memo"]
    seconds, joules = modeled_cost(
        span.info for span in spans if span.name == "executor.matmul" and span.batch == 0
    )
    return {
        "dptc.sample_s": per(s.total["dptc.sample"]),
        "dptc.encode_s": per(s.self_total["dptc.prepare"]),
        "dptc.compute_s": per(s.total["dptc.compute"]),
        "dptc.detect_s": per(s.total["dptc.detect"]),
        "dptc.stage_coverage": _stage_coverage(s),
        "dptc.calls": per(s.count["dptc.sample"]),
        "dptc.normals": per(sum(s.infos["dptc.sample"])),
        "dptc.gflop": per(sum(s.infos["dptc.prepare"])) * 1e-9,
        "chunk.count": per(s.count["dptc.prepare"]),
        "chunk.prepare_s": per(s.total["dptc.prepare"]),
        "chunk.finish_s": per(s.total["chunk.finish"]),
        "chunk.overlap_frac": _overlap_frac(s),
        "shard.matmul_s": per(s.total["shard.matmul"]),
        "shard.core_busy_s": per(s.total["shard.core"]),
        "shard.imbalance": _imbalance(s),
        "shard.fanout_s": per(s.self_total["shard.matmul"]),
        "executor.quantize_s": per(s.total["executor.quantize"]),
        "executor.matmul_s": per(s.total["executor.matmul"]),
        "model.digital_s": per(s.self_total["model.forward"] + s.self_total["engine.execute"]),
        "engine.submit_s": per(s.total["engine.submit"]),
        "engine.compose_s": per(s.total["engine.compose"] + s.total["engine.collect"]),
        "engine.execute_s": per(s.total["engine.execute"]),
        "engine.step_self_s": per(s.self_total["engine.step"]),
        "engine.iterations": per(executions),
        "engine.batch_mean": (
            sum(s.infos["engine.execute"]) / executions if executions else 0.0
        ),
        "kv.append_s": per(s.total["kv.append"]),
        "kv.read_s": per(s.total["kv.read"]),
        "kv.preemptions": per(s.count["kv.swap_out"]),
        "kv.swap_ins": per(s.count["kv.swap_in"]),
        "cluster.submit_self_s": per(s.self_total["cluster.submit"]),
        "cluster.route_s": per(s.total["cluster.route"]),
        "cluster.step_self_s": per(s.self_total["cluster.step"]),
        "tier.memo_hit_rate": sum(gets) / len(gets) if gets else 0.0,
        "tier.get_memo_s": per(s.total["tier.get_memo"]),
        "tier.put_memo_s": per(s.total["tier.put_memo"]),
        "tier.prefix_acquires": per(s.count["tier.acquire_prefix"]),
        "arch.modeled_us_per_image": seconds * 1e6 / images if images else 0.0,
        "arch.modeled_uj_per_image": joules * 1e6 / images if images else 0.0,
        "arch.modeled_ns_per_token": seconds * 1e9 / tokens if tokens else 0.0,
        "arch.modeled_nj_per_token": joules * 1e9 / tokens if tokens else 0.0,
    }
