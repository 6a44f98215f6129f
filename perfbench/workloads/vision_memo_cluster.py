"""vision_memo_cluster: memoized TinyViT requests on a 3-replica cluster.

Why: it uses the same shared tier as the decode workload, but as memo
reads beside writes rather than prefix chains, and it covers the other
engine loop (``scheduler="request"``, the ``DynamicBatcher``), so a change
to either loop cannot slow one unseen.

An open-loop ``multi_tenant_arrivals`` mix is replayed in virtual time on
a ``SimulatedClock`` with a ``ServiceModel``: a "hot" tenant repeats 32
prompts with cache keys (tier reads after the first miss), a "cold"
tenant sends unique prompts (misses, then tier writes) at a rate that
keeps the replicas busy enough to queue.  Latency is measured from each
request's scheduled arrival; the replay submits every request exactly
on time, so the generator's lateness is measured as 0.
"""

from __future__ import annotations

import numpy as np

from harness import check
from workloads import Round

WEIGHT_SEED = 1
REPLICAS = 3
HOT_PROMPTS = 32
HOT_RATE = 1500.0  #: requests per virtual second
COLD_RATE = 3000.0
REQUESTS = 750
LAP_REQUESTS = 25  #: arrivals per lap, a few milliseconds each
ORACLE_SAMPLE = 24  #: computed responses re-checked against a batch-1 engine


def vision_config():
    from repro.workloads.transformer import TransformerConfig

    return TransformerConfig(
        "bench-memo-vit", depth=1, dim=32, heads=2, seq_len=17, mlp_ratio=2.0,
        n_classes=4, patch_size=4, image_size=16, in_channels=1,
    )


def servable():
    from repro.neural.photonic import PhotonicExecutor
    from repro.serving import VisionServable
    from repro.workloads.transformer import servable_model

    return VisionServable(
        servable_model(
            vision_config(), executor=PhotonicExecutor.digital_reference(), seed=WEIGHT_SEED
        )
    )


def build_cluster():
    from repro.cluster import ClusterConfig, ServiceModel, ServingCluster
    from repro.serving import EngineConfig, SimulatedClock

    engine = EngineConfig(
        max_batch_size=8, max_wait_us=1_000.0, queue_depth=4096, scheduler="request"
    )
    return ServingCluster(
        lambda replica_id: servable(),
        config=ClusterConfig(
            replicas=REPLICAS,
            policy="least_outstanding",
            engine=engine,
            service_model=ServiceModel(),
            shared_cache=True,
        ),
        clock=SimulatedClock(),
    )


class Workload:
    def __init__(self, seed: int, tiny: bool = False) -> None:
        from repro.serving import TenantSpec, multi_tenant_arrivals

        self.seed = seed
        rng = np.random.default_rng(seed)
        hot = TenantSpec(
            "hot", HOT_RATE, weights={f"p{j}": 1.0 for j in range(HOT_PROMPTS)}
        )
        cold = TenantSpec("cold", COLD_RATE)
        # A fixed number of requests per seed (the first REQUESTS of a
        # longer schedule), so the work per round does not vary by seed.
        count = REQUESTS // 10 if tiny else REQUESTS
        self.arrivals = multi_tenant_arrivals(
            [hot, cold], horizon_s=2.0 * count / (HOT_RATE + COLD_RATE), rng=rng
        )[:count]
        hot_images = rng.normal(size=(HOT_PROMPTS, 16, 16))
        cold_images = rng.normal(size=(len(self.arrivals), 16, 16))
        self.requests = []  # (payload, cache_key) per arrival
        for arrival in self.arrivals:
            if arrival.tenant == "hot":
                j = int(arrival.kind[1:])
                self.requests.append((hot_images[j], f"hot/{j}"))
            else:
                self.requests.append((cold_images[arrival.index], f"cold/{arrival.index}"))
        self.tracing = False
        self.virtual = None
        self.round_outputs = None

    # -- life cycle ------------------------------------------------------------
    def setup(self) -> None:
        """Build a cluster and serve one warm-up request through it."""
        cluster = build_cluster()
        with cluster:
            handle = cluster.submit(self.requests[0][0])
            cluster.run_until_idle()
            handle.result()

    def start_phase(self) -> None:
        self.priced = None

    def min_rounds(self) -> int:
        return 1

    def new_round(self):
        return build_cluster()

    def run_round(self, cluster, laps) -> Round:
        """Submit each request when due; a lap every ``LAP_REQUESTS`` arrivals."""
        from repro.serving import QueueFull

        clock = cluster.clock
        start = clock.now()
        handles = []
        refused = 0
        late = 0.0
        for position, (arrival, (payload, key)) in enumerate(zip(self.arrivals, self.requests)):
            if position and position % LAP_REQUESTS == 0:
                laps.lap()
            due = start + arrival.time
            if due > clock.now():
                clock.advance(due - clock.now())
            late = max(late, clock.now() - due)
            try:
                handles.append(
                    (arrival, key, cluster.submit(payload, cache_key=key, tenant=arrival.tenant))
                )
            except QueueFull:
                refused += 1
            cluster.step(force=False)
        cluster.run_until_idle()
        errors = sum(1 for _, _, h in handles if h.exception() is not None)
        return Round(
            items=len(handles) - errors,
            attempted=len(self.arrivals),
            failed=refused + errors,
            outputs=[h.result() if h.exception() is None else None for _, _, h in handles],
            extra={"handles": handles, "start": start, "late": late},
        )

    def finish_round(self, cluster, result: Round) -> None:
        """Hits equal their first computed result; virtual metrics per round."""
        handles = result.extra["handles"]
        check(all(h.done() for _, _, h in handles), "a request handle was lost")
        first: dict[str, np.ndarray] = {}
        computed = 0
        for _, key, handle in handles:
            value = handle.result()
            if handle.cache_hit:
                check(key in first, f"hit on {key} before its first computation")
                check(
                    np.array_equal(value, first[key]),
                    f"hit on {key} differs from its first computed result",
                )
            else:
                computed += 1
                first.setdefault(key, value)
        metrics = cluster.metrics
        check(
            metrics.completed + metrics.failed == len(handles),
            f"{metrics.completed} completions + {metrics.failed} failures for "
            f"{len(handles)} handles: a handle resolved twice or not at all",
        )
        virtual = self._virtual_values(cluster, result)
        if self.virtual is None:
            self.virtual, self.round_outputs = virtual, result.outputs
        else:
            check(virtual == self.virtual, "virtual metrics differ between rounds")
            check(
                all(np.array_equal(a, b) for a, b in zip(result.outputs, self.round_outputs)),
                "outputs differ between rounds of the same seed",
            )
        if self.priced is None:
            self.priced = {"images": computed}
        cluster.close()

    def _virtual_values(self, cluster, result: Round) -> dict:
        from layers import busy_fractions

        start = result.extra["start"]
        handles = result.extra["handles"]
        latencies = [h.finished - (start + a.time) for a, _, h in handles]
        metrics = cluster.metrics
        records = metrics.records()
        makespan = max(h.finished for _, _, h in handles) - start
        busy = busy_fractions(records, list(cluster.replicas), start, makespan)
        counts = list(metrics.dispatch_counts().values())
        waits = [r.queue_wait for r in records if not r.cache_hit]
        return {
            "virt.latency_ms_p50": float(np.percentile(latencies, 50)) * 1e3,
            "virt.latency_ms_p99": float(np.percentile(latencies, 99)) * 1e3,
            "virt.loadgen_late_ms_max": result.extra["late"] * 1e3,
            "engine.queue_wait_vms_p50": float(np.percentile(waits, 50)) * 1e3,
            "fleet.makespan_vs": makespan,
            "fleet.busy_frac_mean": sum(busy) / len(busy),
            "fleet.busy_frac_min": min(busy),
            "cluster.migrations": float(metrics.migrations),
            "cluster.redispatched": float(metrics.failovers),
            "cluster.affinity_hit_rate": metrics.affinity_hit_rate(),
            "cluster.dispatch_skew": max(counts) * len(counts) / sum(counts),
            "tier.memo_bytes": float(cluster.tier.memo_bytes),
        }

    def layer_values(self) -> dict:
        return dict(self.virtual)

    # -- correctness -----------------------------------------------------------
    def verify(self) -> dict:
        """A seeded sample of responses == a batch-1 sequential engine."""
        from repro.serving import EngineConfig, ServingEngine, SimulatedClock

        rng = np.random.default_rng([self.seed, 2])
        sample = rng.choice(
            len(self.requests), size=min(ORACLE_SAMPLE, len(self.requests)), replace=False
        )
        engine = ServingEngine(
            servable(),
            config=EngineConfig(max_batch_size=1, max_wait_us=0.0),
            clock=SimulatedClock(),
        )
        with engine:
            for index in sorted(int(i) for i in sample):
                handle = engine.submit(self.requests[index][0])
                engine.step()
                check(
                    np.array_equal(handle.result(), self.round_outputs[index]),
                    f"request {index} differs from the batch-1 sequential oracle",
                )
        hits = sum(1 for _, key in self.requests) - len({key for _, key in self.requests})
        return {
            "requests": len(self.requests),
            "repeated_keys": hits,
            "virtual": self.virtual,
        }

    def close(self) -> None:
        pass
