"""decode_prefix_cluster: prefix-shared decode sessions on a 3-replica cluster.

Why: it loads the continuous engine loop, paged KV under pool pressure,
prefix-chain writes to the shared tier, migration and failover, and never
runs a noise stage (the executor is noise-free int4).

Sessions arrive open-loop (uniformly over a horizon) and each session is
closed-loop over its own 8-128 steps: step ``k+1`` is submitted once step
``k`` resolved.  Every session forks from one of four registered prefixes.
Replica 1 fails at a fixed virtual time.  The cluster runs in manual mode
on a ``SimulatedClock``; every virtual metric is exact for a seed.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from harness import check
from workloads import Round

WEIGHT_SEED = 1
REPLICAS = 3
LANES = 8  #: active sessions per iteration (max_batch_size)
BLOCK_SIZE = 4
PREFIXES = {"sys-0": 8, "sys-1": 16, "sys-2": 24, "sys-3": 32}
SESSIONS = 32
MIN_STEPS, MAX_STEPS = 8, 128
HORIZON_S = 0.35  #: virtual seconds over which sessions arrive
FAIL_AT_S = 0.28  #: virtual time of the replica failure
FAIL_REPLICA = 1
KV_CAPACITY_BYTES = 48_000  #: per-replica pool: tight, so sessions are preempted
LAP_STEPS = 8  #: replay-loop passes per lap, a few milliseconds each


def decoder():
    from repro.workloads.llm import DecoderConfig

    return DecoderConfig("bench-decode", depth=2, dim=32, heads=2, mlp_ratio=2.0)


def engine_config(**changes):
    from repro.serving import EngineConfig, IterationCost

    config = EngineConfig(
        max_batch_size=LANES,
        max_wait_us=0.0,
        queue_depth=4 * SESSIONS,
        scheduler="continuous",
        iteration_cost=IterationCost(),
        block_size=BLOCK_SIZE,
        kv_capacity_bytes=KV_CAPACITY_BYTES,
        seed=WEIGHT_SEED,
    )
    return config.replace(**changes)


def servable(engine):
    """The decode servable on a noise-free int4 executor."""
    from repro.neural.photonic import PhotonicExecutor
    from repro.workloads.llm import decode_servable

    return decode_servable(
        decoder(), executor=PhotonicExecutor.digital_reference(), engine=engine
    )


def build_cluster():
    from repro.cluster import ClusterConfig, ServingCluster
    from repro.serving import SimulatedClock

    engine = engine_config()
    cluster = ServingCluster(
        lambda replica_id: servable(engine),
        config=ClusterConfig(
            replicas=REPLICAS,
            policy="cache_aware",
            engine=engine,
            shared_cache=True,
        ),
        clock=SimulatedClock(),
    )
    for prefix_id, prompt_len in PREFIXES.items():
        cluster.register_prefix(prefix_id, prompt_len)
    return cluster


def check_ledger(cluster) -> None:
    """KV ledger == BlockPool == kv_cache_bytes on every live replica."""
    from repro.workloads.llm import kv_cache_bytes

    for replica in cluster.replicas.values():
        cache = replica.session_cache
        if not replica.alive or cache is None:
            continue
        formula = sum(
            kv_cache_bytes(
                cache.config,
                cache.session(sid).private_blocks * cache.block_size,
                bits=cache.kv_bits,
            )
            for sid in cache.session_ids()
            if not cache.session(sid).swapped
        )
        ledger = cache.resident_kv_bytes()
        pool = cache.pool.in_use_bytes
        check(
            ledger == pool == formula,
            f"replica {replica.replica_id}: KV ledger {ledger} B, pool {pool} B, "
            f"kv_cache_bytes {formula} B disagree",
        )


class Workload:
    def __init__(self, seed: int, tiny: bool = False) -> None:
        from repro.serving import DecodeSessionSpec, decode_payload

        self.seed = seed
        sessions = 12 if tiny else SESSIONS
        # Every seed decodes the same multiset of session lengths and the
        # same number of sessions per prefix; the seed shuffles which
        # session gets which, and when each arrives.  The work per round
        # is then the same for every seed, so seeds do not add spread.
        rng = np.random.default_rng(seed)
        arrivals = np.sort(rng.uniform(0.0, HORIZON_S, size=sessions))
        steps = rng.permutation(
            np.linspace(MIN_STEPS, 24 if tiny else MAX_STEPS, sessions).round().astype(int)
        )
        self.specs = [
            DecodeSessionSpec(f"s{i}", float(arrivals[i]), int(steps[i]))
            for i in range(sessions)
        ]
        names = list(PREFIXES)
        self.prefix_of = [str(p) for p in rng.permutation(np.resize(names, sessions))]
        dim = decoder().dim
        self.payloads = [
            [decode_payload(seed, i, t, dim) for t in range(spec.steps)]
            for i, spec in enumerate(self.specs)
        ]
        self.fail_at = FAIL_AT_S * (0.2 if tiny else 1.0)
        self.tracing = False
        self.virtual = None
        self.sampled: dict = {}

    # -- life cycle ------------------------------------------------------------
    def setup(self) -> None:
        """Build a cluster and decode one warm-up session through it."""
        cluster = build_cluster()
        with cluster:
            handle = cluster.submit(
                self.payloads[0][0], session_id="warm-up", prefix_id=self.prefix_of[0]
            )
            cluster.run_until_idle()
            handle.result()
            cluster.release_session("warm-up")

    def start_phase(self) -> None:
        self.priced = None

    def min_rounds(self) -> int:
        return 1

    def new_round(self):
        return build_cluster()

    def run_round(self, cluster, laps) -> Round:
        """Replay the trace; see the module docstring.  A lap every
        ``LAP_STEPS`` passes of the replay loop."""
        specs = self.specs
        clock = cluster.clock
        start = clock.now()
        arrivals = deque(sorted(range(len(specs)), key=lambda i: (specs[i].arrival_s, i)))
        inflight: dict[int, object] = {}
        next_step = [0] * len(specs)
        last_finish = [0.0] * len(specs)
        outputs: list[list] = [[] for _ in specs]
        handles = []
        ttft, itl = [], []
        failed = done = 0
        failed_replica = False
        passes = 0
        tracing = self.tracing
        pool_peak = tier_peak = 0.0

        def submit(index: int) -> None:
            handle = cluster.submit(
                self.payloads[index][next_step[index]],
                session_id=specs[index].session_id,
                prefix_id=self.prefix_of[index],
            )
            handles.append(handle)
            inflight[index] = handle

        def submit_due() -> None:
            now = clock.now() - start
            while arrivals and specs[arrivals[0]].arrival_s <= now + 1e-12:
                submit(arrivals.popleft())

        submit_due()
        while done < len(specs):
            if not failed_replica and clock.now() - start >= self.fail_at:
                cluster.fail_replica(FAIL_REPLICA)
                failed_replica = True
                with laps.untimed():
                    check_ledger(cluster)
            passes += 1
            if passes % LAP_STEPS == 0:
                laps.lap()
            progressed = cluster.step(force=False) > 0
            if tracing:
                pool_peak, tier_peak = self._sample(cluster, pool_peak, tier_peak)
            for index, handle in list(inflight.items()):
                if not handle.done():
                    continue
                del inflight[index]
                progressed = True
                spec = specs[index]
                if handle.exception() is not None:
                    failed += 1
                    done += 1
                    continue
                outputs[index].append(handle.result())
                if next_step[index] == 0:
                    ttft.append(handle.finished - (start + spec.arrival_s))
                else:
                    itl.append(handle.finished - last_finish[index])
                last_finish[index] = handle.finished
                next_step[index] += 1
                if next_step[index] >= spec.steps:
                    done += 1
                    cluster.release_session(spec.session_id)
                else:
                    submit(index)
            submit_due()
            if progressed:
                continue
            if not arrivals:
                raise RuntimeError("decode replay stalled with no pending arrival")
            clock.advance(start + specs[arrivals[0]].arrival_s - clock.now())
            submit_due()
        return Round(
            items=sum(len(o) for o in outputs),
            attempted=len(handles),
            failed=failed,
            outputs=outputs,
            extra={
                "handles": handles,
                "ttft": ttft,
                "itl": itl,
                "start": start,
                "makespan": clock.now() - start,
                "failed_replica": failed_replica,
                "pool_peak": pool_peak,
                "tier_peak": tier_peak,
            },
        )

    @staticmethod
    def _sample(cluster, pool_peak: float, tier_peak: float) -> tuple[float, float]:
        for replica in cluster.replicas.values():
            pool = replica.session_cache.pool
            if replica.alive and pool.capacity_blocks:
                pool_peak = max(pool_peak, pool.in_use / pool.capacity_blocks)
        return pool_peak, max(tier_peak, float(cluster.tier.shared_bytes))

    def finish_round(self, cluster, result: Round) -> None:
        """Custody checks, then the round's virtual metrics (same every round)."""
        handles = result.extra["handles"]
        check(result.extra["failed_replica"], "the replica failure never fired")
        check(all(h.done() for h in handles), "a request handle was lost")
        metrics = cluster.metrics
        check(
            metrics.completed + metrics.failed == len(handles),
            f"{metrics.completed} completions + {metrics.failed} failures for "
            f"{len(handles)} handles: a handle resolved twice or not at all",
        )
        for prefix_id in PREFIXES:
            check(
                cluster.tier.refcount(prefix_id) == 0,
                f"prefix {prefix_id} still referenced after every release",
            )
        check_ledger(cluster)
        for replica in cluster.replicas.values():
            if replica.alive:
                check(
                    replica.session_cache.pool.in_use == 0,
                    f"replica {replica.replica_id} pool not empty after release",
                )
        if self.tracing:
            self.sampled = {
                "kv.pool_peak_frac": result.extra["pool_peak"],
                "tier.shared_kv_bytes": result.extra["tier_peak"],
            }
        virtual = self._virtual_values(cluster, result)
        if self.virtual is None:
            self.virtual, self.round_outputs = virtual, result.outputs
        else:
            check(virtual == self.virtual, "virtual metrics differ between rounds")
            check(
                _outputs_equal(result.outputs, self.round_outputs),
                "outputs differ between rounds of the same seed",
            )
        if self.priced is None:
            self.priced = {"tokens": result.items}
        cluster.close()

    def _virtual_values(self, cluster, result: Round) -> dict:
        from layers import busy_fractions

        extra = result.extra
        metrics = cluster.metrics
        records = metrics.records()
        busy = busy_fractions(
            records, list(cluster.replicas), extra["start"], extra["makespan"]
        )
        counts = list(metrics.dispatch_counts().values())
        waits = [r.queue_wait for r in records if not r.cache_hit]
        values = {
            "virt.ttft_ms_p50": float(np.percentile(extra["ttft"], 50)) * 1e3,
            "virt.ttft_ms_p90": float(np.percentile(extra["ttft"], 90)) * 1e3,
            "virt.itl_ms_p50": float(np.percentile(extra["itl"], 50)) * 1e3,
            "virt.itl_ms_p99": float(np.percentile(extra["itl"], 99)) * 1e3,
            "engine.queue_wait_vms_p50": float(np.percentile(waits, 50)) * 1e3,
            "fleet.makespan_vs": extra["makespan"],
            "fleet.busy_frac_mean": sum(busy) / len(busy),
            "fleet.busy_frac_min": min(busy),
            "cluster.migrations": float(metrics.migrations),
            "cluster.redispatched": float(metrics.failovers),
            "cluster.affinity_hit_rate": metrics.affinity_hit_rate(),
            "cluster.dispatch_skew": max(counts) * len(counts) / sum(counts),
            "tier.memo_bytes": float(cluster.tier.memo_bytes),
        }
        return values

    def layer_values(self) -> dict:
        return {**self.virtual, **self.sampled}

    # -- correctness -----------------------------------------------------------
    def verify(self) -> dict:
        """Every session's outputs == a sequential single-engine oracle."""
        from repro.serving import ServingEngine, SimulatedClock

        oracle = servable(engine_config(kv_capacity_bytes=None))
        engine = ServingEngine(
            oracle,
            config=engine_config(max_batch_size=1, kv_capacity_bytes=None),
            clock=SimulatedClock(),
        )
        mismatched = []
        with engine:
            for index, spec in enumerate(self.specs):
                oracle.cache.open_session(
                    spec.session_id, prompt_len=PREFIXES[self.prefix_of[index]]
                )
                for step, payload in enumerate(self.payloads[index]):
                    handle = engine.submit(payload, session_id=spec.session_id)
                    engine.step()
                    if not np.array_equal(handle.result(), self.round_outputs[index][step]):
                        mismatched.append(spec.session_id)
                        break
                engine.release_session(spec.session_id)
        check(
            not mismatched,
            f"{len(mismatched)} sessions differ from the sequential oracle, "
            f"first {mismatched[:3]}",
        )
        return {
            "sessions": len(self.specs),
            "tokens": sum(spec.steps for spec in self.specs),
            "virtual": self.virtual,
        }

    def close(self) -> None:
        pass


def _outputs_equal(a, b) -> bool:
    return len(a) == len(b) and all(
        len(x) == len(y) and all(np.array_equal(u, v) for u, v in zip(x, y))
        for x, y in zip(a, b)
    )
