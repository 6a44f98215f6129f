"""The unified serving configuration API: EngineConfig / ClusterConfig
validation and JSON round-trips, config-object construction of engines,
clusters and servables, and the warn-once legacy-kwarg shim."""

import warnings

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ServiceModel, ServingCluster
from repro.serving import (
    EngineConfig,
    IterationCost,
    ServingEngine,
    SimulatedClock,
    reset_deprecation_warnings,
)
from repro.workloads.llm import DecoderConfig, decode_servable
from repro.workloads.transformer import TransformerConfig, servable_model

DECODER = DecoderConfig("config-test", depth=2, dim=16, heads=2, mlp_ratio=2.0)


class EchoServable:
    name = "echo"

    def prepare(self, payload):
        return payload

    def execute(self, requests):
        return [2 * request.payload for request in requests]


@pytest.fixture(autouse=True)
def fresh_deprecation_state():
    reset_deprecation_warnings()
    yield
    reset_deprecation_warnings()


class TestEngineConfigValidation:
    @pytest.mark.parametrize(
        "changes",
        [
            {"max_batch_size": 0},
            {"max_wait_us": -1.0},
            {"queue_depth": 0},
            {"scheduler": "psychic"},
            {"num_cores": 0},
            {"shard_axis": "diagonal"},
            {"backend": "quantum"},
            {"chunk_size": 0},
            {"block_size": 0},
            {"kv_capacity_bytes": -1},
            {"kv_bits": 0},
        ],
    )
    def test_rejects_bad_fields(self, changes):
        with pytest.raises(ValueError):
            EngineConfig(**changes)

    def test_replace_revalidates(self):
        config = EngineConfig()
        assert config.replace(max_batch_size=4).max_batch_size == 4
        with pytest.raises(ValueError):
            config.replace(max_batch_size=0)

    def test_batching_view(self):
        config = EngineConfig(max_batch_size=3, max_wait_us=42.0)
        policy = config.batching
        assert policy.max_batch_size == 3 and policy.max_wait_us == 42.0

    def test_frozen(self):
        with pytest.raises(Exception):
            EngineConfig().max_batch_size = 2


class TestEngineConfigRoundTrip:
    def test_dict_round_trip_with_iteration_cost(self):
        config = EngineConfig(
            scheduler="continuous",
            iteration_cost=IterationCost(base_s=1e-4, per_request_s=2e-5),
            block_size=4,
            kv_capacity_bytes=4096,
            seed=3,
        )
        data = config.to_dict()
        assert data["iteration_cost"] == {"base_s": 1e-4, "per_request_s": 2e-5}
        assert EngineConfig.from_dict(data) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown EngineConfig fields"):
            EngineConfig.from_dict({"max_batch": 4})

    def test_partial_dict_uses_defaults(self):
        config = EngineConfig.from_dict({"max_batch_size": 2})
        assert config.max_batch_size == 2
        assert config.queue_depth == EngineConfig().queue_depth

    def test_hotpath_knobs_round_trip(self):
        config = EngineConfig(chunk_size=8)
        data = config.to_dict()
        assert data["chunk_size"] == 8
        assert EngineConfig.from_dict(data) == config

    def test_hotpath_knobs_default_off(self):
        config = EngineConfig()
        assert config.chunk_size is None
        # The prefetch pipeline is gone; a stale config naming it is rejected.
        with pytest.raises(ValueError, match="pipeline_depth"):
            EngineConfig.from_dict({"pipeline_depth": 1})


class TestClusterConfigValidation:
    def test_rejects_bad_fields(self):
        for changes in (
            {"replicas": 0},
            {"policy": "psychic"},
            {"max_retries": -1},
            {"memo_bytes": -1},
            {"memo_ttl_s": -1.0},
            {"prefix_ttl_s": -1.0},
        ):
            with pytest.raises(ValueError):
                ClusterConfig(**changes)

    def test_service_model_excludes_iteration_cost(self):
        with pytest.raises(ValueError):
            ClusterConfig(
                service_model=ServiceModel(),
                engine=EngineConfig(
                    scheduler="continuous",
                    iteration_cost=IterationCost(
                        base_s=1e-4, per_request_s=1e-5
                    ),
                ),
            )

    def test_dict_round_trip(self):
        config = ClusterConfig(
            replicas=3,
            policy="cache_aware",
            engine=EngineConfig(max_batch_size=4, scheduler="continuous"),
            shared_cache=True,
            memo_bytes=1 << 16,
            memo_ttl_s=5.0,
        )
        assert ClusterConfig.from_dict(config.to_dict()) == config

    def test_from_dict_nested_service_model(self):
        data = ClusterConfig(service_model=ServiceModel(base_s=5e-5)).to_dict()
        config = ClusterConfig.from_dict(data)
        assert config.service_model == ServiceModel(base_s=5e-5)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            ClusterConfig.from_dict({"replica_count": 3})


class TestConfigConstruction:
    def test_engine_accepts_config_object(self):
        config = EngineConfig(max_batch_size=2, max_wait_us=0.0, queue_depth=7)
        engine = ServingEngine(
            EchoServable(), config=config, clock=SimulatedClock()
        )
        assert engine.config is config
        assert engine.policy.max_batch_size == 2
        with engine:
            handle = engine.submit(np.ones(3))
            engine.step()
            np.testing.assert_array_equal(handle.result(timeout=0), 2 * np.ones(3))

    def test_cluster_accepts_config_object(self):
        config = ClusterConfig(
            replicas=2,
            engine=EngineConfig(max_wait_us=0.0),
            close_executors=False,
        )
        with ServingCluster(
            lambda rid: EchoServable(), config=config, clock=SimulatedClock()
        ) as cluster:
            assert cluster.config is config
            assert cluster.fleet_size == 2
            handle = cluster.submit(np.ones(2))
            cluster.run_until_idle()
            np.testing.assert_array_equal(handle.result(timeout=0), 2 * np.ones(2))

    def test_servables_inherit_engine_geometry(self):
        engine = EngineConfig(block_size=4, kv_capacity_bytes=1 << 16, seed=5)
        servable = decode_servable(DECODER, engine=engine)
        assert servable.cache.block_size == 4
        assert servable.cache.pool.capacity_bytes == 1 << 16
        vit = TransformerConfig(
            "cfg-vit", depth=1, dim=32, heads=2, seq_len=17,
            n_classes=4, patch_size=4, image_size=16, in_channels=1,
        )
        a = servable_model(vit, engine=EngineConfig(seed=3))
        b = servable_model(vit, engine=EngineConfig(seed=3))
        image = np.random.default_rng(0).normal(size=(16, 16))
        np.testing.assert_array_equal(
            a.forward(image).data, b.forward(image).data
        )

    def test_explicit_kwargs_override_engine_fields(self):
        servable = decode_servable(
            DECODER, engine=EngineConfig(block_size=4), block_size=2
        )
        assert servable.cache.block_size == 2


class TestDeprecationShim:
    def test_engine_legacy_kwargs_warn_once(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ServingEngine(
                EchoServable(), max_batch_size=2, clock=SimulatedClock()
            )
            ServingEngine(
                EchoServable(), max_batch_size=4, clock=SimulatedClock()
            )
        deprecations = [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]
        assert len(deprecations) == 1
        assert "max_batch_size" in str(deprecations[0].message)
        assert "EngineConfig" in str(deprecations[0].message)

    def test_warn_state_is_per_api(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ServingEngine(EchoServable(), queue_depth=4, clock=SimulatedClock())
            ServingCluster(
                lambda rid: EchoServable(),
                replicas=1,
                close_executors=False,
                clock=SimulatedClock(),
            )
        deprecations = [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]
        assert len(deprecations) == 2  # one per API, not one per process

    def test_config_objects_never_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ServingEngine(
                EchoServable(), config=EngineConfig(), clock=SimulatedClock()
            )
            ServingCluster(
                lambda rid: EchoServable(),
                config=ClusterConfig(replicas=1, close_executors=False),
                clock=SimulatedClock(),
            )
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]

    def test_engine_rejects_config_plus_legacy(self):
        with pytest.raises(ValueError, match="not both"):
            ServingEngine(
                EchoServable(),
                config=EngineConfig(),
                max_batch_size=2,
                clock=SimulatedClock(),
            )

    def test_cluster_rejects_config_plus_legacy(self):
        with pytest.raises(ValueError, match="not both"):
            ServingCluster(
                lambda rid: EchoServable(),
                config=ClusterConfig(),
                replicas=3,
                clock=SimulatedClock(),
            )

    def test_legacy_cluster_kwargs_still_work(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            cluster = ServingCluster(
                lambda rid: EchoServable(),
                replicas=3,
                policy="least_outstanding",
                max_wait_us=0.0,
                close_executors=False,
                clock=SimulatedClock(),
            )
        assert cluster.config.replicas == 3
        assert cluster.config.policy == "least_outstanding"
        assert cluster.config.engine.max_wait_us == 0.0
        with cluster:
            handle = cluster.submit(np.ones(2))
            cluster.run_until_idle()
            np.testing.assert_array_equal(handle.result(timeout=0), 2 * np.ones(2))
