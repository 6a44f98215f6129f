"""Tests for the photonic matmul executor (quantization + noise + STE)."""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.core import DPTCGeometry, NoiseModel
from repro.neural import Adam, Linear, PhotonicExecutor, QuantConfig, Tensor, no_grad
from repro.neural.quantization import fake_quantize, quantize_array
from repro.serving import DecodeServable, InferenceRequest, RequestHandle
from repro.workloads import DecoderConfig


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestIdealExecutor:
    def test_exact(self, rng):
        executor = PhotonicExecutor.ideal()
        a = rng.normal(size=(5, 8))
        b = rng.normal(size=(8, 3))
        out = executor.matmul(Tensor(a), Tensor(b))
        assert np.allclose(out.data, a @ b)

    def test_batched(self, rng):
        executor = PhotonicExecutor.ideal()
        a = rng.normal(size=(2, 4, 6))
        b = rng.normal(size=(2, 6, 5))
        out = executor.matmul(Tensor(a), Tensor(b))
        assert out.shape == (2, 4, 5)
        assert np.allclose(out.data, a @ b)

    def test_batch_mismatch_rejected(self, rng):
        executor = PhotonicExecutor.ideal()
        with pytest.raises(ValueError):
            executor.matmul(
                Tensor(rng.normal(size=(2, 4, 6))),
                Tensor(rng.normal(size=(3, 6, 5))),
            )

    def test_mixed_rank_broadcasts(self, rng):
        """3-D activations against a 2-D weight follow numpy semantics."""
        executor = PhotonicExecutor.ideal()
        a = rng.normal(size=(2, 4, 6))
        b = rng.normal(size=(6, 5))
        out = executor.matmul(Tensor(a), Tensor(b))
        assert out.shape == (2, 4, 5)
        assert np.array_equal(out.data, a @ b)

    def test_four_dim_attention_stack(self, rng):
        """[batch, heads, tokens, dim] stacks run in one call."""
        executor = PhotonicExecutor.ideal()
        a = rng.normal(size=(2, 3, 5, 4))
        b = rng.normal(size=(2, 3, 4, 5))
        out = executor.matmul(Tensor(a), Tensor(b))
        assert out.shape == (2, 3, 5, 5)
        assert np.array_equal(out.data, a @ b)

    def test_vector_operands_rejected(self, rng):
        executor = PhotonicExecutor.ideal()
        with pytest.raises(ValueError):
            executor.matmul(
                Tensor(rng.normal(size=(6,))), Tensor(rng.normal(size=(6, 5)))
            )


class TestShardedExecutor:
    """The num_cores knob routes matmuls through a ShardedDPTC grid."""

    def test_single_core_keeps_plain_dptc(self):
        from repro.core import DPTC

        assert isinstance(PhotonicExecutor.ideal()._dptc, DPTC)

    def test_multi_core_builds_sharded_grid(self):
        from repro.core import ShardedDPTC

        executor = PhotonicExecutor.ideal(num_cores=4)
        assert isinstance(executor._dptc, ShardedDPTC)
        assert executor._dptc.num_cores == 4

    @pytest.mark.parametrize("num_cores", [1, 2, 4, 8])
    def test_ideal_bit_exact_at_every_core_count(self, rng, num_cores):
        executor = PhotonicExecutor.ideal(num_cores=num_cores)
        a = rng.normal(size=(6, 4, 8))
        b = rng.normal(size=(6, 8, 3))
        out = executor.matmul(Tensor(a), Tensor(b))
        assert np.array_equal(out.data, a @ b)

    def test_noisy_sharded_reproducible(self, rng):
        a = Tensor(rng.normal(size=(6, 4, 12)))
        b = Tensor(rng.normal(size=(6, 12, 4)))
        first = PhotonicExecutor.paper_default(seed=3, num_cores=4).matmul(a, b)
        second = PhotonicExecutor.paper_default(seed=3, num_cores=4).matmul(a, b)
        assert np.array_equal(first.data, second.data)

    def test_sharded_gradients_flow(self, rng):
        executor = PhotonicExecutor.paper_default(seed=0, num_cores=2)
        a = Tensor(rng.normal(size=(4, 3, 6)), requires_grad=True)
        b = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        executor.matmul(a, b).sum().backward()
        assert a.grad is not None and b.grad is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            PhotonicExecutor(num_cores=0)


class TestContractionAndBackendKnobs:
    """shard_axis / backend thread through to the ShardedDPTC grid."""

    def test_contraction_grid_built(self):
        from repro.core import ShardedDPTC

        executor = PhotonicExecutor.ideal(num_cores=4, shard_axis="contraction")
        assert isinstance(executor._dptc, ShardedDPTC)
        assert executor._dptc.shard_axis == "contraction"

    @pytest.mark.parametrize("num_cores", [1, 2, 4])
    def test_contraction_ideal_bit_exact(self, rng, num_cores):
        executor = PhotonicExecutor.ideal(num_cores=num_cores, shard_axis="contraction")
        a = rng.normal(size=(5, 4, 25))  # d=25: non-divisible splits
        b = rng.normal(size=(5, 25, 3))
        out = executor.matmul(Tensor(a), Tensor(b))
        assert np.array_equal(out.data, a @ b)

    def test_noisy_contraction_reproducible(self, rng):
        a = Tensor(rng.normal(size=(6, 4, 25)))
        b = Tensor(rng.normal(size=(6, 25, 4)))
        first = PhotonicExecutor.paper_default(
            seed=3, num_cores=4, shard_axis="contraction"
        ).matmul(a, b)
        second = PhotonicExecutor.paper_default(
            seed=3, num_cores=4, shard_axis="contraction"
        ).matmul(a, b)
        assert np.array_equal(first.data, second.data)

    def test_single_core_ignores_knobs_with_plain_dptc(self):
        from repro.core import DPTC

        executor = PhotonicExecutor.ideal(shard_axis="contraction", backend="process")
        assert isinstance(executor._dptc, DPTC)

    def test_backend_knob_recorded(self):
        executor = PhotonicExecutor.ideal(num_cores=2, backend="process")
        assert executor._dptc.backend == "process"
        executor.close()

    def test_close_is_safe_on_single_core(self):
        PhotonicExecutor.ideal().close()

    def test_close_releases_sharded_pool(self, rng):
        executor = PhotonicExecutor.paper_default(seed=0, num_cores=2)
        a = Tensor(rng.normal(size=(4, 3, 12)))
        b = Tensor(rng.normal(size=(4, 12, 3)))
        executor.matmul(a, b)
        executor.close()
        assert executor._dptc._pool is None

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            PhotonicExecutor(shard_axis="tile")
        with pytest.raises(ValueError):
            PhotonicExecutor(backend="mpi")


class TestDigitalReference:
    def test_applies_quantization_only(self, rng):
        executor = PhotonicExecutor.digital_reference(QuantConfig.int4())
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(6, 4))
        out = executor.matmul(Tensor(a), Tensor(b))
        expected = quantize_array(a, 4) @ quantize_array(b, 4)
        assert np.allclose(out.data, expected)

    def test_weight_operand_bits(self, rng):
        executor = PhotonicExecutor.digital_reference(QuantConfig(8, 4))
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(6, 4))
        out = executor.matmul(Tensor(a), Tensor(b), weight_operand=1)
        expected = quantize_array(a, 4) @ quantize_array(b, 8)
        assert np.allclose(out.data, expected)

    @pytest.mark.parametrize("weight_operand", [2, -1, "b"])
    def test_unknown_weight_operand_rejected(self, rng, weight_operand):
        executor = PhotonicExecutor.digital_reference()
        a, b = Tensor(rng.normal(size=(4, 6))), Tensor(rng.normal(size=(6, 4)))
        with pytest.raises(ValueError, match="weight_operand"):
            executor.matmul(a, b, weight_operand=weight_operand)


def engine_operands(executor):
    """Record the (quantized) operand arrays each call hands the engine."""
    seen = []
    execute = executor._execute

    def spy(a, b):
        seen.append((a, b))
        return execute(a, b)

    executor._execute = spy
    return seen


class TestWeightGrids:
    """A static weight is quantized once per array and reused while the
    array's contents are unchanged."""

    @pytest.mark.parametrize("weight_operand", [0, 1])
    def test_cached_grid_equals_fake_quantize(self, rng, weight_operand):
        executor = PhotonicExecutor.digital_reference(QuantConfig(8, 4))
        weight = rng.normal(size=(6, 6))
        seen = engine_operands(executor)
        for _ in range(3):
            activation = Tensor(rng.normal(size=(2, 6, 6)))
            operands = [activation, Tensor(weight)]
            if weight_operand == 0:
                operands.reverse()
            executor.matmul(*operands, weight_operand=weight_operand)
        expected = fake_quantize(Tensor(weight), 8, per_matrix=True).data
        grids = [operands[weight_operand] for operands in seen]
        assert grids[1] is grids[0] and grids[2] is grids[0]
        assert grids[0].tobytes() == expected.tobytes()
        assert len(executor.weight_grids) == 1

    def test_in_place_write_is_seen(self, rng):
        executor = PhotonicExecutor.digital_reference()
        weight = Tensor(rng.normal(size=(6, 4)))
        x = Tensor(rng.normal(size=(3, 6)))
        seen = engine_operands(executor)
        executor.matmul(x, weight, weight_operand=1)
        weight.data[0, 0] = 10.0
        written = weight.data.copy()
        executor.matmul(x, weight, weight_operand=1)
        weight.data[:] = 0.0
        executor.matmul(x, weight, weight_operand=1)
        assert seen[1][1].tobytes() == quantize_array(written, 4).tobytes()
        assert not seen[2][1].any()
        assert len(executor.weight_grids) == 1

    def test_changed_bits_not_served_from_old_grid(self, rng):
        executor = PhotonicExecutor.digital_reference(QuantConfig(4, 4))
        weight = Tensor(rng.normal(size=(6, 4)))
        x = Tensor(rng.normal(size=(3, 6)))
        seen = engine_operands(executor)
        executor.matmul(x, weight, weight_operand=1)
        executor.quant = QuantConfig(8, 4)
        executor.matmul(x, weight, weight_operand=1)
        assert np.array_equal(seen[0][1], quantize_array(weight.data, 4))
        assert np.array_equal(seen[1][1], quantize_array(weight.data, 8))

    def test_adam_steps_keep_one_entry_per_live_weight(self, rng):
        executor = PhotonicExecutor.digital_reference()
        layers = [Linear(6, 8, executor, rng=rng), Linear(8, 2, executor, rng=rng)]
        optimizer = Adam([p for layer in layers for p in layer.parameters()])
        x = Tensor(rng.normal(size=(5, 6)))
        for _ in range(20):
            optimizer.zero_grad()
            out = layers[1](layers[0](x))
            assert len(executor.weight_grids) == len(layers)
            (out * out).sum().backward()
            optimizer.step()
            # Adam rebinds `param.data`; the replaced arrays' grids go too.
            assert len(executor.weight_grids) == 0
        with no_grad():
            seen = engine_operands(executor)
            layers[1](layers[0](x))
        for layer, (_, grid) in zip(layers, seen):
            assert np.array_equal(grid, quantize_array(layer.weight.data, 4))

    def test_decode_servable_keeps_one_entry_per_projection(self, rng):
        servable = DecodeServable(DecoderConfig("toy", depth=2, dim=16, heads=2))
        for i in range(50):
            request = InferenceRequest(
                payload=rng.normal(size=16),
                handle=RequestHandle(i, 0.0),
                arrival=0.0,
                session_id=f"s{i % 3}",
                request_id=i,
            )
            servable.execute([request])
        assert len(servable.executor.weight_grids) == 4

    def test_dropped_executor_frees_its_grids_without_gc(self, rng):
        weight = Tensor(rng.normal(size=(6, 4)))  # outlives the executor
        executor = PhotonicExecutor.digital_reference()
        grid = weakref.ref(executor.weight_grids.quantize(weight, 4).data)
        gc.disable()
        try:
            del executor
            assert grid() is None
        finally:
            gc.enable()

    def test_gradients_reach_the_weight(self, rng):
        executor = PhotonicExecutor.digital_reference()
        weight = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        x = rng.normal(size=(3, 6))
        for _ in range(2):  # miss, then hit
            weight.zero_grad()
            executor.matmul(Tensor(x), weight, weight_operand=1).sum().backward()
            expected = quantize_array(x, 4).T @ np.ones((3, 4))
            assert np.allclose(weight.grad, expected)

    def test_concurrent_callers_get_fresh_grids(self, rng):
        """Threads sharing one executor, some wrapping short-lived copies
        (evicted mid-run), each get exactly the serial result."""
        executor = PhotonicExecutor.digital_reference()
        weights = [rng.normal(size=(6, 4)) for _ in range(3)]
        x = rng.normal(size=(3, 6))
        expected = [
            PhotonicExecutor.digital_reference()
            .matmul(Tensor(x), Tensor(w), weight_operand=1)
            .data.tobytes()
            for w in weights
        ]
        wrong = []

        def caller(index: int) -> None:
            for k in range(150):
                which = (index + k) % len(weights)
                w = weights[which] if index % 2 else weights[which].copy()
                out = executor.matmul(Tensor(x), Tensor(w), weight_operand=1)
                if out.data.tobytes() != expected[which]:
                    wrong.append((index, k))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(executor.weight_grids) == len(weights)  # the copies are gone

    def test_grid_is_read_only(self, rng):
        executor = PhotonicExecutor.digital_reference()
        weight = Tensor(rng.normal(size=(6, 4)))
        seen = engine_operands(executor)
        for _ in range(2):
            executor.matmul(Tensor(rng.normal(size=(3, 6))), weight, weight_operand=1)
        for _, grid in seen:
            with pytest.raises(ValueError):
                grid[0, 0] = 1.0


class TestNoisyExecutor:
    def test_noise_applied(self, rng):
        executor = PhotonicExecutor.paper_default(seed=1)
        a = rng.normal(size=(6, 12))
        b = rng.normal(size=(12, 6))
        out = executor.matmul(Tensor(a), Tensor(b))
        reference = quantize_array(a, 4) @ quantize_array(b, 4)
        assert not np.allclose(out.data, reference)
        rel = np.linalg.norm(out.data - reference) / np.linalg.norm(reference)
        assert rel < 0.3

    def test_seeded_reproducibility(self, rng):
        a = Tensor(rng.normal(size=(4, 8)))
        b = Tensor(rng.normal(size=(8, 4)))
        out1 = PhotonicExecutor.paper_default(seed=7).matmul(a, b)
        out2 = PhotonicExecutor.paper_default(seed=7).matmul(a, b)
        assert np.allclose(out1.data, out2.data)

    def test_wavelength_count_controls_dispersion(self, rng):
        """More WDM channels -> wider dispersion profile (Fig. 14 axis)."""
        noise = NoiseModel(
            encoding=NoiseModel.ideal().encoding,
            systematic=NoiseModel.ideal().systematic,
            include_dispersion=True,
        )
        a = rng.normal(size=(8, 24))
        b = rng.normal(size=(24, 8))
        errors = []
        for n_lambda in (6, 26):
            executor = PhotonicExecutor(
                geometry=DPTCGeometry(12, 12, n_lambda), noise=noise, quant=None
            )
            out = executor.matmul(Tensor(a), Tensor(b))
            errors.append(np.linalg.norm(out.data - a @ b))
        assert errors[1] > errors[0]


class TestStraightThroughGradients:
    def test_gradients_are_ideal_product(self, rng):
        """Backward ignores noise: grads equal the clean matmul grads of
        the quantized operands."""
        executor = PhotonicExecutor.paper_default(seed=3)
        a = Tensor(rng.normal(size=(3, 12)), requires_grad=True)
        b = Tensor(rng.normal(size=(12, 2)), requires_grad=True)
        out = executor.matmul(a, b)
        out.sum().backward()
        grad_out = np.ones((3, 2))
        qa = quantize_array(a.data, 4)
        qb = quantize_array(b.data, 4)
        assert np.allclose(a.grad, grad_out @ qb.T)
        assert np.allclose(b.grad, qa.T @ grad_out)

    def test_gradients_flow_in_ideal_mode(self, rng):
        executor = PhotonicExecutor.ideal()
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        executor.matmul(a, b).sum().backward()
        assert a.grad is not None and b.grad is not None


class TestContextManager:
    def test_with_block_returns_the_executor(self):
        with PhotonicExecutor.ideal() as executor:
            a = Tensor(np.ones((2, 3)))
            b = Tensor(np.ones((3, 2)))
            assert np.array_equal(executor.matmul(a, b).data, np.full((2, 2), 3.0))

    def test_exit_closes_the_sharded_pool(self):
        with PhotonicExecutor.ideal(num_cores=2) as executor:
            a = Tensor(np.ones((4, 2, 3)))
            b = Tensor(np.ones((4, 3, 2)))
            executor.matmul(a, b)
        executor.close()  # already closed by __exit__; stays a no-op

    def test_exit_propagates_exceptions(self):
        with pytest.raises(RuntimeError):
            with PhotonicExecutor.ideal(num_cores=2):
                raise RuntimeError("boom")
