"""Tests for the engine hot path: grouped chunk passes + shm transport.

The load-bearing invariant is *bit-equality*: a chunked matmul runs
groups of consecutive chunks as one vectorised pass, yet every chunk
draws exactly what its own engine call would (same values, same order)
and every floating-point operation is the per-matrix one.  So every
configuration must reproduce the sequential per-chunk oracle exactly —
and leave the generator in the same state — across group sizes,
backends, and shard axes.
"""

import numpy as np
import pytest

from repro.core import (
    CalibratedDPTC,
    DPTC,
    NoiseModel,
    ShardedDPTC,
    chunk_bounds,
    chunked_matmul,
    contraction_slabs,
    profile_stages,
    shard_bounds,
)
from repro.core import hotpath, sharding
from repro.core.hotpath import (
    attach_segment,
    pack_arrays,
    release_segment,
    slice_batch_operand,
    unpack_spec,
)
from repro.core.noise import EncodingNoise, SystematicNoise

PAPER = NoiseModel.paper_default()

#: Noise models with disabled terms: those factors draw nothing.
NO_PHASE = NoiseModel(encoding=EncodingNoise(phase_std_deg=0.0))
NO_SYSTEMATIC = NoiseModel(systematic=SystematicNoise(std=0.0))
MAGNITUDE_ONLY = NoiseModel(
    encoding=EncodingNoise(phase_std_deg=0.0),
    systematic=SystematicNoise(std=0.0),
)

#: Group caps that put one chunk, a few chunks, or every chunk in a group.
GROUP_CAPS = [1, 1200, hotpath.GROUP_ELEMENTS]


def operands(seed, a_shape, b_shape):
    rng = np.random.default_rng(seed)
    return rng.normal(size=a_shape), rng.normal(size=b_shape)


def per_chunk(core, a, b, stream, chunk_size):
    """One engine call per chunk, in batch order (broadcast operands whole)."""
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    if not batch:
        return core.matmul(a, b, rng=stream)
    return np.concatenate(
        [
            core.matmul(
                slice_batch_operand(a, len(batch), start, stop),
                slice_batch_operand(b, len(batch), start, stop),
                rng=stream,
            )
            for start, stop in chunk_bounds(batch[0], chunk_size)
        ],
        axis=0,
    )


def chunk_oracle(core, a, b, seed, chunk_size):
    """Sequential per-chunk engine calls: the bit-equality ground truth.

    Returns the result and the generator state after the calls.
    """
    stream = np.random.default_rng(seed)
    return per_chunk(core, a, b, stream, chunk_size), stream.bit_generator.state


def assert_matches_oracle(core, a, b, seed, chunk_size, monkeypatch):
    """chunked_matmul == the oracle, at every group cap, RNG state included."""
    want, state = chunk_oracle(core, a, b, seed, chunk_size)
    for cap in GROUP_CAPS:
        monkeypatch.setattr(hotpath, "GROUP_ELEMENTS", cap)
        stream = np.random.default_rng(seed)
        got = chunked_matmul(core, a, b, stream, chunk_size=chunk_size)
        assert np.array_equal(want, got), f"group cap {cap}"
        assert stream.bit_generator.state == state, f"group cap {cap}"


def sharded_oracle(a, b, seed, num_cores, shard_axis, chunk_size, noise=PAPER):
    """ShardedDPTC spelled out: per-core streams, per-chunk engine calls."""
    core = DPTC(noise=noise)
    streams = np.random.default_rng(seed).spawn(num_cores)
    if shard_axis == "contraction":
        partials = [
            per_chunk(core, a_slab, b_slab, stream, chunk_size)
            for a_slab, b_slab, stream in zip(
                contraction_slabs(a, num_cores, axis=-1),
                contraction_slabs(b, num_cores, axis=-2),
                streams,
            )
            if a_slab.shape[-1] > 0
        ]
        out = partials[0].copy()
        for partial in partials[1:]:
            out += partial
        return out
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    return np.concatenate(
        [
            per_chunk(
                core,
                slice_batch_operand(a, len(batch), start, stop),
                slice_batch_operand(b, len(batch), start, stop),
                stream,
                chunk_size,
            )
            for (start, stop), stream in zip(
                shard_bounds(batch[0], num_cores), streams
            )
            if stop > start
        ],
        axis=0,
    )


#: (a shape, b shape, all-zero stacks of a) group-boundary cases.
BOUNDARY_CASES = {
    "ragged-tail": ((21, 6, 24), (21, 24, 5), ()),
    "zero-chunk": ((21, 6, 24), (21, 24, 5), (5, 6, 7, 8, 9)),
    "zero-matrix-in-chunk": ((21, 6, 24), (21, 24, 5), (6,)),
    "broadcast-weight": ((21, 6, 24), (24, 5), (12,)),
    "weight-first": ((6, 24), (21, 24, 5), ()),
    "size-1-leading-axis": ((1, 6, 24), (21, 24, 5), ()),
    "heads": ((21, 3, 6, 24), (21, 3, 24, 5), (2,)),
    "broadcast-heads": ((21, 3, 6, 24), (3, 24, 5), ()),
}


class TestChunkBounds:
    def test_covers_batch_contiguously(self):
        bounds = chunk_bounds(10, 3)
        assert bounds == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_exact_division_has_no_remainder_chunk(self):
        assert chunk_bounds(8, 4) == [(0, 4), (4, 8)]

    def test_chunk_larger_than_batch(self):
        assert chunk_bounds(3, 100) == [(0, 3)]

    def test_zero_batch_yields_no_chunks(self):
        assert chunk_bounds(0, 4) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            chunk_bounds(-1, 4)
        with pytest.raises(ValueError):
            chunk_bounds(4, 0)


class TestSliceBatchOperand:
    def test_full_rank_operand_is_sliced(self):
        x = np.arange(24.0).reshape(4, 3, 2)
        sliced = slice_batch_operand(x, batch_rank=1, start=1, stop=3)
        assert np.array_equal(sliced, x[1:3])

    def test_2d_weight_passes_whole(self):
        w = np.arange(6.0).reshape(3, 2)
        assert slice_batch_operand(w, batch_rank=1, start=0, stop=1) is w

    def test_size_one_leading_axis_passes_whole(self):
        x = np.arange(6.0).reshape(1, 3, 2)
        assert slice_batch_operand(x, batch_rank=1, start=2, stop=4) is x


class TestPipelinedBitEquality:
    """chunked_matmul == the sequential per-chunk oracle, always."""

    @pytest.fixture(scope="class")
    def core(self):
        return DPTC(noise=PAPER)

    @pytest.fixture(scope="class")
    def stacked(self):
        a, b = operands(3, (13, 5, 24), (13, 24, 5))
        a[4] = 0.0  # all-zero stack: the draw-less short-circuit
        return a, b

    @pytest.mark.parametrize("chunk_size", [1, 3, 5, 13, 50])
    @pytest.mark.parametrize("zero_stack", [0, 1, 2, 4])
    def test_matches_chunk_oracle(self, core, chunk_size, zero_stack, monkeypatch):
        a, b = operands(3, (13, 5, 24), (13, 24, 5))
        a[zero_stack] = 0.0  # a zero matrix inside a chunk, or a zero chunk
        assert_matches_oracle(core, a, b, 42, chunk_size, monkeypatch)

    @pytest.mark.parametrize("chunk_size", [5, 8])
    @pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
    @pytest.mark.parametrize(
        "noise",
        [PAPER, NO_PHASE, NO_SYSTEMATIC, MAGNITUDE_ONLY],
        ids=["paper", "no-phase", "no-systematic", "magnitude-only"],
    )
    def test_group_boundary_cases(self, noise, case, chunk_size, monkeypatch):
        a_shape, b_shape, zero = BOUNDARY_CASES[case]
        a, b = operands(7, a_shape, b_shape)
        a[list(zero)] = 0.0
        assert_matches_oracle(DPTC(noise=noise), a, b, 9, chunk_size, monkeypatch)

    def test_all_zero_weight_draws_nothing(self, core):
        a, w = operands(4, (9, 4, 16), (16, 4))
        stream = np.random.default_rng(2)
        state = stream.bit_generator.state
        got = chunked_matmul(core, a, np.zeros_like(w), stream, chunk_size=2)
        assert np.array_equal(got, np.zeros((9, 4, 4)))
        assert stream.bit_generator.state == state

    def test_single_chunk_equals_unchunked(self, core, stacked):
        a, b = stacked
        want = core.matmul(a, b, rng=np.random.default_rng(11))
        got = chunked_matmul(
            core, a, b, np.random.default_rng(11), chunk_size=a.shape[0]
        )
        assert np.array_equal(want, got)

    def test_ideal_core_bypasses_chunking_exactly(self, stacked):
        a, b = stacked
        got = chunked_matmul(
            DPTC(), a, b, np.random.default_rng(0), chunk_size=2
        )
        assert np.array_equal(got, np.matmul(a, b))

    def test_matrix_operands_have_no_batch_to_chunk(self, core):
        a, b = operands(5, (4, 12), (12, 4))
        want = core.matmul(a, b, rng=np.random.default_rng(1))
        got = chunked_matmul(
            core, a, b, np.random.default_rng(1), chunk_size=2
        )
        assert np.array_equal(want, got)

    def test_broadcast_weight_encoded_per_chunk(self, core, monkeypatch):
        """A shared 2-D weight gets fresh noise in every chunk — exactly
        like the per-chunk oracle encodes it once per call."""
        a, w = operands(6, (9, 4, 16), (16, 4))
        assert_matches_oracle(core, a, w, 13, 4, monkeypatch)

    def test_calibrated_core_pipeline(self, stacked, monkeypatch):
        a, b = stacked
        core = CalibratedDPTC(noise=PAPER)
        assert_matches_oracle(core, a, b, 21, 4, monkeypatch)

    def test_grouped_draw_is_the_per_chunk_draws(self, core):
        """sample_noise(chunk_size=c) lays the per-chunk draws on a group axis."""
        a_shape, w_shape = (6, 4, 16), (16, 4)
        grouped = core.sample_noise(
            a_shape, w_shape, np.random.default_rng(5), chunk_size=3
        )
        stream = np.random.default_rng(5)
        chunks = [core.sample_noise((3, 4, 16), w_shape, stream) for _ in range(2)]
        assert grouped.magnitude_a.shape == (2, 3, 4, 16)
        assert grouped.magnitude_b.shape == (2, 1, 16, 4)
        assert grouped.systematic.shape == (2, 3, 4, 4)
        for k, chunk in enumerate(chunks):
            assert np.array_equal(grouped.magnitude_a[k], chunk.magnitude_a)
            assert np.array_equal(grouped.magnitude_b[k, 0], chunk.magnitude_b)
            assert np.array_equal(grouped.phase_b[k, 0], chunk.phase_b)
            assert np.array_equal(grouped.systematic[k], chunk.systematic)

    def test_chunk_size_validation(self, core):
        with pytest.raises(ValueError, match="chunks of 4"):
            core.sample_noise((6, 4, 16), (16, 4), np.random.default_rng(0), 4)
        with pytest.raises(ValueError, match="chunk_size"):
            chunked_matmul(core, np.ones((4, 2, 2)), np.ones((2, 2)), chunk_size=0)


class TestShardedChunkedExecution:
    """ShardedDPTC with chunk_size == the per-core per-chunk oracle."""

    @pytest.fixture(scope="class")
    def stacked(self):
        return operands(8, (9, 5, 24), (9, 24, 5))

    @pytest.mark.parametrize("shard_axis", ["batch", "contraction"])
    @pytest.mark.parametrize("zero_stack", [0, 1, 2])
    def test_thread_backend_matches_sequential(self, stacked, shard_axis, zero_stack):
        a, b = stacked
        a = a.copy()
        a[zero_stack] = 0.0
        want = sharded_oracle(a, b, 5, 3, shard_axis, chunk_size=2)
        for parallel in (False, True):
            engine = ShardedDPTC(
                num_cores=3, noise=PAPER, shard_axis=shard_axis,
                parallel=parallel, chunk_size=2,
            )
            got = engine.matmul(a, b, rng=np.random.default_rng(5))
            engine.close()
            assert np.array_equal(want, got)

    @pytest.mark.parametrize("shard_axis", ["batch", "contraction"])
    @pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
    def test_group_boundary_cases(self, shard_axis, case):
        a_shape, b_shape, zero = BOUNDARY_CASES[case]
        a, b = operands(11, a_shape, b_shape)
        a[list(zero)] = 0.0
        want = sharded_oracle(a, b, 4, 2, shard_axis, chunk_size=5)
        engine = ShardedDPTC(
            num_cores=2, noise=PAPER, shard_axis=shard_axis, chunk_size=5
        )
        got = engine.matmul(a, b, rng=np.random.default_rng(4))
        engine.close()
        assert np.array_equal(want, got)

    def test_unchunked_engine_unchanged_by_knobs(self, stacked):
        """A chunk as large as the shard is the unchunked call, bit for bit."""
        a, b = stacked
        plain = ShardedDPTC(num_cores=2, noise=PAPER)
        one_chunk = ShardedDPTC(num_cores=2, noise=PAPER, chunk_size=5)
        want = plain.matmul(a, b, rng=np.random.default_rng(2))
        got = one_chunk.matmul(a, b, rng=np.random.default_rng(2))
        plain.close()
        one_chunk.close()
        assert np.array_equal(want, got)

    def test_single_core_chunked_matches_plain_chunk_oracle(self, stacked):
        a, b = stacked
        engine = ShardedDPTC(num_cores=1, noise=PAPER, chunk_size=4)
        # num_cores=1 spawns one child stream off the call's generator.
        stream = np.random.default_rng(3).spawn(1)[0]
        want = per_chunk(DPTC(noise=PAPER), a, b, stream, 4)
        got = engine.matmul(a, b, rng=np.random.default_rng(3))
        engine.close()
        assert np.array_equal(want, got)

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            ShardedDPTC(num_cores=2, chunk_size=0)
        with pytest.raises(TypeError):
            ShardedDPTC(num_cores=2, pipeline_depth=1)  # retired knob


class TestProcessBackendChunked:
    """One job per core, the spawned stream shipped with it, stays bit-equal
    (few engines: process pools are slow to spawn)."""

    def test_chunked_process_matches_sequential(self, monkeypatch):
        cases = [
            operands(10, (6, 4, 16), (6, 16, 4)),
            operands(12, (72, 16, 64), (64, 48)),  # several groups per core
        ]
        cases[0][0][2] = 0.0  # an all-zero chunk draws nothing
        for a_shape, b_shape, zero in BOUNDARY_CASES.values():
            a, b = operands(13, a_shape, b_shape)
            a[list(zero)] = 0.0
            cases.append((a, b))
        for shard_axis in ("batch", "contraction"):
            engine = ShardedDPTC(
                num_cores=2, noise=PAPER, shard_axis=shard_axis,
                backend="process", chunk_size=5,
            )
            try:
                for a, b in cases:
                    want = sharded_oracle(a, b, 23, 2, shard_axis, chunk_size=5)
                    got = engine.matmul(a, b, rng=np.random.default_rng(23))
                    assert np.array_equal(want, got), shard_axis
                # Without shared memory the operands ride in the jobs.
                with monkeypatch.context() as m:
                    m.setattr(sharding, "_shm_module", None)
                    a, b = cases[0]
                    got = engine.matmul(a, b, rng=np.random.default_rng(23))
                assert np.array_equal(
                    sharded_oracle(a, b, 23, 2, shard_axis, chunk_size=5), got
                ), shard_axis
            finally:
                engine.close()


class TestSharedMemoryTransport:
    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(0)
        arrays = [
            rng.normal(size=(3, 5)),
            np.arange(7, dtype=np.int64),
            rng.normal(size=(2, 2, 2)),
        ]
        segment, specs = pack_arrays(arrays)
        try:
            for array, spec in zip(arrays, specs):
                assert np.array_equal(unpack_spec(segment, spec), array)
            offsets = [spec[0] for spec in specs]
            assert all(offset % 64 == 0 for offset in offsets)
            assert offsets == sorted(offsets)
        finally:
            release_segment(segment, unlink=True)

    def test_attach_is_untracked_and_sees_owner_data(self):
        payload = np.arange(12.0).reshape(3, 4)
        segment, specs = pack_arrays([payload])
        try:
            attached = attach_segment(segment.name)
            try:
                assert np.array_equal(unpack_spec(attached, specs[0]), payload)
            finally:
                release_segment(attached)
        finally:
            release_segment(segment, unlink=True)

    def test_empty_pack_allocates_minimal_segment(self):
        segment, specs = pack_arrays([])
        try:
            assert specs == []
        finally:
            release_segment(segment, unlink=True)

    def test_non_contiguous_views_pack_by_value(self):
        base = np.arange(24.0).reshape(4, 6)
        view = base[::2, ::3]  # non-contiguous
        segment, specs = pack_arrays([view])
        try:
            assert np.array_equal(unpack_spec(segment, specs[0]), view)
        finally:
            release_segment(segment, unlink=True)


class TestProfileStages:
    def test_reports_every_stage(self):
        core = DPTC(noise=NoiseModel.paper_default())
        a, b = operands(1, (4, 6, 12), (4, 12, 6))
        times = profile_stages(core, a, b, seed=0, repeats=1)
        assert set(times) == {"sample", "encode", "compute", "detect", "total"}
        assert all(value >= 0.0 for value in times.values())

    def test_ideal_core_degrades_to_compute_detect_profile(self):
        # An ideal (noiseless) engine has no SAMPLE/ENCODE stages; the
        # profile degrades instead of raising, so `repro hotpath-bench
        # --noise off` works.
        a, b = operands(2, (4, 6, 12), (4, 12, 6))
        times = profile_stages(DPTC(), a, b, seed=0, repeats=1)
        assert set(times) == {"compute", "detect", "total"}
        assert times["detect"] == 0.0
        assert times["compute"] >= 0.0 and times["total"] >= 0.0
