"""Tests for low-bit quantization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.neural import (
    QuantConfig,
    Tensor,
    fake_quantize,
    quantization_error,
    quantization_levels,
    quantize_array,
)


def reference_quantize_array(
    values: np.ndarray, bits: int, per_matrix: bool = False
) -> np.ndarray:
    """The chained quantizer the one-pass ``quantize_array`` replaced.

    Kept verbatim as the oracle: the fast path must match it bit for bit.
    """
    values = np.asarray(values, dtype=float)
    levels = quantization_levels(bits)
    if not values.size:
        return values.copy()
    tiny = np.finfo(float).tiny
    if per_matrix and values.ndim > 2:
        max_abs = np.max(np.abs(values), axis=(-2, -1), keepdims=True)
        degenerate = max_abs < tiny
        scale = np.where(degenerate, 1.0, max_abs) / levels
        snapped = values / scale
        np.round(snapped, out=snapped)
        np.clip(snapped, -levels, levels, out=snapped)
        snapped *= scale
        return np.where(degenerate, values, snapped)
    max_abs = np.max(np.abs(values))
    if max_abs < tiny:
        return values.copy()
    scale = max_abs / levels
    snapped = values / scale
    np.round(snapped, out=snapped)
    np.clip(snapped, -levels, levels, out=snapped)
    snapped *= scale
    return snapped


#: Per-slice magnitudes: zero, subnormal, tiny normal, unit, huge.
SLICE_SCALES = (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0, 3.7, 1e300)


@st.composite
def stacked_values(draw):
    """Rank 1-4 arrays whose trailing slices each get their own magnitude,
    so zero, subnormal and huge slices sit beside ordinary ones."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=5))
    base = draw(
        hnp.arrays(
            float,
            shape,
            elements=st.one_of(
                st.floats(-1.0, 1.0),
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 0.5, -0.5]),
            ),
        )
    )
    slices = shape[:-2] + (1, 1) if len(shape) > 2 else ()
    scales = draw(hnp.arrays(float, slices, elements=st.sampled_from(SLICE_SCALES)))
    with np.errstate(over="ignore", under="ignore"):
        values = base * scales
    biggest = np.finfo(float).max
    return np.nan_to_num(values, posinf=biggest, neginf=-biggest)


class TestQuantizeArrayOracle:
    """The one-pass quantizer is bit-identical to the chained reference."""

    @settings(max_examples=500, deadline=None)
    @given(
        values=stacked_values(),
        bits=st.integers(min_value=2, max_value=8),
        per_matrix=st.booleans(),
    )
    def test_bit_identical_to_reference(self, values, bits, per_matrix):
        before = values.copy()
        with np.errstate(all="ignore"):  # near-max slices overflow both alike
            expected = reference_quantize_array(values, bits, per_matrix=per_matrix)
            actual = quantize_array(values, bits, per_matrix=per_matrix)
        assert actual.dtype == expected.dtype
        assert actual.shape == expected.shape
        assert np.array_equal(actual, expected)
        assert actual.tobytes() == expected.tobytes()  # signed zeros too
        assert values.tobytes() == before.tobytes()
        assert not np.shares_memory(actual, values)


class TestQuantConfig:
    def test_presets(self):
        assert QuantConfig.int4() == QuantConfig(4, 4)
        assert QuantConfig.int8() == QuantConfig(8, 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantConfig(1, 4)


class TestQuantizeArray:
    def test_levels(self):
        assert quantization_levels(4) == 7
        assert quantization_levels(8) == 127

    def test_zero_preserved(self):
        values = np.array([-1.0, 0.0, 1.0])
        assert quantize_array(values, 4)[1] == 0.0

    def test_extremes_preserved(self):
        values = np.array([-1.0, 0.3, 1.0])
        quantized = quantize_array(values, 4)
        assert quantized[0] == pytest.approx(-1.0)
        assert quantized[2] == pytest.approx(1.0)

    def test_grid_spacing(self):
        values = np.linspace(-1, 1, 1000)
        quantized = quantize_array(values, 4)
        unique = np.unique(quantized)
        assert len(unique) == 15  # 2*7 + 1 symmetric levels
        assert np.allclose(np.diff(unique), 1.0 / 7.0)

    def test_8bit_finer_than_4bit(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=1000)
        assert quantization_error(values, 8) < quantization_error(values, 4)

    def test_4bit_error_band(self):
        """4-bit RMS error on Gaussian data: the max-abs scale stretches
        over ~3.5 sigma of outliers, so step ~ 0.5 sigma and the RMS
        error lands around step/sqrt(12) ~ 15 % of the data RMS."""
        rng = np.random.default_rng(1)
        err = quantization_error(rng.normal(size=5000), 4)
        assert 0.08 < err < 0.25

    def test_zero_tensor(self):
        assert np.array_equal(quantize_array(np.zeros(5), 4), np.zeros(5))
        assert quantization_error(np.zeros(5), 4) == 0.0

    def test_subnormal_tensor_does_not_produce_nan(self):
        # A subnormal max-abs used to underflow the scale to 0 and turn
        # the grid into inf/nan (hypothesis-found falsifying example).
        values = np.array([5e-324, 0.0])
        once = quantize_array(values, 3)
        assert np.array_equal(once, values)  # returned unchanged
        assert np.array_equal(quantize_array(once, 3), once)

    def test_subnormal_slices_match_per_sample_quantization(self):
        # Per-matrix slices quantize exactly like per-sample calls,
        # including the degenerate sub-tiny branch.
        stacked = np.stack([np.full((2, 2), 5e-324), np.ones((2, 2))])
        per_matrix = quantize_array(stacked, 3, per_matrix=True)
        for i in range(2):
            assert np.array_equal(per_matrix[i], quantize_array(stacked[i], 3))

    @given(
        values=hnp.arrays(
            float,
            st.integers(min_value=1, max_value=30),
            elements=st.floats(min_value=-10, max_value=10),
        ),
        bits=st.integers(min_value=2, max_value=10),
    )
    def test_idempotent(self, values, bits):
        once = quantize_array(values, bits)
        twice = quantize_array(once, bits)
        np.testing.assert_allclose(once, twice, atol=1e-12)

    @given(
        values=hnp.arrays(
            float, 16, elements=st.floats(min_value=-5, max_value=5)
        ),
        bits=st.integers(min_value=2, max_value=10),
    )
    def test_error_bounded_by_half_step(self, values, bits):
        quantized = quantize_array(values, bits)
        max_abs = np.max(np.abs(values))
        if max_abs > 0:
            step = max_abs / quantization_levels(bits)
            assert np.max(np.abs(values - quantized)) <= step / 2 + 1e-12


class TestPerMatrixQuantization:
    """Per-matrix scales decouple the slices of a stacked activation."""

    def test_slices_quantized_independently(self):
        rng = np.random.default_rng(0)
        stack = rng.normal(size=(5, 4, 6))
        stack[2] *= 40.0  # one outlier sample must not coarsen the rest
        whole = quantize_array(stack, 4, per_matrix=True)
        for index in range(5):
            assert np.array_equal(whole[index], quantize_array(stack[index], 4))

    def test_batch_invariance(self):
        """A sample's grid never depends on its batch neighbours."""
        rng = np.random.default_rng(1)
        stack = rng.normal(size=(6, 3, 4))
        full = quantize_array(stack, 4, per_matrix=True)
        half = quantize_array(stack[:3], 4, per_matrix=True)
        assert np.array_equal(full[:3], half)

    def test_zero_slice_preserved(self):
        stack = np.ones((3, 2, 2))
        stack[1] = 0.0
        out = quantize_array(stack, 4, per_matrix=True)
        assert np.array_equal(out[1], np.zeros((2, 2)))
        assert np.array_equal(out[0], stack[0])

    def test_two_dim_unaffected(self):
        values = np.random.default_rng(2).normal(size=(4, 6))
        assert np.array_equal(
            quantize_array(values, 4, per_matrix=True), quantize_array(values, 4)
        )

    def test_executor_batched_matches_per_sample(self):
        """A quantized batched matmul equals its per-sample slices."""
        from repro.neural import PhotonicExecutor

        executor = PhotonicExecutor.digital_reference()
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 3, 6))
        a[1] *= 25.0
        w = rng.normal(size=(6, 5))
        batched = executor.matmul(Tensor(a), Tensor(w), weight_operand=1)
        for index in range(4):
            single = executor.matmul(Tensor(a[index]), Tensor(w), weight_operand=1)
            assert np.array_equal(batched.data[index], single.data)


class TestFakeQuantize:
    def test_forward_quantizes(self):
        t = Tensor(np.linspace(-1, 1, 100))
        out = fake_quantize(t, 4)
        assert len(np.unique(out.data)) <= 15

    def test_straight_through_gradient(self):
        t = Tensor(np.linspace(-1, 1, 10), requires_grad=True)
        fake_quantize(t, 4).sum().backward()
        assert np.allclose(t.grad, np.ones(10))

    def test_gradient_flows_through_composition(self):
        t = Tensor(np.array([0.5, -0.3]), requires_grad=True)
        (fake_quantize(t, 8) ** 2).sum().backward()
        # STE: d/dt (q(t)^2) ~ 2*q(t)
        assert np.allclose(t.grad, 2 * fake_quantize(Tensor(t.data), 8).data)


class TestPerMatrixQuantizationError:
    """quantization_error(per_matrix=True): one decoupled error per slice."""

    def test_stack_errors_equal_independent_slice_errors(self):
        # The quantized grids are bit-identical per slice; the norm
        # reduction may differ by one ULP (BLAS dot vs ufunc reduce),
        # hence the machine-precision tolerance.
        rng = np.random.default_rng(0)
        stack = rng.normal(size=(5, 6, 7)) * rng.uniform(0.1, 10.0, (5, 1, 1))
        errors = quantization_error(stack, 4, per_matrix=True)
        assert errors.shape == (5,)
        for index in range(stack.shape[0]):
            want = quantization_error(stack[index], 4)
            assert np.isclose(errors[index], want, rtol=1e-14, atol=0.0)

    def test_nested_batch_axes(self):
        rng = np.random.default_rng(1)
        stack = rng.normal(size=(2, 3, 4, 5))
        errors = quantization_error(stack, 4, per_matrix=True)
        assert errors.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                want = quantization_error(stack[i, j], 4)
                assert np.isclose(errors[i, j], want, rtol=1e-14, atol=0.0)

    def test_zero_slice_reports_zero(self):
        rng = np.random.default_rng(2)
        stack = rng.normal(size=(3, 4, 4))
        stack[1] = 0.0
        errors = quantization_error(stack, 4, per_matrix=True)
        assert errors[1] == 0.0
        assert np.all(errors >= 0.0)

    def test_two_dim_returns_float_either_way(self):
        values = np.random.default_rng(3).normal(size=(6, 6))
        global_error = quantization_error(values, 4)
        per_matrix_error = quantization_error(values, 4, per_matrix=True)
        assert isinstance(per_matrix_error, float)
        assert per_matrix_error == global_error

    def test_global_scale_cross_couples_where_per_matrix_does_not(self):
        """A wide-range stack inflates the small slice's *global* error;
        the per-matrix errors stay at each slice's native resolution."""
        rng = np.random.default_rng(4)
        stack = np.stack(
            [rng.normal(size=(8, 8)), 1e4 * rng.normal(size=(8, 8))]
        )
        per_slice = quantization_error(stack, 4, per_matrix=True)
        coupled_small = quantization_error(stack, 4)
        assert per_slice[0] < coupled_small * 10  # sanity: same order
        # The small slice quantized on its own grid beats the global grid.
        assert np.isclose(
            per_slice[0], quantization_error(stack[0], 4), rtol=1e-14, atol=0.0
        )
        assert per_slice[0] < 1.0
