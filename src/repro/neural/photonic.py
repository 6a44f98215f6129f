"""Photonic execution of matrix products inside the neural network.

:class:`PhotonicExecutor` is the bridge between the software model and
the DPTC analytics: every matrix multiplication of the network is
(optionally) quantized and routed through the noisy analytic transform
of Eq. 9 in the forward pass, while gradients flow through the ideal
product (a straight-through estimator — the standard approach for
noise-aware training, as in the paper's artifact).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dptc import DPTC, DPTCGeometry
from repro.core.noise import NoiseModel
from repro.core.sharding import BACKENDS, SHARD_AXES, ShardedDPTC
from repro.neural.autograd import Tensor
from repro.neural.quantization import QuantConfig, fake_quantize


@dataclass
class PhotonicExecutor:
    """Executes neural matmuls on a (noisy) DPTC model.

    Attributes:
        geometry: tensor-core dimensions (wavelength count drives the
            dispersion profile used in Fig. 14's wavelength sweep).
        noise: non-ideality bundle; ideal -> pure quantized execution.
        quant: weight/activation precision; ``None`` disables
            quantization (full-precision floats on an ideal core).
        rng: noise sampling stream (seed for reproducibility).
        num_cores: DPTC cores to shard batched matmuls over.  1 keeps
            the single-core engine (``shard_axis``/``backend`` are then
            inert); >1 shards across a :class:`ShardedDPTC` grid
            (bit-identical on the ideal path, per-core noise streams
            otherwise).
        shard_axis: ``"batch"`` splits the leading batch axis across
            the cores; ``"contraction"`` splits the K axis, with
            digital partial-sum accumulation after photodetection.
        backend: ``"thread"`` or ``"process"`` shard execution;
            bit-equal for equal seeds, process gives true parallelism
            on multi-CPU hosts.
        chunk_size: when set, run each core's batched matmul in chunks
            along the leading batch axis, vectorised over groups of
            chunks.  Bit-identical to sequential per-chunk execution
            for equal seeds; ``None`` keeps the whole-batch draw order.
    """

    geometry: DPTCGeometry = field(default_factory=DPTCGeometry)
    noise: NoiseModel = field(default_factory=NoiseModel.ideal)
    quant: QuantConfig | None = field(default_factory=QuantConfig.int4)
    rng: np.random.Generator = field(default_factory=np.random.default_rng)
    num_cores: int = 1
    shard_axis: str = "batch"
    backend: str = "thread"
    chunk_size: int | None = None

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError(f"num_cores must be >= 1, got {self.num_cores}")
        if self.shard_axis not in SHARD_AXES:
            raise ValueError(
                f"shard_axis must be one of {SHARD_AXES}, got {self.shard_axis!r}"
            )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(
                f"chunk_size must be >= 1 or None, got {self.chunk_size}"
            )
        if self.num_cores == 1 and self.chunk_size is None:
            # Degenerate grid: the plain batched engine (a ShardedDPTC
            # with one core computes the same thing through the same
            # code path; skip the pool machinery entirely).
            self._dptc = DPTC(self.geometry, self.noise)
        else:
            self._dptc = ShardedDPTC(
                num_cores=self.num_cores,
                geometry=self.geometry,
                noise=self.noise,
                shard_axis=self.shard_axis,
                backend=self.backend,
                chunk_size=self.chunk_size,
            )

    def close(self) -> None:
        """Release the sharded engine's worker pool (no-op single-core)."""
        if isinstance(self._dptc, ShardedDPTC):
            self._dptc.close()

    def __enter__(self) -> "PhotonicExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Pool-owning executors can be used in `with` blocks (the
        # serving worker relies on this for lifecycle management).
        self.close()

    @classmethod
    def ideal(
        cls,
        num_cores: int = 1,
        shard_axis: str = "batch",
        backend: str = "thread",
        chunk_size: int | None = None,
    ) -> "PhotonicExecutor":
        """Exact digital arithmetic (no quantization, no noise)."""
        return cls(
            noise=NoiseModel.ideal(),
            quant=None,
            num_cores=num_cores,
            shard_axis=shard_axis,
            backend=backend,
            chunk_size=chunk_size,
        )

    @classmethod
    def digital_reference(cls, quant: QuantConfig | None = None) -> "PhotonicExecutor":
        """The paper's 'GPU' reference: quantized but noise-free."""
        return cls(noise=NoiseModel.ideal(), quant=quant or QuantConfig.int4())

    @classmethod
    def paper_default(
        cls,
        quant: QuantConfig | None = None,
        seed: int | None = None,
        num_cores: int = 1,
        shard_axis: str = "batch",
        backend: str = "thread",
        chunk_size: int | None = None,
    ) -> "PhotonicExecutor":
        """Quantized execution with the paper's full noise model."""
        return cls(
            noise=NoiseModel.paper_default(),
            quant=quant or QuantConfig.int4(),
            rng=np.random.default_rng(seed),
            num_cores=num_cores,
            shard_axis=shard_axis,
            backend=backend,
            chunk_size=chunk_size,
        )

    def matmul(self, a: Tensor, b: Tensor, weight_operand: int | None = None) -> Tensor:
        """Differentiable ``a @ b`` executed photonically.

        Args:
            a, b: tensors of rank >= 2; leading batch axes (batch,
                heads, ...) broadcast numpy-style, so a whole
                ``[batch, heads, tokens, dim]`` attention stack — or a
                2-D weight against 3-D activations — runs in one
                batched photonic call.
            weight_operand: 0 or 1 if one operand is a weight matrix
                (quantized at ``quant.weight_bits``); activations use
                ``quant.activation_bits``.
        """
        if self.quant is not None:
            bits_a = (
                self.quant.weight_bits
                if weight_operand == 0
                else self.quant.activation_bits
            )
            bits_b = (
                self.quant.weight_bits
                if weight_operand == 1
                else self.quant.activation_bits
            )
            # Per-matrix scales: each [m, d] slice of a stacked operand
            # gets its own grid (like the DPTC's per-matrix beta), so
            # batched execution quantizes each sample exactly as the
            # per-sample path would — no cross-batch scale coupling.
            a = fake_quantize(a, bits_a, per_matrix=True)
            b = fake_quantize(b, bits_b, per_matrix=True)

        out_data = self._execute(a.data, b.data)

        def backward(grad: np.ndarray) -> None:
            # Straight-through: gradients of the ideal matrix product.
            if a.requires_grad:
                a.accumulate_grad(grad @ np.swapaxes(b.data, -1, -2))
            if b.requires_grad:
                b.accumulate_grad(np.swapaxes(a.data, -1, -2) @ grad)

        return Tensor.make(out_data, (a, b), backward)

    def _execute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # The DPTC engine is batched end-to-end: any leading batch shape
        # runs as whole-batch matmul expressions with no Python loop.
        return self._dptc.matmul(a, b, rng=self.rng)
