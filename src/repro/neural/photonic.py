"""Photonic execution of matrix products inside the neural network.

:class:`PhotonicExecutor` is the bridge between the software model and
the DPTC analytics: every matrix multiplication of the network is
(optionally) quantized and routed through the noisy analytic transform
of Eq. 9 in the forward pass, while gradients flow through the ideal
product (a straight-through estimator — the standard approach for
noise-aware training, as in the paper's artifact).

Weights are *static* operands (the paper's split between weights and
the runtime-quantized activations DPTC exists to serve): the executor
quantizes each weight array once and reuses its grid while the array's
contents are unchanged, see :class:`WeightGrids`.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.core.dptc import DPTC, DPTCGeometry
from repro.core.noise import NoiseModel
from repro.core.sharding import BACKENDS, SHARD_AXES, ShardedDPTC
from repro.neural.autograd import Tensor
from repro.neural.quantization import QuantConfig, fake_quantize, straight_through

WEIGHT_OPERANDS = (None, 0, 1)


def _evict(grids_ref: weakref.ref, key: tuple[int, int], dead: weakref.ref) -> None:
    """Drop the entry of a dead weight array, and only that entry: a newer
    one under the same key holds its own ref."""
    grids = grids_ref()
    if grids is not None and grids._entries.get(key, (None,))[0] is dead:
        del grids._entries[key]


class WeightGrids:
    """Per-matrix quantized grids of static weights, one per (array, bits).

    An entry is keyed by the weight's ndarray (by identity, never its
    ``Tensor`` wrapper, which callers may rebuild on every call) and is
    served only while the array's shape and bytes equal the snapshot
    taken when it was quantized, so in-place writes are always seen.
    Each array is held through a ``weakref`` whose callback drops its
    own entry, so rebinding ``param.data`` never grows the cache.  A
    miss goes through :func:`fake_quantize`; cached grids are read-only.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[int, int], tuple] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def quantize(self, weight: Tensor, bits: int) -> Tensor:
        """``weight`` on its ``bits`` grid, straight-through to ``weight``."""
        data = weight.data
        key = (id(data), bits)
        entry = self._entries.get(key)
        if entry is not None:
            ref, shape, snapshot, grid = entry
            if ref() is data and shape == data.shape and snapshot == data.tobytes():
                return straight_through(weight, grid)
        quantized = fake_quantize(weight, bits, per_matrix=True)
        quantized.data.flags.writeable = False
        # The eviction callback holds the cache weakly: no reference
        # cycle, so a dropped executor frees its grids at once.
        evict = functools.partial(_evict, weakref.ref(self), key)
        self._entries[key] = (
            weakref.ref(data, evict),
            data.shape,
            data.tobytes(),
            quantized.data,
        )
        return quantized


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
        self.weight_grids = WeightGrids()

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
            weight_operand: which operand is a static weight matrix: 0
                (``a``), 1 (``b``) or ``None`` (both are activations).  A
                weight is quantized at ``quant.weight_bits`` once per
                array and its grid reused while the array's contents are
                unchanged (see :class:`WeightGrids`); activations are
                quantized on every call at ``quant.activation_bits``.

        Raises:
            ValueError: ``weight_operand`` is not one of ``None``, 0, 1.
        """
        if weight_operand not in WEIGHT_OPERANDS:
            raise ValueError(
                f"weight_operand must be one of {WEIGHT_OPERANDS}, "
                f"got {weight_operand!r}"
            )
        if self.quant is not None:
            # Per-matrix scales: each [m, d] slice of a stacked operand
            # gets its own grid (like the DPTC's per-matrix beta), so
            # batched execution quantizes each sample exactly as the
            # per-sample path would — no cross-batch scale coupling.
            bits = self.quant.weight_bits
            if weight_operand == 0:
                a = self.weight_grids.quantize(a, bits)
            else:
                a = fake_quantize(a, self.quant.activation_bits, per_matrix=True)
            if weight_operand == 1:
                b = self.weight_grids.quantize(b, bits)
            else:
                b = fake_quantize(b, self.quant.activation_bits, per_matrix=True)

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
