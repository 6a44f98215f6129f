"""Transformer model configurations and their GEMM traces.

The model zoo covers the paper's evaluation workloads: DeiT-T/S/B on
224x224 images (sequence length 197 with the class token) and BERT-base
/ BERT-large at configurable sequence lengths (the paper uses 128 and
320).  :func:`gemm_trace` expands a configuration into the exact list of
GEMM operations one single-batch inference performs, labelled by module
so the Table V rows (MHA / FFN / All) can be regenerated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.workloads.gemm import (
    MODULE_ATTENTION,
    MODULE_EMBEDDING,
    MODULE_FFN,
    MODULE_HEAD,
    MODULE_PROJECTION,
    GEMMOp,
)

KIND_VISION = "vision"
KIND_TEXT = "text"


@dataclass(frozen=True)
class TransformerConfig:
    """Architecture hyperparameters of an encoder-style Transformer."""

    name: str
    depth: int  #: number of encoder blocks
    dim: int  #: embedding dimension
    heads: int  #: attention heads
    seq_len: int  #: tokens per inference (includes CLS for vision)
    mlp_ratio: float = 4.0
    kind: str = KIND_VISION
    n_classes: int = 1000
    patch_size: int = 16  #: vision only
    image_size: int = 224  #: vision only
    in_channels: int = 3  #: vision only

    def __post_init__(self) -> None:
        if self.depth < 1 or self.dim < 1 or self.heads < 1 or self.seq_len < 1:
            raise ValueError(f"invalid transformer config: {self}")
        if self.dim % self.heads != 0:
            raise ValueError(
                f"dim {self.dim} not divisible by heads {self.heads}"
            )
        if self.kind not in (KIND_VISION, KIND_TEXT):
            raise ValueError(f"unknown kind {self.kind!r}")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    @property
    def ffn_dim(self) -> int:
        return int(self.dim * self.mlp_ratio)

    @property
    def n_patches(self) -> int:
        """Patches per image (vision models)."""
        return (self.image_size // self.patch_size) ** 2

    @property
    def patch_dim(self) -> int:
        """Flattened patch vector length (the patch-embedding GEMM's k)."""
        return self.patch_size * self.patch_size * self.in_channels


def deit_tiny(image_size: int = 224) -> TransformerConfig:
    """DeiT-T: 12 layers, dim 192, 3 heads (paper's primary workload)."""
    seq = (image_size // 16) ** 2 + 1
    return TransformerConfig(
        "deit-tiny", depth=12, dim=192, heads=3, seq_len=seq, image_size=image_size
    )


def deit_small(image_size: int = 224) -> TransformerConfig:
    """DeiT-S: 12 layers, dim 384, 6 heads."""
    seq = (image_size // 16) ** 2 + 1
    return TransformerConfig(
        "deit-small", depth=12, dim=384, heads=6, seq_len=seq, image_size=image_size
    )


def deit_base(image_size: int = 224) -> TransformerConfig:
    """DeiT-B: 12 layers, dim 768, 12 heads."""
    seq = (image_size // 16) ** 2 + 1
    return TransformerConfig(
        "deit-base", depth=12, dim=768, heads=12, seq_len=seq, image_size=image_size
    )


def bert_base(seq_len: int = 128) -> TransformerConfig:
    """BERT-base: 12 layers, dim 768, 12 heads."""
    return TransformerConfig(
        "bert-base",
        depth=12,
        dim=768,
        heads=12,
        seq_len=seq_len,
        kind=KIND_TEXT,
        n_classes=2,
    )


def bert_large(seq_len: int = 320) -> TransformerConfig:
    """BERT-large: 24 layers, dim 1024, 16 heads."""
    return TransformerConfig(
        "bert-large",
        depth=24,
        dim=1024,
        heads=16,
        seq_len=seq_len,
        kind=KIND_TEXT,
        n_classes=2,
    )


#: The five evaluation workloads of the paper's Fig. 13.
PAPER_WORKLOADS = {
    "DeiT-T-224": deit_tiny,
    "DeiT-S-224": deit_small,
    "DeiT-B-224": deit_base,
    "BERT-base-128": bert_base,
    "BERT-large-320": bert_large,
}


def gemm_trace(
    config: TransformerConfig,
    include_head: bool = True,
    batch_size: int = 1,
    num_cores: int = 1,
    shard_axis: str = "batch",
) -> list[GEMMOp]:
    """GEMM operations of one batched inference, in execution order.

    Attention products (QK^T and AV) are labelled dynamic — both
    operands are runtime activations; everything else multiplies an
    activation by a static weight matrix.

    Args:
        config: model architecture.
        include_head: include the classifier (and BERT pooler) GEMMs.
        batch_size: sequences per inference.  The batched execution
            engine runs each op's whole ``batch x count`` stack in one
            photonic call; for the trace this multiplies every op's
            instance count (weights are shared across the batch, so use
            ``batch_size=1`` when counting parameters).
        num_cores: shard each op across this many DPTC cores and return
            the *critical-path* (largest) per-core slice.  The
            whole-grid latency model already divides tile counts by
            ``config.n_cores``; this knob instead yields the trace one
            core of a :class:`~repro.core.sharding.ShardedDPTC`-style
            split executes.
        shard_axis: which axis the per-core slice cuts, matching the
            functional engine's knob.  ``"batch"`` shards each op's
            instance stack: counts become ``ceil(count / num_cores)``.
            ``"contraction"`` shards each op's K axis: ``k`` becomes
            the largest contiguous slab ``ceil(k / num_cores)`` and
            ``k_splits`` records how many slabs (at most ``k``) feed
            the digital partial-sum accumulator, so the latency/energy
            models see the K-split tile counts *and* the extra digital
            accumulation work.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if num_cores < 1:
        raise ValueError(f"num_cores must be >= 1, got {num_cores}")
    if shard_axis not in ("batch", "contraction"):
        raise ValueError(
            f"shard_axis must be 'batch' or 'contraction', got {shard_axis!r}"
        )
    seq = config.seq_len
    dim = config.dim
    ops: list[GEMMOp] = []

    if config.kind == KIND_VISION:
        ops.append(
            GEMMOp(
                "patch_embed",
                m=config.n_patches,
                k=config.patch_dim,
                n=dim,
                module=MODULE_EMBEDDING,
            )
        )
    # Text models embed tokens via table lookup: no GEMM.

    ops.append(
        GEMMOp(
            "qkv_proj",
            m=seq,
            k=dim,
            n=3 * dim,
            module=MODULE_PROJECTION,
            count=config.depth,
        )
    )
    ops.append(
        GEMMOp(
            "attn_qkt",
            m=seq,
            k=config.head_dim,
            n=seq,
            module=MODULE_ATTENTION,
            dynamic=True,
            count=config.depth * config.heads,
        )
    )
    ops.append(
        GEMMOp(
            "attn_av",
            m=seq,
            k=seq,
            n=config.head_dim,
            module=MODULE_ATTENTION,
            dynamic=True,
            count=config.depth * config.heads,
        )
    )
    ops.append(
        GEMMOp(
            "out_proj",
            m=seq,
            k=dim,
            n=dim,
            module=MODULE_PROJECTION,
            count=config.depth,
        )
    )
    ops.append(
        GEMMOp(
            "ffn1",
            m=seq,
            k=dim,
            n=config.ffn_dim,
            module=MODULE_FFN,
            count=config.depth,
        )
    )
    ops.append(
        GEMMOp(
            "ffn2",
            m=seq,
            k=config.ffn_dim,
            n=dim,
            module=MODULE_FFN,
            count=config.depth,
        )
    )

    if include_head:
        if config.kind == KIND_VISION:
            ops.append(
                GEMMOp("head", m=1, k=dim, n=config.n_classes, module=MODULE_HEAD)
            )
        else:
            # BERT-style pooler on the CLS token, then the classifier.
            ops.append(GEMMOp("pooler", m=1, k=dim, n=dim, module=MODULE_HEAD))
            ops.append(
                GEMMOp("classifier", m=1, k=dim, n=config.n_classes, module=MODULE_HEAD)
            )
    if batch_size > 1:
        ops = [replace(op, count=op.count * batch_size) for op in ops]
    if num_cores > 1:
        if shard_axis == "contraction":
            # Critical-path per-core slice of the K split: the largest
            # contiguous slab (shard_bounds front-loads the remainder),
            # with k_splits recording how many slabs the digital
            # accumulator merges (cores beyond k idle).
            ops = [
                replace(
                    op,
                    k=math.ceil(op.k / num_cores),
                    k_splits=min(num_cores, op.k),
                )
                for op in ops
            ]
        else:
            ops = [
                replace(op, count=max(1, math.ceil(op.count / num_cores)))
                for op in ops
            ]
    return ops


def model_parameters(config: TransformerConfig) -> int:
    """Approximate parameter count (weights of all GEMM layers)."""
    return sum(op.static_weight_elements for op in gemm_trace(config))


def servable_model(
    config: TransformerConfig,
    *,
    executor=None,
    vocab_size: int = 32,
    seed: int | None = None,
    engine=None,
):
    """Functional serving entry point: a model matching this architecture.

    Builds the noise-aware functional model the serving subsystem wraps
    — :class:`~repro.neural.vision.TinyViT` for vision configs,
    :class:`~repro.neural.text.TinyBERT` for text configs — with this
    config's depth/dim/heads/sequence geometry, sharing one photonic
    ``executor`` across every matmul.  Use small custom configs for
    interactive serving; the paper-scale zoo entries build but execute
    slowly on CPU.

    Args:
        config: architecture to instantiate (vision configs must be
            single-channel: the functional patch embedding consumes
            ``[H, W]`` images).
        executor: shared :class:`~repro.neural.photonic.PhotonicExecutor`
            (defaults to the model's own ideal executor, or — when
            ``engine`` is given — an ideal executor with the engine's
            ``num_cores`` / ``shard_axis`` / ``backend``).
        vocab_size: token vocabulary for text configs.
        seed: weight-initialisation seed (equal seeds give bit-identical
            models — the serving equivalence gate relies on this).
            Defaults to ``engine.seed`` when an engine config is given,
            else 0.
        engine: an :class:`~repro.serving.config.EngineConfig` supplying
            the accelerator and seed knobs in one object (the unified
            serving API); an explicit ``executor``/``seed`` overrides
            the corresponding engine field.
    """
    # Lazy import: workloads stays an analytic layer; only this entry
    # point pulls in the functional neural stack.
    from repro.neural.text import TinyBERT
    from repro.neural.vision import TinyViT

    if engine is not None and executor is None:
        from repro.neural.photonic import PhotonicExecutor

        executor = PhotonicExecutor.ideal(
            num_cores=engine.num_cores,
            shard_axis=engine.shard_axis,
            backend=engine.backend,
            chunk_size=engine.chunk_size,
        )
    if seed is None:
        seed = engine.seed if engine is not None else 0

    if config.kind == KIND_VISION:
        if config.in_channels != 1:
            raise ValueError(
                "servable vision models are single-channel; got "
                f"in_channels={config.in_channels}"
            )
        return TinyViT(
            image_size=config.image_size,
            patch_size=config.patch_size,
            dim=config.dim,
            depth=config.depth,
            heads=config.heads,
            n_classes=config.n_classes,
            mlp_ratio=config.mlp_ratio,
            executor=executor,
            seed=seed,
        )
    return TinyBERT(
        vocab_size=vocab_size,
        seq_len=config.seq_len,
        dim=config.dim,
        depth=config.depth,
        heads=config.heads,
        n_classes=config.n_classes,
        mlp_ratio=config.mlp_ratio,
        executor=executor,
        seed=seed,
    )
