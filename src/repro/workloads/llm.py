"""Autoregressive LLM workloads and memory-bound analysis (Sec. VI-B).

The paper's discussion section examines extending the accelerator to
decoder-only LLMs: token-by-token generation produces small-dimension
GEMMs with low arithmetic intensity, making the workload memory-bound
and under-utilising the photonic compute.  This module implements that
analysis concretely:

* decoder model configs (GPT-2-style) and their **prefill** (prompt
  processing, large GEMMs) and **decode** (one token, GEMV-shaped)
  traces;
* KV-cache sizing and the **recompute-vs-cache** trade the paper cites
  (recalculating K/V trades memory for cheap optical compute);
* arithmetic-intensity / roofline classification against the
  accelerator's HBM bandwidth;
* the batching strategy: how many concurrent requests are needed before
  decode becomes compute-bound on a given LT configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.workloads.gemm import (
    MODULE_ATTENTION,
    MODULE_FFN,
    MODULE_PROJECTION,
    GEMMOp,
)


@dataclass(frozen=True)
class DecoderConfig:
    """A decoder-only (causal) Transformer for autoregressive generation."""

    name: str
    depth: int
    dim: int
    heads: int
    mlp_ratio: float = 4.0
    vocab_size: int = 50_257

    def __post_init__(self) -> None:
        if self.depth < 1 or self.dim < 1 or self.heads < 1:
            raise ValueError(f"invalid decoder config: {self}")
        if self.dim % self.heads != 0:
            raise ValueError(f"dim {self.dim} not divisible by heads {self.heads}")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    @property
    def ffn_dim(self) -> int:
        return int(self.dim * self.mlp_ratio)


def gpt2_small() -> DecoderConfig:
    return DecoderConfig("gpt2-small", depth=12, dim=768, heads=12)


def gpt2_medium() -> DecoderConfig:
    return DecoderConfig("gpt2-medium", depth=24, dim=1024, heads=16)


def gpt2_large() -> DecoderConfig:
    return DecoderConfig("gpt2-large", depth=36, dim=1280, heads=20)


def prefill_trace(config: DecoderConfig, prompt_len: int) -> list[GEMMOp]:
    """GEMMs of the prompt-processing phase (large, compute-friendly)."""
    if prompt_len < 1:
        raise ValueError(f"prompt_len must be >= 1, got {prompt_len}")
    seq, dim = prompt_len, config.dim
    return [
        GEMMOp("qkv_proj", seq, dim, 3 * dim, module=MODULE_PROJECTION,
               count=config.depth),
        GEMMOp("attn_qkt", seq, config.head_dim, seq, module=MODULE_ATTENTION,
               dynamic=True, count=config.depth * config.heads),
        GEMMOp("attn_av", seq, seq, config.head_dim, module=MODULE_ATTENTION,
               dynamic=True, count=config.depth * config.heads),
        GEMMOp("out_proj", seq, dim, dim, module=MODULE_PROJECTION,
               count=config.depth),
        GEMMOp("ffn1", seq, dim, config.ffn_dim, module=MODULE_FFN,
               count=config.depth),
        GEMMOp("ffn2", seq, config.ffn_dim, dim, module=MODULE_FFN,
               count=config.depth),
    ]


def decode_trace(
    config: DecoderConfig, context_len: int, batch: int = 1
) -> list[GEMMOp]:
    """GEMMs of generating one token at the given context length.

    With batch ``b``, the linear layers batch the token vectors of all
    requests into ``[b, dim]`` activations; the attention products stay
    per-request (each request attends over its own KV cache).
    """
    if context_len < 1:
        raise ValueError(f"context_len must be >= 1, got {context_len}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    dim = config.dim
    return [
        GEMMOp("qkv_proj", batch, dim, 3 * dim, module=MODULE_PROJECTION,
               count=config.depth),
        GEMMOp("attn_qkt", 1, config.head_dim, context_len,
               module=MODULE_ATTENTION, dynamic=True,
               count=batch * config.depth * config.heads),
        GEMMOp("attn_av", 1, context_len, config.head_dim,
               module=MODULE_ATTENTION, dynamic=True,
               count=batch * config.depth * config.heads),
        GEMMOp("out_proj", batch, dim, dim, module=MODULE_PROJECTION,
               count=config.depth),
        GEMMOp("ffn1", batch, dim, config.ffn_dim, module=MODULE_FFN,
               count=config.depth),
        GEMMOp("ffn2", batch, config.ffn_dim, dim, module=MODULE_FFN,
               count=config.depth),
    ]


def kv_cache_bytes(
    config: DecoderConfig, context_len: int, bits: int = 8, batch: int = 1
) -> int:
    """Bytes of K/V tensors cached for generation at ``context_len``."""
    if context_len < 0:
        raise ValueError(f"context_len must be >= 0, got {context_len}")
    per_token = 2 * config.depth * config.dim  # K and V per layer
    return math.ceil(per_token * context_len * batch * bits / 8)


def shared_kv_cache_bytes(
    config: DecoderConfig,
    prefix_len: int,
    context_lens: "list[int]",
    *,
    bits: int = 8,
    block_size: int = 1,
) -> int:
    """Fleet KV bytes when sessions share a common prefix's pages.

    The prefix-sharing extension of :func:`kv_cache_bytes`: ``N``
    sessions forked from the same ``prefix_len``-token prompt charge
    the prefix's page-rounded bytes **once**, plus each session's own
    page-rounded suffix (``context - prefix`` generated tokens, which
    start on a fresh page at the copy-on-write fork boundary).  With
    ``prefix_len=0`` this degenerates to the unshared per-session sum.
    """
    if prefix_len < 0:
        raise ValueError(f"prefix_len must be >= 0, got {prefix_len}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    pages = lambda tokens: -(-tokens // block_size)  # noqa: E731
    total = kv_cache_bytes(config, pages(prefix_len) * block_size, bits=bits)
    for context_len in context_lens:
        if context_len < prefix_len:
            raise ValueError(
                f"context {context_len} shorter than the shared prefix "
                f"{prefix_len}"
            )
        suffix = pages(context_len - prefix_len) * block_size
        total += kv_cache_bytes(config, suffix, bits=bits)
    return total


def pad_prompts(
    prompts: "list",
    *,
    pad_id: int = 0,
    length: int | None = None,
) -> "tuple":
    """Coalesce ragged token prompts into one ``[batch, length]`` array.

    The serving batcher's padding policy for prompt batches: right-pad
    every prompt with ``pad_id`` to a *fixed* target length (the batch
    maximum by default, a model's fixed sequence length when given), so
    shorter prompts ride in the same batch as longer ones.  Returns the
    padded array and the original lengths (for un-padding outputs).
    """
    import numpy as np

    if not prompts:
        raise ValueError("need at least one prompt")
    arrays = [np.asarray(p, dtype=int) for p in prompts]
    for arr in arrays:
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise ValueError(f"prompts must be non-empty 1-D, got shape {arr.shape}")
    lengths = [arr.shape[0] for arr in arrays]
    target = max(lengths) if length is None else length
    if max(lengths) > target:
        raise ValueError(
            f"prompt of length {max(lengths)} exceeds pad target {target}"
        )
    padded = np.full((len(arrays), target), pad_id, dtype=int)
    for i, arr in enumerate(arrays):
        padded[i, : arr.shape[0]] = arr
    return padded, lengths


def decode_servable(
    config: DecoderConfig,
    *,
    executor=None,
    cache=None,
    seed: int | None = None,
    block_size: int | None = None,
    kv_capacity_bytes: int | None = None,
    kv_bits: int | None = None,
    engine=None,
):
    """Serving entry point: a decode-step servable for this decoder.

    Returns a :class:`~repro.serving.servable.DecodeServable` — batched
    photonic GEMV projections (the :func:`decode_trace` shapes) with
    per-session digital attention and
    :class:`~repro.serving.cache.SessionCache` KV accounting that is
    consistent with :func:`kv_cache_bytes` by construction.

    ``block_size`` selects the KV page size (tokens per
    :class:`~repro.serving.cache.KVBlock`; 1 = exact per-token
    accounting) and ``kv_capacity_bytes`` bounds the session
    :class:`~repro.serving.cache.BlockPool` — the budget the
    continuous scheduler enforces by preemption.  Ignored when an
    explicit ``cache`` is supplied.

    ``engine`` (an :class:`~repro.serving.config.EngineConfig`) supplies
    the seed, paging, and accelerator knobs in one object — the unified
    serving API; explicit keyword arguments override the corresponding
    engine fields.
    """
    # Lazy import: workloads stays importable without the serving layer.
    from repro.serving.servable import DecodeServable

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
    if block_size is None:
        block_size = engine.block_size if engine is not None else 1
    if kv_capacity_bytes is None and engine is not None:
        kv_capacity_bytes = engine.kv_capacity_bytes
    if kv_bits is None:
        kv_bits = engine.kv_bits if engine is not None else 8
    if cache is not None:
        return DecodeServable(
            config, executor=executor, cache=cache, seed=seed, kv_bits=kv_bits
        )
    return DecodeServable(
        config,
        executor=executor,
        seed=seed,
        block_size=block_size,
        kv_capacity_bytes=kv_capacity_bytes,
        kv_bits=kv_bits,
    )


def kv_recompute_trace(config: DecoderConfig, context_len: int) -> list[GEMMOp]:
    """Extra GEMMs when K/V are recomputed instead of cached.

    The paper's Sec. VI-B cites trading memory for 'cost-effective and
    rapid optical computation': every decode step re-projects K and V
    for the whole context.
    """
    if context_len < 1:
        raise ValueError(f"context_len must be >= 1, got {context_len}")
    return [
        GEMMOp(
            "kv_reproject",
            context_len,
            config.dim,
            2 * config.dim,
            module=MODULE_PROJECTION,
            count=config.depth,
        )
    ]
