"""The paper's primary contribution: DDot and DPTC photonic compute cores.

* :class:`DDot` — the dynamically-operated, full-range optical vector
  dot-product engine (analytic model of the interference circuit).
* :class:`DPTC` / :class:`DPTCGeometry` — the crossbar tensor core that
  performs one-shot matrix-matrix multiplication with intra-core operand
  sharing.
* :class:`ShardedDPTC` — a grid of DPTC cores executing one batched
  matmul as leading-batch-axis shards or contraction (K-axis) slabs
  with digital partial-sum accumulation (the multi-core scaling axes
  of the accelerator), each core with its own RNG stream and
  calibration state, on a thread- or process-pool backend.
* :mod:`repro.core.hotpath` — chunked execution of the engine's
  SAMPLE/ENCODE/COMPUTE/DETECT stages, one vectorised pass per group of
  chunks (bit-identical to sequential per-chunk calls for equal seeds),
  plus the per-stage profiler.
* Noise and dispersion models of Sec. III-C, shared by the accuracy
  studies and the circuit-level validation.
"""

from repro.core.calibration import (
    CalibratedDPTC,
    additive_correction,
    channel_gains,
    dispersion_error_reduction,
)
from repro.core.ddot import DDot, analytic_output
from repro.core.dispersion import DispersionProfile, dispersion_profile
from repro.core.dptc import (
    CHANNEL_CACHE_SIZE,
    DPTC,
    DPTCGeometry,
    DPTCNoiseDraw,
    PreparedMatmul,
)
from repro.core.hotpath import (
    chunk_bounds,
    chunked_matmul,
    profile_stages,
)
from repro.core.noise import (
    DEFAULT_MAGNITUDE_STD,
    DEFAULT_PHASE_STD_DEG,
    DEFAULT_SYSTEMATIC_STD,
    EncodingNoise,
    NoiseModel,
    SystematicNoise,
)
from repro.core.sharding import (
    BACKENDS,
    SHARD_AXES,
    DigitalAccumulator,
    ShardedDPTC,
    contraction_slabs,
    shard_bounds,
)

__all__ = [
    "BACKENDS",
    "CHANNEL_CACHE_SIZE",
    "CalibratedDPTC",
    "DDot",
    "DPTC",
    "DigitalAccumulator",
    "PreparedMatmul",
    "SHARD_AXES",
    "chunk_bounds",
    "chunked_matmul",
    "contraction_slabs",
    "additive_correction",
    "channel_gains",
    "dispersion_error_reduction",
    "profile_stages",
    "DPTCGeometry",
    "DPTCNoiseDraw",
    "DEFAULT_MAGNITUDE_STD",
    "DEFAULT_PHASE_STD_DEG",
    "DEFAULT_SYSTEMATIC_STD",
    "DispersionProfile",
    "EncodingNoise",
    "NoiseModel",
    "ShardedDPTC",
    "SystematicNoise",
    "analytic_output",
    "dispersion_profile",
    "shard_bounds",
]
