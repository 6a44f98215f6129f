"""Engine hot path: chunked noisy matmuls, one vectorised pass per group.

Every layer above the engine — serving, continuous batching, the
cluster — ultimately divides its throughput by the latency of one
noisy :meth:`~repro.core.dptc.DPTC.matmul`, and in the functional
engine SAMPLE and ENCODE (fresh magnitude and phase noise for both
operands of every shot, Sec. III-B/III-C) dominate that latency.

* :func:`chunk_bounds` splits the leading batch axis into contiguous
  chunks of at most ``chunk_size`` stacks;
* :func:`chunked_matmul` runs those chunks as a few *groups* of
  consecutive chunks.  Each group is one pass of the
  :class:`~repro.core.dptc.DPTC` stage pair with ``chunk_size`` set:
  SAMPLE draws the group's noise in one call, one row per chunk, then
  ENCODE, COMPUTE and DETECT each run once over the whole group, chunks
  on a leading axis.  A group holds at most :data:`GROUP_ELEMENTS` elements per
  operand array, so large shapes stay cache-resident; a ragged tail
  chunk is a group of its own.

**The bit-equality contract.**  The oracle::

    np.concatenate([core.matmul(a[s:e], b[s:e], rng=rng) for s, e in bounds])

is bit-identical to ``chunked_matmul(core, a, b, rng=rng,
chunk_size=c)``, and leaves ``rng`` in the same state: each chunk draws
what its own call would (magnitude A, magnitude B, phase A, phase B,
systematic), chunks in batch order, and every floating-point operation
is the per-matrix operation of the oracle.  An all-zero chunk draws
nothing and yields zeros.  With a single chunk (``chunk_size >=
batch``) the pass is the plain whole-batch call, bit for bit.

**Shared-memory transport.**  :func:`pack_arrays` / :func:`unpack_spec`
move process-backend shard operands through one
``multiprocessing.shared_memory`` segment per call instead of pickling
every array into the job queue.  Workers attach
read-only-by-convention views and never return memory that aliases
the segment.

:func:`profile_stages` times the four stages (sample / encode /
compute / detect) separately for the ``BENCH_hotpath.json`` breakdown
and the ``repro hotpath-bench`` CLI verb.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.dptc import DPTC, carries_batch_axis
from repro.obs.trace import current_tracer

try:  # pragma: no cover - absent only on exotic builds
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None

#: Working-set cap of one vectorised group: consecutive chunks join a
#: group while each operand array (and so its noise) stays within this
#: many elements; a group holds at least one chunk.
GROUP_ELEMENTS = 32 * 1024


def chunk_bounds(batch: int, chunk_size: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` chunks of at most ``chunk_size``.

    Every chunk except possibly the last is exactly ``chunk_size``
    stacks; the remainder rides in the final chunk.  ``batch == 0``
    yields no chunks.
    """
    if batch < 0:
        raise ValueError(f"batch must be >= 0, got {batch}")
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        (start, min(start + chunk_size, batch))
        for start in range(0, batch, chunk_size)
    ]


def slice_batch_operand(
    x: np.ndarray, batch_rank: int, start: int, stop: int
) -> np.ndarray:
    """The ``[start, stop)`` batch rows of one operand, or the whole.

    An operand participates in the chunk split only when it actually
    carries the leading batch axis (:func:`carries_batch_axis`);
    broadcast operands — a shared 2-D weight, a size-1 leading axis —
    pass whole, so each chunk encodes them once, exactly like the
    sequential per-chunk oracle would.
    """
    if carries_batch_axis(x.shape, batch_rank):
        return x[start:stop]
    return x


def _chunk_elements(shape: tuple[int, ...], batch_rank: int, chunk_size: int) -> int:
    """Elements one chunk adds to a group array of this operand."""
    if carries_batch_axis(shape, batch_rank):
        return chunk_size * math.prod(shape[1:])
    return math.prod(shape)  # broadcast: its noise is drawn per chunk


def chunked_matmul(
    core: DPTC,
    a: np.ndarray,
    b: np.ndarray,
    rng: np.random.Generator | None = None,
    *,
    chunk_size: int | None,
) -> np.ndarray:
    """Chunked ``a @ b`` on ``core``: one vectorised pass per chunk group.

    Args:
        core: the engine (any :class:`DPTC` subclass; calibrated cores
            calibrate each group through their own stage pair).
        a, b: stacked operands, as for :meth:`DPTC.matmul`.
        rng: noise stream; fresh unseeded generator if omitted.
        chunk_size: stacks per chunk along the leading batch axis;
            ``None`` runs the plain unchunked ``core.matmul``.

    Bit-identical to the sequential per-chunk oracle (module
    docstring).  Under an active tracer the call is one
    ``hotpath.matmul`` span over the ``stage.*`` spans of its groups.
    """
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out_shape = DPTC._broadcast_out_shape(a.shape, b.shape)
    batch = out_shape[:-2]
    if chunk_size is None or core.noise.is_ideal or not batch:
        # Nothing to chunk: the ideal path is a single exact matmul,
        # and matrix operands have no batch axis.
        return core.matmul(a, b, rng=rng)
    if rng is None:
        rng = np.random.default_rng()
    batch_rank = len(batch)
    widest = max(
        _chunk_elements(shape, batch_rank, chunk_size) for shape in (a.shape, b.shape)
    )
    span = chunk_size * max(1, GROUP_ELEMENTS // max(widest, 1))
    full = batch[0] - batch[0] % chunk_size
    bounds = chunk_bounds(full, span)
    if full < batch[0]:
        bounds.append((full, batch[0]))  # the ragged tail: a group of its own

    with current_tracer().span(
        "hotpath.matmul", batch=batch[0], chunk_size=chunk_size, groups=len(bounds)
    ):
        parts = [
            _run_group(
                core, a, b, rng, batch_rank, start, stop, min(chunk_size, stop - start)
            )
            for start, stop in bounds
        ]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)


def _run_group(
    core: DPTC,
    a: np.ndarray,
    b: np.ndarray,
    rng: np.random.Generator,
    batch_rank: int,
    start: int,
    stop: int,
    chunk_size: int,
) -> np.ndarray:
    """The chunks in ``[start, stop)``, computed in one pass.

    A group with an all-zero chunk draws nothing (the stage pair
    returns ``None``); its chunks then run one by one, so only the
    zero chunk skips its draw — exactly as in the per-chunk oracle.
    """
    a_group = slice_batch_operand(a, batch_rank, start, stop)
    b_group = slice_batch_operand(b, batch_rank, start, stop)
    prepared = core.prepare_chunk(a_group, b_group, rng=rng, chunk_size=chunk_size)
    if prepared is not None:
        return core.finish_chunk(prepared)
    if stop - start == chunk_size:
        return np.zeros(DPTC._broadcast_out_shape(a_group.shape, b_group.shape))
    return np.concatenate(
        [
            _run_group(core, a, b, rng, batch_rank, first, first + chunk_size, chunk_size)
            for first in range(start, stop, chunk_size)
        ],
        axis=0,
    )


# -- shared-memory transport (process backend) ----------------------------

#: Byte alignment of packed arrays inside a shared segment.
_ALIGN = 64


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


def pack_arrays(
    arrays: list[np.ndarray],
) -> tuple["shared_memory.SharedMemory", list[tuple[int, tuple[int, ...], str]]]:
    """Copy ``arrays`` into one fresh shared-memory segment.

    Returns the segment (caller owns it: ``close()`` + ``unlink()``
    after every consumer finished) and one ``(offset, shape, dtype)``
    spec per array, in order.  Copying is a straight memcpy per array —
    no pickle framing, no per-job serialisation on the hot path.
    """
    if shared_memory is None:  # pragma: no cover - guarded import
        raise RuntimeError("multiprocessing.shared_memory is unavailable")
    specs: list[tuple[int, tuple[int, ...], str]] = []
    total = 0
    for array in arrays:
        specs.append((total, array.shape, array.dtype.str))
        total += _aligned(array.nbytes)
    segment = shared_memory.SharedMemory(create=True, size=max(total, 1))
    for array, (offset, shape, dtype) in zip(arrays, specs):
        view = np.ndarray(shape, dtype=dtype, buffer=segment.buf, offset=offset)
        view[...] = array
    return segment, specs


def unpack_spec(
    segment: "shared_memory.SharedMemory",
    spec: tuple[int, tuple[int, ...], str],
) -> np.ndarray:
    """A view of one packed array inside an attached segment.

    The view aliases the segment — consumers must not return it (or
    anything sharing its memory) past ``segment.close()``.
    """
    offset, shape, dtype = spec
    return np.ndarray(shape, dtype=dtype, buffer=segment.buf, offset=offset)


def attach_segment(name: str) -> "shared_memory.SharedMemory":
    """Attach to an existing shared segment by name (worker side).

    Attaching must *not* register the segment with the resource
    tracker: the consumer does not own it, and duplicate registrations
    from several workers sharing one tracker collapse into one entry
    that the first close would tear down.  Python 3.13 exposes
    ``track=False`` for exactly this; earlier versions register
    unconditionally, so registration is suppressed for the duration of
    the attach (workers handle one job at a time, so the swap is safe).
    """
    if shared_memory is None:  # pragma: no cover - guarded import
        raise RuntimeError("multiprocessing.shared_memory is unavailable")
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def release_segment(
    segment: "shared_memory.SharedMemory", unlink: bool = False
) -> None:
    """Close a segment; ``unlink=True`` destroys it (owner side only)."""
    segment.close()
    if unlink:
        segment.unlink()


# -- stage profiling -------------------------------------------------------

#: Stage names of the per-stage breakdown, in execution order.
STAGES = ("sample", "encode", "compute", "detect")


def _best_of(fn, repeats: int) -> float:
    """Best-of-N wall-clock seconds of ``fn()``."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return min(samples)


def profile_stages(
    core: DPTC,
    a: np.ndarray,
    b: np.ndarray,
    seed: int = 0,
    repeats: int = 3,
) -> dict[str, float]:
    """Best-of-``repeats`` seconds per hot-path stage of one matmul.

    Stages are timed in isolation through the public stage API —
    SAMPLE via :meth:`DPTC.sample_noise`, ENCODE via
    :meth:`DPTC.prepare_chunk` with the pre-sampled draw, COMPUTE via
    :meth:`DPTC.compute_chunk` and DETECT via :meth:`DPTC.detect_chunk`
    on a fresh copy (DETECT scales in place).  Also reports the
    end-to-end ``total`` of a plain :meth:`DPTC.matmul` call, which the
    throughput figures divide by.

    An **ideal** (noiseless) engine has no SAMPLE/ENCODE stages — its
    matmul is one exact digital product — so the profile degrades to a
    COMPUTE/DETECT-only breakdown: ``compute`` times the exact product,
    ``detect`` is zero (no photodetection rescale on the ideal path),
    and the ``sample``/``encode`` keys are absent.  Consumers iterate
    the keys that are present (``repro hotpath-bench --noise off``).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    times: dict[str, float] = {}
    if core.noise.is_ideal:
        times["compute"] = _best_of(lambda: np.matmul(a, b), repeats)
        times["detect"] = 0.0
        times["total"] = _best_of(
            lambda: core.matmul(a, b, rng=np.random.default_rng(seed)), repeats
        )
        return times
    times["sample"] = _best_of(
        lambda: core.sample_noise(a.shape, b.shape, np.random.default_rng(seed)),
        repeats,
    )
    draw = core.sample_noise(a.shape, b.shape, np.random.default_rng(seed))
    times["encode"] = _best_of(
        lambda: core.prepare_chunk(a, b, draw=draw), repeats
    )
    prepared = core.prepare_chunk(a, b, draw=draw)
    times["compute"] = _best_of(lambda: core.compute_chunk(prepared), repeats)
    raw = core.compute_chunk(prepared)
    times["detect"] = _best_of(
        lambda: core.detect_chunk(prepared, raw.copy()), repeats
    )
    times["total"] = _best_of(
        lambda: core.matmul(a, b, rng=np.random.default_rng(seed)), repeats
    )
    return times
