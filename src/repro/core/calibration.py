"""Dispersion calibration: compensating the deterministic non-idealities.

Sec. V-E notes that "more advanced noise-mitigation techniques can be
applied to further boost the accuracy and robustness".  This module
implements the obvious first step: the WDM dispersion error of Eq. 9 is
*deterministic* once the channel map is known, so it can be calibrated
out:

* the multiplicative factor ``-2*t_i*k_i*sin(phi_i)`` is inverted by
  pre-scaling one operand's channels (:func:`channel_gains`);
* the additive ``-(2*kappa_i - 1)*(x^2 - y^2)/2`` term is computed
  digitally from the encoded operands and subtracted
  (:func:`additive_correction`).

:class:`CalibratedDPTC` wires both into the tensor-core execution; with
dispersion-only noise it recovers exact arithmetic, and under the full
stochastic noise model it removes the deterministic bias.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dispersion import DispersionProfile
from repro.core.dptc import DPTC, DPTCGeometry, DPTCNoiseDraw, PreparedMatmul
from repro.core.noise import NoiseModel
from repro.optics.wdm import WDMGrid


def channel_gains(profile: DispersionProfile, length: int) -> np.ndarray:
    """Per-element gains inverting the multiplicative dispersion factor.

    The contraction dimension maps cyclically onto WDM channels, so the
    gain vector is the channel profile tiled to ``length``.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    factor = np.resize(profile.multiplicative_factor, length)
    if np.any(np.abs(factor) < 1e-6):
        raise ValueError("dispersion factor too small to invert")
    return 1.0 / factor


def additive_correction(
    a_hat: np.ndarray, b_hat: np.ndarray, profile: DispersionProfile
) -> np.ndarray:
    """The Eq. 9 additive error of ``a_hat @ b_hat``, computed digitally.

    Args:
        a_hat, b_hat: the *encoded* (normalised) operands, optionally
            stacked with leading batch axes.

    Returns:
        The ``[..., m, n]`` additive term the analog output contains;
        callers subtract it from the measured result.
    """
    a_hat = np.asarray(a_hat, dtype=float)
    b_hat = np.asarray(b_hat, dtype=float)
    d = a_hat.shape[-1]
    weight = np.resize(profile.additive_factor, d)
    row_term = 0.5 * ((a_hat**2) @ weight)
    col_term = 0.5 * (weight @ (b_hat**2))
    return row_term[..., :, None] - col_term[..., None, :]


@dataclass
class CalibratedPrepared:
    """A prepared chunk plus the digital correction its DETECT subtracts."""

    inner: PreparedMatmul
    correction: np.ndarray


class CalibratedDPTC(DPTC):
    """A DPTC with dispersion calibration applied around every matmul.

    Compensation is applied to operand B (pre-encoding channel gains)
    and to the measured output (digital subtraction of the additive
    term).  Both use only the *known* dispersion profile — stochastic
    encoding noise remains, as in hardware.

    The calibration is woven into the hot-path stage pair
    (:meth:`prepare_chunk` / :meth:`finish_chunk`) rather than wrapped
    around :meth:`matmul`, so chunked execution calibrates each chunk
    exactly like the whole-batch call would.  The
    compensated operand has the same shape and the same zero set as the
    raw one (channel gains are finite and nonzero), so the sampling
    order and the all-zero short-circuit are untouched.
    """

    def __init__(
        self,
        geometry: DPTCGeometry | None = None,
        noise: NoiseModel | None = None,
        grid: WDMGrid | None = None,
    ) -> None:
        super().__init__(geometry, noise, grid)

    def prepare_chunk(
        self,
        a: np.ndarray,
        b: np.ndarray,
        rng: np.random.Generator | None = None,
        draw: DPTCNoiseDraw | None = None,
        chunk_size: int | None = None,
    ) -> CalibratedPrepared | PreparedMatmul | None:
        if not self.noise.include_dispersion:
            return super().prepare_chunk(
                a, b, rng=rng, draw=draw, chunk_size=chunk_size
            )
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        d = a.shape[-1]
        gains = channel_gains(self.profile, d)
        # Pre-compensate operand B so the analog multiplicative factor
        # cancels; the uncalibrated engine then runs as-is.
        b_comp = b * gains[:, None]
        inner = super().prepare_chunk(
            a, b_comp, rng=rng, draw=draw, chunk_size=chunk_size
        )
        if inner is None:
            # All-zero short-circuit: the correction below would be
            # fully masked to zero anyway, so zeros are the answer.
            return None

        # Digitally remove the additive dispersion term.  It arises from
        # the *encoded* values: reproduce the engine's per-matrix
        # normalisation (all-zero slices need no correction).
        beta_a = np.max(np.abs(a), axis=(-2, -1), keepdims=True)
        beta_b = np.max(np.abs(b_comp), axis=(-2, -1), keepdims=True)
        correction = additive_correction(
            a / np.where(beta_a == 0.0, 1.0, beta_a),
            b_comp / np.where(beta_b == 0.0, 1.0, beta_b),
            self.profile,
        )
        correction = np.where(
            (beta_a == 0.0) | (beta_b == 0.0),
            0.0,
            correction * (beta_a * beta_b),
        )
        return CalibratedPrepared(inner=inner, correction=correction)

    def finish_chunk(
        self, prepared: CalibratedPrepared | PreparedMatmul
    ) -> np.ndarray:
        if isinstance(prepared, CalibratedPrepared):
            return super().finish_chunk(prepared.inner) - prepared.correction
        return super().finish_chunk(prepared)


def dispersion_error_reduction(
    geometry: DPTCGeometry,
    m: int = 32,
    d: int = 48,
    n: int = 32,
    seed: int = 0,
) -> tuple[float, float]:
    """(uncalibrated, calibrated) relative errors under dispersion only.

    A convenience for the ablation benchmark: quantifies how much of the
    dispersion-induced error the calibration removes.
    """
    noise = NoiseModel(
        encoding=NoiseModel.ideal().encoding,
        systematic=NoiseModel.ideal().systematic,
        include_dispersion=True,
    )
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, size=(m, d))
    b = rng.uniform(-1, 1, size=(d, n))
    reference = a @ b
    scale = np.linalg.norm(reference)
    plain = DPTC(geometry, noise).matmul(a, b)
    calibrated = CalibratedDPTC(geometry, noise).matmul(a, b)
    return (
        float(np.linalg.norm(plain - reference) / scale),
        float(np.linalg.norm(calibrated - reference) / scale),
    )
