"""T2/T2* parameter mapping from multi-echo magnitude images.

Log-linear least squares per voxel: ln S = ln S0 - TE / T, solved in
closed form over the echoes whose magnitudes clear the signal threshold
at every echo. Deterministic and embarrassingly parallel (vectorized).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GeometryError, NumericalError

T_CLAMP = (0.1, 10000.0)  # ms


@dataclass
class FitResult:
    """Per-voxel decay-fit maps; invalid voxels are zero everywhere."""

    t2_map: np.ndarray  # ms, clamped to T_CLAMP on valid voxels
    s0_map: np.ndarray
    r2_goodness: np.ndarray  # coefficient of determination in [0, 1]
    valid: np.ndarray  # bool, all echo magnitudes above threshold


def fit_decay(echo_images: np.ndarray, te_ms, threshold: float = 0.0
              ) -> FitResult:
    """Fit ln S = ln S0 - TE/T over the leading echo axis.

    ``echo_images`` is real [echo, ...spatial] with finite magnitudes
    >= 0; a voxel is fitted only when every echo magnitude exceeds
    ``threshold``, itself finite and >= 0.
    T is clamped to [0.1, 10000] ms; zero-variance voxels (constant
    signal) take the upper clamp with r2_goodness defined as 1.
    """
    s = np.asarray(echo_images, dtype=np.float64)
    te = np.asarray(te_ms, dtype=np.float64)
    if te.ndim != 1 or te.size < 2:
        raise ConfigError(f"need >= 2 echo times, got {te_ms}")
    if not np.isfinite(te).all():
        raise ConfigError(f"echo times must be finite, got {te_ms}")
    if len(np.unique(te)) != te.size:
        raise ConfigError(f"echo times must be distinct, got {te_ms}")
    if not (np.isfinite(threshold) and threshold >= 0):
        raise ConfigError(f"threshold must be finite and >= 0, got {threshold}")
    if s.ndim < 2 or s.shape[0] != te.size:
        raise GeometryError(
            f"images [echo, ...spatial] with {te.size} echoes required, "
            f"got shape {s.shape}"
        )
    if not np.isfinite(s).all():
        raise NumericalError("echo images hold non-finite values")
    if np.any(s < 0):
        raise GeometryError("echo images must be non-negative magnitudes")

    valid = np.all(s > threshold, axis=0)
    shape = s.shape[1:]
    t2 = np.zeros(shape)
    s0 = np.zeros(shape)
    r2 = np.zeros(shape)
    if not valid.any():
        return FitResult(t2, s0, r2, valid)

    logs = np.log(s[:, valid])  # [echo, n]
    tbar = te.mean()
    lbar = logs.mean(axis=0)
    dt = te - tbar
    dl = logs - lbar
    stt = float(np.sum(dt**2))
    slope = (dt @ dl) / stt  # d lnS / d TE = -1/T
    intercept = lbar - slope * tbar

    ss_tot = np.sum(dl**2, axis=0)
    resid = dl - dt[:, None] * slope
    ss_res = np.sum(resid**2, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        r2v = np.where(ss_tot > 0, 1.0 - ss_res / ss_tot, 1.0)

    with np.errstate(divide="ignore"):
        tv = np.where(slope < 0, -1.0 / slope, np.inf)
    tv = np.clip(tv, *T_CLAMP)

    t2[valid] = tv
    s0[valid] = np.exp(intercept)
    r2[valid] = np.clip(r2v, 0.0, 1.0)
    return FitResult(t2, s0, r2, valid)
