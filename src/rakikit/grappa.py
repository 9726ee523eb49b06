"""Tikhonov-regularized GRAPPA kernel calibration and application.

Acquired positions of every supported pattern form a 2D integer lattice
on the phase axes; :mod:`rakikit.sampling` owns that geometry. One weight
matrix maps ``taps`` readout samples by ``blocks`` lattice neighbours of
an anchor to all missing offsets of its fundamental cell, all coils at
once. It is fitted on every ACS window in the acquired frame and applied
as one windowed matmul on the zero-extended decimated anchor grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import GeometryError, NumericalError
from .sampling import (SamplingMask, acquired_coords, cell_offsets, extract_acs,
                       lattice_basis, lattice_cells, steps)
from .tensors import CTensor, crop_center

DEFAULT_BLOCKS = (4, 4)
DEFAULT_TAPS = 5
DEFAULT_LAMBDA = 1e-6

# cap on calibration windows; beyond this the ACS is strided deterministically
MAX_WINDOWS = 8192
# readout planes per windowed matmul of the fill; bounds its window copy
FILL_KX_CHUNK = 4


def _block_offsets(n: int) -> np.ndarray:
    """n source blocks around the anchor, e.g. 4 -> [-1, 0, 1, 2]."""
    lo = -((n - 1) // 2)
    return np.arange(lo, lo + n)


@dataclass(frozen=True)
class GrappaKernel:
    """Calibrated weights: all missing offsets stacked in one matrix."""

    weights: np.ndarray  # [(R - 1) * Nc, Nc * nsrc]; rows (cell offset, coil)
    src: np.ndarray  # [nsrc, 3] source offsets (dx, dp1, dp2) from the anchor
    r1: int
    r2: int
    shift: int
    kind: str
    n_coils: int


def _source_offsets(v1, v2, blocks, taps) -> np.ndarray:
    """Readout taps by lattice blocks around the anchor, in C order."""
    x, i, j = np.meshgrid(*map(_block_offsets, (taps, *blocks)), indexing="ij")
    out = np.stack([x, i * v1[0] + j * v2[0], i * v1[1] + j * v2[1]], axis=-1)
    return out.reshape(-1, 3)


def grappa_calibrate(acs: np.ndarray, mask: SamplingMask,
                     blocks=DEFAULT_BLOCKS, taps: int = DEFAULT_TAPS,
                     lam: float = DEFAULT_LAMBDA) -> GrappaKernel:
    """Solve the regularized fits over all ACS sliding windows.

    ``acs``: fully sampled complex array [coil, kx, p1, p2]. The ridge
    weight is ``lam * mean(diag(A^H A))`` so lam is dimensionless.
    """
    acs = np.asarray(acs, dtype=np.complex128)
    nc, nx, n1, n2 = acs.shape
    src = _source_offsets(*lattice_basis(mask), blocks, taps)
    tgt = np.array(cell_offsets(mask)[1:], dtype=int).reshape(-1, 2)

    all_d1 = np.concatenate([src[:, 1], tgt[:, 0], [0]])
    all_d2 = np.concatenate([src[:, 2], tgt[:, 1], [0]])
    ax = np.arange(-src[:, 0].min(), nx - src[:, 0].max())
    a1 = np.arange(-all_d1.min(), n1 - all_d1.max())
    a2 = np.arange(-all_d2.min(), n2 - all_d2.max())
    n_unknown = nc * len(src)
    needed = max(64, n_unknown)
    avail = len(ax) * len(a1) * len(a2)
    if avail < needed:
        raise GeometryError(
            f"insufficient ACS: {avail} calibration windows available, "
            f"{needed} required for {n_unknown} unknowns"
        )

    anchors = np.stack(np.meshgrid(ax, a1, a2, indexing="ij"), axis=-1).reshape(-1, 3)
    if len(anchors) > MAX_WINDOWS:
        stride = int(np.ceil(len(anchors) / MAX_WINDOWS))
        anchors = anchors[::stride]

    gx = anchors[:, 0:1] + src[None, :, 0]
    g1 = anchors[:, 1:2] + src[None, :, 1]
    g2 = anchors[:, 2:3] + src[None, :, 2]
    A = acs[:, gx, g1, g2]  # [nc, W, nsrc]
    A = np.transpose(A, (1, 0, 2)).reshape(len(anchors), n_unknown)

    AhA = A.conj().T @ A
    ridge = lam * float(np.mean(np.real(np.diag(AhA))))
    AhA_reg = AhA + ridge * np.eye(n_unknown)

    try:
        cho = scipy.linalg.cho_factor(AhA_reg, check_finite=False)

        def solve(rhs):
            return scipy.linalg.cho_solve(cho, rhs, check_finite=False)

    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
        evals, evecs = np.linalg.eigh(AhA_reg)
        floor = max(float(evals.max()), 1.0) * 1e-14

        def solve(rhs):
            coeff = evecs.conj().T @ rhs
            coeff = coeff / np.maximum(evals, floor)[:, None]
            return evecs @ coeff

    tvals = acs[:, anchors[:, None, 0], anchors[:, None, 1] + tgt[:, 0],
                anchors[:, None, 2] + tgt[:, 1]]  # [nc, W, ntgt]
    rhs = A.conj().T @ np.transpose(tvals, (1, 2, 0)).reshape(len(anchors), -1)
    weights = solve(rhs).T  # [(R - 1) * nc, n_unknown], rows (offset, coil)
    if not np.all(np.isfinite(weights)):
        raise NumericalError("non-finite GRAPPA weights")
    return GrappaKernel(np.ascontiguousarray(weights), src, mask.r1, mask.r2,
                        mask.shift, mask.kind, nc)


def _fill_missing(kdata: np.ndarray, mask: SamplingMask,
                  kernel: GrappaKernel) -> np.ndarray:
    """Fill unsampled entries of [coil, kx, p1, p2] on the decimated lattice.

    The acquired lattice points are scattered onto the anchor grid of
    :func:`lattice_cells` (zero off the pattern grid, so zero-extended),
    where every source stencil is one rectangular window.
    """
    nc, nx = kdata.shape[:2]
    u, v, k = lattice_cells(mask)
    s1, s2 = steps(mask)
    d1, d2 = acquired_coords(mask, kernel.src[:, 1], kernel.src[:, 2], inverse=True)
    win = np.stack([kernel.src[:, 0], d1 // s1, d2 // s2])  # decimated offsets
    lo, shape = -win.min(axis=1), np.ptp(win, axis=1) + 1
    u, v = u - u.min(), v - v.min()  # window (u, v) is the stencil of anchor (u, v)
    grid = np.zeros((nc, nx + shape[0] - 1, u.max() + shape[1], v.max() + shape[2]),
                    dtype=kdata.dtype)
    lat = k == 0
    grid[:, lo[0] : lo[0] + nx, u[lat] + lo[1], v[lat] + lo[2]] = kdata[:, :, lat]

    fill = (k > 0) & ~mask.grid
    tu, tv, tk = u[fill], v[fill], k[fill] - 1
    out = kdata.copy()
    for x0 in range(0, nx, FILL_KX_CHUNK):
        S = np.lib.stride_tricks.sliding_window_view(
            grid[:, x0 : x0 + FILL_KX_CHUNK + shape[0] - 1], tuple(shape),
            axis=(1, 2, 3))
        S = np.moveaxis(S, 0, 3)  # [x, u, v, coil, taps, block1, block2]
        pred = S.reshape(*S.shape[:3], -1) @ kernel.weights.T
        pred = pred.reshape(*pred.shape[:3], -1, nc)[:, tu, tv, tk]  # [x, n, nc]
        out[:, x0 : x0 + FILL_KX_CHUNK, fill] = np.moveaxis(pred, 2, 0)
    return out


def _to_internal(x: CTensor, mask: SamplingMask) -> CTensor:
    """Transpose to [coil, kx, p1, p2]."""
    order = ("coil", "kx", *mask.axes)
    extra = [a for a in x.axes if a not in order]
    if extra:
        raise GeometryError(f"unexpected axes {extra}; reduce echo first")
    return x.transpose(order)


def grappa_apply(kspace_masked: CTensor, mask: SamplingMask,
                 kernel: GrappaKernel) -> CTensor:
    """Fill missing k-space by kernel interpolation; acquired entries kept.

    Never-acquired elliptical corners stay zero.
    """
    if (kernel.r1, kernel.r2, kernel.shift, kernel.kind) != (
        mask.r1, mask.r2, mask.shift, mask.kind
    ):
        raise GeometryError(
            f"kernel pattern ({kernel.r1}x{kernel.r2}, shift {kernel.shift}, "
            f"{kernel.kind}) does not match mask ({mask.r1}x{mask.r2}, "
            f"shift {mask.shift}, {mask.kind})"
        )
    xi = _to_internal(kspace_masked, mask)
    filled = _fill_missing(xi.data, mask, kernel)
    filled[:, :, mask.never_acquired] = 0.0  # [coil, kx, p1, p2]
    return xi.with_data(filled).transpose(kspace_masked.axes)


def grappa_recon(kspace_masked: CTensor, mask: SamplingMask,
                 blocks=DEFAULT_BLOCKS, taps: int = DEFAULT_TAPS,
                 lam: float = DEFAULT_LAMBDA, acs_kx: int | None = None) -> CTensor:
    """Calibrate from the mask's ACS box and apply, in one call.

    ``acs_kx`` optionally restricts the calibration readout window (the
    ky-t use case, e.g. a 32-sample central kx window).
    """
    acs = extract_acs(kspace_masked, mask)
    if acs_kx is not None:
        acs = crop_center(acs, {"kx": acs_kx})
    acsi = _to_internal(acs, mask)
    kernel = grappa_calibrate(acsi.data, mask, blocks, taps, lam)
    return grappa_apply(kspace_masked, mask, kernel)

