"""Tikhonov-regularized GRAPPA kernel calibration and application.

Acquired positions of every supported pattern form a 2D integer lattice
on the phase axes; :mod:`rakikit.sampling` owns that geometry. One weight
matrix maps ``taps`` readout samples by ``blocks`` lattice neighbours of
an anchor to all missing offsets of its fundamental cell, all coils at
once. It is fitted on every ACS window in the acquired frame, from normal
equations that BLAS forms straight from the window matrix (``zherk`` for
one triangle of A^H A, ``zgemm`` for A^H T; no conjugate copy of A). The
fill runs on the zero-extended decimated anchor grid, at the anchors that
own a position to fill: each readout plane's (u, v) block window is
gathered once per chunk, and tap t's weights apply, as one GEMM, to the
planes shifted by t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import zgemm, zherk

from .errors import GeometryError, NumericalError
from .sampling import (SamplingMask, acquired_coords, cell_offsets, extract_acs,
                       internal_view, lattice_basis, lattice_cells, steps)
from .tensors import CTensor, crop_center

DEFAULT_BLOCKS = (4, 4)
DEFAULT_TAPS = 5
DEFAULT_LAMBDA = 1e-6

# cap on calibration windows; beyond this the ACS is strided deterministically
MAX_WINDOWS = 8192
# readout planes per chunk of the fill; bounds its block-window buffer
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
    windows: int  # calibration windows fitted
    residual: float  # ||A X - T|| / ||T|| of the ridge fit over those windows


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
    weight is ``lam * mean(diag(A^H A))`` so lam is dimensionless. The
    fit runs on the windows scaled by a power of two near 1/max|acs|, so
    it holds at any magnitude float64 can hold.
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

    # gathered [(coil, src), W] and [(offset, coil), W], so that A [W, coil * src]
    # and T [W, offset * coil] are Fortran-ordered and reach BLAS uncopied
    coil = np.arange(nc)[:, None]
    wx, w1, w2 = anchors.T
    A = acs[coil[:, None], wx + src[:, 0:1], w1 + src[:, 1:2], w2 + src[:, 2:3]]
    A = A.reshape(n_unknown, -1).T
    T = acs[coil, wx, w1 + tgt[:, 0, None, None], w2 + tgt[:, 1, None, None]]
    T = T.reshape(-1, len(anchors)).T
    # the weights are scale-invariant: a power of two that brings max|acs|
    # into [0.5, 1) keeps A^H A finite at any magnitude, and as it scales
    # exactly it changes no bit of the weights or the residual
    peak = float(np.max(np.abs(acs)))
    if peak > 0:
        scale = np.ldexp(1.0, -np.frexp(peak)[1])
        A *= scale
        T *= scale

    AhA = zherk(1.0, A, trans=2)  # upper triangle of A^H A
    AhA += np.triu(AhA, 1).conj().T
    ridge = lam * float(np.mean(np.real(np.diag(AhA))))
    AhA_reg = AhA + ridge * np.eye(n_unknown)

    AhT = zgemm(1.0, A, T, trans_a=2)
    try:
        cho = scipy.linalg.cho_factor(AhA_reg, check_finite=False)
        X = scipy.linalg.cho_solve(cho, AhT, check_finite=False)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
        evals, evecs = np.linalg.eigh(AhA_reg)
        floor = max(float(evals.max()), 1.0) * 1e-14
        X = evecs @ ((evecs.conj().T @ AhT) / np.maximum(evals, floor)[:, None])
    # X: [n_unknown, (R - 1) * nc], columns (offset, coil)
    if not np.all(np.isfinite(X)):
        raise NumericalError("non-finite GRAPPA weights")
    # ||AX - T||^2 expanded over the normal equations: no second pass over A
    tt = np.linalg.norm(T) ** 2
    r2 = tt - 2 * np.vdot(X, AhT).real + np.vdot(X, AhA @ X).real
    residual = float(np.sqrt(max(r2, 0.0) / tt)) if tt > 0 else 0.0
    return GrappaKernel(np.ascontiguousarray(X.T), src, mask.r1, mask.r2,
                        mask.shift, mask.kind, nc, len(anchors), residual)


def _fill_missing(kdata: np.ndarray, mask: SamplingMask,
                  kernel: GrappaKernel) -> np.ndarray:
    """Fill unsampled entries of [coil, kx, p1, p2] on the decimated lattice.

    The acquired lattice points are scattered onto the anchor grid of
    :func:`lattice_cells` (zero off the pattern grid, so zero-extended),
    where every source stencil is one rectangular window: readout taps by
    a (u, v) block window. Only anchors that own a position to fill are
    evaluated; their block windows are gathered once per readout plane and
    ``pred = sum_t C[t : t + n] @ W_t``, one GEMM per tap.
    """
    nc, nx = kdata.shape[:2]
    u, v, k = lattice_cells(mask)
    fill = (k > 0) & ~mask.grid
    out = kdata.copy()
    if not fill.any():
        return out
    s1, s2 = steps(mask)
    d1, d2 = acquired_coords(mask, kernel.src[:, 1], kernel.src[:, 2], inverse=True)
    win = np.stack([kernel.src[:, 0], d1 // s1, d2 // s2])  # decimated offsets
    lo = -win.min(axis=1)
    taps, b1, b2 = np.ptp(win, axis=1) + 1
    u, v = u - u.min(), v - v.min()  # window (u, v) is the stencil of anchor (u, v)
    nu, nv = u.max() + b1, v.max() + b2
    grid = np.zeros((nx + taps - 1, nu, nv, nc), dtype=kdata.dtype)  # coil last
    lat = k == 0
    grid[lo[0] : lo[0] + nx, u[lat] + lo[1], v[lat] + lo[2]] = np.moveaxis(
        kdata[:, :, lat], 0, -1)
    grid = grid.reshape(len(grid), nu * nv, nc)

    # the anchors owning a fill position, and the block window of each
    used, anchor = np.unique(u[fill] * nv + v[fill], return_inverse=True)
    i, j = np.ogrid[:b1, :b2]
    cells = used[:, None] + (i * nv + j).ravel()  # [anchor, (block1, block2)]
    nout = len(kernel.weights)
    W = np.zeros((taps, b1, b2, nc, nout), dtype=kernel.weights.dtype)
    W[tuple(win + lo[:, None])] = kernel.weights.reshape(nout, nc, -1).T
    W = W.reshape(taps, -1, nout)  # tap t: W_t^T, rows (block1, block2, coil)

    tk = k[fill] - 1
    # one buffer for every chunk: fresh ones fragment the heap and raise peak RSS
    buf = np.empty((min(FILL_KX_CHUNK, nx) + taps - 1, *cells.shape, nc), grid.dtype)
    for x0 in range(0, nx, FILL_KX_CHUNK):
        n = min(FILL_KX_CHUNK, nx - x0)
        C = np.take(grid[x0 : x0 + n + taps - 1], cells, axis=1,
                    out=buf[: n + taps - 1], mode="clip")  # in range; unbuffered
        # C: [plane, anchor, (block1, block2), coil]
        pred = C[:n].reshape(n * len(used), -1) @ W[0]
        for t in range(1, taps):
            pred += C[t : t + n].reshape(n * len(used), -1) @ W[t]
        pred = pred.reshape(n, len(used), -1, nc)[:, anchor, tk]  # [x, n, nc]
        out[:, x0 : x0 + n, fill] = np.moveaxis(pred, 2, 0)
    return out


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
    if kspace_masked.has_axis("echo"):
        raise GeometryError("unexpected axes ['echo']; reduce echo first")
    filled = _fill_missing(internal_view(kspace_masked, mask), mask, kernel)
    filled[:, :, mask.never_acquired] = 0.0
    return CTensor(filled, ("coil", "kx", *mask.axes)).transpose(kspace_masked.axes)


def grappa_kernel(kspace_masked: CTensor, mask: SamplingMask,
                  blocks=DEFAULT_BLOCKS, taps: int = DEFAULT_TAPS,
                  lam: float = DEFAULT_LAMBDA, acs_kx: int | None = None
                  ) -> GrappaKernel:
    """Calibrate on the mask's ACS box of masked k-space.

    ``acs_kx`` optionally restricts the calibration readout window (the
    ky-t use case, e.g. a 32-sample central kx window).
    """
    if kspace_masked.has_axis("echo"):
        raise GeometryError("unexpected axes ['echo']; reduce echo first")
    acs = extract_acs(kspace_masked, mask)
    if acs_kx is not None:
        acs = crop_center(acs, {"kx": acs_kx})
    return grappa_calibrate(internal_view(acs, mask), mask, blocks, taps, lam)


def grappa_recon(kspace_masked: CTensor, mask: SamplingMask,
                 blocks=DEFAULT_BLOCKS, taps: int = DEFAULT_TAPS,
                 lam: float = DEFAULT_LAMBDA, acs_kx: int | None = None) -> CTensor:
    """:func:`grappa_kernel` then :func:`grappa_apply`, in one call."""
    kernel = grappa_kernel(kspace_masked, mask, blocks, taps, lam, acs_kx)
    return grappa_apply(kspace_masked, mask, kernel)
