"""Tikhonov-regularized GRAPPA kernel calibration and application.

Acquired positions of every supported pattern form a 2D integer lattice
on the phase axes; :mod:`rakikit.sampling` owns that geometry. One weight
matrix maps ``taps`` readout samples by ``blocks`` lattice neighbours of
an anchor to all missing offsets of its fundamental cell, all coils at
once. It is fitted on the ACS windows, every readout start by every
(p1, p2) anchor, from normal equations factored over the taps: each
readout plane's block windows are gathered once, and one GEMM per plane
gives its products with the next ``taps`` planes, which every tap pair
shares, so the window matrix is never formed. The fill runs in hybrid
space on the zero-extended decimated anchor grid: transformed along kx,
the tap sum becomes one GEMM per readout frequency at the anchors that own
a position to fill. All products run on numpy's BLAS: scipy loads an
OpenBLAS of its own, whose thread pool would fight numpy's, so of scipy
only ``scipy.fft`` (pocketfft, no BLAS) is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import ConfigError, GeometryError, NumericalError
from .sampling import (SamplingMask, acquired_coords, cell_offsets, extract_acs,
                       internal_view, lattice_basis, lattice_cells, steps)
from .tensors import CTensor, crop_center, thread_count

DEFAULT_BLOCKS = (4, 4)
DEFAULT_TAPS = 5
DEFAULT_LAMBDA = 1e-6

# cap on calibration windows; beyond it the (p1, p2) anchors are strided
MAX_WINDOWS = 8192
# readout frequencies per chunk of the fill; bounds its block-window buffer
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
    residual: float  # ||AX - T||/||T|| from the normal equations: floor about 1e-8


def _source_offsets(v1, v2, blocks, taps) -> np.ndarray:
    """Readout taps by lattice blocks around the anchor, in C order."""
    x, i, j = np.meshgrid(*map(_block_offsets, (taps, *blocks)), indexing="ij")
    out = np.stack([x, i * v1[0] + j * v2[0], i * v1[1] + j * v2[1]], axis=-1)
    return out.reshape(-1, 3)


def grappa_calibrate(acs: np.ndarray, mask: SamplingMask,
                     blocks=DEFAULT_BLOCKS, taps: int = DEFAULT_TAPS,
                     lam: float = DEFAULT_LAMBDA) -> GrappaKernel:
    """Solve the regularized fits over all ACS sliding windows.

    ``acs``: fully sampled complex array [coil, kx, p1, p2]. A window is a
    readout start times a (p1, p2) anchor; above ``MAX_WINDOWS`` only the
    (p1, p2) anchors are strided, so the windows stay a product set. The
    ridge weight is ``lam * mean(diag(A^H A))`` so lam is dimensionless.
    A positive ridge makes the system positive definite, solved by LU; at
    ``lam = 0`` a pseudo-inverse through ``eigh`` drops the directions
    below 1e-14 of the largest eigenvalue.
    The fit runs on the windows scaled by a power of two near 1/max|acs|,
    so it holds at any magnitude float64 can hold. The window matrix A is
    never formed: with Z_x the block windows of readout plane x, block
    (t, t') of A^H A is the sum over window starts w of
    Z_{w+t}^H Z_{w+t'}, so each plane y takes one GEMM,
    Z_y^H [Z_y .. Z_{y+taps-1}], that serves every tap pair.
    """
    if not lam >= 0:  # NaN included
        raise ConfigError(f"lam must be >= 0, got {lam}")
    acs = np.asarray(acs, dtype=np.complex128)
    nc, nx, n1, n2 = acs.shape
    src = _source_offsets(*lattice_basis(mask), blocks, taps)
    tgt = np.array(cell_offsets(mask)[1:], dtype=int).reshape(-1, 2)
    nb = len(src) // taps
    blk = src[:nb, 1:]  # lattice offsets of the blocks; every tap has the same

    all_d1 = np.concatenate([blk[:, 0], tgt[:, 0], [0]])
    all_d2 = np.concatenate([blk[:, 1], tgt[:, 1], [0]])
    nw = max(nx - taps + 1, 0)  # readout windows; window w reads planes w .. w + taps - 1
    a1 = np.arange(-all_d1.min(), n1 - all_d1.max())
    a2 = np.arange(-all_d2.min(), n2 - all_d2.max())
    n_unknown = nc * len(src)
    needed = max(64, n_unknown)
    avail = nw * len(a1) * len(a2)
    if avail < needed:
        raise GeometryError(
            f"insufficient ACS: {avail} calibration windows available, "
            f"{needed} required for {n_unknown} unknowns"
        )

    anchors = np.stack(np.meshgrid(a1, a2, indexing="ij"), axis=-1).reshape(-1, 2)
    if avail > MAX_WINDOWS:
        anchors = anchors[:: -(-len(anchors) // max(MAX_WINDOWS // nw, 1))]

    # Z [anchor, plane, (coil, block)] and each window's targets
    # Y [anchor, w, (offset, coil)], at plane w + (taps - 1) // 2
    flat = acs.reshape(nc, nx, n1 * n2)
    cell = anchors @ [n2, 1]
    Z = flat.take(cell[:, None] + blk @ [n2, 1], axis=2)  # [coil, plane, anchor, block]
    Z = np.ascontiguousarray(Z.transpose(2, 1, 0, 3)).reshape(len(anchors), nx, -1)
    Y = flat[:, (taps - 1) // 2 :][:, :nw].take(cell[:, None] + tgt @ [n2, 1], axis=2)
    Y = np.ascontiguousarray(Y.transpose(2, 1, 3, 0)).reshape(len(anchors), nw, -1)
    # the weights are scale-invariant: a power of two that brings max|acs|
    # into [0.5, 1) keeps A^H A finite at any magnitude, and as it scales
    # exactly it changes no bit of the weights or the residual
    peak = float(np.max(np.abs(acs)))
    if peak > 0:
        scale = np.ldexp(1.0, -np.frexp(peak)[1])
        Z *= scale
        Y *= scale

    # unknowns in (tap, coil, block) order until the solve is done; the
    # upper blocks of A^H A are accumulated, then mirrored
    m = nc * nb
    AhA = np.zeros((n_unknown, n_unknown), dtype=np.complex128)
    ThA = np.zeros((Y.shape[2], n_unknown), dtype=np.complex128)  # (A^H T)^H
    # the planes every tap reads (taps - 1 <= y < nw) are summed once
    inner = np.zeros((m, n_unknown), dtype=np.complex128)
    for y in range(nx):
        lhs = Z[:, y] if y >= nw else np.concatenate((Z[:, y], Y[:, y]), axis=1)
        G = lhs.conj().T @ Z[:, y : y + taps].reshape(len(Z), -1)
        if y < nw:
            ThA += G[m:]
        # plane y is tap t of window y - t, with 0 <= y - t < nw
        ts = range(max(0, y - nw + 1), min(y, taps - 1) + 1)
        if len(ts) == taps:
            inner += G[:m]
            continue
        for t in ts:
            AhA[t * m : (t + 1) * m, t * m :] += G[:m, : (taps - t) * m]
    for t in range(taps):
        AhA[t * m : (t + 1) * m, t * m :] += inner[:, : (taps - t) * m]
    AhA = np.triu(AhA) + np.triu(AhA, 1).conj().T
    AhT = ThA.conj().T
    ridge = lam * float(np.mean(np.real(np.diag(AhA))))
    AhA_reg = AhA + ridge * np.eye(n_unknown)

    if ridge > 0:  # positive definite
        X = np.linalg.solve(AhA_reg, AhT)
    else:
        # lam = 0 or no signal: drop the directions below the floor, which
        # an LU solve would amplify
        evals, evecs = np.linalg.eigh(AhA_reg)
        floor = max(float(evals.max()), 1.0) * 1e-14
        inv = np.zeros_like(evals)
        inv[evals > floor] = 1 / evals[evals > floor]
        X = evecs @ ((evecs.conj().T @ AhT) * inv[:, None])
    if not np.all(np.isfinite(X)):
        raise NumericalError("non-finite GRAPPA weights")
    # ||AX - T||^2 expanded over the normal equations: no second pass over A
    tt = np.linalg.norm(Y) ** 2
    r2 = tt - 2 * np.vdot(X, AhT).real + np.vdot(X, AhA @ X).real
    residual = float(np.sqrt(max(r2, 0.0) / tt)) if tt > 0 else 0.0
    # X: [(tap, coil, block), (offset, coil)] -> weights [(offset, coil), (coil, src)]
    X = X.reshape(taps, nc, nb, -1).transpose(3, 1, 0, 2).reshape(-1, n_unknown)
    return GrappaKernel(np.ascontiguousarray(X), src, mask.r1, mask.r2,
                        mask.shift, mask.kind, nc, nw * len(anchors), residual)


def _fill_missing(kdata: np.ndarray, mask: SamplingMask,
                  kernel: GrappaKernel) -> np.ndarray:
    """Fill unsampled entries of [coil, kx, p1, p2] on the decimated lattice.

    The acquired lattice points are scattered onto the anchor grid of
    :func:`lattice_cells` (zero off the pattern grid, so zero-extended),
    where every source stencil is one rectangular window: readout taps by
    a (u, v) block window. Along kx the stencil is a correlation,
    ``pred[x] = sum_t C[x + t - lo] @ W_t``, so it runs in hybrid space:
    the grid, zero-padded along kx to L = nx + taps - 1 planes so that the
    circular correlation wraps onto zeros only, is transformed along kx;
    frequency f takes one GEMM with
    ``W_f = sum_t W_t exp(2 pi i f (t - lo) / L)`` over the block windows
    of the anchors that own a position to fill; the inverse transform
    gives pred on planes 0 .. nx - 1.
    """
    nc, nx = kdata.shape[:2]
    u, v, k = lattice_cells(mask)
    fill = (k > 0) & ~mask.grid
    if not fill.any():
        return kdata.copy()
    s1, s2 = steps(mask)
    d1, d2 = acquired_coords(mask, kernel.src[:, 1], kernel.src[:, 2], inverse=True)
    win = np.stack([kernel.src[:, 0], d1 // s1, d2 // s2])  # decimated offsets
    lo = -win.min(axis=1)
    taps, b1, b2 = np.ptp(win, axis=1) + 1
    u, v = u - u.min(), v - v.min()  # window (u, v) is the stencil of anchor (u, v)
    nu, nv = u.max() + b1, v.max() + b2
    n_freq = nx + taps - 1
    grid = np.zeros((n_freq, nu * nv, nc), dtype=kdata.dtype)  # coil last
    lat = k == 0
    grid[:nx, (u[lat] + lo[1]) * nv + v[lat] + lo[2]] = np.moveaxis(
        kdata[:, :, lat], 0, -1)
    grid = scipy.fft.fft(grid, axis=0, overwrite_x=True, workers=thread_count())

    # the anchors owning a fill position, and the block window of each
    used, anchor = np.unique(u[fill] * nv + v[fill], return_inverse=True)
    i, j = np.ogrid[:b1, :b2]
    cells = used[:, None] + (i * nv + j).ravel()  # [anchor, (block1, block2)]
    nout = len(kernel.weights)
    W = np.zeros((taps, b1, b2, nc, nout), dtype=kernel.weights.dtype)
    W[tuple(win + lo[:, None])] = kernel.weights.reshape(nout, nc, -1).T
    # W_f, rows (block1, block2, coil); the phase exponent is reduced mod L
    f, t = np.ogrid[:n_freq, :taps]
    phase = np.exp(2j * np.pi * ((f * (t - lo[0])) % n_freq) / n_freq)
    W = (phase @ W.reshape(taps, -1)).reshape(n_freq, -1, nout)

    pred = np.empty((n_freq, len(used), nout), dtype=grid.dtype)
    # one buffer for every chunk: fresh ones fragment the heap and raise peak RSS
    buf = np.empty((min(FILL_KX_CHUNK, n_freq), *cells.shape, nc), grid.dtype)
    for f0 in range(0, n_freq, FILL_KX_CHUNK):
        n = min(FILL_KX_CHUNK, n_freq - f0)
        C = np.take(grid[f0 : f0 + n], cells, axis=1, out=buf[:n],
                    mode="clip")  # in range; unbuffered
        # C: [frequency, anchor, (block1, block2), coil]
        np.matmul(C.reshape(n, len(used), -1), W[f0 : f0 + n], out=pred[f0 : f0 + n])
    del grid, buf, C
    pred = scipy.fft.ifft(pred, axis=0, overwrite_x=True, workers=thread_count())

    out = kdata.copy()
    tk = k[fill] - 1
    for x0 in range(0, nx, FILL_KX_CHUNK):
        p = pred[x0 : min(x0 + FILL_KX_CHUNK, nx)]
        p = p.reshape(len(p), len(used), -1, nc)[:, anchor, tk]  # [x, n, nc]
        out[:, x0 : x0 + len(p), fill] = np.moveaxis(p, 2, 0)
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
