"""Tikhonov-regularized GRAPPA kernel calibration and application.

Acquired positions of every supported pattern form a 2D integer lattice
on the phase axes; :mod:`rakikit.sampling` owns that geometry (basis,
fundamental cell, anchors). Sources are taken at lattice offsets around
each anchor, so no deshearing is needed and the kernel is
shift-invariant in the acquired frame. One weight matrix per missing
offset of the fundamental cell; readout is always fully sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import GeometryError, NumericalError
from .sampling import (SamplingMask, cell_anchors, cell_offsets, extract_acs,
                       lattice_basis)
from .tensors import CTensor, crop_center

DEFAULT_BLOCKS = (4, 4)
DEFAULT_TAPS = 5
DEFAULT_LAMBDA = 1e-6

# cap on calibration windows; beyond this the ACS is strided deterministically
MAX_WINDOWS = 8192


def _block_offsets(n: int) -> np.ndarray:
    """n source blocks around the anchor, e.g. 4 -> [-1, 0, 1, 2]."""
    lo = -((n - 1) // 2)
    return np.arange(lo, lo + n)


@dataclass(frozen=True)
class GrappaKernel:
    """Calibrated weights: one [Nc, Nc*nsrc] matrix per missing offset."""

    weights: dict  # (dp1, dp2) cell offset -> complex ndarray [Nc, Nc * nsrc]
    src: np.ndarray  # [nsrc, 3] source offsets (dx, dp1, dp2) from the anchor
    r1: int
    r2: int
    shift: int
    kind: str
    n_coils: int


def _source_offsets(v1, v2, blocks, taps) -> np.ndarray:
    b1 = _block_offsets(blocks[0])
    b2 = _block_offsets(blocks[1])
    dx = _block_offsets(taps)
    out = []
    for x in dx:
        for i in b1:
            for j in b2:
                out.append((x, i * v1[0] + j * v2[0], i * v1[1] + j * v2[1]))
    return np.array(out, dtype=int)


def grappa_calibrate(acs: np.ndarray, mask: SamplingMask,
                     blocks=DEFAULT_BLOCKS, taps: int = DEFAULT_TAPS,
                     lam: float = DEFAULT_LAMBDA) -> GrappaKernel:
    """Solve the regularized fits over all ACS sliding windows.

    ``acs``: fully sampled complex array [coil, kx, p1, p2]. The ridge
    weight is ``lam * mean(diag(A^H A))`` so lam is dimensionless.
    """
    acs = np.asarray(acs, dtype=np.complex128)
    nc, nx, n1, n2 = acs.shape
    v1, v2 = lattice_basis(mask)
    src = _source_offsets(v1, v2, blocks, taps)
    targets = [t for t in cell_offsets(mask) if t != (0, 0)]
    tgt = np.array(targets, dtype=int) if targets else np.zeros((0, 2), dtype=int)

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

    weights = {}
    for a, b in targets:
        tvals = acs[:, anchors[:, 0], anchors[:, 1] + a, anchors[:, 2] + b]
        w = solve(A.conj().T @ tvals.T)  # [n_unknown, nc]
        if not np.all(np.isfinite(w)):
            raise NumericalError(f"non-finite GRAPPA weights at offset {(a, b)}")
        weights[(a, b)] = np.ascontiguousarray(w.T)
    return GrappaKernel(weights, src, mask.r1, mask.r2, mask.shift, mask.kind, nc)


def _fill_missing(kdata: np.ndarray, mask: SamplingMask,
                  kernel: GrappaKernel) -> np.ndarray:
    """Fill unsampled entries of [coil, kx, p1, p2]; zero-extension."""
    nc, nx, n1, n2 = kdata.shape
    src = kernel.src
    anchors2 = cell_anchors(mask)
    pad_lo = np.array([
        max(-int(src[:, 0].min()), 0),
        max(-int(src[:, 1].min() + anchors2[:, 0].min()), 0),
        max(-int(src[:, 2].min() + anchors2[:, 1].min()), 0),
    ])
    pad_hi = np.array([
        max(int(src[:, 0].max()), 0),
        max(int(src[:, 1].max() + anchors2[:, 0].max()) - (n1 - 1), 0),
        max(int(src[:, 2].max() + anchors2[:, 1].max()) - (n2 - 1), 0),
    ])
    padded = np.pad(kdata, [(0, 0)] + [(int(l), int(h)) for l, h in
                                       zip(pad_lo, pad_hi)])
    out = kdata.copy()
    ax = np.arange(nx)
    grid = np.concatenate(
        [
            np.repeat(ax, len(anchors2))[:, None],
            np.tile(anchors2, (nx, 1)),
        ],
        axis=1,
    )

    sampled = mask.grid
    chunk = 1 << 16
    for start in range(0, len(grid), chunk):
        g = grid[start : start + chunk]
        gx = g[:, 0:1] + src[None, :, 0] + pad_lo[0]
        g1 = g[:, 1:2] + src[None, :, 1] + pad_lo[1]
        g2 = g[:, 2:3] + src[None, :, 2] + pad_lo[2]
        S = padded[:, gx, g1, g2]  # [nc, W, nsrc]
        S = np.transpose(S, (1, 0, 2)).reshape(len(g), -1)
        for (a, b), w in kernel.weights.items():
            t1 = g[:, 1] + a
            t2 = g[:, 2] + b
            ok = (t1 >= 0) & (t1 < n1) & (t2 >= 0) & (t2 < n2)
            ok &= ~sampled[np.clip(t1, 0, n1 - 1), np.clip(t2, 0, n2 - 1)]
            if not np.any(ok):
                continue
            pred = S[ok] @ w.T  # [W_ok, nc]
            out[:, g[ok, 0], t1[ok], t2[ok]] = pred.T
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

