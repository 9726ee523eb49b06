"""Eigenvalue-based coil sensitivity estimation and coil combination.

Readout-decoupled (hybrid) strategy: a 1D inverse FFT along the fully
sampled kx axis, then an independent 2D eigen-analysis per readout
position over (ky, kz). The row space of the block-Hankel calibration
matrix comes from the eigendecomposition of the smaller of its two Gram
matrices; readout positions too weak to carry signal are skipped before
it. The kept kernels are correlated in k-space over their
(2k1-1)x(2k2-1) lags, and two small inverse-DFT products turn those lags
into the per-voxel coil Gram matrix on the output grid (Uecker et al., MRM
71:990, 2014), one block of rows at a time. Its leading eigenvector, found
by power iteration (G^64, up to G^1024 for voxels with a small spectral
gap) from the uniform unit vector at every readout, with ``eigh`` where
that does not converge, gives the maps; its leading eigenvalue the support
measure.

No readout's maps depend on another's, and no voxel's on its block, so the
readouts run on ``thread_count()`` threads with numpy's OpenBLAS held at
one thread (``tensors.task_threads``): the maps are the serial loop's at
one BLAS thread bit for bit, whatever the BLAS thread setting. Each thread
holds one readout's kernels and one block's Gram matrices at a time.

Coil combination streams the coil axis: conj(S_c) x_c is accumulated one
coil at a time, in coil order, which is bit for bit the sum over a
leading coil axis. Given k-space, each coil is inverse-transformed just
before its turn, and for the combined ACS targets it is first zero-filled
outside the ACS box, so no stage holds a multi-coil image.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from numbers import Integral

import numpy as np
import scipy.fft

from .errors import ConfigError, GeometryError, NumericalError
from .sampling import SamplingMask
from .tensors import CTensor, fftc, fftc_nd, ifftc, ifftc_nd, task_threads

# Power iteration applies G^(2**_SQUARINGS) to a start vector; a voxel keeps
# its result when the residual |Gv - lambda v| is at most _RESIDUAL_TOL,
# which bounds the eigenvector error by _RESIDUAL_TOL / (lambda_1 - lambda_2).
# Leading eigenvalues lie in [0, 1], so the tolerance is absolute. Voxels
# that miss it go on squaring, up to G^(2**_MAX_SQUARINGS). G^(2**_SQUARED)
# is built by repeated squaring and applied 2**(_SQUARINGS - _SQUARED)
# times: over a batch of 8x8 matrices one matrix product costs about as much
# as six matrix-vector products.
_SQUARINGS = 6
_SQUARED = 3
_MAX_SQUARINGS = 10
_RESIDUAL_TOL = 1e-12
# A readout's output grid is processed in blocks of whole rows of about this
# many voxels, so that a thread holds one block's [768, nc, nc] Gram matrices
# and squaring buffers, not a readout's. A voxel's arithmetic does not depend
# on its block; the size trades the arrays' memory for per-block overhead
_BLOCK_VOXELS = 768


@dataclass(frozen=True)
class SensitivityMaps:
    """Per-coil complex maps plus the leading-eigenvalue support map.

    ``maps`` is [coil, kx, ky, kz] in hybrid/image space; maps are zero
    where ``eigval`` falls below the crop threshold. The phase gauge makes
    the first coil real and non-negative at every retained voxel.
    ``eigh_fallbacks`` counts the voxels whose leading eigenpair came from
    a full ``eigh`` rather than power iteration.
    """

    maps: CTensor
    eigval: np.ndarray  # real [kx, ky, kz]
    kernel_size: int
    sigma_threshold: float
    crop_threshold: float
    eigh_fallbacks: int = 0

    @property
    def retained_frac(self) -> float:
        """Fraction of voxels whose leading eigenvalue passes the crop."""
        return float(np.mean(self.eigval >= self.crop_threshold))

    @property
    def eigval_hist(self) -> list[int]:
        """Voxel counts of the leading eigenvalue, clipped into [0, 1], over
        the ten bins with edges 0, 0.1, ..., 1 (the last bin holds 1)."""
        counts, _ = np.histogram(np.clip(self.eigval, 0.0, 1.0), bins=10,
                                 range=(0.0, 1.0))
        return counts.tolist()


def _row_space(hyb_x: np.ndarray, k1: int, k2: int, tau: float,
               scale: float = 0.0) -> np.ndarray:
    """Row-space kernels of the block-Hankel matrix at one readout position.

    The right singular vectors of A are the eigenvectors of A^H A, and
    singular values are the square roots of its eigenvalues, so ``tau``
    thresholds singular values. With fewer windows (rows) than columns
    the smaller A A^H is decomposed instead: its eigenvectors u give the
    kept right singular vectors as A^H u / s. ``scale`` is the magnitude of
    the strongest readout position; slices whose leading singular value is
    negligible against it carry no signal and return no kernels (otherwise
    round-off noise masquerades as a fully determined row space).
    """
    nc, n1, n2 = hyb_x.shape
    # s_0 <= ||A||_F <= sqrt(k1 k2) ||hyb_x||: skip the eigh when that bound
    # already falls below the cut-off
    if np.sqrt(k1 * k2) * np.linalg.norm(hyb_x) <= scale * 1e-12:
        return np.zeros((0, nc, k1, k2), dtype=np.complex128)
    windows = np.lib.stride_tricks.sliding_window_view(hyb_x, (k1, k2), axis=(1, 2))
    A = windows.transpose(1, 2, 0, 3, 4).reshape(-1, nc * k1 * k2)
    dual = A.shape[0] < A.shape[1]
    lam, vec = np.linalg.eigh(A @ A.conj().T if dual else A.conj().T @ A)
    s = np.sqrt(np.maximum(lam[::-1], 0.0))
    if s[0] <= max(scale, s[0]) * 1e-12:
        return np.zeros((0, nc, k1, k2), dtype=np.complex128)
    keep = s >= tau * s[0]
    kern = vec[:, ::-1][:, keep].conj().T  # the kept v^H, or u^H
    if dual:
        kern = kern @ A / s[keep, None]
    return kern.reshape(-1, nc, k1, k2)


def _lag_correlation(kern: np.ndarray) -> np.ndarray:
    """The kernels' summed cross-correlation [2k1-1, 2k2-1, nc, nc].

    Lag d sits at index d mod (2k-1); it is normalised by k1 k2, so that
    ``_gram`` has unit leading eigenvalue on voxels fully inside the row
    space.
    """
    nk, nc, k1, k2 = kern.shape
    s1, s2 = 2 * k1 - 1, 2 * k2 - 1
    spec = scipy.fft.fft2(kern, s=(s1, s2)).transpose(2, 3, 1, 0)  # [s1, s2, nc, nk]
    corr = scipy.fft.ifft2(spec @ spec.conj().swapaxes(-1, -2), axes=(0, 1))
    corr /= k1 * k2
    return corr


def _centred_idft(n: int, k: int) -> np.ndarray:
    """[n, 2k-1]: the centred inverse DFT onto n samples of the lags |d| < k,
    lag d at index d mod (2k-1)."""
    d = np.arange(2 * k - 1)
    lag = np.where(d < k, d, d - (2 * k - 1))
    return np.exp(2j * np.pi * np.outer(np.arange(n) - n // 2, lag) / n)


def _gram(corr: np.ndarray, e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """Per-voxel coil Gram matrices G [len(e1), len(e2), nc, nc].

    G(r) = sum_k v_k(r) v_k(r)^H, where v_k(r) is kernel k zero-padded to
    the output grid, inverse-transformed and scaled by ``_lag_correlation``.
    The image of a padded kernel is band-limited, so G(r) is exactly the
    centred inverse DFT of the kernels' lag correlation ``corr``, evaluated
    as one small matrix product per grid axis with ``e1`` and ``e2``, rows
    of ``_centred_idft``; its exponentials are periodic in the lag, so lags
    wrap onto grids smaller than the support. Each voxel's arithmetic is
    the same whichever rows of ``e1`` come with it.
    """
    s1, s2, nc, _ = corr.shape
    # einsum("ra,abij,sb->rsij", e1, corr, e2) as two products
    half = e1 @ corr.reshape(s1, -1)  # [rows, (s2, nc, nc)]
    G = e2 @ half.reshape(len(e1), s2, nc * nc)
    return G.reshape(len(e1), len(e2), nc, nc)


def _normalised_square(P: np.ndarray, out: np.ndarray) -> np.ndarray:
    """P @ P into ``out``, divided by its trace so powers cannot underflow."""
    P = np.matmul(P, P, out=out)
    tr = np.einsum("...ii->...", P).real
    P *= (1.0 / np.where(tr > 0, tr, 1.0))[..., None, None]
    return P


def _leading_eigenpairs(G: np.ndarray, start: np.ndarray):
    """Leading eigenvalue and eigenvector of every Hermitian PSD G [..., nc, nc].

    From ``start`` vectors, G^(2**_SQUARINGS) applied to them is a power
    iteration; voxels whose residual exceeds ``_RESIDUAL_TOL`` go on alone,
    applying G^(2**m) for m up to ``_MAX_SQUARINGS``. Voxels still
    unconverged take the pair from ``eigh`` instead.
    Returns the eigenvalues, the unit eigenvectors and the fallback count.
    """
    shape, nc = G.shape[:-2], G.shape[-1]
    G = G.reshape(-1, nc, nc)
    lead = np.zeros(len(G))
    vec = np.zeros((len(G), nc), dtype=np.complex128)
    todo = np.arange(len(G))  # voxels without a pair yet; Gt, P and v follow it
    buf = np.empty((2, *G.shape), dtype=np.complex128)
    P, m = G, 0  # P = G^(2**m), trace-normalised
    while m < _SQUARED:
        m += 1
        P = _normalised_square(P, buf[m % 2])
    v = start.reshape(-1, nc, 1)
    for _ in range(2 ** (_SQUARINGS - _SQUARED)):
        v = P @ v
    Gt = G
    for k in range(_SQUARINGS, _MAX_SQUARINGS + 1):
        if k > _SQUARINGS:
            while m < k:
                m += 1
                P = _normalised_square(P, buf[m % 2, :len(P)])
            v = P @ v
        v = v[..., 0]
        norm = np.linalg.norm(v, axis=-1)
        v /= np.where(norm > 0, norm, 1.0)[..., None]
        w = (Gt @ v[..., None])[..., 0]
        lam = np.einsum("...c,...c->...", v.conj(), w).real
        resid = np.linalg.norm(w - lam[..., None] * v, axis=-1)
        ok = (norm > 0) & (resid <= _RESIDUAL_TOL)
        lead[todo[ok]] = lam[ok]
        vec[todo[ok]] = v[ok]
        todo, Gt, P, v = todo[~ok], Gt[~ok], P[~ok], v[~ok, :, None]
        if len(todo) == 0:
            break
    if len(todo):
        evals, evecs = np.linalg.eigh(G[todo])
        lead[todo] = evals[:, -1]
        vec[todo] = evecs[..., -1]
    return lead.reshape(shape), vec.reshape(*shape, -1), len(todo)


def _shared_map(fn, items, threads: int) -> list:
    """[fn(item) for item in items] on the calling thread and ``threads - 1``
    workers, all taking the next item not yet taken from one list. After a
    failure no further item starts, and the first exception is raised."""
    items = list(items)
    if threads == 1:
        return [fn(item) for item in items]
    results = [None] * len(items)
    order, lock, failed = iter(range(len(items))), threading.Lock(), []

    def drain():
        while not failed:
            with lock:
                i = next(order, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException:
                failed.append(i)
                raise

    with ThreadPoolExecutor(threads - 1) as pool:
        workers = [pool.submit(drain) for _ in range(threads - 1)]
        drain()
        for worker in workers:
            worker.result()
    return results


def espirit_maps(acs: CTensor, kernel_size: int = 6, sigma_threshold: float = 0.01,
                 crop_threshold: float = 0.9,
                 out_extents: tuple[int, int] | None = None) -> SensitivityMaps:
    """Estimate sensitivities from fully sampled ACS [coil, kx, ky, kz].

    ``out_extents`` sets the (ky, kz) grid of the returned maps; default
    is the ACS grid itself (low-resolution maps). The readout axis is
    decoupled by a 1D inverse FFT and its positions are processed
    independently, on the threads ``task_threads`` gives.
    """
    if (isinstance(kernel_size, bool) or not isinstance(kernel_size, Integral)
            or kernel_size < 1):
        raise ConfigError(f"kernel size must be an integer >= 1, got {kernel_size!r}")
    if not (0 < sigma_threshold < 1):
        raise ConfigError(f"sigma threshold must be in (0,1), got {sigma_threshold}")
    if not (0 < crop_threshold <= 1):
        raise ConfigError(f"crop threshold must be in (0,1], got {crop_threshold}")
    if acs.has_axis("echo"):
        raise GeometryError("unexpected axes ['echo']; reduce echo first")
    x = acs.transpose(("coil", "kx", "ky", "kz"))
    if not np.isfinite(x.data).all():
        raise NumericalError("ACS contains non-finite samples")
    nc, nx, n1, n2 = x.shape
    k1 = min(kernel_size, n1)
    k2 = min(kernel_size, n2)
    if (n1 - k1 + 1) * (n2 - k2 + 1) < nc:
        raise GeometryError(
            f"ACS ({n1}x{n2}) too small for calibration window {k1}x{k2}"
        )
    out1, out2 = out_extents if out_extents is not None else (n1, n2)

    hyb = ifftc(x, "kx").data  # [coil, x, ky, kz]
    scale = float(np.max(np.sqrt(np.sum(np.abs(hyb) ** 2, axis=(0, 2, 3)))))
    maps = np.zeros((nc, nx, out1, out2), dtype=np.complex128)
    eigval = np.zeros((nx, out1, out2))
    start = np.full((out1, out2, nc), nc ** -0.5, dtype=np.complex128)
    e1, e2 = _centred_idft(out1, k1), _centred_idft(out2, k2)
    rows = max(1, _BLOCK_VOXELS // out2)

    def readout(ix: int) -> int:
        """Readout ix's maps and eigenvalues, a block of rows at a time;
        returns its eigh fallbacks."""
        kern = _row_space(hyb[:, ix], k1, k2, sigma_threshold, scale)
        if len(kern) == 0:
            return 0
        corr, fallbacks = _lag_correlation(kern), 0
        for r in range(0, out1, rows):
            lead, vec, n_eigh = _leading_eigenpairs(
                _gram(corr, e1[r:r + rows], e2), start[r:r + rows])
            fallbacks += n_eigh
            # phase gauge on the first coil
            ph = vec[..., 0]
            gauge = np.where(np.abs(ph) > 0, ph / np.where(np.abs(ph) > 0, np.abs(ph), 1.0), 1.0)
            vec = vec * np.conj(gauge)[..., None]
            keep = lead >= crop_threshold
            maps[:, ix, r:r + rows] = np.where(keep[None], vec.transpose(2, 0, 1), 0.0)
            eigval[ix, r:r + rows] = lead
        return fallbacks

    with task_threads() as threads:
        fallbacks = sum(_shared_map(readout, range(nx), threads))
    return SensitivityMaps(
        CTensor(maps, ("coil", "kx", "ky", "kz")), eigval, kernel_size,
        sigma_threshold, crop_threshold, fallbacks,
    )


def coil_combine(images: CTensor, maps: SensitivityMaps,
                 fourier: tuple[str, ...] = ()) -> CTensor:
    """Matched-filter combine: m(r) = sum_c conj(C_c(r)) x_c(r).

    Maps always live on (coil, kx, ky, kz). Dynamic images carrying a
    ``t`` axis instead of ``kz`` are combined frame by frame with the
    same maps (which must then have a singleton kz extent), and an
    ``echo`` axis echo by echo. With ``fourier`` axes, ``images`` is
    k-space: each coil goes through the centred inverse FFT along them
    first, so the result is ``coil_combine(ifftc(images, fourier), maps)``
    without the multi-coil image.

    The sum runs one coil at a time, in coil order: besides the output it
    holds one coil's image and product. That is the order of a sum over a
    leading coil axis, so the result is that sum bit for bit.
    """
    axes = _coil_axes(images, fourier)
    return _matched_filter(
        images, maps, (lambda x: ifftc_nd(x, axes)) if axes else (lambda x: x))


def _coil_axes(images: CTensor, labels) -> tuple[int, ...]:
    """Indices of the named axes in one coil's slice of ``images``."""
    coil = images.axis("coil")
    return tuple(i - (i > coil) for i in (images.axis(a) for a in labels))


def _matched_filter(images: CTensor, maps: SensitivityMaps, coil_image
                    ) -> CTensor:
    """sum_c conj(C_c) coil_image(x_c), accumulated coil by coil.

    ``coil_image`` takes coil c's slice of ``images`` (the other axes in
    their order, a view) to its image, of the same shape.
    """
    m = maps.maps.transpose(("coil", "kx", "ky", "kz")).data
    x = np.moveaxis(images.data, images.axis("coil"), 0)
    axes = tuple(a for a in images.axes if a != "coil")
    dynamic = images.has_axis("t") and not images.has_axis("kz")
    grid = ("kx", "ky", "t" if dynamic else "kz")
    extents = tuple(images.extent(a) for a in grid)
    if dynamic and (m.shape[:3] != (len(x), *extents[:2]) or m.shape[3] != 1):
        raise GeometryError(
            f"dynamic combine needs maps [*, kz=1] matching "
            f"{(len(x), *extents[:2])}, got {m.shape}"
        )
    if not dynamic and m.shape != (len(x), *extents):
        raise GeometryError(
            f"image extents {(len(x), *extents)} do not match map extents "
            f"{m.shape}"
        )
    # other axes (echo) lead, so each coil's map broadcasts over them
    order = tuple(a for a in axes if a not in grid) + grid
    perm = [axes.index(a) for a in order]

    def product(c):
        img = coil_image(x[c]).transpose(perm)  # made before the conjugate
        return np.conj(m[c]) * img

    combined = product(0)
    for c in range(1, len(x)):
        combined += product(c)
    return CTensor(combined, order).transpose(axes)


def make_combo_target(acs: CTensor, maps: SensitivityMaps,
                      mask: SamplingMask | None = None) -> CTensor:
    """Coil-combined ACS k-space: fftc(combine(ifftc(acs), maps)).

    The maps live on the ACS grid (low-resolution mode) or on the full
    grid. For the full grid, pass the full-grid k-space as ``acs`` with
    its ``mask``: each coil is taken as zero outside the mask's ACS box,
    one coil at a time. An ``echo`` axis is combined echo by echo.
    Extents are checked by the combination.
    """
    spatial = tuple(a for a in acs.axes if a not in ("coil", "echo", "t"))
    if mask is None:
        return fftc(coil_combine(acs, maps, spatial), spatial)
    box = [slice(None)] * (acs.data.ndim - 1)
    for i, (start, n) in zip(_coil_axes(acs, mask.axes), mask.acs_box):
        box[i] = slice(start, start + n)
    box = tuple(box)
    axes = _coil_axes(acs, spatial)

    def boxed_image(x):
        k = np.zeros_like(x)
        k[box] = x[box]
        return ifftc_nd(k, axes)

    return fftc(_matched_filter(acs, maps, boxed_image), spatial)


def kspace_combine_convolution(coil_kspace: CTensor, maps: SensitivityMaps) -> CTensor:
    """Coil combination done entirely in k-space as a sum of convolutions.

    Circularly convolves each coil's k-space with the k-space of its
    conjugate map and sums over coils; equals fftc(coil_combine(ifftc)).
    Used to verify that the combine step is expressible as a k-space
    convolution (what makes it learnable by a convolutional layer).
    """
    x = coil_kspace.transpose(("coil", "kx", "ky", "kz"))
    m = maps.maps.transpose(("coil", "kx", "ky", "kz"))
    if x.shape != m.shape:
        raise GeometryError("extent mismatch between k-space and maps")
    nc, nx, n1, n2 = x.shape
    kmaps = fftc(m.with_data(np.conj(m.data)), ("kx", "ky", "kz")).data
    out = np.zeros((nx, n1, n2), dtype=np.complex128)
    axes = (0, 1, 2)
    for c in range(nc):  # the centred pair takes the convolution to a product
        out += ifftc_nd(fftc_nd(x.data[c], axes) * fftc_nd(kmaps[c], axes), axes)
    res = CTensor(out, ("kx", "ky", "kz"))
    spatial = tuple(a for a in coil_kspace.axes if a != "coil")
    return res.transpose(spatial)

