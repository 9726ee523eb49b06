"""Synthetic multi-coil, multi-echo 3D phantoms with known ground truth.

Images are ellipsoid paintings with per-region relaxation constants; echo
``e`` sees ``amplitude * exp(-TE_e / T)`` with T = T2 (spin echo) or T2*
(gradient echo). Coil maps come from either a smooth Gaussian-lobe model
or a compact-k-space-support model used as an exactness oracle for
GRAPPA/ESPIRiT.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError
from .tensors import CTensor, fftc_nd, ifftc_nd, center_slices


@dataclass(frozen=True)
class Ellipsoid:
    center: tuple[float, float, float]  # voxel units
    semi_axes: tuple[float, float, float]
    amplitude: complex = 1.0
    t2: float = 50.0  # ms
    t2star: float = 30.0  # ms


@dataclass(frozen=True)
class PhantomSpec:
    extents: tuple[int, int, int]  # (nx, ny, nz), kx is readout
    ellipsoids: tuple[Ellipsoid, ...]
    n_coils: int = 8
    coil_model: str = "smooth"  # "smooth" | "compact"
    coil_support: int = 3  # k-space support for the compact model
    te_ms: tuple[float, ...] = (0.0,)
    echo_type: str = "spin"  # "spin" -> T2 decay, "gradient" -> T2*
    noise_sigma: float = 0.0
    texture: float = 0.0  # fine-structure modulation depth, 0 = smooth
    seed: int = 0

    def __post_init__(self):
        if any(n < 1 for n in self.extents):
            raise ConfigError(f"grid extents must be positive, got {self.extents}")
        if not self.ellipsoids:
            raise ConfigError("phantom needs at least one ellipsoid")
        if self.n_coils < 1:
            raise ConfigError("n_coils must be >= 1")
        te = self.te_ms
        if any(t < 0 for t in te) or any(b <= a for a, b in zip(te, te[1:])):
            raise ConfigError(f"TE list must be >= 0 and strictly increasing: {te}")
        if self.echo_type not in ("spin", "gradient"):
            raise ConfigError(f"unknown echo_type {self.echo_type!r}")
        if self.coil_model not in ("smooth", "compact"):
            raise ConfigError(f"unknown coil_model {self.coil_model!r}")
        if self.texture < 0:
            raise ConfigError(f"texture depth must be >= 0, got {self.texture}")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        for e in self.ellipsoids:
            if any(a <= 0 for a in e.semi_axes):
                raise ConfigError("ellipsoid semi-axes must be positive")


def default_spec(extents=(64, 64, 16), n_coils=8, te_ms=(0.0,), seed=0, **kw) -> PhantomSpec:
    """A three-compartment phantom filling most of the FOV."""
    nx, ny, nz = extents
    c = (nx / 2, ny / 2, nz / 2)
    ellipsoids = (
        Ellipsoid(c, (0.42 * nx, 0.42 * ny, 0.42 * nz), 1.0, t2=80.0, t2star=45.0),
        Ellipsoid(
            (c[0] - 0.18 * nx, c[1], c[2]),
            (0.14 * nx, 0.16 * ny, 0.25 * nz),
            0.7 + 0.2j,
            t2=50.0,
            t2star=30.0,
        ),
        Ellipsoid(
            (c[0] + 0.17 * nx, c[1] + 0.1 * ny, c[2]),
            (0.12 * nx, 0.1 * ny, 0.2 * nz),
            1.3 - 0.1j,
            t2=30.0,
            t2star=18.0,
        ),
    )
    return PhantomSpec(extents=extents, ellipsoids=ellipsoids, n_coils=n_coils,
                       te_ms=tuple(te_ms), seed=seed, **kw)


def _paint(spec: PhantomSpec):
    """Rasterize ellipsoids: amplitude, T2, T2* maps (later regions win)."""
    coords = np.ix_(*map(np.arange, spec.extents))  # broadcast 1-D axes
    amp = np.zeros(spec.extents, dtype=np.complex128)
    t2 = np.zeros(spec.extents)
    t2star = np.zeros(spec.extents)
    for e in spec.ellipsoids:
        d = np.zeros(spec.extents)
        for ax in range(3):
            if spec.extents[ax] > 1:  # singleton axes (2D phantoms) drop out
                d += ((coords[ax] - e.center[ax]) / e.semi_axes[ax]) ** 2
        inside = d <= 1.0
        amp[inside] = e.amplitude
        t2[inside] = e.t2
        t2star[inside] = e.t2star
    return amp, t2, t2star


def _texture_field(extents, seed: int) -> np.ndarray:
    """Unit-RMS white random field; spreads object energy across all of k-space."""
    rng = np.random.default_rng(seed + 2)
    field = rng.standard_normal(extents)
    return field / np.sqrt(np.mean(field**2))


def make_smooth_coils(extents: tuple[int, int, int], n_coils: int,
                      seed: int = 0) -> np.ndarray:
    """Gaussian-lobe receive maps on a ring, with linear phase ramps.

    Lobe and ramp are separable, so each coil is the outer product of three
    1-D factors and sum_c |C_c|^2 is sum_c |a_c(x)|^2 |b_c(y)|^2 |c_c(z)|^2.

    Returns [coil, x, y, z], normalized so sum_c |C_c|^2 == 1 everywhere.
    """
    nx, ny, nz = extents
    rng = np.random.default_rng(seed)
    factors = [np.empty((n_coils, n), dtype=np.complex128) for n in extents]
    # ring of lobes with z-centers cycling through three levels so every
    # axis sees magnitude variation (z-invariant ring coils cannot unfold
    # kz acceleration)
    for c in range(n_coils):
        ang = 2 * np.pi * c / n_coils + rng.uniform(-0.2, 0.2)
        centers = (nx / 2 + 0.55 * nx * np.cos(ang), ny / 2 + 0.55 * ny * np.sin(ang),
                   nz * (0.2 + 0.3 * (c % 3) + rng.uniform(-0.04, 0.04)))
        widths = (rng.uniform(0.5, 0.8) * nx, rng.uniform(0.5, 0.8) * ny,
                  rng.uniform(0.425, 0.68) * nz)
        slopes = rng.uniform(-0.8, 0.8, 3)
        for f, n, ctr, w, s, phase in zip(factors, extents, centers, widths,
                                          slopes, (ang, 0.0, 0.0)):
            t = np.arange(n)
            f[c] = np.exp(-(((t - ctr) / w) ** 2)
                          + 2j * np.pi * s * (t - n / 2) / n + 1j * phase)
    fx, fy, fz = factors
    fxy = fx[:, :, None] * fy[:, None, :]  # [coil, x, y]
    ssq = np.abs(fxy.reshape(n_coils, -1)).T ** 2 @ np.abs(fz) ** 2
    inv_norm = np.reciprocal(np.sqrt(ssq, out=ssq), out=ssq).reshape(extents)
    maps = np.empty((n_coils, nx, ny, nz), dtype=np.complex128)
    for c in range(n_coils):
        np.multiply(fxy[c, :, :, None], fz[c], out=maps[c])
        maps[c] *= inv_norm
    return maps


DC_BOOST = 3.0  # the compact DC tap gains DC_BOOST * support**1.5: no map zeros


def make_compact_coils(extents: tuple[int, int, int], n_coils: int,
                       support: int, seed: int = 0,
                       normalized: bool = False) -> CTensor:
    """Coil maps whose k-space lives on a centered ``support``-wide window.

    Multiplication by such a map is exactly a ``support``-wide k-space
    convolution, which makes GRAPPA and ESPIRiT exactly solvable.
    ``normalized`` divides by the voxelwise root-sum-of-squares (the maps
    then lose strict compactness but satisfy sum_c |C_c|^2 == 1).
    """
    if support % 2 == 0 or support < 1:
        raise ConfigError(f"support must be odd and >= 1, got {support}")
    if any(support > n for n in extents):
        raise ConfigError(f"support {support} exceeds grid extents {extents}")
    rng = np.random.default_rng(seed)
    kern = np.zeros((n_coils, *extents), dtype=np.complex128)
    win = tuple(center_slices(n, support) for n in extents)
    shape = (n_coils, support, support, support)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    vals[:, support // 2, support // 2, support // 2] += DC_BOOST * support**1.5
    kern[(slice(None), *win)] = vals
    maps = ifftc_nd(kern, axes=(1, 2, 3))
    if normalized:
        maps = maps / np.sqrt(np.sum(np.abs(maps) ** 2, axis=0))
    return CTensor(maps, ("coil", "kx", "ky", "kz"))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def make_phantom(spec: PhantomSpec) -> dict[str, CTensor]:
    """Generate ground truth k-space, images, sensitivities, and T maps.

    Returns a dict with keys ``kspace`` [coil, echo, kx, ky, kz], the
    centred FFT of ``sens_true`` [coil, kx, ky, kz] times ``images``
    (coil-free, [echo, kx, ky, kz]), and ``t2_true``, ``t2star_true``.
    A texture or noise level that takes the k-space beyond float64 is a
    NumericalError (non-finite images reach the k-space too).
    """
    amp, t2, t2star = _paint(spec)
    tmap = t2 if spec.echo_type == "spin" else t2star
    support = amp != 0
    if spec.texture > 0:
        amp = amp * (1.0 + spec.texture * _texture_field(spec.extents, spec.seed))

    if spec.coil_model == "smooth":
        sens = make_smooth_coils(spec.extents, spec.n_coils, seed=spec.seed)
    else:
        sens = make_compact_coils(
            spec.extents, spec.n_coils, spec.coil_support, seed=spec.seed
        ).data

    ne = len(spec.te_ms)
    images = np.empty((ne, *spec.extents), dtype=np.complex128)
    for e, te in enumerate(spec.te_ms):
        decay = np.where(support, np.exp(-te / np.where(support, tmap, 1.0)), 0.0)
        images[e] = amp * decay

    kspace = fftc_nd(sens[:, None] * images[None], axes=(2, 3, 4))
    if spec.noise_sigma > 0:
        rng = np.random.default_rng(spec.seed + 1)
        noise = rng.standard_normal(kspace.shape) + 1j * rng.standard_normal(
            kspace.shape
        )
        kspace = kspace + spec.noise_sigma * noise / np.sqrt(2)
    if not np.isfinite(kspace).all():
        raise NumericalError("phantom k-space is not finite; lower texture "
                             "or noise_sigma")

    return {
        "kspace": CTensor(kspace, ("coil", "echo", "kx", "ky", "kz")),
        "images": CTensor(images, ("echo", "kx", "ky", "kz")),
        "sens_true": CTensor(sens, ("coil", "kx", "ky", "kz")),
        "t2_true": CTensor(t2.astype(np.complex128), ("kx", "ky", "kz")),
        "t2star_true": CTensor(t2star.astype(np.complex128), ("kx", "ky", "kz")),
    }
