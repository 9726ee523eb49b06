"""Undersampling patterns: uniform R1xR2, CAIPI shifts, elliptical, ky-t.

A mask lives on the two phase-encode axes only and is broadcast over
coil/echo/readout when applied; the readout axis is always fully sampled.
Elliptical corners are tracked separately as "never acquired" so they can
be excluded from training losses and zeroed in outputs.

The lattice geometry of GRAPPA and the learned models lives here: the
steps of a rectangular index lattice, one map from it to the acquired frame
(:func:`acquired_coords`) and that map's inverse split (:func:`lattice_cells`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import BundleError, ConfigError, GeometryError
from .tensors import CTensor, center_slices, save_bundle, load_bundle, bundle_meta


@dataclass(frozen=True)
class SamplingMask:
    grid: np.ndarray  # bool [n1, n2] over the pattern axes
    axes: tuple[str, str]  # e.g. ("ky", "kz") or ("ky", "t")
    r1: int
    r2: int
    shift: int  # CAIPI shift Delta (per R1 block for lattices, per t for ky-t)
    elliptical: bool
    acs_box: tuple[tuple[int, int], tuple[int, int]] | None  # (start, length) per axis
    never_acquired: np.ndarray = field(default=None)
    kind: str = "lattice"  # "lattice" | "kyt"

    def __post_init__(self):
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=bool))
        if self.never_acquired is None:
            object.__setattr__(
                self, "never_acquired", np.zeros_like(self.grid, dtype=bool)
            )

    @property
    def extents(self) -> tuple[int, int]:
        return self.grid.shape

    def acceleration(self) -> float:
        """Measured net acceleration: grid positions / pattern samples.

        ACS-only extras are ignored; never-acquired elliptical corners
        count as skipped (they need no acquisition time).
        """
        sampled = (self.grid & on_lattice(self)) if self.acs_box else self.grid
        return self.grid.size / int(sampled.sum())


def _check_box(extents, acs_box):
    if acs_box is None:
        return None
    box = tuple((int(s), int(ln)) for s, ln in acs_box)
    for (s, ln), n in zip(box, extents):
        if s < 0 or ln < 1 or s + ln > n:
            raise ConfigError(f"acs_box {box} does not fit extents {extents}")
    return box


def centered_acs_box(extents, acs_extents):
    """ACS box of the given size centered on the grid (low-index-extra rule)."""
    return tuple(
        (center_slices(n, a).start, a) for n, a in zip(extents, acs_extents)
    )


def steps(mask: SamplingMask) -> tuple[int, int]:
    """Steps of the rectangular index lattice the acquired set maps from."""
    return (mask.r1, 1) if mask.kind == "kyt" else (mask.r1, mask.r2)


def acquired_coords(mask: SamplingMask, i, j, inverse: bool = False):
    """Lattice (p1, p2) indices -> acquired frame, unwrapped (or back).

    CAIPI moves p2 by ``shift`` per R1 block of p1; ky-t moves ky by
    ``shift`` per frame.
    """
    s = -mask.shift if inverse else mask.shift
    if mask.kind == "kyt":
        return i + s * j, j
    return i, j + s * (i // mask.r1)


def on_lattice(mask: SamplingMask) -> np.ndarray:
    """Pattern lattice (no ACS, no ellipse): the grid positions at offset 0."""
    return lattice_cells(mask)[2] == 0


def lattice_basis(mask: SamplingMask) -> tuple[tuple[int, int], tuple[int, int]]:
    """Integer basis vectors of the acquired lattice: the mapped steps."""
    s1, s2 = steps(mask)
    return acquired_coords(mask, s1, 0), acquired_coords(mask, 0, s2)


def cell_offsets(mask: SamplingMask) -> list[tuple[int, int]]:
    """Fundamental-cell offsets, the same in both frames; (0, 0) is the anchor."""
    s1, s2 = steps(mask)
    return [(a, b) for a in range(s1) for b in range(s2)]


def lattice_cells(mask: SamplingMask) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each grid position as anchor (u, v) plus cell offset, each [n1, n2].

    The unwrapped lattice index, split by the steps: the anchor sits at
    lattice index ``(u * s1, v * s2)`` (possibly off the grid) and ``k``
    indexes :func:`cell_offsets`, so ``k == 0`` is the pattern lattice; on
    extents that divide by the steps, ``(u % nu, v % nv)`` is a decimated index.
    """
    n1, n2 = mask.extents
    d1, d2 = acquired_coords(mask, *np.ogrid[:n1, :n2], inverse=True)
    s1, s2 = steps(mask)
    (u, a), (v, b) = np.divmod(d1, s1), np.divmod(d2, s2)
    return tuple(np.broadcast_arrays(u, v, a * s2 + b))


def _ellipse_interior(extents) -> np.ndarray:
    n1, n2 = extents
    a = (n1 - 1) / 2.0
    b = (n2 - 1) / 2.0
    i = np.arange(n1)[:, None]
    j = np.arange(n2)[None, :]
    return ((i - a) / a) ** 2 + ((j - b) / b) ** 2 <= 1.0


def _force_acs(grid, acs_box):
    if acs_box is not None:
        (s1, l1), (s2, l2) = acs_box
        grid[s1 : s1 + l1, s2 : s2 + l2] = True


def _pattern(extents, axes, r1, r2, shift, acs_box, kind="lattice"):
    box = _check_box(extents, acs_box)
    mask = SamplingMask(np.zeros(extents, dtype=bool), axes, r1, r2, shift,
                        False, box, kind=kind)
    grid = on_lattice(mask)
    _force_acs(grid, box)
    return replace(mask, grid=grid)


def make_uniform_mask(extents, r1, r2, shift=0, acs_box=None) -> SamplingMask:
    """Uniform R1xR2 lattice with CAIPI shift ``shift`` per R1 block."""
    if r1 < 1 or r2 < 1:
        raise ConfigError(f"acceleration factors must be >= 1, got {r1}x{r2}")
    if not (0 <= shift < r2):
        raise ConfigError(f"CAIPI shift must satisfy 0 <= shift < R2, got {shift}")
    return _pattern(extents, ("ky", "kz"), r1, r2, shift, acs_box)


def make_elliptical_mask(extents, r1, r2, shift=0, acs_box=None) -> SamplingMask:
    """Uniform CAIPI lattice intersected with the inscribed ellipse."""
    base = make_uniform_mask(extents, r1, r2, shift, acs_box)
    interior = _ellipse_interior(extents)
    grid = base.grid & interior
    _force_acs(grid, base.acs_box)
    return replace(base, grid=grid, elliptical=True, never_acquired=~interior)


def make_kyt_mask(ny, nt, r, shift=0, acs_box=None) -> SamplingMask:
    """Spatiotemporal pattern: at time t, ky lines with (ky - shift*t) % r == 0."""
    if r < 1:
        raise ConfigError(f"acceleration must be >= 1, got {r}")
    return _pattern((ny, nt), ("ky", "t"), r, 1, shift, acs_box, kind="kyt")


def _pattern_axis_indices(x: CTensor, mask: SamplingMask) -> tuple[int, int]:
    a1, a2 = x.axis(mask.axes[0]), x.axis(mask.axes[1])
    if x.shape[a1] != mask.extents[0] or x.shape[a2] != mask.extents[1]:
        raise GeometryError(
            f"mask extents {mask.extents} do not match tensor axes "
            f"{mask.axes} of shape {(x.shape[a1], x.shape[a2])}"
        )
    return a1, a2


def _broadcast_grid(x: CTensor, mask: SamplingMask, grid: np.ndarray) -> np.ndarray:
    a1, a2 = _pattern_axis_indices(x, mask)
    shape = [1] * x.data.ndim
    shape[a1] = mask.extents[0]
    shape[a2] = mask.extents[1]
    return (grid if a1 < a2 else grid.T).reshape(shape)


def apply_mask(x: CTensor, mask: SamplingMask) -> CTensor:
    """Zero unsampled entries, broadcasting over all non-pattern axes."""
    g = _broadcast_grid(x, mask, mask.grid)
    return x.with_data(np.where(g, x.data, 0.0))


def extract_acs(x: CTensor, mask: SamplingMask) -> CTensor:
    """Crop to the ACS box along the pattern axes; other axes kept whole."""
    if mask.acs_box is None:
        raise GeometryError("mask has no ACS box")
    a1, a2 = _pattern_axis_indices(x, mask)
    (s1, l1), (s2, l2) = mask.acs_box
    sl = [slice(None)] * x.data.ndim
    sl[a1] = slice(s1, s1 + l1)
    sl[a2] = slice(s2, s2 + l2)
    return x.with_data(x.data[tuple(sl)].copy())


def save_mask(mask: SamplingMask, path: str | Path) -> None:
    """Mask as a 0/1 tensor bundle plus a JSON descriptor in meta."""
    desc = {
        "axes": list(mask.axes),
        "r1": mask.r1,
        "r2": mask.r2,
        "shift": mask.shift,
        "elliptical": mask.elliptical,
        "acs_box": [list(b) for b in mask.acs_box] if mask.acs_box else None,
        "kind": mask.kind,
    }
    stack = np.stack([mask.grid, mask.never_acquired]).astype(np.complex128)
    save_bundle(CTensor(stack, ("maps", *mask.axes)), path, meta={"mask": desc})


def load_mask(path: str | Path) -> SamplingMask:
    x = load_bundle(path)
    desc = bundle_meta(path).get("mask")
    keys = {"axes", "r1", "r2", "shift", "elliptical", "acs_box", "kind"}
    if not (isinstance(desc, dict) and keys <= desc.keys()):
        raise BundleError(f"bundle {path} has no complete mask descriptor")
    if desc.get("desheared", False):
        raise BundleError(f"bundle {path} holds an unsupported desheared mask")
    grid = np.real(x.data[0]) > 0.5
    never = np.real(x.data[1]) > 0.5
    box = tuple(tuple(b) for b in desc["acs_box"]) if desc["acs_box"] else None
    return SamplingMask(
        grid, tuple(desc["axes"]), desc["r1"], desc["r2"], desc["shift"],
        desc["elliptical"], box, never_acquired=never, kind=desc["kind"],
    )
