"""Undersampling patterns: uniform R1xR2, CAIPI shifts, elliptical, ky-t.

A mask lives on the two phase-encode axes only and is broadcast over
coil/echo/readout when applied; the readout axis is always fully sampled.
A mask is the seven values of its descriptor; its sampled grid and the
elliptical corners it never acquires (excluded from training losses and
zeroed in outputs) are read-only planes derived from them.

The lattice geometry of GRAPPA and the learned models lives here: the
steps of a rectangular index lattice, one map from it to the acquired frame
(:func:`acquired_coords`) and that map's inverse split (:func:`lattice_cells`).
So does their working order, [coil, (echo,) kx, p1, p2] (:func:`internal_view`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import BundleError, ConfigError, GeometryError
from .tensors import CTensor, center_slices, save_bundle, load_bundle, bundle_meta


@dataclass(frozen=True)
class SamplingMask:
    """The seven values that define a pattern; its planes derive from them."""

    extents: tuple[int, int]  # (n1, n2) over the pattern axes
    axes: tuple[str, str]  # e.g. ("ky", "kz") or ("ky", "t")
    r1: int
    r2: int
    shift: int  # CAIPI shift Delta (per R1 block for lattices, per t for ky-t)
    elliptical: bool
    acs_box: tuple[tuple[int, int], tuple[int, int]] | None  # (start, length) per axis

    def __post_init__(self):
        extents = tuple(int(n) for n in self.extents)
        box = self.acs_box
        if box is not None:
            box = tuple((int(s), int(ln)) for s, ln in box)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "acs_box", box)
        r1, r2, shift = self.r1, self.r2, self.shift
        if r1 < 1 or r2 < 1:
            raise ConfigError(f"acceleration factors r1 {r1} and r2 {r2} must be >= 1")
        if self.kind == "kyt" and (r2 != 1 or self.elliptical):
            raise ConfigError(f"a ky-t mask has r2 1 and no ellipse, got r2 {r2}, "
                              f"elliptical {self.elliptical}")
        if self.kind == "lattice" and not 0 <= shift < r2:
            raise ConfigError(f"CAIPI shift {shift} must be in [0, r2) = [0, {r2})")
        if self.elliptical and min(extents) < 2:
            raise ConfigError(f"an elliptical mask needs extents >= 2, got {extents}")
        if box is not None and (len(box) != 2 or any(
                s < 0 or ln < 1 or s + ln > n for (s, ln), n in zip(box, extents))):
            raise ConfigError(f"acs_box {box} does not fit extents {extents}")

    @property
    def kind(self) -> str:
        return "kyt" if self.axes == ("ky", "t") else "lattice"

    @property
    def fourier_axes(self) -> tuple[str, ...]:
        """The axes an image is transformed over: kx and the pattern axes but t."""
        return tuple(a for a in ("kx", *self.axes) if a != "t")

    @cached_property
    def never_acquired(self) -> np.ndarray:
        """bool [n1, n2], read-only: the corners outside an elliptical pattern."""
        if self.elliptical:
            return _read_only(~_ellipse_interior(self.extents))
        return _read_only(np.zeros(self.extents, dtype=bool))

    @cached_property
    def grid(self) -> np.ndarray:
        """bool [n1, n2], read-only: the lattice off the corners, plus the ACS box."""
        grid = on_lattice(self) & ~self.never_acquired
        if self.acs_box is not None:
            (s1, l1), (s2, l2) = self.acs_box
            grid[s1 : s1 + l1, s2 : s2 + l2] = True
        return _read_only(grid)

    def acceleration(self) -> float:
        """Measured net acceleration: grid positions / pattern samples.

        ACS-only extras are ignored; never-acquired elliptical corners
        count as skipped (they need no acquisition time).
        """
        sampled = (self.grid & on_lattice(self)) if self.acs_box else self.grid
        return self.grid.size / int(sampled.sum())


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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


def make_uniform_mask(extents, r1, r2, shift=0, acs_box=None) -> SamplingMask:
    """Uniform R1xR2 lattice with CAIPI shift ``shift`` per R1 block."""
    return SamplingMask(extents, ("ky", "kz"), r1, r2, shift, False, acs_box)


def make_elliptical_mask(extents, r1, r2, shift=0, acs_box=None) -> SamplingMask:
    """Uniform CAIPI lattice intersected with the inscribed ellipse."""
    return SamplingMask(extents, ("ky", "kz"), r1, r2, shift, True, acs_box)


def make_kyt_mask(ny, nt, r, shift=0, acs_box=None) -> SamplingMask:
    """Spatiotemporal pattern: at time t, ky lines with (ky - shift*t) % r == 0."""
    return SamplingMask((ny, nt), ("ky", "t"), r, 1, shift, False, acs_box)


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


def internal_view(x: CTensor, mask: SamplingMask) -> np.ndarray:
    """[coil, (echo,) kx, p1, p2] view of a tensor's data: the working order
    of GRAPPA and the learned models, that of the bundles and ESPIRiT."""
    echo = ["echo"] if x.has_axis("echo") else []
    order = ["coil", *echo, "kx", *mask.axes]
    if set(order) != set(x.axes):
        raise GeometryError(f"unexpected axes {x.axes}, need {order}")
    return np.transpose(x.data, [x.axis(a) for a in order])


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


def _descriptor_fault(desc: dict, x: CTensor) -> str | None:
    """What makes a mask descriptor unreadable over its [maps=2, p1, p2] bundle."""
    if x.data.ndim != 3 or x.axes[0] != "maps" or x.shape[0] != 2:
        return f"data {x.axes} of shape {x.shape} is not a [maps=2, p1, p2] stack"
    if desc["axes"] != list(x.axes[1:]):
        return f"axes {desc['axes']!r} are not the bundle's {list(x.axes[1:])}"
    for key in ("r1", "r2", "shift"):
        if type(desc[key]) is not int:
            return f"{key} {desc[key]!r} must be an integer"
    if type(desc["elliptical"]) is not bool:
        return f"elliptical {desc['elliptical']!r} must be a boolean"
    box = desc["acs_box"]
    if box is not None and not (isinstance(box, list) and len(box) == 2 and all(
            isinstance(b, list) and len(b) == 2 and all(type(i) is int for i in b)
            for b in box)):
        return f"acs_box {box!r} is not two [start, length] integer pairs"
    return None


def load_mask(path: str | Path) -> SamplingMask:
    """The mask of a bundle, whose planes and kind must be its descriptor's."""
    x = load_bundle(path)
    desc = bundle_meta(path).get("mask")
    keys = {"axes", "r1", "r2", "shift", "elliptical", "acs_box", "kind"}
    if not (isinstance(desc, dict) and keys <= desc.keys()):
        raise BundleError(f"bundle {path} has no complete mask descriptor")
    if desc.get("desheared", False):
        raise BundleError(f"bundle {path} holds an unsupported desheared mask")
    bad = _descriptor_fault(desc, x)
    if bad:
        raise BundleError(f"mask bundle {path}: {bad}")
    try:
        mask = SamplingMask(x.shape[1:], tuple(desc["axes"]), desc["r1"], desc["r2"],
                            desc["shift"], desc["elliptical"], desc["acs_box"])
    except ConfigError as e:
        raise BundleError(f"mask bundle {path}: {e}") from None
    if desc["kind"] != mask.kind:
        raise BundleError(f"mask bundle {path}: kind {desc['kind']!r} is not "
                          f"{mask.kind!r}, that of {mask}")
    for plane, name in enumerate(("grid", "never_acquired")):
        if not np.array_equal(np.real(x.data[plane]) > 0.5, getattr(mask, name)):
            raise BundleError(f"mask bundle {path}: its {name} plane is not "
                              f"that of {mask}")
    return mask
