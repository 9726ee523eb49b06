"""Undersampling masks: lattices, CAIPI shifts, elliptical, ky-t, mask I/O."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rakikit import (
    BundleError,
    ConfigError,
    CTensor,
    GeometryError,
    SamplingMask,
    apply_mask,
    centered_acs_box,
    extract_acs,
    load_mask,
    make_elliptical_mask,
    make_kyt_mask,
    make_uniform_mask,
    save_bundle,
    save_mask,
)
from rakikit.recon_models import echo_shifted_masks
from rakikit.sampling import acquired_coords, cell_offsets, lattice_cells, steps


def rand_c(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestUniformMask:
    def test_plain_lattice(self):
        m = make_uniform_mask((8, 6), 2, 3)
        i, j = np.meshgrid(np.arange(8), np.arange(6), indexing="ij")
        np.testing.assert_array_equal(m.grid, (i % 2 == 0) & (j % 3 == 0))

    def test_caipi_shift(self):
        m = make_uniform_mask((8, 6), 2, 3, shift=1)
        for i in range(0, 8, 2):
            cols = np.flatnonzero(m.grid[i])
            expected = [(c) for c in range(6) if (c - (i // 2)) % 3 == 0]
            assert list(cols) == expected
        assert not m.grid[1::2].any()

    def test_acceleration_exact(self):
        m = make_uniform_mask((12, 12), 3, 2, shift=1)
        assert m.acceleration() == pytest.approx(6.0)

    def test_acs_does_not_change_acceleration(self):
        box = centered_acs_box((24, 24), (8, 8))
        m = make_uniform_mask((24, 24), 3, 3, acs_box=box)
        assert m.acceleration() == pytest.approx(9.0)
        # but the ACS block itself is fully sampled
        (s1, l1), (s2, l2) = m.acs_box
        assert m.grid[s1 : s1 + l1, s2 : s2 + l2].all()

    def test_invalid_shift_raises(self):
        with pytest.raises(ConfigError):
            make_uniform_mask((8, 8), 2, 2, shift=2)
        with pytest.raises(ConfigError):
            make_uniform_mask((8, 8), 2, 2, shift=-1)

    def test_invalid_factors_raise(self):
        with pytest.raises(ConfigError):
            make_uniform_mask((8, 8), 0, 2)

    def test_bad_acs_box_raises(self):
        with pytest.raises(ConfigError):
            make_uniform_mask((8, 8), 2, 2, acs_box=((4, 6), (0, 4)))


class TestEllipticalMask:
    def test_corners_never_acquired(self):
        m = make_elliptical_mask((32, 32), 2, 2)
        assert m.never_acquired[0, 0] and m.never_acquired[-1, -1]
        assert not m.never_acquired[16, 16]
        assert not (m.grid & m.never_acquired).any()

    def test_extra_acceleration_near_4_over_pi(self):
        m = make_elliptical_mask((256, 256), 1, 1)
        assert m.acceleration() == pytest.approx(4 / np.pi, rel=0.01)

    def test_acs_forced_inside(self):
        box = centered_acs_box((32, 32), (8, 8))
        m = make_elliptical_mask((32, 32), 2, 2, acs_box=box)
        (s1, l1), (s2, l2) = m.acs_box
        assert m.grid[s1 : s1 + l1, s2 : s2 + l2].all()


class TestKytMask:
    def test_coverage_once_per_period(self):
        m = make_kyt_mask(16, 8, 4, shift=1)
        # within any r consecutive frames every ky appears exactly once
        for t0 in range(0, 8 - 4 + 1):
            counts = m.grid[:, t0 : t0 + 4].sum(axis=1)
            np.testing.assert_array_equal(counts, np.ones(16, dtype=int))

    def test_shift_advances_lines(self):
        m = make_kyt_mask(8, 4, 4, shift=1)
        for t in range(4):
            assert set(np.flatnonzero(m.grid[:, t])) == {t % 4, (t % 4) + 4}

    def test_acceleration(self):
        m = make_kyt_mask(16, 4, 4, shift=1)
        assert m.acceleration() == pytest.approx(4.0)


class TestApplyExtract:
    def test_apply_zeroes_unsampled(self, tmp_path):
        x = CTensor(rand_c((2, 4, 8, 6)), ("coil", "kx", "ky", "kz"))
        m = make_uniform_mask((8, 6), 2, 2, shift=1)
        y = apply_mask(x, m)
        assert (y.data[:, :, ~m.grid] == 0).all()
        np.testing.assert_array_equal(y.data[:, :, m.grid], x.data[:, :, m.grid])

    def test_apply_respects_axis_order(self):
        x = CTensor(rand_c((6, 2, 4, 8)), ("kz", "coil", "kx", "ky"))
        m = make_uniform_mask((8, 6), 2, 2)
        y = apply_mask(x, m).transpose(("coil", "kx", "ky", "kz"))
        ref = apply_mask(x.transpose(("coil", "kx", "ky", "kz")), m)
        np.testing.assert_array_equal(y.data, ref.data)

    def test_extent_mismatch_raises(self):
        x = CTensor(rand_c((2, 4, 8, 8)), ("coil", "kx", "ky", "kz"))
        m = make_uniform_mask((8, 6), 2, 2)
        with pytest.raises(GeometryError):
            apply_mask(x, m)

    def test_extract_acs(self):
        x = CTensor(rand_c((2, 4, 12, 12)), ("coil", "kx", "ky", "kz"))
        box = centered_acs_box((12, 12), (6, 4))
        m = make_uniform_mask((12, 12), 2, 2, acs_box=box)
        acs = extract_acs(x, m)
        assert acs.shape == (2, 4, 6, 4)
        np.testing.assert_array_equal(acs.data, x.data[:, :, 3:9, 4:8])

    def test_extract_without_box_raises(self):
        x = CTensor(rand_c((2, 4, 8, 8)), ("coil", "kx", "ky", "kz"))
        with pytest.raises(GeometryError):
            extract_acs(x, make_uniform_mask((8, 8), 2, 2))


class TestOneGeometry:
    """Everything derives from the steps and the lattice->acquired map."""

    @given(
        st.sampled_from(["lattice", "kyt"]),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_map_defines_the_pattern(self, kind, r1, r2, shift, m1, m2):
        if kind == "kyt":
            mask = make_kyt_mask(r1 * m1, m2 + 1, r1, shift=shift)
        else:
            mask = make_uniform_mask((r1 * m1, r2 * m2), r1, r2,
                                     shift=shift % r2)
        s1, s2 = steps(mask)
        n1, n2 = mask.extents
        assert n1 % s1 == 0 and n2 % s2 == 0

        # every grid position is one (anchor, cell offset) and maps back from
        # it; offset 0 is exactly the acquired lattice
        i, j = np.meshgrid(np.arange(n1), np.arange(n2), indexing="ij")
        u, v, k = lattice_cells(mask)
        np.testing.assert_array_equal(k == 0, mask.grid)
        assert len(set(zip(u.ravel(), v.ravel(), k.ravel()))) == n1 * n2
        a1, a2 = acquired_coords(mask, u * s1, v * s2)
        offs = np.array(cell_offsets(mask))[k]
        np.testing.assert_array_equal(a1 + offs[..., 0], i)
        np.testing.assert_array_equal(a2 + offs[..., 1], j)


def former_planes(extents, r1, r2, shift, elliptical, acs_box, kind):
    """(grid, never_acquired) by the former makers, which stored both: the
    lattice with the ACS box forced, then for an ellipse that grid within
    the interior, the box forced again."""
    def force_acs(grid):
        if acs_box is not None:
            (s1, l1), (s2, l2) = acs_box
            grid[s1 : s1 + l1, s2 : s2 + l2] = True

    i, j = np.ogrid[: extents[0], : extents[1]]
    if kind == "kyt":
        lattice = (i - shift * j) % r1 == 0
    else:
        lattice = (i % r1 == 0) & ((j - shift * (i // r1)) % r2 == 0)
    grid = np.broadcast_to(lattice, extents).copy()
    force_acs(grid)
    if not elliptical:
        return grid, np.zeros(extents, dtype=bool)
    a, b = (extents[0] - 1) / 2.0, (extents[1] - 1) / 2.0
    interior = ((i - a) / a) ** 2 + ((j - b) / b) ** 2 <= 1.0
    grid &= interior
    force_acs(grid)
    return grid, ~interior


@st.composite
def pattern_values(draw):
    """Extents, r1, r2, shift, elliptical, ACS box (or None) and kind."""
    kind = draw(st.sampled_from(["lattice", "kyt"]))
    extents = (draw(st.integers(2, 12)), draw(st.integers(2, 12)))
    r1 = draw(st.integers(1, 4))
    r2 = 1 if kind == "kyt" else draw(st.integers(1, 3))
    shift = draw(st.integers(-3, 5) if kind == "kyt" else st.integers(0, r2 - 1))
    elliptical = kind == "lattice" and draw(st.booleans())
    box = None
    if draw(st.booleans()):
        starts = [draw(st.integers(0, n - 1)) for n in extents]
        box = tuple((s, draw(st.integers(1, n - s))) for s, n in zip(starts, extents))
    return extents, r1, r2, shift, elliptical, box, kind


def make(extents, r1, r2, shift, elliptical, acs_box, kind):
    if kind == "kyt":
        return make_kyt_mask(*extents, r1, shift=shift, acs_box=acs_box)
    maker = make_elliptical_mask if elliptical else make_uniform_mask
    return maker(extents, r1, r2, shift=shift, acs_box=acs_box)


class TestDerivedPlanes:
    """A mask holds its seven values; the planes derive from them."""

    @given(values=pattern_values())
    @settings(max_examples=80, deadline=None)
    def test_planes_are_the_former_makers(self, values, tmp_path_factory):
        mask = make(*values)
        grid, never = former_planes(*values)
        assert np.array_equal(mask.grid, grid)
        assert np.array_equal(mask.never_acquired, never)
        assert mask.kind == values[-1]

        path = tmp_path_factory.mktemp("mask") / "m"
        save_mask(mask, path)
        back = load_mask(path)
        assert back == mask
        assert np.array_equal(back.grid, grid)
        assert np.array_equal(back.never_acquired, never)

        # echo e: shift (shift + e) mod r2 on a lattice, ky-t masks repeated
        extents, r1, r2, shift, elliptical, box, kind = values
        for e, echo in enumerate(echo_shifted_masks(mask, 3)):
            if kind == "kyt":
                assert echo == mask
            else:
                g, n = former_planes(extents, r1, r2, (shift + e) % r2,
                                     elliptical, box, kind)
                assert np.array_equal(echo.grid, g)
                assert np.array_equal(echo.never_acquired, n)

    @given(pattern_values())
    @settings(max_examples=30, deadline=None)
    def test_equal_masks_compare_and_hash_equal(self, values):
        a, b = make(*values), make(*values)
        assert a == b and hash(a) == hash(b)
        assert a != make_uniform_mask((13, 13), 1, 1)

    def test_planes_refuse_writes(self):
        mask = make_elliptical_mask((16, 16), 2, 2, acs_box=((6, 4), (6, 4)))
        for plane in (mask.grid, mask.never_acquired):
            with pytest.raises(ValueError, match="read-only"):
                plane[0, 0] = not plane[0, 0]

    @pytest.mark.parametrize("values, word", [
        (((8, 8), ("ky", "kz"), 0, 2, 0, False, None), "r1"),
        (((8, 8), ("ky", "t"), 2, 2, 0, False, None), "r2"),
        (((8, 8), ("ky", "t"), 2, 1, 0, True, None), "ellipse"),
        (((8, 8), ("ky", "kz"), 2, 2, 2, False, None), "shift"),
        (((1, 8), ("ky", "kz"), 1, 1, 0, True, None), "extents"),
        (((8, 8), ("ky", "kz"), 2, 2, 0, False, ((0, 4),)), "acs_box"),
        (((8, 8), ("ky", "kz"), 2, 2, 0, False, ((6, 4), (0, 4))), "acs_box"),
    ], ids=["r1", "kyt-r2", "kyt-ellipse", "shift", "ellipse-extent",
            "one-pair-box", "box-outside"])
    def test_constructor_is_the_validator(self, values, word):
        with pytest.raises(ConfigError, match=word):
            SamplingMask(*values)


def tampered_bundle(path, mask, grid=None, never=None, **desc):
    """``mask``'s bundle with its planes and descriptor values replaced."""
    save_mask(mask, path)
    meta = json.loads(path.with_suffix(".json").read_text())["meta"]
    meta["mask"].update(desc)
    planes = np.stack([mask.grid if grid is None else grid,
                       mask.never_acquired if never is None else never])
    save_bundle(CTensor(planes.astype(complex), ("maps", *mask.axes)), path,
                meta=meta)


class TestMaskIO:
    @pytest.mark.parametrize(
        "mask",
        [
            make_uniform_mask((12, 8), 3, 2, shift=1,
                              acs_box=centered_acs_box((12, 8), (6, 4))),
            make_elliptical_mask((16, 16), 2, 2, shift=1),
            make_kyt_mask(12, 6, 4, shift=1, acs_box=((4, 4), (0, 6))),
        ],
    )
    def test_roundtrip(self, tmp_path, mask):
        save_mask(mask, tmp_path / "m")
        back = load_mask(tmp_path / "m")
        np.testing.assert_array_equal(back.grid, mask.grid)
        np.testing.assert_array_equal(back.never_acquired, mask.never_acquired)
        assert (back.axes, back.r1, back.r2, back.shift) == (
            mask.axes, mask.r1, mask.r2, mask.shift
        )
        assert (back.kind, back.elliptical, back.acs_box) == (
            mask.kind, mask.elliptical, mask.acs_box
        )

    @pytest.mark.parametrize("meta", [{}, {"mask": "lattice"},
                                      {"mask": {"axes": ["ky", "kz"], "r1": 2}}],
                             ids=["no-mask", "not-object", "missing-keys"])
    def test_missing_mask_descriptor_is_bundle_error(self, tmp_path, meta):
        save_bundle(CTensor(np.zeros((2, 4, 4), complex), ("maps", "ky", "kz")),
                    tmp_path / "m", meta=meta)
        with pytest.raises(BundleError, match="mask descriptor"):
            load_mask(tmp_path / "m")

    @pytest.mark.parametrize("key, value, word", [
        ("axes", ["ky"], "axes"),
        ("axes", ["kz", "ky"], "axes"),
        ("axes", "ky", "axes"),
        ("kind", "bogus", "kind"),
        ("kind", "kyt", "r2"),  # the bundle's r2 is 2
        ("r1", "x", "r1"),
        ("r1", 0, "r1"),
        ("r1", True, "r1"),
        ("r2", -2, "r2"),
        ("r2", 2.0, "r2"),
        ("shift", "1", "shift"),
        ("shift", 2, "shift"),
        ("shift", -1, "shift"),
        ("elliptical", 1, "elliptical"),
        ("acs_box", [[0, 13], [0, 4]], "acs_box"),
        ("acs_box", [[-1, 4], [0, 4]], "acs_box"),
        ("acs_box", [[0, 0], [0, 4]], "acs_box"),
        ("acs_box", [[0.5, 4], [0, 4]], "acs_box"),
        ("acs_box", [[0, 4]], "acs_box"),
        ("acs_box", [], "acs_box"),
    ])
    def test_descriptor_value_is_bundle_error(self, tmp_path, key, value, word):
        """Each descriptor value must be one the pattern can take: the
        bundle's own axes, a known kind, integer factors >= 1 (r2 1 for
        ky-t), a lattice shift in [0, r2), a boolean and a box inside."""
        mask = make_uniform_mask((12, 8), 3, 2, shift=1,
                                 acs_box=centered_acs_box((12, 8), (6, 4)))
        save_mask(mask, tmp_path / "m")
        header = json.loads((tmp_path / "m.json").read_text())
        header["meta"]["mask"][key] = value
        (tmp_path / "m.json").write_text(json.dumps(header))
        with pytest.raises(BundleError, match=word):
            load_mask(tmp_path / "m")

    def test_never_acquired_plane_over_the_grid_is_bundle_error(self, tmp_path):
        mask = make_uniform_mask((12, 8), 3, 2, shift=1,
                                 acs_box=centered_acs_box((12, 8), (6, 4)))
        tampered_bundle(tmp_path / "m", mask, never=np.ones((12, 8), bool))
        with pytest.raises(BundleError, match="never_acquired plane"):
            load_mask(tmp_path / "m")

    def test_grid_plane_off_the_pattern_is_bundle_error(self, tmp_path):
        """24 acquired positions, the ACS box alone, against the pattern's 36."""
        mask = make_uniform_mask((12, 8), 3, 2, shift=1,
                                 acs_box=centered_acs_box((12, 8), (6, 4)))
        (s1, l1), (s2, l2) = mask.acs_box
        grid = np.zeros((12, 8), bool)
        grid[s1 : s1 + l1, s2 : s2 + l2] = True
        assert (grid.sum(), mask.grid.sum()) == (24, 36)
        tampered_bundle(tmp_path / "m", mask, grid=grid)
        with pytest.raises(BundleError, match="grid plane"):
            load_mask(tmp_path / "m")

    def test_elliptical_kyt_descriptor_is_bundle_error(self, tmp_path):
        mask = make_kyt_mask(12, 6, 4, shift=1, acs_box=((4, 4), (0, 6)))
        tampered_bundle(tmp_path / "m", mask, elliptical=True)
        with pytest.raises(BundleError, match="ellipse"):
            load_mask(tmp_path / "m")

    def test_descriptor_over_a_third_plane_is_bundle_error(self, tmp_path):
        mask = make_uniform_mask((12, 8), 3, 2)
        save_mask(mask, tmp_path / "m")
        meta = json.loads((tmp_path / "m.json").read_text())["meta"]
        save_bundle(CTensor(np.zeros((3, 12, 8), complex), ("maps", "ky", "kz")),
                    tmp_path / "m", meta=meta)
        with pytest.raises(BundleError, match="maps=2"):
            load_mask(tmp_path / "m")

    @pytest.mark.parametrize("flag", [None, False, True],
                             ids=["absent", "false", "true"])
    def test_desheared_descriptor(self, tmp_path, flag):
        """A bundle written with the old ``desheared`` key loads only if the
        mask is in the acquired frame; a desheared one is a BundleError."""
        mask = make_uniform_mask((12, 8), 3, 2, shift=1,
                                 acs_box=centered_acs_box((12, 8), (6, 4)))
        save_mask(mask, tmp_path / "m")
        header = json.loads((tmp_path / "m.json").read_text())
        assert "desheared" not in header["meta"]["mask"]
        if flag is not None:
            header["meta"]["mask"]["desheared"] = flag
        (tmp_path / "m.json").write_text(json.dumps(header))
        if flag:
            with pytest.raises(BundleError, match="desheared"):
                load_mask(tmp_path / "m")
        else:
            back = load_mask(tmp_path / "m")
            np.testing.assert_array_equal(back.grid, mask.grid)
            assert back.acceleration() == mask.acceleration()
