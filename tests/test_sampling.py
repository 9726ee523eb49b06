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
