"""Undersampling masks: lattices, CAIPI shifts, elliptical, ky-t, shears."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rakikit import (
    ConfigError,
    CTensor,
    GeometryError,
    apply_mask,
    centered_acs_box,
    deshear,
    extract_acs,
    load_mask,
    make_elliptical_mask,
    make_kyt_mask,
    make_uniform_mask,
    reshear,
    save_mask,
)
from rakikit.sampling import cell_anchors, cell_offsets, deshear_array, steps


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


class TestShear:
    def test_mask_deshear_is_rectangular(self):
        m = make_uniform_mask((12, 6), 3, 2, shift=1)
        d = deshear(m)
        i, j = np.meshgrid(np.arange(12), np.arange(6), indexing="ij")
        np.testing.assert_array_equal(d.grid, (i % 3 == 0) & (j % 2 == 0))
        assert d.desheared

    def test_tensor_roundtrip_bit_exact(self):
        x = CTensor(rand_c((3, 5, 12, 6)), ("coil", "kx", "ky", "kz"))
        m = make_uniform_mask((12, 6), 3, 2, shift=1)
        back = reshear(deshear(x, m), m)
        np.testing.assert_array_equal(back.data, x.data)

    def test_deshear_consistent_with_grid(self):
        m = make_uniform_mask((12, 6), 3, 2, shift=1)
        x = CTensor(m.grid.astype(complex), ("ky", "kz"))
        d = deshear(x, m)
        np.testing.assert_array_equal(np.real(d.data) > 0.5, deshear(m).grid)

    def test_kyt_deshear_raises(self):
        m = make_kyt_mask(8, 4, 4, shift=1)
        with pytest.raises(GeometryError):
            deshear(m)

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_any_pattern(self, r1, r2, shift):
        if shift >= r2:
            shift = shift % r2
        m = make_uniform_mask((8, 8), r1, r2, shift=shift)
        x = CTensor(rand_c((2, 3, 8, 8), seed=r1 * 16 + r2 * 4 + shift),
                    ("coil", "kx", "ky", "kz"))
        back = reshear(deshear(x, m), m)
        np.testing.assert_array_equal(back.data, x.data)


class TestOneGeometry:
    """Everything derives from the steps and the desheared->acquired map."""

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

        # deshear then reshear is the identity, for both kinds
        x = rand_c((2, n1, n2, 3), seed=r1 + 5 * r2 + 25 * shift)
        there = deshear_array(x, mask, 1)
        np.testing.assert_array_equal(
            deshear_array(there, mask, 1, inverse=True), x)

        # desheared, the acquired grid is the rectangular step lattice
        i, j = np.meshgrid(np.arange(n1), np.arange(n2), indexing="ij")
        np.testing.assert_array_equal(
            deshear_array(mask.grid, mask, 0), (i % s1 == 0) & (j % s2 == 0))

        # GRAPPA anchors are acquired and their cells cover the grid once
        anchors = cell_anchors(mask)
        inside = ((anchors >= 0) & (anchors < (n1, n2))).all(axis=1)
        assert mask.grid[tuple(anchors[inside].T)].all()
        hits = np.zeros((n1, n2), dtype=int)
        for a, b in cell_offsets(mask):
            p = anchors + (a, b)
            ok = ((p >= 0) & (p < (n1, n2))).all(axis=1)
            np.add.at(hits, tuple(p[ok].T), 1)
        np.testing.assert_array_equal(hits, 1)


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
