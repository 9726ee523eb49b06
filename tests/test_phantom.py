"""Synthetic phantom generation: geometry, decay, coils, determinism."""

import tracemalloc

import numpy as np
import pytest

from rakikit import (
    ConfigError,
    Ellipsoid,
    PhantomSpec,
    default_spec,
    fftc_nd,
    make_compact_coils,
    make_phantom,
    make_smooth_coils,
)
from rakikit.phantom import _paint
from rakikit.tensors import center_slices


def full_grid_smooth_coils(extents, n_coils, seed=0):
    """make_smooth_coils evaluated voxel by voxel on 3-D coordinate grids:
    the reference its per-axis factorisation must reproduce."""
    nx, ny, nz = extents
    rng = np.random.default_rng(seed)
    ix, iy, iz = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    maps = np.empty((n_coils, nx, ny, nz), dtype=np.complex128)
    for c in range(n_coils):
        ang = 2 * np.pi * c / n_coils + rng.uniform(-0.2, 0.2)
        cx = nx / 2 + 0.55 * nx * np.cos(ang)
        cy = ny / 2 + 0.55 * ny * np.sin(ang)
        cz = nz * (0.2 + 0.3 * (c % 3) + rng.uniform(-0.04, 0.04))
        wx = rng.uniform(0.5, 0.8) * nx
        wy = rng.uniform(0.5, 0.8) * ny
        wz = rng.uniform(0.425, 0.68) * nz
        mag = np.exp(
            -(((ix - cx) / wx) ** 2 + ((iy - cy) / wy) ** 2 + ((iz - cz) / wz) ** 2)
        )
        ramp = (
            rng.uniform(-0.8, 0.8) * (ix - nx / 2) / nx
            + rng.uniform(-0.8, 0.8) * (iy - ny / 2) / ny
            + rng.uniform(-0.8, 0.8) * (iz - nz / 2) / nz
        )
        maps[c] = mag * np.exp(2j * np.pi * ramp + 1j * ang)
    norm = np.sqrt(np.sum(np.abs(maps) ** 2, axis=0))
    return maps / norm


def meshgrid_paint(spec):
    """_paint on int64 meshgrid coordinates: the reference its broadcast
    1-D terms must match bit for bit."""
    nx, ny, nz = spec.extents
    ix, iy, iz = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    amp = np.zeros(spec.extents, dtype=np.complex128)
    t2 = np.zeros(spec.extents)
    t2star = np.zeros(spec.extents)
    coords = (ix, iy, iz)
    for e in spec.ellipsoids:
        d = np.zeros(spec.extents)
        for ax in range(3):
            if spec.extents[ax] > 1:
                d += ((coords[ax] - e.center[ax]) / e.semi_axes[ax]) ** 2
        inside = d <= 1.0
        amp[inside] = e.amplitude
        t2[inside] = e.t2
        t2star[inside] = e.t2star
    return amp, t2, t2star


class TestSpecValidation:
    def test_defaults_ok(self):
        spec = default_spec()
        assert spec.extents == (64, 64, 16)
        assert len(spec.ellipsoids) == 3

    def test_bad_extents(self):
        with pytest.raises(ConfigError):
            default_spec(extents=(0, 8, 8))

    def test_no_ellipsoids(self):
        with pytest.raises(ConfigError):
            PhantomSpec(extents=(8, 8, 8), ellipsoids=())

    def test_te_must_increase(self):
        with pytest.raises(ConfigError):
            default_spec(te_ms=(10.0, 10.0))
        with pytest.raises(ConfigError):
            default_spec(te_ms=(10.0, 5.0))

    def test_bad_echo_type(self):
        with pytest.raises(ConfigError):
            default_spec(echo_type="bogus")

    def test_bad_coil_model(self):
        with pytest.raises(ConfigError):
            default_spec(coil_model="bogus")

    def test_negative_texture(self):
        with pytest.raises(ConfigError):
            default_spec(texture=-1.0)

    def test_bad_semi_axes(self):
        e = Ellipsoid((4, 4, 4), (0.0, 2, 2))
        with pytest.raises(ConfigError):
            PhantomSpec(extents=(8, 8, 8), ellipsoids=(e,))


class TestPhantomContents:
    def test_kspace_is_fft_of_coil_images(self):
        ph = make_phantom(default_spec(extents=(8, 12, 10), n_coils=3))
        coil_images = ph["sens_true"].data[:, None] * ph["images"].data[None]
        expected = fftc_nd(coil_images, axes=(2, 3, 4))
        np.testing.assert_allclose(ph["kspace"].data, expected, atol=1e-12)

    def test_spin_echo_decay(self):
        te = (0.0, 25.0, 50.0)
        ph = make_phantom(default_spec(extents=(16, 16, 8), n_coils=1, te_ms=te))
        img = ph["images"].data
        t2 = np.real(ph["t2_true"].data)
        inside = np.abs(img[0]) > 0
        for e, t in enumerate(te):
            expected = img[0] * np.where(inside, np.exp(-t / np.where(inside, t2, 1.0)), 0)
            np.testing.assert_allclose(img[e], expected, atol=1e-12)

    def test_gradient_echo_uses_t2star(self):
        te = (0.0, 20.0)
        spin = make_phantom(
            default_spec(extents=(12, 12, 6), n_coils=1, te_ms=te)
        )
        grad = make_phantom(
            default_spec(extents=(12, 12, 6), n_coils=1, te_ms=te,
                         echo_type="gradient")
        )
        # T2* < T2 everywhere inside, so the gradient echo decays faster
        inside = np.abs(spin["images"].data[0]) > 0
        assert (
            np.abs(grad["images"].data[1][inside])
            < np.abs(spin["images"].data[1][inside]) + 1e-12
        ).all()

    def test_t_maps_region_values(self):
        ph = make_phantom(default_spec(extents=(32, 32, 16), n_coils=1))
        t2 = np.real(ph["t2_true"].data)
        assert set(np.unique(t2)) <= {0.0, 30.0, 50.0, 80.0}
        assert {30.0, 50.0, 80.0} <= set(np.unique(t2))

    def test_deterministic(self):
        spec = default_spec(extents=(8, 12, 10), n_coils=4, texture=1.0,
                            noise_sigma=0.1, seed=7)
        a = make_phantom(spec)["kspace"].data
        b = make_phantom(spec)["kspace"].data
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_noise(self):
        kw = dict(extents=(8, 12, 10), n_coils=2, noise_sigma=0.1)
        a = make_phantom(default_spec(seed=0, **kw))["kspace"].data
        b = make_phantom(default_spec(seed=1, **kw))["kspace"].data
        assert not np.array_equal(a, b)

    def test_texture_modulates_only_interior(self):
        smooth = make_phantom(default_spec(extents=(16, 16, 8), n_coils=1))
        rough = make_phantom(
            default_spec(extents=(16, 16, 8), n_coils=1, texture=0.5)
        )
        outside = np.abs(smooth["images"].data[0]) == 0
        assert (np.abs(rough["images"].data[0][outside]) == 0).all()
        assert not np.allclose(rough["images"].data, smooth["images"].data)

    def test_singleton_z_axis(self):
        ph = make_phantom(default_spec(extents=(16, 16, 1), n_coils=2))
        assert np.abs(ph["images"].data).max() > 0


class TestSmoothCoils:
    def test_unit_sum_of_squares(self):
        maps = make_smooth_coils((12, 12, 8), 6, seed=3)
        ssq = np.sum(np.abs(maps) ** 2, axis=0)
        np.testing.assert_allclose(ssq, 1.0, atol=1e-12)

    def test_every_axis_varies(self):
        maps = make_smooth_coils((16, 16, 8), 8, seed=0)
        mag = np.abs(maps)
        for ax in (1, 2, 3):
            assert np.ptp(mag, axis=ax).max() > 1e-3

    def test_deterministic(self):
        a = make_smooth_coils((8, 8, 4), 4, seed=5)
        b = make_smooth_coils((8, 8, 4), 4, seed=5)
        np.testing.assert_array_equal(a, b)


class TestFactoredSynthesis:
    """The per-axis coil factors and the broadcast painter against their
    full-grid references."""

    @pytest.mark.parametrize("extents", [(32, 96, 96), (7, 5, 3), (16, 16, 1)])
    @pytest.mark.parametrize("n_coils,seed", [(8, 0), (3, 7), (5, 11)])
    def test_coils_match_the_full_grid_formula(self, extents, n_coils, seed):
        maps = make_smooth_coils(extents, n_coils, seed=seed)
        ref = full_grid_smooth_coils(extents, n_coils, seed=seed)
        assert maps.shape == ref.shape and maps.dtype == ref.dtype
        rel = np.abs(maps - ref).max() / np.abs(ref).max()
        assert rel <= 1e-13
        ssq = np.sum(np.abs(maps) ** 2, axis=0)
        np.testing.assert_allclose(ssq, 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("spec", [
        *(default_spec(extents=e) for e in
          [(32, 96, 96), (7, 5, 3), (16, 16, 1), (1, 1, 1), (16, 72, 72)]),
        PhantomSpec(extents=(9, 13, 6), ellipsoids=(
            Ellipsoid((2.5, 11.0, 1.0), (3.3, 4.1, 2.2), 0.5 - 1j, 40.0, 20.0),
            Ellipsoid((7.0, 3.5, 4.7), (2.0, 6.0, 1.5), 2.0, 70.0, 35.0),
        )),
    ], ids=["32x96x96", "7x5x3", "16x16x1", "1x1x1", "16x72x72", "off-centre"])
    def test_paint_is_bit_identical_to_the_meshgrid_painter(self, spec):
        for got, ref in zip(_paint(spec), meshgrid_paint(spec)):
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)

    def test_coil_peak_memory(self):
        """The output plus three real 3-D grids: the full-grid formula's
        coordinate grids and per-coil temporaries peak near twice that."""
        extents, n_coils = (32, 96, 96), 8
        grid = np.prod(extents) * 8
        tracemalloc.start()
        try:
            maps = make_smooth_coils(extents, n_coils, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert maps.nbytes == n_coils * 2 * grid
        assert peak <= maps.nbytes + 3 * grid


class TestCompactCoils:
    def test_kspace_support(self):
        support = 3
        maps = make_compact_coils((16, 16, 8), 4, support=support, seed=0)
        k = fftc_nd(maps.data, axes=(1, 2, 3))
        window = np.zeros((16, 16, 8), dtype=bool)
        window[
            center_slices(16, support),
            center_slices(16, support),
            center_slices(8, support),
        ] = True
        assert np.abs(k[:, ~window]).max() < 1e-12
        assert np.abs(k[:, window]).max() > 0

    def test_no_spatial_zeros(self):
        maps = make_compact_coils((16, 16, 8), 4, support=3, seed=0).data
        ssq = np.sum(np.abs(maps) ** 2, axis=0)
        assert ssq.min() > 1e-6

    def test_normalized_option(self):
        maps = make_compact_coils((8, 8, 8), 4, support=3, normalized=True).data
        ssq = np.sum(np.abs(maps) ** 2, axis=0)
        np.testing.assert_allclose(ssq, 1.0, atol=1e-12)

    def test_even_support_raises(self):
        with pytest.raises(ConfigError):
            make_compact_coils((8, 8, 8), 4, support=2)

    def test_support_exceeding_grid_raises(self):
        with pytest.raises(ConfigError):
            make_compact_coils((8, 8, 2), 4, support=3)
