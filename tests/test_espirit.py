"""ESPIRiT sensitivity estimation and coil-combination properties."""

import sys

import numpy as np
import pytest

from rakikit import (
    ConfigError,
    CTensor,
    GeometryError,
    NumericalError,
    apply_mask,
    centered_acs_box,
    coil_combine,
    default_spec,
    espirit_maps,
    extract_acs,
    fftc,
    ifftc,
    ifftc_nd,
    kspace_combine_convolution,
    make_combo_target,
    make_compact_coils,
    make_phantom,
    make_uniform_mask,
)
from rakikit import espirit
from rakikit.espirit import (
    SensitivityMaps,
    _centred_idft,
    _gram,
    _lag_correlation,
    _leading_eigenpairs,
    _row_space,
)
from rakikit.tensors import center_slices

from conftest import compact_scene


def estimated_maps(extents=(8, 32, 32), n_coils=4, seed=0, **kw):
    ksp, coils = compact_scene(extents, n_coils, (6, 20, 20), seed=seed)
    mask = make_uniform_mask(
        extents[1:], 2, 2, acs_box=centered_acs_box(extents[1:], (16, 16))
    )
    acs = extract_acs(apply_mask(ksp, mask), mask)
    maps = espirit_maps(acs, out_extents=extents[1:], **kw)
    return maps, coils, ksp


def criterion_03_acs():
    """ACS of the criterion-03 scene: 8 compact coils, 16x64x64, 24x24 ACS."""
    extents = (16, 64, 64)
    obj = make_phantom(default_spec(extents=extents, n_coils=1))["images"].data[0]
    coils = make_compact_coils(extents, 8, support=3, seed=0).data
    ksp = fftc(CTensor(coils * obj[None], ("coil", "kx", "ky", "kz")),
               ("kx", "ky", "kz"))
    mask = make_uniform_mask(
        (64, 64), 2, 2, acs_box=centered_acs_box((64, 64), (24, 24))
    )
    return extract_acs(apply_mask(ksp, mask), mask)


def image_space_gram(kern, out1, out2):
    """Reference Gram: zero-pad each kernel, inverse-transform, sum V V^H."""
    nk, nc, k1, k2 = kern.shape
    pad = np.zeros((nk, nc, out1, out2), dtype=np.complex128)
    pad[:, :, center_slices(out1, k1), center_slices(out2, k2)] = kern
    V = ifftc_nd(pad, axes=(2, 3)) * np.sqrt(out1 * out2 / (k1 * k2))
    V = V.transpose(2, 3, 1, 0)  # [out1, out2, nc, nk]
    return V @ V.conj().swapaxes(-1, -2)


def reference_maps(acs, kernel_size, crop_threshold=0.9, out_extents=None,
                   sigma_threshold=0.01):
    """Maps from the Hankel SVD, the image-space Gram and a full eigh."""
    x = acs.transpose(("coil", "kx", "ky", "kz"))
    nc, nx, n1, n2 = x.shape
    k = kernel_size
    out1, out2 = out_extents or (n1, n2)
    hyb = ifftc(x, "kx").data
    scale = np.max(np.sqrt(np.sum(np.abs(hyb) ** 2, axis=(0, 2, 3))))
    maps = np.zeros((nc, nx, out1, out2), dtype=np.complex128)
    eigval = np.zeros((nx, out1, out2))
    for ix in range(nx):
        win = np.lib.stride_tricks.sliding_window_view(hyb[:, ix], (k, k), axis=(1, 2))
        A = win.transpose(1, 2, 0, 3, 4).reshape(-1, nc * k * k)
        _, s, vh = np.linalg.svd(A, full_matrices=False)
        if s[0] <= max(scale, s[0]) * 1e-12:
            continue
        kern = vh[s >= sigma_threshold * s[0]].reshape(-1, nc, k, k)
        evals, evecs = np.linalg.eigh(image_space_gram(kern, out1, out2))
        vec = evecs[..., -1]
        ph = vec[..., 0]
        gauge = np.where(ph == 0, 1.0, ph / np.abs(np.where(ph == 0, 1.0, ph)))
        vec = vec * np.conj(gauge)[..., None]
        keep = evals[..., -1] >= crop_threshold
        maps[:, ix] = np.where(keep[None], vec.transpose(2, 0, 1), 0)
        eigval[ix] = evals[..., -1]
    return maps, eigval


class TestGramKernel:
    @pytest.mark.parametrize(
        "k1,k2,out1,out2",
        [
            (6, 6, 32, 32),  # even kernel, even grid
            (5, 5, 45, 37),  # odd kernel, odd grids
            (5, 4, 21, 20),  # mixed kernel, mixed grid parities
            (3, 6, 11, 12),
            (6, 6, 8, 8),  # grid smaller than the 11x11 lag support
            (6, 5, 7, 9),  # ... with odd and mixed extents
            (6, 6, 96, 96),  # the criterion-04 grid
        ],
    )
    def test_matches_image_space_gram(self, k1, k2, out1, out2):
        rng = np.random.default_rng(k1 * 100 + out1)
        kern = rng.standard_normal((7, 8, k1, k2)) + 1j * rng.standard_normal(
            (7, 8, k1, k2)
        )
        ref = image_space_gram(kern, out1, out2)
        got = _gram(_lag_correlation(kern), _centred_idft(out1, k1),
                    _centred_idft(out2, k2))
        assert got.shape == (out1, out2, 8, 8)
        assert got.flags["C_CONTIGUOUS"]
        tol = 1e-12 * np.abs(ref).max()
        assert np.abs(got - ref).max() < tol
        assert np.abs(got - got.conj().swapaxes(-1, -2)).max() < tol


class TestLeadingEigenpairs:
    def _batch(self, spectra, seed=0):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((len(spectra), 4, 4)) + 1j * rng.standard_normal(
            (len(spectra), 4, 4)
        )
        q, _ = np.linalg.qr(z)
        G = q @ (np.asarray(spectra)[..., None] * q.conj().swapaxes(-1, -2))
        return G, q

    def test_power_iteration_matches_eigh(self):
        G, q = self._batch([[1.0, 0.3, 0.1, 0.0], [0.95, 0.5, 0.2, 0.1]])
        start = q[..., 0] + 0.1 * q[..., 1]
        lead, vec, n_eigh = _leading_eigenpairs(G, start)
        assert n_eigh == 0
        np.testing.assert_allclose(lead, [1.0, 0.95], atol=1e-12)
        overlap = np.abs(np.sum(np.conj(vec) * q[..., 0], axis=-1))
        np.testing.assert_allclose(overlap, 1.0, atol=1e-12)

    def test_small_gap_and_zero_matrices_fall_back_to_eigh(self):
        G, q = self._batch([[1.0, 0.3, 0.1, 0.0], [1.0, 0.999, 0.1, 0.0],
                            [0.0, 0.0, 0.0, 0.0]])
        start = q[..., 1] + 1e-3 * q[..., 0]
        lead, vec, n_eigh = _leading_eigenpairs(G, start)
        assert n_eigh == 2
        evals, evecs = np.linalg.eigh(G)
        np.testing.assert_allclose(lead, evals[:, -1], atol=1e-12)
        np.testing.assert_array_equal(vec[1:], evecs[1:, :, -1])

    @pytest.mark.parametrize("gap", [0.8, 0.95])
    def test_slow_gaps_converge_by_further_squaring(self, gap):
        # lambda_2 / lambda_1 = gap leaves G^64 short of the tolerance;
        # squaring on to at most G^1024 converges without eigh
        G, q = self._batch([[1.0, gap, 0.1, 0.0], [0.5, 0.5 * gap, 0.2, 0.05]],
                           seed=3)
        start = q[..., 0] + 0.1 * q[..., 1] + 0.05 * q[..., 2]
        lead, vec, n_eigh = _leading_eigenpairs(G, start)
        assert n_eigh == 0
        evals, _ = np.linalg.eigh(G)
        np.testing.assert_allclose(lead, evals[:, -1], rtol=0, atol=1e-12)
        overlap = np.abs(np.sum(np.conj(vec) * q[..., 0], axis=-1))
        np.testing.assert_allclose(overlap, 1.0, atol=1e-12)


def primal_row_space(hyb_x, k1, k2, tau, scale=0.0):
    """Row-space kernels from eigh(A^H A) whatever the shape of A."""
    nc = hyb_x.shape[0]
    if np.sqrt(k1 * k2) * np.linalg.norm(hyb_x) <= scale * 1e-12:
        return np.zeros((0, nc, k1, k2), dtype=np.complex128)
    win = np.lib.stride_tricks.sliding_window_view(hyb_x, (k1, k2), axis=(1, 2))
    A = win.transpose(1, 2, 0, 3, 4).reshape(-1, nc * k1 * k2)
    lam, vec = np.linalg.eigh(A.conj().T @ A)
    s = np.sqrt(np.maximum(lam[::-1], 0.0))
    if s[0] <= max(scale, s[0]) * 1e-12:
        return np.zeros((0, nc, k1, k2), dtype=np.complex128)
    keep = s >= tau * s[0]
    return vec[:, ::-1][:, keep].conj().T.reshape(-1, nc, k1, k2)


class TestRowSpace:
    def test_dual_form_spans_the_primal_row_space(self):
        # 8 coils, 16x16 slice, k = 6: 121 windows against 288 columns
        rng = np.random.default_rng(3)
        hyb = rng.standard_normal((8, 16, 16)) + 1j * rng.standard_normal((8, 16, 16))
        hyb[:, :, 8:] *= 1e-3  # a decaying spectrum, so the cut drops some
        scale = float(np.linalg.norm(hyb))
        dual = _row_space(hyb, 6, 6, 0.01, scale).reshape(-1, 288)
        primal = primal_row_space(hyb, 6, 6, 0.01, scale).reshape(-1, 288)
        assert len(dual) == len(primal) < 121
        np.testing.assert_allclose(dual @ dual.conj().T, np.eye(len(dual)),
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(dual.conj().T @ dual, primal.conj().T @ primal,
                                   rtol=0, atol=1e-9)

    def test_dual_form_matches_the_primal_maps(self, monkeypatch):
        # 8 coils, 16x16 ACS, k = 6: 121 windows against 288 columns
        maps, _, _ = estimated_maps(n_coils=8)
        monkeypatch.setattr(espirit, "_row_space", primal_row_space)
        ref, _, _ = estimated_maps(n_coils=8)
        keep = maps.eigval >= 0.9
        np.testing.assert_array_equal(keep, ref.eigval >= 0.9)
        assert keep.any()
        np.testing.assert_allclose(maps.eigval, ref.eigval, rtol=0, atol=1e-9)
        assert np.abs(maps.maps.data - ref.maps.data).max() <= 1e-9

    def test_negligible_slice_returns_no_kernels_without_eigh(self, monkeypatch):
        rng = np.random.default_rng(5)
        hyb = rng.standard_normal((4, 16, 16)) + 1j * rng.standard_normal((4, 16, 16))
        scale = float(np.linalg.norm(hyb))
        assert len(_row_space(hyb, 6, 6, 0.01, scale)) > 0

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called on a negligible slice")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        kern = _row_space(hyb * 1e-20, 6, 6, 0.01, scale)
        assert kern.shape == (0, 4, 6, 6)


def test_shared_map_takes_each_item_once():
    """More threads than cores, switching every microsecond: every item is
    called exactly once and its result lands at its own index."""
    calls = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = espirit._shared_map(lambda i: calls.append(i) or 2 * i,
                                  range(2000), threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert got == [2 * i for i in range(2000)]
    assert sorted(calls) == list(range(2000))


class TestMapEstimation:
    def test_unit_or_zero_norm(self):
        maps, _, _ = estimated_maps()
        ssq = np.sum(np.abs(maps.maps.data) ** 2, axis=0)
        ok = (np.abs(ssq - 1) < 1e-10) | (ssq < 1e-10)
        assert ok.all()

    def test_alignment_with_truth(self):
        maps, coils, _ = estimated_maps(crop_threshold=0.99)
        m = maps.maps.data
        cdir = coils / np.sqrt(np.sum(np.abs(coils) ** 2, axis=0))
        support = np.sum(np.abs(m) ** 2, axis=0) > 0.5
        align = np.abs(np.sum(np.conj(m) * cdir, axis=0))
        assert support.sum() > 1000
        assert align[support].min() > 0.99

    def test_crop_threshold_zeroes_low_eigval(self):
        maps, _, _ = estimated_maps(crop_threshold=0.95)
        low = maps.eigval < 0.95
        assert (np.abs(maps.maps.data[:, low]) == 0).all()

    def test_phase_gauge_first_coil_real(self):
        maps, _, _ = estimated_maps()
        support = np.sum(np.abs(maps.maps.data) ** 2, axis=0) > 0.5
        first = maps.maps.data[0][support]
        assert np.abs(first.imag).max() < 1e-10
        assert first.real.min() >= 0

    def test_empty_readout_slices_have_no_support(self):
        # an all-zero readout slice must not fabricate support out of
        # round-off noise
        from rakikit import default_spec, make_phantom

        ph = make_phantom(
            default_spec(extents=(8, 32, 32), n_coils=4, coil_model="compact")
        )
        ksp = CTensor(ph["kspace"].data[:, 0], ("coil", "kx", "ky", "kz"))
        hybrid = ifftc(ksp, "kx")
        assert np.abs(hybrid.data[:, 0]).max() < 1e-12
        mask = make_uniform_mask(
            (32, 32), 2, 2, acs_box=centered_acs_box((32, 32), (16, 16))
        )
        acs = extract_acs(ksp, mask)
        maps = espirit_maps(acs, out_extents=(32, 32))
        assert (maps.eigval[0] == 0).all()
        assert (np.abs(maps.maps.data[:, 0]) == 0).all()

    def test_readouts_are_independent(self, small_scene, monkeypatch):
        """Every readout starts from the same vector: with the kernels of
        the first readout that has any dropped, every other readout's maps
        are bit for bit those of the unpatched call."""
        ref = small_scene["maps"]  # kernel 5 on the 48x48 mask grid
        has_kernels = ref.eigval.any(axis=(1, 2))
        ix = int(np.argmax(has_kernels))
        assert has_kernels[ix] and has_kernels[ix + 1]
        row_space = espirit._row_space
        # readouts may run on several threads, so readout ix is known by its
        # slice of the hybrid ACS, not by the order of the calls
        dropped = ifftc(small_scene["acs"].transpose(
            ("coil", "kx", "ky", "kz")), "kx").data[:, ix]

        def drop_readout_ix(hyb_x, *args):
            kern = row_space(hyb_x, *args)
            return kern[:0] if np.array_equal(hyb_x, dropped) else kern

        monkeypatch.setattr(espirit, "_row_space", drop_readout_ix)
        got = espirit_maps(small_scene["acs"], kernel_size=5,
                           out_extents=(48, 48))
        assert (got.eigval[ix] == 0).all()
        others = np.arange(len(has_kernels)) != ix
        assert np.array_equal(got.maps.data[:, others], ref.maps.data[:, others])
        assert np.array_equal(got.eigval[others], ref.eigval[others])

    def test_blocks_leave_the_maps_bit_identical(self, small_scene, monkeypatch):
        """Each voxel's arithmetic does not depend on the block of rows it
        comes in: one block per readout gives the same maps bit for bit."""
        ref = small_scene["maps"]  # kernel 5 on the 48x48 mask grid
        assert espirit._BLOCK_VOXELS < 48 * 48
        monkeypatch.setattr(espirit, "_BLOCK_VOXELS", 48 * 48)
        got = espirit_maps(small_scene["acs"], kernel_size=5,
                           out_extents=(48, 48))
        assert np.array_equal(got.maps.data, ref.maps.data)
        assert np.array_equal(got.eigval, ref.eigval)
        assert got.eigh_fallbacks == ref.eigh_fallbacks

    def test_low_resolution_default_grid(self):
        ksp, _ = compact_scene((8, 32, 32), 4, (6, 20, 20))
        mask = make_uniform_mask(
            (32, 32), 2, 2, acs_box=centered_acs_box((32, 32), (16, 16))
        )
        acs = extract_acs(ksp, mask)
        maps = espirit_maps(acs)
        assert maps.maps.shape == (4, 8, 16, 16)

    def test_acs_too_small_raises(self):
        acs = CTensor(np.ones((4, 8, 4, 4)), ("coil", "kx", "ky", "kz"))
        with pytest.raises(GeometryError):
            espirit_maps(acs, kernel_size=6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_acs_raises(self, bad):
        ksp, _ = compact_scene((8, 32, 32), 4, (6, 20, 20))
        mask = make_uniform_mask(
            (32, 32), 2, 2, acs_box=centered_acs_box((32, 32), (16, 16))
        )
        acs = extract_acs(ksp, mask)
        data = acs.data.copy()
        data[1, 4, 8, 8] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            espirit_maps(acs.with_data(data))

    @pytest.mark.parametrize(
        "scene",
        ["estimated_maps", "criterion_03", "low_resolution_8x8"],
    )
    def test_matches_full_eigh_reference(self, scene):
        if scene == "estimated_maps":
            ksp, _ = compact_scene((8, 32, 32), 4, (6, 20, 20))
            mask = make_uniform_mask(
                (32, 32), 2, 2, acs_box=centered_acs_box((32, 32), (16, 16))
            )
            acs = extract_acs(apply_mask(ksp, mask), mask)
            kw = {"out_extents": (32, 32)}
        elif scene == "criterion_03":
            acs = criterion_03_acs()
            kw = {"crop_threshold": 0.99, "out_extents": (64, 64)}
        else:
            # the default 8x8 grid is smaller than the 11x11 lag support of
            # k=6; few kernels fit, so the leading eigenvalues stay below 0.9
            ksp, _ = compact_scene((8, 32, 32), 4, (6, 20, 20))
            acs = CTensor(ksp.data[:, :, 12:20, 12:20], ksp.axes)
            kw = {"crop_threshold": 0.5}
        maps = espirit_maps(acs, kernel_size=6, **kw)
        ref_maps, ref_eigval = reference_maps(acs, 6, **kw)
        crop = kw.get("crop_threshold", 0.9)
        keep = maps.eigval >= crop
        np.testing.assert_array_equal(keep, ref_eigval >= crop)
        assert keep.any()
        np.testing.assert_allclose(maps.eigval, ref_eigval, rtol=0, atol=1e-10)
        assert np.abs(maps.maps.data - ref_maps)[:, keep].max() < 1e-8
        assert maps.retained_frac == keep.mean()
        assert 0 <= maps.eigh_fallbacks < maps.eigval.size

    def test_criterion_03_sends_almost_no_voxels_to_eigh(self):
        # work-count guard: the sweep starts from the uniform vector and
        # carries eigenvectors across empty readouts, so power iteration
        # converges almost everywhere; eigh takes at most 0.1 % of voxels
        maps = espirit_maps(criterion_03_acs(), kernel_size=6,
                            crop_threshold=0.99, out_extents=(64, 64))
        assert maps.eigh_fallbacks <= 1e-3 * maps.eigval.size

    def test_bad_thresholds_raise(self):
        acs = CTensor(np.ones((4, 8, 16, 16)), ("coil", "kx", "ky", "kz"))
        with pytest.raises(ConfigError):
            espirit_maps(acs, sigma_threshold=0.0)
        with pytest.raises(ConfigError):
            espirit_maps(acs, crop_threshold=1.5)

    @pytest.mark.parametrize("kernel_size", [0, -1, 2.5, True, None])
    def test_bad_kernel_size_raises(self, kernel_size):
        acs = CTensor(np.ones((4, 8, 16, 16)), ("coil", "kx", "ky", "kz"))
        with pytest.raises(ConfigError, match="kernel size must be an integer"):
            espirit_maps(acs, kernel_size=kernel_size)


class TestCoilCombine:
    def _maps_from(self, coils):
        eig = np.ones(coils.shape[1:])
        return SensitivityMaps(
            CTensor(coils, ("coil", "kx", "ky", "kz")), eig, 6, 0.01, 0.9
        )

    def test_matched_filter_formula(self):
        rng = np.random.default_rng(0)
        coils = make_compact_coils((4, 8, 8), 3, support=3, normalized=True).data
        x = rng.standard_normal((3, 4, 8, 8)) + 1j * rng.standard_normal((3, 4, 8, 8))
        img = CTensor(x, ("coil", "kx", "ky", "kz"))
        out = coil_combine(img, self._maps_from(coils))
        np.testing.assert_allclose(
            out.data, np.sum(np.conj(coils) * x, axis=0), atol=1e-12
        )

    def test_dynamic_frames_match_per_frame(self):
        rng = np.random.default_rng(1)
        coils = make_compact_coils((4, 8, 1), 3, support=1, normalized=True).data
        maps = self._maps_from(coils)
        x = rng.standard_normal((3, 4, 8, 5)) + 1j * rng.standard_normal((3, 4, 8, 5))
        dyn = coil_combine(CTensor(x, ("coil", "kx", "ky", "t")), maps)
        for t in range(5):
            frame = coil_combine(
                CTensor(x[..., t : t + 1], ("coil", "kx", "ky", "kz")), maps
            )
            np.testing.assert_allclose(
                dyn.transpose(("kx", "ky", "t")).data[..., t],
                frame.data[..., 0],
                atol=1e-12,
            )

    def test_extent_mismatch_raises(self):
        coils = make_compact_coils((4, 8, 8), 3, support=3).data
        img = CTensor(np.ones((3, 4, 8, 4)), ("coil", "kx", "ky", "kz"))
        with pytest.raises(GeometryError):
            coil_combine(img, self._maps_from(coils))

    def test_combo_target_is_transform_sandwich(self):
        maps, _, ksp = estimated_maps()
        combo = make_combo_target(ksp, maps)
        expected = fftc(
            coil_combine(ifftc(ksp, ("kx", "ky", "kz")), maps),
            ("kx", "ky", "kz"),
        )
        np.testing.assert_allclose(combo.data, expected.data, atol=1e-10)

    # (3, 15, 9) has odd extents, where ifftshift and fftshift differ
    @pytest.mark.parametrize("extents", [(4, 16, 16), (3, 15, 9)],
                             ids=["4x16x16", "3x15x9"])
    def test_kspace_convolution_equals_image_combine(self, extents):
        coils = make_compact_coils(
            extents, 4, support=3, seed=1, normalized=True
        ).data
        maps = self._maps_from(coils)
        rng = np.random.default_rng(2)
        k = rng.standard_normal((4, *extents)) + 1j * rng.standard_normal(
            (4, *extents)
        )
        ksp = CTensor(k, ("coil", "kx", "ky", "kz"))
        lhs = kspace_combine_convolution(ksp, maps)
        rhs = fftc(
            coil_combine(ifftc(ksp, ("kx", "ky", "kz")), maps),
            ("kx", "ky", "kz"),
        )
        err = np.max(np.abs(lhs.data - rhs.data)) / np.max(np.abs(rhs.data))
        assert err < 1e-10
