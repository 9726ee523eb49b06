"""The full-grid stages stream the coil axis.

Each streamed stage is compared bit for bit (``np.array_equal``) with the
whole-array formula it replaced, kept here as the reference, and its
traced peak memory is bounded by its output plus a stated number of
one-coil volumes.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.fft

from rakikit import (
    CTensor,
    ReconProblem,
    TrainConfig,
    apply_mask,
    build_targets,
    centered_acs_box,
    coil_combine,
    echo_shifted_masks,
    fftc,
    fftc_nd,
    ifftc,
    ifftc_nd,
    infer,
    make_combo_target,
    make_elliptical_mask,
    make_kyt_mask,
    make_uniform_mask,
    train_raki,
    zerofill_recon,
)
from rakikit import recon_models
from rakikit.espirit import SensitivityMaps
from rakikit.recon_models import _decimated_input, _train_float32, linear_init
from rakikit.sampling import acquired_coords, steps

CFG = TrainConfig(iterations=2, widths=(8, 8, 8, 8),
                  kernel_sizes=((3, 3, 3), (1, 1, 3), (1, 1, 1), (1, 1, 1),
                                (1, 1, 1)), seed=0)
N_COILS = 8


# ---------------------------------------------------------------------------
# the whole-array formulas the streamed stages replaced


def centred_reference(transform, data, axes):
    """Three buffers: the shifted copy, its transform, the shifted result."""
    shifted = scipy.fft.ifftshift(data, axes=axes)
    return scipy.fft.fftshift(transform(shifted, axes=axes, norm="ortho"),
                              axes=axes)


def combine_reference(x, m):
    """np.sum over the coil axis of conj(maps) times the coil images.

    ``x`` is [coil, kx, ky, kz] or dynamic [coil, kx, ky, t] (maps kz=1).
    """
    if x.shape[-1] != m.shape[-1]:
        return np.sum(np.conj(m)[..., None] * x[..., None, :], axis=0)[..., 0, :]
    return np.sum(np.conj(m) * x, axis=0)


def zerofill_reference(x, m, n_fourier=3):
    """k-space and complex image of the zero-filled combine, echoes stacked.

    ``x`` is [coil, (echo,) kx, p1, p2]; the first ``n_fourier`` of
    (kx, p1, p2) are transformed.
    """
    echo = x.ndim == 5
    lead = 2 if echo else 1
    axes = tuple(range(lead, lead + n_fourier))
    img = centred_reference(scipy.fft.ifftn, x, axes)
    if echo:
        comb = np.stack([combine_reference(img[:, e], m)
                         for e in range(x.shape[1])])
    else:
        comb = combine_reference(img, m)
    return centred_reference(scipy.fft.fftn, comb, tuple(a - 1 for a in axes)), comb


def boxed_combo_reference(x, m, mask):
    """Combined ACS k-space from a full-size zero-filled copy of every coil."""
    (b1, l1), (b2, l2) = mask.acs_box
    boxed = np.zeros_like(x)
    boxed[:, :, b1:b1 + l1, b2:b2 + l2] = x[:, :, b1:b1 + l1, b2:b2 + l2]
    img = centred_reference(scipy.fft.ifftn, boxed, (1, 2, 3))
    return centred_reference(scipy.fft.fftn, combine_reference(img, m), (0, 1, 2))


def lattice_gather(data, mask):
    """Every rectangular-lattice index of [c, p1, p2, ...], gathered from the
    acquired frame through the wrapped map."""
    n1, n2 = mask.extents
    i, j = acquired_coords(mask, *np.ogrid[:n1, :n2])
    return data[:, i % n1, j % n2]


def decimated_reference(x, masks):
    """Full lattice gather of [coil, (echo,) kx, p1, p2], then decimation."""
    arr = x if x.ndim == 5 else x[:, None]
    arr = np.moveaxis(arr, 2, -1)  # [coil, echo, p1, p2, kx]
    s1, s2 = steps(masks[0])
    return np.concatenate([lattice_gather(arr[:, e], mask)[:, ::s1, ::s2, :]
                           for e, mask in enumerate(masks)], axis=0)


# ---------------------------------------------------------------------------
# scenes: random coil k-space and unit-free random maps


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_maps(rng, extents):
    m = random_complex(rng, (N_COILS, *extents))
    return SensitivityMaps(CTensor(m, ("coil", "kx", "ky", "kz")),
                           np.ones(extents), 6, 0.01, 0.9)


def lattice_scene(seed=0, extents=(16, 48, 48), n_echo=1, elliptical=False):
    """Masked 8-coil k-space, its masks and maps; R=3x3 CAIPI, 24x24 ACS."""
    rng = np.random.default_rng(seed)
    grid = extents[1:]
    maker = make_elliptical_mask if elliptical else make_uniform_mask
    base = maker(grid, 3, 3, shift=1, acs_box=centered_acs_box(grid, (24, 24)))
    masks = echo_shifted_masks(base, n_echo) if n_echo > 1 else (base,)
    k = random_complex(rng, (N_COILS, n_echo, *extents))
    for e, mask in enumerate(masks):
        k[:, e] = apply_mask(CTensor(k[:, e], ("coil", "kx", "ky", "kz")),
                             mask).data
    if n_echo == 1:
        x = CTensor(k[:, 0], ("coil", "kx", "ky", "kz"))
    else:
        x = CTensor(k, ("coil", "echo", "kx", "ky", "kz"))
    return x, masks, random_maps(rng, extents)


def kyt_scene(seed=0):
    """Masked 8-coil ky-t series [coil, kx, ky, t] with kz=1 maps."""
    rng = np.random.default_rng(seed)
    mask = make_kyt_mask(24, 12, 3, shift=1,
                         acs_box=centered_acs_box((24, 12), (12, 12)))
    x = apply_mask(CTensor(random_complex(rng, (N_COILS, 16, 24, 12)),
                           ("coil", "kx", "ky", "t")), mask)
    return x, (mask,), random_maps(rng, (16, 24, 1))


# ---------------------------------------------------------------------------
# bit for bit


class TestBitIdentical:
    @pytest.mark.parametrize("shape,axes", [
        ((8, 16, 48, 48), (1, 2, 3)),
        ((8, 16, 48, 48), (1,)),
        ((3, 7, 11, 13), (3, 1)),
        ((5, 9, 10), (0, 1, 2)),
    ])
    def test_centred_fft_pair(self, shape, axes):
        x = random_complex(np.random.default_rng(1), shape)
        labels = ("coil", "kx", "ky", "kz")[-len(shape):]
        named = tuple(labels[a] for a in axes)
        t = CTensor(x, labels)
        for ours, nd, transform in ((fftc, fftc_nd, scipy.fft.fftn),
                                    (ifftc, ifftc_nd, scipy.fft.ifftn)):
            ref = centred_reference(transform, x, axes)
            assert np.array_equal(ours(t, named).data, ref)
            assert np.array_equal(nd(x, axes), ref)
        # one coil at a time is the whole-array transform
        if len(shape) == 4 and 0 not in axes:
            per_coil = np.stack([fftc_nd(c, tuple(a - 1 for a in axes)) for c in x])
            assert np.array_equal(per_coil, fftc_nd(x, axes))

    def test_coil_combine_static(self):
        x, _, maps = lattice_scene()
        m = maps.maps.data
        assert np.array_equal(coil_combine(x, maps).data,
                              combine_reference(x.data, m))
        img = centred_reference(scipy.fft.ifftn, x.data, (1, 2, 3))
        assert np.array_equal(coil_combine(x, maps, ("kx", "ky", "kz")).data,
                              combine_reference(img, m))

    def test_coil_combine_kyt(self):
        x, _, maps = kyt_scene()
        m = maps.maps.data
        out = coil_combine(x, maps)
        assert out.axes == ("kx", "ky", "t")
        assert np.array_equal(out.data, combine_reference(x.data, m))
        img = centred_reference(scipy.fft.ifftn, x.data, (1, 2))
        assert np.array_equal(coil_combine(x, maps, ("kx", "ky")).data,
                              combine_reference(img, m))

    def test_coil_combine_other_axis_order(self):
        x, _, maps = lattice_scene()
        moved = x.transpose(("kz", "coil", "kx", "ky"))
        out = coil_combine(moved, maps)
        assert out.axes == ("kz", "kx", "ky")
        assert np.array_equal(out.transpose(("kx", "ky", "kz")).data,
                              combine_reference(x.data, maps.maps.data))

    def test_make_combo_target(self):
        x, masks, maps = lattice_scene()
        ref = centred_reference(
            scipy.fft.fftn,
            combine_reference(centred_reference(scipy.fft.ifftn, x.data, (1, 2, 3)),
                              maps.maps.data), (0, 1, 2))
        assert np.array_equal(make_combo_target(x, maps).data, ref)
        assert np.array_equal(make_combo_target(x, maps, masks[0]).data,
                              boxed_combo_reference(x.data, maps.maps.data, masks[0]))

    def test_make_combo_target_echoes(self):
        x, masks, maps = lattice_scene(n_echo=3)
        out = make_combo_target(x, maps, masks[0])
        assert out.axes == ("echo", "kx", "ky", "kz")
        for e in range(3):
            assert np.array_equal(
                out.data[e],
                boxed_combo_reference(x.data[:, e], maps.maps.data, masks[0]))

    @pytest.mark.parametrize("n_echo", [1, 3])
    def test_zerofill_recon(self, n_echo):
        x, masks, maps = lattice_scene(n_echo=n_echo, elliptical=n_echo > 1)
        res = zerofill_recon(ReconProblem(x, masks, "eraki", CFG, maps=maps))
        ksp, comb = zerofill_reference(x.data, maps.maps.data)
        assert np.array_equal(res.kspace.data, ksp)
        assert np.array_equal(res.image.data, np.abs(comb))

    def test_zerofill_recon_kyt(self):
        x, masks, maps = kyt_scene()
        res = zerofill_recon(ReconProblem(x, masks, "eraki", CFG, maps=maps))
        ksp, comb = zerofill_reference(x.data, maps.maps.data, n_fourier=2)
        assert np.array_equal(res.kspace.data, ksp)
        assert np.array_equal(res.image.data, np.abs(comb))

    @pytest.mark.parametrize("scene", ["uniform", "elliptical-echoes", "kyt"])
    def test_decimated_input(self, scene):
        if scene == "kyt":
            x, masks, maps = kyt_scene()
        else:
            x, masks, maps = lattice_scene(n_echo=3 if "echoes" in scene else 1,
                                           elliptical="elliptical" in scene)
        problem = ReconProblem(x, masks, "eraki", CFG, maps=maps)
        assert np.array_equal(_decimated_input(problem),
                              decimated_reference(x.data, masks))

    def test_raki_shares_input_scale_and_padding(self, small_scene, monkeypatch):
        problem = ReconProblem(small_scene["masked"], (small_scene["mask"],),
                               "raki_percoil", CFG, maps=small_scene["maps"])
        # the per-coil formula: one build_targets call per coil
        expected = [_train_float32(linear_init(ts, CFG), ts, CFG)
                    for ts in (build_targets(problem, coil=c)
                               for c in range(problem.n_coils))]
        calls = {"dec": 0, "scale": 0}
        seen = []

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(recon_models, "_decimated_input",
                            counted("dec", recon_models._decimated_input))
        monkeypatch.setattr(recon_models, "_acs_scale",
                            counted("scale", recon_models._acs_scale))
        models, histories = train_raki(problem)
        assert calls == {"dec": 1, "scale": 1}
        for (want, want_hist), got, hist in zip(expected, models, histories):
            assert hist == want_hist
            for a, b in zip(want.layers, got.layers):
                assert np.array_equal(a.kernel, b.kernel)
                assert np.array_equal(a.bias, b.bias)

        predict = recon_models.predict
        monkeypatch.setattr(recon_models, "predict",
                            lambda model, x: seen.append(x) or predict(model, x))
        calls.update(dec=0, scale=0)
        infer(models, problem)
        assert calls == {"dec": 1, "scale": 1}
        assert len(seen) == problem.n_coils
        assert all(x is seen[0] for x in seen)


# ---------------------------------------------------------------------------
# traced peak memory, in one-coil volumes


def traced_peak(fn):
    """Result of ``fn()`` and the traced peak of the allocations it made."""
    fn()  # warm up: imports and FFT plans are not what is measured
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """Each bound fails at the whole-array formulas: ifftc held three
    volumes, the combine a conjugate copy of the maps and the full product,
    and every combining stage the whole multi-coil image."""

    @pytest.fixture(scope="class")
    def scene(self):
        x, masks, maps = lattice_scene()
        return x, masks, maps, x.data[0].nbytes  # one coil's volume

    def test_centred_fft_holds_one_scratch_volume(self, scene):
        x, _, _, coil = scene
        out, peak = traced_peak(lambda: ifftc(x, ("kx", "ky", "kz")))
        assert peak <= 2 * out.data.nbytes + coil // 8

    def test_coil_combine(self, scene):
        x, _, maps, coil = scene
        out, peak = traced_peak(lambda: coil_combine(x, maps))
        assert out.data.nbytes == coil
        assert peak <= out.data.nbytes + 2.5 * coil
        out, peak = traced_peak(lambda: coil_combine(x, maps, ("kx", "ky", "kz")))
        assert peak <= out.data.nbytes + 2.5 * coil

    def test_make_combo_target(self, scene):
        x, masks, maps, coil = scene
        for mask in (None, masks[0]):
            out, peak = traced_peak(lambda: make_combo_target(x, maps, mask))
            assert peak <= out.data.nbytes + 3.5 * coil

    def test_zerofill_recon(self, scene):
        x, masks, maps, coil = scene
        problem = ReconProblem(x, masks, "eraki", CFG, maps=maps)
        res, peak = traced_peak(lambda: zerofill_recon(problem))
        assert peak <= res.kspace.data.nbytes + res.image.data.nbytes + 2.5 * coil

    def test_build_targets(self, scene):
        x, masks, maps, coil = scene
        problem = ReconProblem(x, masks, "eraki", CFG, maps=maps)
        ts, peak = traced_peak(lambda: build_targets(problem))
        held = ts.inputs.nbytes + ts.targets.nbytes + ts.valid.nbytes
        assert peak <= held + 6 * coil
