"""Tensor container, centered FFT conventions, metrics, and bundle I/O."""

import json

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from rakikit import (
    BundleError,
    CTensor,
    GeometryError,
    PayloadLengthError,
    ByteOrderError,
    UnknownDtypeError,
    crop_center,
    fftc,
    fftc_nd,
    ifftc,
    ifftc_nd,
    load_bundle,
    nrmse,
    psnr,
    save_bundle,
)
from rakikit.tensors import bundle_meta, center_slices


def rand_c(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestCTensor:
    def test_coerces_to_complex128(self):
        t = CTensor(np.ones((2, 3)), ("kx", "ky"))
        assert t.data.dtype == np.complex128

    def test_axis_lookup(self):
        t = CTensor(np.zeros((2, 3, 4)), ("coil", "kx", "ky"))
        assert t.axis("kx") == 1
        assert t.extent("ky") == 4
        assert t.has_axis("coil") and not t.has_axis("kz")

    def test_missing_axis_raises(self):
        t = CTensor(np.zeros((2,)), ("kx",))
        with pytest.raises(GeometryError):
            t.axis("kz")

    def test_rank_mismatch_raises(self):
        with pytest.raises(GeometryError):
            CTensor(np.zeros((2, 3)), ("kx",))

    def test_duplicate_axes_raise(self):
        with pytest.raises(GeometryError):
            CTensor(np.zeros((2, 2)), ("kx", "kx"))

    def test_unknown_label_raises(self):
        with pytest.raises(GeometryError):
            CTensor(np.zeros((2,)), ("bogus",))

    def test_transpose_roundtrip(self):
        x = rand_c((2, 3, 4))
        t = CTensor(x, ("coil", "kx", "ky"))
        back = t.transpose(("ky", "coil", "kx")).transpose(("coil", "kx", "ky"))
        np.testing.assert_array_equal(back.data, t.data)

    @pytest.mark.parametrize("order", [
        ("coil", "kx"),  # missing
        ("coil", "kx", "ky", "kz"),  # extra
        ("coil", "kx", "kx"),  # repeated
    ])
    def test_transpose_needs_a_permutation(self, order):
        t = CTensor(rand_c((2, 3, 4)), ("coil", "kx", "ky"))
        with pytest.raises(GeometryError, match="not a permutation"):
            t.transpose(order)


class TestCenteredFFT:
    def test_inverse(self):
        t = CTensor(rand_c((4, 6, 5)), ("kx", "ky", "kz"))
        back = ifftc(fftc(t, ("kx", "ky", "kz")), ("kx", "ky", "kz"))
        np.testing.assert_allclose(back.data, t.data, atol=1e-12)

    def test_orthonormal(self):
        t = CTensor(rand_c((8, 8)), ("kx", "ky"))
        f = fftc(t, ("kx", "ky"))
        assert np.linalg.norm(f.data) == pytest.approx(np.linalg.norm(t.data))

    @pytest.mark.parametrize("n", [4, 5, 8, 9])
    def test_dc_at_floor_half(self, n):
        # a constant image transforms to a single spike at index n//2
        t = CTensor(np.ones(n), ("kx",))
        f = fftc(t, "kx").data
        spike = np.zeros(n, dtype=complex)
        spike[n // 2] = np.sqrt(n)
        np.testing.assert_allclose(f, spike, atol=1e-12)

    def test_single_axis_only(self):
        t = CTensor(rand_c((4, 6)), ("kx", "ky"))
        f = fftc(t, "ky")
        # kx axis untouched: transforming each row independently
        for i in range(4):
            row = fftc(CTensor(t.data[i], ("ky",)), "ky").data
            np.testing.assert_allclose(f.data[i], row, atol=1e-12)

    @given(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=25, deadline=None)
    def test_inverse_any_shape(self, n1, n2):
        rng = np.random.default_rng(n1 * 10 + n2)
        t = CTensor(
            rng.standard_normal((n1, n2)) + 1j * rng.standard_normal((n1, n2)),
            ("kx", "ky"),
        )
        back = ifftc(fftc(t, ("kx", "ky")), ("kx", "ky"))
        np.testing.assert_allclose(back.data, t.data, atol=1e-10)


def shift_definition(transform, x, axes):
    """The centred transform as the shifts define it: DC to index 0,
    the orthonormal transform, DC back to the centre."""
    shifted = scipy.fft.ifftshift(x, axes=axes)
    return scipy.fft.fftshift(transform(shifted, axes=axes, norm="ortho"),
                              axes=axes)


class TestShiftTheorem:
    """The phase-ramp transform against the shift definition."""

    LABELS = ("coil", "kx", "ky", "kz")

    @pytest.mark.parametrize("shape,axes", [
        ((8, 16, 48, 48), (1, 2, 3)),  # even, every spatial axis
        ((3, 7, 11, 13), (1, 2, 3)),  # odd
        ((3, 7, 11, 13), (3, 1)),  # odd, unordered, not leading
        ((5, 9, 10), (0, 1, 2)),  # mixed, the leading axis included
        ((4, 6, 5, 8), (2,)),  # one even axis in the middle
        ((4, 6, 5, 8), (2, 3)),  # mixed pair
        ((2, 1, 3, 2), (1, 2, 3)),  # singleton and tiny extents
    ], ids=["even", "odd", "odd-unordered", "mixed-leading", "one-axis",
            "mixed-pair", "tiny"])
    def test_agrees_with_shift_definition(self, shape, axes):
        x = rand_c(shape, seed=sum(shape))
        before = x.copy()
        labels = self.LABELS[-len(shape):]
        named = tuple(labels[a] for a in axes)
        t = CTensor(x, labels)
        for ours, nd, transform in ((fftc, fftc_nd, scipy.fft.fftn),
                                    (ifftc, ifftc_nd, scipy.fft.ifftn)):
            ref = shift_definition(transform, x, axes)
            scale = np.abs(ref).max()
            for got in (ours(t, named).data, nd(x, axes)):
                assert got.shape == ref.shape
                assert np.abs(got - ref).max() <= 1e-14 * scale
        assert np.array_equal(x, before)  # the input is left as it was

    @pytest.mark.parametrize("shape,axes", [
        ((8, 16, 48, 48), (1, 2, 3)),
        ((3, 7, 11, 13), (3, 1)),
        ((4, 6, 5, 8), (2, 3)),
    ], ids=["even", "odd-unordered", "mixed-pair"])
    def test_per_coil_is_the_whole_array(self, shape, axes):
        x = rand_c(shape, seed=1)
        coil_axes = tuple(a - 1 for a in axes)
        for nd in (fftc_nd, ifftc_nd):
            per_coil = np.stack([nd(c, coil_axes) for c in x])
            assert np.array_equal(per_coil, nd(x, axes))



class TestCropPad:
    def test_center_slices_low_index_extra(self):
        # parity mismatch keeps the extra sample on the low-index side
        assert center_slices(5, 4) == slice(0, 4)
        assert center_slices(4, 3) == slice(1, 4)
        assert center_slices(6, 6) == slice(0, 6)

    def test_dc_preserved(self):
        for full, target in [(8, 5), (9, 4), (7, 3)]:
            sl = center_slices(full, target)
            assert np.arange(full)[sl][target // 2] == full // 2

    @pytest.mark.parametrize("extents", [
        {"kx": 3, "ky": 5}, {"kx": 8, "ky": 4}, {"ky": 6}, {"kx": 1},
    ], ids=["both-axes", "kx-whole", "ky-only", "kx-to-one"])
    def test_crop_matches_center_slices(self, extents):
        data = rand_c((8, 9))
        back = crop_center(CTensor(data, ("kx", "ky")), extents)
        sl = tuple(center_slices(n, extents.get(label, n))
                   for label, n in zip(("kx", "ky"), data.shape))
        np.testing.assert_array_equal(back.data, data[sl])
        assert back.axes == ("kx", "ky")
        assert not np.shares_memory(back.data, data)

    def test_crop_too_large_raises(self):
        t = CTensor(np.zeros((4,)), ("kx",))
        with pytest.raises(GeometryError, match="larger extent"):
            crop_center(t, {"kx": 5})
        with pytest.raises(GeometryError, match="must be positive"):
            crop_center(t, {"kx": 0})


class TestMetrics:
    def test_nrmse_zero_for_equal(self):
        x = rand_c((5, 5))
        assert nrmse(x, x) == 0.0

    def test_nrmse_scale(self):
        ref = np.ones((4, 4))
        assert nrmse(1.1 * ref, ref) == pytest.approx(0.1)

    def test_nrmse_uses_magnitudes(self):
        ref = np.ones((4, 4), dtype=complex)
        # a pure phase change leaves magnitudes untouched
        assert nrmse(ref * np.exp(0.3j), ref) == pytest.approx(0.0, abs=1e-12)

    def test_psnr_inf_for_equal(self):
        assert psnr(np.ones((3, 3)), np.ones((3, 3))) == float("inf")

    def test_psnr_value(self):
        ref = np.ones((4, 4))
        x = ref.copy()
        x[0, 0] = 0.9
        mse = 0.01 / 16
        assert psnr(x, ref) == pytest.approx(-10 * np.log10(mse))

    def test_shape_mismatch_raises(self):
        with pytest.raises(GeometryError):
            nrmse(np.ones((2, 2)), np.ones((3, 3)))
        with pytest.raises(GeometryError):
            psnr(np.ones((2, 2)), np.ones((3, 3)))

    def test_zero_reference_raises(self):
        with pytest.raises(GeometryError):
            nrmse(np.ones((2, 2)), np.zeros((2, 2)))


class TestBundles:
    def test_roundtrip(self, tmp_path):
        t = CTensor(rand_c((2, 3, 4), seed=3), ("coil", "kx", "ky"))
        save_bundle(t, tmp_path / "x", meta={"note": "hi"})
        back = load_bundle(tmp_path / "x")
        np.testing.assert_array_equal(back.data, t.data)
        assert back.axes == t.axes
        assert bundle_meta(tmp_path / "x") == {"note": "hi"}

    def test_deterministic_bytes(self, tmp_path):
        t = CTensor(rand_c((4, 4)), ("kx", "ky"))
        save_bundle(t, tmp_path / "a")
        save_bundle(t, tmp_path / "b")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()

    def test_payload_length_checked(self, tmp_path):
        t = CTensor(rand_c((2, 2)), ("kx", "ky"))
        save_bundle(t, tmp_path / "x")
        raw = (tmp_path / "x.bin").read_bytes()
        (tmp_path / "x.bin").write_bytes(raw[:-8])
        with pytest.raises(PayloadLengthError):
            load_bundle(tmp_path / "x")

    def test_dtype_checked(self, tmp_path):
        t = CTensor(rand_c((2, 2)), ("kx", "ky"))
        save_bundle(t, tmp_path / "x")
        hdr = (tmp_path / "x.json").read_text().replace("complex128", "float32")
        (tmp_path / "x.json").write_text(hdr)
        with pytest.raises(UnknownDtypeError):
            load_bundle(tmp_path / "x")

    def test_byte_order_checked(self, tmp_path):
        t = CTensor(rand_c((2, 2)), ("kx", "ky"))
        save_bundle(t, tmp_path / "x")
        hdr = (tmp_path / "x.json").read_text().replace("little", "big")
        (tmp_path / "x.json").write_text(hdr)
        with pytest.raises(ByteOrderError):
            load_bundle(tmp_path / "x")

    def test_header_not_json_is_bundle_error(self, tmp_path):
        save_bundle(CTensor(rand_c((2, 2)), ("kx", "ky")), tmp_path / "x")
        (tmp_path / "x.json").write_text("{not json")
        for read in (load_bundle, bundle_meta):
            with pytest.raises(BundleError, match="not valid JSON"):
                read(tmp_path / "x")

    @pytest.mark.parametrize("key", ["dtype", "byte_order", "shape", "axes"])
    def test_header_missing_key_is_bundle_error(self, tmp_path, key):
        save_bundle(CTensor(rand_c((2, 2)), ("kx", "ky")), tmp_path / "x")
        header = json.loads((tmp_path / "x.json").read_text())
        del header[key]
        (tmp_path / "x.json").write_text(json.dumps(header))
        for read in (load_bundle, bundle_meta):
            with pytest.raises(BundleError, match=f"lacks {key}"):
                read(tmp_path / "x")
