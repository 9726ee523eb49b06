"""GRAPPA calibration and application on lattice and ky-t patterns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rakikit import (
    CTensor,
    GeometryError,
    apply_mask,
    centered_acs_box,
    coil_combine,
    extract_acs,
    grappa_apply,
    grappa_calibrate,
    grappa_recon,
    ifftc,
    make_elliptical_mask,
    make_kyt_mask,
    make_phantom,
    make_uniform_mask,
    default_spec,
)
from rakikit.grappa import cell_offsets, lattice_basis
from rakikit.sampling import acquired_coords, steps

from conftest import compact_scene


class TestLatticeGeometry:
    def test_basis_lattice(self):
        m = make_uniform_mask((12, 12), 3, 2, shift=1)
        assert lattice_basis(m) == ((3, 1), (0, 2))

    def test_basis_kyt(self):
        m = make_kyt_mask(12, 6, 4, shift=1)
        assert lattice_basis(m) == ((4, 0), (1, 1))

    def test_basis_spans_acquired_set(self):
        m = make_uniform_mask((12, 12), 3, 2, shift=1)
        v1, v2 = lattice_basis(m)
        pts = {
            ((a * v1[0] + b * v2[0]) % 12, (a * v1[1] + b * v2[1]) % 12)
            for a in range(12)
            for b in range(12)
        }
        acquired = set(zip(*np.nonzero(m.grid)))
        assert pts == acquired

    def test_cell_offsets(self):
        m = make_uniform_mask((8, 8), 2, 2)
        assert cell_offsets(m) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        mk = make_kyt_mask(8, 4, 3)
        assert cell_offsets(mk) == [(0, 0), (1, 0), (2, 0)]


def per_anchor_fill(kdata, mask, kernel):
    """The gather-per-anchor fill the windowed matmul replaced, as reference.

    Anchors are the acquired lattice points whose fundamental cell meets
    the grid; sources are read at lattice offsets around each, zero
    outside the grid; one weight block per missing cell offset.
    """
    nc, nx, n1, n2 = kdata.shape
    (s1, s2), src = steps(mask), kernel.src
    i, j = np.ogrid[1 - s1 : n1, 1 - s2 : n2]
    d1, d2 = acquired_coords(mask, i, j, inverse=True)
    anchors = np.argwhere((d1 % s1 == 0) & (d2 % s2 == 0)) + (1 - s1, 1 - s2)
    pad = int(np.abs(src).max()) + max(s1, s2)  # anchors start at 1 - steps
    padded = np.pad(kdata, [(0, 0)] + [(pad, pad)] * 3)
    out = kdata.copy()
    for x in range(nx):
        S = padded[:, x + pad + src[None, :, 0],
                   anchors[:, 0:1] + pad + src[None, :, 1],
                   anchors[:, 1:2] + pad + src[None, :, 2]]  # [nc, W, nsrc]
        S = np.transpose(S, (1, 0, 2)).reshape(len(anchors), -1)
        for n, (a, b) in enumerate(cell_offsets(mask)[1:]):
            w = kernel.weights[n * nc : (n + 1) * nc]
            t1, t2 = anchors[:, 0] + a, anchors[:, 1] + b
            ok = (t1 >= 0) & (t1 < n1) & (t2 >= 0) & (t2 < n2)
            ok[ok] &= ~mask.grid[t1[ok], t2[ok]]
            out[:, x, t1[ok], t2[ok]] = (S[ok] @ w.T).T
    out[:, :, mask.never_acquired] = 0.0
    return out


class TestWindowedFill:
    @given(
        st.sampled_from(["uniform", "elliptical", "kyt"]),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=2, max_value=19),
        st.integers(min_value=2, max_value=19),
        st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_per_anchor_fill(self, kind, r1, r2, shift, n1, n2, shape):
        if kind == "kyt":
            mask = make_kyt_mask(n1, n2, r1, shift=shift)
        else:
            make = make_uniform_mask if kind == "uniform" else make_elliptical_mask
            mask = make((n1, n2), r1, r2, shift=shift % r2)
        rng = np.random.default_rng(n1 + 20 * n2)
        acs = rng.standard_normal((2, 7, 40, 40)) + 1j * rng.standard_normal(
            (2, 7, 40, 40))
        kernel = grappa_calibrate(acs, mask, blocks=shape[:2], taps=shape[2])
        full = rng.standard_normal((2, 5, n1, n2)) + 1j * rng.standard_normal(
            (2, 5, n1, n2))
        masked = apply_mask(CTensor(full, ("coil", "kx", *mask.axes)), mask)
        ref = per_anchor_fill(masked.data, mask, kernel)
        got = grappa_apply(masked, mask, kernel).data
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        assert (got[:, :, mask.never_acquired] == 0).all()
        np.testing.assert_array_equal(got[:, :, mask.grid],
                                      masked.data[:, :, mask.grid])

    def test_unaccelerated_mask_changes_nothing(self):
        mask = make_uniform_mask((9, 7), 1, 1)
        rng = np.random.default_rng(0)
        acs = rng.standard_normal((2, 7, 12, 12)) + 0j
        kernel = grappa_calibrate(acs, mask)
        assert kernel.weights.shape == (0, 2 * 5 * 4 * 4)
        x = CTensor(rng.standard_normal((2, 5, 9, 7)) + 0j,
                    ("coil", "kx", "ky", "kz"))
        np.testing.assert_array_equal(grappa_apply(x, mask, kernel).data, x.data)


class TestReconstruction:
    def test_acquired_samples_preserved(self):
        ksp, _ = compact_scene((8, 32, 32), 4, (6, 20, 20), seed=1)
        mask = make_uniform_mask(
            (32, 32), 2, 2, acs_box=centered_acs_box((32, 32), (16, 16))
        )
        masked = apply_mask(ksp, mask)
        filled = grappa_recon(masked, mask)
        np.testing.assert_array_equal(
            filled.data[:, :, mask.grid], masked.data[:, :, mask.grid]
        )
        # every missing position received a prediction
        assert np.abs(filled.data[:, :, ~mask.grid]).min() > 0

    def test_exactness_compact_coils(self):
        # band-limited object + 3-wide compact coils: the missing samples
        # are an exact linear function of their sampled lattice neighbors
        ksp, _ = compact_scene((8, 32, 32), 8, (6, 20, 20), seed=1)
        mask = make_uniform_mask(
            (32, 32), 2, 1, acs_box=centered_acs_box((32, 32), (24, 24))
        )
        masked = apply_mask(ksp, mask)
        filled = grappa_recon(masked, mask, lam=1e-13)
        err = np.linalg.norm(filled.data - ksp.data) / np.linalg.norm(ksp.data)
        assert err < 1e-5

    def test_improves_on_zerofill(self, small_scene):
        s = small_scene
        filled = grappa_recon(s["masked"], s["mask"])
        ref = np.abs(coil_combine(ifftc(s["kspace"], ("kx", "ky", "kz")),
                                  s["maps"]).data)
        img = np.abs(coil_combine(ifftc(filled, ("kx", "ky", "kz")),
                                  s["maps"]).data)
        zf = np.abs(coil_combine(ifftc(s["masked"], ("kx", "ky", "kz")),
                                 s["maps"]).data)
        err_g = np.linalg.norm(img - ref) / np.linalg.norm(ref)
        err_z = np.linalg.norm(zf - ref) / np.linalg.norm(ref)
        assert err_g < err_z / 2

    def test_elliptical_corners_stay_zero(self):
        ksp, _ = compact_scene((8, 32, 32), 4, (6, 20, 20), seed=2)
        mask = make_elliptical_mask(
            (32, 32), 2, 2, acs_box=centered_acs_box((32, 32), (16, 16))
        )
        masked = apply_mask(ksp, mask)
        filled = grappa_recon(masked, mask)
        assert (filled.data[:, :, mask.never_acquired] == 0).all()

    def test_kernel_mask_mismatch_raises(self):
        ksp, _ = compact_scene((8, 32, 32), 4, (6, 20, 20))
        mask = make_uniform_mask(
            (32, 32), 2, 2, acs_box=centered_acs_box((32, 32), (16, 16))
        )
        acs = extract_acs(ksp, mask).transpose(("coil", "kx", "ky", "kz"))
        kernel = grappa_calibrate(acs.data, mask)
        other = make_uniform_mask((32, 32), 2, 2, shift=1)
        with pytest.raises(GeometryError):
            grappa_apply(apply_mask(ksp, other), other, kernel)

    def test_insufficient_acs_raises(self):
        ksp, _ = compact_scene((8, 32, 32), 4, (6, 20, 20))
        mask = make_uniform_mask(
            (32, 32), 4, 4, acs_box=centered_acs_box((32, 32), (8, 8))
        )
        with pytest.raises(GeometryError):
            grappa_recon(apply_mask(ksp, mask), mask)

    def test_kyt_fills_missing(self):
        # a static time series: replicate one k-space frame along t
        ph = make_phantom(default_spec(extents=(16, 48, 8), n_coils=4,
                                       texture=0.5, seed=3))
        ksp = CTensor(ph["kspace"].data[:, 0, :, :, 4:5],
                      ("coil", "kx", "ky", "kz"))
        nt = 6
        data = np.repeat(ksp.data, nt, axis=3)
        x = CTensor(data, ("coil", "kx", "ky", "t"))
        mask = make_kyt_mask(48, nt, 4, shift=1, acs_box=((8, 32), (0, nt)))
        masked = apply_mask(x, mask)
        filled = grappa_recon(masked, mask)
        np.testing.assert_array_equal(
            filled.data[:, :, mask.grid], masked.data[:, :, mask.grid]
        )
        assert np.abs(filled.data[:, :, ~mask.grid]).min() > 0


class TestDeterminism:
    def test_same_inputs_same_weights(self):
        ksp, _ = compact_scene((8, 32, 32), 4, (6, 20, 20), seed=4)
        mask = make_uniform_mask(
            (32, 32), 2, 2, shift=1, acs_box=centered_acs_box((32, 32), (20, 20))
        )
        masked = apply_mask(ksp, mask)
        a = grappa_recon(masked, mask).data
        b = grappa_recon(masked, mask).data
        np.testing.assert_array_equal(a, b)
