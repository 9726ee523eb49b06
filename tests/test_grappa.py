"""GRAPPA calibration and application on lattice and ky-t patterns."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rakikit
from rakikit import (
    ConfigError,
    CTensor,
    GeometryError,
    apply_mask,
    centered_acs_box,
    coil_combine,
    extract_acs,
    grappa_apply,
    grappa_calibrate,
    grappa_kernel,
    grappa_recon,
    ifftc,
    make_elliptical_mask,
    make_kyt_mask,
    make_phantom,
    make_uniform_mask,
    default_spec,
)
from rakikit.grappa import FILL_KX_CHUNK, MAX_WINDOWS, cell_offsets, lattice_basis
from rakikit.sampling import acquired_coords, internal_view, steps

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


def make_mask(kind, r1, r2, shift, n1, n2):
    if kind == "kyt":
        return make_kyt_mask(n1, n2, r1, shift=shift)
    make = make_uniform_mask if kind == "uniform" else make_elliptical_mask
    return make((n1, n2), r1, r2, shift=shift % r2)


def dense_system(acs, mask, src):
    """The window matrix A and its targets T, formed explicitly, as reference.

    The windows are grappa_calibrate's: every anchor whose sources and
    cell offsets lie in the ACS, with the (p1, p2) anchors strided so that
    at most MAX_WINDOWS remain.
    """
    nc, nx, n1, n2 = acs.shape
    tgt = np.array(cell_offsets(mask)[1:], dtype=int).reshape(-1, 2)
    d1 = np.concatenate([src[:, 1], tgt[:, 0], [0]])
    d2 = np.concatenate([src[:, 2], tgt[:, 1], [0]])
    ax, a1, a2 = [np.arange(-d.min(), n - d.max())
                  for d, n in ((src[:, 0], nx), (d1, n1), (d2, n2))]
    pq = np.stack(np.meshgrid(a1, a2, indexing="ij"), axis=-1).reshape(-1, 2)
    if len(ax) * len(pq) > MAX_WINDOWS:
        pq = pq[:: -(-len(pq) // (MAX_WINDOWS // len(ax)))]
    anchors = np.column_stack([np.repeat(ax, len(pq)), np.tile(pq, (len(ax), 1))])
    A = acs[:, anchors[:, 0:1] + src[:, 0], anchors[:, 1:2] + src[:, 1],
            anchors[:, 2:3] + src[:, 2]]  # [nc, W, nsrc]
    A = np.transpose(A, (1, 0, 2)).reshape(len(anchors), -1)
    T = acs[:, anchors[:, 0:1], anchors[:, 1:2] + tgt[:, 0],
            anchors[:, 2:3] + tgt[:, 1]]  # [nc, W, ntgt]
    return A, np.transpose(T, (1, 2, 0)).reshape(len(anchors), -1)


def eigh_solve(AhA, AhT):
    """Pseudo-inverse solve dropping eigenvalues below 1e-14 of the largest."""
    evals, evecs = np.linalg.eigh(AhA)
    floor = max(evals.max(), 1.0) * 1e-14
    inv = np.zeros_like(evals)
    inv[evals > floor] = 1 / evals[evals > floor]
    return evecs @ ((evecs.conj().T @ AhT) * inv[:, None])


def dense_calibrate(acs, mask, src, lam):
    """The normal equations formed with explicit conjugate copies, as reference.

    Returns the weights, the window count and ||AX - T|| / ||T||.
    """
    A, T = dense_system(acs, mask, src)
    AhA = A.conj().T @ A
    AhA_reg = AhA + lam * np.mean(np.real(np.diag(AhA))) * np.eye(len(AhA))
    AhT = A.conj().T @ T
    try:
        X = scipy.linalg.cho_solve(scipy.linalg.cho_factor(AhA_reg), AhT)
    except np.linalg.LinAlgError:
        X = eigh_solve(AhA_reg, AhT)
    return X.T, len(A), np.linalg.norm(A @ X - T) / np.linalg.norm(T)


def assert_matches_dense(acs, mask, kernel, lam):
    weights, windows, residual = dense_calibrate(acs, mask, kernel.src, lam)
    assert kernel.windows == windows <= MAX_WINDOWS
    assert np.linalg.norm(kernel.weights - weights) <= 1e-12 * np.linalg.norm(weights)
    assert kernel.residual == pytest.approx(residual, rel=1e-8, abs=1e-12)


class TestCalibration:
    @given(
        st.sampled_from(["uniform", "elliptical", "kyt"]),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=4),
        st.tuples(st.integers(6, 12), st.integers(30, 44), st.integers(30, 44)),
        st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5)),
        st.sampled_from([1e-6, 1e-2]),
    )
    @example("uniform", 2, 2, 1, (12, 44, 44), (1, 1, 1), 1e-6)  # strided windows
    @example("uniform", 2, 2, 1, (7, 30, 30), (2, 2, 3), 0.0)  # lam = 0, full rank
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_normal_equations(self, kind, r1, r2, shift, acs_shape,
                                            shape, lam):
        mask = make_mask(kind, r1, r2, shift, 24, 24)
        assume(len(cell_offsets(mask)) > 1)
        rng = np.random.default_rng(sum(acs_shape) + 100 * shape[2])
        acs = rng.standard_normal((2, *acs_shape)) + 1j * rng.standard_normal(
            (2, *acs_shape))
        kernel = grappa_calibrate(acs, mask, blocks=shape[:2], taps=shape[2],
                                  lam=lam)
        assert_matches_dense(acs, mask, kernel, lam)

    @pytest.mark.parametrize("kind", ["uniform", "kyt"])
    def test_eigh_fallback_matches_dense(self, kind, monkeypatch):
        # lam = 0 and an all-zero coil: A^H A is singular, lam = 0 takes the
        # eigh route, and eigh reads the lower triangle, the one mirrored
        # from the upper
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: calls.append(1) or eigh(a))
        mask = make_mask(kind, 2, 2, 1, 24, 24)
        rng = np.random.default_rng(5)
        acs = rng.standard_normal((3, 7, 20, 20)) + 1j * rng.standard_normal(
            (3, 7, 20, 20))
        acs[1] = 0
        kernel = grappa_calibrate(acs, mask, blocks=(2, 2), taps=3, lam=0.0)
        assert calls, "lam = 0 did not take the eigh route"
        assert_matches_dense(acs, mask, kernel, 0.0)
        # the dead coil's null directions are dropped, not amplified
        w = kernel.weights.reshape(len(kernel.weights), 3, -1)
        assert np.abs(w[:, 1]).max() <= 1e-12 * np.abs(w).max()

    @pytest.mark.parametrize("r2", [1, 2])
    def test_lam_zero_is_the_pseudo_inverse_on_exact_scene(self, r2, monkeypatch):
        # the exact scene leaves A^H A rank-deficient: the pseudo-inverse
        # drops its null directions, which an LU solve amplifies (max |w|
        # 0.32 and 1.06 at R = 2x1 and 2x2 against 13.9 and 6.4)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: calls.append(1) or eigh(a))
        ksp, _ = compact_scene((8, 32, 32), 8, (6, 20, 20), seed=1)
        mask = make_uniform_mask(
            (32, 32), 2, r2, acs_box=centered_acs_box((32, 32), (24, 24))
        )
        acs = internal_view(extract_acs(apply_mask(ksp, mask), mask), mask)
        kernel = grappa_calibrate(acs, mask, lam=0.0)
        assert calls, "lam = 0 did not take the eigh route"
        A, T = dense_system(acs, mask, kernel.src)
        want = eigh_solve(A.conj().T @ A, A.conj().T @ T).T
        # eigenvalues just above the floor pass rounding on at ~1e-7
        assert np.linalg.norm(kernel.weights - want) <= 1e-5 * np.linalg.norm(want)

    def test_windows_and_residual_on_exact_scene(self):
        # the compact-coil scene is exactly solvable: the fit leaves ~0
        ksp, _ = compact_scene((8, 32, 32), 8, (6, 20, 20), seed=1)
        mask = make_uniform_mask(
            (32, 32), 2, 1, acs_box=centered_acs_box((32, 32), (24, 24))
        )
        kernel = grappa_kernel(apply_mask(ksp, mask), mask, lam=1e-13)
        # anchors: 8 - 4 readout, 24 - 6 rows (4 blocks at step 2), 24 - 3 columns
        assert kernel.windows == 4 * 18 * 21
        assert kernel.residual < 1e-6


class TestWindowedFill:
    @given(
        st.sampled_from(["uniform", "elliptical", "kyt"]),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=2, max_value=19),
        st.integers(min_value=2, max_value=19),
        st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5)),
        st.integers(min_value=1, max_value=2 * FILL_KX_CHUNK + 3),
    )
    @example("uniform", 2, 2, 1, 9, 11, (4, 4, 5), FILL_KX_CHUNK)
    @example("elliptical", 3, 3, 1, 13, 13, (4, 4, 5), FILL_KX_CHUNK + 1)
    @example("kyt", 4, 1, 1, 16, 6, (4, 4, 5), 2 * FILL_KX_CHUNK + 1)
    @settings(max_examples=80, deadline=None)
    def test_matches_per_anchor_fill(self, kind, r1, r2, shift, n1, n2, shape, nx):
        mask = make_mask(kind, r1, r2, shift, n1, n2)
        rng = np.random.default_rng(n1 + 20 * n2 + 400 * nx)
        acs = rng.standard_normal((2, 7, 40, 40)) + 1j * rng.standard_normal(
            (2, 7, 40, 40))
        kernel = grappa_calibrate(acs, mask, blocks=shape[:2], taps=shape[2])
        full = rng.standard_normal((2, nx, n1, n2)) + 1j * rng.standard_normal(
            (2, nx, n1, n2))
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

    @pytest.mark.parametrize("lam", [-1.0, -1e-3, float("nan"), float("-inf")])
    def test_negative_or_nan_lam_raises(self, lam):
        ksp, _ = compact_scene((8, 32, 32), 4, (6, 20, 20))
        mask = make_uniform_mask(
            (32, 32), 2, 2, acs_box=centered_acs_box((32, 32), (16, 16))
        )
        acs = extract_acs(ksp, mask).transpose(("coil", "kx", "ky", "kz"))
        with pytest.raises(ConfigError, match="lam must be >= 0"):
            grappa_calibrate(acs.data, mask, lam=lam)

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

    @pytest.mark.parametrize("exponent", [-664, -7, 5, 664])
    def test_weights_exact_under_power_of_two_scaling(self, exponent):
        # the fit runs on windows scaled near max|acs| = 1, so a power-of-two
        # factor on the data changes no bit of the weights or the residual,
        # and 2**664 (about 1e200) no longer overflows the normal equations
        ksp, _ = compact_scene((8, 32, 32), 4, (6, 20, 20), seed=4)
        mask = make_uniform_mask(
            (32, 32), 2, 2, shift=1, acs_box=centered_acs_box((32, 32), (20, 20))
        )
        masked = apply_mask(ksp, mask)
        base = grappa_kernel(masked, mask)
        factor = 2.0 ** exponent
        scaled = grappa_kernel(masked.with_data(masked.data * factor), mask)
        np.testing.assert_array_equal(scaled.weights, base.weights)
        assert scaled.residual == base.residual
        np.testing.assert_array_equal(
            grappa_apply(masked.with_data(masked.data * factor), mask, scaled).data,
            grappa_apply(masked, mask, base).data * factor)


def test_import_leaves_scipy_linalg_unloaded():
    # numpy and scipy each load their own OpenBLAS, whose thread pools fight
    # over the cores when calls alternate between them; the package keeps
    # to numpy's (scipy.fft uses no BLAS)
    code = "import sys, rakikit, rakikit.cli; print('scipy.linalg' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(rakikit.__file__).parents[1])}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
