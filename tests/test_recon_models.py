"""Learned reconstruction plumbing: targets, warm start, inference."""

from dataclasses import replace

import numpy as np
import pytest

from rakikit import (
    ConfigError,
    CTensor,
    GeometryError,
    ReconProblem,
    TrainConfig,
    apply_mask,
    build_targets,
    centered_acs_box,
    coil_combine,
    default_spec,
    echo_shifted_masks,
    espirit_maps,
    extract_acs,
    fftc,
    forward,
    ifftc,
    infer,
    linear_init,
    make_elliptical_mask,
    make_kyt_mask,
    make_phantom,
    make_uniform_mask,
    train_eraki,
    train_raki,
    zerofill_recon,
)
from rakikit import nn_engine
from rakikit.recon_models import RIDGE_INIT, _acs_scale, _ridge_solution

CFG = TrainConfig(
    alpha=0.0,
    beta=1e-4,
    squared_l2=True,
    learning_rate=1e-4,
    lr_decay=0.998,
    iterations=5,
    widths=(16, 16, 16, 16),
    kernel_sizes=((3, 3, 3), (1, 1, 3), (1, 1, 1), (1, 1, 1), (1, 1, 1)),
    seed=0,
)


@pytest.fixture(scope="module")
def joint_problem():
    """3-echo joint problem: 4 coils, 8x48x48, R=3x3, 16x16 ACS."""
    spec = default_spec(extents=(8, 48, 48), n_coils=4,
                        te_ms=(0.0, 20.0, 40.0), texture=0.5, seed=0)
    ph = make_phantom(spec)
    ksp = CTensor(
        ph["kspace"].data, ("coil", "echo", "kx", "ky", "kz")
    ).transpose(("coil", "echo", "kx", "ky", "kz"))
    mask = make_uniform_mask(
        (48, 48), 3, 3, shift=1, acs_box=centered_acs_box((48, 48), (16, 16))
    )
    masks = echo_shifted_masks(mask, 3)
    masked = ksp.with_data(
        np.stack(
            [apply_mask(CTensor(ksp.data[:, e], ("coil", "kx", "ky", "kz")),
                        masks[e]).data for e in range(3)],
            axis=1,
        )
    )
    acs0 = extract_acs(
        CTensor(masked.data[:, 0], ("coil", "kx", "ky", "kz")), mask
    )
    maps = espirit_maps(acs0, kernel_size=5, out_extents=(48, 48))
    return ReconProblem(masked, masks, "eraki_joint", CFG, maps=maps)


def ridge_features(ts, cfg):
    """First-kernel windows of the margin-cropped input, one row per output."""
    lo = np.zeros(3, dtype=int)
    for ks in cfg.kernel_sizes[1:]:
        lo += (np.array(ks) - 1) // 2
    x = ts.inputs[
        :,
        lo[0] : ts.inputs.shape[1] - lo[0] or None,
        lo[1] : ts.inputs.shape[2] - lo[1] or None,
        lo[2] : ts.inputs.shape[3] - lo[2] or None,
    ]
    win = np.lib.stride_tricks.sliding_window_view(
        x, cfg.kernel_sizes[0], axis=(1, 2, 3)
    )
    ou, ov, ox = win.shape[1:4]
    return win.transpose(1, 2, 3, 0, 4, 5, 6).reshape(ou * ov * ox, -1)


def per_channel_ridge(ts, cfg):
    """Reference: one primal ridge solve per output channel."""
    F = ridge_features(ts, cfg)
    nfeat = F.shape[1]
    W = np.zeros((ts.out_channels, nfeat))
    eye = np.eye(nfeat)
    for c in range(ts.out_channels):
        sel = ts.valid[c].ravel()
        A = F[sel]
        y = ts.targets[c].ravel()[sel]
        gram = A.T @ A
        gram += RIDGE_INIT * np.trace(gram) / nfeat * eye
        W[c] = np.linalg.solve(gram, A.T @ y)
    return W


def pair_rows(ts):
    """Number of valid rows of each (re, im) channel pair."""
    return ts.valid[0::2].reshape(ts.out_channels // 2, -1).sum(axis=1)


class TestProblemValidation:
    def test_unknown_mode(self, small_scene):
        s = small_scene
        with pytest.raises(ConfigError):
            ReconProblem(s["masked"], (s["mask"],), "bogus", CFG)

    def test_combined_modes_need_maps(self, small_scene):
        s = small_scene
        with pytest.raises(ConfigError):
            ReconProblem(s["masked"], (s["mask"],), "eraki", CFG)

    def test_mask_count_must_match_echoes(self, small_scene):
        s = small_scene
        with pytest.raises(GeometryError):
            ReconProblem(s["masked"], (s["mask"], s["mask"]), "eraki", CFG,
                         maps=s["maps"])

    def test_wrong_trainer_raises(self, small_scene):
        s = small_scene
        p_coil = ReconProblem(s["masked"], (s["mask"],), "raki_percoil", CFG)
        with pytest.raises(ConfigError):
            train_eraki(p_coil)
        p_comb = ReconProblem(s["masked"], (s["mask"],), "eraki", CFG,
                              maps=s["maps"])
        with pytest.raises(ConfigError):
            train_raki(p_comb)

    def test_acs_smaller_than_receptive_field_message(self, small_scene):
        s = small_scene
        cfg = TrainConfig(widths=(), kernel_sizes=((3, 3, 17),), seed=0)
        p = ReconProblem(s["masked"], (s["mask"],), "eraki", cfg, maps=s["maps"])
        with pytest.raises(GeometryError, match=r"region \(\d+, \d+, 16\) "
                           r"\(decimated\) is smaller than the receptive "
                           r"field \(3, 3, 17\)"):
            build_targets(p)


class TestChannelLaws:
    def test_single_echo_r9_has_18_outputs(self, small_scene):
        s = small_scene
        mask = make_uniform_mask(
            (48, 48), 3, 3, shift=1, acs_box=centered_acs_box((48, 48), (16, 16))
        )
        p = ReconProblem(apply_mask(s["kspace"], mask), (mask,), "eraki", CFG,
                         maps=s["maps"])
        ts = build_targets(p)
        assert ts.out_channels == 18
        assert linear_init(ts, CFG).out_channels == 18

    def test_three_echo_joint_has_54_outputs(self, joint_problem):
        ts = build_targets(joint_problem)
        assert ts.out_channels == 54
        assert ts.in_channels == 2 * 4 * 3  # re/im per coil per echo

    def test_echo_shifted_masks_cycle(self):
        mask = make_uniform_mask((12, 12), 3, 3, shift=1)
        shifted = echo_shifted_masks(mask, 4)
        assert [m.shift for m in shifted] == [1, 2, 0, 1]

    def test_per_coil_targets_have_2r_channels(self, small_scene):
        s = small_scene
        p = ReconProblem(s["masked"], (s["mask"],), "raki_percoil", CFG)
        ts = build_targets(p, coil=0)
        assert ts.out_channels == 2 * 4  # 2 x R for R = 2x2


class TestLinearInit:
    def test_embedding_reproduces_ridge_prediction(self, small_scene):
        # the SVD factors and +/- ReLU pairs must compose back to exactly
        # the linear ridge map when the hidden widths can hold them
        s = small_scene
        p = ReconProblem(s["masked"], (s["mask"],), "eraki", CFG, maps=s["maps"])
        ts = build_targets(p)
        model = linear_init(ts, CFG)
        pred = forward(model, ts.inputs)

        W = _ridge_solution(ts, CFG)
        expected = (ridge_features(ts, CFG) @ W.T).T.reshape(pred.shape)
        np.testing.assert_allclose(pred, expected, atol=1e-10)

    def test_warm_start_beats_random_init_fit(self, small_scene):
        from rakikit.nn_engine import loss

        s = small_scene
        p = ReconProblem(s["masked"], (s["mask"],), "eraki", CFG, maps=s["maps"])
        ts = build_targets(p)
        from rakikit import init_model

        lin = loss(forward(linear_init(ts, CFG), ts.inputs), ts.targets, None,
                   0.0, 0.0, valid=ts.valid, squared_l2=True)
        rnd = loss(forward(init_model(ts.in_channels, ts.out_channels, CFG),
                           ts.inputs), ts.targets, None,
                   0.0, 0.0, valid=ts.valid, squared_l2=True)
        assert lin < rnd / 10


SINGLE_LAYER = TrainConfig(widths=(), kernel_sizes=((2, 2, 3),), seed=0)
WIDE_KERNEL = TrainConfig(
    widths=(16,) * 4,
    kernel_sizes=((3, 3, 5), (1, 1, 3), (1, 1, 3), (1, 1, 1), (1, 1, 1)),
)


def single_echo_targets(scene, cfg, coil=None):
    """eRAKI targets (``coil`` None) or one coil's per-coil RAKI targets."""
    mode = "eraki" if coil is None else "raki_percoil"
    p = ReconProblem(scene["masked"], (scene["mask"],), mode, cfg,
                     maps=scene["maps"])
    return build_targets(p, coil=coil)


class TestRidgeSolution:
    """Paired dual/primal ridge solve against the per-channel primal loop."""

    @staticmethod
    def assert_matches_reference(ts, cfg, dual):
        nfeat = ts.in_channels * np.prod(cfg.kernel_sizes[0])
        assert ((pair_rows(ts) < nfeat) == dual).all()
        W = _ridge_solution(ts, cfg)
        ref = per_channel_ridge(ts, cfg)
        assert np.linalg.norm(W - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_row_poor_joint_problem_takes_dual_branch(self, joint_problem):
        self.assert_matches_reference(build_targets(joint_problem), CFG,
                                      dual=True)

    @pytest.mark.parametrize("coil", [None, 3], ids=["eraki", "per-coil"])
    @pytest.mark.parametrize("cfg, dual", [(WIDE_KERNEL, True), (CFG, False)],
                             ids=["dual", "primal"])
    def test_single_echo_problem(self, small_scene, coil, cfg, dual):
        ts = single_echo_targets(small_scene, cfg, coil)
        self.assert_matches_reference(ts, cfg, dual)

    def test_single_layer_kernel_is_the_ridge_solution(self, small_scene):
        ts = single_echo_targets(small_scene, SINGLE_LAYER)
        kernel = linear_init(ts, SINGLE_LAYER).layers[0].kernel
        ref = per_channel_ridge(ts, SINGLE_LAYER)
        assert np.linalg.norm(kernel.reshape(ref.shape) - ref) \
            <= 1e-9 * np.linalg.norm(ref)

    def test_channel_pairs_share_valid_rows(self, small_scene, joint_problem):
        for ts in (build_targets(joint_problem),
                   single_echo_targets(small_scene, CFG),
                   single_echo_targets(small_scene, CFG, coil=0)):
            np.testing.assert_array_equal(ts.valid[0::2], ts.valid[1::2])


class TestInference:
    def test_raki_hard_data_consistency(self, small_scene):
        s = small_scene
        p = ReconProblem(s["masked"], (s["mask"],), "raki_percoil", CFG,
                         maps=s["maps"])
        models, _ = train_raki(p)
        res = infer(models, p)
        out = res.kspace.transpose(("coil", "kx", "ky", "kz")).data
        acq = s["masked"].data[:, :, s["mask"].grid]
        np.testing.assert_array_equal(
            out[:, :, s["mask"].grid], acq
        )

    def test_raki_model_count_enforced(self, small_scene):
        s = small_scene
        p = ReconProblem(s["masked"], (s["mask"],), "raki_percoil", CFG,
                         maps=s["maps"])
        models, _ = train_raki(p)
        with pytest.raises(GeometryError):
            infer(models[:-1], p)

    def test_eraki_improves_on_zerofill(self, small_scene):
        s = small_scene
        cfg = TrainConfig(
            alpha=0.0, beta=1e-4, squared_l2=True, learning_rate=1e-4,
            lr_decay=0.998, iterations=50, widths=(16,) * 4,
            kernel_sizes=((3, 3, 5), (1, 1, 3), (1, 1, 3), (1, 1, 1),
                          (1, 1, 1)),
            seed=0,
        )
        p = ReconProblem(s["masked"], (s["mask"],), "eraki", cfg,
                         maps=s["maps"])
        ref = np.abs(
            coil_combine(ifftc(s["kspace"], ("kx", "ky", "kz")), s["maps"]).data
        )
        model, _ = train_eraki(p)
        img = infer(model, p).image.transpose(("kx", "ky", "kz")).data
        zf = zerofill_recon(p).image.transpose(("kx", "ky", "kz")).data
        err = np.linalg.norm(img - ref) / np.linalg.norm(ref)
        err_zf = np.linalg.norm(zf - ref) / np.linalg.norm(ref)
        assert err < err_zf / 2

    def test_zerofill_is_masked_combine(self, small_scene):
        s = small_scene
        p = ReconProblem(s["masked"], (s["mask"],), "eraki", CFG,
                         maps=s["maps"])
        res = zerofill_recon(p)
        expected = np.abs(
            coil_combine(ifftc(s["masked"], ("kx", "ky", "kz")), s["maps"]).data
        )
        np.testing.assert_allclose(
            res.image.transpose(("kx", "ky", "kz")).data, expected, atol=1e-12
        )

    def test_elliptical_corners_zero_in_prediction(self):
        spec = default_spec(extents=(8, 32, 32), n_coils=4, texture=0.5, seed=2)
        ph = make_phantom(spec)
        ksp = CTensor(ph["kspace"].data[:, 0], ("coil", "kx", "ky", "kz"))
        mask = make_elliptical_mask(
            (32, 32), 2, 2, shift=1, acs_box=centered_acs_box((32, 32), (16, 16))
        )
        masked = apply_mask(ksp, mask)
        acs = extract_acs(masked, mask)
        maps = espirit_maps(acs, kernel_size=5, out_extents=(32, 32))
        p = ReconProblem(masked, (mask,), "eraki", CFG, maps=maps)
        model, _ = train_eraki(p)
        out = infer(model, p).kspace.transpose(("kx", "ky", "kz")).data
        assert (out[:, mask.never_acquired] == 0).all()

    def test_training_deterministic(self, small_scene):
        s = small_scene
        p = ReconProblem(s["masked"], (s["mask"],), "eraki", CFG,
                         maps=s["maps"])
        a, ha = train_eraki(p)
        b, hb = train_eraki(p)
        assert ha == hb
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.kernel, lb.kernel)


class TestFloat32Training:
    def test_trainers_step_in_float32(self, small_scene, monkeypatch):
        """Every Adam step of both trainers runs on float32 arrays."""
        seen = []
        original = nn_engine.backward

        def recorded(model, x, target, *args, **kwargs):
            seen.append({x.dtype, target.dtype,
                         *(l.kernel.dtype for l in model.layers)})
            return original(model, x, target, *args, **kwargs)

        monkeypatch.setattr(nn_engine, "backward", recorded)
        s = small_scene
        cfg = replace(CFG, iterations=2)
        model, _ = train_eraki(ReconProblem(s["masked"], (s["mask"],), "eraki",
                                            cfg, maps=s["maps"]))
        models, _ = train_raki(ReconProblem(s["masked"], (s["mask"],),
                                            "raki_percoil", cfg))
        assert len(seen) == 2 + 2 * len(models)
        assert all(dtypes == {np.dtype(np.float32)} for dtypes in seen)
        assert all(l.kernel.dtype == np.float64
                   for m in (model, *models) for l in m.layers)

    @pytest.mark.parametrize("factor", [1e200, 1e-200])
    def test_acs_scale_at_extreme_magnitudes(self, small_scene, factor):
        s = small_scene
        p = ReconProblem(s["masked"], (s["mask"],), "eraki", CFG, maps=s["maps"])
        far = ReconProblem(s["masked"].with_data(s["masked"].data * factor),
                           (s["mask"],), "eraki", CFG, maps=s["maps"])
        assert _acs_scale(far) * factor == pytest.approx(_acs_scale(p), rel=1e-12)


@pytest.fixture(scope="module")
def kyt_scene():
    """4-coil ky-t series, 8x32 over 8 frames, R=2 shift 1, 16-line ACS.

    The maps come from the time-averaged ACS taken as a kz = 1 volume, so
    every frame is combined with the same maps.
    """
    ph = make_phantom(default_spec(extents=(8, 32, 8), n_coils=4,
                                   texture=0.5, seed=0))
    ksp = CTensor(ph["kspace"].data[:, 0], ("coil", "kx", "ky", "t"))
    mask = make_kyt_mask(32, 8, 2, shift=1,
                         acs_box=(centered_acs_box((32,), (16,))[0], (0, 8)))
    masked = apply_mask(ksp, mask)
    acs = extract_acs(masked, mask)
    static = CTensor(acs.data.mean(axis=acs.axis("t"), keepdims=True),
                     ("coil", "kx", "ky", "kz"))
    maps = espirit_maps(static, kernel_size=5, out_extents=(32, 1))
    combined = coil_combine(ifftc(ksp, ("kx", "ky")), maps)
    return {"kspace": ksp, "mask": mask, "masked": masked, "maps": maps,
            "ref": np.abs(combined.data),
            "ref_k": fftc(combined, ("kx", "ky")).data}


class TestKytLearnedPath:
    """The learned models on a sheared ky-t lattice (kind ``kyt``)."""

    @staticmethod
    def nrmse(result, ref):
        img = result.image.transpose(("kx", "ky", "t")).data
        assert np.isfinite(img).all()
        return np.linalg.norm(img - ref) / np.linalg.norm(ref)

    def test_eraki(self, kyt_scene):
        s = kyt_scene
        p = ReconProblem(s["masked"], (s["mask"],), "eraki", CFG, maps=s["maps"])
        model, history = train_eraki(p)
        res = infer(model, p)
        assert res.image.axes == ("kx", "ky", "t")
        assert res.image.shape == (8, 32, 8)
        assert history[-1] < history[0]
        zf = zerofill_recon(p)
        assert self.nrmse(res, s["ref"]) < self.nrmse(zf, s["ref"])
        # a ky shift per frame leaves the magnitude image unchanged, so the
        # combined k-space is compared too: it catches a wrong map back to the grid
        ref_k = s["ref_k"]
        k_err = [np.linalg.norm(r.kspace.transpose(("kx", "ky", "t")).data
                                - ref_k) for r in (res, zf)]
        assert k_err[0] < k_err[1]

    def test_raki_keeps_acquired_samples(self, kyt_scene):
        s = kyt_scene
        p = ReconProblem(s["masked"], (s["mask"],), "raki_percoil", CFG,
                         maps=s["maps"])
        models, _ = train_raki(p)
        res = infer(models, p)
        assert len(models) == 4
        assert res.image.shape == (8, 32, 8)
        grid = s["mask"].grid
        out = res.kspace.transpose(("coil", "kx", "ky", "t")).data
        np.testing.assert_array_equal(out[:, :, grid],
                                      s["masked"].data[:, :, grid])
        zf = ReconProblem(s["masked"], (s["mask"],), "eraki", CFG,
                          maps=s["maps"])
        assert self.nrmse(res, s["ref"]) < self.nrmse(zerofill_recon(zf),
                                                      s["ref"])
