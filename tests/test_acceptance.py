"""Acceptance gate: one test per release criterion.

Each test prints a single machine-greppable PASS/FAIL line (emitted with
file-descriptor capture disabled so it reaches the real stdout) and then
asserts. Thresholds
are the contract; loosening them is not an option.
"""

import json
import time

import numpy as np
import pytest

from rakikit import (
    CTensor,
    ReconProblem,
    TrainConfig,
    apply_mask,
    backward,
    build_targets,
    centered_acs_box,
    coil_combine,
    default_spec,
    echo_shifted_masks,
    espirit_maps,
    extract_acs,
    fftc,
    forward,
    grappa_recon,
    ifftc,
    infer,
    init_model,
    kspace_combine_convolution,
    loss,
    make_compact_coils,
    make_elliptical_mask,
    make_kyt_mask,
    make_phantom,
    make_uniform_mask,
    fit_decay,
    run_bench,
    report_table,
    train_eraki,
    zerofill_recon,
)
from rakikit.espirit import SensitivityMaps
from rakikit.nn_engine import DEFAULT_KERNELS

from conftest import compact_scene


@pytest.fixture
def report(capfd):
    """One machine-greppable PASS/FAIL line, written past pytest's capture."""

    def _report(num: int, ok: bool, detail: str) -> None:
        line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def _rel(x, ref):
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


# ---------------------------------------------------------------------------


def test_criterion_01_gradient_correctness(report):
    """Analytic gradients vs central differences on 20 random models."""
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(20):
        cfg = TrainConfig(
            widths=(2, 2, 2, 2), kernel_sizes=DEFAULT_KERNELS,
            seed=1000 + trial,
        )
        model = init_model(2, 2, cfg)
        # jitter the (zero-initialized) biases so no pre-activation sits
        # exactly on the ReLU kink, where the loss is not differentiable
        for layer in model.layers:
            layer.bias += 0.05 * rng.standard_normal(layer.bias.shape)
        alpha = (0.0, 0.3)[trial % 2]
        squared = trial % 4 < 2
        x = rng.standard_normal((2, 4, 4, 16))
        rf = model.receptive_field
        out_shape = (2, 4 - rf[0] + 1, 4 - rf[1] + 1, 16 - rf[2] + 1)
        target = rng.standard_normal(out_shape)
        _, grads = backward(model, x, target, alpha, 0.02, squared_l2=squared)

        analytic, numeric = [], []
        h = 1e-6
        for layer, (dk, db) in zip(model.layers, grads):
            for p, g in ((layer.kernel, dk), (layer.bias, db)):
                flat = p.reshape(-1)
                idx = rng.choice(flat.size, size=min(8, flat.size),
                                 replace=False)
                for i in idx:
                    orig = flat[i]
                    flat[i] = orig + h
                    up = loss(forward(model, x), target, model, alpha, 0.02,
                              squared_l2=squared)
                    flat[i] = orig - h
                    dn = loss(forward(model, x), target, model, alpha, 0.02,
                              squared_l2=squared)
                    flat[i] = orig
                    numeric.append((up - dn) / (2 * h))
                    analytic.append(g.reshape(-1)[i])
        err = np.linalg.norm(np.subtract(analytic, numeric)) / max(
            np.linalg.norm(numeric), 1e-12
        )
        worst = max(worst, err)
    elapsed = time.monotonic() - t0
    report(
        1,
        worst < 1e-5 and elapsed < 60,
        f"gradcheck 20 models, worst rel err {worst:.2e} (< 1e-5), "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_grappa_exactness(report):
    """Compact coils + band-limited object: GRAPPA recovers exactly."""
    extents = (16, 64, 64)
    ksp, _ = compact_scene(extents, 8, (10, 40, 40), support=3, seed=0)
    errs = {}
    for label, (r1, r2) in {"2x1": (2, 1), "2x2": (2, 2)}.items():
        mask = make_uniform_mask(
            (64, 64), r1, r2, acs_box=centered_acs_box((64, 64), (24, 24))
        )
        masked = apply_mask(ksp, mask)
        filled = grappa_recon(masked, mask, lam=1e-14)
        errs[label] = _rel(filled.data, ksp.data)
    ok = all(e < 1e-6 for e in errs.values())
    report(
        2,
        ok,
        "GRAPPA NRMSE R=2x1: {2x1:.2e}, R=2x2: {2x2:.2e} (< 1e-6)".format(**errs),
    )


def test_criterion_03_espirit_fidelity(report):
    """Alignment with true maps, normalization, k-space-convolution law."""
    extents = (16, 64, 64)
    obj = make_phantom(default_spec(extents=extents, n_coils=1))["images"].data[0]
    coils = make_compact_coils(extents, 8, support=3, seed=0).data
    ksp = CTensor(
        fftc(CTensor(coils * obj[None], ("coil", "kx", "ky", "kz")),
             ("kx", "ky", "kz")).data,
        ("coil", "kx", "ky", "kz"),
    )
    mask = make_uniform_mask(
        (64, 64), 2, 2, acs_box=centered_acs_box((64, 64), (24, 24))
    )
    acs = extract_acs(apply_mask(ksp, mask), mask)
    maps = espirit_maps(acs, kernel_size=6, crop_threshold=0.99,
                        out_extents=(64, 64))
    m = maps.maps.data
    ssq = np.sum(np.abs(m) ** 2, axis=0)
    norm_ok = bool(((np.abs(ssq - 1) < 1e-10) | (np.abs(ssq) < 1e-10)).all())
    support = ssq > 0.5
    cdir = coils / np.sqrt(np.sum(np.abs(coils) ** 2, axis=0))
    align = np.abs(np.sum(np.conj(m) * cdir, axis=0))
    min_align = float(align[support].min())

    # combine-as-convolution on a 16x16 grid
    small = (4, 16, 16)
    coils2 = make_compact_coils(small, 4, support=3, seed=1,
                                normalized=True).data
    maps2 = SensitivityMaps(
        CTensor(coils2, ("coil", "kx", "ky", "kz")), np.ones(small), 4, 0.01,
        0.9,
    )
    rng = np.random.default_rng(2)
    k2 = rng.standard_normal((4, *small)) + 1j * rng.standard_normal((4, *small))
    ksp2 = CTensor(k2, ("coil", "kx", "ky", "kz"))
    lhs = kspace_combine_convolution(ksp2, maps2)
    rhs = fftc(coil_combine(ifftc(ksp2, ("kx", "ky", "kz")), maps2),
               ("kx", "ky", "kz"))
    conv_err = float(np.max(np.abs(lhs.data - rhs.data))
                     / np.max(np.abs(rhs.data)))

    ok = norm_ok and min_align >= 0.999 and conv_err < 1e-8
    report(
        3,
        ok,
        f"min alignment {min_align:.5f} (>= 0.999), sum|C|^2 in {{0,1}}: "
        f"{norm_ok}, k-space-convolution err {conv_err:.1e} (< 1e-8)",
    )


def test_criterion_04_eraki_quality(report):
    """Noiseless 8-coil 96x96x32, R=3x3: eRAKI beats zerofill/3, near GRAPPA."""
    t0 = time.monotonic()
    extents = (32, 96, 96)
    mask = make_uniform_mask(
        (96, 96), 3, 3, shift=1, acs_box=centered_acs_box((96, 96), (24, 24))
    )
    ph = make_phantom(default_spec(extents=extents, n_coils=8, texture=2.0,
                                   seed=1))
    ksp = CTensor(ph["kspace"].data[:, 0], ("coil", "kx", "ky", "kz"))
    masked = apply_mask(ksp, mask)
    acs = extract_acs(masked, mask)
    maps = espirit_maps(acs, kernel_size=6, out_extents=(96, 96))
    ref = np.abs(coil_combine(ifftc(ksp, ("kx", "ky", "kz")), maps).data)
    interior = np.zeros(extents, dtype=bool)
    interior[2:-2, 2:-2, 2:-2] = True

    def score(img):
        return _rel(img[interior], ref[interior])

    cfg = TrainConfig(
        alpha=0.0, beta=1e-4, squared_l2=True, learning_rate=1e-4,
        lr_decay=0.998, iterations=500, widths=(36,) * 4,
        kernel_sizes=((3, 3, 5), (1, 1, 3), (1, 1, 3), (1, 1, 1), (1, 1, 1)),
        seed=2,
    )
    problem = ReconProblem(masked, (mask,), "eraki", cfg, maps=maps)
    e_zf = score(
        np.abs(zerofill_recon(problem).image.transpose(("kx", "ky", "kz")).data)
    )
    filled = grappa_recon(masked, mask)
    e_grappa = score(
        np.abs(coil_combine(ifftc(filled, ("kx", "ky", "kz")), maps).data)
    )
    model, _ = train_eraki(problem)
    e_eraki = score(
        np.abs(infer(model, problem).image.transpose(("kx", "ky", "kz")).data)
    )
    elapsed = time.monotonic() - t0
    ok = e_eraki < e_zf / 3 and e_eraki < 1.5 * e_grappa and elapsed < 300
    report(
        4,
        ok,
        f"eRAKI {e_eraki:.4f} < zerofill/3 = {e_zf / 3:.4f} and "
        f"< 1.5x GRAPPA = {1.5 * e_grappa:.4f}; {elapsed:.0f}s (< 300s)",
    )


def test_criterion_05_output_channel_laws(report):
    """2R output channels single echo, 2 R N_echo for the joint model."""
    extents = (8, 48, 48)
    spec = default_spec(extents=extents, n_coils=4, te_ms=(0.0, 20.0, 40.0),
                        texture=0.5, seed=0)
    ph = make_phantom(spec)
    mask = make_uniform_mask(
        (48, 48), 3, 3, shift=1, acs_box=centered_acs_box((48, 48), (16, 16))
    )
    cfg = TrainConfig(
        alpha=0.0, beta=1e-4, squared_l2=True, iterations=1,
        widths=(8, 8, 8, 8),
        kernel_sizes=((3, 3, 3), (1, 1, 3), (1, 1, 1), (1, 1, 1), (1, 1, 1)),
        seed=0,
    )
    single = CTensor(ph["kspace"].data[:, 0], ("coil", "kx", "ky", "kz"))
    masked1 = apply_mask(single, mask)
    maps = espirit_maps(extract_acs(masked1, mask), kernel_size=5,
                        out_extents=(48, 48))
    p1 = ReconProblem(masked1, (mask,), "eraki", cfg, maps=maps)
    n_single = build_targets(p1).out_channels

    masks = echo_shifted_masks(mask, 3)
    stacked = np.stack(
        [apply_mask(CTensor(ph["kspace"].data[:, e], ("coil", "kx", "ky", "kz")),
                    masks[e]).data for e in range(3)],
        axis=1,
    )
    joint = CTensor(stacked, ("coil", "echo", "kx", "ky", "kz"))
    p3 = ReconProblem(joint, masks, "eraki_joint", cfg, maps=maps)
    n_joint = build_targets(p3).out_channels
    ok = n_single == 18 and n_joint == 54
    report(
        5,
        ok,
        f"single-echo R=9 output channels {n_single} (== 18), "
        f"3-echo joint {n_joint} (== 54)",
    )


def test_criterion_06_speedup_ratio(report, capfd):
    """Sequential per-coil RAKI vs single combined model at Nc=8."""
    t0 = time.monotonic()
    bench_report = run_bench({"seed": 0})
    elapsed = time.monotonic() - t0
    ratio = bench_report.ratios["raki_over_eraki_learning"]
    counts = bench_report.ratios["paper_equivalent_model_counts"]
    table = report_table(bench_report)
    context_printed = "25600" in table and "30 s" in table
    with capfd.disabled():
        print(table, flush=True)
    ok = ratio >= 4.0 and counts == "16:1" and context_printed and elapsed < 480
    report(
        6,
        ok,
        f"learning-time ratio {ratio:.2f} (>= 4), model counts {counts} "
        f"(== 16:1), reference numbers printed: {context_printed}; "
        f"{elapsed:.0f}s (< 480s)",
    )


def test_criterion_07_elliptical_acceleration(report):
    """Inscribed-ellipse gain ~ 4/pi; 1x7(3) elliptical net R ~ 9."""
    gain = make_elliptical_mask((192, 192), 1, 1).acceleration()
    net = make_elliptical_mask((192, 192), 1, 7, shift=3).acceleration()
    ok = abs(gain - 4 / np.pi) / (4 / np.pi) < 0.02 and abs(net - 9) / 9 < 0.05
    report(
        7,
        ok,
        f"ellipse-only gain {gain:.4f} (4/pi +- 2%), 1x7(3) net R {net:.3f} "
        f"(9 +- 5%)",
    )


def test_criterion_08_kyt_coverage_and_grappa_equivalence(report):
    """ky-t lattice coverage; pooled kx-ky-t GRAPPA == per-frame 2D GRAPPA."""
    mask = make_kyt_mask(32, 8, 4, shift=1)
    counts_ok = all(
        (mask.grid[:, t0 : t0 + 4].sum(axis=1) == 1).all()
        for t0 in range(8 - 4 + 1)
    )

    # a static series: pooled ky-t calibration must reduce to the per-frame
    # 2D calibration when no sources cross frames (shift 0, 1-wide t blocks)
    ph = make_phantom(default_spec(extents=(16, 48, 8), n_coils=4,
                                   texture=0.5, seed=3))
    frame = CTensor(ph["kspace"].data[:, 0, :, :, 4:5],
                    ("coil", "kx", "ky", "kz"))
    nt = 8
    series = CTensor(np.repeat(frame.data, nt, axis=3),
                     ("coil", "kx", "ky", "t"))
    kyt_mask = make_kyt_mask(48, nt, 4, shift=0, acs_box=((8, 32), (0, nt)))
    kyt = grappa_recon(apply_mask(series, kyt_mask), kyt_mask, blocks=(4, 1))

    mask2d = make_uniform_mask((48, 1), 4, 1, acs_box=((8, 32), (0, 1)))
    per_t = grappa_recon(apply_mask(frame, mask2d), mask2d, blocks=(4, 1))
    diff = max(
        float(np.max(np.abs(kyt.data[..., t] - per_t.data[..., 0])))
        for t in range(nt)
    ) / float(np.max(np.abs(per_t.data)))
    ok = counts_ok and diff < 1e-10
    report(
        8,
        ok,
        f"every ky once per period: {counts_ok}; kx-ky-t vs per-t 2D GRAPPA "
        f"max rel diff {diff:.1e} (< 1e-10)",
    )


def test_criterion_09_t2_recovery(report):
    """Fitted T2 within 1% per region; analytic two-point case to 1e-9."""
    te = (8.0, 40.0, 80.0)
    ph = make_phantom(default_spec(extents=(32, 32, 16), n_coils=1, te_ms=te))
    echoes = np.abs(ph["images"].data)
    result = fit_decay(echoes, te)
    t2_true = np.real(ph["t2_true"].data)
    worst = 0.0
    for t in (30.0, 50.0, 80.0):
        region = (t2_true == t) & result.valid
        assert region.sum() > 50
        worst = max(worst, float(np.abs(result.t2_map[region] - t).max() / t))

    two_point = fit_decay(np.array([[2.0], [1.0]]), [0.0, 10.0])
    analytic_err = abs(two_point.t2_map[0] - 10.0 / np.log(2.0))
    ok = worst < 0.01 and analytic_err < 1e-9
    report(
        9,
        ok,
        f"region T2 worst rel err {worst:.2e} (< 1e-2), two-point 10/ln2 err "
        f"{analytic_err:.1e} (< 1e-9)",
    )


def test_criterion_10_cli_determinism(tmp_path, report):
    """Same-seed rerun: byte-identical bundles, reports modulo time fields."""
    from rakikit import load_bundle, save_bundle
    from rakikit.cli import main
    from rakikit.sampling import load_mask

    config = {
        "seed": 7,
        "phantom": {"extents": [8, 24, 24], "n_coils": 4, "texture": 0.5},
        "mask": {"extents": [24, 24], "r1": 2, "r2": 2, "shift": 1,
                 "acs": [16, 16]},
        "espirit": {"kernel_size": 5},
        "train": {"iterations": 10, "widths": [8, 8, 8, 8],
                  "kernel_sizes": [[3, 3, 3], [1, 1, 3], [1, 1, 1],
                                   [1, 1, 1], [1, 1, 1]]},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    def run(root):
        root.mkdir()
        assert main(["phantom", "--config", str(cfg_path),
                     "--out", str(root / "ph")]) == 0
        assert main(["mask", "--config", str(cfg_path),
                     "--out", str(root / "mask")]) == 0
        ksp = load_bundle(root / "ph" / "kspace")
        mask = load_mask(root / "mask" / "mask")
        masked = apply_mask(
            CTensor(ksp.data[:, 0], ("coil", "kx", "ky", "kz")), mask
        )
        save_bundle(masked, root / "masked")
        save_bundle(extract_acs(masked, mask), root / "acs")
        assert main(["maps", "--config", str(cfg_path),
                     "--acs", str(root / "acs"),
                     "--out", str(root / "maps")]) == 0
        assert main(["recon", "--config", str(cfg_path), "--method", "eraki",
                     "--data", str(root / "masked"),
                     "--mask", str(root / "mask"),
                     "--maps", str(root / "maps"),
                     "--out", str(root / "recon")]) == 0

    run(tmp_path / "a")
    run(tmp_path / "b")

    time_keys = {"created_unix", "learning_s", "inference_s"}

    def scrub(doc):
        if isinstance(doc, dict):
            return {k: scrub(v) for k, v in doc.items() if k not in time_keys}
        if isinstance(doc, list):
            return [scrub(v) for v in doc]
        return doc

    mismatches = []
    a_files = sorted(p.relative_to(tmp_path / "a")
                     for p in (tmp_path / "a").rglob("*") if p.is_file())
    b_files = sorted(p.relative_to(tmp_path / "b")
                     for p in (tmp_path / "b").rglob("*") if p.is_file())
    if a_files != b_files:
        mismatches.append("file lists differ")
    for rel in a_files:
        pa, pb = tmp_path / "a" / rel, tmp_path / "b" / rel
        if rel.suffix == ".json":
            if scrub(json.loads(pa.read_text())) != scrub(
                json.loads(pb.read_text())
            ):
                mismatches.append(str(rel))
        elif pa.read_bytes() != pb.read_bytes():
            mismatches.append(str(rel))
    ok = not mismatches
    report(
        10,
        ok,
        f"{len(a_files)} files byte-identical modulo time fields"
        + ("" if ok else f"; mismatches: {mismatches}"),
    )
