"""The four benchmark scenes: input generation, reconstruction, scoring.

Each workload is three functions over rakikit's public entry points:
``setup`` builds the inputs from a seed (phantom, masks, masked k-space),
``recon`` takes the masked k-space to every final image of the workload,
and ``score`` measures quality and runs the output checks. Scenes are
defined here, not imported from ``rakikit.bench`` or ``rakikit.cli``, so
that merging those configurations does not change what is measured.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from rakikit import (
    CTensor,
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
    fftc_nd,
    fit_decay,
    grappa_recon,
    ifftc,
    infer,
    make_elliptical_mask,
    make_kyt_mask,
    make_phantom,
    make_smooth_coils,
    make_uniform_mask,
    train_eraki,
    train_raki,
    zerofill_recon,
)

STEPS = 100  # fixed training budget for every learned method
KERNELS = ((3, 3, 5), (1, 1, 3), (1, 1, 3), (1, 1, 1), (1, 1, 1))
N_COILS = 8
SPATIAL = ("kx", "ky", "kz")
ME_TE_MS = (8.0, 40.0, 80.0)
ME_T2_REGIONS = (30.0, 50.0, 80.0)


def train_config(seed: int, width: int) -> TrainConfig:
    """Criterion-04 optimiser settings at the fixed step budget."""
    return TrainConfig(
        alpha=0.0, beta=1e-4, squared_l2=True, learning_rate=1e-4,
        lr_decay=0.998, iterations=STEPS, widths=(width,) * 4,
        kernel_sizes=KERNELS, seed=seed,
    )


@dataclass
class Inputs:
    seed: int
    full: CTensor  # fully sampled k-space, for the reference only
    masked: CTensor  # what the reconstruction sees
    masks: tuple
    t2_true: np.ndarray | None = None


@dataclass
class Output:
    """Final images plus what scoring and the layer counts need."""

    times: dict = field(default_factory=dict)  # method stage -> seconds
    images: dict = field(default_factory=dict)  # method -> real magnitudes
    kspace: dict = field(default_factory=dict)  # method -> acquired-frame CTensor
    problem: ReconProblem | None = None  # of the named method
    models: dict = field(default_factory=dict)  # method -> list[ModelWeights]
    maps: object = None
    t2_map: object = None  # FitResult of the quantitative map


@contextmanager
def _lap(times: dict, key: str):
    t0 = time.perf_counter()
    yield
    times[key] = time.perf_counter() - t0


# ---------------------------------------------------------------------------
# setup: phantom, masks, masked k-space


def _coil_images(extents, coil_seed, seed, te_ms=(0.0,), texture=1.0):
    """Multi-coil images [coil, echo, x, y, z] and the true T2 map.

    The seed draws the object's texture field; the coil array is fixed per
    scene, so quality metrics of different seeds compare like with like.
    """
    ph = make_phantom(default_spec(extents=extents, n_coils=1, te_ms=te_ms,
                                   texture=texture, seed=seed))
    sens = make_smooth_coils(extents, N_COILS, seed=coil_seed)
    coil_images = sens[:, None] * ph["images"].data[None]
    return coil_images, np.real(ph["t2_true"].data)


def _single_echo(seed, extents, coil_seed, texture, r, acs) -> Inputs:
    coil_images, _ = _coil_images(extents, coil_seed, seed, texture=texture)
    full = CTensor(fftc_nd(coil_images[:, 0], axes=(1, 2, 3)), ("coil", *SPATIAL))
    grid = extents[1:]
    mask = make_uniform_mask(grid, r, r, shift=1,
                             acs_box=centered_acs_box(grid, acs))
    return Inputs(seed, full, apply_mask(full, mask), (mask,))


def setup_c04(seed: int) -> Inputs:
    return _single_echo(seed, (32, 96, 96), 1, 2.0, 3, (24, 24))


def setup_desk(seed: int) -> Inputs:
    return _single_echo(seed, (16, 48, 48), 0, 1.0, 2, (16, 16))


def setup_me(seed: int) -> Inputs:
    coil_images, t2_true = _coil_images((16, 72, 72), 0, seed, te_ms=ME_TE_MS)
    full = CTensor(fftc_nd(coil_images, axes=(2, 3, 4)),
                   ("coil", "echo", *SPATIAL))
    base = make_elliptical_mask((72, 72), 3, 3, shift=1,
                                acs_box=centered_acs_box((72, 72), (24, 24)))
    masks = echo_shifted_masks(base, len(ME_TE_MS))
    masked = np.stack([
        apply_mask(CTensor(full.data[:, e], ("coil", *SPATIAL)), m).data
        for e, m in enumerate(masks)
    ], axis=1)
    return Inputs(seed, full, CTensor(masked, full.axes), masks, t2_true)


def setup_kyt(seed: int) -> Inputs:
    coil_images, _ = _coil_images((64, 96, 32), 0, seed)
    # dynamic series: frames are the phantom's z slices, k-space over (x, y)
    full = CTensor(fftc_nd(coil_images[:, 0], axes=(1, 2)),
                   ("coil", "kx", "ky", "t"))
    mask = make_kyt_mask(96, 32, 4, shift=1,
                         acs_box=centered_acs_box((96, 32), (24, 32)))
    return Inputs(seed, full, apply_mask(full, mask), (mask,))


# ---------------------------------------------------------------------------
# recon: masked k-space -> every final image of the workload


def _magnitude(res) -> np.ndarray:
    """Real magnitudes in (kx, ky, kz) order from a ReconResult."""
    return np.abs(res.image.transpose(SPATIAL).data)


def _single_echo_recon(inp: Inputs, kernel_size: int, width: int,
                       with_raki: bool) -> Output:
    out = Output()
    mask = inp.masks[0]
    with _lap(out.times, "maps_s"):
        maps = espirit_maps(extract_acs(inp.masked, mask),
                            kernel_size=kernel_size, out_extents=mask.extents)
    out.maps = maps
    cfg = train_config(inp.seed, width)
    eraki = ReconProblem(inp.masked, inp.masks, "eraki", cfg, maps=maps)
    out.problem = eraki
    with _lap(out.times, "zerofill_s"):
        out.images["zerofill"] = _magnitude(zerofill_recon(eraki))
    with _lap(out.times, "grappa_s"):
        filled = grappa_recon(inp.masked, mask)
    out.kspace["grappa"] = filled
    out.images["grappa"] = np.abs(coil_combine(ifftc(filled, SPATIAL), maps).data)
    if with_raki:
        raki = ReconProblem(inp.masked, inp.masks, "raki_percoil", cfg, maps=maps)
        out.problem = raki
        with _lap(out.times, "raki_learn_s"):
            models, _ = train_raki(raki)
        with _lap(out.times, "raki_infer_s"):
            res = infer(models, raki)
        out.models["raki"] = models
        out.kspace["raki"] = res.kspace
        out.images["raki"] = _magnitude(res)
    with _lap(out.times, "eraki_learn_s"):
        model, _ = train_eraki(eraki)
    with _lap(out.times, "eraki_infer_s"):
        out.images["eraki"] = _magnitude(infer(model, eraki))
    out.models["eraki"] = [model]
    return out


def recon_c04(inp: Inputs) -> Output:
    return _single_echo_recon(inp, kernel_size=6, width=36, with_raki=False)


def recon_desk(inp: Inputs) -> Output:
    return _single_echo_recon(inp, kernel_size=5, width=16, with_raki=True)


def recon_me(inp: Inputs) -> Output:
    out = Output()
    echo0 = CTensor(inp.masked.data[:, 0], ("coil", *SPATIAL))
    with _lap(out.times, "maps_s"):
        maps = espirit_maps(extract_acs(echo0, inp.masks[0]), kernel_size=6,
                            out_extents=inp.masks[0].extents)
    out.maps = maps
    prob = ReconProblem(inp.masked, inp.masks, "eraki_joint",
                        train_config(inp.seed, 36), maps=maps)
    out.problem = prob
    with _lap(out.times, "eraki_learn_s"):
        model, _ = train_eraki(prob)
    with _lap(out.times, "eraki_infer_s"):
        res = infer(model, prob)
    out.models["eraki"] = [model]
    # ReconResult.image holds magnitudes in a complex dtype
    echoes = np.abs(res.image.transpose(("echo", *SPATIAL)).data)
    out.images["eraki"] = echoes
    with _lap(out.times, "t2_fit_s"):
        out.t2_map = fit_decay(echoes, ME_TE_MS)
    return out


def recon_kyt(inp: Inputs) -> Output:
    out = Output()
    with _lap(out.times, "grappa_s"):
        filled = grappa_recon(inp.masked, inp.masks[0], acs_kx=32)
    out.kspace["grappa"] = filled
    coil_frames = ifftc(filled, ("kx", "ky")).data
    out.images["grappa"] = np.sqrt(np.sum(np.abs(coil_frames) ** 2, axis=0))
    return out


# ---------------------------------------------------------------------------
# scoring and output checks (never timed)


def _interior_nrmse(img: np.ndarray, ref: np.ndarray) -> float:
    sl = (slice(2, -2),) * 3
    return float(np.linalg.norm(img[sl] - ref[sl]) / np.linalg.norm(ref[sl]))


def _reference(full: CTensor, maps) -> np.ndarray:
    """ESPIRiT-combined full-k-space magnitudes (the criterion-04 convention)."""
    return np.abs(coil_combine(ifftc(full, SPATIAL), maps).data)


def _acquired_kept(filled: CTensor, inp: Inputs) -> bool:
    return bool(np.array_equal(apply_mask(filled, inp.masks[0]).data,
                               inp.masked.data))


def _finite_checks(out: Output) -> list:
    checks = [(f"{m}.image finite", bool(np.isfinite(img).all()))
              for m, img in out.images.items()]
    checks += [(f"{m}.kspace finite", bool(np.isfinite(k.data).all()))
               for m, k in out.kspace.items()]
    return checks


def score_single_echo(inp: Inputs, out: Output) -> tuple[dict, list]:
    ref = _reference(inp.full, out.maps)
    quality = {f"{m}_nrmse": _interior_nrmse(img, ref)
               for m, img in out.images.items()}
    checks = _finite_checks(out)
    checks.append(("grappa keeps acquired samples",
                   _acquired_kept(out.kspace["grappa"], inp)))
    if "raki" in out.models:
        nc = inp.masked.extent("coil")
        n_raki, n_eraki = len(out.models["raki"]), len(out.models["eraki"])
        checks.append(("raki keeps acquired samples",
                       _acquired_kept(out.kspace["raki"], inp)))
        # paper-equivalent: one real and one imaginary network per coil
        checks.append((f"model counts {n_raki}:{n_eraki} == {nc}:1, "
                       f"paper-equivalent {2 * n_raki}:{n_eraki} == 16:1",
                       n_raki == nc and n_eraki == 1 and 2 * n_raki == 16))
    return quality, checks


def score_me(inp: Inputs, out: Output) -> tuple[dict, list]:
    echoes = out.images["eraki"]
    errs = []
    for e in range(len(ME_TE_MS)):
        full_e = CTensor(inp.full.data[:, e], ("coil", *SPATIAL))
        errs.append(_interior_nrmse(echoes[e], _reference(full_e, out.maps)))
    quality = {f"eraki_nrmse_echo{e}": v for e, v in enumerate(errs)}
    quality["eraki_nrmse_mean"] = float(np.mean(errs))
    fit = out.t2_map
    worst = 0.0
    for t2 in ME_T2_REGIONS:
        region = (inp.t2_true == t2) & fit.valid
        rel = np.abs(fit.t2_map[region] - t2) / t2
        quality[f"t2_rel_err_{t2:g}ms"] = float(np.median(rel))
        worst = max(worst, float(np.median(rel)))
    quality["t2_rel_err"] = worst
    model = out.models["eraki"][0]
    checks = _finite_checks(out)
    checks.append(("t2 map finite", bool(np.isfinite(fit.t2_map).all())))
    checks.append((f"joint model {model.in_channels}->{model.out_channels} "
                   "channels == 48->54",
                   model.in_channels == 48 and model.out_channels == 54))
    checks.append(("every T2 region has fitted voxels",
                   all(((inp.t2_true == t) & fit.valid).any()
                       for t in ME_T2_REGIONS)))
    return quality, checks


def score_kyt(inp: Inputs, out: Output) -> tuple[dict, list]:
    filled = out.kspace["grappa"].data
    quality = {"grappa_nrmse": float(np.linalg.norm(filled - inp.full.data)
                                     / np.linalg.norm(inp.full.data))}
    checks = _finite_checks(out)
    checks.append(("grappa keeps acquired samples",
                   _acquired_kept(out.kspace["grappa"], inp)))
    return quality, checks


@dataclass(frozen=True)
class Workload:
    """One named scene and which of its results the gated metrics read.

    ``named`` is the method the workload is named after; its quality is
    reported as ``nrmse``.
    """

    setup: object
    recon: object
    score: object
    nrmse_key: str  # quality key reported as nrmse
    named: str

    def trained_model(self, out: Output):
        """The named method's trained model and its training input, if any."""
        if self.named not in out.models:
            return None, None
        coil = 0 if self.named == "raki" else None  # RAKI: coil 0's model
        return (out.models[self.named][0],
                build_targets(out.problem, coil=coil).inputs)


WORKLOADS = {
    "c04_eraki": Workload(setup_c04, recon_c04, score_single_echo,
                          "eraki_nrmse", "eraki"),
    "desk_raki": Workload(setup_desk, recon_desk, score_single_echo,
                          "raki_nrmse", "raki"),
    "me_joint_t2": Workload(setup_me, recon_me, score_me,
                            "eraki_nrmse_echo0", "eraki"),
    "kyt_grappa": Workload(setup_kyt, recon_kyt, score_kyt,
                           "grappa_nrmse", "grappa"),
}
