"""The method runner and the timing harness that compares the methods.

:func:`reconstruct` runs one method (zero-filled, GRAPPA, per-coil RAKI or
the coil-combined model) on masked k-space, timing learning and inference
separately on the monotonic clock; ``rakikit recon`` and :func:`run_bench`
both call it. The harness builds the scene its config describes through
the builders ``rakikit phantom``, ``mask`` and ``maps`` use, and runs every
method on it with identical iteration budgets; sensitivity-map estimation
is timed as its own row. Everything except the clock readings is
deterministic under a fixed seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import platform
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .config import (DEFAULTS, checked, merge, phantom_spec, sampling_mask,
                     sensitivity_maps, train_config)
from .errors import ConfigError, GeometryError, NumericalError
from .espirit import SensitivityMaps, coil_combine
from .grappa import DEFAULT_LAMBDA, grappa_apply, grappa_kernel
from .nn_engine import TrainConfig
from .phantom import make_phantom
from .recon_models import (
    ReconProblem,
    echo_shifted_masks,
    infer,
    train_eraki,
    train_raki,
    zerofill_recon,
)
from .sampling import SamplingMask, apply_mask, extract_acs, internal_view
from .tensors import (CTensor, blas_library_threads, blas_thread_env, ifftc,
                      thread_count)

BENCH_METHODS = ("zerofill", "grappa", "raki", "eraki")

# Published large-scale reference (GPU, 32-channel ME-MPRAGE): per-coil
# RAKI learning vs single-model learning. Reported as context only; the
# reproducible content at desk scale is the ratio, not the seconds.
PAPER_REFERENCE = {
    "raki_learning_s": 25600.0,
    "eraki_learning_s": 30.0,
    "model_count_ratio_32ch": "64:1",
}

@dataclass
class BenchReport:
    """Per-method timings, counts, and NRMSE plus derived ratios."""

    methods: dict  # name -> row dict (times, counts, nrmse or error)
    espirit_s: float
    ratios: dict
    environment: dict
    config_hash: str
    paper_reference: dict = field(default_factory=lambda: dict(PAPER_REFERENCE))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _environment() -> dict:
    try:  # numpy reports its build as dicts from 1.26 on
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "cpu_model": _cpu_model(),
        "thread_count": thread_count(),
        "blas_threads": blas_thread_env(),
        "blas_library_threads": blas_library_threads(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def reconstruct(method: str, data: CTensor, mask: SamplingMask,
                maps: SensitivityMaps | None, cfg: TrainConfig,
                lam: float = DEFAULT_LAMBDA, acs_kx: int | None = None
                ) -> tuple[CTensor, CTensor, dict]:
    """Run one method on masked k-space -> (k-space, magnitude image, row).

    The row holds ``model_count``, ``paper_equivalent_models``,
    ``learning_s`` (``train_*``, or GRAPPA's calibrate and fill),
    ``inference_s`` (``infer``, ``zerofill_recon`` or the coil
    combination), for the learned methods ``loss_history``, and for GRAPPA
    ``calibration_windows`` and ``calibration_residual`` (the relative
    residual of the ridge fit on those windows). Multi-echo data gets one
    echo-shifted mask per echo. GRAPPA (ridge ``lam``, calibration readout
    window ``acs_kx``) combines with ``maps``, or by root-sum-of-squares
    without them.
    """
    if method not in BENCH_METHODS:
        raise ConfigError(f"unknown method {method!r}; choose {BENCH_METHODS}")
    if method != "grappa" and maps is None:
        raise ConfigError(f"method {method} requires sensitivity maps")
    if not np.isfinite(data.data).all():
        raise NumericalError("k-space holds non-finite values")
    if maps is not None and not np.isfinite(maps.maps.data).all():
        raise NumericalError("sensitivity maps hold non-finite values")
    ne = data.extent("echo") if data.has_axis("echo") else 1
    masks = echo_shifted_masks(mask, ne)
    view = internal_view(data, mask)  # [coil, (echo,) kx, p1, p2]
    if view.shape[-2:] == mask.extents:  # a mismatch is reported downstream
        held = (view != 0).any(axis=(0, -3)).reshape(ne, *mask.extents)
        for e, m in enumerate(masks):
            if (held[e] & ~m.grid).any():
                raise GeometryError(f"echo {e} of the k-space holds samples "
                                    f"where its mask has none")
    # models learned, and as the paper counts them (real and imaginary apart)
    r, nc = mask.r1 * mask.r2 - 1, data.extent("coil")  # GRAPPA: r kernels
    counts = {"zerofill": (0, 0), "grappa": (r, r), "raki": (nc, 2 * nc),
              "eraki": (1, 1)}[method]
    row = {"model_count": counts[0], "paper_equivalent_models": counts[1],
           "learning_s": 0.0, "inference_s": 0.0}
    if method == "grappa":
        t0 = time.monotonic()
        kernel = grappa_kernel(data, mask, lam=lam, acs_kx=acs_kx)
        kspace = grappa_apply(data, mask, kernel)
        row["learning_s"] = time.monotonic() - t0  # calibrate + apply
        row["calibration_windows"] = kernel.windows
        row["calibration_residual"] = kernel.residual
        t0 = time.monotonic()
        fourier = mask.fourier_axes
        if maps is None:  # root-sum-of-squares over the coils
            img = ifftc(kspace, fourier)
            rss = np.sqrt(np.sum(np.abs(img.data) ** 2, axis=img.axis("coil")))
            img = CTensor(rss, tuple(a for a in img.axes if a != "coil"))
        else:
            img = coil_combine(kspace, maps, fourier)
        image = img.with_data(np.abs(img.data))
        row["inference_s"] = time.monotonic() - t0
        return kspace, image, row

    mode = "raki_percoil" if method == "raki" else "eraki"
    problem = ReconProblem(data, masks, mode, cfg, maps=maps)
    t0 = time.monotonic()
    if method == "zerofill":
        res = zerofill_recon(problem)
    else:
        trainer = train_raki if method == "raki" else train_eraki
        models, row["loss_history"] = trainer(problem)
        row["learning_s"] = time.monotonic() - t0
        t0 = time.monotonic()
        res = infer(models, problem)
    row["inference_s"] = time.monotonic() - t0
    return res.kspace, res.image, row


def run_bench(config: dict) -> BenchReport:
    """Run every method on the scene ``config`` describes and time it.

    ``config`` is merged over ``DEFAULTS`` like a ``--config`` file, seed
    mandatory. The scene is the phantom's one echo, masked, and the maps
    of its ACS: what ``rakikit phantom``, ``mask`` and ``maps`` build from
    the same config. A config with more than one echo time is a
    ConfigError: the methods are scored on a single echo.
    """
    cfg = checked(merge(DEFAULTS, config))
    n_te = len(cfg["phantom"]["te_ms"])
    if n_te > 1:
        raise ConfigError(f"rakikit bench runs a single echo; phantom.te_ms "
                          f"lists {n_te}")
    tcfg = train_config(cfg)
    ph = make_phantom(phantom_spec(cfg))
    ksp = CTensor(ph["kspace"].data[:, 0], ("coil", "kx", "ky", "kz"))
    mask = sampling_mask(cfg)
    masked = apply_mask(ksp, mask)
    acs = extract_acs(masked, mask)

    t0 = time.monotonic()
    maps = sensitivity_maps(cfg, acs)
    espirit_s = time.monotonic() - t0

    ref = np.abs(coil_combine(ksp, maps, ("kx", "ky", "kz")).data)
    metric = np.zeros(ref.shape, dtype=bool)
    metric[2:-2, 2:-2, 2:-2] = True
    ref_norm = np.linalg.norm(ref[metric])
    if not ref_norm > 0:
        raise GeometryError(f"the scored interior [2:-2] of the {ref.shape} "
                            f"grid is empty or the reference is zero on it")

    def nrmse_of(img: np.ndarray) -> float:
        score = float(np.linalg.norm((img - ref)[metric]) / ref_norm)
        if not np.isfinite(score):
            raise NumericalError(f"non-finite nrmse {score}")
        return score

    # warm-up outside any timed section (first-call allocator effects); a
    # failure recurs in the learned rows, which record it
    warm = replace(tcfg, iterations=1)
    with contextlib.suppress(Exception):
        train_eraki(ReconProblem(masked, (mask,), "eraki", warm, maps=maps))

    rcfg = cfg["recon"]
    rows: dict[str, dict] = {}
    for method in BENCH_METHODS:
        try:
            _, image, row = reconstruct(method, masked, mask, maps, tcfg,
                                        lam=rcfg["lam"], acs_kx=rcfg["acs_kx"])
            row["nrmse"] = nrmse_of(image.transpose(("kx", "ky", "kz")).data)
        except Exception as exc:  # record the failure, keep benching
            row = {"error": f"{type(exc).__name__}: {exc}"}
        rows[method] = row

    ratios = {}
    raki, eraki = rows["raki"], rows["eraki"]
    if raki.get("learning_s", 0) > 0 and eraki.get("learning_s", 0) > 0:
        ratios["raki_over_eraki_learning"] = (
            raki["learning_s"] / eraki["learning_s"]
        )
    if raki.get("paper_equivalent_models") and eraki.get("model_count"):
        ratios["paper_equivalent_model_counts"] = (
            f"{raki['paper_equivalent_models']}:{eraki['model_count']}"
        )
    ratios["paper_reference_learning"] = (
        PAPER_REFERENCE["raki_learning_s"] / PAPER_REFERENCE["eraki_learning_s"]
    )

    return BenchReport(
        methods=rows,
        espirit_s=espirit_s,
        ratios=ratios,
        environment=_environment(),
        config_hash=_config_hash(cfg),
    )


def report_to_json(report: BenchReport) -> str:
    return json.dumps(asdict(report), indent=2, sort_keys=True)


def report_table(report: BenchReport) -> str:
    """Aligned text table with one row per method plus the maps row."""
    headers = ("method", "learn_s", "infer_s", "models", "paper_models",
               "nrmse")
    lines = [
        ("espirit maps", f"{report.espirit_s:.3f}", "-", "-", "-", "-"),
    ]
    for name, row in report.methods.items():
        if "error" in row:
            lines.append((name, "error", row["error"], "-", "-", "-"))
            continue
        lines.append((
            name,
            f"{row['learning_s']:.3f}",
            f"{row['inference_s']:.3f}",
            str(row["model_count"]),
            str(row["paper_equivalent_models"]),
            f"{row['nrmse']:.4f}",
        ))
    widths = [max(len(h), *(len(l[i]) for l in lines)) for i, h in
              enumerate(headers)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    out = [fmt.format(*headers), fmt.format(*("-" * w for w in widths))]
    out += [fmt.format(*line) for line in lines]
    ratio = report.ratios.get("raki_over_eraki_learning")
    if ratio is not None:
        out.append(f"learning-time ratio raki/eraki: {ratio:.2f}")
    counts = report.ratios.get("paper_equivalent_model_counts")
    if counts:
        out.append(f"paper-equivalent model counts raki:eraki = {counts}")
    out.append(
        "published reference (32ch, GPU): learning "
        f"{PAPER_REFERENCE['raki_learning_s']:.0f} s vs "
        f"{PAPER_REFERENCE['eraki_learning_s']:.0f} s "
        f"({PAPER_REFERENCE['model_count_ratio_32ch']} models); context only"
    )
    return "\n".join(out)
