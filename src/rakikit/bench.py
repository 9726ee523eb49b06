"""Timing harness comparing learning and reconstruction cost per method.

Runs zero-filled, GRAPPA, per-coil RAKI, and the coil-combined model on
identical inputs with identical iteration budgets, timing learning and
inference separately on the monotonic clock. Sensitivity-map estimation
is timed as its own row. Everything except the clock readings is
deterministic under a fixed seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULTS, merge, train_config
from .errors import ConfigError
from .espirit import coil_combine, espirit_maps
from .grappa import grappa_recon
from .nn_engine import TrainConfig
from .phantom import default_spec, make_phantom
from .recon_models import (
    ReconProblem,
    infer,
    train_eraki,
    train_raki,
    zerofill_recon,
)
from .sampling import apply_mask, centered_acs_box, extract_acs, make_uniform_mask
from .tensors import CTensor, ifftc

BENCH_METHODS = ("zerofill", "grappa", "raki", "eraki")

# Published large-scale reference (GPU, 32-channel ME-MPRAGE): per-coil
# RAKI learning vs single-model learning. Reported as context only; the
# reproducible content at desk scale is the ratio, not the seconds.
PAPER_REFERENCE = {
    "raki_learning_s": 25600.0,
    "eraki_learning_s": 30.0,
    "model_count_ratio_32ch": "64:1",
}

DEFAULT_SCENARIO = {
    "seed": 0,
    "phantom": {"extents": [16, 48, 48], "n_coils": 8, "texture": 1.0},
    "mask": {"r1": 2, "r2": 2, "shift": 1, "acs": [16, 16]},
    "espirit": {"kernel_size": 5},
    "train": {**DEFAULTS["train"], "iterations": 100},
    "methods": list(BENCH_METHODS),
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
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def thread_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _environment() -> dict:
    return {
        "cpu_model": _cpu_model(),
        "thread_count": thread_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def _config_hash(scenario: dict) -> str:
    blob = json.dumps(scenario, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def run_bench(scenario: dict | None = None) -> BenchReport:
    """Run every requested method on one synthetic scene and time it."""
    scenario = merge(DEFAULT_SCENARIO, scenario or {}, "scenario")
    cfg = train_config(scenario)
    pspec = scenario["phantom"]
    mspec = scenario["mask"]
    extents = tuple(pspec["extents"])
    n1, n2 = extents[1], extents[2]

    spec = default_spec(
        extents=extents,
        n_coils=pspec["n_coils"],
        texture=pspec["texture"],
        seed=scenario["seed"],
    )
    ph = make_phantom(spec)
    ksp = CTensor(ph["kspace"].data[:, 0], ("coil", "kx", "ky", "kz"))
    mask = make_uniform_mask(
        (n1, n2), mspec["r1"], mspec["r2"], shift=mspec["shift"],
        acs_box=centered_acs_box((n1, n2), tuple(mspec["acs"])),
    )
    masked = apply_mask(ksp, mask)
    acs = extract_acs(masked, mask)

    t0 = time.monotonic()
    maps = espirit_maps(
        acs, kernel_size=scenario["espirit"]["kernel_size"], out_extents=(n1, n2)
    )
    espirit_s = time.monotonic() - t0

    ref = np.abs(coil_combine(ifftc(ksp, ("kx", "ky", "kz")), maps).data)
    metric = np.zeros(extents, dtype=bool)
    metric[2:-2, 2:-2, 2:-2] = True

    def nrmse_of(img: np.ndarray) -> float:
        return float(
            np.linalg.norm((img - ref)[metric]) / np.linalg.norm(ref[metric])
        )

    nc = pspec["n_coils"]
    r_total = mspec["r1"] * mspec["r2"]

    # warm-up outside any timed section (first-call allocator effects)
    warm = TrainConfig(iterations=1, widths=cfg.widths,
                       kernel_sizes=cfg.kernel_sizes, seed=cfg.seed)
    train_eraki(ReconProblem(masked, (mask,), "eraki", warm, maps=maps))

    rows: dict[str, dict] = {}
    for method in scenario["methods"]:
        if method not in BENCH_METHODS:
            raise ConfigError(
                f"unknown method {method!r}; choose from {BENCH_METHODS}"
            )
        row = {"model_count": 0, "paper_equivalent_models": 0,
               "learning_s": 0.0, "inference_s": 0.0}
        try:
            if method == "zerofill":
                prob = ReconProblem(masked, (mask,), "eraki", cfg, maps=maps)
                t0 = time.monotonic()
                res = zerofill_recon(prob)
                row["inference_s"] = time.monotonic() - t0
            elif method == "grappa":
                row["model_count"] = r_total - 1  # one kernel per offset
                row["paper_equivalent_models"] = r_total - 1
                t0 = time.monotonic()
                filled = grappa_recon(masked, mask)
                row["learning_s"] = time.monotonic() - t0  # calibrate+apply
                t0 = time.monotonic()
                img = coil_combine(ifftc(filled, ("kx", "ky", "kz")), maps)
                row["inference_s"] = time.monotonic() - t0
                rows[method] = row
                row["nrmse"] = nrmse_of(np.abs(img.data))
                continue
            elif method == "raki":
                row["model_count"] = nc
                row["paper_equivalent_models"] = 2 * nc  # real/imag per coil
                prob = ReconProblem(masked, (mask,), "raki_percoil", cfg,
                                    maps=maps)
                t0 = time.monotonic()
                models, _ = train_raki(prob)
                row["learning_s"] = time.monotonic() - t0
                t0 = time.monotonic()
                res = infer(models, prob)
                row["inference_s"] = time.monotonic() - t0
            else:  # eraki
                row["model_count"] = 1
                row["paper_equivalent_models"] = 1
                prob = ReconProblem(masked, (mask,), "eraki", cfg, maps=maps)
                t0 = time.monotonic()
                model, _ = train_eraki(prob)
                row["learning_s"] = time.monotonic() - t0
                t0 = time.monotonic()
                res = infer(model, prob)
                row["inference_s"] = time.monotonic() - t0
            img = res.image.transpose(("kx", "ky", "kz")).data
            row["nrmse"] = nrmse_of(img)
        except Exception as exc:  # record the failure, keep benching
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows[method] = row

    ratios = {}
    raki = rows.get("raki", {})
    eraki = rows.get("eraki", {})
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
        config_hash=_config_hash(scenario),
    )


def report_to_json(report: BenchReport) -> str:
    doc = {
        "methods": report.methods,
        "espirit_s": report.espirit_s,
        "ratios": report.ratios,
        "environment": report.environment,
        "config_hash": report.config_hash,
        "paper_reference": report.paper_reference,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


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
