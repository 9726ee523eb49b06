"""Command-line interface: the full pipeline as reproducible subcommands.

Every subcommand reads an optional JSON config (flag > file > default),
writes tensor bundles plus a ``manifest.json`` capturing the effective
config, seed, input content hashes, and tool version, and maps the error
taxonomy onto exit codes: 0 success, 2 config, 3 data/geometry, 4
numerical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bench import report_table, report_to_json, run_bench, thread_count
from .config import load_config, read_json, train_config
from .errors import (
    BundleError,
    ConfigError,
    GeometryError,
    NumericalError,
)
from .espirit import SensitivityMaps, coil_combine, espirit_maps
from .grappa import grappa_recon
from .phantom import default_spec, make_phantom
from .quantmap import fit_decay
from .recon_models import (
    ReconProblem,
    echo_shifted_masks,
    infer,
    train_eraki,
    train_raki,
    zerofill_recon,
)
from .sampling import (
    centered_acs_box,
    load_mask,
    make_elliptical_mask,
    make_kyt_mask,
    make_uniform_mask,
    save_mask,
)
from .tensors import (CTensor, bundle_meta, ifftc, load_bundle, nrmse, psnr,
                      save_bundle)


def _hash_bundle(prefix: Path) -> str:
    h = hashlib.sha256()
    for suffix in (".json", ".bin"):
        p = prefix.with_suffix(suffix)
        if p.exists():
            h.update(p.read_bytes())
    return h.hexdigest()


def write_manifest(out: Path, command: str, cfg: dict,
                   inputs: dict[str, Path]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool_version": __version__,
        "command": command,
        "effective_config": cfg,
        "seed": cfg.get("seed"),
        "threads": thread_count(),
        "inputs": {name: _hash_bundle(Path(p)) for name, p in inputs.items()},
        "created_unix": time.time(),
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True)
    )


def _bundle_prefix(path: str, default_name: str) -> Path:
    """Accept either a bundle prefix or a directory holding one."""
    p = Path(path)
    if p.with_suffix(".json").exists():
        return p
    if (p / default_name).with_suffix(".json").exists():
        return p / default_name
    raise GeometryError(f"no tensor bundle at {path}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_phantom(args) -> int:
    cfg = load_config(args.config, args.seed)
    p = cfg["phantom"]
    spec = default_spec(
        extents=tuple(p["extents"]),
        n_coils=p["n_coils"],
        te_ms=tuple(p["te_ms"]),
        seed=cfg["seed"],
        coil_model=p["coil_model"],
        coil_support=p["coil_support"],
        echo_type=p["echo_type"],
        noise_sigma=p["noise_sigma"],
        texture=p["texture"],
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ph = make_phantom(spec)
    for name in ("kspace", "images", "sens_true", "t2_true", "t2star_true"):
        save_bundle(ph[name], out / name)
    write_manifest(out, "phantom", cfg, {})
    return 0


def _build_mask(cfg: dict):
    m = cfg["mask"]
    extents = tuple(m["extents"])
    acs = m["acs"]
    if m["kind"] == "kyt":
        ny, nt = extents
        box = None
        if acs is not None:
            box = (centered_acs_box((ny,), (acs[0],))[0], (0, nt))
        return make_kyt_mask(ny, nt, m["r1"], shift=m["shift"], acs_box=box)
    box = centered_acs_box(extents, tuple(acs)) if acs is not None else None
    maker = {"uniform": make_uniform_mask, "elliptical": make_elliptical_mask}
    if m["kind"] not in maker:
        raise ConfigError(f"unknown config value mask.kind = {m['kind']!r}")
    return maker[m["kind"]](extents, m["r1"], m["r2"], shift=m["shift"],
                            acs_box=box)


def cmd_mask(args) -> int:
    cfg = load_config(args.config, args.seed)
    mask = _build_mask(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_mask(mask, out / "mask")
    write_manifest(out, "mask", cfg, {})
    return 0


def _save_maps(maps: SensitivityMaps, out: Path) -> None:
    save_bundle(
        maps.maps, out / "maps",
        meta={
            "kernel_size": maps.kernel_size,
            "sigma_threshold": maps.sigma_threshold,
            "crop_threshold": maps.crop_threshold,
            "retained_frac": maps.retained_frac,
            "eigh_fallbacks": maps.eigh_fallbacks,
        },
    )
    save_bundle(
        CTensor(maps.eigval.astype(np.complex128), maps.maps.axes[1:]),
        out / "eigval",
    )


def _load_maps(path: str) -> SensitivityMaps:
    prefix = _bundle_prefix(path, "maps")
    maps = load_bundle(prefix)
    meta = bundle_meta(prefix)
    eig_prefix = prefix.parent / "eigval"
    eigval = np.real(load_bundle(eig_prefix).data)
    return SensitivityMaps(
        maps, eigval, meta["kernel_size"], meta["sigma_threshold"],
        meta["crop_threshold"], meta.get("eigh_fallbacks", 0),
    )


def cmd_maps(args) -> int:
    cfg = load_config(args.config, args.seed)
    e = cfg["espirit"]
    acs = load_bundle(_bundle_prefix(args.acs, "acs"))
    out_extents = tuple(e["out_extents"]) if e["out_extents"] else None
    maps = espirit_maps(
        acs, kernel_size=e["kernel_size"], sigma_threshold=e["sigma_threshold"],
        crop_threshold=e["crop_threshold"], out_extents=out_extents,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _save_maps(maps, out)
    write_manifest(out, "maps", cfg, {"acs": _bundle_prefix(args.acs, "acs")})
    return 0


def _rss_image(kspace: CTensor, fourier) -> CTensor:
    img = ifftc(kspace, fourier)
    mag = np.sqrt(np.sum(np.abs(img.data) ** 2, axis=img.axis("coil")))
    axes = tuple(a for a in img.axes if a != "coil")
    return CTensor(mag, axes)


def cmd_recon(args) -> int:
    cfg = load_config(args.config, args.seed)
    data = load_bundle(_bundle_prefix(args.data, "kspace"))
    mask = load_mask(_bundle_prefix(args.mask, "mask"))
    maps = _load_maps(args.maps) if args.maps else None
    rcfg = cfg["recon"]
    tcfg = train_config(cfg)
    method = args.method
    fourier = tuple(a for a in ("kx", *mask.axes) if a != "t")
    report = {"method": method, "model_count": 0, "learning_s": 0.0,
              "inference_s": 0.0}

    if method in ("zerofill", "raki", "eraki", "eraki-joint", "eraki-kyt"):
        if maps is None:
            raise ConfigError(f"recon --method {method} requires --maps")

    if method == "grappa":
        t0 = time.monotonic()
        filled = grappa_recon(data, mask, lam=rcfg["lam"], acs_kx=rcfg["acs_kx"])
        report["learning_s"] = time.monotonic() - t0
        report["model_count"] = mask.r1 * mask.r2 - 1
        t0 = time.monotonic()
        if maps is not None:
            img = coil_combine(ifftc(filled, fourier), maps)
            image = img.with_data(np.abs(img.data))
        else:
            image = _rss_image(filled, fourier)
        report["inference_s"] = time.monotonic() - t0
        kspace = filled
    else:
        ne = data.extent("echo") if data.has_axis("echo") else 1
        masks = echo_shifted_masks(mask, ne) if ne > 1 else (mask,)
        mode = {
            "zerofill": "eraki",
            "raki": "raki_percoil",
            "eraki": "eraki",
            "eraki-joint": "eraki_joint",
            "eraki-kyt": "eraki_kyt",
        }.get(method)
        if mode is None:
            raise ConfigError(f"unknown recon method {method!r}")
        problem = ReconProblem(data, masks, mode, tcfg, maps=maps)
        if method == "zerofill":
            t0 = time.monotonic()
            res = zerofill_recon(problem)
            report["inference_s"] = time.monotonic() - t0
        elif method == "raki":
            t0 = time.monotonic()
            models, _ = train_raki(problem, init=rcfg["init"])
            report["learning_s"] = time.monotonic() - t0
            report["model_count"] = len(models)
            t0 = time.monotonic()
            res = infer(models, problem)
            report["inference_s"] = time.monotonic() - t0
        else:
            t0 = time.monotonic()
            model, _ = train_eraki(problem, target_margin=rcfg["target_margin"],
                                   init=rcfg["init"])
            report["learning_s"] = time.monotonic() - t0
            report["model_count"] = 1
            t0 = time.monotonic()
            res = infer(model, problem)
            report["inference_s"] = time.monotonic() - t0
        kspace, image = res.kspace, res.image

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_bundle(kspace, out / "kspace")
    save_bundle(image, out / "image")
    (out / "report.json").write_text(json.dumps(report, indent=2,
                                                sort_keys=True))
    inputs = {"data": _bundle_prefix(args.data, "kspace"),
              "mask": _bundle_prefix(args.mask, "mask")}
    if args.maps:
        inputs["maps"] = _bundle_prefix(args.maps, "maps")
    write_manifest(out, f"recon --method {method}", cfg, inputs)
    return 0


def cmd_metrics(args) -> int:
    recon = load_bundle(_bundle_prefix(args.recon, "image"))
    ref = load_bundle(_bundle_prefix(args.ref, "image"))
    doc = {
        "nrmse": nrmse(recon, ref),
        "psnr_db": psnr(recon, ref),
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "metrics.json").write_text(text)
    return 0


def cmd_fit(args) -> int:
    cfg = load_config(args.config, args.seed)
    try:
        te = [float(v) for v in args.te.split(",")]
    except ValueError:
        raise ConfigError(f"--te must be comma-separated numbers, got {args.te}")
    echoes = load_bundle(_bundle_prefix(args.echoes, "image"))
    x = echoes.transpose(("echo", *(a for a in echoes.axes if a != "echo"))) \
        if echoes.has_axis("echo") else echoes
    result = fit_decay(np.abs(x.data), te, threshold=cfg["fit"]["threshold"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spatial = tuple(a for a in x.axes if a != "echo")
    for name, arr in (("t2_map", result.t2_map), ("s0_map", result.s0_map),
                      ("r2_goodness", result.r2_goodness),
                      ("valid", result.valid.astype(float))):
        save_bundle(CTensor(arr.astype(np.complex128), spatial), out / name)
    write_manifest(out, "fit", cfg,
                   {"echoes": _bundle_prefix(args.echoes, "image")})
    return 0


def cmd_bench(args) -> int:
    scenario = read_json(args.scenario, "scenario") if args.scenario else {}
    if not isinstance(scenario, dict):
        raise ConfigError("scenario must be a JSON object")
    if args.seed is not None:
        scenario["seed"] = args.seed
    report = run_bench(scenario)
    text = report_to_json(report)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(text)
        (out / "table.txt").write_text(report_table(report) + "\n")
    if args.table or not args.out:
        print(report_table(report))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rakikit",
        description="Scan-specific parallel MRI reconstruction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("phantom", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("mask", help="generate an undersampling mask")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("maps", help="ESPIRiT sensitivity maps from ACS")
    common(p)
    p.add_argument("--acs", required=True, help="ACS k-space bundle")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_maps)

    p = sub.add_parser("recon", help="reconstruct undersampled k-space")
    common(p)
    p.add_argument("--method", required=True,
                   choices=["zerofill", "grappa", "raki", "eraki",
                            "eraki-joint", "eraki-kyt"])
    p.add_argument("--data", required=True, help="masked k-space bundle")
    p.add_argument("--mask", required=True, help="mask bundle")
    p.add_argument("--maps", help="sensitivity maps bundle")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_recon)

    p = sub.add_parser("metrics", help="NRMSE/PSNR between two images")
    p.add_argument("--recon", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("fit", help="T2/T2* decay fit from echo images")
    common(p)
    p.add_argument("--echoes", required=True, help="echo image bundle")
    p.add_argument("--te", required=True, help="comma-separated TEs in ms")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("bench", help="timing comparison across methods")
    p.add_argument("--scenario", help="JSON scenario file")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--table", action="store_true",
                   help="print the aligned text table")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (GeometryError, BundleError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
