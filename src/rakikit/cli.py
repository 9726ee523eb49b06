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
from .bench import (BENCH_METHODS, reconstruct, report_table, report_to_json,
                    run_bench, thread_count)
from .config import (load_config, phantom_spec, sampling_mask,
                     sensitivity_maps, train_config)
from .errors import (
    BundleError,
    ConfigError,
    GeometryError,
    NumericalError,
)
from .espirit import SensitivityMaps
from .phantom import make_phantom
from .quantmap import fit_decay
from .sampling import load_mask, save_mask
from .tensors import CTensor, bundle_meta, load_bundle, nrmse, psnr, save_bundle


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
    ph = make_phantom(phantom_spec(cfg))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("kspace", "images", "sens_true", "t2_true", "t2star_true"):
        save_bundle(ph[name], out / name)
    write_manifest(out, "phantom", cfg, {})
    return 0


def cmd_mask(args) -> int:
    cfg = load_config(args.config, args.seed)
    mask = sampling_mask(cfg)
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
            "eigval_hist": maps.eigval_hist,
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
    keys = ("kernel_size", "sigma_threshold", "crop_threshold")
    bad = [k for k in keys if type(meta.get(k)) not in (int, float)]
    if bad:
        raise BundleError(f"maps bundle {prefix} meta lacks a number for "
                          + ", ".join(bad))
    fallbacks = meta.get("eigh_fallbacks", 0)
    if type(fallbacks) is not int or fallbacks < 0:
        raise BundleError(f"maps bundle {prefix} meta eigh_fallbacks must be "
                          f"a non-negative integer, got {fallbacks!r}")
    eig_prefix = prefix.parent / "eigval"
    eigval = np.real(load_bundle(eig_prefix).data)
    if eigval.shape != maps.shape[1:]:
        raise BundleError(f"eigval bundle {eig_prefix} has extents "
                          f"{eigval.shape}, maps have {maps.shape[1:]}")
    return SensitivityMaps(
        maps, eigval, meta["kernel_size"], meta["sigma_threshold"],
        meta["crop_threshold"], fallbacks,
    )


def cmd_maps(args) -> int:
    cfg = load_config(args.config, args.seed)
    maps = sensitivity_maps(cfg, load_bundle(_bundle_prefix(args.acs, "acs")))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _save_maps(maps, out)
    write_manifest(out, "maps", cfg, {"acs": _bundle_prefix(args.acs, "acs")})
    return 0


def cmd_recon(args) -> int:
    cfg = load_config(args.config, args.seed)
    data = load_bundle(_bundle_prefix(args.data, "kspace"))
    mask = load_mask(_bundle_prefix(args.mask, "mask"))
    maps = _load_maps(args.maps) if args.maps else None
    rcfg = cfg["recon"]
    kspace, image, row = reconstruct(args.method, data, mask, maps,
                                     train_config(cfg), lam=rcfg["lam"],
                                     acs_kx=rcfg["acs_kx"])
    report = {"method": args.method, **row}

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
    write_manifest(out, f"recon --method {args.method}", cfg, inputs)
    return 0


def cmd_metrics(args) -> int:
    recon = load_bundle(_bundle_prefix(args.recon, "image"))
    ref = load_bundle(_bundle_prefix(args.ref, "image"))
    for name, x in (("recon", recon), ("ref", ref)):
        if not np.isfinite(x.data).all():
            raise NumericalError(f"{name} image holds non-finite values")
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
    report = run_bench(load_config(args.config, args.seed))
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

    def common(p):
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
    p.add_argument("--method", required=True, choices=BENCH_METHODS)
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
    common(p)
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
