"""The one config schema: defaults, a checked merge, and the builders.

A config is nested JSON objects whose leaves take the type of their
default, numbers finite. Every CLI subcommand and :func:`rakikit.run_bench`
merge their config over ``DEFAULTS``, and build the scene from it through
the builders here: the phantom spec, the sampling mask, the sensitivity
maps and the training config.
"""

from __future__ import annotations

import json
import math
from numbers import Integral, Real
from pathlib import Path

from .errors import ConfigError
from .espirit import SensitivityMaps, espirit_maps
from .grappa import DEFAULT_LAMBDA
from .nn_engine import TrainConfig
from .phantom import PhantomSpec, default_spec
from .sampling import (SamplingMask, centered_acs_box, make_elliptical_mask,
                       make_kyt_mask, make_uniform_mask)
from .tensors import CTensor

DEFAULTS = {
    "seed": None,  # mandatory: config file or --seed
    "phantom": {
        "extents": [16, 48, 48],
        "n_coils": 8,
        "coil_model": "smooth",
        "coil_support": 3,
        "te_ms": [0.0],
        "echo_type": "spin",
        "noise_sigma": 0.0,
        "texture": 1.0,
    },
    "mask": {
        "kind": "uniform",  # uniform | elliptical | kyt
        "extents": [48, 48],
        "r1": 2,
        "r2": 2,
        "shift": 1,
        "acs": [16, 16],
    },
    "espirit": {
        "kernel_size": 5,
        "sigma_threshold": 0.01,
        "crop_threshold": 0.9,
        "out_extents": None,  # None = mask.extents
    },
    "train": {
        "alpha": 0.0,
        "beta": 1e-4,
        "squared_l2": True,
        "learning_rate": 1e-4,
        "lr_decay": 0.998,
        "iterations": 100,
        "widths": [16, 16, 16, 16],
        "kernel_sizes": [[3, 3, 5], [1, 1, 3], [1, 1, 3], [1, 1, 1], [1, 1, 1]],
    },
    "recon": {
        "acs_kx": None,  # GRAPPA calibration readout window; None = all
        "lam": DEFAULT_LAMBDA,  # GRAPPA ridge
    },
    "fit": {
        "threshold": 0.0,
    },
}

# list leaves of positive integers, keyed below the root: (length, nullable)
LIST_LEAVES = {"phantom.extents": (3, False), "mask.extents": (2, False),
               "mask.acs": (2, True), "espirit.out_extents": (2, True)}
NUMBER_LISTS = ("phantom.te_ms",)  # non-empty lists of numbers
# integer leaves whose default is None -> whether null is accepted
INT_LEAVES = {"seed": False, "recon.acs_kx": True}
POSITIVE = ("espirit.kernel_size", "recon.acs_kx")  # integer leaves >= 1 if set
NONNEGATIVE = ("recon.lam", "fit.threshold")  # number leaves >= 0


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return (isinstance(value, Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_leaf(default, value, where: str) -> None:
    """A leaf takes its default's type; ints widen to float, bools never."""
    if isinstance(default, bool):
        ok, want = isinstance(value, bool), "a boolean"
    elif isinstance(default, int):
        ok, want = _is_int(value), "an integer"
    elif isinstance(default, float):
        ok = _is_number(value)
        want = "a finite number"
    elif isinstance(default, str):
        ok, want = isinstance(value, str), "a string"
    else:
        return
    if not ok:
        raise ConfigError(f"{where} must be {want}, got {value!r}")


def _check_list(value, length: int, nullable: bool, where: str) -> None:
    """A list leaf holds ``length`` positive integers (or null if allowed)."""
    if value is None and nullable:
        return
    if not (isinstance(value, list) and len(value) == length
            and all(_is_int(v) and v >= 1 for v in value)):
        null = " or null" if nullable else ""
        raise ConfigError(f"{where} must be a list of {length} positive "
                          f"integers{null}, got {value!r}")


def _check_numbers(value, where: str) -> None:
    if not (isinstance(value, list) and value and all(map(_is_number, value))):
        raise ConfigError(f"{where} must be a non-empty list of finite "
                          f"numbers, got {value!r}")


def merge(defaults: dict, override, path: str = "config") -> dict:
    """``defaults`` updated by ``override``; unknown keys and types rejected."""
    if not isinstance(override, dict):
        raise ConfigError(f"{path} must be a JSON object")
    out = dict(defaults)
    for key, value in override.items():
        where = f"{path}.{key}"
        if key not in defaults:
            raise ConfigError(f"unknown config key {where}")
        if isinstance(defaults[key], dict):
            out[key] = merge(defaults[key], value, where)
            continue
        leaf = where.split(".", 1)[1]  # the key below the root
        if leaf in LIST_LEAVES:
            _check_list(value, *LIST_LEAVES[leaf], where)
        elif leaf in NUMBER_LISTS:
            _check_numbers(value, where)
        elif leaf in INT_LEAVES:
            if not (value is None and INT_LEAVES[leaf]):
                _check_leaf(0, value, where)
        else:
            _check_leaf(defaults[key], value, where)
        if leaf in POSITIVE and value is not None and value < 1:
            raise ConfigError(f"{where} must be at least 1, got {value!r}")
        if leaf in NONNEGATIVE and value < 0:
            raise ConfigError(f"{where} must be >= 0, got {value!r}")
        out[key] = value
    return out


def read_json(path: str, what: str = "config"):
    """Parse a JSON file; a missing or malformed file is a ConfigError."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None


def load_config(path: str | None, seed_flag: int | None) -> dict:
    """DEFAULTS < JSON file at ``path`` < ``--seed``; the seed is mandatory."""
    cfg = merge(DEFAULTS, read_json(path) if path else {})
    if seed_flag is not None:
        cfg["seed"] = seed_flag
    return checked(cfg)


def checked(cfg: dict) -> dict:
    """``cfg``, merged over DEFAULTS, once its seed is set and its train
    section is in range (whatever the command)."""
    if cfg["seed"] is None:
        raise ConfigError("config key seed is mandatory (file or --seed)")
    train_config(cfg)
    return cfg


def train_config(cfg: dict) -> TrainConfig:
    """TrainConfig from a merged config's ``train`` section and seed."""
    t = cfg["train"]
    try:
        widths = tuple(t["widths"])
        kernel_sizes = tuple(tuple(k) for k in t["kernel_sizes"])
    except TypeError:
        raise ConfigError("train.widths must be a list and train.kernel_sizes "
                          "a list of lists") from None
    return TrainConfig(
        alpha=t["alpha"],
        beta=t["beta"],
        squared_l2=t["squared_l2"],
        learning_rate=t["learning_rate"],
        lr_decay=t["lr_decay"],
        iterations=t["iterations"],
        widths=widths,
        kernel_sizes=kernel_sizes,
        seed=cfg["seed"],
    )


def phantom_spec(cfg: dict) -> PhantomSpec:
    """The phantom of a merged config's ``phantom`` section and seed."""
    p = cfg["phantom"]  # its leaves are PhantomSpec fields
    return default_spec(**{**p, "extents": tuple(p["extents"]),
                           "te_ms": tuple(p["te_ms"])}, seed=cfg["seed"])


def sampling_mask(cfg: dict) -> SamplingMask:
    """The mask of a merged config's ``mask`` section."""
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


def sensitivity_maps(cfg: dict, acs: CTensor) -> SensitivityMaps:
    """ESPIRiT maps of ``acs`` by a merged config's ``espirit`` section, on
    the grid of ``espirit.out_extents``, or of ``mask.extents`` if null."""
    e = cfg["espirit"]
    return espirit_maps(
        acs, kernel_size=e["kernel_size"], sigma_threshold=e["sigma_threshold"],
        crop_threshold=e["crop_threshold"],
        out_extents=tuple(e["out_extents"] or cfg["mask"]["extents"]),
    )
