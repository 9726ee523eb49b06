"""Spans around rakikit's public functions, recorded from outside the library.

``Tracer`` swaps each listed function for a timing wrapper in every
namespace that holds it (the defining module, modules that imported it by
name, and the benchmark's own modules), so the wrappers see the real call
path. A function that the library stops calling simply yields no span.
Spans are kept in memory and restored functions leave no trace behind.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np
from rakikit.grappa import MAX_WINDOWS, cell_offsets
from rakikit.nn_engine import ConvLayer, ModelWeights, forward

LAYERS = ("tensors", "sampling", "phantom", "espirit", "grappa", "nn_engine",
          "recon_models", "quantmap")

# (module, function) pairs wrapped at the layer boundaries
TRACED = (
    ("tensors", "fftc"), ("tensors", "ifftc"),
    ("tensors", "fftc_nd"), ("tensors", "ifftc_nd"),
    ("sampling", "apply_mask"), ("sampling", "extract_acs"),
    ("sampling", "make_uniform_mask"), ("sampling", "make_elliptical_mask"),
    ("sampling", "make_kyt_mask"),
    ("phantom", "make_phantom"), ("phantom", "make_smooth_coils"),
    ("espirit", "espirit_maps"), ("espirit", "coil_combine"),
    ("espirit", "make_combo_target"),
    ("grappa", "grappa_recon"), ("grappa", "grappa_calibrate"),
    ("grappa", "grappa_apply"),
    ("nn_engine", "init_model"), ("nn_engine", "train"),
    ("nn_engine", "backward"), ("nn_engine", "forward"),
    ("recon_models", "echo_shifted_masks"), ("recon_models", "build_targets"),
    ("recon_models", "linear_init"), ("recon_models", "train_eraki"),
    ("recon_models", "train_raki"), ("recon_models", "infer"),
    ("recon_models", "zerofill_recon"),
    ("quantmap", "fit_decay"),
)


def _espirit_counts(args, maps) -> dict:
    return {"readouts": maps.eigval.shape[0], "voxels": maps.eigval.size,
            "retained": int(np.count_nonzero(maps.eigval >= maps.crop_threshold))}


def _calibrate_counts(args, kernel) -> dict:
    """Calibration windows and unknowns, derived from the ACS and kernel shapes."""
    _, nx, n1, n2 = np.shape(args["acs"])
    src = kernel.src
    cell = np.array(cell_offsets(args["mask"]))  # includes the (0, 0) anchor
    d1 = np.concatenate([src[:, 1], cell[:, 0]])
    d2 = np.concatenate([src[:, 2], cell[:, 1]])
    avail = int((nx - np.ptp(src[:, 0])) * (n1 - np.ptp(d1)) * (n2 - np.ptp(d2)))
    stride = -(-avail // MAX_WINDOWS) if avail > MAX_WINDOWS else 1
    return {"windows": len(range(0, avail, stride)),
            "unknowns": kernel.n_coils * len(src)}


def _apply_counts(args, filled) -> dict:
    mask = args["mask"]
    missing = int(np.count_nonzero(~mask.grid & ~mask.never_acquired))
    return {"filled": missing * args["kspace_masked"].extent("kx")}


def _linear_init_counts(args, model) -> dict:
    ts, cfg = args["ts"], args["cfg"]
    return {"solves": ts.out_channels,
            "features": ts.in_channels * int(np.prod(cfg.kernel_sizes[0]))}


OBSERVERS = {
    "espirit.espirit_maps": _espirit_counts,
    "grappa.grappa_calibrate": _calibrate_counts,
    "grappa.grappa_apply": _apply_counts,
    "nn_engine.train": lambda args, _: {"steps": args["cfg"].iterations},
    "recon_models.linear_init": _linear_init_counts,
    "recon_models.build_targets": lambda _, ts: {"valid_frac": float(ts.valid.mean())},
    "quantmap.fit_decay": lambda _, fit: {"valid_frac": float(fit.valid.mean())},
}
# per-layer metrics derived from array shapes rather than measured, besides
# every nn_engine.conv{i}.fwd_gflop
COMPUTED = ("grappa.windows", "grappa.unknowns", "grappa.filled_samples",
            "espirit.voxels", "espirit.retained_frac",
            "recon_models.ridge_solves", "recon_models.ridge_features")
FFT_SPANS = ("tensors.fftc", "tensors.ifftc", "tensors.fftc_nd", "tensors.ifftc_nd")


class Tracer:
    """Context manager recording one span per call of each traced function.

    A span is a dict with ``name``, ``start``, ``end`` (perf_counter
    seconds), ``parent`` (index of the enclosing span or None) and
    ``workload``. ``OBSERVERS`` derive counts from a call's bound
    arguments and result; they are kept on the span under ``counts``.
    """

    def __init__(self, workload: str, namespaces=()):
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._namespaces = namespaces

    def _wrap(self, name: str, original):
        observe = OBSERVERS.get(name)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                    "workload": self.workload}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = observe(bound.arguments, result)
            return result

        return traced

    def __enter__(self):
        holders = [m for n, m in sys.modules.items()
                   if n == "rakikit" or n.startswith("rakikit.")]
        holders += list(self._namespaces)
        for module_name, func_name in TRACED:
            module = importlib.import_module(f"rakikit.{module_name}")
            original = getattr(module, func_name)
            traced = self._wrap(f"{module_name}.{func_name}", original)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, traced)
                        self._patched.append((holder, attr, original))
        return self

    def __exit__(self, *exc):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer totals, counts and self times from one traced run."""

    def total(name):
        return float(sum(s["end"] - s["start"] for s in spans if s["name"] == name))

    def counts(name, key):
        return [s["counts"][key] for s in spans
                if s["name"] == name and "counts" in s]

    selfs = self_times(spans)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(sum(
            t for s, t in zip(spans, selfs) if s["name"].split(".")[0] == layer))

    fft = [s for s in spans if s["name"] in FFT_SPANS]
    m["tensors.fft_s"] = float(sum(s["end"] - s["start"] for s in fft))
    m["tensors.fft_calls"] = len(fft)
    m["sampling.extract_acs_s"] = total("sampling.extract_acs")
    m["sampling.apply_mask_s"] = total("sampling.apply_mask")
    m["phantom.make_phantom_s"] = total("phantom.make_phantom")

    maps_s = total("espirit.espirit_maps")
    readouts = sum(counts("espirit.espirit_maps", "readouts"))
    voxels = sum(counts("espirit.espirit_maps", "voxels"))
    m["espirit.maps_s"] = maps_s
    m["espirit.readout_ms"] = 1e3 * maps_s / readouts if readouts else 0.0
    m["espirit.voxels"] = voxels
    m["espirit.retained_frac"] = (
        sum(counts("espirit.espirit_maps", "retained")) / voxels if voxels else 0.0)

    apply_s = total("grappa.grappa_apply")
    filled = sum(counts("grappa.grappa_apply", "filled"))
    m["grappa.calibrate_s"] = total("grappa.grappa_calibrate")
    m["grappa.apply_s"] = apply_s
    m["grappa.windows"] = sum(counts("grappa.grappa_calibrate", "windows"))
    m["grappa.unknowns"] = max(counts("grappa.grappa_calibrate", "unknowns"),
                               default=0)
    m["grappa.filled_samples"] = filled
    m["grappa.filled_per_s"] = filled / apply_s if apply_s else 0.0

    steps = sum(counts("nn_engine.train", "steps"))
    train_self = sum(t for s, t in zip(spans, selfs) if s["name"] == "nn_engine.train")
    m["nn_engine.train_s"] = total("nn_engine.train")
    m["nn_engine.steps"] = steps
    m["nn_engine.backward_ms"] = (
        1e3 * total("nn_engine.backward") / steps if steps else 0.0)
    # what train does besides backward: the Adam update and bookkeeping
    m["nn_engine.adam_ms"] = 1e3 * train_self / steps if steps else 0.0

    valid = counts("recon_models.build_targets", "valid_frac")
    m["recon_models.build_targets_s"] = total("recon_models.build_targets")
    m["recon_models.linear_init_s"] = total("recon_models.linear_init")
    m["recon_models.ridge_solves"] = sum(counts("recon_models.linear_init", "solves"))
    m["recon_models.ridge_features"] = max(
        counts("recon_models.linear_init", "features"), default=0)
    m["recon_models.valid_frac"] = float(np.mean(valid)) if valid else 0.0
    m["recon_models.infer_s"] = total("recon_models.infer")

    fits = counts("quantmap.fit_decay", "valid_frac")
    m["quantmap.fit_s"] = total("quantmap.fit_decay")
    m["quantmap.valid_frac"] = float(np.mean(fits)) if fits else 0.0
    return m


def conv_layer_metrics(model, x: np.ndarray | None, n_layers: int,
                       repeats: int = 5) -> dict:
    """Forward time and computed FLOPs per conv layer on real activations.

    Each layer runs alone as a one-layer model over the activations the
    trained model produces for its own training input ``x``. A workload
    without a learned model (``model`` None) reports 0 for every layer.
    """
    if model is None:
        return {f"nn_engine.conv{i}.{k}": 0.0 for i in range(n_layers)
                for k in ("fwd_ms", "fwd_gflop", "fwd_gflops")}
    _, acts = forward(model, x, keep_activations=True)
    m = {}
    for i, layer in enumerate(model.layers):
        single = ModelWeights([ConvLayer(layer.kernel, layer.bias, layer.relu)])
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            forward(single, acts[i])
            times.append(time.perf_counter() - t0)
        fwd_s = float(np.median(times))
        oc, ic, k1, k2, k3 = layer.kernel.shape
        out_voxels = int(np.prod(acts[i + 1].shape[1:]))
        gflop = 2.0 * oc * ic * k1 * k2 * k3 * out_voxels / 1e9  # computed
        m[f"nn_engine.conv{i}.fwd_ms"] = 1e3 * fwd_s
        m[f"nn_engine.conv{i}.fwd_gflop"] = gflop
        m[f"nn_engine.conv{i}.fwd_gflops"] = gflop / fwd_s
    return m
