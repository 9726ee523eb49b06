"""Deterministic training engine for small real-valued 3D CNNs.

Valid (no padding) convolutions, ReLU between layers, a mixed L1/L2
objective with an L2 weight penalty, full-batch Adam, and exact
hand-derived gradients (checked against central differences in the test
suite). Complex k-space enters as stacked real/imaginary channels; the
network itself is real.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, GeometryError, NumericalError
from .tensors import CTensor, save_bundle, load_bundle

DEFAULT_KERNELS = ((3, 3, 7), (1, 1, 5), (1, 1, 3), (1, 1, 1), (1, 1, 1))
DEFAULT_WIDTHS = (64, 64, 64, 64)


def receptive_field(kernel_sizes) -> tuple[int, int, int]:
    """Input extent one output sample sees through a stack of valid convs."""
    rf = np.ones(3, dtype=int)
    for ks in kernel_sizes:
        rf += np.array(ks) - 1
    return tuple(int(r) for r in rf)


@dataclass
class ConvLayer:
    kernel: np.ndarray  # [out_ch, in_ch, k1, k2, k3]
    bias: np.ndarray  # [out_ch]
    relu: bool


@dataclass
class ModelWeights:
    layers: list[ConvLayer]

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.kernel.shape[0] != nxt.kernel.shape[1]:
                raise ConfigError(
                    f"channel mismatch: {prev.kernel.shape[0]} -> "
                    f"{nxt.kernel.shape[1]}"
                )

    @property
    def in_channels(self) -> int:
        return self.layers[0].kernel.shape[1]

    @property
    def out_channels(self) -> int:
        return self.layers[-1].kernel.shape[0]

    @property
    def receptive_field(self) -> tuple[int, int, int]:
        return receptive_field([layer.kernel.shape[2:] for layer in self.layers])

    def copy(self) -> "ModelWeights":
        return ModelWeights(
            [ConvLayer(l.kernel.copy(), l.bias.copy(), l.relu) for l in self.layers]
        )


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 0.5  # L1/L2 mix
    beta: float = 0.15  # weight-penalty strength
    learning_rate: float = 3e-4
    lr_decay: float = 1.0  # per-step multiplicative decay
    iterations: int = 1000
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    widths: tuple[int, ...] = DEFAULT_WIDTHS
    kernel_sizes: tuple[tuple[int, int, int], ...] = DEFAULT_KERNELS
    squared_l2: bool = False

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError(f"alpha must be in [0,1], got {self.alpha}")
        if self.beta < 0:
            raise ConfigError(f"beta must be >= 0, got {self.beta}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if len(self.widths) + 1 != len(self.kernel_sizes):
            raise ConfigError(
                f"{len(self.kernel_sizes)} layers need {len(self.kernel_sizes) - 1} "
                f"hidden widths, got {len(self.widths)}"
            )


def init_model(in_channels: int, out_channels: int, cfg: TrainConfig) -> ModelWeights:
    """ReLU-scaled uniform init, +-sqrt(2/fan_in), seeded."""
    rng = np.random.default_rng(cfg.seed)
    widths = (*cfg.widths, out_channels)
    layers = []
    prev = in_channels
    last = len(cfg.kernel_sizes) - 1
    for i, (w, ks) in enumerate(zip(widths, cfg.kernel_sizes)):
        fan_in = prev * int(np.prod(ks))
        bound = np.sqrt(2.0 / fan_in)
        kernel = rng.uniform(-bound, bound, size=(w, prev, *ks))
        bias = np.zeros(w)
        layers.append(ConvLayer(kernel, bias, relu=(i != last)))
        prev = w
    return ModelWeights(layers)


def _conv_valid(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    oc, ic, k1, k2, k3 = kernel.shape
    o1 = x.shape[1] - k1 + 1
    o2 = x.shape[2] - k2 + 1
    o3 = x.shape[3] - k3 + 1
    out = np.broadcast_to(bias[:, None, None, None], (oc, o1, o2, o3)).copy()
    for a in range(k1):
        for b in range(k2):
            for c in range(k3):
                out += np.tensordot(
                    kernel[:, :, a, b, c],
                    x[:, a : a + o1, b : b + o2, c : c + o3],
                    axes=(1, 0),
                )
    return out


def forward(model: ModelWeights, x: np.ndarray,
            keep_activations: bool = False):
    """Run the stack on [in_ch, X, Y, Z]; returns output (and activations).

    ReLU is applied after every layer flagged ``relu``. Output extents are
    the input minus (receptive field - 1).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4 or x.shape[0] != model.in_channels:
        raise GeometryError(
            f"expected input [{model.in_channels}, X, Y, Z], got {x.shape}"
        )
    rf = model.receptive_field
    if any(n < r for n, r in zip(x.shape[1:], rf)):
        raise GeometryError(
            f"input extents {x.shape[1:]} smaller than receptive field {rf}"
        )
    acts = [x]
    for layer in model.layers:
        x = _conv_valid(x, layer.kernel, layer.bias)
        if layer.relu:
            x = np.maximum(x, 0.0)
        if keep_activations:
            acts.append(x)
    return (x, acts) if keep_activations else x


def _weight_norm(model: ModelWeights) -> float:
    total = 0.0
    for layer in model.layers:
        total += float(np.sum(layer.kernel**2)) + float(np.sum(layer.bias**2))
    return float(np.sqrt(total))


def _data_term(pred: np.ndarray, target: np.ndarray, alpha: float,
               valid: np.ndarray | None, squared_l2: bool):
    """Masked residual e, its count n, rms(e) and the data part of the loss."""
    if pred.shape != target.shape:
        raise GeometryError(f"pred {pred.shape} vs target {target.shape}")
    e = pred - target
    if valid is not None:
        mask = np.broadcast_to(valid, e.shape)
        n = int(mask.sum())
        if n == 0:
            raise GeometryError("validity mask excludes every position")
        e = np.where(mask, e, 0.0)
    else:
        n = e.size
    l1 = float(np.sum(np.abs(e))) / n
    msq = float(np.sum(e**2)) / n
    rms = float(np.sqrt(msq))
    return e, n, rms, alpha * l1 + (1 - alpha) * (msq if squared_l2 else rms)


def _penalty(model: ModelWeights | None, beta: float, squared_l2: bool):
    """beta * ||theta|| (squared if asked) and its gradient scale on theta."""
    if model is None or beta <= 0:
        return 0.0, 0.0
    wn = _weight_norm(model)
    if squared_l2:
        return beta * wn**2, 2.0 * beta
    return beta * wn, (beta / wn if wn > 0 else 0.0)


def loss(pred: np.ndarray, target: np.ndarray, model: ModelWeights | None,
         alpha: float, beta: float, valid: np.ndarray | None = None,
         squared_l2: bool = False) -> float:
    """alpha * mean|e| + (1-alpha) * rms(e) + beta * ||theta||, e over valid."""
    data = _data_term(pred, target, alpha, valid, squared_l2)[3]
    return data + _penalty(model, beta, squared_l2)[0]


def backward(model: ModelWeights, x: np.ndarray, target: np.ndarray,
             alpha: float, beta: float, valid: np.ndarray | None = None,
             squared_l2: bool = False):
    """Exact loss gradients for every kernel and bias.

    Subgradient conventions: sign(0) = 0 for the L1 term, 0 at the origin
    for the un-squared norms. Returns (loss_value, grads) with grads a
    list of (dkernel, dbias) matching the layer order.
    """
    pred, acts = forward(model, x, keep_activations=True)
    e, n, rms, data = _data_term(pred, target, alpha, valid, squared_l2)

    g = alpha * np.sign(e) / n
    if squared_l2:
        g = g + (1 - alpha) * 2.0 * e / n
    elif rms > 0:
        g = g + (1 - alpha) * e / (n * rms)

    grads = [None] * len(model.layers)
    gout = g
    for li in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[li]
        xin = acts[li]
        if layer.relu:
            gout = gout * (acts[li + 1] > 0)
        oc, ic, k1, k2, k3 = layer.kernel.shape
        o1, o2, o3 = gout.shape[1:]
        dk = np.empty_like(layer.kernel)
        db = gout.sum(axis=(1, 2, 3))
        need_dx = li > 0
        dx = np.zeros_like(xin) if need_dx else None
        for a in range(k1):
            for b in range(k2):
                for c in range(k3):
                    xs = xin[:, a : a + o1, b : b + o2, c : c + o3]
                    dk[:, :, a, b, c] = np.tensordot(
                        gout, xs, axes=([1, 2, 3], [1, 2, 3])
                    )
                    if need_dx:
                        dx[:, a : a + o1, b : b + o2, c : c + o3] += np.tensordot(
                            layer.kernel[:, :, a, b, c], gout, axes=(0, 0)
                        )
        grads[li] = (dk, db)
        gout = dx

    reg, scale = _penalty(model, beta, squared_l2)
    if beta > 0:
        for layer, (dk, db) in zip(model.layers, grads):
            dk += scale * layer.kernel
            db += scale * layer.bias
    return data + reg, grads


def train(model: ModelWeights, x: np.ndarray, target: np.ndarray,
          cfg: TrainConfig, valid: np.ndarray | None = None):
    """Full-batch Adam; deterministic under (seed, config, inputs).

    Returns (trained model, loss history). Aborts with the step index on
    a non-finite loss.
    """
    model = model.copy()
    params = []
    for layer in model.layers:
        params.extend([layer.kernel, layer.bias])
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    history = []
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
    lr = cfg.learning_rate
    for step in range(1, cfg.iterations + 1):
        # a diverging run ends in the NumericalError below, not in warnings
        with np.errstate(over="ignore", invalid="ignore"):
            value, grads = backward(
                model, x, target, cfg.alpha, cfg.beta, valid=valid,
                squared_l2=cfg.squared_l2,
            )
            if not np.isfinite(value):
                raise NumericalError(f"non-finite loss at step {step}")
            history.append(value)
            flat = [g for pair in grads for g in pair]
            for i, (p, g) in enumerate(zip(params, flat)):
                m[i] = b1 * m[i] + (1 - b1) * g
                v[i] = b2 * v[i] + (1 - b2) * g * g
                mhat = m[i] / (1 - b1**step)
                vhat = v[i] / (1 - b2**step)
                p -= lr * mhat / (np.sqrt(vhat) + eps)
        lr *= cfg.lr_decay
    return model, history


def save_model(model: ModelWeights, path: str | Path, extra_meta: dict | None = None):
    """One bundle per layer plus a manifest JSON describing the stack."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {"layers": [], "meta": extra_meta or {}}
    for i, layer in enumerate(model.layers):
        oc, ic = layer.kernel.shape[:2]
        kb = np.zeros((oc, ic + 1, *layer.kernel.shape[2:]), dtype=np.complex128)
        kb[:, :ic] = layer.kernel
        kb[:, ic, 0, 0, 0] = layer.bias
        save_bundle(
            CTensor(kb, ("coil", "maps", "kx", "ky", "kz")),
            path / f"layer{i}",
            meta={"relu": layer.relu, "out_ch": oc, "in_ch": ic},
        )
        manifest["layers"].append(
            {"file": f"layer{i}", "relu": layer.relu,
             "kernel_size": list(layer.kernel.shape[2:])}
        )
    (path / "model.json").write_text(json.dumps(manifest, indent=2))


def load_model(path: str | Path) -> ModelWeights:
    path = Path(path)
    manifest = json.loads((path / "model.json").read_text())
    layers = []
    for entry in manifest["layers"]:
        t = load_bundle(path / entry["file"])
        data = np.real(t.data)
        ic = data.shape[1] - 1
        kernel = data[:, :ic].copy()
        bias = data[:, ic, 0, 0, 0].copy()
        layers.append(ConvLayer(kernel, bias, entry["relu"]))
    return ModelWeights(layers)
