"""Deterministic training engine for small real-valued 3D CNNs.

Valid (no padding) convolutions, ReLU between layers, a mixed L1/L2
objective with an L2 weight penalty, full-batch Adam, and exact
hand-derived gradients (checked against central differences in the test
suite). Complex k-space enters as stacked real/imaginary channels; the
network itself is real.

Inputs carry a leading batch axis, [B, C, X, Y, Z]; one sample
[C, X, Y, Z] is a batch of one. Every convolution is one GEMM over its
unfolded kernel windows (im2col), and its input gradient a col2im
scatter. ``train`` fits only the (p1, p2) output columns that hold a
target: once per call it gathers their receptive-field patches into a
batch, unfolds layer 0's window over them into one column matrix, and
steps a model whose layer 0 is the same weights as a 1x1x1 conv over that
matrix. ``predict`` runs inference over blocks of columns the same way.

The engine computes in the dtype of its input: float32 input stays
float32 (the weights are cast to it), any other input becomes float64.
``train`` on float32 input gathers a float32 column matrix, casts the
warm-start weights and targets once and keeps the Adam moments in
float32; the model it returns is float64. On the 3-echo joint scene
(48 -> 54 channels, 100 steps, 2-core Xeon) a call takes 1.0 s in
float32 against 1.8 s in float64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

import numpy as np

from .errors import BundleError, ConfigError, GeometryError, NumericalError
from .tensors import CTensor, save_bundle, load_bundle

DEFAULT_KERNELS = ((3, 3, 7), (1, 1, 5), (1, 1, 3), (1, 1, 1), (1, 1, 1))
DEFAULT_WIDTHS = (64, 64, 64, 64)
# Adam's moment decays and denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


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
    seed: int = 0
    widths: tuple[int, ...] = DEFAULT_WIDTHS
    kernel_sizes: tuple[tuple[int, int, int], ...] = DEFAULT_KERNELS
    squared_l2: bool = False

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError(f"alpha must be in [0,1], got {self.alpha}")
        if not self.beta >= 0:
            raise ConfigError(f"beta must be >= 0, got {self.beta}")
        if not self.learning_rate > 0:
            raise ConfigError(
                f"learning_rate must be > 0, got {self.learning_rate}")
        if not (0.0 < self.lr_decay <= 1.0):
            raise ConfigError(f"lr_decay must be in (0,1], got {self.lr_decay}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if len(self.widths) + 1 != len(self.kernel_sizes):
            raise ConfigError(
                f"{len(self.kernel_sizes)} layers need {len(self.kernel_sizes) - 1} "
                f"hidden widths, got {len(self.widths)}"
            )
        if not all(_positive_int(w) for w in self.widths):
            raise ConfigError(f"hidden widths must be >= 1, got {self.widths}")
        if not all(len(ks) == 3 and all(_positive_int(k) for k in ks)
                   for ks in self.kernel_sizes):
            raise ConfigError(
                f"kernel sizes must be three extents >= 1, got {self.kernel_sizes}"
            )


def _positive_int(v) -> bool:
    return isinstance(v, Integral) and not isinstance(v, bool) and v >= 1


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


def _as_batch(model: ModelWeights, x) -> tuple[np.ndarray, bool]:
    """Input as the engine's layout [in_ch, B, X, Y, Z], float32 if it came
    as float32 and float64 otherwise, and whether it came as one sample
    [in_ch, X, Y, Z] rather than a batch [B, in_ch, X, Y, Z].
    """
    x = np.asarray(x)
    x = x.astype(np.float32 if x.dtype == np.float32 else np.float64, copy=False)
    single = x.ndim == 4
    ic = model.in_channels
    if x.ndim not in (4, 5) or x.shape[-4] != ic:
        raise GeometryError(
            f"expected input [B, {ic}, X, Y, Z] or [{ic}, X, Y, Z], got {x.shape}"
        )
    rf = model.receptive_field
    if any(n < r for n, r in zip(x.shape[-3:], rf)):
        raise GeometryError(
            f"input extents {x.shape[-3:]} smaller than receptive field {rf}"
        )
    return _inside(x, single), single


def _in_dtype(model: ModelWeights, dtype) -> ModelWeights:
    """``model`` with its weights in ``dtype``: itself if they already are."""
    if all(l.kernel.dtype == dtype and l.bias.dtype == dtype for l in model.layers):
        return model
    return ModelWeights([ConvLayer(l.kernel.astype(dtype), l.bias.astype(dtype),
                                   l.relu) for l in model.layers])


def _inside(a: np.ndarray, single: bool) -> np.ndarray:
    """[B, C, X, Y, Z] (or one [C, X, Y, Z]) -> channel-first [C, B, X, Y, Z]."""
    return a[:, None] if single else a.swapaxes(0, 1)


def _outside(h: np.ndarray, single: bool) -> np.ndarray:
    return h[:, 0] if single else h.swapaxes(0, 1)


def _unfold(h: np.ndarray, ks) -> np.ndarray:
    """[C, B, X, Y, Z] -> kernel windows [C*k1*k2*k3, B, o1, o2, o3] (im2col).

    Features run in ``kernel.reshape(out_ch, -1)`` order; a 1x1x1 window
    is the input itself.
    """
    if tuple(ks) == (1, 1, 1):
        return h
    win = np.lib.stride_tricks.sliding_window_view(h, tuple(ks), axis=(2, 3, 4))
    return win.transpose(0, 5, 6, 7, 1, 2, 3, 4).reshape(-1, *win.shape[1:5])


def _fold(dcols: np.ndarray, ks, shape) -> np.ndarray:
    """Adjoint of ``_unfold`` (col2im): add window gradients onto the input grid."""
    if tuple(ks) == (1, 1, 1):
        return dcols.reshape(shape)
    o1, o2, o3 = dcols.shape[2:]
    d = dcols.reshape(shape[0], *ks, *dcols.shape[1:])
    dx = np.zeros(shape, dtype=dcols.dtype)
    for a, b, c in np.ndindex(*ks):
        dx[:, :, a : a + o1, b : b + o2, c : c + o3] += d[:, a, b, c]
    return dx


def _conv(h: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """Valid convolution of [C, B, X, Y, Z]: one GEMM over its unfolded windows."""
    oc = layer.kernel.shape[0]
    cols = _unfold(h, layer.kernel.shape[2:])
    out = layer.kernel.reshape(oc, -1) @ cols.reshape(cols.shape[0], -1)
    out += layer.bias[:, None]
    return out.reshape(oc, *cols.shape[1:])


def _activations(model: ModelWeights, h: np.ndarray) -> list:
    """Input and every layer's output, all [C, B, X, Y, Z]."""
    acts = [h]
    for layer in model.layers:
        h = _conv(h, layer)
        if layer.relu:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts


def forward(model: ModelWeights, x: np.ndarray,
            keep_activations: bool = False):
    """Run the stack on a batch [B, in_ch, X, Y, Z] or one sample [in_ch, X, Y, Z].

    Returns the output (and every activation, input first) in the input's
    layout. ReLU is applied after every layer flagged ``relu``. Output
    extents are the input minus (receptive field - 1).
    """
    h, single = _as_batch(model, x)
    acts = _activations(_in_dtype(model, h.dtype), h)
    out = _outside(acts[-1], single)
    if keep_activations:
        return out, [_outside(a, single) for a in acts]
    return out


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

    ``x``, ``target`` and ``valid`` are batches, or one 4-D sample, as in
    ``forward``. Subgradient conventions: sign(0) = 0 for the L1 term, 0
    at the origin for the un-squared norms. Returns (loss_value, grads)
    with grads a list of (dkernel, dbias) matching the layer order, in the
    input's dtype.
    """
    h, single = _as_batch(model, x)
    model = _in_dtype(model, h.dtype)
    acts = _activations(model, h)
    pred = _outside(acts[-1], single)
    e, n, rms, data = _data_term(pred, np.asarray(target, dtype=h.dtype), alpha,
                                 valid, squared_l2)

    g = alpha * np.sign(e) / n
    if squared_l2:
        g = g + (1 - alpha) * 2.0 * e / n
    elif rms > 0:
        g = g + (1 - alpha) * e / (n * rms)

    grads = [None] * len(model.layers)
    gout = _inside(g, single)
    for li in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[li]
        if layer.relu:
            gout = gout * (acts[li + 1] > 0)
        oc, ks = layer.kernel.shape[0], layer.kernel.shape[2:]
        w = layer.kernel.reshape(oc, -1)
        cols = _unfold(acts[li], ks)
        g2 = gout.reshape(oc, -1)
        dk = (g2 @ cols.reshape(w.shape[1], -1).T).reshape(layer.kernel.shape)
        grads[li] = (dk, g2.sum(axis=1))
        if li > 0:
            gout = _fold((w.T @ g2).reshape(cols.shape), ks, acts[li].shape)

    reg, scale = _penalty(model, beta, squared_l2)
    if beta > 0:
        for layer, (dk, db) in zip(model.layers, grads):
            dk += scale * layer.kernel
            db += scale * layer.bias
    return data + reg, grads


def _layer0_columns(h: np.ndarray, idx, ks, rf) -> np.ndarray:
    """Layer 0's column matrix under the output columns ``idx`` of the stack.

    An output column is one (batch, p1, p2) position of the stack's output
    across the whole third axis; ``idx`` holds their (b, u, v) index
    arrays into ``h`` [C, B, X, Y, Z]. Each column's receptive-field patch
    is gathered into a batch and unfolded by layer 0's kernel window ``ks``:
    [C*k1*k2*k3, n, d1, d2, o3] with d = rf - ks + 1, on which layer 0 acts
    as a 1x1x1 conv (``_flat_first``).
    """
    b, u, v = (np.asarray(i)[:, None, None] for i in idx)
    patches = h[:, b, u + np.arange(rf[0])[:, None], v + np.arange(rf[1])]
    # a 1x1x1 window returns the patches, which fancy indexing lays out
    # column-first; every step's GEMM wants the features first
    return np.ascontiguousarray(_unfold(patches, ks))


def _out_extents(h: np.ndarray, rf) -> tuple[int, int, int]:
    return tuple(n - r + 1 for n, r in zip(h.shape[2:], rf))


def _flat_first(model: ModelWeights) -> ModelWeights:
    """A copy whose layer 0 is the same weights as a 1x1x1 conv over its windows."""
    flat = model.copy()
    first = flat.layers[0]
    first.kernel = first.kernel.reshape(first.kernel.shape[0], -1, 1, 1, 1)
    return flat


def _columns_of(a: np.ndarray, idx) -> np.ndarray:
    """Output columns ``idx`` of [C, B, ou, ov, oz] as a batch [n, C, 1, 1, oz]."""
    cols = np.ascontiguousarray(a[:, idx[0], idx[1], idx[2]])  # [C, n, oz]
    return cols[:, :, None, None].swapaxes(0, 1)


def _all_finite(arrays) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


def train(model: ModelWeights, x: np.ndarray, target: np.ndarray,
          cfg: TrainConfig, valid: np.ndarray | None = None):
    """Full-batch Adam; deterministic under (seed, config, inputs).

    ``x``, ``target`` and ``valid`` are batches, or one 4-D sample, as in
    ``forward``. Only the (p1, p2) output columns holding a valid target
    enter the loss, so training runs on those alone: before the first
    step their layer-0 windows are unfolded once into a column matrix, and
    every step calls ``backward`` on it with layer 0 viewed as a 1x1x1
    conv. Float32 ``x`` trains in float32 throughout: the warm start and
    the targets are cast once. Returns (trained float64 model, loss
    history). Aborts with the step index on a non-finite loss, before the
    first step if the warm start is not finite in the input's dtype, and
    after the last if the weights it leaves are not finite.
    """
    h, single = _as_batch(model, x)
    rf = model.receptive_field
    out = _out_extents(h, rf)
    shape = (model.out_channels, *out) if single else (
        h.shape[1], model.out_channels, *out)
    kshape = model.layers[0].kernel.shape
    # values beyond float32's range become inf: the weight check below, or
    # the non-finite loss of the first step for a target that counts
    with np.errstate(over="ignore"):
        target = np.asarray(target).astype(h.dtype, copy=False)
        model = _in_dtype(_flat_first(model), h.dtype)
    if target.shape != shape:
        raise GeometryError(f"pred {shape} vs target {target.shape}")
    target = _inside(target, single)
    if valid is None:
        keep = np.ones((h.shape[1], *out[:2]), dtype=bool)
    else:
        valid = _inside(np.broadcast_to(valid, shape), single)
        keep = valid.any(axis=(0, 4))
        if not keep.any():
            raise GeometryError("validity mask excludes every position")
    idx = np.nonzero(keep)
    cols = _layer0_columns(h, idx, kshape[2:], rf)
    cols = cols.swapaxes(0, 1)
    target = _columns_of(target, idx)
    if valid is not None:
        valid = _columns_of(valid, idx)

    params = []
    for layer in model.layers:
        params.extend([layer.kernel, layer.bias])
    if not _all_finite(params):
        raise NumericalError(f"warm-start weights are not finite in {h.dtype}")
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    history = []
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    lr = cfg.learning_rate
    for step in range(1, cfg.iterations + 1):
        # a diverging run ends in the NumericalError below, not in warnings
        with np.errstate(over="ignore", invalid="ignore"):
            value, grads = backward(
                model, cols, target, cfg.alpha, cfg.beta, valid=valid,
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
    if not _all_finite(params):
        raise NumericalError(f"non-finite weights after step {cfg.iterations}")
    model.layers[0].kernel = model.layers[0].kernel.reshape(kshape)
    return _in_dtype(model, np.float64), history


# elements of the layer-0 column matrix in one block of ``predict`` (4 MB):
# no more than any benchmark scene's training matrix (4.1 to 24.5 MB)
COLUMN_BLOCK = 1 << 19


def predict(model: ModelWeights, x: np.ndarray) -> np.ndarray:
    """``forward(model, x)`` evaluated over blocks of (p1, p2) output columns.

    Each block unfolds layer 0 under at most ``COLUMN_BLOCK`` elements (at
    least one column), as ``train`` does once, so a whole grid never holds
    its full column matrix.
    """
    h, single = _as_batch(model, x)
    ks, rf = model.layers[0].kernel.shape[2:], model.receptive_field
    ou, ov, oz = _out_extents(h, rf)
    flat = _in_dtype(_flat_first(model), h.dtype)
    per_column = (flat.in_channels * (rf[0] - ks[0] + 1) * (rf[1] - ks[1] + 1)
                  * (h.shape[4] - ks[2] + 1))
    block = max(1, COLUMN_BLOCK // per_column)
    columns = (h.shape[1], ou, ov)
    total = int(np.prod(columns))
    out = np.empty((model.out_channels, *columns, oz), dtype=h.dtype)
    for start in range(0, total, block):
        idx = np.unravel_index(np.arange(start, min(start + block, total)), columns)
        cols = _layer0_columns(h, idx, ks, rf).swapaxes(0, 1)
        y = forward(flat, cols)  # [n, C, 1, 1, oz]
        out[:, idx[0], idx[1], idx[2]] = y[:, :, 0, 0].swapaxes(0, 1)
    return _outside(out, single)


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
    """Read a ``save_model`` directory; a malformed manifest is a BundleError."""
    path = Path(path)
    where = path / "model.json"
    try:
        manifest = json.loads(where.read_text())
    except json.JSONDecodeError as exc:
        raise BundleError(f"model manifest {where} is not valid JSON: {exc}") from None
    entries = manifest.get("layers") if isinstance(manifest, dict) else None
    if not isinstance(entries, list) or not entries:
        raise BundleError(f"model manifest {where} lacks a list of layers")
    layers = []
    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict) and isinstance(entry.get("file"), str)
                and isinstance(entry.get("relu"), bool)):
            raise BundleError(f"model manifest {where}: layer {i} needs a "
                              f"string 'file' and a boolean 'relu'")
        t = load_bundle(path / entry["file"])
        data = np.real(t.data)
        ic = data.shape[1] - 1
        kernel = data[:, :ic].copy()
        bias = data[:, ic, 0, 0, 0].copy()
        layers.append(ConvLayer(kernel, bias, entry["relu"]))
    return ModelWeights(layers)
