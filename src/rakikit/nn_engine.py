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
matrix. ``predict_columns`` runs inference over blocks of columns the same
way, every model of a list on each block's one column matrix.

The engine computes in the dtype of its input: float32 input stays
float32 (the weights are cast to it), any other input becomes float64.
``train`` on float32 input gathers a float32 column matrix, casts the
warm-start weights and targets once and keeps the Adam moments in
float32; the model it returns is float64. On the 3-echo joint scene
(48 -> 54 channels, 100 steps, 2-core Xeon) a call takes 1.0 s in
float32 against 1.8 s in float64.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ConfigError, GeometryError, NumericalError

DEFAULT_KERNELS = ((3, 3, 5), (1, 1, 3), (1, 1, 3), (1, 1, 1), (1, 1, 1))
# Adam's moment decays and denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def receptive_field(kernel_sizes) -> tuple[int, int, int]:
    """Input extent one output sample sees through a stack of valid convs."""
    rf = np.ones(3, dtype=int)
    for ks in kernel_sizes:
        rf += np.array(ks) - 1
    return tuple(int(r) for r in rf)


def branch_offset(kernel_sizes) -> tuple[int, int, int]:
    """Where the linear branch reads: output p of the stack takes layer 0's
    window at p + sum of (k - 1) // 2 over the later layers, the centre of
    their margins (the lower centre for an even extent)."""
    later = np.array(kernel_sizes[1:], dtype=int).reshape(-1, 3)
    return tuple(int(a) for a in ((later - 1) // 2).sum(axis=0))


@dataclass
class ConvLayer:
    kernel: np.ndarray  # [out_ch, in_ch, k1, k2, k3]
    bias: np.ndarray  # [out_ch]
    relu: bool


@dataclass
class ModelWeights:
    layers: list[ConvLayer]
    linear: ConvLayer | None = None  # added to the stack's output (``_branch``)

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.kernel.shape[0] != nxt.kernel.shape[1]:
                raise ConfigError(
                    f"channel mismatch: {prev.kernel.shape[0]} -> "
                    f"{nxt.kernel.shape[1]}"
                )
        want = (self.out_channels, *self.layers[0].kernel.shape[1:])
        if self.linear is not None and self.linear.kernel.shape != want:
            raise ConfigError(f"linear branch {self.linear.kernel.shape} != {want}")

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
        return deepcopy(self)


# the one set of training defaults: config.DEFAULTS["train"] is these fields
@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 0.0  # L1/L2 mix
    beta: float = 1e-4  # weight-penalty strength
    learning_rate: float = 1e-4
    lr_decay: float = 0.998  # per-step multiplicative decay
    iterations: int = 100
    seed: int = 0
    widths: tuple[int, ...] = (16, 16, 16, 16)
    kernel_sizes: tuple[tuple[int, int, int], ...] = DEFAULT_KERNELS
    squared_l2: bool = True

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
    """``model`` with its weights in ``dtype``, sharing those already in it."""
    def cast(l):
        return ConvLayer(l.kernel.astype(dtype, copy=False),
                         l.bias.astype(dtype, copy=False), l.relu)
    return ModelWeights([cast(l) for l in model.layers],
                        None if model.linear is None else cast(model.linear))


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


def _activations(model: ModelWeights, h: np.ndarray):
    """Input and every layer's output, all [C, B, X, Y, Z], and the model's
    output: the last of them plus the linear branch."""
    acts = [h]
    for layer in model.layers:
        h = _conv(h, layer)
        if layer.relu:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts, h if model.linear is None else h + _branch(model, acts[0], h.shape[2:])


def _branch(model: ModelWeights, h: np.ndarray, out) -> np.ndarray:
    """The linear branch on [C, B, X, Y, Z] at the stack's output extents
    ``out``, read at ``branch_offset``. The output is cropped, not the
    input: that would copy ``predict_columns``' column matrix."""
    lo = branch_offset([l.kernel.shape[2:] for l in model.layers])
    return _conv(h, model.linear)[(slice(None),) * 2 + tuple(
        slice(a, a + o) for a, o in zip(lo, out))]


def forward(model: ModelWeights, x: np.ndarray,
            keep_activations: bool = False):
    """Run the model on a batch [B, in_ch, X, Y, Z] or one sample [in_ch, X, Y, Z].

    Returns the output, linear branch included (and the stack's activations,
    input first), in the input's layout. ReLU follows every layer flagged
    ``relu``. Output extents are the input minus (receptive field - 1).
    """
    h, single = _as_batch(model, x)
    acts, out = _activations(_in_dtype(model, h.dtype), h)
    out = _outside(out, single)
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
    """Exact loss gradients for every kernel and bias of the stack.

    ``x``, ``target`` and ``valid`` are batches, or one 4-D sample, as in
    ``forward``; the linear branch is a constant of the prediction, outside
    the weight penalty. Subgradient conventions: sign(0) = 0 for the L1
    term, 0 at the origin for the un-squared norms. Returns (loss_value,
    grads) with grads a list of (dkernel, dbias) matching the layer order,
    in the input's dtype.
    """
    h, single = _as_batch(model, x)
    model = _in_dtype(model, h.dtype)
    acts, pred = _activations(model, h)
    pred = _outside(pred, single)
    e, n, rms, data = _data_term(pred, np.asarray(target, dtype=h.dtype), alpha,
                                 valid, squared_l2)

    if squared_l2:
        g = (1 - alpha) * 2.0 * e / n
    elif rms > 0:
        g = (1 - alpha) * e / (n * rms)
    else:
        g = np.zeros_like(e)
    if alpha:  # the L1 subgradient
        g += alpha * np.sign(e) / n

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
    """A copy with layer 0 and the branch as 1x1x1 convs over layer 0's windows."""
    flat = model.copy()
    for layer in filter(None, (flat.layers[0], flat.linear)):
        layer.kernel = layer.kernel.reshape(layer.kernel.shape[0], -1, 1, 1, 1)
    return flat


def _columns_of(a: np.ndarray, idx) -> np.ndarray:
    """Output columns ``idx`` of [C, B, ou, ov, oz] as a batch [n, C, 1, 1, oz]."""
    cols = np.ascontiguousarray(a[:, idx[0], idx[1], idx[2]])  # [C, n, oz]
    return cols[:, :, None, None].swapaxes(0, 1)


def _flat_params(model: ModelWeights) -> np.ndarray:
    """Make every kernel and bias of ``model`` a view into one flat vector,
    which is returned: an update of the vector is an update of the model."""
    theta = np.concatenate([p.ravel() for layer in model.layers
                            for p in (layer.kernel, layer.bias)])
    at = 0
    for layer in model.layers:
        for name in ("kernel", "bias"):
            p = getattr(layer, name)
            setattr(layer, name, theta[at : at + p.size].reshape(p.shape))
            at += p.size
    return theta


def train(model: ModelWeights, x: np.ndarray, target: np.ndarray,
          cfg: TrainConfig, valid: np.ndarray | None = None):
    """Full-batch Adam; deterministic under (seed, config, inputs).

    ``x``, ``target`` and ``valid`` are batches, or one 4-D sample, as in
    ``forward``. Only the (p1, p2) output columns holding a valid target
    enter the loss, so training runs on those alone: before the first
    step their layer-0 windows are unfolded once into a column matrix, and
    every step calls ``backward`` on it with layer 0 viewed as a 1x1x1
    conv. The linear branch is held fixed: the targets lose its prediction
    once, over that matrix, and the steps fit the stack alone. Float32
    ``x`` trains in float32 throughout: the warm start and the targets are
    cast once. The kernels and biases are views into one flat vector, and
    each step is Adam's update equations (Kingma & Ba, arXiv:1412.6980) on
    it, the gradients concatenated in its order. Returns (trained
    float64 model, loss history). Aborts with the step index on a
    non-finite loss, before the first step if the stack's warm start is
    not finite in the input's dtype, and after the last if the weights it
    leaves are not finite.
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
        flat = _in_dtype(_flat_first(model), h.dtype)
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
    target = _columns_of(target, idx)
    if flat.linear is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            target -= _branch(flat, cols, target.shape[2:]).swapaxes(0, 1)
    cols = cols.swapaxes(0, 1)
    if valid is not None:
        valid = _columns_of(valid, idx)

    stack = ModelWeights(flat.layers)
    theta = _flat_params(stack)
    if not np.isfinite(theta).all():
        raise NumericalError(f"warm-start weights are not finite in {h.dtype}")
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    history = []
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    lr = cfg.learning_rate
    for step in range(1, cfg.iterations + 1):
        # a diverging run ends in the NumericalError below, not in warnings
        with np.errstate(over="ignore", invalid="ignore"):
            value, grads = backward(
                stack, cols, target, cfg.alpha, cfg.beta, valid=valid,
                squared_l2=cfg.squared_l2,
            )
            if not np.isfinite(value):
                raise NumericalError(f"non-finite loss at step {step}")
            history.append(value)
            g = np.concatenate([d.ravel() for pair in grads for d in pair])
            m = b1 * m + g * (1 - b1)
            v = b2 * v + g * (1 - b2) * g
            theta -= m / (1 - b1**step) * lr / (np.sqrt(v / (1 - b2**step)) + eps)
        lr *= cfg.lr_decay
    if not np.isfinite(theta).all():
        raise NumericalError(f"non-finite weights after step {cfg.iterations}")
    stack.layers[0].kernel = stack.layers[0].kernel.reshape(kshape)
    return _in_dtype(ModelWeights(stack.layers, model.linear), np.float64), history


# elements of the layer-0 column matrix in one block of ``predict_columns``:
# 4 MiB in float64, the dtype inference runs in. The benchmark scenes' float32
# training matrices are 2.0 MiB (desk eRAKI), 2.2 MiB (each desk RAKI coil),
# 4.9 MiB (c04) and 11.7 MiB (me_joint).
COLUMN_BLOCK = 1 << 19


def predict_columns(models: list[ModelWeights], x: np.ndarray):
    """Every model over blocks of (p1, p2) output columns of ``x``.

    ``x`` is a batch or one sample, as in ``forward``; the models must share
    layer 0's kernel shape and the receptive field, as RAKI's per-coil
    models do. Each block unfolds layer 0 under at most ``COLUMN_BLOCK`` elements
    (at least one column) once, as ``train`` does, and every model runs on
    that one column matrix. Yields, per block, its slice of the flattened
    (batch, ou, ov) column grid and each model's output on it, [out_ch,
    column, oz], so a whole grid never holds its column matrix.
    """
    h, _ = _as_batch(models[0], x)
    ks, rf = models[0].layers[0].kernel.shape[2:], models[0].receptive_field
    ou, ov, _ = _out_extents(h, rf)
    flats = [_in_dtype(_flat_first(m), h.dtype) for m in models]
    per_column = (flats[0].in_channels * (rf[0] - ks[0] + 1)
                  * (rf[1] - ks[1] + 1) * (h.shape[4] - ks[2] + 1))
    block = max(1, COLUMN_BLOCK // per_column)
    columns = (h.shape[1], ou, ov)
    total = int(np.prod(columns))
    for start in range(0, total, block):
        sl = slice(start, min(start + block, total))
        idx = np.unravel_index(np.arange(sl.start, sl.stop), columns)
        cols = _layer0_columns(h, idx, ks, rf).swapaxes(0, 1)
        # forward gives [n, C, 1, 1, oz]
        yield sl, [forward(f, cols)[:, :, 0, 0].swapaxes(0, 1) for f in flats]

