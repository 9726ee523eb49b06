"""Learned k-space reconstructions: per-coil RAKI and coil-combined
single-model reconstruction, with multi-echo joint and ky-t variants.

All learned modes share one geometry, owned by :mod:`rakikit.sampling`:
each grid position is an anchor of the acquired lattice plus a cell offset
(``lattice_cells``, ky-t included). The anchors form a dense decimated grid
of real/imaginary channels, and a small 3D CNN predicts one channel pair per
cell offset (2R per echo). Targets come from the ACS region only; the trained
model runs over the whole decimated grid, and each grid position takes the
prediction at its (offset, anchor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GeometryError
from .espirit import SensitivityMaps, coil_combine, make_combo_target
from .nn_engine import (ModelWeights, TrainConfig, init_model, predict,
                        receptive_field, train)
from .sampling import (SamplingMask, acquired_coords, cell_offsets, extract_acs,
                       lattice_cells, make_elliptical_mask, make_uniform_mask,
                       steps)
from .tensors import CTensor, fftc, ifftc

MODES = ("raki_percoil", "eraki", "eraki_joint")


@dataclass
class ReconProblem:
    kspace_masked: CTensor  # [coil, (echo,) kx, p1, p2]
    masks: tuple[SamplingMask, ...]  # one per echo
    mode: str
    cfg: TrainConfig
    maps: SensitivityMaps | None = None  # full-pattern-grid sensitivities

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; choose from {MODES}")
        ne = self.n_echoes
        if len(self.masks) != ne:
            raise GeometryError(
                f"{ne} echoes need {ne} masks, got {len(self.masks)}"
            )
        if self.mode == "raki_percoil" and ne != 1:
            raise ConfigError("per-coil RAKI supports a single echo")
        if self.mode != "raki_percoil" and self.maps is None:
            raise ConfigError(f"mode {self.mode!r} requires sensitivity maps")

    @property
    def n_echoes(self) -> int:
        k = self.kspace_masked
        return k.extent("echo") if k.has_axis("echo") else 1

    @property
    def n_coils(self) -> int:
        return self.kspace_masked.extent("coil")


def echo_shifted_masks(mask: SamplingMask, n_echo: int) -> tuple[SamplingMask, ...]:
    """Echo e gets CAIPI shift (shift + e) mod R2, same lattice otherwise."""
    if mask.kind == "kyt":
        return tuple([mask] * n_echo)
    maker = make_elliptical_mask if mask.elliptical else make_uniform_mask
    return tuple(
        maker(mask.extents, mask.r1, mask.r2,
              shift=(mask.shift + e) % mask.r2, acs_box=mask.acs_box)
        for e in range(n_echo)
    )


def _to_internal(x: CTensor, mask: SamplingMask) -> np.ndarray:
    """[coil, (echo,) p1, p2, kx] view of a named tensor's data."""
    order = ["coil"]
    if x.has_axis("echo"):
        order.append("echo")
    order += [mask.axes[0], mask.axes[1], "kx"]
    if set(order) != set(x.axes):
        raise GeometryError(f"unexpected axes {x.axes}, need {order}")
    return np.transpose(x.data, [x.axis(a) for a in order])


def _complex_to_channels(arr: np.ndarray) -> np.ndarray:
    """[c, ...] complex -> [2c, ...] real, (re, im) interleaved per channel."""
    out = np.empty((2 * arr.shape[0], *arr.shape[1:]))
    out[0::2] = arr.real
    out[1::2] = arr.imag
    return out


def _channels_to_complex(arr: np.ndarray) -> np.ndarray:
    return arr[0::2] + 1j * arr[1::2]


@dataclass
class OffsetTargetSet:
    """Decimated training input plus spatially aligned offset targets."""

    inputs: np.ndarray  # real [2*Nc*Ne, nu, nv, nx]
    targets: np.ndarray  # real [2*R*Ne, ou, ov, ox]
    valid: np.ndarray  # bool, same shape as targets

    @property
    def in_channels(self) -> int:
        return self.inputs.shape[0]

    @property
    def out_channels(self) -> int:
        return self.targets.shape[0]


def _decimated_input(problem: ReconProblem) -> np.ndarray:
    """Decimated acquired grid, echoes stacked on the coil axis.

    Only the anchors are gathered: the rectangular-lattice points
    ``(u * s1, v * s2)``, mapped to the acquired frame.
    """
    mask0 = problem.masks[0]
    s1, s2 = steps(mask0)
    n1, n2 = mask0.extents
    if n1 % s1 or n2 % s2:
        raise GeometryError(
            f"pattern extents {mask0.extents} must divide by steps {(s1, s2)}"
        )
    arr = _to_internal(problem.kspace_masked, mask0)
    if arr.ndim == 4:
        arr = arr[:, None]
    per_echo = []
    for e, mask in enumerate(problem.masks):
        i, j = acquired_coords(mask, *np.ogrid[:n1:s1, :n2:s2])
        per_echo.append(arr[:, e, i % n1, j % n2])
    return np.concatenate(per_echo, axis=0)  # [Nc*Ne, nu, nv, nx]


def _combo_targets_per_echo(problem: ReconProblem) -> list[np.ndarray]:
    """y_combo per echo on the full grid, [n1, n2, nx] in (p1, p2, kx) order.

    The ACS box is embedded in an otherwise-zero full grid and combined
    with the full-grid maps, so interior target values agree with the
    full-grid combined k-space; a validity margin at the box edge hides
    the positions whose combination sources fall outside the box.
    """
    mask0 = problem.masks[0]
    x = problem.kspace_masked
    echo = ("echo",) if x.has_axis("echo") else ()
    y = make_combo_target(x.transpose(("coil", *echo, "kx", *mask0.axes)),
                          problem.maps, mask0)
    y = y.transpose((*echo, *mask0.axes, "kx")).data
    return list(y) if echo else [y]


def build_targets(problem: ReconProblem, coil: int | None = None
                  ) -> OffsetTargetSet:
    """Assemble the decimated input and ACS-derived offset targets.

    For the combined modes the target is y_combo (one channel pair per
    cell offset per echo); with ``coil`` given, the target is that coil's
    own ACS k-space (per-coil RAKI). Targets are aligned to the valid-
    convolution output by the receptive-field center; positions whose
    acquired-frame location falls outside the ACS box (or was never
    acquired) are masked out of the loss, and so is the one-sample rim of
    the box for the combined targets.
    """
    return next(_target_sets(problem, None if coil is None else [coil]))


def _target_sets(problem: ReconProblem, coils: list[int] | None):
    """The combined target set (``coils`` None) or one set per coil.

    The input, the scale, the validity mask and the crop do not depend on
    the coil, so the per-coil sets are built from one copy of each and
    share their ``inputs`` and ``valid`` arrays.
    """
    mask0 = problem.masks[0]
    if mask0.acs_box is None:
        raise GeometryError("training requires a mask with an ACS box")
    n_off = len(cell_offsets(mask0))
    ne = problem.n_echoes
    dec = _decimated_input(problem)
    nu, nv, nx = dec.shape[1:]
    mg = 1 if coils is None else 0  # skip combination-truncated box-edge targets
    scale = _acs_scale(problem)

    (b1, l1), (b2, l2) = mask0.acs_box
    if 2 * mg >= l1 or 2 * mg >= l2:
        raise GeometryError(
            f"target margin {mg} leaves no ACS interior in box {mask0.acs_box}"
        )
    box = (slice(b1 + mg, b1 + l1 - mg), slice(b2 + mg, b2 + l2 - mg))
    val = np.zeros((ne, n_off, nu, nv), dtype=bool)
    sources = []  # per echo: (offset, anchor) index of each acquired box position
    for e, mask in enumerate(problem.masks):
        ok = ~mask.never_acquired[box]
        u, v, k = (c[box][ok] for c in lattice_cells(mask))
        idx = (k, u % nu, v % nv)
        val[e][idx] = True
        sources.append((idx, ok))

    any_valid = val.any(axis=(0, 1))
    if not any_valid.any():
        raise GeometryError("no ACS-covered anchor positions for training")
    urange = np.flatnonzero(any_valid.any(axis=1)).tolist()  # python ints
    vrange = np.flatnonzero(any_valid.any(axis=0)).tolist()

    rf = receptive_field(problem.cfg.kernel_sizes)
    c1, c2, cx = ((r - 1) // 2 for r in rf)

    # crop the input so the valid-convolution output covers the ACS anchors
    u0 = max(0, urange[0] - c1)
    u1 = min(nu, urange[-1] + 1 + (rf[0] - 1 - c1))
    v0 = max(0, vrange[0] - c2)
    v1 = min(nv, vrange[-1] + 1 + (rf[1] - 1 - c2))
    ou = (u1 - u0) - rf[0] + 1
    ov = (v1 - v0) - rf[1] + 1
    ox = nx - rf[2] + 1
    if ou < 1 or ov < 1 or ox < 1:
        raise GeometryError(
            f"ACS anchor region {(u1 - u0, v1 - v0, nx)} (decimated) is "
            f"smaller than the receptive field {rf}"
        )
    au, av = u0 + c1, v0 + c2  # first anchor covered by the output

    inputs = _complex_to_channels(dec[:, u0:u1, v0:v1, :] * scale)
    val_c = val[:, :, au : au + ou, av : av + ov]
    valid_k = np.broadcast_to(
        val_c.reshape(ne * n_off, ou, ov, 1), (ne * n_off, ou, ov, ox)
    )
    valid = np.empty((2 * ne * n_off, ou, ov, ox), dtype=bool)
    valid[0::2] = valid_k
    valid[1::2] = valid_k
    if not valid.any():
        raise GeometryError("receptive-field cropping removed every target")

    if coils is None:
        per_target = [_combo_targets_per_echo(problem)]
    else:
        # per-coil RAKI: the target is the coil's own measured k-space
        arr = _to_internal(problem.kspace_masked, mask0)
        per_target = ([arr[c]] for c in coils)
    for combos in per_target:
        tgt = np.zeros((ne, n_off, nu, nv, nx), dtype=np.complex128)
        for e, (idx, ok) in enumerate(sources):
            tgt[e][idx] = combos[min(e, len(combos) - 1)][box][ok]
        tgt_c = tgt[:, :, au : au + ou, av : av + ov, cx : cx + ox] * scale
        targets = _complex_to_channels(tgt_c.reshape(ne * n_off, ou, ov, ox))
        yield OffsetTargetSet(inputs, targets, valid)


def _acs_scale(problem: ReconProblem) -> float:
    """RMS normalization keeps the data loss O(1) against the weight penalty.

    The RMS is taken of |acs| / max|acs| and scaled back, so squaring
    neither overflows nor underflows at any magnitude float64 can hold.
    """
    mag = np.abs(extract_acs(problem.kspace_masked, problem.masks[0]).data)
    peak = float(mag.max())
    if peak == 0:
        raise GeometryError("ACS region is identically zero")
    return 1.0 / (peak * float(np.sqrt(np.mean((mag / peak) ** 2))))


# ---------------------------------------------------------------------------
# training

RIDGE_INIT = 1e-3  # trace-relative ridge for the linear warm start


def _ridge_solution(ts: OffsetTargetSet, cfg: TrainConfig) -> np.ndarray:
    """Ridge fit of a single first-layer-sized linear kernel per channel.

    The remaining layers are treated as centered identities, so the input
    is first cropped by their margins; the resulting weight matrix maps a
    ``kernel_sizes[0]`` window directly onto the stack's output grid.

    The real and imaginary channels of a cell offset share their valid
    rows A, so each pair is one solve with a two-column right-hand side.
    With fewer rows than features the solve takes the dual form
    W = Aᵀ(AAᵀ + λI)⁻¹Y, otherwise the primal (AᵀA + λI)W = AᵀY; both give
    the same W, and λ = RIDGE_INIT·trace(AᵀA)/nfeat in both, since
    trace(AAᵀ) = trace(AᵀA). On the 3-echo joint scene (16x72x72, 54
    outputs, 2160 features against at most 512 rows) this took
    ``linear_init`` from 12.1 s to 0.28 s on a 2-core Xeon.
    """
    k1 = cfg.kernel_sizes[0]
    lo = np.zeros(3, dtype=int)
    for ks in cfg.kernel_sizes[1:]:
        lo += (np.array(ks) - 1) // 2
    x = ts.inputs[
        :,
        lo[0] : ts.inputs.shape[1] - lo[0] or None,
        lo[1] : ts.inputs.shape[2] - lo[1] or None,
        lo[2] : ts.inputs.shape[3] - lo[2] or None,
    ]
    win = np.lib.stride_tricks.sliding_window_view(x, k1, axis=(1, 2, 3))
    ou, ov, ox = win.shape[1:4]
    if (ou, ov, ox) != ts.targets.shape[1:]:
        raise GeometryError(
            f"ridge window grid {(ou, ov, ox)} does not match targets "
            f"{ts.targets.shape[1:]}; kernel centers must be aligned"
        )
    F = win.transpose(1, 2, 3, 0, 4, 5, 6).reshape(ou * ov * ox, -1)
    nfeat = F.shape[1]
    W = np.zeros((ts.out_channels, nfeat))
    for c in range(0, ts.out_channels, 2):  # (re, im) pairs
        sel = ts.valid[c].ravel()
        A = F[sel]
        Y = ts.targets[c : c + 2].reshape(2, -1)[:, sel].T
        dual = A.shape[0] < nfeat
        gram = A @ A.T if dual else A.T @ A
        gram[np.diag_indices_from(gram)] += RIDGE_INIT * np.trace(gram) / nfeat
        if dual:
            W[c : c + 2] = (A.T @ np.linalg.solve(gram, Y)).T
        else:
            W[c : c + 2] = np.linalg.solve(gram, A.T @ Y).T
    return W


def linear_init(ts: OffsetTargetSet, cfg: TrainConfig) -> ModelWeights:
    """Seed the CNN with a calibrated linear kernel (GRAPPA-style warm start).

    The ridge solution W is factorized by SVD and embedded exactly in the
    ReLU stack with paired +/- channels (ReLU(v) - ReLU(-v) = v); later
    layers start as centered identities. Falls back to the random init if
    the hidden widths cannot hold the paired factors.
    """
    model = init_model(ts.in_channels, ts.out_channels, cfg)
    if not cfg.widths:  # degenerate single-layer stack: the kernel is W itself
        W = _ridge_solution(ts, cfg)
        model.layers[0].kernel = W.reshape(
            ts.out_channels, ts.in_channels, *cfg.kernel_sizes[0]
        )
        model.layers[0].bias = np.zeros_like(model.layers[0].bias)
        return model
    r = min(ts.out_channels, min(cfg.widths) // 2)
    if r < 1:
        return model
    W = _ridge_solution(ts, cfg)
    u, s, vt = np.linalg.svd(W, full_matrices=False)
    rs = np.sqrt(s[:r])
    A = u[:, :r] * rs  # [out_ch, r]
    B = rs[:, None] * vt[:r]  # [r, nfeat]
    k1 = cfg.kernel_sizes[0]
    first = np.zeros_like(model.layers[0].kernel)
    first[:r] = B.reshape(r, ts.in_channels, *k1)
    first[r : 2 * r] = -first[:r]
    model.layers[0].kernel = first
    model.layers[0].bias = np.zeros_like(model.layers[0].bias)
    for layer in model.layers[1:-1]:
        kern = np.zeros_like(layer.kernel)
        ctr = tuple((k - 1) // 2 for k in kern.shape[2:])
        for j in range(2 * r):
            kern[(j, j, *ctr)] = 1.0
        layer.kernel = kern
        layer.bias = np.zeros_like(layer.bias)
    last = np.zeros_like(model.layers[-1].kernel)
    last[:, :r, 0, 0, 0] = A
    last[:, r : 2 * r, 0, 0, 0] = -A
    model.layers[-1].kernel = last
    model.layers[-1].bias = np.zeros_like(model.layers[-1].bias)
    return model


def _train_float32(model: ModelWeights, ts: OffsetTargetSet, cfg: TrainConfig):
    """``train`` from the warm start on float32 copies of the inputs and targets.

    Both are O(1) after the ACS scaling; a value beyond float32's range
    becomes inf and ends in ``train``'s NumericalError.
    """
    with np.errstate(over="ignore"):
        x, y = ts.inputs.astype(np.float32), ts.targets.astype(np.float32)
    return train(model, x, y, cfg, valid=ts.valid)


def train_eraki(problem: ReconProblem) -> tuple[ModelWeights, list[float]]:
    """Train the single coil-combined model (eraki / eraki_joint)."""
    if problem.mode == "raki_percoil":
        raise ConfigError("use train_raki for per-coil mode")
    ts = build_targets(problem)
    return _train_float32(linear_init(ts, problem.cfg), ts, problem.cfg)


def train_raki(problem: ReconProblem
               ) -> tuple[list[ModelWeights], list[list[float]]]:
    """One model per coil, each predicting that coil's own offset targets."""
    if problem.mode != "raki_percoil":
        raise ConfigError("train_raki requires mode 'raki_percoil'")
    models, histories = [], []
    for ts in _target_sets(problem, list(range(problem.n_coils))):
        trained, hist = _train_float32(linear_init(ts, problem.cfg), ts,
                                       problem.cfg)
        models.append(trained)
        histories.append(hist)
    return models, histories


# ---------------------------------------------------------------------------
# inference


@dataclass
class ReconResult:
    """Reconstructed k-space plus its magnitude image."""

    kspace: CTensor  # combined (eraki) or per-coil (raki) k-space
    image: CTensor  # magnitude image, echo axis kept when present


def _model_input(problem: ReconProblem, rf: tuple[int, int, int]
                 ) -> tuple[np.ndarray, float]:
    """The scaled real-channel decimated grid, padded for receptive field
    ``rf``, and its scale."""
    scale = _acs_scale(problem)
    c1, c2, cx = ((r - 1) // 2 for r in rf)
    x = _complex_to_channels(_decimated_input(problem) * scale)
    x = np.pad(x, ((0, 0), (c1, rf[0] - 1 - c1), (c2, rf[1] - 1 - c2),
                   (cx, rf[2] - 1 - cx)))
    return x, scale


def _predict_grids(problem: ReconProblem, model: ModelWeights,
                   model_input: tuple[np.ndarray, float] | None = None
                   ) -> np.ndarray:
    """Run the model over the whole decimated grid -> [groups, nu, nv, nx].

    ``model_input`` is ``_model_input(problem, model.receptive_field)``,
    made once where several models share it.
    """
    x, scale = model_input or _model_input(problem, model.receptive_field)
    return _channels_to_complex(predict(model, x)) / scale


def _scatter_echo(pred: np.ndarray, mask: SamplingMask) -> np.ndarray:
    """Offset predictions [n_off, nu, nv, nx] -> full grid, by (offset, anchor)."""
    nu, nv = pred.shape[1:3]
    u, v, k = lattice_cells(mask)
    out = pred[k, u % nu, v % nv]
    out[mask.never_acquired] = 0.0
    return out


def infer(models: ModelWeights | list[ModelWeights],
          problem: ReconProblem) -> ReconResult:
    """Apply trained weights across the full undersampled grid.

    Only per-coil RAKI has hard data consistency: it restores the acquired
    coil samples exactly, then combines with the full-grid maps. The
    combined modes return their k-space as predicted, acquired positions
    included: no data consistency is defined on the combined grid.
    """
    mask0 = problem.masks[0]
    p1l, p2l = mask0.axes
    fourier = tuple(a for a in ("kx", p1l, p2l) if a != "t")
    n_off = len(cell_offsets(mask0))
    ne = problem.n_echoes

    if problem.mode == "raki_percoil":
        model_list = list(models) if isinstance(models, (list, tuple)) else [models]
        if len(model_list) != problem.n_coils:
            raise GeometryError(
                f"{problem.n_coils} coils need as many models, got {len(model_list)}"
            )
        acq = _to_internal(problem.kspace_masked, mask0)  # [coil, p1, p2, kx]
        out = np.empty((problem.n_coils, acq.shape[-1], *mask0.extents),
                       dtype=np.complex128)  # [coil, kx, p1, p2]
        shared = _model_input(problem, model_list[0].receptive_field)
        for c, model in enumerate(model_list):
            pred = _predict_grids(problem, model, shared)  # [n_off, nu, nv, nx]
            out[c] = _scatter_echo(pred, mask0).transpose(2, 0, 1)
        out[:, :, mask0.grid] = np.moveaxis(acq, -1, 1)[:, :, mask0.grid]
        ksp = CTensor(out, ("coil", "kx", p1l, p2l))
        ksp = ksp.transpose(problem.kspace_masked.axes)
        if problem.maps is None:
            raise ConfigError("raki_percoil image needs full-grid maps")
        img = coil_combine(ksp, problem.maps, fourier)
        image = img.with_data(np.abs(img.data))
        return ReconResult(ksp, image)

    model = models[0] if isinstance(models, (list, tuple)) else models
    pred = _predict_grids(problem, model)  # [ne*n_off, nu, nv, nx]
    per_echo = [
        _scatter_echo(pred[e * n_off : (e + 1) * n_off], problem.masks[e])
        for e in range(ne)
    ]
    combined = np.stack(per_echo)  # [echo, p1, p2, kx]
    ksp = CTensor(combined.transpose(0, 3, 1, 2), ("echo", "kx", p1l, p2l))
    img = ifftc(ksp, fourier)
    image = img.with_data(np.abs(img.data))
    if not problem.kspace_masked.has_axis("echo"):
        ksp = CTensor(ksp.data[0], ("kx", p1l, p2l))
        image = CTensor(image.data[0], ("kx", p1l, p2l))
    return ReconResult(ksp, image)


def zerofill_recon(problem: ReconProblem) -> ReconResult:
    """Zero-filled baseline: combine the masked k-space with full-grid maps."""
    if problem.maps is None:
        raise ConfigError("zero-filled combination needs full-grid maps")
    fourier = tuple(a for a in ("kx", *problem.masks[0].axes) if a != "t")
    comb = coil_combine(problem.kspace_masked, problem.maps, fourier)
    image = comb.with_data(np.abs(comb.data))
    ksp = fftc(comb, fourier)
    return ReconResult(ksp, image)
