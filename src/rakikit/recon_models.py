"""Learned k-space reconstructions: per-coil RAKI and coil-combined
single-model reconstruction, with multi-echo joint and ky-t variants.

All learned modes share one geometry, owned by :mod:`rakikit.sampling`:
each grid position is an anchor of the acquired lattice plus a cell offset
(``lattice_cells``, ky-t included). The anchors form a dense decimated grid
of real/imaginary channels, and a small 3D CNN predicts one channel pair per
cell offset (2R per echo). The model trains and runs on the whole decimated
grid; only targets from the ACS region are valid in training, and each grid
position takes the prediction at its (offset, anchor). K-space keeps the
working order of ``sampling.internal_view``; the network's [channel, nu, nv,
nx] grid is entered only in ``_decimated_input`` and left only through
``_column_sources``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, GeometryError
from .espirit import SensitivityMaps, coil_combine, make_combo_target
from .nn_engine import (ConvLayer, ModelWeights, TrainConfig, branch_offset,
                        init_model, predict_columns, receptive_field, train)
from .sampling import (SamplingMask, acquired_coords, cell_offsets, extract_acs,
                       internal_view, lattice_cells, steps)
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
        ne, first = self.n_echoes, next(iter(self.masks), None)
        if first is None or tuple(self.masks) != echo_shifted_masks(first, ne):
            raise GeometryError(f"{ne} echoes need the {ne} echo shifts of "
                                f"the first mask, {first}")
        extents = tuple(self.kspace_masked.extent(a) for a in first.axes)
        if first.extents != extents:
            raise GeometryError(f"k-space {first.axes} extents {extents} differ "
                                f"from the mask's {first.extents}")
        if self.mode == "raki_percoil" and self.kspace_masked.has_axis("echo"):
            raise ConfigError("per-coil RAKI supports a single echo, without "
                              "an echo axis")
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
    return tuple(replace(mask, shift=(mask.shift + e) % mask.r2)
                 for e in range(n_echo))


def _complex_to_channels(arr: np.ndarray) -> np.ndarray:
    """[c, ...] complex -> [2c, ...] real, (re, im) interleaved per channel."""
    out = np.empty((2 * arr.shape[0], *arr.shape[1:]))
    out[0::2] = arr.real
    out[1::2] = arr.imag
    return out


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
    """Decimated acquired grid [Nc*Ne, nu, nv, nx], echoes stacked on the
    coil axis.

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
    arr = internal_view(problem.kspace_masked, mask0)
    if arr.ndim == 4:
        arr = arr[:, None]
    per_echo = []
    for e, mask in enumerate(problem.masks):
        i, j = acquired_coords(mask, *np.ogrid[:n1:s1, :n2:s2])
        per_echo.append(arr[:, e][:, :, i % n1, j % n2])  # [Nc, nx, nu, nv]
    return np.moveaxis(np.concatenate(per_echo), 1, -1)  # [Nc*Ne, nu, nv, nx]


def _combo_targets_per_echo(problem: ReconProblem) -> list[np.ndarray]:
    """y_combo per echo on the full grid, [kx, n1, n2] each.

    The ACS box is embedded in an otherwise-zero full grid and combined
    with the full-grid maps, so interior target values agree with the
    full-grid combined k-space; a validity margin at the box edge hides
    the positions whose combination sources fall outside the box.
    """
    mask0 = problem.masks[0]
    x = problem.kspace_masked
    echo = ("echo",) if x.has_axis("echo") else ()
    y = make_combo_target(x.transpose(("coil", *echo, "kx", *mask0.axes)),
                          problem.maps, mask0).data
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

    ``inputs`` is the whole scaled decimated grid. ``targets`` and
    ``valid`` live on its valid-convolution output, each position holding
    the anchor at its receptive-field center; ``valid`` alone marks the
    ACS. The input, the scale and the validity mask do not depend on the
    coil, so the per-coil sets are built from one copy of each and share
    their ``inputs`` and ``valid`` arrays.
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
    rf = receptive_field(problem.cfg.kernel_sizes)
    ou, ov, ox = nu - rf[0] + 1, nv - rf[1] + 1, nx - rf[2] + 1
    if ou < 1 or ov < 1 or ox < 1:
        raise GeometryError(
            f"decimated grid {(nu, nv, nx)} is smaller than the receptive "
            f"field {rf}"
        )
    c1, c2, cx = ((r - 1) // 2 for r in rf)

    box = (slice(b1 + mg, b1 + l1 - mg), slice(b2 + mg, b2 + l2 - mg))
    val = np.zeros((ne, n_off, nu, nv), dtype=bool)
    sources = []  # per echo: (offset, anchor) index of each acquired box position
    for e, mask in enumerate(problem.masks):
        ok = ~mask.never_acquired[box]
        u, v, k = (c[box][ok] for c in lattice_cells(mask))
        idx = (k, u % nu, v % nv)
        val[e][idx] = True
        sources.append((idx, ok))

    valid = np.empty((2 * ne * n_off, ou, ov, ox), dtype=bool)
    # output position (i, j) holds anchor (c1 + i, c2 + j), for every readout
    valid[0::2] = valid[1::2] = val[:, :, c1 : c1 + ou, c2 : c2 + ov].reshape(
        ne * n_off, ou, ov, 1)
    if not valid.any():
        raise GeometryError(
            f"no ACS target is left once the margins of receptive field "
            f"{rf} are taken off the decimated grid {(nu, nv, nx)}"
        )
    inputs = _complex_to_channels(dec * scale)

    if coils is None:
        per_target = [_combo_targets_per_echo(problem)]
    else:
        # per-coil RAKI: the target is the coil's own measured k-space
        arr = internal_view(problem.kspace_masked, mask0)
        per_target = ([arr[c]] for c in coils)
    for combos in per_target:
        tgt = np.zeros((ne, n_off, nu, nv, nx), dtype=np.complex128)
        for e, (idx, ok) in enumerate(sources):
            tgt[e][idx] = combos[e][(slice(None), *box)][:, ok].T
        tgt_c = tgt[:, :, c1 : c1 + ou, c2 : c2 + ov, cx : cx + ox] * scale
        targets = _complex_to_channels(tgt_c.reshape(ne * n_off, ou, ov, ox))
        yield OffsetTargetSet(inputs, targets, valid)


def _acs_scale(problem: ReconProblem) -> float:
    """RMS normalization keeps the data loss O(1) against the weight penalty.

    The RMS is taken of |acs| / max|acs| and scaled back, so squaring
    neither overflows nor underflows at any magnitude float64 can hold. The
    sum runs in the working order, so it is the same in any axis order.
    """
    acs = extract_acs(problem.kspace_masked, problem.masks[0])
    mag = np.abs(np.ascontiguousarray(internal_view(acs, problem.masks[0])))
    peak = float(mag.max())
    if peak == 0:
        raise GeometryError("ACS region is identically zero")
    return 1.0 / (peak * float(np.sqrt(np.mean((mag / peak) ** 2))))


# ---------------------------------------------------------------------------
# training

RIDGE_INIT = 1e-3  # trace-relative ridge for the linear warm start


def _ridge_solutions(sets: list[OffsetTargetSet], cfg: TrainConfig
                     ) -> np.ndarray:
    """Ridge fit of a single first-layer-sized linear kernel per channel of
    every set: [set, out channel, feature].

    Output position p reads the ``kernel_sizes[0]`` window at p plus
    ``branch_offset``, as the model's linear branch does. The windows are
    gathered, in grid order, only where some channel is valid.

    The sets must hold equal ``inputs`` and ``valid``, as the per-coil sets
    of ``_target_sets`` do, so they share the gathered rows and Gram
    matrices (``_ridge_fit``).
    """
    ts = sets[0]
    lo = branch_offset(cfg.kernel_sizes)
    win = np.lib.stride_tricks.sliding_window_view(
        ts.inputs, cfg.kernel_sizes[0], axis=(1, 2, 3))
    pos = np.nonzero(ts.valid.any(0))
    F = win[:, pos[0] + lo[0], pos[1] + lo[1], pos[2] + lo[2]]
    F = F.swapaxes(0, 1).reshape(len(pos[0]), -1)  # [position, feature]
    T = np.stack([s.targets[:, pos[0], pos[1], pos[2]] for s in sets])
    return _ridge_fit(F, T, ts.valid[:, pos[0], pos[1], pos[2]])


def _ridge_fit(F: np.ndarray, T: np.ndarray, V: np.ndarray) -> np.ndarray:
    """W [set, channel, feature] of the ridge of targets T [set, channel,
    position] on the feature rows F [position, feature], each channel on
    its valid rows V [channel, position].

    Each (re, im) channel pair shares its valid rows A and is one solve
    whose right-hand sides are every set's two target columns. With fewer
    positions than features, every pair takes the dual form
    W = Aᵀ(AAᵀ + λI)⁻¹Y: AAᵀ is sliced from the Gram FFᵀ of all positions,
    computed once, and W is one product of Fᵀ with the pairs' dual
    solutions, zero off their rows. Otherwise each pair solves the primal
    (AᵀA + λI)W = AᵀY. Both give the same W, and λ =
    RIDGE_INIT·trace(AᵀA)/nfeat in both, since trace(AAᵀ) = trace(AᵀA).
    On the 3-echo joint scene (16x72x72, 54 outputs, 2160 features against
    944 positions) the dual form took ``linear_init`` from 12.1 s to
    0.28 s on a 2-core Xeon, and slicing the one Gram took this solve from
    0.33 s to 0.16 s.
    """
    n_pos, nfeat = F.shape
    n_sets, n_out = T.shape[:2]

    def ridged(gram):
        gram[np.diag_indices_from(gram)] += RIDGE_INIT * np.trace(gram) / nfeat
        return gram

    dual = n_pos < nfeat
    K = F @ F.T if dual else None
    Z = np.zeros((n_pos, n_sets, n_out))  # dual solutions, zero off their rows
    W = np.zeros((n_sets, n_out, nfeat))
    for c in range(0, n_out, 2):  # (re, im) pairs
        r = V[c]
        Y = T[:, c : c + 2, r].reshape(2 * n_sets, -1).T  # [row, 2 * set]
        if dual:
            Z[r, :, c : c + 2] = np.linalg.solve(
                ridged(K[np.ix_(r, r)]), Y).reshape(-1, n_sets, 2)
        else:
            A = F[r]
            W[:, c : c + 2] = np.linalg.solve(ridged(A.T @ A), A.T @ Y).T.reshape(
                n_sets, 2, nfeat)
    if dual:
        W = (F.T @ Z.reshape(n_pos, -1)).T.reshape(n_sets, n_out, nfeat)
    return W


def linear_init(ts: OffsetTargetSet, cfg: TrainConfig,
                W: np.ndarray | None = None) -> ModelWeights:
    """Seed the model with a calibrated linear kernel (GRAPPA-style warm start).

    The ridge solution W of ``ts`` (solved here unless given) becomes the
    model's fixed linear branch and the stack's last layer starts at zero,
    so the untrained model predicts exactly what W does, and training fits
    the stack to the residual W leaves (Residual RAKI, Zhang et al.,
    NeuroImage 2022).
    """
    if W is None:
        (W,) = _ridge_solutions([ts], cfg)
    model = init_model(ts.in_channels, ts.out_channels, cfg)
    model.layers[-1].kernel[...] = 0.0  # init_model's biases are zero
    shape = (ts.out_channels, *model.layers[0].kernel.shape[1:])
    linear = ConvLayer(W.reshape(shape), np.zeros(shape[0]), relu=False)
    return ModelWeights(model.layers, linear)


def _train(problem: ReconProblem, coils: list[int] | None
           ) -> tuple[list[ModelWeights], list[list[float]]]:
    """One model per target set: the combined set (``coils`` None), or one
    set per coil.

    The sets share their input and validity mask, so the ridge warm start
    is solved once for all of them (``_ridge_solutions``: one solve per
    (re, im) pair, whatever the set count) and each set's ``linear_init``
    takes its slice of W. ``train`` gets float32 copies of the inputs, cast
    once for all sets, and of each set's targets: both are O(1) after the
    ACS scaling, and a value beyond float32's range becomes inf and ends in
    its NumericalError.
    """
    cfg = problem.cfg
    sets = list(_target_sets(problem, coils))
    trained = []
    with np.errstate(over="ignore"):
        x = sets[0].inputs.astype(np.float32)  # shared by every set
    for ts, W in zip(sets, _ridge_solutions(sets, cfg)):
        with np.errstate(over="ignore"):
            y = ts.targets.astype(np.float32)
        trained.append(train(linear_init(ts, cfg, W), x, y, cfg, valid=ts.valid))
    return [m for m, _ in trained], [h for _, h in trained]


def train_eraki(problem: ReconProblem) -> tuple[ModelWeights, list[float]]:
    """Train the single coil-combined model (eraki / eraki_joint)."""
    if problem.mode == "raki_percoil":
        raise ConfigError("use train_raki for per-coil mode")
    (model,), (history,) = _train(problem, None)
    return model, history


def train_raki(problem: ReconProblem
               ) -> tuple[list[ModelWeights], list[list[float]]]:
    """One model per coil, each predicting that coil's own offset targets."""
    if problem.mode != "raki_percoil":
        raise ConfigError("train_raki requires mode 'raki_percoil'")
    return _train(problem, list(range(problem.n_coils)))


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


def _column_sources(mask: SamplingMask, nu: int, nv: int):
    """The grid positions that take a prediction through ``mask``, sorted by
    the decimated column that holds it: (column, cell offset, p1, p2).

    Position (p1, p2) takes offset k's prediction at anchor (u, v) of
    ``lattice_cells``, which is column u·nv + v of the [nu, nv] grid;
    never-acquired positions take none.
    """
    u, v, k = lattice_cells(mask)
    p1, p2 = np.nonzero(~mask.never_acquired)
    col = (u[p1, p2] % nu) * nv + v[p1, p2] % nv
    order = np.argsort(col, kind="stable")
    return col[order], k[p1, p2][order], p1[order], p2[order]


def infer(models: ModelWeights | list[ModelWeights],
          problem: ReconProblem) -> ReconResult:
    """Apply trained weights across the full undersampled grid.

    Every model runs over the whole decimated grid, block by block of
    (nu, nv) columns; each block's layer-0 columns are unfolded once for
    all models (``predict_columns``). A model's complex prediction splits
    into groups of one channel per cell offset, and each block of group e
    is scattered straight to the grid positions whose anchor it holds,
    through echo e's mask, so no whole-grid prediction is held beside the
    output. Per-coil RAKI has one model per coil and one echo, so the
    groups stack as [coil, ...]; the combined modes have one model and
    stack its echoes as [echo, ...].

    Only per-coil RAKI has hard data consistency: it restores the acquired
    coil samples exactly, then combines with the full-grid maps. The
    combined modes return their k-space as predicted, acquired positions
    included: no data consistency is defined on the combined grid.
    """
    mask0 = problem.masks[0]
    p1l, p2l = mask0.axes
    fourier = mask0.fourier_axes
    n_off = len(cell_offsets(mask0))
    ne = problem.n_echoes
    percoil = problem.mode == "raki_percoil"
    model_list = list(models) if isinstance(models, (list, tuple)) else [models]
    n_models = problem.n_coils if percoil else 1
    if len(model_list) != n_models:
        raise GeometryError(
            f"mode {problem.mode!r} needs {n_models} model(s) for "
            f"{problem.n_coils} coils, got {len(model_list)}"
        )
    if percoil and problem.maps is None:
        raise ConfigError("raki_percoil image needs full-grid maps")

    acq = internal_view(problem.kspace_masked, mask0)  # [coil, (echo,) kx, p1, p2]
    # never-acquired positions stay zero
    out = np.zeros((n_models * ne, *acq.shape[-3:]), dtype=np.complex128)
    rf = model_list[0].receptive_field
    x, scale = _model_input(problem, rf)
    nu, nv = (n - r + 1 for n, r in zip(x.shape[1:3], rf))
    sources = [_column_sources(mask, nu, nv) for mask in problem.masks]
    for block, preds in predict_columns(model_list, x):  # [2 n_off ne, column, nx]
        for e, (col, k, p1, p2) in enumerate(sources):
            a, b = np.searchsorted(col, (block.start, block.stop))
            j, ch = col[a:b] - block.start, 2 * (e * n_off + k[a:b])
            for m, y in enumerate(preds):
                out[m * ne + e][:, p1[a:b], p2[a:b]] = (
                    (y[ch, j] + 1j * y[ch + 1, j]) / scale).T

    if percoil:
        out[:, :, mask0.grid] = acq[:, :, mask0.grid]
        ksp = CTensor(out, ("coil", "kx", p1l, p2l))
        ksp = ksp.transpose(problem.kspace_masked.axes)
        img = coil_combine(ksp, problem.maps, fourier)
        return ReconResult(ksp, img.with_data(np.abs(img.data)))
    ksp = CTensor(out, ("echo", "kx", p1l, p2l))
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
    fourier = problem.masks[0].fourier_axes
    comb = coil_combine(problem.kspace_masked, problem.maps, fourier)
    image = comb.with_data(np.abs(comb.data))
    ksp = fftc(comb, fourier)
    return ReconResult(ksp, image)
