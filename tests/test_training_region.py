"""One training region: the learned models train on the whole decimated grid.

The target sets once cropped the decimated input to the bounding box of
the ACS anchors plus the receptive field's margins, and the ridge warm
start windowed that whole crop before keeping its valid rows. Both are
kept here as references; the reference ridge hands its rows to the
library's solve (``_ridge_fit``), which ``tests/test_coil_shared_work.py``
holds to the per-pair solve. Training on the uncropped grid, with the ridge
gathering only its valid positions, must give the same ridge W and the
same trained weights and loss histories, bit for bit (``np.array_equal``),
over the named uniform, elliptical, joint and ky-t patterns.
"""

from dataclasses import replace

import numpy as np
import pytest

from rakikit import GeometryError, build_targets, train, train_eraki, train_raki
from rakikit import recon_models
from rakikit.nn_engine import receptive_field
from rakikit.recon_models import (OffsetTargetSet, _acs_scale,
                                  _combo_targets_per_echo, _complex_to_channels,
                                  _decimated_input, _ridge_solutions,
                                  linear_init)
from rakikit.sampling import cell_offsets, internal_view, lattice_cells

from test_lattice_map import CFG, N_COILS, NAMED, named_masks, problem_of

DEEP = replace(CFG, iterations=3, widths=(8, 8),
               kernel_sizes=((3, 3, 3), (1, 1, 3), (1, 1, 1)))
SINGLE_LAYER = replace(CFG, iterations=3, widths=(), kernel_sizes=((1, 1, 3),))
CONFIGS = {"deep": DEEP, "single-layer": SINGLE_LAYER}


def cropped_target_sets(problem, coils):
    """The target sets on the input cropped to the ACS anchors' bounding box
    plus the receptive field's margins."""
    mask0 = problem.masks[0]
    n_off = len(cell_offsets(mask0))
    ne = problem.n_echoes
    dec = _decimated_input(problem)
    nu, nv, nx = dec.shape[1:]
    mg = 1 if coils is None else 0
    scale = _acs_scale(problem)

    (b1, l1), (b2, l2) = mask0.acs_box
    box = (slice(b1 + mg, b1 + l1 - mg), slice(b2 + mg, b2 + l2 - mg))
    val = np.zeros((ne, n_off, nu, nv), dtype=bool)
    sources = []
    for e, mask in enumerate(problem.masks):
        ok = ~mask.never_acquired[box]
        u, v, k = (c[box][ok] for c in lattice_cells(mask))
        idx = (k, u % nu, v % nv)
        val[e][idx] = True
        sources.append((idx, ok))

    any_valid = val.any(axis=(0, 1))
    if not any_valid.any():
        raise GeometryError("no ACS-covered anchor positions for training")
    urange = np.flatnonzero(any_valid.any(axis=1)).tolist()
    vrange = np.flatnonzero(any_valid.any(axis=0)).tolist()

    rf = receptive_field(problem.cfg.kernel_sizes)
    c1, c2, cx = ((r - 1) // 2 for r in rf)
    u0 = max(0, urange[0] - c1)
    u1 = min(nu, urange[-1] + 1 + (rf[0] - 1 - c1))
    v0 = max(0, vrange[0] - c2)
    v1 = min(nv, vrange[-1] + 1 + (rf[1] - 1 - c2))
    ou = (u1 - u0) - rf[0] + 1
    ov = (v1 - v0) - rf[1] + 1
    ox = nx - rf[2] + 1
    if ou < 1 or ov < 1 or ox < 1:
        raise GeometryError("ACS anchor region smaller than the receptive field")
    au, av = u0 + c1, v0 + c2

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
        arr = internal_view(problem.kspace_masked, mask0)
        per_target = [[arr[c]] for c in coils]
    out = []
    for combos in per_target:
        tgt = np.zeros((ne, n_off, nu, nv, nx), dtype=np.complex128)
        for e, (idx, ok) in enumerate(sources):
            tgt[e][idx] = combos[e][(slice(None), *box)][:, ok].T
        tgt_c = tgt[:, :, au : au + ou, av : av + ov, cx : cx + ox] * scale
        targets = _complex_to_channels(tgt_c.reshape(ne * n_off, ou, ov, ox))
        out.append(OffsetTargetSet(inputs, targets, valid))
    return out


def windowed_ridge(ts, cfg):
    """The ridge over every window of the margin-cropped input, the rows
    where some channel is valid kept and solved as the library solves them."""
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
    assert (ou, ov, ox) == ts.targets.shape[1:]
    F = win.transpose(1, 2, 3, 0, 4, 5, 6).reshape(ou * ov * ox, -1)
    V = ts.valid.reshape(ts.out_channels, -1)
    keep = V.any(0)
    T = ts.targets.reshape(ts.out_channels, -1)[None, :, keep]
    return recon_models._ridge_fit(F[keep], T, V[:, keep])[0]


def reference_training(problem, coils, monkeypatch):
    """(model, history) per target set, trained on the cropped sets with the
    windowed ridge as the warm start."""
    cfg = problem.cfg
    with monkeypatch.context() as m:
        m.setattr(recon_models, "_ridge_solutions",
                  lambda sets, c: np.stack([windowed_ridge(ts, c) for ts in sets]))
        return [train(linear_init(ts, cfg), ts.inputs.astype(np.float32),
                      ts.targets.astype(np.float32), cfg, valid=ts.valid)
                for ts in cropped_target_sets(problem, coils)]


def assert_same_training(got, want):
    (model, history), (ref_model, ref_history) = got, want
    assert history == ref_history
    for layer, ref in zip([*model.layers, model.linear],
                          [*ref_model.layers, ref_model.linear], strict=True):
        assert np.array_equal(layer.kernel, ref.kernel)
        assert np.array_equal(layer.bias, ref.bias)


def named_problem(kind, mode, cfg):
    return replace(problem_of(named_masks(kind), mode, 1), cfg=cfg)


SINGLE_ECHO = [k for k in NAMED if k != "joint"]  # per-coil RAKI's patterns


@pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS)
class TestUncroppedTraining:
    @pytest.mark.parametrize("kind", NAMED)
    def test_eraki_ridge_and_weights_match_crop(self, kind, cfg, monkeypatch):
        p = named_problem(kind, "eraki", cfg)
        ts = build_targets(p)
        rf = receptive_field(cfg.kernel_sizes)
        grid = _decimated_input(p).shape[1:]
        assert ts.inputs.shape[1:] == grid
        assert ts.valid.shape[1:] == tuple(n - r + 1 for n, r in zip(grid, rf))
        (ref,) = cropped_target_sets(p, None)
        assert np.array_equal(_ridge_solutions([ts], cfg)[0],
                              windowed_ridge(ref, cfg))
        (want,) = reference_training(p, None, monkeypatch)
        assert_same_training(train_eraki(p), want)

    @pytest.mark.parametrize("kind", SINGLE_ECHO)
    def test_raki_ridge_and_weights_match_crop(self, kind, cfg, monkeypatch):
        p = named_problem(kind, "raki_percoil", cfg)
        coils = list(range(N_COILS))
        refs = cropped_target_sets(p, coils)
        for c, ref in zip(coils, refs, strict=True):
            assert np.array_equal(_ridge_solutions([build_targets(p, c)], cfg)[0],
                                  windowed_ridge(ref, cfg))
        want = reference_training(p, coils, monkeypatch)
        models, histories = train_raki(p)
        for got, ref in zip(zip(models, histories), want, strict=True):
            assert_same_training(got, ref)
