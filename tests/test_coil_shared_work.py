"""Per-coil RAKI does its coil-independent work once.

The coils' target sets share their input and validity mask, so the ridge
warm start is one solve per (re, im) pair for all coils, and inference
unfolds each block of layer-0 columns once for all models. Training keeps
its weights in one flat vector and steps Adam in place. Each is compared
with the formula it replaced, kept here as the reference: the per-coil
ridge and training to rounding, the per-array Adam loop and the whole-grid
scatter bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from rakikit import (CTensor, TrainConfig, build_targets, infer,
                     init_model, linear_init, train, train_eraki, train_raki)
from rakikit import nn_engine, recon_models
from rakikit.nn_engine import (_as_batch, _columns_of, _flat_first, _in_dtype,
                               _inside, _layer0_columns, _out_extents,
                               backward)
from rakikit.recon_models import _model_input, _ridge_solutions, _target_sets
from rakikit.sampling import cell_offsets, internal_view

from test_lattice_map import NAMED, named_masks, problem_of, scatter_reference

CFG = TrainConfig(iterations=20, widths=(8, 8), seed=3,
                  kernel_sizes=((3, 3, 3), (1, 1, 3), (1, 1, 1)))
SINGLE_ECHO = [k for k in NAMED if k != "joint"]  # per-coil RAKI's patterns


def named_problem(kind, mode, cfg=CFG):
    return replace(problem_of(named_masks(kind), mode, 1), cfg=cfg)


def with_coils(problem, n):
    """The problem on its first ``n`` coils."""
    k = problem.kspace_masked
    return replace(problem, kspace_masked=CTensor(k.data[:n], k.axes))


def rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


# ---------------------------------------------------------------------------
# one ridge solve per channel pair


def per_pair_ridge(F, T, V):
    """Each (re, im) pair's ridge from the Gram of its own valid rows A:
    the dual AAᵀ when A has fewer rows than features, else the primal."""
    n_sets, n_out = T.shape[:2]
    nfeat = F.shape[1]
    W = np.zeros((n_sets, n_out, nfeat))
    for c in range(0, n_out, 2):
        A = F[V[c]]
        Y = T[:, c : c + 2, V[c]].reshape(2 * n_sets, -1).T
        dual = A.shape[0] < nfeat
        gram = A @ A.T if dual else A.T @ A
        gram[np.diag_indices_from(gram)] += (recon_models.RIDGE_INIT
                                             * np.trace(gram) / nfeat)
        if dual:
            X = A.T @ np.linalg.solve(gram, Y)
        else:
            X = np.linalg.solve(gram, A.T @ Y)
        W[:, c : c + 2] = X.T.reshape(n_sets, 2, nfeat)
    return W


@pytest.mark.parametrize("n_pos,nfeat", [
    (60, 100),  # dual: every pair's Gram sliced from the one FF^T
    (150, 40),  # primal
    (120, 100),  # primal, though some pairs have fewer rows than features
])
def test_ridge_fit_matches_per_pair_solve(n_pos, nfeat):
    rng = np.random.default_rng(n_pos)
    F = rng.standard_normal((n_pos, nfeat))
    T = rng.standard_normal((3, 8, n_pos))
    V = np.repeat(rng.random((4, n_pos)) < 0.8, 2, axis=0)
    assert rel(recon_models._ridge_fit(F, T, V), per_pair_ridge(F, T, V)) <= 1e-12


@pytest.mark.parametrize("kind", NAMED)
def test_eraki_ridge_matches_per_pair_solve(kind, monkeypatch):
    ts = build_targets(named_problem(kind, "eraki"))
    W = _ridge_solutions([ts], CFG)
    monkeypatch.setattr(recon_models, "_ridge_fit", per_pair_ridge)
    assert rel(W, _ridge_solutions([ts], CFG)) <= 1e-12


@pytest.mark.parametrize("kind", SINGLE_ECHO)
class TestSharedRidge:
    def test_shared_solve_matches_per_coil(self, kind):
        p = named_problem(kind, "raki_percoil")
        sets = list(_target_sets(p, list(range(p.n_coils))))
        shared = _ridge_solutions(sets, CFG)
        assert shared.shape[0] == p.n_coils
        for c, W in enumerate(shared):
            assert rel(W, _ridge_solutions([build_targets(p, c)], CFG)[0]) <= 1e-12

    def test_shared_gram_matches_per_pair_solve(self, kind, monkeypatch):
        p = named_problem(kind, "raki_percoil")
        sets = list(_target_sets(p, list(range(p.n_coils))))
        shared = _ridge_solutions(sets, CFG)
        monkeypatch.setattr(recon_models, "_ridge_fit", per_pair_ridge)
        assert rel(shared, _ridge_solutions(sets, CFG)) <= 1e-12

    def test_training_matches_per_coil(self, kind):
        p = named_problem(kind, "raki_percoil")
        models, histories = train_raki(p)
        assert len(models) == p.n_coils
        for c, hist in enumerate(histories):
            ts = build_targets(p, c)
            _, want = train(linear_init(ts, CFG), ts.inputs.astype(np.float32),
                            ts.targets.astype(np.float32), CFG, valid=ts.valid)
            assert len(hist) == CFG.iterations
            assert rel(np.array(hist), np.array(want)) <= 1e-5

    def test_one_solve_per_pair_for_any_coil_count(self, kind, monkeypatch):
        solve = np.linalg.solve
        calls = []
        monkeypatch.setattr(np.linalg, "solve",
                            lambda *a: calls.append(1) or solve(*a))
        cfg = replace(CFG, iterations=1)
        full = named_problem(kind, "raki_percoil", cfg)
        pairs = len(cell_offsets(full.masks[0]))
        for n in range(1, full.n_coils + 1):
            calls.clear()
            train_raki(with_coils(full, n))
            assert len(calls) == pairs

    def test_narrow_widths_solve_once_and_warm_start_from_the_ridge(
            self, kind, monkeypatch):
        """Widths (1, 8) take the ridge warm start like any others: one
        solve per pair, and each coil's linear branch is its slice of W."""
        solve = np.linalg.solve
        calls = []
        monkeypatch.setattr(np.linalg, "solve",
                            lambda *a: calls.append(1) or solve(*a))
        cfg = replace(CFG, iterations=1, widths=(1, 8))
        p = named_problem(kind, "raki_percoil", cfg)
        models, _ = train_raki(p)
        assert len(calls) == len(cell_offsets(p.masks[0]))
        ridge = _ridge_solutions(list(_target_sets(p, list(range(p.n_coils)))), cfg)
        for model, W in zip(models, ridge, strict=True):
            assert rel(model.linear.kernel.reshape(W.shape), W) <= 1e-12

    def test_no_solve_when_the_warm_start_is_random(self, kind, monkeypatch):
        """The ridge is solved by the warm start alone: ``train`` from a
        random ``init_model`` solves nothing and adds no linear branch."""
        monkeypatch.setattr(recon_models, "_ridge_solutions",
                            lambda *a: pytest.fail("ridge solved"))
        monkeypatch.setattr(np.linalg, "solve",
                            lambda *a: pytest.fail("solve called"))
        cfg = replace(CFG, iterations=1, widths=(1, 8))
        p = named_problem(kind, "raki_percoil", cfg)
        for c in range(p.n_coils):
            ts = build_targets(p, c)
            model, hist = train(init_model(ts.in_channels, ts.out_channels, cfg),
                                ts.inputs.astype(np.float32),
                                ts.targets.astype(np.float32), cfg,
                                valid=ts.valid)
            assert model.linear is None
            assert len(hist) == cfg.iterations


@pytest.mark.parametrize("kind", NAMED)
def test_eraki_one_solve_per_pair(kind, monkeypatch):
    """The combined model takes the same path: one solve per (re, im) pair
    of its one target set, every echo's offsets included."""
    solve = np.linalg.solve
    calls = []
    monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(1) or solve(*a))
    p = named_problem(kind, "eraki", replace(CFG, iterations=1))
    train_eraki(p)
    assert len(calls) == len(cell_offsets(p.masks[0])) * p.n_echoes


# ---------------------------------------------------------------------------
# the flat, in-place Adam step


def train_per_array(model, x, target, cfg, valid):
    """``train`` as it was with one Adam update per kernel and bias array."""
    h, single = _as_batch(model, x)
    rf = model.receptive_field
    out = _out_extents(h, rf)
    shape = (h.shape[1], model.out_channels, *out)
    kshape = model.layers[0].kernel.shape
    target = _inside(np.asarray(target).astype(h.dtype), single)
    model = _in_dtype(_flat_first(model), h.dtype)
    valid = _inside(np.broadcast_to(valid, shape), single)
    idx = np.nonzero(valid.any(axis=(0, 4)))
    cols = _layer0_columns(h, idx, kshape[2:], rf).swapaxes(0, 1)
    target, valid = _columns_of(target, idx), _columns_of(valid, idx)
    params = [p for layer in model.layers for p in (layer.kernel, layer.bias)]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    history = []
    b1, b2, eps = nn_engine.ADAM_BETA1, nn_engine.ADAM_BETA2, nn_engine.ADAM_EPS
    lr = cfg.learning_rate
    for step in range(1, cfg.iterations + 1):
        value, grads = backward(model, cols, target, cfg.alpha, cfg.beta,
                                valid=valid, squared_l2=cfg.squared_l2)
        history.append(value)
        flat = [g for pair in grads for g in pair]
        for i, (p, g) in enumerate(zip(params, flat)):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            mhat = m[i] / (1 - b1**step)
            vhat = v[i] / (1 - b2**step)
            p -= lr * mhat / (np.sqrt(vhat) + eps)
        lr *= cfg.lr_decay
    model.layers[0].kernel = model.layers[0].kernel.reshape(kshape)
    return _in_dtype(model, np.float64), history


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("objective", [
    dict(alpha=0.5, beta=0.15),
    dict(alpha=0.0, beta=1e-4, squared_l2=True, lr_decay=0.998),
    dict(alpha=1.0, beta=0.0),
], ids=["mixed", "squared-l2", "l1"])
def test_flat_adam_equals_per_array_loop(dtype, objective):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 3, 7, 8, 9)).astype(dtype)
    target = rng.standard_normal((2, 2, 5, 6, 5))
    valid = rng.random(target.shape) > 0.4
    cfg = TrainConfig(iterations=5, widths=(6, 4), learning_rate=1e-2,
                      kernel_sizes=((3, 3, 3), (1, 1, 3), (1, 1, 1)),
                      **objective)
    model = init_model(3, 2, cfg)
    got, hist = train(model, x, target, cfg, valid=valid)
    want, want_hist = train_per_array(model, x, target, cfg, valid)
    assert hist == want_hist
    for a, b in zip(got.layers, want.layers, strict=True):
        assert a.kernel.dtype == np.float64
        assert np.array_equal(a.kernel, b.kernel)
        assert np.array_equal(a.bias, b.bias)


# ---------------------------------------------------------------------------
# inference: one unfold per block, scattered block by block


def whole_grid_prediction(model, x):
    """One model's ``predict_columns`` blocks on the sample ``x``, gathered
    into its whole output grid [out_ch, ou, ov, oz]: the values ``infer``
    scatters, so the scatters compare bit for bit."""
    out = np.empty((model.out_channels,
                    *(n - r + 1 for n, r in zip(x.shape[1:], model.receptive_field))))
    columns = out.reshape(out.shape[0], -1, out.shape[-1])
    for sl, (y,) in nn_engine.predict_columns([model], x):
        columns[:, sl] = y
    return out


def infer_reference(models, problem):
    """Each model's whole-grid prediction, scattered per echo through its
    mask, and per-coil RAKI's acquired samples restored: [model * echo,
    kx, p1, p2]."""
    x, scale = _model_input(problem, models[0].receptive_field)
    n_off = len(cell_offsets(problem.masks[0]))
    out = []
    for model in models:
        pred = whole_grid_prediction(model, x)
        pred = (pred[0::2] + 1j * pred[1::2]) / scale
        for e, mask in enumerate(problem.masks):
            grid = scatter_reference(pred[e * n_off : (e + 1) * n_off], mask)
            out.append(np.moveaxis(grid, -1, 0))
    out = np.stack(out)
    if problem.mode == "raki_percoil":
        mask0 = problem.masks[0]
        acq = internal_view(problem.kspace_masked, mask0)
        out[:, :, mask0.grid] = acq[:, :, mask0.grid]
    return out


@pytest.mark.parametrize("mode,kind", [("eraki", k) for k in NAMED]
                         + [("raki_percoil", k) for k in SINGLE_ECHO])
def test_blocked_scatter_equals_whole_grid(mode, kind, monkeypatch):
    p = named_problem(kind, mode)
    if mode == "raki_percoil":
        models = [linear_init(build_targets(p, c), CFG) for c in range(p.n_coils)]
    else:
        models = [linear_init(build_targets(p), CFG)]
    monkeypatch.setattr(nn_engine, "COLUMN_BLOCK", 1 << 9)
    want = infer_reference(models, p)
    blocks = []
    unfold = nn_engine._layer0_columns
    monkeypatch.setattr(nn_engine, "_layer0_columns",
                        lambda *a: blocks.append(1) or unfold(*a))
    res = infer(models if mode == "raki_percoil" else models[0], p)
    assert len(blocks) > 1
    k = res.kspace
    order = [a for a in ("coil", "echo", "kx", *p.masks[0].axes) if k.has_axis(a)]
    got = k.transpose(tuple(order)).data.reshape(want.shape)
    assert np.array_equal(got, want)
