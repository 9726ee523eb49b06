"""Training engine: forward pass, analytic gradients, Adam."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rakikit import (
    ConfigError,
    ConvLayer,
    GeometryError,
    ModelWeights,
    NumericalError,
    ReconProblem,
    TrainConfig,
    apply_mask,
    backward,
    build_targets,
    centered_acs_box,
    default_spec,
    forward,
    init_model,
    linear_init,
    loss,
    make_phantom,
    make_uniform_mask,
    train,
)
from rakikit import CTensor, nn_engine, recon_models

from test_coil_shared_work import whole_grid_prediction

TINY = TrainConfig(
    widths=(3, 2),
    kernel_sizes=((2, 1, 3), (1, 2, 1), (1, 1, 2)),
    iterations=5,
    seed=0,
)


def fd_gradcheck(model, x, target, alpha, beta, squared_l2, n_samples,
                 rng, valid=None, h=1e-6):
    """Relative error between analytic and central-difference gradients.

    Freshly initialized biases are exactly zero, and ReLU-sparse inputs can
    make whole convolution windows zero, so some pre-activations sit exactly
    on the ReLU kink where the loss is not differentiable.  Jitter the biases
    so the check runs at a differentiable point.
    """
    for layer in model.layers:
        layer.bias += 0.05 * rng.standard_normal(layer.bias.shape)
    _, grads = backward(model, x, target, alpha, beta, valid=valid,
                        squared_l2=squared_l2)
    params = []
    for layer, (dk, db) in zip(model.layers, grads):
        params.append((layer.kernel, dk))
        params.append((layer.bias, db))
    analytic, numeric = [], []
    for p, g in params:
        flat = p.reshape(-1)
        count = min(n_samples, flat.size)
        idx = rng.choice(flat.size, size=count, replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            up = loss(forward(model, x), target, model, alpha, beta,
                      valid=valid, squared_l2=squared_l2)
            flat[i] = orig - h
            dn = loss(forward(model, x), target, model, alpha, beta,
                      valid=valid, squared_l2=squared_l2)
            flat[i] = orig
            numeric.append((up - dn) / (2 * h))
            analytic.append(g.reshape(-1)[i])
    analytic = np.array(analytic)
    numeric = np.array(numeric)
    return np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)


class TestConfig:
    def test_alpha_range(self):
        with pytest.raises(ConfigError):
            TrainConfig(alpha=1.5)

    def test_beta_nonnegative(self):
        with pytest.raises(ConfigError):
            TrainConfig(beta=-0.1)

    def test_widths_match_kernels(self):
        with pytest.raises(ConfigError):
            TrainConfig(widths=(4,), kernel_sizes=((3, 3, 3),))

    def test_layer_channel_mismatch_raises(self):
        a = init_model(2, 2, TINY)
        with pytest.raises(ConfigError):
            ModelWeights([a.layers[0], a.layers[2]])


class TestForward:
    def test_valid_conv_extents(self):
        model = init_model(2, 4, TINY)
        assert model.receptive_field == (2, 2, 4)
        out = forward(model, np.ones((2, 5, 6, 7)))
        assert out.shape == (4, 4, 5, 4)

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(0)
        cfg = TrainConfig(widths=(), kernel_sizes=((2, 3, 2),), seed=1)
        model = init_model(2, 3, cfg)
        model.layers[0].bias = rng.standard_normal(3)
        x = rng.standard_normal((2, 4, 5, 4))
        out = forward(model, x)
        k = model.layers[0].kernel
        expected = np.zeros_like(out)
        for o in range(3):
            for u in range(out.shape[1]):
                for v in range(out.shape[2]):
                    for w in range(out.shape[3]):
                        expected[o, u, v, w] = (
                            np.sum(k[o] * x[:, u : u + 2, v : v + 3, w : w + 2])
                            + model.layers[0].bias[o]
                        )
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_relu_between_layers(self):
        cfg = TrainConfig(widths=(1,), kernel_sizes=((1, 1, 1), (1, 1, 1)),
                          seed=0)
        model = init_model(1, 1, cfg)
        model.layers[0].kernel[:] = 1.0
        model.layers[1].kernel[:] = 1.0
        x = np.array([-2.0, 3.0]).reshape(1, 2, 1, 1)
        out = forward(model, x)
        np.testing.assert_allclose(out[0, :, 0, 0], [0.0, 3.0])

    def test_wrong_channels_raise(self):
        model = init_model(2, 4, TINY)
        with pytest.raises(GeometryError):
            forward(model, np.ones((3, 5, 6, 7)))

    def test_input_smaller_than_rf_raises(self):
        model = init_model(2, 4, TINY)
        with pytest.raises(GeometryError):
            forward(model, np.ones((2, 1, 6, 7)))


class TestLoss:
    def test_pure_l1(self):
        pred = np.array([1.0, -1.0, 2.0]).reshape(1, 3, 1, 1)
        tgt = np.zeros_like(pred)
        assert loss(pred, tgt, None, 1.0, 0.0) == pytest.approx(4 / 3)

    def test_pure_l2(self):
        pred = np.array([3.0, 4.0]).reshape(1, 2, 1, 1)
        tgt = np.zeros_like(pred)
        assert loss(pred, tgt, None, 0.0, 0.0) == pytest.approx(np.sqrt(12.5))
        assert loss(pred, tgt, None, 0.0, 0.0, squared_l2=True) == pytest.approx(12.5)

    def test_validity_mask(self):
        pred = np.array([1.0, 100.0]).reshape(1, 2, 1, 1)
        tgt = np.zeros_like(pred)
        valid = np.array([True, False]).reshape(1, 2, 1, 1)
        assert loss(pred, tgt, None, 1.0, 0.0, valid=valid) == pytest.approx(1.0)

    def test_all_invalid_raises(self):
        pred = np.zeros((1, 2, 1, 1))
        with pytest.raises(GeometryError):
            loss(pred, pred, None, 0.5, 0.0, valid=np.zeros_like(pred, dtype=bool))

    def test_weight_penalty(self):
        model = init_model(1, 1, TrainConfig(widths=(),
                                             kernel_sizes=((1, 1, 1),)))
        model.layers[0].kernel[:] = 2.0
        model.layers[0].bias[:] = 0.0
        pred = np.zeros((1, 1, 1, 1))
        assert loss(pred, pred, model, 0.0, 0.5) == pytest.approx(1.0)
        assert loss(pred, pred, model, 0.0, 0.5, squared_l2=True) == pytest.approx(2.0)


class TestGradients:
    @pytest.mark.parametrize("alpha,squared", [(0.0, True), (0.0, False),
                                               (0.5, True), (1.0, False)])
    def test_fd_agreement(self, alpha, squared):
        rng = np.random.default_rng(hash((alpha, squared)) % 2**32)
        model = init_model(2, 2, TINY)
        x = rng.standard_normal((2, 5, 6, 7))
        target = rng.standard_normal((2, 4, 5, 4))
        err = fd_gradcheck(model, x, target, alpha, 0.03, squared, 20, rng)
        assert err < 1e-6

    def test_fd_agreement_with_valid_mask(self):
        rng = np.random.default_rng(9)
        model = init_model(2, 2, TINY)
        x = rng.standard_normal((2, 5, 6, 7))
        target = rng.standard_normal((2, 4, 5, 4))
        valid = rng.random((2, 4, 5, 4)) > 0.4
        err = fd_gradcheck(model, x, target, 0.3, 0.01, True, 20, rng,
                           valid=valid)
        assert err < 1e-6


class TestTraining:
    def _problem(self, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 6, 6, 8))
        target = 0.5 * x[:, :5, :5, :5] + 0.1
        target = target[:, : 6 - 1, : 6 - 1, : 8 - 3]
        return x, target

    def test_loss_decreases(self):
        x, target = self._problem()
        cfg = TrainConfig(widths=(3, 2), kernel_sizes=((2, 1, 3), (1, 2, 1),
                                                       (1, 1, 2)),
                          alpha=0.0, beta=0.0, squared_l2=True,
                          learning_rate=1e-2, iterations=100, seed=0)
        model = init_model(2, 2, cfg)
        trained, hist = train(model, x, target, cfg)
        assert hist[-1] < hist[0] * 0.5
        assert len(hist) == 100

    def test_deterministic(self):
        x, target = self._problem()
        cfg = TrainConfig(widths=(3, 2), kernel_sizes=((2, 1, 3), (1, 2, 1),
                                                       (1, 1, 2)),
                          iterations=20, seed=4)
        a, ha = train(init_model(2, 2, cfg), x, target, cfg)
        b, hb = train(init_model(2, 2, cfg), x, target, cfg)
        assert ha == hb
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.kernel, lb.kernel)
            np.testing.assert_array_equal(la.bias, lb.bias)

    def test_input_model_not_mutated(self):
        x, target = self._problem()
        cfg = TrainConfig(widths=(3, 2), kernel_sizes=((2, 1, 3), (1, 2, 1),
                                                       (1, 1, 2)),
                          iterations=5, seed=1)
        model = init_model(2, 2, cfg)
        before = [l.kernel.copy() for l in model.layers]
        train(model, x, target, cfg)
        for b, l in zip(before, model.layers):
            np.testing.assert_array_equal(b, l.kernel)

    def test_nonfinite_loss_raises(self):
        x, target = self._problem()
        cfg = TrainConfig(widths=(3, 2), kernel_sizes=((2, 1, 3), (1, 2, 1),
                                                       (1, 1, 2)),
                          learning_rate=1e12, iterations=50, seed=0,
                          squared_l2=True, alpha=0.0)
        model = init_model(2, 2, cfg)
        model.layers[0].kernel *= 1e200
        with pytest.raises(NumericalError):
            train(model, x, target, cfg)

    def test_float32_nonfinite_warm_start_raises(self):
        """1e200 leaves float32's range in the cast, before any step."""
        x, target = self._problem()
        cfg = TrainConfig(widths=(3, 2), kernel_sizes=((2, 1, 3), (1, 2, 1),
                                                       (1, 1, 2)),
                          learning_rate=1e12, iterations=50, seed=0,
                          squared_l2=True, alpha=0.0)
        model = init_model(2, 2, cfg)
        model.layers[0].kernel *= 1e200
        with pytest.raises(NumericalError, match="not finite in float32"):
            train(model, x.astype(np.float32), target, cfg)

    def test_float32_nonfinite_last_step_raises(self):
        """A last update beyond float32's range leaves no model to return."""
        x, target = self._problem()
        cfg = TrainConfig(widths=(3, 2), kernel_sizes=((2, 1, 3), (1, 2, 1),
                                                       (1, 1, 2)),
                          learning_rate=1e300, iterations=1, seed=0)
        with pytest.raises(NumericalError, match="after step 1"):
            train(init_model(2, 2, cfg), x.astype(np.float32), target, cfg)

    def test_float32_deterministic(self):
        x, target = self._problem()
        x = x.astype(np.float32)
        cfg = TrainConfig(widths=(3, 2), kernel_sizes=((2, 1, 3), (1, 2, 1),
                                                       (1, 1, 2)),
                          iterations=20, seed=4)
        a, ha = train(init_model(2, 2, cfg), x, target, cfg)
        b, hb = train(init_model(2, 2, cfg), x, target, cfg)
        assert ha == hb
        assert all(type(v) is float for v in ha)  # JSON floats in report.json
        for la, lb in zip(a.layers, b.layers):
            assert la.kernel.dtype == la.bias.dtype == np.float64
            np.testing.assert_array_equal(la.kernel, lb.kernel)
            np.testing.assert_array_equal(la.bias, lb.bias)

    def test_lr_decay_changes_result(self):
        x, target = self._problem()
        base = dict(widths=(3, 2), kernel_sizes=((2, 1, 3), (1, 2, 1),
                                                 (1, 1, 2)),
                    iterations=30, seed=0, learning_rate=1e-2)
        a, _ = train(init_model(2, 2, TrainConfig(**base)), x, target,
                     TrainConfig(**base))
        cfgd = TrainConfig(lr_decay=0.9, **base)
        b, _ = train(init_model(2, 2, cfgd), x, target, cfgd)
        assert any(
            not np.array_equal(la.kernel, lb.kernel)
            for la, lb in zip(a.layers, b.layers)
        )


# ---------------------------------------------------------------------------
# the per-tap engine that the unfold + GEMM engine replaced, kept as a
# reference: one sample [C, X, Y, Z] at a time, one tensordot per kernel tap


def ref_conv_valid(x, kernel, bias):
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


def ref_activations(model, x):
    acts = [x]
    for layer in model.layers:
        x = ref_conv_valid(x, layer.kernel, layer.bias)
        if layer.relu:
            x = np.maximum(x, 0.0)
        acts.append(x)
    return acts


def ref_backward(model, x, target, alpha, beta, valid, squared_l2):
    """Loss and gradients of a batch [B, C, X, Y, Z], one sample at a time."""
    acts = [ref_activations(model, xb) for xb in x]
    e = np.stack([a[-1] for a in acts]) - target
    if valid is not None:
        mask = np.broadcast_to(valid, e.shape)
        n = int(mask.sum())
        e = np.where(mask, e, 0.0)
    else:
        n = e.size
    msq = float(np.sum(e**2)) / n
    rms = float(np.sqrt(msq))
    data = (alpha * float(np.sum(np.abs(e))) / n
            + (1 - alpha) * (msq if squared_l2 else rms))
    g = alpha * np.sign(e) / n
    if squared_l2:
        g = g + (1 - alpha) * 2.0 * e / n
    elif rms > 0:
        g = g + (1 - alpha) * e / (n * rms)

    grads = [(np.zeros_like(l.kernel), np.zeros_like(l.bias)) for l in model.layers]
    for sample, gout in zip(acts, g):
        for li in range(len(model.layers) - 1, -1, -1):
            layer = model.layers[li]
            xin = sample[li]
            if layer.relu:
                gout = gout * (sample[li + 1] > 0)
            oc, ic, k1, k2, k3 = layer.kernel.shape
            o1, o2, o3 = gout.shape[1:]
            dk, db = grads[li]
            db += gout.sum(axis=(1, 2, 3))
            dx = np.zeros_like(xin)
            for a in range(k1):
                for b in range(k2):
                    for c in range(k3):
                        xs = xin[:, a : a + o1, b : b + o2, c : c + o3]
                        dk[:, :, a, b, c] += np.tensordot(
                            gout, xs, axes=([1, 2, 3], [1, 2, 3]))
                        dx[:, a : a + o1, b : b + o2, c : c + o3] += np.tensordot(
                            layer.kernel[:, :, a, b, c], gout, axes=(0, 0))
            gout = dx

    wn = np.sqrt(sum(float(np.sum(l.kernel**2)) + float(np.sum(l.bias**2))
                     for l in model.layers))
    if beta > 0:
        reg = beta * wn**2 if squared_l2 else beta * wn
        scale = 2.0 * beta if squared_l2 else (beta / wn if wn > 0 else 0.0)
        for layer, (dk, db) in zip(model.layers, grads):
            dk += scale * layer.kernel
            db += scale * layer.bias
    else:
        reg = 0.0
    return data + reg, grads


def ref_train(model, x, target, cfg, valid):
    model = model.copy()
    params = [p for l in model.layers for p in (l.kernel, l.bias)]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    history = []
    lr = cfg.learning_rate
    b1, b2, eps = 0.9, 0.999, 1e-8
    for step in range(1, cfg.iterations + 1):
        value, grads = ref_backward(model, x, target, cfg.alpha, cfg.beta,
                                    valid, cfg.squared_l2)
        history.append(value)
        for i, (p, g) in enumerate(zip(params, [g for gg in grads for g in gg])):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            p -= lr * (m[i] / (1 - b1**step)) / (np.sqrt(v[i] / (1 - b2**step)) + eps)
        lr *= cfg.lr_decay
    return model, history


# float32 against the float64 reference, over the whole gradient or
# parameter vector: the worst of 3,000 drawn cases was 12.9 eps. A single
# bias gradient can lose far more to cancellation (pure L1 loss), so
# float32 is not compared array by array.
F32_TOL = 2**8 * float(np.finfo(np.float32).eps)


def assert_rel(actual, expected, tol=1e-10):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.linalg.norm(actual - expected) <= tol * np.linalg.norm(expected)


STACKS = [
    ((2, 1, 3), (1, 2, 1), (1, 1, 2)),  # later layers wider than 1 in p1/p2
    ((3, 3, 3), (1, 1, 2), (1, 1, 1)),  # the default shape: p1/p2 in layer 0
    ((1, 1, 1), (2, 2, 2)),
    ((2, 2, 2),),
]


@st.composite
def engine_cases(draw):
    kernels = draw(st.sampled_from(STACKS))
    widths = tuple(draw(st.integers(1, 4)) for _ in kernels[1:])
    ic, oc = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    batch = draw(st.integers(0, 3))  # 0: one 4-D sample
    rf = nn_engine.receptive_field(kernels)
    grid = tuple(r + draw(st.integers(0, 3)) for r in rf)
    return dict(kernels=kernels, widths=widths, ic=ic, oc=oc, batch=batch,
                grid=grid, valid=draw(st.sampled_from(["none", "random", "columns"])),
                alpha=draw(st.sampled_from([0.0, 0.5, 1.0])),
                squared=draw(st.booleans()), seed=draw(st.integers(0, 2**16)),
                dtype=draw(st.sampled_from([np.float64, np.float32])))


def _engine_problem(case):
    rng = np.random.default_rng(case["seed"])
    cfg = TrainConfig(widths=case["widths"], kernel_sizes=case["kernels"],
                      alpha=case["alpha"], squared_l2=case["squared"], beta=0.02,
                      learning_rate=1e-2, iterations=5, seed=case["seed"])
    model = init_model(case["ic"], case["oc"], cfg)
    for layer in model.layers:  # off the ReLU kinks, as in fd_gradcheck
        layer.bias += 0.05 * rng.standard_normal(layer.bias.shape)
    b = max(case["batch"], 1)
    x = rng.standard_normal((b, case["ic"], *case["grid"]))
    out = tuple(n - r + 1 for n, r in
                zip(case["grid"], nn_engine.receptive_field(case["kernels"])))
    target = rng.standard_normal((b, case["oc"], *out))
    valid = None
    if case["valid"] != "none":
        valid = rng.random(target.shape) > 0.4
        if case["valid"] == "columns":  # whole (p1, p2) columns without a target
            valid &= rng.random((b, 1, *out[:2], 1)) > 0.5
        valid.flat[0] = True
    return model, x, target, valid, cfg


class TestEquivalence:
    """The unfold + GEMM engine against the per-tap reference."""

    @settings(max_examples=100, deadline=None)
    @given(engine_cases())
    def test_matches_per_tap_reference(self, case):
        model, x, target, valid, cfg = _engine_problem(case)
        ref_value, ref_grads = ref_backward(model, x, target, cfg.alpha,
                                            cfg.beta, valid, cfg.squared_l2)
        ref_model, ref_hist = ref_train(model, x, target, cfg, valid)
        ref_pred = np.stack([ref_activations(model, xb)[-1] for xb in x])
        dtype = case["dtype"]
        x = x.astype(dtype)
        if case["batch"] == 0:  # the engine's 4-D form: a batch of one
            x, target, ref_pred = x[0], target[0], ref_pred[0]
            valid = None if valid is None else valid[0]
        value, grads = backward(model, x, target, cfg.alpha, cfg.beta,
                                valid=valid, squared_l2=cfg.squared_l2)
        trained, hist = train(model, x, target, cfg, valid=valid)
        pred = forward(model, x)

        # computed in the input's dtype; the trained model is float64
        assert pred.dtype == dtype
        assert all(g.dtype == dtype for pair in grads for g in pair)
        assert all(l.kernel.dtype == l.bias.dtype == np.float64
                   for l in trained.layers)
        assert [l.relu for l in trained.layers] == [l.relu for l in model.layers]
        if dtype == np.float32:
            def whole(pairs):
                return np.concatenate([a.ravel() for pair in pairs for a in pair])

            assert_rel(value, ref_value, F32_TOL)
            assert_rel(whole(grads), whole(ref_grads), F32_TOL)
            assert_rel(hist, ref_hist, F32_TOL)
            assert_rel(whole((l.kernel, l.bias) for l in trained.layers),
                       whole((l.kernel, l.bias) for l in ref_model.layers),
                       F32_TOL)
            assert_rel(pred, ref_pred, F32_TOL)
            return
        assert_rel(value, ref_value)
        for (dk, db), (rk, rb) in zip(grads, ref_grads):
            assert_rel(dk, rk)
            assert_rel(db, rb)
        assert_rel(hist, ref_hist)
        for layer, ref in zip(trained.layers, ref_model.layers):
            assert_rel(layer.kernel, ref.kernel)
            assert_rel(layer.bias, ref.bias)
        assert_rel(pred, ref_pred)


class TestColumnCache:
    """train unfolds layer 0 once, over the target-carrying columns only."""

    CFG = dict(widths=(3,), kernel_sizes=((2, 2, 3), (1, 1, 2)), seed=3)

    def _case(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 6, 7, 9))
        target = rng.standard_normal((2, 5, 6, 6))
        valid = rng.random(target.shape) > 0.5
        # rows u = 1 and 3 and columns v = 4 carry no target, but for one
        # sample of column (3, 4)
        valid[:, 1] = False
        valid[:, 3] = False
        valid[:, :, 4] = False
        valid[:, 3, 4, 2] = True
        return x, target, valid

    @pytest.mark.parametrize("iterations", [1, 50])
    def test_one_unfold_per_train_call(self, monkeypatch, iterations):
        calls = []
        original = nn_engine._layer0_columns

        def counted(h, idx, ks, rf):
            cols = original(h, idx, ks, rf)
            calls.append((idx, cols))
            return cols

        monkeypatch.setattr(nn_engine, "_layer0_columns", counted)
        x, target, valid = self._case()
        cfg = TrainConfig(iterations=iterations, **self.CFG)
        _, hist = train(init_model(2, 2, cfg), x, target, cfg, valid=valid)
        assert len(hist) == iterations
        assert len(calls) == 1

        (b, u, v), cols = calls[0]
        carrying = valid.any(axis=(0, 3))
        assert (b == 0).all()
        assert sorted(zip(u.tolist(), v.tolist())) == list(zip(*np.nonzero(carrying)))
        assert (1, 4) not in set(zip(u.tolist(), v.tolist()))
        assert (3, 4) in set(zip(u.tolist(), v.tolist()))
        # [C*k1*k2*k3, column, 1, 1, o3]: each column's layer-0 windows
        assert cols.shape == (2 * 2 * 2 * 3, len(u), 1, 1, 9 - 3 + 1)
        for i, (ui, vi) in enumerate(zip(u, v)):
            for w in range(cols.shape[-1]):
                np.testing.assert_array_equal(
                    cols[:, i, 0, 0, w], x[:, ui : ui + 2, vi : vi + 2, w : w + 3].ravel())

    def test_blocked_inference_equals_one_forward(self, monkeypatch):
        """Criterion-04 scene (8 coils, 32x96x96, R=3x3): predict_columns'
        blocks == forward."""
        mask = make_uniform_mask((96, 96), 3, 3, shift=1,
                                 acs_box=centered_acs_box((96, 96), (24, 24)))
        ph = make_phantom(default_spec(extents=(32, 96, 96), n_coils=8,
                                       texture=2.0, seed=1))
        ksp = CTensor(ph["kspace"].data[:, 0], ("coil", "kx", "ky", "kz"))
        cfg = TrainConfig(widths=(36,) * 4, seed=2, kernel_sizes=(
            (3, 3, 5), (1, 1, 3), (1, 1, 3), (1, 1, 1), (1, 1, 1)))
        problem = ReconProblem(apply_mask(ksp, mask), (mask,), "raki_percoil", cfg)
        model = linear_init(build_targets(problem, coil=0), cfg)
        # the stack contributes beside the linear branch, as after training
        last = model.layers[-1]
        last.kernel = np.random.default_rng(3).uniform(-0.1, 0.1, last.kernel.shape)

        blocks = []
        original = nn_engine._layer0_columns
        monkeypatch.setattr(nn_engine, "_layer0_columns",
                            lambda *a: blocks.append(1) or original(*a))
        x, _ = recon_models._model_input(problem, model.receptive_field)
        blocked = whole_grid_prediction(model, x)
        whole = forward(model, x)
        assert len(blocks) > 1
        assert blocked.shape == whole.shape == (18, 32, 32, 32)  # 3x3 offsets, re/im
        assert_rel(blocked, whole, tol=1e-12)


def with_branch(model, rng):
    """``model`` with a random linear branch of layer 0's window."""
    shape = (model.out_channels, *model.layers[0].kernel.shape[1:])
    return ModelWeights(model.layers, ConvLayer(rng.standard_normal(shape),
                                                rng.standard_normal(shape[0]),
                                                relu=False))


class TestLinearBranch:
    """The fixed linear branch beside the stack: later kernels (1, 1, 3) and
    (1, 1, 1) put its window one sample in along the third axis."""

    CFG = TrainConfig(widths=(5, 4), iterations=6, learning_rate=1e-2, seed=1,
                      kernel_sizes=((3, 3, 3), (1, 1, 3), (1, 1, 1)))

    def _case(self):
        rng = np.random.default_rng(11)
        model = with_branch(init_model(3, 4, self.CFG), rng)
        x = rng.standard_normal((2, 3, 9, 10, 11))
        target = rng.standard_normal((2, 4, 7, 8, 7))
        return rng, model, x, target

    def test_output_is_the_stack_plus_the_branch(self):
        _, model, x, _ = self._case()
        stack = forward(ModelWeights(model.layers), x)
        branch = forward(ModelWeights([model.linear]), x[..., 1:-1])
        assert_rel(forward(model, x), stack + branch, tol=1e-12)

    def test_branch_shape_must_match_layer_0(self):
        _, model, _, _ = self._case()
        short = ConvLayer(model.linear.kernel[:, :2], model.linear.bias, False)
        with pytest.raises(ConfigError, match="linear branch"):
            ModelWeights(model.layers, short)

    def test_copy_cast_and_blocks_keep_the_branch(self, monkeypatch):
        _, model, x, _ = self._case()
        want = forward(model, x[0])
        copied = model.copy()
        assert np.array_equal(copied.linear.kernel, model.linear.kernel)
        assert np.array_equal(copied.linear.bias, model.linear.bias)
        copied.linear.kernel += 1.0
        assert np.array_equal(forward(model, x[0]), want)
        single = nn_engine._in_dtype(model, np.float32)
        assert single.linear.kernel.dtype == single.linear.bias.dtype == np.float32
        assert_rel(forward(single, x[0].astype(np.float32)), want, tol=1e-5)
        monkeypatch.setattr(nn_engine, "COLUMN_BLOCK", 1 << 8)
        blocks = []
        unfold = nn_engine._layer0_columns
        monkeypatch.setattr(nn_engine, "_layer0_columns",
                            lambda *a: blocks.append(1) or unfold(*a))
        assert_rel(whole_grid_prediction(model, x[0]), want, tol=1e-12)
        assert len(blocks) > 1

    def test_fd_agreement_with_the_branch(self):
        rng, model, x, target = self._case()
        assert fd_gradcheck(model, x, target, 0.3, 0.02, False, 10, rng) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_holds_the_branch_and_fits_the_residual(self, dtype):
        """Training a model with a branch is training its stack on the
        targets less the branch; the losses are the whole model's."""
        _, model, x, target = self._case()
        valid = np.random.default_rng(2).random(target.shape) > 0.3
        x = x.astype(dtype)
        got, hist = train(model, x, target, self.CFG, valid=valid)
        stack = ModelWeights(model.layers)
        residual = target - (forward(model, x) - forward(stack, x))
        want, want_hist = train(stack, x, residual, self.CFG, valid=valid)
        tol = 1e-4 if dtype == np.float32 else 1e-9
        assert_rel(hist, want_hist, tol=tol)
        for a, b in zip(got.layers, want.layers, strict=True):
            assert a.kernel.dtype == np.float64
            assert_rel(a.kernel, b.kernel, tol=tol)
        assert np.array_equal(got.linear.kernel, model.linear.kernel)
        assert np.array_equal(got.linear.bias, model.linear.bias)
        first = loss(forward(model, x.astype(np.float64)), target, model,
                     self.CFG.alpha, self.CFG.beta, valid=valid,
                     squared_l2=self.CFG.squared_l2)
        assert hist[0] == pytest.approx(first, rel=tol)
