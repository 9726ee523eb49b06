"""Log-linear T2/T2* decay fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rakikit import ConfigError, GeometryError, NumericalError, fit_decay
from rakikit.quantmap import T_CLAMP


def decay_stack(t_values, te, s0=1.0):
    t = np.asarray(t_values)
    te = np.asarray(te)
    return s0 * np.exp(-te[:, None] / t[None, :]).reshape(len(te), -1)


class TestValidation:
    def test_needs_two_echoes(self):
        with pytest.raises(ConfigError):
            fit_decay(np.ones((1, 4)), [10.0])

    def test_distinct_echo_times(self):
        with pytest.raises(ConfigError):
            fit_decay(np.ones((2, 4)), [10.0, 10.0])

    def test_shape_checked(self):
        with pytest.raises(GeometryError):
            fit_decay(np.ones((3, 4)), [0.0, 10.0])

    def test_negative_magnitudes_rejected(self):
        s = np.ones((2, 4))
        s[1, 0] = -0.1
        with pytest.raises(GeometryError):
            fit_decay(s, [0.0, 10.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_magnitudes_rejected(self, value):
        """Checked before the log: an Inf is not fitted, a NaN not dropped."""
        s = np.ones((2, 4))
        s[1, 2] = value
        with pytest.raises(NumericalError, match="non-finite"):
            fit_decay(s, [0.0, 10.0])


class TestFits:
    def test_exact_recovery(self):
        t_true = np.array([30.0, 50.0, 80.0])
        te = [5.0, 25.0, 60.0]
        s = decay_stack(t_true, te, s0=2.0)
        res = fit_decay(s, te)
        np.testing.assert_allclose(res.t2_map, t_true, rtol=1e-12)
        np.testing.assert_allclose(res.s0_map, 2.0, rtol=1e-12)
        np.testing.assert_allclose(res.r2_goodness, 1.0, atol=1e-12)
        assert res.valid.all()

    def test_two_point_analytic(self):
        # S1/S2 = 2 over a 10 ms gap gives T = 10 / ln 2 exactly
        s = np.array([[2.0], [1.0]])
        res = fit_decay(s, [0.0, 10.0])
        assert abs(res.t2_map[0] - 10.0 / np.log(2.0)) < 1e-9

    def test_threshold_marks_invalid(self):
        s = decay_stack(np.array([50.0, 50.0]), [0.0, 40.0])
        s[:, 1] *= 1e-4
        res = fit_decay(s, [0.0, 40.0], threshold=1e-3)
        assert list(res.valid) == [True, False]
        assert res.t2_map[1] == 0.0 and res.s0_map[1] == 0.0

    def test_growing_signal_clamped_high(self):
        s = np.array([[1.0], [2.0]])  # "decay" with negative rate
        res = fit_decay(s, [0.0, 10.0])
        assert res.t2_map[0] == T_CLAMP[1]

    def test_fast_decay_clamped_low(self):
        s = np.array([[1.0], [1e-300]])
        res = fit_decay(s, [0.0, 10.0])
        assert res.t2_map[0] == T_CLAMP[0]

    def test_constant_signal(self):
        s = np.ones((3, 2))
        res = fit_decay(s, [0.0, 10.0, 20.0])
        assert (res.t2_map == T_CLAMP[1]).all()
        np.testing.assert_allclose(res.r2_goodness, 1.0)

    def test_r2_below_one_for_nonexponential(self):
        s = np.array([[1.0], [0.9], [0.1]])
        res = fit_decay(s, [0.0, 10.0, 20.0])
        assert 0.0 <= res.r2_goodness[0] < 1.0

    def test_spatial_shapes_preserved(self):
        t = np.full((4, 5, 6), 40.0)
        te = np.array([0.0, 10.0, 30.0])
        s = np.exp(-te[:, None, None, None] / t[None])
        res = fit_decay(s, te)
        assert res.t2_map.shape == (4, 5, 6)
        np.testing.assert_allclose(res.t2_map, 40.0, rtol=1e-12)

    @given(
        st.floats(min_value=5.0, max_value=500.0),
        st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_recovery_property(self, t_true, s0):
        te = [2.0, 20.0, 45.0, 90.0]
        s = decay_stack(np.array([t_true]), te, s0=s0)
        res = fit_decay(s, te)
        assert res.t2_map[0] == pytest.approx(t_true, rel=1e-9)
        assert res.s0_map[0] == pytest.approx(s0, rel=1e-9)
