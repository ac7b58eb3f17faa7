"""Smoothing kernel: zero set, weights, curvature identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpecsvc.smoothing import fb_curvature, fb_value, fb_weights

finite = st.floats(-50, 50, allow_nan=False)
positive = st.floats(1e-3, 50, allow_nan=False)
eps_s = st.floats(1e-4, 10, allow_nan=False)


class TestValue:
    def test_zero_characterization(self):
        # a,b > 0 with a*b = eps^2/2 lies exactly on the zero set
        rng = np.random.default_rng(0)
        for eps in (1.0, 0.1, 1e-3):
            a = rng.uniform(0.05, 5.0, size=20)
            b = (eps * eps / 2.0) / a
            np.testing.assert_allclose(fb_value(a, b, eps), 0.0, atol=1e-12)

    def test_signs_off_the_zero_set(self):
        eps = 0.5
        # a*b > eps^2/2 with a,b>0 -> phi > 0; any a<=0 or b<=0 -> phi < 0
        assert fb_value(1.0, 1.0, eps) > 0
        assert fb_value(-0.3, 2.0, eps) < 0
        assert fb_value(2.0, -0.3, eps) < 0
        assert fb_value(0.0, 0.0, eps) == -eps

    def test_eps_zero_reduces_to_min_like(self):
        # phi_0(a,b) = a + b - sqrt(a^2+b^2); zero iff min(a,b)=0, both >= 0
        assert fb_value(0.0, 3.0, 0.0) == 0.0
        assert fb_value(3.0, 0.0, 0.0) == 0.0
        assert fb_value(2.0, 3.0, 0.0) > 0.0

    @settings(max_examples=100, deadline=None)
    @given(finite, finite, eps_s)
    def test_symmetry(self, a, b, eps):
        assert fb_value(a, b, eps) == pytest.approx(fb_value(b, a, eps))

    @settings(max_examples=100, deadline=None)
    @given(finite, finite, eps_s)
    def test_upper_bound(self, a, b, eps):
        # sqrt(a^2+b^2+eps^2) >= max(|a|,|b|) so phi <= min(a,b) + |...|; the
        # robust invariant: phi < a + b always (eps > 0)
        assert fb_value(a, b, eps) < a + b


class TestWeights:
    @settings(max_examples=100, deadline=None)
    @given(finite, finite, eps_s)
    def test_weights_in_open_interval(self, a, b, eps):
        w = fb_weights(np.array([a]), np.array([b]), eps)
        assert 0.0 < w.wG[0] < 2.0
        assert 0.0 < w.wH[0] < 2.0
        assert w.denom[0] >= eps

    def test_weights_match_fd_gradient(self):
        rng = np.random.default_rng(1)
        G = rng.standard_normal(50)
        H = rng.standard_normal(50)
        eps, h = 0.3, 1e-7
        w = fb_weights(G, H, eps)
        fd_G = (fb_value(G + h, H, eps) - fb_value(G - h, H, eps)) / (2 * h)
        fd_H = (fb_value(G, H + h, eps) - fb_value(G, H - h, eps)) / (2 * h)
        np.testing.assert_allclose(w.wG, fd_G, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(w.wH, fd_H, rtol=1e-6, atol=1e-8)

    def test_eps_zero_rejected(self):
        with pytest.raises(ValueError):
            fb_weights(np.ones(1), np.ones(1), 0.0)


class TestCurvature:
    def test_identity(self):
        # mG*mH - mGH^2 = lam^2 * eps^2 / denom^4
        rng = np.random.default_rng(2)
        G = rng.standard_normal(40)
        H = rng.standard_normal(40)
        lam = rng.standard_normal(40)
        eps = 0.25
        denom = np.sqrt(G * G + H * H + eps * eps)
        c = fb_curvature(G, H, lam, eps, denom)
        np.testing.assert_allclose(
            c.mG * c.mH - c.mGH * c.mGH,
            lam * lam * eps * eps / denom**4, rtol=1e-12)

    def test_curvature_matches_fd_of_weights(self):
        rng = np.random.default_rng(3)
        G = rng.standard_normal(30)
        H = rng.standard_normal(30)
        lam = rng.standard_normal(30)
        eps, h = 0.4, 1e-6
        c = fb_curvature(G, H, lam, eps, fb_weights(G, H, eps).denom)
        # mG/lam = -d wG / d G etc. (wG = 1 - G/denom, d phi/da second deriv)
        dwG = (fb_weights(G + h, H, eps).wG - fb_weights(G - h, H, eps).wG) / (2 * h)
        dwH = (fb_weights(G, H + h, eps).wH - fb_weights(G, H - h, eps).wH) / (2 * h)
        dcross = (fb_weights(G, H + h, eps).wG - fb_weights(G, H - h, eps).wG) / (2 * h)
        np.testing.assert_allclose(c.mG, -lam * dwG, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(c.mH, -lam * dwH, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(c.mGH, -lam * dcross, rtol=1e-5, atol=1e-8)

    def test_eps_zero_rejected(self):
        with pytest.raises(ValueError):
            fb_curvature(np.ones(1), np.ones(1), np.ones(1), 0.0, np.ones(1))
