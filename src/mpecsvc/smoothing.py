"""Fischer-Burmeister smoothing kernel.

phi_eps(a, b) = a + b - sqrt(a^2 + b^2 + eps^2).  For eps > 0 its zero set is
exactly {a > 0, b > 0, a*b = eps^2/2}, which smooths the complementarity
relation 0 <= a perp b >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def fb_value(a, b, eps):
    """Elementwise phi_eps(a, b); eps = 0 is allowed (nonsmooth diagnostics)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a + b - np.sqrt(a * a + b * b + eps * eps)


@dataclass(frozen=True)
class SmoothingWeights:
    """First-order weights: wG_i = 1 - G_i/denom_i, wH_i = 1 - H_i/denom_i.

    denom_i = sqrt(G_i^2 + H_i^2 + eps^2) >= eps is cached for reuse by the
    curvature coefficients.  Both weights lie in (0, 2) for eps > 0.
    """

    wG: np.ndarray
    wH: np.ndarray
    denom: np.ndarray


def fb_weights(G, H, eps):
    if eps <= 0:
        raise ValueError("fb_weights requires eps > 0")
    G = np.asarray(G, dtype=float)
    H = np.asarray(H, dtype=float)
    denom = np.sqrt(G * G + H * H + eps * eps)
    return SmoothingWeights(wG=1.0 - G / denom, wH=1.0 - H / denom,
                            denom=denom)


@dataclass(frozen=True)
class CurvatureCoeffs:
    """Second-order coefficients (multiplier factor lambda_i included):

    mG_i  =  lam_i (H_i^2 + eps^2) / denom_i^3
    mH_i  =  lam_i (G_i^2 + eps^2) / denom_i^3
    mGH_i = -lam_i G_i H_i / denom_i^3

    They satisfy mG_i mH_i - mGH_i^2 = lam_i^2 eps^2 denom_i^2 / denom_i^6.
    """

    mG: np.ndarray
    mH: np.ndarray
    mGH: np.ndarray


def fb_curvature(G, H, lam, eps, denom=None):
    if eps <= 0:
        raise ValueError("fb_curvature requires eps > 0")
    G = np.asarray(G, dtype=float)
    H = np.asarray(H, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if denom is None:
        denom = np.sqrt(G * G + H * H + eps * eps)
    scale = lam / denom**3
    return CurvatureCoeffs(
        mG=scale * (H * H + eps * eps),
        mH=scale * (G * G + eps * eps),
        mGH=-scale * G * H,
    )
