"""The smoothed complementarity kernel and its derivative weights.

The complementarity condition min(a, b) = 0 is replaced by the smoothed
Fischer-Burmeister function phi_eps(a,b) = a + b - sqrt(a^2 + b^2 + eps^2).
Its zero set is the hyperbola a*b = eps^2/2 (a, b > 0), which approaches
the corner of the nonnegative orthant as eps -> 0.  This script shows the
zero set, the derivative weights that enter the Newton matrix, and the
curvature identity that keeps the smoothed Jacobian well behaved.
"""

import numpy as np

from mpecsvc.smoothing import fb_curvature, fb_value, fb_weights

# zero set: for a on a grid, the b with phi_eps(a, b) = 0 is eps^2 / (2a)
print("zero set of phi_eps, eps = 0.1:")
for a in [0.01, 0.05, 0.1, 0.5, 1.0]:
    b = 0.1 ** 2 / (2 * a)
    phi = fb_value(a, b, 0.1)
    print(f"  a = {a:5.2f}  b = {b:8.5f}  a*b = {a * b:.5f}  "
          f"phi = {phi:+.1e}")

# as eps shrinks the zero set collapses onto the axes
print("\nb solving phi_eps(0.5, b) = 0 for shrinking eps:")
for eps in [1.0, 0.1, 0.01, 0.001]:
    print(f"  eps = {eps:6.3f}  b = {eps ** 2 / (2 * 0.5):.2e}")

# derivative weights wG = 1 - a/denom, wH = 1 - b/denom lie in (0, 2) and
# interpolate between the two pieces of min(a, b)
print("\nweights along the zero set, eps = 0.1:")
for a in [0.01, 0.1, 1.0]:
    b = 0.1 ** 2 / (2 * a)
    w = fb_weights(np.array([a]), np.array([b]), 0.1)
    print(f"  a = {a:5.2f}  wG = {w.wG[0]:.4f}  wH = {w.wH[0]:.4f}  "
          f"(a {'<' if a < b else '>'} b: weight leans on the smaller arg)")

# curvature identity: mG*mH - mGH^2 = lam^2 eps^2 / denom^4 > 0 whenever
# lam != 0, so the second-order block never loses rank from the smoothing
rng = np.random.default_rng(0)
G, H = rng.uniform(0.05, 2.0, 5), rng.uniform(0.05, 2.0, 5)
lam = rng.standard_normal(5)
eps = 0.05
denom = fb_weights(G, H, eps).denom       # sqrt(G^2 + H^2 + eps^2)
c = fb_curvature(G, H, lam, eps, denom)
lhs = c.mG * c.mH - c.mGH ** 2
rhs = lam ** 2 * eps ** 2 / denom ** 4
print("\ncurvature identity mG*mH - mGH^2 = (lam*eps)^2 / denom^4:")
print(f"  max abs deviation: {np.abs(lhs - rhs).max():.2e}")
