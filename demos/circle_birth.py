"""Cross the circle-birth curve and watch the invariant circle appear.

At omega = pi/3 and R = 0.1 the fixed point sheds a stable invariant circle
as M passes the curve; the radius grows like sqrt(M - M_birth) and the
rotation number starts at omega / 2pi = 1/6. The mirrored cross term
R = -0.1 flips the cubic coefficient sign: no stable circle there.

The residual/radius column is the circle test's invariance residual: the
largest distance from a vertex's image to the 1024-bin polygon, over the
mean radius. It reads about 2.6e-5 here, far under the 1e-3 bar, and is
mostly the polygon's own chord error (it read about 4e-4 at 256 bins).

The sinks printed at dM = -0.01 (R = 0.1) and dM = +0.01 (R = -0.1) have
multipliers of modulus about 0.9995. With the default options classify
reports them undecided, with both exponents negative: the period scan after
the 10 000-step burn-in comes before the orbit has settled on the fixed
point. ClassifyOptions(burn_in=40_000) reports them as sinks.
"""

import math

from ghmlab import GhmParams, classify, curve_L_phi

OMEGA = math.pi / 3

M0, B0 = curve_L_phi(OMEGA, 0.1)
print(f"birth point: M = {M0:.6f}, B = {B0:.6f}, predicted rotation {OMEGA / (2 * math.pi):.6f}")
print("\n    dM     verdict     rotation    radius      residual/radius")
for dm in (-0.01, 0.002, 0.005, 0.01, 0.02, 0.04):
    res = classify(GhmParams(M0 + dm, B0, 0.1))
    if res.verdict == "circle":
        rad = res.evidence["mean_radius"]
        rel = res.evidence["invariance_residual"] / rad
        print(f"{dm:+7.3f}   {res.verdict:<9}  {res.rotation_number:.6f}   {rad:.6f}    {rel:.2e}")
    else:
        print(f"{dm:+7.3f}   {res.verdict:<9}")

# radius scaling: radius^2 / dM should be roughly constant past birth
print("\nradius^2 / dM:")
for dm in (0.005, 0.01, 0.02, 0.04):
    res = classify(GhmParams(M0 + dm, B0, 0.1))
    if res.verdict == "circle":
        print(f"  dM = {dm:.3f}: {res.evidence['mean_radius'] ** 2 / dm:.4f}")

M1, B1 = curve_L_phi(OMEGA, -0.1)
print(f"\nmirror at R = -0.1 (birth point M = {M1:.6f}, B = {B1:.6f}):")
for dm in (-0.01, 0.01):
    res = classify(GhmParams(M1 + dm, B1, -0.1))
    print(f"{dm:+7.3f}   {res.verdict}")
