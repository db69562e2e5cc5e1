"""Two attractors from one parameter: a sink window and a circle window.

The same (mu, phi) is pushed through two return indices. At n = 10 the
window lands deep in the stability domain (a sink); at n = 14 it lands just
past the circle-birth curve with R > 0 (a stable invariant circle). The two
sigma slices are disjoint: their centres differ by the factor gamma^4.
"""

from dataclasses import replace

from ghmlab import (
    COEX_COEFFS,
    DEFAULT_SPECTRUM,
    ReturnMap,
    ReturnMapConfig,
    coexistence_search,
)
from ghmlab.tangency_lab import SIGMA_HALF_HEIGHT, _orbit_tail

log: list = []
hit = coexistence_search(DEFAULT_SPECTRUM, COEX_COEFFS, 10, 14, probe_log=log)
assert hit is not None, f"no hit; {len(log)} probes rejected"

print(f"hit after {len(log)} probe(s): mu = {hit.mu:.12e}, phi = {hit.phi:.12f}\n")
for tag, fit, v in (
    ("sink  (n=10)", hit.fit_sink, hit.verdict_sink),
    ("circle(n=14)", hit.fit_circle, hit.verdict_circle),
):
    extra = f", period {v.period}" if v.period else ""
    if v.rotation_number is not None:
        extra += f", rotation {v.rotation_number:.4f}"
    print(f"{tag}: fitted (M, B, R) = ({fit.M:+.4f}, {fit.B:+.4f}, {fit.R:+.5f})"
          f" -> {v.verdict}{extra}")

ratio = hit.sigma_center_sink / hit.sigma_center_circle
print(f"\nsigma centres: {hit.sigma_center_sink:.6e} vs {hit.sigma_center_circle:.6e} "
      f"(ratio {ratio:.4f} = gamma^4 = {DEFAULT_SPECTRUM.gamma ** 4:.4f})")

# drive both return maps directly at the winning parameter, from the seed
# the direct orbit checks of coexistence_search use: on the manifold at u = 0
sp = DEFAULT_SPECTRUM
cf = replace(COEX_COEFFS, mu=hit.mu)
for n, label in ((10, "sink"), (14, "circle")):
    cfg = ReturnMapConfig(sp, cf, n, hit.phi)
    tail = _orbit_tail(cfg, 400, 60)
    assert tail is not None, f"T_{n} orbit left sigma_{n}"
    # u = -d gamma^n w and w = gamma^n y - y_minus, so the half-width
    # h gamma^-n of sigma_n in y is |d| gamma^n h in u
    spread = (tail.max() - tail.min()) / (abs(cf.d) * ReturnMap(cfg).gn * SIGMA_HALF_HEIGHT)
    print(f"T_{n} ({label}): 400 returns stay in sigma_{n}; "
          f"tail spread {spread:.3e} of the half-width")
