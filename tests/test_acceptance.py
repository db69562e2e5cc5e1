"""End-to-end acceptance checks. One criterion per test, one PASS/FAIL line each.

Each test states its tolerance and runtime budget inline; the budgets are
asserted, not advisory. Prints are visible under pytest -s and on failure.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from ghmlab.atlas_cli import main as cli_main
from ghmlab.attractor_classifier import ClassifyOptions, classify, sweep
from ghmlab.bifurcation_atlas import (
    curve_L_minus,
    curve_L_neutral,
    curve_L_phi,
    curve_L_plus,
    in_stability_domain,
    organizing_points,
)
from ghmlab.ghm_core import GhmParams, fixed_points, multipliers_at
from ghmlab.tangency_lab import (
    COEX_COEFFS,
    DEFAULT_COEFFS,
    DEFAULT_SPECTRUM,
    asymptotic_params,
    coexistence_search,
    fit_ghm,
    mount_window,
    tangency_jacobian,
    window_invert,
)


@contextmanager
def criterion(num: int, name: str, budget: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
        dt = time.perf_counter() - t0
        if budget is not None:
            assert dt < budget, f"runtime {dt:.1f}s exceeds the {budget:.0f}s budget"
    except BaseException:
        print(f"criterion {num:2d} ({name}): FAIL")
        raise
    print(f"criterion {num:2d} ({name}): PASS [{dt:.2f}s]")


def test_criterion_01_curve_multiplier_identity():
    # 1e3 random samples per curve, R in [-0.3, 0.3]; designated multiplier
    # within 1e-9 of +1 / -1 / e^{+-i omega}; neutral-curve product within
    # 1e-9 of 1; < 5 s
    with criterion(1, "curve-multiplier identity", 5.0):
        rng = np.random.default_rng(101)
        N = 1000
        for R, B in zip(rng.uniform(-0.3, 0.3, N), rng.uniform(-3, 3, N)):
            x = -(1.0 + B) / (2.0 * (1.0 + R))
            m1, m2 = multipliers_at(GhmParams(curve_L_plus(B, R), B, R), x)
            assert min(abs(m1 - 1.0), abs(m2 - 1.0)) < 1e-9
        for R, B in zip(rng.uniform(-0.3, 0.3, N), rng.uniform(-3, 3, N)):
            m1, m2 = multipliers_at(GhmParams(curve_L_minus(B, R), B, R), (1.0 + B) / 2.0)
            assert min(abs(m1 + 1.0), abs(m2 + 1.0)) < 1e-9
        for R, om in zip(rng.uniform(-0.3, 0.3, N), rng.uniform(1e-4, math.pi - 1e-4, N)):
            M, B = curve_L_phi(om, R)
            x = -2.0 * math.cos(om) / (2.0 + R)
            m1, m2 = multipliers_at(GhmParams(M, B, R), x)
            w = complex(math.cos(om), math.sin(om))
            assert abs(m1 - w) < 1e-9 and abs(m2 - w.conjugate()) < 1e-9
        for R, al in zip(rng.uniform(-0.3, 0.3, N), rng.uniform(1.0 + 1e-4, 3.0, N)):
            M, B = curve_L_neutral(al, R)
            m1, m2 = multipliers_at(GhmParams(M, B, R), -2.0 * al / (2.0 + R))
            assert abs(m1 * m2 - 1.0) < 1e-9


def test_criterion_02_organizing_points():
    # locations exact at R = 0; double multipliers certified to 1e-8 at R = +-0.1
    with criterion(2, "organizing points"):
        bt, ht = organizing_points(0.0)
        assert bt.location == (-1.0, 1.0)
        assert ht.location == (3.0, 1.0)
        for R in (-0.1, 0.1):
            bt, ht = organizing_points(R)
            m1, m2 = multipliers_at(GhmParams(bt.M, bt.B, R), -2.0 / (2.0 + R))
            assert abs(m1 - 1.0) < 1e-8 and abs(m2 - 1.0) < 1e-8
            m1, m2 = multipliers_at(GhmParams(ht.M, ht.B, R), 2.0 / (2.0 + R))
            assert abs(m1 + 1.0) < 1e-8 and abs(m2 + 1.0) < 1e-8


def test_criterion_03_one_dimensional_reduction():
    # bisection on multiplier crossings at B = 0, R = 0: saddle-node at
    # M = -0.25 +- 1e-9, period-doubling at M = 0.75 +- 1e-9; < 1 s
    with criterion(3, "1D reduction fold/flip detection", 1.0):

        def attracting_branch_multipliers(M: float):
            reports = fixed_points(GhmParams(M, 0.0, 0.0))
            if not reports:
                return None
            x = max(r.point.x for r in reports)  # the branch born attracting
            return multipliers_at(GhmParams(M, 0.0, 0.0), x)  # real: det = B = 0

        def bisect(f, lo, hi):
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if f(mid):
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)

        # fold: the +1 crossing is where the branch multiplier ceases to exist
        m_sn = bisect(lambda M: attracting_branch_multipliers(M) is None, 0.0, -1.0)
        assert abs(m_sn - (-0.25)) < 1e-9
        assert abs(m_sn - curve_L_plus(0.0, 0.0)) < 1e-9
        # flip: the leading real multiplier crosses -1
        m_pd = bisect(
            lambda M: min(m.real for m in attracting_branch_multipliers(M)) < -1.0,
            0.5,
            1.0,
        )
        assert abs(m_pd - 0.75) < 1e-9
        assert abs(m_pd - curve_L_minus(0.0, 0.0)) < 1e-9


def test_criterion_04_stability_domain_sweep():
    # 200x200 over M in [-2, 4], B in [-1.5, 1.5], R in {-0.05, 0, 0.05}:
    # >= 99% of cells with 0.02-margin inside D^s are Sink(1); 100% of cells
    # with M < L+(B,R) - 0.05 and |B| <= 1 are divergent; < 5 min
    with criterion(4, "stability-domain sweep", 300.0):
        offs = (-0.02, 0.0, 0.02)
        for R in (-0.05, 0.0, 0.05):
            grid = sweep(-2.0, 4.0, -1.5, 1.5, 200, 200, R)
            Ms = np.linspace(-2.0, 4.0, 200)
            Bs = np.linspace(-1.5, 1.5, 200)
            inside = outside_ok = sink1 = 0
            for j, B in enumerate(Bs):
                below_fold = Ms < curve_L_plus(float(B), R) - 0.05
                for i, M in enumerate(Ms):
                    cell = grid.cells[j * 200 + i]
                    if abs(B) <= 1.0 and below_fold[i]:
                        assert cell.verdict == "divergent", (float(M), float(B), R)
                        outside_ok += 1
                    margin = all(
                        in_stability_domain(GhmParams(float(M + dm), float(B + db), R))
                        for dm in offs
                        for db in offs
                    )
                    if margin:
                        inside += 1
                        if cell.verdict == "sink" and cell.period == 1:
                            sink1 += 1
            assert inside > 3000, "margin region unexpectedly small"
            assert outside_ok > 1000, "divergent region unexpectedly small"
            assert sink1 >= 0.99 * inside, f"R={R}: {sink1}/{inside} sink(1) cells"


def test_criterion_05_invariant_circle():
    # supercritical offset of the circle-birth point at omega = pi/3, R = 0.1:
    # verdict circle with invariance residual < 1e-3 of the mean radius; the
    # mirrored R = -0.1 point has no stable circle on either side; < 30 s
    with criterion(5, "invariant circle detection", 30.0):
        M0, B0 = curve_L_phi(math.pi / 3, 0.1)
        res = classify(GhmParams(M0 + 0.01, B0, 0.1))
        assert res.verdict == "circle"
        assert res.evidence["invariance_residual"] < 1e-3 * res.evidence["mean_radius"]
        M1, B1 = curve_L_phi(math.pi / 3, -0.1)
        for dm in (0.01, -0.01):
            mirror = classify(GhmParams(M1 + dm, B1, -0.1))
            assert mirror.verdict != "circle", (dm, mirror.verdict)


def test_criterion_06_rescaling_convergence():
    # window target (1, 0.5), n in {8, 12, 16}: sup-norm gap between fitted
    # and asymptotic parameters strictly decreasing, final gap < 0.1, and
    # sign(fitted R) = sign(J1) at every n; < 2 min
    with criterion(6, "rescaling convergence", 120.0):
        sp = DEFAULT_SPECTRUM
        j1 = tangency_jacobian(DEFAULT_COEFFS)
        target = (1.0, 0.5)
        deltas = []
        for n in (8, 12, 16):
            mu, phi = window_invert(sp, n, target)
            asym = asymptotic_params(sp, mu, phi, n, j1)
            fit = fit_ghm(mount_window(sp, DEFAULT_COEFFS, n, target))
            assert math.copysign(1.0, fit.R) == math.copysign(1.0, j1), n
            deltas.append(
                max(abs(fit.M - asym.M), abs(fit.B - asym.B), abs(fit.R - asym.R))
            )
        assert deltas[0] > deltas[1] > deltas[2], deltas
        assert deltas[2] < 0.1, deltas


def test_criterion_07_window_round_trip():
    # asymptotic_params o window_invert is the identity on (M, B) to 1e-12
    # for 1e3 random targets per n, drawn from (-10, 10)^2 minus the ball
    # |B| < 0.25 where the R-asymptotics refuse to evaluate; < 1 s
    with criterion(7, "window round trip", 1.0):
        sp = DEFAULT_SPECTRUM
        j1 = tangency_jacobian(DEFAULT_COEFFS)
        rng = np.random.default_rng(7)
        lg = sp.lam * sp.gamma
        for n in (5, 10, 20):
            b_cap = min(10.0, lg**n)  # |B| beyond (lam*gamma)^n is unreachable at n
            done = 0
            while done < 1000:
                M = rng.uniform(-10.0, 10.0)
                B = rng.uniform(-b_cap, b_cap)
                if abs(B) < 0.26:
                    continue
                mu, phi = window_invert(sp, n, (M, B))
                back = asymptotic_params(sp, mu, phi, n, j1)
                assert abs(back.M - M) <= 1e-12 * max(1.0, abs(M))
                assert abs(back.B - B) <= 1e-12 * max(1.0, abs(B))
                done += 1


def test_criterion_08_coexistence_search():
    # shipped defaults: n_sink = 10, n_circle = 14 over the default box must
    # return a verified sink + circle pair at one (mu, phi); < 10 min
    with criterion(8, "coexisting sink and circle", 600.0):
        log: list = []
        hit = coexistence_search(DEFAULT_SPECTRUM, COEX_COEFFS, 10, 14, probe_log=log)
        assert hit is not None, f"search empty after {len(log)} probes: {log}"
        assert hit.verdict_sink.verdict == "sink"
        assert hit.verdict_sink.period is not None
        assert hit.verdict_circle.verdict == "circle"
        assert hit.n_sink != hit.n_circle
        assert math.isfinite(hit.mu) and 0.0 < hit.phi < math.pi


def test_criterion_09_sweep_thread_determinism(tmp_path):
    # CLI sweep output is byte-identical across --threads 1 and --threads 8
    with criterion(9, "sweep thread determinism"):
        base = [
            "sweep", "--m-min", "-2", "--m-max", "4", "--b-min", "-1.5",
            "--b-max", "1.5", "--nx", "64", "--ny", "40",
        ]
        f1 = tmp_path / "t1.csv"
        f8 = tmp_path / "t8.csv"
        assert cli_main(base + ["--threads", "1", "--out", str(f1)]) == 0
        assert cli_main(base + ["--threads", "8", "--out", str(f8)]) == 0
        assert f1.read_bytes() == f8.read_bytes()


def test_criterion_10_chaotic_control_point():
    # classify(1.4, -0.3, 0) is chaotic with top exponent 0.419 +- 0.01 at
    # span 1e6; < 30 s
    with criterion(10, "chaotic control point", 30.0):
        res = classify(GhmParams(1.4, -0.3, 0.0), ClassifyOptions(span=1_000_000))
        assert res.verdict == "chaotic"
        assert abs(res.lyapunov[0] - 0.419) < 0.01
