import functools
import math
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from ghmlab import tangency_lab
from ghmlab.attractor_classifier import classify
from ghmlab.ghm_core import GhmParams
from ghmlab.tangency_lab import (
    COEX_COEFFS,
    CoexistenceBox,
    DEFAULT_COEFFS,
    DEFAULT_SPECTRUM,
    FitError,
    GlobalMapCoeffs,
    MAX_PHI_STEPS,
    ReturnMap,
    ReturnMapConfig,
    SIGMA_HALF_HEIGHT,
    SaddleSpectrum,
    U_ESCAPE,
    asymptotic_params,
    coexistence_search,
    fit_ghm,
    fit_ghm_series,
    global_map,
    local_map,
    mount_window,
    tangency_jacobian,
    window_invert,
    window_terms,
)


def _rot(t):
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def test_spectrum_gate_examples():
    SaddleSpectrum(0.7, 1.8)  # lam*gamma=1.26, lam^2*gamma=0.882
    with pytest.raises(ValueError):
        SaddleSpectrum(0.5, 1.9)  # lam*gamma < 1: tangencies not sticky
    with pytest.raises(ValueError):
        SaddleSpectrum(0.9, 1.5)  # lam^2*gamma > 1: area expansion
    # the gate is strict; both products exactly 1 are rejected
    with pytest.raises(ValueError):
        SaddleSpectrum(0.5, 2.0)  # lam*gamma = 1 exactly
    with pytest.raises(ValueError):
        SaddleSpectrum(0.5, 4.0)  # lam^2*gamma = 1 exactly
    with pytest.raises(ValueError):
        SaddleSpectrum(1.1, 1.8)


def test_spectrum_gate_random_triples():
    rng = np.random.default_rng(19)
    built = rejected = 0
    for _ in range(2000):
        lam = rng.uniform(0.3, 0.99)
        gam = rng.uniform(1.01, 3.0)
        ok = lam * gam > 1.0 > lam * lam * gam
        try:
            SaddleSpectrum(lam, gam)
            assert ok
            built += 1
        except ValueError:
            assert not ok
            rejected += 1
    assert built > 200 and rejected > 200


def test_local_map_hand_values():
    # the gate forbids lam*gamma = 1, so hand arithmetic uses a bare namespace
    sp = SimpleNamespace(lam=0.5, gamma=2.0)
    f = local_map(sp, math.pi / 2)
    s = f(1.0, 0.0, 0.001)
    assert abs(s[0]) < 1e-16 and abs(s[1] - 0.5) < 1e-16 and s[2] == 0.002
    s = f(*s)
    assert abs(s[0] + 0.25) < 1e-16 and abs(s[1]) < 1e-16 and s[2] == 0.004
    assert f(0.0, 0.0, 0.0) == (0.0, 0.0, 0.0)


def test_local_map_n_fold_contraction():
    f = local_map(DEFAULT_SPECTRUM, 0.9)
    x = (1.0, 0.0, 1e-6)
    for _ in range(12):
        x = f(*x)
    assert abs(math.hypot(x[0], x[1]) - DEFAULT_SPECTRUM.lam**12) < 1e-12
    assert abs(x[2] - 1e-6 * DEFAULT_SPECTRUM.gamma**12) < 1e-16


def test_global_map_hand_values():
    f = global_map(DEFAULT_COEFFS)
    s = f(0.0, 0.0, DEFAULT_COEFFS.y_minus)
    assert s == (0.3, 0.0, 0.0)  # tangency preimage lands on (x_plus, mu)
    f = global_map(replace(DEFAULT_COEFFS, mu=0.2))
    assert f(0.0, 0.0, DEFAULT_COEFFS.y_minus)[2] == 0.2
    # pure quadratic in the y-offset at x = 0
    w = 0.01
    s = f(0.0, 0.0, DEFAULT_COEFFS.y_minus + w)
    assert abs(s[2] - (0.2 + DEFAULT_COEFFS.d * w * w)) < 1e-16


def test_coeffs_validation():
    with pytest.raises(ValueError):
        GlobalMapCoeffs((0.3, 0.0), 0.5, ((1, 0), (0, 1)), (0.2, 0.1), (1.0, 0.3), 0.0)
    with pytest.raises(ValueError):
        GlobalMapCoeffs((0.3,), 0.5, ((1, 0), (0, 1)), (0.2, 0.1), (1.0, 0.3), 1.0)
    with pytest.raises(ValueError):
        GlobalMapCoeffs((0.3, 0.0), math.nan, ((1, 0), (0, 1)), (0.2, 0.1), (1.0, 0.3), 1.0)


def test_tangency_jacobian_against_finite_differences():
    # oracle: determinant of the numerical 3x3 differential of the global map
    # at the tangency preimage (0, 0, y_minus), where d(y')/dy vanishes
    for cf in (DEFAULT_COEFFS, COEX_COEFFS):
        f = global_map(cf)
        h = 1e-6
        base = (0.0, 0.0, cf.y_minus)
        J = np.empty((3, 3))
        for j in range(3):
            dp = list(base)
            dm = list(base)
            dp[j] += h
            dm[j] -= h
            sp, sm = f(*dp), f(*dm)
            J[:, j] = [(a - b) / (2 * h) for a, b in zip(sp, sm)]
        assert abs(np.linalg.det(J) - tangency_jacobian(cf)) < 1e-6
    assert tangency_jacobian(DEFAULT_COEFFS) < 0.0
    assert tangency_jacobian(COEX_COEFFS) > 0.0
    assert abs(tangency_jacobian(DEFAULT_COEFFS) + tangency_jacobian(COEX_COEFFS)) < 1e-15


def test_sigma_slices_scale_by_gamma():
    sp = DEFAULT_SPECTRUM
    for n in range(1, 20):
        a = ReturnMapConfig(sp, DEFAULT_COEFFS, n, 1.0)
        b = ReturnMapConfig(sp, DEFAULT_COEFFS, n + 1, 1.0)
        assert abs(a.sigma_center / b.sigma_center - sp.gamma) < 1e-12


def test_return_map_config_validation():
    with pytest.raises(ValueError):
        ReturnMapConfig(DEFAULT_SPECTRUM, DEFAULT_COEFFS, 0, 1.0)
    with pytest.raises(ValueError):
        ReturnMapConfig(DEFAULT_SPECTRUM, DEFAULT_COEFFS, 5, 0.0)


def test_return_map_is_global_after_n_local_steps():
    n, phi = 6, 0.9
    cf = replace(DEFAULT_COEFFS, mu=0.01)
    T = ReturnMap(ReturnMapConfig(DEFAULT_SPECTRUM, cf, n, phi))
    y0 = (cf.y_minus + 0.4 * SIGMA_HALF_HEIGHT) / T.gn  # w = 0.4 h
    X, w = T.step((0.05, -0.02), T.gn * y0 - cf.y_minus)
    s = (0.05, -0.02, y0)
    floc = local_map(DEFAULT_SPECTRUM, phi)
    for _ in range(n):
        s = floc(*s)
    want = global_map(cf)(*s)
    assert max(abs(X[0] - want[0]), abs(X[1] - want[1])) < 1e-12
    assert abs((w + cf.y_minus) / T.gn - want[2]) < 1e-12


def test_return_map_step_is_batched_in_exit_box_coordinates():
    # step() maps (x, w = gamma^n y - y_minus) column by column; local_map o
    # global_map is the oracle
    n, phi = 7, 1.1
    cf = replace(DEFAULT_COEFFS, mu=-0.003)
    cfg = ReturnMapConfig(DEFAULT_SPECTRUM, cf, n, phi)
    T = ReturnMap(cfg)
    rng = np.random.default_rng(3)
    X = rng.uniform(-0.1, 0.1, (2, 6))
    y = cfg.sigma_center + rng.uniform(-1.0, 1.0, 6) * SIGMA_HALF_HEIGHT / T.gn
    Xn, wn = T.step(X, T.gn * y - cf.y_minus)
    floc, fglob = local_map(DEFAULT_SPECTRUM, phi), global_map(cf)
    for i in range(6):
        s = (X[0, i], X[1, i], y[i])
        for _ in range(n):
            s = floc(*s)
        want = fglob(*s)
        assert max(abs(Xn[0][i] - want[0]), abs(Xn[1][i] - want[1])) < 1e-12
        assert abs(wn[i] - (T.gn * want[2] - cf.y_minus)) < 1e-12


def test_window_terms_mu0_centres_the_critical_fixed_point():
    # at mu = mu0_n the constant-w manifold point at the slice centre is an
    # exact fixed point of T_n: the quadratic term vanishes and the x-part is
    # the resolvent fixed point by construction
    sp, cf = DEFAULT_SPECTRUM, DEFAULT_COEFFS
    for n, phi in ((4, 1.3), (8, 0.7), (12, 2.1)):
        mu0 = window_terms(sp, cf, n, phi)[1]
        cfg = ReturnMapConfig(sp, replace(cf, mu=mu0), n, phi)
        T = ReturnMap(cfg)
        xc = np.linalg.solve(np.eye(2) - sp.lam**n * (cf.A @ _rot(n * phi)), cf.x_plus)
        X, w = T.step(xc, T.gn * cfg.sigma_center - cf.y_minus)
        assert abs(X[0] - xc[0]) < 1e-12
        assert abs(X[1] - xc[1]) < 1e-12
        assert abs(w) < 1e-12  # the slice centre


def test_window_invert_round_trip():
    sp = DEFAULT_SPECTRUM
    lg = sp.lam * sp.gamma
    rng = np.random.default_rng(23)
    for n in (5, 10, 20):
        b_cap = min(10.0, lg**n)
        done = 0
        while done < 300:
            M = rng.uniform(-10.0, 10.0)
            B = rng.uniform(-b_cap, b_cap)
            if math.hypot(M, B) < 0.25:
                continue
            mu, phi = window_invert(sp, n, (M, B))
            assert 0.0 <= n * phi <= math.pi  # branch nearest pi/2
            M_back = sp.gamma ** (2 * n) * mu
            B_back = lg**n * math.cos(n * phi)
            assert abs(M_back - M) < 1e-12 * max(1.0, abs(M))
            assert abs(B_back - B) < 1e-12 * max(1.0, abs(B))
            done += 1


def test_window_invert_rejections():
    sp = DEFAULT_SPECTRUM
    with pytest.raises(ValueError):
        window_invert(sp, 0, (1.0, 0.5))
    with pytest.raises(ValueError):
        window_invert(sp, 5, (10.5, 0.5))
    with pytest.raises(ValueError):
        window_invert(sp, 5, (0.1, 0.05))  # inside the excluded ball
    with pytest.raises(ValueError):
        window_invert(sp, 5, (1.0, 4.0))  # above (lam*gamma)^5 = 3.18
    # past n ~ 80 the round trip misses (1, 0.5) by more than ROUND_TRIP_TOL,
    # and so does mount_window, which shares the check
    window_invert(sp, 80, (1.0, 0.5))
    with pytest.raises(ValueError, match="round trip"):
        window_invert(sp, 100, (1.0, 0.5))
    with pytest.raises(ValueError, match="round trip"):
        mount_window(sp, DEFAULT_COEFFS, 100, (1.0, 0.5))


def test_asymptotic_params_formulas_and_exclusion():
    sp = DEFAULT_SPECTRUM
    j1 = tangency_jacobian(DEFAULT_COEFFS)
    n, mu, phi = 9, 1e-4, 0.31
    ap = asymptotic_params(sp, mu, phi, n, j1)
    assert type(ap) is GhmParams
    assert abs(ap.M - sp.gamma ** (2 * n) * mu) < 1e-15 * abs(ap.M)
    B = (sp.lam * sp.gamma) ** n * math.cos(n * phi)
    assert abs(ap.B - B) < 1e-15
    assert abs(ap.R - 2.0 * j1 * (sp.lam**2 * sp.gamma) ** n / B) < 1e-15
    # cos(n phi) ~ 0 puts B inside the excluded ball
    with pytest.raises(ValueError):
        asymptotic_params(sp, mu, math.pi / (2 * n), n, j1)


def test_fit_series_recovers_exact_quadratic_data():
    # y-series of a chaotic orbit obeys the delay recursion exactly
    M, B, R = 1.4, -0.3, 0.0
    u = [0.1, 0.1]
    for _ in range(600):
        u.append(M - B * u[-2] - u[-1] ** 2 - R * u[-2] * u[-1])
    fit = fit_ghm_series(u[200:])
    assert type(fit) is GhmParams
    # to roundoff: the data leave the regression no residual
    assert max(abs(fit.M - M), abs(fit.B - B), abs(fit.R - R)) < 1e-12


def test_fit_series_rejections():
    with pytest.raises(ValueError):
        fit_ghm_series(np.zeros(51))
    with pytest.raises(ValueError):
        fit_ghm_series([0.1] * 60 + [math.nan] * 10)
    with pytest.raises(FitError):
        fit_ghm_series(np.full(100, 0.25))  # no excitation
    with pytest.raises(FitError):
        fit_ghm_series(np.tile([0.0, 1.0], 50))  # 2-cycle: rank-deficient design
    with pytest.raises(FitError, match="rank-deficient"):
        fit_ghm_series(np.tile([0.0, 1.0, 0.5], 40))  # 3-cycle: three distinct delay pairs


def _planar_series(M, B, R, x, y, length):
    u = [x, y]
    while len(u) < length:
        x, y = y, M - B * x - y * y - R * x * y
        u.append(y)
    return u


# a bounded sink orbit whose delay design is ill-conditioned enough that
# unrefined normal equations miss (M, B, R) by about 1.5e-7
ILL_CONDITIONED = ((1.3889640929197182, 0.4081484175652267, -0.08870468757446358),
                   (0.7837873868112526, 0.5837873868112526))


def test_fit_series_refines_its_normal_equations():
    (M, B, R), (x, y) = ILL_CONDITIONED
    fit = fit_ghm_series(_planar_series(M, B, R, x, y, 120))
    assert max(abs(fit.M - M), abs(fit.B - B), abs(fit.R - R)) < 1e-9


def _lstsq_fit(u0, u1, u2):
    """(M, B, R) of _fit_triples by an SVD least-squares solve: the reference."""
    pool = np.concatenate([u0, u1, u2])
    m0, s0 = pool.mean(), pool.std()
    z0, z1, z2 = (u0 - m0) / s0, (u1 - m0) / s0, (u2 - m0) / s0
    X = np.column_stack([np.ones_like(z0), z0, z1, z1 * z1, z0 * z1, z0 * z0])
    a0, a1, a2, q, r, p = np.linalg.lstsq(X, z2, rcond=None)[0]
    y_c = -a2 / (2.0 * q + r)
    return (-q * (a0 + (a1 + a2) * y_c + (q + r + p) * y_c * y_c - y_c),
            -(a1 + (r + 2.0 * p) * y_c), r / q + 2.0 * p / q)


def test_fit_triples_matches_an_lstsq_reference(monkeypatch):
    seen = []
    fit_triples = tangency_lab._fit_triples

    def capture(u0, u1, u2):
        fit = fit_triples(u0, u1, u2)
        seen.append(((u0, u1, u2), (fit.M, fit.B, fit.R)))
        return fit

    monkeypatch.setattr(tangency_lab, "_fit_triples", capture)
    sp, cf = DEFAULT_SPECTRUM, DEFAULT_COEFFS
    tangency_lab.fit_ghm_windows([mount_window(sp, cf, n, (1.0, 0.5)) for n in range(6, 19)])
    assert len(seen) == 13
    tangency_lab.fit_exact_map(GhmParams(1.0, 0.5, -0.1))
    (M, B, R), (x, y) = ILL_CONDITIONED
    fit_ghm_series(_planar_series(M, B, R, x, y, 120))
    for triples, fit in seen:
        assert np.max(np.abs(np.subtract(fit, _lstsq_fit(*triples)))) < 1e-10


def test_mounted_window_fit_lands_near_target():
    sp = DEFAULT_SPECTRUM
    tgt = (1.0, 0.5)
    cfg = mount_window(sp, DEFAULT_COEFFS, 12, tgt)
    fit = fit_ghm(cfg)
    assert type(fit) is GhmParams
    assert abs(fit.M - tgt[0]) < 0.2
    assert abs(fit.B - tgt[1]) < 0.2
    assert fit.R < 0.0  # sign of R follows J1 < 0
    cfg = mount_window(sp, COEX_COEFFS, 12, tgt)
    assert fit_ghm(cfg).R > 0.0  # flipped c flips J1


def test_mounted_window_carries_long_orbits():
    # target with an attracting fixed point: the T_n orbit must stay inside
    # sigma_n (|w| <= h) on each of 1000 returns
    sp = DEFAULT_SPECTRUM
    cfg = mount_window(sp, DEFAULT_COEFFS, 8, (0.0, 0.5))
    T = ReturnMap(cfg)
    X = np.linalg.solve(np.eye(2) - sp.lam**cfg.n * (cfg.coeffs.A @ _rot(cfg.n * cfg.phi)),
                        cfg.coeffs.x_plus)
    # offset the seed in rescaled units: u = -d gamma^n w, and the focus at
    # u = 0 only owns an O(1) basin there
    w = 0.1 / (cfg.coeffs.d * sp.gamma**cfg.n)
    for _ in range(1000):
        X, w = T.step(X, w)
        assert abs(w) <= SIGMA_HALF_HEIGHT


def test_fit_ghm_error_paths():
    # far past the stability domain every seed orbit escapes within the discard
    cfg = mount_window(DEFAULT_SPECTRUM, DEFAULT_COEFFS, 8, (5.0, 0.5))
    with pytest.raises(FitError, match="every sample orbit left the return window before the discard ended"):
        fit_ghm(cfg)
    # at (1.9615, -0.877) a few orbits stay long enough, but too few triples remain
    cfg = mount_window(DEFAULT_SPECTRUM, DEFAULT_COEFFS, 8, (1.9615, -0.877))
    with pytest.raises(FitError, match=r"^only 146 in-window sample triples; need at least 200$"):
        fit_ghm(cfg)


@pytest.mark.parametrize("n, target", [
    (16, (0.7165502745803594, -0.8702782177955612)),  # an orbit leaves through |u| > U_ESCAPE
    (6, (1.3281092259921414, -0.48709887120629125)),  # one leaves sigma_n with |u| = 12.9
])
def test_fit_ghm_fits_only_in_window_returns(monkeypatch, n, target):
    # in both windows one seed orbit leaves on exactly its last return; its
    # exit value must not reach the regression
    seen = []
    fit_triples = tangency_lab._fit_triples

    def capture(u0, u1, u2):
        seen.extend((u0, u1, u2))
        return fit_triples(u0, u1, u2)

    monkeypatch.setattr(tangency_lab, "_fit_triples", capture)
    cfg = mount_window(DEFAULT_SPECTRUM, DEFAULT_COEFFS, n, target)
    fit_ghm(cfg)
    u = np.concatenate(seen)
    assert len(seen) == 3 and len(u) > 0
    assert np.all(np.abs(u) <= U_ESCAPE)
    assert np.all(np.abs(u) / (cfg.coeffs.d * cfg.spectrum.gamma**n) <= SIGMA_HALF_HEIGHT)


def test_fit_ghm_windows_is_fit_ghm_per_window():
    # one batch of windows at n = 6, 12 and 18, one whose every orbit leaves
    # before the discard ends and one with too few triples; each window's
    # result is the bits fit_ghm gives it alone
    sp, cf = DEFAULT_SPECTRUM, DEFAULT_COEFFS
    configs = [mount_window(sp, cf, n, target) for n, target in (
        (6, (1.0, 0.5)),
        (8, (5.0, 0.5)),
        (12, (0.7, -0.6)),
        (8, (1.9615, -0.877)),
        (18, (1.2, 0.8)),
    )]

    def alone(cfg):
        try:
            return fit_ghm(cfg)
        except FitError as err:
            return err

    for batch in (configs, configs[::-1]):
        fits = tangency_lab.fit_ghm_windows(batch)
        assert len(fits) == len(batch)
        for cfg, fit in zip(batch, fits):
            ref = alone(cfg)
            if isinstance(ref, FitError):
                assert type(fit) is FitError and str(fit) == str(ref)
            else:
                got, want = (np.array([f.M, f.B, f.R]).tobytes() for f in (fit, ref))
                assert got == want
    kinds = [type(f).__name__ for f in tangency_lab.fit_ghm_windows(configs)]
    assert kinds == ["GhmParams", "FitError", "GhmParams", "FitError", "GhmParams"]
    assert tangency_lab.fit_ghm_windows([]) == []


def test_window_r_is_inf_at_B_zero():
    j1 = tangency_jacobian(DEFAULT_COEFFS)
    B = np.array([-0.6, 0.0, 0.5, 1e-300])
    R = tangency_lab._window_r(DEFAULT_SPECTRUM, j1, 10, B)
    assert R[1] == math.inf and np.all(np.isfinite(R[[0, 2]]))
    for b, r in zip(B, R):
        assert tangency_lab._window_r(DEFAULT_SPECTRUM, j1, 10, float(b)) == r
    mu, phi = window_invert(DEFAULT_SPECTRUM, 10, (1.0, -0.6))
    asym = asymptotic_params(DEFAULT_SPECTRUM, mu, phi, 10, j1)
    assert asym.R == 2.0 * j1 * (DEFAULT_SPECTRUM.lam**2 * DEFAULT_SPECTRUM.gamma) ** 10 / asym.B


def test_dead_orbits_do_not_touch_live_ones():
    cfg = mount_window(DEFAULT_SPECTRUM, DEFAULT_COEFFS, 8, (1.0, 0.5))
    T = ReturnMap(cfg)
    X, w = tangency_lab._manifold_seed(T, *tangency_lab._delay_grid())
    assert len(w) == 205
    dead = np.arange(3, 200, 20)
    assert len(dead) == 10
    X2, w2 = X.copy(), w.copy()
    X2[:, dead], w2[dead] = 1e3, 0.2  # leaves at the first return, then overflows
    U = tangency_lab._run_return_orbits(T, X, w, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        U2 = tangency_lab._run_return_orbits(T, X2, w2, 64)
    live = np.setdiff1d(np.arange(205), dead)
    assert np.array_equal(U2[live], U[live], equal_nan=True)
    assert np.all(np.isnan(U2[dead, 1:]))


@pytest.mark.parametrize("n, target", [
    (8, (1.0, 0.5)),
    (12, (0.7, -0.6)),
    (16, (1.2, 0.8)),  # a last-bit difference grows to 0.1 in u here within 64 returns
    (6, (0.3, 0.4)),
])
def test_each_return_orbit_alone_is_its_batch_row(n, target):
    T = ReturnMap(mount_window(DEFAULT_SPECTRUM, DEFAULT_COEFFS, n, target))
    up, un = tangency_lab._delay_grid()
    U = tangency_lab._run_return_orbits(T, *tangency_lab._manifold_seed(T, up, un), 64)
    for i in range(len(up)):
        seed = tangency_lab._manifold_seed(T, up[i:i + 1], un[i:i + 1])
        alone = tangency_lab._run_return_orbits(T, *seed, 64)
        assert np.array_equal(alone[0], U[i], equal_nan=True), i


def test_orbit_tail_is_its_row_in_a_delay_grid_batch():
    # the one-orbit checks of coexistence_search seed at u_prev = u_now = 0
    cfg = mount_window(DEFAULT_SPECTRUM, DEFAULT_COEFFS, 8, (0.0, 0.5))
    T = ReturnMap(cfg)
    up, un = (np.append(u, 0.0) for u in tangency_lab._delay_grid())
    U = tangency_lab._run_return_orbits(T, *tangency_lab._manifold_seed(T, up, un), 400)
    tail = tangency_lab._orbit_tail(cfg, 400, 20)
    assert tail is not None
    assert np.array_equal(tail, U[-1, -20:])


def test_window_terms_over_a_phi_array_is_its_scalar_calls():
    phis = np.linspace(0.05, math.pi - 0.05, 257)
    for cf in (DEFAULT_COEFFS, COEX_COEFFS):
        for n in (4, 10, 14):
            B, mu0 = window_terms(DEFAULT_SPECTRUM, cf, n, phis)
            assert B.shape == mu0.shape == phis.shape
            for phi, b, m in zip(phis, B, mu0):
                assert window_terms(DEFAULT_SPECTRUM, cf, n, float(phi)) == (b, m)


def test_coexistence_search_smoke():
    log: list = []
    hit = coexistence_search(DEFAULT_SPECTRUM, COEX_COEFFS, 10, 14, probe_log=log)
    assert hit is not None
    assert (hit.n_sink, hit.n_circle) == (10, 14)
    assert hit.verdict_sink.verdict == "sink"
    assert hit.verdict_circle.verdict == "circle"
    assert type(hit.fit_sink) is type(hit.fit_circle) is GhmParams
    # slices are gamma^(nc - ns) apart
    ratio = hit.sigma_center_sink / hit.sigma_center_circle
    assert abs(ratio - DEFAULT_SPECTRUM.gamma**4) < 1e-12 * ratio
    assert len(log) >= 1
    with pytest.raises(ValueError):
        coexistence_search(DEFAULT_SPECTRUM, COEX_COEFFS, 10, 10)
    CoexistenceBox(phi_steps=MAX_PHI_STEPS)
    with pytest.raises(ValueError):
        CoexistenceBox(phi_steps=MAX_PHI_STEPS + 1)
    # phi is scanned upwards inside (0, pi), where ReturnMapConfig takes it
    for lo, hi in ((3.0, 0.1), (0.0, 1.0), (0.1, math.pi), (math.nan, 1.0), (0.1, 1e308)):
        with pytest.raises(ValueError):
            CoexistenceBox(phi_lo=lo, phi_hi=hi)


def test_coexist_classifies_as_every_command(monkeypatch):
    # coexistence_search passes classify no options, and classify at its
    # defaults calls the default hit's circle window a circle, with the
    # bits the hit carries
    calls = []

    def spy(*args, **kwargs):
        calls.append((len(args), kwargs))
        return classify(*args, **kwargs)

    monkeypatch.setattr(tangency_lab, "classify", spy)
    hit = coexistence_search(DEFAULT_SPECTRUM, COEX_COEFFS, 10, 14)
    assert calls and all(c == (1, {}) for c in calls)
    p = hit.fit_circle
    assert p == GhmParams(0.9152828148684595, 0.9747767432640783, 0.06756142906628339)
    res = classify(p)
    assert res.verdict == "circle"
    assert repr((res, res.evidence)) == repr((hit.verdict_circle, hit.verdict_circle.evidence))


@pytest.mark.parametrize("lo, hi, steps", [
    (0.05, math.pi - 0.05, n) for n in (1, 2, 8191, 8192, 8193, 160_000)
] + [(1.25, 1.25, 1), (1.25, 1.25, 8193), (0.3, 0.3000000000000001, 10_000)])
def test_phi_chunks_are_linspace_bit_for_bit(lo, hi, steps):
    box = CoexistenceBox(phi_lo=lo, phi_hi=hi, phi_steps=steps)
    chunks = list(tangency_lab._phi_chunks(box))
    assert max(len(c) for c in chunks) <= tangency_lab._PHI_CHUNK
    assert np.concatenate(chunks).tobytes() == np.linspace(lo, hi, steps).tobytes()


@pytest.mark.parametrize("n_sink, n_circle, box, probes, found", [
    (10, 14, CoexistenceBox(), 20, True),
    (6, 7, CoexistenceBox(phi_steps=50_001, lphi_band_margin=1.0, b_circle_lo=0.9,
                          b_circle_hi=1.1, m_sink_max=2.0), 1065, False),
])
def test_coexistence_scan_does_not_depend_on_chunk_size(monkeypatch, n_sink, n_circle, box,
                                                        probes, found):
    # fit_ghm and classify are deterministic, so each distinct call runs once;
    # every config here differs from the others only in n, phi and mu
    fits = {}

    def fit_once(cfg):
        key = (cfg.n, cfg.phi, cfg.coeffs.mu)
        if key not in fits:
            try:
                fits[key] = fit_ghm(cfg)
            except (FitError, ValueError) as err:
                fits[key] = err
        if isinstance(fits[key], Exception):
            raise fits[key]
        return fits[key]

    monkeypatch.setattr(tangency_lab, "fit_ghm", fit_once)
    monkeypatch.setattr(tangency_lab, "classify", functools.cache(tangency_lab.classify))
    runs = []
    for chunk in (7, 8192, 10**9):  # 10**9: the whole grid in one chunk
        monkeypatch.setattr(tangency_lab, "_PHI_CHUNK", chunk)
        log: list = []
        hit = coexistence_search(DEFAULT_SPECTRUM, COEX_COEFFS, n_sink, n_circle, box, probe_log=log)
        assert len(log) == probes and (hit is not None) == found
        runs.append((repr(log), hit, repr(None if hit is None else hit.evidence)))
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_coexistence_scan_memory_does_not_grow_with_phi_steps(monkeypatch):
    def refuse(config):
        raise FitError("stub: every probe is rejected")

    monkeypatch.setattr(tangency_lab, "fit_ghm", refuse)
    log: list = []
    tracemalloc.start()
    try:
        hit = coexistence_search(DEFAULT_SPECTRUM, COEX_COEFFS, 10, 14,
                                 CoexistenceBox(phi_steps=10**6), probe_log=log)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hit is None and len(log) > 0
    assert peak < 4 * 2**20  # a whole phi grid alone would be 8 MB
