import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ghmlab.bifurcation_atlas import (
    CURVE_IDS,
    MAX_SAMPLES,
    CurveSample,
    curve_L_minus,
    curve_L_neutral,
    curve_L_phi,
    curve_L_plus,
    designated_fixed_point,
    in_stability_domain,
    lphi_band,
    lphi_m,
    organizing_points,
    trace_curves,
    validate_sample,
)
from ghmlab.ghm_core import GhmParams, fixed_points, multipliers_at


def test_curve_hand_values():
    assert curve_L_plus(0.0, 0.0) == -0.25
    assert curve_L_minus(0.0, 0.0) == 0.75
    assert curve_L_plus(-1.0, 0.3) == 0.0
    assert curve_L_minus(-1.0, 0.3) == 0.0
    M, B = curve_L_phi(math.pi / 2, 0.0)
    assert abs(M) < 1e-15 and B == 1.0
    M, B = curve_L_phi(math.pi / 3, 0.0)  # c = 1/2: M = (1/4 - 1)/1 = -3/4
    assert abs(M + 0.75) < 1e-15 and B == 1.0
    M, B = curve_L_neutral(2.0, 0.0)
    assert M == 0.0 and B == 1.0  # c^2 - 2c = 0 at c = 2


def test_curve_domain_errors():
    with pytest.raises(ValueError):
        curve_L_plus(0.0, -1.0)
    with pytest.raises(ValueError):
        curve_L_phi(0.0, 0.0)
    with pytest.raises(ValueError):
        curve_L_phi(math.pi, 0.0)
    with pytest.raises(ValueError):
        curve_L_phi(1.0, -2.0)
    with pytest.raises(ValueError):
        curve_L_neutral(1.0, 0.0)
    with pytest.raises(ValueError):
        curve_L_neutral(0.5, 0.0)
    with pytest.raises(ValueError):
        curve_L_neutral(2.0, -2.0)
    with pytest.raises(ValueError):
        organizing_points(-2.0)


def test_designated_point_is_a_fixed_point():
    # the x returned for a curve sample must solve (1+R)x^2 + (1+B)x - M = 0
    for R in (-0.3, -0.1, 0.0, 0.1, 0.3):
        for s in trace_curves(R, 40):
            x = designated_fixed_point(s)
            res = (1.0 + R) * x * x + (1.0 + s.B) * x - s.M
            assert abs(res) < 1e-10 * max(1.0, abs(s.M), x * x)


def test_multiplier_identities_against_jacobian():
    # oracle: multipliers from the Jacobian eigenvalues, not the trace/det
    # shortcuts used inside validate_sample
    for R in (-0.2, 0.0, 0.25):
        for s in trace_curves(R, 25):
            x = designated_fixed_point(s)
            m1, m2 = multipliers_at(GhmParams(s.M, s.B, s.R), x)
            if s.curve_id == "Lplus":
                assert min(abs(m1 - 1.0), abs(m2 - 1.0)) < 1e-9
            elif s.curve_id == "Lminus":
                assert min(abs(m1 + 1.0), abs(m2 + 1.0)) < 1e-9
            elif s.curve_id == "Lphi":
                w = complex(math.cos(s.parameter), math.sin(s.parameter))
                assert abs(m1 - w) < 1e-9
                assert abs(m2 - w.conjugate()) < 1e-9
            else:
                al = s.parameter
                assert abs(m1 - (al + math.sqrt(al * al - 1.0))) < 1e-9 * al
                assert abs(m1 * m2 - 1.0) < 1e-9


def test_validate_sample_accepts_traced_curves():
    for R in (-0.3, 0.0, 0.3):
        for s in trace_curves(R, 50):
            validate_sample(s)


def test_validate_sample_rejects_corruption():
    s = trace_curves(0.0, 10)[3]
    bad = CurveSample(s.curve_id, s.parameter, s.M + 1e-6, s.B, s.R)
    with pytest.raises(AssertionError):
        validate_sample(bad)
    with pytest.raises(ValueError):
        validate_sample(CurveSample("Lfold", 0.0, 0.0, 0.0, 0.0))


def test_validate_sample_holds_fold_and_flip_parameters_to_B():
    # the fold and flip curves are parametrized by B itself, so a sample whose
    # parameter is not its B fails, though its M, B and R lie on the curve
    for s in trace_curves(0.1, 5):
        if s.curve_id in ("Lplus", "Lminus"):
            validate_sample(s)
            with pytest.raises(AssertionError):
                validate_sample(CurveSample(s.curve_id, s.parameter + 0.5, s.M, s.B, s.R))


def test_validate_sample_rejects_under_python_O():
    # python -O strips assert statements; the check must not depend on them
    code = ("from ghmlab.bifurcation_atlas import CurveSample, validate_sample\n"
            "try:\n    validate_sample(CurveSample('Lplus', 0.0, 123.0, 0.0, 0.0))\n"
            "except AssertionError:\n    print('rejected')")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout.strip() == "rejected", out.stderr


def test_organizing_points_at_R_zero_exact():
    bt, ht = organizing_points(0.0)
    assert (bt.kind, ht.kind) == ("BT", "HT")
    assert bt.location == (-1.0, 1.0)
    assert ht.location == (3.0, 1.0)
    assert bt.R == ht.R == 0.0


def test_organizing_points_carry_double_multipliers():
    # at BT both multipliers are +1, at HT both are -1; the fixed point is
    # the omega -> 0 / omega -> pi limit of the circle-birth family
    for R in (-0.1, 0.0, 0.1):
        bt, ht = organizing_points(R)
        x_bt = -2.0 / (2.0 + R)
        m1, m2 = multipliers_at(GhmParams(bt.M, bt.B, R), x_bt)
        assert abs(m1 - 1.0) < 1e-8 and abs(m2 - 1.0) < 1e-8
        x_ht = 2.0 / (2.0 + R)
        m1, m2 = multipliers_at(GhmParams(ht.M, ht.B, R), x_ht)
        assert abs(m1 + 1.0) < 1e-8 and abs(m2 + 1.0) < 1e-8


def test_organizing_points_terminate_circle_curve():
    bt, ht = organizing_points(0.1)
    M0, B0 = curve_L_phi(1e-8, 0.1)
    assert abs(M0 - bt.M) < 1e-12 and abs(B0 - bt.B) < 1e-12
    M1, B1 = curve_L_phi(math.pi - 1e-8, 0.1)
    assert abs(M1 - ht.M) < 1e-12 and abs(B1 - ht.B) < 1e-12


def test_organizing_points_sit_on_fold_and_flip():
    for R in (-0.25, 0.0, 0.4):
        bt, ht = organizing_points(R)
        assert abs(bt.M - curve_L_plus(bt.B, R)) < 1e-12 * max(1.0, abs(bt.M))
        assert abs(ht.M - curve_L_minus(ht.B, R)) < 1e-12 * max(1.0, abs(ht.M))


def test_stability_domain_strip_between_fold_and_flip():
    # for |B| well below 1 the attracting region in M is exactly the open
    # fold-flip strip; the circle-birth curve lives near B = 1 and cannot
    # interfere (its B-range is 1 +- |R|/(1+R/2))
    for R in (-0.1, 0.0, 0.1):
        for B in np.linspace(-0.85, 0.85, 18):
            lo = curve_L_plus(B, R)
            hi = curve_L_minus(B, R)
            assert in_stability_domain(GhmParams(0.5 * (lo + hi), B, R))
            assert not in_stability_domain(GhmParams(lo - 1e-2, B, R))
            assert not in_stability_domain(GhmParams(hi + 1e-2, B, R))


def test_stability_domain_circle_birth_fence():
    # crossing the circle-birth curve at B = 1, R = 0.1 (omega = pi/2 there):
    # det at the fixed point is 1 + 0.1 x, so the x < 0 side is the stable one
    assert in_stability_domain(GhmParams(-0.05, 1.0, 0.1))
    assert not in_stability_domain(GhmParams(0.05, 1.0, 0.1))


def test_stability_domain_rejects_degenerate_R():
    with pytest.raises(ValueError):
        in_stability_domain(GhmParams(0.0, 0.0, -1.0))
    with pytest.raises(ValueError):
        in_stability_domain(GhmParams(0.0, 0.0, -2.0))


def test_trace_curves_layout():
    S = 17
    out = trace_curves(0.05, S)
    assert len(out) == 4 * S
    for k, cid in enumerate(CURVE_IDS):
        block = out[k * S : (k + 1) * S]
        assert all(s.curve_id == cid for s in block)
        pars = [s.parameter for s in block]
        assert pars == sorted(pars)
    assert out[0].parameter == -3.0 and out[S - 1].parameter == 3.0
    assert 0.0 < out[2 * S].parameter and out[3 * S - 1].parameter < math.pi
    assert out[-1].parameter == 3.0  # alpha right endpoint included
    with pytest.raises(ValueError):
        trace_curves(0.0, 1)
    with pytest.raises(ValueError):
        trace_curves(0.0, MAX_SAMPLES + 1)  # refused before a sample is drawn
    # R = 1e308 is finite, but it overflows the flip and neutral curves
    with pytest.raises(ValueError, match="floating-point range"):
        trace_curves(1e308, 3)


def test_trace_curves_samples_validate_under_default_tolerances():
    for s in trace_curves(-0.2, 101):
        validate_sample(s)
        # every sample's designated point appears among the fixed-point reports
        p = GhmParams(s.M, s.B, s.R)
        x = designated_fixed_point(s)
        reports = fixed_points(p)
        assert any(abs(r.point.x - x) < 1e-8 * max(1.0, abs(x)) for r in reports)


def test_lphi_m_is_the_circle_birth_curve():
    for R in (-0.5, -0.05, 0.1, 0.4, 1.5):
        for omega in np.linspace(0.1, math.pi - 0.1, 9):
            M, B = curve_L_phi(float(omega), R)
            assert abs(lphi_m(B, R) - M) < 1e-12


def test_lphi_band_is_its_expression_bit_for_bit():
    R = np.array([0.0, 0.1, -0.1, -2.0, 1e308, -1e308, math.inf, -math.inf, math.nan])
    with np.errstate(all="ignore"):
        band = lphi_band(R, 1.0)
        assert band.tobytes() == (np.abs(R) / np.abs(1.0 + R / 2.0)).tobytes()
        # coexistence_search's band: the margin multiplies first
        assert lphi_band(R, 0.9).tobytes() == (0.9 * np.abs(R) / np.abs(1.0 + R / 2.0)).tobytes()
    assert band[0] == 0.0 and band[3] == math.inf
    assert band[4] == band[5] == 2.0
    assert np.all(np.isnan(band[6:]))
    # coexistence_search keeps |B - 1| <= band: a band of inf (R = -2) keeps
    # every finite B, and a nan band (R infinite or nan) keeps none
    dev = np.array([0.0, 0.5, 1e300])
    assert np.all(dev <= band[3])
    assert not np.any(dev[:, None] <= band[6:])


def test_lphi_band_is_the_circle_birth_B_range():
    # cos omega rounds to +-1 at omega = 1e-9 and pi - 1e-9: the curve's ends
    omegas = [1e-9, *np.linspace(0.1, math.pi - 0.1, 9), math.pi - 1e-9]
    for R in (-1.5, -0.5, -0.05, 0.1, 0.4, 1.5):
        dev = [abs(curve_L_phi(float(om), R)[1] - 1.0) for om in omegas]
        band = lphi_band(R, 1.0)
        assert abs(dev[0] - band) < 1e-12 and abs(dev[-1] - band) < 1e-12
        assert max(dev) <= band + 1e-12
