import math

import numpy as np
import pytest

from ghmlab import attractor_classifier
from ghmlab.attractor_classifier import (
    ClassifyOptions,
    NotACircleError,
    OrbitEscapedError,
    classify,
    detect_period,
    fit_invariant_circle,
    lyapunov_exponents,
    sweep,
)
from ghmlab.bifurcation_atlas import curve_L_phi
from ghmlab.ghm_core import GhmParams, State2


def test_lyapunov_at_attracting_focus():
    # at (M, B) = (0, 0.5) the origin is a focus with multipliers +-i/sqrt(2),
    # so both exponents equal ln(1/sqrt(2))
    l1, l2 = lyapunov_exponents(GhmParams(0.0, 0.5, 0.0), State2(0.05, 0.02), 2000, 10_000)
    tgt = 0.5 * math.log(0.5)
    assert abs(l1 - tgt) < 1e-3
    assert abs(l2 - tgt) < 1e-3
    assert l1 >= l2


def test_lyapunov_sum_is_area_contraction_rate():
    # R = 0 makes the Jacobian determinant constant along every orbit, so the
    # exponent sum must equal ln|B| to roundoff regardless of the dynamics
    p = GhmParams(1.4, -0.3, 0.0)
    x0 = (-0.7 + math.sqrt(0.49 + 5.6)) / 2  # saddle fixed point
    l1, l2 = lyapunov_exponents(p, State2(x0 + 1e-3, x0 + 2e-3), 3000, 50_000)
    assert abs((l1 + l2) - math.log(0.3)) < 1e-12
    assert 0.36 < l1 < 0.48


def test_lyapunov_guards():
    with pytest.raises(ValueError):
        lyapunov_exponents(GhmParams(0.0, 0.0, 0.0), State2(0.0, 0.0), 0, 999)
    with pytest.raises(OrbitEscapedError):
        lyapunov_exponents(GhmParams(-1.0, 0.0, 0.0), State2(0.0, 0.0), 10_000, 1000)
    # nilpotent Jacobian at the origin kills tangent vectors outright
    assert lyapunov_exponents(GhmParams(0.0, 0.0, 0.0), State2(0.0, 0.0), 10, 1000) == (
        -math.inf,
        -math.inf,
    )


def test_detect_period_basics():
    assert detect_period(np.zeros((300, 2)), 64, 1e-10) == 1
    two = np.array([(0.0, 1.0), (1.0, 0.0)] * 150)
    assert detect_period(two, 64, 1e-10) == 2
    # golden-mean rotation never closes up within period 64
    k = np.arange(3000)
    t = 2.0 * math.pi * 0.6180339887498949 * k
    quasi = np.column_stack([np.cos(t), np.sin(t)])
    assert detect_period(quasi, 64, 1e-8) is None
    with pytest.raises(ValueError):
        detect_period(np.zeros((100, 2)), 64, 1e-8)  # tail shorter than 4*64
    with pytest.raises(ValueError):
        detect_period(np.zeros((300, 2)), 0, 1e-8)


def test_fit_circle_on_synthetic_ellipse():
    k = np.arange(6000)
    t = 2.0 * math.pi * 0.23 * k
    pts = np.column_stack([2.0 + 0.8 * np.cos(t), -1.0 + 0.5 * np.sin(t)])
    rep = fit_invariant_circle(pts)
    assert abs(rep.center[0] - 2.0) < 1e-2 and abs(rep.center[1] + 1.0) < 1e-2
    assert 0.5 < rep.mean_radius < 0.8
    assert rep.radial_deviation > 0.05  # genuinely elliptic
    assert abs(rep.rotation_number - 0.23) < 1e-3
    assert rep.invariance_residual is None

    # rotation number is folded into (0, 0.5): 0.77 and 0.23 are the same loop
    t = 2.0 * math.pi * 0.77 * k
    pts = np.column_stack([np.cos(t), np.sin(t)])
    rep = fit_invariant_circle(pts)
    assert abs(rep.rotation_number - 0.23) < 1e-3


def test_fit_circle_rejects_gappy_and_short_input():
    k = np.arange(2100)
    t = 2.0 * math.pi * (k % 7) / 7.0  # period-7 cluster, 51 deg gaps
    pts = np.column_stack([np.cos(t), np.sin(t)])
    with pytest.raises(NotACircleError):
        fit_invariant_circle(pts)
    with pytest.raises(ValueError):
        fit_invariant_circle(pts[:1999])


def test_classify_fixed_point_sink_and_divergence():
    res = classify(GhmParams(0.0, 0.0, 0.0))
    assert (res.verdict, res.period) == ("sink", 1)
    res = classify(GhmParams(-0.5, 0.0, 0.0))  # below the fold, no fixed points
    assert res.verdict == "divergent"
    assert res.evidence["escape_step"] > 0


def test_classify_period_two_past_flip():
    res = classify(GhmParams(1.0, 0.0, 0.0))
    assert (res.verdict, res.period) == ("sink", 2)


def test_classify_chaotic_benchmark():
    res = classify(GhmParams(1.4, -0.3, 0.0))
    assert res.verdict == "chaotic"
    assert abs(res.lyapunov[0] - 0.419) < 0.02


def test_classify_circle_past_birth():
    M0, B0 = curve_L_phi(math.pi / 3, 0.1)
    res = classify(GhmParams(M0 + 0.01, B0, 0.1))
    assert res.verdict == "circle"
    assert abs(res.rotation_number - 1.0 / 6.0) < 5e-3  # birth angle pi/3
    assert res.evidence["invariance_residual"] < 1e-3 * res.evidence["mean_radius"]


def test_classify_undecided_when_period_cap_too_low():
    # the 2-cycle past the flip is invisible with max_period = 1; the orbit is
    # strongly contracting, so the verdict must stay undecided, not sink
    opts = ClassifyOptions(burn_in=2000, span=1000, max_period=1, circle_points=2000)
    res = classify(GhmParams(1.0, 0.0, 0.0), opts)
    assert res.verdict == "undecided"
    assert res.lyapunov[0] < -opts.eps_lyap


def test_classify_is_deterministic():
    a = classify(GhmParams(1.4, -0.3, 0.0))
    b = classify(GhmParams(1.4, -0.3, 0.0))
    assert a == b  # dataclass equality: verdict, period, exponents, rotation


def test_sweep_layout_and_agreement_with_classify():
    opts = ClassifyOptions(burn_in=3000, span=2000, max_period=32, circle_points=2000)
    g = sweep(-0.5, 1.0, -0.4, 0.4, 4, 3, 0.0, opts=opts)
    assert (g.nx, g.ny, len(g.cells)) == (4, 3, 12)
    assert g.params_at(3, 2) == GhmParams(1.0, 0.4, 0.0)
    for ib in range(3):
        for im in range(4):
            cell = g.cells[ib * 4 + im]  # row-major by B then M
            ref = classify(g.params_at(im, ib), opts)
            assert cell.verdict == ref.verdict
            assert cell.period == ref.period


def test_sweep_thread_count_does_not_change_cells():
    opts = ClassifyOptions(burn_in=3000, span=2000, max_period=32, circle_points=2000)
    g1 = sweep(-0.5, 1.0, -0.4, 0.4, 4, 3, 0.0, opts=opts, threads=1)
    g3 = sweep(-0.5, 1.0, -0.4, 0.4, 4, 3, 0.0, opts=opts, threads=3)
    assert g1.cells == g3.cells


def test_sweep_rejects_degenerate_grid():
    with pytest.raises(ValueError):
        sweep(0.0, 1.0, 0.0, 1.0, 1, 5, 0.0)


@pytest.mark.parametrize(
    "burn_in, rows_per_chunk, verdicts",
    [
        (3000, 1, {"divergent", "sink", "chaotic"}),
        (3000, 3, {"divergent", "sink", "chaotic"}),
        (5, 3, {"divergent", "chaotic", "undecided"}),  # escapes inside the tail phase
    ],
)
def test_sweep_tail_chunking_changes_no_cell(monkeypatch, burn_in, rows_per_chunk, verdicts):
    # a byte cap of a few rows splits the period scan into many chunks, which
    # must leave every cell, exponents and evidence included, as one chunk does
    opts = ClassifyOptions(burn_in=burn_in, span=2000, max_period=32, circle_points=2000)
    args = (-0.5, 1.4, -0.3, 0.3, 6, 4, 0.0)
    whole = sweep(*args, opts=opts)
    assert {c.verdict for c in whole.cells} == verdicts
    assert sum(c.verdict != "divergent" for c in whole.cells) > 2 * rows_per_chunk
    monkeypatch.setattr(attractor_classifier, "_TAIL_BYTES", rows_per_chunk * 16 * 4 * opts.max_period)
    chunked = sweep(*args, opts=opts)
    assert chunked.cells == whole.cells
    assert [c.evidence for c in chunked.cells] == [c.evidence for c in whole.cells]


def test_sweep_rejects_bad_threads_and_non_finite_input():
    with pytest.raises(ValueError):
        sweep(0.0, 1.0, 0.0, 1.0, 2, 2, 0.0, threads=0)
    for bad in ((math.nan, 1.0, 0.0, 1.0, 0.0), (0.0, math.inf, 0.0, 1.0, 0.0),
                (0.0, 1.0, 0.0, 1.0, math.nan)):
        with pytest.raises(ValueError):
            sweep(*bad[:4], 2, 2, bad[4])


def test_classify_options_validation():
    for kw in ({"span": 999}, {"burn_in": -1}, {"max_period": 0}, {"circle_points": 0},
               {"circle_bins": 0}, {"period_tol": 0.0}, {"escape_radius": math.inf},
               {"eps_lyap": math.nan}, {"gap_limit_deg": -1.0}, {"seed_offset": (math.nan, 0.0)}):
        with pytest.raises(ValueError):
            ClassifyOptions(**kw)
    ClassifyOptions(burn_in=0, span=1000, max_period=1)
