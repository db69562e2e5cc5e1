import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ghmlab import attractor_classifier
from ghmlab.attractor_classifier import (
    EPS_LYAP,
    VERDICTS,
    AttractorClass,
    ClassifyOptions,
    NotACircleError,
    OrbitEscapedError,
    _circle_test,
    _cycle_exponents,
    classify,
    detect_period,
    fit_invariant_circle,
    lyapunov_exponents,
    sweep,
)
from ghmlab.bifurcation_atlas import curve_L_phi
from ghmlab.ghm_core import GhmParams, State2, eig2


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
    # nilpotent Jacobian at the origin kills tangent vectors outright: a
    # superstable orbit has no exponents
    l1, l2 = lyapunov_exponents(GhmParams(0.0, 0.0, 0.0), State2(0.0, 0.0), 10, 1000)
    assert math.isnan(l1) and math.isnan(l2)
    # a negative burn-in and an escape radius that is not positive and finite
    # are refused, not read as "no burn-in" or "no radius"
    with pytest.raises(ValueError):
        lyapunov_exponents(GhmParams(0.0, 0.5, 0.0), State2(0.0, 0.0), -1, 1000)
    for rad in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError):
            lyapunov_exponents(GhmParams(0.0, 0.5, 0.0), State2(0.0, 0.0), 10, 1000, rad)
    # classify's step cap: refused at once, not run for days
    for burn_in, span in ((10**8 + 1, 1000), (0, 10**8 + 1)):
        with pytest.raises(ValueError, match="at most"):
            lyapunov_exponents(GhmParams(0.0, 0.5, 0.0), State2(0.0, 0.0), burn_in, span)


def test_detect_period_basics():
    # columns of a 4*64-step record: a fixed point, a 2-cycle and a
    # golden-mean rotation, which never closes up within period 64
    L = 4 * 64
    t = 2.0 * math.pi * 0.6180339887498949 * np.arange(L + 2)
    Y = np.column_stack([np.zeros(L + 2), np.tile([0.0, 1.0], L // 2 + 1), np.cos(t)])
    assert detect_period(Y, 64, 1e-8).tolist() == [1, 2, 0]
    assert detect_period(Y[:, 1:], 64, 1e-8).tolist() == [2, 0]
    assert detect_period(Y[:, :0], 64, 1e-8).tolist() == []
    with pytest.raises(ValueError):
        detect_period(Y[:-1], 64, 1e-8)  # record shorter than 4*64 steps
    with pytest.raises(ValueError):
        detect_period(Y, 0, 1e-8)


def _reference_dist_to_polygon(points, verts):
    # the (m, k, 2) formula _dist_to_polygon was first written as, with the
    # min over the edges left to the caller: row i, column j is the distance
    # from point i to edge j, from vertex j to vertex j + 1
    ab = np.roll(verts, -1, axis=0) - verts
    denom = (ab * ab).sum(axis=1)
    denom[denom == 0.0] = 1.0
    aq = points[:, None, :] - verts[None, :, :]
    t = np.clip((aq * ab[None, :, :]).sum(axis=2) / denom[None, :], 0.0, 1.0)
    proj = verts[None, :, :] + t[:, :, None] * ab[None, :, :]
    return np.linalg.norm(points[:, None, :] - proj, axis=2)


def test_dist_to_polygon_matches_its_array_formula_bitwise():
    # on a polygon star-shaped about its centre, a point's distance is the
    # array formula's min over the edge its angle faces and that edge's two
    # neighbours, bit for bit; where the nearest of all edges is among them
    # it is the full min, as it is for nearly every point near the polygon
    rng = np.random.default_rng(17)
    full = faced = 0

    def check(m, k):
        nonlocal full, faced
        c = rng.normal(size=2)
        th = np.sort(rng.uniform(-math.pi, math.pi, k))
        wave = rng.uniform(0.0, 0.5) * np.sin(rng.integers(1, 4) * th + rng.uniform(0.0, 6.0))
        r = np.exp(wave + rng.normal(scale=1.0 / k, size=k)) * rng.uniform(1e-3, 10.0)
        verts = c + r[:, None] * np.column_stack((np.cos(th), np.sin(th)))
        dup = np.flatnonzero(rng.random(k - 1) < 0.1)
        verts[dup + 1] = verts[dup]  # zero-length edges
        near = verts[rng.integers(0, k, m)] + rng.normal(size=(m, 2)) * 1e-3 * r.mean()
        is_near = rng.random(m) < 0.8
        points = np.where(is_near[:, None], near, c + rng.normal(size=(m, 2)) * r.mean())
        got = attractor_classifier._dist_to_polygon(points, verts, c)
        D = _reference_dist_to_polygon(points, verts)
        va = np.arctan2(verts[:, 1] - c[1], verts[:, 0] - c[0])
        pa = np.arctan2(points[:, 1] - c[1], points[:, 0] - c[0])
        edges = (np.searchsorted(va, pa)[:, None] + np.arange(-2, 1)) % k
        cand = np.take_along_axis(D, edges, axis=1).min(axis=1)
        assert got.tobytes() == cand.tobytes()
        hit = cand == D.min(axis=1)
        full += int(hit[is_near].sum())
        faced += int(is_near.sum())
        assert (got[~hit] > D.min(axis=1)[~hit]).all()

    for _ in range(300):
        check(int(rng.integers(1, 40)), int(rng.integers(3, 40)))
    for m in (1, 129, 1024):
        for k in (3, 256, 1024):
            check(m, k)
    assert full > 0.9 * faced


def test_fit_circle_on_synthetic_ellipse():
    k = np.arange(6000)
    t = 2.0 * math.pi * 0.23 * k
    pts = np.column_stack([2.0 + 0.8 * np.cos(t), -1.0 + 0.5 * np.sin(t)])
    rep = fit_invariant_circle(pts, GhmParams(0.0, 0.0))
    assert abs(rep.center[0] - 2.0) < 1e-2 and abs(rep.center[1] + 1.0) < 1e-2
    assert 0.5 < rep.mean_radius < 0.8
    assert abs(attractor_classifier._rotation_number(pts - rep.center) - 0.23) < 1e-3

    # rotation number is folded into (0, 0.5): 0.77 and 0.23 are the same loop
    t = 2.0 * math.pi * 0.77 * k
    pts = np.column_stack([np.cos(t), np.sin(t)])
    rep = fit_invariant_circle(pts, GhmParams(0.0, 0.0))
    assert abs(attractor_classifier._rotation_number(pts - rep.center) - 0.23) < 1e-3


def test_fit_circle_rejects_gappy_and_short_input():
    k = np.arange(2100)
    t = 2.0 * math.pi * (k % 7) / 7.0  # period-7 cluster, 51 deg gaps
    pts = np.column_stack([np.cos(t), np.sin(t)])
    with pytest.raises(NotACircleError):
        fit_invariant_circle(pts, GhmParams(0.0, 0.0))
    with pytest.raises(ValueError):
        fit_invariant_circle(pts[:1999], GhmParams(0.0, 0.0))


def test_rotation_number_is_none_where_the_increments_change_sign():
    # a flip-symmetric pair of loops: the orbit hops between two circles,
    # turning by rho a step on each. About one loop's centre every other
    # point lies on the far loop, so the increments change sign; the
    # decimated orbit stays on one loop and turns by 2 rho a step
    rho = (math.sqrt(5.0) - 2.0) / 2.0
    k = np.arange(6000)
    t = 2.0 * math.pi * rho * k
    pts = np.column_stack([np.where(k % 2, -2.0, 2.0) + np.cos(t), np.sin(t)])
    assert attractor_classifier._rotation_number(pts - (2.0, 0.0)) is None
    rep = fit_invariant_circle(pts[::2], GhmParams(0.0, 0.0))
    assert abs(attractor_classifier._rotation_number(pts[::2] - rep.center) - 2.0 * rho) < 1e-6


def test_circle_rotation_is_the_maps_own_at_map_power_three():
    # this band cell passes the circle test only at map power 3; its
    # undecimated tail turns one way by 0.15625 a step, and the cube's
    # rotation, 3 * 0.15625 = 0.46875, is not what the map does
    res = classify(GhmParams(-0.7553846153846154, 1.0520689655172415, 0.1))
    assert (res.verdict, res.evidence["map_power"]) == ("circle", 3)
    assert abs(res.rotation_number - 0.15625) < 1e-4


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


def test_classify_weak_sinks_at_circle_birth_stay_undecided():
    # demos/circle_birth.py's sinks next to the birth curve: multipliers of
    # modulus ~0.9995 leave the orbit above period_tol when the period scan
    # follows the default 10 000-step burn-in, so both come out undecided with
    # l1 < -eps. A longer burn-in finds the sink. A change that turns these
    # into sinks with the default options should update this test
    M0, B0 = curve_L_phi(math.pi / 3, 0.1)
    M1, B1 = curve_L_phi(math.pi / 3, -0.1)
    for p in (GhmParams(M0 - 0.01, B0, 0.1), GhmParams(M1 + 0.01, B1, -0.1)):
        res = classify(p)
        assert (res.verdict, res.period) == ("undecided", None), p
        assert max(res.lyapunov) < -EPS_LYAP, p
    res = classify(GhmParams(M0 - 0.01, B0, 0.1), ClassifyOptions(burn_in=40_000))
    assert (res.verdict, res.period) == ("sink", 1)


def test_classify_undecided_when_period_cap_too_low():
    # the 2-cycle past the flip is invisible with max_period = 1; the orbit is
    # strongly contracting, so the verdict must stay undecided, not sink. At
    # (1, 0) the cycle runs through the critical point, so it is superstable
    # and has no exponents; at (0.999, 0) it is not, and l1 < -eps
    opts = ClassifyOptions(burn_in=2000, span=1000, max_period=1, circle_points=2000)
    res = classify(GhmParams(1.0, 0.0, 0.0), opts)
    assert (res.verdict, res.lyapunov) == ("undecided", None)
    res = classify(GhmParams(0.999, 0.0, 0.0), opts)
    assert res.verdict == "undecided"
    assert res.lyapunov[0] < -EPS_LYAP


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


def test_sweep_rejects_degenerate_grid(monkeypatch):
    with pytest.raises(ValueError):
        sweep(0.0, 1.0, 0.0, 1.0, 1, 5, 0.0)

    # the cell cap is checked before any cell is built, seeded or classified
    def no_cells(M, B, R, opts, x, y):
        assert M.size <= attractor_classifier.MAX_GRID_CELLS
        return [None] * M.size

    monkeypatch.setattr(attractor_classifier, "_seeds", lambda M, B, R: (M, B))
    monkeypatch.setattr(attractor_classifier, "_sweep_cells", no_cells)
    with pytest.raises(ValueError, match="cap"):
        sweep(0.0, 1.0, 0.0, 1.0, 1001, 1000, 0.0)
    assert len(sweep(0.0, 1.0, 0.0, 1.0, 1000, 1000, 0.0).cells) == 10**6


def _assert_chunking_changes_no_cell(monkeypatch, args, opts, cells, verdicts):
    # a cap of a few cells splits the period scan, the Lyapunov phase and
    # the circle tails into many chunks, which must leave every cell,
    # exponents and evidence included, as one chunk does
    whole = sweep(*args, opts=opts)
    assert {c.verdict for c in whole.cells} == verdicts
    assert sum(c.verdict != "divergent" for c in whole.cells) > 2 * cells
    monkeypatch.setattr(attractor_classifier, "_CELLS", cells)
    chunked = sweep(*args, opts=opts)
    assert chunked.cells == whole.cells
    assert [c.evidence for c in chunked.cells] == [c.evidence for c in whole.cells]
    return whole


@pytest.mark.parametrize(
    "burn_in, rows_per_chunk, verdicts",
    [
        (3000, 1, {"divergent", "sink", "chaotic"}),
        (3000, 3, {"divergent", "sink", "chaotic"}),
        (5, 3, {"divergent", "chaotic", "undecided"}),  # escapes inside the tail phase
    ],
)
def test_sweep_tail_chunking_changes_no_cell(monkeypatch, burn_in, rows_per_chunk, verdicts):
    opts = ClassifyOptions(burn_in=burn_in, span=2000, max_period=32, circle_points=2000)
    _assert_chunking_changes_no_cell(monkeypatch, (-0.5, 1.4, -0.3, 0.3, 6, 4, 0.0), opts,
                                     rows_per_chunk, verdicts)


def test_sweep_chunking_changes_no_circle_cell(monkeypatch):
    # a band past circle birth at R = 0.1, where eight cells are circles
    whole = _assert_chunking_changes_no_cell(monkeypatch, (-0.78, -0.70, 1.03, 1.07, 8, 6, 0.1),
                                             ClassifyOptions(span=20_000), 3, set(VERDICTS))
    assert [c.verdict for c in whole.cells].count("circle") == 8


def test_sweep_records_stay_under_the_byte_cap(monkeypatch):
    # under a 16 kB cap, burn-in windows over the 120 cells shorten to 15
    # steps, and a long period scan, the Lyapunov phase and the circle tails
    # record one cell at a time; no cell may change
    args = (-0.78, -0.70, 1.03, 1.07, 12, 10, 0.1)
    opts = ClassifyOptions(span=10_000, max_period=200, circle_points=2000)
    whole = sweep(*args, opts=opts)
    assert {"circle", "divergent", "sink"} <= {c.verdict for c in whole.cells}
    records, window = [], attractor_classifier._window

    def spy(x, *rest):
        Y = window(x, *rest)
        records.append(Y.shape)
        return Y

    cap = 1 << 14
    monkeypatch.setattr(attractor_classifier, "_window", spy)
    monkeypatch.setattr(attractor_classifier, "_CHUNK_BYTES", cap)
    capped = sweep(*args, opts=opts)
    assert capped.cells == whole.cells
    assert [c.evidence for c in capped.cells] == [c.evidence for c in whole.cells]
    assert (17, 120) in records
    assert {4 * opts.max_period + 2, 3 * opts.circle_points + 2} <= {r for r, _ in records}
    # every record fits the cap or holds one cell, but the circle fits'
    # vertex images: at most 5 rows of at most CIRCLE_BINS vertices, whatever
    # the number of cells
    images = [(r, c) for r, c in records if r <= 5 and c > 1]
    assert images and all(c <= attractor_classifier.CIRCLE_BINS for _, c in images)
    assert all(r * c * 8 <= cap or c == 1 for r, c in records if (r, c) not in images)


def test_sweep_grids_that_stop_before_the_lyapunov_phase():
    opts = ClassifyOptions(span=1000, circle_points=2000)
    # every cell escapes during burn-in; below the fold there is no fixed
    # point, so sweep and classify both start at the origin and agree on the step
    grid = sweep(-5.0, -4.0, -0.5, 0.5, 2, 2, 0.0, opts)
    for ib in range(2):
        for im in range(2):
            cell, ref = grid.cells[ib * 2 + im], classify(grid.params_at(im, ib), opts)
            assert cell.verdict == "divergent" and cell.evidence["escape_step"] > 0
            assert (cell, cell.evidence) == (ref, ref.evidence)
    # every cell is a verified sink, so no cell reaches the Lyapunov phase
    grid = sweep(0.0, 0.2, 0.0, 0.2, 3, 2, 0.0, opts)
    assert [(c.verdict, c.period) for c in grid.cells] == [("sink", 1)] * 6


def test_sweep_escape_steps_and_period_scan_window():
    # (0, 0) is a superstable fixed point, and every cell's seed is (1e-3,
    # 2e-3) off its fixed point, as classify's is
    base = dict(span=1000, max_period=1, circle_points=2000)
    for burn_in in (0, 100):  # a seed y outside the radius leaves at step 1
        opts = ClassifyOptions(burn_in=burn_in, escape_radius=1e-3, **base)
        cell = sweep(0.0, 1.0, 0.0, 1.0, 2, 2, 0.0, opts).cells[0]
        assert cell.evidence == classify(GhmParams(0.0, 0.0, 0.0), opts).evidence == {"escape_step": 1}
    # with no burn-in the period scan starts at the seed, whose first step
    # moves y by 2e-3: a tolerance of 1e-4 finds no period there, 1e-2 does
    for tol, verdict in ((1e-4, "undecided"), (1e-2, "sink")):
        opts = ClassifyOptions(burn_in=0, period_tol=tol, **base)
        assert sweep(0.0, 1.0, 0.0, 1.0, 2, 2, 0.0, opts).cells[0].verdict == verdict
    # a circle candidate that stays inside the radius through its span and
    # leaves in the tail recorded for its circle fit
    opts = ClassifyOptions(burn_in=1000, span=1000, max_period=8, circle_points=2000,
                           escape_radius=1.17408)
    cell = sweep(-0.78, -0.70, 1.03, 1.07, 8, 6, 0.1, opts).cells[32]
    tail_start = opts.burn_in + 4 * opts.max_period + opts.span
    assert tail_start < cell.evidence["escape_step"] == 2194 <= tail_start + 3 * opts.circle_points


def test_sweep_rejects_empty_rectangle():
    # an inverted or flat rectangle is refused by sweep itself, not just the CLI
    for bounds in ((1.0, 0.5, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0), (0.5, 0.5, 0.0, 1.0),
                   (0.0, 1.0, -0.2, -0.2)):
        with pytest.raises(ValueError, match="empty parameter rectangle"):
            sweep(*bounds, 3, 3, 0.0)


def test_sweep_rejects_bad_threads_and_non_finite_input():
    with pytest.raises(ValueError):
        sweep(0.0, 1.0, 0.0, 1.0, 2, 2, 0.0, threads=0)
    for bad in ((math.nan, 1.0, 0.0, 1.0, 0.0), (0.0, math.inf, 0.0, 1.0, 0.0),
                (0.0, 1.0, 0.0, 1.0, math.nan)):
        with pytest.raises(ValueError):
            sweep(*bad[:4], 2, 2, bad[4])
    # finite bounds whose difference overflows would give linspace nan cells
    with pytest.raises(ValueError, match="width and height"):
        sweep(-1e308, 1e308, 0.0, 1.0, 2, 2, 0.0)


def test_sweep_emits_no_runtime_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # superstable cell (1, 0): the tangent vector is annihilated, so both
        # exponent sums are -inf and their difference nan
        opts = ClassifyOptions(max_period=1, span=1000, burn_in=2000, circle_points=2000)
        cell = sweep(0.999, 1.0, -1e-9, 0.0, 2, 2, 0.0, opts).cells[-1]
        assert (cell.verdict, cell.lyapunov) == ("undecided", None)
        # b1*b1 + 4*a*M overflows in the fixed-point seeding
        grid = sweep(-0.5, 1e308, -1.0, 1.0, 2, 2, 0.0)
        assert [c.verdict for c in grid.cells[1::2]] == ["divergent", "divergent"]


def test_classify_options_validation():
    for kw in ({"span": 999}, {"burn_in": -1}, {"span": 10**8 + 1}, {"burn_in": 10**8 + 1},
               {"max_period": 0}, {"circle_points": 0}, {"period_tol": 0.0},
               {"escape_radius": math.inf}):
        with pytest.raises(ValueError):
            ClassifyOptions(**kw)
    ClassifyOptions(burn_in=0, span=1000, max_period=1)
    ClassifyOptions(burn_in=10**8, span=10**8)


# ---------------------------------------------------------------------------
# textbook reference: lyapunov_exponents and classify as plain scalar loops,
# one map step and one tangent step at a time, on classify's schedule (seed,
# burn-in, period scan, Lyapunov span, circle tail), with an escape test
# after every step. Orbits, verdicts, periods, rotations, evidence and
# escape steps must agree exactly; exponents only to rounding, since a block
# norm is not the product of per-step norms in floating point.


def _reference_steps(p, x, y, n, rad, k0, tail=None):
    # n map steps; leaving the box at step k raises OrbitEscapedError(k0 + k)
    M, B, R = p.M, p.B, p.R
    for k in range(n):
        x, y = y, M - B * x - y * y - R * x * y
        if not (math.isfinite(x) and math.isfinite(y)) or max(abs(x), abs(y)) > rad:
            raise OrbitEscapedError(k0 + k + 1)
        if tail is not None:
            tail.append((x, y))
    return x, y


def _reference_lyapunov_span(p, x, y, span, rad):
    # (l1, l2, x, y) after span steps; leaving the box at step k raises
    # OrbitEscapedError(k), and an annihilated tangent vector leaves (nan, nan)
    M, B, R = p.M, p.B, p.R
    v1, v2 = attractor_classifier._INV_SQRT2, attractor_classifier._INV_SQRT2
    slog = 0.0
    sdet = 0.0
    for k in range(span):
        j21 = -B - R * y
        w1, w2 = v2, j21 * v1 + (-2.0 * y - R * x) * v2
        nrm = math.hypot(w1, w2)
        slog += math.log(nrm) if nrm > 0.0 else math.nan
        v1, v2 = (w1 / nrm, w2 / nrm) if nrm > 0.0 else (0.0, 0.0)
        det = B + R * y
        sdet += math.log(abs(det)) if det != 0.0 else -math.inf
        x, y = y, M - B * x - y * y - R * x * y
        if not (abs(x) <= rad and abs(y) <= rad):
            raise OrbitEscapedError(k + 1)
    l1 = slog / span
    s = sdet / span
    if l1 < s - l1:
        l1 = s - l1
    return l1, s - l1, x, y


def _reference_period(scan, max_period, tol):
    # least k with sup-norm recurrence < tol over the whole (n, 2) scan
    pts = np.array(scan)
    for k in range(1, max_period + 1):
        if np.abs(pts[k:] - pts[:-k]).max() < tol:
            return k
    return None


def _reference_verify_cycle(p, cycle):
    # (attracting, per-step log moduli) of an (k, 2) cycle of (x, y) states:
    # its monodromy one Jacobian at a time, and eig2 on Python floats
    k = len(cycle)
    m11, m12, m21, m22 = 1.0, 0.0, 0.0, 1.0
    det = 1.0
    for x, y in cycle:
        j21 = -p.B - p.R * y
        j22 = -2.0 * y - p.R * x
        # left-multiply by [[0, 1], [j21, j22]]
        m11, m12, m21, m22 = m21, m22, j21 * m11 + j22 * m21, j21 * m12 + j22 * m22
        det *= p.B + p.R * y
    mods = sorted((abs(complex(e)) for e in eig2(m11 + m22, det)), reverse=True)
    lams = tuple((math.log(m) if m > 0.0 else -math.inf) / k for m in mods)
    return mods[0] < 1.0, lams


@pytest.mark.parametrize("R", [0.0, 0.2])
def test_cycle_exponents_are_the_scalar_loop_bit_for_bit(R):
    # 100 random cycles of each period 1..64 in one batch per period; about
    # half are attracting, and a zero determinant gives -inf exponents
    rng = np.random.default_rng(29)
    attracting = 0
    for k in range(1, 65):
        Y = rng.uniform(-1.1, 1.1, size=(k + 1, 100))
        B = rng.uniform(-0.9, 0.9, size=100)
        if R == 0.0:
            B[:3] = 0.0
        ok, lams = _cycle_exponents(Y, B, R)
        for j in range(100):
            ref_ok, ref = _reference_verify_cycle(GhmParams(0.0, float(B[j]), R),
                                                  np.column_stack((Y[:-1, j], Y[1:, j])))
            assert (bool(ok[j]), lams[j].tobytes()) == (ref_ok, np.array(ref).tobytes()), (k, j)
        attracting += int(ok.sum())
    assert 2000 < attracting < 4400


def _reference_lyapunov_exponents(p, s0, burn_in, span, escape_radius=1.0e6):
    if span < 1000:
        raise ValueError("span must be >= 1000 for a meaningful average")
    x, y = _reference_steps(p, s0.x, s0.y, burn_in, escape_radius, 0)
    try:
        return _reference_lyapunov_span(p, x, y, span, escape_radius)[:2]
    except OrbitEscapedError as e:
        raise OrbitEscapedError(burn_in + e.step) from None


def _reference_classify(p, opts, s0=None):
    if s0 is None:
        x, y = attractor_classifier._seeds(np.array([p.M]), np.array([p.B]), p.R)
        s0 = State2(float(x[0]), float(y[0]))
    rad = opts.escape_radius
    L = 4 * opts.max_period
    scan = []
    try:
        x, y = _reference_steps(p, s0.x, s0.y, opts.burn_in, rad, 0)
        x, y = _reference_steps(p, x, y, L, rad, opts.burn_in, scan)
    except OrbitEscapedError as e:
        return AttractorClass("divergent", evidence={"escape_step": e.step})

    per = _reference_period(scan, opts.max_period, opts.period_tol)
    if per is not None:
        ok, lams = _reference_verify_cycle(p, np.array(scan[-per:]))
        if ok and lams[0] < -EPS_LYAP:
            return AttractorClass("sink", period=per, lyapunov=lams)

    k0 = opts.burn_in + L
    try:
        l1, l2, x, y = _reference_lyapunov_span(p, x, y, opts.span, rad)
    except OrbitEscapedError as e:
        return AttractorClass("divergent", evidence={"escape_step": k0 + e.step})
    if math.isnan(l1):
        return AttractorClass("undecided")

    eps = EPS_LYAP
    if l1 > eps:
        return AttractorClass("chaotic", lyapunov=(l1, l2))
    if l1 < -eps or not l2 < -eps:
        return AttractorClass("undecided", lyapunov=(l1, l2))
    tail = []
    try:
        _reference_steps(p, x, y, 3 * opts.circle_points, rad, k0 + opts.span, tail)
    except OrbitEscapedError as e:
        return AttractorClass("divergent", evidence={"escape_step": e.step})
    return _circle_test(np.array(tail), p, opts, (l1, l2))


def _bits(res):
    # repr of a float names its bits (but a nan's payload): -0.0, inf and the
    # last digit all count
    return repr((res.verdict, res.period, res.lyapunov, res.rotation_number, res.evidence))


def _assert_matches_reference(got, ref):
    # every field bit for bit but the exponents, which agree to 1e-12
    assert _bits(replace(got, lyapunov=None)) == _bits(replace(ref, lyapunov=None))
    assert (got.lyapunov is None) == (ref.lyapunov is None)
    for u, v in zip(got.lyapunov or (), ref.lyapunov or ()):
        assert u == v if math.isinf(v) else abs(u - v) <= 1e-12, (got, ref)


_SHORT = {"span": 1000, "circle_points": 2000}
_NAN = math.nan


@pytest.mark.parametrize(
    "M, B, R, kw, s0, verdict",
    [
        (0.3, 0.0, 0.0, {"burn_in": 100}, None, "sink"),  # B = 0: lambda_2 = -inf
        (0.6377723349530227, -0.4727221756336475, -0.132944632739536, {}, None, "sink"),  # period 2
        (1.4, -0.3, 0.0, {}, None, "chaotic"),
        (1.4, -0.3, 0.0, {"burn_in": 0}, None, "chaotic"),
        (1.5, 0.0, 0.0, {"burn_in": 100}, None, "chaotic"),  # B = 0 in the Lyapunov loop
        (1.0882499307464246, -0.4093581291076195, 0.26198589399141053, {}, None, "chaotic"),
        # a weak circle: l1 = 8e-4 > eps_lyap over the 1000 steps right after
        # the period scan, so a span of 1000 calls it chaotic (see the last row)
        (0.6391748891482925, 0.9597201140271611, 0.15, {"burn_in": 5000}, None, "chaotic"),
        (1.0, 0.0, 0.0, {"burn_in": 2000, "max_period": 1}, None, "undecided"),  # contracting
        (-0.8702521591076205, 0.9353196603738455, -0.1, {"burn_in": 5000}, None, "undecided"),  # fit
        (-0.5, 0.0, 0.0, {}, None, "divergent"),  # below the fold, in the burn-in
        (2.2, 0.0, 0.2, {"burn_in": 100}, None, "divergent"),
        (1.3, -0.3, 0.1, {"burn_in": 0, "escape_radius": 1.0}, None, "divergent"),  # period scan
        (2.0728262279286573, -0.0988746001112405, 0.0,
         {"burn_in": 10, "max_period": 4, "circle_points": 1, "escape_radius": 2.387107005616576},
         None, "divergent"),  # in the Lyapunov phase
        (1.1779633777240053, -0.48784711789787827, 0.14085856837899235,
         {"burn_in": 10, "max_period": 4, "circle_points": 1, "escape_radius": 2.979566683704893},
         None, "divergent"),  # in the Lyapunov phase, R != 0
        (1.4, -0.3, 0.0, {"burn_in": 0}, (0.1, 2.0e6), "divergent"),  # |y| > radius at the start
        (1.4, -0.3, 0.0, {"burn_in": 100}, (0.1, -2.0e6), "divergent"),
        (0.5, 0.3, 0.1, {"burn_in": 0}, (_NAN, 0.1), "divergent"),
        (0.5, 0.3, 0.1, {"burn_in": 100}, (0.1, _NAN), "divergent"),
        (0.0, 0.0, 0.0, {"burn_in": 0}, (0.0, 0.0), "sink"),
        # the weak circle above: l1 ~ 1e-4 over a span of 10 000
        (0.6391748891482925, 0.9597201140271611, 0.15, {"burn_in": 5000, "span": 10_000}, None,
         "circle"),
    ],
)
def test_classify_matches_textbook_loops_bitwise(M, B, R, kw, s0, verdict):
    p = GhmParams(M, B, R)
    opts = ClassifyOptions(**{**_SHORT, **kw})
    start = None if s0 is None else State2(*s0)
    res = classify(p, opts, start)
    assert res.verdict == verdict
    _assert_matches_reference(res, _reference_classify(p, opts, start))


def test_lyapunov_matches_textbook_loop_bitwise():
    # random orbits with small radii escape in the burn-in and in the span;
    # the fixed ones add R = 0, B = 0, a superstable origin and bad starts.
    # Escape steps and the no-exponents case agree bit for bit, exponents
    # to 1e-12
    rng = np.random.default_rng(5)
    cases = [((0.0, 0.0, 0.0), (0.0, 0.0), 0, 1.0e6), ((1.5, 0.0, 0.0), (0.1, 0.1), 10, 1.0e6),
             ((1.4, -0.3, 0.0), (0.1, 2.0e6), 0, 1.0e6), ((1.4, -0.3, 0.0), (_NAN, 0.1), 0, 1.0e6),
             ((1.4, -0.3, 0.1), (0.1, _NAN), 5, 1.0e6), ((1.4, -0.3, 0.1), (math.inf, 0.1), 0, 1.0e6)]
    for _ in range(60):
        R = float(rng.choice([0.0, rng.uniform(-0.3, 0.3)]))
        cases.append(((rng.uniform(-0.5, 2.3), rng.uniform(-1.0, 1.0), R),
                      (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
                      int(rng.integers(0, 40)), float(rng.choice([1.0e6, rng.uniform(1.5, 4.0)]))))
    outcomes = set()
    for pm, s0, burn_in, rad in cases:
        got, ref = [], []
        for f, out in ((lyapunov_exponents, got), (_reference_lyapunov_exponents, ref)):
            try:
                out.append(f(GhmParams(*pm), State2(*s0), burn_in, 1000, rad))
            except OrbitEscapedError as e:
                out.append(("escaped", e.step > burn_in, e.step))
        (g,), (r,) = got, ref
        if g[0] == "escaped" or math.isnan(r[0]):
            assert repr(g) == repr(r), (pm, s0, burn_in, rad)
            outcomes.add(g[:2] if g[0] == "escaped" else "no exponents")
            continue
        assert r[1] == g[1] if math.isinf(r[1]) else abs(r[1] - g[1]) <= 1e-12, (pm, s0, g, r)
        assert abs(r[0] - g[0]) <= 1e-12, (pm, s0, g, r)
        outcomes.add("exponents")
    assert outcomes == {"exponents", "no exponents", ("escaped", False), ("escaped", True)}


# ---------------------------------------------------------------------------
# reference: the sweep's per-step vector Lyapunov loop as it stood before the
# block-product kernel, behind the kernel's interface, with an escape test
# after every step. Orbits, escape steps and verdicts must agree exactly;
# exponents only to rounding, since a block norm is not the product of
# per-step norms in floating point.


def _reference_lyapunov_loop(lx, ly, lM, lB, R, span, rad):
    n = lx.size
    v1 = np.full(n, attractor_classifier._INV_SQRT2)
    v2 = np.full(n, attractor_classifier._INV_SQRT2)
    slog = np.zeros(n)
    sdet = np.zeros(n)
    alive = np.ones(n, bool)
    esc = np.zeros(n, dtype=np.int64)
    for s in range(1, span + 1):
        if not alive.any():
            break
        det = lB + R * ly
        rx = R * lx
        w2 = (-2.0 * ly - rx) * v2 - det * v1
        nrm = np.hypot(v2, w2)
        z = None
        if not nrm.all():
            z = nrm == 0.0
            slog[z] = -np.inf
            nrm[z] = 1.0
        slog += np.log(nrm)
        v1, v2 = v2 / nrm, w2 / nrm
        if z is not None:
            v1[z] = 1.0
            v2[z] = 0.0
        sdet += np.log(np.abs(det))
        lx, ly = ly, lM - lB * lx - ly * ly - rx * ly
        bad = alive & ~((np.abs(lx) <= rad) & (np.abs(ly) <= rad))  # nan and inf too
        if bad.any():
            esc[bad] = s
            alive &= ~bad
            lx[bad] = ly[bad] = 0.0
            v1[bad] = v2[bad] = attractor_classifier._INV_SQRT2
    return (*(np.where(alive, v, np.nan) for v in (slog, sdet, lx, ly)), esc)


def _lyapunov_phase_escapes(grid, opts):
    first = opts.burn_in + 4 * opts.max_period
    return sum(c.evidence.get("escape_step", 0) > first for c in grid.cells)


_KERNEL_GRIDS = [
    # R = 0, chaotic cells among sinks and escapes
    ((-0.5, 1.4, -0.3, 0.3, 12, 8, 0.0), dict(burn_in=3000, span=2000, max_period=32), 0),
    # R != 0 over a circle band
    ((0.55, 0.59, 0.97, 0.985, 4, 3, 0.1), dict(burn_in=10000, span=5000, max_period=16), 0),
    # escapes inside the Lyapunov phase, at R = 0 and R != 0
    ((1.0, 2.2, -0.4, 0.4, 32, 24, 0.0), dict(burn_in=50, span=4000, max_period=8), 10),
    ((1.0, 2.2, -0.4, 0.4, 32, 24, 0.1), dict(burn_in=50, span=4000, max_period=8), 10),
    # spans that are not multiples of the block or of the window
    ((-0.5, 2.0, -0.5, 0.5, 9, 7, 0.05), dict(burn_in=100, span=1000, max_period=4), 0),
    ((-0.5, 2.0, -0.5, 0.5, 9, 7, 0.0), dict(burn_in=100, span=1001, max_period=4), 0),
    # the superstable cell (1, 0) and its neighbours
    ((0.999, 1.0, -1e-9, 0.0, 2, 2, 0.0), dict(burn_in=2000, span=1000, max_period=1), 0),
]


@pytest.mark.parametrize("args, kw, min_escapes", _KERNEL_GRIDS)
def test_sweep_block_kernel_matches_step_loop(monkeypatch, args, kw, min_escapes):
    opts = ClassifyOptions(circle_points=2000, **kw)
    got = sweep(*args, opts=opts)
    monkeypatch.setattr(attractor_classifier, "_lyapunov_windows", _reference_lyapunov_loop)
    ref = sweep(*args, opts=opts)
    assert _lyapunov_phase_escapes(ref, opts) >= min_escapes
    lyap_cells = 0
    for c, r in zip(got.cells, ref.cells):
        key = (c.verdict, c.period, c.rotation_number, c.evidence.get("escape_step"))
        assert key == (r.verdict, r.period, r.rotation_number, r.evidence.get("escape_step"))
        assert (c.lyapunov is None) == (r.lyapunov is None)
        if c.lyapunov is None or c.verdict == "sink":
            continue
        lyap_cells += 1
        for u, v in zip(c.lyapunov, r.lyapunov):
            if math.isinf(v):
                assert u == v
            else:
                assert abs(u - v) <= 1e-12, (c, r)
    assert lyap_cells > 0


def test_sweep_kernel_drops_exponents_it_cannot_resolve():
    # (1, 0): the period-2 orbit through the critical point annihilates the
    # tangent vector, so the cell has no exponents; at (0.999, 0) the
    # Jacobian is singular every step without annihilating it, so l2 = -inf
    opts = ClassifyOptions(burn_in=2000, span=1000, max_period=1, circle_points=2000)
    cells = sweep(0.999, 1.0, -1e-9, 0.0, 2, 2, 0.0, opts).cells
    assert (cells[3].verdict, cells[3].lyapunov) == ("undecided", None)
    assert cells[2].verdict == "undecided" and cells[2].lyapunov[1] == -math.inf
    assert math.isfinite(cells[2].lyapunov[0])
    # at M = 1, a 16-step product underflows to 0 at |B| = 1e-100 and to a
    # subnormal at |B| = 1e-40 (l1 would be off by 3e-3): those cells stay
    # undecided without exponents, never chaotic with l1 = +inf
    cells = sweep(0.999, 1.0, 1e-100, 1e-40, 2, 2, 0.0, opts).cells
    assert [c.verdict for c in cells] == ["undecided"] * 4
    assert [c.lyapunov is None for c in cells] == [False, True, False, True]


@pytest.mark.parametrize("w", [1, 2, 3, 4, 5, 512, 513])
@pytest.mark.parametrize("R", [0.0, -0.0, 0.1, -0.05])
@pytest.mark.parametrize("scalar", [False, True])
def test_batch_window_is_the_step_loop_bit_for_bit(w, R, scalar):
    # the batch steps in pairs of rows; each row must be the textbook step
    # M - B*x - y*y - (R*x)*y of the row before, odd w, scalar M and B, and
    # columns that overflow to inf and then nan mid-record included. At
    # R = +-0 the steps drop (R*x)*y, so the overflowing column is stepped
    # again with it, in a batch and alone; from (0.5, -0.0) at M = -0.0 and
    # R = +0.0 the short step gives -0.0 where the textbook gives +0.0, so
    # that column keeps the term, and the batch without it drops it
    rng = np.random.default_rng(w)
    n = 9
    x, y = rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, n)
    x[0], y[0] = 1.0e100, 2.0e160  # y*y overflows in step 1; nan from step 3 on
    if scalar:
        M, B = 1.4, -0.3
    else:
        M, B = rng.uniform(-0.5, 2.0, n), rng.uniform(-1.0, 1.0, n)
        x[1], y[1], M[1], B[1] = 0.5, -0.0, -0.0, 0.0
    with np.errstate(all="ignore"):
        rows = [x, y]
        for _ in range(w):
            xk, yk = rows[-2], rows[-1]
            rows.append(M - B * xk - yk * yk - (R * xk) * yk)
        rows = np.array(rows)
        for c in [slice(None), slice(2, None)] + [slice(i, i + 1) for i in range(n)]:
            Mc, Bc = (v if scalar else v[c] for v in (M, B))
            Y = attractor_classifier._window(x[c], y[c], Mc, Bc, R, w)
            assert Y.shape == rows[:, c].shape
            assert Y.tobytes() == rows[:, c].tobytes(), c
    if w >= 3:
        assert rows[2, 0] == -math.inf and np.isnan(rows[4:, 0]).all()
    if math.copysign(1.0, R) == 1.0 and R == 0.0 and not scalar:
        assert math.copysign(1.0, rows[2, 1]) == 1.0


def test_window_drops_the_zero_term_at_r_zero(monkeypatch):
    # a finite batch record at R = +-0 (a float or an array) and M != 0 takes
    # 3 numpy calls a step, 1.5 of them multiplies, not 3; a zero M keeps the
    # term, and a record that leaves the finite doubles is stepped again with it
    calls = []
    multiply = np.multiply
    monkeypatch.setattr(np, "multiply", lambda *a: calls.append(a) or multiply(*a))
    x, y = np.array([0.1, -0.2]), np.array([0.3, 0.05])
    M, B = np.array([1.4, 1.2]), np.array([-0.3, 0.2])
    cases = [(x, M, 0.0, 12), (x, M, -0.0, 12), (x, M, np.zeros(2), 12), (x, M, 0.1, 24),
             (x, np.array([1.4, -0.0]), 0.0, 24), (np.array([0.1, 1e100]), M, 0.0, 12 + 24)]
    for xs, Ms, R, want in cases:
        calls.clear()
        with np.errstate(all="ignore"):
            attractor_classifier._window(xs, y, Ms, B, R, 8)
        assert len(calls) == want, (xs, Ms, R)


@pytest.mark.parametrize("blocks, k", [(3, 16), (1, 5), (1, 1)])
def test_block_products_are_the_2x2_product_loop(blocks, k):
    # (p, q, r, t) of J_k-1 ... J_0, J_j = [[0, 1], [-d_j, a_j]], per block
    # and cell, against a plain loop on Python floats; (1, 5) and (1, 1) are
    # the short last block of a span
    rng = np.random.default_rng(blocks * 100 + k)
    n = 4
    a, d = rng.uniform(-3.0, 3.0, (blocks, k, n)), rng.uniform(-1.0, 1.0, (blocks, k, n))
    got = attractor_classifier._block_products(a, d)
    assert len(got) == 4 and all(v.shape == (blocks, n) for v in got)
    for b in range(blocks):
        for c in range(n):
            p, q, r, t = 1.0, 0.0, 0.0, 1.0
            for j in range(k):
                aj, dj = float(a[b, j, c]), float(d[b, j, c])
                p, q, r, t = r, t, aj * r - dj * p, aj * t - dj * q
            assert [float(v[b, c]) for v in got] == [p, q, r, t], (b, c)


def test_one_cell_lyapunov_kernel_is_its_batch_column():
    # one cell is recorded up to 32 windows at a time and renormalized on
    # Python floats; a batch of 17 or more cells records one window at a
    # time and renormalizes on arrays. Both give the same bits. The spans end
    # mid-block and mid-window and cross one-cell record boundaries (16384)
    rng = np.random.default_rng(12)
    # (M, B, start or None for the sweep's seed) per R: chaos, a circle, the
    # superstable cell and an underflowing product (no exponents), escapes in
    # the first, second and third one-cell record
    cells = {0.0: [(1.4, -0.3, None), (1.0, 0.0, None), (1.0, 1e-40, None),
                   (1.4274, -0.3, (0.0, 0.0)), (1.4269732, -0.3, (0.0, 0.0)),
                   (1.4269516, -0.3, (0.0, 0.0))],
             0.1: [(-0.74, 1.05, None), (1.4, -0.3, None), (1.451125, -0.3, (0.0, 0.0))]}
    for R, fixed in cells.items():
        fixed += [(rng.uniform(-0.5, 2.3), rng.uniform(-1.0, 1.0), None)
                  for _ in range(32 - len(fixed))]
        M, B = (np.array([c[i] for c in fixed]) for i in (0, 1))
        x, y = attractor_classifier._seeds(M, B, R)
        for i, c in enumerate(fixed):
            if c[2] is not None:
                x[i], y[i] = c[2]
        seen = set()
        for span in (1000, 1003, 16384, 16400, 40007):
            with np.errstate(all="ignore"):
                batch = attractor_classifier._lyapunov_windows(x, y, M, B, R, span, 1.0e6)
                for i in range(M.size):
                    one = attractor_classifier._lyapunov_windows(
                        x[i : i + 1], y[i : i + 1], M[i : i + 1], B[i : i + 1], R, span, 1.0e6)
                    for u, v in zip(one, batch):
                        assert np.array_equal(u, v[i : i + 1], equal_nan=True), (R, span, fixed[i])
            esc = batch[4]
            seen |= {"exponents"} if np.isfinite(batch[0]).any() else set()
            seen |= {"none"} if (np.isnan(batch[0]) & (esc == 0)).any() else set()
            seen |= {"escape"} if (esc > 0).any() else set()
            seen |= {"late escape"} if (esc > 16384).any() else set()
        assert seen == ({"exponents", "none", "escape", "late escape"} if R == 0.0
                        else {"exponents", "escape"})


def test_lyapunov_kernel_outgrows_the_largest_double():
    # l1 ~ 0.42 at the Henon point, so over 3000 steps the tangent vector
    # grows by about e^1260, past the largest double (e^709.8); rescaling by
    # powers of two keeps the exponents finite and equal to the per-step loop's
    p, span = GhmParams(1.4, -0.3, 0.0), 3000
    x, y = attractor_classifier._seeds(np.array([p.M]), np.array([p.B]), p.R)
    ref = _reference_lyapunov_span(p, float(x[0]), float(y[0]), span, 1.0e6)[:2]
    for n in (1, 2):  # the one-cell loop and the batch loop
        cells = [np.repeat(v, n) for v in (x, y, [p.M], [p.B])]
        slog, sdet, _, _, esc = attractor_classifier._lyapunov_windows(*cells, p.R, span, 1.0e6)
        assert not esc.any() and (slog > math.log(np.finfo(float).max)).all()
        for got, want in zip(attractor_classifier._exponents(slog, sdet, span), ref):
            assert np.isfinite(got).all() and np.abs(got - want).max() <= 1e-12, (n, got, want)


@pytest.mark.parametrize("entry", [0, 2])  # p spoils w1 = p*v1 + q*v2, r spoils w2
@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("last", [False, True])
def test_lyapunov_kernel_drops_a_cell_whose_block_image_is_half_bad(monkeypatch, entry, value,
                                                                   last):
    # Python's `a if a >= b else b` passes over a nan a where np.maximum
    # returns it, so a nan or inf in one component of one block image, mid
    # span or in the span's short last block, must leave the cell without
    # exponents in the one-cell loop and in the batch loop alike; the other
    # cell of the batch keeps its bits
    block_products = attractor_classifier._block_products

    def spoiled(a, d):
        prods = [v.copy() for v in block_products(a, d)]
        if (a.shape[1] < attractor_classifier._LYAP_BLOCK) == last:
            prods[entry][-1 if last else 5, 0] = value
        return prods

    M, B = np.array([1.4, 1.3]), np.array([-0.3, -0.3])
    x, y = attractor_classifier._seeds(M, B, 0.0)
    clean = attractor_classifier._lyapunov_windows(x[1:], y[1:], M[1:], B[1:], 0.0, 1000, 1.0e6)
    monkeypatch.setattr(attractor_classifier, "_block_products", spoiled)
    with np.errstate(all="ignore"):
        one = attractor_classifier._lyapunov_windows(x[:1], y[:1], M[:1], B[:1], 0.0, 1000, 1.0e6)
        both = attractor_classifier._lyapunov_windows(x, y, M, B, 0.0, 1000, 1.0e6)
    assert np.isnan(one[0][0]) and np.isnan(both[0][0])
    assert np.isfinite(clean[0][0]) and both[0][1] == clean[0][0]


def test_sweep_cell_does_not_depend_on_batch(monkeypatch):
    # (1.375, -0.3125) is chaotic; in the 2x2 grid it is the only cell of the
    # Lyapunov phase, in the 3x3 grid one of many, and in chunks of two cells
    # it shares a chunk with other cells; every run must give the same bits
    opts = ClassifyOptions(burn_in=2000, span=3000, max_period=16, circle_points=2000)
    small = sweep(-1.0, 1.375, -0.3125, 0.5, 2, 2, 0.0, opts)
    assert [c.verdict for c in small.cells] == ["divergent", "chaotic", "divergent", "sink"]
    big = sweep(1.25, 1.5, -0.375, -0.25, 3, 3, 0.0, opts)
    assert big.params_at(1, 1) == small.params_at(1, 0)
    assert sum(c.lyapunov is not None and c.verdict != "sink" for c in big.cells) > 2
    monkeypatch.setattr(attractor_classifier, "_CELLS", 2)
    chunked = sweep(1.25, 1.5, -0.375, -0.25, 3, 3, 0.0, opts)
    assert chunked.cells == big.cells
    assert _bits(big.cells[4]) == _bits(small.cells[1]) == _bits(chunked.cells[4])


def test_classify_is_its_sweep_cell_bit_for_bit():
    # classify is the sweep of a one-cell batch: verdict, period, exponents,
    # rotation and evidence are the bits of the point's cell in any grid
    def grid_and_classify(args, **kw):
        opts = ClassifyOptions(**kw)
        grid = sweep(*args, opts=opts)
        for i, cell in enumerate(grid.cells):
            assert _bits(classify(grid.params_at(i % grid.nx, i // grid.nx), opts)) == _bits(cell)
        return grid.cells

    # a band past circle birth at R = 0.1 holds all five verdicts
    cells = grid_and_classify((-0.78, -0.70, 1.03, 1.07, 8, 6, 0.1), span=20_000)
    assert {c.verdict for c in cells} == set(VERDICTS)
    short = dict(span=1000, circle_points=2000)
    # the superstable cell (1, 0) at max_period 1 has no exponents
    cells = grid_and_classify((0.999, 1.0, -1e-9, 0.0, 2, 2, 0.0), burn_in=2000,
                              max_period=1, **short)
    assert (cells[3].verdict, cells[3].lyapunov) == ("undecided", None)
    # (1.375, -0.3125) is the one cell of its grid's Lyapunov phase
    cells = grid_and_classify((-1.0, 1.375, -0.3125, 0.5, 2, 2, 0.0), burn_in=2000,
                              max_period=16, **{**short, "span": 3000})
    assert [c.verdict for c in cells] == ["divergent", "chaotic", "divergent", "sink"]
    # orbits that leave inside the Lyapunov phase
    cells = grid_and_classify((1.0, 2.2, -0.4, 0.4, 32, 24, 0.1), burn_in=50,
                              max_period=8, **{**short, "span": 4000})
    assert sum(c.evidence.get("escape_step", 0) > 50 + 32 for c in cells) >= 10


def test_sweep_exponents_obey_the_sum_rule_at_R0():
    # det DT = B at R = 0, so l1 + l2 = ln|B| for every cell with exponents:
    # verified sinks, chaotic, circle and undecided cells alike
    opts = ClassifyOptions(burn_in=50, span=4000, max_period=8, circle_points=2000)
    grid = sweep(-0.5, 2.2, -0.4, 0.4, 16, 12, 0.0, opts)
    seen = set()
    for ib in range(grid.ny):
        for im in range(grid.nx):
            c = grid.cells[ib * grid.nx + im]
            if c.verdict == "divergent":
                continue
            seen.add(c.verdict)
            l1, l2 = c.lyapunov
            assert abs(l1 + l2 - math.log(abs(grid.params_at(im, ib).B))) <= 1e-9, c
    assert {"sink", "chaotic", "undecided"} <= seen
