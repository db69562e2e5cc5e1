import math

import numpy as np
import pytest

from ghmlab.attractor_classifier import _cycle_exponents, _exits, _window
from ghmlab.ghm_core import (
    _EPS,
    DegenerateLineError,
    FixedPointReport,
    GhmParams,
    State2,
    _stability_tag,
    eig2,
    fixed_points,
    multipliers_at,
)


# every map step is taken by attractor_classifier._window: row j + 1 of its
# record is the y after j steps, and _exits reads off the record the step at
# which an orbit leaves the box. A one-cell batch steps on Python floats, a
# larger one in numpy; both must give the same bits


def _orbit(p, x, y, n, rad=1e6):
    """New ys of n steps from (x, y) and the escape step (0 if none), checked
    equal on a one-cell batch and as one column of a three-cell batch."""
    with np.errstate(all="ignore"):  # an escaped orbit runs on to inf and nan
        one = _window(np.array([x]), np.array([y]), p.M, p.B, p.R, n)
        three = _window(np.array([x, 0.0, x]), np.array([0.0, y, y]), p.M, p.B, p.R, n)
    assert one.tobytes() == three[:, 2:].tobytes()
    gone, at = _exits(one, rad)
    return one[2:, 0].tolist(), int(at[0]) if gone[0] else 0


def test_step_hand_arithmetic():
    # the state after step k is (y after step k - 1, y after step k)
    assert _orbit(GhmParams(0.0, 0.0, 0.0), 0.0, 0.0, 1) == ([0.0], 0)  # (0, 0)
    # (1, -1), (-1, -1), (-1, -1)
    assert _orbit(GhmParams(0.0, 0.0, 0.0), 1.0, 1.0, 3) == ([-1.0, -1.0, -1.0], 0)
    assert _orbit(GhmParams(1.0, 0.3, 0.0), 0.0, 1.0, 1) == ([0.0], 0)  # (1, 0)
    assert _orbit(GhmParams(1.0, 2.0, 3.0), 1.0, 1.0, 1) == ([-5.0], 0)  # (1, -5)


def test_step_overflow_tags_escaped():
    # y**2 overflows to -inf at step 1 and to nan at step 2; _exits puts
    # both outside any box, however large
    with np.errstate(all="ignore"):
        Y = _window(np.array([0.0, 0.0]), np.array([1e200, 0.5]), 0.0, 0.0, 0.0, 2)
    assert Y[2, 0] == -math.inf and math.isnan(Y[3, 0])
    gone, at = _exits(Y, 1e300)
    assert gone.tolist() == [True, False] and at.tolist() == [1]


def _sink_check(B, R, x, y):
    """_cycle_exponents on the one-point "cycle" (x, y): (attracting,
    (l1, l2)), the log moduli of the Jacobian's eigenvalues there."""
    ok, lams = _cycle_exponents(np.array([[x], [y]], float), B, R)
    return bool(ok[0]), tuple(lams[0].tolist())


def _central_jacobians(M, B, R, x, y, h=1.0):
    """(n, 2, 2) central-difference Jacobians of one _window step at the
    points (x, y); the map is quadratic, so for any h they are the exact
    Jacobians up to rounding."""
    M, B, R, x, y = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, float))
                                          for v in (M, B, R, x, y)))
    n = x.size
    X = np.concatenate([x + h, x - h, x, x])
    Yc = np.concatenate([y, y, y + h, y - h])
    Y = _window(X, Yc, *(np.tile(v, 4) for v in (M, B, R)), 1)[1:].reshape(2, 4, n)
    ddx = (Y[:, 0] - Y[:, 1]) / (2.0 * h)
    ddy = (Y[:, 2] - Y[:, 3]) / (2.0 * h)
    return np.stack([ddx, ddy], axis=-1).transpose(1, 0, 2)


def test_jacobian_entries():
    # DT = [[0, 1], [-B - R*y, -2*y - R*x]], read off _window steps, and
    # the exact cases of the sink check on one-point cycles
    J = _central_jacobians([0.0, 0.0, 1.0], [0.0, 0.5, 2.0], [0.0, 0.0, 3.0],
                           [0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
    assert J.tolist() == [[[0, 1], [0, 0]], [[0, 1], [-0.5, 0]], [[0, 1], [-5, -5]]]
    # a nilpotent Jacobian, and a focus with multipliers +-i/sqrt(2)
    assert _sink_check(0.0, 0.0, 0.0, 0.0) == (True, (-math.inf,) * 2)
    lam = math.log(math.sqrt(2.0) / 2.0)
    assert _sink_check(0.5, 0.0, 0.0, 0.0) == (True, (lam, lam))
    # [[0, 1], [-5, -5]] has multipliers (-5 -+ sqrt 5)/2, both outside the unit circle
    ok, lams = _sink_check(2.0, 3.0, 1.0, 1.0)
    big, small = (5.0 + math.sqrt(5.0)) / 2.0, (5.0 - math.sqrt(5.0)) / 2.0
    assert not ok
    assert math.isclose(lams[0], math.log(big), rel_tol=1e-14)
    assert math.isclose(lams[1], math.log(small), rel_tol=1e-14)


def test_jacobian_matches_finite_differences():
    # the sink check on a one-point "cycle" gives the log moduli of the
    # Jacobian's eigenvalues there, which sum to log|det DT| = log|B + R*y|;
    # the map is quadratic, so a central difference of one _window step is
    # its Jacobian up to rounding
    rng = np.random.default_rng(7)
    h = 1e-5
    checked = 0
    for _ in range(1000):
        M, B = rng.uniform(-2, 2, size=2)
        R = rng.uniform(-0.5, 0.5)
        x, y = rng.uniform(-1.5, 1.5, size=2)
        Y = _window(np.array([x + h, x - h, x, x]), np.array([y, y, y + h, y - h]), M, B, R, 1)
        d = (Y[1:] - np.roll(Y[1:], -1, axis=1)) / (2.0 * h)  # columns 0 and 2: d/dx, d/dy
        J = d[:, ::2]
        tr, det = np.trace(J), np.linalg.det(J)
        mods = np.sort(np.abs(np.linalg.eigvals(J)))[::-1]
        if abs(tr * tr - 4.0 * det) < 1e-3 or mods[1] < 1e-3:
            continue  # ill-conditioned eigenvalues, or a log of a tiny modulus
        ok, lams = _sink_check(B, R, x, y)
        assert np.abs(np.array(lams) - np.log(mods)).max() < 1e-6
        assert abs(sum(lams) - math.log(abs(B + R * y))) < 1e-12
        assert ok == (mods[0] < 1.0)
        checked += 1
    assert checked > 900


def test_determinant_identity():
    # det DT = B + R*y, for the Jacobian of a _window step and for the
    # exponents the sink check reports on one-point cycles, all in one batch
    rng = np.random.default_rng(3)
    M, B = rng.uniform(-5, 5, size=(2, 300))
    R = rng.uniform(-0.5, 0.5, size=300)
    x, y = rng.uniform(-3, 3, size=(2, 300))
    d = B + R * y
    J = _central_jacobians(M, B, R, x, y)
    assert np.all(np.abs(np.linalg.det(J) - d) < 1e-12 * np.maximum(1.0, np.abs(d)))
    _, lams = _cycle_exponents(np.array([x, y]), B, R)
    assert np.abs(lams.sum(axis=1) - np.log(np.abs(d))).max() < 1e-12


# scalar references: eig2 on Python floats, and fixed_points with the
# cancellation-free closed form q = -(b + sign(b) sqrt(disc))/2, roots q/a
# and c/q


def _reference_eig2(tr, det):
    disc = tr * tr - 4.0 * det
    scale = max(tr * tr, 4.0 * abs(det), 1.0)
    if abs(disc) <= 64.0 * _EPS * scale:
        m = tr / 2.0
        return (complex(m), complex(m))
    if disc > 0.0:
        sq = math.sqrt(disc)
        if tr == 0.0:
            pair = (complex(sq / 2.0), complex(-sq / 2.0))
        else:
            m1 = (tr + sq) / 2.0 if tr > 0.0 else (tr - sq) / 2.0
            pair = (complex(m1), complex(det / m1))
    else:
        im = math.sqrt(-disc) / 2.0
        pair = (complex(tr / 2.0, im), complex(tr / 2.0, -im))
    return tuple(sorted(pair, key=lambda m: (-abs(m), -np.angle(m))))


def _reference_fixed_points(p):
    def report(x):
        mults = _reference_eig2(-(2.0 + p.R) * x, p.B + p.R * x)
        return FixedPointReport(State2(x, x), mults, _stability_tag(mults))

    a, b, c = 1.0 + p.R, 1.0 + p.B, -p.M
    if a == 0.0:
        return [report(p.M / b)]
    disc = b * b - 4.0 * a * c
    if abs(disc) <= 16.0 * _EPS * max(b * b, abs(4.0 * a * c), 1.0):
        return [report(-b / (2.0 * a))]
    if disc < 0.0:
        return []
    q = -(b + math.copysign(math.sqrt(disc), b)) / 2.0
    polished = []
    for x in (q / a, c / q):
        d = 2.0 * a * x + b
        if d != 0.0:
            x -= (a * x * x + b * x + c) / d
        polished.append(x)
    return [report(x) for x in sorted(polished)]


def test_eig2_is_its_scalar_reference_bit_for_bit():
    # values, order and signed zeros of both multipliers, on real and complex
    # pairs, tr = +-0 (an exact +-r pair), det = +-0, both edges of the
    # 64-eps clamp band, ties of modulus between roots of opposite sign, and
    # products that overflow
    rng = np.random.default_rng(17)
    tr = rng.uniform(-4.0, 4.0, 3000)
    det = rng.uniform(-4.0, 4.0, 3000)
    t0 = rng.uniform(-3.0, 3.0, 201)
    cases = [
        (tr, det),
        (tr * 1e-9, det),
        (tr * 1e150, det * 1e300),
        (np.repeat([0.0, -0.0], 100), rng.uniform(-2.0, 2.0, 200)),
        (rng.uniform(-3.0, 3.0, 200), np.repeat([0.0, -0.0], 100)),
        (t0, t0 * t0 / 4.0 * (1.0 + np.arange(-100, 101) * _EPS)),
        (np.array([1e-17, -1e-17, 2.0**-60, 0.0, -0.0, 0.0, math.inf, 1.0, -math.inf]),
         np.array([-1.0, -1.0, -4.0, 0.0, 0.0, -0.0, 1.0, math.inf, -math.inf])),
    ]
    kinds = set()
    for tr, det in cases:
        e1, e2 = eig2(tr, det)
        ref = np.array([_reference_eig2(t, d) for t, d in zip(tr.tolist(), det.tolist())])
        assert np.stack((e1, e2), axis=1).view(np.uint64).tobytes() == ref.view(np.uint64).tobytes()
        kinds |= {"double" if m1 == m2 else "complex" if m1.imag else
                  "tie" if m1 == -m2 else "real" for m1, m2 in ref.tolist()}
    assert kinds == {"double", "complex", "tie", "real"}
    assert [complex(e) for e in eig2(0.0, -0.25)] == [-0.5, 0.5]  # argument pi first


def test_fixed_points_are_their_reference_within_four_ulps():
    # fixed_points polishes the classifier's unpolished roots, so it may
    # differ from the reference by a few ulps, plus the rounding of f(x) in
    # either's Newton step, eps (|a x^2| + |b x| + |M|) / |f'(x)|, which
    # dominates near the fold, where f'(x) = 2ax + b is small
    rng = np.random.default_rng(19)
    moved = 0
    for _ in range(20_000):
        p = GhmParams(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-0.5, 0.5))
        got, ref = fixed_points(p), _reference_fixed_points(p)
        assert len(got) == len(ref)
        a, b = 1.0 + p.R, 1.0 + p.B
        for r, rr in zip(got, ref):
            x, xr = r.point.x, rr.point.x
            newton = _EPS * (abs(a * xr * xr) + abs(b * xr) + abs(p.M)) / abs(2.0 * a * xr + b)
            assert abs(x - xr) <= 4.0 * (np.spacing(abs(xr)) + newton), (p, x, xr)
            assert r.stability == rr.stability
            moved += x != xr
    assert moved > 0


def test_fixed_points_basic_roots():
    reports = fixed_points(GhmParams(0.0, 0.0, 0.0))
    xs = sorted(r.point.x for r in reports)
    assert xs == [-1.0, 0.0]
    for r in reports:
        assert r.point.x == r.point.y

    # double root on the fold locus at B=0, R=0: M = -1/4
    reports = fixed_points(GhmParams(-0.25, 0.0, 0.0))
    assert len(reports) == 1
    assert abs(reports[0].point.x + 0.5) < 1e-12
    assert reports[0].stability == "non-hyperbolic"  # multiplier +1

    assert fixed_points(GhmParams(-1.0, 0.0, 0.0)) == []
    for p in (GhmParams(0.0, 0.0, 0.0), GhmParams(-0.25, 0.0, 0.0), GhmParams(-1.0, 0.0, 0.0),
              GhmParams(1.0, 1.0, -1.0), GhmParams(0.75, 0.0, 0.0), GhmParams(-1.0, 1.0, 0.0)):
        assert fixed_points(p) == _reference_fixed_points(p)


def test_fixed_points_linear_branch_and_degenerate_line():
    # R = -1: (1+B) x = M
    reports = fixed_points(GhmParams(1.0, 1.0, -1.0))
    assert len(reports) == 1
    assert abs(reports[0].point.x - 0.5) < 1e-12
    with pytest.raises(DegenerateLineError):
        fixed_points(GhmParams(0.0, -1.0, -1.0))
    with pytest.raises(DegenerateLineError):
        fixed_points(GhmParams(0.3, -1.0, -1.0))


def test_fixed_point_residual_random():
    # every reported point satisfies the map equation to 1e-12: one _window
    # step over all of them at once maps (x, y) to (y, y') with y = x, y' = y
    rng = np.random.default_rng(11)
    pts = []
    for _ in range(10_000):
        p = GhmParams(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-0.5, 0.5))
        pts += [(p.M, p.B, p.R, r.point.x, r.point.y) for r in fixed_points(p)]
    M, B, R, x, y = (np.array(v) for v in zip(*pts))
    Y = _window(x, y, M, B, R, 1)
    assert np.abs(Y[1] - x).max() < 1e-12 and np.abs(Y[2] - y).max() < 1e-12
    assert len(pts) > 5000


def test_multiplier_sum_product_random():
    rng = np.random.default_rng(13)
    for _ in range(2000):
        p = GhmParams(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-0.5, 0.5))
        for r in fixed_points(p):
            x = r.point.x
            m1, m2 = r.multipliers
            scale = max(1.0, abs(x) ** 2)
            assert abs(m1 * m2 - (p.B + p.R * x)) < 1e-10 * scale
            assert abs(m1 + m2 - (-(2 + p.R) * x)) < 1e-10 * scale


def test_multipliers_examples():
    m1, m2 = multipliers_at(GhmParams(0.0, 0.5, 0.0), 0.0)
    assert abs(m1 - 0.7071067811865476j) < 1e-12
    assert abs(m2 + 0.7071067811865476j) < 1e-12

    m1, m2 = multipliers_at(GhmParams(0.75, 0.0, 0.0), 0.5)
    assert abs(m1 + 1.0) < 1e-12 and abs(m2) < 1e-12

    # double multiplier +1 at (M, B) = (-1, 1), R = 0
    m1, m2 = multipliers_at(GhmParams(-1.0, 1.0, 0.0), -1.0)
    assert m1 == m2
    assert abs(m1 - 1.0) < 1e-12


def test_multiplier_ordering():
    # modulus descending, then argument descending
    m1, m2 = multipliers_at(GhmParams(0.0, -0.5, 0.0), 0.0)  # {+r, -r}
    assert abs(m1.imag) < 1e-15 and m1.real < 0 < m2.real  # arg pi beats arg 0


def test_orbit_fixed_point_and_escape():
    assert _orbit(GhmParams(0, 0, 0), 0.0, 0.0, 9) == ([0.0] * 9, 0)

    ys, esc = _orbit(GhmParams(-1.0, 0.0, 0.0), 0.0, 0.0, 10_000)
    assert 1 <= esc <= 10_000
    ys = np.array(ys[: esc - 1])  # the ys before the escaping one
    assert np.isfinite(ys).all() and np.abs(ys).max() <= 1e6


def test_orbit_period_two_above_flip():
    # B = R = 0 reduces to ybar = M - y**2; at M = 1 the 1D map has an
    # attracting 2-cycle {0, 1}
    ys, _ = _orbit(GhmParams(1.0, 0.0, 0.0), 0.0, 0.1, 4999)
    tail = np.array(ys[-20:])
    tgt = np.tile([0.0, 1.0], 10)
    assert min(np.abs(tail - tgt).max(), np.abs(tail - np.roll(tgt, 1)).max()) < 1e-8


def test_orbit_reduces_to_1d_map_when_B_and_R_vanish():
    rng = np.random.default_rng(5)
    for _ in range(50):
        M = rng.uniform(-0.2, 1.9)
        y0 = rng.uniform(-0.5, 0.5)
        ys, esc = _orbit(GhmParams(M, 0.0, 0.0), rng.uniform(-1, 1), y0, 199)
        y = y0
        for got in ys[: esc - 1 if esc else None]:
            y = M - y * y
            assert abs(got - y) <= 1e-12 * max(1.0, abs(y))


def test_params_reject_non_finite():
    with pytest.raises(ValueError):
        GhmParams(math.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        GhmParams(0.0, math.inf, 0.0)
