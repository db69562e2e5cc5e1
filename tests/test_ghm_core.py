import math

import numpy as np
import pytest

from ghmlab.attractor_classifier import _exits, _verify_cycle, _window
from ghmlab.ghm_core import DegenerateLineError, GhmParams, fixed_points, multipliers_at


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
    # the exact cases of _verify_cycle on one-point cycles
    J = _central_jacobians([0.0, 0.0, 1.0], [0.0, 0.5, 2.0], [0.0, 0.0, 3.0],
                           [0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
    assert J.tolist() == [[[0, 1], [0, 0]], [[0, 1], [-0.5, 0]], [[0, 1], [-5, -5]]]
    # a nilpotent Jacobian, and a focus with multipliers +-i/sqrt(2)
    assert _verify_cycle(GhmParams(0.0, 0.0, 0.0), np.zeros((1, 2))) == (True, (-math.inf,) * 2)
    lam = math.log(math.sqrt(2.0) / 2.0)
    assert _verify_cycle(GhmParams(0.0, 0.5, 0.0), np.zeros((1, 2))) == (True, (lam, lam))
    # [[0, 1], [-5, -5]] has multipliers (-5 -+ sqrt 5)/2, both outside the unit circle
    ok, lams = _verify_cycle(GhmParams(1.0, 2.0, 3.0), np.array([[1.0, 1.0]]))
    big, small = (5.0 + math.sqrt(5.0)) / 2.0, (5.0 - math.sqrt(5.0)) / 2.0
    assert not ok
    assert math.isclose(lams[0], math.log(big), rel_tol=1e-14)
    assert math.isclose(lams[1], math.log(small), rel_tol=1e-14)


def test_jacobian_matches_finite_differences():
    # _verify_cycle on a one-point "cycle" gives the log moduli of the
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
        ok, lams = _verify_cycle(GhmParams(M, B, R), np.array([[x, y]]))
        assert np.abs(np.array(lams) - np.log(mods)).max() < 1e-6
        assert abs(sum(lams) - math.log(abs(B + R * y))) < 1e-12
        assert ok == (mods[0] < 1.0)
        checked += 1
    assert checked > 900


def test_determinant_identity():
    # det DT = B + R*y, for the Jacobian of a _window step and for the
    # exponents _verify_cycle reports on a one-point cycle
    rng = np.random.default_rng(3)
    M, B = rng.uniform(-5, 5, size=(2, 300))
    R = rng.uniform(-0.5, 0.5, size=300)
    x, y = rng.uniform(-3, 3, size=(2, 300))
    d = B + R * y
    J = _central_jacobians(M, B, R, x, y)
    assert np.all(np.abs(np.linalg.det(J) - d) < 1e-12 * np.maximum(1.0, np.abs(d)))
    for Mi, Bi, Ri, xi, yi, di in zip(M, B, R, x, y, d):
        ok, lams = _verify_cycle(GhmParams(Mi, Bi, Ri), np.array([[xi, yi]]))
        assert abs(sum(lams) - math.log(abs(di))) < 1e-12


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
