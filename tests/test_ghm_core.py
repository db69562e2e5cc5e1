import math

import numpy as np
import pytest

from ghmlab.attractor_classifier import _exits, _window
from ghmlab.ghm_core import (
    DegenerateLineError,
    GhmParams,
    State2,
    fixed_points,
    jacobian,
    multipliers_at,
    step,
)


def test_step_hand_arithmetic():
    p = GhmParams(0.0, 0.0, 0.0)
    assert step(p, State2(0.0, 0.0)) == State2(0.0, 0.0)
    s = step(p, State2(1.0, 1.0))
    assert (s.x, s.y) == (1.0, -1.0)
    s = step(p, s)
    assert (s.x, s.y) == (-1.0, -1.0)
    s = step(p, s)
    assert (s.x, s.y) == (-1.0, -1.0)
    s = step(GhmParams(1.0, 0.3, 0.0), State2(0.0, 1.0))
    assert (s.x, s.y) == (1.0, 0.0)


def test_step_overflow_tags_escaped():
    p = GhmParams(0.0, 0.0, 0.0)
    s = State2(0.0, 1e200)
    s = step(p, s)  # y**2 overflows the dynamic range eventually
    s = step(p, s)
    assert s.escaped


def test_jacobian_entries():
    assert np.array_equal(jacobian(GhmParams(0, 0, 0), State2(0, 0)), [[0, 1], [0, 0]])
    assert np.array_equal(jacobian(GhmParams(0, 0.5, 0), State2(0, 0)), [[0, 1], [-0.5, 0]])
    assert np.array_equal(jacobian(GhmParams(1, 2, 3), State2(1, 1)), [[0, 1], [-5, -5]])


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(1000):
        M, B = rng.uniform(-2, 2, size=2)
        R = rng.uniform(-0.5, 0.5)
        x, y = rng.uniform(-1.5, 1.5, size=2)
        p = GhmParams(M, B, R)
        J = jacobian(p, State2(x, y))
        cols = []
        for dx, dy in ((h, 0.0), (0.0, h)):
            sp = step(p, State2(x + dx, y + dy))
            sm = step(p, State2(x - dx, y - dy))
            cols.append([(sp.x - sm.x) / (2 * h), (sp.y - sm.y) / (2 * h)])
        Jfd = np.array(cols).T
        scale = max(1.0, np.abs(J).max())
        assert np.abs(J - Jfd).max() < 1e-6 * scale


def test_determinant_identity():
    rng = np.random.default_rng(3)
    for _ in range(300):
        M, B = rng.uniform(-5, 5, size=2)
        R = rng.uniform(-0.5, 0.5)
        x, y = rng.uniform(-3, 3, size=2)
        J = jacobian(GhmParams(M, B, R), State2(x, y))
        assert abs(np.linalg.det(J) - (B + R * y)) < 1e-12 * max(1.0, abs(B + R * y))


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
    # every reported point satisfies the map equation to 1e-12
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(10_000):
        p = GhmParams(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-0.5, 0.5))
        for r in fixed_points(p):
            s = step(p, r.point)
            assert max(abs(s.x - r.point.x), abs(s.y - r.point.y)) < 1e-12
            checked += 1
    assert checked > 5000


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
