"""Generalized Henon map: parameters, fixed points and their multipliers.

The planar map, iterated by attractor_classifier._window, is

    T(x, y) = (y, M - B*x - y**2 - R*x*y).

Fixed points lie on the diagonal x = y and solve

    (1 + R)*x**2 + (1 + B)*x - M = 0.

The Jacobian at (x, y) is [[0, 1], [-B - R*y, -2*y - R*x]], so
det DT = B + R*y everywhere, and at a fixed point the multipliers have
trace -(2 + R)*x and determinant B + R*x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# moduli within this band of the unit circle count as non-hyperbolic
UNIT_TOL = 1e-9

_EPS = float(np.finfo(float).eps)


class DegenerateLineError(ValueError):
    """R = -1 and B = -1: the fixed-point equation degenerates to 0 = M."""


@dataclass(frozen=True)
class GhmParams:
    """Parameter triple (M, B, R) of the map."""

    M: float
    B: float
    R: float = 0.0

    def __post_init__(self):
        for name in ("M", "B", "R"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"parameter {name} must be finite, got {v!r}")


@dataclass(frozen=True)
class State2:
    """Phase point of the return plane."""

    x: float
    y: float


@dataclass(frozen=True)
class FixedPointReport:
    point: State2
    multipliers: tuple[complex, complex]
    stability: str  # attracting | repelling | saddle | non-hyperbolic


def eig2(tr: float, det: float) -> tuple[complex, complex]:
    """Eigenvalue pair of a 2x2 matrix given trace and determinant.

    The discriminant is clamped to zero inside its roundoff band so that
    structurally double multipliers (saddle-node and period-doubling loci,
    codimension-2 points) come out exactly equal instead of carrying
    sqrt(eps) noise. Ordered by (modulus, argument) descending.
    """
    disc = tr * tr - 4.0 * det
    scale = max(tr * tr, 4.0 * abs(det), 1.0)
    if abs(disc) <= 64.0 * _EPS * scale:
        m = tr / 2.0
        return (complex(m), complex(m))
    if disc > 0.0:
        sq = math.sqrt(disc)
        if tr == 0.0:
            # exact +-r pair; keep the moduli bit-identical so the angle
            # tie-break below stays deterministic
            pair = (complex(sq / 2.0), complex(-sq / 2.0))
        else:
            m1 = (tr + sq) / 2.0 if tr > 0.0 else (tr - sq) / 2.0
            m2 = det / m1  # larger-modulus root first avoids cancellation
            pair = (complex(m1), complex(m2))
    else:
        im = math.sqrt(-disc) / 2.0
        pair = (complex(tr / 2.0, im), complex(tr / 2.0, -im))
    return tuple(sorted(pair, key=lambda m: (-abs(m), -np.angle(m))))


def multipliers_at(p: GhmParams, x: float) -> tuple[complex, complex]:
    """Multipliers of the fixed point (x, x), ordered by (modulus, argument) desc."""
    tr = -(2.0 + p.R) * x
    det = p.B + p.R * x
    return eig2(tr, det)


def _stability_tag(mults: tuple[complex, complex]) -> str:
    a1, a2 = abs(mults[0]), abs(mults[1])
    if abs(a1 - 1.0) <= UNIT_TOL or abs(a2 - 1.0) <= UNIT_TOL:
        return "non-hyperbolic"
    if a1 < 1.0 and a2 < 1.0:
        return "attracting"
    if a1 > 1.0 and a2 > 1.0:
        return "repelling"
    return "saddle"


def _make_report(p: GhmParams, x: float) -> FixedPointReport:
    mults = multipliers_at(p, x)
    return FixedPointReport(State2(x, x), mults, _stability_tag(mults))


def fixed_points(p: GhmParams) -> list[FixedPointReport]:
    """All fixed points, sorted by x ascending; double roots reported once.

    R = -1 degenerates the quadratic to (1+B)x = M: one root for B != -1,
    and the fully degenerate line case R = B = -1 raises DegenerateLineError
    (M = 0 gives a line of fixed points, M != 0 gives none; neither fits a
    finite report list).
    """
    a = 1.0 + p.R
    b = 1.0 + p.B
    c = -p.M
    if a == 0.0:
        if b == 0.0:
            kind = "every diagonal point is fixed" if p.M == 0.0 else "no fixed points"
            raise DegenerateLineError(
                f"R = -1 and B = -1 degenerate the fixed-point equation to 0 = M ({kind})"
            )
        return [_make_report(p, p.M / b)]
    disc = b * b - 4.0 * a * c
    scale = max(b * b, abs(4.0 * a * c), 1.0)
    if abs(disc) <= 16.0 * _EPS * scale:
        # double root at the vertex; the merged point sits on the fold locus
        return [_make_report(p, -b / (2.0 * a))]
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    q = -(b + math.copysign(sq, b)) / 2.0
    roots = [q / a, c / q]
    polished = []
    for x in roots:
        d = 2.0 * a * x + b
        if d != 0.0:
            x -= (a * x * x + b * x + c) / d  # one Newton step cleans the residual
        polished.append(x)
    polished.sort()
    return [_make_report(p, x) for x in polished]
