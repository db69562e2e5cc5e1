"""Generalized Henon map: parameters, fixed points and their multipliers.

The planar map, iterated by attractor_classifier._window, is

    T(x, y) = (y, M - B*x - y**2 - R*x*y).

Fixed points lie on the diagonal x = y and solve

    (1 + R)*x**2 + (1 + B)*x - M = 0.

The Jacobian at (x, y) is [[0, 1], [-B - R*y, -2*y - R*x]], so
det DT = B + R*y everywhere, and at a fixed point the multipliers have
trace -(2 + R)*x and determinant B + R*x.
The roots, the trace and determinant, and eig2 are written here once,
elementwise: fixed_points is their one-point view, and the classifier's
seeds and sink checks run them over whole batches.
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


def eig2(tr, det):
    """Eigenvalues (e1, e2) of 2x2 matrices given their traces and
    determinants, elementwise: two complex arrays of their shape.

    The discriminant is clamped to zero inside its roundoff band so that
    structurally double multipliers (saddle-node and period-doubling loci,
    codimension-2 points) come out exactly equal instead of carrying
    sqrt(eps) noise. A real pair is the larger-modulus root and det over it
    (an exact +-r pair at tr = 0), ordered by (modulus, argument) descending:
    of equal moduli, the negative root (argument pi) first.
    """
    with np.errstate(all="ignore"):  # inf and nan propagate quietly
        tt, fd = tr * tr, 4.0 * det
        disc = tt - fd
        band = 64.0 * _EPS * np.maximum(np.maximum(tt, np.abs(fd)), 1.0)
        real = disc > band
        sq = np.sqrt(np.abs(disc))
        m1 = (tr + np.copysign(sq, tr)) / 2.0
        half = tr / 2.0
        re1 = np.where(real, m1, half)
        re2 = np.where(real, np.where(tr == 0.0, -m1, det / m1), half)
        a1, a2 = np.abs(re1), np.abs(re2)
        swap = (a2 > a1) | ((a2 == a1) & (re2 < re1))
        im = np.where(disc >= -band, 0.0, sq / 2.0)  # sq / 2 below the band, or nan
    e1, e2 = np.where(swap, re2, re1).astype(complex), np.where(swap, re1, re2).astype(complex)
    e1.imag, e2.imag = im, 0.0 - im  # +0.0, as complex(r) has, where im is 0
    return e1, e2


def modulus(z):
    """abs of a complex array with Python abs(complex)'s bits (np.abs differs)."""
    return np.hypot(z.real, z.imag)


def trace_det(x, B, R):
    """Trace and determinant of DT at the fixed points (x, x), elementwise."""
    return -(2.0 + R) * x, B + R * x


def multipliers_at(p: GhmParams, x: float) -> tuple[complex, complex]:
    """Multipliers of the fixed point (x, x), ordered by (modulus, argument) desc."""
    return tuple(complex(e) for e in eig2(*trace_det(x, p.B, p.R)))


def _stability_tag(mults: tuple[complex, complex]) -> str:
    a1, a2 = abs(mults[0]), abs(mults[1])
    if abs(a1 - 1.0) <= UNIT_TOL or abs(a2 - 1.0) <= UNIT_TOL:
        return "non-hyperbolic"
    if a1 < 1.0 and a2 < 1.0:
        return "attracting"
    if a1 > 1.0 and a2 > 1.0:
        return "repelling"
    return "saddle"


def fixed_point_roots(M, B, R: float):
    """Roots (x1, x2) = (-b +- sqrt(disc)) / 2a of the fixed-point equation,
    a = 1 + R, b = 1 + B, and disc = b*b + 4aM (sqrt(0) where disc < 0),
    elementwise in M and B; at R = -1, x1 = x2 = M / b and disc is None.
    Neither clamped nor polished: the classifier's seeds are these bits."""
    a, b = 1.0 + R, 1.0 + B
    with np.errstate(all="ignore"):
        if a == 0.0:
            x = np.divide(M, b)
            return x, x, None
        disc = b * b + 4.0 * a * M
        sq = np.sqrt(np.maximum(disc, 0.0))
        return (-b + sq) / (2.0 * a), (-b - sq) / (2.0 * a), disc


def fixed_points(p: GhmParams) -> list[FixedPointReport]:
    """All fixed points, sorted by x ascending; double roots reported once.

    The one-point view of fixed_point_roots: a discriminant within roundoff
    of zero gives the double root at the vertex, and each simple root takes
    one Newton step. R = -1 degenerates the quadratic to (1+B)x = M: one
    root for B != -1, and the fully degenerate line case R = B = -1 raises
    DegenerateLineError (M = 0 gives a line of fixed points, M != 0 gives
    none; neither fits a finite report list).
    """
    a, b = 1.0 + p.R, 1.0 + p.B
    if a == 0.0 and b == 0.0:
        kind = "every diagonal point is fixed" if p.M == 0.0 else "no fixed points"
        raise DegenerateLineError(
            f"R = -1 and B = -1 degenerate the fixed-point equation to 0 = M ({kind})"
        )
    x1, x2, disc = fixed_point_roots(p.M, p.B, p.R)
    if disc is None:
        xs = [float(x1)]
    elif abs(disc) <= 16.0 * _EPS * max(b * b, abs(4.0 * a * p.M), 1.0):
        xs = [-b / (2.0 * a)]  # double root at the vertex, on the fold locus
    elif disc < 0.0:
        return []
    else:
        xs = []
        for x in (float(x1), float(x2)):
            d = 2.0 * a * x + b
            if d != 0.0:
                x -= (a * x * x + b * x - p.M) / d  # one Newton step cleans the residual
            xs.append(x)
        xs.sort()
    e1, e2 = eig2(*trace_det(np.array(xs), p.B, p.R))
    return [FixedPointReport(State2(x, x), m, _stability_tag(m))
            for x, m in zip(xs, zip(e1.tolist(), e2.tolist()))]
