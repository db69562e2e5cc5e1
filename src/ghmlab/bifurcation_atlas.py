"""Closed-form bifurcation curves and organizing points of the map.

All formulas are for the fixed points of (x, y) -> (y, M - Bx - y^2 - Rxy):

    fold curve          M = -(1+B)^2 / (4(1+R))        multiplier +1
    flip curve          M = (1+B)^2 (3+R) / 4          multiplier -1
    circle-birth curve  M = (c^2 - c(2+R)) / (1+R/2)^2,
                        B = 1 + R c / (1+R/2),  c = cos(omega), 0 < omega < pi
    neutral-saddle curve: same expressions with c = alpha > 1
    circle-birth by B   M = (1+R) x^2 + (1+B) x,  x = (1-B)/R   (lphi_m),
                        over |B - 1| < |R| / |1+R/2|            (lphi_band)

The circle-birth curve carries multipliers e^{+-i omega} (determinant 1,
trace 2 cos omega); its omega -> 0 endpoint is the double-(+1) point and its
omega -> pi endpoint the double-(-1) point:

    BT = ( -(1+R)/(1+R/2)^2 ,  1 + R/(1+R/2) )
    HT = (  (3+R)/(1+R/2)^2 ,  (1 - R/2)/(1+R/2) )

The stability domain test is done by multipliers, not curve geometry, so it
is exact on the boundaries up to the non-hyperbolic tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ghm_core import GhmParams, fixed_points, trace_det

MAX_SAMPLES = 10**6  # trace_curves refuses more samples per curve
FORMULA_TOL = 1e-12  # validate_sample's relative bar on the curve formulas
MULT_TOL = 1e-10  # its absolute bar on the designated fixed point's trace and det


@dataclass(frozen=True)
class CurveSample:
    curve_id: str  # one of CURVE_IDS
    parameter: float  # B for Lplus/Lminus, omega for Lphi, alpha for Lneutral
    M: float
    B: float
    R: float


@dataclass(frozen=True)
class OrganizingPoint:
    kind: str  # "BT" | "HT"
    M: float
    B: float
    R: float

    @property
    def location(self) -> tuple[float, float]:
        return (self.M, self.B)


def curve_L_plus(B: float, R: float) -> float:
    """Fold locus: M where a pair of fixed points is born with multiplier +1."""
    if R == -1.0:
        raise ValueError("R = -1 is outside the quadratic fixed-point branch")
    t = 1.0 + B
    return -t * t / (4.0 * (1.0 + R))


def curve_L_minus(B: float, R: float) -> float:
    """Flip locus: M where the attracting fixed point has multiplier -1."""
    t = 1.0 + B
    return 0.25 * t * t * (3.0 + R)


def curve_L_phi(omega: float, R: float) -> tuple[float, float]:
    """Circle-birth locus, parametrized by the multiplier angle omega in (0, pi)."""
    if not 0.0 < omega < math.pi:
        raise ValueError("omega must lie strictly inside (0, pi)")
    if R == -2.0:
        raise ValueError("R = -2 degenerates the parametrization")
    return _phi_family(math.cos(omega), R)


def curve_L_neutral(alpha: float, R: float) -> tuple[float, float]:
    """Neutral-saddle locus: circle-birth expressions continued to alpha > 1.

    The fixed point is a saddle with real positive multipliers of product 1.
    """
    if not alpha > 1.0:
        raise ValueError("alpha must exceed 1")
    if R == -2.0:
        raise ValueError("R = -2 degenerates the parametrization")
    return _phi_family(alpha, R)


def _phi_family(c: float, R: float) -> tuple[float, float]:
    h = 1.0 + 0.5 * R
    M = (c * c - c * (2.0 + R)) / (h * h)
    B = 1.0 + R * c / h
    return (M, B)


def lphi_m(B, R):
    """M of the circle-birth curve at (B, R), R != 0: M = (1 + R) x^2 + (1 + B) x
    at the fixed point x = (1 - B) / R whose multipliers have product 1.
    Elementwise."""
    x = (1.0 - B) / R
    return (1.0 + R) * x * x + (1.0 + B) * x


def lphi_band(R, margin):
    """margin * |R| / |1 + R/2|. At margin 1 this is the half-width of the
    circle-birth curve's B-range about B = 1. Elementwise; on arrays R = -2
    gives inf, and an inf or nan R gives nan."""
    return margin * abs(R) / abs(1.0 + R / 2.0)


# Each curve once, in CURVE_IDS order: its i-th parameter of S, its (M, B) at
# (parameter, R), its designated fixed point x at (parameter, B, R), and the
# identity its multipliers satisfy there, given (trace, det, parameter)
_CURVES = {
    "Lplus": (lambda i, S: -3.0 + 6.0 * i / (S - 1), lambda B, R: (curve_L_plus(B, R), B),
              lambda _, B, R: -(1.0 + B) / (2.0 * (1.0 + R)),
              lambda tr, det, _: abs(1.0 - tr + det) <= MULT_TOL),  # +1 is a root of m^2 - tr m + det
    "Lminus": (lambda i, S: -3.0 + 6.0 * i / (S - 1), lambda B, R: (curve_L_minus(B, R), B),
               lambda _, B, R: (1.0 + B) / 2.0,
               lambda tr, det, _: abs(1.0 + tr + det) <= MULT_TOL),  # -1 is a root
    "Lphi": (lambda i, S: math.pi * (i + 1) / (S + 1), curve_L_phi,
             lambda om, _, R: -2.0 * math.cos(om) / (2.0 + R),
             lambda tr, det, om: abs(det - 1.0) <= MULT_TOL and abs(tr - 2.0 * math.cos(om)) <= MULT_TOL),
    "Lneutral": (lambda i, S: 1.0 + 2.0 * (i + 1) / S, curve_L_neutral,
                 lambda al, _, R: -2.0 * al / (2.0 + R),
                 lambda tr, det, _: abs(det - 1.0) <= MULT_TOL and tr > 2.0),  # a real positive pair
}
CURVE_IDS = tuple(_CURVES)


def _curve(sample: CurveSample):
    if sample.curve_id not in _CURVES:
        raise ValueError(f"unknown curve id {sample.curve_id!r}")
    return _CURVES[sample.curve_id]


def designated_fixed_point(sample: CurveSample) -> float:
    """x-coordinate of the fixed point whose multipliers define the curve."""
    return _curve(sample)[2](sample.parameter, sample.B, sample.R)


def organizing_points(R: float) -> tuple[OrganizingPoint, OrganizingPoint]:
    """Double-multiplier points (+1 and -1) at the ends of the circle-birth curve."""
    if R == -2.0:
        raise ValueError("R = -2 degenerates the expressions")
    h = 1.0 + 0.5 * R
    bt = OrganizingPoint("BT", -(1.0 + R) / (h * h), 1.0 + R / h, R)
    ht = OrganizingPoint("HT", (3.0 + R) / (h * h), (1.0 - 0.5 * R) / h, R)
    return bt, ht


def in_stability_domain(p: GhmParams) -> bool:
    """True iff the map has an attracting fixed point at p.

    Decided by the multiplier test, so correct up to the non-hyperbolic
    tolerance even exactly on the bounding curves.
    """
    if p.R in (-1.0, -2.0):
        raise ValueError("R in {-1, -2} is outside the domain of this test")
    return any(r.stability == "attracting" for r in fixed_points(p))


def trace_curves(R: float, samples_per_curve: int) -> list[CurveSample]:
    """Uniform samples of all four curves, ordered (curve id, parameter asc).

    Fold/flip curves are sampled over B in [-3, 3] (closed), the circle-birth
    curve over interior points of omega in (0, pi), the neutral curve over
    alpha in (1, 3] (right endpoint included). The window matches the region
    where the curves organize the (M, B) plane around B = 1. At most
    MAX_SAMPLES samples per curve are drawn. ValueError when R puts a sample
    out of floating-point range.
    """
    S = samples_per_curve
    if not 2 <= S <= MAX_SAMPLES:
        raise ValueError(f"need 2 to {MAX_SAMPLES} samples per curve")
    if not math.isfinite(R):
        raise ValueError("R must be finite")
    out = [CurveSample(cid, par, *mb(par, R), R) for cid, (param, mb, *_) in _CURVES.items()
           for par in (param(i, S) for i in range(S))]
    if not all(math.isfinite(s.M) and math.isfinite(s.B) for s in out):
        raise ValueError(f"R={R!r} puts curve samples out of floating-point range")
    return out


def validate_sample(sample: CurveSample) -> None:
    """Raise AssertionError unless the sample satisfies its defining identities
    (explicitly, so the check holds under python -O too)."""
    _, mb, _, identity = _curve(sample)
    par, R = sample.parameter, sample.R
    M, B = mb(par, R)  # for Lplus and Lminus the parameter is B itself
    tr, det = trace_det(designated_fixed_point(sample), sample.B, R)
    if not (abs(sample.M - M) <= FORMULA_TOL * max(1.0, abs(M))
            and abs(sample.B - B) <= FORMULA_TOL * max(1.0, abs(B)) and identity(tr, det, par)):
        raise AssertionError(f"{sample.curve_id} sample at parameter {par!r} fails its defining identities")
