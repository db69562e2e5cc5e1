"""Bifurcation toolkit for the generalized Henon map.

The map under study is

    xbar = y,   ybar = M - B*x - y**2 - R*x*y

together with its closed-form bifurcation curves, attractor
classification over (M, B) parameter planes, and the construction of
this map as the rescaled first-return map of a 3D diffeomorphism with
a homoclinic tangency to a saddle with multipliers (lam*e^{+-i*phi}, gamma).
"""

from .ghm_core import (
    GhmParams,
    State2,
    FixedPointReport,
    DegenerateLineError,
    fixed_points,
    multipliers_at,
)
from .bifurcation_atlas import (
    CurveSample,
    OrganizingPoint,
    curve_L_plus,
    curve_L_minus,
    curve_L_phi,
    curve_L_neutral,
    designated_fixed_point,
    organizing_points,
    in_stability_domain,
    trace_curves,
    validate_sample,
)
from .attractor_classifier import (
    AttractorClass,
    ClassifyOptions,
    SweepGrid,
    lyapunov_exponents,
    detect_period,
    fit_invariant_circle,
    classify,
    sweep,
)
from .tangency_lab import (
    SaddleSpectrum,
    GlobalMapCoeffs,
    ReturnMap,
    ReturnMapConfig,
    CoexistenceBox,
    CoexistenceHit,
    DEFAULT_SPECTRUM,
    DEFAULT_COEFFS,
    COEX_COEFFS,
    local_map,
    global_map,
    tangency_jacobian,
    window_terms,
    asymptotic_params,
    window_invert,
    window_mb,
    mount_window,
    fit_ghm,
    fit_ghm_series,
    coexistence_search,
)

__version__ = "0.1.0"
