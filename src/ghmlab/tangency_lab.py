"""Return-map laboratory for a 3D diffeomorphism with a homoclinic tangency.

The model is split into a linear local map T0 (saddle with stable plane
multipliers lam*exp(+-i*phi) and unstable multiplier gamma) and an
affine-plus-quadratic global map T1 carrying a quadratic tangency of the
invariant manifolds. The first-return map T_n = T1 o T0^n acts on a thin
slice sigma_n; rescaling its y-component produces, for large n, the planar
quadratic map x' = y, y' = M - B x - y^2 - R x y. This module constructs
T_n numerically, evaluates the leading-order parameter asymptotics
(M, B, R as functions of mu, phi, n), inverts them over a parameter window,
and fits the quadratic map to actual return-map data so the two can be
compared. Both are GhmParams: a window's (M, B, R) is a member of the family.

Gauge conventions: the leading-order formulas treat the model's coefficient
amplitude, rotation phase, and tangency offset mu0_n as 1, 0, 0 (the usual
normal-form normalizations). mount_window realizes a requested (M, B) window
inside the concrete model by solving the exact amplitude/phase/offset
relations, its offset mu0_n from window_terms as the coexistence prefilter
takes it, so fitted parameters are comparable with the leading-order ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .attractor_classifier import AttractorClass, _window, classify
from .bifurcation_atlas import in_stability_domain, lphi_band, lphi_m
from .ghm_core import GhmParams

EXCLUDED_RADIUS = 0.25  # parameter-plane ball around the origin where B ~ 0
SIGMA_HALF_HEIGHT = 0.25  # half-height h of the exit box in raw y
# window_invert refuses a window whose round trip misses its target by more
# than this, relative (about half the digits of a double)
ROUND_TRIP_TOL = 1e-8
MAX_PHI_STEPS = 10**7  # CoexistenceBox refuses a finer phi scan
# coexistence_search forms and prefilters the phi grid this many points at a
# time: the chunk and its ~20 elementwise work arrays hold 64 KB each
_PHI_CHUNK = 8192
U_ESCAPE = 50.0  # rescaled-coordinate escape bound for fit orbits
FIT_RETURNS = 64  # returns of each fit_ghm seed orbit
FIT_DISCARD = 4  # leading returns fit_ghm drops before it forms triples


class FitError(RuntimeError):
    """Return-map data cannot support the quadratic fit."""


def _vec2(v, name):
    a = np.asarray(v, dtype=float)
    if a.shape != (2,) or not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be a finite 2-vector")
    return a


@dataclass(frozen=True)
class SaddleSpectrum:
    """Multiplier data of the (2,1) saddle: lam*e^{+-i*phi} stable, gamma unstable."""

    lam: float
    gamma: float

    def __post_init__(self):
        if not (0.0 < self.lam < 1.0 < self.gamma):
            raise ValueError("need 0 < lam < 1 < gamma")
        if not (self.lam * self.lam * self.gamma < 1.0 < self.lam * self.gamma):
            raise ValueError(
                "saddle spectrum requires lambda^2*gamma < 1 < lambda*gamma "
                f"(got lambda^2*gamma={self.lam**2 * self.gamma:.6g}, "
                f"lambda*gamma={self.lam * self.gamma:.6g})"
            )


@dataclass(frozen=True, eq=False)
class GlobalMapCoeffs:
    """Affine-plus-quadratic global map along the homoclinic excursion.

    x' = x_plus + A x + b (y - y_minus);  y' = mu + c.x + d (y - y_minus)^2.
    (0, 0, y_minus) is the tangency preimage; at mu = 0 it lands on the
    stable plane at (x_plus, 0).
    """

    x_plus: np.ndarray
    y_minus: float
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: float
    mu: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x_plus", _vec2(self.x_plus, "x_plus"))
        object.__setattr__(self, "b", _vec2(self.b, "b"))
        object.__setattr__(self, "c", _vec2(self.c, "c"))
        a = np.asarray(self.A, dtype=float)
        if a.shape != (2, 2) or not np.all(np.isfinite(a)):
            raise ValueError("A must be a finite 2x2 matrix")
        object.__setattr__(self, "A", a)
        if self.d == 0.0 or not math.isfinite(self.d):
            raise ValueError("d must be nonzero (quadratic tangency)")
        if not (math.isfinite(self.y_minus) and math.isfinite(self.mu)):
            raise ValueError("y_minus and mu must be finite")


DEFAULT_SPECTRUM = SaddleSpectrum(lam=0.7, gamma=1.8)

DEFAULT_COEFFS = GlobalMapCoeffs(
    x_plus=(0.3, 0.0),
    y_minus=0.5,
    A=((0.9, 0.1), (-0.1, 0.8)),
    b=(0.2, 0.1),
    c=(1.0, 0.3),
    d=1.0,
)


@dataclass(frozen=True)
class ReturnMapConfig:
    """One first-return map: spectrum + global coefficients + (n, phi).

    phi is the perturbed rotation angle of the local map (the unfolding
    coordinate); coeffs.mu is the splitting parameter. The exit box's
    half-height SIGMA_HALF_HEIGHT fixes the sigma_n slice.
    """

    spectrum: SaddleSpectrum
    coeffs: GlobalMapCoeffs
    n: int
    phi: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("return index n must be >= 1")
        if not (0.0 < self.phi < math.pi):
            raise ValueError("phi must lie strictly inside (0, pi)")

    @property
    def sigma_center(self) -> float:
        return self.spectrum.gamma ** (-self.n) * self.coeffs.y_minus


# ---------------------------------------------------------------------------
# the model maps


def local_map(spectrum: SaddleSpectrum, phi: float):
    """Linear saddle step: returns f(x1, x2, y) -> (x1', x2', y'), x turned
    by phi and scaled by lam, y scaled by gamma."""
    c, s = spectrum.lam * math.cos(phi), spectrum.lam * math.sin(phi)
    g = spectrum.gamma

    def f(x1, x2, y):
        return (c * x1 - s * x2, s * x1 + c * x2, g * y)

    return f


def global_map(coeffs: GlobalMapCoeffs):
    """Homoclinic excursion step: returns f(x1, x2, y) -> (x1', x2', y')."""
    cf = coeffs

    def f(x1, x2, y):
        w = y - cf.y_minus
        xp1 = cf.x_plus[0] + cf.A[0, 0] * x1 + cf.A[0, 1] * x2 + cf.b[0] * w
        xp2 = cf.x_plus[1] + cf.A[1, 0] * x1 + cf.A[1, 1] * x2 + cf.b[1] * w
        yp = cf.mu + cf.c[0] * x1 + cf.c[1] * x2 + cf.d * w * w
        return (xp1, xp2, yp)

    return f


def tangency_jacobian(coeffs: GlobalMapCoeffs) -> float:
    """det of the 3x3 differential of the global map at the tangency preimage.

    The y-row degenerates there (d(y')/dy = 0), so the determinant reduces to
    the bordered form det [[A, b], [c, 0]]. Its sign is the J1 that fixes the
    sign of the rescaled R.
    """
    m = np.zeros((3, 3))
    m[:2, :2] = coeffs.A
    m[:2, 2] = coeffs.b
    m[2, :2] = coeffs.c
    return float(np.linalg.det(m))


def _x_recursion(spectrum: SaddleSpectrum, coeffs: GlobalMapCoeffs, n: int, phi):
    """Entries (e11, e12, e21, e22) of the x-recursion matrix E = lam^n A Rot(n phi)
    and (r1, r2) of c.Rot(n phi), elementwise in phi (a float or an array)."""
    lamn = spectrum.lam**n
    ct, st = np.cos(n * phi), np.sin(n * phi)
    (a11, a12), (a21, a22) = coeffs.A
    c1, c2 = coeffs.c
    E = (lamn * (a11 * ct + a12 * st), lamn * (a12 * ct - a11 * st),
         lamn * (a21 * ct + a22 * st), lamn * (a22 * ct - a21 * st))
    return E, (c1 * ct + c2 * st, c2 * ct - c1 * st)


def _resolvent(E, r1, r2):
    """x = (I - E)^-1 r in closed form, elementwise in E's entries and in r."""
    e11, e12, e21, e22 = E
    m11, m22 = 1.0 - e11, 1.0 - e22
    det = m11 * m22 - e12 * e21
    return (m22 * r1 + e12 * r2) / det, (e21 * r1 + m11 * r2) / det


class ReturnMap:
    """T_n = T1 o T0^n restricted to the sigma_n slice.

    T0^n is applied in closed form (lam^n Rot(n phi), gamma^n); the
    composition is exact, not n substeps. step() is the batched map in
    (x, w) coordinates, w = gamma^n y - y_minus, where sigma_n is |w| <= h;
    it is elementwise, so an orbit's bits do not depend on its batch, and
    rows() runs the orbits of several maps as one batch. u_scale = -d gamma^n
    gives the rescaled coordinate u = u_scale * w.
    """

    def __init__(self, config: ReturnMapConfig):
        sp, cf, n = config.spectrum, config.coeffs, config.n
        self.gn = sp.gamma**n
        self.u_scale = -cf.d * self.gn
        self.E, (r1, r2) = _x_recursion(sp, cf, n, config.phi)
        gl = self.gn * sp.lam**n
        self._k = (self.gn * cf.mu - cf.y_minus, self.gn * cf.d, gl * r1, gl * r2,
                   *cf.x_plus, *cf.b)

    @classmethod
    def rows(cls, maps: list[ReturnMap], m: int) -> ReturnMap:
        """The maps' orbits as one batch of m rows per map, in order: each
        coefficient of step, and u_scale, becomes a column holding each map's
        value on its own rows, so every row gets its own map's bits. Only
        step, u_scale and _manifold_seed are meant for the result."""
        T = cls.__new__(cls)
        col = lambda *v: np.repeat(v, m)  # noqa: E731
        T.E = tuple(map(col, *(t.E for t in maps)))
        T._k = tuple(map(col, *(t._k for t in maps)))
        T.u_scale = col(*(t.u_scale for t in maps))
        return T

    def step(self, X, w):
        """One return of x-parts X = (x1, x2) and exit-box coordinates w, each (m,)."""
        x1, x2 = X
        e11, e12, e21, e22 = self.E
        k0, kw, k1, k2, p1, p2, b1, b2 = self._k
        wn = k0 + kw * w * w + k1 * x1 + k2 * x2
        return (p1 + e11 * x1 + e12 * x2 + b1 * w, p2 + e21 * x1 + e22 * x2 + b2 * w), wn


# ---------------------------------------------------------------------------
# window asymptotics


def window_terms(spectrum: SaddleSpectrum, coeffs: GlobalMapCoeffs, n: int, phi):
    """(B_n, mu0_n) of the n-th return window, elementwise in phi (a float
    or an array): B_n = -(lam gamma)^n c.Rot(n phi).b, and the splitting
    value mu0_n = gamma^-n y_minus - lam^n c.Rot(n phi).Xc at which the
    window is centered, Xc = (I - lam^n A Rot(n phi))^-1 x_plus the fixed
    point of the x-recursion. ValueError when (lam gamma)^n overflows."""
    try:
        amp = (spectrum.lam * spectrum.gamma) ** n
    except OverflowError:
        raise ValueError(f"(lam*gamma)^n overflows at return index n={n}") from None
    E, (r1, r2) = _x_recursion(spectrum, coeffs, n, phi)
    x1, x2 = _resolvent(E, *coeffs.x_plus)
    return (-amp * (r1 * coeffs.b[0] + r2 * coeffs.b[1]),
            spectrum.gamma ** (-n) * coeffs.y_minus - spectrum.lam**n * (r1 * x1 + r2 * x2))


def asymptotic_params(spectrum: SaddleSpectrum, mu: float, phi: float, n: int,
                      j1: float) -> GhmParams:
    """Leading-order rescaled parameters of the n-th return window.

    M = gamma^2n mu, B = (lam gamma)^n cos(n phi), R = 2 j1 (lam^2 gamma)^n / B
    (_window_r).
    All suppressed correction terms are dropped. Rejected when B falls in
    the strip |B| < EXCLUDED_RADIUS, where the R formula degenerates; the
    window map alone is window_mb.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    M, B = window_mb(spectrum, mu, phi, n)
    if abs(B) < EXCLUDED_RADIUS:
        raise ValueError(
            f"|B|={abs(B):.6g} inside the strip |B| < {EXCLUDED_RADIUS:g}, "
            "where the R asymptotics degenerate near B=0"
        )
    return GhmParams(M, B, float(_window_r(spectrum, j1, n, B)))


def _window_r(spectrum: SaddleSpectrum, j1: float, n: int, B):
    """Leading-order R = 2 j1 (lam^2 gamma)^n / B of window n, elementwise in
    B (a float or an array); inf where B = 0."""
    B = np.asarray(B, dtype=float)
    return np.divide(2.0 * j1 * (spectrum.lam**2 * spectrum.gamma) ** n, B,
                     out=np.full(B.shape, np.inf), where=B != 0.0)


def window_mb(spectrum: SaddleSpectrum, mu: float, phi: float, n: int) -> tuple[float, float]:
    """Leading-order (M, B) = (gamma^2n mu, (lam gamma)^n cos(n phi)) of
    window n, the forward map that window_invert inverts. ValueError when
    gamma^2n overflows."""
    try:
        return (spectrum.gamma ** (2 * n) * mu,
                (spectrum.lam * spectrum.gamma) ** n * math.cos(n * phi))
    except OverflowError:
        raise ValueError(f"gamma^2n overflows at return index n={n}") from None


def window_invert(spectrum: SaddleSpectrum, n: int,
                  target: tuple[float, float]) -> tuple[float, float]:
    """Leading-order inverse of the window map: (M, B) -> (mu, phi).

    mu = M gamma^-2n; phi solves B = (lam gamma)^n cos(n phi) on the branch
    with n phi nearest pi/2. Valid on (-10,10)^2 minus the excluded ball.
    Raises ValueError when (mu, phi) maps back further than ROUND_TRIP_TOL
    (relative) from the target: (lam gamma)^n magnifies the rounding of
    phi, past n of about 80 at the default spectrum.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    M, B = float(target[0]), float(target[1])
    if not (abs(M) < 10.0 and abs(B) < 10.0):
        raise ValueError("target must lie in (-10, 10)^2")
    if math.hypot(M, B) < EXCLUDED_RADIUS:
        raise ValueError(f"target inside the excluded ball of radius {EXCLUDED_RADIUS:g}")
    try:
        v = B * (spectrum.lam * spectrum.gamma) ** (-n)
    except OverflowError:  # n too large to be a float
        raise ValueError(f"(lam*gamma)^-n is out of range at return index n={n}") from None
    if abs(v) > 1.0:
        raise ValueError(
            f"|B|={abs(B):.6g} exceeds (lam*gamma)^n={(spectrum.lam * spectrum.gamma) ** n:.6g}; "
            f"unreachable at n={n}"
        )
    # acos lands in [0, pi], which is exactly the branch nearest pi/2
    phi = math.acos(v) / n
    mu = M * spectrum.gamma ** (-2 * n)
    M_back, B_back = window_mb(spectrum, mu, phi, n)
    err = max(abs(M_back - M), abs(B_back - B))
    if not err <= ROUND_TRIP_TOL * max(1.0, abs(M), abs(B)):
        raise ValueError(f"n={n}: the round trip misses the target by {err:.3g}: "
                         "(lam*gamma)^n magnifies the rounding of phi")
    return (mu, phi)


def mount_window(spectrum: SaddleSpectrum, coeffs: GlobalMapCoeffs, n: int,
                 target: tuple[float, float]) -> ReturnMapConfig:
    """Realize a window target (M, B) inside the concrete model.

    window_invert solves the normalized leading-order relations; this mount
    solves the same relations with the model's actual coefficient amplitude,
    rotation phase, and window offset mu0_n, so that the fitted parameters of
    the mounted return map approach the requested target. The normalizations
    the asymptotic formulas assume (amplitude 1, phase 0, offset 0, positive
    orientation) are thereby realized rather than ignored.
    """
    window_invert(spectrum, n, target)  # shared validation
    M_t, B_t = float(target[0]), float(target[1])
    c, b = coeffs.c, coeffs.b
    dot, cross = float(c @ b), c[1] * b[0] - c[0] * b[1]  # c^T Rot(t) b = dot cos t + cross sin t
    K, chi = math.hypot(dot, cross), math.atan2(cross, dot)  # = K cos(t - chi)
    lg = spectrum.lam * spectrum.gamma
    v = -B_t / (K * lg**n)
    if abs(v) > 1.0:
        raise ValueError(
            f"|B|={abs(B_t):.6g} exceeds the model amplitude K*(lam*gamma)^n="
            f"{K * lg**n:.6g}; unreachable at n={n}"
        )
    a = math.acos(v)
    cands = [chi + s * a + 2.0 * math.pi * k for s in (1.0, -1.0) for k in (-1, 0, 1)]
    cands = [t for t in cands if 0.0 < t / n < math.pi]
    if not cands:
        raise ValueError(f"no admissible rotation angle for target B={B_t:g} at n={n}")
    theta = min(cands, key=lambda t: abs(t - math.pi / 2.0))
    phi = theta / n
    mu = float(window_terms(spectrum, coeffs, n, phi)[1]
               - M_t / (coeffs.d * spectrum.gamma ** (2 * n)))
    return ReturnMapConfig(spectrum, replace(coeffs, mu=mu), n, phi)


# ---------------------------------------------------------------------------
# fitting the rescaled map


def _fit_triples(u0: np.ndarray, u1: np.ndarray, u2: np.ndarray) -> GhmParams:
    """Quadratic regression u2 = f(u0, u1) reduced to the normalized gauge.

    Fits the full quadratic f = a0 + a1 u0 + a2 u1 + q u1^2 + r u0 u1 + p u0^2,
    then applies the affine change u = s (y - y_c) with s = -q and
    y_c = -a2 / (2q + r), which makes the quadratic coefficient -1 and kills
    the linear-in-current term. The u0^2 coefficient has no slot in the target
    family; it acts on the map's Jacobian exactly like a cross term of twice
    its size at equal arguments, so the reported R is r/q + 2 p/q. On exact
    planar-map data (r, p pure) this reduces to the literal coefficients.

    The least-squares problem is solved by its normal equations: one product
    X A^T, with A the (7, K) array whose rows are the six monomials X and the
    target z2, gives the Gram matrix G = X X^T and X z2 together. Normal
    equations square the design's condition number, so one step of iterative
    refinement on the residual z2 - c X follows; it brings the coefficients
    back to the accuracy of an SVD least-squares solve on the
    ill-conditioned delay designs of long series. The design counts as
    rank-deficient when G's eigenvalue ratio is at or below K eps: G sums K
    products, so its entries carry rounding of about K eps relative to its
    largest eigenvalue, and a smaller eigenvalue is not resolved from zero.
    """
    K = len(u0)
    if K < 50:
        raise FitError(f"need at least 50 sample triples, got {K}")
    # standardized chart for conditioning; the normalized gauge below is
    # invariant under affine reparametrization, so the chart drops out
    pool = np.concatenate([u0, u1, u2])
    m0, s0 = float(pool.mean()), float(pool.std())
    if s0 == 0.0:
        raise FitError("sample triples are constant; no excitation to fit")
    A = np.empty((7, K))  # rows 0-5 the monomials X, row 6 the target z2
    A[0] = 1.0
    z0, z1, z2 = A[1], A[2], A[6]
    np.divide(u0 - m0, s0, out=z0)
    np.divide(u1 - m0, s0, out=z1)
    np.divide(u2 - m0, s0, out=z2)
    np.multiply(z1, z1, out=A[3])
    np.multiply(z0, z1, out=A[4])
    np.multiply(z0, z0, out=A[5])
    X = A[:6]
    # X @ A.T, not A @ A.T: numpy hands a product of an array with its own
    # transpose to BLAS syrk, which is about 6x slower than gemm at 7 rows
    S = X @ A.T
    G = S[:, :6]
    ev = np.linalg.eigvalsh(G)
    if ev[0] <= K * np.finfo(float).eps * ev[-1]:
        raise FitError(f"fit matrix rank-deficient (Gram eigenvalue ratio {ev[0] / ev[-1]:.1e})")
    coef = np.linalg.solve(G, S[:, 6])
    coef += np.linalg.solve(G, X @ (z2 - coef @ X))
    a0, a1, a2, q, r, p = (float(v) for v in coef)
    if abs(q) < 1e-10:
        raise FitError("no quadratic term in the fitted return relation")
    if abs(2.0 * q + r) < 1e-10:
        raise FitError("degenerate normalization: 2q + r ~ 0")
    s = -q
    y_c = -a2 / (2.0 * q + r)
    M = s * (a0 + (a1 + a2) * y_c + (q + r + p) * y_c * y_c - y_c)
    B = -(a1 + (r + 2.0 * p) * y_c)
    R = r / q + 2.0 * p / q
    return GhmParams(M, B, R)  # normalized gauge


def fit_ghm_series(series) -> GhmParams:
    """Fit the planar quadratic map to a scalar series by delay embedding.

    The series is read as consecutive iterates of the rescaled coordinate;
    triples (u_k, u_k+1, u_k+2) feed the normalized quadratic regression.
    Exact planar-map data is recovered to roundoff.
    """
    u = np.asarray(series, dtype=float).ravel()
    if len(u) < 52:
        raise ValueError("series too short: need at least 52 consecutive values")
    if not np.all(np.isfinite(u)):
        raise ValueError("series contains non-finite values")
    return _fit_triples(u[:-2], u[1:-1], u[2:])


def _delay_grid() -> tuple[np.ndarray, np.ndarray]:
    """fit_ghm's seeds: a 5x41 grid in the rescaled delay pair (u_prev, u_now)."""
    UP, UN = np.meshgrid(np.linspace(-0.5, 1.0, 5), np.linspace(-0.75, 1.25, 41), indexing="ij")
    return UP.ravel(), UN.ravel()


def fit_exact_map(p: GhmParams) -> GhmParams:
    """Self-consistency fit: regress on values of the planar map at p itself
    over fit_ghm's seed grid, bypassing the 3D return map."""
    u0, u1 = _delay_grid()
    return _fit_triples(u0, u1, _window(u0, u1, p.M, p.B, p.R, 1)[-1])


def _manifold_seed(T: ReturnMap, u_prev: np.ndarray, u_now: np.ndarray):
    """(X, w) seeds of T_n on its attracting manifold at rescaled delay pairs
    (u_prev, u_now): X is the constant-w manifold point
    (I - lam^n A Rot(n phi))^-1 (x_plus + b w_prev) of shape (2, m), with
    u = T.u_scale * w. T is one ReturnMap, or ReturnMap.rows of several with
    one delay pair a row."""
    *_, p1, p2, b1, b2 = T._k  # x_plus and b
    w_prev = u_prev / T.u_scale
    X = _resolvent(T.E, p1 + b1 * w_prev, p2 + b2 * w_prev)
    return np.array(X), u_now / T.u_scale


def _run_return_orbits(T: ReturnMap, X: np.ndarray, w: np.ndarray, returns: int) -> np.ndarray:
    """u-history, shape (m, returns + 1), of T_n orbits from m seeds in (x, w)
    coordinates, with u = T.u_scale * w and the seeds in column 0. T is one
    ReturnMap, or ReturnMap.rows of several, whose windows then share this
    one loop of steps.

    An orbit is in the window until its first return outside sigma_n
    (|w| > h) or the rescaled window (|u| > U_ESCAPE); from that return on its
    values are nan. The seeds themselves are not tested. Every orbit is
    stepped for all returns: one that has left runs on to inf or nan, and
    since step is elementwise it cannot touch the others' bits.
    """
    W = np.empty((len(w), returns + 1))
    W[:, 0] = w
    with np.errstate(all="ignore"):
        for k in range(returns):
            X, w = T.step(X, w)
            W[:, k + 1] = w
        U = np.reshape(T.u_scale, (-1, 1)) * W
        out = ~((np.abs(W[:, 1:]) <= SIGMA_HALF_HEIGHT) & (np.abs(U[:, 1:]) <= U_ESCAPE))
    U[:, 1:][np.logical_or.accumulate(out, axis=1)] = np.nan
    return U


def fit_ghm(config: ReturnMapConfig) -> GhmParams:
    """Fit the rescaled planar map to orbits of the actual return map T_n:
    fit_ghm_windows of the one window, raising its FitError."""
    fit, = fit_ghm_windows([config])
    if isinstance(fit, Exception):
        raise fit
    return fit


def fit_ghm_windows(configs: list[ReturnMapConfig]) -> list[GhmParams | FitError]:
    """fit_ghm of each window, with every window's seed orbits in one T_n batch.

    The seeds are fixed: the 5x41 _delay_grid in the rescaled delay pair
    (u_prev, u_now), put on the attracting 2D manifold of each window's T_n
    inside sigma_n by _manifold_seed. All seeds of all windows are iterated
    FIT_RETURNS times together (ReturnMap.rows; step is elementwise, so a
    window's orbits are the bits it gets alone), and each orbit's first
    FIT_DISCARD returns are dropped (transversal collapse onto the manifold is
    one factor lam^n per return, so a handful suffices; long discards would
    drain the transient excitation the fit needs at sink windows). A triple
    (u_k, u_k+1, u_k+2) counts only when all three returns are in the window.
    A window that cannot be fitted gets its FitError (or the ValueError of
    its fit) in place of its parameters.
    """
    if not configs:
        return []
    k = len(configs)
    up, un = _delay_grid()
    T = ReturnMap.rows([ReturnMap(c) for c in configs], len(up))
    U = _run_return_orbits(T, *_manifold_seed(T, np.tile(up, k), np.tile(un, k)), FIT_RETURNS)
    fits = []
    for Uw in np.split(U[:, FIT_DISCARD:], k):
        ok = ~np.isnan(Uw[:, 2:])  # once out, an orbit stays nan: u_k+2 in means all three are
        try:
            if not ok.any():
                raise FitError("every sample orbit left the return window before the discard ended")
            u0, u1, u2 = Uw[:, :-2][ok], Uw[:, 1:-1][ok], Uw[:, 2:][ok]
            if len(u0) < 200:
                raise FitError(f"only {len(u0)} in-window sample triples; need at least 200")
            fits.append(_fit_triples(u0, u1, u2))
        except (FitError, ValueError) as err:
            fits.append(err)
    return fits


# ---------------------------------------------------------------------------
# coexistence search

# Committed coexistence model. Relative to DEFAULT_COEFFS: c is flipped so
# J1 = +0.183 > 0 (circle born stable), x_plus is scaled down so the surviving
# phi cluster carries a y_minus of sane size, and y_minus solves
# mu0_10(phi*) = mu0_14(phi*) in closed form at a committed point phi* of the
# default CoexistenceBox scan grid (phi* ~ 1.6825091, B_10 ~ -0.654,
# B_14 ~ 0.977; birth rotation number ~ 0.310, clear of every p/q, q <= 7).
# Without that alignment |M_sink| = O(gamma^20 |mu0_10 - mu0_14|) blows out of
# the stability domain for every phi in the box.
COEX_COEFFS = GlobalMapCoeffs(
    x_plus=(0.06, 0.0),
    y_minus=0.42635210520844996,
    A=((0.9, 0.1), (-0.1, 0.8)),
    b=(0.2, 0.1),
    c=(-1.0, -0.3),
    d=1.0,
)


@dataclass(frozen=True)
class CoexistenceBox:
    """Search region and acceptance filters for coexistence_search."""

    phi_lo: float = 0.05
    phi_hi: float = math.pi - 0.05
    phi_steps: int = 160_000
    b_sink_max: float = 0.9
    b_circle_lo: float = 0.945
    b_circle_hi: float = 1.055
    m_sink_max: float = 0.5
    m_circle_offset: float = 0.03  # past birth; transversal contraction ~ -1e-3
    lphi_band_margin: float = 0.9

    def __post_init__(self):
        if not 1 <= self.phi_steps <= MAX_PHI_STEPS:
            raise ValueError(f"phi_steps must be in 1..{MAX_PHI_STEPS}")
        if not 0.0 < self.phi_lo <= self.phi_hi < math.pi:  # scanned upwards, as ReturnMapConfig
            raise ValueError("the phi range must satisfy 0 < phi_lo <= phi_hi < pi")


@dataclass(frozen=True)
class CoexistenceHit:
    """One parameter with verified coexisting attractors at two return indices."""

    mu: float
    phi: float
    n_sink: int
    n_circle: int
    fit_sink: GhmParams
    fit_circle: GhmParams
    verdict_sink: AttractorClass
    verdict_circle: AttractorClass
    sigma_center_sink: float
    sigma_center_circle: float
    evidence: dict = field(default_factory=dict, compare=False)


def _phi_chunks(box: CoexistenceBox):
    """np.linspace(box.phi_lo, box.phi_hi, box.phi_steps) in _PHI_CHUNK-point
    slices, bit for bit: point i is i * step + phi_lo as linspace forms it
    (zero step and single point included), and the last is phi_hi."""
    n = box.phi_steps
    step = (box.phi_hi - box.phi_lo) / max(n - 1, 1)
    for lo in range(0, n, _PHI_CHUNK):
        chunk = np.arange(lo, min(lo + _PHI_CHUNK, n), dtype=float) * step + box.phi_lo
        if n > 1 and lo + len(chunk) == n:
            chunk[-1] = box.phi_hi
        yield chunk


def _orbit_tail(config: ReturnMapConfig, returns: int, keep: int) -> np.ndarray | None:
    """Last `keep` u-values of one T_n orbit seeded on the manifold at u = 0,
    or None when it leaves sigma_n or the rescaled window within `returns`."""
    T = ReturnMap(config)
    u = np.zeros(1)
    tail = _run_return_orbits(T, *_manifold_seed(T, u, u), returns)[0, -keep:]
    return None if np.isnan(tail[-1]) else tail


def _confirm_sink_orbit(config: ReturnMapConfig) -> bool:
    """Direct check: the T_n orbit seeded in sigma_n settles to a fixed return."""
    tail = _orbit_tail(config, 400, 20)
    return tail is not None and bool(np.max(np.abs(np.diff(tail))) < 1e-8)


def _confirm_circle_orbit(config: ReturnMapConfig) -> bool:
    """Direct check: a T_n orbit stays in sigma_n for 1000 returns without locking."""
    tail = _orbit_tail(config, 1000, 64)
    return tail is not None and bool(np.max(np.abs(np.diff(tail))) > 1e-6)  # not a point


def coexistence_search(
    spectrum: SaddleSpectrum,
    coeffs: GlobalMapCoeffs,
    n_sink: int,
    n_circle: int,
    box: CoexistenceBox | None = None,
    probe_log: list | None = None,
) -> CoexistenceHit | None:
    """Hunt for one (mu, phi) whose return maps at two indices carry a sink
    and an invariant circle simultaneously.

    The scan walks phi in ascending order; for each phi the closed-form window
    coefficients give the two effective (M, B) pairs sharing the single mu.
    mu is pinned by placing the n_circle window just past the circle-birth
    curve; phi survives only if the n_sink window then lands inside the
    stability domain. The prefilter forms the phi grid in chunks of
    _PHI_CHUNK points and keeps only each chunk's survivors, so its memory
    does not grow with phi_steps. The probe loop then iterates the survivors
    in scan order, verifying each by fitting both return maps and
    classifying the fitted planar maps at classify's defaults, plus direct
    orbit checks on T_n. The first fully verified probe wins (deterministic).
    """
    if n_sink == n_circle:
        raise ValueError("n_sink and n_circle must differ")
    if min(n_sink, n_circle) < 1:
        raise ValueError("return indices n_sink and n_circle must be >= 1")
    if box is None:
        box = CoexistenceBox()
    sp, cf = spectrum, coeffs
    j1 = tangency_jacobian(cf)
    ns, nc = n_sink, n_circle

    # each chunk keeps only its survivors' columns, in scan order; every
    # step is elementwise, so a survivor's bits do not depend on its chunk
    survivors = [np.empty((0, 8))]
    for chunk in _phi_chunks(box):
        (B_s, mu0_s), (B_c, mu0_c) = (window_terms(sp, cf, n, chunk) for n in (ns, nc))
        R_s, R_c = _window_r(sp, j1, ns, B_s), _window_r(sp, j1, nc, B_c)

        # circle side: inside the Lphi band (|B-1| strictly within the band the
        # cross term R carves out), born stable only when R > 0; a band that
        # overflows to inf (or is nan at R = inf) compares as it should
        with np.errstate(all="ignore"):
            band = lphi_band(R_c, box.lphi_band_margin)
            ok = (
                (np.abs(B_s) <= box.b_sink_max)
                & (B_c >= box.b_circle_lo)
                & (B_c <= box.b_circle_hi)
                & (R_c > 0.0)
                & (np.abs(B_c - 1.0) <= band)
            )
            # the circle window just past the circle-birth curve
            M_c = np.where(ok, lphi_m(B_c, R_c), 0.0) + box.m_circle_offset
        if not ok.any():
            continue

        mu_cand = mu0_c - M_c / (cf.d * sp.gamma ** (2 * nc))
        M_s = -cf.d * sp.gamma ** (2 * ns) * (mu_cand - mu0_s)
        ok &= np.abs(M_s) <= box.m_sink_max
        survivors.append(np.stack(
            [a[ok] for a in (chunk, mu_cand, M_s, B_s, M_c, B_c, R_c, R_s)], axis=1))

    for row in np.concatenate(survivors):
        phi, mu_i, M_sink, B_sink, M_circle, B_circle, R_circle, R_sink = row.tolist()
        rec = {
            "phi": phi,
            "mu": mu_i,
            "M_sink": M_sink,
            "B_sink": B_sink,
            "M_circle": M_circle,
            "B_circle": B_circle,
            "R_circle": R_circle,
        }
        try:
            if not in_stability_domain(GhmParams(M_sink, B_sink, R_sink)):
                rec["reject"] = "sink window outside stability domain"
                continue
            # Newton on mu pins the FITTED circle-window M at birth + offset,
            # cancelling the fit-gauge bias in M; dM_fit/dmu = -d*gamma^(2 nc)
            # exactly, since mu enters the second-return value additively
            fit_c = None
            dM = math.inf
            for _ in range(4):
                cfg_c = ReturnMapConfig(sp, replace(cf, mu=mu_i), nc, phi)
                fit_c = fit_ghm(cfg_c)
                if not (math.isfinite(fit_c.R) and fit_c.R > 0.0):
                    break
                dM = (lphi_m(fit_c.B, fit_c.R) + box.m_circle_offset) - fit_c.M
                if abs(dM) < 1e-3:
                    break
                mu_i -= dM / (cf.d * sp.gamma ** (2 * nc))
            rec["mu"] = mu_i
            if not (math.isfinite(dM) and abs(dM) < 1e-3 and fit_c.R > 0.0):
                rec["reject"] = "circle window could not be pinned past birth"
                continue
            cfg_s = ReturnMapConfig(sp, replace(cf, mu=mu_i), ns, phi)
            fit_s = fit_ghm(cfg_s)
            verdict_s = classify(fit_s)
            verdict_c = classify(fit_c)
            rec["verdict_sink"] = verdict_s.verdict
            rec["verdict_circle"] = verdict_c.verdict
            if verdict_s.verdict != "sink" or verdict_c.verdict != "circle":
                rec["reject"] = "verdict mismatch"
                continue
            if not _confirm_sink_orbit(cfg_s):
                rec["reject"] = "direct sink orbit check failed"
                continue
            if not _confirm_circle_orbit(cfg_c):
                rec["reject"] = "direct circle orbit check failed"
                continue
        except (FitError, ValueError) as err:
            rec["reject"] = f"{type(err).__name__}: {err}"
            continue
        finally:
            if probe_log is not None:
                probe_log.append(rec)
        return CoexistenceHit(
            mu=mu_i,
            phi=phi,
            n_sink=ns,
            n_circle=nc,
            fit_sink=fit_s,
            fit_circle=fit_c,
            verdict_sink=verdict_s,
            verdict_circle=verdict_c,
            sigma_center_sink=cfg_s.sigma_center,
            sigma_center_circle=cfg_c.sigma_center,
            evidence=rec,
        )
    return None
