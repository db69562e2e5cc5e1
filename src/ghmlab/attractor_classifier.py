"""Empirical long-run attractor classification for the map.

classify() runs one orbit through a decision tree: escape -> divergent;
short period verified by cycle multipliers -> sink; otherwise Lyapunov
exponents split chaotic / circle-candidate / undecided, and circle
candidates must pass a polygonal invariance test to be reported as
invariant circles. sweep() evaluates a full (M, B) grid with the same
tree in one pass batched over the live cells; its output is a pure
function of the grid spec.

Exponent convention: lambda_1 from tangent-vector growth, lambda_2 =
<ln|det DT|> - lambda_1 (exact in 2D, same numbers as the two-vector QR
scheme). classify renormalizes the tangent vector every step. sweep records
orbit windows and renormalizes once per product of 16 consecutive Jacobians
(Benettin et al., Meccanica 15, 1980); its orbits, escape steps and verdicts
are those of a step-by-step loop, and its exponents differ from one only in
the last digits.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .ghm_core import DegenerateLineError, GhmParams, State2, eig2, fixed_points

VERDICTS = ("sink", "circle", "chaotic", "divergent", "undecided")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_LOG_HUGE = -math.log(np.finfo(float).tiny)  # |log| of a normal double is below this


class OrbitEscapedError(RuntimeError):
    """Orbit left the escape radius; carries the 1-based step index."""

    def __init__(self, step: int):
        super().__init__(f"orbit escaped at step {step}")
        self.step = step


class NotACircleError(ValueError):
    """Sample's angular coverage has gaps; it does not trace a single loop."""


@dataclass(frozen=True)
class ClassifyOptions:
    burn_in: int = 10_000
    span: int = 100_000
    max_period: int = 64
    period_tol: float = 1e-8
    escape_radius: float = 1.0e6
    eps_lyap: float = 2e-4  # nats/iterate; weak NS circles sit near |l2| ~ 1e-3
    circle_points: int = 8192
    circle_bins: int = 256
    gap_limit_deg: float = 10.0
    # deterministic seed: offset from the chosen fixed point (see classify)
    seed_offset: tuple[float, float] = (1e-3, 2e-3)

    def __post_init__(self):
        if self.span < 1000:
            raise ValueError("span must be >= 1000 for a meaningful average")
        if self.burn_in < 0 or min(self.max_period, self.circle_points, self.circle_bins) < 1:
            raise ValueError("burn_in must be >= 0 and the other counts >= 1")
        tols = (self.period_tol, self.escape_radius, self.eps_lyap, self.gap_limit_deg)
        if not all(math.isfinite(v) and v > 0.0 for v in tols):
            raise ValueError("tolerances and the escape radius must be positive and finite")
        if not all(math.isfinite(v) for v in self.seed_offset):
            raise ValueError("seed_offset must be finite")


@dataclass(frozen=True)
class AttractorClass:
    verdict: str
    period: int | None = None
    lyapunov: tuple[float, float] | None = None
    rotation_number: float | None = None
    evidence: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class CircleReport:
    center: tuple[float, float]
    mean_radius: float
    radial_deviation: float
    rotation_number: float
    invariance_residual: float | None
    vertices: np.ndarray = field(compare=False, repr=False, default=None)
    map_power: int = 1


@dataclass(frozen=True)
class SweepGrid:
    m_min: float
    m_max: float
    b_min: float
    b_max: float
    nx: int
    ny: int
    R: float
    cells: tuple[AttractorClass, ...]  # row-major, index = ib * nx + im

    def params_at(self, im: int, ib: int) -> GhmParams:
        M = np.linspace(self.m_min, self.m_max, self.nx)[im]
        B = np.linspace(self.b_min, self.b_max, self.ny)[ib]
        return GhmParams(float(M), float(B), self.R)


def _as_xy(tail) -> np.ndarray:
    a = np.asarray(tail, float)
    if a.ndim != 2 or a.shape[1] != 2:
        raise ValueError("orbit tail must be an (n, 2) array of phase points")
    return a


# ---------------------------------------------------------------------------
# scalar building blocks


def _orbit(p: GhmParams, x: float, y: float, n: int, rad: float, ys=None, k0: int = 0):
    """(x, y) after n map steps; each new y is appended to ys when given.

    Step k out of the box |x|, |y| <= rad raises OrbitEscapedError(k0 + k).
    A step tests its new y alone, since its new x is the y tested a step
    earlier (or the start y); nan and inf fail the test.
    """
    M, B, R = p.M, p.B, p.R
    if not abs(y) <= rad:
        raise OrbitEscapedError(k0 + 1)
    put = None if ys is None else ys.append
    for k in range(n):
        x, y = y, M - B * x - y * y - R * x * y
        if not abs(y) <= rad:
            raise OrbitEscapedError(k0 + k + 1)
        if put:
            put(y)
    return x, y


def lyapunov_exponents(p: GhmParams, s0: State2, burn_in: int, span: int,
                       escape_radius: float = 1.0e6) -> tuple[float, float]:
    """Both Lyapunov exponents in nats/iterate along the orbit of s0.

    Raises OrbitEscapedError if the orbit leaves escape_radius during
    burn_in + span, and ValueError for span < 1000, burn_in < 0 or an
    escape radius that is not positive and finite. A tangent vector
    annihilated exactly (superstable orbit) short-circuits to (-inf, -inf).
    """
    if span < 1000:
        raise ValueError("span must be >= 1000 for a meaningful average")
    rad = escape_radius
    if burn_in < 0 or not (math.isfinite(rad) and rad > 0.0):
        raise ValueError("burn_in must be >= 0 and the escape radius positive and finite")
    x, y = _orbit(p, s0.x, s0.y, burn_in, rad)
    M, B, R = p.M, p.B, p.R
    log, hypot, ninf = math.log, math.hypot, -math.inf
    # det DT = B + R*y and R*x once per step (-B - R*y is exactly -det); det is B at R = 0
    flat = R == 0.0
    logb = log(abs(B)) if B != 0.0 else ninf
    v1 = v2 = _INV_SQRT2
    slog = sdet = 0.0
    for k in range(span):
        det = B + R * y
        rx = R * x
        w2 = (-2.0 * y - rx) * v2 - det * v1
        nrm = hypot(v2, w2)
        if nrm == 0.0:
            return (ninf, ninf)
        slog += log(nrm)
        v1, v2 = v2 / nrm, w2 / nrm
        sdet += logb if flat else (log(abs(det)) if det != 0.0 else ninf)
        x, y = y, M - B * x - y * y - rx * y
        if not abs(y) <= rad:
            raise OrbitEscapedError(burn_in + k + 1)
    l1 = slog / span
    s = sdet / span
    if l1 < s - l1:  # tangent alignment cannot beat the sum rule in 2D
        l1 = s - l1
    return (l1, s - l1)


def detect_period(orbit_tail, max_period: int, tol: float) -> int | None:
    """Smallest k <= max_period with sup-norm recurrence < tol over the whole tail."""
    pts = _as_xy(orbit_tail)
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    if len(pts) < 4 * max_period:
        raise ValueError("tail must hold at least 4*max_period points")
    for k in range(1, max_period + 1):
        if np.abs(pts[k:] - pts[:-k]).max() < tol:
            return k
    return None


def _dist_to_polygon(points: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Distance from each point to the closed polygon through verts."""
    a = verts
    ab = np.roll(verts, -1, axis=0) - a  # (k, 2)
    denom = (ab * ab).sum(axis=1)
    denom[denom == 0.0] = 1.0
    aq = points[:, None, :] - a[None, :, :]  # (m, k, 2)
    t = np.clip((aq * ab[None, :, :]).sum(axis=2) / denom[None, :], 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    d = np.linalg.norm(points[:, None, :] - proj, axis=2)
    return d.min(axis=1)


def fit_invariant_circle(orbit_tail, p: GhmParams | None = None, map_power: int = 1,
                         bins: int = 256, gap_limit_deg: float = 10.0) -> CircleReport:
    """Fit a closed polygonal curve to a bounded non-periodic tail.

    Points are sorted by angle about their centroid and averaged in angular
    bins; the polygon through the bin means is the curve estimate. Angular
    gaps beyond gap_limit_deg raise NotACircleError. When p is given, the
    invariance residual is the largest distance from the map image of a
    polygon vertex (map applied map_power times) back to the polygon.
    The rotation number is the mean wrapped angular increment per time step,
    folded into (0, 0.5).
    """
    pts = _as_xy(orbit_tail)
    if len(pts) < 2000:
        raise ValueError("need at least 2000 tail points to fit a circle")
    center = pts.mean(axis=0)
    rel = pts - center
    ang = np.arctan2(rel[:, 1], rel[:, 0])
    rad = np.hypot(rel[:, 0], rel[:, 1])

    srt = np.sort(ang)
    gaps = np.diff(srt)
    wrap_gap = srt[0] + 2.0 * math.pi - srt[-1]
    max_gap = max(gaps.max() if len(gaps) else 2 * math.pi, wrap_gap)
    if max_gap > math.radians(gap_limit_deg):
        raise NotACircleError(f"angular gap {math.degrees(max_gap):.2f} deg exceeds limit")

    idx = np.minimum((bins * (ang + math.pi) / (2.0 * math.pi)).astype(int), bins - 1)
    counts = np.bincount(idx, minlength=bins)
    sx = np.bincount(idx, weights=pts[:, 0], minlength=bins)
    sy = np.bincount(idx, weights=pts[:, 1], minlength=bins)
    nonempty = counts > 0
    verts = np.column_stack([sx[nonempty] / counts[nonempty], sy[nonempty] / counts[nonempty]])

    dth = np.diff(ang)
    dth = (dth + math.pi) % (2.0 * math.pi) - math.pi
    rho = abs(dth.mean()) / (2.0 * math.pi)
    if rho > 0.5:
        rho = 1.0 - rho

    residual = None
    if p is not None:
        Y = _window(verts[:, 0], verts[:, 1], p.M, p.B, p.R, map_power)
        residual = float(_dist_to_polygon(np.column_stack((Y[-2], Y[-1])), verts).max())

    return CircleReport(
        center=(float(center[0]), float(center[1])),
        mean_radius=float(rad.mean()),
        radial_deviation=float(rad.std()),
        rotation_number=float(rho),
        invariance_residual=residual,
        vertices=verts,
        map_power=map_power,
    )


# ---------------------------------------------------------------------------
# classification


def _seed_point(p: GhmParams, opts: ClassifyOptions) -> State2:
    """Deterministic initial condition: near an attracting fixed point when one
    exists, else near the fixed point of smallest |x|, else the origin."""
    try:
        reports = fixed_points(p)
    except DegenerateLineError:
        reports = []
    if not reports:
        return State2(0.0, 0.0)
    att = [r for r in reports if r.stability == "attracting"]
    rep = att[0] if att else min(reports, key=lambda r: abs(r.point.x))
    dx, dy = opts.seed_offset
    return State2(rep.point.x + dx, rep.point.y + dy)


def _verify_cycle(p: GhmParams, cycle: np.ndarray) -> tuple[bool, tuple[float, float]]:
    """Check the detected k-cycle is linearly attracting; per-iterate exponents."""
    k = len(cycle)
    m11, m12, m21, m22 = 1.0, 0.0, 0.0, 1.0
    det = 1.0
    for x, y in cycle:
        j21 = -p.B - p.R * y
        j22 = -2.0 * y - p.R * x
        # left-multiply by [[0, 1], [j21, j22]]
        m11, m12, m21, m22 = m21, m22, j21 * m11 + j22 * m21, j21 * m12 + j22 * m22
        det *= p.B + p.R * y
    e1, e2 = eig2(m11 + m22, det)
    mods = sorted((abs(e1), abs(e2)), reverse=True)
    lams = tuple((math.log(m) if m > 0.0 else -math.inf) / k for m in mods)
    return mods[0] < 1.0, lams


def _circle_test(tail: np.ndarray, p: GhmParams, opts: ClassifyOptions, lyapunov) -> AttractorClass:
    """Circle or undecided verdict for a circle candidate's orbit tail.

    The map and its second and third powers are tried in turn: a
    flip-symmetric pair of loops needs decimation before the fit.
    """
    fails = {}
    for q in (1, 2, 3):
        sub = tail[::q][-opts.circle_points :]
        if len(sub) < 2000:
            continue
        try:
            rep = fit_invariant_circle(sub, p=p, map_power=q, bins=opts.circle_bins,
                                       gap_limit_deg=opts.gap_limit_deg)
        except NotACircleError as err:
            fails[q] = str(err)
            continue
        if rep.invariance_residual < 1e-3 * rep.mean_radius:
            return AttractorClass(
                "circle",
                lyapunov=lyapunov,
                rotation_number=rep.rotation_number,
                evidence={
                    "invariance_residual": rep.invariance_residual,
                    "mean_radius": rep.mean_radius,
                    "map_power": q,
                },
            )
        fails[q] = f"residual {rep.invariance_residual:.3e} vs radius {rep.mean_radius:.3e}"
    return AttractorClass("undecided", lyapunov=lyapunov, evidence={"circle_fit": fails})


def classify(p: GhmParams, opts: ClassifyOptions | None = None, s0: State2 | None = None) -> AttractorClass:
    """Long-run attractor verdict at parameter p. Undecided is a verdict."""
    opts = opts or ClassifyOptions()
    if s0 is None:
        s0 = _seed_point(p, opts)
    rad = opts.escape_radius
    tail_len = max(4 * opts.max_period, 3 * opts.circle_points)
    try:  # the tail is kept as y only: point k is (y_k, y_k+1), as x_k+1 = y_k
        x, y = _orbit(p, s0.x, s0.y, opts.burn_in, rad)
        ys = array("d", (y,))
        x, y = _orbit(p, x, y, tail_len, rad, ys, opts.burn_in)
    except OrbitEscapedError as e:
        return AttractorClass("divergent", evidence={"escape_step": e.step})
    yv = np.frombuffer(ys)
    tail = np.column_stack((yv[:-1], yv[1:]))

    per = detect_period(tail[-4 * opts.max_period :], opts.max_period, opts.period_tol)
    if per is not None:
        ok, lams = _verify_cycle(p, tail[-per:])
        if ok and lams[0] < -opts.eps_lyap:
            return AttractorClass("sink", period=per, lyapunov=lams,
                                  evidence={"cycle_multiplier_check": True})
        # neutral or weakly attracting cycle: fall through to the exponent tests

    try:
        l1, l2 = lyapunov_exponents(p, State2(x, y), 0, opts.span, rad)
    except OrbitEscapedError as e:
        return AttractorClass("divergent", evidence={"escape_step": opts.burn_in + tail_len + e.step})

    eps = opts.eps_lyap
    if l1 > eps:
        return AttractorClass("chaotic", lyapunov=(l1, l2))
    if l1 < -eps:
        # contracting but no short period found: likely a long-period sink
        return AttractorClass("undecided", lyapunov=(l1, l2),
                              evidence={"note": "contracting, period > max_period?"})
    if l2 < -eps:
        # neutral along the orbit, contracting transversally: circle candidate
        return _circle_test(tail, p, opts, (l1, l2))
    return AttractorClass("undecided", lyapunov=(l1, l2))


# ---------------------------------------------------------------------------
# grid sweep (batched over live cells, deterministic)

# no cell depends on the chunking of a phase (_chunks) or on its window
# lengths; the Lyapunov phase renormalises once per _LYAP_BLOCK steps
_CELLS = 1024
_CHUNK_BYTES = 16 << 20
_LYAP_WINDOW = 512
_LYAP_BLOCK = 16
MAX_GRID_CELLS = 10**6  # sweep refuses larger grids


def _chunks(n, doubles):
    """Slices cutting n cells into chunks of at most _CELLS cells whose arrays,
    `doubles` doubles a cell, hold at most _CHUNK_BYTES (or one cell's)."""
    c = max(1, min(_CELLS, _CHUNK_BYTES // (8 * doubles)))
    return [slice(c0, c0 + c) for c0 in range(0, n, c)]


def _largest_modulus(tr, det):
    dm = tr * tr - 4.0 * det
    real = dm >= 0.0
    sq = np.sqrt(np.where(real, np.maximum(dm, 0.0), 0.0))
    return np.where(real, 0.5 * (np.abs(tr) + sq), np.sqrt(np.maximum(det, 0.0)))


def _window(x, y, M, B, R, w):
    """Record of w map steps from (x, y), one cell per column: row 0 is x and
    row j + 1 the y after j steps, so the state after step j is rows (j, j + 1).
    Every vector map step of the module is taken here, in place, in the
    operand order M - B*x - y*y - (R*x)*y."""
    Y = np.empty((w + 2,) + np.shape(x))
    Y[0], Y[1] = x, y
    T = np.empty(np.shape(x))
    rows = list(Y)
    for xk, yk, nxt in zip(rows, rows[1:], rows[2:]):
        np.multiply(B, xk, nxt)
        np.subtract(M, nxt, nxt)
        np.multiply(yk, yk, T)
        np.subtract(nxt, T, nxt)
        np.multiply(R, xk, T)
        np.multiply(T, yk, T)
        np.subtract(nxt, T, nxt)
    return Y


def _exits(Y, rad):
    """Mask of the cells of a _window record that leave |x|, |y| <= rad in
    its steps, and the step each leaves at; nan and inf are outside."""
    Z = Y[1:]
    gone = ~((Z.max(axis=0) <= rad) & (Z.min(axis=0) >= -rad))
    if not gone.any():
        return gone, np.zeros(0, dtype=np.int64)
    inside = (Z <= rad) & (Z >= -rad)  # booleans: no float copy of the record
    # Z[i] = Y[i + 1] is the y of step i; Z[0], the start y, is step 1's x
    return gone, np.maximum(inside[:, gone].argmin(axis=0), 1)


def _block_products(a, d):
    """Entries (p, q, r, t) of J_k-1 ... J_0 for J_j = [[0, 1], [-d_j, a_j]].

    a and d are (blocks, k, n): j runs along axis 1, and every block and
    cell is multiplied at once. Row 1 of a product is row 2 of the one before.
    """
    shape = (a.shape[0], a.shape[2])
    p, q, r, t = np.ones(shape), np.zeros(shape), np.zeros(shape), np.ones(shape)
    for j in range(a.shape[1]):
        aj, dj = a[:, j], d[:, j]
        p, q, r, t = r, t, aj * r - dj * p, aj * t - dj * q
    return p, q, r, t


def _lyapunov_windows(x, y, M, B, R, span, rad):
    """Exponent sums over span map steps from (x, y), one cell per element.

    Each window of _LYAP_WINDOW recorded steps is cut into _LYAP_BLOCK-step
    Jacobian products (the span's last block keeps its shorter length), and
    the tangent vector is renormalized after each product. Returns (slog,
    sdet, x, y, esc): sums of log block norm and of log|det DT|, the end
    state, and the step after which a cell was first outside rad (0 if
    never), tested at block ends as the step loop did. slog is nan when a
    block norm is not a normal double: an annihilated tangent vector, or a
    product that under- or overflowed (mean |det DT| below ~1e-38, or
    entries above ~1e19). A cell's sums run in an order set by its own data.
    """
    n = x.size
    out = [np.full(n, np.nan) for _ in range(4)]
    esc = np.zeros(n, dtype=np.int64)
    live = np.arange(n)
    v1 = np.full(n, _INV_SQRT2)
    v2 = np.full(n, _INV_SQRT2)
    slog = np.zeros(n)
    sdet = np.zeros(n)
    W, K = _LYAP_WINDOW, _LYAP_BLOCK
    m = s = 0
    while s < span and live.size:
        if m != live.size:  # Jacobian buffers, allocated again after escapes
            m = live.size
            det, a = np.empty((W, m)), np.empty((W, m))
        w = min(W, span - s)
        Y = _window(x, y, M, B, R, w)  # x_j = Y[j], y_j = Y[j + 1]
        x, y = Y[w].copy(), Y[w + 1].copy()
        dw, aw = det[:w], a[:w]
        np.multiply(Y[:w], R, aw)
        np.multiply(Y[1:-1], -2.0, dw)
        np.subtract(dw, aw, aw)  # -2y - R x
        np.multiply(Y[1:-1], R, dw)
        np.add(dw, B, dw)
        nb, rem = divmod(w, K)
        blocks = list(zip(*_block_products(aw[: nb * K].reshape(nb, K, m),
                                           dw[: nb * K].reshape(nb, K, m))))
        if rem:
            blocks += zip(*_block_products(aw[nb * K :].reshape(1, rem, m),
                                           dw[nb * K :].reshape(1, rem, m)))
        N = np.empty((len(blocks) + 1, m))
        N[0] = slog
        for b, (p, q, r, t) in enumerate(blocks, 1):
            w1 = p * v1 + q * v2
            w2 = r * v1 + t * v2
            nrm = np.hypot(w1, w2, out=N[b])
            v1, v2 = w1 / nrm, w2 / nrm
        # a norm outside the normal range has no usable log: 0 for an
        # annihilated tangent vector, subnormal or inf for a product that
        # under- or overflowed; nan stays sticky in the step-order sum
        lg = np.log(N[1:], out=N[1:])
        lg[~(np.abs(lg) < _LOG_HUGE)] = np.nan
        slog = np.add.accumulate(N, axis=0)[-1]
        # log|det| goes to a's spent buffer one row per cell, so every cell
        # gets the pairwise sum of its own row whatever the batch
        ld = aw.reshape(m, w)
        np.abs(dw.T, out=ld)
        sdet = sdet + np.log(ld, out=ld).sum(axis=1)
        ends = np.append(np.arange(K, w, K), w)  # block ends
        hit = ~((np.abs(Y[ends]) <= rad) & (np.abs(Y[ends + 1]) <= rad))
        del Y  # before the next window's record is allocated
        s += w
        gone = hit.any(axis=0)
        if gone.any():
            esc[live[gone]] = s - w + ends[hit.argmax(axis=0)[gone]]
            keep = ~gone
            live, x, y, M, B, v1, v2, slog, sdet = (
                v[keep] for v in (live, x, y, M, B, v1, v2, slog, sdet))
    for o, v in zip(out, (slog, sdet, x, y)):
        o[live] = v
    return (*out, esc)


def _seeds(M, B, R, opts: ClassifyOptions):
    """Start (x, y) of every cell, by classify's policy: near the attracting
    fixed point if any, else the fixed point of smallest |x|, else the origin."""
    a = 1.0 + R
    b1 = 1.0 + B
    with np.errstate(all="ignore"):
        if a != 0.0:
            disc = b1 * b1 + 4.0 * a * M
            hasfp = disc >= 0.0
            sq = np.sqrt(np.where(hasfp, np.maximum(disc, 0.0), 0.0))
            x1 = (-b1 + sq) / (2.0 * a)
            x2 = (-b1 - sq) / (2.0 * a)
        else:
            hasfp = b1 != 0.0
            x1 = x2 = np.where(hasfp, M / np.where(hasfp, b1, 1.0), 0.0)
        att1 = _largest_modulus(-(2.0 + R) * x1, B + R * x1) < 1.0
        att2 = _largest_modulus(-(2.0 + R) * x2, B + R * x2) < 1.0
    xs = np.where(att1, x1, np.where(att2, x2, np.where(np.abs(x1) <= np.abs(x2), x1, x2)))
    dx, dy = opts.seed_offset
    return np.where(hasfp, xs + dx, 0.0), np.where(hasfp, xs + dy, 0.0)


def _sweep_cells(M, B, R, opts: ClassifyOptions) -> list[AttractorClass]:
    n = M.size
    rad = opts.escape_radius
    x, y = _seeds(M, B, R, opts)

    # 0 undecided, 1 sink, 2 chaotic; a cell with an escape step is divergent
    verdict = np.zeros(n, dtype=np.int8)
    escape_step = np.zeros(n, dtype=np.int64)
    period = np.zeros(n, dtype=np.int32)
    lam = np.full((n, 2), np.nan)
    out: list = [None] * n  # circle candidates' verdicts, set as they are fitted
    live = np.arange(n)

    with np.errstate(all="ignore"):
        # burn-in in _LYAP_BLOCK-step windows, shorter on grids so large that
        # a window's record would pass _CHUNK_BYTES
        w_max = max(1, min(_LYAP_BLOCK, _CHUNK_BYTES // (8 * n) - 2))
        for s in range(0, opts.burn_in, w_max):
            w = min(w_max, opts.burn_in - s)
            Y = _window(x, y, M, B, R, w)
            gone, at = _exits(Y, rad)
            escape_step[live[gone]] = s + at
            keep = ~gone
            live, x, y, M, B = live[keep], Y[w, keep], Y[w + 1, keep], M[keep], B[keep]
            del Y  # before the next window's record is allocated
            if not live.size:
                break

        # period scan of a 4*max_period tail, whose chunk holds up to four
        # arrays of its record's size: a period-k hit is max|y_j+k - y_j| < tol,
        # the (x, y) sup-norm test as x_j+1 = y_j; a hit verified as an
        # attracting cycle is a sink, every other cell goes on
        L = 4 * opts.max_period
        lyap = []
        for c in _chunks(live.size, 4 * (L + 2)):
            g, cM, cB = live[c], M[c], B[c]
            Y = _window(x[c], y[c], cM, cB, R, L)
            gone, at = _exits(Y, rad)
            escape_step[g[gone]] = opts.burn_in + at
            cols = np.flatnonzero(~gone)  # chunk columns with no period yet
            Z = Y[:, cols] if gone.any() else Y
            per = np.zeros(g.size, dtype=np.int64)
            for k in range(1, opts.max_period + 1):
                if not cols.size:
                    break
                d = Z[1 + k :] - Z[1 : L + 2 - k]
                hit = np.abs(d, out=d).max(axis=0) < opts.period_tol
                del d
                if hit.any():
                    per[cols[hit]] = k
                    cols, Z = cols[~hit], Z[:, ~hit]
            go_on = ~gone
            for j in np.flatnonzero(per):
                k = per[j]
                cyc = np.column_stack((Y[L - k + 1 : L + 1, j], Y[L - k + 2 :, j]))
                ok, lams = _verify_cycle(GhmParams(float(cM[j]), float(cB[j]), R), cyc)
                if ok and lams[0] < -opts.eps_lyap:
                    verdict[g[j]], period[g[j]], lam[g[j]] = 1, k, lams
                    go_on[j] = False
            if go_on.any():
                lyap.append((g[go_on], Y[L][go_on], Y[L + 1][go_on], cM[go_on], cB[go_on]))
            del Y, Z  # not held into the next chunk or phase

    if lyap:
        gids, lx, ly, lM, lB = (np.concatenate(v) for v in zip(*lyap))
        step_no = opts.burn_in + L
        with np.errstate(all="ignore"):
            # a window record and two Jacobian buffers of _LYAP_WINDOW rows
            parts = [_lyapunov_windows(lx[c], ly[c], lM[c], lB[c], R, opts.span, rad)
                     for c in _chunks(gids.size, 3 * _LYAP_WINDOW + 2)]
            slog, sdet, lx, ly, esc = (np.concatenate(v) for v in zip(*parts))
            g1 = slog / opts.span
            gs = sdet / opts.span
            g1 = np.maximum(g1, gs - g1)  # nan at a superstable cell: -inf - -inf
            g2 = gs - g1
        alive = esc == 0
        escape_step[gids[~alive]] = step_no + esc[~alive]
        lam[gids[alive]] = np.column_stack((g1, g2))[alive]

        eps = opts.eps_lyap
        cha = alive & (g1 > eps)
        verdict[gids[cha]] = 2  # chaotic
        # alive cells that are neither chaotic nor circle candidates stay
        # undecided: contracting without a short period, or not transversally
        # contracting; circle candidates record a y-only tail, as classify does
        cand = np.flatnonzero(alive & ~cha & ~(g1 < -eps) & (g2 < -eps))
        n_tail = 3 * opts.circle_points
        for c in _chunks(cand.size, n_tail + 2):
            rs = cand[c]
            with np.errstate(all="ignore"):
                Y = _window(lx[rs], ly[rs], lM[rs], lB[rs], R, n_tail)
            gone, at = _exits(Y, rad)
            escape_step[gids[rs[gone]]] = step_no + opts.span + at
            for j, r in zip(np.flatnonzero(~gone), rs[~gone]):
                p = GhmParams(float(lM[r]), float(lB[r]), R)
                out[gids[r]] = _circle_test(np.column_stack((Y[1:-1, j], Y[2:, j])), p, opts,
                                            (float(g1[r]), float(g2[r])))
            del Y

    names = ("undecided", "sink", "chaotic")
    for j in range(n):
        if out[j] is not None:
            continue
        if escape_step[j]:
            out[j] = AttractorClass("divergent", evidence={"escape_step": int(escape_step[j])})
        else:
            ls = None if math.isnan(lam[j, 0]) else (float(lam[j, 0]), float(lam[j, 1]))
            out[j] = AttractorClass(names[verdict[j]], lyapunov=ls,
                                    period=int(period[j]) if verdict[j] == 1 else None)
    return out


def sweep(m_min: float, m_max: float, b_min: float, b_max: float, nx: int, ny: int, R: float,
          opts: ClassifyOptions | None = None, threads: int = 1) -> SweepGrid:
    """Classify every cell of the inclusive (M, B) grid; row-major by B then M.

    All nx*ny cells run through the same recorded orbit windows, compacted
    to the live cells as orbits escape and chunked by caps that change no
    cell. The Lyapunov phase renormalizes the tangent vector once per
    16-step Jacobian product, so a cell's exponents can differ from
    classify's step-by-step sums in the last digits (more where the two
    paths seed or window the orbit differently). A grid of more than
    MAX_GRID_CELLS cells raises ValueError. threads (>= 1) has no effect on
    output or speed: the cost is per numpy call, not per cell.
    """
    if nx < 2 or ny < 2:
        raise ValueError("grid must be at least 2x2")
    if nx * ny > MAX_GRID_CELLS:
        raise ValueError(f"a {nx}x{ny} grid exceeds the cap of {MAX_GRID_CELLS} cells")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if not all(math.isfinite(v) for v in (m_min, m_max, b_min, b_max, R)):
        raise ValueError("grid bounds and R must be finite")
    opts = opts or ClassifyOptions()
    Ms = np.linspace(m_min, m_max, nx)
    Bs = np.linspace(b_min, b_max, ny)
    cells = _sweep_cells(np.tile(Ms, ny), np.repeat(Bs, nx), R, opts)
    return SweepGrid(m_min, m_max, b_min, b_max, nx, ny, R, tuple(cells))
