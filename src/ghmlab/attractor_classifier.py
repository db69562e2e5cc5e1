"""Empirical long-run attractor classification for the map.

sweep() classifies a batch of (M, B) cells in one pass, and classify() is
the sweep of a one-cell batch, so a point gets the same bits from either.
Each cell's orbit runs from its seed near a fixed point through burn-in, a
4*max_period window scanned for a short period (verified by cycle
multipliers -> sink), span steps of Lyapunov exponents that split chaotic /
circle candidate / undecided, and a 3*circle_points tail on which circle
candidates must pass a polygonal invariance test to be reported as
invariant circles. Leaving the box |x|, |y| <= escape_radius makes a cell
divergent at the step it leaves, in every phase.

Exponent convention: lambda_1 from tangent-vector growth, lambda_2 =
<ln|det DT|> - lambda_1 (exact in 2D, same numbers as the two-vector QR
scheme). Orbit windows are recorded and the tangent vector renormalized
once per product of 16 consecutive Jacobians (Benettin et al., Meccanica
15, 1980), by the power of two of its largest component: exact, so only
the final log rounds. A cell whose block image's largest component is not
a normal double has no exponents: a superstable orbit annihilates its
tangent vector, and a product can under- or overflow. At one cell, where
numpy's per-call cost dominates, the map steps and the renormalizations
run the batch's floating-point operations on Python floats, over records
of many windows whose block products the batch's code forms. A batch of
tens of cells is bound by the same per-call cost, so it issues fewer,
same-shape calls: two rows of B*x, M - B*x and R*x per call (_window),
stacked rows of the running Jacobian product (_block_products), and a
stacked image of the tangent vector per block; each keeps every
operation and its operand order, so the bits are the per-step ones. The
record buffers and the views the steps take are built once per live set
of cells and record length (_batch_record), not once a record. On
the Henon plane, R = +-0 with no cell at M = +-0, the steps drop the term
(R*x)*y, a signed zero at every finite state that leaves the step's bits
as they are: 3 calls a step. A record that leaves the finite
doubles is stepped again with the term, whose 0*inf turns infs into nan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .ghm_core import GhmParams, State2, eig2, fixed_point_roots, modulus, trace_det

VERDICTS = ("sink", "circle", "chaotic", "divergent", "undecided")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_LN2 = math.log(2.0)
_TINY, _HUGE = float(np.finfo(float).tiny), float(np.finfo(float).max)  # the normal doubles
MAX_STEPS = 10**8  # ClassifyOptions refuses a longer burn-in or span
EPS_LYAP = 2e-4  # nats/iterate; weak NS circles sit near |l2| ~ 1e-3
GAP_LIMIT_DEG = 10.0  # a circle's tail may leave no wider angular gap
SEED_OFFSET = (1e-3, 2e-3)  # deterministic seed: offset from the chosen fixed point


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
    circle_points: int = 8192

    def __post_init__(self):
        if self.span < 1000:
            raise ValueError("span must be >= 1000 for a meaningful average")
        if self.burn_in < 0 or min(self.max_period, self.circle_points) < 1:
            raise ValueError("burn_in must be >= 0 and the other counts >= 1")
        if max(self.span, self.burn_in) > MAX_STEPS:
            raise ValueError(f"span and burn_in must be at most {MAX_STEPS} steps")
        if not all(math.isfinite(v) and v > 0.0 for v in (self.period_tol, self.escape_radius)):
            raise ValueError("period_tol and the escape radius must be positive and finite")


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
    invariance_residual: float


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

    @property
    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """The grid's M and B values, each range sampled inclusively."""
        return np.linspace(self.m_min, self.m_max, self.nx), np.linspace(self.b_min, self.b_max, self.ny)

    def params_at(self, im: int, ib: int) -> GhmParams:
        Ms, Bs = self.axes
        return GhmParams(float(Ms[im]), float(Bs[ib]), self.R)


# ---------------------------------------------------------------------------
# tail analysis


def detect_period(Y, max_period: int, tol: float) -> np.ndarray:
    """Least period k <= max_period of each column of a _window record Y of
    at least 4*max_period steps, else 0: max|y_j+k - y_j| < tol over the
    record's ys, the (x, y) sup-norm test as x_j+1 = y_j. An orbit that left
    the box can still read as periodic, so its column must not be passed."""
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    L = len(Y) - 2
    if np.ndim(Y) != 2 or L < 4 * max_period:
        raise ValueError("Y must be a record of at least 4*max_period steps")
    per = np.zeros(Y.shape[1], dtype=np.int64)
    cols = np.arange(Y.shape[1])  # columns with no period yet
    for k in range(1, max_period + 1):
        if not cols.size:
            break
        d = Y[1 + k :] - Y[1 : L + 2 - k]
        hit = np.abs(d, out=d).max(axis=0) < tol
        del d
        if hit.any():
            per[cols[hit]] = k
            cols, Y = cols[~hit], Y[:, ~hit]
    return per


CIRCLE_BINS = 1024  # angular bins of the circle fit's polygon


def _dist_to_polygon(points: np.ndarray, verts: np.ndarray, center) -> np.ndarray:
    """Distance from each point to the closed polygon through verts, a
    polygon star-shaped about center with its vertices in angle order.

    A point's angle about center names the edge it faces (one searchsorted
    on the vertex angles); that edge and its two neighbours are measured.
    Per point and edge (a, a + b): t = clip(((p - a).b) / |b|^2, 0, 1) and
    e = p - (a + t b); sqrt, monotone and correctly rounded, follows the min
    of |e|^2.
    """
    ax, ay = verts[:, 0], verts[:, 1]
    bx, by = np.roll(ax, -1) - ax, np.roll(ay, -1) - ay
    denom = bx * bx + by * by
    denom[denom == 0.0] = 1.0
    edge = np.searchsorted(np.arctan2(ay - center[1], ax - center[0]),
                           np.arctan2(points[:, 1] - center[1], points[:, 0] - center[0]))
    e = (edge[:, None] + np.arange(-2, 1)) % len(verts)  # edge - 1 faces the point
    px, py = points[:, :1], points[:, 1:]
    t = np.clip(((px - ax[e]) * bx[e] + (py - ay[e]) * by[e]) / denom[e], 0.0, 1.0)
    ex = px - (ax[e] + t * bx[e])
    ey = py - (ay[e] + t * by[e])
    return np.sqrt((ex * ex + ey * ey).min(axis=1))


def _rotation_number(rel: np.ndarray) -> float | None:
    """Mean angular increment per step of an orbit given relative to a
    centre, in turns, in [0, 0.5]; None where the increments change sign."""
    dth = np.diff(np.arctan2(rel[:, 1], rel[:, 0]))
    dth = (dth + math.pi) % (2.0 * math.pi) - math.pi
    if dth.min() < 0.0 < dth.max():
        return None
    return float(abs(dth.mean()) / (2.0 * math.pi))


def fit_invariant_circle(orbit_tail, p: GhmParams, map_power: int = 1) -> CircleReport:
    """Fit a closed polygonal curve to a bounded non-periodic tail.

    Points are sorted by angle about their centroid and averaged in
    CIRCLE_BINS angular bins; the polygon through the bin means, star-shaped
    about the centroid, is the curve estimate. Angular gaps beyond
    GAP_LIMIT_DEG raise NotACircleError. The invariance residual is the
    largest distance from the image under the map at p of a polygon vertex
    (map applied map_power times) back to the polygon.
    """
    pts = np.asarray(orbit_tail, float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("orbit tail must be an (n, 2) array of phase points")
    if len(pts) < 2000:
        raise ValueError("need at least 2000 tail points to fit a circle")
    center = pts.mean(axis=0)
    rel = pts - center
    ang = np.arctan2(rel[:, 1], rel[:, 0])
    rad = np.hypot(rel[:, 0], rel[:, 1])

    srt = np.sort(ang)
    max_gap = max(np.diff(srt).max(), srt[0] + 2.0 * math.pi - srt[-1])
    if max_gap > math.radians(GAP_LIMIT_DEG):
        raise NotACircleError(f"angular gap {math.degrees(max_gap):.2f} deg exceeds limit")

    bins = CIRCLE_BINS
    idx = np.minimum((bins * (ang + math.pi) / (2.0 * math.pi)).astype(int), bins - 1)
    counts = np.bincount(idx, minlength=bins)
    sx = np.bincount(idx, weights=pts[:, 0], minlength=bins)
    sy = np.bincount(idx, weights=pts[:, 1], minlength=bins)
    nonempty = counts > 0
    verts = np.column_stack([sx[nonempty] / counts[nonempty], sy[nonempty] / counts[nonempty]])

    Y = _window(verts[:, 0], verts[:, 1], p.M, p.B, p.R, map_power)
    residual = float(_dist_to_polygon(np.column_stack((Y[-2], Y[-1])), verts, center).max())

    return CircleReport(
        center=(float(center[0]), float(center[1])),
        mean_radius=float(rad.mean()),
        invariance_residual=residual,
    )


# ---------------------------------------------------------------------------
# classification


def _circle_test(tail: np.ndarray, p: GhmParams, opts: ClassifyOptions, lyapunov) -> AttractorClass:
    """Circle or undecided verdict for a circle candidate's orbit tail.

    The map and its second and third powers are tried in turn: a
    flip-symmetric pair of loops needs decimation before the fit. The
    rotation number is the map's own, read off the undecimated tail about
    the passing fit's centre: None where its increments change sign, as a
    pair of loops does.
    """
    fails = {}
    for q in (1, 2, 3):
        sub = tail[::q][-opts.circle_points :]
        if len(sub) < 2000:
            continue
        try:
            rep = fit_invariant_circle(sub, p=p, map_power=q)
        except NotACircleError as err:
            fails[q] = str(err)
            continue
        if rep.invariance_residual < 1e-3 * rep.mean_radius:
            return AttractorClass(
                "circle",
                lyapunov=lyapunov,
                rotation_number=_rotation_number(tail[-opts.circle_points :] - rep.center),
                evidence={
                    "invariance_residual": rep.invariance_residual,
                    "mean_radius": rep.mean_radius,
                    "map_power": q,
                },
            )
        fails[q] = f"residual {rep.invariance_residual:.3e} vs radius {rep.mean_radius:.3e}"
    return AttractorClass("undecided", lyapunov=lyapunov, evidence={"circle_fit": fails})


# ---------------------------------------------------------------------------
# the classification pass (batched over live cells, deterministic)

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


def _batch_record(cells, M, B, R, w):
    """The buffer of a w-step _window record of a batch of the given shape
    with parameters (M, B, R), and every view its steps take: built once
    for a live set of cells and a record length, and passed to each
    _window call that records those cells.

    Pair i takes steps 2i and 2i + 1: its xs are rows (2i, 2i + 1), B*x
    goes into its output rows (2i + 2, 2i + 3) and R*x into two rows that
    all pairs share, and each step then squares its y and subtracts. A pair
    is one flat tuple of views. An odd w's last pair holds one row, and its
    missing second step runs on a row of zeros, which it leaves zero. Also
    returns whether the steps may drop the (R*x)*y term."""
    Y = np.empty((w + 2,) + cells)
    two = (2,) + cells
    ops = np.empty((4,) + two)  # M, B, R and a pair's R*x
    ops[0], ops[1], ops[2] = M, B, R
    T, zero = np.empty(cells), np.zeros(cells)
    P, odd = divmod(w, 2)
    ys = list(Y)
    xs = list(Y[: 2 * P + 2].reshape((P + 1,) + two))
    MM, BB, RR, RX = ops
    r0, r1 = RX
    pairs = [(BB, xk, nxt, MM, RR, RX, y0, z0, r0, z0, z1, r1)
             for xk, nxt, y0, z0, z1 in zip(xs, xs[1:], ys[1::2], ys[2::2], ys[3::2])]
    if odd:
        M1, B1, R1, RX1 = ops[:, :1]
        pairs.append((B1, Y[w - 1 : w], Y[w + 1 :], M1, R1, RX1, ys[w], ys[w + 1], RX1[0],
                      zero, zero, zero))
    # R = +-0 with no M = +-0: the Henon plane, stepped without the term
    return Y, T, not ops[2].any() and ops[0].all(), pairs


def _window(x, y, M, B, R, w, rec=None):
    """Record of w map steps from (x, y), one cell per column: row 0 is x and
    row j + 1 the y after j steps, so the state after step j is rows (j, j + 1).
    Every map step of the module is taken here, in the operand order
    M - B*x - y*y - (R*x)*y: in place over a batch, or on Python floats for
    one cell, which gives the same bits.

    At R = +-0 with no cell at M = +-0 (the Henon plane) the steps drop the
    term: at a finite state (R*x)*y is +-0, and z - (+-0) is z bit for bit
    unless z = M - B*x - y*y is -0.0, which needs M = -0.0. A state that is
    not finite stays so to the record's last row, where the term could have
    turned an inf into nan; such a record is stepped again with the term,
    a batch's over its own buffer.

    A batch is bound by numpy's cost per call, so its steps go in pairs:
    the xs of steps k and k + 1 are rows k and k + 1, known before either
    step, so one call forms B*x for both (into their output rows), one
    M - B*x and one R*x, all against (2, n) copies of M, B and R (a Python
    float operand costs more per call than an array). Each step then makes
    its own y*y and (R*x)*y calls: 5.5 calls a step, and 3 without the
    term. The buffer and views come from rec, a _batch_record of these
    cells and w, which the caller builds once for all its records of the
    same cells and length; the batch's record is then that buffer, valid
    until the next call that is passed rec."""
    if np.size(x) == 1:
        def steps(x, y, M, B, R, term):
            yield x
            yield y
            if term:
                for _ in range(w):
                    x, y = y, M - B * x - y * y - (R * x) * y
                    yield y
            else:
                for _ in range(w):
                    x, y = y, M - B * x - y * y
                    yield y

        cell = [float(np.ravel(v)[0]) for v in (x, y, M, B, R)]
        term = cell[4] != 0.0 or cell[2] == 0.0
        Y = np.fromiter(steps(*cell, term), float, w + 2)
        if not (term or math.isfinite(Y[-1])):
            Y = None  # release the record before its second pass
            Y = np.fromiter(steps(*cell, True), float, w + 2)
        return Y.reshape((w + 2,) + np.shape(x))
    Y, T, plane, pairs = rec or _batch_record(np.shape(x), M, B, R, w)
    Y[0], Y[1] = x, y
    mul, sub = np.multiply, np.subtract
    if plane:
        for BB, xk, nxt, MM, _, _, y0, z0, _, y1, z1, _ in pairs:
            mul(BB, xk, nxt)
            sub(MM, nxt, nxt)
            mul(y0, y0, T)
            sub(z0, T, z0)
            mul(y1, y1, T)
            sub(z1, T, z1)
        if np.isfinite(Y[-1]).all():
            return Y
    for BB, xk, nxt, MM, RR, RX, y0, z0, r0, y1, z1, r1 in pairs:
        mul(BB, xk, nxt)
        sub(MM, nxt, nxt)
        mul(RR, xk, RX)
        mul(y0, y0, T)
        sub(z0, T, z0)
        mul(r0, y0, r0)
        sub(z0, r0, z0)
        mul(y1, y1, T)
        sub(z1, T, z1)
        mul(r1, y1, r1)
        sub(z1, r1, z1)
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


def _jacobians(x, y, B, R, a=None, d=None):
    """Entries a = -2y - R*x and d = R*y + B (det DT) of the Jacobians
    [[0, 1], [-d, a]] at the states (x, y) of a record, into a and d if given."""
    a = np.multiply(x, R, a)
    d = np.multiply(y, -2.0, d)
    np.subtract(d, a, a)
    np.multiply(y, R, d)
    np.add(d, B, d)
    return a, d


def _block_products(a, d):
    """Entries (p, q, r, t) of J_k-1 ... J_0 for J_j = [[0, 1], [-d_j, a_j]].

    a and d are (blocks, k, n): j runs along axis 1, and every block and
    cell is multiplied at once. Row 1 of a product is row 2 of the one before,
    and row 2 is a_j * row 2 - d_j * row 1, so the rows (p, q) and (r, t)
    are stacked (2, blocks, n) buffers: three in-place calls a Jacobian.
    """
    a, d = a.transpose(1, 0, 2).copy(), d.transpose(1, 0, 2).copy()  # step j's rows contiguous
    mul, sub = np.multiply, np.subtract
    row1, row2, spare = np.empty((3, 2) + a.shape[1:])
    row1[0], row1[1], row2[0], row2[1] = 1.0, 0.0, 0.0, 1.0
    for aj, dj in zip(a, d):
        mul(aj, row2, spare)
        mul(dj, row1, row1)
        sub(spare, row1, spare)
        row1, row2, spare = row2, spare, row1
    return (*row1, *row2)


def _lyapunov_windows(x, y, M, B, R, span, rad):
    """Exponent sums over span map steps from (x, y), one cell per element.

    Each record holds whole windows of _LYAP_WINDOW steps, as many as keep
    it at or under _CELLS * _LYAP_BLOCK doubles (32 at one cell, one from 32
    cells up), and is cut into _LYAP_BLOCK-step Jacobian products (the
    span's last block keeps its shorter length); after each product the
    tangent vector w is scaled by 2^-e, e the frexp exponent of
    max(|w1|, |w2|), and e is added to an integer sum. Returns (slog, sdet,
    x, y, esc): log of the tangent vector's growth, esum ln 2 + log|v| at
    the end, and the sum of log|det DT| (one pairwise sum per window), the
    end state, and the step at which a cell left rad (0 if never), read off
    each record by _exits. slog is nan when some block's max(|w1|, |w2|) is
    not a normal double: an annihilated tangent vector, or a product that
    under- or overflowed (mean |det DT| below ~1e-38, or entries above
    ~1e19). Scaling by 2^-e is exact and a cell's sums run in an order set
    by its own data, so a one-cell batch, which renormalizes on Python
    floats, gets the bits of any batch.

    A batch's buffers, its _batch_record and the views of its
    renormalization are built once per live set and record length, and
    reused by every record until an escape shrinks the live set. The
    batch renormalizes in 7 calls a block: the tangent vector is held
    twice, so that one same-shape call forms (p v1, q v2, r v1, t v2) from
    the block's stacked (p, q, r, t), one call sums its pairs into the image
    (w1, w2), and ldexp writes the scaled image over both copies.
    """
    n = x.size
    out = [np.full(n, np.nan) for _ in range(4)]
    esc = np.zeros(n, dtype=np.int64)
    live = np.arange(n)
    tan = np.full((2, 2, n), _INV_SQRT2)  # the tangent vector (v1, v2), twice
    esum = np.zeros(n)  # whole powers of two taken out of the tangent vector
    sdet = np.zeros(n)
    frexp, ldexp = math.frexp, math.ldexp
    W, K = _LYAP_WINDOW, _LYAP_BLOCK
    m = s = 0
    key = None
    while s < span and live.size:
        if m != live.size:  # record length, buffers and views, again after escapes
            m = live.size
            L = W * max(1, _CELLS * K // (m * W))
            det, a = np.empty((L, m)), np.empty((L, m))
            pv = np.empty((4, m))
            vv, pq, rt = tan.reshape(4, m), pv[0::2], pv[1::2]
            img, mag = np.empty((2, 2, m))
            mag1, mag2 = mag
        w = min(L, span - s)
        if key != (m, w):
            key, rec = (m, w), _batch_record(x.shape, M, B, R, w) if m > 1 else None
        Y = _window(x, y, M, B, R, w, rec)  # x_j = Y[j], y_j = Y[j + 1]
        x, y = Y[w].copy(), Y[w + 1].copy()
        aw, dw = _jacobians(Y[:w], Y[1:-1], B, R, a[:w], det[:w])
        # records start on window boundaries, so no block straddles a window
        nb, rem = divmod(w, K)
        prods = _block_products(aw[: nb * K].reshape(nb, K, m), dw[: nb * K].reshape(nb, K, m))
        if rem:
            tail = _block_products(aw[nb * K :].reshape(1, rem, m), dw[nb * K :].reshape(1, rem, m))
            prods = [np.concatenate(v) for v in zip(prods, tail)]
        if m == 1:  # numpy's per-call cost would dominate one cell's loop
            (c1, c2), es = tan[0, :, 0].tolist(), float(esum[0])
            for p, q, r, t in zip(*(v[:, 0].tolist() for v in prods)):
                w1 = p * c1 + q * c2
                w2 = r * c1 + t * c2
                u1, u2 = abs(w1), abs(w2)
                mx = u1 if u1 >= u2 else u2  # a nan w1 is missed here, not in slog
                if not _TINY <= mx <= _HUGE:
                    es = math.nan
                e = frexp(mx)[1]
                es += e
                c1, c2 = ldexp(w1, -e), ldexp(w2, -e)
            tan[:, :, 0], esum[0] = (c1, c2), es
        else:  # 7 calls a block; ldexp writes both copies of (v1, v2)
            N = np.empty((nb + (rem > 0), m))  # max |w| of each block's image
            E = np.empty(N.shape, dtype=np.intc)
            for pqrt, mx, e in zip(np.stack(prods, axis=1), N, E):
                np.multiply(pqrt, vv, pv)
                np.add(pq, rt, img)
                np.abs(img, out=mag)
                np.maximum(mag1, mag2, out=mx)
                np.negative(np.frexp(mx)[1], out=e)
                np.ldexp(img, e, tan)
            esum = np.where(((N >= _TINY) & (N <= _HUGE)).all(axis=0), esum - E.sum(axis=0), np.nan)
        # log|det| goes to a's spent buffer one row per cell, so every cell
        # gets the pairwise sum of its own row in each window whatever the batch
        ld = aw.reshape(m, w)
        np.abs(dw.T, out=ld)
        np.log(ld, out=ld)
        for j in range(0, w, W):
            sdet = sdet + ld[:, j : j + W].sum(axis=1)
        gone, at = _exits(Y, rad)
        if gone.any():
            esc[live[gone]] = s + at
            keep = ~gone
            live, x, y, M, B, esum, sdet = (v[keep] for v in (live, x, y, M, B, esum, sdet))
            tan = np.compress(keep, tan, axis=2)
        s += w
    slog = esum * _LN2 + np.log(np.hypot(*tan[0]))
    for o, v in zip(out, (slog, sdet, x, y)):
        o[live] = v
    return (*out, esc)


def _seeds(M, B, R):
    """Start (x, y) of every cell: SEED_OFFSET off the attracting fixed
    point if any, else off the fixed point of smallest |x|, else the origin.
    The roots are unpolished: a seed starts 1e-3 off its fixed point anyway."""
    x1, x2, disc = fixed_point_roots(M, B, R)
    hasfp = 1.0 + B != 0.0 if disc is None else disc >= 0.0
    with np.errstate(all="ignore"):
        att1, att2 = (modulus(eig2(*trace_det(x, B, R))[0]) < 1.0 for x in (x1, x2))
    xs = np.where(att1, x1, np.where(att2, x2, np.where(np.abs(x1) <= np.abs(x2), x1, x2)))
    dx, dy = SEED_OFFSET
    return np.where(hasfp, xs + dx, 0.0), np.where(hasfp, xs + dy, 0.0)


def _burn_in(live, x, y, M, B, R, steps, rad, escape_step):
    """Run the cells live, from (x, y), steps map steps in _LYAP_BLOCK-step
    windows: longer, up to _LYAP_WINDOW steps, while a record holds at most
    _CELLS * _LYAP_BLOCK doubles, and shorter on grids so large that a
    record would pass _CHUNK_BYTES. A cell that leaves |x|, |y| <= rad gets
    its step in escape_step and is dropped; returns the others' (live, x,
    y, M, B)."""
    n = live.size
    w_max = min(max(_LYAP_BLOCK, _CELLS * _LYAP_BLOCK // n), _LYAP_WINDOW)
    w_max = max(1, min(w_max, _CHUNK_BYTES // (8 * n) - 2))
    key = rec = None
    for s in range(0, steps, w_max):
        w = min(w_max, steps - s)
        if key != (live.size, w):  # a batch's record and views, again after escapes
            key, rec = (live.size, w), _batch_record(x.shape, M, B, R, w) if live.size > 1 else None
        Y = _window(x, y, M, B, R, w, rec)
        gone, at = _exits(Y, rad)
        if gone.any():
            escape_step[live[gone]] = s + at
            keep = ~gone
            live, x, y, M, B = live[keep], Y[w, keep], Y[w + 1, keep], M[keep], B[keep]
        else:
            x, y = Y[w:].copy()
        if not live.size:
            break
    return live, x, y, M, B


def _cycle_exponents(Y, B, R):
    """Sink check of the k-cycles (x_j, y_j) = (Y[j], Y[j + 1]) of the k + 1
    record rows Y, one per column, from one _block_products call and the
    running product of det DT: whether both multipliers are inside the unit
    circle, and their (n, 2) log moduli per step (-inf for a zero one)."""
    k = len(Y) - 1
    a, d = _jacobians(Y[:-1], Y[1:], B, R)
    p, _, _, t = _block_products(a[None], d[None])
    mods = [modulus(e) for e in eig2(p[0] + t[0], np.multiply.accumulate(d)[-1])]
    lams = [[(math.log(m) if m > 0.0 else -math.inf) / k for m in v.tolist()] for v in mods]
    return mods[0] < 1.0, np.array(lams).T


def _exponents(slog, sdet, span):
    """(l1, l2) from the sums of _lyapunov_windows; tangent alignment cannot
    beat the sum rule in 2D, so l1 is the larger. nan where slog is nan."""
    g1 = slog / span
    gs = sdet / span
    g1 = np.maximum(g1, gs - g1)
    return g1, gs - g1


def _sweep_cells(M, B, R, opts: ClassifyOptions, x, y) -> list[AttractorClass]:
    """Verdicts of the cells (M, B) whose orbits start at (x, y)."""
    n = M.size
    rad = opts.escape_radius

    # 0 undecided, 1 sink, 2 chaotic; a cell with an escape step is divergent
    verdict = np.zeros(n, dtype=np.int8)
    escape_step = np.zeros(n, dtype=np.int64)
    period = np.zeros(n, dtype=np.int32)
    lam = np.full((n, 2), np.nan)
    out: list = [None] * n  # circle candidates' verdicts, set as they are fitted

    with np.errstate(all="ignore"):
        live, x, y, M, B = _burn_in(np.arange(n), x, y, M, B, R, opts.burn_in, rad, escape_step)

        # period scan of a 4*max_period tail, whose chunk holds up to four
        # arrays of its record's size; a hit verified as an attracting cycle
        # is a sink, every other cell goes on
        L = 4 * opts.max_period
        lyap = []
        for c in _chunks(live.size, 4 * (L + 2)):
            g, cM, cB = live[c], M[c], B[c]
            Y = _window(x[c], y[c], cM, cB, R, L)
            gone, at = _exits(Y, rad)
            escape_step[g[gone]] = opts.burn_in + at
            go_on = ~gone
            per = np.zeros(g.size, dtype=np.int64)
            per[go_on] = detect_period(Y[:, go_on] if gone.any() else Y, opts.max_period,
                                       opts.period_tol)
            for k in sorted(set(per[per > 0].tolist())):
                J = np.flatnonzero(per == k)
                ok, lams = _cycle_exponents(Y[L - k + 1 :, J], cB[J], R)
                sink = ok & (lams[:, 0] < -EPS_LYAP)
                J = J[sink]
                verdict[g[J]], period[g[J]], lam[g[J]] = 1, k, lams[sink]
                go_on[J] = False
            if go_on.any():
                lyap.append((g[go_on], Y[L][go_on], Y[L + 1][go_on], cM[go_on], cB[go_on]))
            del Y  # not held into the next chunk or phase

    if lyap:
        gids, lx, ly, lM, lB = (np.concatenate(v) for v in zip(*lyap))
        step_no = opts.burn_in + L
        with np.errstate(all="ignore"):
            # a record and two Jacobian buffers, each of one window a cell or,
            # below 32 cells, of at most _CELLS * _LYAP_BLOCK doubles
            parts = [_lyapunov_windows(lx[c], ly[c], lM[c], lB[c], R, opts.span, rad)
                     for c in _chunks(gids.size, 3 * _LYAP_WINDOW + 2)]
            slog, sdet, lx, ly, esc = (np.concatenate(v) for v in zip(*parts))
            g1, g2 = _exponents(slog, sdet, opts.span)
        alive = esc == 0
        escape_step[gids[~alive]] = step_no + esc[~alive]
        lam[gids[alive]] = np.column_stack((g1, g2))[alive]

        cha = alive & (g1 > EPS_LYAP)
        verdict[gids[cha]] = 2  # chaotic
        # alive cells that are neither chaotic nor circle candidates stay
        # undecided: contracting without a short period, or not transversally
        # contracting; circle candidates record a y-only tail for the fit
        cand = np.flatnonzero(alive & ~cha & ~(g1 < -EPS_LYAP) & (g2 < -EPS_LYAP))
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


# ---------------------------------------------------------------------------
# public entry points


def lyapunov_exponents(p: GhmParams, s0: State2, burn_in: int, span: int,
                       escape_radius: float = 1.0e6) -> tuple[float, float]:
    """Both Lyapunov exponents in nats/iterate along the orbit of s0.

    The orbit runs burn_in steps, then span steps of the sweep's Lyapunov
    kernel on one cell. Raises OrbitEscapedError at the step it leaves the
    box |x|, |y| <= escape_radius. Returns (nan, nan) for an orbit without
    exponents: a superstable one, or one whose block image under- or
    overflows (the largest component of a 16-step product times the
    tangent vector is not a normal double). ValueError where ClassifyOptions
    refuses burn_in, span or escape_radius: span below 1000, either above
    MAX_STEPS, and so on.
    """
    rad = ClassifyOptions(burn_in=burn_in, span=span, escape_radius=escape_radius).escape_radius
    x, y, M, B = (np.array([v]) for v in (s0.x, s0.y, p.M, p.B))
    esc = np.zeros(1, dtype=np.int64)
    with np.errstate(all="ignore"):
        _, x, y, M, B = _burn_in(np.arange(1), x, y, M, B, p.R, burn_in, rad, esc)
        if esc[0]:
            raise OrbitEscapedError(int(esc[0]))
        slog, sdet, _, _, esc = _lyapunov_windows(x, y, M, B, p.R, span, rad)
        if esc[0]:
            raise OrbitEscapedError(burn_in + int(esc[0]))
        l1, l2 = _exponents(slog, sdet, span)
    return (float(l1[0]), float(l2[0]))


def classify(p: GhmParams, opts: ClassifyOptions | None = None, s0: State2 | None = None) -> AttractorClass:
    """Long-run attractor verdict at parameter p. Undecided is a verdict.

    The sweep of a one-cell batch, seeded as sweep seeds it unless s0 is
    given: its verdict, period, exponents, rotation number and evidence are
    the bits of p's cell in any sweep grid that holds p. Superstable orbits
    and block products that under- or overflow leave no exponents.
    """
    opts = opts or ClassifyOptions()
    M, B = np.array([p.M]), np.array([p.B])
    if s0 is None:
        x, y = _seeds(M, B, p.R)
    else:
        x, y = np.array([s0.x]), np.array([s0.y])
    return _sweep_cells(M, B, p.R, opts, x, y)[0]


def sweep(m_min: float, m_max: float, b_min: float, b_max: float, nx: int, ny: int, R: float,
          opts: ClassifyOptions | None = None) -> SweepGrid:
    """Classify every cell of the inclusive (M, B) grid; row-major by B then M.

    All nx*ny cells run through the same recorded orbit windows, compacted
    to the live cells as orbits escape and chunked by caps that change no
    cell, so each cell is classify's verdict at its point, bit for bit.
    ValueError for a grid below 2x2 or above MAX_GRID_CELLS cells, bounds,
    R, width or height that are not finite, and an empty rectangle (m_min
    >= m_max or b_min >= b_max).
    """
    if nx < 2 or ny < 2:
        raise ValueError("grid must be at least 2x2")
    if nx * ny > MAX_GRID_CELLS:
        raise ValueError(f"a {nx}x{ny} grid exceeds the cap of {MAX_GRID_CELLS} cells")
    if not all(math.isfinite(v) for v in (m_min, m_max, b_min, b_max, R)):
        raise ValueError("grid bounds and R must be finite")
    if not (math.isfinite(m_max - m_min) and math.isfinite(b_max - b_min)):
        raise ValueError("the rectangle's width and height must be finite")  # for linspace
    if m_min >= m_max or b_min >= b_max:
        raise ValueError("empty parameter rectangle")
    grid = SweepGrid(m_min, m_max, b_min, b_max, nx, ny, R, ())
    Ms, Bs = grid.axes
    M, B = np.tile(Ms, ny), np.repeat(Bs, nx)
    return replace(grid, cells=tuple(_sweep_cells(M, B, R, opts or ClassifyOptions(), *_seeds(M, B, R))))
