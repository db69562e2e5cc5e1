"""Output checks that do not use the program's code.

Every check is derived from the closed-form algebra of the map

    T(x, y) = (y, M - B*x - y**2 - R*x*y)

or from a property the method must have; none compares against a stored
copy of the program's output. Fixed points solve
(1 + R) x^2 + (1 + B) x - M = 0 and carry multipliers of trace -(2 + R) x
and determinant B + R x; everything below follows from that.

Each check returns a list of failure messages, empty when the output
passes, so the caller can count failed units.
"""

from __future__ import annotations

import math

VERDICTS = ("sink", "circle", "chaotic", "divergent", "undecided")
CSV_HEADER = "M,B,R,class,period,lyap1,lyap2,rotation"
RESCALE_HEADER = "n,M_fit,B_fit,R_fit,M_asym,B_asym,R_asym,delta"

DOMAIN_MARGIN = 0.02  # criterion 04: all nine +-0.02 offsets inside the domain
SINK1_SHARE = 0.99  # criterion 04: share of margin cells that must be sink(1)
FOLD_GAP = 0.05  # criterion 04: cells this far below the fold must diverge
SUM_RULE_TOL = 1e-9  # lambda1 + lambda2 = ln|B| when R = 0 (det DT = B)
HENON_L1 = 0.4192  # top exponent of the Henon map at a = 1.4, b = 0.3
HENON_L1_TOL = 0.01
ROTATION_TOL = 0.005  # circle just past birth rotates by about omega / 2 pi
SERIES_TOL = 1e-9  # exact planar-map data must give back (M, B, R)
ASYM_TOL = 1e-9  # leading-order window formulas, relative
SIGMA_RATIO_TOL = 1e-12  # sigma_n centre = gamma^-n y_minus, relative
BIRTH_TOL = 1e-3  # fitted circle window sits the requested offset past birth


# ---------------------------------------------------------------------------
# closed-form geometry of the fixed points


def fold_m(B: float, R: float) -> float:
    """M at which the two fixed points merge (discriminant zero)."""
    return -((1.0 + B) ** 2) / (4.0 * (1.0 + R))


def flip_m(B: float, R: float) -> float:
    """M at which the branch x = (1 + B) / 2 has multiplier -1 (1 + tr + det = 0)."""
    x = (1.0 + B) / 2.0
    return (1.0 + R) * x * x + (1.0 + B) * x


def birth_point(omega: float, R: float) -> tuple[float, float]:
    """(M, B) where a fixed point has multipliers exp(+-i omega): det 1, trace 2 cos omega."""
    x = -2.0 * math.cos(omega) / (2.0 + R)
    B = 1.0 - R * x
    return (1.0 + R) * x * x + (1.0 + B) * x, B


def birth_m(B: float, R: float) -> float:
    """M on the circle-birth curve at (B, R), R != 0: the fixed point with det B + R x = 1."""
    x = (1.0 - B) / R
    return (1.0 + R) * x * x + (1.0 + B) * x


def _spectral_radius(tr: float, det: float) -> float:
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        return 0.5 * (abs(tr) + math.sqrt(disc))
    return math.sqrt(det)  # complex pair: |m|^2 = det


def fixed_points(M: float, B: float, R: float) -> list[tuple[float, float]]:
    """(x, spectral radius) of each fixed point (x, x)."""
    a, b = 1.0 + R, 1.0 + B
    if a == 0.0:
        roots = [M / b] if b != 0.0 else []
    else:
        disc = b * b + 4.0 * a * M
        if disc < 0.0:
            return []
        s = math.sqrt(disc)
        roots = [(-b + s) / (2.0 * a), (-b - s) / (2.0 * a)]
    return [(x, _spectral_radius(-(2.0 + R) * x, B + R * x)) for x in roots]


def has_attracting_fixed_point(M: float, B: float, R: float) -> bool:
    return any(rho < 1.0 for _, rho in fixed_points(M, B, R))


def in_domain_with_margin(M: float, B: float, R: float, margin: float = DOMAIN_MARGIN) -> bool:
    offs = (-margin, 0.0, margin)
    return all(has_attracting_fixed_point(M + dm, B + db, R) for dm in offs for db in offs)


def bordered_det(A, b, c) -> float:
    """det [[A, b], [c, 0]] for 2x2 A and 2-vectors b, c (cofactor expansion on the last row)."""
    return c[0] * (A[0][1] * b[1] - b[0] * A[1][1]) - c[1] * (A[0][0] * b[1] - b[0] * A[1][0])


# ---------------------------------------------------------------------------
# parsing


def _round_trips(text: str) -> bool:
    try:
        return format(float(text), ".17g") == text
    except ValueError:
        return False


def parse_cell_row(line: str) -> tuple[dict | None, list[str]]:
    """One `M,B,R,class,period,lyap1,lyap2,rotation` row; floats must round-trip."""
    f = line.split(",")
    if len(f) != 8:
        return None, [f"row has {len(f)} fields: {line!r}"]
    fails = []
    for k in (0, 1, 2, 5, 6, 7):
        if f[k] and not _round_trips(f[k]):
            fails.append(f"field {k} does not round-trip its 17 digits: {f[k]!r}")
    if f[3] not in VERDICTS:
        fails.append(f"unknown verdict {f[3]!r}")
    if f[4] and not f[4].isdigit():
        fails.append(f"bad period {f[4]!r}")
    if fails:
        return None, fails
    num = [float(s) if s and k not in (3, 4) else None for k, s in enumerate(f)]
    return {
        "M": num[0], "B": num[1], "R": num[2], "verdict": f[3],
        "period": int(f[4]) if f[4] else None,
        "l1": num[5], "l2": num[6], "rotation": num[7],
    }, []


def parse_report(text: str) -> dict[str, str]:
    """`key=value` lines of the coexist report."""
    out = {}
    for line in text.splitlines():
        key, sep, val = line.partition("=")
        if sep:
            out[key] = val
    return out


# ---------------------------------------------------------------------------
# attractor verdicts


def check_cell(cell: dict, strict_domain: bool = True) -> list[str]:
    """Fold and sum-rule checks on one verdict; the domain check when strict_domain."""
    M, B, R, v = cell["M"], cell["B"], cell["R"], cell["verdict"]
    fails = []
    if strict_domain and in_domain_with_margin(M, B, R):
        if not (v == "sink" and cell["period"] == 1):
            fails.append(f"({M!r}, {B!r}, {R!r}) is inside the stability domain but {v}")
    if abs(B) <= 1.0 and M < fold_m(B, R) - FOLD_GAP and v != "divergent":
        fails.append(f"({M!r}, {B!r}, {R!r}) is below the fold but {v}")
    if v == "sink" and not cell["period"]:
        fails.append(f"({M!r}, {B!r}, {R!r}) is a sink without a period")
    if R == 0.0 and v != "divergent":
        l1, l2 = cell["l1"], cell["l2"]
        if l1 is None or l2 is None:
            fails.append(f"({M!r}, {B!r}, 0) is {v} without exponents")
        elif not abs(l1 + l2 - math.log(abs(B))) <= SUM_RULE_TOL:
            fails.append(f"({M!r}, {B!r}, 0): l1 + l2 = {l1 + l2!r} but ln|B| = {math.log(abs(B))!r}")
    return fails


def check_sweep(csv_text: str, Ms: list[float], Bs: list[float], R: float) -> dict[int, list[str]]:
    """Failures by cell index (row-major by B, then M) of one sweep CSV."""
    lines = csv_text.splitlines()
    nx, ny = len(Ms), len(Bs)
    if not lines or lines[0] != CSV_HEADER:
        return {-1: ["missing or wrong CSV header"]}
    rows = lines[1:]
    fails: dict[int, list[str]] = {}
    if len(rows) != nx * ny:
        fails[-1] = [f"{len(rows)} rows for a {nx}x{ny} grid"]
    margin_cells, not_sink1 = 0, []
    for idx, line in enumerate(rows[: nx * ny]):
        cell, bad = parse_cell_row(line)
        if cell is None:
            fails[idx] = bad
            continue
        M, B = Ms[idx % nx], Bs[idx // nx]
        if abs(cell["M"] - M) > 1e-12 or abs(cell["B"] - B) > 1e-12 or cell["R"] != R:
            bad.append(f"row {idx} is at ({cell['M']!r}, {cell['B']!r}, {cell['R']!r}), not ({M!r}, {B!r}, {R!r})")
        bad += check_cell(cell, strict_domain=False)
        if in_domain_with_margin(cell["M"], cell["B"], R):
            margin_cells += 1
            if not (cell["verdict"] == "sink" and cell["period"] == 1):
                not_sink1.append(idx)
        if bad:
            fails[idx] = bad
    if len(not_sink1) > (1.0 - SINK1_SHARE) * margin_cells:
        for idx in not_sink1:
            fails.setdefault(idx, []).append(
                f"{len(not_sink1)} of {margin_cells} margin cells are not sink(1)"
            )
    return fails


def check_classify(point: dict, text: str) -> list[str]:
    """One `ghmlab classify` output for an input point from bench.workloads."""
    lines = text.splitlines()
    if len(lines) != 2 or lines[0] != CSV_HEADER:
        return [f"unexpected classify output {text!r}"]
    cell, fails = parse_cell_row(lines[1])
    if cell is None:
        return fails
    if (cell["M"], cell["B"], cell["R"]) != (point["M"], point["B"], point["R"]):
        fails.append("row does not echo the input point exactly")
    fails += check_cell(cell)
    if point["stratum"] == "control":
        if cell["verdict"] != "chaotic" or cell["l1"] is None:
            fails.append(f"Henon control point is {cell['verdict']}")
        elif not abs(cell["l1"] - HENON_L1) <= HENON_L1_TOL:
            fails.append(f"Henon control exponent {cell['l1']!r}, expected {HENON_L1} +- {HENON_L1_TOL}")
    if cell["verdict"] == "circle":
        if "omega" not in point or cell["rotation"] is None:
            fails.append("circle verdict away from a birth point, or without a rotation number")
        else:
            want = point["omega"] / (2.0 * math.pi)
            if not abs(cell["rotation"] - want) <= ROTATION_TOL:
                fails.append(f"rotation {cell['rotation']!r}, birth point gives {want!r}")
    return fails


# ---------------------------------------------------------------------------
# return maps and the coexistence hunt


def check_series_fit(true: tuple[float, float, float], fitted: tuple[float, float, float]) -> list[str]:
    err = max(abs(a - b) for a, b in zip(true, fitted))
    if not err <= SERIES_TOL:
        return [f"series fit {fitted!r} misses {true!r} by {err!r}"]
    return []


def check_rescale(text: str, target: tuple[float, float], ns: list[int], j1: float,
                  lam: float, gamma: float) -> dict[int, list[str]]:
    """Failures by row position of one `ghmlab rescale` table."""
    lines = text.splitlines()
    if not lines or lines[0] != RESCALE_HEADER or len(lines) != len(ns) + 1:
        return {-1: [f"unexpected rescale output {text!r}"]}
    Mt, Bt = target
    fails: dict[int, list[str]] = {}
    deltas = []
    for k, (n, line) in enumerate(zip(ns, lines[1:])):
        f = line.split(",")
        bad = []
        if len(f) != 8 or f[0] != str(n) or not all(_round_trips(s) for s in f[1:]):
            fails[k] = [f"row for n={n} is incomplete or malformed: {line!r}"]
            deltas.append(None)
            continue
        Mf, Bf, Rf, Ma, Ba, Ra, d = (float(s) for s in f[1:])
        Ra_want = 2.0 * j1 * (lam * lam * gamma) ** n / Bt
        if abs(Ma - Mt) > ASYM_TOL * max(1.0, abs(Mt)) or abs(Ba - Bt) > ASYM_TOL * max(1.0, abs(Bt)):
            bad.append(f"n={n}: asymptotic (M, B) = ({Ma!r}, {Ba!r}) is not the target")
        if abs(Ra - Ra_want) > ASYM_TOL * abs(Ra_want):
            bad.append(f"n={n}: asymptotic R {Ra!r}, leading order gives {Ra_want!r}")
        if d != max(abs(Mf - Ma), abs(Bf - Ba), abs(Rf - Ra)):
            bad.append(f"n={n}: delta {d!r} is not the gap between the fitted and asymptotic rows")
        if 2 * k >= len(ns) and not Rf * j1 * Bt > 0.0:
            bad.append(f"n={n}: fitted R {Rf!r} lacks the sign of J1*B = {j1 * Bt!r}")
        if bad:
            fails[k] = bad
        deltas.append(d)
    if deltas[0] is not None and deltas[-1] is not None and not deltas[-1] < deltas[0]:
        fails.setdefault(len(ns) - 1, []).append(
            f"delta at n={ns[-1]} ({deltas[-1]!r}) is not below delta at n={ns[0]} ({deltas[0]!r})"
        )
    return fails


def check_coexist(text: str, gamma: float, m_circle_offset: float) -> list[str]:
    rep = parse_report(text)
    if rep.get("status") != "hit":
        return [f"coexist status {rep.get('status')!r}"]
    try:
        ns, nc = int(rep["n_sink"]), int(rep["n_circle"])
        sink = tuple(float(rep[f"fit_sink_{k}"]) for k in "MBR")
        circ = tuple(float(rep[f"fit_circle_{k}"]) for k in "MBR")
        s_sink, s_circ = float(rep["sigma_center_sink"]), float(rep["sigma_center_circle"])
    except (KeyError, ValueError) as e:
        return [f"coexist report incomplete: {e}"]
    fails = []
    if rep.get("verdict_sink") != "sink" or rep.get("verdict_circle") != "circle":
        fails.append(f"verdicts {rep.get('verdict_sink')!r} / {rep.get('verdict_circle')!r}")
    want = gamma ** (ns - nc)
    if not abs(s_circ / s_sink - want) <= SIGMA_RATIO_TOL * want:
        fails.append(f"sigma-centre ratio {s_circ / s_sink!r}, gamma^(n_sink - n_circle) = {want!r}")
    if not has_attracting_fixed_point(*sink):
        fails.append(f"fitted sink window {sink!r} is outside the stability domain")
    M, B, R = circ
    if R == 0.0 or not abs(M - birth_m(B, R) - m_circle_offset) <= BIRTH_TOL:
        fails.append(f"fitted circle window {circ!r} is not {m_circle_offset} past the birth curve")
    return fails
