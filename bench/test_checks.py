"""The benchmark's output checks pass on well-formed outputs and fail on corrupted ones.

Valid outputs are built here from the same closed forms the checks use, so
these tests need neither the program nor its run time. Run with
`python3 -m pytest bench/test_checks.py`.
"""

import math

import numpy as np
import pytest

import checks

F = "{:.17g}".format


# ---------------------------------------------------------------------------
# sweep


def _cell_row(M, B, R):
    fps = [(x, rho) for x, rho in checks.fixed_points(M, B, R) if rho < 1.0]
    if fps:
        x = fps[0][0]
        tr, det = -(2.0 + R) * x, B + R * x
        disc = tr * tr - 4.0 * det
        top = 0.5 * (abs(tr) + math.sqrt(disc)) if disc >= 0.0 else math.sqrt(det)
        l1 = math.log(top)
        return [F(M), F(B), F(R), "sink", "1", F(l1), F(math.log(abs(det)) - l1), ""]
    if not checks.fixed_points(M, B, R) or abs(B) > 1.0:
        return [F(M), F(B), F(R), "divergent", "", "", "", ""]
    return [F(M), F(B), F(R), "chaotic", "", F(0.3), F(math.log(abs(B)) - 0.3), ""]


@pytest.fixture
def sweep():
    Ms = np.linspace(-2.0, 4.0, 24).tolist()
    Bs = np.linspace(-1.5, 1.5, 20).tolist()
    rows = [_cell_row(M, B, 0.0) for B in Bs for M in Ms]
    return Ms, Bs, rows


def _csv(rows):
    return "\n".join([checks.CSV_HEADER] + [",".join(r) for r in rows]) + "\n"


def _first(rows, pred):
    return next(k for k, r in enumerate(rows) if pred(r))


def test_sweep_valid_output_passes(sweep):
    Ms, Bs, rows = sweep
    assert checks.check_sweep(_csv(rows), Ms, Bs, 0.0) == {}


def _flip_margin_sink(rows):
    k = _first(rows, lambda r: checks.in_domain_with_margin(float(r[0]), float(r[1]), 0.0))
    rows[k][3:5] = ["chaotic", ""]


def _flip_fold_divergent(rows):
    k = _first(rows, lambda r: abs(float(r[1])) <= 1.0
               and float(r[0]) < checks.fold_m(float(r[1]), 0.0) - 0.05)
    rows[k] = rows[k][:3] + ["sink", "1", F(-0.1), F(math.log(abs(float(rows[k][1]))) + 0.1), ""]


def _perturb_lambda(rows):
    k = _first(rows, lambda r: r[3] == "chaotic")
    rows[k][5] = F(float(rows[k][5]) + 1e-6)


def _short_digits(rows):
    k = _first(rows, lambda r: r[3] == "sink")
    rows[k][5] = "{:.12g}".format(float(rows[k][5]))


def _drop_row(rows):
    rows.pop()


def _swap_rows(rows):
    rows[0], rows[1] = rows[1], rows[0]


@pytest.mark.parametrize("corrupt", [_flip_margin_sink, _flip_fold_divergent, _perturb_lambda,
                                     _short_digits, _drop_row, _swap_rows])
def test_sweep_corruption_fails(sweep, corrupt):
    Ms, Bs, rows = sweep
    corrupt(rows)
    assert checks.check_sweep(_csv(rows), Ms, Bs, 0.0)


# ---------------------------------------------------------------------------
# classify


def _classify_text(row):
    return checks.CSV_HEADER + "\n" + ",".join(row) + "\n"


OMEGA, R_CIRC = 1.0, 0.1
M_CIRC, B_CIRC = checks.birth_point(OMEGA, R_CIRC)
POINTS = {
    "domain": ({"M": 0.3, "B": 0.2, "R": 0.0, "stratum": "domain"}, _cell_row(0.3, 0.2, 0.0)),
    "fold": ({"M": -1.0, "B": 0.2, "R": 0.0, "stratum": "fold"},
             [F(-1.0), F(0.2), F(0.0), "divergent", "", "", "", ""]),
    "control": ({"M": 1.4, "B": -0.3, "R": 0.0, "stratum": "control"},
                [F(1.4), F(-0.3), F(0.0), "chaotic", "", F(0.4195), F(math.log(0.3) - 0.4195), ""]),
    "circle": ({"M": M_CIRC + 0.01, "B": B_CIRC, "R": R_CIRC, "stratum": "circle", "omega": OMEGA},
               [F(M_CIRC + 0.01), F(B_CIRC), F(R_CIRC), "circle", "", F(2e-5), F(-1e-3),
                F(OMEGA / (2.0 * math.pi) + 0.002)]),
}


@pytest.mark.parametrize("name", sorted(POINTS))
def test_classify_valid_output_passes(name):
    point, row = POINTS[name]
    assert checks.check_classify(point, _classify_text(row)) == []


@pytest.mark.parametrize("name, field, value", [
    ("domain", 3, "undecided"),  # flipped verdict inside the stability domain
    ("domain", 4, "2"),  # wrong period
    ("domain", 0, F(0.31)),  # row does not echo the input
    ("fold", 3, "chaotic"),  # below the fold but not divergent
    ("control", 5, F(0.4392)),  # Henon exponent off by 0.02 (sum rule broken too)
    ("circle", 7, F(OMEGA / (2.0 * math.pi) + 0.01)),  # rotation away from the birth angle
])
def test_classify_corruption_fails(name, field, value):
    point, row = POINTS[name]
    row = list(row)
    row[field] = value
    assert checks.check_classify(point, _classify_text(row))


def test_control_exponent_alone_fails():
    point, row = POINTS["control"]
    l1 = 0.4192 + 0.02
    row = row[:5] + [F(l1), F(math.log(0.3) - l1), ""]
    assert checks.check_classify(point, _classify_text(row))


# ---------------------------------------------------------------------------
# rescale, series fit and coexist

LAM, GAMMA, J1 = 0.7, 1.8, -0.183
NS = [6, 7, 8, 9]
TARGET = (1.0, 0.5)


def _rescale_rows():
    rows = []
    for k, n in enumerate(NS):
        Ra = 2.0 * J1 * (LAM * LAM * GAMMA) ** n / TARGET[1]
        gap = 0.2 / (k + 1)
        fit = (TARGET[0] + gap, TARGET[1] - gap / 2, Ra * 0.9)
        d = max(abs(fit[0] - TARGET[0]), abs(fit[1] - TARGET[1]), abs(fit[2] - Ra))
        rows.append([str(n), *map(F, fit), F(TARGET[0]), F(TARGET[1]), F(Ra), F(d)])
    return rows


def _rescale_text(rows):
    return "\n".join([checks.RESCALE_HEADER] + [",".join(r) for r in rows]) + "\n"


def _check_rescale(rows):
    return checks.check_rescale(_rescale_text(rows), TARGET, NS, J1, LAM, GAMMA)


def test_rescale_valid_output_passes():
    assert _check_rescale(_rescale_rows()) == {}


@pytest.mark.parametrize("corrupt", [
    lambda rows: rows[-1].__setitem__(3, F(-float(rows[-1][3]))),  # fitted R of the wrong sign
    lambda rows: rows[-1].__setitem__(6, F(float(rows[-1][6]) * 1.001)),  # wrong asymptotic R
    lambda rows: rows[1].__setitem__(7, F(float(rows[1][7]) * 1.5)),  # delta is not the gap
    lambda rows: rows[2].__setitem__(1, ""),  # a fit went missing
    lambda rows: rows.pop(),  # a return index went missing
])
def test_rescale_corruption_fails(corrupt):
    rows = _rescale_rows()
    corrupt(rows)
    assert _check_rescale(rows)


def test_rescale_delta_must_shrink():
    rows = _rescale_rows()
    Ra = float(rows[-1][6])
    rows[-1][1] = F(TARGET[0] + 0.5)  # last gap now larger than the first
    rows[-1][7] = F(max(0.5, abs(float(rows[-1][2]) - TARGET[1]), abs(float(rows[-1][3]) - Ra)))
    assert 3 in _check_rescale(rows)


def test_series_fit_check():
    true = (1.0, 0.5, 0.05)
    assert checks.check_series_fit(true, true) == []
    assert checks.check_series_fit(true, (1.0, 0.5, 0.05 + 1e-8))


def _coexist_report():
    ns, nc, y_minus = 10, 14, 0.42635210520844996
    B_c, R_c = 0.9747826280448023, 0.06756372186401563
    return {
        "status": "hit", "probes": "20", "n_sink": str(ns), "n_circle": str(nc),
        "verdict_sink": "sink", "verdict_circle": "circle",
        "fit_sink_M": F(-0.0165831833980965), "fit_sink_B": F(-0.6522720516606769),
        "fit_sink_R": F(-0.1048343273939302),
        "fit_circle_M": F(checks.birth_m(B_c, R_c) + 0.03 + 2e-4), "fit_circle_B": F(B_c),
        "fit_circle_R": F(R_c),
        "sigma_center_sink": F(GAMMA ** -ns * y_minus), "sigma_center_circle": F(GAMMA ** -nc * y_minus),
    }


def _coexist_text(rep):
    return "".join(f"{k}={v}\n" for k, v in rep.items())


def test_coexist_valid_report_passes():
    assert checks.check_coexist(_coexist_text(_coexist_report()), GAMMA, 0.03) == []


@pytest.mark.parametrize("key, value", [
    ("status", "none"),
    ("verdict_circle", "undecided"),
    ("sigma_center_circle", None),  # sigma ratio off by one part in 1e9
    ("fit_sink_M", F(3.0)),  # sink window beyond the flip curve
    ("fit_circle_M", None),  # circle window 0.01 further from birth
    ("fit_circle_R", None),  # report cut short
])
def test_coexist_corruption_fails(key, value):
    rep = _coexist_report()
    if key == "sigma_center_circle":
        value = F(float(rep[key]) * (1.0 + 1e-9))
    elif key == "fit_circle_M":
        value = F(float(rep[key]) + 0.01)
    if value is None:
        del rep[key]
    else:
        rep[key] = value
    assert checks.check_coexist(_coexist_text(rep), GAMMA, 0.03)
