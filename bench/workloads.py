"""One benchmark run of one workload, in a fresh interpreter started by run.py.

Usage: python3 bench/workloads.py --workload NAME --seed N --seconds S
       --trace 0|1 [--setup-only]

The inputs come from the seed alone. A round is one pass over them: every
round makes the same calls, so rounds are the unit of repetition and
`attempted` grows by the same number of operations each round. Only the
program's calls are timed; parsing and checking happen between them. The
last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from ghmlab import atlas_cli, tangency_lab

import checks
from tracer import Tracer

OUT = Path(__file__).resolve().parent / "out"

SWEEP_WINDOW = (-2.0, 4.0, -1.5, 1.5)  # criterion 04's (M, B) window
SWEEP_JITTER = 0.01
SWEEP_N = 64  # 64x64 cells: two of the sweep's fixed 2048-cell blocks

CLASSIFY_STRATA = (("domain", 8), ("doubling", 4), ("chaos", 8), ("circle", 8), ("fold", 4))
CONTROL = {"M": 1.4, "B": -0.3, "R": 0.0, "stratum": "control", "span": 1_000_000}

TABLES = 24
TABLE_NS = list(range(6, 19))
SERIES_LEN = 120


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _f(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# inputs


def sweep_inputs(rng) -> dict:
    m0, m1, b0, b1 = (v + rng.uniform(-SWEEP_JITTER, SWEEP_JITTER) for v in SWEEP_WINDOW)
    return {"window": (m0, m1, b0, b1), "R": 0.0,
            "Ms": np.linspace(m0, m1, SWEEP_N).tolist(), "Bs": np.linspace(b0, b1, SWEEP_N).tolist()}


def _domain_point(rng, R):
    while True:
        B = rng.uniform(-0.8, 0.8)
        M = rng.uniform(checks.fold_m(B, R), checks.flip_m(B, R))
        if checks.in_domain_with_margin(M, B, R):
            return M, B


def classify_inputs(rng) -> list[dict]:
    points = []
    for stratum, count in CLASSIFY_STRATA:
        for k in range(count):
            p = {"stratum": stratum, "R": 0.0}
            if stratum == "domain":
                p["R"] = 0.0 if k % 2 == 0 else rng.uniform(-0.05, 0.05)
                p["M"], p["B"] = _domain_point(rng, p["R"])
            elif stratum == "doubling":
                p["B"] = rng.uniform(-0.5, 0.5)
                p["M"] = checks.flip_m(p["B"], 0.0) + rng.uniform(0.05, 0.25)
            elif stratum == "chaos":
                p["B"], p["M"] = rng.uniform(-0.32, -0.28), rng.uniform(1.30, 1.40)
            elif stratum == "circle":
                p["R"], p["omega"] = rng.uniform(0.05, 0.15), rng.uniform(0.75, 1.30)
                M, p["B"] = checks.birth_point(p["omega"], p["R"])
                p["M"] = M + 0.01
            else:  # below the fold
                p["B"] = rng.uniform(-1.0, 1.0)
                p["M"] = checks.fold_m(p["B"], 0.0) - rng.uniform(0.1, 1.0)
            points.append({k: float(v) if k != "stratum" else v for k, v in p.items()})
    return points + [CONTROL]


def _series(rng):
    """Bounded orbit of a planar map with an attracting fixed point, started 0.1 off it.

    Draws again when the start lies outside the basin, since an orbit that
    runs off to infinity is no input for a fit.
    """
    while True:
        B = rng.uniform(0.3, 0.9) * rng.choice((-1.0, 1.0))
        R, M = rng.uniform(-0.1, 0.1), rng.uniform(-0.5, 2.0)
        sinks = [x for x, rho in checks.fixed_points(M, B, R) if rho <= 0.95]
        if not sinks:
            continue
        x, y = sinks[0] + 0.1, sinks[0] - 0.1
        u = [x, y]
        for _ in range(SERIES_LEN - 2):
            x, y = y, M - B * x - y * y - R * x * y
            if not abs(y) < 10.0:
                break
            u.append(y)
        if len(u) == SERIES_LEN:
            return (float(M), float(B), float(R)), u


def tangency_inputs(rng) -> dict:
    targets = [(float(rng.uniform(0.0, 1.4)), float(rng.uniform(0.3, 0.9) * rng.choice((-1.0, 1.0))))
               for _ in range(TABLES)]
    return {"targets": targets, "series": [_series(rng) for _ in range(TABLES)]}


MAKE_INPUTS = {"sweep": sweep_inputs, "classify": classify_inputs, "tangency": tangency_inputs}


# ---------------------------------------------------------------------------
# rounds: each returns (seconds of each timed call, work units, attempted,
# failed, output digest); the calls and their order are the same every round


def _timed(fn, *args):
    """(seconds, result) of one program call; result None when the call raised.

    A raising call is one failed operation, not the end of the run, so the
    traceback goes to stderr and the rounds go on.
    """
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception:
        traceback.print_exc()
        out = None
    return time.perf_counter() - t0, out


def _cli(argv: list[str]) -> tuple[float, int | None, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        dt, code = _timed(atlas_cli.main, argv)
    if code is None:
        sys.stderr.write(err.getvalue())
    return dt, code, out.getvalue()


def sweep_round(inp):
    m0, m1, b0, b1 = inp["window"]
    csv, svg = OUT / "sweep.csv", OUT / "sweep.svg"
    dt, code, _ = _cli(["sweep", "--m-min", _f(m0), "--m-max", _f(m1), "--b-min", _f(b0),
                          "--b-max", _f(b1), "--nx", str(SWEEP_N), "--ny", str(SWEEP_N),
                          "--R", _f(inp["R"]), "--threads", "1", "--out", str(csv), "--svg", str(svg)])
    cells = SWEEP_N * SWEEP_N
    if code != 0:
        return [dt], cells, cells, cells, f"exit {code}"
    text = csv.read_text()
    fails = checks.check_sweep(text, inp["Ms"], inp["Bs"], inp["R"])
    failed = cells if -1 in fails else len(fails)
    if not svg.read_text().startswith("<svg"):
        failed = cells
    digest = hashlib.sha256(text.encode() + svg.read_bytes()).hexdigest()
    return [dt], cells, cells, failed, digest


def classify_round(points):
    times, failed = [], 0
    h = hashlib.sha256()
    for p in points:
        argv = ["classify", "--M", _f(p["M"]), "--B", _f(p["B"]), "--R", _f(p["R"])]
        if "span" in p:
            argv += ["--span", str(p["span"])]
        dt, code, text = _cli(argv)
        times.append(dt)
        h.update(text.encode())
        if code != 0 or checks.check_classify(p, text):
            failed += 1
    return times, len(points), len(points), failed, h.hexdigest()


def tangency_round(inp):
    sp, cf = tangency_lab.DEFAULT_SPECTRUM, tangency_lab.DEFAULT_COEFFS
    j1 = checks.bordered_det(cf.A.tolist(), cf.b.tolist(), cf.c.tolist())
    times, attempted, failed, windows = [], 0, 0, 0
    h = hashlib.sha256()
    n_arg = ",".join(map(str, TABLE_NS))
    for target in inp["targets"]:
        dt, code, text = _cli(["rescale", "--n", n_arg, "--target-m", _f(target[0]),
                               "--target-b", _f(target[1])])
        times.append(dt)
        attempted += len(TABLE_NS)
        windows += len(TABLE_NS)
        h.update(text.encode())
        if code != 0:
            failed += len(TABLE_NS)
            continue
        fails = checks.check_rescale(text, target, TABLE_NS, j1, sp.lam, sp.gamma)
        failed += len(TABLE_NS) if -1 in fails else len(fails)
    for true, u in inp["series"]:
        attempted += 1
        dt, fit = _timed(tangency_lab.fit_ghm_series, u)
        times.append(dt)
        if fit is None:
            failed += 1
            continue
        h.update(repr((fit.M, fit.B, fit.R)).encode())
        failed += bool(checks.check_series_fit(true, (fit.M, fit.B, fit.R)))
    dt, code, text = _cli(["coexist"])
    times.append(dt)
    attempted += 1
    windows += 2
    h.update(text.encode())
    box = tangency_lab.CoexistenceBox()
    failed += code != 0 or bool(checks.check_coexist(text, sp.gamma, box.m_circle_offset))
    return times, windows, attempted, failed, h.hexdigest()


ROUNDS = {"sweep": sweep_round, "classify": classify_round, "tangency": tangency_round}


# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run_rounds(fn, inp, deadline_s: float, min_rounds: int, start: float, state: dict) -> tuple[float, int]:
    """Whole rounds until the next one would end past deadline_s (and at least min_rounds).

    Returns the time of a round as the sum over its calls of each call's
    slowest time across rounds, and the number of rounds. The host speeds
    its cores up for seconds at a time, at random; the slowest time of a
    call is the one it takes at the host's usual speed, and it repeats best
    from run to run (README.md gives the spreads of the other estimators).
    """
    rounds = []
    while True:
        r0 = clock()
        times, units, attempted, failed, digest = fn(inp)
        rounds.append(times)
        state["log"].append({"start": r0 - start, "calls": times})
        state["units"] = units
        state["attempted"] += attempted
        state["failed"] += failed
        state.setdefault("digest", digest)
        state["deterministic"] &= digest == state["digest"]
        done = clock()
        if len(rounds) >= min_rounds and done - start + (done - r0) > deadline_s:
            return sum(map(max, zip(*rounds))), len(rounds)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(ROUNDS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    inp = MAKE_INPUTS[args.workload](np.random.default_rng(args.seed))
    ready = clock()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    OUT.mkdir(exist_ok=True)
    fn = ROUNDS[args.workload]
    state = {"attempted": 0, "failed": 0, "deterministic": True, "log": []}
    result = {"ready": ready}
    if args.trace:
        wall, _ = run_rounds(fn, inp, args.seconds / 2, 1, ready, state)
        tracer = Tracer()
        tracer.install()
        traced, rounds = run_rounds(fn, inp, args.seconds, 1, ready, state)
        layers = tracer.metrics(rounds)
        layers["trace.overhead_s"] = (traced - wall, "s")
        result["layers"] = layers
        spans = [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in tracer.spans]
        (OUT / f"{args.workload}-seed{args.seed}-trace.json").write_text(json.dumps(spans))
    else:
        wall, _ = run_rounds(fn, inp, args.seconds, 3, ready, state)
    result.update(
        wall_s=wall,
        units_per_round=state["units"],
        attempted=state["attempted"],
        failed=state["failed"],
        deterministic=state["deterministic"],
        peak_rss_mb=peak_rss_mb(),
        ghmlab=atlas_cli.__file__,
    )
    # per-call times of every round, for looking into the spread of a run
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-rounds.json").write_text(
        json.dumps(state["log"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
