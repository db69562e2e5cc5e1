"""ghmlab benchmark: one run of one workload, with its end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep|classify|tangency --seed N --seconds S --trace 0|1

The workload runs in a fresh interpreter (bench/workloads.py) with the
package taken from ./src and one BLAS/OpenMP thread. set-up is timed in
that child and in SETUP_SAMPLES more children that stop at the first timed
call; setup_s is their median. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. Exits 2 without a result when the checkout has no
program or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 4
DEADLINE_S = 170.0  # every run, children included, ends within this


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # numpy's BLAS helper thread doubles CPU time on the small lstsq/solve
    # calls of fit_ghm without saving wall time, and makes timings wander
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, extra: list[str], started: float) -> tuple[float, dict]:
    """Start one child; return (its set-up seconds, its JSON result)."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = clock()
    proc = subprocess.run(cmd + extra, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, DEADLINE_S - (t0 - started)))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload child exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - t0, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("sweep", "classify", "tangency"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must lie in [1, 60]")
    if not (ROOT / "src" / "ghmlab" / "atlas_cli.py").is_file():
        print(f"bench: no ghmlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = clock()
    try:
        setups = [run_child(args, ["--setup-only"], started)[0] for _ in range(SETUP_SAMPLES)]
        setup, res = run_child(args, [], started)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    if Path(res["ghmlab"]).resolve().parent != (ROOT / "src" / "ghmlab").resolve():
        print(f"bench: imported ghmlab from {res['ghmlab']}, not this checkout", file=sys.stderr)
        return 2
    setups.append(setup)

    if args.trace:
        metrics = dict(res["layers"])
    else:
        wall = res["wall_s"]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall, "s"),
            "throughput_per_s": (res["units_per_round"] / wall, "1/s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:9s} {name:55s} {value:14.6g} {unit}")
    out = {
        "correct": bool(res["deterministic"]),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    text = json.dumps(out)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-result.json").write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
