"""Command-line front end: curves, sweeps, classification, rescaling tables.

Every command is a pure function of its resolved configuration: flags beat
config-file values, config-file values beat built-in defaults. All real
numbers are printed with 17 significant digits so the text round-trips to
the identical double. Exit codes: 0 success (including an empty search
result), 2 I/O failure, 3 invalid input.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys

import numpy as np

from .ghm_core import GhmParams
from .bifurcation_atlas import trace_curves
from .attractor_classifier import ClassifyOptions, classify, sweep
from .tangency_lab import (
    COEX_COEFFS,
    DEFAULT_COEFFS,
    DEFAULT_SPECTRUM,
    CoexistenceBox,
    FitError,
    SaddleSpectrum,
    asymptotic_params,
    coexistence_search,
    fit_exact_map,
    fit_ghm,
    mount_window,
    tangency_jacobian,
    window_invert,
    window_mb,
)

EXIT_OK = 0
EXIT_IO = 2
EXIT_INVALID = 3


class CliError(Exception):
    """Carries the exit code for a user-facing failure."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the exit-code contract wants 3
    def error(self, message):
        raise CliError(EXIT_INVALID, message)


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{float(x):.17g}"


def _emit(out: str | None, text: str) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
        return
    with open(out, "w", newline="") as f:
        f.write(text)


# ---------------------------------------------------------------------------
# configuration files
#
# INI-style, one section per command, keys named like the long flags with
# underscores. Unknown sections or keys are rejected outright.

_BOX_KEYS = {
    "phi_lo": float,
    "phi_hi": float,
    "phi_steps": int,
    "b_sink_max": float,
    "b_circle_lo": float,
    "b_circle_hi": float,
    "m_sink_max": float,
    "m_circle_offset": float,
    "lphi_band_margin": float,
}

_SCHEMA: dict[str, dict[str, type]] = {
    "curves": {"r": float, "samples": int, "out": str},
    "sweep": {
        "m_min": float,
        "m_max": float,
        "b_min": float,
        "b_max": float,
        "nx": int,
        "ny": int,
        "r": float,
        "threads": int,
        "out": str,
        "svg": str,
    },
    "classify": {"m": float, "b": float, "r": float, "span": int, "out": str},
    "rescale": {
        "lambda": float,
        "gamma": float,
        "n": str,
        "target_m": float,
        "target_b": float,
        "exact": bool,
        "out": str,
    },
    "window": {
        "lambda": float,
        "gamma": float,
        "n": str,
        "target_m": float,
        "target_b": float,
        "out": str,
    },
    "coexist": dict(
        {"lambda": float, "gamma": float, "n_sink": int, "n_circle": int, "out": str},
        **_BOX_KEYS,
    ),
}

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _load_config(path: str | None, command: str) -> dict:
    if path is None:
        return {}
    cp = configparser.ConfigParser()
    try:
        with open(path) as f:
            cp.read_file(f)
    except OSError as e:
        raise CliError(EXIT_IO, f"cannot read config: {e}")
    except configparser.Error as e:
        raise CliError(EXIT_INVALID, f"malformed config: {e}")
    for section in cp.sections():
        if section not in _SCHEMA:
            raise CliError(EXIT_INVALID, f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise CliError(EXIT_INVALID, f"unknown key '{key}' in [{section}]")
    got: dict = {}
    if cp.has_section(command):
        for key, raw in cp[command].items():
            typ = _SCHEMA[command][key]
            try:
                if typ is bool:
                    low = raw.strip().lower()
                    if low in _TRUE:
                        got[key] = True
                    elif low in _FALSE:
                        got[key] = False
                    else:
                        raise ValueError(f"not a boolean: {raw!r}")
                else:
                    got[key] = typ(raw)
                if typ is float and not math.isfinite(got[key]):
                    raise ValueError(f"not finite: {raw!r}")
            except ValueError as e:
                raise CliError(EXIT_INVALID, f"bad value for '{key}' in [{command}]: {e}")
    return got


def _resolve(args: argparse.Namespace, cfg: dict, key: str, default=None):
    """Flag value if given, else config value, else default."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in cfg:
        return cfg[key]
    return default


def _need(args, cfg, key):
    val = _resolve(args, cfg, key)
    if val is None:
        raise CliError(EXIT_INVALID, f"missing required parameter '{key}'")
    return val


def _parse_n_list(text: str) -> list[int]:
    try:
        ns = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise CliError(EXIT_INVALID, f"bad n list: {text!r}")
    if not ns or any(n < 1 for n in ns):
        raise CliError(EXIT_INVALID, f"bad n list: {text!r}")
    return ns


def _spectrum(args, cfg) -> SaddleSpectrum:
    lam = _resolve(args, cfg, "lambda", DEFAULT_SPECTRUM.lam)
    gamma = _resolve(args, cfg, "gamma", DEFAULT_SPECTRUM.gamma)
    try:
        return SaddleSpectrum(lam, gamma)
    except ValueError as e:
        raise CliError(EXIT_INVALID, str(e))


# ---------------------------------------------------------------------------
# commands


def _cmd_curves(args) -> int:
    cfg = _load_config(args.config, "curves")
    R = _resolve(args, cfg, "r", 0.0)
    samples = _resolve(args, cfg, "samples", 200)
    out = _resolve(args, cfg, "out")
    try:
        rows = trace_curves(R, samples)
    except ValueError as e:
        raise CliError(EXIT_INVALID, str(e))
    if not all(math.isfinite(s.M) and math.isfinite(s.B) for s in rows):
        raise CliError(EXIT_INVALID, f"R={R!r} puts curve samples out of floating-point range")
    lines = ["curve,param,M,B,R"]
    for s in rows:
        lines.append(
            f"{s.curve_id},{_fmt(s.parameter)},{_fmt(s.M)},{_fmt(s.B)},{_fmt(s.R)}"
        )
    _emit(out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cell_row(M: float, B: float, R: float, cell) -> str:
    per = cell.period if cell.verdict == "sink" else None
    l1, l2 = cell.lyapunov if cell.lyapunov is not None else (None, None)
    return ",".join(
        [
            _fmt(M),
            _fmt(B),
            _fmt(R),
            cell.verdict,
            "" if per is None else str(per),
            _fmt(l1),
            _fmt(l2),
            _fmt(cell.rotation_number),
        ]
    )


_SVG_COLORS = {
    "divergent": "#d9d9d9",
    "sink": "#4472c4",
    "chaotic": "#c0504d",
    "circle": "#70ad47",
    "undecided": "#ffc000",
}
_SVG_CURVE_COLORS = (
    ("Lplus", "#000000"),
    ("Lminus", "#555555"),
    ("Lphi", "#1a6e1a"),
    ("Lneutral", "#7a4b16"),
)


def _sweep_svg(grid) -> str:
    W, H, pad = 760, 520, 45
    mspan = grid.m_max - grid.m_min
    bspan = grid.b_max - grid.b_min

    def px(M):
        return pad + (M - grid.m_min) / mspan * (W - 2 * pad)

    def py(B):
        return H - pad - (B - grid.b_min) / bspan * (H - 2 * pad)

    Ms = np.linspace(grid.m_min, grid.m_max, grid.nx)
    Bs = np.linspace(grid.b_min, grid.b_max, grid.ny)
    cw = (W - 2 * pad) / grid.nx
    ch = (H - 2 * pad) / grid.ny
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="#ffffff"/>',
        "<defs><clipPath id=\"plot\">"
        f'<rect x="{pad}" y="{pad}" width="{W - 2 * pad}" height="{H - 2 * pad}"/>'
        "</clipPath></defs>",
    ]
    for j in range(grid.ny):
        for i in range(grid.nx):
            v = grid.cells[j * grid.nx + i].verdict
            x = px(float(Ms[i])) - cw / 2
            y = py(float(Bs[j])) - ch / 2
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw:.2f}" height="{ch:.2f}" '
                f'fill="{_SVG_COLORS[v]}"/>'
            )
    samples = trace_curves(grid.R, 600)
    parts.append('<g clip-path="url(#plot)" fill="none" stroke-width="1.5">')
    for cid, color in _SVG_CURVE_COLORS:
        pts = [
            f"{px(s.M):.2f},{py(s.B):.2f}"
            for s in samples
            if s.curve_id == cid and math.isfinite(s.M) and math.isfinite(s.B)
        ]
        if pts:
            parts.append(f'<polyline stroke="{color}" points="{" ".join(pts)}"/>')
    parts.append("</g>")
    parts.append(
        f'<rect x="{pad}" y="{pad}" width="{W - 2 * pad}" height="{H - 2 * pad}" '
        'fill="none" stroke="#000000"/>'
    )
    font = 'font-family="sans-serif" font-size="12"'
    parts.append(f'<text x="{pad}" y="{H - pad + 16}" {font}>M={_fmt(grid.m_min)}</text>')
    parts.append(
        f'<text x="{W - pad}" y="{H - pad + 16}" text-anchor="end" {font}>'
        f"M={_fmt(grid.m_max)}</text>"
    )
    parts.append(f'<text x="4" y="{H - pad}" {font}>B={_fmt(grid.b_min)}</text>')
    parts.append(f'<text x="4" y="{pad + 4}" {font}>B={_fmt(grid.b_max)}</text>')
    lx = pad
    for k, (name, color) in enumerate(sorted(_SVG_COLORS.items())):
        parts.append(f'<rect x="{lx}" y="8" width="12" height="12" fill="{color}"/>')
        parts.append(f'<text x="{lx + 16}" y="18" {font}>{name}</text>')
        lx += 110
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config, "sweep")
    m_min = _need(args, cfg, "m_min")
    m_max = _need(args, cfg, "m_max")
    b_min = _need(args, cfg, "b_min")
    b_max = _need(args, cfg, "b_max")
    nx = _need(args, cfg, "nx")
    ny = _need(args, cfg, "ny")
    R = _resolve(args, cfg, "r", 0.0)
    threads = _resolve(args, cfg, "threads", 1)
    out = _resolve(args, cfg, "out")
    svg = _resolve(args, cfg, "svg")
    try:
        grid = sweep(m_min, m_max, b_min, b_max, nx, ny, R, threads=threads)
    except ValueError as e:
        raise CliError(EXIT_INVALID, str(e))
    Ms = np.linspace(m_min, m_max, nx)
    Bs = np.linspace(b_min, b_max, ny)
    lines = ["M,B,R,class,period,lyap1,lyap2,rotation"]
    for j in range(ny):
        for i in range(nx):
            lines.append(_cell_row(float(Ms[i]), float(Bs[j]), R, grid.cells[j * nx + i]))
    _emit(out, "\n".join(lines) + "\n")
    if svg is not None:
        _emit(svg, _sweep_svg(grid))
    return EXIT_OK


def _cmd_classify(args) -> int:
    cfg = _load_config(args.config, "classify")
    M = _need(args, cfg, "m")
    B = _need(args, cfg, "b")
    R = _resolve(args, cfg, "r", 0.0)
    span = _resolve(args, cfg, "span")
    out = _resolve(args, cfg, "out")
    try:
        opts = ClassifyOptions() if span is None else ClassifyOptions(span=span)
        cell = classify(GhmParams(M, B, R), opts)
    except ValueError as e:
        raise CliError(EXIT_INVALID, str(e))
    lines = ["M,B,R,class,period,lyap1,lyap2,rotation", _cell_row(M, B, R, cell)]
    _emit(out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_rescale(args) -> int:
    cfg = _load_config(args.config, "rescale")
    sp = _spectrum(args, cfg)
    ns = _parse_n_list(_resolve(args, cfg, "n", "8,12,16"))
    target = (
        _resolve(args, cfg, "target_m", 1.0),
        _resolve(args, cfg, "target_b", 0.5),
    )
    exact = bool(_resolve(args, cfg, "exact", False))
    out = _resolve(args, cfg, "out")
    coeffs = DEFAULT_COEFFS
    j1 = tangency_jacobian(coeffs)
    lines = ["n,M_fit,B_fit,R_fit,M_asym,B_asym,R_asym,delta"]
    deltas: list[float | None] = []
    for n in ns:
        try:
            mu, phi = window_invert(sp, n, target)
            asym = asymptotic_params(sp, mu, phi, n, j1)
        except ValueError as e:
            raise CliError(EXIT_INVALID, str(e))
        try:
            if exact:
                fit = fit_exact_map(asym)
            else:
                fit = fit_ghm(mount_window(sp, coeffs, n, target))
        except (FitError, ValueError):
            lines.append(f"{n},,,,{_fmt(asym.M)},{_fmt(asym.B)},{_fmt(asym.R)},")
            deltas.append(None)
            continue
        delta = max(abs(fit.M - asym.M), abs(fit.B - asym.B), abs(fit.R - asym.R))
        deltas.append(delta)
        lines.append(
            f"{n},{_fmt(fit.M)},{_fmt(fit.B)},{_fmt(fit.R)},"
            f"{_fmt(asym.M)},{_fmt(asym.B)},{_fmt(asym.R)},{_fmt(delta)}"
        )
    _emit(out, "\n".join(lines) + "\n")
    full = [d for d in deltas if d is not None]
    if len(full) == len(deltas):
        mono = all(b < a for a, b in zip(full, full[1:]))
        verdict = "yes" if mono else "no"
    else:
        verdict = "incomplete"
    print(f"rescale: delta strictly decreasing over n={ns}: {verdict}", file=sys.stderr)
    return EXIT_OK


def _cmd_window(args) -> int:
    cfg = _load_config(args.config, "window")
    sp = _spectrum(args, cfg)
    ns = _parse_n_list(_resolve(args, cfg, "n", "5,10,20"))
    tm = _need(args, cfg, "target_m")
    tb = _need(args, cfg, "target_b")
    out = _resolve(args, cfg, "out")
    lines = ["n,target_M,target_B,mu,phi,M_back,B_back,err"]
    for n in ns:
        try:
            mu, phi = window_invert(sp, n, (tm, tb))
            M_back, B_back = window_mb(sp, mu, phi, n)
        except ValueError as e:
            raise CliError(EXIT_INVALID, str(e))
        err = max(abs(M_back - tm), abs(B_back - tb))
        lines.append(
            f"{n},{_fmt(tm)},{_fmt(tb)},{_fmt(mu)},{_fmt(phi)},"
            f"{_fmt(M_back)},{_fmt(B_back)},{_fmt(err)}"
        )
    _emit(out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_coexist(args) -> int:
    cfg = _load_config(args.config, "coexist")
    sp = _spectrum(args, cfg)
    n_sink = _resolve(args, cfg, "n_sink", 10)
    n_circle = _resolve(args, cfg, "n_circle", 14)
    out = _resolve(args, cfg, "out")
    overrides = {k: cfg[k] for k in _BOX_KEYS if k in cfg}
    log: list[dict] = []
    try:
        box = CoexistenceBox(**overrides)
        hit = coexistence_search(sp, COEX_COEFFS, n_sink, n_circle, box=box, probe_log=log)
    except ValueError as e:
        raise CliError(EXIT_INVALID, str(e))
    lines = []
    if hit is None:
        lines.append("status=none")
        lines.append(f"n_sink={n_sink}")
        lines.append(f"n_circle={n_circle}")
        lines.append(f"probes={len(log)}")
        for k, rec in enumerate(log):
            reason = rec.get("reject", "unknown")
            lines.append(f"probe_{k}=phi:{_fmt(rec['phi'])};reject:{reason}")
    else:
        lines.append("status=hit")
        lines.append(f"probes={len(log)}")
        lines.append(f"mu={_fmt(hit.mu)}")
        lines.append(f"phi={_fmt(hit.phi)}")
        lines.append(f"n_sink={hit.n_sink}")
        lines.append(f"n_circle={hit.n_circle}")
        lines.append(f"verdict_sink={hit.verdict_sink.verdict}")
        lines.append(f"verdict_circle={hit.verdict_circle.verdict}")
        for tag, fit in (("sink", hit.fit_sink), ("circle", hit.fit_circle)):
            lines.append(f"fit_{tag}_M={_fmt(fit.M)}")
            lines.append(f"fit_{tag}_B={_fmt(fit.B)}")
            lines.append(f"fit_{tag}_R={_fmt(fit.R)}")
        lines.append(f"sigma_center_sink={_fmt(hit.sigma_center_sink)}")
        lines.append(f"sigma_center_circle={_fmt(hit.sigma_center_circle)}")
    _emit(out, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> _Parser:
    top = _Parser(prog="ghmlab", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", type=str, default=None, help="output path ('-' = stdout)")
        p.add_argument("--config", type=str, default=None, help="INI config path")

    p = sub.add_parser("curves", help="emit bifurcation-curve samples as CSV")
    p.add_argument("--R", dest="r", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("sweep", help="classify a (M, B) grid; CSV and optional SVG")
    p.add_argument("--m-min", dest="m_min", type=float, default=None)
    p.add_argument("--m-max", dest="m_max", type=float, default=None)
    p.add_argument("--b-min", dest="b_min", type=float, default=None)
    p.add_argument("--b-max", dest="b_max", type=float, default=None)
    p.add_argument("--nx", type=int, default=None)
    p.add_argument("--ny", type=int, default=None)
    p.add_argument("--R", dest="r", type=float, default=None)
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        help="accepted for compatibility (>= 1); no effect on output or speed",
    )
    p.add_argument("--svg", type=str, default=None, help="also render the grid to SVG")
    common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("classify", help="classify a single parameter point")
    p.add_argument("--M", dest="m", type=float, default=None)
    p.add_argument("--B", dest="b", type=float, default=None)
    p.add_argument("--R", dest="r", type=float, default=None)
    p.add_argument("--span", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("rescale", help="fitted vs asymptotic window parameters")
    p.add_argument("--lambda", dest="lambda", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--n", type=str, default=None, help="comma-separated return indices")
    p.add_argument("--target-m", dest="target_m", type=float, default=None)
    p.add_argument("--target-b", dest="target_b", type=float, default=None)
    p.add_argument(
        "--exact",
        action="store_const",
        const=True,
        default=None,
        help="fit synthetic data from the planar map itself (self-consistency)",
    )
    common(p)
    p.set_defaults(func=_cmd_rescale)

    p = sub.add_parser("window", help="invert window targets to (mu, phi) and back")
    p.add_argument("--lambda", dest="lambda", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--n", type=str, default=None)
    p.add_argument("--target-m", dest="target_m", type=float, default=None)
    p.add_argument("--target-b", dest="target_b", type=float, default=None)
    common(p)
    p.set_defaults(func=_cmd_window)

    p = sub.add_parser("coexist", help="search for coexisting sink + circle windows")
    p.add_argument("--lambda", dest="lambda", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--n-sink", dest="n_sink", type=int, default=None)
    p.add_argument("--n-circle", dest="n_circle", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_coexist)

    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except CliError as e:
        print(f"ghmlab: {e}", file=sys.stderr)
        return e.code
    except OSError as e:
        print(f"ghmlab: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
