"""Command-line front end: curves, sweeps, classification, rescaling tables.

Every command is a pure function of its resolved configuration: flags beat
config-file values, config-file values beat built-in defaults. One table,
_COMMANDS, declares each option once (flag, type, default, help); the
argument parsers, the config schema and _options derive from it. All real
numbers are printed with 17 significant digits so the text round-trips to
the identical double. Exit codes: 0 success (including an empty search
result), 2 I/O failure, 3 invalid input: main maps every ValueError the
library raises to 3, with its message.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import re
import sys
from typing import get_type_hints

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
    fit_ghm_windows,
    mount_window,
    tangency_jacobian,
    window_invert,
    window_mb,
)

EXIT_OK = 0
EXIT_IO = 2
EXIT_INVALID = 3

_NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)


class CliError(Exception):
    """Carries the exit code for a user-facing failure."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a value such as '-1e-3' or '-inf' as a flag unless
        # it looks like a negative number: let every negative decimal,
        # exponent form, inf and nan look like one, in the subparsers too
        # (this class builds them), so '--B -1e-3' is '--B=-1e-3'
        self._negative_number_matcher = _NEGATIVE_NUMBER

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
# options
#
# _COMMANDS (below the commands) gives each option one row: flag, type,
# default and optional help. Its config key, in the INI section named after
# the command, is the flag in lower case with '-' as '_'; coexist's search
# box adds config-only keys, one per CoexistenceBox field. Unknown sections
# or keys are rejected outright.

_REQUIRED = object()  # default of an option without one
_BOX = get_type_hints(CoexistenceBox)  # field name -> annotated type


def _key(flag: str) -> str:
    return flag.lstrip("-").lower().replace("-", "_")


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
                got[key] = cp.getboolean(command, key) if typ is bool else typ(raw)
                if typ is float and not math.isfinite(got[key]):
                    raise ValueError(f"not finite: {raw!r}")
            except ValueError as e:
                raise CliError(EXIT_INVALID, f"bad value for '{key}' in [{command}]: {e}")
    return got


def _options(args: argparse.Namespace, command: str) -> dict:
    """Every option of command by its config key: the flag's value if given,
    else the config file's, else the default; config-only keys as given."""
    cfg = _load_config(args.config, command)
    got = dict(cfg)
    for flag, _, default, *_ in _COMMANDS[command][2]:
        key = _key(flag)
        val = getattr(args, key)
        got[key] = cfg.get(key, default) if val is None else val
        if got[key] is _REQUIRED:
            raise CliError(EXIT_INVALID, f"missing required parameter '{key}'")
    return got


def _parse_n_list(text: str) -> list[int]:
    try:
        ns = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise CliError(EXIT_INVALID, f"bad n list: {text!r}")
    if not ns or any(n < 1 for n in ns):
        raise CliError(EXIT_INVALID, f"bad n list: {text!r}")
    return ns


# ---------------------------------------------------------------------------
# commands


def _cmd_curves(args) -> int:
    o = _options(args, "curves")
    lines = ["curve,param,M,B,R"]
    for s in trace_curves(o["r"], o["samples"]):
        lines.append(
            f"{s.curve_id},{_fmt(s.parameter)},{_fmt(s.M)},{_fmt(s.B)},{_fmt(s.R)}"
        )
    _emit(o["out"], "\n".join(lines) + "\n")
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

    Ms, Bs = grid.axes
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
    try:
        samples = trace_curves(grid.R, 600)
    except ValueError:  # R = -1 or -2, where the curves degenerate, or a huge R
        samples = []  # the grid goes without its curve overlay
    parts.append('<g clip-path="url(#plot)" fill="none" stroke-width="1.5">')
    for cid, color in _SVG_CURVE_COLORS:
        pts = [f"{px(s.M):.2f},{py(s.B):.2f}" for s in samples if s.curve_id == cid]
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
    o = _options(args, "sweep")
    m_min, m_max, b_min, b_max, nx, ny, R = (
        o[k] for k in ("m_min", "m_max", "b_min", "b_max", "nx", "ny", "r"))
    grid = sweep(m_min, m_max, b_min, b_max, nx, ny, R, threads=o["threads"])
    Ms, Bs = grid.axes
    lines = ["M,B,R,class,period,lyap1,lyap2,rotation"]
    for j in range(ny):
        for i in range(nx):
            lines.append(_cell_row(float(Ms[i]), float(Bs[j]), R, grid.cells[j * nx + i]))
    _emit(o["out"], "\n".join(lines) + "\n")
    if o["svg"] is not None:
        _emit(o["svg"], _sweep_svg(grid))
    return EXIT_OK


def _cmd_classify(args) -> int:
    o = _options(args, "classify")
    M, B, R = o["m"], o["b"], o["r"]
    cell = classify(GhmParams(M, B, R), ClassifyOptions(span=o["span"]))
    lines = ["M,B,R,class,period,lyap1,lyap2,rotation", _cell_row(M, B, R, cell)]
    _emit(o["out"], "\n".join(lines) + "\n")
    return EXIT_OK


def _or_error(fn, *args):
    """fn(*args), or the FitError or ValueError it raised."""
    try:
        return fn(*args)
    except (FitError, ValueError) as err:
        return err


def _cmd_rescale(args) -> int:
    o = _options(args, "rescale")
    sp = SaddleSpectrum(o["lambda"], o["gamma"])
    ns = _parse_n_list(o["n"])
    target = (o["target_m"], o["target_b"])
    coeffs = DEFAULT_COEFFS
    j1 = tangency_jacobian(coeffs)
    asyms = [asymptotic_params(sp, *window_invert(sp, n, target), n, j1) for n in ns]
    if o["exact"]:
        fits = [_or_error(fit_exact_map, asym) for asym in asyms]
    else:  # every window is mounted first, then all are fitted as one batch
        cfgs = [_or_error(mount_window, sp, coeffs, n, target) for n in ns]
        batch = iter(fit_ghm_windows([c for c in cfgs if not isinstance(c, Exception)]))
        fits = [c if isinstance(c, Exception) else next(batch) for c in cfgs]
    lines = ["n,M_fit,B_fit,R_fit,M_asym,B_asym,R_asym,delta"]
    deltas: list[float | None] = []
    for n, asym, fit in zip(ns, asyms, fits):
        if isinstance(fit, Exception):
            lines.append(f"{n},,,,{_fmt(asym.M)},{_fmt(asym.B)},{_fmt(asym.R)},")
            deltas.append(None)
            continue
        delta = max(abs(fit.M - asym.M), abs(fit.B - asym.B), abs(fit.R - asym.R))
        deltas.append(delta)
        lines.append(
            f"{n},{_fmt(fit.M)},{_fmt(fit.B)},{_fmt(fit.R)},"
            f"{_fmt(asym.M)},{_fmt(asym.B)},{_fmt(asym.R)},{_fmt(delta)}"
        )
    _emit(o["out"], "\n".join(lines) + "\n")
    full = [d for d in deltas if d is not None]
    if len(full) == len(deltas):
        mono = all(b < a for a, b in zip(full, full[1:]))
        verdict = "yes" if mono else "no"
    else:
        verdict = "incomplete"
    print(f"rescale: delta strictly decreasing over n={ns}: {verdict}", file=sys.stderr)
    return EXIT_OK


def _cmd_window(args) -> int:
    o = _options(args, "window")
    sp = SaddleSpectrum(o["lambda"], o["gamma"])
    ns = _parse_n_list(o["n"])
    tm, tb = o["target_m"], o["target_b"]
    lines = ["n,target_M,target_B,mu,phi,M_back,B_back,err"]
    for n in ns:
        mu, phi = window_invert(sp, n, (tm, tb))
        M_back, B_back = window_mb(sp, mu, phi, n)
        err = max(abs(M_back - tm), abs(B_back - tb))
        lines.append(
            f"{n},{_fmt(tm)},{_fmt(tb)},{_fmt(mu)},{_fmt(phi)},"
            f"{_fmt(M_back)},{_fmt(B_back)},{_fmt(err)}"
        )
    _emit(o["out"], "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_coexist(args) -> int:
    o = _options(args, "coexist")
    sp = SaddleSpectrum(o["lambda"], o["gamma"])
    n_sink, n_circle = o["n_sink"], o["n_circle"]
    log: list[dict] = []
    box = CoexistenceBox(**{k: v for k, v in o.items() if k in _BOX})
    hit = coexistence_search(sp, COEX_COEFFS, n_sink, n_circle, box=box, probe_log=log)
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
    _emit(o["out"], "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring: one row per option, (flag, type, default[, help])

_OUT = ("--out", str, None, "output path ('-' = stdout)")
_SPECTRUM = (("--lambda", float, DEFAULT_SPECTRUM.lam), ("--gamma", float, DEFAULT_SPECTRUM.gamma))
_COMMANDS = {
    "curves": (_cmd_curves, "emit bifurcation-curve samples as CSV",
               [("--R", float, 0.0), ("--samples", int, 200), _OUT]),
    "sweep": (_cmd_sweep, "classify a (M, B) grid; CSV and optional SVG", [
        ("--m-min", float, _REQUIRED),
        ("--m-max", float, _REQUIRED),
        ("--b-min", float, _REQUIRED),
        ("--b-max", float, _REQUIRED),
        ("--nx", int, _REQUIRED),
        ("--ny", int, _REQUIRED),
        ("--R", float, 0.0),
        ("--threads", int, 1, "accepted for compatibility (>= 1); no effect on output or speed"),
        ("--svg", str, None, "also render the grid to SVG"),
        _OUT]),
    "classify": (_cmd_classify, "classify a single parameter point", [
        ("--M", float, _REQUIRED),
        ("--B", float, _REQUIRED),
        ("--R", float, 0.0),
        ("--span", int, ClassifyOptions.span),
        _OUT]),
    "rescale": (_cmd_rescale, "fitted vs asymptotic window parameters", [
        *_SPECTRUM,
        ("--n", str, "8,12,16", "comma-separated return indices"),
        ("--target-m", float, 1.0),
        ("--target-b", float, 0.5),
        ("--exact", bool, False, "fit synthetic data from the planar map itself (self-consistency)"),
        _OUT]),
    "window": (_cmd_window, "invert window targets to (mu, phi) and back", [
        *_SPECTRUM,
        ("--n", str, "5,10,20"),
        ("--target-m", float, _REQUIRED),
        ("--target-b", float, _REQUIRED),
        _OUT]),
    "coexist": (_cmd_coexist, "search for coexisting sink + circle windows", [
        *_SPECTRUM, ("--n-sink", int, 10), ("--n-circle", int, 14), _OUT]),
}
_SCHEMA: dict[str, dict[str, type]] = {
    command: {_key(flag): typ for flag, typ, *_ in rows}
    for command, (_, _, rows) in _COMMANDS.items()
}
_SCHEMA["coexist"].update(_BOX)


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on first use and kept: parsing leaves it as it was."""
    top = _Parser(prog="ghmlab", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)
    for command, (func, about, rows) in _COMMANDS.items():
        p = sub.add_parser(command, help=about)
        for flag, typ, _, *about_opt in rows:
            # a bool is a switch; no flag has a default, so a config value shows through
            kind = {"action": "store_const", "const": True} if typ is bool else {"type": typ}
            p.add_argument(flag, dest=_key(flag), default=None, help=(about_opt or [None])[0],
                           **kind)
        p.add_argument("--config", type=str, default=None, help="INI config path")
        p.set_defaults(func=func)
    return top


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except CliError as e:
        print(f"ghmlab: {e}", file=sys.stderr)
        return e.code
    except ValueError as e:  # the library's verdict on invalid input
        print(f"ghmlab: {e}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as e:
        print(f"ghmlab: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
