"""Property tests of the command line's exit-code contract on `classify`,
`sweep`, `curves`, `window`, `rescale` and `coexist`."""

import contextlib
import io
import math
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghmlab.atlas_cli import _SCHEMA, main
from ghmlab.tangency_lab import CoexistenceBox

# extremes, the part of the plane that holds attractors, and any float at all
_REALS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -0.0]),
    st.floats(-2.5, 2.5),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _mostly(usual, other):
    """usual three times in four, other once: a table needs every field valid."""
    return st.integers(0, 3).flatmap(lambda k: other if k == 0 else usual)


# window targets, the spectrum (lam, gamma) and a return-index list
_TARGET = _mostly(st.sampled_from([1.0, 0.5, -0.6, 1.3, -1.2, 0.8]), _REALS)
_SPECTRUM = _mostly(st.just((0.7, 1.8)), st.tuples(st.one_of(st.floats(0.0, 1.5), _REALS),
                                                   st.one_of(st.floats(0.5, 4.0), _REALS)))
# past n ~ 80 the rounding of phi spoils a window at the default spectrum
_N_LIST = _mostly(st.lists(st.integers(4, 20), min_size=1, max_size=3),
                  st.lists(st.integers(-2, 120), min_size=1, max_size=3)).map(
    lambda ns: ",".join(map(str, ns)))
_HUGE_N = "1" + "0" * 400  # too large to convert to a float
# sweep bounds (lo, hi) of one axis and its cell count in -1..3
_AXIS = _mostly(st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5)).map(sorted),
                st.tuples(_REALS, _REALS))
_SIDE = _mostly(st.integers(2, 3), st.integers(-1, 1))
_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # as a run outside pytest would print them
        code = main(argv)  # an escaping exception fails the test with its traceback
    assert code in (0, 3)
    assert "Traceback" not in err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
    if code != 0:
        assert out.getvalue() == ""
    return code, out.getvalue().lower()


def _real(flag, v):
    # "--M=-1e308" keeps argparse from reading a negative value as a flag
    return f"{flag}={v!r}"


@_SETTINGS
@given(M=_REALS, B=_REALS, R=_REALS,
       span=_mostly(st.integers(1000, 3000), st.sampled_from([-1, 999, 10**8 + 1, 10**30])))
def test_classify_exit_codes_hold_for_any_real_input(M, B, R, span):
    code, out = _run(["classify", _real("--M", M), _real("--B", B), _real("--R", R),
                      "--span", str(span)])
    if code == 0:  # a superstable sink prints -inf exponents, so only nan is ruled out
        assert "nan" not in out
        assert all(math.isfinite(v) for v in (M, B, R)) and 1000 <= span <= 3000


# R = -1 and -2, where the SVG's curves degenerate, and any R
_SWEEP_R = _mostly(st.one_of(st.floats(-0.5, 0.5), st.sampled_from([-1.0, -2.0])), _REALS)


@settings(_SETTINGS, max_examples=60)  # most examples exit 3 at once
@given(m=_AXIS, b=_AXIS, R=_SWEEP_R, nx=_SIDE, ny=_SIDE)
@example(m=(-0.5, 1.0), b=(-0.4, 0.4), R=-1.0, nx=2, ny=2)  # once crashed drawing the SVG
@example(m=(-0.5, 1.0), b=(-0.4, 0.4), R=-2.0, nx=2, ny=2)
def test_sweep_exit_codes_hold_for_any_real_input(m, b, R, nx, ny, tmp_path_factory):
    svg = tmp_path_factory.mktemp("sweep") / "grid.svg"
    bounds = zip(("--m-min", "--m-max", "--b-min", "--b-max"), (*m, *b))
    code, out = _run(["sweep", *(_real(f, v) for f, v in bounds), _real("--R", R),
                      "--nx", str(nx), "--ny", str(ny), "--svg", str(svg)])
    if code == 0:  # lyap2 is -inf wherever B = R = 0, so only nan is ruled out
        assert "nan" not in out
        assert len(out.splitlines()) == nx * ny + 1
        assert svg.read_text().startswith("<svg")


@_SETTINGS
@given(R=_REALS, samples=st.integers(-2, 40))
def test_curves_exit_codes_hold_for_any_real_input(R, samples):
    code, out = _run(["curves", _real("--R", R), "--samples", str(samples)])
    if code == 0:
        assert "nan" not in out and "inf" not in out
        assert math.isfinite(R) and samples >= 2


@_SETTINGS
@given(n=_N_LIST, M=_TARGET, B=_TARGET, spectrum=_SPECTRUM)
@example(n=_HUGE_N, M=1.0, B=0.5, spectrum=(0.7, 1.8))  # once an OverflowError traceback
def test_window_exit_codes_hold_for_any_real_input(n, M, B, spectrum):
    code, out = _run(["window", "--n", n, _real("--target-m", M), _real("--target-b", B),
                      _real("--lambda", spectrum[0]), _real("--gamma", spectrum[1])])
    if code == 0:
        assert "nan" not in out and "inf" not in out


@_SETTINGS
@given(n=_N_LIST, M=_TARGET, B=_TARGET, spectrum=_SPECTRUM)
@example(n=_HUGE_N, M=1.0, B=0.5, spectrum=(0.7, 1.8))  # once an OverflowError traceback
def test_rescale_exit_codes_hold_for_any_real_input(n, M, B, spectrum):
    code, out = _run(["rescale", "--n", n, _real("--target-m", M), _real("--target-b", B),
                      _real("--lambda", spectrum[0]), _real("--gamma", spectrum[1])])
    if code == 0:
        assert "nan" not in out and "inf" not in out


_COEXIST_KEYS = sorted(k for k in _SCHEMA["coexist"] if k not in ("out", "phi_steps"))


def _coexist_value(key):
    if _SCHEMA["coexist"][key] is int:  # the return indices n_sink and n_circle
        return st.integers(-2, 20)
    # the spectrum or a box bound: on the defaults' scale (phi up to pi), or any real
    return _mostly(st.floats(0.0, 3.2), st.one_of(st.sampled_from([1e308, -1e308]), _REALS))


# a [coexist] config: phi_steps and up to three more keys
_COEXIST_CONFIG = st.lists(st.sampled_from(_COEXIST_KEYS), max_size=3, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({"phi_steps": st.integers(-2, 300),
                                        **{k: _coexist_value(k) for k in keys}}))
# --n-sink or --n-circle, or neither: small, or where gamma^2n (n >= 604 at
# gamma = 1.8) or (lam*gamma)^n (n >= 3072) leaves the doubles
_N_FLAG = st.none() | st.integers(-2, 20) | st.integers(590, 3100)
_LOOSE_CIRCLE_SIDE = {"b_circle_lo": -1e308, "b_circle_hi": 1e308, "lphi_band_margin": 1e300}


@_SETTINGS
@given(cfg=_COEXIST_CONFIG, n_sink=_N_FLAG, n_circle=_N_FLAG)
@example(cfg={"phi_steps": 200, "lphi_band_margin": 1e308},  # once overflowed with a warning
         n_sink=None, n_circle=None)
@example(cfg={"phi_steps": 200, "phi_lo": 3.0, "phi_hi": 0.1},  # once scanned phi downwards
         n_sink=None, n_circle=None)
@example(cfg={"phi_steps": 2, "phi_hi": 1e308},  # once overflowed n*phi with a warning
         n_sink=None, n_circle=None)
@example(cfg=_LOOSE_CIRCLE_SIDE, n_sink=None, n_circle=700)  # once an OverflowError traceback
def test_coexist_exit_codes_hold_for_any_config(cfg, n_sink, n_circle, tmp_path_factory):
    ini = tmp_path_factory.mktemp("coexist") / "c.ini"
    ini.write_text("[coexist]\n" + "".join(f"{k} = {v!r}\n" for k, v in cfg.items()))
    flags = [f"{f}={n}" for f, n in (("--n-sink", n_sink), ("--n-circle", n_circle)) if n is not None]
    code, out = _run(["coexist", "--config", str(ini), *flags])
    box = CoexistenceBox()
    lo, hi = cfg.get("phi_lo", box.phi_lo), cfg.get("phi_hi", box.phi_hi)
    if code == 0:
        assert "nan" not in out and "inf" not in out
        assert 0.0 < lo <= hi < math.pi  # phi is scanned upwards inside (0, pi)
        if "status=hit" in out:
            assert lo <= float(out.split("phi=")[1].split()[0]) <= hi
