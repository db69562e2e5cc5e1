"""Property tests of the command line's exit-code contract on `classify`,
`sweep`, `curves`, `window` and `rescale`."""

import contextlib
import io
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from ghmlab.atlas_cli import main

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
# sweep bounds (lo, hi) of one axis and its cell count in -1..3
_AXIS = _mostly(st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5)).map(sorted),
                st.tuples(_REALS, _REALS))
_SIDE = _mostly(st.integers(2, 3), st.integers(-1, 1))
_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an escaping exception fails the test with its traceback
    assert code in (0, 3)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert out.getvalue() == ""
    return code, out.getvalue().lower()


def _real(flag, v):
    # "--M=-1e308" keeps argparse from reading a negative value as a flag
    return f"{flag}={v!r}"


@_SETTINGS
@given(M=_REALS, B=_REALS, R=_REALS)
def test_classify_exit_codes_hold_for_any_real_input(M, B, R):
    code, out = _run(["classify", _real("--M", M), _real("--B", B), _real("--R", R),
                      "--span", "1000"])
    if code == 0:  # a superstable sink prints -inf exponents, so only nan is ruled out
        assert "nan" not in out
        assert all(math.isfinite(v) for v in (M, B, R))


@settings(_SETTINGS, max_examples=60)  # most examples exit 3 at once
@given(m=_AXIS, b=_AXIS, R=_mostly(st.floats(-0.5, 0.5), _REALS), nx=_SIDE, ny=_SIDE)
def test_sweep_exit_codes_hold_for_any_real_input(m, b, R, nx, ny):
    bounds = zip(("--m-min", "--m-max", "--b-min", "--b-max"), (*m, *b))
    code, out = _run(["sweep", *(_real(f, v) for f, v in bounds), _real("--R", R),
                      "--nx", str(nx), "--ny", str(ny)])
    if code == 0:  # lyap2 is -inf wherever B = R = 0, so only nan is ruled out
        assert "nan" not in out
        assert len(out.splitlines()) == nx * ny + 1


@_SETTINGS
@given(R=_REALS, samples=st.integers(-2, 40))
def test_curves_exit_codes_hold_for_any_real_input(R, samples):
    code, out = _run(["curves", _real("--R", R), "--samples", str(samples)])
    if code == 0:
        assert "nan" not in out and "inf" not in out
        assert math.isfinite(R) and samples >= 2


@_SETTINGS
@given(n=_N_LIST, M=_TARGET, B=_TARGET, spectrum=_SPECTRUM)
def test_window_exit_codes_hold_for_any_real_input(n, M, B, spectrum):
    code, out = _run(["window", "--n", n, _real("--target-m", M), _real("--target-b", B),
                      _real("--lambda", spectrum[0]), _real("--gamma", spectrum[1])])
    if code == 0:
        assert "nan" not in out and "inf" not in out


@_SETTINGS
@given(n=_N_LIST, M=_TARGET, B=_TARGET, spectrum=_SPECTRUM)
def test_rescale_exit_codes_hold_for_any_real_input(n, M, B, spectrum):
    code, out = _run(["rescale", "--n", n, _real("--target-m", M), _real("--target-b", B),
                      _real("--lambda", spectrum[0]), _real("--gamma", spectrum[1])])
    if code == 0:
        assert "nan" not in out and "inf" not in out
