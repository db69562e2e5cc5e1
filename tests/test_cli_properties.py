"""Property test of the command line's exit-code contract on `classify`."""

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


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(M=_REALS, B=_REALS, R=_REALS)
def test_classify_exit_codes_hold_for_any_real_input(M, B, R):
    # "--M=-1e308" keeps argparse from reading a negative value as a flag
    argv = ["classify", f"--M={M!r}", f"--B={B!r}", f"--R={R!r}", "--span", "1000"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an escaping exception fails the test with its traceback
    assert code in (0, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert "nan" not in out.getvalue().lower()
        assert all(math.isfinite(v) for v in (M, B, R))
    else:
        assert out.getvalue() == ""
