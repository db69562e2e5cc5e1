import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ghmlab import atlas_cli, attractor_classifier, bifurcation_atlas, tangency_lab
from ghmlab.atlas_cli import main
from ghmlab.tangency_lab import (
    DEFAULT_COEFFS,
    DEFAULT_SPECTRUM,
    FitError,
    mount_window,
    window_invert,
)
from ghmlab.bifurcation_atlas import CURVE_IDS, CurveSample, validate_sample


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_curves_small_table(capsys):
    code, out, _ = run(capsys, "curves", "--R", "0", "--samples", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "curve,param,M,B,R"
    assert len(lines) == 13  # 4 curves x 3 samples
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names == [cid for cid in CURVE_IDS for _ in range(3)]
    # middle circle-birth sample is omega = pi/2: M = 0 up to cos roundoff, B = 1
    mid = lines[8].split(",")
    assert abs(float(mid[2])) <= 1e-15
    assert float(mid[3]) == 1.0


def test_curves_rows_revalidate_after_text_round_trip(capsys):
    code, out, _ = run(capsys, "curves", "--R", "-0.2", "--samples", "25")
    assert code == 0
    for ln in out.strip().split("\n")[1:]:
        cid, par, M, B, R = ln.split(",")
        validate_sample(CurveSample(cid, float(par), float(M), float(B), float(R)))


def test_real_fields_print_with_full_precision(capsys):
    # 17 significant digits: text -> float -> text is the identity
    code, out, _ = run(capsys, "curves", "--R", "0.1", "--samples", "7")
    assert code == 0
    for ln in out.strip().split("\n")[1:]:
        for tok in ln.split(",")[1:]:
            assert f"{float(tok):.17g}" == tok


def test_curves_out_file_matches_stdout(tmp_path, capsys):
    code, out, _ = run(capsys, "curves", "--R", "0", "--samples", "4")
    assert code == 0
    path = tmp_path / "curves.csv"
    code2 = main(["curves", "--R", "0", "--samples", "4", "--out", str(path)])
    capsys.readouterr()
    assert code2 == 0
    assert path.read_text() == out


def test_curves_rejects_bad_sample_count(capsys):
    code, _, err = run(capsys, "curves", "--samples", "1")
    assert code == 3
    assert "ghmlab" in err


def test_sweep_grid_rows_and_thread_independence(capsys):
    argv = [
        "sweep", "--m-min", "-0.5", "--m-max", "0", "--b-min", "0",
        "--b-max", "0.5", "--nx", "2", "--ny", "2",
    ]
    code, out1, _ = run(capsys, *argv, "--threads", "1")
    assert code == 0
    lines = out1.strip().split("\n")
    assert lines[0] == "M,B,R,class,period,lyap1,lyap2,rotation"
    assert len(lines) == 5
    # row-major by B then M
    starts = [ln.split(",")[:2] for ln in lines[1:]]
    assert starts == [["-0.5", "0"], ["0", "0"], ["-0.5", "0.5"], ["0", "0.5"]]
    row = lines[2].split(",")
    assert (row[3], row[4]) == ("sink", "1")  # the origin cell
    assert lines[1].split(",")[3] == "divergent"

    code, out8, _ = run(capsys, *argv, "--threads", "8")
    assert code == 0
    assert out8 == out1


def test_sweep_rejects_threads_below_one(capsys):
    # --threads has no effect, but the command line still holds it to >= 1
    code, out, err = run(capsys, "sweep", "--m-min", "-0.5", "--m-max", "0", "--b-min", "0",
                         "--b-max", "0.5", "--nx", "2", "--ny", "2", "--threads", "0")
    assert (code, out) == (3, "")
    assert "threads must be >= 1" in err


def test_sweep_svg_render(tmp_path, capsys):
    svg = tmp_path / "grid.svg"
    code, out, _ = run(
        capsys, "sweep", "--m-min", "-0.5", "--m-max", "1", "--b-min", "-0.4",
        "--b-max", "0.4", "--nx", "3", "--ny", "3", "--svg", str(svg),
    )
    assert code == 0
    body = svg.read_text()
    assert body.startswith("<svg")
    assert "#4472c4" in body  # sink cells exist in this rectangle
    assert "polyline" in body  # curve overlays
    assert body.count("<rect") >= 9


@pytest.mark.parametrize("R", ["-1", "-2"])
def test_sweep_svg_at_R_where_the_curves_degenerate(tmp_path, capsys, R):
    # the fold curve has no value at R = -1, the circle-birth curve none at
    # R = -2: the SVG draws the grid without its curve overlay
    csv, svg = tmp_path / "grid.csv", tmp_path / "grid.svg"
    code, out, err = run(
        capsys, "sweep", "--m-min", "-0.5", "--m-max", "1", "--b-min", "-0.4",
        "--b-max", "0.4", "--nx", "3", "--ny", "3", "--R", R, "--out", str(csv),
        "--svg", str(svg),
    )
    assert (code, out, err) == (0, "", "")
    assert len(csv.read_text().splitlines()) == 10
    body = svg.read_text()
    assert body.startswith("<svg") and body.count("<rect") >= 9
    assert "polyline" not in body


def test_sweep_missing_required_parameter(capsys):
    code, _, err = run(capsys, "sweep", "--m-min", "0", "--m-max", "1")
    assert code == 3
    assert "missing required parameter" in err


def test_sweep_rejects_empty_rectangle(capsys):
    code, _, _ = run(
        capsys, "sweep", "--m-min", "1", "--m-max", "0", "--b-min", "0",
        "--b-max", "1", "--nx", "2", "--ny", "2",
    )
    assert code == 3


SWEEP_2X2 = ("sweep", "--m-min", "0", "--m-max", "1", "--b-min", "0", "--b-max", "1",
             "--nx", "2", "--ny", "2")


def test_sweep_rejects_nan_m_min(capsys):
    code, out, err = run(capsys, *SWEEP_2X2, "--m-min", "nan")
    assert (code, out) == (3, "")
    assert "finite" in err


def test_sweep_rejects_infinite_m_max(capsys):
    code, out, err = run(capsys, *SWEEP_2X2, "--m-max", "inf")
    assert (code, out) == (3, "")
    assert "finite" in err


def test_sweep_rejects_nan_R(capsys):
    code, out, err = run(capsys, *SWEEP_2X2, "--R", "nan")
    assert (code, out) == (3, "")
    assert "finite" in err


def test_curves_rejects_nan_R(capsys):
    code, out, err = run(capsys, "curves", "--R", "nan", "--samples", "3")
    assert (code, out) == (3, "")
    assert "finite" in err


def test_classify_rejects_short_span_at_a_sink(capsys):
    # the origin-side sink returns before the Lyapunov phase reads the span
    code, out, err = run(capsys, "classify", "--M", "0.2", "--B", "0.1", "--span", "5")
    assert (code, out) == (3, "")
    assert "span" in err


def test_classify_single_row(capsys):
    code, out, _ = run(capsys, "classify", "--M", "0", "--B", "0")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[:5] == ["0", "0", "0", "sink", "1"]
    float(row[5])  # lyapunov fields parse (ln 0 = -inf is legal text)


def test_classify_prints_the_readme_example(capsys):
    # the README's two lines at the default span, which runs the one-cell
    # Lyapunov kernel over several records: every digit is pinned
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    at = lines.index("$ ghmlab classify --M 1.4 --B -0.3 --R 0")
    code, out, _ = run(capsys, "classify", "--M", "1.4", "--B", "-0.3", "--R", "0")
    assert code == 0
    assert out.splitlines() == lines[at + 1 : at + 3]


def test_classify_chaotic_row(capsys):
    code, out, _ = run(capsys, "classify", "--M", "1.4", "--B", "-0.3", "--span", "20000")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[3] == "chaotic" and row[4] == ""
    assert abs(float(row[5]) - 0.419) < 0.05


def test_rescale_exact_self_consistency(capsys):
    code, out, err = run(capsys, "rescale", "--exact", "--n", "8")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,M_fit,B_fit,R_fit,M_asym,B_asym,R_asym,delta"
    row = lines[1].split(",")
    assert row[0] == "8"
    assert float(row[7]) < 1e-10  # planar-map data refits to roundoff
    assert "rescale: delta strictly decreasing over n=[8]: yes" in err


def test_config_booleans(tmp_path, capsys):
    # configparser's spellings: "yes" is --exact, "maybe" is no boolean
    exact = run(capsys, "rescale", "--exact", "--n", "8")
    ini = tmp_path / "rescale.ini"
    ini.write_text("[rescale]\nexact = yes\nn = 8\n")
    assert run(capsys, "rescale", "--config", str(ini)) == exact
    ini.write_text("[rescale]\nexact = maybe\n")
    code, out, err = run(capsys, "rescale", "--config", str(ini))
    assert (code, out) == (3, "")
    assert "'exact'" in err and "maybe" in err


def test_rescale_fitted_single_window(capsys):
    code, out, _ = run(capsys, "rescale", "--n", "8")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    delta = float(row[7])
    assert 0.0 < delta < 1.0
    assert abs(float(row[4]) - 1.0) < 1e-12  # M_asym is the default target M


def test_rescale_prints_an_empty_fit_row_when_the_fit_fails(capsys):
    # too few in-window triples at this target: the row keeps its asymptotics
    code, out, err = run(capsys, "rescale", "--n", "8", "--target-m", "1.9615", "--target-b", "-0.877")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[0] == "8" and row[1:4] == ["", "", ""] and row[7] == ""
    assert float(row[4]) == pytest.approx(1.9615)
    assert "rescale: delta strictly decreasing over n=[8]: incomplete" in err


def _fit_each_window(configs):
    # the per-window loop that rescale's one batched fit replaces
    fits = []
    for cfg in configs:
        try:
            fits.append(tangency_lab.fit_ghm(cfg))
        except FitError as err:
            fits.append(err)
    return fits


@pytest.mark.parametrize("target", [
    ("1.9615", "-0.877"),  # every fit fails
    ("1.0", "0.95"),  # mount_window refuses n = 6, which window_invert accepts
    ("0.7165502745803594", "-0.8702782177955612"),
])
def test_rescale_batch_prints_what_a_per_window_loop_prints(capsys, monkeypatch, target):
    argv = ("rescale", "--n", "6,7,8,9,10,11,12,13,14,15,16,17,18",
            "--target-m", target[0], "--target-b", target[1])
    batched = run(capsys, *argv)
    monkeypatch.setattr(atlas_cli, "fit_ghm_windows", _fit_each_window)
    assert run(capsys, *argv) == batched
    code, out, err = batched
    rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
    assert code == 0 and len(rows) == 13
    if target[0] == "1.9615":
        assert all(r[1:4] == ["", "", ""] for r in rows) and "incomplete" in err
    if target[1] == "0.95":
        assert rows[0][1:4] == ["", "", ""] and all(r[1] for r in rows[1:])
        with pytest.raises(ValueError, match="unreachable at n=6"):
            mount_window(DEFAULT_SPECTRUM, DEFAULT_COEFFS, 6, (1.0, 0.95))
        window_invert(DEFAULT_SPECTRUM, 6, (1.0, 0.95))


def test_rescale_window_invert_refusal_still_exits_3(capsys, monkeypatch):
    # n = 8 is reachable, n = 5 is not: no table, the refusal's message
    argv = ("rescale", "--n", "8,5", "--target-m", "1", "--target-b", "5.0")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "ghmlab: |B|=5 exceeds (lam*gamma)^n=3.1758; unreachable at n=5\n"
    monkeypatch.setattr(atlas_cli, "fit_ghm_windows", _fit_each_window)
    assert run(capsys, *argv) == (code, out, err)


def test_one_parser_serves_every_call_in_either_order(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[rescale]\nradius = 1\n")
    empty = tmp_path / "empty.ini"
    empty.write_text("[coexist]\nm_sink_max = 1e-300\n")
    calls = [
        ("rescale", "--n", "8,0"),  # usage error
        ("rescale", "--config", str(bad)),  # config-file error
        ("classify", "--M", "0.2", "--B", "0.3", "--span", "1000"),
        ("rescale", "--n", "8", "--target-b", "0.6"),
        ("rescale", "--n", "8"),  # the flag of the call before must not stick
        ("coexist", "--config", str(empty)),
    ]
    first = [run(capsys, *argv) for argv in calls]
    second = [run(capsys, *argv) for argv in calls[::-1]][::-1]
    assert first == second
    assert [code for code, _, _ in first] == [3, 3, 0, 0, 0, 0]
    assert first[3][1] != first[4][1]
    assert atlas_cli._parser() is atlas_cli._parser()


def test_the_parser_is_not_built_at_import():
    code = ("import ghmlab.atlas_cli as a; n = a._parser.cache_info().currsize; "
            "a.main(['curves', '--samples', '2', '--out', '-']); "
            "print(n, a._parser.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout.strip().split("\n")[-1] == "0 1"


def test_rescale_rejects_bad_spectrum(capsys):
    code, _, err = run(capsys, "rescale", "--lambda", "0.9", "--gamma", "1.5")
    assert code == 3
    assert "lambda" in err


def test_rescale_rejects_unreachable_target(capsys):
    code, _, _ = run(capsys, "rescale", "--n", "5", "--target-b", "5.0")
    assert code == 3


def test_window_round_trip_table(capsys):
    code, out, _ = run(
        capsys, "window", "--target-m", "1", "--target-b", "0.5", "--n", "5,10,20"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,target_M,target_B,mu,phi,M_back,B_back,err"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["5", "10", "20"]
    for ln in lines[1:]:
        f = ln.split(",")
        assert float(f[7]) < 1e-12
        assert abs(float(f[5]) - 1.0) < 1e-12
        assert 0.0 < float(f[4]) < math.pi


def test_window_needs_only_the_ball_and_rescale_the_strip(capsys):
    # (1, 0.2) lies outside window_invert's excluded ball hypot(M, B) < 0.25,
    # so its window round trip is fine; rescale needs the asymptotic R,
    # which degenerates in the strip |B| < 0.25, so it refuses the target
    code, out, _ = run(capsys, "window", "--n", "5", "--target-m", "1", "--target-b", "0.2")
    assert code == 0
    assert float(out.splitlines()[1].split(",")[7]) < 1e-12
    code, out, err = run(capsys, "rescale", "--n", "5", "--target-m", "1", "--target-b", "0.2")
    assert (code, out) == (3, "") and "strip |B| < 0.25" in err


def test_coexist_same_indices_rejected(capsys):
    code, _, _ = run(capsys, "coexist", "--n-sink", "9", "--n-circle", "9")
    assert code == 3


def test_coexist_empty_search_is_success(tmp_path, capsys):
    # an impossible sink filter empties the scan; no hit is still exit 0
    ini = tmp_path / "empty.ini"
    ini.write_text("[coexist]\nm_sink_max = 1e-300\n")
    code, out, _ = run(capsys, "coexist", "--config", str(ini))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "status=none"
    assert "probes=0" in lines


def test_coexist_refuses_a_phi_scan_without_steps(tmp_path, capsys):
    # no angle to scan is invalid input, not a completed empty search
    ini = tmp_path / "box.ini"
    for steps in ("0", "-1"):
        ini.write_text(f"[coexist]\nphi_steps = {steps}\n")
        code, out, err = run(capsys, "coexist", "--config", str(ini))
        assert (code, out) == (3, "") and "phi_steps must be in 1.." in err


def test_coexist_hit_report(capsys):
    code, out, _ = run(capsys, "coexist")
    assert code == 0
    kv = dict(ln.split("=", 1) for ln in out.strip().split("\n"))
    assert kv["status"] == "hit"
    assert kv["verdict_sink"] == "sink"
    assert kv["verdict_circle"] == "circle"
    assert (kv["n_sink"], kv["n_circle"]) == ("10", "14")
    ratio = float(kv["sigma_center_sink"]) / float(kv["sigma_center_circle"])
    assert abs(ratio - 1.8**4) < 1e-12 * ratio
    assert float(kv["fit_circle_R"]) > 0.0


def test_config_values_and_flag_precedence(tmp_path, capsys):
    ini = tmp_path / "curves.ini"
    ini.write_text("[curves]\nr = 0.2\nsamples = 3\n")
    code, out, _ = run(capsys, "curves", "--config", str(ini))
    assert code == 0
    assert out.strip().split("\n")[1].split(",")[4] == "0.20000000000000001"
    code, out, _ = run(capsys, "curves", "--config", str(ini), "--R", "0.1")
    assert code == 0
    assert out.strip().split("\n")[1].split(",")[4] == "0.10000000000000001"
    assert len(out.strip().split("\n")) == 13  # samples still from the config


def test_config_rejects_unknown_names(tmp_path, capsys):
    bad_key = tmp_path / "k.ini"
    bad_key.write_text("[curves]\nradius = 0.2\n")
    assert run(capsys, "curves", "--config", str(bad_key))[0] == 3
    bad_sec = tmp_path / "s.ini"
    bad_sec.write_text("[curvez]\nr = 0.2\n")
    assert run(capsys, "curves", "--config", str(bad_sec))[0] == 3
    bad_val = tmp_path / "v.ini"
    bad_val.write_text("[curves]\nsamples = many\n")
    assert run(capsys, "curves", "--config", str(bad_val))[0] == 3
    malformed = tmp_path / "m.ini"
    malformed.write_text("samples = 3\n")  # key before any section header
    assert run(capsys, "curves", "--config", str(malformed))[0] == 3
    undecodable = tmp_path / "u.ini"
    undecodable.write_bytes(b"[curves]\nr = \xff\n")  # a UnicodeDecodeError under UTF-8
    assert run(capsys, "curves", "--config", str(undecodable))[0] == 3


def test_config_sections_for_other_commands_are_fine(tmp_path, capsys):
    ini = tmp_path / "multi.ini"
    ini.write_text("[curves]\nsamples = 2\n\n[sweep]\nnx = 2\nny = 2\n")
    code, out, _ = run(capsys, "curves", "--config", str(ini))
    assert code == 0
    assert len(out.strip().split("\n")) == 9


def test_missing_config_file_is_io_error(capsys):
    code, _, err = run(capsys, "curves", "--config", "/no/such/file.ini")
    assert code == 2
    assert "cannot read config" in err


def test_unwritable_output_is_io_error(capsys):
    code, _, _ = run(capsys, "curves", "--samples", "2", "--out", "/no/such/dir/x.csv")
    assert code == 2


def test_usage_errors_exit_3(capsys):
    assert run(capsys, "no-such-command")[0] == 3
    assert run(capsys, "curves", "--samples", "lots")[0] == 3
    assert run(capsys, "rescale", "--n", "8,0")[0] == 3


# a valid, quick call of each command, in the '=' form, that a negative value
# of any one of its float flags leaves valid or refuses on its own terms
_NEGATIVE_BASE = {"classify": ["--M=0.5", "--B=0.3", "--span=1000"],
                  "sweep": ["--m-min=-2", "--m-max=1", "--b-min=-2", "--b-max=1", "--nx=2",
                            "--ny=2"],
                  "curves": ["--samples=5"], "window": ["--target-m=1", "--target-b=0.5"],
                  "rescale": ["--n=8"], "coexist": []}


def test_negative_floats_in_exponent_form_parse_as_values(capsys):
    # argparse takes '-1e-05' after a flag for a flag unless told otherwise;
    # every float flag of every command must read it as '--flag=-1e-05' does,
    # and -inf and -nan must reach the library's own checks and exit 3
    flags = [(cmd, flag) for cmd, (_, _, rows) in atlas_cli._COMMANDS.items()
             for flag, typ, *_ in rows if typ is float]
    assert {cmd for cmd, _ in flags} == set(_NEGATIVE_BASE)
    ran = set()
    for cmd, flag in flags:
        for value in ("-1e-05", "-5E-2", "-1.5e+00", "-inf", "-nan"):
            base = _NEGATIVE_BASE[cmd]
            spaced = run(capsys, cmd, *base, flag, value)
            assert spaced == run(capsys, cmd, *base, f"{flag}={value}"), (cmd, flag, value)
            assert "expected one argument" not in spaced[2], (cmd, flag, value)
            if value in ("-inf", "-nan"):
                assert spaced[0] == 3, (cmd, flag, value)
            ran.add(spaced[0])
    assert ran == {0, 3}
    code, _, err = run(capsys, "classify", "--M", "0.5", "--B", "-inf")
    assert code == 3 and "parameter B must be finite" in err
    code, _, err = run(capsys, "sweep", *_NEGATIVE_BASE["sweep"], "--R", "-nan")
    assert code == 3 and "must be finite" in err
    # flag and value as two arguments print the bytes of the '=' form
    assert run(capsys, "classify", "--M", "0.5", "--B", "-1e-3") == \
        run(capsys, "classify", "--M=0.5", "--B=-1e-3")


def test_phi0_flag_and_config_key_are_gone(tmp_path, capsys):
    for cmd in ("window", "rescale", "coexist"):
        code, _, err = run(capsys, cmd, "--phi0", "0.5", "--target-m", "1", "--target-b", "0.5")
        assert code == 3
        assert "--phi0" in err
        ini = tmp_path / f"{cmd}.ini"
        ini.write_text(f"[{cmd}]\nphi0 = 0.5\n")
        code, _, err = run(capsys, cmd, "--config", str(ini))
        assert code == 3
        assert "unknown key 'phi0'" in err


def test_window_overflowing_n_exits_3(capsys):
    code, _, err = run(capsys, "window", "--n", "100000", "--target-m", "1", "--target-b", "0.5")
    assert code == 3
    assert "Traceback" not in err


def test_rescale_overflowing_n_exits_3(capsys):
    code, _, err = run(capsys, "rescale", "--n", "100000")
    assert code == 3
    assert "Traceback" not in err


def test_coexist_overflowing_n_exits_3(capsys):
    code, _, err = run(capsys, "coexist", "--n-circle", "100000")
    assert code == 3
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("window", "--n", str(10**400), "--target-m", "1", "--target-b", "0.5"),
    ("rescale", "--n", str(10**400)),
    ("coexist", "--n-sink", str(10**400)),
])
def test_a_401_digit_return_index_gets_a_short_message(capsys, argv):
    # the overflow message gives such an index by its leading digits and
    # exponent, not all 401 of them
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and len(err) < 200, err
    assert "e+400 is out of floating-point range" in err


def test_coexist_rejects_return_index_below_one(capsys):
    assert run(capsys, "coexist", "--n-sink", "0")[0] == 3
    assert run(capsys, "coexist", "--n-circle", "-3")[0] == 3


def test_curves_out_of_range_R_exits_3(capsys):
    # R = 1e308 is finite, but the flip and neutral curves overflow to inf
    # and nan there; no table of such rows is printed
    code, out, err = run(capsys, "curves", "--R", "1e308", "--samples", "3")
    assert (code, out) == (3, "")
    assert "range" in err


def test_window_unresolvable_n_exits_3(capsys):
    # at n = 600, (lam*gamma)^n ~ 1e60 turns the rounding of phi into a
    # back-solved B of 4.7e44; the row is refused, and so is the whole table
    code, out, err = run(capsys, "window", "--n", "5,600", "--target-m", "1", "--target-b", "0.5")
    assert (code, out) == (3, "")
    assert "n=600" in err and "Traceback" not in err
    code, out, _ = run(capsys, "window", "--n", "80", "--target-m", "1", "--target-b", "0.5")
    assert code == 0 and len(out.strip().split("\n")) == 2


def test_rescale_refuses_windows_that_miss_their_target(capsys):
    # window_invert holds the round-trip check that window applies: at n = 100
    # the asymptotic B comes back as 0.49999786 for a target of 0.5
    argv = ("rescale", "--n", "60,100,150", "--target-m", "1", "--target-b", "0.5")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert "n=100" in err and "Traceback" not in err
    assert run(capsys, "rescale", "--n", "60", "--target-m", "1", "--target-b", "0.5")[0] == 0


def test_size_caps_exit_3(tmp_path, capsys, monkeypatch):
    # one past each cap is refused before anything of its size is built
    def unreachable(*args, **kw):
        raise AssertionError("the cap was not checked first")

    monkeypatch.setattr(attractor_classifier, "_sweep_cells", unreachable)
    monkeypatch.setattr(bifurcation_atlas, "curve_L_plus", unreachable)
    monkeypatch.setattr(atlas_cli, "coexistence_search", unreachable)
    code, out, err = run(capsys, "sweep", "--m-min", "0", "--m-max", "1", "--b-min", "0",
                         "--b-max", "1", "--nx", "1001", "--ny", "1000")
    assert (code, out) == (3, "") and "1000000 cells" in err
    code, out, err = run(capsys, "curves", "--samples", "1000001")
    assert (code, out) == (3, "") and "1000000" in err
    code, out, err = run(capsys, "classify", "--M", "1.4", "--B", "-0.3", "--span", "100000001")
    assert (code, out) == (3, "") and "100000000" in err
    ini = tmp_path / "box.ini"
    ini.write_text("[coexist]\nphi_steps = 10000001\n")
    code, out, err = run(capsys, "coexist", "--config", str(ini))
    assert (code, out) == (3, "") and "10000000" in err


def test_config_rejects_non_finite_floats(tmp_path, capsys):
    from ghmlab.atlas_cli import _SCHEMA

    ini = tmp_path / "bad.ini"
    checked = 0
    for cmd, keys in _SCHEMA.items():
        for key, typ in keys.items():
            if typ is not float:
                continue
            for raw in ("nan", "inf", "-inf"):
                ini.write_text(f"[{cmd}]\n{key} = {raw}\n")
                code, out, err = run(capsys, cmd, "--config", str(ini))
                assert (code, out) == (3, ""), (cmd, key, raw)
                assert "not finite" in err
                checked += 1
    assert checked >= 3 * 25
