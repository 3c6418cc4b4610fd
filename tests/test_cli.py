"""CLI contract: CSV parsing with line/column diagnostics, long-format output
with a JSON sidecar, exit codes, and byte-identical reruns."""

import csv
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import ssfgw
from ssfgw import sampling
from ssfgw.cli import build_parser, main, parse_point_cloud, write_point_cloud
from ssfgw.experiments import four_mode_gmm
from ssfgw.sampling import make_rng


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(csv_text):
    reader = csv.reader(io.StringIO(csv_text))
    header = next(reader)
    assert header == ["metric", "parameter", "value", "std_error"]
    return list(reader)


@pytest.fixture
def clouds(tmp_path):
    r = make_rng(0)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_point_cloud(a, r.normal(size=(24, 2)))
    write_point_cloud(b, r.normal(size=(24, 2)) * 1.3)
    return str(a), str(b)


# ---------------------------------------------------------------------------
# point cloud parsing
# ---------------------------------------------------------------------------


def test_header_row_is_auto_detected(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
    cloud = parse_point_cloud(p)
    assert np.array_equal(cloud, np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_ragged_row_error_names_the_line(tmp_path, capsys):
    p = tmp_path / "c.csv"
    p.write_text("x,y\n1.0,2.0\n1.0,2.0,3.0\n")
    code, out, err = run_cli(["discrepancy", str(p), str(p)], capsys)
    assert code == 1
    assert out == ""
    assert "line 3: expected 2 columns, got 3" in err


def test_parse_error_names_line_and_column(tmp_path, capsys):
    p = tmp_path / "c.csv"
    p.write_text("1.0,2.0\n3.0,oops\n")
    code, _, err = run_cli(["discrepancy", str(p), str(p)], capsys)
    assert code == 1
    assert "line 2, column 2" in err
    assert "'oops'" in err


def test_non_finite_cell_rejected(tmp_path, capsys):
    p = tmp_path / "c.csv"
    p.write_text("1.0,2.0\n3.0,inf\n")
    code, _, err = run_cli(["discrepancy", str(p), str(p)], capsys)
    assert code == 1
    assert "line 2, column 2: non-finite value" in err


def test_empty_input_rejected(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    code, _, err = run_cli(["discrepancy", str(empty), str(empty)], capsys)
    assert code == 1
    assert "empty input" in err
    header_only = tmp_path / "h.csv"
    header_only.write_text("x,y\n")
    code, _, err = run_cli(["discrepancy", str(header_only), str(header_only)], capsys)
    assert code == 1
    assert "empty input" in err


def test_missing_file_is_an_input_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["discrepancy", str(tmp_path / "nope.csv"), str(tmp_path / "nope.csv")],
        capsys,
    )
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("text", [
    pytest.param("\ufeff1.0,2.0\n3.0,4.0\n", id="before-data"),
    pytest.param("\ufeffx,y\n1.0,2.0\n3.0,4.0\n", id="before-header"),
])
def test_byte_order_mark_is_dropped(tmp_path, text):
    # spreadsheet exports often start their UTF-8 files with a byte-order mark
    p = tmp_path / "c.csv"
    p.write_text(text, encoding="utf-8")
    assert np.array_equal(parse_point_cloud(p), [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("argv", [
    pytest.param(["discrepancy", "A", "B", "--kind", "sfg", "--L", "4", "--output"], id="output"),
    pytest.param(["flow", "A", "--steps", "2", "--L", "4", "--particles-out"],
                 id="particles-out"),
])
def test_unwritable_output_path_is_an_input_error(clouds, tmp_path, capsys, monkeypatch, argv):
    # found before anything is computed or written
    def refuse(*args, **kwargs):
        raise AssertionError("computed before the output paths were checked")

    entry = {"discrepancy": "_engine", "flow": "particle_flow"}[argv[0]]
    monkeypatch.setattr(f"ssfgw.cli.{entry}", refuse)
    (tmp_path / "dir").mkdir()
    (tmp_path / "x.meta.json").mkdir()
    (tmp_path / "link.csv").symlink_to(clouds[0])
    cases = [("missing/x.csv", "missing/x.csv", "No such file or directory"),
             ("dir", "dir", "Is a directory"),
             ("a.csv", "a.csv", "names an input file")]  # the first input cloud
    if argv[0] == "discrepancy":
        cases.append(("x.csv", "x.meta.json", "Is a directory"))  # the sidecar
    else:  # --particles-out names the results file or their sidecar
        same = "names the same file as another output"
        cases += [("o.csv", "o.csv", same, "--output", "o.csv"),
                  ("o.meta.json", "o.meta.json", same, "--output", "o.csv"),
                  ("p.csv", "link.csv", "names an input file", "--output", "link.csv")]
    before = sorted(tmp_path.rglob("*"))
    paths = {"A": clouds[0], "B": clouds[1]}
    for path, bad, reason, *more in cases:
        extra = [more[0], str(tmp_path / more[1])] if more else []
        code, out, err = run_cli(
            [paths.get(arg, arg) for arg in argv] + [str(tmp_path / path)] + extra, capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {tmp_path / bad}: {reason}\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_a_write_that_fails_late_is_still_an_input_error(clouds, capsys):
    code, out, err = run_cli(["discrepancy", *clouds, "--kind", "sfg", "--L", "4",
                              "--output", "/dev/full"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: output: No space left on device\n"


def test_cloud_round_trip_is_element_identical(tmp_path):
    gnarly = np.array(
        [
            [0.1, 1.0 / 3.0, 1e-17],
            [123456.789012345678, -0.0, 5e-324],
            [1e300, -2.5, 7.0],
        ]
    )
    p = tmp_path / "c.csv"
    write_point_cloud(p, gnarly)
    back = parse_point_cloud(p)
    assert back.tobytes() == gnarly.tobytes()


def test_whitespace_last_line_is_dropped_and_output_needs_no_csv_suffix(tmp_path, capsys):
    cloud = tmp_path / "c.csv"
    cloud.write_text("1,2\n3,4\n \t")
    assert np.array_equal(parse_point_cloud(cloud), [[1.0, 2.0], [3.0, 4.0]])
    out = tmp_path / "out"
    code, stdout, _ = run_cli(["discrepancy", str(cloud), str(cloud), "--kind", "sfg", "--L", "4",
                               "--output", str(out)], capsys)
    assert code == 0 and stdout == ""
    rows_of(out.read_text())
    assert json.loads((tmp_path / "out.meta.json").read_text())["config"]["output"] == str(out)


def test_first_line_with_a_number_is_data_not_a_header(tmp_path, capsys):
    p = tmp_path / "c.csv"
    p.write_text("1,,2\n1,2\n3,4\n")
    code, out, err = run_cli(["discrepancy", str(p), str(p)], capsys)
    assert code == 1 and out == ""
    assert "line 1, column 2: cannot parse '' as a number" in err
    blank_first = tmp_path / "b.csv"
    blank_first.write_text("\n1,2\n3,4\n")
    assert np.array_equal(parse_point_cloud(blank_first), [[1.0, 2.0], [3.0, 4.0]])


def test_every_trailing_blank_line_is_dropped(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("1,2\n3,4\n5,6\n\n\n")
    assert np.array_equal(parse_point_cloud(p), [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    p.write_text("1,2\n3,4\n5,6\n  \n \t\n")
    assert np.array_equal(parse_point_cloud(p), [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])


@pytest.mark.parametrize("argv, text, message", [
    pytest.param(["sweep-kappa", "CLOUD", "CLOUD", "--kappas", "2,x"], "1,2\n3,4\n",
                 "argument --kappas: not a comma-separated number list: '2,x'", id="number-list"),
    pytest.param(["convergence", "--sizes", "8,1.5"], "",
                 "argument --sizes: not a comma-separated integer list: '8,1.5'",
                 id="integer-list"),
    pytest.param(["discrepancy", "CLOUD", "CLOUD"], "1\n2\n3\n",
                 "c.csv: point cloud dimension must be >= 2", id="one-column"),
    pytest.param(["convergence", "--sizes", "8", "--trials", "2", "--metric", "w1-control"], "",
                 "at least two sample sizes are needed to fit the slope", id="one-size"),
    pytest.param(["discrepancy", "CLOUD", "CLOUD", "--seed", "-1"], "1,2\n3,4\n",
                 "argument --seed: not a non-negative integer: '-1'", id="negative-seed"),
    pytest.param(["discrepancy", "CLOUD", "CLOUD", "--kind", "pssfg", "--kappas", "1,2"],
                 "1,2\n3,4\n", "--kappas and --alphas apply only to --kind mssfg, not pssfg",
                 id="kappas-without-mssfg"),
    pytest.param(["flow", "CLOUD", "--kind", "ssfg", "--alphas", "0.2,0.8"], "1,2\n3,4\n",
                 "--kappas and --alphas apply only to --kind mssfg, not ssfg",
                 id="alphas-without-mssfg"),
    pytest.param(["gmm-fit", "CLOUD", "--kind", "max-sfg", "--kappas", "5"], "",
                 "--kappas and --alphas apply only to --kind mssfg, not max-sfg",
                 id="kappas-before-the-cloud-is-read"),
])
def test_input_errors_that_no_other_test_reaches(tmp_path, capsys, argv, text, message):
    cloud = tmp_path / "c.csv"
    cloud.write_text(text)
    code, out, err = run_cli([str(cloud) if arg == "CLOUD" else arg for arg in argv], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.endswith(message + "\n")


# ---------------------------------------------------------------------------
# flags and exit codes
# ---------------------------------------------------------------------------


def test_unknown_flag_rejected(clouds, capsys):
    a, b = clouds
    code, out, err = run_cli(["discrepancy", a, b, "--bogus", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


ENGINE_ONLY_FLAGS = [
    ("--exponent", "3", "exponent", 3),
    ("--max-iter", "2", "max_iter", 2),
    ("--gradient-method", "finite-difference", "gradient_method", "finite-difference"),
]


@pytest.mark.parametrize("flag, value, dest, parsed", ENGINE_ONLY_FLAGS,
                         ids=[flag for flag, *_ in ENGINE_ONLY_FLAGS])
def test_engine_only_flags_are_unknown_to_the_flows(tmp_path, clouds, capsys, flag, value,
                                                    dest, parsed):
    # a flow takes one pathwise r = 2 ascent step per flow step, so these
    # flags would never act there
    target = tmp_path / "t.csv"
    write_point_cloud(target, four_mode_gmm(16, make_rng(502)))
    for command in ("flow", "gmm-fit"):
        code, out, err = run_cli([command, str(target), "--steps", "1", flag, value], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and f"unrecognized arguments: {flag}" in err
    a, b = clouds
    for argv in (["discrepancy", a, b], ["sweep-kappa", a, b], ["convergence"]):
        assert getattr(build_parser().parse_args(argv + [flag, value]), dest) == parsed


def test_missing_command_rejected(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_bad_config_value_is_an_input_error(clouds, capsys):
    a, b = clouds
    code, _, err = run_cli(["discrepancy", a, b, "--beta", "1.5"], capsys)
    assert code == 1
    assert err.startswith("error:")
    # a non-finite learning rate is an input error, not a divergence (exit 2)
    for rate in ("inf", "nan"):
        code, out, err = run_cli(["discrepancy", a, b, "--learning-rate", rate], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "learning_rate must be" in err


@pytest.mark.parametrize("flags, message", [
    (["--kind", "ssfg", "--kappa", "inf"], "concentration must be finite"),
    (["--kind", "pssfg", "--kappa", "nan"], "concentration must be finite"),
    (["--kind", "mssfg", "--kappas", "1,inf"], "concentration must be finite"),
    (["--kind", "mssfg", "--kappas", "5", "--alphas", "nan"], "alphas must be finite"),
])
def test_non_finite_slicing_parameters_are_input_errors(clouds, capsys, flags, message):
    a, b = clouds
    code, out, err = run_cli(["discrepancy", a, b, "--max-iter", "1", "--L", "4", *flags], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and message in err


CONCENTRATION = "argument --kappa: concentration must be finite and >= 0"


@pytest.mark.parametrize("argv, message", [
    pytest.param(["discrepancy", "A", "B", "--kind", "sfg", "--kappa", "-1"], CONCENTRATION,
                 id="discrepancy-sfg"),
    pytest.param(["discrepancy", "A", "B", "--kind", "max-sfg", "--kappa", "nan"], CONCENTRATION,
                 id="discrepancy-max-sfg"),
    pytest.param(["flow", "B", "--kind", "sfg", "--kappa", "-1", "--steps", "2"], CONCENTRATION,
                 id="flow-sfg"),
    pytest.param(["gmm-fit", "B", "--kind", "sfg", "--kappa", "inf", "--steps", "1",
                  "--components", "2", "--batch", "4"], CONCENTRATION, id="gmm-fit-sfg"),
    pytest.param(["convergence", "--metric", "w1-control", "--kappa", "-1", "--sizes", "4,8",
                  "--trials", "2"], CONCENTRATION, id="convergence-w1-control"),
    pytest.param(["discrepancy", "A", "B", "--kind", "ssfg", "--restarts", "0"],
                 "argument --restarts: num_restarts must be >= 1", id="restarts-ssfg"),
])
def test_kappa_and_restarts_are_checked_whatever_reads_them(clouds, capsys, argv, message):
    # the library's rules, applied where the CLI parses the flag: a kind or
    # metric that never reads the value still rejects a bad one
    paths = {"A": clouds[0], "B": clouds[1]}
    code, out, err = run_cli([paths.get(arg, arg) for arg in argv], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and message in err


KAPPAS = "argument --kappas: concentration must be finite and >= 0, got "
ALPHAS = "argument --alphas: alphas must be finite, nonnegative and sum to 1 within 1e-12, got "
LENGTHS = "--alphas needs one weight per --kappas component "


@pytest.mark.parametrize("argv, message", [
    pytest.param(["sweep-kappa", "M", "M", "--kappas", "1,-1"], KAPPAS + "'1,-1'", id="sweep-kappa"),
    pytest.param(["discrepancy", "M", "M", "--kind", "mssfg", "--kappas", "1,nan"], KAPPAS + "'1,nan'",
                 id="discrepancy-kappas"),
    pytest.param(["discrepancy", "M", "M", "--kind", "mssfg", "--kappas", "1,2", "--alphas", "0.5,0.6"],
                 ALPHAS + "'0.5,0.6'", id="discrepancy-alphas"),
    pytest.param(["flow", "M", "--kind", "mssfg", "--kappas", "inf"], KAPPAS + "'inf'",
                 id="flow-kappas"),
    pytest.param(["gmm-fit", "M", "--kind", "mssfg", "--kappas", "5", "--alphas", "-1"],
                 ALPHAS + "'-1'", id="gmm-fit-alphas"),
    # one weight per component, checked right after parsing
    pytest.param(["discrepancy", "M", "M", "--kind", "mssfg", "--kappas", "1,2", "--alphas", "1"],
                 LENGTHS + "(2; 10 when --kappas is omitted), got 1", id="discrepancy-lengths"),
    pytest.param(["flow", "M", "--kind", "mssfg", "--alphas", "0.5,0.5"],
                 LENGTHS + "(10; 10 when --kappas is omitted), got 2", id="flow-lengths"),
])
def test_kappas_and_alphas_are_checked_where_they_are_parsed(tmp_path, capsys, argv, message):
    # with the library's rules, before any input is read: the files here do
    # not exist, and the error names the flag
    missing = str(tmp_path / "missing.csv")
    code, out, err = run_cli([missing if arg == "M" else arg for arg in argv], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("argv, message", [
    pytest.param(["sweep-kappa", "M", "M", "--trials", "0"],
                 "argument --trials: trials must be >= 1, got '0'", id="sweep-kappa-trials"),
    pytest.param(["convergence", "--trials", "0"],
                 "argument --trials: trials must be >= 1, got '0'", id="convergence-trials"),
    pytest.param(["flow", "M", "--steps", "0"],
                 "argument --steps: steps must be >= 1, got '0'", id="flow-steps"),
    pytest.param(["flow", "M", "--snapshot-every", "0"],
                 "argument --snapshot-every: snapshot_every must be >= 1, got '0'",
                 id="flow-snapshot-every"),
    # gmm_fit takes zero steps, and checks --batch against the target size
    pytest.param(["gmm-fit", "M", "--steps", "-1"],
                 "argument --steps: steps must be >= 0, got '-1'", id="gmm-fit-steps"),
    pytest.param(["gmm-fit", "M", "--components", "0"],
                 "argument --components: k must be >= 1, got '0'", id="gmm-fit-components"),
    pytest.param(["gmm-fit", "M", "--batch", "0"],
                 "argument --batch: batch must be >= 1, got '0'", id="gmm-fit-batch"),
])
def test_counts_are_checked_where_they_are_parsed(tmp_path, capsys, argv, message):
    # with the library's rules and minimums, before any input is read: the
    # files here do not exist, and the error names the flag
    missing = str(tmp_path / "missing.csv")
    code, out, err = run_cli([missing if arg == "M" else arg for arg in argv], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("command", [["discrepancy", "M", "M"], ["sweep-kappa", "M", "M"]],
                         ids=lambda argv: argv[0])
@pytest.mark.parametrize("flags, message", [
    pytest.param(["--L", "0"], "num_projections must be >= 1", id="L"),
    pytest.param(["--beta", "2"], "beta must lie in [0, 1]", id="beta"),
    pytest.param(["--learning-rate", "-1"], "learning_rate must be positive", id="learning-rate"),
    pytest.param(["--exponent", "0"], "exponent must be an integer >= 1", id="exponent"),
])
def test_engine_settings_are_checked_before_any_input_is_read(tmp_path, capsys, command, flags,
                                                              message):
    missing = str(tmp_path / "missing.csv")
    code, out, err = run_cli([missing if arg == "M" else arg for arg in command + flags], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    pytest.param(["discrepancy", "A", "B", "--kappa", "1e154"], id="discrepancy-1e154"),
    pytest.param(["flow", "B", "--kappa", "1e200", "--steps", "2"], id="flow-1e200"),
])
def test_concentrations_whose_square_overflows_are_valid(clouds, capsys, argv):
    # the vMF sampler's constants stay finite at every finite concentration
    paths = {"A": clouds[0], "B": clouds[1]}
    code, out, err = run_cli([paths.get(arg, arg) for arg in argv] + ["--L", "4", "--seed", "0"],
                             capsys)
    assert (code, err) == (0, "")
    assert out


def test_sweep_of_finite_costs_whose_sum_overflows_succeeds(tmp_path, capsys):
    # single-slice costs up to about 8e307: 30 trials' values are finite, but
    # their sum is not, so the row means are taken at a power-of-two scale
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("0,0\n1,0\n")
    b.write_text("9e153,0\n9e153,0\n")
    code, out, err = run_cli(["sweep-kappa", str(a), str(b), "--beta", "0", "--kappas", "10",
                              "--trials", "30", "--max-iter", "1", "--L", "1", "--seed", "0"],
                             capsys)
    assert (code, err) == (0, "")
    values = [float(row[2]) for row in rows_of(out)]
    assert len(values) == 3 and all(4e307 < v < 8e307 for v in values)


@pytest.mark.parametrize("argv, message", [
    (["flow", "--steps", "3", "--snapshot-every", "0"], "snapshot_every must be >= 1"),
    (["flow", "--steps", "3", "--step-size", "nan"], "step_size must be finite"),
    (["gmm-fit", "--steps", "3", "--batch", "8", "--step-size", "nan"],
     "step_size must be finite"),
    (["flow", "--steps", "3", "--learning-rate", "inf"], "learning_rate must be finite"),
    (["flow", "--steps", "3", "--kind", "sfg", "--adam-beta1", "1.5"], "Adam betas"),
])
def test_bad_flow_settings_are_input_errors(tmp_path, capsys, argv, message):
    target = tmp_path / "t.csv"
    write_point_cloud(target, four_mode_gmm(16, make_rng(501)))
    code, out, err = run_cli([argv[0], str(target), *argv[1:]], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and message in err


def test_divergent_flow_exits_two(tmp_path, capsys):
    target = tmp_path / "t.csv"
    write_point_cloud(target, four_mode_gmm(128, make_rng(500)))
    code, out, err = run_cli(
        [
            "flow", str(target), "--kind", "ssfg", "--kappa", "1000",
            "--steps", "50", "--step-size", "1.0", "--seed", "3",
        ],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("numeric divergence:")


def test_vmf_rejection_cap_exits_two(clouds, capsys, monkeypatch):
    monkeypatch.setattr(sampling, "_MAX_REJECTION_ROUNDS", 0)
    a, b = clouds
    code, out, err = run_cli(["discrepancy", a, b, "--kind", "ssfg", "--seed", "0"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("numeric divergence: vMF rejection sampler exceeded")


@pytest.mark.parametrize("kind", ["sfg", "ssfg", "max-sfg"])
def test_huge_clouds_exit_two_naming_the_engine(tmp_path, capsys, kind):
    # finite inputs whose slice costs overflow
    r = make_rng(8)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_point_cloud(a, r.normal(size=(16, 3)) * 1e160)
    write_point_cloud(b, r.normal(size=(16, 3)) * 1e160)
    argv = ["discrepancy", str(a), str(b), "--kind", kind, "--seed", "0"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"numeric divergence: {kind.replace('-', '_')}: non-finite")
    # in a fresh interpreter that shows every warning, the divergence line is
    # all that reaches stderr (no numpy RuntimeWarnings from the kernels)
    env = dict(os.environ, PYTHONWARNINGS="default")
    src = os.path.dirname(os.path.dirname(ssfgw.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "ssfgw"] + argv, capture_output=True, env=env, timeout=300
    )
    assert run.returncode == 2
    assert run.stdout == b""
    assert run.stderr.decode() == err


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------


def test_discrepancy_of_identical_clouds_is_zero(clouds, capsys):
    a, _ = clouds
    code, out, err = run_cli(["discrepancy", a, a, "--seed", "1"], capsys)
    assert code == 0
    assert err == ""
    rows = rows_of(out)
    assert rows[0][0] == "ssfg"
    assert rows[0][1] == "10.0"
    assert float(rows[0][2]) == 0.0
    assert float(rows[0][3]) == 0.0


def test_discrepancy_rows_per_kind(clouds, capsys):
    # every kind's rows print its library engine's report under the same seed
    a, b = clouds
    X, Y = parse_point_cloud(a), parse_point_cloud(b)
    cfg = ssfgw.FgwConfig(beta=0.1, exponent=2)
    opt = ssfgw.OptimizerConfig(max_iter=2, num_projections=8)
    common = ["--L", "8", "--max-iter", "2", "--seed", "2", "--restarts", "2"]
    for kind, flags, param, engine in [
        ("sfg", [], "", lambda rng: ssfgw.sfg(X, Y, cfg, L=8, rng=rng)),
        ("max-sfg", [], "", lambda rng: ssfgw.max_sfg(X, Y, cfg, opt, rng, num_restarts=2)),
        ("ssfg", [], "10.0", lambda rng: ssfgw.ssfg(X, Y, cfg, 10.0, opt, rng)),
        ("pssfg", [], "10.0", lambda rng: ssfgw.pssfg(X, Y, cfg, 10.0, opt, rng)),
        ("mssfg", [], ",".join(["10.0"] * 10),
         lambda rng: ssfgw.mssfg(X, Y, cfg, [10.0] * 10, None, opt, rng)),
        ("mssfg", ["--kappas", "2,5", "--alphas", "0.3,0.7"], "2.0,5.0",
         lambda rng: ssfgw.mssfg(X, Y, cfg, [2.0, 5.0], [0.3, 0.7], opt, rng)),
    ]:
        code, out, err = run_cli(["discrepancy", a, b, "--kind", kind] + flags + common, capsys)
        assert code == 0, err
        report = engine(np.random.default_rng(2))
        assert (report.trace == ()) == (kind == "sfg")
        expected = [[kind.replace("-", "_"), param, repr(report.value), repr(report.std_error)]]
        expected += [["trace", str(it), repr(value), "0.0"] for it, value in report.trace]
        expected.append(
            ["num_projections_used", "", repr(float(report.num_projections_used)), "0.0"])
        assert rows_of(out) == expected


def test_discrepancy_against_a_multiple_size_matches_replication(tmp_path, capsys):
    r = make_rng(18)
    small = r.normal(size=(12, 2))
    paths = {}
    for name, cloud in [
        ("small", small),
        ("replicated", np.repeat(small, 3, axis=0)),
        ("big", r.normal(size=(36, 2)) * 1.3 + 0.2),
    ]:
        paths[name] = str(tmp_path / f"{name}.csv")
        write_point_cloud(paths[name], cloud)
    common = ["--kind", "ssfg", "--L", "8", "--max-iter", "3", "--seed", "19"]
    outputs = []
    for source in ("small", "replicated"):
        code, out, err = run_cli(["discrepancy", paths[source], paths["big"]] + common, capsys)
        assert code == 0, err
        outputs.append(rows_of(out))
    direct, replicated = outputs
    assert [row[:2] for row in direct] == [row[:2] for row in replicated]
    for row, row_rep in zip(direct, replicated):
        assert abs(float(row[2]) - float(row_rep[2])) <= 1e-12 * abs(float(row_rep[2]))


def test_discrepancy_rejects_sizes_that_do_not_divide(tmp_path, capsys):
    r = make_rng(20)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_point_cloud(a, r.normal(size=(12, 2)))
    write_point_cloud(b, r.normal(size=(30, 2)))
    code, out, err = run_cli(["discrepancy", str(a), str(b), "--kind", "ssfg"], capsys)
    assert code == 1
    assert out == ""
    assert "12 and 30" in err and "divide" in err


def test_sweep_uses_default_concentration_grid(clouds, capsys):
    a, b = clouds
    code, out, _ = run_cli(
        ["sweep-kappa", a, b, "--trials", "1", "--L", "8", "--max-iter", "1",
         "--seed", "3"],
        capsys,
    )
    assert code == 0
    rows = rows_of(out)
    ssfg_rows = [r for r in rows if r[0] == "ssfg"]
    assert [r[1] for r in ssfg_rows] == ["1.0", "5.0", "10.0", "50.0", "100.0"]
    assert [r[0] for r in rows[-2:]] == ["sfg", "max_sfg"]


def test_sweep_at_a_large_cost_scale_succeeds(tmp_path, capsys):
    # the costs of 1e40-scaled clouds reach 1e160: their squares overflow,
    # the spread of the costs must not
    r = make_rng(0)
    paths = []
    for name, scale in (("a.csv", 1e40), ("b.csv", 1.3e40)):
        write_point_cloud(tmp_path / name, r.normal(size=(24, 2)) * scale)
        paths.append(str(tmp_path / name))
    with np.errstate(over="ignore"):
        code, out, err = run_cli(
            ["sweep-kappa", *paths, "--kappas", "2,20", "--trials", "2", "--L", "8",
             "--max-iter", "1", "--seed", "3"],
            capsys,
        )
    assert code == 0, err
    assert all(np.isfinite(float(row[3])) for row in rows_of(out))


def test_convergence_command_emits_slope_row(capsys):
    code, out, _ = run_cli(
        ["convergence", "--d", "2", "--sizes", "8,16", "--trials", "2",
         "--metric", "w1-control", "--seed", "4"],
        capsys,
    )
    assert code == 0
    rows = rows_of(out)
    assert [r[0] for r in rows] == ["w1_control", "w1_control", "w1_control_slope"]
    assert [r[1] for r in rows] == ["8", "16", ""]


def test_flow_rows_and_particle_export(tmp_path, capsys):
    target_path = tmp_path / "t.csv"
    write_point_cloud(target_path, four_mode_gmm(32, make_rng(10)))
    particles = tmp_path / "p.csv"
    code, out, _ = run_cli(
        ["flow", str(target_path), "--steps", "40", "--snapshot-every", "20",
         "--step-size", "0.01", "--L", "8", "--seed", "5",
         "--particles-out", str(particles)],
        capsys,
    )
    assert code == 0
    rows = rows_of(out)
    assert rows[0][:2] == ["discrepancy", "initial"]
    assert rows[1][:2] == ["discrepancy", "final"]
    assert [r[1] for r in rows if r[0] == "trace"] == ["20", "40"]
    exported = parse_point_cloud(particles)
    assert exported.shape == (32, 2)
    assert np.isfinite(exported).all()


def test_flow_rejects_particle_count_mismatch(tmp_path, capsys):
    # neither size divides the other
    target_path = tmp_path / "t.csv"
    write_point_cloud(target_path, four_mode_gmm(32, make_rng(10)))
    code, _, err = run_cli(
        ["flow", str(target_path), "--num-particles", "24", "--steps", "5"],
        capsys,
    )
    assert code == 1
    assert "24" in err and "32" in err


def test_flow_takes_a_particle_count_that_divides_the_target_size(tmp_path, capsys):
    target_path = tmp_path / "t.csv"
    write_point_cloud(target_path, four_mode_gmm(32, make_rng(10)))
    particles = tmp_path / "p.csv"
    code, _, err = run_cli(
        ["flow", str(target_path), "--num-particles", "16", "--steps", "5", "--L", "8",
         "--seed", "5", "--particles-out", str(particles)],
        capsys,
    )
    assert (code, err) == (0, "")
    assert parse_point_cloud(particles).shape == (16, 2)


def test_gmm_fit_rows(tmp_path, capsys):
    target_path = tmp_path / "t.csv"
    write_point_cloud(target_path, four_mode_gmm(32, make_rng(11)))
    code, out, _ = run_cli(
        ["gmm-fit", str(target_path), "--components", "2", "--steps", "5",
         "--batch", "16", "--L", "8", "--seed", "6"],
        capsys,
    )
    assert code == 0
    rows = rows_of(out)
    assert [r[0] for r in rows] == ["weight"] * 2 + ["mean"] * 4 + ["log_std"] * 4
    assert all(float(r[2]) == 0.5 for r in rows[:2])
    assert all(np.isfinite(float(r[2])) for r in rows)
    assert [r[1] for r in rows[2:6]] == ["0,0", "0,1", "1,0", "1,1"]


def test_values_use_shortest_round_trip_form(clouds, capsys):
    a, b = clouds
    code, out, _ = run_cli(
        ["discrepancy", a, b, "--L", "8", "--max-iter", "2", "--seed", "7"],
        capsys,
    )
    assert code == 0
    for row in rows_of(out):
        for cell in row[2:]:
            assert repr(float(cell)) == cell


# ---------------------------------------------------------------------------
# determinism and the sidecar
# ---------------------------------------------------------------------------


def test_output_file_and_sidecar(clouds, tmp_path, capsys):
    a, b = clouds
    out_path = tmp_path / "res.csv"
    code, out, _ = run_cli(
        ["discrepancy", a, b, "--L", "8", "--max-iter", "2", "--seed", "7",
         "--output", str(out_path)],
        capsys,
    )
    assert code == 0
    assert out == ""
    rows_of(out_path.read_text())
    meta = json.loads((tmp_path / "res.meta.json").read_text())
    assert meta["command"] == "discrepancy"
    assert meta["seed"] == 7
    assert meta["config"]["L"] == 8
    assert meta["config"]["beta"] == 0.1
    assert meta["config"]["kind"] == "ssfg"


def test_every_command_reruns_byte_identical(clouds, tmp_path, capsys):
    a, b = clouds
    target = tmp_path / "t.csv"
    write_point_cloud(target, four_mode_gmm(32, make_rng(12)))
    invocations = [
        ["discrepancy", a, b, "--kind", "ssfg", "--L", "8", "--max-iter", "2",
         "--seed", "11"],
        ["sweep-kappa", a, b, "--kappas", "2,20", "--trials", "2", "--L", "8",
         "--max-iter", "1", "--seed", "12"],
        ["convergence", "--d", "2", "--sizes", "8,16", "--trials", "2",
         "--L", "8", "--max-iter", "1", "--seed", "13"],
        ["flow", str(target), "--steps", "30", "--step-size", "0.01",
         "--L", "8", "--seed", "14"],
        ["gmm-fit", str(target), "--components", "2", "--steps", "5",
         "--batch", "16", "--L", "8", "--seed", "15"],
    ]
    for argv in invocations:
        first = run_cli(argv, capsys)
        second = run_cli(argv, capsys)
        assert first[0] == 0
        assert second[0] == 0
        assert first[1] == second[1], argv[0]


def test_particle_export_reruns_byte_identical(tmp_path, capsys):
    target = tmp_path / "t.csv"
    write_point_cloud(target, four_mode_gmm(32, make_rng(13)))
    outs = []
    for name in ("p1.csv", "p2.csv"):
        path = tmp_path / name
        code, _, _ = run_cli(
            ["flow", str(target), "--steps", "30", "--step-size", "0.01",
             "--L", "8", "--seed", "16", "--particles-out", str(path)],
            capsys,
        )
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_installed_entry_point_reruns_byte_identical(clouds):
    a, b = clouds
    argv = ["discrepancy", a, b, "--L", "8", "--max-iter", "2", "--seed", "17"]
    exe = shutil.which("ssfgw")
    cmd = [exe] if exe else [sys.executable, "-m", "ssfgw"]
    runs = [
        subprocess.run(cmd + argv, capture_output=True, timeout=300)
        for _ in range(2)
    ]
    assert runs[0].returncode == 0, runs[0].stderr.decode()
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.startswith(b"metric,parameter,value,std_error")
