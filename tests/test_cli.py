"""CLI contract: CSV parsing with line/column diagnostics, long-format output
with a JSON sidecar, exit codes, and byte-identical reruns."""

import csv
import io
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from ssfgw.cli import main, parse_point_cloud, write_point_cloud
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


# ---------------------------------------------------------------------------
# flags and exit codes
# ---------------------------------------------------------------------------


def test_unknown_flag_rejected(clouds, capsys):
    a, b = clouds
    code, out, err = run_cli(["discrepancy", a, b, "--bogus", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_missing_command_rejected(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_bad_config_value_is_an_input_error(clouds, capsys):
    a, b = clouds
    code, _, err = run_cli(["discrepancy", a, b, "--beta", "1.5"], capsys)
    assert code == 1
    assert err.startswith("error:")


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


@pytest.mark.parametrize("kind", ["sfg", "ssfg", "max-sfg"])
def test_huge_clouds_exit_two_naming_the_engine(tmp_path, capsys, kind):
    # finite inputs whose slice costs overflow
    r = make_rng(8)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_point_cloud(a, r.normal(size=(16, 3)) * 1e160)
    write_point_cloud(b, r.normal(size=(16, 3)) * 1e160)
    code, out, err = run_cli(["discrepancy", str(a), str(b), "--kind", kind, "--seed", "0"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"numeric divergence: {kind.replace('-', '_')}: non-finite")


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
    a, b = clouds
    common = ["--L", "8", "--max-iter", "2", "--seed", "2"]
    for kind, param_check in [
        ("sfg", lambda p: p == ""),
        ("max-sfg", lambda p: p == ""),
        ("ssfg", lambda p: p == "10.0"),
        ("pssfg", lambda p: p == "10.0"),
        ("mssfg", lambda p: p == ",".join(["10.0"] * 10)),
    ]:
        code, out, err = run_cli(
            ["discrepancy", a, b, "--kind", kind, "--restarts", "2"] + common,
            capsys,
        )
        assert code == 0, err
        rows = rows_of(out)
        assert rows[0][0] == kind.replace("-", "_")
        assert param_check(rows[0][1])
        assert float(rows[0][2]) >= 0.0
        assert rows[-1][0] == "num_projections_used"
        trace_rows = [r for r in rows if r[0] == "trace"]
        if kind == "sfg":
            assert trace_rows == []
        else:
            assert [r[1] for r in trace_rows] == [
                str(i + 1) for i in range(len(trace_rows))
            ]


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
    target_path = tmp_path / "t.csv"
    write_point_cloud(target_path, four_mode_gmm(32, make_rng(10)))
    code, _, err = run_cli(
        ["flow", str(target_path), "--num-particles", "16", "--steps", "5"],
        capsys,
    )
    assert code == 1
    assert "--num-particles" in err


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
