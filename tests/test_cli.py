"""Command line surface: formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time

import pytest

from borsuk.cli import main


def _run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_plan_json_shape(capsys):
    code, out, err = _run(capsys, ["plan", "--r", "0.9", "--d", "256"])
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == "12" and doc["a"] == "8" and doc["p"] == "5"
    # rsq is the exact square of the binary double 0.9
    num, den = map(int, doc["rsq"].split("/"))
    assert num / den == pytest.approx(0.81, rel=1e-15)
    assert doc["mode"] == "fixed"
    assert "/" in doc["a0"]  # exact rational survives serialization


def test_plan_shrinking_json(capsys):
    code, out, _ = _run(capsys, ["plan", "--shrinking", "--d", str(10 ** 12)])
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["a"], doc["p"]) == ("996", "832", "457")
    assert doc["mode"] == "shrinking"


def test_plan_missing_args_exit_2(capsys):
    code, out, err = _run(capsys, ["plan", "--r", "0.9"])
    assert code == 2
    assert "required" in err


def test_plan_bad_radius_exit_2(capsys):
    code, _, err = _run(capsys, ["plan", "--r", "0.4", "--d", "256"])
    assert code == 2
    assert "error:" in err


def test_bound_failing_dimension_exit_1(capsys):
    code, out, _ = _run(capsys, ["bound", "--r", "0.71", "--d", "999"])
    assert code == 1
    doc = json.loads(out)
    assert doc["bound"]["passes"] is False


def test_bound_passing_dimension_exit_0(capsys):
    code, out, _ = _run(capsys, ["bound", "--r", "0.71", "--d", "327185"])
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"]["passes"] is True
    assert doc["params"]["n"] == "572"


def test_bound_raw_mode(capsys):
    code, out, _ = _run(capsys, ["bound", "--n", "8", "--p", "5", "--d", "65"])
    assert code == 1
    doc = json.loads(out)
    assert doc["bound"]["numerator"] == "35"
    assert doc["bound"]["denominator"] == "163"
    assert doc["bound"]["threshold"] == "66"


def test_bound_raw_mode_needs_all_three(capsys):
    code, _, err = _run(capsys, ["bound", "--n", "8", "--p", "5"])
    assert code == 2
    assert "raw mode" in err


def test_bound_shrinking_exit_1_with_named_checks(capsys):
    code, out, _ = _run(capsys, ["bound", "--shrinking", "--d", str(10 ** 12)])
    assert code == 1
    doc = json.loads(out)
    by_name = {c["name"]: c["passed"] for c in doc["checks"]}
    assert by_name["count_ratio"] is False
    assert by_name["power_margin"] is True


def test_certify_with_overrides(capsys):
    code, out, _ = _run(
        capsys,
        ["certify", "--n", "12", "--p", "5", "--a", "8", "--seeds", "4"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == "794"
    assert doc["mis_exact"] == "210"
    assert doc["vacuous"] is True


def test_certify_composite_p_exits_2_at_once(capsys, monkeypatch):
    # n - 4p = -a holds for (12, 4, 4); p = 4 must be refused before the
    # greedy families and the exact search, which take minutes at n = 12
    from borsuk import algebra

    def no_work(*args, **kwargs):
        raise AssertionError("Sigma work ran before the prime check")

    monkeypatch.setattr(algebra, "sigma_gram", no_work)
    monkeypatch.setattr(algebra, "sigma_matrix", no_work)
    start = time.perf_counter()
    code, out, err = _run(capsys, ["certify", "--n", "12", "--p", "4", "--a", "4"])
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert "p = 4 is not prime" in err


def test_certify_partial_overrides_error(capsys):
    code, _, err = _run(capsys, ["certify", "--n", "12", "--p", "5"])
    assert code == 2
    assert "together" in err


def test_find_d0_output(capsys):
    code, out, _ = _run(capsys, ["find-d0", "--r", "0.71"])
    assert code == 0
    doc = json.loads(out)
    assert doc["d0"] == "327185"
    assert doc["previous_passes"] is False


def test_upper_csv_format(capsys):
    code, out, _ = _run(
        capsys,
        ["upper", "--d-min", "2", "--d-max", "4", "--format", "csv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,r,piece_diam,pass"
    assert len(lines) == 4
    assert lines[1].split(",")[0] == "2"
    assert lines[1].split(",")[3] == "true"


def test_upper_closed_form_past_d12(capsys):
    code, out, _ = _run(
        capsys, ["upper", "--d-min", "13", "--d-max", "14", "--format", "csv"]
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    # r * sqrt(2 + 2 sqrt(q)) at the balanced split, no fitted trend
    assert [round(float(row[2]), 5) for row in rows] == [0.96741, 0.96963]
    code, out, _ = _run(
        capsys, ["upper", "--d-min", "40", "--d-max", "40", "--c-r", "0.3"]
    )
    assert code == 1
    assert json.loads(out)[0]["pass"] is False


def test_upper_restarts_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["upper", "--restarts", "5"])
    assert exc.value.code == 2
    assert "--restarts" in capsys.readouterr().err


def test_plan_even_prime_exit_2(capsys):
    # n = 4 forces a = 4 and p = 2, where the residue argument is void
    code, out, err = _run(capsys, ["plan", "--r", "0.5005", "--d", str(10 ** 400)])
    assert code == 2
    assert out == ""
    assert "p = 2 is even" in err


def test_optimal_poly_gap(capsys):
    code, out, _ = _run(
        capsys, ["optimal-poly", "--m", "4", "--n", "2", "--samples", "1000"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["exact_bound"] == "5/16"
    assert abs(doc["gap"]) <= 1e-9


def test_optimal_poly_offset_grid(capsys):
    code, out, _ = _run(
        capsys,
        [
            "optimal-poly", "--m", "2", "--n", "4",
            "--samples", "1000", "--a-grid", "2.0,4.0",
            "--offset-samples", "1000",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["offset_check"]["passed"] is True


def test_build_writes_points(tmp_path, capsys):
    out_file = tmp_path / "points.txt"
    code, _, _ = _run(
        capsys,
        ["build", "--r", "0.9", "--d", "256", "--limit", "5", "--out", str(out_file)],
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# borsuk-omega d=256")
    assert len(lines) == 6
    assert len(lines[1].split()) == 256


def test_out_flag_writes_json(tmp_path, capsys):
    out_file = tmp_path / "plan.json"
    code, out, _ = _run(
        capsys, ["plan", "--r", "0.9", "--d", "256", "--out", str(out_file)]
    )
    assert code == 0
    assert out == ""
    doc = json.loads(out_file.read_text())
    assert doc["n"] == "12"


def test_text_format(capsys):
    code, out, _ = _run(
        capsys, ["plan", "--r", "0.9", "--d", "256", "--format", "text"]
    )
    assert code == 0
    assert "n: 12" in out.splitlines()


def test_repeat_invocations_byte_identical(capsys):
    samples = [
        ["plan", "--r", "0.9", "--d", "256"],
        ["bound", "--shrinking", "--d", "100000000"],
        ["upper", "--d-min", "2", "--d-max", "3", "--seed", "1"],
        ["optimal-poly", "--m", "2", "--n", "1", "--samples", "1000", "--seed", "7"],
    ]
    for argv in samples:
        _, out1, _ = _run(capsys, argv)
        _, out2, _ = _run(capsys, argv)
        assert out1 == out2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "borsuk", "plan", "--r", "0.9", "--d", "256"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == "12"


def test_thread_override_env(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "borsuk", "plan", "--r", "0.9", "--d", "256",
         "--threads", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    proc = subprocess.run(
        [sys.executable, "-m", "borsuk", "plan", "--r", "0.9", "--d", "256"],
        capture_output=True,
        text=True,
        # keep the caller's environment (PYTHONPATH included) so the
        # package imports and the bad value reaches the thread setup
        env={**os.environ, "BORSUK_THREADS": "not-a-number"},
    )
    assert proc.returncode == 2
    assert "BORSUK_THREADS" in proc.stderr
