"""Command line surface: formats, exit codes, determinism."""

import hashlib
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
    assert doc["property_violations"] == "0"
    assert list(doc)[-2:] == ["property_violations", "verdict"]


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
        capsys, ["optimal-poly", "--m", "4", "--n", "2"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["exact_bound"] == "5/16"
    assert abs(doc["gap"]) <= 1e-9


def test_optimal_poly_offset_grid(capsys):
    code, out, _ = _run(
        capsys,
        [
            "optimal-poly", "--m", "2", "--n", "4", "--a-grid", "2.0,4.0",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["offset_check"]["passed"] is True


def test_optimal_poly_reports_exact_optimum(capsys):
    code, out, _ = _run(capsys, ["optimal-poly", "--m", "7", "--n", "3",
                                 "--a-grid", "1/2,1.5,3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["best_ratio"] == doc["exact_bound"] == "7/24"
    assert doc["corner"] == ["6", "1"] and doc["gap"] == 0.0
    assert doc["offset_check"]["a_grid"] == ["1/2", "3/2", "3/1"]
    assert doc["offset_check"]["objectives"][-1] == "5/7"
    # offsets outside (0, n], an unsorted grid and m < 2 are usage errors
    for argv in (["--m", "4", "--n", "2", "--a-grid", "1,3"],
                 ["--m", "4", "--n", "2", "--a-grid", "0,1"],
                 ["--m", "4", "--n", "2", "--a-grid", "2,1"],
                 ["--m", "4", "--n", "2", "--a-grid", "x"],
                 ["--m", "1", "--n", "2"]):
        code, out, err = _run(capsys, ["optimal-poly"] + argv)
        assert code == 2 and out == "" and err.startswith("error: ")


def test_optimal_poly_exit_1_when_a_check_fails(capsys, monkeypatch):
    from borsuk import optimality

    exact = optimality.search_optimum
    # an enumeration that misses the top even exponent falls short of h*
    monkeypatch.setattr(optimality, "search_optimum",
                        lambda m, n, a=None: exact(m - 2, n, a))
    code, out, _ = _run(capsys, ["optimal-poly", "--m", "6", "--n", "3"])
    assert code == 1 and json.loads(out)["gap"] > 0
    code, out, _ = _run(capsys, ["optimal-poly", "--m", "6", "--n", "3",
                                 "--a-grid", "1,2,3"])
    doc = json.loads(out)
    assert code == 1 and doc["gap"] > 0
    assert doc["offset_check"]["passed"] is False
    # one that ignores the offset is flat along the grid, not rising
    monkeypatch.setattr(optimality, "search_optimum", lambda m, n, a=None: exact(m, n))
    code, out, _ = _run(capsys, ["optimal-poly", "--m", "6", "--n", "3",
                                 "--a-grid", "1,3"])
    doc = json.loads(out)
    assert code == 1 and doc["gap"] == 0.0
    assert doc["offset_check"]["passed"] is False


@pytest.mark.parametrize("option", ["--samples", "--offset-samples"])
def test_optimal_poly_sampling_options_are_gone(capsys, option):
    with pytest.raises(SystemExit) as exc:
        main(["optimal-poly", "--m", "4", "--n", "2", option, "1000"])
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["plan", "--shrinking", "--d", str(10 ** 12), "--tol", "0.5"],
    ["bound", "--shrinking", "--d", str(10 ** 12), "--tol", "0.5"],
    ["build", "--shrinking", "--d", str(10 ** 12), "--tol", "1e-12"],
    ["asymptotic", "--tol", "0.5", "--shrinking", "--d", str(10 ** 12)],
])
def test_tol_with_shrinking_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "not allowed with argument" in err
    assert "--tol" in err and "--shrinking" in err


@pytest.mark.parametrize("argv", [
    ["certify", "--n", "8", "--p", "5", "--a", "12", "--tol", "7"],
    ["upper", "--tol", "0.5"],
    ["optimal-poly", "--m", "4", "--n", "2", "--tol", "0.5"],
])
def test_tol_only_where_a0_is_solved(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_tol_reaches_the_fixed_radius_solve(capsys):
    for cmd in ("plan", "bound", "asymptotic"):
        _, loose, _ = _run(capsys, [cmd, "--r", "0.71", "--d", str(10 ** 6),
                                    "--tol", "1e-3"])
        _, tight, _ = _run(capsys, [cmd, "--r", "0.71", "--d", str(10 ** 6)])
        assert loose and tight and loose != tight
    code, out, _ = _run(capsys, ["build", "--r", "0.71", "--d", "256", "--limit", "1",
                                 "--tol", "1e-3"])
    assert code == 0 and out.startswith("# borsuk-omega d=256 ")
    code, loose, _ = _run(capsys, ["find-d0", "--r", "0.71", "--tol", "1e-3"])
    assert code == 0
    _, tight, _ = _run(capsys, ["find-d0", "--r", "0.71"])
    assert json.loads(loose)["params"]["a0"] != json.loads(tight)["params"]["a0"]


def test_plan_past_miller_rabin_range_exit_2(capsys):
    code, out, err = _run(capsys, ["plan", "--r", "0.9", "--d", str(2 ** 132 + 1)])
    assert code == 2 and out == ""
    assert "Miller-Rabin" in err and "n = %d" % 2 ** 66 in err


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


# sha256 of build stdout, pinned when each point was embedded on its own
_BUILD_SHA256 = {
    ("--r", "0.9", "--d", "256"):
        "d37b8f4fb879f043a610a1a5393e4f960506ee4a1e50042beec30ed029504834",
    ("--r", "0.9", "--d", "400", "--limit", "7"):
        "aaf6a5e55273d2d7e9fdcdf6db10725c71f3a306dfb5e1f112df5c1a5a13dd64",
    ("--r", "0.71", "--d", "256", "--limit", "3"):
        "4d022bff5e1decc6a37ca30260ba0c9fd8f854a455bf2a06973d3cf688f9bc98",
}


@pytest.mark.parametrize("argv", sorted(_BUILD_SHA256))
def test_build_stdout_golden_bytes(capsys, argv):
    code, out, _ = _run(capsys, ["build", *argv])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _BUILD_SHA256[argv]


def test_failed_build_writes_nothing(tmp_path, capsys):
    # d = 65 < 8**2 + 8 + 1: refused before stdout or --out is touched
    code, out, err = _run(capsys, ["build", "--r", "0.64", "--d", "65"])
    assert code == 2
    assert out == ""
    assert "ambient dimension insufficient: d=65 < 73" in err
    out_file = tmp_path / "points.txt"
    code, out, _ = _run(capsys, ["build", "--r", "0.64", "--d", "65",
                                 "--out", str(out_file)])
    assert code == 2 and out == ""
    assert not out_file.exists()


def test_build_negative_limit_is_a_usage_error(tmp_path, capsys):
    out_file = tmp_path / "points.txt"
    code, out, err = _run(capsys, ["build", "--r", "0.9", "--d", "256",
                                   "--limit", "-460", "--out", str(out_file)])
    assert code == 2 and out == ""
    assert "--limit must be non-negative" in err
    assert not out_file.exists()
    # --limit 0 is a header with no points
    code, out, _ = _run(capsys, ["build", "--r", "0.9", "--d", "256", "--limit", "0"])
    assert code == 0 and out.count("\n") == 1


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_certify_seeds_below_one_is_a_usage_error(capsys, seeds):
    code, out, err = _run(capsys, ["certify", "--n", "8", "--p", "3", "--a", "4",
                                   "--seeds", seeds])
    assert code == 2 and out == ""
    assert "seeds must be at least 1, got %s" % seeds in err


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
        ["optimal-poly", "--m", "2", "--n", "1", "--seed", "7"],
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
