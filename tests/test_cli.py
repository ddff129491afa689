"""Command line surface: formats, exit codes, determinism."""

import argparse
import ast
import hashlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from borsuk import cli
from borsuk.cli import _build_parser, main
from conftest import child_env


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


@pytest.mark.parametrize("d", ["-5", "0"])
def test_bound_raw_mode_refuses_dimension_below_1(capsys, d):
    # --d -5 used to print threshold -4 and pass
    code, out, err = _run(capsys, ["bound", "--n", "8", "--p", "5", "--d", d])
    assert code == 2
    assert out == ""
    assert "--d must be at least 1, got %s" % d in err


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
    keys = list(doc)
    assert keys[keys.index("rank"):][:2] == ["rank", "rank_full_family"]
    assert doc["rank"] == "330"
    # a prime far above 2n: every family member is checked through the
    # evaluation matrix at p = 4001
    code, out, _ = _run(capsys, ["certify", "--n", "8", "--p", "4001", "--a", "15996"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["mis_exact"], doc["rank"]) == ("35", "35")


def test_certify_exact_maximum_past_n12(capsys):
    # -12 is attained in Sigma(16) only by disjoint +1 sets past the first
    # coordinate, so the maximum is the Erdos-Ko-Rado star C(14, 6), the
    # size the enumeration-order greedy family already reaches
    code, out, _ = _run(capsys, ["certify", "--n", "16", "--p", "7", "--a", "12"])
    assert code == 0
    doc = json.loads(out)
    assert doc["mis_exact"] == "3003" and doc["verdict"] is True
    assert doc["family_sizes"][0] == "3003"


def test_certify_n16_family_sizes(capsys):
    # the 20 greedy families of certify's one full-family instance
    code, out, _ = _run(capsys, ["certify", "--n", "16", "--p", "5", "--a", "4"])
    assert code == 0
    assert json.loads(out)["family_sizes"] == [str(size) for size in (
        495, 202, 173, 176, 94, 169, 154, 199, 174, 149,
        190, 194, 259, 205, 244, 231, 321, 256, 199, 130)]


def test_certify_composite_p_exits_2_at_once(capsys, monkeypatch):
    # n - 4p = -a holds for (12, 4, 4); p = 4 must be refused before the
    # greedy families and the rest of the Sigma(12) work
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


@pytest.mark.parametrize("p, a", [("3", "0"), ("2", "-4")])
def test_certify_offset_below_4_exits_2_at_once(capsys, monkeypatch, p, a):
    # n - 4p = -a holds and p is prime, but the planner takes a as a
    # positive multiple of 4; the offset is refused before any Sigma work
    from borsuk import algebra

    def no_work(*args, **kwargs):
        raise AssertionError("Sigma work ran before the offset check")

    monkeypatch.setattr(algebra, "sigma_matrix", no_work)
    start = time.perf_counter()
    code, out, err = _run(capsys, ["certify", "--n", "12", "--p", p, "--a", a])
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert "offset a = %s below 4" % a in err


def test_certify_past_the_enumeration_cap(capsys, monkeypatch):
    # the planner's own sizes: n = 572 at (0.71, 327185), far past the
    # enumeration; the exact property count still runs and decides
    from borsuk import algebra
    from borsuk.exactnum import binomial, binomial_tail_sum

    def no_work(*args, **kwargs):
        raise AssertionError("Sigma(572) enumerated")

    monkeypatch.setattr(algebra, "sigma_matrix", no_work)
    code, out, err = _run(capsys, ["certify", "--r", "0.71", "--d", "327185"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["p"], doc["a"]) == ("572", "223", "320")
    assert doc["bound"] == str(binomial_tail_sum(572, 223))
    assert doc["sigma_size"] == str(binomial(571, 285))
    assert doc["property_violations"] == "0" and doc["verdict"] is True
    assert doc["family_sizes"] == [] and doc["rank_full_family"] is False
    assert all(doc[key] is None for key in ("mis_exact", "rank"))
    assert err == ("note: Sigma(572) not enumerated (n > 24): greedy "
                   "families, exact MIS and rank skipped; the verdict rests "
                   "on the exact property count\n")
    # the property count is the whole verdict there
    monkeypatch.setattr(algebra, "property_check_exhaustive", lambda n, p, a: 2)
    code, out, _ = _run(capsys, ["certify", "--r", "0.71", "--d", "327185"])
    assert code == 1 and json.loads(out)["verdict"] is False


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
    # one full evaluation, the passing step (two with the geometric tail bound)
    assert (doc["walk_steps"], doc["full_evaluations"]) == ("142", "1")


# printed 25-digit log ratios of the d0 table and the README counting
# commands, recorded from the mpmath log-space tail sum that the
# fixed-point integer sum replaced: argv -> (exit code, ln string)
_PINNED_LOGS = {
    "find-d0 --r 0.59": (0, "37.54619070001658550299758"),
    "find-d0 --r 0.61": (0, "33.62639785659018891074158"),
    "find-d0 --r 0.63": (0, "17.24199704282161012748738"),
    "find-d0 --r 0.65": (0, "14.14361703133730890735372"),
    "find-d0 --r 0.67": (0, "12.0432875515114439334354"),
    "find-d0 --r 0.69": (0, "11.50787103053171365822189"),
    "find-d0 --r 0.71": (0, "12.74393173444029765787815"),
    "bound --r 0.71 --d 327185": (0, "12.74393173444029765787815"),
    "bound --r 0.71 --d 1000000000000000": (0, "818527.2023314797844160699"),
    "bound --r 0.6 --d 100000000000000000000": (0, "571.6589462978836522785578"),
    "bound --shrinking --d 1000000": (1, "7.227042982352298525895127"),
    "bound --shrinking --d 1000000000": (1, "-0.9278500983410866098282315"),
    "bound --shrinking --d 1000000000000": (1, "1.088964568744995612542138"),
    "bound --shrinking --d 1000000000000000": (1, "11.85839788540074329607487"),
    "bound --shrinking --d 1000000000000000000": (0, "68.90086924307528476922424"),
}


@pytest.mark.parametrize("cmd", sorted(_PINNED_LOGS))
def test_printed_log_ratio_pinned(capsys, cmd):
    want_code, want_ln = _PINNED_LOGS[cmd]
    code, out, _ = _run(capsys, cmd.split())
    assert code == want_code
    doc = json.loads(out)
    got = doc["final_ratio_log"] if "--shrinking" in cmd else doc["bound"]["ratio_log"]
    assert got == {"ln": want_ln, "sign": "1"}


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
    # offsets outside (0, n], an unsorted grid, a zero denominator and
    # m < 2 are usage errors
    for argv in (["--m", "4", "--n", "2", "--a-grid", "1,3"],
                 ["--m", "4", "--n", "2", "--a-grid", "0,1"],
                 ["--m", "4", "--n", "2", "--a-grid", "2,1"],
                 ["--m", "4", "--n", "2", "--a-grid", "x"],
                 ["--m", "4", "--n", "2", "--a-grid", "1/0"],
                 ["--m", "4", "--n", "2", "--a-grid", "1/0,2"],
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


# a valid invocation of each command, cheap to parse
_MINIMAL_ARGV = {
    "plan": ["--r", "0.9", "--d", "256"],
    "build": ["--r", "0.9", "--d", "256", "--limit", "0"],
    "certify": ["--n", "8", "--p", "5", "--a", "12"],
    "bound": ["--n", "8", "--p", "5", "--d", "65"],
    "find-d0": ["--r", "0.71"],
    "asymptotic": ["--r", "0.9", "--d", "1000000"],
    "upper": [],
    "optimal-poly": ["--m", "4", "--n", "2"],
}


def test_minimal_argv_covers_every_command():
    (sub,) = [a for a in _build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(_MINIMAL_ARGV)


@pytest.mark.parametrize("command", sorted(_MINIMAL_ARGV))
def test_tol_is_a_usage_error(capsys, command):
    # the a0 solve is exact to a fixed tolerance; there is nothing to tune
    with pytest.raises(SystemExit) as exc:
        main([command, *_MINIMAL_ARGV[command], "--tol", "1e-12"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


@pytest.mark.parametrize("command",
                         sorted(set(_MINIMAL_ARGV) - {"upper", "optimal-poly"}))
def test_seed_is_a_usage_error_outside_upper_and_optimal_poly(capsys, command):
    # no prefix matching either: certify --seed is not --seeds
    with pytest.raises(SystemExit) as exc:
        main([command, *_MINIMAL_ARGV[command], "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_threads_is_a_usage_error_and_environ_untouched(capsys):
    # thread pools are capped through OMP_NUM_THREADS/OPENBLAS_NUM_THREADS
    # in the environment; borsuk neither takes the count nor writes it
    before = dict(os.environ)
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--r", "0.9", "--d", "256", "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err
    assert dict(os.environ) == before


def test_borsuk_threads_is_not_read(capsys, monkeypatch):
    monkeypatch.setenv("BORSUK_THREADS", "not-a-number")
    code, out, _ = _run(capsys, ["plan", "--r", "0.9", "--d", "256"])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        _STDOUT_SHA256["plan --r 0.9 --d 256"]


# an option the selected mode would not read: argv -> stderr message
_UNREAD_IN_MODE = {
    "plan --shrinking --r 0.9 --d 1000000000000":
        "--r does not apply with --shrinking",
    "bound --shrinking --r 0.9 --d 1000000000000":
        "--r does not apply with --shrinking",
    "certify --n 8 --p 5 --a 12 --r 0.9":
        "--r does not apply with --n/--p/--a",
    "bound --n 8 --p 5 --d 65 --r 0.7":
        "--r does not apply with --n/--p",
    "certify --n 8 --p 5 --a 12 --shrinking":
        "--shrinking does not apply with --n/--p/--a",
    "bound --n 8 --p 5 --d 65 --shrinking":
        "--shrinking does not apply with --n/--p",
    "certify --n 8 --p 5 --a 12 --d 256":
        "--n, --p, --a must be given together, without --d",
    "plan --r 0.9 --d 256 --c-phi 3":
        "--c-phi applies only with --shrinking",
    "bound --n 8 --p 5 --d 65 --c-phi 6":
        "--c-phi applies only with --shrinking",
}


@pytest.mark.parametrize("cmd", sorted(_UNREAD_IN_MODE))
def test_option_the_mode_ignores_is_a_usage_error(capsys, cmd):
    code, out, err = _run(capsys, cmd.split())
    assert code == 2 and out == ""
    assert err == "error: %s\n" % _UNREAD_IN_MODE[cmd]


def test_c_phi_default_is_6(capsys):
    cmd = "bound --shrinking --d 1000000000000"
    code, out, _ = _run(capsys, (cmd + " --c-phi 6").split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == _STDOUT_SHA256[cmd]


# options a command registers but never reads.  perfbench/workloads.py
# passes --seed to upper and optimal-poly, so both keep accepting it until
# the benchmark stops passing it
_UNREAD_ALLOWED = {("upper", "seed"), ("optimal-poly", "seed")}


def _args_read(start):
    """Attributes of args that the cli functions reachable from start read.

    Only plain args.<dest> reads count, so cli reads no option by getattr.
    """
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    todo, seen, read = list(start), set(), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "args"):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in defs):
                todo.append(node.func.id)
    return read


def test_every_option_is_read_on_its_command_path():
    (sub,) = [a for a in _build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    unread = set()
    for command, parser in sub.choices.items():
        read = _args_read(["main", parser.get_default("func").__name__])
        unread.update((command, action.dest) for action in parser._actions
                      if action.dest != "help" and action.dest not in read)
    assert unread == _UNREAD_ALLOWED


def test_option_guard_follows_calls():
    # cmd_plan reads nothing itself: every option comes through its callees
    assert _args_read(["cmd_plan"]) == {"r", "d", "shrinking", "c_phi", "format", "out"}


def _readme_commands():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [line.split("#", 1)[0].split()[1:]
            for line in block.splitlines() if line.startswith("borsuk ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == set(_MINIMAL_ARGV)
    for argv in commands:
        _build_parser().parse_args(argv)


# exit code and sha256 of stdout (of the --out file for build) at every
# README command and two large-d bounds, recorded while printed logs were
# still wrapped in a log class: every printed digit must survive its removal
_STDOUT_SHA256 = {
    "plan --r 0.9 --d 256":
        (0, "304718696c976dedfe76ddfb34d0fe616553cb9e7f82e886660392d7b4106efa"),
    "build --r 0.9 --d 256 --out pts.txt":
        (0, "d37b8f4fb879f043a610a1a5393e4f960506ee4a1e50042beec30ed029504834"),
    "bound --r 0.71 --d 327185":
        (0, "283f14f3e19e97a5187642005cf424c95f3840af0f7987036f0a1e43ca85e4df"),
    "bound --n 8 --p 5 --d 65":
        (1, "7a57e84e77e0e4b8205eeb893aaec0e8d609a658bd3c89aa40475e2632cbed52"),
    # re-pinned when rank_columns and rank_rows left the certificate, and
    # when the seeded scan orders came to be hashed (family_sizes only)
    "certify --n 12 --p 5 --a 8":
        (0, "fca15d7cd30f2acedc63e6e2b0aad8fa704ba68de20d52d03e50d22cdf2ba5a6"),
    # re-pinned when the tail's lower bound became _tail_ratio_lower's
    # (full_evaluations 2 -> 1 only)
    "find-d0 --r 0.71":
        (0, "eebb859702850dee320e2ac3134dc49bc424d8557be169d2ec0dd51810729800"),
    "asymptotic --r 0.9 --d 1000000":
        (0, "2c05aaebef5cf6761077a5b84d62588f7a707fc278d7c83e1d8ffe42feb8bb87"),
    "upper --d-min 2 --d-max 12":
        (0, "09204e47c3c83063591fd970d31075768cfbec8cbd6104193798882f042bc45f"),
    "optimal-poly --m 6 --n 3":
        (0, "1ad8a66c9a252c6ac45f7b419e649116cade7868d276bc22992870f3ce94f2ba"),
    "bound --shrinking --d 1000000":
        (1, "3a88445a119ea27efeb4fe53b02da8db55583a0b7090eb7881c15be9b938d584"),
    "bound --shrinking --d 1000000000":
        (1, "5c201d9a2fad0073428626395f17f01cae4b00d46fc578dd0dcfdc41b5a59aa4"),
    "bound --shrinking --d 1000000000000":
        (1, "46b11537e973910f6fa03002706a5096fad973693db85775140b31512569b5c5"),
    "bound --shrinking --d 1000000000000000":
        (1, "3434caf71b3dea7b3d38ffab96e5949304e729d3896d1211e7945d13b957f59d"),
    "bound --shrinking --d 1000000000000000000":
        (0, "2f5e570e194da51507b4b7240a6dc1cf2424e9807660db791a3f74d56772aed5"),
    "bound --r 0.71 --d 1000000000000000":
        (0, "726ae8a7dc11fde5a1a0361d80600f80d9a5ba03fdc30a90419fd687836ad805"),
    "bound --r 0.9 --d 10000000000000000000000000000000000":
        (0, "9c0771baa59b5c4cccf5347c792b16e55c20dbac2322c6b822d0692bb489b985"),
}


def test_stdout_hashes_cover_the_readme():
    assert {" ".join(argv) for argv in _readme_commands()} <= set(_STDOUT_SHA256)


@pytest.mark.parametrize("cmd", sorted(_STDOUT_SHA256))
def test_stdout_byte_identical(tmp_path, capsys, cmd):
    want_code, want_sha = _STDOUT_SHA256[cmd]
    argv = cmd.split()
    if "--out" in argv:
        argv[argv.index("--out") + 1] = str(tmp_path / "out.txt")
    code, out, _ = _run(capsys, argv)
    if "--out" in argv:
        assert out == ""
        out = (tmp_path / "out.txt").read_text()
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == want_sha


def test_shrinking_bound_expands_no_exact_integers(capsys, monkeypatch):
    # the count ratio's verdict comes from the enclosures of the one
    # fixed-point tail that also gives the printed log: no exact tail sum
    # and no C(n-1, n/2-1) at any of the d0-table exponents
    from borsuk import bounds, exactnum

    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    tail_sum = counted("binomial_tail_sum", exactnum.binomial_tail_sum)
    monkeypatch.setattr(exactnum, "binomial_tail_sum", tail_sum)
    monkeypatch.setattr(bounds, "_tail_pass", counted("_tail_pass", bounds._tail_pass))
    monkeypatch.setattr(math, "comb", counted("math.comb", math.comb))
    for e in (6, 9, 12, 15, 18):
        cmd = "bound --shrinking --d %d" % 10 ** e
        code, out, _ = _run(capsys, cmd.split())
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == _STDOUT_SHA256[cmd]
    assert calls == []


def test_parser_is_built_once_and_shared():
    assert _build_parser() is _build_parser()


def test_shared_parser_leaks_nothing_between_calls(capsys):
    # one process, one parser: a usage error, non-default options, then the
    # defaults again; every stdout matches its pin or a fresh interpreter
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--n", "12", "--p", "5", "--a", "8", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
    fresh = ["asymptotic --r 0.9 --d 1000000 --cert-sizes 400 800",
             "certify --n 12 --p 5 --a 8 --seeds 3"]
    script = ("import contextlib, hashlib, io\n"
              "from borsuk.cli import main\n"
              "for cmd in %r:\n"
              "    buf = io.StringIO()\n"
              "    with contextlib.redirect_stdout(buf):\n"
              "        code = main(cmd.split())\n"
              "    print(code, hashlib.sha256(buf.getvalue().encode()).hexdigest())\n"
              % fresh)
    words = _fresh_interpreter(script)
    want = dict(zip(fresh, zip(map(int, words[::2]), words[1::2])))
    want.update({cmd: _STDOUT_SHA256[cmd] for cmd in (
        "asymptotic --r 0.9 --d 1000000", "certify --n 12 --p 5 --a 8")})
    for cmd in [fresh[0], "asymptotic --r 0.9 --d 1000000",
                fresh[1], "certify --n 12 --p 5 --a 8"]:
        code, out, _ = _run(capsys, cmd.split())
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == want[cmd], cmd


def test_asymptotic_output(capsys):
    code, out, _ = _run(capsys, ["asymptotic", "--r", "0.9", "--d", "1000000"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["params"]["n"], doc["params"]["p"]) == ("996", "389")
    assert doc["base"]["monotone"] is True
    assert doc["base"]["c"] == 1.0262224263358661
    # ln of the count ratio over d^(1/(2k)) = 1000
    assert doc["growth_exponent"] == 0.022779283782807924


def test_certify_through_the_planner(capsys):
    code, out, _ = _run(capsys, ["certify", "--r", "0.9", "--d", "256"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["p"], doc["a"], doc["rank"]) == ("12", "5", "8", "330")


def test_check_failed_exits_1_on_stderr(capsys):
    code, out, err = _run(capsys, ["find-d0", "--r", "0.55"])
    assert code == 1 and out == ""
    assert err.startswith("check failed: no d0 found below cap")


@pytest.mark.parametrize("argv, message", [
    (["--d-min", "1"], "--d-min below 2"),
    (["--d-min", "5", "--d-max", "4"], "--d-max below --d-min"),
])
def test_upper_bad_range_exit_2(capsys, argv, message):
    code, out, err = _run(capsys, ["upper", *argv])
    assert code == 2 and out == ""
    assert err == "error: %s\n" % message


@pytest.mark.parametrize("argv", [
    ["upper", "--d-min", str(10 ** 400), "--d-max", str(10 ** 400)],
    ["plan", "--shrinking", "--d", "100", "--c-phi", "1e308"],
    ["bound", "--shrinking", "--d", "100", "--c-phi", "1e308"],
])
def test_float_overflow_exit_2(capsys, argv):
    # a float that overflows is a computational error, not a false check
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_shrinking_window_past_float_range_exit_1(capsys):
    # c_phi = 0.001 at d = 100 gives k = 3016, whose window 4^6032 is far
    # past a float: the chain records it by bit lengths, so plan refuses
    # with the window message and bound prints its failing report
    argv = ["--shrinking", "--d", "100", "--c-phi", "0.001"]
    code, out, err = _run(capsys, ["plan", *argv])
    assert code == 1 and out == ""
    assert err == ("check failed: d below threshold d0: no admissible n: d=100 "
                   "requires d > 4^6032\n")
    code, out, err = _run(capsys, ["bound", *argv])
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert doc["k"] == "3016" and doc["n"] is None and not doc["passes"]
    window = doc["checks"][-1]
    assert window == {"name": "dimension_window", "lhs": 7.0, "rhs": 12064.0,
                      "passed": False}


def test_planners_refuse_before_solving_a0(capsys, monkeypatch):
    # find-d0's cap (k >= 14 from the first grid point) and plan's empty
    # window are decided without a0; the radius check still comes first
    from borsuk import params

    def unsolved(rsq, k):
        raise AssertionError("solve_a0 called at k = %d" % k)

    monkeypatch.setattr(params, "solve_a0", unsolved)
    for r in ("0.5045", "0.5000000001"):
        start = time.perf_counter()
        code, out, err = _run(capsys, ["find-d0", "--r", r])
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert err.startswith("check failed: no d0 found below cap")
    code, out, err = _run(capsys, ["plan", "--r", "0.500001", "--d", "256"])
    assert code == 2 and out == ""
    assert err.startswith("error: no admissible n")
    code, out, err = _run(capsys, ["plan", "--r", "0.4", "--d", "10"])
    assert code == 2 and out == ""
    assert err.startswith("error: radius not above one half")


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
    ("--r", "0.9", "--d", "400"):
        "9273eaef1ff5508303574bc4a9212f8a14e3613adde2eb57bdf31e8d41506654",
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


@pytest.mark.parametrize("fmt", ["csv", "text", "json"])
def test_build_format_is_a_usage_error(tmp_path, capsys, fmt):
    # the point file has one layout; --format would be ignored
    out_file = tmp_path / "points.txt"
    with pytest.raises(SystemExit) as exc:
        main(["build", "--r", "0.9", "--d", "256", "--format", fmt,
              "--out", str(out_file)])
    assert exc.value.code == 2
    cap = capsys.readouterr()
    assert cap.out == "" and "unrecognized arguments: --format" in cap.err
    assert not out_file.exists()


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


def test_build_refuses_dimension_before_sigma(capsys, monkeypatch):
    # r = 0.9 at d = 590 plans n = 24, whose images need 24**2 + 24 + 1
    # coordinates: refused before Sigma(24), 1.35 million rows, is built
    from borsuk import construction

    def no_build(*args):
        raise AssertionError("Sigma built before the dimension check")

    monkeypatch.setattr(construction, "sigma_matrix", no_build)
    code, out, err = _run(capsys, ["build", "--r", "0.9", "--d", "590"])
    assert code == 2 and out == ""
    assert "ambient dimension insufficient: d=590 < 601" in err


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


# every float option, given a value that is not finite: each crashed
# with an OverflowError traceback and exit 1 while argparse took any float
_NON_FINITE = {
    "plan": ["plan", "--d", "256", "--r"],
    "find-d0": ["find-d0", "--r"],
    "bound": ["bound", "--shrinking", "--d", "1000000000000", "--c-phi"],
    "upper": ["upper", "--c-r"],
}


@pytest.mark.parametrize("command", sorted(_NON_FINITE))
def test_non_finite_float_is_a_usage_error(command):
    argv = [sys.executable, "-m", "borsuk", *_NON_FINITE[command], "inf"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=child_env())
    assert proc.returncode == 2 and proc.stdout == ""
    assert "error: argument" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("value", ["-inf", "nan", "NaN", "1e999", "x"])
@pytest.mark.parametrize("command", sorted(_NON_FINITE))
def test_float_options_refuse_non_finite_values(capsys, command, value):
    *argv, option = _NON_FINITE[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "%s=%s" % (option, value)])  # "-inf" alone reads as an option
    assert exc.value.code == 2
    assert "invalid finite float value: %r" % value in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "borsuk", "plan", "--r", "0.9", "--d", "256"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == "12"


@pytest.mark.parametrize("value, name", [
    (np.int64(3), "int64"), (np.float32(0.5), "float32"), ({1}, "set"),
    (b"x", "bytes"), ([object()], "object"),
])
def test_jsonable_refuses_unknown_types(value, name):
    # every command's result is built of the types _jsonable names; any
    # other, numpy scalars included, is a TypeError, not a str() fallback
    with pytest.raises(TypeError, match="no JSON form for %s$" % name):
        cli._jsonable({"key": value})


def _fresh_interpreter(script):
    """Words printed by script run in a new interpreter with borsuk on its path."""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_certify_n16_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on first use, 15-37 ms once per process;
    # nothing on the certify path calls it, so a fresh interpreter never
    # loads the module
    script = ("import contextlib, io, sys\n"
              "from borsuk.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = main(['certify', '--n', '16', '--p', '5', '--a', '4'])\n"
              "print(code, 'numpy.ma' in sys.modules)\n")
    assert _fresh_interpreter(script) == ["0", "False"]


def test_certify_leaves_numpy_random_unimported():
    # the seeded scan orders and pools are hashed, not drawn: importing
    # numpy.random cost a fresh certify-n16 13-20 ms and ~6 MB.  The
    # benchmark's certify triples: (16, 5, 4) and the eight desk checks
    triples = [(16, 5, 4), (4, 2, 4), (4, 3, 8), (8, 3, 4), (8, 5, 12),
               (8, 7, 20), (12, 5, 8), (12, 7, 16), (12, 11, 32)]
    script = ("import contextlib, io, sys\n"
              "from borsuk.cli import main\n"
              "codes = []\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    for n, p, a in %r:\n"
              "        codes.append(main(['certify', '--n', str(n), '--p', str(p),\n"
              "                           '--a', str(a)]))\n"
              "print(*codes, 'numpy.random' in sys.modules, 'numpy.ma' in sys.modules)\n"
              % triples)
    assert _fresh_interpreter(script) == ["0", "1"] + ["0"] * 7 + ["False", "False"]


def test_optimal_poly_imports_no_numpy():
    # the exact enumeration runs in Fractions; numpy was ~0.11 s of
    # importing borsuk.optimality while its numeric class check lived there
    script = ("import contextlib, io, sys\n"
              "from borsuk.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = main(['optimal-poly', '--m', '6', '--n', '3'])\n"
              "print(code, 'numpy' in sys.modules)\n")
    assert _fresh_interpreter(script) == ["0", "False"]
