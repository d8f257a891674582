"""Command-line behavior: exit codes, reports, files, determinism."""
from __future__ import annotations

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from vpadvisor import DEFAULT_ENUMERATION_BUDGET, ExactConfig, save_instance, solve_exact, tpcc
from vpadvisor import cli, mip
from vpadvisor.cli import main

from conftest import overflow_instance, random_instance, t1_instance


@pytest.fixture
def t1_path(tmp_path):
    path = tmp_path / "t1.json"
    save_instance(t1_instance(), str(path))
    return str(path)


@pytest.fixture
def small_path(tmp_path):
    path = tmp_path / "small.json"
    save_instance(random_instance(7, site_count=2), str(path))
    return str(path)


def _strip_runtime(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("runtime")
    )


# ---------------------------------------------------------------------------
# gen


def test_gen_tpcc_preset(tmp_path, capsys):
    out = tmp_path / "tpcc.json"
    assert main(["gen", str(out), "--preset", "tpcc"]) == 0
    assert "92 attributes" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert len(doc["tables"]) == 9


def test_gen_random_is_seeded(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    assert main(["gen", str(a), "--seed", "5"]) == 0
    assert main(["gen", str(b), "--seed", "5"]) == 0
    assert main(["gen", str(c), "--seed", "6"]) == 0
    assert a.read_text() == b.read_text()
    assert a.read_text() != c.read_text()


def test_gen_invalid_params_is_usage_error(tmp_path, capsys):
    out = tmp_path / "never.json"
    assert main(["gen", str(out), "--max-attrs", "0"]) == 1
    assert not out.exists()
    assert "invalid request" in capsys.readouterr().err


def test_negative_seed_is_usage_error(tmp_path, small_path, capsys):
    # numpy would refuse the seed with a message that names no flag
    out = tmp_path / "never.json"
    assert main(["gen", str(out), "--seed", "-1"]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == "invalid request: seed must be nonnegative\n"
    assert main(["solve", small_path, "--algo", "sa", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "invalid request: seed must be nonnegative\n"


@pytest.mark.parametrize("widths", ["4,,8", "a"])
def test_malformed_widths_is_usage_error_naming_the_flag(tmp_path, capsys, widths):
    # int() would refuse the text with a message that names no flag
    out = tmp_path / "never.json"
    assert main(["gen", str(out), "--widths", widths]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"vpadvisor gen: argument --widths: expected comma-separated integers, got '{widths}'\n")


@pytest.mark.parametrize("flags", [
    pytest.param(["--sites", "0"], id="no-sites"),
    pytest.param(["--preset", "tpcc", "--lambda", "2"], id="tpcc-lambda"),
    pytest.param(["--p", "nan"], id="nan-penalty"),
    pytest.param(["--p", "1e308", "--update-percent", "50"], id="overflowing-costs"),
])
def test_gen_invalid_settings_write_nothing(tmp_path, capsys, flags):
    out = tmp_path / "never.json"
    assert main(["gen", str(out), *flags]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("invalid input:\n")
    assert len(_violation_lines(err)) == 1


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


# ---------------------------------------------------------------------------
# solve


def test_solve_brute_t1_objective(t1_path, capsys):
    assert main(["solve", t1_path, "--algo", "brute"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"objective \(A \+ pB\)\s+80\b", out)
    assert "status    optimal" in out


def test_solve_report_lists_all_components(small_path, capsys):
    assert main(["solve", small_path, "--algo", "exact"]) == 0
    out = capsys.readouterr().out
    for token in (
        "read access (A_R)",
        "write access (A_W)",
        "transfer (B)",
        "objective (A + pB)",
        "site loads",
        "max load (m)",
        "score",
        "runtime",
        "x10^5",
        "x10^6",
    ):
        assert token in out


def test_solve_sa_seeded_reports_identical(small_path, capsys):
    assert main(["solve", small_path, "--algo", "sa", "--seed", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["solve", small_path, "--algo", "sa", "--seed", "1"]) == 0
    second = capsys.readouterr().out
    assert _strip_runtime(first) == _strip_runtime(second)


def test_solve_writes_partitioning_that_evals_identically(small_path, tmp_path, capsys):
    part = tmp_path / "layout.json"
    assert main(["solve", small_path, "--algo", "brute", "--out", str(part)]) == 0
    solve_out = _strip_runtime(capsys.readouterr().out)
    assert main(["eval", small_path, str(part)]) == 0
    eval_out = capsys.readouterr().out
    solve_obj = re.search(r"objective \(A \+ pB\)\s+(\S+)", solve_out).group(1)
    eval_obj = re.search(r"objective \(A \+ pB\)\s+(\S+)", eval_out).group(1)
    assert solve_obj == eval_obj


def test_solve_structured_record(small_path, capsys):
    assert main(["solve", small_path, "--algo", "exact", "--format", "structured"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["command"] == "solve"
    assert record["solver"] == "exact"
    assert len(record["fingerprint"]) == 64
    assert record["report"]["status"] == "optimal"
    assert record["report"]["partitioning"] is not None
    assert "timestamp" in record
    assert record["breakdown"]["objective"] > 0


def test_solve_overrides_change_pricing(small_path, capsys):
    assert main(["solve", small_path, "--algo", "brute", "--format", "structured"]) == 0
    base = json.loads(capsys.readouterr().out)
    assert (
        main(
            [
                "solve",
                small_path,
                "--algo",
                "brute",
                "--p",
                "0",
                "--lambda",
                "1",
                "--format",
                "structured",
            ]
        )
        == 0
    )
    overridden = json.loads(capsys.readouterr().out)
    assert overridden["breakdown"]["score"] != base["breakdown"]["score"]


def test_solve_runs_flag(small_path, capsys):
    assert main(
        ["solve", small_path, "--algo", "sa", "--runs", "3", "--format", "structured"]
    ) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["config"]["runs"] == 3


def test_solve_timeout_without_solution_exits_3(tmp_path, capsys):
    path = tmp_path / "pair.json"
    save_instance(t1_instance(), str(path))
    code = main(
        [
            "solve",
            str(path),
            "--algo",
            "exact",
            "--disjoint",
            "--time-limit",
            "0",
            "--pin",
            "R.a1=0",
            "--pin",
            "R.a2=1",
        ]
    )
    assert code == 3
    assert "no solution" in capsys.readouterr().err


def test_solve_rejects_malformed_instance(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["solve", str(bad), "--algo", "sa"]) == 2
    assert "invalid input" in capsys.readouterr().err


def test_solve_rejects_non_finite_frequency(tmp_path, capsys):
    path = tmp_path / "inf.json"
    save_instance(t1_instance(), str(path))
    doc = json.loads(path.read_text())
    doc["transactions"][0]["queries"][0]["frequency"] = math.inf
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path), "--algo", "sa"]) == 2
    assert "finite" in capsys.readouterr().err


def test_overflowing_instance_exits_2(tmp_path, capsys):
    path = tmp_path / "overflow.json"
    save_instance(overflow_instance(), str(path))
    layout = tmp_path / "layout.json"
    layout.write_text(json.dumps({"x": {"t1": 0}, "y": {"S.b": [0]}}))
    for argv in (["solve", str(path)], ["solve", str(path), "--algo", "exact"],
                 ["eval", str(path), str(layout)], ["export", str(path)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert "invalid input" in captured.err and "overflow" in captured.err
        assert captured.out == ""


def _violation_lines(err: str):
    """The bullet lines of an ``invalid input`` report on stderr."""
    assert err.splitlines()[0] == "invalid input:"
    return [line[len("  - "):] for line in err.splitlines() if line.startswith("  - ")]


def test_each_violation_is_printed_once(tmp_path, capsys):
    path = tmp_path / "two.json"
    save_instance(t1_instance(), str(path))
    doc = json.loads(path.read_text())
    doc["transactions"][0]["queries"][0]["frequency"] = math.inf
    doc["tables"][0]["attributes"][1]["width"] = 0
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path), "--algo", "sa"]) == 2
    err = capsys.readouterr().err
    violations = _violation_lines(err)
    assert len(violations) == 2
    assert any("frequency" in v for v in violations) and any("width" in v for v in violations)
    for violation in violations:
        assert err.count(violation) == 1

    overflow = tmp_path / "overflow.json"
    save_instance(overflow_instance(), str(overflow))
    assert main(["export", str(overflow)]) == 2
    err = capsys.readouterr().err
    [violation] = _violation_lines(err)
    assert "overflow" in violation and err.count(violation) == 1


def test_solve_rejects_bad_pin_argument(small_path):
    assert main(["solve", small_path, "--algo", "exact", "--pin", "nope"]) == 1
    assert main(["solve", small_path, "--algo", "sa", "--pin", "tab0.c0=0"]) == 1


@pytest.mark.parametrize("argv", [
    pytest.param(["solve", "--algo", "exact", "--time-limit", "nan"], id="exact-nan-limit"),
    pytest.param(["solve", "--algo", "exact", "--gap", "nan"], id="exact-nan-gap"),
    pytest.param(["solve", "--algo", "sa", "--time-limit", "nan"], id="sa-nan-limit"),
    pytest.param(["compare", "--mode", "replication", "--time-limit", "nan"],
                 id="compare-nan-limit"),
    # the same attribute on both sites, then two attributes that NewOrder
    # reads together: no disjoint layout holds either pair of pins
    pytest.param(["solve", "--algo", "exact", "--disjoint",
                  "--pin", "WAREHOUSE.W_ID=0", "--pin", "WAREHOUSE.W_ID=1"], id="pins-one-attribute"),
    pytest.param(["solve", "--algo", "exact", "--disjoint",
                  "--pin", "WAREHOUSE.W_TAX=0", "--pin", "DISTRICT.D_TAX=1"], id="pins-co-read"),
])
def test_invalid_requests_on_tpcc_exit_1(tmp_path, capsys, argv):
    path = tmp_path / "tpcc.json"
    save_instance(tpcc(site_count=2), str(path))
    assert main([argv[0], str(path), *argv[1:]]) == 1
    assert "invalid request" in capsys.readouterr().err


def test_pin_names_a_column_whose_name_holds_an_equals_sign(tmp_path):
    # the instance format accepts any non-empty name; SITE is an integer,
    # so it follows the last "="
    inst = t1_instance()
    inst = replace(inst, attributes=(replace(inst.attributes[0], name="k=v"), inst.attributes[1]))
    path, layout = tmp_path / "eq.json", tmp_path / "layout.json"
    save_instance(inst, str(path))
    argv = ["solve", str(path), "--algo", "exact", "--pin", "R.k=v=1", "--out", str(layout)]
    assert main(argv) == 0
    assert 1 in json.loads(layout.read_text())["y"]["R.k=v"]


# Each exit path that README documents: (argv, exit code, stream, text the
# stream holds); "{small}", "{t1}", "{layout}" and "{missing}" name files.
EXIT_PATHS = {
    "pin-site-not-integer": (
        ["solve", "{small}", "--algo", "exact", "--pin", "tab0.c0=x"], 1, "err",
        "--pin site must be an integer, got 'tab0.c0=x'\n"),
    "pin-site-out-of-range": (
        ["solve", "{small}", "--algo", "exact", "--pin", "tab0.c0=2"], 1, "err",
        "--pin site out of range [0, 2): 'tab0.c0=2'\n"),
    "group-is-unknown": (
        ["solve", "{small}", "--group"], 1, "err",
        "vpadvisor: unrecognized arguments: --group\n"),
    "disjoint-with-sa": (
        ["solve", "{small}", "--algo", "sa", "--disjoint"], 1, "err",
        "--disjoint is only supported with --algo exact or brute\n"),
    "pin-with-sa": (
        ["solve", "{small}", "--algo", "sa", "--pin", "tab0.c0=0"], 1, "err",
        "--pin is only supported with --algo exact\n"),
    "disjoint-and-pin-with-sa": (
        ["solve", "{small}", "--algo", "sa", "--disjoint", "--pin", "tab0.c0=0"], 1, "err",
        "--disjoint is only supported with --algo exact or brute\n"),
    "pin-with-brute": (
        ["solve", "{small}", "--algo", "brute", "--pin", "tab0.c0=0"], 1, "err",
        "--pin is only supported with --algo exact\n"),
    "zero-runs": (
        ["solve", "{small}", "--runs", "0"], 1, "err",
        "invalid request: runs must be at least 1\n"),
    "eval-structured": (
        ["eval", "{t1}", "{layout}", "--format", "structured"], 0, "out",
        '"command": "eval"'),
    "brute-over-budget": (
        ["solve", "{small}", "--algo", "brute", "--budget", "1"], 1, "err",
        "refused: enumeration would visit "),
    "missing-file": (
        ["solve", "{missing}"], 1, "err", "i/o error: "),
    "latency-charge-line": (
        ["solve", "{small}", "--p-latency", "5"], 0, "out", "\n  latency charge      "),
}


@pytest.mark.parametrize("case", list(EXIT_PATHS))
def test_documented_exit_paths(case, small_path, t1_path, tmp_path, capsys):
    argv, code, stream, text = EXIT_PATHS[case]
    layout = tmp_path / "layout.json"
    layout.write_text(json.dumps({"x": {"t1": 0}, "y": {"R.a1": [0], "R.a2": [1]}}))
    files = {"{small}": small_path, "{t1}": t1_path, "{layout}": str(layout),
             "{missing}": str(tmp_path / "absent.json")}
    assert main([files.get(arg, arg) for arg in argv]) == code
    captured = capsys.readouterr()
    assert text in (captured.err if stream == "err" else captured.out)
    if stream == "out":
        assert captured.err == ""
    else:
        assert captured.out == "" and captured.err.startswith(text.splitlines()[0])
    if case == "eval-structured":
        record = json.loads(captured.out)
        assert record["breakdown"]["score"] > 0.0 and record["solver"] == "eval"


# ---------------------------------------------------------------------------
# eval


def test_eval_tampered_layout_reports_violations(small_path, tmp_path, capsys):
    part = tmp_path / "layout.json"
    assert main(["solve", small_path, "--algo", "brute", "--out", str(part)]) == 0
    capsys.readouterr()
    doc = json.loads(part.read_text())
    victim = next(iter(doc["y"]))
    doc["y"][victim] = []  # drop every replica of one attribute
    part.write_text(json.dumps(doc))
    code = main(["eval", small_path, str(part)])
    assert code == 2
    assert "invalid input" in capsys.readouterr().err


def test_eval_rejects_a_partitioning_that_is_not_json(small_path, tmp_path, capsys):
    part = tmp_path / "layout.json"
    part.write_text("{not json")
    assert main(["eval", small_path, str(part)]) == 2
    assert "partitioning document is not valid JSON" in capsys.readouterr().err


def test_instance_with_a_table_that_is_not_an_object_is_rejected(small_path, tmp_path, capsys):
    with open(small_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["tables"][0] = [doc["tables"][0]["name"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["solve", str(bad)]) == 2
    assert "tables[0]: expected an object, got list" in capsys.readouterr().err


def test_eval_single_site_has_zero_transfer(t1_path, tmp_path, capsys):
    part = tmp_path / "single.json"
    assert main(["solve", t1_path, "--algo", "exact", "--sites", "1", "--out", str(part)]) == 0
    capsys.readouterr()
    assert main(["eval", t1_path, str(part), "--sites", "1"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"transfer \(B\)\s+0\b", out)


# ---------------------------------------------------------------------------
# compare


def test_compare_replication_on_small_instance(small_path, capsys):
    assert main(["compare", small_path, "--mode", "replication", "--algo", "brute"]) == 0
    out = capsys.readouterr().out
    assert "replicated" in out and "disjoint" in out
    ratio = float(re.search(r"ratio \(score\)\s+([0-9.]+)", out).group(1))
    assert ratio <= 1.0 + 1e-9


@pytest.mark.parametrize("command", [["solve"], ["compare", "--mode", "replication"]])
def test_brute_force_ignores_the_exact_solver_flags(small_path, capsys, command):
    # brute force reads neither --time-limit nor --gap, so it accepts any
    # value the parser does
    argv = [command[0], small_path, *command[1:], "--algo", "brute",
            "--time-limit", "nan", "--gap", "-1"]
    assert main(argv) == 0
    assert "invalid request" not in capsys.readouterr().err


def test_compare_placement_read_only_instance_is_flat(tmp_path, capsys):
    path = tmp_path / "ro.json"
    save_instance(random_instance(3, update_percent=0.0), str(path))
    assert main(["compare", str(path), "--mode", "placement", "--algo", "brute"]) == 0
    out = capsys.readouterr().out
    ratio = float(re.search(r"ratio \(score\)\s+([0-9.]+)", out).group(1))
    assert ratio == pytest.approx(1.0, abs=1e-9)


def test_compare_structured(small_path, capsys):
    assert main(
        [
            "compare",
            small_path,
            "--mode",
            "replication",
            "--algo",
            "brute",
            "--format",
            "structured",
        ]
    ) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["mode"] == "replication"
    assert record["left"]["label"] == "replicated"
    assert record["score_ratio"] <= 1.0 + 1e-9


ECHO_CASES = {
    "sa": (["solve", "--algo", "sa", "--gap", "0.5", "--seed", "5", "--runs", "2",
            "--time-limit", "30", "--budget", "100"],
           {"algo": "sa", "seed": 5, "runs": 2, "time_limit": 30.0}),
    "exact": (["solve", "--algo", "exact", "--seed", "5", "--runs", "3", "--time-limit", "30",
               "--gap", "0.01", "--pin", "tab0.c0=1", "--budget", "100"],
              {"algo": "exact", "time_limit": 30.0, "gap": 0.01, "pin": ["tab0.c0=1"]}),
    "brute": (["solve", "--algo", "brute", "--time-limit", "0.0001", "--seed", "5",
               "--gap", "0.5", "--disjoint"],
              {"algo": "brute", "budget": DEFAULT_ENUMERATION_BUDGET, "disjoint": True}),
    "compare-exact": (["compare", "--mode", "replication", "--time-limit", "30",
                       "--gap", "0.01", "--budget", "100"],
                      {"algo": "exact", "time_limit": 30.0, "gap": 0.01}),
    "compare-brute": (["compare", "--mode", "replication", "--algo", "brute",
                       "--time-limit", "30", "--gap", "0.5"],
                      {"algo": "brute", "budget": DEFAULT_ENUMERATION_BUDGET}),
}


@pytest.mark.parametrize("case", list(ECHO_CASES))
def test_record_config_lists_only_what_the_solver_applies(small_path, capsys, case):
    argv, want = ECHO_CASES[case]
    assert main([argv[0], small_path, *argv[1:], "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["config"] == want


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_zero_cost_compare_has_undefined_ratios(tmp_path, capsys):
    inst = random_instance(7, site_count=2)
    path = tmp_path / "zero.json"
    save_instance(replace(inst, queries=tuple(replace(q, frequency=0.0) for q in inst.queries)),
                  str(path))
    argv = ["compare", str(path), "--mode", "replication", "--time-limit", "30"]
    assert main(argv + ["--format", "structured"]) == 0
    record = _strict_json(capsys.readouterr().out)
    assert record["left"]["score"] == 0.0 and record["right"]["score"] == 0.0
    assert record["score_ratio"] is None and record["objective_ratio"] is None
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert re.search(r"^ratio \(score\)      n/a$", out, re.M)
    assert re.search(r"^ratio \(objective\)  n/a$", out, re.M)


def test_infinite_time_limit_is_null_in_the_record(small_path, capsys):
    argv = ["solve", small_path, "--algo", "sa", "--time-limit", "inf", "--format", "structured"]
    assert main(argv) == 0
    record = _strict_json(capsys.readouterr().out)
    assert record["config"] == {"algo": "sa", "time_limit": None}
    assert record["report"]["bound_gap"] is None


def test_compare_shares_one_time_limit(small_path, monkeypatch):
    limits = []

    def spy(instance, config):
        limits.append(config.time_limit)
        return solve_exact(instance, config)

    monkeypatch.setattr(mip, "solve_exact", spy)
    assert main(["compare", small_path, "--mode", "replication", "--time-limit", "10"]) == 0
    assert limits[0] == 5.0
    assert 5.0 <= limits[1] < 10.0


def test_compare_requires_mode(small_path):
    assert main(["compare", small_path]) == 1


# ---------------------------------------------------------------------------
# export


def test_export_deterministic_bytes(t1_path, tmp_path, capsys):
    m1, m2 = tmp_path / "m1.mps", tmp_path / "m2.mps"
    assert main(["export", t1_path, "--fmt", "free-mps", "--out", str(m1)]) == 0
    assert main(["export", t1_path, "--fmt", "free-mps", "--out", str(m2)]) == 0
    assert m1.read_bytes() == m2.read_bytes()
    assert "11 variables" in capsys.readouterr().out


def test_export_lp_to_stdout(t1_path, capsys):
    assert main(["export", t1_path, "--fmt", "lp-text"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("\\")
    assert "Minimize" in out


# ---------------------------------------------------------------------------
# config file via environment


def test_env_config_supplies_defaults(small_path, tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "defaults.json"
    cfg.write_text(json.dumps({"lambda": 1.0, "p": 0}))
    monkeypatch.setenv("VPADVISOR_CONFIG", str(cfg))
    assert main(["solve", small_path, "--algo", "brute", "--format", "structured"]) == 0
    with_env = json.loads(capsys.readouterr().out)
    monkeypatch.delenv("VPADVISOR_CONFIG")
    assert main(
        [
            "solve",
            small_path,
            "--algo",
            "brute",
            "--lambda",
            "1",
            "--p",
            "0",
            "--format",
            "structured",
        ]
    ) == 0
    explicit = json.loads(capsys.readouterr().out)
    assert with_env["breakdown"]["score"] == explicit["breakdown"]["score"]


def test_env_config_reaches_each_command_that_has_the_flag(small_path, tmp_path, capsys,
                                                         monkeypatch):
    cfg = tmp_path / "defaults.json"
    cfg.write_text(json.dumps({"seed": 5, "sites": 3, "runs": 2, "time_limit": 7, "gap": 0.01}))
    plain, with_env = tmp_path / "plain.json", tmp_path / "env.json"
    assert main(["gen", str(plain), "--seed", "5", "--sites", "3"]) == 0
    capsys.readouterr()
    assert main(["export", small_path, "--sites", "3"]) == 0
    three_sites = capsys.readouterr().out
    monkeypatch.setenv("VPADVISOR_CONFIG", str(cfg))
    assert main(["gen", str(with_env)]) == 0
    assert with_env.read_bytes() == plain.read_bytes()
    capsys.readouterr()

    def record(*argv):
        assert main([*argv, "--format", "structured"]) == 0
        return json.loads(capsys.readouterr().out)["config"]

    assert record("solve", small_path) == {"algo": "sa", "seed": 5, "runs": 2, "time_limit": 7}
    assert record("solve", small_path, "--seed", "1")["seed"] == 1
    assert record("compare", small_path, "--mode", "replication") == {
        "algo": "exact", "time_limit": 7, "gap": 0.01}
    # export has no --seed, --runs, --time-limit or --gap
    assert main(["export", small_path]) == 0
    assert capsys.readouterr().out == three_sites


def test_env_config_rejects_unknown_keys(small_path, tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "defaults.json"
    cfg.write_text(json.dumps({"lambda": 1.0, "pp": 3}))
    monkeypatch.setenv("VPADVISOR_CONFIG", str(cfg))
    assert main(["solve", small_path, "--algo", "brute"]) == 2
    assert "unknown keys" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    (None, "cannot read VPADVISOR_CONFIG file"),
    ("{not json", "is not valid JSON"),
    ("[1, 2]", "must hold a JSON object"),
])
def test_env_config_rejects_a_file_without_a_json_object(text, message, small_path, tmp_path,
                                                         capsys, monkeypatch):
    cfg = tmp_path / "defaults.json"
    if text is not None:  # None leaves the named file missing
        cfg.write_text(text)
    monkeypatch.setenv("VPADVISOR_CONFIG", str(cfg))
    assert main(["solve", small_path]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("seed", 1.5), ("sites", 2.5), ("sites", True), ("runs", 2.5), ("lambda", [1]),
])
def test_env_config_rejects_mistyped_values(key, value, small_path, tmp_path, capsys,
                                            monkeypatch):
    cfg = tmp_path / "defaults.json"
    cfg.write_text(json.dumps({key: value}))
    monkeypatch.setenv("VPADVISOR_CONFIG", str(cfg))
    assert main(["solve", small_path]) == 2
    assert f"'{key}' must be" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# standard output


def test_exact_solve_keeps_solver_messages_off_stdout(tmp_path, capfd):
    # HiGHS prints "transformNewIntegerFeasibleSolution" lines straight
    # to file descriptor 1 on this instance.
    inst = random_instance(
        12, site_count=3, cost_weight=0.5, update_percent=60.0, transaction_count=4,
        latency_penalty=40.0,
    )
    solve_exact(inst, ExactConfig(gap=0.0))
    assert capfd.readouterr().out == ""
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    argv = ["solve", str(path), "--algo", "exact", "--gap", "0", "--format", "structured"]
    assert main(argv) == 0
    record = json.loads(capfd.readouterr().out)
    assert record["report"]["status"] == "optimal"
