import io
import json
from pathlib import Path

import pytest

from mdpwf import dumps, loads
from mdpwf.cli import main


def _write_investment(tmp_path):
    from mdpwf import builtin

    path = tmp_path / "inv.json"
    path.write_text(dumps(builtin("investment")))
    return str(path)


def test_gen_validate_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "inv.json")
    assert main(["gen", "builtin", "investment", "--out", out]) == 0
    assert main(["validate", out]) == 0
    assert capsys.readouterr().out.strip().endswith("ok")


def test_validate_reports_violations(tmp_path, capsys):
    path = tmp_path / "bad.json"
    doc = json.loads(dumps(loads(Path(_write_investment(tmp_path)).read_text())))
    doc["principals"][0]["discount"] = "1/3"  # ties the two discounts
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert "not strictly descending" in capsys.readouterr().out


def test_validate_parse_error_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"states": [], "wat": 1}')
    assert main(["validate", str(path)]) == 1
    assert "wat" in capsys.readouterr().err


def test_optimize_exact_output(tmp_path, capsys):
    path = _write_investment(tmp_path)
    assert main(["optimize", path, "--exact"]) == 0
    out = capsys.readouterr().out
    assert "kappa: 2" in out
    assert "127/9" in out


@pytest.mark.parametrize(
    "name, deviations, tail",
    [
        ("investment", ["0, s0 -> a", "1, s0 -> a"], "s0->b s1->b"),
        (
            "appendix_ex4",
            ["0, s0 -> a", "0, s1 -> c", "0, s4 -> h"],
            "s0->b s1->d s2->f s3->g s4->j s5->k s6->m",
        ),
    ],
)
def test_optimize_prints_prefix_deviations_and_tail(tmp_path, capsys, name, deviations, tail):
    from mdpwf import builtin

    path = tmp_path / "model.json"
    path.write_text(dumps(builtin(name)))
    assert main(["optimize", str(path), "--exact"]) == 0
    lines = capsys.readouterr().out.splitlines()
    k = lines.index("prefix deviations (step, state -> action):")
    assert lines[k + 1:] == [f"  {d}" for d in deviations] + [f"tail: {tail}"]


@pytest.mark.parametrize("mode", [[], ["--exact"]], ids=["float", "exact"])
@pytest.mark.parametrize("name, kappa, bound", [("investment", 2, 2), ("appendix_ex4", 1, 1)])
def test_optimize_reports_kappa_bound(tmp_path, capsys, mode, name, kappa, bound):
    from mdpwf import builtin

    path = tmp_path / "model.json"
    path.write_text(dumps(builtin(name)))
    assert main(["optimize", str(path), "--json"] + mode) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["kappa"], doc["kappa_bound"]) == (kappa, bound)
    assert main(["optimize", str(path)] + mode) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == f"kappa: {kappa} (closed-form bound {bound})"


def test_optimize_json_and_strategy_file(tmp_path, capsys):
    path = _write_investment(tmp_path)
    strat = str(tmp_path / "strategy.json")
    report = str(tmp_path / "report.csv")
    rc = main(["optimize", path, "--exact", "--json", "--out", strat, "--csv", report])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kappa"] == 2
    assert doc["reports"]["s0"]["social_welfare"] == "127/9"
    # the emitted strategy file evaluates back to the same welfare
    capsys.readouterr()
    assert main(["eval", path, "--strategy", strat, "--exact"]) == 0
    out = capsys.readouterr().out
    assert "127/9" in out
    with open(report) as f:
        assert f.readline().startswith("state,Alice,Bob,social_welfare")


def test_optimize_csv_and_strategy_file_bytes(tmp_path, capsys):
    path = _write_investment(tmp_path)
    strat = tmp_path / "strategy.json"
    report = tmp_path / "report.csv"
    assert main(["optimize", path, "--exact", "--out", str(strat), "--csv", str(report)]) == 0
    assert report.read_bytes() == (
        b"state,Alice,Bob,social_welfare,baseline,deviation_gain,kappa\r\n"
        b"s0,89/9,38/9,127/9,13,10/9,2\r\n"
        b"s1,18,9,27,27,0,2\r\n"
    )
    assert strat.read_text() == json.dumps(
        {
            "type": "counting",
            "kappa": 2,
            "prefix": [
                {"step": 0, "state": "s0", "action": "a"},
                {"step": 1, "state": "s0", "action": "a"},
            ],
            "tail": [{"state": "s0", "action": "b"}, {"state": "s1", "action": "b"}],
            "report": {
                "per_principal": ["89/9", "38/9"],
                "social_welfare": "127/9",
                "baseline": "13",
                "deviation_gain": "10/9",
            },
        },
        indent=2,
    ) + "\n"


@pytest.mark.parametrize(
    "command", ["validate", "optimize", "solve", "eval", "oracle", "oracle-auto"]
)
def test_validate_exact_rejects_row_sum_within_float_tolerance(tmp_path, capsys, command):
    path = tmp_path / "near.json"
    path.write_text(json.dumps({
        "states": ["s0"],
        "principals": [{"name": "A", "discount": "1/2"}],
        "actions": [{"state": "s0", "action": "a", "reward": [1], "transitions": [
            {"to": "s0", "prob": "1/3"},
            {"to": "s0", "prob": "1/3"},
            {"to": "s0", "prob": "0.333333333333333"},
        ]}],
        "metadata": {"threshold": "2"},
    }))
    strat = tmp_path / "pos.json"
    strat.write_text(json.dumps({"type": "positional", "actions": [{"state": "s0", "action": "a"}]}))
    argv = {
        "validate": ["validate", str(path)],
        "optimize": ["optimize", str(path)],
        "solve": ["solve", str(path), "--principal", "0"],
        "eval": ["eval", str(path), "--strategy", str(strat)],
        "oracle": ["oracle", str(path), "--threshold", "1"],
        # a bundled threshold is decided exactly, with or without --exact
        "oracle-auto": ["oracle", str(path), "--threshold", "auto"],
    }[command]
    assert main(argv + ["--exact"]) == 1
    captured = capsys.readouterr()
    if command == "validate":
        assert captured.out == (
            "violation: ('s0', 'a') probabilities sum to "
            "2999999999999999/3000000000000000, not 1\n"
        )
    else:
        assert "2999999999999999/3000000000000000, not 1" in captured.err
    assert main(argv) == (1 if command == "oracle-auto" else 0)
    if command == "validate":
        assert capsys.readouterr().out == "ok\n"


def test_optimize_start_filter(tmp_path, capsys):
    path = _write_investment(tmp_path)
    assert main(["optimize", path, "--exact", "--start", "s1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["reports"]) == ["s1"]


def test_eval_positional_and_mixed_files(tmp_path, capsys):
    path = _write_investment(tmp_path)
    pos = tmp_path / "pos.json"
    pos.write_text(json.dumps({
        "type": "positional",
        "actions": [{"state": "s0", "action": "a"}, {"state": "s1", "action": "b"}],
    }))
    assert main(["eval", path, "--strategy", str(pos), "--exact", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"]["s0"]["social_welfare"] == "27/2"
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps({
        "type": "mixed",
        "distributions": [
            {"state": "s0", "choices": [
                {"action": "a", "prob": "3/4"}, {"action": "b", "prob": "1/4"}]},
            {"state": "s1", "choices": [{"action": "b", "prob": 1}]},
        ],
    }))
    assert main(["eval", path, "--strategy", str(mixed), "--exact", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"]["s0"]["social_welfare"] == "41/3"


@pytest.mark.parametrize(
    "doc, location",
    [
        ([1, 2], "at top level"),
        ({"type": "positional"}, "missing field 'actions' (at top level)"),
        ({"type": "positional", "actions": [{"state": "s0"}]}, "at actions[0]"),
        ({"type": "positional", "actions": [[1]]}, "at actions[0]"),
        (
            {"type": "mixed", "distributions": [
                {"state": "s0", "choices": [{"action": "a", "prob": "1/0"}]},
                {"state": "s1", "choices": [{"action": "b", "prob": 1}]},
            ]},
            "at distributions[0].choices[0]",
        ),
        ({"type": "mixed", "distributions": [{"state": "s0"}]}, "at distributions[0]"),
        ({"type": "counting", "kappa": "two", "tail": []}, "at top level"),
        (
            {"type": "counting", "kappa": 1, "prefix": [{"step": 0, "state": "s9"}],
             "tail": [{"state": "s0", "action": "a"}, {"state": "s1", "action": "b"}]},
            "at prefix[0]",
        ),
        (
            {"type": "counting", "kappa": 1,
             "prefx": [{"step": 0, "state": "s0", "action": "a"}],
             "tail": [{"state": "s0", "action": "b"}, {"state": "s1", "action": "b"}]},
            "unknown field 'prefx' (at top level)",
        ),
        ({"type": "positional", "actions": [], "tail": []}, "unknown field 'tail' (at top level)"),
        (
            {"type": "counting", "kappa": 1,
             "prefix": [{"step": 0, "state": "s0", "action": "a", "note": 1}],
             "tail": [{"state": "s0", "action": "b"}, {"state": "s1", "action": "b"}]},
            "unknown field 'note' (at prefix[0])",
        ),
        (
            {"type": "mixed", "distributions": [
                {"state": "s0", "choices": [{"action": "a", "prob": 1, "weight": 2}]},
                {"state": "s1", "choices": [{"action": "b", "prob": 1}]},
            ]},
            "unknown field 'weight' (at distributions[0].choices[0])",
        ),
        (
            {"type": "positional", "actions": [
                {"state": "s0", "action": "a"},
                {"state": "s1", "action": "b"},
                {"state": "s0", "action": "b"},
            ]},
            "state 's0' listed twice (at actions[2])",
        ),
        (
            {"type": "mixed", "distributions": [
                {"state": "s0", "choices": [{"action": "a", "prob": 1}]},
                {"state": "s1", "choices": [{"action": "b", "prob": 1}]},
                {"state": "s1", "choices": [{"action": "b", "prob": 1}]},
            ]},
            "state 's1' listed twice (at distributions[2])",
        ),
        (
            {"type": "positional", "actions": [
                {"state": "s0", "action": "a"},
                {"state": "s1", "action": "b"},
                {"state": "s9", "action": "zz"},
            ]},
            "unknown state 's9' (at actions[2])",
        ),
        (
            {"type": "mixed", "distributions": [
                {"state": "s0", "choices": [{"action": "a", "prob": 1}]},
                {"state": "s1", "choices": [{"action": "b", "prob": 1}]},
                {"state": "s9", "choices": [{"action": "zz", "prob": 1}]},
            ]},
            "unknown state 's9' (at distributions[2])",
        ),
        (
            {"type": "counting", "kappa": 0, "tail": [
                {"state": "s0", "action": "a"},
                {"state": "s9", "action": "zz"},
                {"state": "s1", "action": "b"},
            ]},
            "unknown state 's9' (at tail[1])",
        ),
        (
            {"type": "counting", "kappa": 1,
             "prefix": [{"step": 0, "state": "s0", "action": "a"},
                        {"step": 0, "state": "s0", "action": "b"}],
             "tail": [{"state": "s0", "action": "b"}, {"state": "s1", "action": "b"}]},
            "prefix step 0 at state 's0' listed twice (at prefix[1])",
        ),
    ],
)
def test_eval_malformed_strategy_names_location(tmp_path, capsys, doc, location):
    path = _write_investment(tmp_path)
    strat = tmp_path / "s.json"
    strat.write_text(json.dumps(doc))
    assert main(["eval", path, "--strategy", str(strat)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and location in err


def test_solve_cli(tmp_path, capsys):
    path = _write_investment(tmp_path)
    csv_path = str(tmp_path / "values.csv")
    assert main(["solve", path, "--principal", "1", "--exact", "--csv", csv_path]) == 0
    out = capsys.readouterr().out
    assert "9/2" in out
    with open(csv_path) as f:
        lines = f.read().splitlines()
    assert lines[0] == "state,value,action"
    assert lines[1] == "s0,9/2,a"


@pytest.mark.parametrize(
    "principal, values, strategy",
    [
        (0, {"s0": "11", "s1": "18"}, {"s0": "b", "s1": "b"}),
        (1, {"s0": "9/2", "s1": "9"}, {"s0": "a", "s1": "b"}),
    ],
)
def test_solve_exact_json(tmp_path, capsys, principal, values, strategy):
    path = _write_investment(tmp_path)
    assert main(["solve", path, "--principal", str(principal), "--exact", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"] == values
    assert doc["strategy"] == strategy


def test_spacing_cli(tmp_path, capsys):
    path = _write_investment(tmp_path)
    assert main(["spacing", path, "--bound", "10", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_spaced"] is True


def test_oracle_threshold_auto_pipe(tmp_path, capsys, monkeypatch):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 3 3\n1 -2 3 0\n-1 -2 3 0\n-1 2 -3 0\n")
    red = str(tmp_path / "red.json")
    assert main(["gen", "sat", str(cnf), "--out", red]) == 0
    assert main(["oracle", red, "--threshold", "auto", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["decision"] is True
    assert set(doc["assignment"]) == {"x1", "x2", "x3"}
    # piped form: model arrives on stdin as "-"
    monkeypatch.setattr("sys.stdin", io.StringIO(Path(red).read_text()))
    assert main(["oracle", "-", "--threshold", "auto"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("YES")


def test_oracle_threshold_no_is_exit_zero(tmp_path, capsys):
    path = _write_investment(tmp_path)
    assert main(["oracle", path, "--threshold", "100"]) == 0
    assert capsys.readouterr().out.strip() == "NO"


def test_oracle_counting(tmp_path, capsys):
    path = _write_investment(tmp_path)
    rc = main(["oracle", path, "--mode", "counting", "--horizon", "4", "--exact", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["best_social_welfare"] == "127/9"


def test_gen_random_deterministic(tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    args = ["gen", "random", "--states", "8", "--seed", "5", "--scheme", "list",
            "--discounts", "0.9,0.3"]
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    assert Path(a).read_text() == Path(b).read_text()


def test_bench_cli(tmp_path, capsys):
    out = str(tmp_path / "rq1.csv")
    assert main(["bench", "rq1", "--states", "4,6", "--seeds", "0", "--csv", out]) == 0
    assert "2 rows" in capsys.readouterr().out
    with open(out) as f:
        assert f.readline().startswith("states,")


def test_sweep_cli(tmp_path, capsys):
    path = _write_investment(tmp_path)
    out = str(tmp_path / "sweep.csv")
    rc = main(["sweep", path, "--alpha", "0.5:0.9:0.2", "--beta", "0.1:0.5:0.2", "--csv", out])
    assert rc == 0
    with open(out) as f:
        header = f.readline()
    assert header.startswith("alpha,beta,status")


@pytest.mark.parametrize("step", ["0", "-1/10"])
def test_sweep_rejects_non_positive_step(tmp_path, capsys, step):
    path = _write_investment(tmp_path)
    out = str(tmp_path / "sweep.csv")
    rc = main(["sweep", path, "--alpha", f"0.5:0.6:{step}", "--beta", "0.1:0.5:0.2", "--csv", out])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_non_string_state_name_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    doc = json.loads(dumps(loads(Path(_write_investment(tmp_path)).read_text())))
    doc["actions"][0]["state"] = ["s0"]
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "actions[0]" in err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["badflag"])
    assert err.value.code == 2


def test_domain_errors_exit_1(tmp_path, capsys):
    path = _write_investment(tmp_path)
    assert main(["solve", path, "--principal", "7"]) == 1
    assert "out of range" in capsys.readouterr().err
    assert main(["solve", path, "--principal", "0", "--method", "vi", "--exact"]) == 1
    assert "value iteration" in capsys.readouterr().err
    assert main(["oracle", path, "--start", "nowhere"]) == 1
    assert "unknown state" in capsys.readouterr().err
    assert main(["oracle", path, "--mode", "counting"]) == 1
    assert "--horizon" in capsys.readouterr().err


def test_missing_file_exit_1(capsys):
    assert main(["validate", "/nonexistent/x.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_gen_random_zero_principals_exit_1(capsys):
    assert main(["gen", "random", "--states", "3", "--principals", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "principal" in captured.err


@pytest.mark.parametrize("command", ["validate", "optimize"])
def test_directory_as_model_exit_1(tmp_path, capsys, command):
    assert main([command, str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")
