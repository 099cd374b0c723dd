import csv
import dataclasses
import io
import json
from pathlib import Path

import pytest

from offswitch_lab import SearchConfig, cli, search


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scenario_alice_basic(capsys):
    code, out, _ = run(capsys, "scenario", "alice-basic")
    assert code == 0
    lines = dict(line.split(None, 1) for line in out.strip().splitlines())
    assert lines["eu_act"] == "10"
    assert lines["eu_defer"] == "18"
    assert lines["delta"] == "8"
    assert lines["best"] == "defer"


def test_scenario_alice_noisy_default_epsilon(capsys):
    code, out, _ = run(capsys, "scenario", "alice-noisy")
    assert code == 0
    lines = dict(line.split(None, 1) for line in out.strip().splitlines())
    assert lines["epsilon"] == "0.02"
    assert lines["eu_act"] == "40"
    assert lines["eu_defer"] == "39.68"
    assert lines["eu_learn"] == "40"
    assert lines["best"] == "act"


def test_scenario_epsilon_flag_overrides(capsys):
    code, out, _ = run(capsys, "scenario", "alice-noisy", "--epsilon", "0")
    assert code == 0
    lines = dict(line.split(None, 1) for line in out.strip().splitlines())
    assert lines["eu_defer"] == "40.5"
    assert lines["best"] == "defer"


def test_scenario_alice_confident_threshold(capsys):
    code, out, _ = run(capsys, "scenario", "alice-confident")
    assert code == 0
    lines = dict(line.split(None, 1) for line in out.strip().splitlines())
    assert lines["eu_defer"] == "40.5"
    assert lines["threshold"].startswith("0.0121951")


def test_scenario_json_round_trips(capsys):
    code, out, _ = run(capsys, "scenario", "alice-confident", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["prior"] == {"kind": "uniform", "lo": -10.0, "hi": 90.0}
    assert payload["report"]["eu_defer"] == pytest.approx(40.5)
    assert payload["report"]["threshold_epsilon"] == pytest.approx(0.5 / 41)


def test_scenario_unknown_name_exits_2(capsys):
    code, _, err = run(capsys, "scenario", "alice-bold")
    assert code == 2
    assert "alice-bold" in err


def test_scenario_file_and_unknown_field_rejection(tmp_path, capsys):
    good = tmp_path / "custom.json"
    good.write_text(
        json.dumps(
            {
                "label": "custom",
                "prior": {"kind": "discrete", "atoms": [[-1.0, 0.5], [1.0, 0.5]]},
                "epsilon": 0.1,
            }
        )
    )
    code, out, _ = run(capsys, "scenario", str(good))
    assert code == 0
    assert "custom" in out

    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"label": "x", "prior": {"kind": "uniform", "lo": 0, "hi": 1}, "epsilon": 0, "bogus": 1})
    )
    code, _, err = run(capsys, "scenario", str(bad))
    assert code == 2
    assert "bogus" in err

    bad.write_text(json.dumps({"label": 7, "prior": {"kind": "uniform", "lo": 0, "hi": 1}, "epsilon": 0}))
    code, _, err = run(capsys, "scenario", str(bad))
    assert code == 2
    assert "scenario label must be a JSON string" in err

    not_json = tmp_path / "broken.json"
    not_json.write_text("{not json")
    code, _, err = run(capsys, "scenario", str(not_json))
    assert code == 2


def test_scenario_file_with_rule_and_updater_blocks(tmp_path, capsys):
    path = tmp_path / "ruleful.json"
    path.write_text(
        json.dumps(
            {
                "label": "ruleful",
                "prior": {"kind": "uniform", "lo": -10, "hi": 90},
                "epsilon": 0.02,
                "rule": {"kind": "reu", "risk": {"kind": "power", "k": 2}},
                "updater": {"kind": "faulty", "q": 0.5, "mode": "complement-conditionalization"},
            }
        )
    )
    code, out, _ = run(capsys, "scenario", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rule_analysis"]["rule"] == "reu"
    assert payload["updater_analysis"]["rule"] == "faulty"

    code, out, _ = run(capsys, "scenario", str(path))
    assert code == 0
    assert "rule_value_learning" in out
    assert "updater_voi" in out

    # a table belongs to custom-posterior alone; on another mode the file is rejected
    obj = json.loads(path.read_text())
    obj["updater"]["table"] = 5
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "scenario", str(path))
    assert code == 2
    assert "complement-conditionalization updater takes no 'table' field" in err


def test_sweep_bracket_of_the_crossover(capsys):
    code, out, _ = run(capsys, "sweep", "alice-confident", "--lo", "0", "--hi", "0.05", "--steps", "51")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 51
    assert list(rows[0]) == ["epsilon", "eu_act", "eu_defer", "eu_learn", "best"]
    flips = [
        (float(a["epsilon"]), float(b["epsilon"]))
        for a, b in zip(rows, rows[1:])
        if a["best"] != b["best"]
    ]
    assert len(flips) == 1
    lo, hi = flips[0]
    assert lo == pytest.approx(0.012)
    assert hi == pytest.approx(0.013)
    assert rows[0]["best"] == "defer" and rows[-1]["best"] == "act"


def test_sweep_learning_dominates_deference_in_every_row(capsys):
    code, out, _ = run(capsys, "sweep", "alice-basic", "--lo", "0", "--hi", "1", "--steps", "21")
    assert code == 0
    for row in csv.DictReader(io.StringIO(out)):
        assert float(row["eu_learn"]) >= float(row["eu_defer"]) - 1e-12


def test_sweep_bad_grid_exits_2(capsys):
    code, _, err = run(capsys, "sweep", "alice-basic", "--lo", "0.3", "--hi", "0.3", "--steps", "5")
    assert code == 2
    code, _, err = run(capsys, "sweep", "alice-basic", "--lo", "0", "--hi", "1", "--steps", "1")
    assert code == 2


def test_sweep_out_file_and_determinism(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "alice-confident", "--lo", "0", "--hi", "0.05", "--steps", "11", "--out", str(out_path))
    assert code == 0
    first = out_path.read_bytes()
    run(capsys, "sweep", "alice-confident", "--lo", "0", "--hi", "0.05", "--steps", "11", "--out", str(out_path))
    assert out_path.read_bytes() == first
    assert first.endswith(b"\n")
    assert b"\r" not in first


def test_check_good_and_theorem1(capsys):
    code, out, _ = run(capsys, "check", "good", "--trials", "500", "--seed", "7")
    assert code == 0
    assert out == "good: trials=500 violations=0 seed=7 stream=2\n"
    code, out, _ = run(capsys, "check", "theorem1", "--trials", "500", "--seed", "7")
    assert code == 0
    assert out == "theorem1: trials=500 violations=0 seed=7 stream=2\n"


def test_check_zero_trials_exits_2(capsys):
    code, _, err = run(capsys, "check", "good", "--trials", "0")
    assert code == 2


def test_sweep_steps_bound_at_the_limit_and_past_it(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    limit = str(cli.MAX_SWEEP_STEPS)
    code, _, _ = run(capsys, "sweep", "alice-basic", "--lo", "0", "--hi", "1", "--steps", limit, "--out", str(out_path))
    assert code == 0
    assert len(out_path.read_text().splitlines()) == cli.MAX_SWEEP_STEPS + 1
    code, _, err = run(capsys, "sweep", "alice-basic", "--lo", "0", "--hi", "1", "--steps", str(cli.MAX_SWEEP_STEPS + 1))
    assert code == 2
    assert f"between 2 and {limit} steps" in err


@pytest.mark.parametrize("flag", ["--states", "--acts", "--signals"])
def test_search_size_bounds_at_the_limit_and_past_it(flag, tmp_path, capsys):
    limit = search.MAX_SIZE
    argv = ("search", "--rule", "gamma:2", "--trials", "5", "--seed", "3", "--out", str(tmp_path / "w.json"))
    code, _, _ = run(capsys, *argv, flag, str(limit))
    assert code in (0, 3)
    code, _, err = run(capsys, *argv, flag, str(limit + 1))
    assert code == 2
    assert f"between 1 and {limit}, got {limit + 1}" in err


def test_search_members_bound_at_the_limit_and_past_it(tmp_path, capsys):
    limit = search.MAX_SIZE
    argv = ("search", "--trials", "5", "--seed", "3", "--out", str(tmp_path / "w.json"))
    code, _, _ = run(capsys, *argv, "--rule", f"gamma:{limit}")
    assert code in (0, 3)
    code, _, err = run(capsys, *argv, "--rule", f"gamma:{limit + 1}")
    assert code == 2
    assert f"between 1 and {limit} members" in err


@pytest.mark.parametrize("command", [("check", "good"), ("search", "--rule", "gamma:2")])
def test_trial_bound_past_the_limit_exits_2(command, capsys):
    # a run at the limit is too long for a test; SearchConfig accepts it (test_search)
    code, _, err = run(capsys, *command, "--trials", str(search.MAX_TRIALS + 1))
    assert code == 2
    assert f"trial count must be between 1 and {search.MAX_TRIALS}" in err


def test_search_eu_rejected_with_explanation(capsys):
    code, _, err = run(capsys, "search", "--rule", "eu", "--trials", "10")
    assert code == 2
    assert "Good" in err


def test_search_stay_at_prior_rejected(capsys):
    code, _, err = run(capsys, "search", "--rule", "faulty:stay:0.5", "--trials", "10")
    assert code == 2


def test_search_bad_rule_string_exits_2(capsys):
    code, _, err = run(capsys, "search", "--rule", "reu:cubic", "--trials", "10")
    assert code == 2
    # a number that does not parse is reported with the whole rule, as other parse errors are
    for rule, kind, usage in [
        ("gamma:x", "credal", "gamma or gamma:M"),
        ("gamma:2.5", "credal", "gamma or gamma:M"),
        ("reu:power:abc", "risk-weighted", "reu:identity or reu:power:K"),
        ("reu:power:", "risk-weighted", "reu:identity or reu:power:K"),
        ("faulty:complement:abc", "faulty", "faulty:KIND:Q"),
    ]:
        code, _, err = run(capsys, "search", "--rule", rule, "--trials", "10")
        assert code == 2
        assert err == f"error: cannot parse {kind} rule {rule!r}; use {usage}\n"


def test_search_writes_witnesses_and_verify_witness_replays(tmp_path, capsys):
    out_path = tmp_path / "witnesses.json"
    code, out, _ = run(
        capsys,
        "search", "--rule", "reu:power:2", "--trials", "2000", "--seed", "11",
        "--states", "2", "--acts", "2", "--signals", "2", "--out", str(out_path),
    )
    assert code == 0
    entries = json.loads(out_path.read_text())
    most_negative = f" most_negative_voi={entries[0]['voi']!r}"
    assert out == f"witnesses={len(entries)} trials=2000 seed=11 rule=reu:power:2{most_negative} stream=2\n"
    assert entries
    assert all(e["voi"] < -1e-6 for e in entries)

    code, out, _ = run(capsys, "verify-witness", str(out_path))
    assert code == 0
    assert f"verified {len(entries)} of {len(entries)}" in out


def test_search_without_out_prints_json_to_stdout(capsys):
    code, out, err = run(
        capsys,
        "search", "--rule", "faulty:complement:0.5", "--trials", "200", "--seed", "13",
    )
    assert code == 0
    entries = json.loads(out)
    assert err.startswith(f"witnesses={len(entries)} trials=200 seed=13 rule=faulty:complement:0.5 most_negative_voi=")
    assert err.endswith(" stream=2\n")


def test_search_exhausted_returns_3(capsys):
    # two-state credal searches come up empty; that is the documented exit code
    code, out, err = run(
        capsys, "search", "--rule", "gamma", "--trials", "200", "--seed", "1", "--states", "2",
    )
    assert code == 3
    assert json.loads(out) == []
    assert err == "witnesses=0 trials=200 seed=1 rule=gamma stream=2\n"


def test_verify_witness_rejects_tampered_file(tmp_path, capsys):
    out_path = tmp_path / "w.json"
    run(
        capsys,
        "search", "--rule", "reu:power:2", "--trials", "2000", "--seed", "11",
        "--states", "2", "--acts", "2", "--signals", "2", "--out", str(out_path),
    )
    entries = json.loads(out_path.read_text())
    entries[0]["voi"] = entries[0]["voi"] - 0.5
    out_path.write_text(json.dumps(entries))
    code, out, _ = run(capsys, "verify-witness", str(out_path))
    assert code == 1
    assert "re-evaluation" in out


def test_report_all_rows_pass(capsys):
    code, out, _ = run(capsys, "report")
    assert code == 0
    assert "FAIL" not in out
    assert "| alice-basic | 0 | eu_act | 10 | 10 | pass |" in out
    assert "| alice-basic | 0 | delta | 8 | 8 | pass |" in out
    assert "| alice-confident | 0 | delta | 0.5 | 0.5 | pass |" in out
    assert "0.01219512" in out
    assert "| alice-noisy | 0.02 | eu_defer | 39.68 | 39.68 | pass |" in out
    assert "| alice-noisy | 0.02 | eu_learn | 40 | 40 | pass |" in out
    assert "all pass" in out


def test_report_is_deterministic(capsys):
    _, first, _ = run(capsys, "report")
    _, second, _ = run(capsys, "report")
    assert first == second


@pytest.mark.parametrize("command", ["check", "search"])
@pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
def test_out_of_range_seed_exits_2(command, seed, capsys):
    argv = [command, "good"] if command == "check" else [command, "--rule", "gamma"]
    code, _, err = run(capsys, *argv, "--trials", "10", "--seed", seed)
    assert code == 2
    assert "seed" in err


def test_scenario_file_with_conditionalization_updater(tmp_path, capsys):
    path = tmp_path / "bayes.json"
    path.write_text(
        json.dumps(
            {
                "label": "bayes",
                "prior": {"kind": "uniform", "lo": -10, "hi": 90},
                "epsilon": 0.02,
                "updater": {"kind": "conditionalization"},
            }
        )
    )
    code, out, _ = run(capsys, "scenario", str(path), "--json")
    assert code == 0
    analysis = json.loads(out)["updater_analysis"]
    assert analysis["rule"] == "eu"
    assert analysis["value_learning"] == pytest.approx(40.0, abs=1e-9)
    assert analysis["voi"] == pytest.approx(0.0, abs=1e-9)


RULEFUL_SCENARIO = {
    "label": "typed",
    "prior": {"kind": "discrete", "atoms": [[-1.0, 0.5], [1.0, 0.5]]},
    "epsilon": 0.1,
    "rule": {"kind": "reu", "risk": {"kind": "table", "knots": [[0, 0], [0.5, 0.3], [1, 1]]}},
    "updater": {"kind": "faulty", "q": 0.5, "mode": "custom-posterior",
                "table": {"approve": [0.2, 0.8], "reject": [0.9, 0.1]}},
}


@pytest.mark.parametrize(
    "path,bad",
    [
        (("epsilon",), True),
        (("epsilon",), "0.1"),
        (("prior",), {"kind": "uniform", "lo": "-5", "hi": 90}),
        (("prior",), {"kind": "uniform", "lo": -5, "hi": False}),
        (("prior", "atoms", 0, 1), "0.5"),
        (("rule",), {"kind": "reu", "risk": {"kind": "power", "k": "2"}}),
        (("rule", "risk", "knots", 1, 0), True),
        (("rule",), {"kind": "gamma-maximin", "credal": {"members": [[0.5, "0.5"]]}}),
        (("updater", "q"), "0.5"),
        (("updater", "table", "approve", 0), True),
        (("epsilon",), float("nan")),
        (("prior",), {"kind": "uniform", "lo": float("-inf"), "hi": 90}),
        (("rule",), {"kind": "reu", "risk": {"kind": "power", "k": float("inf")}}),
        (("updater", "q"), float("nan")),
    ],
    ids=lambda v: "/".join(map(str, v)) if isinstance(v, tuple) else None,
)
def test_scenario_numbers_must_be_json_numbers(path, bad, tmp_path, capsys):
    obj = json.loads(json.dumps(RULEFUL_SCENARIO))
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    scenario = tmp_path / "typed.json"
    scenario.write_text(json.dumps(obj))
    code, _, err = run(capsys, "scenario", str(scenario))
    assert code == 2
    assert "must be a JSON number" in err


@pytest.mark.parametrize(
    "path,bad",
    [
        (("voi",), "-0.5"),
        (("trial_index",), True),
        (("trial_index",), 3.0),
        (("problem", "prior", 0), "0.5"),
        (("problem", "acts", 0, "utilities", 1), False),
        (("channel", "likelihood", 0, 0), "0.5"),
        (("rule", "q"), True),
        (("rule", "table", "signal0", 0), "0.5"),
        (("voi",), float("nan")),
        (("voi",), float("-inf")),
        (("channel", "likelihood", 0, 0), float("nan")),
        (("rule", "q"), float("inf")),
    ],
    ids=lambda v: "/".join(map(str, v)) if isinstance(v, tuple) else None,
)
def test_witness_numbers_must_be_json_numbers(path, bad, tmp_path, capsys):
    out_path = tmp_path / "w.json"
    code, _, _ = run(
        capsys, "search", "--rule", "faulty:custom:0.5", "--trials", "20", "--seed", "3", "--out", str(out_path),
    )
    assert code == 0
    entries = json.loads(out_path.read_text())
    target = entries[0]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    out_path.write_text(json.dumps(entries))
    code, _, err = run(capsys, "verify-witness", str(out_path))
    assert code == 2
    assert "must be a JSON number" in err


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda w: w["rule"]["table"].pop("signal1"), "no entry for signal 'signal1'"),
        (lambda w: w["rule"]["table"]["signal0"].append(0.0), "custom posterior for 'signal0' has 4 entries"),
        (lambda w: w["rule"].update(table=list(w["rule"]["table"].values())), "table must be a JSON object"),
        (lambda w: w["rule"]["table"].update(bogus=[1.0, 0.0, 0.0]), "signals not in the channel: ['bogus']"),
        (lambda w: w["problem"].update(states="abc"), "decision problem states must be a JSON list of strings"),
        (lambda w: w["problem"].update(states=["state0", 1, "state2"]), "decision problem states must be a JSON list of strings"),
        (lambda w: w["channel"].update(signals="xy"), "signal channel signals must be a JSON list of strings"),
        (lambda w: w["problem"]["acts"][0].update(name=7), "act name must be a JSON string"),
        # sizes that decode but disagree at replay
        (lambda w: w.update(rule={"kind": "gamma-maximin", "credal": {"members": [[0.25] * 4, [0.4, 0.2, 0.2, 0.2]]}}),
         "credal member has 4 entries for 3 states"),
        (lambda w: w["channel"]["likelihood"].append([0.5, 0.5]), "channel likelihood has 4 entries for 3 states"),
        # vectors that are not JSON lists are neither iterated nor split into characters
        (lambda w: w["problem"].update(prior=5), "decision problem prior must be a JSON list, got 5"),
        (lambda w: w["problem"].update(prior="0.5"), "decision problem prior must be a JSON list, got '0.5'"),
        (lambda w: w["problem"].update(acts=3), "decision problem acts must be a JSON list, got 3"),
        (lambda w: w["problem"]["acts"][0].update(utilities=2.5), "act utilities must be a JSON list, got 2.5"),
        (lambda w: w["channel"].update(likelihood=7), "channel likelihood must be a JSON list, got 7"),
        (lambda w: w["channel"]["likelihood"].__setitem__(0, 7), "channel likelihood must be a JSON list, got 7"),
        (lambda w: w["rule"]["table"].update(signal0="0.5"), "custom posterior for 'signal0' must be a JSON list, got '0.5'"),
        (lambda w: w.update(rule={"kind": "gamma-maximin", "credal": {"members": 3}}),
         "credal set members must be a JSON list, got 3"),
        (lambda w: w.update(rule={"kind": "gamma-maximin", "credal": {"members": [[1.0, 0.0, 0.0], 3]}}),
         "credal member must be a JSON list, got 3"),
        (lambda w: w.update(rule={"kind": "reu", "risk": {"kind": "table", "knots": [[0, 0], 5, [1, 1]]}}),
         "table risk knot must be a JSON list, got 5"),
        (lambda w: w.update(rule={"kind": "reu", "risk": {"kind": "table", "knots": 5}}),
         "table risk knots must be a JSON list, got 5"),
        (lambda w: w["rule"].update(mode="complement-conditionalization"),
         "complement-conditionalization updater takes no 'table' field"),
    ],
    ids=["table-missing-signal", "table-wrong-length", "table-list", "table-extra-signal",
         "states-string", "states-int", "signals-string", "act-name-int", "credal-member-size", "likelihood-rows",
         "prior-int", "prior-string", "acts-int", "utilities-float", "likelihood-int", "likelihood-row-int",
         "table-entry-string", "credal-members-int", "credal-member-int", "table-knot-int", "table-knots-int",
         "table-on-complement"],
)
def test_malformed_witness_exits_2_naming_the_field(edit, message, tmp_path, capsys):
    out_path = tmp_path / "w.json"
    code, _, _ = run(
        capsys, "search", "--rule", "faulty:custom:0.5", "--trials", "20", "--seed", "3", "--out", str(out_path),
    )
    assert code == 0
    entries = json.loads(out_path.read_text())
    edit(entries[0])
    out_path.write_text(json.dumps(entries))
    code, _, err = run(capsys, "verify-witness", str(out_path))
    assert code == 2
    assert message in err


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_search_out_that_cannot_be_written_exits_2_before_the_first_trial(where, tmp_path, capsys, monkeypatch):
    path = tmp_path if where == "directory" else tmp_path / "missing" / "w.json"

    def never(config):
        raise AssertionError("searched although the output file cannot be written")

    monkeypatch.setattr(search, "find_information_aversion", never)
    code, _, err = run(capsys, "search", "--rule", "faulty:custom:0.5", "--trials", "20000", "--out", str(path))
    assert code == 2
    assert err.startswith(f"error: cannot write {str(path)!r}: ")


@pytest.mark.parametrize("rule", ["bogus", "eu", "gamma:1"])
def test_search_usage_errors_leave_the_out_file_as_it_was(rule, tmp_path, capsys):
    existing = tmp_path / "kept.json"
    existing.write_text("earlier witnesses\n")
    fresh = tmp_path / "fresh.json"
    for path in (existing, fresh):
        code, _, _ = run(capsys, "search", "--rule", rule, "--trials", "10", "--out", str(path))
        assert code == 2
    assert existing.read_text() == "earlier witnesses\n"
    assert not fresh.exists()


def test_output_files_that_cannot_be_written_exit_2_naming_the_path(tmp_path, capsys):
    code, _, err = run(capsys, "search", "--rule", "gamma:2", "--trials", "20", "--seed", "1", "--out", str(tmp_path))
    assert code == 2
    assert f"cannot write {str(tmp_path)!r}" in err
    missing = tmp_path / "missing" / "x.csv"
    code, _, err = run(capsys, "sweep", "alice-confident", "--lo", "0", "--hi", "0.05", "--steps", "3", "--out", str(missing))
    assert code == 2
    assert f"cannot write {str(missing)!r}" in err


@pytest.mark.parametrize("command", ["scenario", "sweep", "verify-witness"])
def test_input_files_that_cannot_be_read_exit_2_naming_the_path(command, tmp_path, capsys, monkeypatch):
    path = tmp_path / "locked.json"
    path.write_text("[]")

    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(Path, "read_text", denied)
    extra = ["--lo", "0", "--hi", "1", "--steps", "2"] if command == "sweep" else []
    code, _, err = run(capsys, command, str(path), *extra)
    assert code == 2
    assert f"{str(path)!r}: Permission denied" in err


def test_verify_witness_fails_a_replay_to_nan(tmp_path, capsys):
    # utilities of +-1.7e308 overflow the rank-dependent increments, so the voi replays to NaN
    witness = {
        "trial_index": 0, "voi": -1.0, "rule": {"kind": "reu", "risk": {"kind": "power", "k": 2}},
        "problem": {"states": ["s0", "s1"], "prior": [0.5, 0.5], "acts": [
            {"name": "a", "utilities": [1.7e308, -1.7e308]}, {"name": "b", "utilities": [-1.7e308, 1.7e308]}]},
        "channel": {"signals": ["x", "y"], "likelihood": [[0.9, 0.1], [0.2, 0.8]]},
    }
    path = tmp_path / "nan.json"
    path.write_text(json.dumps([witness]))
    code, out, _ = run(capsys, "verify-witness", str(path))
    assert code == 1
    assert "re-evaluation gives nan" in out
    assert "verified 0 of 1" in out


def test_verify_witness_rejects_repeated_signal_names(tmp_path, capsys):
    # a faulty complement updater: with signals ("x", "y") this witness replays to
    # -0.075, while ("x", "x") read both complements from the first column (0.2125)
    witness = {
        "trial_index": 0, "voi": -0.075, "rule": {"kind": "faulty", "q": 0.5, "mode": "complement-conditionalization"},
        "problem": {"states": ["s0", "s1"], "prior": [0.5, 0.5], "acts": [
            {"name": "a", "utilities": [1.0, -1.0]}, {"name": "b", "utilities": [0.0, 0.0]},
            {"name": "c", "utilities": [-0.3, 0.6]}]},
        "channel": {"signals": ["x", "y"], "likelihood": [[0.9, 0.1], [0.2, 0.8]]},
    }
    path = tmp_path / "w.json"
    path.write_text(json.dumps([witness]))
    code, out, _ = run(capsys, "verify-witness", str(path))
    assert code == 0 and "verified 1 of 1" in out
    witness["channel"]["signals"] = ["x", "x"]
    path.write_text(json.dumps([witness]))
    code, _, err = run(capsys, "verify-witness", str(path))
    assert code == 2
    assert "repeated signal names: ['x']" in err


HUGE = "1" + "0" * 400  # a JSON integer too large for a float
HUGE_WITNESS = """[{"trial_index": 0, "voi": %s, "rule": {"kind": "eu"},
  "problem": {"states": ["s0"], "prior": [1.0], "acts": [{"name": "a", "utilities": [%s]}]},
  "channel": {"signals": ["x"], "likelihood": [[1.0]]}}]"""


@pytest.mark.parametrize(
    "command,text,message",
    [
        (("scenario",), '{"label": "big", "epsilon": 0, "prior": {"kind": "uniform", "lo": 0, "hi": %s}}' % HUGE,
         "too large"),
        (("sweep", "--lo", "0", "--hi", "1", "--steps", "2"),
         '{"label": "big", "epsilon": 0, "prior": {"kind": "discrete", "atoms": [[%s, 1]]}}' % HUGE, "too large"),
        (("verify-witness",), HUGE_WITNESS % ("-0.5", HUGE), "too large"),
        (("verify-witness",), HUGE_WITNESS % ("-" + HUGE, "1.0"), "too large"),
        (("scenario",), '{"label": "wide", "epsilon": 0, "prior": {"kind": "uniform", "lo": -1e308, "hi": 1e308}}',
         "sum or width is not finite"),
    ],
    ids=["scenario-uniform-hi", "sweep-atom", "witness-utility", "witness-voi", "scenario-uniform-width"],
)
def test_numbers_that_overflow_a_float_exit_2(command, text, message, tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(text)
    code, _, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert message in err


def test_search_flag_defaults_are_the_config_defaults(capsys, monkeypatch):
    # the flags default to None, and the command passes only the flags given
    searched = []
    monkeypatch.setattr(search, "find_information_aversion", lambda config: searched.append(config) or [])
    code, _, _ = run(capsys, "search", "--rule", "gamma", "--trials", "5")
    assert code == 3
    defaults = {f.name: f.default for f in dataclasses.fields(SearchConfig)}
    for name in ("state_count", "act_count", "signal_count", "aversion_tolerance"):
        assert getattr(searched[0], name) == defaults[name]
    assert searched[0] == SearchConfig(seed=0, trials=5, rule=search.CredalSearch())


def test_search_tolerance_inf_exits_2(capsys):
    code, _, err = run(capsys, "search", "--rule", "gamma:2", "--trials", "5", "--tolerance", "inf")
    assert code == 2
    assert "aversion_tolerance must be positive and finite, got inf" in err
