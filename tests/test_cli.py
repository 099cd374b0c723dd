import csv
import dataclasses
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offswitch_lab import SearchConfig, cli, jsonio, search
from offswitch_lab.core import ComplementConditionalization, Faulty


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


def test_scenario_epsilon_of_minus_0_is_printed_and_written_as_0(capsys):
    code, out, _ = run(capsys, "scenario", "alice-noisy", "--epsilon", "-0")
    assert code == 0
    assert dict(line.split(None, 1) for line in out.strip().splitlines())["epsilon"] == "0"
    code, out, _ = run(capsys, "scenario", "alice-noisy", "--epsilon", "-0", "--json")
    assert code == 0
    assert '  "epsilon": 0.0,' in out.splitlines()


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


def test_scenario_with_all_mass_at_0_has_no_threshold(tmp_path, capsys):
    # deferring never loses there, so there is no crossover epsilon to print
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"label": "zero", "prior": {"kind": "discrete", "atoms": [[0, 1]]}, "epsilon": 0.0}))
    code, out, _ = run(capsys, "scenario", str(path))
    assert code == 0
    assert out.splitlines()[-1] == "threshold   none"


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


def test_scenario_risk_weighted_robot_declines_the_noisy_human_signal(tmp_path, capsys):
    # the paper's first claim in its own game: on alice-noisy's prior, a robot
    # with r(p) = p**2 values acting now above deferring to a human whose signal
    # is garbled with probability 0.02, and gains from a noiseless one
    path = tmp_path / "alice-noisy-reu.json"
    path.write_text(
        json.dumps(
            {
                "label": "alice-noisy-reu",
                "prior": {"kind": "uniform", "lo": -10, "hi": 90},
                "epsilon": 0.02,
                "rule": {"kind": "reu", "risk": {"kind": "power", "k": 2}},
            }
        )
    )
    code, out, _ = run(capsys, "scenario", str(path))
    assert code == 0
    lines = dict(line.split(None, 1) for line in out.strip().splitlines())
    assert (lines["rule_value_now"], lines["rule_value_learning"], lines["rule_voi"]) == ("35.5", "34.9866", "-0.5134")
    code, out, _ = run(capsys, "scenario", str(path), "--epsilon", "0")
    assert code == 0
    assert dict(line.split(None, 1) for line in out.strip().splitlines())["rule_voi"] == "0.95"


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


@pytest.mark.parametrize(
    "lo, hi, steps",
    [("0.163", "0.459", "38"), ("0.23", "1", "8")],
    ids=["last-point-rounds-past-hi", "last-point-rounds-past-1"],
)
def test_sweep_ends_exactly_at_hi(lo, hi, steps, capsys):
    code, out, err = run(capsys, "sweep", "alice-confident", "--lo", lo, "--hi", hi, "--steps", steps)
    assert (code, err) == (0, "")
    epsilons = [row["epsilon"] for row in csv.DictReader(io.StringIO(out))]
    assert len(epsilons) == int(steps)
    assert epsilons[0] == repr(float(lo)) and epsilons[-1] == repr(float(hi))
    assert all(float(lo) <= float(eps) <= float(hi) for eps in epsilons)


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


@pytest.mark.parametrize("prop", ["good", "theorem1"])
def test_a_check_whose_kernel_disagrees_with_the_scalar_path_exits_1_with_one_line(prop, capsys, monkeypatch):
    # a failed self-check leaves main as exit 1 and one line, not a traceback
    eu_kernel, theorem1_kernel = search._eu_kernel, search._theorem1_kernel

    def shifted_eu(block):
        now, values = eu_kernel(block)
        return now + 1.0, values

    def shifted_theorem1(values, weights):
        advantage, two_sided = theorem1_kernel(values, weights)
        return advantage + 1.0, two_sided

    monkeypatch.setattr(search, "_eu_kernel", shifted_eu)
    monkeypatch.setattr(search, "_theorem1_kernel", shifted_theorem1)
    code, out, err = run(capsys, "check", prop, "--trials", "300")
    assert (code, out) == (1, "")
    prefix, suffix = "error: check kernel gave ", "\n"
    assert err.startswith(prefix) and err.endswith(suffix) and err.count("\n") == 1
    # the kernel's value prints as a plain float on every numpy version
    kernel, rest = err[len(prefix) : -len(suffix)].split(" at trial 0, the scalar path ")
    assert abs(float(kernel) - float(rest)) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "prop,scalar,fake,detail",
    [
        ("good", "value_of_learning_eu", {"voi": -1.0}, "negative value of learning"),
        ("theorem1", "theorem1_check", {"delta": -1.0, "nonneg": False}, "negative deference advantage"),
    ],
)
def test_a_check_violation_is_printed_under_the_summary_and_exits_1(prop, scalar, fake, detail, capsys, monkeypatch):
    # kernels that prove nothing send every trial to the scalar path in trial
    # order, where trial 5, which starts no block, is made a violation
    good_kernel, theorem1_kernel, decide = search._good_kernel, search._theorem1_kernel, getattr(search, scalar)

    def unproven_good(block):
        voi, proven = good_kernel(block)
        return voi, np.zeros_like(proven)

    def unproven_theorem1(values, weights):
        # a NaN advantage proves nothing; row 0 of a block keeps its value for the cross-check
        advantage, two_sided = theorem1_kernel(values, weights)
        return np.where(np.arange(len(advantage)) % search.BLOCK_TRIALS == 0, advantage, np.nan), two_sided

    trials = []

    def violated_at_trial_5(*args):
        trials.append(len(trials))
        result = decide(*args)
        return dataclasses.replace(result, **fake) if trials[-1] == 5 else result

    monkeypatch.setattr(search, "_good_kernel", unproven_good)
    monkeypatch.setattr(search, "_theorem1_kernel", unproven_theorem1)
    monkeypatch.setattr(search, scalar, violated_at_trial_5)
    code, out, err = run(capsys, "check", prop, "--trials", "300")
    assert len(trials) == 300
    assert (code, err) == (1, "")
    assert out == f"{prop}: trials=300 violations=1 seed=0 stream={search.STREAM_VERSION}\n  trial 5: {detail} (-1.0)\n"


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


def test_search_identity_risk_rejected_with_explanation(capsys):
    code, _, err = run(capsys, "search", "--rule", "reu:identity", "--trials", "10")
    assert code == 2
    assert "an identity risk function reduces risk-weighted utility to expected utility" in err


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
        ("gamma:1:2", "credal", "gamma or gamma:M"),
    ]:
        code, _, err = run(capsys, "search", "--rule", rule, "--trials", "10")
        assert code == 2
        assert err == f"error: cannot parse {kind} rule {rule!r}; use {usage}\n"
    code, _, err = run(capsys, "search", "--rule", "faulty:bogus:0.5", "--trials", "10")
    assert code == 2
    assert err == "error: unknown misupdate kind 'bogus'; use stay, complement or custom\n"


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


@pytest.mark.parametrize("count, config, argv", [
    (0, SearchConfig(seed=1, trials=200, rule=cli.parse_rule("gamma"), state_count=2),
     ("--rule", "gamma", "--trials", "200", "--seed", "1", "--states", "2")),
    (1, SearchConfig(seed=1, trials=2, rule=cli.parse_rule("faulty:complement:0.5")),
     ("--rule", "faulty:complement:0.5", "--trials", "2", "--seed", "1")),
    (94, SearchConfig(seed=1, trials=300, rule=cli.parse_rule("faulty:complement:0.5")),
     ("--rule", "faulty:complement:0.5", "--trials", "300", "--seed", "1")),
], ids=["no-witness", "one-witness", "many-witnesses"])
def test_search_document_is_the_indent_2_dump_of_its_witnesses(count, config, argv, tmp_path, capsys):
    # the document is written one entry at a time, and is byte for byte what
    # json.dumps makes of the whole list, through stdout, a regular file and /dev/stdout
    entries = [jsonio.witness_to_jsonable(w) for w in search.find_information_aversion(config)]
    expected = json.dumps(entries, indent=2) + "\n"
    assert len(entries) == count
    assert expected == "[]\n" or count
    _, out, _ = run(capsys, "search", *argv)
    assert out == expected
    path = tmp_path / "w.json"
    _, summary, _ = run(capsys, "search", *argv, "--out", str(path))
    assert path.read_bytes() == expected.encode()
    src = os.path.dirname(os.path.dirname(cli.__file__))
    with open(tmp_path / "got", "w") as got:
        subprocess.run(
            [sys.executable, "-m", "offswitch_lab.cli", "search", *argv, "--out", "/dev/stdout"],
            stdout=got, env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
    assert (tmp_path / "got").read_text() == expected + summary


JSON_TEXT = st.text(st.characters() | st.sampled_from('\n"\\é☃𝄞'), max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(JSON_TEXT, inner, max_size=3),
    max_leaves=10,
)


@settings(deadline=None)
@given(st.lists(JSON_VALUES, max_size=4))
def test_a_list_written_one_entry_at_a_time_is_its_indent_2_dump(entries):
    stream = io.StringIO()
    cli._write_json_list(stream, iter(entries))
    assert stream.getvalue() == json.dumps(entries, indent=2) + "\n"


def test_search_hands_json_no_list_of_every_witness(tmp_path, capsys, monkeypatch):
    # a json call given the whole list would hold the whole document at once
    received = []
    for name in ("dumps", "dump"):
        def spy(obj, *args, real=getattr(json, name), **kwargs):
            received.append(obj)
            return real(obj, *args, **kwargs)

        monkeypatch.setattr(json, name, spy)
    path = tmp_path / "w.json"
    code, _, _ = run(capsys, *SEARCH_ARGV, "--out", str(path))
    monkeypatch.undo()
    entries = json.loads(path.read_text())
    assert code == 0 and len(entries) > 1
    assert [obj for obj in received if isinstance(obj, (list, tuple)) and len(obj) >= len(entries)] == []
    assert sum(isinstance(obj, dict) for obj in received) == len(entries)


@pytest.mark.parametrize("argv", [
    ("report",),
    ("search", "--rule", "faulty:complement:0.5", "--trials", "3000"),
    ("sweep", "alice-confident", "--lo", "0", "--hi", "1", "--steps", "10000"),
    ("search", "--rule", "faulty:complement:0.5", "--trials", "3000", "--out", "/dev/stdout"),
    ("sweep", "alice-confident", "--lo", "0", "--hi", "1", "--steps", "10000", "--out", "/dev/stdout"),
], ids=["report", "search", "sweep", "search-out-stdout", "sweep-out-stdout"])
def test_a_command_whose_stdout_is_closed_exits_1_and_prints_nothing(argv):
    # the reader of stdout went away before the output was written, as in
    # `offswitch-lab report | true`: no traceback, exit 1, also when --out
    # names stdout
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "offswitch_lab.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_an_out_fifo_whose_reader_leaves_early_exits_1_and_prints_nothing(tmp_path):
    # as `head -c 20` on the FIFO: the reader goes away while the document is written
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = subprocess.Popen(["head", "-c", "20", str(fifo)], stdout=subprocess.DEVNULL)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "offswitch_lab.cli", "search", "--rule", "faulty:complement:0.5",
             "--trials", "3000", "--out", str(fifo)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        reader.wait(timeout=60)
    finally:
        reader.kill()
        reader.wait(timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ("report",),
    ("scenario", "alice-noisy"),
    ("sweep", "alice-confident", "--lo", "0", "--hi", "1", "--steps", "3"),
    ("check", "good", "--trials", "100"),
    ("search", "--rule", "faulty:complement:0.5", "--trials", "300"),
], ids=["report", "scenario", "sweep", "check", "search"])
def test_a_command_whose_stdout_cannot_be_written_exits_2_with_one_line(argv):
    # stdout on a full disk: one error line and no traceback
    src = os.path.dirname(os.path.dirname(cli.__file__))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "offswitch_lab.cli", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
    assert (proc.returncode, proc.stderr) == (2, "error: cannot write stdout: No space left on device\n")


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


def test_verify_witness_refuses_a_misfit_entry_before_the_first_verdict(tmp_path, capsys):
    # entry 0 no longer reproduces its voi and entry 1 has a likelihood row fewer
    # than states; the file is refused whole, so no verdict line is printed
    path = tmp_path / "w.json"
    argv = ("search", "--rule", "faulty:complement:0.5", "--trials", "300", "--seed", "1", "--out", str(path))
    assert run(capsys, *argv)[0] == 0
    entries = json.loads(path.read_text())
    entries[0]["voi"] += 1
    del entries[1]["channel"]["likelihood"][2]
    path.write_text(json.dumps(entries))
    assert run(capsys, "verify-witness", str(path)) == (
        2, "", "error: cannot parse witness file: channel likelihood has 2 entries for 3 states\n"
    )


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


def test_main_alone_turns_a_value_error_into_exit_2(capsys, monkeypatch):
    # any ValueError out of a command is bad input that main reports in one line;
    # any other exception is a bug in the program and propagates
    def raising(error):
        def best_option(*args):
            raise error
        return best_option

    monkeypatch.setattr(cli, "best_option", raising(ValueError("boom")))
    assert run(capsys, "report") == (2, "", "error: boom\n")
    monkeypatch.setattr(cli, "best_option", raising(RuntimeError("boom")))
    with pytest.raises(RuntimeError, match="boom"):
        cli.main(["report"])


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
    "edit,message",
    [
        (lambda t: t.update(aprove=[0.5, 0.5]), "signals not in the channel: ['aprove']"),
        (lambda t: t.pop("reject"), "no entry for signal 'reject'"),
        (lambda t: t["approve"].append(0.0), "custom posterior for 'approve' has 3 entries for 2 states"),
    ],
    ids=["extra-signal", "missing-signal", "wrong-length"],
)
def test_scenario_table_that_does_not_fit_the_game_exits_2_naming_the_signal(edit, message, tmp_path, capsys):
    # the game's signals are approve and reject; a table is checked against them when the file is decoded
    obj = json.loads(json.dumps(RULEFUL_SCENARIO))
    edit(obj["updater"]["table"])
    path = tmp_path / "table.json"
    path.write_text(json.dumps(obj))
    commands = [
        ("scenario", str(path)),
        ("scenario", str(path), "--epsilon", "0.3"),
        ("sweep", str(path), "--lo", "0", "--hi", "1", "--steps", "3"),
    ]
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err


def test_scenario_credal_set_that_does_not_fit_the_game_exits_2(tmp_path, capsys):
    # the game has two states; sweep evaluates no rule, yet refuses the misfit as scenario does
    path = tmp_path / "c3.json"
    path.write_text(json.dumps({
        "label": "c3", "prior": {"kind": "uniform", "lo": -10, "hi": 90}, "epsilon": 0.02,
        "rule": {"kind": "gamma-maximin", "credal": {"members": [[0.2, 0.3, 0.5], [0.6, 0.2, 0.2]]}},
    }))
    for argv in [("scenario", str(path)), ("sweep", str(path), "--lo", "0", "--hi", "0.1", "--steps", "2")]:
        assert run(capsys, *argv) == (2, "", "error: credal member has 3 entries for 2 states\n")


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda s: s.update(prior=5), "prior must be an object with a 'kind' field"),
        (lambda s: s["prior"].update(atoms=[[-1.0, 0.5, 2.0]]),
         "discrete prior atom must be a pair of numbers, got [-1.0, 0.5, 2.0]"),
        (lambda s: s["prior"].update(atoms=[-1.0, 0.5]), "discrete prior atom must be a JSON list, got -1.0"),
        (lambda s: s.update(prior={"kind": "normal"}), "prior kind must be 'uniform' or 'discrete', got 'normal'"),
        (lambda s: s.update(rule=[]), "rule must be an object with a 'kind' field"),
        (lambda s: s["rule"].update(risk={"kind": "cubic"}),
         "risk kind must be 'identity', 'power' or 'table', got 'cubic'"),
        (lambda s: s.update(rule={"kind": "bogus"}),
         "rule kind must be one of 'eu', 'reu', 'gamma-maximin', got 'bogus'"),
        (lambda s: s.update(rule={"kind": "faulty", "q": 0.5, "mode": "stay-at-prior"}),
         "rule kind must be one of 'eu', 'reu', 'gamma-maximin', got 'faulty'"),
        (lambda s: s.update(updater={"kind": "reu"}),
         "updater kind must be one of 'conditionalization', 'faulty', got 'reu'"),
        (lambda s: s["updater"].update(mode={}), "faulty updater mode must be a JSON string, got {}"),
        (lambda s: s["updater"].update(mode="bogus"), "updater mode must be one of 'stay-at-prior', "),
        (lambda s: s["updater"].pop("table"), "custom-posterior updater needs a 'table' field"),
    ],
    ids=["prior-int", "atom-triple", "atoms-flat", "prior-kind-unknown", "rule-list", "risk-kind-unknown",
         "rule-kind-unknown", "rule-faulty", "updater-reu", "mode-object", "mode-unknown", "custom-without-table"],
)
def test_malformed_scenario_exits_2_naming_the_field(edit, message, tmp_path, capsys):
    obj = json.loads(json.dumps(RULEFUL_SCENARIO))
    edit(obj)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "scenario", str(path))
    assert (code, out) == (2, "")
    assert message in err


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
        # sizes that disagree across the problem, channel and rule data, refused at decode
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
        (lambda w: w.update(rule={"kind": "reu", "risk": {"kind": "table", "knots": [[0, 0], [0.5], [1, 1]]}}),
         "table risk knot must be a pair of numbers, got [0.5]"),
        (lambda w: w.update(rule={"kind": "reu", "risk": {"kind": "table", "knots": [[0, 0], [0, 0, 0], [1, 1]]}}),
         "table risk knot must be a pair of numbers, got [0.0, 0.0, 0.0]"),
        (lambda w: w["rule"].update(mode="complement-conditionalization"),
         "complement-conditionalization updater takes no 'table' field"),
        (lambda w: w["rule"].update(mode=[]), "faulty updater mode must be a JSON string, got []"),
        (lambda w: w["rule"].update(mode="bogus"), "updater mode must be one of 'stay-at-prior', "),
        (lambda w: w["rule"].pop("table"), "custom-posterior updater needs a 'table' field"),
        (lambda w: w.update(rule=5), "rule must be an object with a 'kind' field"),
        (lambda w: w.update(rule={"q": 0.5}), "rule must be an object with a 'kind' field"),
        (lambda w: w.update(rule={"kind": "bogus"}),
         "rule kind must be one of 'eu', 'reu', 'gamma-maximin', 'conditionalization', 'faulty', got 'bogus'"),
        (lambda w: w.update(rule={"kind": "reu", "risk": 2}), "risk function must be an object with a 'kind' field"),
        (lambda w: w.update(rule={"kind": "reu", "risk": {"kind": "cubic"}}),
         "risk kind must be 'identity', 'power' or 'table', got 'cubic'"),
        # a trial index that names no trial of the stream
        (lambda w: w.update(trial_index=-7), "witness trial_index must be non-negative, got -7"),
    ],
    ids=["table-missing-signal", "table-wrong-length", "table-list", "table-extra-signal",
         "states-string", "states-int", "signals-string", "act-name-int", "credal-member-size", "likelihood-rows",
         "prior-int", "prior-string", "acts-int", "utilities-float", "likelihood-int", "likelihood-row-int",
         "table-entry-string", "credal-members-int", "credal-member-int", "table-knot-int", "table-knots-int",
         "table-knot-single", "table-knot-triple",
         "table-on-complement", "mode-list", "mode-unknown", "custom-without-table", "rule-int", "rule-without-kind",
         "rule-kind-unknown", "risk-int", "risk-kind-unknown", "trial-index-negative"],
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


def test_search_out_descriptor_open_only_for_reading_exits_2_before_the_first_trial(tmp_path, capsys, monkeypatch):
    def never(config):
        raise AssertionError("searched although the output descriptor cannot be written")

    monkeypatch.setattr(search, "find_information_aversion", never)
    kept = tmp_path / "kept.json"
    kept.write_text("earlier witnesses\n")
    descriptor = os.open(kept, os.O_RDONLY)
    try:
        code, out, err = run(capsys, *SEARCH_ARGV, "--out", f"/dev/fd/{descriptor}")
    finally:
        os.close(descriptor)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write '/dev/fd/{descriptor}': Bad file descriptor\n"
    assert kept.read_text() == "earlier witnesses\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json"]


def test_search_out_file_whose_directory_takes_no_temporary_file_exits_2_before_the_first_trial(
    tmp_path, capsys, monkeypatch
):
    # replacing an existing file, like making a new one, needs a temporary file beside it
    def never(config):
        raise AssertionError("searched although the output file cannot be replaced")

    def denied(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(search, "find_information_aversion", never)
    monkeypatch.setattr(tempfile, "TemporaryFile", denied)
    existing = tmp_path / "existing.json"
    existing.write_text("earlier witnesses\n")
    for path in (existing, tmp_path / "fresh.json"):
        code, out, err = run(capsys, *SEARCH_ARGV, "--out", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {str(path)!r}: Permission denied\n"
    assert existing.read_text() == "earlier witnesses\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing.json"]


@pytest.mark.parametrize(
    "rule", ["bogus", "eu", "gamma:1", "reu:identity", "faulty:stay:0.5", "faulty:complement:0.5 --signals 1"]
)
def test_search_usage_errors_leave_the_out_file_as_it_was(rule, tmp_path, capsys):
    existing = tmp_path / "kept.json"
    existing.write_text("earlier witnesses\n")
    fresh = tmp_path / "fresh.json"
    for path in (existing, fresh):
        code, out, err = run(capsys, "search", "--rule", *rule.split(), "--trials", "10", "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert existing.read_text() == "earlier witnesses\n"
    assert not fresh.exists()


def test_search_whose_witness_fails_re_verification_exits_1_naming_the_trial(tmp_path, capsys, monkeypatch):
    argv = ["search", "--rule", "faulty:complement:0.5", "--trials", "300"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    first = min(json.loads(out), key=lambda entry: entry["trial_index"])

    def without_rule(witness):
        obj = jsonio.witness_to_jsonable(witness)
        del obj["rule"]
        return obj

    # a replay that misses its voi, and a witness the strict decoder refuses: both
    # fail verification, neither is a usage error
    failures = [
        ("replay_witness", lambda witness: witness.voi + 1.0,
         f"witness at trial {first['trial_index']}: stored voi {first['voi']!r} "
         f"but re-evaluation gives {first['voi'] + 1.0!r}"),
        ("witness_to_jsonable", without_rule, "witness is missing fields: ['rule']"),
    ]
    for name, patched, message in failures:
        with monkeypatch.context() as patch:
            patch.setattr(search, name, patched)
            existing = tmp_path / "kept.json"
            existing.write_text("earlier witnesses\n")
            fresh = tmp_path / "fresh.json"
            for path in (existing, fresh):
                code, out, err = run(capsys, *argv, "--out", str(path))
                assert (code, out) == (1, "")
                assert err == f"error: {message}\n"
            assert existing.read_text() == "earlier witnesses\n"
            assert not fresh.exists()


def test_search_for_a_one_signal_complement_misfire_exits_2_before_the_first_trial(tmp_path, capsys, monkeypatch):
    # with one signal a complement misfire is a stay at the prior, which cannot
    # be averse: bad input on every seed, refused like gamma:1, and no block drawn
    def never(*args):
        raise AssertionError("drew a block although the rule cannot be averse")

    monkeypatch.setattr(search, "_draw_block", never)
    existing = tmp_path / "kept.json"
    existing.write_text("earlier witnesses\n")
    for seed in range(10):
        argv = ("search", "--signals", "1", "--rule", "faulty:complement:0.5", "--trials", "1", "--seed", str(seed))
        code, out, err = run(capsys, *argv, "--out", str(existing))
        assert (code, out) == (2, "")
        assert err == (
            "error: staying at the prior (or never misfiring, or misfiring to the complement of a lone signal) "
            "only blends the learning value toward the choose-now value; it cannot make learning strictly bad\n"
        )
    assert existing.read_text() == "earlier witnesses\n"
    code, out, err = run(capsys, "search", "--rule", "gamma:1", "--trials", "10", "--out", str(existing))
    assert (code, out) == (2, "")
    assert err.startswith("error: a singleton credal set reduces gamma-maximin to expected utility")
    assert existing.read_text() == "earlier witnesses\n"


class _StreamThatFails:
    """A text stream that passes its first ``room`` characters on to ``stream``
    and then fails with ``error``, as a full disk or a file size limit would."""

    def __init__(self, stream, room, error):
        self.stream, self.room, self.error = stream, room, error

    def write(self, text):
        self.stream.write(text[: self.room])
        if len(text) > self.room:
            raise self.error
        self.room -= len(text)
        return len(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stream.close()


def _fail_document_writes(monkeypatch, room, error):
    """Make every stream that ``cli`` opens for a document fail with ``error`` after ``room`` characters."""
    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: _StreamThatFails(open(*args, **kwargs), room, error),
                        raising=False)


def test_search_whose_final_write_fails_removes_only_the_out_file_it_created(tmp_path, capsys, monkeypatch):
    existing = tmp_path / "kept.json"
    existing.write_text("earlier witnesses\n")
    fresh = tmp_path / "fresh.json"
    _fail_document_writes(monkeypatch, 0, OSError(28, "No space left on device"))
    for path in (existing, fresh):
        code, out, err = run(capsys, "search", "--rule", "faulty:complement:0.5", "--trials", "300", "--out", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {str(path)!r}: No space left on device\n"
    assert existing.read_text() == "earlier witnesses\n"
    assert not fresh.exists()


SEARCH_ARGV = ("search", "--rule", "faulty:complement:0.5", "--trials", "300")
SWEEP_ARGV = ("sweep", "alice-confident", "--lo", "0", "--hi", "0.05", "--steps", "11")


@pytest.mark.parametrize("argv", [SEARCH_ARGV, SWEEP_ARGV], ids=["search", "sweep"])
def test_a_final_write_that_fails_part_way_leaves_an_existing_out_file_whole(argv, tmp_path, capsys, monkeypatch):
    # a full disk or a file size limit after the first bytes: the earlier file
    # stays byte for byte, and no temporary file is left beside it
    existing = tmp_path / "kept.out"
    existing.write_bytes(b"earlier output\n")
    fresh = tmp_path / "fresh.out"
    _fail_document_writes(monkeypatch, 100, OSError(27, "File too large"))
    for path in (existing, fresh):
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {str(path)!r}: File too large\n"
    assert existing.read_bytes() == b"earlier output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.out"]


def test_an_out_file_keeps_its_mode_and_a_symlink_its_target(tmp_path, capsys):
    existing = tmp_path / "kept.csv"
    existing.write_text("earlier output\n")
    existing.chmod(0o640)
    target = tmp_path / "target.csv"
    target.write_text("earlier output\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target.name)
    fresh = tmp_path / "fresh.csv"
    umask = os.umask(0o027)
    try:
        for path in (existing, link, fresh):
            code, _, _ = run(capsys, *SWEEP_ARGV, "--out", str(path))
            assert code == 0
    finally:
        os.umask(umask)
    expected = fresh.read_text()
    assert expected.startswith("epsilon,")
    assert existing.read_text() == target.read_text() == expected
    assert stat.S_IMODE(existing.stat().st_mode) == 0o640
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o640  # 0o666 under the umask, as open() makes it
    assert link.is_symlink() and os.readlink(link) == target.name
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.csv", "kept.csv", "link.csv", "target.csv"]


def test_an_out_path_that_is_not_a_regular_file_is_written_in_place(tmp_path, capsys):
    # a pipe or a device such as /dev/stdout is written to, not replaced by a file
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, _, _ = run(capsys, *SWEEP_ARGV, "--out", str(fifo))
        received = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert code == 0
    _, expected, _ = run(capsys, *SWEEP_ARGV)
    assert received.decode() == expected
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]


@pytest.mark.parametrize("argv", [SEARCH_ARGV, SWEEP_ARGV], ids=["search", "sweep"])
def test_an_out_path_that_leads_to_a_pipe_gets_what_stdout_would(argv, capsys):
    # /dev/fd/W, like /dev/stdout piped to another program or >(...) in bash,
    # leads to the pipe itself; search's JSON outgrows the pipe's buffer, so a
    # thread drains the read end while the command writes
    read_end, write_end = os.pipe()
    received = []

    def read_all():
        with os.fdopen(read_end, "rb") as pipe:
            received.append(pipe.read())

    drain = threading.Thread(target=read_all, daemon=True)
    drain.start()
    try:
        code, _, _ = run(capsys, *argv, "--out", f"/dev/fd/{write_end}")
    finally:
        os.close(write_end)
        drain.join(timeout=60)
    assert not drain.is_alive()
    assert code == 0
    _, expected, _ = run(capsys, *argv)
    assert received == [expected.encode()]


@pytest.mark.parametrize("prefix", ["/dev/fd/", "/proc/self/fd/"])
@pytest.mark.parametrize("argv", [SEARCH_ARGV, SWEEP_ARGV], ids=["search", "sweep"])
def test_an_out_path_that_names_an_appending_descriptor_appends_to_its_file(argv, prefix, tmp_path, capsys):
    # /dev/fd/N, like --out /dev/stdout >> log in a shell, names a descriptor
    # opened for appending to a regular file: the file is added to, not replaced
    log = tmp_path / "log"
    log.write_text("earlier\n")
    descriptor = os.open(log, os.O_WRONLY | os.O_APPEND)
    try:
        code, _, _ = run(capsys, *argv, "--out", f"{prefix}{descriptor}")
    finally:
        os.close(descriptor)
    assert code == 0
    _, expected, _ = run(capsys, *argv)
    assert log.read_text() == "earlier\n" + expected
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log"]


def test_search_out_dev_stdout_redirected_to_a_file_ends_with_the_summary(tmp_path, capsys):
    # > file: the document goes through the descriptor at its offset, and the
    # summary printed after it lands last, in the same file
    src = os.path.dirname(os.path.dirname(cli.__file__))
    with open(tmp_path / "got", "w") as got:
        proc = subprocess.run(
            [sys.executable, "-m", "offswitch_lab.cli", *SEARCH_ARGV, "--out", "/dev/stdout"],
            stdout=got, stderr=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
    assert proc.returncode == 0, proc.stderr
    code, summary, _ = run(capsys, *SEARCH_ARGV, "--out", str(tmp_path / "w.json"))
    assert code == 0 and summary.startswith("witnesses=")
    assert (tmp_path / "got").read_text() == (tmp_path / "w.json").read_text() + summary


def test_search_out_to_a_fifo_is_opened_once_so_its_reader_gets_the_witnesses(tmp_path, capsys):
    # a reader such as cat stops at the first end of file, so the FIFO must be
    # opened only for the final write; the command runs in its own process so
    # that a second open, which would wait for a reader forever, ends in a timeout
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    with open(tmp_path / "got", "wb") as got:
        reader = subprocess.Popen(["cat", str(fifo)], stdout=got)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "offswitch_lab.cli", *SEARCH_ARGV, "--out", str(fifo)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        reader.wait(timeout=60)
    finally:
        reader.kill()
        reader.wait(timeout=60)
    assert proc.returncode == 0, proc.stderr
    _, expected, _ = run(capsys, *SEARCH_ARGV)
    assert (tmp_path / "got").read_text() == expected


def test_a_failed_search_leaves_a_dangling_out_symlink_dangling(tmp_path, capsys, monkeypatch):
    link = tmp_path / "link.json"
    link.symlink_to("made.json")
    code, _, _ = run(capsys, "search", "--rule", "eu", "--trials", "10", "--out", str(link))
    assert code == 2
    monkeypatch.setattr(search, "replay_witness", lambda witness: witness.voi + 1.0)
    code, _, _ = run(capsys, *SEARCH_ARGV, "--out", str(link))
    assert code == 1
    assert link.is_symlink() and os.readlink(link) == "made.json"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json"]


def never_search(config):
    raise AssertionError("searched although the output path cannot be written")


@pytest.mark.parametrize("argv", [SEARCH_ARGV, SWEEP_ARGV], ids=["search", "sweep"])
def test_out_dev_stdin_read_from_a_file_exits_2_before_the_work_and_keeps_the_file(argv, tmp_path, capsys, monkeypatch):
    # < kept.json: /dev/stdin names descriptor 0, open only for reading, so it is
    # refused as /dev/fd/0 is, and the file behind it is not replaced
    monkeypatch.setattr(search, "find_information_aversion", never_search)
    kept = tmp_path / "kept.json"
    kept.write_text("earlier output\n")
    saved = os.dup(0)
    reading = os.open(kept, os.O_RDONLY)
    try:
        os.dup2(reading, 0)
        code, out, err = run(capsys, *argv, "--out", "/dev/stdin")
    finally:
        os.dup2(saved, 0)
        os.close(saved)
        os.close(reading)
    assert (code, out) == (2, "")
    assert err == "error: cannot write '/dev/stdin': Bad file descriptor\n"
    assert kept.read_text() == "earlier output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json"]


@pytest.mark.parametrize("path", ["", "d/", "fresh/", "f.txt/", "d/."])
@pytest.mark.parametrize("argv", [SEARCH_ARGV, SWEEP_ARGV], ids=["search", "sweep"])
def test_an_out_path_that_names_a_directory_exits_2_before_the_work_and_changes_nothing(
    argv, path, tmp_path, capsys, monkeypatch
):
    # "" and a last component that is empty, "." or ".." name a directory, as an
    # existing directory does, whether or not one is there: f.txt/ is no file
    monkeypatch.setattr(search, "find_information_aversion", never_search)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    (tmp_path / "f.txt").write_text("earlier output\n")
    code, out, err = run(capsys, *argv, "--out", path)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {path!r}: Is a directory\n"
    assert (tmp_path / "f.txt").read_text() == "earlier output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "f.txt"]
    assert list((tmp_path / "d").iterdir()) == []


@pytest.mark.parametrize(
    "command,extra",
    [("scenario", ()), ("scenario", ("--json",)), ("sweep", ("--lo", "0", "--hi", "0.05", "--steps", "3"))],
    ids=["scenario", "scenario-json", "sweep"],
)
def test_a_scenario_is_read_from_a_pipe_as_from_its_file(command, extra, tmp_path, capsys):
    # /dev/stdin fed by a pipe, and <(...) in bash, name the read end of a pipe
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(RULEFUL_SCENARIO))
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, path.read_bytes())
        os.close(write_end)
        piped = run(capsys, command, f"/dev/fd/{read_end}", *extra)
    finally:
        os.close(read_end)
    assert piped == run(capsys, command, str(path), *extra)
    assert piped[0] == 0


@pytest.mark.parametrize("command", ["scenario", "sweep"])
def test_a_scenario_that_is_neither_a_built_in_nor_a_path_exits_2_naming_both(command, capsys):
    extra = ["--lo", "0", "--hi", "1", "--steps", "2"] if command == "sweep" else []
    code, out, err = run(capsys, command, "alice-bold", *extra)
    assert (code, out) == (2, "")
    assert "'alice-bold': No such file or directory" in err
    assert all(name in err for name in cli.BUILTIN_SCENARIOS)


def test_output_files_that_cannot_be_written_exit_2_naming_the_path(tmp_path, capsys):
    code, _, err = run(capsys, "search", "--rule", "gamma:2", "--trials", "20", "--seed", "1", "--out", str(tmp_path))
    assert code == 2
    assert f"cannot write {str(tmp_path)!r}" in err
    missing = tmp_path / "missing" / "x.csv"
    code, _, err = run(capsys, "sweep", "alice-confident", "--lo", "0", "--hi", "0.05", "--steps", "3", "--out", str(missing))
    assert code == 2
    assert f"cannot write {str(missing)!r}" in err
    # a descriptor open only for reading is not written, and its file is not replaced
    kept = tmp_path / "kept.csv"
    kept.write_text("earlier\n")
    descriptor = os.open(kept, os.O_RDONLY)
    try:
        code, _, err = run(capsys, *SWEEP_ARGV, "--out", f"/dev/fd/{descriptor}")
    finally:
        os.close(descriptor)
    assert code == 2
    assert f"cannot write '/dev/fd/{descriptor}': Bad file descriptor" in err
    assert kept.read_text() == "earlier\n"


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


def test_verify_witness_replays_a_prior_whose_masses_sum_past_1(tmp_path, capsys):
    # the prior sums to 1 within PROB_TOL and its lowest atom is thin, so the
    # tail above it is past 1; unclamped, 1.0000000000005 ** 1e300 overflowed.
    # The replay reproduces the stored voi of 0, which rejects no information.
    witness = {
        "trial_index": 0, "voi": 0.0, "rule": {"kind": "reu", "risk": {"kind": "power", "k": 1e300}},
        "problem": {"states": ["s0", "s1"], "prior": [1e-13, 1.0000000000005],
                    "acts": [{"name": "a", "utilities": [-1.0, 1.0]}]},
        "channel": {"signals": ["x"], "likelihood": [[1.0], [1.0]]},
    }
    path = tmp_path / "tail.json"
    path.write_text(json.dumps([witness]))
    code, out, err = run(capsys, "verify-witness", str(path))
    assert (code, err) == (1, "")
    assert out == "trial 0: voi 0.0 is not below 0, so it is not a witness\nverified 0 of 1 witnesses within 1e-10\n"


@pytest.mark.parametrize("q", ["0.3", "0.5"])
def test_a_complement_misfire_on_a_one_sided_prior_leaves_the_updater_voi_at_0(tmp_path, capsys, q):
    # at epsilon 0 the complement of approve has no mass, so the misfire picks the
    # act the posterior picks; at q = 0.3 a blend of that act's value with itself
    # does not round back to it
    path = tmp_path / "one-sided.json"
    path.write_text(
        '{"label": "one-sided", "prior": {"kind": "discrete", "atoms": [[4.851198106918442, 0.3506408330685437], '
        '[5.020140962872022, 0.2824156914042405], [7.386203066186315, 0.36694347552721573]]}, "epsilon": 0, '
        f'"updater": {{"kind": "faulty", "q": {q}, "mode": "complement-conditionalization"}}}}'
    )
    code, out, _ = run(capsys, "scenario", str(path))
    assert code == 0
    assert dict(line.split(None, 1) for line in out.strip().splitlines())["updater_voi"] == "0"


def test_verify_witness_refuses_a_complement_made_of_rounding(tmp_path, capsys):
    # one signal, certain up to the last likelihood's rounding: the complement is
    # the other signals' sum, which is 0, so the misfire is a stay and the voi is 0
    problem, channel = search.random_instance(SearchConfig(seed=5, trials=1, signal_count=1), 0)
    assert channel.likelihood == ((1.0,), (1.0,), (0.9999999999999999,))
    rule = Faulty(0.5, ComplementConditionalization())
    path = tmp_path / "rounding.json"
    path.write_text(json.dumps([jsonio.witness_to_jsonable(jsonio.Witness(problem, channel, rule, -4.424640129063432, 0))]))
    code, out, err = run(capsys, "verify-witness", str(path))
    assert (code, err) == (1, "")
    assert out == (
        "trial 0: stored voi -4.424640129063432 but re-evaluation gives 0.0\n"
        "verified 0 of 1 witnesses within 1e-10\n"
    )


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


@pytest.mark.parametrize("command", ["scenario", "sweep"])
def test_a_scenario_file_that_gives_a_key_twice_exits_2_naming_the_file_and_the_key(command, tmp_path, capsys):
    # the last "label" and "epsilon" would win silently, as a typo would
    path = tmp_path / "twice.json"
    path.write_text('{"label": "a", "prior": {"kind": "uniform", "lo": -40, "hi": 60}, "epsilon": 0.0,'
                    ' "label": "b", "epsilon": 0.5}')
    extra = ["--lo", "0", "--hi", "1", "--steps", "2"] if command == "sweep" else []
    code, out, err = run(capsys, command, str(path), *extra)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: scenario file {str(path)!r} repeats the key 'label'")


@pytest.mark.parametrize("command", ["scenario", "sweep"])
def test_only_a_scenario_path_that_cannot_be_read_lists_the_built_in_names(command, tmp_path, capsys):
    extra = ["--lo", "0", "--hi", "1", "--steps", "2"] if command == "sweep" else []
    twice, broken, missing = (str(tmp_path / name) for name in ("twice.json", "broken.json", "missing.json"))
    Path(twice).write_text('{"label": "a", "label": "b"}')
    Path(broken).write_text("not json")
    expected = {
        twice: f"error: scenario file {twice!r} repeats the key 'label'\n",
        broken: f"error: scenario file {broken!r} is not valid JSON: Expecting value: line 1 column 1 (char 0)\n",
        missing: f"error: cannot read scenario file {missing!r}: No such file or directory"
        " (built-in scenarios: alice-basic, alice-confident, alice-noisy)\n",
    }
    for path, err in expected.items():
        assert run(capsys, command, path, *extra) == (2, "", err)


@pytest.mark.parametrize("content,reason", [
    (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0"),
    (b"[" * 100000, "maximum recursion depth exceeded"),
    (b'{"a":' * 100000, "maximum recursion depth exceeded"),
], ids=["not-utf-8", "deep-list", "deep-object"])
@pytest.mark.parametrize("command", ["scenario", "sweep", "verify-witness"])
def test_an_input_file_that_cannot_be_parsed_exits_2_naming_the_file(command, content, reason, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    extra = ["--lo", "0", "--hi", "1", "--steps", "2"] if command == "sweep" else []
    what = "witness file" if command == "verify-witness" else "scenario file"
    code, out, err = run(capsys, command, str(path), *extra)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {what} {str(path)!r} is not valid JSON: {reason}")
    # the file was read, so the built-in scenario names would not help
    assert err.count("\n") == 1 and "built-in" not in err


def test_a_witness_file_that_gives_a_key_twice_exits_2_naming_the_file_and_the_key(tmp_path, capsys):
    path = tmp_path / "w.json"
    code, _, _ = run(capsys, *SEARCH_ARGV, "--out", str(path))
    assert code == 0
    text = path.read_text()
    assert run(capsys, "verify-witness", str(path))[0] == 0
    # a stale voi ahead of the real one, inside the first witness's object
    path.write_text(text.replace("{", '{"voi": 123.0, ', 1))
    code, out, err = run(capsys, "verify-witness", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: witness file {str(path)!r} repeats the key 'voi'\n"


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
    # a flag left out is not stored, so the command passes only the flags given
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
