"""Tests of the benchmark itself: every kind of wrong output must raise failed_ratio.

Run with ``python3 -m pytest -q perfbench/selftest.py`` from the checkout
root. The file name keeps it out of the package's own test collection.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import workloads  # noqa: E402
from offswitch_lab import CheckReport, CheckViolation, search  # noqa: E402


@pytest.fixture
def small_blocks(monkeypatch):
    """Cycles of 300 trials per call, so that a test runs in seconds."""
    monkeypatch.setattr(inputs, "SEARCH_BLOCK", 300)
    monkeypatch.setattr(inputs, "CHECK_BLOCK", 300)


def _first_cycle(workload: str, seed: int = 3):
    runner = workloads.InProcess(workload, seed)
    item = next(runner.cycles)
    return runner, item


def _check_search(runner, item, outs) -> workloads.Tally:
    tally = workloads.Tally()
    for one, out in zip(item, outs):
        workloads.check_search_item(tally, runner.oracles, one, out)
    return tally


def test_clean_cycles_have_no_failures(small_blocks):
    for workload in ("search-sparse", "search-dense", "check"):
        runner, item = _first_cycle(workload)
        _, _, check = runner.run(item)
        check()
        assert runner.tally.attempted > 0
        assert runner.tally.failed == 0, runner.tally.errors


def test_corrupted_witness_text_is_counted(small_blocks):
    runner, item = _first_cycle("search-dense")
    outs = workloads.run_search_cycle(item)
    out = outs[0]
    entries = json.loads(out.text)
    entries[0]["problem"]["acts"][0]["utilities"][0] += 1.0
    out.decoded = [search.witness_from_jsonable(e) for e in entries]
    out.replayed = [search.replay_witness(w) for w in out.decoded]
    tally = _check_search(runner, item, outs)
    assert tally.failed >= 1


def test_witness_disagreeing_with_oracle_is_counted(small_blocks):
    runner, item = _first_cycle("search-dense")
    outs = workloads.run_search_cycle(item)
    outs[1].witnesses[0] = dataclasses.replace(outs[1].witnesses[0], voi=outs[1].witnesses[0].voi - 0.5)
    assert _check_search(runner, item, outs).failed >= 1


def test_missed_witness_in_sampled_trials_is_counted(small_blocks):
    runner, item = _first_cycle("search-sparse")
    outs = workloads.run_search_cycle(item)
    hidden = outs[0].witnesses[0].trial_index
    item = [dataclasses.replace(item[0], sample=(hidden,)), *item[1:]]
    outs[0].witnesses = [w for w in outs[0].witnesses if w.trial_index != hidden]
    outs[0].decoded = [w for w in outs[0].decoded if w.trial_index != hidden]
    outs[0].replayed = [search.replay_witness(w) for w in outs[0].decoded]
    assert _check_search(runner, item, outs).failed == 1


def test_check_violation_is_counted(small_blocks):
    runner, item = _first_cycle("check")
    indices = workloads.replay_indices(item.replay_offset, len(runner.entries))
    text = json.dumps([runner.entries[i] for i in indices])
    reports, out = workloads.run_check_cycle(item, text)
    bad = CheckReport(reports[0].trials, (CheckViolation(3, "negative value of learning", -0.25),))
    tally = workloads.Tally()
    stored = [runner.reference[i] for i in indices]
    workloads.check_check_cycle(tally, runner.oracles, item, (bad, reports[1]), out, stored)
    assert tally.failed == 1


def test_wrong_golden_and_bad_exit_are_counted():
    goldens = workloads.load_goldens()
    tally = workloads.Tally()
    ok = subprocess.CompletedProcess([], 0, stdout=goldens["report"], stderr=b"")
    wrong = subprocess.CompletedProcess([], 0, stdout=goldens["report"].replace(b"pass", b"FAIL", 1), stderr=b"")
    crashed = subprocess.CompletedProcess([], 1, stdout=b"", stderr=b"boom")
    for kind, proc in (("report", ok), ("report", wrong), ("sweep", crashed), ("scenario", None)):
        workloads.check_cli_command(tally, kind, proc, goldens)
    assert (tally.attempted, tally.failed) == (4, 3)


def test_cli_witness_file_is_checked_against_the_oracle():
    kind, args, item = next(inputs.cli_cycles(5))[3]
    done = workloads.run_command([sys.executable, "-c", workloads.CLI_ENTRY, *args], workloads.child_env())
    oracles = workloads.load_oracles()
    tally = workloads.Tally()
    assert workloads.check_cli_command(tally, kind, done.proc, {}, oracles, item) > 0
    assert tally.failed == 0, tally.errors
    entries = json.loads((ROOT / inputs.CLI_WITNESS_FILE).read_text(encoding="utf-8"))

    def failures(change) -> int:
        changed = json.loads(json.dumps(entries))
        change(changed)
        tally = workloads.Tally()
        workloads.check_cli_witnesses(tally, oracles, item, changed)
        return tally.failed

    assert failures(lambda e: e[0]["rule"].update(q=0.25)) >= 1  # a misparsed --rule
    assert failures(lambda e: e[1].update(voi=-1e-7)) >= 1  # a looser --tolerance
    assert failures(lambda e: e[2]["problem"]["acts"][0]["utilities"].__setitem__(0, 9.0)) >= 1


def test_command_peak_rss_is_the_command_s_own():
    env = workloads.child_env()
    held = bytearray(120 << 20)  # a big parent must not show in its children's figures
    held[::4096] = b"x" * len(held[::4096])
    big = workloads.run_command(
        [sys.executable, "-c", workloads.PEAK_PRELUDE + "b = bytearray(80 << 20); b[::4096] = b'x' * len(b[::4096])"],
        env,
    )
    small = workloads.run_command([sys.executable, "-c", workloads.PEAK_PRELUDE + "pass"], env)
    assert big.proc.returncode == 0 and small.proc.returncode == 0
    assert 80 < big.peak_rss_mb < 120 and small.peak_rss_mb < 40


BATCHED = """
import numpy as np
from offswitch_lab import search

plain = search.find_information_aversion


def batched(config):
    t, s, a, g = config.trials, config.state_count, config.act_count, config.signal_count
    shapes = ((t, s), (t, a, s), (t, s, g), (t, g, s), (t, g, a), (t, g, a, s), (t, g, a, s))
    held = [np.full(shape, 0.5) for shape in shapes]
    return plain(config)


search.find_information_aversion = batched
"""


def test_call_rss_shows_a_batched_engine():
    """search-sparse's first call at its real size, plainly and while also
    holding what a batched engine would for it: stacked priors (T,S),
    utilities (T,A,S) and channels (T,S,G), posteriors (T,G,S), act values
    (T,G,A) and two (T,G,A,S) work arrays for the REU sort and tail sums
    (5.3 MB at T = 10000). That must raise call_rss_mb by more than its bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "call_rss_mb")
    plain = workloads.call_rss_mb("search-sparse", 1)
    batched = workloads.call_rss_mb("search-sparse", 1, prelude=BATCHED)
    assert batched > plain * (1 + bound), (plain, batched)


def test_exact_counts_repeat_for_a_seed(small_blocks):
    def counts():
        runner = workloads.InProcess("search-sparse", 11)
        layers = runner.measure_traced(0.0)
        return {k: v for k, v in layers.items() if not k.endswith("us") and k != "trace.overhead_ratio"}, runner

    first, runner = counts()
    second, _ = counts()
    assert first == second
    assert first["search.trials"] == workloads.PREFIX_CYCLES * 4 * inputs.SEARCH_BLOCK
    assert first["voi.calls"] > 0 and runner.tally.failed == 0


def test_tracer_restores_every_function():
    from layertrace import Tracer

    import offswitch_lab
    from offswitch_lab import core, search

    before = (search._trial_rng, core.best_act_eu, offswitch_lab.best_act_eu, core.DecisionProblem.__init__)
    with Tracer():
        assert search._trial_rng is not before[0]
        assert offswitch_lab.best_act_eu is not before[2]
    assert (search._trial_rng, core.best_act_eu, offswitch_lab.best_act_eu, core.DecisionProblem.__init__) == before


def _run_in_copy(name: str, *extra: str) -> subprocess.CompletedProcess:
    """Run the check workload for 0 seconds (one cycle) in a fresh copy of
    BENCHMARK.json and perfbench/, plus ``extra`` directories of the checkout,
    with no perfbench/out/ yet."""
    copy = BENCH / "out" / name
    shutil.rmtree(copy, ignore_errors=True)
    copy.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    shutil.copytree(BENCH, copy / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    for directory in extra:
        shutil.copytree(ROOT / directory, copy / directory, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "check", "--seconds", "0"],
            cwd=copy, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(copy)


def test_run_refuses_a_directory_without_the_program():
    proc = _run_in_copy("selftest-bare")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_run_in_a_fresh_checkout_prints_a_result():
    proc = _run_in_copy("selftest-fresh", "src", "tests")
    assert proc.returncode == 0, proc.stderr[-1000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
