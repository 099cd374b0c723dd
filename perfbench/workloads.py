"""The four benchmark workloads: timed cycles, output checks and metrics.

Every workload is a closed loop with one client: a cycle starts only after
the previous one has finished and been checked. Timed regions cover only
calls into the package (on cli-oneshot, whole command processes); the
benchmark's own correctness checks run between them, untimed and untraced.
A full garbage collection precedes every timed call and the timed read-back,
so that where the collector's costly full passes fall depends on that
phase's own allocations, as in a fresh ``search --out`` or
``verify-witness`` command, and not on what ran before it.
Inputs come from ``inputs.py``; the workload seed stays on this side.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from calib import calibrate, host_factor
from inputs import CHECK_REPLAYS, CLI_WITNESS_FILE, READBACK_REPEATS, SearchItem, cli_cycles, make_inputs
from peak import own_peak_rss_mb

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden"

WORKLOADS = ("search-sparse", "search-dense", "check", "cli-oneshot")

PREFIX_CYCLES = 1  # cycles whose exact counts a traced run reports
SETUP_PROBES = 15
SAMPLE_EVERY_S = 0.2  # calibration sampling interval during in-process cycles
COMMAND_TIMEOUT_S = 120
ORACLE_TOL = 1e-9

CLI_ENTRY = "import sys; from offswitch_lab.cli import main; sys.exit(main())"
CLI_GOLDEN = {"report": "report.txt", "scenario": "scenario-alice-noisy.json", "sweep": "sweep-alice-confident.csv"}
# set-up probe: a fresh interpreter that imports only the package and inputs.py
PROBE_ENTRY = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import inputs; "
    "inputs.make_inputs(sys.argv[3], int(sys.argv[4])); print(repr(time.perf_counter()))"
)

# one call of the workload, alone in a fresh interpreter, for call_rss_mb
CALL_ENTRY = """
import sys
sys.path[:0] = sys.argv[1:3]
import inputs
from offswitch_lab import search
first = next(inputs.make_inputs(sys.argv[3], int(sys.argv[4])))
if sys.argv[3] == "check":
    search.verify_good(first.good)
else:
    search.find_information_aversion(first[0].config)
"""

_perf = time.perf_counter


def _phase(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def child_env() -> dict:
    """Environment for child interpreters: the checkout's own package first."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def pin_to_one_cpu() -> None:
    """Keep this process, its children and the calibration loop on one CPU,
    so that the loop sees the host load the measured work saw."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class CalibrationHelper:
    """``calibrate()`` timed in a helper process rather than in the program's
    interpreter, so that nothing the program leaves behind (threads, GC or
    allocator state) changes the divisor. The helper blocks on its pipe
    while the program runs. It starts on first use; ``close()`` it before
    starting another child, so that there is one child at a time."""

    def __init__(self) -> None:
        self.proc = None

    def __call__(self) -> float:
        if self.proc is None:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH / "calib.py")], cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True,
            )
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper exited")
        return float(line)

    def close(self) -> None:
        if self.proc is not None:
            self.proc.stdin.close()
            self.proc.wait(timeout=COMMAND_TIMEOUT_S)
            self.proc.stdout.close()
            self.proc = None


# ---------------------------------------------------------------- accounting


@dataclass
class Tally:
    """Attempted and failed operations: trials, witness replays, CLI invocations."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(why)


@dataclass
class Prefix:
    """Exact quantities over the first cycles of the seeded schedule."""

    trials: int = 0
    witnesses: int = 0
    witness_bytes: int = 0
    digest: object = field(default_factory=hashlib.sha256)


def load_oracles():
    import importlib.util

    spec = importlib.util.spec_from_file_location("perfbench_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_voi(oracles, problem, channel, rule) -> float:
    from offswitch_lab import Faulty, GammaMaximinRule, RiskWeightedRule

    if isinstance(rule, RiskWeightedRule):
        return oracles.reu_voi(problem, channel, rule.risk)
    if isinstance(rule, GammaMaximinRule):
        return oracles.gamma_voi(problem, channel, rule.credal)
    if isinstance(rule, Faulty):
        return oracles.faulty_voi(problem, channel, rule)
    raise ValueError(f"no oracle for {rule!r}")


def _fixed_concrete_rule(search_rule):
    from offswitch_lab import ComplementConditionalization, Faulty, FaultySearch, RiskWeightedRule

    if isinstance(search_rule, FaultySearch):
        return Faulty(search_rule.q, ComplementConditionalization())
    return RiskWeightedRule(search_rule.risk)


def check_replays(tally: Tally, stored, decoded, replayed, where: str) -> None:
    """Each witness must survive the text round trip and replay to its stored voi."""
    from offswitch_lab.search import REVERIFY_TOL

    tally.attempted += len(stored)
    for original, back, fresh in itertools.zip_longest(stored, decoded, replayed):
        if original is None or back is None or fresh is None:
            tally.fail(1, f"{where}: witness lost or invented in the round trip")
        elif back.trial_index != original.trial_index or abs(fresh - original.voi) > REVERIFY_TOL:
            tally.fail(1, f"{where}: trial {original.trial_index} replays to {fresh!r}, stored {original.voi!r}")


def check_witnesses(tally: Tally, oracles, item: SearchItem, witnesses) -> None:
    """Every witness has voi < -tolerance and the oracle's voi; each sampled
    trial is a witness exactly when the search emitted it."""
    from offswitch_lab import search

    config = item.config
    tol = config.aversion_tolerance
    bad: set[int] = set()
    emitted = {}
    for w in witnesses:
        if not 0 <= w.trial_index < config.trials or w.trial_index in emitted:
            tally.fail(1, f"{item.label}: bad or repeated trial index {w.trial_index}")
            continue
        emitted[w.trial_index] = w
        if not w.voi < -tol:
            bad.add(w.trial_index)
        elif abs(oracle_voi(oracles, w.problem, w.channel, w.rule) - w.voi) > ORACLE_TOL:
            bad.add(w.trial_index)
    if item.sample:
        rule = _fixed_concrete_rule(config.rule)
        for i in item.sample:
            problem, channel = search.random_instance(config, i)
            voi = oracle_voi(oracles, problem, channel, rule)
            if abs(voi + tol) > ORACLE_TOL and (voi < -tol) != (i in emitted):
                bad.add(i)
    if bad:
        tally.fail(len(bad), f"{item.label} seed {config.seed}: trials {sorted(bad)[:5]} disagree with the oracle")


def check_search_item(tally: Tally, oracles, item: SearchItem, out) -> None:
    config = item.config
    tally.attempted += config.trials
    if out.error is not None:
        tally.fail(config.trials, f"{item.label}: {out.error}")
        return
    check_witnesses(tally, oracles, item, out.witnesses)
    check_replays(tally, out.witnesses, out.decoded, out.replayed, item.label)


# ---------------------------------------------------------------- timed cycles


@dataclass
class ItemOut:
    witnesses: list = field(default_factory=list)
    text: str = ""
    decoded: list = field(default_factory=list)
    replayed: list = field(default_factory=list)
    produce_s: float = 0.0
    verify_s: float = 0.0
    error: str | None = None
    replay_count: int = 0
    verify_window: list = field(default_factory=list)  # calibration times during and around the read-backs

    def release(self) -> None:
        """Drop the checked outputs; their counts and timings stay."""
        self.witnesses, self.text, self.decoded, self.replayed = [], "", [], []


def read_back(out: ItemOut, text: str, repeats: int, tracer, sampler) -> None:
    """Read ``text`` back and replay its witnesses as ``verify-witness``
    does, ``repeats`` times; ``out.verify_s`` is the median time. With a
    ``sampler``, the calibration loop is also timed right before each pass
    and after the last, as a read-back may last only milliseconds, and
    ``out.verify_window`` gets these and the periodic samples between them."""
    from offswitch_lab import search

    clock = sampler.clock if sampler else _perf
    first = len(sampler.samples.calibration_s) if sampler else 0
    times = []
    for _ in range(repeats):
        out.decoded = out.replayed = []
        gc.collect()
        if sampler:
            sampler.sample()
        t0 = clock()
        with _phase(tracer, "bench.readback"):
            out.decoded = [search.witness_from_jsonable(e) for e in json.loads(text)]
            out.replayed = [search.replay_witness(w) for w in out.decoded]
        times.append(clock() - t0)
    if sampler:
        sampler.sample()
        out.verify_window = sampler.samples.calibration_s[first:]
    out.verify_s = statistics.median(times)
    out.replay_count = len(out.decoded)


def run_search_cycle(cycle, tracer=None, sampler=None, settle=None, repeats: int = 1) -> list[ItemOut]:
    """Per config: search, serialize as ``search --out`` does, read back and
    replay as ``verify-witness`` does (``repeats`` times). ``settle(item,
    out)``, if given, runs untimed after each config."""
    from offswitch_lab import search

    clock = sampler.clock if sampler else _perf
    outs = []
    for item in cycle:
        out = ItemOut()
        try:
            gc.collect()
            t0 = clock()
            out.witnesses = search.find_information_aversion(item.config)
            with _phase(tracer, "bench.serialize"):
                out.text = json.dumps([search.witness_to_jsonable(w) for w in out.witnesses], indent=2) + "\n"
            out.produce_s = clock() - t0
            read_back(out, out.text, repeats, tracer, sampler)
        except Exception as exc:  # counted as failed trials; the run goes on
            out.error = repr(exc)
        if settle is not None:
            settle(item, out)
        outs.append(out)
    return outs


def replay_indices(offset: int, count: int) -> list[int]:
    """Positions in golden/witnesses.json replayed by one check cycle."""
    return [(offset + i) % count for i in range(CHECK_REPLAYS)]


def run_check_cycle(item, replay_text: str, tracer=None, sampler=None, repeats: int = 1):
    from offswitch_lab import search

    clock = sampler.clock if sampler else _perf
    out = ItemOut()
    try:
        gc.collect()
        t0 = clock()
        reports = (search.verify_good(item.good), search.verify_theorem1(item.theorem1))
        out.produce_s = clock() - t0
        read_back(out, replay_text, repeats, tracer, sampler)
    except Exception as exc:
        out.error = repr(exc)
        reports = ()
    return reports, out


def check_check_cycle(tally: Tally, oracles, item, reports, out, stored: list) -> None:
    """``stored`` holds the decoded reference witnesses the cycle replayed."""
    configs = (item.good, item.theorem1)
    tally.attempted += sum(c.trials for c in configs)
    if out.error is not None:
        tally.fail(sum(c.trials for c in configs), f"check: {out.error}")
        tally.attempted += CHECK_REPLAYS
        return
    for config, report in zip(configs, reports):
        if report.trials != config.trials:
            tally.fail(config.trials, f"check seed {config.seed}: ran {report.trials} of {config.trials} trials")
        for v in report.violations:
            tally.fail(1, f"check seed {config.seed}: trial {v.trial_index} {v.detail} ({v.value!r})")
    for w in stored:
        if abs(oracle_voi(oracles, w.problem, w.channel, w.rule) - w.voi) > ORACLE_TOL:
            tally.fail(1, f"check: reference witness {w.trial_index} disagrees with the oracle")
    check_replays(tally, stored, out.decoded, out.replayed, "check")


def reference_entries() -> list:
    return json.loads((GOLDEN / "witnesses.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------- CLI commands


@dataclass
class Command:
    """One finished command: its outcome, wall seconds, start clock and, if
    it ran ``PEAK_PRELUDE``, its own peak RSS."""

    proc: subprocess.CompletedProcess | None  # None if it timed out
    elapsed_s: float
    started: float
    peak_rss_mb: float | None


PEAK_FILE = OUT / "cmd-peak-mb"
# prepended to a child's ``-c`` code: at exit the child writes its own peak RSS to PEAK_FILE
PEAK_PRELUDE = f"""
import atexit, sys
sys.path.insert(0, {str(BENCH)!r})
import peak
atexit.register(peak.write, {str(PEAK_FILE)!r})
sys.path.pop(0)
"""


def run_command(cmd: list[str], env: dict) -> Command:
    """Run one command to its end, capturing its output."""
    OUT.mkdir(parents=True, exist_ok=True)
    PEAK_FILE.unlink(missing_ok=True)
    t0 = _perf()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = None
    elapsed = _perf() - t0
    peak = float(PEAK_FILE.read_text(encoding="ascii")) if PEAK_FILE.exists() else None
    return Command(proc, elapsed, t0, peak)


def call_rss_mb(workload: str, seed: int, prelude: str = "") -> float:
    """Peak RSS of a fresh interpreter that imports the package and makes the
    workload's first call (the first search config, or ``verify_good``) and
    nothing else; ``prelude`` is code run before it."""
    done = run_command([sys.executable, "-c", PEAK_PRELUDE + prelude + CALL_ENTRY, str(ROOT / "src"), str(BENCH),
                        workload, str(seed)], child_env())
    if done.proc is None or done.proc.returncode != 0:
        detail = "timed out" if done.proc is None else done.proc.stderr.decode(errors="replace")[-500:]
        raise RuntimeError(f"call probe failed: {detail}")
    if done.peak_rss_mb is None:
        raise RuntimeError("call probe wrote no peak RSS")
    return done.peak_rss_mb


def check_cli_witnesses(tally: Tally, oracles, item: SearchItem, entries: list) -> None:
    """The file one ``search --out`` command wrote, checked against the config
    its command line stands for: every witness has the rule asked for and
    passes ``check_witnesses``."""
    from offswitch_lab import search

    tally.attempted += item.config.trials
    try:
        witnesses = [search.witness_from_jsonable(e) for e in entries]
    except Exception as exc:
        tally.fail(item.config.trials, f"search: witness file does not decode: {exc!r}")
        return
    rule = _fixed_concrete_rule(item.config.rule)
    wrong = [w.trial_index for w in witnesses if w.rule != rule]
    if wrong:
        tally.fail(len(wrong), f"search: trials {wrong[:5]} carry a rule other than {rule!r}")
    check_witnesses(tally, oracles, item, witnesses)


def check_cli_command(tally: Tally, kind: str, proc, goldens: dict, oracles=None, item=None) -> int:
    """Returns the number of witnesses the command handled (search/verify).
    A search command needs ``oracles`` and the ``item`` it was made from."""
    tally.attempted += 1
    if proc is None:
        tally.fail(1, f"{kind}: timed out")
        return 0
    if proc.returncode != 0:
        tally.fail(1, f"{kind}: exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}")
        return 0
    if kind in goldens:
        if proc.stdout != goldens[kind]:
            tally.fail(1, f"{kind}: output differs from perfbench/golden/{CLI_GOLDEN[kind]}")
        return 0
    entries = json.loads((ROOT / CLI_WITNESS_FILE).read_text(encoding="utf-8"))
    if kind == "search":
        if not proc.stdout.startswith(f"witnesses={len(entries)} ".encode()):
            tally.fail(1, f"search: summary {proc.stdout[:80]!r} does not match the file")
        check_cli_witnesses(tally, oracles, item, entries)
    if kind == "verify-witness" and not proc.stdout.startswith(f"verified {len(entries)} of {len(entries)} ".encode()):
        tally.fail(1, f"verify-witness: {proc.stdout[:80]!r}")
    return len(entries)


def load_goldens() -> dict:
    return {kind: (GOLDEN / name).read_bytes() for kind, name in CLI_GOLDEN.items()}


def parse_importtime(stderr: bytes, module: str) -> float:
    """Cumulative import seconds of ``module`` from ``-X importtime`` output; 0 if absent."""
    for line in stderr.decode(errors="replace").splitlines():
        if line.startswith("import time:"):
            parts = line[len("import time:"):].split("|")
            if len(parts) == 3 and parts[2].strip() == module:
                return int(parts[1]) / 1e6
    return 0.0


# ---------------------------------------------------------------- measuring

RATES = ("trials_per_s", "verify_witnesses_per_s")


@dataclass
class Samples:
    """Raw per-cycle (per-command, per-probe) values, and the calibration
    loop's times sampled through the run.

    A value measured with ``window`` (the calibration times sampled while it
    was measured) is scaled by that window's host factor; any other value by
    the whole run's.
    """

    values: dict = field(default_factory=lambda: defaultdict(list))
    calibration_s: list = field(default_factory=list)

    def add(self, metric: str, raw: float, window: list | None = None) -> None:
        self.values[metric].append((raw, host_factor(window) if window else None))

    def calibrate(self, calibrator) -> None:
        self.calibration_s.append(calibrator())

    def get(self, metric: str, scaled: bool) -> list[float]:
        """Raw values, or values on the reference host."""
        if not scaled:
            return [raw for raw, _ in self.values[metric]]
        run = host_factor(self.calibration_s)
        return [raw * (slower or run) if metric in RATES else raw / (slower or run)
                for raw, slower in self.values[metric]]


class HostSampler:
    """Times the calibration loop every ``SAMPLE_EVERY_S`` seconds while
    timed work runs, from a SIGALRM handler, so that the run's host factor
    is sampled all through the package's calls and not only between them.
    ``clock()`` is a ``perf_counter`` that stands still while the handler
    runs, so that timed regions leave the sampling out."""

    def __init__(self, samples: Samples, calibrator) -> None:
        self.samples = samples
        self.calibrator = calibrator
        self.stolen = 0.0
        self.busy = False

    def clock(self) -> float:
        return _perf() - self.stolen

    def sample(self) -> None:
        """Time the loop now; also called directly, between timed regions."""
        self.busy = True
        t0 = _perf()
        self.samples.calibrate(self.calibrator)
        self.stolen += _perf() - t0
        self.busy = False

    def _on_alarm(self, *_) -> None:
        if not self.busy:  # a tick that lands in a sample is skipped
            self.sample()

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


class SetupProbes:
    """Seconds from spawning a fresh interpreter to its inputs being ready,
    scaled by ``host_factor`` like every other timing.

    The probe imports only the package and ``inputs.py``. The probes are
    spread evenly over the measured run rather than taken back to back, so
    that their median sees the same host conditions as the rest of the run.
    """

    def __init__(self, workload: str, seed: int, seconds: float, samples: Samples, calibrator) -> None:
        self.cmd = [sys.executable, "-c", PROBE_ENTRY, str(ROOT / "src"), str(BENCH), workload, str(seed)]
        self.seconds = seconds
        self.samples = samples
        self.calibrator = calibrator
        self.done = 0

    def probe(self) -> None:
        self.samples.calibrate(self.calibrator)
        if isinstance(self.calibrator, CalibrationHelper):
            self.calibrator.close()
        t0 = _perf()
        proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr[-500:]}")
        self.samples.add("setup_s", float(proc.stdout.strip().splitlines()[-1]) - t0)
        self.samples.calibrate(self.calibrator)
        self.done += 1

    def between(self, elapsed: float) -> float:
        """Probe if one is due at ``elapsed`` seconds into the run; returns the time taken."""
        t0 = _perf()
        if self.done < SETUP_PROBES and elapsed >= self.done * self.seconds / SETUP_PROBES:
            self.probe()
        return _perf() - t0

    def finish(self) -> None:
        while self.done < SETUP_PROBES:
            self.probe()


def _record_in_process(samples: Samples, trials: int, outs, window: list) -> None:
    """``window``: the cycle's calibration times; read-backs are scaled by
    the times taken next to them."""
    produce = sum(o.produce_s for o in outs)
    verify = sum(o.verify_s for o in outs)
    witnesses = sum(o.replay_count for o in outs)
    if all(o.error is None for o in outs):
        samples.add("trials_per_s", trials / produce, window)
        if witnesses:
            verify_window = [t for o in outs if o.replay_count for t in o.verify_window]
            samples.add("verify_witnesses_per_s", witnesses / verify, verify_window)
        samples.add("cmd_ms", (produce + verify) * 1e3, window)


def _add_prefix(prefix: Prefix, outs) -> None:
    for o in outs:
        prefix.witnesses += len(o.witnesses)
        prefix.witness_bytes += len(o.text.encode())
        prefix.digest.update(o.text.encode())


class InProcess:
    """search-sparse, search-dense and check: one process calling the package."""

    def __init__(self, workload: str, seed: int) -> None:
        from offswitch_lab import search

        pin_to_one_cpu()
        self.workload = workload
        self.seed = seed
        self.cycles = make_inputs(workload, seed)
        self.oracles = load_oracles()
        self.tally = Tally()
        self.samples = Samples()
        self.prefix = Prefix()
        self.spans_dropped = 0
        if workload == "check":
            self.entries = reference_entries()
            self.reference = [search.witness_from_jsonable(e) for e in self.entries]

    def run(self, item, tracer=None, sampler=None, settle=None):
        """One cycle's timed work; returns (trials, outs, check), where
        ``check()`` verifies the outputs afterwards. On the search workloads,
        ``settle`` instead takes each config's outputs right after its calls
        (see ``measure``)."""
        if self.workload == "check":
            indices = replay_indices(item.replay_offset, len(self.entries))
            text = json.dumps([self.entries[i] for i in indices], indent=2) + "\n"
            reports, out = run_check_cycle(item, text, tracer, sampler, READBACK_REPEATS[self.workload])
            stored = [self.reference[i] for i in indices]
            trials = item.good.trials + item.theorem1.trials
            return trials, [out], lambda: check_check_cycle(self.tally, self.oracles, item, reports, out, stored)
        outs = run_search_cycle(item, tracer, sampler, settle, READBACK_REPEATS[self.workload])
        trials = sum(one.config.trials for one in item)
        if settle is not None:
            return trials, outs, lambda: None
        return trials, outs, lambda: [check_search_item(self.tally, self.oracles, *pair) for pair in zip(item, outs)]

    def measure(self, seconds: float) -> dict:
        """Cycles for ``seconds`` of wall time, not counting the set-up probes
        taken between them.

        Each search config's outputs are checked and dropped before the next
        config runs, so that the process holds one call's witnesses at a
        time, as one ``search --out`` command does; peak RSS then shows what
        a single call holds, such as a batched engine's arrays.
        """
        n = 0

        def settle(one, out) -> None:
            check_search_item(self.tally, self.oracles, one, out)
            if n < PREFIX_CYCLES:
                _add_prefix(self.prefix, [out])
            out.release()

        calibrator = CalibrationHelper()
        try:
            probes = SetupProbes(self.workload, self.seed, seconds, self.samples, calibrator)
            start = _perf()
            paused = 0.0
            while True:
                item = next(self.cycles)
                first = len(self.samples.calibration_s)
                with HostSampler(self.samples, calibrator) as sampler:
                    trials, outs, check = self.run(item, sampler=sampler, settle=settle)
                check()
                _record_in_process(self.samples, trials, outs, self.samples.calibration_s[first:])
                if n < PREFIX_CYCLES:
                    self.prefix.trials += trials
                n += 1
                elapsed = _perf() - start - paused
                if elapsed >= seconds:
                    break
                paused += probes.between(elapsed)
            probes.finish()
        finally:
            calibrator.close()
        memory = {
            "peak_rss_mb": own_peak_rss_mb(),
            "call_rss_mb": call_rss_mb(self.workload, self.seed),
        }
        return {scaled: end_to_end(self.samples, memory, scaled) for scaled in (True, False)}

    def measure_traced(self, seconds: float) -> dict:
        """Run each cycle untraced and traced on identical inputs, alternating
        which goes first; exact counts come from the first cycles only."""
        from layertrace import Tracer

        tracer = Tracer()
        elapsed = {False: 0.0, True: 0.0}
        traced_trials = 0
        counts = None
        n = 0
        start = _perf()
        while n < PREFIX_CYCLES or _perf() - start < seconds:
            item = next(self.cycles)
            tracer.block = n
            tracer.keep_spans = n < PREFIX_CYCLES
            runs = {}
            for traced in (True, False) if n % 2 else (False, True):
                if traced:
                    tracer.install()
                t0 = _perf()
                runs[traced] = self.run(item, tracer if traced else None)
                elapsed[traced] += _perf() - t0
                if traced:
                    tracer.uninstall()
            for _, _, check in runs.values():
                check()
            trials, outs, _ = runs[True]
            traced_trials += trials
            if n < PREFIX_CYCLES:
                self.prefix.trials += trials
                _add_prefix(self.prefix, outs)
            n += 1
            if n == PREFIX_CYCLES:
                counts = tracer.snapshot()
        self.spans = tracer.span_records()
        self.spans_dropped = tracer.spans_dropped
        layers = per_layer(tracer.snapshot()["self_s"], traced_trials, counts, self.prefix)
        layers["trace.overhead_ratio"] = elapsed[True] / elapsed[False]
        layers.update(zero_cli_layers())
        return layers


class CliOneShot:
    """cli-oneshot: every command in a fresh interpreter, one after another."""

    def __init__(self, workload: str, seed: int) -> None:
        # The calibration loop runs in this process, which is not the
        # program: the program runs in the commands, on the same CPU.
        pin_to_one_cpu()
        self.seed = seed
        self.cycles = cli_cycles(seed)
        self.goldens = load_goldens()
        self.oracles = load_oracles()
        self.env = child_env()
        self.tally = Tally()
        self.samples = Samples()
        self.prefix = Prefix()
        self.spans_dropped = 0
        OUT.mkdir(parents=True, exist_ok=True)

    def _record(self, kind: str, item, proc, elapsed: float, first_cycle: bool) -> None:
        handled = check_cli_command(self.tally, kind, proc, self.goldens, self.oracles, item)
        self.samples.add("cmd_ms", elapsed * 1e3)
        if kind == "search" and handled:
            self.samples.add("trials_per_s", item.config.trials / elapsed)
            if first_cycle:
                self._add_prefix(item.config.trials, handled)
        elif kind == "verify-witness" and handled:
            self.samples.add("verify_witnesses_per_s", handled / elapsed)

    def _add_prefix(self, trials: int, witnesses: int) -> None:
        data = (ROOT / CLI_WITNESS_FILE).read_bytes()
        self.prefix.trials += trials
        self.prefix.witnesses += witnesses
        self.prefix.witness_bytes += len(data)
        self.prefix.digest.update(data)

    def measure(self, seconds: float) -> dict:
        """Command cycles for ``seconds`` of wall time, not counting the
        set-up probes; peak RSS is the largest of any one command's."""
        probes = SetupProbes("cli-oneshot", self.seed, seconds, self.samples, calibrate)
        memory = {"peak_rss_mb": 0.0, "call_rss_mb": 0.0}
        start = _perf()
        paused = 0.0
        n = 0
        while True:
            for kind, args, item in next(self.cycles):
                self.samples.calibrate(calibrate)
                done = run_command([sys.executable, "-c", PEAK_PRELUDE + CLI_ENTRY, *args], self.env)
                memory["peak_rss_mb"] = max(memory["peak_rss_mb"], done.peak_rss_mb or 0.0)
                if kind == "search":
                    memory["call_rss_mb"] = max(memory["call_rss_mb"], done.peak_rss_mb or 0.0)
                self._record(kind, item, done.proc, done.elapsed_s, n < PREFIX_CYCLES)
            self.samples.calibrate(calibrate)
            n += 1
            elapsed = _perf() - start - paused
            if elapsed >= seconds:
                break
            paused += probes.between(elapsed)
        probes.finish()
        return {scaled: end_to_end(self.samples, memory, scaled) for scaled in (True, False)}

    def measure_traced(self, seconds: float) -> dict:
        """Run each command plainly and through the traced shim, alternating
        which goes first; exact counts come from the first cycle only."""
        shim_out = OUT / "cli-shim.json"
        plain_s = traced_s = 0.0
        self_s: dict[str, float] = {}
        counts = {"self_s": {}, "calls": {}, "signals_skipped": 0, "max_replay_err": 0.0}
        starts, imports, numpys, handlers = [], [], [], []
        spans = []
        commands = n = 0
        start = _perf()
        while n < PREFIX_CYCLES or _perf() - start < seconds:
            keep = n < PREFIX_CYCLES
            for kind, args, item in next(self.cycles):
                plain = [sys.executable, "-c", CLI_ENTRY, *args]
                traced = [sys.executable, "-X", "importtime", str(BENCH / "cli_shim.py"), str(shim_out),
                          f"{n}/{kind}" if keep else "", *args]
                shim = None
                for cmd in (traced, plain) if n % 2 else (plain, traced):
                    done = run_command(cmd, self.env)
                    handled = check_cli_command(self.tally, kind, done.proc, self.goldens, self.oracles, item)
                    if cmd is plain:
                        plain_s += done.elapsed_s
                        continue
                    traced_s += done.elapsed_s
                    if done.proc is not None and done.proc.returncode == 0:
                        shim = json.loads(shim_out.read_text(encoding="utf-8"))
                        shim.update(spawned=done.started, stderr=done.proc.stderr, handled=handled)
                if shim is None:
                    continue
                commands += 1
                starts.append((shim["start"] - shim["spawned"]) * 1e3)
                imports.append(shim["import_s"] * 1e3)
                handlers.append(shim["handler_s"] * 1e3)
                numpys.append(parse_importtime(shim["stderr"], "numpy") * 1e3)
                for name, value in shim["trace"]["self_s"].items():
                    self_s[name] = self_s.get(name, 0.0) + value
                if keep:
                    for span in shim["spans"]:
                        span["id"] = f"{n}/{kind}:{span['id']}"
                        span["parent"] = None if span["parent"] is None else f"{n}/{kind}:{span['parent']}"
                        spans.append(span)
                    self.spans_dropped += shim["spans_dropped"]
                    _merge_counts(counts, shim["trace"])
                    if kind == "search":
                        self._add_prefix(item.config.trials, shim["handled"])
            n += 1
        self.spans = spans
        layers = per_layer(self_s, commands, counts, self.prefix)
        layers["trace.overhead_ratio"] = traced_s / plain_s
        layers["cli.interpreter_ms"] = statistics.median(starts)
        layers["cli.import_ms"] = statistics.median(imports)
        layers["cli.numpy_import_ms"] = statistics.median(numpys)
        layers["cli.handler_ms"] = statistics.median(handlers)
        return layers


def _merge_counts(into: dict, snap: dict) -> None:
    for name, calls in snap["calls"].items():
        into["calls"][name] = into["calls"].get(name, 0) + calls
    into["signals_skipped"] += snap["signals_skipped"]
    into["max_replay_err"] = max(into["max_replay_err"], snap["max_replay_err"])


# ---------------------------------------------------------------- metrics


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(samples: Samples, memory: dict, scaled: bool) -> dict:
    """{metric: (value, sample count)}; timings scaled by ``host_factor`` or raw."""
    cmd_ms = samples.get("cmd_ms", scaled)
    medians = {name: samples.get(name, scaled) for name in ("setup_s", "trials_per_s", "verify_witnesses_per_s")}
    out = {name: (statistics.median(values), len(values)) for name, values in medians.items()}
    out["cmd_ms_p50"] = (quantile(cmd_ms, 0.5), len(cmd_ms))
    out["cmd_ms_p90"] = (quantile(cmd_ms, 0.9), len(cmd_ms))
    out.update((name, (mb, 1)) for name, mb in memory.items())
    return out


# per-layer time metric -> span names whose self time it sums
LAYER_TIMES = {
    "search.rng_us": ("search.rng",),
    "search.draw_us": ("search.draw",),
    "search.rule_draw_us": ("search.rule_draw",),
    "core.build_us": ("core.build",),
    "search.evaluate_us": ("search.evaluate",),
    "voi.reu_us": ("voi.reu",),
    "voi.gamma_us": ("voi.gamma",),
    "core.risk_weighted_value.us": ("core.risk_weighted_value",),
    "core.gamma_maximin.us": ("core.gamma_maximin",),
    "voi.faulty_us": ("voi.faulty",),
    "voi.eu_us": ("voi.eu",),
    "core.best_act_eu.us": ("core.best_act_eu",),
    "core.misupdate.us": ("core.misupdate",),
    "search.reverify_us": ("search.reverify",),
    "jsonio.encode_us": ("jsonio.encode",),
    "jsonio.decode_us": ("jsonio.decode",),
    "distributions.us": ("distributions",),
    "offswitch.theorem1_check_us": ("offswitch.theorem1_check",),
    "offswitch.best_option_us": ("offswitch.best_option",),
}
LAYER_CALLS = {
    "voi.calls": ("voi.reu", "voi.gamma", "voi.faulty", "voi.eu"),
    "core.best_act_eu.calls": ("core.best_act_eu",),
    "core.risk_weighted_value.calls": ("core.risk_weighted_value",),
    "core.gamma_maximin.calls": ("core.gamma_maximin",),
    "core.misupdate.calls": ("core.misupdate",),
    "distributions.calls": ("distributions",),
}
CLI_LAYERS = ("cli.interpreter_ms", "cli.import_ms", "cli.numpy_import_ms", "cli.handler_ms")


def per_layer(self_s: dict, ops: int, counts: dict, prefix: Prefix) -> dict:
    """Self microseconds per operation for each layer, and the prefix's exact counts."""
    out = {
        metric: sum(self_s.get(name, 0.0) for name in names) / ops * 1e6 for metric, names in LAYER_TIMES.items()
    }
    for metric, names in LAYER_CALLS.items():
        out[metric] = sum(counts["calls"].get(name, 0) for name in names)
    out["voi.signals_skipped"] = counts["signals_skipped"]
    out["search.max_reverify_err"] = counts["max_replay_err"]
    out["search.trials"] = prefix.trials
    out["search.witnesses"] = prefix.witnesses
    out["search.hit_ratio"] = prefix.witnesses / prefix.trials if prefix.trials else 0.0
    out["jsonio.bytes_per_witness"] = prefix.witness_bytes / prefix.witnesses if prefix.witnesses else 0.0
    return out


def zero_cli_layers() -> dict:
    return {name: 0.0 for name in CLI_LAYERS}
