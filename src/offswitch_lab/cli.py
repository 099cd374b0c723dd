"""Command-line front end.

Subcommands: scenario, sweep, check, search, verify-witness, report.
Exit codes: 0 success, 1 check/report/verification failure, 2 bad input, 3
search exhausted without a witness; 1 also, with nothing printed, when the
reader behind stdout or an ``--out`` pipe goes away, and 2 with one ``error:
cannot write stdout`` line when stdout cannot be written for another reason.
A command reports bad input by raising ValueError and a failed self-check by
raising AssertionError; ``main`` alone turns them into ``error: <message>``
on stderr and exit 2 or 1. A search raises ValueError for its config before
the first trial, and reports a witness that the strict decoder or the replay
refuses as a failed re-verification, an AssertionError. Every command is deterministic given its
arguments; tables round to 7 significant digits, JSON and CSV keep full precision, and a JSON
file read as input may give no key twice in one object. Only ``check`` and
``search`` sample, and only they import ``search`` and with it numpy; the
other commands start without either. ``_write_out`` alone decides where a
command's document goes: stdout, or an ``--out`` path, which ``search`` has
it check before the first trial. A command hands it a function that writes
the document to the stream it picks, one entry or row at a time, so no
command holds its whole document. A pipe is opened only by the read or write
that uses it, so ``/dev/stdin``, ``/dev/stdout`` or a FIFO works as a
scenario path or as ``--out``. An ``--out`` that names one of the process's
descriptors, such as ``/dev/stdin`` or ``/dev/stdout``, is written through
it, so ``>>`` appends and ``< file`` is refused; any other ``--out`` that
names a directory is refused before the work.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import json
import os
import stat
import sys
import tempfile
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

from . import jsonio, voi
from .core import MISUPDATE_MODES, ExpectedUtilityRule, PowerRisk, RiskWeightedRule
from .distributions import Uniform
from .offswitch import OffSwitchScenario, best_option, reduce_to_two_state

if TYPE_CHECKING:
    from collections.abc import Callable, Iterable
    from typing import TextIO

    from .search import SearchRule

BUILTIN_SCENARIOS = {scenario.label: scenario for scenario in (
    OffSwitchScenario(Uniform(-40.0, 60.0), 0.0, "alice-basic"),
    OffSwitchScenario(Uniform(-10.0, 90.0), 0.0, "alice-confident"),
    OffSwitchScenario(Uniform(-10.0, 90.0), 0.02, "alice-noisy"),
)}

# each row is checked at its scenario's own epsilon
REFERENCE_ROWS = (
    ("alice-basic", "eu_act", 10.0),
    ("alice-basic", "eu_defer", 18.0),
    ("alice-basic", "delta", 8.0),
    ("alice-basic", "best", "defer"),
    ("alice-confident", "eu_act", 40.0),
    ("alice-confident", "eu_defer", 40.5),
    ("alice-confident", "delta", 0.5),
    ("alice-confident", "threshold_epsilon", 0.5 / 41.0),
    ("alice-noisy", "eu_defer", 39.68),
    ("alice-noisy", "eu_learn", 40.0),
    ("alice-noisy", "best", "act"),
)

REPORT_TOL = 1e-9
MAX_SWEEP_STEPS = 10_000  # the grid is written row by row; the bound limits the work


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return format(value, ".7g")
    return str(value)


def _os_error(verb: str, what: str, exc: OSError) -> ValueError:
    """The input error for a path that cannot be read or written, naming it and the reason."""
    return ValueError(f"cannot {verb} {what}: {exc.strerror or type(exc).__name__}")


def _read_json(path: str, what: str):
    """The JSON document in a file; ValueError naming the file when it cannot be
    read, decoded as UTF-8 or parsed, or when one of its objects gives a key twice."""
    name = f"{what} {path!r}"

    def distinct(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [key for key, _ in pairs]
            raise ValueError(f"{name} repeats the key {next(k for k in keys if keys.count(k) > 1)!r}")
        return obj

    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=distinct)
    except OSError as exc:
        raise _os_error("read", name, exc) from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # text that is not UTF-8, or nested too deep for the parser, is bad JSON too
        raise ValueError(f"{name} is not valid JSON: {exc}") from exc


def _own_descriptor(path: str) -> int | None:
    """The descriptor of this process that a path names (``/dev/stdin``,
    ``/dev/stdout``, ``/dev/stderr``, ``/dev/fd/N`` or ``/proc/self/fd/N``), or None."""
    for prefix in ("/dev/fd/", "/proc/self/fd/"):
        number = path.removeprefix(prefix)
        if number != path and number.isascii() and number.isdigit():
            return int(number)
    return {"/dev/stdin": 0, "/dev/stdout": 1, "/dev/stderr": 2}.get(path)


def _write_out(path: str | None, write: Callable[[TextIO], None] | None) -> None:
    """Call ``write(stream)`` on a text stream that leads to ``path``, or on
    stdout when ``path`` is None, so that ``write`` puts a command's document
    there; ValueError naming the path when it cannot be written, except that a
    reader that went away raises BrokenPipeError, as it does behind stdout.

    A path that names one of the process's own descriptors is written through
    that descriptor, after what was printed to stdout, so it keeps its offset
    and append mode whatever it leads to: ``--out /dev/stdout >> log`` appends
    to ``log``, and ``--out /dev/stdin < file`` fails, as stdin is open only
    for reading. Any other path that names a directory is refused: an existing
    one, ``""``, or one whose last component is empty, ``.`` or ``..``, such as
    ``new/``, which would otherwise make a file ``new``, and ``file.txt/``,
    which would replace ``file.txt``. Any other path that exists and is not a
    regular file, such as a FIFO or a device, is written in place. Any other
    regular file or new path, or one a symlink names, is replaced whole or not
    at all: ``write`` writes to a temporary file in its directory, which gets
    the file's mode (or the mode a new file gets) and is renamed onto it only
    when ``write`` returns.

    With ``write`` None nothing is written: the call checks, before the
    command's work, what that same write will need, and leaves nothing behind.
    A descriptor gets a write of no bytes, which fails unless it is open for
    writing; a directory is refused as it is for the write; a FIFO or a device
    is not opened; a regular file, new or not, needs an unnamed temporary file
    in its target's directory."""
    if path is None:
        if write is not None:
            write(sys.stdout)
        return
    descriptor = _own_descriptor(path)
    try:
        if descriptor is None and (os.path.basename(path) in ("", ".", "..") or os.path.isdir(path)):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if descriptor is not None or (os.path.exists(path) and not os.path.isfile(path)):
            if write is not None:
                sys.stdout.flush()
                place = path if descriptor is None else descriptor
                with open(place, "w", encoding="utf-8", closefd=descriptor is None) as stream:
                    write(stream)
            elif descriptor is not None:
                os.write(descriptor, b"")
            return
        target = os.path.realpath(path)
        if write is None:
            tempfile.TemporaryFile(dir=os.path.dirname(target)).close()
            return
        try:
            mode = stat.S_IMODE(os.stat(target).st_mode)
        except FileNotFoundError:
            umask = os.umask(0o022)
            os.umask(umask)
            mode = 0o666 & ~umask
        descriptor, temporary = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".offswitch-lab-")
        os.close(descriptor)
        try:
            os.chmod(temporary, mode)
            with open(temporary, "w", encoding="utf-8") as stream:
                write(stream)
            os.replace(temporary, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(temporary)
            raise
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise _os_error("write", repr(path), exc) from exc


def _load_scenario(name_or_path: str, epsilon_override: float | None) -> OffSwitchScenario:
    if name_or_path in BUILTIN_SCENARIOS:
        scenario = BUILTIN_SCENARIOS[name_or_path]
    else:
        try:
            obj = _read_json(name_or_path, "scenario file")
        except ValueError as exc:
            # the built-in names help only when no file could be read at that path
            if not isinstance(exc.__cause__, OSError):
                raise
            raise ValueError(f"{exc} (built-in scenarios: {', '.join(sorted(BUILTIN_SCENARIOS))})") from exc
        scenario = jsonio.decode_scenario(obj)
    if epsilon_override is not None:
        scenario = replace(scenario, epsilon=epsilon_override)
    return scenario


def _scenario_payload(scenario: OffSwitchScenario) -> dict:
    payload = {
        "label": scenario.label,
        "prior": jsonio.encode_distribution(scenario.prior),
        "epsilon": scenario.epsilon,
        "report": asdict(best_option(scenario.prior, scenario.epsilon)),
    }
    if scenario.rule is not None or scenario.updater is not None:
        problem, channel = reduce_to_two_state(scenario.prior, scenario.epsilon)
        for key, rule in (("rule_analysis", scenario.rule), ("updater_analysis", scenario.updater)):
            if rule is not None:
                payload[key] = asdict(voi.evaluate_rule(problem, channel, rule))
    return payload


def cmd_scenario(args) -> int:
    scenario = _load_scenario(args.scenario, args.epsilon)
    payload = _scenario_payload(scenario)
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    rows = [("scenario", payload["label"]), ("prior", _describe_prior(scenario)), ("epsilon", _fmt(payload["epsilon"]))]
    rows += [(name.removesuffix("_epsilon"), _fmt(value)) for name, value in payload["report"].items()]
    for key in ("rule", "updater"):
        if f"{key}_analysis" in payload:
            sub = payload[f"{key}_analysis"]
            rows += [(f"{key}_{field}", _fmt(sub[field])) for field in ("rule", "value_now", "value_learning", "voi")]
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"{key:<{width}}  {value}")
    return 0


def _describe_prior(scenario: OffSwitchScenario) -> str:
    prior = scenario.prior
    if isinstance(prior, Uniform):
        return f"uniform[{_fmt(prior.lo)}, {_fmt(prior.hi)}]"
    atoms = ", ".join(f"{_fmt(v)}:{_fmt(w)}" for v, w in prior.atoms)
    return f"discrete{{{atoms}}}"


def cmd_sweep(args) -> int:
    scenario = _load_scenario(args.scenario, None)
    if not (0.0 <= args.lo < args.hi <= 1.0):
        raise ValueError(f"epsilon grid needs 0 <= lo < hi <= 1, got [{args.lo}, {args.hi}]")
    if not 2 <= args.steps <= MAX_SWEEP_STEPS:
        raise ValueError(f"epsilon grid needs between 2 and {MAX_SWEEP_STEPS} steps, got {args.steps}")

    def write(stream: TextIO) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["epsilon", "eu_act", "eu_defer", "eu_learn", "best"])
        for i in range(args.steps):
            # the interpolated last point can round past hi, and past 1 when hi is 1
            eps = args.hi if i == args.steps - 1 else args.lo + (args.hi - args.lo) * i / (args.steps - 1)
            report = best_option(scenario.prior, eps)
            writer.writerow([repr(eps), repr(report.eu_act), repr(report.eu_defer), repr(report.eu_learn), report.best])

    _write_out(args.out, write)
    return 0


def cmd_check(args) -> int:
    from . import search

    config = search.SearchConfig(seed=args.seed, trials=args.trials)
    runner = search.verify_good if args.property == "good" else search.verify_theorem1
    report = runner(config)
    print(
        f"{args.property}: trials={report.trials} violations={len(report.violations)} seed={args.seed}"
        f" stream={search.STREAM_VERSION}"
    )
    for violation in report.violations:
        print(f"  trial {violation.trial_index}: {violation.detail} ({violation.value!r})")
    return 0 if report.ok else 1


def _rule_number(convert, part: str, text: str, kind: str, usage: str):
    """``convert(part)``; ValueError naming the whole rule when it is not a number."""
    try:
        return convert(part)
    except ValueError:
        raise ValueError(f"cannot parse {kind} rule {text!r}; use {usage}") from None


def parse_rule(text: str) -> SearchRule:
    """Parse a --rule string: eu | reu:identity | reu:power:K | gamma[:M] | faulty:KIND:Q."""
    from .search import CredalSearch, FaultySearch

    parts = text.split(":")
    head = parts[0]
    if head == "eu" and len(parts) == 1:
        return ExpectedUtilityRule()
    if head == "reu":
        usage = "reu:identity or reu:power:K"
        if parts[1:] == ["identity"]:
            return RiskWeightedRule(PowerRisk(1.0))
        if len(parts) == 3 and parts[1] == "power":
            return RiskWeightedRule(PowerRisk(_rule_number(float, parts[2], text, "risk-weighted", usage)))
        raise ValueError(f"cannot parse risk-weighted rule {text!r}; use {usage}")
    if head == "gamma":
        usage = "gamma or gamma:M"
        if len(parts) == 1:
            return CredalSearch()
        if len(parts) == 2:
            return CredalSearch(_rule_number(int, parts[1], text, "credal", usage))
        raise ValueError(f"cannot parse credal rule {text!r}; use {usage}")
    if head == "faulty" and len(parts) == 3:
        # short names: the first word of each mode name
        kinds = {mode.split("-")[0]: mode for mode in MISUPDATE_MODES}
        if parts[1] not in kinds:
            raise ValueError(f"unknown misupdate kind {parts[1]!r}; use stay, complement or custom")
        return FaultySearch(_rule_number(float, parts[2], text, "faulty", "faulty:KIND:Q"), kinds[parts[1]])
    raise ValueError(
        f"cannot parse rule {text!r}; use eu, reu:identity, reu:power:K, gamma[:M] or faulty:KIND:Q"
    )


def _write_json_list(stream: TextIO, entries: Iterable) -> None:
    """Write ``json.dumps(list(entries), indent=2) + "\\n"`` to ``stream``, one
    entry at a time. json escapes every newline inside a string, so each
    newline in an entry's indent-2 text is a line break, and the list puts the
    entry one level, two spaces, deeper."""
    empty = True
    stream.write("[")
    for entry in entries:
        stream.write("\n  " if empty else ",\n  ")
        stream.write(json.dumps(entry, indent=2).replace("\n", "\n  "))
        empty = False
    stream.write("]\n" if empty else "\n]\n")


def cmd_search(args) -> int:
    from . import search

    # seed, trials and each flag given, under the SearchConfig fields they set
    settings = {field.name: getattr(args, field.name) for field in fields(search.SearchConfig) if field.name in args}
    config = search.SearchConfig(**{**settings, "rule": parse_rule(args.rule)})
    _write_out(args.out, None)  # fail before the first trial, creating nothing and opening no pipe
    witnesses = search.find_information_aversion(config)
    _write_out(args.out, lambda stream: _write_json_list(stream, map(jsonio.witness_to_jsonable, witnesses)))
    print(
        f"witnesses={len(witnesses)} trials={args.trials} seed={args.seed} rule={args.rule}"
        + (f" most_negative_voi={witnesses[0].voi!r}" if witnesses else "")
        + f" stream={search.STREAM_VERSION}",
        file=sys.stdout if args.out else sys.stderr,
    )
    return 0 if witnesses else 3


def cmd_verify_witness(args) -> int:
    obj = _read_json(args.file, "witness file")
    try:
        witnesses = [jsonio.witness_from_jsonable(entry) for entry in (obj if isinstance(obj, list) else [obj])]
    except ValueError as exc:
        raise ValueError(f"cannot parse witness file: {exc}") from exc
    failures = 0
    for witness in witnesses:
        if fault := voi.witness_fault(witness, voi.replay_witness(witness)):
            failures += 1
            print(f"trial {witness.trial_index}: {fault}")
    print(f"verified {len(witnesses) - failures} of {len(witnesses)} witnesses within {voi.REVERIFY_TOL}")
    return 0 if failures == 0 else 1


def cmd_report(_args) -> int:
    lines = [
        "# Built-in scenario reproduction",
        "",
        "| scenario | epsilon | quantity | expected | computed | status |",
        "|----------|---------|----------|----------|----------|--------|",
    ]
    all_pass = True
    for name, quantity, expected in REFERENCE_ROWS:
        scenario = BUILTIN_SCENARIOS[name]
        report = best_option(scenario.prior, scenario.epsilon)
        computed = getattr(report, quantity)
        if isinstance(expected, str):
            ok = computed == expected
        else:
            ok = computed is not None and abs(computed - expected) <= REPORT_TOL
        all_pass = all_pass and ok
        lines.append(
            f"| {name} | {_fmt(scenario.epsilon)} | {quantity} | {_fmt(expected)} "
            f"| {_fmt(computed)} | {'pass' if ok else 'FAIL'} |"
        )
    lines.append("")
    lines.append(f"{len(REFERENCE_ROWS)} rows, " + ("all pass." if all_pass else "some FAILED."))
    print("\n".join(lines))
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="offswitch-lab",
        description="Off-switch game calculations, theorem property runs, and "
        "counterexample searches for information-averse decision rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scenario = sub.add_parser("scenario", help="Evaluate a built-in or JSON scenario.")
    scenario.add_argument("scenario", help=f"Built-in name ({', '.join(BUILTIN_SCENARIOS)}) or a JSON file path.")
    scenario.add_argument("--epsilon", type=float, default=None, help="Override the scenario's garbling probability.")
    scenario.add_argument("--json", action="store_true", help="Emit machine-readable JSON instead of a table.")
    scenario.set_defaults(handler=cmd_scenario)

    sweep = sub.add_parser("sweep", help="CSV of option values over an epsilon grid.")
    sweep.add_argument("scenario", help="Built-in name or JSON file path.")
    sweep.add_argument("--lo", type=float, required=True, help="Grid start (inclusive).")
    sweep.add_argument("--hi", type=float, required=True, help="Grid end (inclusive).")
    sweep.add_argument("--steps", type=int, required=True, help=f"Number of grid points (2 to {MAX_SWEEP_STEPS}).")
    sweep.add_argument("--out", default=None, help="Write CSV to this file instead of stdout.")
    sweep.set_defaults(handler=cmd_sweep)

    check = sub.add_parser("check", help="Run a randomized property check that must never fail.")
    check.add_argument("property", choices=("good", "theorem1"), help="Which inequality to exercise.")
    check.add_argument("--trials", type=int, default=10000)
    check.add_argument("--seed", type=int, default=0)
    check.set_defaults(handler=cmd_check)

    # each flag is stored under the SearchConfig field it sets, and one left out
    # is not stored, so that field keeps its default
    searcher = sub.add_parser("search", help="Hunt for instances where the rule rejects free information.",
                              argument_default=argparse.SUPPRESS)
    searcher.add_argument("--rule", required=True, help="eu | reu:identity | reu:power:K | gamma[:M] | faulty:KIND:Q")
    searcher.add_argument("--trials", type=int, default=100000)
    searcher.add_argument("--seed", type=int, default=0)
    searcher.add_argument("--states", type=int, dest="state_count", metavar="STATES")
    searcher.add_argument("--acts", type=int, dest="act_count", metavar="ACTS")
    searcher.add_argument("--signals", type=int, dest="signal_count", metavar="SIGNALS")
    searcher.add_argument("--tolerance", type=float, dest="aversion_tolerance", metavar="TOLERANCE",
                          help="Minimum |voi| for a witness.")
    searcher.add_argument("--out", default=None, help="Write witness JSON to this file instead of stdout.")
    searcher.set_defaults(handler=cmd_search)

    verify = sub.add_parser("verify-witness", help="Replay a witness file and confirm stored voi values.")
    verify.add_argument("file", help="Witness JSON produced by the search command.")
    verify.set_defaults(handler=cmd_verify_witness)

    report = sub.add_parser("report", help="Reproduce every built-in reference number and pass/fail each.")
    report.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except OSError as exc:
        # _read_json and _write_out raise ValueError for a path, so an OSError
        # here is a failed write to stdout, or a BrokenPipeError: a reader that
        # went away, behind stdout or an --out pipe. Send what is still buffered
        # to os.devnull, so that the flush at exit prints no second error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return 1
        print(f"error: cannot write stdout: {exc.strerror or type(exc).__name__}", file=sys.stderr)
        return 2
    except (ValueError, AssertionError) as exc:
        # this is the one place where bad input, which every command reports by
        # raising ValueError, becomes exit 2, and a failed self-check (a kernel that
        # disagrees with the scalar path, or a witness that ``voi.witness_fault``
        # faults) becomes exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1


if __name__ == "__main__":
    sys.exit(main())
