"""Benchmark of offswitch-lab: one workload per run, or all four in turn.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is taken from its ``src/`` and
the oracles from ``tests/oracles.py``. With ``--trace 0`` a run reports the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it reports the
per-layer metrics from a traced run and writes its spans under
``perfbench/out/``. Every run checks the program's outputs, prints each
metric with its unit and sample count, writes a result file with its
manifest under ``perfbench/out/``, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from calib import CAL_REF_S
from workloads import OUT, ROOT, WORKLOADS

DEFAULT_SEED = 1
HELDOUT_SEED = 7919  # kept out of tuning; for confirming a claim on fresh inputs


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _checkout_problem() -> str | None:
    for needed in ("BENCHMARK.json", "src/offswitch_lab/__init__.py", "tests/oracles.py"):
        if not (ROOT / needed).is_file():
            return f"{needed} is missing; run from the root of a full checkout"
    return None


def _use_checkout_package() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import offswitch_lab

    if Path(offswitch_lab.__file__).resolve().parent != ROOT / "src" / "offswitch_lab":
        raise ImportError(f"offswitch_lab resolved to {offswitch_lab.__file__}, not this checkout")


def manifest(seed: int) -> dict:
    import importlib.metadata
    import platform

    import offswitch_lab

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "offswitch_lab": offswitch_lab.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
    }


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    _use_checkout_package()
    runner = (workloads.CliOneShot if workload == "cli-oneshot" else workloads.InProcess)(workload, seed)
    unscaled = None
    if trace:
        measured = {name: (value, None) for name, value in runner.measure_traced(seconds).items()}
    else:
        both = runner.measure(seconds)
        measured, unscaled = both[True], both[False]
    declared = _declared_metrics(trace)
    if set(measured) != set(declared):
        return _fail(f"measured metrics {sorted(set(measured) ^ set(declared))} disagree with BENCHMARK.json")

    measured = {name: measured[name] for name in declared}
    tally = runner.tally
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    record = {
        "manifest": manifest(seed),
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_ratio": tally.failed / tally.attempted,
        "errors": tally.errors,
        "witness_sha256": runner.prefix.digest.hexdigest() if runner.prefix.witnesses else None,
        "host_calibration_ms": statistics.median(runner.samples.calibration_s) * 1e3
        if runner.samples.calibration_s else None,
        "metrics": {name: {"value": v, "unit": declared[name], "samples": n} for name, (v, n) in measured.items()},
    }
    if unscaled is not None:
        record["unscaled_metrics"] = {name: {"value": unscaled[name][0], "unit": declared[name]} for name in declared}
    if trace:
        spans_path = OUT / f"{stem}-spans.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in runner.spans:
                fh.write(json.dumps(span) + "\n")
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        record["spans_dropped"] = runner.spans_dropped
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    for name, (value, n) in measured.items():
        samples = "" if n is None else f"  (n={n})"
        print(f"  {name:<32} {value:>14.6g} {declared[name]:<8}{samples}")
    print(f"  {'failed_ratio':<32} {record['failed_ratio']:>14.6g} ratio     ({tally.failed} failed of {tally.attempted})")
    for error in tally.errors:
        print(f"  failure: {error}")
    print("  manifest: " + " ".join(f"{k}={v}" for k, v in record["manifest"].items()))
    print(f"  witness sha256 (first cycles, not gated): {record['witness_sha256']}")
    if record["host_calibration_ms"] is not None:
        print(f"  host calibration loop: median {record['host_calibration_ms']:.4f} ms"
              f" (timings above are scaled to {CAL_REF_S * 1e3:g} ms; unscaled ones are in the result file)")
    print(f"  result file: {(OUT / f'{stem}.json').relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": v, "unit": declared[name]} for name, (v, _) in measured.items()},
            }
        )
    )
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, end="")
            return _fail(f"workload {workload} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        return _fail("seed must be non-negative")
    problem = _checkout_problem()
    if problem:
        return _fail(problem)
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, RuntimeError, subprocess.SubprocessError, OSError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
