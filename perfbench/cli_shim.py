"""Traced stand-in for the ``offswitch-lab`` console script.

Usage: python3 -X importtime perfbench/cli_shim.py OUT_JSON TRIAL_LABEL ARGS...

Runs ``offswitch_lab.cli.main(ARGS)`` exactly as the console script would,
after timing the import of ``offswitch_lab.cli``, with the layer tracer
installed around the handler. Writes its start time, import and handler
seconds, the tracer's aggregates and, when TRIAL_LABEL is not empty, its
spans to OUT_JSON, then exits with the handler's code.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

t0 = time.perf_counter()
import offswitch_lab.cli as cli  # noqa: E402

import_s = time.perf_counter() - t0

import json  # noqa: E402

from layertrace import Tracer  # noqa: E402


def main() -> int:
    out_path, label, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.keep_spans = bool(label)
    tracer.block = label
    tracer.install()
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    handler_s = time.perf_counter() - t0
    tracer.uninstall()
    sys.stdout.flush()
    record = {
        "start": START,
        "import_s": import_s,
        "handler_s": handler_s,
        "trace": tracer.snapshot(),
        "spans": tracer.span_records(),
        "spans_dropped": tracer.spans_dropped,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
