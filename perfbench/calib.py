"""Host-speed calibration: a fixed pure-Python loop that never touches the package.

On a shared host, other tenants slow stretches of a run, for seconds to
minutes, by up to 2x, and they slow this loop along with the package.
``host_factor`` relates a run's wall times to a reference host where the
loop takes ``CAL_REF_S``.

Run as a script, this module is the calibration helper: for every line read
from stdin it times the loop once and writes the seconds as one line. The
in-process workloads time the loop there, in an interpreter the program has
never run in, on the CPU the program is pinned to.
"""

import statistics
import sys
import time

CAL_REF_S = 0.75e-3  # calibrate() on a quiet 2-vCPU Xeon VM (Python 3.11)

_perf = time.perf_counter


def calibrate() -> float:
    """Seconds for one pass of the loop."""
    t0 = _perf()
    rows = []
    for i in range(300):
        p = (0.2, 0.3, 0.5)
        u = (i * 0.1, -1.0, 2.5)
        post = tuple(b * x / 0.7 for b, x in zip(p, u))
        rows.append({"i": i, "v": sum(post), "t": post})
        max(range(3), key=lambda k: post[k])
    return _perf() - t0


def host_factor(calibration_s: list[float]) -> float:
    """How many times slower than the reference host this host ran, from
    loop times sampled all through a run: not one reading, as the host's
    speed changes within seconds, and their median, not their mean, as one
    preempted pass can take 20 times as long as the rest."""
    return statistics.median(calibration_s) / CAL_REF_S


def main() -> int:
    for _ in sys.stdin:
        sys.stdout.write(repr(calibrate()) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
