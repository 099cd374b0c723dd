"""Peak RSS of a process since its exec, from ``VmHWM`` in ``/proc/self/status``.

``ru_maxrss`` of a child also counts its parent's memory, which the child
holds until its exec, so a child started from a big benchmark process would
read at least that big. ``VmHWM`` covers only the memory of the program the
process runs. Measured children import this module (and nothing else of the
benchmark) and call ``write`` at exit.
"""


def own_peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024.0


def write(path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(repr(own_peak_rss_mb()))
