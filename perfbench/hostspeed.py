"""Host-speed probe: every end-to-end time is reported at a reference speed.

On a shared host the CPU runs slower for seconds to minutes at a time while
other tenants are busy (1.4x to 1.8x on a 2-CPU cloud VM), in CPU time as
well as in wall time, so raw times of one and the same request differ by
that much from run to run.  Each timed region is therefore bracketed by a
fixed piece of pure-Python work that does not touch cstriple, and its CPU
time is scaled by REFERENCE_S over the mean of the two probe times: the time
the region would have taken on a host where the probe takes REFERENCE_S.
On that VM, with the host quiet, the probe takes about REFERENCE_S.

``run_delay`` reads how long this process has waited for a CPU while it was
ready to run, so that wall time can be compared with CPU time on a busy host.
"""

from time import process_time

REFERENCE_S = 0.002
LOOPS = 20000


def probe() -> float:
    """CPU seconds the fixed probe work takes now."""
    start = process_time()
    acc, table = 0, {}
    for i in range(LOOPS):
        acc += i * i % 7
        table[i & 255] = acc
    return process_time() - start


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two probes, at the reference speed."""
    return seconds * 2 * REFERENCE_S / (before + after)


def run_delay() -> float:
    """Seconds the main thread has spent runnable but waiting for a CPU
    (Linux schedstat); 0.0 where the kernel does not report it."""
    try:
        with open("/proc/self/schedstat") as f:
            return int(f.read().split()[1]) / 1e9
    except (OSError, IndexError, ValueError):
        return 0.0


def wall_per_cpu(wall: float, waited: float, cpu: float) -> float:
    """Wall time of a region, less the time it waited for a CPU, over its CPU
    time: 1 for single-threaded CPU-bound work on a busy host as on an idle
    one, below 1 when the work ran on several CPUs at once, above 1 when it
    blocked (sleep, fsync, a lock)."""
    return (wall - waited) / max(cpu, 1e-9)
