"""A fixed pure-Python loop that measures how fast the host runs right now.

The benchmark's machine is a shared VM whose speed swings by tens of
percent over seconds to minutes, and CPU time tracks wall time, so no
clock of the process can tell the program's own cost from the host's.
This loop does a fixed amount of work of the same kind as the
simulator's inner loop (integer arithmetic, list indexing, small dicts
that evict) and never calls `memvuln`, so a change to the program cannot
move it.

A run times the loop before and after each set-up and each repetition.
`host_factor` of all the run's samples is how much faster than
`REFERENCE_S` the loop ran during the run, and every time the run
reports is multiplied by it: seconds at the reference host speed.
Run this file to print ten loop times.
"""

import statistics
import time

#: Seconds one `loop()` takes at the reference host speed.  It only sets
#: the scale: on the machine the benchmark was built on the loop took
#: between 0.36 s and 0.54 s.
REFERENCE_S = 0.5

_N = 800_000
_SETS = 256
_WAYS = 8


def loop() -> float:
    """Run the fixed loop once; returns its wall time in seconds."""
    sets = [{} for _ in range(_SETS)]
    x = 12345
    t0 = time.perf_counter()
    for i in range(_N):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        line = x >> 13
        st = sets[line % _SETS]
        rec = st.get(line)
        if rec is None:
            if len(st) >= _WAYS:
                del st[next(iter(st))]
            st[line] = [i, False]
        else:
            rec[0] = i
            rec[1] = not rec[1]
    return time.perf_counter() - t0


def host_factor(samples) -> float:
    """REFERENCE_S over the mean of a run's `loop()` times: a measured
    time multiplied by it is in seconds at the reference host speed."""
    return REFERENCE_S / statistics.fmean(samples)


if __name__ == "__main__":
    print(" ".join(f"{loop():.4f}" for _ in range(10)))
