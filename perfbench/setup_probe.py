"""One set-up, timed in a fresh interpreter: import, problem, and optionally
the simulation that warms a scratch directory's cache.

Usage: python3 perfbench/setup_probe.py --side 16 [--warm SCRATCH_DIR]
Prints one JSON object: {"setup_raw_s": ..., "warm_raw_s": ...,
"calibration_s": [...]}, the times as measured and the calibration loop's
times around them (see calibrate.py).
"""

import argparse
import json
import time

import calibrate

cal0 = calibrate.loop()
t0 = time.perf_counter()


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--side", type=int, required=True)
    ap.add_argument("--warm", default=None)
    args = ap.parse_args()
    from memvuln import cli
    from memvuln.cachesim import CacheConfig

    cli.build_problem(args.side, 1e-8)
    setup_raw = time.perf_counter() - t0
    cals = [cal0, calibrate.loop()]
    warm_raw = 0.0
    if args.warm:
        t1 = time.perf_counter()
        cli.simulate_problem(args.side, 1e-8,
                             CacheConfig.desk_scaled(args.side), args.warm)
        warm_raw = time.perf_counter() - t1
        cals.append(calibrate.loop())
    print(json.dumps({"setup_raw_s": setup_raw, "warm_raw_s": warm_raw,
                      "calibration_s": cals}))


if __name__ == "__main__":
    main()
