"""memvuln benchmark: one workload, one seed, one JSON line of metrics.

Run from the repository root:

    python3 perfbench/run.py --workload metrics-cold --seed 0 --seconds 20 --trace 0

With `--trace 0` the last line of standard output holds the end-to-end
metrics (wall_s, setup_s, peak_rss_mb); with `--trace 1` it holds the
per-layer metrics of a traced run.  Times are in seconds at the reference
host speed (calibrate.py); the lines before the result also give them as
measured.  See perfbench/README.md for the workloads, the metrics and how
to read them.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

import calibrate

START = time.perf_counter()
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
RUNS_DIR = os.path.join(ROOT, ".perfbench-runs")

MIN_REPS = 2  # timed repetitions per untraced run, at least
MIN_TRACED_REPS = 2  # of each kind; exact counts are compared too
SETUPS = 3  # set-ups per untraced run; setup_s is their median
RUN_BUDGET_S = 150.0  # no repetition starts that could end past this
REP_LIMIT_S = 170  # a repetition still running after this is killed

#: One thread per numeric library: the workloads run single-process, and
#: on a small shared machine extra threads only measure the scheduler.
THREAD_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS")}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure repetitions for at least this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: a tiny problem for the benchmark's own tests")
    return ap.parse_args(argv)


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "memvuln")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(wl) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": wl.name,
        "seed": wl.seed,
        "params": wl.params(),
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Set-up and repetitions


def setup_once(side: int, warm_dir: str | None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
           "--side", str(side)]
    if warm_dir:
        cmd += ["--warm", warm_dir]
    env = dict(os.environ, PYTHONPATH=SRC, **THREAD_ENV)
    out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                         timeout=REP_LIMIT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def set_up(wl, run_dir: str, count: int) -> tuple[dict, dict]:
    """`count` fresh-process set-ups; the first also warms the cache when
    the workload needs it.  setup_raw_s is the median import-and-problem
    time plus that one warming simulation, as measured."""
    inputs = {}
    warm_dir = os.path.join(run_dir, "warm") if wl.warm_cache else None
    probes = [setup_once(wl.p["side"], warm_dir if i == 0 else None)
              for i in range(count)]
    setup = {"setup_raw_s": statistics.median(p["setup_raw_s"]
                                              for p in probes)
             + probes[0]["warm_raw_s"],
             "calibration_s": [c for p in probes for c in p["calibration_s"]]}
    if warm_dir:
        (npz,) = [f for f in os.listdir(warm_dir) if f.endswith(".npz")]
        inputs["warm_sim"] = os.path.join(warm_dir, npz)
        inputs["warm_mtime_ns"] = os.stat(inputs["warm_sim"]).st_mtime_ns
    return setup, inputs


def _child(argvs, rep_dir, rep_id, traced) -> None:
    """Body of a forked repetition; never returns."""
    code = 1
    try:
        signal.alarm(REP_LIMIT_S)
        os.environ["MEMVULN_SCRATCH"] = os.path.join(rep_dir, "scratch")
        log = open(os.path.join(rep_dir, "child.log"), "w", buffering=1)
        os.dup2(log.fileno(), 1)
        os.dup2(log.fileno(), 2)
        sys.stdout = sys.stderr = log
        from memvuln import cli

        import spans

        rec = spans.install(rep_id) if traced else None
        codes = []
        cal0 = calibrate.loop()
        t0 = time.perf_counter()
        for argv in argvs:
            codes.append(cli.main(argv))
            if codes[-1] != 0:
                break
        wall = time.perf_counter() - t0
        cal1 = calibrate.loop()
        if rec is not None:
            rec.dump(os.path.join(rep_dir, "spans.json"))
        with open(os.path.join(rep_dir, "rep.json"), "w") as fh:
            json.dump({"wall_raw_s": wall, "calibration_s": [cal0, cal1],
                       "exit_codes": codes}, fh)
        code = 0
    except BaseException:  # noqa: BLE001 - reported through the log
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def _check_in_child(wl, rep_dir, inputs, log_text, ref) -> dict:
    """Run the output check in a forked process, so the memory it uses
    does not grow the process the next repetition is forked from."""
    path = os.path.join(rep_dir, "check.json")
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            facts = wl.check(rep_dir, inputs, log_text, ref)
            with open(path, "w") as fh:
                json.dump(dataclasses.asdict(facts), fh)
            code = 0
        except BaseException:  # noqa: BLE001 - reported as a failed check
            with open(path, "w") as fh:
                json.dump({"problems": [
                    "output check raised " + traceback.format_exc()]}, fh)
        finally:
            os._exit(code)
    os.waitpid(pid, 0)
    try:
        with open(path) as fh:
            return json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        return {"problems": ["output check died"]}


def run_rep(wl, inputs, run_dir: str, index: int, traced: bool, ref) -> dict:
    """One repetition in a forked process, then its output check."""
    rep_id = f"{os.path.basename(run_dir)}/rep{index}"
    rep_dir = os.path.join(run_dir, f"rep{index}")
    os.makedirs(rep_dir)
    wl.prepare(rep_dir, inputs)
    argvs = wl.commands(rep_dir, inputs)
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        _child(argvs, rep_dir, rep_id, traced)
    _, status, usage = os.wait4(pid, 0)
    rec = {"rep": rep_id, "traced": traced,
           "peak_rss_mb": usage.ru_maxrss / 1024.0, "problems": []}
    try:
        with open(os.path.join(rep_dir, "rep.json")) as fh:
            rec.update(json.load(fh))
    except FileNotFoundError:
        rec["problems"].append(f"repetition died (wait status {status})")
    else:
        if any(rec["exit_codes"]):
            rec["problems"].append(f"exit codes {rec['exit_codes']}")
    with open(os.path.join(rep_dir, "child.log"), errors="replace") as fh:
        log_text = fh.read()
    if "exit_codes" in rec:
        # Checked even after a non-zero exit: a campaign's bound violation
        # exits 1, and the check tells whether a wall-clock hang caused it.
        facts = _check_in_child(wl, rep_dir, inputs, log_text, ref)
        rec["problems"] += facts.pop("problems")
        rec.update(facts)
    if rec["problems"]:
        rec["log_tail"] = log_text[-2000:]
    if traced and os.path.exists(os.path.join(rep_dir, "spans.json")):
        with open(os.path.join(rep_dir, "spans.json")) as fh:
            rec["spans"] = json.load(fh)["spans"]
    return rec


def repeat(wl, inputs, run_dir, ref, modes, min_each, seconds):
    """Repetitions cycling through `modes` (traced or not) until each mode
    has `min_each` and `seconds` have passed, within the run's budget."""
    reps = []
    t0 = time.perf_counter()
    longest = 0.0
    while True:
        t_rep = time.perf_counter()
        traced = modes[len(reps) % len(modes)]
        reps.append(run_rep(wl, inputs, run_dir, len(reps), traced, ref))
        shutil.rmtree(os.path.join(run_dir, f"rep{len(reps) - 1}"))
        now = time.perf_counter()
        longest = max(longest, now - t_rep)
        if (len(reps) >= min_each * len(modes) and now - t0 >= seconds
                and len(reps) % len(modes) == 0):
            return reps
        if now - START + 1.2 * longest > RUN_BUDGET_S:
            return reps


# ---------------------------------------------------------------------------
# Metrics


def to_reference_speed(reps, setup) -> float:
    """Scale the run's times by the host factor of all its calibrations."""
    samples = setup["calibration_s"] + [c for r in reps
                                        for c in r.get("calibration_s", ())]
    factor = calibrate.host_factor(samples)
    setup["setup_s"] = setup["setup_raw_s"] * factor
    for r in reps:
        if "wall_raw_s" in r:
            r["wall_s"] = r["wall_raw_s"] * factor
    return factor


def end_to_end(reps, setup) -> dict:
    reps = [r for r in reps if "wall_s" in r]
    if not reps:
        return {}
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps),
                        "MB"),
    }


def per_layer(wl, reps) -> tuple[dict, list]:
    import spans

    traced = [r for r in reps if r["traced"] and "spans" in r]
    untraced = [r["wall_s"] for r in reps if not r["traced"] and "wall_s" in r]
    if not traced or not untraced:
        return {}, ["no complete traced and untraced repetition"]
    m, problems = spans.merge([spans.rep_metrics(r["spans"]) for r in traced])
    m.update(spans.probe_cg(wl.p["side"]))
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    m["tracing.traced_wall_s"] = traced_wall
    m["tracing.untraced_wall_s"] = statistics.median(untraced)
    m["tracing.overhead_s"] = traced_wall - m["tracing.untraced_wall_s"]
    missing = set(spans.LAYER_METRICS) ^ set(m)
    if missing:
        problems.append(f"per-layer metric names differ: {sorted(missing)}")
    return {k: (m[k], spans.LAYER_METRICS[k][0]) for k in spans.LAYER_METRICS
            if k in m}, problems


def bootstrap() -> str | None:
    """Import memvuln from ./src; returns an error message on failure."""
    if not os.path.isfile(os.path.join(SRC, "memvuln", "cli.py")):
        return (f"no memvuln sources under {SRC}; run the benchmark from "
                f"the repository root")
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [SRC, HERE]
    import memvuln.cli  # noqa: F401 - repetitions fork after the import

    if not os.path.realpath(memvuln.__file__).startswith(
            os.path.realpath(SRC) + os.sep):
        return f"memvuln imported from {memvuln.__file__}, not {SRC}"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    error = bootstrap()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.size, args.seed)
    # One core for the calibrations and the repetitions they bracket: the
    # two cores of the machine slow down only partly together.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    ref = workloads.load_reference().get(args.size, {}).get(wl.name)
    run_dir = os.path.join(RUNS_DIR, f"{wl.name}-{args.size}-seed{args.seed}"
                           f"-trace{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    setup, inputs = set_up(wl, run_dir, 1 if args.trace else SETUPS)
    inputs.update(wl.make_inputs(run_dir))
    if args.trace:
        # Untraced and traced repetitions alternate, so the overhead is
        # not mistaken for a drift of the machine's speed.
        reps = repeat(wl, inputs, run_dir, ref, (False, True),
                      MIN_TRACED_REPS, args.seconds)
        factor = to_reference_speed(reps, setup)
        metrics, trace_problems = per_layer(wl, reps)
    else:
        reps = repeat(wl, inputs, run_dir, ref, (False,), MIN_REPS,
                      args.seconds)
        factor = to_reference_speed(reps, setup)
        metrics, trace_problems = end_to_end(reps, setup), []

    failed = sum(bool(r["problems"]) for r in reps)
    prov = provenance(wl)
    seeds = set()
    if ref:
        for table in ("ace", "faultmodel_sha256"):
            seeds |= set(ref.get(table, {}))
    prov["reference_seed"] = (not seeds) or str(args.seed) in seeds
    result = {"provenance": prov, "host_factor": factor, **setup,
              "reps": [{k: v for k, v in r.items() if k != "spans"}
                       for r in reps],
              "trace_problems": trace_problems,
              "metrics": {k: v[0] for k, v in metrics.items()}}
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    if args.trace:
        with open(os.path.join(run_dir, "spans.json"), "w") as fh:
            json.dump([{"rep": r["rep"], "spans": r["spans"]}
                       for r in reps if "spans" in r], fh)

    for name in os.listdir(run_dir):
        if name not in ("result.json", "spans.json"):
            path = os.path.join(run_dir, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.remove(path)

    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    if not prov["reference_seed"]:
        print(f"note: seed {args.seed} has no committed reference; its "
              f"seed-dependent outputs get invariant checks only")
    for r in reps:
        for p in r["problems"]:
            print(f"FAILED {r['rep']}: {p}")
        if r["problems"]:
            print(r.get("log_tail", ""))
    for p in trace_problems:
        print(f"FAILED trace: {p}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:>16.6g} {unit}")
    if not args.trace:
        timed = [r for r in reps if "wall_s" in r]
        if timed:
            print(f"{'wall_raw_s':<32} "
                  f"{statistics.median(r['wall_raw_s'] for r in timed):>16.6g}"
                  f" s (as measured)")
        print(f"{'setup_raw_s':<32} {setup['setup_raw_s']:>16.6g} s "
              f"(as measured)")
        print(f"{'host_factor':<32} {factor:>16.6g} "
              f"(reference loop time over measured; times above are scaled "
              f"by it)")
        work = [r["work"] / r["wall_raw_s"] for r in reps if r.get("work")]
        if work:
            print(f"{wl.work_unit + '_per_s':<32} "
                  f"{statistics.median(work):>16.6g} 1/s")
        print(f"{'error_rate':<32} {failed / len(reps):>16.6g} "
              f"({failed} of {len(reps)} repetitions failed)")
    print(json.dumps({
        "correct": failed == 0 and not trace_problems,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
