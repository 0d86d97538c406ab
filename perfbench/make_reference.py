"""Regenerate perfbench/reference.json, the digests the output checks use.

Run from the repository root, on a commit whose outputs are known good:

    python3 perfbench/make_reference.py --size full --seeds 0-99,7919

The seed-independent digests come from one benchmark repetition of each
workload; the seed-dependent ones (campaign ACE counts, the faultmodel
JSON) are computed per seed.  Existing entries of other sizes are kept.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys

import run


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--seeds", default="0-99,7919")
    args = ap.parse_args()
    error = run.bootstrap()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import workloads
    from memvuln import cli

    seeds = parse_seeds(args.seeds)
    work = os.path.join(run.RUNS_DIR, f"reference-{args.size}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    table = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(args.size, seeds[0])
        run_dir = os.path.join(work, name)
        os.makedirs(run_dir)
        _, inputs = run.set_up(wl, run_dir, 1)
        inputs.update(wl.make_inputs(run_dir))
        rec = run.run_rep(wl, inputs, run_dir, 0, False, None)
        if rec["problems"]:
            print(f"{name}: {rec['problems']}\n{rec.get('log_tail', '')}",
                  file=sys.stderr)
            return 1
        table[name] = rec["digests"]
        print(f"{name}: {json.dumps(rec['digests'])[:100]}", flush=True)
        for seed in seeds[1:]:
            wl = cls(args.size, seed)
            if name == "campaign-warm":
                rep_dir = os.path.join(run_dir, f"seed{seed}")
                os.makedirs(rep_dir)
                wl.prepare(rep_dir, inputs)
                (argv,) = wl.commands(rep_dir, inputs)
                os.environ["MEMVULN_SCRATCH"] = os.path.join(rep_dir, "scratch")
                key = "ace"
            elif name == "standalone-full":
                rep_dir = os.path.join(run_dir, f"seed{seed}")
                os.makedirs(rep_dir)
                inputs.update(wl.make_inputs(rep_dir))
                argv = wl.commands(rep_dir, inputs)[-1]
                key = "faultmodel_sha256"
            else:
                break
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(argv)
            if status != 0:
                print(f"{name} seed {seed}: exit status nonzero",
                      file=sys.stderr)
                return 1
            if name == "campaign-warm":
                got = wl.check(rep_dir, inputs, "", None)
                if got.problems:
                    print(f"{name} seed {seed}: {got.problems}",
                          file=sys.stderr)
                    return 1
                value = got.digests["ace"][str(seed)]
            else:
                problems = wl._check_faultmodel(rep_dir, inputs)
                if problems:
                    print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                value = workloads.sha256_file(
                    os.path.join(rep_dir, "faultmodel.json"))
            table[name][key][str(seed)] = value
            shutil.rmtree(rep_dir)
            print(f"{name} seed {seed}: {value}", flush=True)
    try:
        ref = workloads.load_reference()
    except FileNotFoundError:
        ref = {}
    ref[args.size] = table
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
