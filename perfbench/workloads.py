"""The three benchmark workloads: their inputs, commands and output checks.

Every workload runs `memvuln` subcommands through `memvuln.cli.main`, one
process per repetition, with `--parallel 1`.  Inputs are made from the
benchmark seed; outputs are checked against the committed digests in
`reference.json` and against invariants that hold for every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

#: Problem sizes.  `full` is what the benchmark measures; `smoke` is a
#: tiny size the benchmark's own tests run in seconds.
SIZES = {
    "full": {"side": 16, "runs": 100, "timeline_accesses": 50_000,
             "mc_trials": 1_000_000},
    "smoke": {"side": 6, "runs": 4, "timeline_accesses": 500,
              "mc_trials": 5_000},
}

#: Expected faults per window in the generated fault-model timeline; below
#: the package's rare-fault threshold, so every estimator applies.
EXPECTED_FAULTS = 0.005

REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "reference.json")

NO_CACHED_RUN = "(no cached run)"

#: Ends an ACE-count problem whose every missing ACE run ended as a hang,
#: the one failure the wall-clock hang rule (ROADMAP 4.1) can cause.
SHORT_BY_HANGS = "every missing ACE run is a hang"

_METRIC_COLUMNS = ("mvf", "fea", "safe_ratio", "ld_st_normalized", "dvf")


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sim_digest(npz_path: str) -> tuple[str, dict]:
    """Digest of every array of a saved SimResult, and its simulated counts."""
    h = hashlib.sha256()
    with np.load(npz_path) as z:
        for key in sorted(z.files):
            arr = z[key]
            h.update(f"{key}:{arr.dtype.str}:{arr.shape}".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        s = z["scalars"]
        counts = {
            "fills": int(np.count_nonzero(z["req_kind"] == 0)),
            "writebacks": int(np.count_nonzero(z["req_kind"] == 1)),
            "resolutions": int(len(z["res_line"])),
            "window_cycles": int(s[1] - s[0]),
            "accesses": int(s[2]),
            "stall_cycles": int(s[3]),
        }
    return h.hexdigest(), counts


def wilson(successes: int, n: int, confidence: float = 0.99):
    """Wilson score interval, written independently of the package."""
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z / denom * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return lo, hi


def _close(a, b, rel=1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-15)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


@dataclass
class RepFacts:
    """What a repetition's output check found."""

    problems: list
    sim_cache_hit: int | None = None
    work: int = 0  # accesses simulated, or injected runs
    digests: dict | None = None  # what make_reference.py records


class Workload:
    name = ""
    why = ""
    work_unit = ""  # what `work` counts, for the throughput line
    warm_cache = False  # set-up runs the simulation the repetitions reuse

    def __init__(self, size: str, seed: int):
        self.size = size
        self.seed = seed
        self.p = SIZES[size]

    def params(self) -> dict:
        return {"size": self.size, **self.p}

    def make_inputs(self, run_dir: str) -> dict:
        """Seeded inputs shared by every repetition of one run."""
        return {}

    def prepare(self, rep_dir: str, inputs: dict) -> None:
        os.makedirs(os.path.join(rep_dir, "scratch"))

    def commands(self, rep_dir: str, inputs: dict) -> list:
        raise NotImplementedError

    def check(self, rep_dir: str, inputs: dict, log_text: str,
              ref: dict | None) -> RepFacts:
        raise NotImplementedError


def _sim_files(scratch: str) -> list:
    return sorted(f for f in os.listdir(scratch)
                  if f.startswith("sim-") and f.endswith(".npz"))


def _check_report_columns(report: dict) -> str:
    rows = sorted(
        ([r["name"]] + [r[k] for k in _METRIC_COLUMNS]
         for r in report["structures"]),
        key=lambda row: row[0],
    )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


class MetricsCold(Workload):
    name = "metrics-cold"
    why = ("cold side-16 pipeline without campaigns: cachesim does almost all "
           "the work and inject none")
    work_unit = "accesses"

    def commands(self, rep_dir, inputs):
        return [["pipeline", "--side", str(self.p["side"]),
                 "--runs-per-structure", "0", "--parallel", "1",
                 "--out", os.path.join(rep_dir, "out")]]

    def check(self, rep_dir, inputs, log_text, ref):
        problems = []
        scratch = os.path.join(rep_dir, "scratch")
        sims = _sim_files(scratch)
        hit = 0 if NO_CACHED_RUN in log_text else 1
        if hit != 0:
            problems.append("simulation cache hit on a cold run")
        if len(sims) != 1:
            return RepFacts(problems + [f"expected one cached simulation, "
                                        f"found {sims}"], hit)
        digest, counts = sim_digest(os.path.join(scratch, sims[0]))
        report_sha = sha256_file(os.path.join(rep_dir, "out", "report.json"))
        got = {"report_sha256": report_sha, "sim_sha256": digest,
               "sim_counts": counts}
        if ref is not None:
            for key, want in ref.items():
                if got[key] != want:
                    problems.append(f"{key}: got {got[key]}, want {want}")
        return RepFacts(problems, hit, counts["accesses"], got)


class CampaignWarm(Workload):
    name = "campaign-warm"
    why = ("side-16 pipeline with nine campaigns on a warm simulation cache: "
           "inject does almost all the work")
    work_unit = "runs"
    warm_cache = True

    def prepare(self, rep_dir, inputs):
        scratch = os.path.join(rep_dir, "scratch")
        os.makedirs(scratch)
        # A fresh scratch per repetition: the warm simulation is copied in
        # and no campaign log of an earlier repetition can be resumed.
        shutil.copy2(inputs["warm_sim"], scratch)

    def commands(self, rep_dir, inputs):
        return [["pipeline", "--side", str(self.p["side"]),
                 "--runs-per-structure", str(self.p["runs"]),
                 "--seed", str(self.seed), "--parallel", "1",
                 "--out", os.path.join(rep_dir, "out")]]

    def check(self, rep_dir, inputs, log_text, ref):
        problems = []
        scratch = os.path.join(rep_dir, "scratch")
        warm = os.path.join(scratch, os.path.basename(inputs["warm_sim"]))
        st = os.stat(warm)
        hit = int(NO_CACHED_RUN not in log_text
                  and st.st_mtime_ns == inputs["warm_mtime_ns"])
        if hit != 1:
            problems.append("simulation cache missed on a warm run")
        with open(os.path.join(rep_dir, "out", "report.json")) as fh:
            report = json.load(fh)
        n = self.p["runs"]
        rows = sorted(report["structures"], key=lambda r: r["name"])
        ace = []
        for r in rows:
            a = r["tally"].get("ACE", 0)
            ace.append(a)
            if r["n_runs"] != n:
                problems.append(f"{r['name']}: n_runs {r['n_runs']} != {n}")
                continue
            if not _close(r["p_unace"], (n - a) / n):
                problems.append(f"{r['name']}: p_unace {r['p_unace']} does "
                                f"not match {a} ACE runs of {n}")
            lo, hi = wilson(n - a, n)
            if not (_close(r["ci99"][0], lo) and _close(r["ci99"][1], hi)):
                problems.append(f"{r['name']}: ci99 {r['ci99']} != "
                                f"[{lo}, {hi}]")
        got = {"columns_sha256": _check_report_columns(report),
               "ace": {str(self.seed): ace}}
        if ref is not None:
            if got["columns_sha256"] != ref["columns_sha256"]:
                problems.append("metric columns differ from the reference")
            want = ref["ace"].get(str(self.seed))
            if want is not None and want != ace:
                hangs = [r["tally"].get("hang", 0) for r in rows]
                why = ("; " + SHORT_BY_HANGS
                       if all(0 <= w - a <= h
                              for w, a, h in zip(want, ace, hangs)) else "")
                problems.append(f"ACE counts {ace} != reference {want} "
                                f"(structures {[r['name'] for r in rows]}, "
                                f"hangs {hangs}){why}")
        return RepFacts(problems, hit, n * len(rows), got)


class StandaloneFull(Workload):
    name = "standalone-full"
    why = ("trace, metrics under the full-size cache and a faultmodel check: "
           "hits dominate and trace blocks miss phase boundaries")
    work_unit = "accesses"

    def make_inputs(self, run_dir):
        from memvuln.cachesim import CacheConfig

        cfg_path = os.path.join(run_dir, "full.cfg")
        # The full-size reference hierarchy, written once so a later change
        # of the `metrics` default cannot change this workload.
        CacheConfig().save(cfg_path)
        rng = np.random.Generator(np.random.PCG64(self.seed))
        n = self.p["timeline_accesses"]
        times = np.cumsum(rng.integers(1, 1000, n)).astype(float)
        unsafe = rng.random(n) < 0.5
        window = float(times[-1] + 1000.0)
        rate = EXPECTED_FAULTS / window
        tl_path = os.path.join(run_dir, "timeline.json")
        with open(tl_path, "w") as fh:
            json.dump({"accesses": [[t, "unsafe" if u else "safe"]
                                    for t, u in zip(times.tolist(),
                                                    unsafe.tolist())]}, fh)
        return {"config": cfg_path, "timeline": tl_path, "times": times,
                "unsafe": unsafe, "window": window, "rate": rate}

    def commands(self, rep_dir, inputs):
        trace = os.path.join(rep_dir, "cg.trace")
        return [
            ["trace", "--side", str(self.p["side"]), "--out", trace],
            ["metrics", "--trace", trace, "--config", inputs["config"],
             "--csv", os.path.join(rep_dir, "metrics.csv"),
             "--json", os.path.join(rep_dir, "metrics.json")],
            ["faultmodel", "check", "--lambda", repr(inputs["rate"]),
             "--window", repr(inputs["window"]),
             "--timeline", inputs["timeline"],
             "--trials", str(self.p["mc_trials"]), "--seed", str(self.seed),
             "--json", os.path.join(rep_dir, "faultmodel.json")],
        ]

    def check(self, rep_dir, inputs, log_text, ref):
        from memvuln.trace import TraceReader

        problems = self._check_faultmodel(rep_dir, inputs)
        got = {
            "metrics_csv_sha256": sha256_file(
                os.path.join(rep_dir, "metrics.csv")),
            "metrics_json_sha256": sha256_file(
                os.path.join(rep_dir, "metrics.json")),
            "faultmodel_sha256": {str(self.seed): sha256_file(
                os.path.join(rep_dir, "faultmodel.json"))},
        }
        if ref is not None:
            for key in ("metrics_csv_sha256", "metrics_json_sha256"):
                if got[key] != ref[key]:
                    problems.append(f"{key}: got {got[key]}, want {ref[key]}")
            want = ref["faultmodel_sha256"].get(str(self.seed))
            have = got["faultmodel_sha256"][str(self.seed)]
            if want is not None and want != have:
                problems.append(f"faultmodel JSON {have} != reference {want}")
        with TraceReader(os.path.join(rep_dir, "cg.trace")) as rd:
            events = rd.n_events
        return RepFacts(problems, None, events, got)

    def _check_faultmodel(self, rep_dir, inputs) -> list:
        """Recompute the closed-form estimates independently of the package."""
        with open(os.path.join(rep_dir, "faultmodel.json")) as fh:
            doc = json.load(fh)
        rate, window = inputs["rate"], inputs["window"]
        periods = np.diff(inputs["times"], prepend=0.0)[inputs["unsafe"]]
        vt = float(periods.sum())
        want = {
            "accesses": len(inputs["times"]),
            "expected_faults": rate * window,
            "vulnerable_time": vt,
            "exact_sum": float(-np.expm1(-rate * periods).sum()),
            "linear": rate * vt,
            "poisson_product": -math.expm1(-rate * vt),
        }
        problems = [f"faultmodel {k}: {doc[k]} != {v}"
                    for k, v in want.items() if not _close(doc[k], v)]
        mc = doc["monte_carlo"]
        if mc["trials"] != self.p["mc_trials"]:
            problems.append(f"faultmodel trials {mc['trials']}")
        elif not _close(mc["frequency"], mc["consumed"] / mc["trials"]):
            problems.append("faultmodel frequency != consumed / trials")
        else:
            lo, hi = wilson(mc["consumed"], mc["trials"])
            if not (_close(mc["ci99"][0], lo) and _close(mc["ci99"][1], hi)):
                problems.append(f"faultmodel ci99 {mc['ci99']} != [{lo}, {hi}]")
        return problems


WORKLOADS = {w.name: w for w in (MetricsCold, CampaignWarm, StandaloneFull)}
