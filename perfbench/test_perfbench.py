"""The benchmark's own tests, at smoke size.  Run: python3 -m pytest -q perfbench"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def bench(*args, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return out


def result(out) -> dict:
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    failures = [line for line in out.stdout.splitlines()
                if line.startswith("FAILED")]
    by_rep = {}
    for line in failures:
        rep, _, problem = line[len("FAILED "):].partition(": ")
        by_rep.setdefault(rep, []).append(problem)
    # Known defect (ROADMAP item 4.1): `hang` is decided by the wall clock.
    # A smoke-size run takes about 0.2 ms, so a 2 ms pause turns an ACE
    # run into a hang: the ACE-count check reports it, and the pipeline
    # may exit 1 on the bound violation it causes.  Any other failure, an
    # ACE shortfall that hangs do not cover included, is a real one.
    for rep, problems in by_rep.items():
        short = [p for p in problems if p.endswith(workloads.SHORT_BY_HANGS)]
        assert short and all(p in short or p == "exit codes [1]"
                             for p in problems), (rep, problems)
    assert res["failed"] == len(by_rep)
    return res


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]} \
        == spans.LAYER_METRICS
    assert [m["name"] for m in BENCH["end_to_end"]] == [
        "wall_s", "setup_s", "peak_rss_mb"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    res = result(bench("--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", "0", "--size", "smoke"))
    assert res["attempted"] >= 2
    for m in BENCH["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


def test_traced_smoke_run_reports_every_per_layer_metric():
    res = result(bench("--workload", "campaign-warm", "--seed", "3",
                       "--seconds", "0", "--trace", "1", "--size", "smoke"))
    assert set(res["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["cli.sim_cache_hit"] == 1
    assert m["cachesim.emit_calls"] == 0 and m["cachesim.load_s"] > 0
    assert sum(m[f"inject.runs.{o}"] for o in spans.OUTCOMES) == 36
    assert sum(m[f"inject.plans.{r}"] for r in ("fill", "silent",
                                                "writeback")) == 36


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "metrics-cold", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_output_check_rejects_a_wrong_reference():
    import run

    assert run.bootstrap() is None
    run_dir = os.path.join(run.RUNS_DIR, f"test-reference-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        wl = workloads.MetricsCold("smoke", 0)
        ref = dict(workloads.load_reference()["smoke"]["metrics-cold"])
        good = run.run_rep(wl, {}, run_dir, 0, False, ref)
        assert good["problems"] == [] and good["sim_cache_hit"] == 0
        assert len(good["calibration_s"]) == 2 and good["wall_raw_s"] > 0
        ref["report_sha256"] = "0" * 64
        bad = run.run_rep(wl, {}, run_dir, 1, False, ref)
        assert any("report_sha256" in p for p in bad["problems"])

        wl = workloads.CampaignWarm("smoke", 0)
        _, inputs = run.set_up(wl, run_dir, 1)
        ref = dict(workloads.load_reference()["smoke"]["campaign-warm"])
        # One ACE run more than each structure has runs: no hang explains it.
        ref["ace"] = {"0": [wl.p["runs"] + 1] * len(spans.STRUCTURES)}
        bad = run.run_rep(wl, inputs, run_dir, 2, False, ref)
        ace = [p for p in bad["problems"] if p.startswith("ACE counts")]
        assert ace and not ace[0].endswith(workloads.SHORT_BY_HANGS), ace
        assert bad["sim_cache_hit"] == 1
    finally:
        shutil.rmtree(run_dir)


def test_host_speed_adjustment():
    import run

    ref = calibrate.REFERENCE_S
    assert calibrate.host_factor([ref, ref]) == pytest.approx(1.0)
    # A host running at half speed during the run halves every time.
    reps = [{"wall_raw_s": 3.0, "calibration_s": [2 * ref, 3 * ref]},
            {"problems": ["repetition died"]}]
    setup = {"setup_raw_s": 1.0, "calibration_s": [ref, 2 * ref]}
    assert run.to_reference_speed(reps, setup) == pytest.approx(0.5)
    assert reps[0]["wall_s"] == pytest.approx(1.5)
    assert setup["setup_s"] == pytest.approx(0.5)
    assert "wall_s" not in reps[1]
    assert calibrate.loop() > 0


def test_wilson_interval_matches_the_package():
    from memvuln.inject import wilson_ci

    for k, n in ((0, 10), (3, 10), (10, 10), (457, 900)):
        assert workloads.wilson(k, n) == pytest.approx(wilson_ci(k, n),
                                                       rel=1e-12)


def test_ace_shortfall_is_put_down_to_hangs_only_when_they_cover_it(tmp_path):
    wl = workloads.CampaignWarm("smoke", 0)
    n = wl.p["runs"]
    warm = tmp_path / "warm" / "sim-x.npz"
    warm.parent.mkdir()
    warm.write_bytes(b"")
    (tmp_path / "scratch").mkdir()
    shutil.copy2(warm, tmp_path / "scratch")
    inputs = {"warm_sim": str(warm), "warm_mtime_ns": warm.stat().st_mtime_ns}

    def check(tally, want_ace):
        rows = []
        for name in spans.STRUCTURES:
            a = tally.get(name, {"ACE": n})
            ace = a.get("ACE", 0)
            rows.append({"name": name, "n_runs": n, "tally": a,
                         "p_unace": (n - ace) / n,
                         "ci99": list(workloads.wilson(n - ace, n)),
                         **{k: 0.5 for k in workloads._METRIC_COLUMNS}})
        (tmp_path / "out").mkdir(exist_ok=True)
        (tmp_path / "out" / "report.json").write_text(
            json.dumps({"structures": rows}))
        ref = {"columns_sha256": workloads._check_report_columns(
                   {"structures": rows}),
               "ace": {"0": [want_ace.get(s, n) for s in
                             sorted(spans.STRUCTURES)]}}
        facts = wl.check(str(tmp_path), inputs, "", ref)
        assert facts.sim_cache_hit == 1
        return [p for p in facts.problems if p.startswith("ACE counts")]

    assert check({}, {}) == []
    (p,) = check({"x": {"ACE": n - 1, "hang": 1}}, {})
    assert p.endswith(workloads.SHORT_BY_HANGS)
    (p,) = check({"x": {"ACE": n - 1, "crash": 1}}, {})
    assert not p.endswith(workloads.SHORT_BY_HANGS)
    (p,) = check({"x": {"ACE": n - 1, "hang": 1}}, {"x": n - 2})
    assert not p.endswith(workloads.SHORT_BY_HANGS)
