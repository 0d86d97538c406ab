"""End-to-end tests for the command-line interface."""

import json
import math
import re
import struct

import numpy as np
import pytest

from memvuln.cachesim import CacheConfig, CacheSimulator, LevelConfig, SimResult
from memvuln.cg import default_structure_map, solve
from memvuln.cli import (
    SCRATCH_ENV,
    _config_digest,
    build_problem,
    build_validation_report,
    default_scratch,
    main,
    replay_trace,
    simulate_problem,
)
from memvuln.faultmodel import SAFE, UNSAFE, AccessTimeline
from memvuln.trace import RECORD_SIZE, TRACKED_STRUCTURES, TraceWriter
from memvuln.vulnmetrics import analyze


def churn_config_file(tmp_path):
    cfg = CacheConfig()
    cfg.l1 = LevelConfig(8, 4096, 4, 32)
    cfg.l2 = LevelConfig(8, 8192, 12, 32)
    cfg.l3 = LevelConfig(16, 16384, 28, 128)
    cfg.validate()
    path = tmp_path / "churn.cfg"
    cfg.save(path)
    return str(path), cfg


class TestParsing:
    def test_unknown_flag_exits_with_usage(self, capsys):
        # A campaign's log is named after the simulation it reads, and its
        # JSON goes to standard output: it takes neither --log nor --json.
        for argv in (["pipeline", "--definitely-not-a-flag"],
                     ["inject", "campaign", "--structure", "b", "--log", "x"],
                     ["inject", "campaign", "--structure", "b", "--json", "x"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "usage" in capsys.readouterr().err.lower()

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code != 0

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["pipeline", "--runs-per-structure", "-2"],
                     "--runs-per-structure must be at least 0, got -2",
                     id="pipeline-runs"),
        pytest.param(["pipeline", "--parallel", "0"],
                     "--parallel must be at least 1, got 0", id="pipeline-parallel"),
        pytest.param(["inject", "campaign", "--structure", "b", "--runs", "-3"],
                     "--runs must be at least 0, got -3", id="inject-runs"),
        pytest.param(["inject", "campaign", "--structure", "b", "--parallel", "0"],
                     "--parallel must be at least 1, got 0", id="inject-parallel"),
        pytest.param(["inject", "campaign", "--structure", "Arr"],
                     "unknown structure: Arr", id="inject-structure"),
        *[pytest.param(argv + [f"--tol-factor={tf}"],
                       f"--tol-factor must be finite and positive, got {float(tf)}",
                       id=f"{argv[0]}-tol-factor-{tf}")
          for argv in (["pipeline"], ["inject", "campaign", "--structure", "b"],
                       ["trace"])
          for tf in ("nan", "inf", "0", "-1e-8")],
        *[pytest.param(argv + ["--seed", "-3"], "--seed must be at least 0, got -3",
                       id=f"{argv[0]}-seed")
          for argv in (["pipeline"], ["inject", "campaign", "--structure", "b"],
                       ["faultmodel", "check"])],
        *[pytest.param(argv + ["--side", side], message, id=f"{argv[0]}-side-{side}")
          for argv in (["pipeline", "--runs-per-structure", "0"],
                       ["inject", "campaign", "--structure", "b"], ["trace"])
          for side, message in (
              ("1", "--side must be at least 2, got 1"),
              ("513", f"--side 513 gives {513**3} rows, over {1 << 27}"))],
    ])
    def test_bad_run_counts_are_refused(self, tmp_path, capsys, argv, message):
        side = [] if "--side" in argv else ["--side", "4"]
        argv = argv + {
            "pipeline": side + ["--out", str(tmp_path / "out"),
                                "--scratch", str(tmp_path / "s")],
            "inject": side + ["--scratch", str(tmp_path / "s")],
            "trace": side + ["--out", str(tmp_path / "t.bin")],
            "faultmodel": ["--lambda", "1e-3", "--window", "9",
                           "--timeline", str(tmp_path / "tl.json")],
        }[argv[0]]
        code = main(argv)
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())  # refused before any work or file

    def test_scratch_env_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv(SCRATCH_ENV, str(tmp_path / "sc"))
        assert default_scratch() == str(tmp_path / "sc")
        monkeypatch.delenv(SCRATCH_ENV)
        assert "memvuln-scratch" in default_scratch()


class TestTraceAndMetrics:
    def test_trace_metrics_matches_direct_simulation(self, tmp_path, capfd):
        cfg_path, cfg = churn_config_file(tmp_path)
        trace_path = tmp_path / "t.bin"
        assert main(["trace", "--side", "4", "--out", str(trace_path)]) == 0
        capfd.readouterr()

        csv_path = tmp_path / "m.csv"
        json_path = tmp_path / "m.json"
        code = main(
            [
                "metrics",
                "--trace",
                str(trace_path),
                "--config",
                cfg_path,
                "--csv",
                str(csv_path),
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        text = csv_path.read_text().splitlines()
        assert text[0].startswith("# schema")

        # The replayed metrics must match observing the solver directly.
        A, b, tol = build_problem(4, 1e-8)
        sim = CacheSimulator(cfg)
        solve(A, b, tol=tol, observer=sim)
        direct = analyze(sim.finish().by_line(), default_structure_map(A))
        doc = json.loads(json_path.read_text())
        by_name = {s["name"]: s for s in doc["structures"]}
        assert len(by_name) == 9
        for rep in direct.structures:
            got = by_name[rep.name]
            assert got["mvf"] == pytest.approx(rep.mvf, abs=0)
            assert got["fea"] == pytest.approx(rep.fea, abs=0)
            assert got["loads"] == rep.loads
            assert got["stores"] == rep.stores

    def test_metrics_defaults_to_stdout(self, tmp_path, capfd):
        trace_path = tmp_path / "t.bin"
        main(["trace", "--side", "4", "--out", str(trace_path)])
        capfd.readouterr()
        assert main(["metrics", "--trace", str(trace_path)]) == 0
        out, err = capfd.readouterr()
        assert out.startswith("# schema")
        assert "structure" in out
        # How the block memo fared goes to stderr, as in ``pipeline``.
        n, m, k, swapped = map(int, re.fullmatch(
            r"simulated (\d+) of (\d+) blocks, replayed (\d+) "
            r"\((\d+) under the d/dp swap\)\n", err).groups())
        assert n + k == m and swapped <= k

    @pytest.mark.parametrize("rate", ["-1", "inf", "nan"])
    def test_bad_fit_rate_is_refused(self, tmp_path, capfd, rate):
        trace_path = tmp_path / "t.bin"
        assert main(["trace", "--side", "3", "--out", str(trace_path)]) == 0
        capfd.readouterr()
        csv_path = tmp_path / "m.csv"
        code = main(["metrics", "--trace", str(trace_path), "--fit-rate", rate,
                     "--csv", str(csv_path)])
        assert code == 1
        assert capfd.readouterr().err == (
            "error: fit rate must be finite and non-negative\n")
        assert not csv_path.exists()  # refused before the replay

    def test_missing_trace_is_reported(self, tmp_path, capsys):
        code = main(["metrics", "--trace", str(tmp_path / "absent.bin")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_incomplete_config_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "partial.cfg"
        path.write_text("l1.assoc = 8\n")
        argv = ["metrics", "--trace", str(tmp_path / "absent.bin"),
                "--config", str(path)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {path}: no value for l1.size\n"

    def test_v1_trace_is_refused(self, tmp_path, capsys):
        # An empty v1 trace: magic, version, reserved, n_events, the two
        # ROI markers and n_regions.
        path = tmp_path / "old.bin"
        path.write_bytes(struct.pack("<4sHHQQQH", b"MVTR", 1, 0, 0, 0, 0, 0))
        assert main(["metrics", "--trace", str(path)]) == 1
        err = capsys.readouterr().err
        assert "v1" in err and "v3" in err

    def test_unknown_access_kind_is_refused(self, tmp_path, capsys):
        path = tmp_path / "bad.bin"
        with TraceWriter(path) as w:
            w.emit(np.array([0, 1, 1], dtype=np.uint8),
                   np.array([0, 64, 128], dtype=np.uint64))
        # The second record's kind byte follows the 24-byte header (no
        # regions) and the first 9-byte record.
        data = bytearray(path.read_bytes())
        assert data[24 + RECORD_SIZE] == 1
        data[24 + RECORD_SIZE] = 2
        path.write_bytes(bytes(data))
        assert main(["metrics", "--trace", str(path)]) == 1
        assert "kind 2 " in capsys.readouterr().err


class TestFaultModelCommand:
    def test_check_reports_all_estimators(self, tmp_path, capsys):
        tl_path = tmp_path / "tl.json"
        AccessTimeline([2.0, 5.0, 9.0], [SAFE, UNSAFE, UNSAFE]).save(tl_path)
        out_json = tmp_path / "fm.json"
        code = main(
            [
                "faultmodel",
                "check",
                "--lambda",
                "1e-3",
                "--window",
                "9",
                "--timeline",
                str(tl_path),
                "--trials",
                "20000",
                "--json",
                str(out_json),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "exact-sum" in out and "monte-carlo" in out
        doc = json.loads(out_json.read_text())
        want = (1.0 - math.exp(-3e-3)) + (1.0 - math.exp(-4e-3))
        assert doc["exact_sum"] == pytest.approx(want, rel=1e-12)
        assert doc["linear"] == pytest.approx(7e-3, rel=1e-12)
        assert doc["poisson_product"] == pytest.approx(
            1.0 - math.exp(-7e-3), rel=1e-12
        )
        mc = doc["monte_carlo"]
        assert mc["ci99"][0] <= doc["poisson_product"] <= mc["ci99"][1]

    def test_check_flags_saturated_regime(self, tmp_path, capsys):
        tl_path = tmp_path / "tl.json"
        AccessTimeline([1.0], [UNSAFE]).save(tl_path)
        code = main(
            [
                "faultmodel", "check",
                "--lambda", "5", "--window", "1",
                "--timeline", str(tl_path), "--trials", "5000",
            ]
        )
        assert code == 0
        assert "not trustworthy" in capsys.readouterr().out


class TestInjectCommand:
    def test_campaign_json_and_resume(self, tmp_path, capfd):
        cfg_path, _cfg = churn_config_file(tmp_path)
        argv = [
            "inject", "campaign",
            "--side", "4",
            "--config", cfg_path,
            "--structure", "pad",
            "--runs", "6",
            "--seed", "3",
            "--scratch", str(tmp_path / "scratch"),
        ]
        assert main(argv) == 0
        doc = json.loads(capfd.readouterr().out)
        assert doc["structure"] == "pad"
        assert doc["runs"] == 6
        assert doc["tally"]["ACE"] == 6
        assert doc["p_unace"] == 0.0
        # Resuming a completed log re-reads it without new runs.
        assert main(argv) == 0
        doc2 = json.loads(capfd.readouterr().out)
        assert doc2 == doc


class TestPipeline:
    def run_pipeline(self, tmp_path, tag, runs, extra=()):
        cfg_path, _ = churn_config_file(tmp_path)
        out = tmp_path / f"out-{tag}"
        argv = [
            "pipeline",
            "--side", "4",
            "--config", cfg_path,
            "--runs-per-structure", str(runs),
            "--seed", "5",
            "--out", str(out),
            "--scratch", str(tmp_path / "scratch"),
            *extra,
        ]
        return main(argv), out

    def test_metrics_only_mode(self, tmp_path, capfd):
        code, out = self.run_pipeline(tmp_path, "a", runs=0)
        assert code == 0
        for name in ("report.json", "report.csv", "figure.dat", "figure.gp"):
            assert (out / name).exists()
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["structures"]) == 9
        assert all(s["p_unace"] is None for s in doc["structures"])
        assert doc["correlations"] == {}
        assert doc["bound_violations"] == []
        # Campaign columns stay empty in the CSV.
        rows = [
            line for line in (out / "report.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert all(r.split(",")[2] == "" for r in rows[1:])

    def test_metrics_only_is_reproducible(self, tmp_path, capfd):
        _, out_a = self.run_pipeline(tmp_path, "a", runs=0)
        _, out_b = self.run_pipeline(tmp_path, "b", runs=0)
        for name in ("report.json", "report.csv", "figure.dat"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_campaign_pipeline_exit_matches_report(self, tmp_path, capfd):
        code, out = self.run_pipeline(tmp_path, "c", runs=8)
        doc = json.loads((out / "report.json").read_text())
        assert code == (0 if doc["bound_violations"] == [] else 1)
        p_vals = [s["p_unace"] for s in doc["structures"]]
        assert all(p is not None for p in p_vals)
        assert p_vals == sorted(p_vals)
        assert set(doc["correlations"]) == {"spearman", "pearson"}
        assert set(doc["correlations"]["spearman"]) == {
            "mvf", "fea", "ld_st_normalized", "dvf"
        }
        # Resuming from complete logs reproduces the report exactly.
        code2, out2 = self.run_pipeline(tmp_path, "d", runs=8)
        assert code2 == code
        assert (out / "report.json").read_bytes() == (
            out2 / "report.json"
        ).read_bytes()

    def test_unreadable_cache_is_simulated_again(self, tmp_path, capfd, caplog):
        _, out_a = self.run_pipeline(tmp_path, "a", runs=0)
        (cache,) = (tmp_path / "scratch").glob("sim-*.npz")
        size = cache.stat().st_size

        def truncate():
            with open(cache, "r+b") as fh:
                fh.truncate(1000)

        def out_of_time_order():
            result = SimResult.load(cache)
            result.req_time[[0, -1]] = result.req_time[[-1, 0]]
            result.save(cache)

        def lengthened(name):
            def spoil():
                result = SimResult.load(cache)
                column = getattr(result, name)
                setattr(result, name, np.append(column, column[-1:]))
                result.save(cache)
            return spoil

        # The index's gathers would silently cut a longer req_ord or
        # res_mask short.
        for spoil, why in ((truncate, ""),
                           (out_of_time_order, "not in time order"),
                           (lengthened("req_ord"), "streams differ in length"),
                           (lengthened("res_mask"), "streams differ in length")):
            spoil()
            caplog.clear()
            capfd.readouterr()
            code, out_b = self.run_pipeline(tmp_path, "b", runs=0)
            assert code == 0
            assert f"ignoring unreadable cache {cache}: " in caplog.text
            assert why in caplog.text
            assert "(no cached run)" in capfd.readouterr().err
            assert cache.stat().st_size == size  # saved again, whole
            for name in ("report.json", "report.csv", "figure.dat"):
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    # A cached simulation's file name carries its config's digest, so a
    # changed digest would orphan every cached simulation.
    @pytest.mark.parametrize("cfg, digest", [
        (CacheConfig(), "1e932fb58e72"),
        (CacheConfig.desk_scaled(16), "b873643c6dc6"),
        (CacheConfig.desk_scaled(32), "01f0c10e92ba"),
    ])
    def test_config_digest_is_pinned(self, cfg, digest):
        assert _config_digest(cfg) == digest

    def test_logs_of_another_hierarchy_are_not_resumed(self, tmp_path, capfd):
        cfg_path = tmp_path / "full.cfg"
        CacheConfig().save(cfg_path)

        def pipeline(scratch, out, *extra):
            return main(["pipeline", "--side", "8", "--runs-per-structure", "3",
                         "--out", str(tmp_path / out),
                         "--scratch", str(tmp_path / scratch), *extra])

        pipeline("shared", "scaled")
        code = pipeline("shared", "full", "--config", str(cfg_path))
        fresh = pipeline("fresh", "want", "--config", str(cfg_path))
        assert code == fresh
        assert (tmp_path / "full" / "report.json").read_bytes() == (
            tmp_path / "want" / "report.json").read_bytes()
        assert len(list((tmp_path / "shared").glob("campaign-*.csv"))) == 18

    def test_scratch_names_carry_the_simulation_key(self, tmp_path, capfd):
        key = "side16-tf1.000e-08-b873643c6dc6"
        scratch = tmp_path / "s"
        simulate_problem(16, 1e-8, CacheConfig.desk_scaled(16), str(scratch))
        assert [p.name for p in scratch.iterdir()] == [f"sim-{key}.npz"]
        main(["pipeline", "--side", "16", "--runs-per-structure", "1",
              "--out", str(tmp_path / "o"), "--scratch", str(scratch)])
        logs = {p.name for p in scratch.glob("campaign-*.csv")}
        assert logs == {f"campaign-{key}-{name}-seed{seed}.csv"
                        for seed, name in enumerate(TRACKED_STRUCTURES)}

    def test_stage_failure_names_the_stage(self, tmp_path, capsys):
        code = main(
            [
                "pipeline",
                "--side", "4",
                "--config", str(tmp_path / "missing.cfg"),
                "--runs-per-structure", "0",
                "--out", str(tmp_path / "o"),
                "--scratch", str(tmp_path / "s"),
            ]
        )
        assert code == 1
        assert "configuration" in capsys.readouterr().err


class TestReportJoin:
    def test_bound_violations_and_sorting(self, tmp_path):
        cfg_path, cfg = churn_config_file(tmp_path)
        A, b, tol = build_problem(4, 1e-8)
        sim = CacheSimulator(cfg)
        solve(A, b, tol=tol, observer=sim)
        analysis = analyze(sim.finish().by_line(), default_structure_map(A))

        class FakeCampaign:
            def __init__(self, p, lo, hi):
                self.n_runs = 100
                self.p_unace = p
                self.ci99 = (lo, hi)
                self.tally = {"ACE": int(round(100 * (1 - p)))}

        campaigns = {
            r.name: FakeCampaign(0.0, 0.0, 0.05) for r in analysis.structures
        }
        # Force one synthetic violation: a measured probability whose CI
        # floor clears both metric values.
        campaigns["b"] = FakeCampaign(0.999, 0.99, 1.0)
        report = build_validation_report(
            analysis, campaigns,
            side=4, tol_factor=1e-8, seed=0, runs=100,
            baseline_iterations=7,
        )
        assert [v for v in report.bound_violations if "b:" in v]
        assert not report.ok
        assert report.rows[-1].name == "b"

    def test_report_without_campaigns_keeps_map_order(self, tmp_path):
        cfg_path, cfg = churn_config_file(tmp_path)
        A, b, tol = build_problem(4, 1e-8)
        sim = CacheSimulator(cfg)
        solve(A, b, tol=tol, observer=sim)
        analysis = analyze(sim.finish().by_line(), default_structure_map(A))
        report = build_validation_report(
            analysis, {},
            side=4, tol_factor=1e-8, seed=0, runs=0,
            baseline_iterations=None,
        )
        assert report.ok
        assert [r.name for r in report.rows] == [
            s.name for s in analysis.structures
        ]


class TestReplay:
    def test_roi_markers_replayed_at_exact_positions(self, tmp_path):
        # A replayed trace must reproduce the live simulation's window and
        # event counts exactly.
        cfg_path, cfg = churn_config_file(tmp_path)
        trace_path = tmp_path / "t.bin"
        main(["trace", "--side", "4", "--out", str(trace_path)])
        result, smap = replay_trace(str(trace_path), cfg)

        A, b, tol = build_problem(4, 1e-8)
        sim = CacheSimulator(cfg)
        solve(A, b, tol=tol, observer=sim)
        direct = sim.finish()
        assert result.t_start == direct.t_start
        assert result.t_end == direct.t_end
        assert result.n_accesses == direct.n_accesses
        assert np.array_equal(result.req_time, direct.req_time)
        assert np.array_equal(result.req_line, direct.req_line)
        assert np.array_equal(result.req_kind, direct.req_kind)
