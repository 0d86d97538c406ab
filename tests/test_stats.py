"""Tests for the in-package statistics: the 99% z, the Wilson interval
and the two correlation coefficients of the validation report."""

import csv
import hashlib
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from statistics import NormalDist
from types import SimpleNamespace

import numpy as np
import pytest

import memvuln
from memvuln import cli
from memvuln.cli import build_validation_report
from memvuln.inject import CampaignResult
from memvuln.stats import Z99, pearson, spearman, wilson_ci
from memvuln.vulnmetrics import AnalysisReport, StructureReport


def hand_made_inputs(metrics, unace, n_runs):
    """Hand-written metric rows and campaigns: (analysis, campaigns)."""
    analysis = AnalysisReport(T=123_457, t_start=11, t_end=123_468,
                              fit_rate=1e-9)
    campaigns = {}
    for i, ((mvf, fea, ld, dvf), u) in enumerate(zip(metrics, unace)):
        name = f"s{i}"
        analysis.structures.append(StructureReport(
            name=name, n_words=512 + i, touched_words=500,
            loads=1000 + 7 * i, stores=300 + 3 * i, ld_ratio=ld, mvf=mvf,
            fea=fea, safe_ratio=1.0 - mvf, dvf=dvf))
        campaigns[name] = CampaignResult(
            structure_id=name, n_runs=n_runs,
            tally={"ACE": n_runs - u, "crash": u},
            p_unace=u / n_runs, ci99=wilson_ci(u, n_runs),
            baseline_iterations=17)
    return analysis, campaigns


def hand_made_report(metrics, unace, n_runs):
    """A validation report over hand-written metric rows and campaigns."""
    analysis, campaigns = hand_made_inputs(metrics, unace, n_runs)
    return build_validation_report(
        analysis, campaigns, side=6, tol_factor=1e-8, seed=3, runs=n_runs,
        baseline_iterations=17)


class TestValidationReportBytes:
    """The report's correlations and ci99 columns, pinned byte for byte.

    The digests were taken from the scipy-based implementation this
    package used before it computed these statistics itself.
    """

    # Nine structures; tied metric values, tied p_unace, zero and full
    # tallies, dvf spread over nine decades.
    SPREAD = (
        [(0.10, 0.05, 0.50, 3.1e-12), (0.25, 0.25, 0.61, 4.7e-11),
         (0.25, 0.20, 0.61, 2.2e-10), (0.40, 0.33, 0.72, 9.9e-9),
         (0.55, 0.41, 0.50, 1.3e-7), (0.90, 0.88, 0.83, 6.0e-6),
         (0.99, 0.97, 0.99, 5.5e-5), (1.00, 0.97, 1.00, 8.1e-4),
         (0.50, 0.12, 0.72, 2.6e-3)],
        [0, 3, 3, 17, 50, 120, 199, 200, 64],
        200,
    )
    SPREAD_DIGEST = (
        "b64712a8c1acf6221a492c5017e959189e5bfb158bdc39eb4ee14c2e88059b8b")

    # Three structures with a constant dvf column: both coefficients of
    # that column are NaN.
    CONSTANT = (
        [(0.2, 0.1, 0.5, 1e-6), (0.7, 0.6, 0.4, 1e-6),
         (0.3, 0.3, 0.9, 1e-6)],
        [1, 2, 2],
        7,
    )
    CONSTANT_DIGEST = (
        "78e68f007a2e98688349d60713ae7ece6b1b7135a61a643e2dc576a252c2ef0f")

    @staticmethod
    def digest(report, tmp_path):
        path = tmp_path / "report.json"
        report.write_json(path)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_spread_report_bytes(self, tmp_path):
        report = hand_made_report(*self.SPREAD)
        assert self.digest(report, tmp_path) == self.SPREAD_DIGEST

    def test_constant_column_report_bytes(self, tmp_path):
        report = hand_made_report(*self.CONSTANT)
        assert self.digest(report, tmp_path) == self.CONSTANT_DIGEST

    def test_campaigns_for_only_some_structures_are_refused(self):
        analysis, campaigns = hand_made_inputs(*self.CONSTANT)
        del campaigns["s1"]
        with pytest.raises(ValueError, match="no campaign for structures s1$"):
            build_validation_report(
                analysis, campaigns, side=6, tol_factor=1e-8, seed=3,
                runs=self.CONSTANT[2], baseline_iterations=17)


class TestPipelineOutputBytes:
    """Every file and the terminal summary of `pipeline`, pinned byte for
    byte over the hand-made reports above and over one without campaigns.

    The stages before the report are replaced by the hand-made metric rows
    and campaigns, so `report.json` must be the one pinned above.
    """

    SPREAD = {
        "report.json": TestValidationReportBytes.SPREAD_DIGEST,
        "report.csv": (
            "5069f1aa4cb9321f2f63c723a05171a92fd93dd18b36e81f1185f25b596ea210"),
        "figure.dat": (
            "3159a5b45367e3b7cbe111b5bca23d2d3319824236eee796317c8b22877e34a3"),
        "summary": (
            "bd77e84e64b9a2d49d38213c1ad31916628c24c65a66af97a4048c55375b22e3"),
    }
    CONSTANT = {
        "report.json": TestValidationReportBytes.CONSTANT_DIGEST,
        "report.csv": (
            "eb643b1ba88e65dacdec583f386d762850054d8a056353caf0ae6934770890ea"),
        "figure.dat": (
            "235646cf827eef0ce7058670269f8ee6a1e611f06585c80c1766670465bf27d3"),
        "summary": (
            "0a92a1c4c60cf9e097efc4dc37eefcd9fd147f3a4e4fd9ea10cfae283eb13bb9"),
    }
    NO_CAMPAIGNS = {
        "report.json": (
            "42ec46f1648c353a51fe7e58526a1ead4a37f5d0b3a722cd92e1d0826d33f991"),
        "report.csv": (
            "ce9627f44ac05ec8a82b9ba3acdbf899abddf1bc3a57813daa05383f7c58b5b7"),
        "figure.dat": (
            "7468129601f4de1e6bd99dbdab26e08d231f4654c1e31d9421b5b98e7bc44b06"),
        "summary": (
            "760e1240c9376132bef31edafbc86ea525aa59e77f711d1a00d3bcf6c24926b1"),
    }

    @staticmethod
    def outputs(monkeypatch, tmp_path, capsys, case, runs):
        analysis, campaigns = hand_made_inputs(*case)
        ctx = SimpleNamespace(baseline=SimpleNamespace(iterations=17))
        result = SimpleNamespace(by_line=lambda: None)
        monkeypatch.setattr(cli, "simulate_problem",
                            lambda *a, **k: (None, None, None, result))
        monkeypatch.setattr(cli, "default_structure_map", lambda A: None)
        monkeypatch.setattr(cli, "analyze", lambda events, smap: analysis)
        monkeypatch.setattr(cli, "build_context", lambda *a: ctx)
        monkeypatch.setattr(cli, "run_campaign",
                            lambda c, name, *a, **k: campaigns[name])
        monkeypatch.chdir(tmp_path)  # the summary names the output directory
        code = cli.main(["pipeline", "--side", "6", "--seed", "3",
                         "--runs-per-structure", str(runs),
                         "--out", "out", "--scratch", "scratch"])
        got = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes())
               .hexdigest() for name in ("report.json", "report.csv",
                                         "figure.dat")}
        got["summary"] = hashlib.sha256(
            capsys.readouterr().out.encode()).hexdigest()
        return code, got

    def test_spread_outputs(self, monkeypatch, tmp_path, capsys):
        case = TestValidationReportBytes.SPREAD
        got = self.outputs(monkeypatch, tmp_path, capsys, case, case[2])
        assert got == (1, self.SPREAD)  # two structures undercut their CI

    def test_constant_column_outputs(self, monkeypatch, tmp_path, capsys):
        case = TestValidationReportBytes.CONSTANT
        got = self.outputs(monkeypatch, tmp_path, capsys, case, case[2])
        assert got == (0, self.CONSTANT)

    def test_outputs_without_campaigns(self, monkeypatch, tmp_path, capsys):
        case = TestValidationReportBytes.SPREAD
        got = self.outputs(monkeypatch, tmp_path, capsys, case, 0)
        assert got == (0, self.NO_CAMPAIGNS)


class TestReportColumns:
    """Every output of the validation report follows `REPORT_COLUMNS`."""

    @staticmethod
    def names(output):
        return [getattr(c, output) for c in cli.REPORT_COLUMNS
                if getattr(c, output)]

    def test_every_output_follows_the_declaration(self, tmp_path):
        analysis, campaigns = hand_made_inputs(*TestValidationReportBytes.SPREAD)
        report = build_validation_report(
            analysis, campaigns, side=6, tol_factor=1e-8, seed=3, runs=200,
            baseline_iterations=17)
        structures = report.to_dict()["structures"]
        assert [list(doc) for doc in structures] == [self.names("json")] * 9

        report.write_csv(tmp_path / "report.csv")
        with open(tmp_path / "report.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))[4:]
        assert header == [name for name, _ in self.names("csv")]
        # The metric columns are written as `memvuln metrics` writes them.
        analysis.write_csv(tmp_path / "metrics.csv")
        with open(tmp_path / "metrics.csv", newline="") as fh:
            m_header, *m_rows = list(csv.reader(fh))[3:]
        metrics = {row[0]: dict(zip(m_header, row)) for row in m_rows}
        renamed = {"structure": "structure", "ld_st_normalized": "ld_ratio"}
        for row in rows:
            cells = dict(zip(header, row))
            for name in ("mvf", "fea", "safe_ratio", "ld_st_normalized", "dvf"):
                want = metrics[cells["structure"]][renamed.get(name, name)]
                assert cells[name] == want

        report.write_plot_data(tmp_path / "figure.dat")
        plot_header = (tmp_path / "figure.dat").read_text().splitlines()[1]
        assert plot_header.split() == ["#", "index"] + self.names("plot")
        # figure.gp's column numbers name the columns it plots.
        used = [plot_header.split()[int(n)] for n in
                re.findall(r"using 1:(\d+)", cli.GNUPLOT_SCRIPT)]
        assert used == ["p_unace", "p_unace", "mvf", "fea", "ld_norm",
                        "dvf_rescaled"]

        labels = [template.split("{")[0] for template, _ in self.names("show")]
        for line in report.summary()[:9]:
            assert [t[:t.find("=") + 1] for t in line.split()] == labels

        ranked = [c.json for c in cli.REPORT_COLUMNS if c.rank]
        assert [list(report.correlations[k]) for k in ("spearman", "pearson")
                ] == [ranked, ranked]
        bounds = {c.json for c in cli.REPORT_COLUMNS if c.bound}
        named = {v.split(": ")[1].split("=")[0] for v in report.bound_violations}
        assert named and named <= bounds


def same_bits(a, b) -> bool:
    """Equal as float64 bit patterns, with every NaN equal to every NaN."""
    a, b = np.float64(a), np.float64(b)
    if np.isnan(a) and np.isnan(b):
        return True
    return a.view(np.int64) == b.view(np.int64)


class TestPinnedValues:
    """Values fixed by repr or by the standard library, so they hold where
    SciPy is not installed."""

    def test_z99_is_the_normal_quantile(self):
        # Within rounding of the standard library's quantile, so a typo in
        # the constant shows where SciPy is absent.
        assert abs(Z99 - NormalDist().inv_cdf(0.995)) < 1e-12

    def test_wilson_ci(self):
        assert repr(wilson_ci(1495, 6500)) == (
            "(0.2168340844341522, 0.24371656028796418)")

    def test_correlations(self):
        assert repr(pearson([1, 2, 3, 5], [2, 2, 7, 1])) == (
            "-0.07207499701564471")
        assert repr(spearman([1, 2, 2, 5], [3, 1, 4, 1])) == (
            "-0.5000000000000001")

    def test_constant_or_nan_input_gives_nan(self):
        assert math.isnan(pearson([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]))
        assert math.isnan(pearson([1.0, 2.0, 3.0], [0.0, 0.0, 0.0]))
        assert math.isnan(spearman([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]))
        assert math.isnan(spearman([1.0, math.nan, 3.0], [1.0, 2.0, 3.0]))
        assert math.isnan(pearson([1.0, math.nan, 3.0], [1.0, 2.0, 3.0]))


class TestMatchesScipy:
    """Bit for bit against the SciPy routines the functions replace."""

    @pytest.fixture(scope="class")
    def scipy(self):
        pytest.importorskip("scipy", minversion="1.17")
        from scipy import special, stats

        return special, stats

    def test_z99(self, scipy):
        special, _ = scipy
        assert same_bits(Z99, special.ndtri(0.995))

    @staticmethod
    def random_pairs(rng, count):
        for k in range(count):
            n = int(rng.integers(3, 12))
            kind = k % 4
            if kind == 0:
                yield rng.random(n), rng.random(n)
            elif kind == 1:  # ties
                yield (rng.integers(0, 3, n).astype(float),
                       rng.integers(0, 4, n) / 7.0)
            elif kind == 2:  # zeros and eight decades
                yield (10.0 ** rng.uniform(-8.0, 0.0, n),
                       rng.random(n) * (rng.random(n) < 0.6))
            else:  # small deviations around a large mean
                yield rng.normal(size=n) * 1e5 + 3e7, rng.random(n)

    def test_pearson(self, scipy):
        _, stats = scipy
        rng = np.random.default_rng(1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # constant-input warnings
            for x, y in self.random_pairs(rng, 4000):
                assert same_bits(pearson(x, y), stats.pearsonr(x, y).statistic)

    def test_spearman(self, scipy):
        _, stats = scipy
        rng = np.random.default_rng(2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # constant-input warnings
            for x, y in self.random_pairs(rng, 4000):
                assert same_bits(spearman(x, y),
                                 stats.spearmanr(x, y).statistic)


def test_runtime_never_imports_scipy(tmp_path):
    """A fault-model check and a pipeline with campaigns, in a fresh
    interpreter, leave no SciPy module loaded."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(memvuln.__file__)))
    script = textwrap.dedent(f"""
        import sys
        from memvuln.cli import main
        from memvuln.faultmodel import UNSAFE, SAFE, AccessTimeline

        AccessTimeline([0.3, 1.0], [UNSAFE, SAFE]).save({str(tmp_path / "tl.json")!r})
        assert main(["faultmodel", "check", "--lambda", "0.01",
                     "--window", "1", "--timeline", {str(tmp_path / "tl.json")!r},
                     "--trials", "2000"]) == 0
        assert main(["pipeline", "--side", "6", "--runs-per-structure", "3",
                     "--out", {str(tmp_path / "out")!r},
                     "--scratch", {str(tmp_path / "scratch")!r}]) in (0, 1)
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, loaded
    """)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert (tmp_path / "out" / "report.json").exists()
