"""Tests for the in-package statistics: the 99% z, the Wilson interval
and the two correlation coefficients of the validation report."""

import hashlib
import math
import os
import subprocess
import sys
import textwrap
import warnings
from statistics import NormalDist

import numpy as np
import pytest

import memvuln
from memvuln.cli import build_validation_report
from memvuln.inject import CampaignResult
from memvuln.stats import Z99, pearson, spearman, wilson_ci
from memvuln.vulnmetrics import AnalysisReport, StructureReport


def hand_made_report(metrics, unace, n_runs):
    """A validation report over hand-written metric rows and campaigns."""
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
