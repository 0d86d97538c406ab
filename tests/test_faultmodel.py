"""Tests for the analytic fault-consumption model.

The three estimators are checked against hand-computed values, against
each other (ordering and small-rate agreement), and against a
Monte-Carlo sampler; the timeline abstraction is bridged to the cache
analysis so a word's vulnerability factor and its timeline agree.
"""

import json
import math
import random
import re

import numpy as np
import pytest

from memvuln.faultmodel import (
    RARE_FAULT_THRESHOLD,
    SAFE,
    UNSAFE,
    AccessTimeline,
    FaultModelParams,
    monte_carlo_consume,
    p_consume_exact,
    p_consume_linear,
    p_consume_product,
)


def random_timeline(rng, T, max_accesses=12):
    """A valid timeline inside [0, T] with at least one unsafe access."""
    k = rng.randrange(1, max_accesses + 1)
    times = sorted(rng.uniform(T * 1e-6, T) for _ in range(k))
    while len(set(times)) != k:
        times = sorted(rng.uniform(T * 1e-6, T) for _ in range(k))
    tags = [rng.choice([SAFE, UNSAFE]) for _ in range(k)]
    tags[rng.randrange(k)] = UNSAFE
    return AccessTimeline(times, tags)


class TestParams:
    def test_expected_faults(self):
        p = FaultModelParams(rate=1e-6, T=2000.0)
        p.validate()
        assert p.expected_faults == pytest.approx(2e-3)
        assert p.is_rare

    def test_rare_threshold_boundary(self):
        at = FaultModelParams(rate=RARE_FAULT_THRESHOLD, T=1.0)
        above = FaultModelParams(rate=RARE_FAULT_THRESHOLD * 1.01, T=1.0)
        assert at.is_rare
        assert not above.is_rare

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultModelParams(rate=-1.0, T=1.0).validate()
        with pytest.raises(ValueError):
            FaultModelParams(rate=float("nan"), T=1.0).validate()
        with pytest.raises(ValueError):
            FaultModelParams(rate=1.0, T=-2.0).validate()


class TestTimeline:
    def test_periods_start_at_zero(self):
        tl = AccessTimeline([2.0, 5.0, 9.0], [SAFE, UNSAFE, UNSAFE])
        assert np.allclose(tl.periods(), [2.0, 3.0, 4.0])
        assert tl.vulnerable_time() == pytest.approx(7.0)
        assert tl.vulnerability(10.0) == pytest.approx(0.7)
        assert tl.last_time == 9.0

    def test_boolean_tags(self):
        for tags in ([True, False], np.array([True, False])):
            tl = AccessTimeline([1.0, 2.0], tags)
            assert list(tl) == [(1.0, UNSAFE), (2.0, SAFE)]

    def test_empty(self):
        tl = AccessTimeline([], [])
        assert len(tl) == 0
        assert tl.vulnerable_time() == 0.0
        assert tl.last_time == 0.0

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            AccessTimeline([1.0, 2.0], [SAFE])
        with pytest.raises(ValueError):
            AccessTimeline([0.0, 1.0], [SAFE, SAFE])
        with pytest.raises(ValueError):
            AccessTimeline([2.0, 2.0], [SAFE, SAFE])
        with pytest.raises(ValueError):
            AccessTimeline([3.0, 2.0], [SAFE, SAFE])
        with pytest.raises(ValueError):
            AccessTimeline([1.0], ["sometimes"])
        for ints in ([1, 0], np.array([1, 0])):
            with pytest.raises(ValueError, match="unknown access tag"):
                AccessTimeline([1.0, 2.0], ints)

    def test_vulnerability_needs_window(self):
        tl = AccessTimeline([1.0], [UNSAFE])
        with pytest.raises(ValueError):
            tl.vulnerability(0.0)

    def test_json_roundtrip(self, tmp_path):
        tl = random_timeline(random.Random(3), 100.0)
        doc = tl.to_json()
        back = AccessTimeline.from_json(doc)
        assert np.array_equal(back.times, tl.times)
        assert np.array_equal(back.unsafe, tl.unsafe)
        path = tmp_path / "timeline.json"
        tl.save(path)
        loaded = AccessTimeline.load(path)
        assert np.array_equal(loaded.times, tl.times)
        assert np.array_equal(loaded.unsafe, tl.unsafe)

    @pytest.mark.parametrize("doc, message", [
        ({"acc": []}, "needs an 'accesses' list"),
        ([[1.0, "unsafe", 3]], "needs an 'accesses' list"),
        ({"accesses": [[1.0]]}, "access [1.0] is not a [time, tag] pair"),
        ({"accesses": [[1.0, "unsafe", 3]]}, "is not a [time, tag] pair"),
        ({"accesses": [["1.0", "unsafe"]]}, "is not a [time, tag] pair"),
        ({"accesses": [[float("nan"), "unsafe"]]}, "access times must be finite"),
    ])
    def test_malformed_json_rejected(self, tmp_path, doc, message):
        path = tmp_path / "timeline.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(message)):
            AccessTimeline.load(path)

    def test_from_pairs_matches_iter(self):
        tl = random_timeline(random.Random(4), 50.0)
        again = AccessTimeline.from_pairs(list(tl))
        assert np.array_equal(again.times, tl.times)
        assert np.array_equal(again.unsafe, tl.unsafe)


class TestEstimators:
    def test_single_unsafe_access(self):
        params = FaultModelParams(rate=1e-5, T=1000.0)
        tl = AccessTimeline([1000.0], [UNSAFE])
        assert p_consume_exact(params, tl) == pytest.approx(
            1.0 - math.exp(-0.01), rel=1e-12
        )
        assert p_consume_product(params, tl) == p_consume_exact(params, tl)
        assert p_consume_linear(params, tl) == pytest.approx(0.01)

    def test_three_access_example(self):
        params = FaultModelParams(rate=1e-3, T=9.0)
        tl = AccessTimeline([2.0, 5.0, 9.0], [SAFE, UNSAFE, UNSAFE])
        want = (1.0 - math.exp(-3e-3)) + (1.0 - math.exp(-4e-3))
        assert p_consume_exact(params, tl) == pytest.approx(want, rel=1e-12)
        assert p_consume_linear(params, tl) == pytest.approx(7e-3, rel=1e-12)
        assert p_consume_product(params, tl) == pytest.approx(
            1.0 - math.exp(-7e-3), rel=1e-12
        )

    def test_saturated_window(self):
        params = FaultModelParams(rate=5.0, T=1.0)
        tl = AccessTimeline([1.0], [UNSAFE])
        assert p_consume_exact(params, tl) == pytest.approx(
            1.0 - math.exp(-5.0), rel=1e-12
        )

    def test_sum_form_exceeds_one_outside_rare_regime(self):
        params = FaultModelParams(rate=2.0, T=2.0)
        tl = AccessTimeline([1.0, 2.0], [UNSAFE, UNSAFE])
        assert p_consume_exact(params, tl) == pytest.approx(
            2.0 * (1.0 - math.exp(-2.0)), rel=1e-12
        )
        assert p_consume_exact(params, tl) > 1.0
        assert p_consume_product(params, tl) < 1.0

    def test_estimator_ordering(self):
        rng = random.Random(11)
        for _ in range(300):
            T = rng.choice([1.0, 100.0, 1e6])
            rate = rng.choice([1e-9, 1e-6, 1e-3, 1.0]) / T
            tl = random_timeline(rng, T)
            params = FaultModelParams(rate=rate, T=T)
            lin = p_consume_linear(params, tl)
            ex = p_consume_exact(params, tl)
            prod = p_consume_product(params, tl)
            assert lin >= ex * (1.0 - 1e-12)
            assert ex >= prod * (1.0 - 1e-12)

    def test_linear_tracks_exact_when_rare(self):
        rng = random.Random(12)
        for _ in range(200):
            T = 1e4
            rate = rng.uniform(1e-9, 1e-6)  # expected faults <= 0.01
            tl = random_timeline(rng, T)
            params = FaultModelParams(rate=rate, T=T)
            ex = p_consume_exact(params, tl)
            lin = p_consume_linear(params, tl)
            assert ex > 0.0
            assert (lin - ex) / ex < params.expected_faults

    def test_growing_window_dilutes_vulnerability_only(self):
        tl = AccessTimeline([2.0, 5.0], [UNSAFE, UNSAFE])
        small = FaultModelParams(rate=1e-4, T=10.0)
        large = FaultModelParams(rate=1e-4, T=1000.0)
        assert p_consume_exact(small, tl) == p_consume_exact(large, tl)
        assert tl.vulnerability(1000.0) < tl.vulnerability(10.0)

    def test_timeline_must_fit_window(self):
        params = FaultModelParams(rate=1e-6, T=5.0)
        tl = AccessTimeline([6.0], [UNSAFE])
        with pytest.raises(ValueError):
            p_consume_exact(params, tl)

    def test_zero_rate(self):
        params = FaultModelParams(rate=0.0, T=10.0)
        tl = AccessTimeline([5.0], [UNSAFE])
        assert p_consume_exact(params, tl) == 0.0
        assert p_consume_linear(params, tl) == 0.0
        assert p_consume_product(params, tl) == 0.0


class TestMonteCarlo:
    def test_deterministic_per_seed(self):
        params = FaultModelParams(rate=2e-4, T=1000.0)
        tl = AccessTimeline([300.0, 700.0], [UNSAFE, SAFE])
        a = monte_carlo_consume(params, tl, trials=20_000, seed=7)
        b = monte_carlo_consume(params, tl, trials=20_000, seed=7)
        assert a == b
        counts = {
            monte_carlo_consume(params, tl, trials=20_000, seed=s).consumed
            for s in range(8, 13)
        }
        assert len(counts) > 1

    def test_agrees_with_closed_form(self):
        rng = random.Random(21)
        for _ in range(6):
            T = 1000.0
            tl = random_timeline(rng, T)
            rate = rng.uniform(0.05, 2.0) / T
            params = FaultModelParams(rate=rate, T=T)
            want = p_consume_product(params, tl)
            est = monte_carlo_consume(params, tl, trials=60_000, seed=99)
            assert est.ci_low <= want <= est.ci_high
            assert est.frequency == est.consumed / est.trials

    def test_all_safe_never_consumes(self):
        params = FaultModelParams(rate=1e-2, T=100.0)
        tl = AccessTimeline([40.0, 90.0], [SAFE, SAFE])
        est = monte_carlo_consume(params, tl, trials=5000, seed=1)
        assert est.consumed == 0
        assert est.ci_low == 0.0

    def test_faults_after_last_access_never_consume(self):
        # Only (0, 10] of a huge window is unsafe: hits must track the
        # closed form for that sliver, not the whole window.
        params = FaultModelParams(rate=1e-3, T=10_000.0)
        tl = AccessTimeline([10.0], [UNSAFE])
        est = monte_carlo_consume(params, tl, trials=60_000, seed=3)
        want = p_consume_product(params, tl)
        assert est.ci_low <= want <= est.ci_high

    def test_trials_validation(self):
        params = FaultModelParams(rate=1e-6, T=10.0)
        tl = AccessTimeline([5.0], [UNSAFE])
        with pytest.raises(ValueError):
            monte_carlo_consume(params, tl, trials=0)


class TestWordBridge:
    """A word's cache-level vulnerability equals its timeline's."""

    def test_word_factor_matches_timeline(self):
        from memvuln.cachesim import REQ_FILL, REQ_WRITEBACK
        from memvuln.trace import StructureMap, StructureRegion
        from memvuln.vulnmetrics import accumulate
        from test_vulnmetrics import make_result

        T = 1000
        events = [
            (0, REQ_FILL, 6400),  # unrelated line pins the window start
            (100, REQ_FILL, 0),
            (250, REQ_WRITEBACK, 0),
            (400, REQ_FILL, 0),
            (900, REQ_WRITEBACK, 0),
            (T, REQ_FILL, 6400),  # unrelated line pins the window end
        ]
        coverage = {
            (line, t): 0
            for t, kind, line in events
            if kind == REQ_FILL
        }
        result = make_result(events, coverage)
        smap = StructureMap([StructureRegion("v", 0, 64)])
        led = accumulate(result.by_line(), smap)["v"]
        word_mvf = led.mvf_words(T)
        timeline = AccessTimeline(
            [100.0, 250.0, 400.0, 900.0], [UNSAFE, SAFE, UNSAFE, SAFE]
        )
        assert np.allclose(word_mvf, timeline.vulnerability(float(T)))
        # Periods ending at the two fills: (0, 100] and (250, 400].
        assert timeline.vulnerability(float(T)) == pytest.approx(0.25)
