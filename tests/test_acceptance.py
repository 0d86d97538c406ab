"""End-to-end validation gate for the whole toolkit.

Each test covers one numbered acceptance criterion and prints a single
``criterion N ... PASS``/``FAIL`` line directly to the terminal (past
pytest's capture), so a full run yields a readable checklist.

The desk-scale corpus (side-32 simulation plus a 1000-run injection
campaign per structure and a 500-run control campaign) is expensive to
build from scratch (~20 minutes on one core) but fully resumable: the
simulation is cached and every campaign appends to a seed-stamped log
under the scratch directory (``MEMVULN_SCRATCH`` or the system temp
dir), so repeated pytest invocations reuse finished work.
"""

import math
import os
import random
import sys
import time
from collections import Counter
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import spearmanr

from memvuln.cachesim import REQ_FILL, CacheConfig
from memvuln.cg import default_structure_map, solve
from memvuln.trace import KIND_LOAD
from memvuln.cli import default_scratch, simulate_problem
from memvuln.faultmodel import (
    SAFE,
    UNSAFE,
    AccessTimeline,
    FaultModelParams,
    monte_carlo_consume,
    p_consume_exact,
    p_consume_linear,
    p_consume_product,
)
from memvuln.inject import (
    LOG_SCHEMA,
    OUTCOME_ACE,
    PAD_STRUCTURE,
    build_context,
    flip_check,
    run_campaign,
    wilson_ci,
)
from memvuln.vulnmetrics import accumulate, analyze, structure_report

from test_cachesim import (
    functional_cache_events,
    latency_free,
    run_sim,
    sim_event_multiset,
    tiny_config,
)
from test_inject import fill_plans
from test_vulnmetrics import brute_force_ledgers, random_result, single_region_map

SIDE = 32
SMALL_SIDE = 16
TOL_FACTOR = 1e-8
ACCEPT_SEED = 1400
RUNS = 1000
PAD_RUNS = 500
STRUCTURES = ("Ar", "Ac", "Av", "x", "b", "g", "d", "dp", "q")
SCRATCH = default_scratch()


# One line per criterion; tests/conftest.py replays this checklist in
# the terminal summary, past pytest's output capture.
RESULTS = []


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        RESULTS.append(f"criterion {num} — {label}: FAIL")
        print(RESULTS[-1])
        raise
    RESULTS.append(f"criterion {num} — {label}: PASS")
    print(RESULTS[-1])


@pytest.fixture(scope="session")
def live_note(pytestconfig):
    """Progress printer that bypasses capture (corpus builds are long)."""
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")

    def note(msg):
        if capman is not None:
            with capman.global_and_fixture_disabled():
                sys.stdout.write(f"\n[corpus] {msg}\n")
                sys.stdout.flush()
        else:
            print(f"[corpus] {msg}")

    return note


# ---------------------------------------------------------------------------
# Desk-scale corpus fixtures


def _desk_problem(side, note):
    cfg = CacheConfig.desk_scaled(side)
    A, b, tol, result = simulate_problem(side, TOL_FACTOR, cfg, SCRATCH, progress=note)
    smap = default_structure_map(A)
    analysis = analyze(result.by_line(), smap)
    rows = {r.name: r for r in analysis.structures}
    rec = solve(A, b, tol=tol)
    assert rec.converged and rec.verified
    return SimpleNamespace(
        A=A, b=b, tol=tol, result=result, smap=smap,
        analysis=analysis, rows=rows, iterations=rec.iterations,
    )


@pytest.fixture(scope="session")
def desk(live_note):
    return _desk_problem(SIDE, live_note)


@pytest.fixture(scope="session")
def small(live_note):
    return _desk_problem(SMALL_SIDE, live_note)


@pytest.fixture(scope="session")
def ctx(desk):
    return build_context(desk.A, desk.b, desk.tol, desk.result.by_line())


@pytest.fixture(scope="session")
def campaigns(ctx, desk, live_note):
    assert tuple(r.name for r in desk.analysis.structures) == STRUCTURES
    out = {}
    for i, name in enumerate(STRUCTURES + (PAD_STRUCTURE,)):
        n = PAD_RUNS if name == PAD_STRUCTURE else RUNS
        seed = ACCEPT_SEED + i
        # Logs of another schema are refused, so the name carries it.
        log = os.path.join(
            SCRATCH, f"accept-side{SIDE}-{name}-seed{seed}-schema{LOG_SCHEMA}.csv"
        )
        t0 = time.monotonic()

        def note(done, total, _outcome, _name=name, _t0=t0):
            if done % 200 == 0:
                live_note(f"campaign {_name}: {done}/{total} "
                          f"({time.monotonic() - _t0:.0f}s)")

        out[name] = run_campaign(ctx, name, n, seed, log_path=log, progress=note)
    return out


def first_consuming_fill_times(result, region):
    """Per-word time of the first fill covering the word's line."""
    fills = result.req_kind == REQ_FILL
    lines = result.req_line[fills]
    times = result.req_time[fills]
    order = np.lexsort((times, lines))
    lines, times = lines[order], times[order]
    word_lines = (region.base + 8 * np.arange(region.length // 8)) & ~63
    idx = np.searchsorted(lines, word_lines, side="left")
    assert np.all(lines[idx] == word_lines), "every word's line must be filled"
    return times[idx]


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_1_campaign_lower_bounds(desk, campaigns):
    with criterion(1, "measured metrics bound campaign estimates"):
        assert len(STRUCTURES) == 9
        violations = []
        for name in STRUCTURES:
            res = campaigns[name]
            assert res.n_runs >= RUNS
            row = desk.rows[name]
            lo = res.ci99[0]
            if row.mvf < lo:
                violations.append(f"{name}: mvf={row.mvf:.4f} < {lo:.4f}")
            if row.fea < lo:
                violations.append(f"{name}: fea={row.fea:.4f} < {lo:.4f}")
        assert not violations, violations


def test_criterion_2_rewrite_sensitivity(desk):
    with criterion(2, "write-before-read split separates the two metrics"):
        # Vectors rebuilt in place before their next read: the consumed
        # share of their residency is far below the raw share.
        for name in ("d", "dp", "q"):
            row = desk.rows[name]
            assert row.mvf - row.fea > 0.10, (name, row.mvf, row.fea)
        # Vectors read and immediately rewritten keep the two aligned.
        for name in ("g", "x"):
            row = desk.rows[name]
            assert abs(row.mvf - row.fea) < 0.02, (name, row.mvf, row.fea)


def test_criterion_3_predictor_ranking(desk, campaigns):
    with criterion(3, "consumed-share metric best predicts campaign outcomes"):
        p = [campaigns[n].p_unace for n in STRUCTURES]
        rho = {
            key: spearmanr([getattr(desk.rows[n], key) for n in STRUCTURES], p).statistic
            for key in ("mvf", "fea", "ld_ratio", "dvf")
        }
        assert rho["fea"] >= rho["mvf"] - 1e-12, rho
        assert rho["fea"] > rho["ld_ratio"], rho
        assert rho["fea"] > rho["dvf"], rho


def test_criterion_4_legacy_metrics_misrank(desk, campaigns):
    with criterion(4, "traffic- and ratio-based metrics misrank structures"):
        by_dvf = sorted(STRUCTURES, key=lambda n: desk.rows[n].dvf, reverse=True)
        assert set(by_dvf[:2]) == {"Ac", "Av"}, by_dvf
        assert by_dvf[0] != "Ar", by_dvf
        # The load ratio awards the streamed right-hand side a perfect
        # score even though the campaign barely ever corrupts it.
        assert desk.rows["b"].ld_ratio == 1.0
        p_sorted = sorted(campaigns[n].p_unace for n in STRUCTURES)
        assert campaigns["b"].p_unace <= p_sorted[2], [
            (n, campaigns[n].p_unace) for n in STRUCTURES
        ]


def test_criterion_5_streamed_operand_residency(desk, small):
    with criterion(5, "read-once operand tracks its first-fill time"):
        for prob in (small, desk):
            row = prob.rows["b"]
            region = {r.name: r for r in prob.smap}["b"]
            fills = first_consuming_fill_times(prob.result, region)
            expect = float(np.mean((fills - prob.result.t_start) / prob.result.T))
            assert math.isclose(row.mvf, expect, rel_tol=1e-12), (row.mvf, expect)
            assert row.mvf < 0.10, row.mvf
        assert desk.iterations > small.iterations
        assert desk.rows["b"].mvf < small.rows["b"].mvf


def test_criterion_6_accounting_identities():
    with criterion(6, "streaming accumulator matches brute force exactly"):
        t0 = time.monotonic()
        rng = random.Random(93)
        for trial in range(10_000):
            n_lines = rng.randrange(1, 9)
            res = random_result(rng, n_lines=n_lines, max_events=rng.randrange(2, 15))
            smap = single_region_map(n_lines)
            led = accumulate(res.by_line(), smap)["x"]
            ref = brute_force_ledgers(res, smap)["x"]
            assert np.array_equal(led.vuln_time, ref[0]), trial
            assert np.array_equal(led.kept_time, ref[1]), trial
            assert np.array_equal(led.loads, ref[2]), trial
            assert np.array_equal(led.stores, ref[3]), trial
            rep = structure_report(led, res.T)
            assert rep.mvf + rep.safe_ratio == 1.0, trial
            assert 0.0 <= rep.fea <= rep.mvf <= 1.0, trial
            if res.T > 0:
                assert math.isclose(
                    rep.mvf, float(np.mean(led.mvf_words(res.T))), rel_tol=1e-12
                ), trial
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, elapsed


def _random_timeline(rng, T, max_accesses=12):
    k = rng.randrange(1, max_accesses)
    times = sorted(rng.sample(range(1, T + 1), min(k, T)))
    tags = [rng.choice((SAFE, UNSAFE)) for _ in times]
    tags[rng.randrange(len(tags))] = UNSAFE  # keep the probability nonzero
    return AccessTimeline(times, tags)


def test_criterion_7_fault_model_regimes():
    with criterion(7, "linear fault model tracks the exact one when rare"):
        t0 = time.monotonic()
        rng = random.Random(77)
        for trial in range(10_000):
            T = rng.randrange(100, 10**8)
            lam_T = 10 ** rng.uniform(-4, math.log10(0.01))
            params = FaultModelParams(rate=lam_T / T, T=T)
            tl = _random_timeline(rng, T)
            ex = p_consume_exact(params, tl)
            lin = p_consume_linear(params, tl)
            prod = p_consume_product(params, tl)
            assert ex > 0.0, trial
            assert prod <= ex + 1e-15 and ex <= lin + 1e-15, trial
            assert (lin - ex) / ex < params.expected_faults, trial

        # Hand-picked spread of regimes for the Monte-Carlo cross-check;
        # every case keeps the exact sum close to the per-period product
        # the sampler estimates (single unsafe period, or a rare-fault
        # multi-period mix), so the 99% interval is a fair gate.
        canonical = []
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            canonical.append((1e-6, 1_000_000, AccessTimeline([int(frac * 1e6)], [UNSAFE])))
        for lam_T in (0.5, 1.0, 2.0, 5.0):
            canonical.append((lam_T / 1e6, 1_000_000, AccessTimeline([400_000], [UNSAFE])))
        crng = random.Random(7)
        for _ in range(11):
            T = crng.randrange(10**4, 10**7)
            lam_T = 10 ** crng.uniform(-3, -2)
            canonical.append((lam_T / T, T, _random_timeline(crng, T)))
        assert len(canonical) == 20
        for i, (rate, T, tl) in enumerate(canonical):
            params = FaultModelParams(rate=rate, T=T)
            ex = p_consume_exact(params, tl)
            est = monte_carlo_consume(params, tl, trials=1_000_000, seed=0)
            assert est.ci_low <= ex <= est.ci_high, (i, ex, est)
        elapsed = time.monotonic() - t0
        assert elapsed < 300.0, elapsed


def test_criterion_8_hierarchy_matches_functional_model():
    with criterion(8, "event multisets match the order-free cache model"):
        rng = random.Random(2718)
        cfg = latency_free(tiny_config())
        for trial in range(1000):
            n = rng.randrange(1, 3000) if trial % 20 else rng.randrange(3000, 10_001)
            span = rng.choice((64, 256, 1024, 8192))
            kinds = [rng.randrange(2) for _ in range(n)]
            addrs = [8 * rng.randrange(span) for _ in range(n)]
            expected = Counter(functional_cache_events(cfg, kinds, addrs))
            got = sim_event_multiset(run_sim(cfg, kinds, addrs))
            assert got == expected, f"trial {trial} diverged"
        # Two loads to one cold line within the miss window share a fill.
        merged = sim_event_multiset(run_sim(tiny_config(), [KIND_LOAD, KIND_LOAD], [0, 8]))
        assert merged == Counter({(REQ_FILL, 0): 1}), merged


def test_criterion_9_control_experiments(ctx, desk, campaigns):
    with criterion(9, "untouched-region control and interval endpoints"):
        pad = campaigns[PAD_STRUCTURE]
        assert pad.n_runs == PAD_RUNS
        assert pad.tally[OUTCOME_ACE] == PAD_RUNS
        assert pad.p_unace == 0.0
        assert pad.ci99[0] == 0.0
        for n in (7, PAD_RUNS):
            assert wilson_ci(0, n)[0] == 0.0
            assert wilson_ci(n, n)[1] == 1.0
        plan = fill_plans(ctx, desk.result, "b", 3, 62, count=1)[0]
        assert flip_check(ctx, plan) is True
