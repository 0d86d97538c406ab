"""Every name the benchmark's span recorder wraps exists in the package.

``perfbench/spans.py`` wraps functions and methods by module and
qualified name when a traced benchmark run starts, and reads counters
off the simulator's result; a refactor that deletes or renames one of
them should fail here, not in the benchmark.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from memvuln import inject
from memvuln.cachesim import CacheSimulator, SimResult
from memvuln.cg import solve
from memvuln.cli import build_problem
from memvuln.trace import KIND_LOAD, KIND_STORE

from test_inject import build_problem as build_churn_problem

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    targets = load_spans().TARGETS
    assert targets
    for _layer, modname, qual, _attrs in targets:
        obj = importlib.import_module(modname)
        *owners, name = qual.split(".")
        for owner in owners:
            obj = getattr(obj, owner)
        # Methods are wrapped through the class dict, not inherited.
        assert name in (vars(obj) if owners else dir(obj)), f"{modname}.{qual}"
        if name == "emit":
            # The access count is read from the second positional argument.
            params = list(inspect.signature(getattr(obj, name)).parameters)
            assert params[:3] == ["self", "kinds", "addrs"], f"{modname}.{qual}"


def test_result_counters_read_from_finish_and_load(tmp_path):
    sim = CacheSimulator()
    kinds = np.array([KIND_STORE, KIND_LOAD, KIND_LOAD], dtype=np.uint8)
    sim.emit(kinds, np.array([0, 64, 8], dtype=np.uint64))
    result = sim.finish()
    path = tmp_path / "sim.npz"
    result.save(path)
    sim_counts = load_spans()._sim_counts
    want = {"fills": 2, "writebacks": 1, "resolutions": 2}
    for res in (result, SimResult.load(path)):
        counts = sim_counts(res)
        assert {k: counts[k] for k in want} == want
        assert counts["window_cycles"] == result.T > 0


def test_build_context_measures_the_baseline_through_the_module_global(
    monkeypatch,
):
    # The recorder rebinds ``memvuln.inject.measure_baseline``, and reads the
    # baseline's wall time off the wrapped call's result.
    (attrs,) = [a for _l, mod, qual, a in load_spans().TARGETS
                if (mod, qual) == ("memvuln.inject", "measure_baseline")]
    seen = []
    measure = inject.measure_baseline

    def spy(*args, **kwargs):
        seen.append(measure(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(inject, "measure_baseline", spy)
    A, b, tol = build_problem(3, 1e-8)
    sim = CacheSimulator()
    solve(A, b, tol=tol, observer=sim)
    ctx = inject.build_context(A, b, tol, sim.finish().by_line())
    assert len(seen) == 1 and ctx.baseline is seen[0]
    assert attrs((), {}, seen[0])["wall_time"] == ctx.baseline.wall_time > 0


def test_rows_settled_early_carry_what_the_recorder_reads(monkeypatch):
    # The recorder wraps ``run_one`` and ``cg.verify`` through the module
    # globals and reads outcome, detail, reason and wall time off each
    # Outcome; a row settled without a solve, and a hang decided before
    # its budget, must take the same paths.
    *_, ctx = build_churn_problem(side=6)
    for x_plan in inject.draw_plans(ctx, "x", 100, seed=0):
        apply_ord, _reason = inject.resolve_visibility(ctx, x_plan)
        row = None if apply_ord is None else inject._x_row(ctx, x_plan, apply_ord)
        if row is not None and row[1] != "erased":
            break
    hang_plan = inject.InjectionPlan("Ar", 64 * 173 + 9, 76997, 0, 0)
    verified = []
    verify = inject.verify
    monkeypatch.setattr(inject, "verify",
                        lambda *args: verified.append(args[2]) or verify(*args))
    recorded = load_spans()._run_one

    class NoSolve(inject._InjectedSolve):
        def __init__(self, *args):
            raise AssertionError("the x plan was solved")

    with monkeypatch.context() as m:
        m.setattr(inject, "_InjectedSolve", NoSolve)
        settled = inject.run_one(ctx, x_plan)
    hung = inject.run_one(ctx, hang_plan)
    assert len(verified) == 1
    budget = inject.HANG_ITERS * ctx.baseline.iterations
    for out, plan, outcome, iterations in (
        (settled, x_plan, settled.outcome, ctx.baseline.iterations),
        (hung, hang_plan, "hang", budget),
    ):
        assert recorded((ctx, plan), {}, out) == {
            "structure": plan.structure_id, "outcome": outcome, "detail": ""}
        assert (out.iterations, out.reason) == (iterations, "fill")
        assert out.wall_time > 0
    assert settled.outcome in ("ACE", "wrong-result")
