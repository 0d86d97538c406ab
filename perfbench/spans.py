"""Spans around calls into each memvuln module, and the per-layer metrics.

`install()` wraps the public functions of the seven modules in place, in
the repetition's own process, so the program itself carries no tracing
code.  A span is (id, parent, layer, name, start_ns, end_ns, attrs); the
spans of one repetition share that repetition's identifier, stay in
memory while it runs and are written once it has ended.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time

STRUCTURES = ("Ar", "Ac", "Av", "x", "b", "g", "d", "dp", "q")
OUTCOMES = ("ACE", "crash", "wrong-result", "extra-work", "hang")
LAYERS = ("cg", "trace", "cachesim", "vulnmetrics", "faultmodel", "inject",
          "cli")


def _sim_counts(result) -> dict:
    return {
        "fills": result.n_fills,
        "writebacks": result.n_writebacks,
        "resolutions": int(len(result.res_line)),
        "stall_cycles": int(result.n_stall_cycles),
        "window_cycles": int(result.T),
    }


def _emit_count(args, kwargs, out):
    return {"n": len(args[2] if len(args) > 2 else kwargs["addrs"])}


def _run_one(args, kwargs, out):
    return {"structure": out.plan.structure_id, "outcome": out.outcome,
            "detail": out.detail}


#: (layer, module, qualified name, attrs(args, kwargs, result) or None).
TARGETS = (
    ("cg", "memvuln.cg", "generate_poisson27", None),
    ("cg", "memvuln.cg", "solve", None),
    ("cg", "memvuln.cg", "verify", None),
    ("trace", "memvuln.trace", "TraceWriter.emit", _emit_count),
    ("trace", "memvuln.trace", "TraceWriter.close",
     lambda a, k, out: {"bytes": os.path.getsize(a[0]._fh.name)}),
    ("trace", "memvuln.trace", "TraceReader.iter_blocks", None),
    ("cachesim", "memvuln.cachesim", "CacheSimulator.emit", _emit_count),
    ("cachesim", "memvuln.cachesim", "CacheSimulator.finish",
     lambda a, k, out: _sim_counts(out)),
    ("cachesim", "memvuln.cachesim", "SimResult.save", None),
    ("cachesim", "memvuln.cachesim", "SimResult.load",
     lambda a, k, out: _sim_counts(out)),
    ("vulnmetrics", "memvuln.vulnmetrics", "analyze",
     lambda a, k, out: {"words": sum(r.n_words for r in out.structures)}),
    ("vulnmetrics", "memvuln.vulnmetrics", "AnalysisReport.write_csv", None),
    ("vulnmetrics", "memvuln.vulnmetrics", "AnalysisReport.write_json", None),
    ("faultmodel", "memvuln.faultmodel", "AccessTimeline.load", None),
    ("faultmodel", "memvuln.faultmodel", "p_consume_exact", None),
    ("faultmodel", "memvuln.faultmodel", "p_consume_linear", None),
    ("faultmodel", "memvuln.faultmodel", "p_consume_product", None),
    ("faultmodel", "memvuln.faultmodel", "monte_carlo_consume",
     lambda a, k, out: {"trials": out.trials}),
    ("inject", "memvuln.inject", "build_context", None),
    ("inject", "memvuln.inject", "measure_baseline",
     lambda a, k, out: {"wall_time": out.wall_time}),
    ("inject", "memvuln.inject", "draw_plans", None),
    ("inject", "memvuln.inject", "run_campaign", None),
    ("inject", "memvuln.inject", "run_one", _run_one),
    ("inject", "memvuln.inject", "resolve_visibility",
     lambda a, k, out: {"reason": out[1]}),
    ("cli", "memvuln.cli", "main", None),
    ("cli", "memvuln.cli", "build_problem", None),
    ("cli", "memvuln.cli", "simulate_problem", None),
    ("cli", "memvuln.cli", "replay_trace", None),
    ("cli", "memvuln.cli", "build_validation_report", None),
    ("cli", "memvuln.cli", "ValidationReport.write_json", None),
    ("cli", "memvuln.cli", "ValidationReport.write_csv", None),
    ("cli", "memvuln.cli", "ValidationReport.write_plot_data", None),
)


class Recorder:
    def __init__(self, rep: str):
        self.rep = rep
        self.spans: list = []
        self._stack: list = []

    def _open(self, layer, name):
        span = [len(self.spans), self._stack[-1] if self._stack else None,
                layer, name, time.perf_counter_ns(), 0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span):
        span[5] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, layer, name, fn, attrs):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = rec._open(layer, name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec._close(span)
            if attrs is not None:
                span[6] = attrs(args, kwargs, out)
            return out

        return traced

    def wrap_generator(self, layer, name, fn):
        """One span per item, so only the time inside the generator counts."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                span = rec._open(layer, name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec._close(span)
                span[6] = {"n": len(item)}
                yield item

        return traced

    def dump(self, path: str) -> None:
        keys = ("id", "parent", "layer", "name", "start_ns", "end_ns", "attrs")
        with open(path, "w") as fh:
            json.dump({"rep": self.rep,
                       "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)


def install(rep: str) -> Recorder:
    """Wrap every target in place; every module alias is rebound too."""
    rec = Recorder(rep)
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "memvuln" or n.startswith("memvuln.")]
    for layer, modname, qual, attrs in TARGETS:
        mod = importlib.import_module(modname)
        name = f"{layer}.{qual}"
        if "." in qual:
            cls_name, meth = qual.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(
                    rec.wrap(layer, name, raw.__func__, attrs)))
            elif meth == "iter_blocks":
                setattr(cls, meth, rec.wrap_generator(layer, name, raw))
            else:
                setattr(cls, meth, rec.wrap(layer, name, raw, attrs))
            continue
        orig = getattr(mod, qual)
        wrapped = rec.wrap(layer, name, orig, attrs)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)
    return rec


# ---------------------------------------------------------------------------
# Per-layer metrics


#: name -> (unit, better).  Counts marked exact in README.md repeat exactly.
LAYER_METRICS = {
    "cg.generate_s": ("s", "lower"),
    "cg.solve_s": ("s", "lower"),
    "cg.emit_s": ("s", "lower"),
    "cg.iterations": ("count", "lower"),
    "cg.accesses": ("count", "lower"),
    "trace.write_s": ("s", "lower"),
    "trace.write_mb_per_s": ("MB/s", "higher"),
    "trace.read_s": ("s", "lower"),
    "trace.bytes": ("count", "lower"),
    "cachesim.emit_s": ("s", "lower"),
    "cachesim.emit_calls": ("count", "lower"),
    "cachesim.accesses_per_s": ("1/s", "higher"),
    "cachesim.finish_s": ("s", "lower"),
    "cachesim.save_s": ("s", "lower"),
    "cachesim.load_s": ("s", "lower"),
    "cachesim.fills": ("count", "lower"),
    "cachesim.writebacks": ("count", "lower"),
    "cachesim.resolutions": ("count", "lower"),
    "cachesim.stall_cycles": ("count", "lower"),
    "cachesim.window_cycles": ("count", "lower"),
    "vulnmetrics.analyze_s": ("s", "lower"),
    "vulnmetrics.words_per_s": ("1/s", "higher"),
    "inject.build_context_s": ("s", "lower"),
    "inject.baseline_s": ("s", "lower"),
    "inject.baseline_wall_ms": ("ms", "lower"),
    "inject.resolve_per_s": ("1/s", "higher"),
    **{f"inject.run_ms.{s}": ("ms", "lower") for s in STRUCTURES},
    **{f"inject.run_ms.{o}": ("ms", "lower") for o in OUTCOMES},
    **{f"inject.runs.{o}": ("count", "higher" if o == "ACE" else "lower")
       for o in OUTCOMES},
    "inject.plans.fill": ("count", "lower"),
    "inject.plans.silent": ("count", "higher"),
    "inject.plans.writeback": ("count", "higher"),
    "inject.runs.erased": ("count", "higher"),
    "inject.hang_s": ("s", "lower"),
    "faultmodel.check_s": ("s", "lower"),
    "faultmodel.mc_trials_per_s": ("1/s", "higher"),
    "cli.report_s": ("s", "lower"),
    "cli.sim_cache_hit": ("count", "higher"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "tracing.traced_wall_s": ("s", "lower"),
    "tracing.untraced_wall_s": ("s", "lower"),
    "tracing.overhead_s": ("s", "lower"),
    "tracing.spans": ("count", "lower"),
}

#: Counts that must repeat exactly between repetitions and runs.
EXACT = (
    "cg.iterations", "cg.accesses", "trace.bytes", "cachesim.emit_calls",
    "cachesim.fills", "cachesim.writebacks", "cachesim.resolutions",
    "cachesim.stall_cycles", "cachesim.window_cycles", "inject.plans.fill",
    "inject.plans.silent", "inject.plans.writeback", "cli.sim_cache_hit",
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def rep_metrics(spans: list) -> dict:
    """Per-layer figures of one traced repetition."""
    dur = {}
    for s in spans:
        dur[s["id"]] = (s["end_ns"] - s["start_ns"]) / 1e9
    child_time: dict = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + dur[s["id"]]

    def of(name):
        return [s for s in spans if s["name"] == name]

    def total(*names):
        return sum(dur[s["id"]] for n in names for s in of(n))

    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in spans:
        m[f"{s['layer']}.self_s"] += dur[s["id"]] - child_time.get(s["id"], 0.0)

    m["cg.generate_s"] = total("cg.generate_poisson27")
    m["trace.write_s"] = total("trace.TraceWriter.emit", "trace.TraceWriter.close")
    m["trace.bytes"] = max(
        (s["attrs"]["bytes"] for s in of("trace.TraceWriter.close")), default=0)
    m["trace.write_mb_per_s"] = _ratio(m["trace.bytes"] / 1e6, m["trace.write_s"])
    m["trace.read_s"] = total("trace.TraceReader.iter_blocks")

    emits = of("cachesim.CacheSimulator.emit")
    m["cachesim.emit_s"] = total("cachesim.CacheSimulator.emit")
    m["cachesim.emit_calls"] = len(emits)
    m["cachesim.accesses_per_s"] = _ratio(
        sum(s["attrs"]["n"] for s in emits), m["cachesim.emit_s"])
    m["cachesim.finish_s"] = total("cachesim.CacheSimulator.finish")
    m["cachesim.save_s"] = total("cachesim.SimResult.save")
    m["cachesim.load_s"] = total("cachesim.SimResult.load")
    results = [s["attrs"] for s in spans
               if s["name"] in ("cachesim.CacheSimulator.finish",
                                "cachesim.SimResult.load")]
    for key in ("fills", "writebacks", "resolutions", "stall_cycles",
                "window_cycles"):
        m[f"cachesim.{key}"] = results[-1][key] if results else 0

    m["vulnmetrics.analyze_s"] = total("vulnmetrics.analyze")
    m["vulnmetrics.words_per_s"] = _ratio(
        sum(s["attrs"]["words"] for s in of("vulnmetrics.analyze")),
        m["vulnmetrics.analyze_s"])

    m["inject.build_context_s"] = total("inject.build_context")
    m["inject.baseline_s"] = total("inject.measure_baseline")
    baselines = of("inject.measure_baseline")
    m["inject.baseline_wall_ms"] = (
        1e3 * baselines[-1]["attrs"]["wall_time"] if baselines else 0.0)
    resolves = of("inject.resolve_visibility")
    m["inject.resolve_per_s"] = _ratio(
        len(resolves), total("inject.resolve_visibility"))
    runs = of("inject.run_one")
    for key, values in (("structure", STRUCTURES), ("outcome", OUTCOMES)):
        for v in values:
            sel = [dur[s["id"]] for s in runs if s["attrs"][key] == v]
            m[f"inject.run_ms.{v}"] = 1e3 * _ratio(sum(sel), len(sel))
    for o in OUTCOMES:
        m[f"inject.runs.{o}"] = sum(s["attrs"]["outcome"] == o for s in runs)
    for reason in ("fill", "silent", "writeback"):
        m[f"inject.plans.{reason}"] = sum(
            s["attrs"]["reason"] == reason for s in resolves)
    m["inject.runs.erased"] = sum(s["attrs"]["detail"] == "erased" for s in runs)
    m["inject.hang_s"] = sum(dur[s["id"]] for s in runs
                             if s["attrs"]["outcome"] == "hang")

    fm = [s for s in spans if s["layer"] == "faultmodel"]
    m["faultmodel.check_s"] = sum(dur[s["id"]] for s in fm)
    mc = of("faultmodel.monte_carlo_consume")
    m["faultmodel.mc_trials_per_s"] = _ratio(
        sum(s["attrs"]["trials"] for s in mc),
        total("faultmodel.monte_carlo_consume"))

    m["cli.report_s"] = total(
        "cli.build_validation_report", "cli.ValidationReport.write_json",
        "cli.ValidationReport.write_csv", "cli.ValidationReport.write_plot_data")
    sims = {s["id"] for s in of("cli.simulate_problem")}
    m["cli.sim_cache_hit"] = int(any(
        s["parent"] in sims for s in of("cachesim.SimResult.load")))
    m["tracing.spans"] = len(spans)
    return m


def merge(per_rep: list) -> tuple[dict, list]:
    """Median over traced repetitions; exact counts must agree."""
    problems = []
    out = {}
    for key in per_rep[0]:
        vals = [m[key] for m in per_rep]
        if key in EXACT and len(set(vals)) > 1:
            problems.append(f"{key} differs between repetitions: {vals}")
        out[key] = statistics.median(vals)
    return out, problems


class CountingObserver:
    """Observer that only counts the accesses the solver emits."""

    def __init__(self):
        self.accesses = 0

    def register_structures(self, smap):
        pass

    def roi_begin(self):
        pass

    def roi_end(self):
        pass

    def emit(self, kinds, addrs, sids=None, widths=None):
        self.accesses += len(addrs)


def probe_cg(side: int, repeats: int = 5) -> dict:
    """Fault-free solve alone, and with a count-only observer."""
    from memvuln.cli import build_problem
    from memvuln.cg import solve

    A, b, tol = build_problem(side, 1e-8)
    plain, emitting, counts = [], [], set()
    for _ in range(repeats):
        t0 = time.perf_counter()
        rec = solve(A, b, tol=tol)
        plain.append(time.perf_counter() - t0)
        obs = CountingObserver()
        t0 = time.perf_counter()
        solve(A, b, tol=tol, observer=obs)
        emitting.append(time.perf_counter() - t0)
        counts.add((rec.iterations, obs.accesses))
    (iterations, accesses), = counts
    solve_s = statistics.median(plain)
    return {"cg.solve_s": solve_s,
            "cg.emit_s": statistics.median(emitting) - solve_s,
            "cg.iterations": iterations, "cg.accesses": accesses}

