"""Command-line front end tying the analysis stages together.

Subcommands:

* ``trace`` — run the solver once and record its memory access trace.
* ``metrics`` — replay a trace through the cache hierarchy and report
  per-structure vulnerability metrics.
* ``inject campaign`` — run a bit-flip campaign against one structure.
* ``faultmodel check`` — compare the analytic consume-probability
  estimates against a Monte-Carlo sampler for a given timeline.
* ``pipeline`` — the full validation loop: simulate, compute metrics,
  run one campaign per structure, and join everything into a validation
  report with rank correlations and bound checks.

The pipeline exits 0 only when every stage completed and no structure's
measured un-ACE probability undercuts its metric bounds; that makes the
toolkit's central claim (the metrics upper-bound the measured failure
probability) directly scriptable.

Every output and check of the validation report takes its columns from
``REPORT_COLUMNS``.  ``_check_flags`` refuses, before any work or file,
a negative run count or ``--seed``, a ``--parallel`` below 1, a ``--side``
below 2 or past ``cg.MAX_ROWS`` rows, a ``--tol-factor`` that is not
finite and positive, an unknown ``--structure`` and a negative or
non-finite ``--fit-rate``.

Scratch artifacts (cached simulations, campaign logs) live under the
directory named by ``--scratch`` or ``MEMVULN_SCRATCH``, each named after
the simulation it holds or reads; logs are append-only and resumable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
import tempfile
import time as _time
from dataclasses import astuple, dataclass, fields

import numpy as np

from .cachesim import LINE_SIZE, CacheConfig, CacheSimulator, SimResult
from .cg import (
    MAX_ROWS, default_structure_map, default_tol, generate_poisson27, solve, spmv,
)
from .faultmodel import (
    AccessTimeline,
    FaultModelParams,
    monte_carlo_consume,
    p_consume_exact,
    p_consume_linear,
    p_consume_product,
)
from .inject import (
    PAD_STRUCTURE,
    CampaignResult,
    build_context,
    run_campaign,
)
from .stats import pearson, spearman
from .trace import TRACKED_STRUCTURES, TraceReader, TraceWriter
from .vulnmetrics import StructureReport, analyze

log = logging.getLogger(__name__)

SCRATCH_ENV = "MEMVULN_SCRATCH"

GNUPLOT_SCRIPT = """\
# Render the validation figure emitted by `memvuln pipeline`.
# Usage: gnuplot -e "datafile='figure.dat'" figure.gp
# Bars: measured un-ACE probability with its 99% confidence interval.
# Lines: the vulnerability metrics, each in [0, 1] (dvf is rescaled by
# its maximum, since it is unbounded).
if (!exists("datafile")) datafile = 'figure.dat'
set terminal pngcairo size 900,540
set output 'figure.png'
set style fill solid 0.35 border -1
set boxwidth 0.55
set yrange [0:1.05]
set ylabel 'probability / metric value'
set xlabel 'structure (sorted by measured un-ACE probability)'
set key outside top center horizontal
plot datafile using 1:3:xtic(2) with boxes title 'p(un-ACE)', \\
     datafile using 1:3:4:5 with yerrorbars notitle lc rgb 'black' pt 0, \\
     datafile using 1:6 with linespoints title 'MVF', \\
     datafile using 1:7 with linespoints title 'FEA', \\
     datafile using 1:8 with linespoints title 'LD/(LD+ST)', \\
     datafile using 1:9 with linespoints title 'DVF (rescaled)'
"""


def default_scratch() -> str:
    env = os.environ.get(SCRATCH_ENV)
    if env:
        return env
    return os.path.join(tempfile.gettempdir(), "memvuln-scratch")


def _ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


class StageError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage


# ---------------------------------------------------------------------------
# Shared plumbing


def build_problem(side: int, tol_factor: float):
    A = generate_poisson27(side)
    b = np.zeros(A.n_rows)
    spmv(A, np.ones(A.n_rows), out=b)
    tol = default_tol(b, factor=tol_factor)
    return A, b, tol


def _problem_config(args) -> CacheConfig:
    """The ``--config`` file, or the hierarchy scaled to ``--side``."""
    if args.config:
        return CacheConfig.load(args.config)
    return CacheConfig.desk_scaled(args.side)


def _memo_summary(sim: CacheSimulator) -> str:
    n, k = sim.blocks_simulated, sim.blocks_replayed
    return (f"simulated {n} of {n + k} blocks, replayed {k} "
            f"({sim.blocks_swapped} under the d/dp swap), "
            f"resumed {sim.blocks_resumed} mid-block")


def replay_trace(path: str, cfg: CacheConfig):
    """Feed a recorded trace through the hierarchy; returns (result, smap).

    The memo summary goes to stderr, so output files stay unchanged."""
    sim = CacheSimulator(cfg)
    with TraceReader(path) as rd:
        sim.register_structures(rd.structures)
        for block in rd.iter_blocks():
            sim.emit(block["kind"], block["addr"])
        result = sim.finish()
    print(_memo_summary(sim), file=sys.stderr)
    return result, rd.structures


def _config_digest(cfg: CacheConfig) -> str:
    raw = json.dumps(
        {name: astuple(lv) for name, lv in cfg.levels()}
        | {"line": LINE_SIZE, "mem": cfg.memory_latency},
        sort_keys=True,
    )
    return hashlib.sha256(raw.encode()).hexdigest()[:12]


def _simulation_key(side: int, tol_factor: float, cfg: CacheConfig) -> str:
    """What a simulation depends on; it names its cache file and logs."""
    return f"side{side}-tf{tol_factor:.3e}-{_config_digest(cfg)}"


def _campaign_log(scratch: str, args, cfg, structure: str, seed: int) -> str:
    """A campaign's default log, named after the simulation it reads."""
    key = _simulation_key(args.side, args.tol_factor, cfg)
    return os.path.join(scratch, f"campaign-{key}-{structure}-seed{seed}.csv")


def simulate_problem(
    side: int,
    tol_factor: float,
    cfg: CacheConfig,
    scratch: str,
    progress=None,
):
    """Solve once under the cache model, caching the result in scratch.

    The cache key covers everything the simulation depends on, so a hit
    is byte-identical to a fresh run.
    """
    A, b, tol = build_problem(side, tol_factor)
    key = _simulation_key(side, tol_factor, cfg)
    cache_path = os.path.join(_ensure_dir(scratch), f"sim-{key}.npz")
    if os.path.exists(cache_path):
        try:
            return A, b, tol, SimResult.load(cache_path)
        except Exception as exc:
            log.warning("ignoring unreadable cache %s: %s", cache_path, exc)
    if progress:
        progress(f"simulating side={side} (no cached run)")
    sim = CacheSimulator(cfg)
    rec = solve(A, b, tol=tol, observer=sim)
    if not (rec.converged and rec.verified):
        raise RuntimeError("reference solve did not converge and verify")
    result = sim.finish()
    if progress:
        progress(_memo_summary(sim))
    # Write-then-rename so an interrupted run never leaves a bad cache.
    tmp = cache_path + ".tmp"
    result.save(tmp)
    os.replace(tmp, cache_path)
    return A, b, tol, result


# ---------------------------------------------------------------------------
# Validation report


@dataclass
class StructureValidation:
    """One structure's metric row and its campaign (None if none ran)."""

    metrics: StructureReport
    campaign: CampaignResult | None = None

    @property
    def name(self) -> str:
        return self.metrics.name


@dataclass(frozen=True)
class Column:
    """One column of the validation report and its name in each output:
    its report.json key, its report.csv header and format spec, its
    figure.dat header (where every number is .6f), and the terminal
    summary's template with the spec of the value that fills it.  None
    leaves the column out of that output.  A campaign column of a structure
    no campaign ran on reads None: null, empty, 0 and "-" in the four.
    """

    value: object  # StructureValidation -> the column's value
    json: str | None = None
    csv: tuple | None = None
    plot: str | None = None
    show: tuple | None = None
    rescale: bool = False  # figure.dat divides it by its maximum
    rank: bool = False  # correlated against p_unace
    bound: bool = False  # must not fall below p_unace's 99% CI

    def text(self, row, output: str, absent: str) -> str:
        value = self.value(row)
        return absent if value is None else format(value, getattr(self, output)[1])


_METRIC_FIELDS = {f.name: f.metadata for f in fields(StructureReport)}


def _metric(attr: str, key: str | None = None, **outputs) -> Column:
    """A metric report column under ``key`` (default: its field name), with
    the metric report's own CSV header and format."""
    key, meta = key or attr, _METRIC_FIELDS[attr]
    return Column(lambda r: getattr(r.metrics, attr), key,
                  (meta.get("header", key), meta.get("spec", "")), **outputs)


def _campaign(get):
    return lambda r: None if r.campaign is None else get(r.campaign)


#: The validation report's columns, in the order every output writes them.
REPORT_COLUMNS = (
    _metric("name", plot="structure", show=("{:<4}", "")),
    Column(lambda r: 0 if r.campaign is None else r.campaign.n_runs, "n_runs",
           ("n_runs", "")),
    Column(_campaign(lambda c: c.p_unace), "p_unace", ("p_unace", ".6f"),
           "p_unace", ("p_unace={:<8}", ".4f")),
    Column(_campaign(lambda c: list(c.ci99)), "ci99"),
    Column(_campaign(lambda c: c.ci99[0]), None, ("ci_low", ".6f"), "ci_low"),
    Column(_campaign(lambda c: c.ci99[1]), None, ("ci_high", ".6f"), "ci_high"),
    _metric("mvf", plot="mvf", show=("mvf={}", ".4f"), rank=True, bound=True),
    _metric("fea", plot="fea", show=("fea={}", ".4f"), rank=True, bound=True),
    _metric("safe_ratio"),
    _metric("ld_ratio", "ld_st_normalized", plot="ld_norm",
            show=("ld={}", ".4f"), rank=True),
    _metric("dvf", plot="dvf_rescaled", show=("dvf={}", ".3e"), rescale=True,
            rank=True),
    Column(lambda r: dict(r.campaign.tally if r.campaign else {}), "tally"),
)


@dataclass
class ValidationReport:
    side: int
    tol_factor: float
    seed: int
    runs_per_structure: int
    T: int
    baseline_iterations: int | None
    rows: list  # sorted by increasing p_unace when campaigns ran
    correlations: dict
    bound_violations: list

    @property
    def ok(self) -> bool:
        return not self.bound_violations

    def to_dict(self) -> dict:
        cols = [c for c in REPORT_COLUMNS if c.json]
        return {
            "schema": 1,
            "side": self.side,
            "tol_factor": self.tol_factor,
            "seed": self.seed,
            "runs_per_structure": self.runs_per_structure,
            "window_cycles": self.T,
            "baseline_iterations": self.baseline_iterations,
            "structures": [{c.json: c.value(r) for c in cols} for r in self.rows],
            "correlations": self.correlations,
            "bound_violations": list(self.bound_violations),
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")

    def write_csv(self, path: str) -> None:
        import csv as _csv

        cols = [c for c in REPORT_COLUMNS if c.csv]
        with open(path, "w", newline="") as fh:
            w = _csv.writer(fh)
            w.writerow(["# schema", "1"])
            w.writerow(["# side", str(self.side)])
            w.writerow(["# seed", str(self.seed)])
            w.writerow(["# window_cycles", str(self.T)])
            w.writerow([c.csv[0] for c in cols])
            for r in self.rows:
                w.writerow([c.text(r, "csv", "") for c in cols])

    def write_plot_data(self, path: str) -> None:
        """Bar+line figure data: measured probability vs. the metrics."""
        cols = [c for c in REPORT_COLUMNS if c.plot]
        scale = {c.plot: max((c.value(r) for r in self.rows), default=0.0)
                 or 1.0 for c in cols if c.rescale}
        with open(path, "w") as fh:
            fh.write("# memvuln figure data v1\n")
            fh.write(" ".join(["# index"] + [c.plot for c in cols]) + "\n")
            for i, r in enumerate(self.rows):
                cells = [str(i)]
                for c in cols:
                    v = c.value(r)
                    cells.append(v if isinstance(v, str) else
                                 f"{(v or 0.0) / scale.get(c.plot, 1.0):.6f}")
                fh.write(" ".join(cells) + "\n")

    def summary(self) -> list:
        """The terminal summary: a line per structure, the Spearman
        coefficients and any bound violations."""
        cols = [c for c in REPORT_COLUMNS if c.show]
        lines = [" ".join(c.show[0].format(c.text(r, "show", "-")) for c in cols)
                 for r in self.rows]
        if self.correlations:
            sp = self.correlations["spearman"]
            lines.append("spearman vs p_unace: "
                         + "  ".join(f"{k}={v:+.3f}" for k, v in sp.items()))
        if self.bound_violations:
            lines += ["bound violations:"] + [f"  {v}" for v in self.bound_violations]
        return lines


def build_validation_report(
    analysis,
    campaigns: dict,
    *,
    side: int,
    tol_factor: float,
    seed: int,
    runs: int,
    baseline_iterations: int | None,
) -> ValidationReport:
    """Join metric rows with campaign estimates and rank the metrics.

    ``campaigns`` must cover every structure of ``analysis`` or none.
    """
    rows = [StructureValidation(rep, campaigns.get(rep.name))
            for rep in analysis.structures]
    missing = [r.name for r in rows if r.campaign is None]
    have_campaigns = len(missing) < len(rows)
    if have_campaigns and missing:
        raise ValueError(f"no campaign for structures {', '.join(missing)}")
    if have_campaigns:
        rows.sort(key=lambda r: (r.campaign.p_unace, r.name))

    correlations: dict = {}
    if have_campaigns and len(rows) > 2:
        p = np.array([r.campaign.p_unace for r in rows])
        correlations = {"spearman": {}, "pearson": {}}
        for c in REPORT_COLUMNS:
            if c.rank:
                vals = np.array([c.value(r) for r in rows])
                correlations["spearman"][c.json] = spearman(vals, p)
                correlations["pearson"][c.json] = pearson(vals, p)

    violations = [
        f"{r.name}: {c.json}={c.value(r):.6f} below p_unace 99% CI lower "
        f"bound {r.campaign.ci99[0]:.6f}"
        for r in rows if r.campaign is not None
        for c in REPORT_COLUMNS if c.bound and c.value(r) < r.campaign.ci99[0]
    ]
    return ValidationReport(
        side=side,
        tol_factor=tol_factor,
        seed=seed,
        runs_per_structure=runs,
        T=analysis.T,
        baseline_iterations=baseline_iterations,
        rows=rows,
        correlations=correlations,
        bound_violations=violations,
    )


# ---------------------------------------------------------------------------
# Subcommands


def cmd_trace(args) -> int:
    A, b, tol = build_problem(args.side, args.tol_factor)
    writer = TraceWriter(args.out)
    rec = solve(A, b, tol=tol, observer=writer)
    writer.close()
    print(
        f"wrote {args.out}: side={args.side} iterations={rec.iterations} "
        f"converged={rec.converged}"
    )
    return 0


def cmd_metrics(args) -> int:
    cfg = CacheConfig.load(args.config) if args.config else CacheConfig()
    result, smap = replay_trace(args.trace, cfg)
    report = analyze(result.by_line(), smap, fit_rate=args.fit_rate)
    report.write_csv(args.csv)
    if args.json:
        report.write_json(args.json)
    return 0


def _check_flags(args) -> None:
    """Refuse, before any work or file, the flag values that the module
    docstring lists."""
    runs_flag = "--runs-per-structure" if args.command == "pipeline" else "--runs"
    for flag, attr, low in ((runs_flag, "runs", 0), ("--parallel", "parallel", 1),
                            ("--seed", "seed", 0), ("--side", "side", 2)):
        value = getattr(args, attr, low)
        if value < low:
            raise ValueError(f"{flag} must be at least {low}, got {value}")
    if getattr(args, "side", 2) ** 3 > MAX_ROWS:
        raise ValueError(f"--side {args.side} gives {args.side**3} rows, over {MAX_ROWS}")
    tol_factor = getattr(args, "tol_factor", 1.0)
    if not 0.0 < tol_factor < math.inf:
        raise ValueError(f"--tol-factor must be finite and positive, got {tol_factor}")
    structure = getattr(args, "structure", PAD_STRUCTURE)
    if structure not in (*TRACKED_STRUCTURES, PAD_STRUCTURE):
        raise ValueError(f"unknown structure: {structure}")
    if not 0.0 <= getattr(args, "fit_rate", 0.0) < math.inf:
        raise ValueError("fit rate must be finite and non-negative")


def cmd_inject(args) -> int:
    cfg = _problem_config(args)
    scratch = _ensure_dir(args.scratch)
    A, b, tol, result = simulate_problem(
        args.side, args.tol_factor, cfg, scratch,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    events = result.by_line()
    del result  # the campaign holds only the index
    ctx = build_context(A, b, tol, events)
    log_path = _campaign_log(scratch, args, cfg, args.structure, args.seed)
    res = run_campaign(
        ctx,
        args.structure,
        args.runs,
        args.seed,
        log_path=log_path,
        parallel=args.parallel,
    )
    print(json.dumps(res.to_dict() | {"log": log_path}, indent=1))
    return 0


def cmd_faultmodel(args) -> int:
    params = FaultModelParams(rate=args.rate, T=args.window)
    params.validate()
    timeline = AccessTimeline.load(args.timeline)
    exact = p_consume_exact(params, timeline)
    linear = p_consume_linear(params, timeline)
    product = p_consume_product(params, timeline)
    est = monte_carlo_consume(
        params, timeline, trials=args.trials, seed=args.seed
    )
    doc = {
        "rate": params.rate,
        "window": params.T,
        "expected_faults": params.expected_faults,
        "rare_regime": params.is_rare,
        "accesses": len(timeline),
        "vulnerable_time": timeline.vulnerable_time(),
        "exact_sum": exact,
        "linear": linear,
        "poisson_product": product,
        "monte_carlo": {
            "frequency": est.frequency,
            "ci99": [est.ci_low, est.ci_high],
            "trials": est.trials,
            "consumed": est.consumed,
        },
    }
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    print(f"{'estimate':<18} {'value':>14}")
    print(f"{'exact-sum':<18} {exact:>14.8f}")
    print(f"{'linear':<18} {linear:>14.8f}")
    print(f"{'poisson-product':<18} {product:>14.8f}")
    print(
        f"{'monte-carlo':<18} {est.frequency:>14.8f}  "
        f"[{est.ci_low:.8f}, {est.ci_high:.8f}] @ {est.trials} trials"
    )
    if not params.is_rare:
        print(
            "note: expected faults per window exceed the rare-fault "
            "threshold; the linear estimate is not trustworthy"
        )
    return 0


def cmd_pipeline(args) -> int:
    out_dir = _ensure_dir(args.out)
    scratch = _ensure_dir(args.scratch)
    t0 = _time.perf_counter()

    def note(msg: str) -> None:
        print(f"[{_time.perf_counter() - t0:8.1f}s] {msg}", file=sys.stderr)

    try:
        cfg = _problem_config(args)
    except Exception as exc:
        raise StageError("configuration", exc) from exc

    try:
        A, b, tol, result = simulate_problem(
            args.side, args.tol_factor, cfg, scratch, progress=note
        )
    except Exception as exc:
        raise StageError("simulation", exc) from exc

    try:
        events = result.by_line()
        del result  # the campaigns hold only the index
        analysis = analyze(events, default_structure_map(A))
    except Exception as exc:
        raise StageError("metrics", exc) from exc
    note(f"metrics ready: T={analysis.T} cycles")

    campaigns: dict = {}
    baseline_iterations = None
    if args.runs > 0:
        try:
            ctx = build_context(A, b, tol, events)
            baseline_iterations = ctx.baseline.iterations
            names = [r.name for r in analysis.structures]
            for i, name in enumerate(names):
                campaigns[name] = run_campaign(
                    ctx,
                    name,
                    args.runs,
                    args.seed + i,
                    log_path=_campaign_log(scratch, args, cfg, name, args.seed + i),
                    parallel=args.parallel,
                )
                note(
                    f"campaign {name}: p_unace="
                    f"{campaigns[name].p_unace:.4f} over {args.runs} runs"
                )
        except Exception as exc:
            raise StageError("campaign", exc) from exc

    try:
        report = build_validation_report(
            analysis,
            campaigns,
            side=args.side,
            tol_factor=args.tol_factor,
            seed=args.seed,
            runs=args.runs,
            baseline_iterations=baseline_iterations,
        )
        report.write_json(os.path.join(out_dir, "report.json"))
        report.write_csv(os.path.join(out_dir, "report.csv"))
        report.write_plot_data(os.path.join(out_dir, "figure.dat"))
        with open(os.path.join(out_dir, "figure.gp"), "w") as fh:
            fh.write(GNUPLOT_SCRIPT)
    except Exception as exc:
        raise StageError("report", exc) from exc

    for line in report.summary():
        print(line)
    if report.bound_violations:
        return 1
    print(f"report written to {out_dir}; no bound violations")
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="memvuln",
        description=(
            "Trace-driven memory vulnerability analysis for an iterative "
            "sparse solver."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_problem_flags(sp, with_config=True):
        sp.add_argument("--side", type=int, default=32,
                        help="grid side length of the generated problem")
        sp.add_argument("--tol-factor", type=float, default=1e-8,
                        help="convergence tolerance factor")
        if with_config:
            sp.add_argument("--config", default=None,
                            help="cache configuration file (default: "
                            "CacheConfig.desk_scaled(side))")

    tp = sub.add_parser("trace", help="record a solver access trace")
    add_problem_flags(tp, with_config=False)
    tp.add_argument("--out", required=True, help="trace file to write")
    tp.set_defaults(func=cmd_trace)

    mp = sub.add_parser(
        "metrics", help="vulnerability metrics for a recorded trace"
    )
    mp.add_argument("--trace", required=True, help="trace file to replay")
    mp.add_argument(
        "--config", default=None,
        help="cache configuration file (default: the full-size reference "
        "hierarchy; pipeline and inject default to one scaled to the "
        "problem, CacheConfig.desk_scaled(side))",
    )
    mp.add_argument("--fit-rate", type=float, default=1e-9,
                    help="per-bit fault rate used by the dvf column")
    mp.add_argument("--csv", default="/dev/stdout",
                    help="CSV output path (default: standard output)")
    mp.add_argument("--json", default=None, help="also write a JSON report")
    mp.set_defaults(func=cmd_metrics)

    ip = sub.add_parser("inject", help="bit-flip injection campaigns")
    isub = ip.add_subparsers(dest="action", required=True)
    ic = isub.add_parser("campaign", help="run or resume one campaign")
    add_problem_flags(ic)
    ic.add_argument("--structure", required=True,
                    help=f"structure name (or '{PAD_STRUCTURE}')")
    ic.add_argument("--runs", type=int, default=1000)
    ic.add_argument("--seed", type=int, default=0)
    ic.add_argument("--parallel", type=int, default=1)
    ic.add_argument("--scratch", default=default_scratch(),
                    help=f"scratch directory (or ${SCRATCH_ENV})")
    ic.set_defaults(func=cmd_inject)

    fp = sub.add_parser("faultmodel", help="analytic fault-model checks")
    fsub = fp.add_subparsers(dest="action", required=True)
    fc = fsub.add_parser("check", help="compare the consume estimators")
    fc.add_argument("--lambda", dest="rate", type=float, required=True,
                    help="fault rate per cycle")
    fc.add_argument("--window", type=float, required=True,
                    help="observation window length in cycles")
    fc.add_argument("--timeline", required=True,
                    help="JSON access timeline file")
    fc.add_argument("--trials", type=int, default=100_000)
    fc.add_argument("--seed", type=int, default=0)
    fc.add_argument("--json", default=None, help="machine-readable output")
    fc.set_defaults(func=cmd_faultmodel)

    pp = sub.add_parser(
        "pipeline", help="simulate, measure, campaign, and validate"
    )
    add_problem_flags(pp)
    pp.add_argument("--runs-per-structure", dest="runs", type=int, default=1000,
                    help="injections per structure (0: metrics only)")
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--parallel", type=int, default=1)
    pp.add_argument("--out", default="memvuln-report",
                    help="output directory for the report files")
    pp.add_argument("--scratch", default=default_scratch(),
                    help=f"scratch directory (or ${SCRATCH_ENV})")
    pp.set_defaults(func=cmd_pipeline)

    return p


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
