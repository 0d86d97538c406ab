"""Per-word vulnerability metrics over a main-memory request stream.

A 64-bit word's history at the memory level is a sequence of intervals
bounded by the fills and write-backs of its cache line, clipped to the
accounting window [first request, last request].  Each interval is
classified by the event that ends it:

  * ends at a fill       -> vulnerable: the memory copy was live and was
                            brought back into the hierarchy to be used;
  * ends at a write-back -> safe: the memory copy was dead, about to be
                            replaced by fresher data;
  * runs to window end   -> safe: nothing consumed it.

The basic vulnerability factor of a word is vulnerable time over window
duration.  The refined factor additionally discounts fills whose fetched
word was fully overwritten by stores before any load (write-allocate
artifacts: the fetched value was never consumed), using the per-word
resolutions produced by the simulator.

All times are integer cycles and all accumulators are exact; the safe
ratio is one minus the basic factor by construction.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .cachesim import LINE_BITS, LINE_SIZE, REQ_FILL, REQ_WRITEBACK, SimResult
from .trace import StructureMap

#: Default raw fault rate, per 64-bit word and cycle.  The absolute value
#: is a placeholder (rankings are scale-invariant); override it to match
#: a measured device rate.
DEFAULT_FIT_RATE = 1e-9


@dataclass
class WordLedger:
    """Exact per-word accumulators for one structure."""

    name: str
    n_words: int
    vuln_time: np.ndarray  # int64, cycles ending at any fill
    kept_time: np.ndarray  # int64, cycles ending at a consumed fill
    loads: np.ndarray  # int64, fills covering the word
    stores: np.ndarray  # int64, write-backs covering the word

    @property
    def touched_words(self) -> int:
        return int(np.sum((self.loads + self.stores) > 0))

    def mvf_words(self, T: int) -> np.ndarray:
        if T <= 0:
            return np.zeros(self.n_words)
        return self.vuln_time / T

    def fea_words(self, T: int) -> np.ndarray:
        if T <= 0:
            return np.zeros(self.n_words)
        return self.kept_time / T


@dataclass
class StructureReport:
    """One structure's row of the report.  The fields are its columns in
    report order; a field's metadata may name its CSV header (else the
    field's name) and give its CSV format spec."""

    name: str = field(metadata={"header": "structure"})
    n_words: int
    touched_words: int
    loads: int
    stores: int
    ld_ratio: float = field(metadata={"spec": ".6f"})
    mvf: float = field(metadata={"spec": ".6f"})
    fea: float = field(metadata={"spec": ".6f"})
    safe_ratio: float = field(metadata={"spec": ".6f"})
    dvf: float = field(metadata={"spec": ".6e"})


@dataclass
class AnalysisReport:
    T: int
    t_start: int
    t_end: int
    fit_rate: float
    structures: list = field(default_factory=list)

    def by_name(self, name: str) -> StructureReport:
        for rep in self.structures:
            if rep.name == name:
                return rep
        raise KeyError(name)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["# schema", "1"])
            w.writerow(["# window_cycles", str(self.T)])
            w.writerow(["# fit_rate", repr(self.fit_rate)])
            cols = fields(StructureReport)
            w.writerow([f.metadata.get("header", f.name) for f in cols])
            for rep in self.structures:
                w.writerow([format(getattr(rep, f.name), f.metadata.get("spec", ""))
                            for f in cols])

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "window_cycles": self.T,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "fit_rate": self.fit_rate,
            "structures": [asdict(r) for r in self.structures],
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")


def _aligned_fill_stream(result: SimResult):
    """Sorted fills, their leading-interval durations, and resolution masks.

    Returns (line, duration, mask) for every fill, plus the sorted
    write-back lines, with every array ordered by (line, time).  Each
    sorted copy is dropped as soon as it has been used: the request
    stream is the largest thing ``analyze`` holds.
    """
    order = result.by_line()
    lines = result.req_line[order]
    lines >>= LINE_BITS
    times = result.req_time[order]
    kinds = result.req_kind[order]
    del order

    # A request's leading interval runs from the line's previous request,
    # or from the window's start for its first one.
    durations = np.empty_like(times)
    if len(times):
        np.subtract(times[1:], times[:-1], out=durations[1:])
        starts = np.empty(len(lines), dtype=bool)
        starts[0] = True
        np.not_equal(lines[1:], lines[:-1], out=starts[1:])
        durations[starts] = times[starts] - result.t_start

    fill_sel = kinds == REQ_FILL
    line_f = lines[fill_sel]
    time_f = times[fill_sel]
    del times
    dur_f = durations[fill_sel]
    del durations, fill_sel
    line_w = lines[kinds == REQ_WRITEBACK]
    del lines, kinds

    # A line is fetched again only after its previous fill has resolved,
    # so a line's resolutions are appended in fill order (memo replays
    # included), and a stable sort by line alone orders them by (line,
    # fill time).  The check below refuses any stream where that fails.
    res_lines = result.res_line >> LINE_BITS
    r_order = np.argsort(res_lines, kind="stable")
    if not (
        np.array_equal(res_lines[r_order], line_f)
        and np.array_equal(result.res_fill_time[r_order], time_f)
    ):
        raise ValueError("resolution stream does not match the fill stream")
    return line_f, dur_f, result.res_mask[r_order], line_w


def accumulate(result: SimResult, smap: StructureMap) -> dict:
    """Build exact per-word ledgers for every mapped structure.

    Every word of a line shares the line's intervals, so each ledger is
    counted per line and repeated to the line's words; only the kept time
    depends on the word, through its bit of the resolution mask.
    Requests to lines outside every labeled region are ignored (they
    still shape the accounting window).  Raises if any fill lacks a
    matching resolution record.
    """
    line_f, dur_f, mask_f, line_w = _aligned_fill_stream(result)
    per_line = LINE_SIZE // 8
    ledgers = {}
    for reg in smap:
        n_words = reg.length // 8
        lo_line = reg.base >> LINE_BITS
        hi_line = (reg.base + reg.length + LINE_SIZE - 1) >> LINE_BITS
        n_lines = hi_line - lo_line
        f0, f1 = np.searchsorted(line_f, (lo_line, hi_line))
        w0, w1 = np.searchsorted(line_w, (lo_line, hi_line))
        fill, dur, mask = line_f[f0:f1] - lo_line, dur_f[f0:f1], mask_f[f0:f1]
        # Integer weights below 2**53 survive the float64 round trip
        # exactly, so bincount keeps the accumulators exact.
        kept = np.empty((n_lines, per_line))
        for w in range(per_line):
            k = ((mask >> w) & 1) == 0
            kept[:, w] = np.bincount(fill[k], weights=dur[k], minlength=n_lines)
        # The region's first word is word ``first`` of its first line.
        first = (reg.base >> 3) % per_line
        words = slice(first, first + n_words)

        def to_words(line_counts):
            return np.repeat(line_counts, per_line)[words].astype(np.int64)

        ledgers[reg.name] = WordLedger(
            reg.name,
            n_words,
            to_words(np.bincount(fill, weights=dur, minlength=n_lines)),
            kept.ravel()[words].astype(np.int64),
            to_words(np.bincount(fill, minlength=n_lines)),
            to_words(np.bincount(line_w[w0:w1] - lo_line, minlength=n_lines)),
        )
    return ledgers


def structure_report(
    led: WordLedger, T: int, fit_rate: float = DEFAULT_FIT_RATE
) -> StructureReport:
    loads = int(led.loads.sum())
    stores = int(led.stores.sum())
    if T > 0:
        mvf = float(led.vuln_time.sum()) / (T * led.n_words)
        fea = float(led.kept_time.sum()) / (T * led.n_words)
    else:
        mvf = fea = 0.0
    ld_ratio = 1.0 if stores == 0 else loads / (loads + stores)
    dvf = fit_rate * T * led.n_words * (loads + stores)
    return StructureReport(
        name=led.name, n_words=led.n_words, touched_words=led.touched_words,
        loads=loads, stores=stores, ld_ratio=ld_ratio, mvf=mvf, fea=fea,
        safe_ratio=1.0 - mvf, dvf=dvf,
    )


def analyze(
    result: SimResult,
    smap: StructureMap,
    fit_rate: float = DEFAULT_FIT_RATE,
) -> AnalysisReport:
    ledgers = accumulate(result, smap)
    report = AnalysisReport(result.T, result.t_start, result.t_end, fit_rate)
    for reg in smap:
        report.structures.append(
            structure_report(ledgers[reg.name], result.T, fit_rate)
        )
    return report
