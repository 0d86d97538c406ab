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

from .cachesim import LINE_BITS, LINE_SIZE, REQ_FILL, LineEvents
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


def accumulate(events: LineEvents, smap: StructureMap) -> dict:
    """Build exact per-word ledgers for every mapped structure from the
    line index (``SimResult.by_line``).

    Every word of a line shares the line's intervals, so each ledger is
    summed per line and repeated to the line's words; only the kept time
    depends on the word, through its bit of the resolution mask.
    Requests to lines outside every labeled region are ignored (they
    still shape the accounting window).
    """
    # A row's leading interval runs from its line's previous row, or from
    # the window's start for the line's first one; only fills count it.
    time, starts = events.time, events.ptr[:-1]
    dur = np.empty_like(time)
    np.subtract(time[1:], time[:-1], out=dur[1:])
    dur[starts] = time[starts] - events.t_start
    fill = events.kind == REQ_FILL
    dur *= fill
    # Per line: vulnerable time, fills, write-backs, then each word's kept
    # time.
    per_line = LINE_SIZE // 8
    sums = np.empty((3 + per_line, len(starts)), dtype=np.int64)
    sums[0] = np.add.reduceat(dur, starts)
    sums[1] = np.add.reduceat(fill, starts, dtype=np.int64)
    sums[2] = np.diff(events.ptr) - sums[1]
    for w in range(per_line):
        sums[3 + w] = np.add.reduceat(np.where(events.mask & 1 << w, 0, dur), starts)
    del dur, fill  # not held while the ledgers grow
    ledgers = {}
    for reg in smap:
        n_words = reg.length // 8
        lo_line = reg.base >> LINE_BITS
        hi_line = (reg.base + reg.length + LINE_SIZE - 1) >> LINE_BITS
        d0, d1 = np.searchsorted(events.lines, (lo_line, hi_line))
        counts = np.zeros((len(sums), hi_line - lo_line), dtype=np.int64)
        counts[:, events.lines[d0:d1] - lo_line] = sums[:, d0:d1]
        # The region's first word is word ``first`` of its first line.
        first = (reg.base >> 3) % per_line
        words = slice(first, first + n_words)
        vuln, loads, stores = (np.repeat(c, per_line)[words] for c in counts[:3])
        kept = counts[3:].T.ravel()[words]
        ledgers[reg.name] = WordLedger(reg.name, n_words, vuln, kept, loads, stores)
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
    events: LineEvents,
    smap: StructureMap,
    fit_rate: float = DEFAULT_FIT_RATE,
) -> AnalysisReport:
    ledgers = accumulate(events, smap)
    T = events.T
    structures = [structure_report(ledgers[reg.name], T, fit_rate) for reg in smap]
    return AnalysisReport(T, events.t_start, events.t_start + T, fit_rate, structures)
