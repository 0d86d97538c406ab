"""Trace-driven three-level write-back, write-allocate cache hierarchy.

The simulator is an observer of the solver's access stream: each access
is a kind (load or store; any other is refused) and the 8-byte-aligned
address of the 64-bit word it touches.
It produces the main-memory request stream — fills and write-backs with
simulated timestamps, in time order — plus one resolution per fill
recording, per word of the fetched line, whether the word was consumed
or overwritten before any load (bit w of ``res_mask`` set means word w
was overwritten).  The
first access to a word after its fill resolves it: a load consumes it, a
store overwrites it.  A word still unaccessed when its line leaves the
hierarchy (or at the end) counts as consumed, conservatively.

Timing model (deliberately simple, fixed-latency):
  * the core issues one access per cycle; an access that needs a
    main-memory fill holds an MSHR at every level until the fill
    completes, stalling the clock to the earliest in-flight completion
    while a level has none free.  The level with the fewest MSHRs thus
    bounds the fills in flight, and one heap of their completion times
    stands for all three;
  * a fill request reaches memory after the summed hit latencies of the
    three levels and completes one memory latency later;
  * a victim's write-back is stamped with the clock plus the summed hit
    latencies: for a miss, the triggering fill's request time; for an L2
    or L3 hit, which has no fill, the time that fill would have had;
  * bandwidth is not modeled (every request has the same latency).

Levels are non-inclusive: fills allocate in all three levels, evictions
are independent, and hits in a lower level promote a clean copy upward
without consuming MSHRs.  Dirty evictions percolate toward memory through
the next level that still holds the line.

Exact steady-state fast-forward.  An iterative solver emits the same
blocks again and again, and once the caches reach their steady state the
simulator enters each repeated block in the same state, only later in
time.  ``emit`` therefore memoizes whole blocks, in the manner of
SimPoint's phase fast-forwarding (Sherwood et al., ASPLOS 2002) but
without sampling: the key is (canonical state, block contents), and a
hit re-appends, shifted, the rows the recorded block wrote instead of
simulating the block.  A block is looked up by its digest: its length
and the CRC-32 of its kinds and of its addresses.

A set's dict keeps its lines in LRU order, least recent first (a hit
moves the line to the end), each as the int ``ready << 1 | dirty``.  LRU
is a stack algorithm (Mattson et al., 1970): that order is all the
replacement state a set has.  The canonical state holds, with every time
taken relative to the clock:
  * for every level and set, in LRU order, each line with its dirty bit
    and ready time;
  * the live MSHR heap entries, sorted;
  * every pending resolution (``_track`` entry) with its resolved and
    overwritten words; its fill time only reaches ``res_fill_time`` rows.
Two states that agree on it behave identically from then on: the clock
only moves forward and every comparison the core loop makes is between
times or against the clock.  A ready time at or below the clock can
never again read as in-flight, so it is clamped to "ready"; a heap entry
at or below the clock is popped before any MSHR count is taken, so it is
dropped.  Nothing else in the state is observable.

A snapshot rebuilds the form of only the sets that may have changed
since the last one: those a simulated block accessed, those a dirty
eviction marked below, and those in flight.  An unchanged form keeps its
object, so comparing two snapshots is mostly identity checks.

A hit is confirmed by comparing the full state and the block's kinds
and addresses, never by a digest alone, so a collision can only cost a
simulation.  A recording is the span of
rows the block appended to each output stream (the streams only grow
until ``finish``, so a span stays valid) and the forms of the sets it
changed.  A hit appends those rows again, shifted as ``STREAMS`` says by
the change of clock (times) or of access count (ordinals), gives the
resolutions of fills pending at its start their live fill times, adds
the recorded stall cycles, and installs the changed sets' forms at the
new clock.  A changed set's form is already the one a snapshot compares,
so its dict is rebuilt from the form only when a block is next
simulated, at ``finish``, or when a snapshot finds the set in flight and
must read its ready times against the clock.  Blocks are recorded, and
the state snapshotted at their start, only once the stream has repeated
a block's digest: a stream that never repeats pays only the digest, and
one snapshot per stride inside blocks at least two strides long
(below).  A solver's stream (or its trace, read in the blocks it was
written in) is recorded from its second iteration on, so the first
state that recurs is already in the memo.  A block recorded
``MEMO_MISSES`` times in a row without a replay (a resume counts as
one) is simulated directly from then on, without snapshots, and its
recordings are freed: where the state never settles, the memo holds at
most that many recordings per distinct block and stops taking
snapshots.

Resume points.  The argument above holds at any access boundary, not
only at a block's start: two runs in equal canonical states, fed the
same remaining accesses, write the same rows, shifted, and end in the
same state.  So a block being simulated also takes a snapshot every
stride accesses, at each offset that leaves at least a stride to run.
The stride is the least whole number of slices (``SLICE``) that covers
16 accesses per line the three levels hold, so a snapshot costs little
next to what it may skip; under the full-size hierarchy no block of a
side-16 or side-32 solve is long enough for one.  A point looks up
(digest, offset) as a block's start looks up (digest, 0), σ included
(below).  A hit replays the recording's suffix and ends the block
(``blocks_resumed``); a solver's first sweeps stream the cold lines out
of the caches and then meet the state of the sweep before them, the
warm-up that sampled simulators exploit (Haskins and Skadron, ISPASS
2003), here used exactly.  A miss stores the point, and when the block
ends each stored point, its start included, becomes a recording from
there to the end: the rows appended since, the resolutions of fills
requested before it, the sets that a later snapshot or the replayed
suffix found changed, with their end forms, and the end heap and
``_track``.  A snapshot reports changes since the one before, so the
union over the later ones is what a replay must install.  Points are
taken before the stream repeats too, since a solver's second iteration
resumes from its first; until it repeats, only the last ``MEMO_MISSES``
blocks long enough keep their points and a copy of their content, so a
resume is confirmed against the whole block as a replay is.

The d/dp swap.  The solver's two direction buffers ``d`` and ``dp``
trade roles every iteration, so a block's content comes back only every
second iteration; in between comes the same block with the two swapped.
Let σ map each line of ``d`` to the line of ``dp`` at the same offset,
``delta`` lines on, and back, and every other line to itself.  Every
decision the simulator makes about a line (``_run``, ``_writeback``,
``_finalize``, ``_ready_victim``) asks only whether it equals another
line and which set it falls in at each level, and renaming keys keeps a
dict's order.  So a bijection of lines that keeps every line's set at
every level commutes with the simulation: block σ(B) from state σ(S)
writes σ of the rows B writes from S and ends in σ of B's end state.  σ
keeps every set when ``delta`` is a multiple of each level's set count;
``register_structures`` takes σ from the structure map only then, and
only for buffers of equal length whose line ranges do not overlap.  When
the plain lookup misses, the memo looks up σ(block) (its digest is kept
once its content has been compared in full) in state σ(state), again
compared in full.  A hit replays that recording through σ: the line
streams (``STREAMS``), the lines of fills pending at the start, the
``_track`` lines and the installed set forms.  A resume under σ is
the same argument applied to a suffix: σ(state) at the point, σ of the
remaining accesses.  ``finish`` sorts lines, so it never runs under σ.
"""

from __future__ import annotations

import heapq
import zlib
from array import array
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from .trace import SWAPPED_BUFFERS, check_kinds

REQ_FILL = 0
REQ_WRITEBACK = 1

CAUSE_NONE = 0
CAUSE_LOAD_MISS = 1
CAUSE_STORE_MISS = 2

#: Recordings in a row without a replay after which the memo gives a
#: block up (see the module docstring).  A solver's stream under
#: ``desk_scaled`` needs at most three before its first replay.
MEMO_MISSES = 4

#: Accesses the core loop converts to Python ints at a time; resume
#: points fall on slice boundaries.
SLICE = 1 << 14

#: log2 of the cache line size in bytes, the one place it is stated.
LINE_BITS = 6
LINE_SIZE = 1 << LINE_BITS
_ALL_WORDS = (1 << LINE_SIZE // 8) - 1  # per-line mask of its 8-byte words

#: The simulator's output streams, in ``SimResult`` field order: each
#: field's ``array`` typecode (also its numpy dtype) and what a replayed
#: block shifts it by: the clock, the access ordinal, or nothing; a
#: ``line`` stream holds line addresses, which a replay under the swap
#: maps through it.  The ``req_`` streams hold one row per request, the
#: ``res_`` ones one per resolution.
STREAMS = (
    ("req_time", "q", "clock"),
    ("req_kind", "B", None),
    ("req_line", "q", "line"),
    ("req_cause", "B", None),
    ("req_ord", "q", "ordinal"),  # the program access that triggered it
    ("res_line", "q", "line"),
    ("res_fill_time", "q", "clock"),
    ("res_mask", "H", None),
    ("res_time", "q", "clock"),
)


@dataclass
class LevelConfig:
    assoc: int
    size: int
    latency: int
    mshrs: int

    def n_sets(self) -> int:
        return self.size // (self.assoc * LINE_SIZE)


@dataclass
class CacheConfig:
    """Hierarchy parameters; defaults mirror the reference configuration."""

    l1: LevelConfig = field(
        default_factory=lambda: LevelConfig(8, 32 * 1024, 4, 32)
    )
    l2: LevelConfig = field(
        default_factory=lambda: LevelConfig(8, 256 * 1024, 12, 32)
    )
    l3: LevelConfig = field(
        default_factory=lambda: LevelConfig(16, 20 * 1024 * 1024, 28, 128)
    )
    memory_latency: int = 155

    def levels(self) -> tuple:
        """(name, level) pairs in hierarchy order, as config files name them."""
        return (("l1", self.l1), ("l2", self.l2), ("l3", self.l3))

    def validate(self) -> None:
        for name, lv in self.levels():
            for f in fields(LevelConfig):
                least = 0 if f.name == "latency" else 1
                if getattr(lv, f.name) < least:
                    raise ValueError(
                        f"{name}.{f.name} is {getattr(lv, f.name)}, below {least}")
            if lv.size % (lv.assoc * LINE_SIZE):
                raise ValueError(f"{name}.size is not a multiple of assoc * line size")
        if self.memory_latency < 0:
            raise ValueError(f"memory.latency is {self.memory_latency}, below 0")

    @classmethod
    def desk_scaled(cls, side: int) -> "CacheConfig":
        """Shrink the last level so a side**3 problem streams through it.

        The reference configuration targets problems whose matrix stream
        oversubscribes the last level cache many times over while a
        handful of vectors compete for the remaining capacity.  At small
        problem sizes the whole working set would fit, collapsing every
        DRAM-level metric to zero.  Scaling the last level to roughly two
        vector footprints (and the mid level to half of that) restores
        the reference behavior: vector data written in one phase is
        flushed out early in the next streaming phase and re-fetched when
        used again.
        """
        cfg = cls()
        vector_bytes = (side**3) * 8
        l3_size = 1 << max(17, (2 * vector_bytes - 1).bit_length())
        l3_size = min(l3_size, cfg.l3.size)
        l2_size = min(cfg.l2.size, l3_size // 2)
        l1_size = min(cfg.l1.size, l2_size // 2)
        cfg.l1 = replace(cfg.l1, size=l1_size)
        cfg.l2 = replace(cfg.l2, size=l2_size)
        cfg.l3 = replace(cfg.l3, size=l3_size)
        cfg.validate()
        return cfg

    def save(self, path) -> None:
        lines = ["# cache configuration v1"]
        for name, lv in self.levels():
            lines += [
                f"{name}.{f.name} = {getattr(lv, f.name)}"
                for f in fields(LevelConfig)
            ]
        lines.append(f"memory.latency = {self.memory_latency}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "CacheConfig":
        kv = {}
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, _, val = line.partition("=")
                kv[key.strip()] = val.strip()

        def num(key: str) -> int:
            if key not in kv:
                raise ValueError(f"{path}: no value for {key}")
            try:
                return int(kv[key])
            except ValueError:
                raise ValueError(
                    f"{path}: {key} = {kv[key]!r} is not an integer") from None

        def lvl(name: str) -> LevelConfig:
            return LevelConfig(
                *(num(f"{name}.{f.name}") for f in fields(LevelConfig))
            )

        # Files written while the line size was a key still carry it.
        # Other unknown keys, such as the retired ``memory.capacity``, are
        # ignored.
        line_size = num("line_size") if "line_size" in kv else LINE_SIZE
        if line_size != LINE_SIZE:
            raise ValueError(f"line size {line_size} is not {LINE_SIZE} bytes")
        cfg = cls(lvl("l1"), lvl("l2"), lvl("l3"), num("memory.latency"))
        cfg.validate()
        return cfg


class LineEvents(NamedTuple):
    """A request stream's rows in (line, time) order (``SimResult.by_line``).

    ``lines`` holds each distinct line number (address >> ``LINE_BITS``)
    once, ascending; the rows of ``lines[i]`` are ``ptr[i]:ptr[i + 1]``.
    The pointer runs over distinct lines, never over the address range,
    as an address may be anywhere in [0, 2**63).  A fill's ``mask`` is
    its resolution mask (``res_mask``), a write-back's is 0.
    """

    lines: np.ndarray
    ptr: np.ndarray
    time: np.ndarray
    kind: np.ndarray
    ordinal: np.ndarray  # ``req_ord``
    mask: np.ndarray
    t_start: int
    T: int

    def rows(self, line: int) -> slice:
        """The rows of line number ``line``, in time order; empty if none."""
        i = int(np.searchsorted(self.lines, line))
        end = i + 1 if i < len(self.lines) and self.lines[i] == line else i
        return slice(int(self.ptr[i]), int(self.ptr[end]))


@dataclass
class SimResult:
    """Closed main-memory request and resolution streams for one solve."""

    req_time: np.ndarray
    req_kind: np.ndarray
    req_line: np.ndarray
    req_cause: np.ndarray
    req_ord: np.ndarray
    res_line: np.ndarray
    res_fill_time: np.ndarray
    res_mask: np.ndarray
    res_time: np.ndarray
    t_start: int  # time of the first memory request
    t_end: int  # time of the last memory request (incl. final flush)
    n_accesses: int
    n_stall_cycles: int

    @property
    def T(self) -> int:
        """Window length: last memory-level event minus first."""
        return self.t_end - self.t_start

    @property
    def n_fills(self) -> int:
        return int(np.sum(self.req_kind == REQ_FILL))

    @property
    def n_writebacks(self) -> int:
        return int(np.sum(self.req_kind == REQ_WRITEBACK))

    def by_line(self) -> LineEvents:
        """The request rows' line index.  The requests are in time order
        (``load`` refuses a stream that is not), so a stable sort by line
        orders them by (line, time).  A line is fetched again only after
        its previous fill has resolved, so its resolutions are appended in
        fill order (memo replays included), and a stable sort by line alone
        joins them to the fills; a stream where that fails is refused."""
        order = np.argsort(self.req_line, kind="stable")
        line = self.req_line[order] >> LINE_BITS
        # Each line's first row, then the end: the rows before the first and
        # past the last differ from every line and from each other.
        ptr = np.flatnonzero(np.diff(line, prepend=-1, append=-2))
        lines = line[ptr[:-1]]
        del line
        time, kind = self.req_time[order], self.req_kind[order]
        ordinal = self.req_ord[order]
        del order
        fill = kind == REQ_FILL
        n_fills = np.add.reduceat(fill, ptr[:-1], dtype=np.int64)
        r_order = np.argsort(self.res_line, kind="stable")
        # One sorted copy at a time: the lines, then the fill times.
        if not (np.array_equal(self.res_line[r_order],
                               np.repeat(lines << LINE_BITS, n_fills))
                and np.array_equal(self.res_fill_time[r_order], time[fill])):
            raise ValueError("resolution stream does not match the fill stream")
        mask = np.zeros(len(kind), dtype=np.uint16)
        mask[fill] = self.res_mask[r_order]
        return LineEvents(lines, ptr, time, kind, ordinal, mask, self.t_start, self.T)

    def save(self, path) -> None:
        """Write the arrays as ``.npy`` members of a zip, with ``np.savez``.

        The members are stored uncompressed: deflating them, even at the
        fastest level, took most of the save and much of the load, for a
        file about a fifth the size.  ``load`` reads deflated files too.
        """
        members = {"version": np.int64(1)}
        members |= {name: getattr(self, name) for name, _, _ in STREAMS}
        members["scalars"] = np.array(
            [self.t_start, self.t_end, self.n_accesses, self.n_stall_cycles],
            dtype=np.int64,
        )
        # An open file, so a path without ``.npz`` keeps its name.
        with open(path, "wb") as fh:
            np.savez(fh, **members)

    @classmethod
    def load(cls, path) -> "SimResult":
        with np.load(path) as z:
            if int(z["version"]) != 1:
                raise ValueError("unsupported result file version")
            arrays = (z[name] for name, _, _ in STREAMS)
            result = cls(*arrays, *(int(v) for v in z["scalars"]))
        lengths = [len(getattr(result, name)) for name, _, _ in STREAMS]
        if len(set(lengths[:5])) > 1 or len(set(lengths[5:])) > 1:
            raise ValueError("the req_* or the res_* streams differ in length")
        if np.any(result.req_time[1:] < result.req_time[:-1]):
            raise ValueError("request stream is not in time order")
        return result


def _block_key(kinds, addrs) -> tuple:
    """A block's memo key: its length and the CRC-32 of its kinds and of
    its addresses.  Every hit is compared in full, so a collision can only
    cost a simulation."""
    return len(addrs), zlib.crc32(kinds), zlib.crc32(addrs)


class _BlockReplay(NamedTuple):
    """One simulated block from its start or from a resume point (see
    module doc): the rows it appended from there to the request and
    resolution streams, the clock and the access ordinal (clock minus
    stalls) there, and what it did to the clock, the stalls and the state
    by its end.  A hit appends the same rows again, shifted; no row is
    copied until then."""

    clock: int
    ordinal: int
    d_clock: int
    stalls: int
    req: tuple  # (start, end) rows of the request streams
    res: tuple  # (start, end) rows of the resolution streams
    pending: list  # (row offset, line) of resolutions of fills pending at the start
    levels: list  # per level: changed set ids, their forms, sets in flight
    heap: bytes  # live MSHR entries minus the clock, sorted
    track: array  # per ``_track`` entry: line, its words, fill time minus clock


class _Point(NamedTuple):
    """Where a block being simulated missed the memo: its offset, the
    state there, the clock, stalls and stream lengths there, and how many
    of the block's snapshots had been taken by then."""

    at: int
    state: tuple
    clock: int
    stalls: int
    n_req: int
    n_res: int
    snapshots: int


#: Which way σ moves a line, by how many of ``_Swap.bounds`` it reaches.
_SWAP_STEP = np.array([0, 1, 0, -1, 0])


class _Swap(NamedTuple):
    """σ (see module doc): lines ``[lo, lo + n)`` and ``[lo + delta, lo +
    delta + n)`` trade places, each with the one ``delta`` lines away."""

    bounds: np.ndarray  # lo, lo + n, lo + delta, lo + delta + n
    delta: int

    def __call__(self, values: np.ndarray, bits: int = 0) -> np.ndarray:
        """σ of int64 lines, or of addresses with ``2**bits`` bytes a line."""
        where = np.searchsorted(self.bounds, values >> bits, side="right")
        return values + _SWAP_STEP[where] * (self.delta << bits)

    def records(self, raw, width: int) -> np.ndarray:
        """σ of packed int64 records of ``width`` words, each led by a line."""
        words = np.frombuffer(raw, dtype=np.int64).copy()
        words[::width] = self(words[::width])
        return words

    def forms(self, forms) -> list:
        """σ of each set's form, in one pass over all of them."""
        raw = self.records(b"".join(forms), 2).tobytes()
        out, at = [], 0
        for form in forms:
            out.append(raw[at : at + len(form)])
            at += len(form)
        return out


def _ready_victim(st: dict, busy: int):
    """The least recently used line of a full set whose fill has completed
    (entry at most ``busy``)."""
    victim = next((ln for ln, v in st.items() if v <= busy), None)
    if victim is None:
        # Every way holds an in-flight fill; force-complete the oldest.
        # Unreachable for generated workloads, possible in adversarial
        # traces with tiny MSHR-to-associativity ratios.
        victim = min(st, key=lambda ln: st[ln] >> 1)
    return victim


class CacheSimulator:
    """Observer that replays an access stream through the hierarchy.

    Feed it with ``emit`` blocks (it implements the observer protocol the
    solver drives) and call ``finish()`` to flush dirty lines, resolve
    pending fills, and obtain the SimResult.
    ``blocks_simulated`` and ``blocks_replayed`` count how each non-empty
    block was handled, ``blocks_swapped`` the replays made under σ, and
    ``blocks_resumed`` the simulated blocks that ended in a replay from a
    resume point.
    """

    def __init__(self, config: CacheConfig | None = None):
        self.cfg = config or CacheConfig()
        self.cfg.validate()
        levels = (self.cfg.l1, self.cfg.l2, self.cfg.l3)
        self._levels = []
        for lv in levels:
            nsets = lv.n_sets()
            self._levels.append(
                {
                    "sets": [{} for _ in range(nsets)],  # line -> ready << 1 | dirty
                    "nsets": nsets,
                    "ways": lv.assoc,
                    "forms": None,  # each set's canonical form at the last snapshot
                    "stale": np.zeros(nsets, dtype=bool),  # may have changed since
                    "hot": [],  # sets with a line in flight at the last snapshot
                    "changed": (),  # sets a replay must rebuild (last snapshot)
                    "deferred": {},  # set -> (form, clock << 1) a replay left
                }
            )
        # The L1 sets as an object array: ``_run`` gathers each access's.
        self._sets1 = np.array(self._levels[0]["sets"], dtype=object)
        self._mshrs = min(lv.mshrs for lv in levels)
        self._heap: list = []  # completion times of fills in flight
        self._req_lat = sum(lv.latency for lv in levels)
        self._fill_lat = self._req_lat + self.cfg.memory_latency
        # The clock runs one cycle per access plus the stalls from -1, so
        # the current access's ordinal is the clock minus the stalls.
        self._clock = -1
        self._stalls = 0
        self._track: dict = {}  # line -> [fill_time, resolved, overwritten]
        self._streams = tuple(array(code) for _, code, _ in STREAMS)
        self._req, self._res = self._streams[:5], self._streams[5:]
        self._result: SimResult | None = None
        # Resume points (module doc): 16 accesses a line the hierarchy
        # holds, in whole slices.
        lines = sum(lv.size for lv in levels) >> LINE_BITS
        self._stride = -(-16 * lines // SLICE) * SLICE
        self._seen: set = set()  # digests of every block emitted
        self._repeating = False  # has any block been emitted twice?
        self._unrepeated: list = []  # digests of blocks kept before that
        self._blocks: dict = {}  # digest -> (kinds, addrs) copy
        self._memo: dict = {}  # digest -> {offset: {canonical state: _BlockReplay}}
        self._misses: dict = {}  # digest -> recordings since its last replay
        self._swap: _Swap | None = None  # σ, where the hierarchy keeps it exact
        self._twins: dict = {}  # digest -> digest of σ(block), checked
        self.blocks_simulated = 0
        self.blocks_replayed = 0
        self.blocks_swapped = 0
        self.blocks_resumed = 0

    # -- observer protocol ----------------------------------------------------

    def register_structures(self, smap) -> None:
        """Take σ from the map's direction buffers where it is exact: equal
        lengths, line ranges ``delta`` lines apart that do not overlap, and
        ``delta`` a multiple of every level's set count."""
        self._swap = None
        names = smap.names()
        if not all(name in names for name in SWAPPED_BUFFERS):
            return
        a, b = sorted((smap.region(name) for name in SWAPPED_BUFFERS),
                      key=lambda r: r.base)
        offset, lo = b.base - a.base, a.base >> LINE_BITS
        n = ((a.end - 1) >> LINE_BITS) + 1 - lo
        delta = offset >> LINE_BITS
        if (a.length != b.length or offset % LINE_SIZE or delta < n
                or any(delta % level["nsets"] for level in self._levels)):
            return
        self._swap = _Swap(np.array([lo, lo + n, lo + delta, lo + delta + n]), delta)

    def emit(self, kinds, addrs) -> None:
        if self._result is not None:
            raise RuntimeError("simulation already finished")
        kinds = np.ascontiguousarray(kinds)
        check_kinds(kinds, len(addrs))
        if len(addrs) == 0:
            return
        given = np.ascontiguousarray(addrs)
        kinds = kinds.astype(np.uint8, copy=False)
        # Unsigned addresses below 2**63 have the same bytes as signed ones;
        # larger ones read as negative.
        if given.dtype == np.uint64:
            addrs = given.view(np.int64)
        else:
            addrs = given.astype(np.int64, copy=False)
        # A negative address sets the sign bit of the OR of all of them.
        low = int(np.bitwise_or.reduce(addrs))
        if low < 0 or low & 7:
            bad = given[(addrs < 0) | (addrs & 7 != 0)][0]
            raise ValueError(f"address {bad} is not a multiple of 8 in [0, 2**63)")
        digest = _block_key(kinds, addrs)
        if digest in self._seen:
            self._repeating = True
        else:
            self._seen.add(digest)
            if not self._repeating:
                if len(kinds) < 2 * self._stride:
                    self._simulate(kinds, addrs)
                    return
                # A later block may resume from its points (module doc):
                # keep them, and its copy, for the last MEMO_MISSES such blocks.
                self._keep(digest, kinds, addrs)
                self._unrepeated.append(digest)
                if len(self._unrepeated) > MEMO_MISSES:
                    self._forget(self._unrepeated.pop(0))
                self._simulate(kinds, addrs, digest, self._twin(digest, kinds, addrs))
                return
        if self._misses.get(digest, 0) >= MEMO_MISSES:
            self._simulate(kinds, addrs)  # its state never recurred
            return
        block = self._keep(digest, kinds, addrs)
        if not (np.array_equal(block[0], kinds) and np.array_equal(block[1], addrs)):
            self._simulate(kinds, addrs)  # digest collision
            return
        twin = self._twin(digest, kinds, addrs)
        state = self._state()
        rec, swapped = self._lookup(digest, 0, state, twin)
        if rec is not None:
            self._misses[digest] = 0
            self.blocks_replayed += 1
            self.blocks_swapped += swapped
            self._replay(rec, swapped)
            return
        if self._simulate(kinds, addrs, digest, twin, state):
            self._misses[digest] = 0  # a resume counts as a replay
            return
        misses = self._misses[digest] = self._misses.get(digest, 0) + 1
        if misses == MEMO_MISSES:
            self._forget(digest)  # never looked up again

    # -- block memo ---------------------------------------------------------------

    def _keep(self, digest, kinds, addrs) -> tuple:
        """The memo's copy of the block under ``digest``, made if missing."""
        block = self._blocks.get(digest)
        if block is None:
            # The copy only has to compare equal; storing addresses that
            # fit 32 bits in 32 bits halves what the memo holds.
            small = addrs.max() < 1 << 32
            block = self._blocks[digest] = (
                kinds.copy(),
                addrs.astype(np.uint32 if small else np.int64),
            )
        return block

    def _forget(self, digest) -> None:
        """Free a block's copy and every recording made from it."""
        for memo in (self._memo, self._blocks, self._twins):
            memo.pop(digest, None)

    def _twin(self, digest, kinds, addrs):
        """The digest of σ(block) once the memo holds that block, compared
        in full; it is kept, so σ(block) is built only until it is found.
        None without σ."""
        if self._swap is None:
            return None
        twin = self._twins.get(digest)
        if twin is None:
            swapped = self._swap(addrs, LINE_BITS)
            key = _block_key(kinds, swapped)
            block = self._blocks.get(key)
            if block is None or not (np.array_equal(block[0], kinds)
                                     and np.array_equal(block[1], swapped)):
                return None
            twin = self._twins[digest] = key
        return twin

    def _lookup(self, digest, at, state, twin):
        """The recording from offset ``at`` of this block in ``state``, else
        from that offset of σ(block), digest ``twin``, in σ(state); and
        whether it came from σ(block).  Each compares the full state."""
        rec = self._memo.get(digest, {}).get(at, {}).get(state)
        if rec is None and twin is not None:
            twins = self._memo.get(twin, {}).get(at)
            if twins:
                # The same block with d and dp swapped, met with them swapped.
                rec = twins.get(self._swapped(state))
                return rec, rec is not None
        return rec, False

    def _swapped(self, state: tuple) -> tuple:
        """σ(state): every line of every set form and ``_track`` entry."""
        *levels, heap, track = state
        swap = self._swap
        return (*(tuple(swap.forms(forms)) for forms in levels), heap,
                swap.records(track, 3).tobytes())

    def _simulate(self, kinds, addrs, digest=None, twin=None, state=None) -> bool:
        """Simulate one block.  Given its ``digest`` (and its σ-twin's), take
        a snapshot at each resume point and look it up; a hit ends the block
        in a replay of the recording's suffix.  The recordings from the
        points that missed are stored when the block ends, from its start
        too when given the ``state`` there.  Returns whether it resumed."""
        self.blocks_simulated += 1
        self._rebuild_deferred()
        stride, n = self._stride, len(kinds)
        points = [] if state is None else [self._point(0, state, 0)]
        changed = []  # per snapshot in the block: each level's changed sets
        rec = None
        # The core loop wants Python ints; converting in slices bounds the
        # size of the temporary lists.
        for at in range(0, n, SLICE):
            if digest is not None and at and at % stride == 0 and at + stride <= n:
                state = self._state()
                changed.append([level["changed"] for level in self._levels])
                rec, swapped = self._lookup(digest, at, state, twin)
                if rec is not None:
                    break
                points.append(self._point(at, state, len(changed)))
            self._run(kinds[at : at + SLICE], addrs[at : at + SLICE])
        if rec is not None:
            self.blocks_resumed += 1
            self._replay(rec, swapped)
            changed.append([ids for ids, _, _ in rec.levels])
            heap = rec.heap
        elif points:
            heap = self._state()[-2]  # the sets' forms land in ``level["forms"]``
            changed.append([level["changed"] for level in self._levels])
        if points:
            self._store(digest, points, changed, heap)
        return rec is not None

    def _point(self, at, state, snapshots) -> _Point:
        return _Point(at, state, self._clock, self._stalls, len(self._req[0]),
                      len(self._res[0]), snapshots)

    def _store(self, digest, points, changed, heap) -> None:
        """Store the recording from each point to the block's end, which is
        now; ``changed`` gives the sets each snapshot after the block's
        start found changed, then those the block's end changed."""
        offsets = self._memo.setdefault(digest, {})
        n_req, n_res = len(self._req[0]), len(self._res[0])
        since = [set() for _ in self._levels]  # changed after the point
        for p in reversed(points):
            while len(changed) > p.snapshots:
                for ids, more in zip(since, changed.pop()):
                    ids.update(more)
            levels = []
            for level, ids in zip(self._levels, since):
                ids = sorted(ids)
                levels.append((ids, [level["forms"][s] for s in ids], level["hot"]))
            # A fill pending at the point was requested by then, one made
            # after it was requested later.
            fill_time = np.frombuffer(self._res[1][p.n_res:], dtype=np.int64)
            rows = np.flatnonzero(fill_time <= p.clock + self._req_lat)
            lines = np.frombuffer(self._res[0][p.n_res:], dtype=np.int64)[rows]
            pending = list(zip(rows.tolist(), (lines >> LINE_BITS).tolist()))
            track = array("q", [w for ln, (fill, resolved, overwritten)
                                in self._track.items()
                                for w in (ln, resolved, overwritten, fill - p.clock)])
            offsets.setdefault(p.at, {})[p.state] = _BlockReplay(
                p.clock, p.clock - p.stalls, self._clock - p.clock,
                self._stalls - p.stalls, (p.n_req, n_req), (p.n_res, n_res),
                pending, levels, heap, track,
            )

    def _state(self) -> tuple:
        """Canonical state (see module docstring): per level its set forms,
        then the heap form and the ``_track`` form.  A set's form packs each
        line and its entry, ready time relative or clamped, as int64s."""
        c = self._clock
        c2, ready = c << 1, (c << 1) + 1  # entries above ``ready`` are in flight
        state = []
        for level in self._levels:
            sets, forms, stale = level["sets"], level["forms"], level["stale"]
            if forms is None:
                forms = level["forms"] = [b""] * level["nsets"]
                ids = range(level["nsets"])
            else:
                stale[level["hot"]] = True
                ids = np.flatnonzero(stale).tolist()
            stale[:] = False
            # Only a set in flight reads its ready times against the clock.
            self._rebuild(level, [s for s in ids if s in level["deferred"]])
            # A set in flight at the last snapshot is rebuilt on a replay
            # even if its form came back: its absolute ready times moved.
            changed, hot = set(level["hot"]), []
            for s in ids:
                flat = []
                for ln, v in sets[s].items():
                    flat += (ln, v - c2 if v > ready else v & 1)
                form = array("q", flat).tobytes()
                if form != forms[s]:
                    forms[s] = form
                    changed.add(s)
                if max(flat[1::2], default=0) > 1:
                    hot.append(s)
            level["changed"], level["hot"] = changed, hot
            state.append(tuple(forms))
        live = sorted(t - c for t in self._heap if t > c)
        state.append(array("q", live).tobytes())
        track = [w for ln, e in self._track.items() for w in (ln, e[1], e[2])]
        state.append(array("q", track).tobytes())
        return tuple(state)

    def _replay(self, rec: _BlockReplay, swapped: bool = False) -> None:
        """Append a recorded block's rows and install its post-state; under
        σ (``swapped``) every line the recording names is mapped first."""
        swap = self._swap if swapped else None
        shift = {
            "clock": self._clock - rec.clock,
            "ordinal": self._clock - self._stalls - rec.ordinal,
        }
        for (name, code, by), buf in zip(STREAMS, self._streams):
            start, end = rec.req if name.startswith("req_") else rec.res
            part = buf[start:end]  # a copy, so no view outlives the append
            if by == "line":
                if swap:
                    part = swap(np.frombuffer(part, dtype=code), LINE_BITS)
            elif by is not None:
                part = np.frombuffer(part, dtype=code) + shift[by]
            buf.frombytes(memoryview(part).cast("B"))
        track = self._track
        fill_time = self._res[1]
        at = len(fill_time) - (rec.res[1] - rec.res[0])
        pending = rec.pending
        if swap and pending:
            rows, lines = zip(*pending)
            pending = zip(rows, swap(np.array(lines)).tolist())
        for j, line in pending:
            fill_time[at + j] = track[line][0]
        start = self._clock
        self._clock += rec.d_clock
        self._stalls += rec.stalls
        # Install the recorded post-state at the new clock; the changed
        # sets' dicts wait for ``_rebuild`` (module doc).
        c2 = self._clock << 1
        for level, (ids, forms, hot) in zip(self._levels, rec.levels):
            level_forms, deferred = level["forms"], level["deferred"]
            for s, form in zip(ids, swap.forms(forms) if swap else forms):
                deferred[s] = (form, c2)
                level_forms[s] = form
            level["hot"] = hot
        # Stored sorted, so the list is already a valid heap.
        self._heap = [t + self._clock for t in memoryview(rec.heap).cast("q")]
        words = (swap.records(rec.track, 4) if swap else rec.track).tolist()
        self._track = {
            ln: [track[ln][0] if rel <= self._req_lat else start + rel, res, over]
            for ln, res, over, rel in zip(*[iter(words)] * 4)
        }

    def _rebuild(self, level: dict, ids) -> None:
        """Rebuild the dicts of the deferred sets ``ids`` from their forms."""
        sets, deferred = level["sets"], level["deferred"]
        for s in ids:
            form, c2 = deferred.pop(s)
            words = memoryview(form).cast("q").tolist()
            st = sets[s]
            st.clear()
            for j in range(0, len(words), 2):
                v = words[j + 1]
                st[words[j]] = v + c2 if v > 1 else v

    def _rebuild_deferred(self) -> None:
        for level in self._levels:
            self._rebuild(level, list(level["deferred"]))

    # -- core loop --------------------------------------------------------------

    def _run(self, kinds, addrs) -> None:
        """Simulate one slice of the block, given as numpy arrays."""
        l1 = self._levels[0]
        lines = addrs >> LINE_BITS
        if l1["forms"] is not None:
            # Once snapshots are taken, note the sets the slice may change.
            for level in self._levels:
                level["stale"][lines % level["nsets"]] = True
        columns = (
            kinds.tolist(),
            lines.tolist(),
            self._sets1[lines % l1["nsets"]].tolist(),  # the access's L1 set
            (1 << ((addrs & LINE_SIZE - 1) >> 3)).tolist(),  # the word's bit
        )
        homes = [(level["sets"], level["nsets"]) for level in self._levels]
        (sets2, nsets2), (sets3, nsets3) = homes[1:]
        ways = [level["ways"] for level in self._levels]
        heap, mshrs = self._heap, self._mshrs
        track = self._track
        req_lat = self._req_lat
        fill_lat = self._fill_lat
        clock = self._clock
        stalls = self._stalls
        rq_t, rq_k, rq_l, rq_c, rq_o = self._req
        rs_l, rs_f, rs_m, rs_t = self._res
        heappush = heapq.heappush
        heappop = heapq.heappop

        for kind, line, st1, bit in zip(*columns):
            clock += 1
            v = st1.pop(line, None)
            if v is not None:
                # L1 hit (or merge with an in-flight fill); to the LRU end.
                st1[line] = v | kind
            else:
                # The line goes into every level above the first that holds
                # it, or into all three from memory.
                st2 = sets2[line % nsets2]
                v = st2.pop(line, None)
                if v is not None:
                    st2[line] = v
                    into = (st1,)
                else:
                    st3 = sets3[line % nsets3]
                    v = st3.pop(line, None)
                    into = (st1, st2, st3)
                    if v is not None:
                        st3[line] = v
                        into = (st1, st2)
                if v is not None:
                    # A still-pending copy acts as a merge and keeps its
                    # ready time on the promoted copies.
                    ready = v >> 1 if v >> 1 > clock else 0
                else:
                    # Miss everywhere: fetch from memory once an MSHR is free.
                    while heap and heap[0] <= clock:
                        heappop(heap)
                    if len(heap) >= mshrs:
                        stalls += heap[0] - clock
                        clock = heap[0]
                    ready = clock + fill_lat
                    rq_t.append(clock + req_lat)
                    rq_k.append(REQ_FILL)
                    rq_l.append(line << LINE_BITS)
                    rq_c.append(CAUSE_STORE_MISS if kind else CAUSE_LOAD_MISS)
                    rq_o.append(clock - stalls)
                    heappush(heap, ready)
                    track[line] = [clock + req_lat, 0, 0]
                # A full set evicts its least recently used ready line,
                # which leaves at the clock plus the request latency.
                t = clock + req_lat
                busy = (clock << 1) + 1  # entries above it are in flight
                v = ready << 1 | kind  # dirty in L1 only
                for lvl, st in enumerate(into):
                    if len(st) >= ways[lvl]:
                        victim = next(iter(st))
                        if st[victim] > busy:
                            victim = _ready_victim(st, busy)
                        if st.pop(victim) & 1:
                            self._writeback(lvl, victim, t, clock - stalls)
                        if victim in track and not any(
                            victim in sets[victim % n] for sets, n in homes
                        ):
                            self._finalize(victim, track[victim], t)
                    st[line] = v
                    v &= -2
            entry = track.get(line)
            if entry is not None and not entry[1] & bit:
                # The first access to a word of a pending fill resolves it:
                # a load consumes it, a store overwrites it.
                entry[1] |= bit
                if kind:
                    entry[2] |= bit
                if entry[1] == _ALL_WORDS:  # ``_finalize``, inline
                    del track[line]
                    rs_l.append(line << LINE_BITS)
                    rs_f.append(entry[0])
                    rs_m.append(entry[2])
                    rs_t.append(clock)
        self._clock, self._stalls = clock, stalls

    def _writeback(self, from_lvl, line, t, ordinal) -> None:
        """Mark a victim dirty in the next level that holds it, or write it
        back to memory at time ``t``."""
        for lvl in range(from_lvl + 1, 3):
            level = self._levels[lvl]
            s = line % level["nsets"]
            st = level["sets"][s]
            v = st.get(line)
            if v is not None:
                st[line] = v | 1  # keeps its place in the LRU order
                level["stale"][s] = True  # not a set the block accessed
                return
        row = (t, REQ_WRITEBACK, line << LINE_BITS, CAUSE_NONE, ordinal)
        for buf, value in zip(self._req, row):
            buf.append(value)

    def _finalize(self, line, entry, t) -> None:
        """Close a fill at time ``t``: every word accessed, its line left
        the hierarchy, or at the end; its unaccessed words count as
        consumed."""
        for buf, value in zip(self._res, (line << LINE_BITS, entry[0], entry[2], t)):
            buf.append(value)
        del self._track[line]

    # -- closure -----------------------------------------------------------------

    def finish(self) -> SimResult:
        if self._result is not None:
            return self._result
        for memo in (self._seen, self._unrepeated, self._blocks, self._memo,
                     self._misses, self._twins):
            memo.clear()
        self._rebuild_deferred()
        n_accesses = self._clock + 1 - self._stalls
        flush_time = self._clock + self._req_lat if n_accesses else 0
        # Resolve every outstanding fill, then write back dirty lines once
        # each (the freshest copy wins; deeper stale copies are subsumed).
        for line in sorted(self._track):
            self._finalize(line, self._track[line], flush_time)
        flushed = set()
        for level in self._levels:
            for st in level["sets"]:
                flushed.update(line for line, v in st.items() if v & 1)
        for line in sorted(flushed):
            row = (flush_time, REQ_WRITEBACK, line << LINE_BITS, CAUSE_NONE,
                   n_accesses)
            for buf, value in zip(self._req, row):
                buf.append(value)
        # Nothing appends after this, so the result shares the buffers
        # instead of copying them.
        out = {
            name: np.frombuffer(buf, dtype=code)
            for (name, code, _), buf in zip(STREAMS, self._streams)
        }
        req_time = out["req_time"]
        self._result = SimResult(
            **out,
            t_start=int(req_time[0]) if len(req_time) else 0,
            t_end=int(req_time[-1]) if len(req_time) else 0,
            n_accesses=n_accesses,
            n_stall_cycles=self._stalls,
        )
        return self._result

