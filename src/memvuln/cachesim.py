"""Trace-driven three-level write-back, write-allocate cache hierarchy.

The simulator is an observer of the solver's access stream: each access
is a kind and the 8-byte-aligned address of the 64-bit word it touches.
It produces the main-memory request stream — fills and write-backs with
simulated timestamps — plus one resolution per fill recording, per word
of the fetched line, whether the word was consumed or overwritten before
any load (bit w of ``res_mask`` set means word w was overwritten).  The
first access to a word after its fill resolves it: a load consumes it, a
store overwrites it.  A word still unaccessed when its line leaves the
hierarchy (or at the end) counts as consumed, conservatively.

Timing model (deliberately simple, fixed-latency):
  * the core issues one access per cycle; an access that needs a
    main-memory fill requires a free MSHR at every level, stalling the
    clock to the earliest in-flight completion otherwise;
  * a fill request reaches memory after the summed hit latencies of the
    three levels and completes one memory latency later;
  * victim write-backs are stamped with the triggering fill's request
    time; bandwidth is not modeled (every request has the same latency).

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
hit replays the recorded output instead of simulating the block.

The canonical state holds, with every time taken relative to the clock:
  * for every level and set, in dict order, each line with its LRU
    stamp, dirty bit and ready time;
  * for every level, the live MSHR heap entries, sorted;
  * every pending resolution (``_track`` entry) with its fill time and
    its resolved and overwritten words.
Two states that agree on it behave identically from then on: the clock
only moves forward and every comparison the core loop makes is between
times or against the clock.  A ready time at or below the clock can
never again read as in-flight, so it is clamped to "ready"; a heap entry
at or below the clock is popped before any MSHR count is taken, so it is
dropped.  Nothing else in the state is observable.

A hit is confirmed by comparing the full state and the block's kinds
and addresses, never by a digest alone.  It appends the recorded
requests and resolutions shifted by the change of clock (times) and of
access count (ordinals), adds the recorded stall cycles, and installs
the recorded post-state at the new clock.  Blocks are recorded, and the
state snapshotted, only once the stream has repeated a block's content
digest: a stream that never repeats (e.g. a stored trace read in
fixed-size blocks) pays only the digest, and a solver's stream is
recorded from its second iteration on, so the first state that recurs
is already in the memo.  A block recorded ``MEMO_MISSES`` times in a row
without a replay is simulated directly from then on and its recordings
are freed: where the state never settles (a side-16 solve under the
full-size hierarchy is one), the memo holds at most that many
recordings per distinct block and stops taking snapshots.
"""

from __future__ import annotations

import hashlib
import heapq
import zipfile
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

REQ_FILL = 0
REQ_WRITEBACK = 1

CAUSE_NONE = 0
CAUSE_LOAD_MISS = 1
CAUSE_STORE_MISS = 2

#: Recordings in a row without a replay after which the memo gives a
#: block up (see the module docstring).  A solver's stream under
#: ``desk_scaled`` needs at most three before its first replay.
MEMO_MISSES = 4

_ALL_WORDS = 0xFF  # per-line word mask (8 words of 8 bytes)


@dataclass
class LevelConfig:
    shared: bool
    assoc: int
    size: int
    latency: int
    mshrs: int

    def n_sets(self, line_size: int) -> int:
        return self.size // (self.assoc * line_size)


@dataclass
class CacheConfig:
    """Hierarchy parameters; defaults mirror the reference configuration."""

    line_size: int = 64
    l1: LevelConfig = field(
        default_factory=lambda: LevelConfig(False, 8, 32 * 1024, 4, 32)
    )
    l2: LevelConfig = field(
        default_factory=lambda: LevelConfig(False, 8, 256 * 1024, 12, 32)
    )
    l3: LevelConfig = field(
        default_factory=lambda: LevelConfig(True, 16, 20 * 1024 * 1024, 28, 128)
    )
    memory_latency: int = 155
    memory_capacity: int = 32 * 1024**3

    def validate(self) -> None:
        if self.line_size != 64:
            raise ValueError("line size must be 64 bytes")
        for lv in (self.l1, self.l2, self.l3):
            if lv.size % (lv.assoc * self.line_size):
                raise ValueError("level size not divisible by assoc * line size")
            if lv.mshrs < 1:
                raise ValueError("at least one MSHR per level")

    @classmethod
    def desk_scaled(cls, side: int) -> "CacheConfig":
        """Shrink the shared level so a side**3 problem streams through it.

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
        cfg.l1 = LevelConfig(False, 8, l1_size, 4, 32)
        cfg.l2 = LevelConfig(False, 8, l2_size, 12, 32)
        cfg.l3 = LevelConfig(True, 16, l3_size, 28, 128)
        cfg.validate()
        return cfg

    def save(self, path) -> None:
        lines = ["# cache configuration v1", f"line_size = {self.line_size}"]
        for name, lv in (("l1", self.l1), ("l2", self.l2), ("l3", self.l3)):
            lines += [
                f"{name}.shared = {str(lv.shared).lower()}",
                f"{name}.assoc = {lv.assoc}",
                f"{name}.size = {lv.size}",
                f"{name}.latency = {lv.latency}",
                f"{name}.mshrs = {lv.mshrs}",
            ]
        lines += [
            f"memory.latency = {self.memory_latency}",
            f"memory.capacity = {self.memory_capacity}",
        ]
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
        cfg = cls()

        def lvl(name: str) -> LevelConfig:
            return LevelConfig(
                kv[f"{name}.shared"] == "true",
                int(kv[f"{name}.assoc"]),
                int(kv[f"{name}.size"]),
                int(kv[f"{name}.latency"]),
                int(kv[f"{name}.mshrs"]),
            )

        cfg.line_size = int(kv["line_size"])
        cfg.l1, cfg.l2, cfg.l3 = lvl("l1"), lvl("l2"), lvl("l3")
        cfg.memory_latency = int(kv["memory.latency"])
        cfg.memory_capacity = int(kv["memory.capacity"])
        cfg.validate()
        return cfg


@dataclass
class SimResult:
    """Closed main-memory request and resolution streams for one solve."""

    req_time: np.ndarray
    req_kind: np.ndarray
    req_line: np.ndarray
    req_cause: np.ndarray
    req_ord: np.ndarray  # ordinal of the program access that triggered it
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

    def save(self, path) -> None:
        """Write the arrays as ``.npy`` members of a deflated zip.

        The file is what ``np.savez_compressed`` writes, at the fastest
        compression level, which costs a few percent more bytes and
        about a sixth of the time.
        """
        members = {
            "version": np.int64(1),
            "req_time": self.req_time,
            "req_kind": self.req_kind,
            "req_line": self.req_line,
            "req_cause": self.req_cause,
            "req_ord": self.req_ord,
            "res_line": self.res_line,
            "res_fill_time": self.res_fill_time,
            "res_mask": self.res_mask,
            "res_time": self.res_time,
            "scalars": np.array(
                [self.t_start, self.t_end, self.n_accesses, self.n_stall_cycles],
                dtype=np.int64,
            ),
        }
        with zipfile.ZipFile(
            path, "w", zipfile.ZIP_DEFLATED, compresslevel=1
        ) as zf:
            for name, arr in members.items():
                with zf.open(name + ".npy", "w", force_zip64=True) as fh:
                    np.lib.format.write_array(
                        fh, np.asanyarray(arr), allow_pickle=False
                    )

    @classmethod
    def load(cls, path) -> "SimResult":
        with np.load(path) as z:
            if int(z["version"]) != 1:
                raise ValueError("unsupported result file version")
            s = z["scalars"]
            return cls(
                z["req_time"],
                z["req_kind"],
                z["req_line"],
                z["req_cause"],
                z["req_ord"],
                z["res_line"],
                z["res_fill_time"],
                z["res_mask"],
                z["res_time"],
                int(s[0]),
                int(s[1]),
                int(s[2]),
                int(s[3]),
            )


class _BlockReplay(NamedTuple):
    """What simulating one block did, relative to its start (see module doc)."""

    d_clock: int
    stalls: int
    rq_t: np.ndarray  # request times minus the start clock
    rq_k: bytes
    rq_l: bytes
    rq_c: bytes
    rq_o: np.ndarray  # request ordinals minus the start access count
    rs_l: bytes
    rs_ft: np.ndarray  # fill times minus the start clock
    rs_m: bytes
    rs_rt: np.ndarray  # resolution times minus the start clock
    post: bytes  # canonical state at the end of the block


class CacheSimulator:
    """Observer that replays an access stream through the hierarchy.

    Feed it with ``emit`` blocks (it implements the observer protocol the
    solver drives) and call ``finish()`` to flush dirty lines, resolve
    pending fills, and obtain the SimResult.
    ``blocks_simulated`` and ``blocks_replayed`` count how each non-empty
    block was handled.
    """

    def __init__(self, config: CacheConfig | None = None):
        self.cfg = config or CacheConfig()
        self.cfg.validate()
        line = self.cfg.line_size
        self._levels = []
        for lv in (self.cfg.l1, self.cfg.l2, self.cfg.l3):
            nsets = lv.n_sets(line)
            self._levels.append(
                {
                    "sets": [dict() for _ in range(nsets)],
                    "nsets": nsets,
                    "ways": lv.assoc,
                    "mshrs": lv.mshrs,
                    "heap": [],
                }
            )
        self._req_lat = self.cfg.l1.latency + self.cfg.l2.latency + self.cfg.l3.latency
        self._fill_lat = self._req_lat + self.cfg.memory_latency
        self._clock = -1
        self._stalls = 0
        self._n_accesses = 0
        self._track: dict = {}  # line -> [fill_time, resolved, overwritten]
        self._rq_t = array("q")
        self._rq_k = array("B")
        self._rq_l = array("q")
        self._rq_c = array("B")
        self._rq_o = array("q")
        self._cur_ord = 0
        self._rs_l = array("q")
        self._rs_ft = array("q")
        self._rs_m = array("H")
        self._rs_rt = array("q")
        self._result: SimResult | None = None
        self._seen: set = set()  # digests of every block emitted
        self._repeating = False  # has any block been emitted twice?
        self._blocks: dict = {}  # digest -> (kinds, addrs) copy
        self._memo: dict = {}  # digest -> {canonical state: _BlockReplay}
        self._misses: dict = {}  # digest -> recordings since its last replay
        self.blocks_simulated = 0
        self.blocks_replayed = 0

    # -- observer protocol ----------------------------------------------------

    def register_structures(self, smap) -> None:
        for reg in smap:
            if reg.end > self.cfg.memory_capacity:
                raise ValueError(
                    f"structure {reg.name} exceeds memory capacity "
                    f"({reg.end} > {self.cfg.memory_capacity})"
                )

    def emit(self, kinds, addrs) -> None:
        if self._result is not None:
            raise RuntimeError("simulation already finished")
        if len(addrs) == 0:
            return
        addrs = np.ascontiguousarray(addrs)
        if int(addrs.max()) + 8 > self.cfg.memory_capacity:
            raise ValueError("trace address outside configured memory capacity")
        kinds = np.ascontiguousarray(kinds, dtype=np.uint8)
        # In-range unsigned addresses have the same bytes as signed ones.
        if addrs.dtype == np.uint64:
            addrs = addrs.view(np.int64)
        else:
            addrs = addrs.astype(np.int64, copy=False)
        # A negative address sets the sign bit of the OR of all of them.
        low = int(np.bitwise_or.reduce(addrs))
        if low < 0 or low & 7:
            bad = addrs[(addrs < 0) | (addrs & 7 != 0)][0]
            raise ValueError(f"address {bad} is not a non-negative multiple of 8")
        h = hashlib.sha256(kinds)
        h.update(addrs)
        digest = h.digest()
        if digest in self._seen:
            self._repeating = True
        else:
            self._seen.add(digest)
            if not self._repeating:
                self._simulate(kinds, addrs)
                return
        if self._misses.get(digest, 0) >= MEMO_MISSES:
            self._simulate(kinds, addrs)  # its state never recurred
            return
        block = self._blocks.get(digest)
        if block is None:
            # The copy only has to compare equal; storing addresses that
            # fit 32 bits in 32 bits halves what the memo holds.
            small = addrs.max() < 1 << 32
            block = self._blocks[digest] = (
                kinds.copy(),
                addrs.astype(np.uint32 if small else np.int64),
            )
        if not (np.array_equal(block[0], kinds) and np.array_equal(block[1], addrs)):
            self._simulate(kinds, addrs)  # digest collision
            return
        states = self._memo.setdefault(digest, {})
        state = self._state()
        rec = states.get(state)  # dict lookup compares the full state
        if rec is not None:
            self._misses[digest] = 0
            self._replay(rec, len(kinds))
            return
        states[state] = self._record(kinds, addrs)
        misses = self._misses[digest] = self._misses.get(digest, 0) + 1
        if misses == MEMO_MISSES:
            del self._memo[digest], self._blocks[digest]  # never looked up again

    # -- block memo ---------------------------------------------------------------

    def _record(self, kinds, addrs) -> _BlockReplay:
        """Simulate one block and return what it did, relative to its start."""
        clock, stalls = self._clock, self._stalls
        n_req, n_res, ord0 = len(self._rq_t), len(self._rs_l), self._n_accesses
        self._simulate(kinds, addrs)

        def since(arr, start, base):
            return np.frombuffer(arr, dtype=np.int64)[start:] - base

        return _BlockReplay(
            d_clock=self._clock - clock,
            stalls=self._stalls - stalls,
            rq_t=since(self._rq_t, n_req, clock),
            rq_k=self._rq_k[n_req:].tobytes(),
            rq_l=self._rq_l[n_req:].tobytes(),
            rq_c=self._rq_c[n_req:].tobytes(),
            rq_o=since(self._rq_o, n_req, ord0),
            rs_l=self._rs_l[n_res:].tobytes(),
            rs_ft=since(self._rs_ft, n_res, clock),
            rs_m=self._rs_m[n_res:].tobytes(),
            rs_rt=since(self._rs_rt, n_res, clock),
            post=self._state(),
        )

    def _simulate(self, kinds, addrs) -> None:
        self.blocks_simulated += 1
        # The core loop wants Python ints; converting in slices bounds the
        # size of the temporary lists.
        step = 1 << 14
        for i in range(0, len(kinds), step):
            self._run(kinds[i : i + step].tolist(), addrs[i : i + step].tolist())

    def _state(self) -> bytes:
        """Canonical state (see module docstring), packed as int64 words."""
        c = self._clock
        flat = []
        for level in self._levels:
            at = len(flat)
            flat.append(0)
            for st in level["sets"]:
                for ln, (stamp, dirty, ready) in st.items():
                    flat += (ln, stamp - c, dirty, ready - c if ready > c else 0)
            flat[at] = (len(flat) - at - 1) // 4
            live = sorted(t - c for t in level["heap"] if t > c)
            flat.append(len(live))
            flat += live
        flat.append(len(self._track))
        for ln, (fill_time, resolved, overwritten) in self._track.items():
            flat += (ln, fill_time - c, resolved, overwritten)
        return array("q", flat).tobytes()

    def _restore(self, state: bytes) -> None:
        """Install a canonical state at the current clock."""
        c = self._clock
        flat = memoryview(state).cast("q")
        pos = 0
        for level in self._levels:
            nsets = level["nsets"]
            sets = [dict() for _ in range(nsets)]
            end = pos + 1 + 4 * flat[pos]
            for j in range(pos + 1, end, 4):
                ln, ready = flat[j], flat[j + 3]
                sets[ln % nsets][ln] = [
                    flat[j + 1] + c, bool(flat[j + 2]), ready + c if ready else 0
                ]
            level["sets"] = sets
            pos = end + 1 + flat[end]
            # Stored sorted, so the list is already a valid heap.
            level["heap"] = [t + c for t in flat[end + 1 : pos]]
        track = self._track
        track.clear()
        for j in range(pos + 1, pos + 1 + 4 * flat[pos], 4):
            track[flat[j]] = [flat[j + 1] + c, flat[j + 2], flat[j + 3]]

    def _replay(self, rec: _BlockReplay, n: int) -> None:
        self.blocks_replayed += 1
        c = self._clock
        for arr, part in (
            (self._rq_t, rec.rq_t + c),
            (self._rq_k, rec.rq_k),
            (self._rq_l, rec.rq_l),
            (self._rq_c, rec.rq_c),
            (self._rq_o, rec.rq_o + self._n_accesses),
            (self._rs_l, rec.rs_l),
            (self._rs_ft, rec.rs_ft + c),
            (self._rs_m, rec.rs_m),
            (self._rs_rt, rec.rs_rt + c),
        ):
            arr.frombytes(memoryview(part).cast("B"))
        self._clock = c + rec.d_clock
        self._stalls += rec.stalls
        self._n_accesses += n
        self._restore(rec.post)

    # -- core loop --------------------------------------------------------------

    def _run(self, kinds, addrs) -> None:
        l1, l2, l3 = self._levels
        sets1, nsets1 = l1["sets"], l1["nsets"]
        sets2, nsets2 = l2["sets"], l2["nsets"]
        sets3, nsets3 = l3["sets"], l3["nsets"]
        heaps = (l1["heap"], l2["heap"], l3["heap"])
        limits = (l1["mshrs"], l2["mshrs"], l3["mshrs"])
        track = self._track
        req_lat = self._req_lat
        fill_lat = self._fill_lat
        clock = self._clock
        stalls = self._stalls
        rq_t, rq_k, rq_l, rq_c = self._rq_t, self._rq_k, self._rq_l, self._rq_c
        rq_o = self._rq_o
        base_ord = self._n_accesses
        heappush = heapq.heappush
        heappop = heapq.heappop

        for i in range(len(kinds)):
            a = addrs[i]
            kind = kinds[i]
            line = a >> 6
            clock += 1
            st1 = sets1[line % nsets1]
            rec = st1.get(line)
            if rec is not None:
                # L1 hit (or merge with an in-flight fill).
                rec[0] = clock
                if kind:
                    rec[1] = True
                entry = track.get(line)
                if entry is not None:
                    self._touch(track, entry, line, a, kind, clock)
                continue
            st2 = sets2[line % nsets2]
            rec = st2.get(line)
            if rec is not None:
                # L2 hit; a still-pending copy acts as a merge and keeps
                # its ready time on the promoted copy.
                rec[0] = clock
                ready = rec[2] if rec[2] > clock else 0
                self._clock = clock
                self._cur_ord = base_ord + i
                self._install(0, line, clock, bool(kind), ready)
                entry = track.get(line)
                if entry is not None:
                    self._touch(track, entry, line, a, kind, clock)
                continue
            st3 = sets3[line % nsets3]
            rec = st3.get(line)
            if rec is not None:
                rec[0] = clock
                ready = rec[2] if rec[2] > clock else 0
                self._clock = clock
                self._cur_ord = base_ord + i
                self._install(0, line, clock, bool(kind), ready)
                self._install(1, line, clock, False, ready)
                entry = track.get(line)
                if entry is not None:
                    self._touch(track, entry, line, a, kind, clock)
                continue
            # Miss everywhere: fetch from memory, one MSHR per level.
            for lvl in range(3):
                heap = heaps[lvl]
                while heap and heap[0] <= clock:
                    heappop(heap)
                if len(heap) >= limits[lvl]:
                    wait_until = heap[0]
                    stalls += wait_until - clock
                    clock = wait_until
                    while heap and heap[0] <= clock:
                        heappop(heap)
            req_time = clock + req_lat
            ready = clock + fill_lat
            rq_t.append(req_time)
            rq_k.append(REQ_FILL)
            rq_l.append(line << 6)
            rq_c.append(CAUSE_STORE_MISS if kind else CAUSE_LOAD_MISS)
            rq_o.append(base_ord + i)
            for lvl in range(3):
                heappush(heaps[lvl], ready)
            self._clock = clock  # evictions read the current clock
            self._cur_ord = base_ord + i
            self._install(0, line, clock, bool(kind), ready, req_time)
            self._install(1, line, clock, False, ready, req_time)
            self._install(2, line, clock, False, ready, req_time)
            entry = [req_time, 0, 0]
            track[line] = entry
            self._touch(track, entry, line, a, kind, clock)
        self._clock = clock
        self._stalls = stalls
        self._n_accesses += len(kinds)

    def _touch(self, track, entry, line, addr, kind, clock) -> None:
        """Resolve the accessed word of a pending fill if it is its first
        access: a load consumes it, a store overwrites it."""
        bit = 1 << ((addr & 63) >> 3)
        if entry[1] & bit:
            return
        entry[1] |= bit
        if kind:
            entry[2] |= bit
        if entry[1] == _ALL_WORDS:
            self._rs_l.append(line << 6)
            self._rs_ft.append(entry[0])
            self._rs_m.append(entry[2])
            self._rs_rt.append(clock)
            del track[line]

    def _install(self, lvl, line, stamp, dirty, ready, wb_time=None) -> None:
        level = self._levels[lvl]
        st = level["sets"][line % level["nsets"]]
        if len(st) >= level["ways"]:
            self._evict_one(lvl, st, wb_time)
        st[line] = [stamp, dirty, ready]

    def _evict_one(self, lvl, st, wb_time) -> None:
        clock = self._clock
        victim = None
        best = None
        for ln, rec in st.items():
            if rec[2] <= clock and (best is None or rec[0] < best):
                best = rec[0]
                victim = ln
        if victim is None:
            # Every way holds an in-flight fill; force-complete the oldest.
            # Unreachable for generated workloads, possible in adversarial
            # traces with tiny MSHR-to-associativity ratios.
            victim = min(st, key=lambda ln: st[ln][2])
        rec = st.pop(victim)
        if rec[1]:
            self._writeback(lvl, victim, wb_time)
        entry = self._track.get(victim)
        if entry is not None and not self._present_anywhere(victim):
            self._finalize(victim, entry, wb_time)

    def _writeback(self, from_lvl, line, wb_time) -> None:
        for lvl in range(from_lvl + 1, 3):
            level = self._levels[lvl]
            rec = level["sets"][line % level["nsets"]].get(line)
            if rec is not None:
                rec[1] = True
                return
        t = wb_time if wb_time is not None else self._clock + self._req_lat
        self._rq_t.append(t)
        self._rq_k.append(REQ_WRITEBACK)
        self._rq_l.append(line << 6)
        self._rq_c.append(CAUSE_NONE)
        self._rq_o.append(self._cur_ord)

    def _present_anywhere(self, line) -> bool:
        for level in self._levels:
            if line in level["sets"][line % level["nsets"]]:
                return True
        return False

    def _finalize(self, line, entry, at_time) -> None:
        """Close a fill whose line left the hierarchy, or at the end; its
        unaccessed words count as consumed."""
        t = at_time if at_time is not None else self._clock + self._req_lat
        self._rs_l.append(line << 6)
        self._rs_ft.append(entry[0])
        self._rs_m.append(entry[2])
        self._rs_rt.append(t)
        del self._track[line]

    # -- closure -----------------------------------------------------------------

    def finish(self) -> SimResult:
        if self._result is not None:
            return self._result
        self._seen.clear()
        self._blocks.clear()
        self._memo.clear()
        self._misses.clear()
        flush_time = self._clock + self._req_lat if self._n_accesses else 0
        # Resolve every outstanding fill, then write back dirty lines once
        # each (the freshest copy wins; deeper stale copies are subsumed).
        for line in sorted(self._track):
            self._finalize(line, self._track[line], flush_time)
        flushed = set()
        for level in self._levels:
            for st in level["sets"]:
                for line, rec in st.items():
                    if rec[1] and line not in flushed:
                        flushed.add(line)
        for line in sorted(flushed):
            self._rq_t.append(flush_time)
            self._rq_k.append(REQ_WRITEBACK)
            self._rq_l.append(line << 6)
            self._rq_c.append(CAUSE_NONE)
            self._rq_o.append(self._n_accesses)
        req_time = np.frombuffer(self._rq_t, dtype=np.int64).copy()
        self._result = SimResult(
            req_time=req_time,
            req_kind=np.frombuffer(self._rq_k, dtype=np.uint8).copy(),
            req_line=np.frombuffer(self._rq_l, dtype=np.int64).copy(),
            req_cause=np.frombuffer(self._rq_c, dtype=np.uint8).copy(),
            req_ord=np.frombuffer(self._rq_o, dtype=np.int64).copy(),
            res_line=np.frombuffer(self._rs_l, dtype=np.int64).copy(),
            res_fill_time=np.frombuffer(self._rs_ft, dtype=np.int64).copy(),
            res_mask=np.frombuffer(self._rs_m, dtype=np.uint16).copy(),
            res_time=np.frombuffer(self._rs_rt, dtype=np.int64).copy(),
            t_start=int(req_time[0]) if len(req_time) else 0,
            t_end=int(req_time[-1]) if len(req_time) else 0,
            n_accesses=self._n_accesses,
            n_stall_cycles=self._stalls,
        )
        return self._result

