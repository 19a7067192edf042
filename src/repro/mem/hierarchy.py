"""The full cached-memory hierarchy: L1s, distributed L2, directory, DRAM.

This is the substrate used by *regular* variables (and by all
synchronization in the Baseline and Baseline+ configurations).  It is a
transaction-level model: every access immediately computes its completion
cycle from current cache/directory state, mesh distances, and serialization
at the home L2 bank, and updates that state.  Spin-waiting is expressed with
:meth:`MemorySystem.wait_until`, which models invalidation-based waiting:
waiters are re-notified when a writer updates the location and their refills
serialize at the home bank — the effect that makes centralized barriers and
contended locks expensive at high core counts.

:class:`MemorySystem` holds the whole coherence state as its own ``STATE``:
every core's L1 tag sets (LRU, tags only; values live in one functional
store) and one :class:`DirectoryEntry` per line.  A core's L1 holds a line
exactly when the line's entry lists that core as a sharer or as the owner,
so the L1 tags alone decide a hit, and a miss is one pass: it times each
mesh leg from the home bank's flight rows, invalidates the other copies,
updates the entry and fills the requester's L1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.config import MachineConfig
from repro.errors import ConfigurationError, MemoryError_
from repro.isa.operations import RmwKind
from repro.mem.address import AddressMap
from repro.mem.dram import DramModel
from repro.noc.mesh import MeshNetwork
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry

#: Cycles the home bank is occupied serving each refill to a waiting spinner.
REFILL_SERIALIZATION = 3
#: Cycles the home bank needs to issue each invalidation message.
INVALIDATION_ISSUE = 1
#: Request/response message sizes in bits (address-only vs full line).
REQUEST_BITS = 64
LINE_BITS = 512

# Enum members bound once, so the per-access paths read module globals: on
# Python 3.11 ``EnumType.__getattr__`` makes every ``Kind.MEMBER`` read
# take the slow generic attribute path.
_TEST_AND_SET = RmwKind.TEST_AND_SET
_FETCH_AND_INC = RmwKind.FETCH_AND_INC
_FETCH_AND_ADD = RmwKind.FETCH_AND_ADD
_SWAP = RmwKind.SWAP
_COMPARE_AND_SWAP = RmwKind.COMPARE_AND_SWAP


@dataclass(slots=True)
class DirectoryEntry:
    """The cores holding one line: a dirty owner, or clean sharers, not both."""

    owner: Optional[int] = None
    sharers: Set[int] = field(default_factory=set)


class _Waiter:
    __slots__ = ("core", "predicate", "callback")

    def __init__(
        self,
        core: int,
        predicate: Callable[[int], bool],
        callback: Callable[[int], None],
    ) -> None:
        self.core = core
        self.predicate = predicate
        self.callback = callback


class MemorySystem:
    """Timing + functional model of the coherent cached memory."""

    STATE = (
        "dram", "_l1_tags", "_directory", "_values", "_l2_resident", "_line_busy_until",
        "_waiters",
    )
    REBUILT = (
        "sim", "config", "mesh", "stats", "address_map", "_line_bytes", "_l1_sets",
        "_l1_assoc", "_l1_latency", "_l2_latency", "_num_cores", "_num_controllers",
        "_request_flits", "_line_flits", "_home_rows", "_reads_counter",
        "_read_misses_counter", "_writes_counter", "_write_misses_counter",
        "_atomics_counter", "_spin_waits_counter", "_spin_wakeups_counter",
        "_l2_fills_counter", "_owner_forwards_counter", "_invalidations_counter",
    )

    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        mesh: MeshNetwork,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        if config.cache.l1_sets <= 0:
            raise ConfigurationError("L1 geometry must give at least one set")
        self.sim = sim
        self.config = config
        self.mesh = mesh
        self.stats = stats if stats is not None else StatsRegistry()
        self.address_map = AddressMap(config.cache, config.memory, config.num_cores)
        self.dram = DramModel(config.memory, self.stats)
        # Per core: set index -> resident lines, least recently used first.
        # A set is created by its first fill.
        self._l1_tags: List[Dict[int, List[int]]] = [{} for _ in range(config.num_cores)]
        # line -> its holders; created by the line's first miss or spin wait.
        self._directory: Dict[int, DirectoryEntry] = {}
        self._values: Dict[int, int] = {}
        self._l2_resident: set = set()
        self._line_busy_until: Dict[int, int] = {}
        self._waiters: Dict[int, List[_Waiter]] = {}
        # Hot-path constants hoisted out of the config object chains.
        self._line_bytes = config.cache.line_bytes
        self._l1_sets = config.cache.l1_sets
        self._l1_assoc = config.cache.l1_assoc
        self._l1_latency = config.cache.l1_latency
        self._l2_latency = config.cache.l2_latency
        self._num_cores = config.num_cores
        self._num_controllers = config.memory.controllers
        self._request_flits = config.noc.cycles_per_flit(REQUEST_BITS)
        self._line_flits = config.noc.cycles_per_flit(LINE_BITS)
        # Per home bank: its (request, line) flight rows, read on first use.
        self._home_rows: List[Optional[Tuple[List[int], List[int]]]] = (
            [None] * config.num_cores
        )
        # Flyweight stat handles, bound once: memory operations are the
        # hottest call sites in the whole simulator, and per-access
        # string-keyed registry lookups are pure overhead.
        stats = self.stats
        self._reads_counter = stats.counter("mem/reads")
        self._read_misses_counter = stats.counter("mem/read_misses")
        self._writes_counter = stats.counter("mem/writes")
        self._write_misses_counter = stats.counter("mem/write_misses")
        self._atomics_counter = stats.counter("mem/atomics")
        self._spin_waits_counter = stats.counter("mem/spin_waits")
        self._spin_wakeups_counter = stats.counter("mem/spin_wakeups")
        self._l2_fills_counter = stats.counter("mem/l2_fills")
        self._owner_forwards_counter = stats.counter("mem/owner_forwards")
        self._invalidations_counter = stats.counter("mem/invalidations")

    # ------------------------------------------------------------ functional
    def peek(self, addr: int) -> int:
        """Functional read without timing effects (for tests and debugging)."""
        return self._values.get(self.address_map.word_of(addr), 0)

    def poke(self, addr: int, value: int) -> None:
        """Functional write without timing effects (workload initialization)."""
        self._values[self.address_map.word_of(addr)] = value

    # ----------------------------------------------------------------- reads
    # The hit checks are inlined in read, write and atomic: they run once
    # per modelled memory access, and a helper call was pure overhead.  A hit
    # makes the line its set's most recent.  The owner's L1 always holds its
    # line, so ownership alone decides a write or atomic hit.
    def read(self, core: int, addr: int, size: int = 8) -> Tuple[int, int]:
        """Load; returns ``(value, completion_cycle)``."""
        if not 0 <= core < self._num_cores:
            raise MemoryError_(f"core {core} out of range")
        now = self.sim.now
        word = (addr // size) * size
        line = addr // self._line_bytes
        self._reads_counter.value += 1
        tags = self._l1_tags[core].get(line % self._l1_sets)
        if tags is not None and line in tags:
            if tags[-1] != line:
                tags.remove(line)
                tags.append(line)
            return self._values.get(word, 0), now + self._l1_latency
        self._read_misses_counter.value += 1
        completion = self._miss(core, line, now, False)
        return self._values.get(word, 0), completion

    # ---------------------------------------------------------------- writes
    def write(self, core: int, addr: int, value: int, size: int = 8) -> int:
        """Store; returns the completion cycle.  Waiters are re-checked."""
        if not 0 <= core < self._num_cores:
            raise MemoryError_(f"core {core} out of range")
        now = self.sim.now
        word = (addr // size) * size
        line = addr // self._line_bytes
        self._writes_counter.value += 1
        entry = self._directory.get(line)
        if entry is not None and entry.owner == core:
            tags = self._l1_tags[core][line % self._l1_sets]
            if tags[-1] != line:
                tags.remove(line)
                tags.append(line)
            completion = now + self._l1_latency
        else:
            self._write_misses_counter.value += 1
            completion = self._miss(core, line, now, True)
        self._values[word] = value
        if word in self._waiters:
            self._notify_waiters(word, value, completion)
        return completion

    # --------------------------------------------------------------- atomics
    def atomic(
        self,
        core: int,
        addr: int,
        kind: RmwKind,
        operand: int = 1,
        expected: int = 0,
    ) -> Tuple[int, bool, int]:
        """Atomic RMW; returns ``(old_value, success, completion_cycle)``.

        Every atomic obtains exclusive ownership of the line at the home
        bank, so contended atomics on the same line serialize there — which
        is exactly why CAS-based synchronization struggles at high core
        counts in the Baseline configurations.
        """
        if not 0 <= core < self._num_cores:
            raise MemoryError_(f"core {core} out of range")
        now = self.sim.now
        word = (addr // 8) * 8
        line = addr // self._line_bytes
        self._atomics_counter.value += 1
        entry = self._directory.get(line)
        if entry is not None and entry.owner == core:
            tags = self._l1_tags[core][line % self._l1_sets]
            if tags[-1] != line:
                tags.remove(line)
                tags.append(line)
            completion = now + self._l1_latency
        else:
            completion = self._miss(core, line, now, True)
        old = self._values.get(word, 0)
        new, success = apply_rmw(kind, old, operand, expected)
        if success:
            self._values[word] = new
            if word in self._waiters:
                self._notify_waiters(word, new, completion)
        return old, success, completion

    # ----------------------------------------------------------- spin waits
    def wait_until(
        self,
        core: int,
        addr: int,
        predicate: Callable[[int], bool],
        callback: Callable[[int], None],
    ) -> None:
        """Invoke ``callback(value)`` once ``predicate(value)`` holds.

        If it already holds, the callback is scheduled after an L1-hit
        latency (the spinner re-reads its cached copy).  Otherwise the waiter
        is parked and woken by the write that satisfies the predicate, with
        refill latency plus serialization among simultaneously woken waiters.
        """
        if not 0 <= core < self._num_cores:
            raise MemoryError_(f"core {core} out of range")
        word = self.address_map.word_of(addr)
        value = self._values.get(word, 0)
        if predicate(value):
            self.sim.schedule(self._l1_latency, callback, value)
            return
        # Spinning keeps a shared copy resident so the writer must invalidate it.
        line = self.address_map.line_of(addr)
        entry = self._directory.get(line)
        if entry is None:
            entry = self._directory[line] = DirectoryEntry()
        self._grant(core, line, entry, False)
        self._waiters.setdefault(word, []).append(
            _Waiter(core=core, predicate=predicate, callback=callback)
        )
        self._spin_waits_counter.add()

    def waiter_count(self, addr: int) -> int:
        """Number of parked spinners on a word (useful for tests)."""
        return len(self._waiters.get(self.address_map.word_of(addr), []))

    # ---------------------------------------------------------------- internal
    def _rows_of(self, home: int) -> Tuple[List[int], List[int]]:
        """The home bank's request- and line-sized flight rows."""
        rows = self._home_rows[home] = (
            self.mesh.flight_row(home, REQUEST_BITS),
            self.mesh.flight_row(home, LINE_BITS),
        )
        return rows

    def _notify_waiters(self, word: int, value: int, write_completion: int) -> None:
        waiters = self._waiters.get(word)
        if not waiters:
            return
        still_waiting: List[_Waiter] = []
        woken: List[_Waiter] = []
        for waiter in waiters:
            if waiter.predicate(value):
                woken.append(waiter)
            else:
                still_waiting.append(waiter)
        if still_waiting:
            self._waiters[word] = still_waiting
        else:
            self._waiters.pop(word, None)
        if not woken:
            return
        # Invalidate + refill: each spinner's copy was invalidated by the
        # write; it re-fetches the line from the home bank, which serves the
        # refills one at a time.
        home = (word // self._line_bytes) % self._num_cores
        row = (self._home_rows[home] or self._rows_of(home))[1]
        base = write_completion + self._l2_latency
        now = self.sim.now
        schedule = self.sim.schedule
        for index, waiter in enumerate(woken):
            delay = base + row[waiter.core] + index * REFILL_SERIALIZATION - now
            schedule(delay if delay > 0 else 0, waiter.callback, value)
        self._spin_wakeups_counter.value += len(woken)

    def _miss(self, core: int, line: int, now: int, exclusive: bool) -> int:
        """One miss or upgrade through the line's home bank; returns the cycle
        the grant reaches ``core``, which then holds the line (as its owner
        when ``exclusive``).

        Flight latency is symmetric, so the home bank's two rows time every
        leg, to the home bank and from it.
        """
        # line % num_cores == AddressMap.home_bank(line * line_bytes); the
        # direct form skips re-deriving the line from a synthesized address.
        home = line % self._num_cores
        request_row, line_row = self._home_rows[home] or self._rows_of(home)
        request_flits = self._request_flits
        line_flits = self._line_flits
        unicast = self.mesh.unicast
        # Miss detected in L1, request travels to the home bank.
        t = unicast(now + self._l1_latency, core, home, request_row[core], request_flits)
        # Conflicting transactions on the same line serialize at the home bank.
        busy = self._line_busy_until.get(line, 0)
        if busy > t:
            t = busy
        # L2 lookup; first touch of a line comes from DRAM.
        if line in self._l2_resident:
            t += self._l2_latency
        else:
            t = self.dram.access(t, line % self._num_controllers)
            self._l2_resident.add(line)
            self._l2_fills_counter.value += 1
        entry = self._directory.get(line)
        if entry is None:
            entry = self._directory[line] = DirectoryEntry()
        owner = entry.owner
        # Fetch the dirty copy from a remote owner if there is one.
        if owner is not None and owner != core:
            t = unicast(t, home, owner, request_row[owner], request_flits)
            t = unicast(t + self._l1_latency, owner, home, line_row[owner], line_flits)
            self._owner_forwards_counter.value += 1
        # Writes must invalidate every other copy and collect acks; the
        # home bank's request row times both the invalidation and its ack.
        if exclusive:
            targets = entry.sharers
            targets.discard(core)
            if owner is not None and owner != core:
                targets.add(owner)
            if targets:
                l1_tags = self._l1_tags
                index = line % self._l1_sets
                ack_time = t
                for rank, target in enumerate(sorted(targets) if len(targets) > 1 else targets):
                    l1_tags[target][index].remove(line)
                    ack = t + rank * INVALIDATION_ISSUE + 2 * request_row[target]
                    if ack > ack_time:
                        ack_time = ack
                self._invalidations_counter.value += len(targets)
                t = ack_time
        self._line_busy_until[line] = t
        self._grant(core, line, entry, exclusive)
        # Data/ownership grant returns to the requester.
        return unicast(t, home, core, line_row[core], line_flits)

    def _grant(self, core: int, line: int, entry: DirectoryEntry, exclusive: bool) -> None:
        """Record ``core``'s copy of ``line`` in its entry and fill its L1.

        An exclusive grant leaves ``core`` the only holder (the caller has
        invalidated every other copy); a shared one downgrades a dirty owner
        to a sharer.  A line the fill evicts (LRU) leaves its entry.
        """
        if exclusive:
            entry.owner = core
            entry.sharers.clear()
        else:
            owner = entry.owner
            if owner is not None:
                entry.sharers.add(owner)
                entry.owner = None
            entry.sharers.add(core)
        sets = self._l1_tags[core]
        index = line % self._l1_sets
        tags = sets.get(index)
        if tags is None:
            sets[index] = [line]
        elif line in tags:
            if tags[-1] != line:
                tags.remove(line)
                tags.append(line)
        else:
            if len(tags) >= self._l1_assoc:
                victim = self._directory[tags.pop(0)]
                victim.sharers.discard(core)
                if victim.owner == core:
                    victim.owner = None
            tags.append(line)


def apply_rmw(kind: RmwKind, old: int, operand: int, expected: int) -> Tuple[int, bool]:
    """Functional semantics of the RMW kinds; returns ``(new_value, success)``."""
    # Commonest kind first: CAS is the most frequent RMW in every workload.
    if kind is _COMPARE_AND_SWAP:
        if old == expected:
            return operand, True
        return old, False
    if kind is _FETCH_AND_INC:
        return old + 1, True
    if kind is _FETCH_AND_ADD:
        return old + operand, True
    if kind is _SWAP:
        return operand, True
    if kind is _TEST_AND_SET:
        return 1, True
    raise MemoryError_(f"unsupported RMW kind {kind!r}")
