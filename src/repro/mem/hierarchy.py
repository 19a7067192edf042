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
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.config import MachineConfig
from repro.errors import MemoryError_
from repro.isa.operations import RmwKind
from repro.mem.address import AddressMap
from repro.mem.cache import CacheArray
from repro.mem.directory import Directory, DirectoryEntry, LineState
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
_MODIFIED = LineState.MODIFIED
_TEST_AND_SET = RmwKind.TEST_AND_SET
_FETCH_AND_INC = RmwKind.FETCH_AND_INC
_FETCH_AND_ADD = RmwKind.FETCH_AND_ADD
_SWAP = RmwKind.SWAP
_COMPARE_AND_SWAP = RmwKind.COMPARE_AND_SWAP


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
        "directory", "dram", "_l1", "_values", "_l2_resident", "_line_busy_until",
        "_waiters",
    )
    REBUILT = (
        "sim", "config", "mesh", "stats", "address_map", "_line_bytes",
        "_l1_latency", "_l2_latency", "_num_cores", "_num_controllers",
        "_reads_counter", "_read_misses_counter", "_writes_counter",
        "_write_misses_counter", "_atomics_counter", "_spin_waits_counter",
        "_spin_wakeups_counter", "_l2_fills_counter", "_owner_forwards_counter",
        "_invalidations_counter",
    )

    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        mesh: MeshNetwork,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.mesh = mesh
        self.stats = stats if stats is not None else StatsRegistry()
        self.address_map = AddressMap(config.cache, config.memory, config.num_cores)
        self.directory = Directory()
        self.dram = DramModel(config.memory, self.stats)
        self._l1 = [
            CacheArray(
                num_sets=config.cache.l1_sets,
                associativity=config.cache.l1_assoc,
                line_bytes=config.cache.line_bytes,
                name=f"l1[{core}]",
            )
            for core in range(config.num_cores)
        ]
        self._values: Dict[int, int] = {}
        self._l2_resident: set = set()
        self._line_busy_until: Dict[int, int] = {}
        self._waiters: Dict[int, List[_Waiter]] = {}
        # Flyweight stat handles, bound once: memory operations are the
        # hottest call sites in the whole simulator, and per-access
        # string-keyed registry lookups are pure overhead.
        # Hot-path constants hoisted out of the config object chains.
        self._line_bytes = config.cache.line_bytes
        self._l1_latency = config.cache.l1_latency
        self._l2_latency = config.cache.l2_latency
        self._num_cores = config.num_cores
        self._num_controllers = config.memory.controllers
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

    def l1_cache(self, core: int) -> CacheArray:
        return self._l1[core]

    # ----------------------------------------------------------------- reads
    def read(self, core: int, addr: int, size: int = 8) -> Tuple[int, int]:
        """Load; returns ``(value, completion_cycle)``."""
        if not 0 <= core < self._num_cores:
            raise MemoryError_(f"core {core} out of range")
        now = self.sim.now
        word = (addr // size) * size
        line = addr // self._line_bytes
        self._reads_counter.value += 1
        entry = self.directory.entry(line)
        if self._l1[core].lookup(line) and entry.has_copy(core):
            return self._values.get(word, 0), now + self._l1_latency
        self._read_misses_counter.value += 1
        completion = self._miss_transaction(core, line, now, for_write=False, entry=entry)
        self._fill_l1(core, line)
        self.directory.record_read(line, core, entry)
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
        entry = self.directory.entry(line)
        if (
            entry.state is _MODIFIED
            and entry.owner == core
            and self._l1[core].lookup(line)
        ):
            completion = now + self._l1_latency
        else:
            self._write_misses_counter.value += 1
            completion = self._miss_transaction(core, line, now, for_write=True, entry=entry)
            self._fill_l1(core, line)
        self.directory.record_write(line, core, entry)
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
        entry = self.directory.entry(line)
        if (
            entry.state is _MODIFIED
            and entry.owner == core
            and self._l1[core].lookup(line)
        ):
            completion = now + self._l1_latency
        else:
            completion = self._miss_transaction(core, line, now, for_write=True, entry=entry)
            self._fill_l1(core, line)
        self.directory.record_write(line, core, entry)
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
            self.sim.schedule(self.config.cache.l1_latency, callback, value)
            return
        # Spinning keeps a shared copy resident so the writer must invalidate it.
        line = self.address_map.line_of(addr)
        self._fill_l1(core, line)
        self.directory.record_read(line, core)
        self._waiters.setdefault(word, []).append(
            _Waiter(core=core, predicate=predicate, callback=callback)
        )
        self._spin_waits_counter.add()

    def waiter_count(self, addr: int) -> int:
        """Number of parked spinners on a word (useful for tests)."""
        return len(self._waiters.get(self.address_map.word_of(addr), []))

    # ---------------------------------------------------------------- internal
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
        row = self.mesh.flight_row((word // self._line_bytes) % self._num_cores, LINE_BITS)
        base = write_completion + self._l2_latency
        now = self.sim.now
        schedule = self.sim.schedule
        for index, waiter in enumerate(woken):
            delay = base + row[waiter.core] + index * REFILL_SERIALIZATION - now
            schedule(delay if delay > 0 else 0, waiter.callback, value)
        self._spin_wakeups_counter.value += len(woken)

    def _miss_transaction(
        self,
        core: int,
        line: int,
        now: int,
        for_write: bool,
        entry: Optional["DirectoryEntry"] = None,
    ) -> int:
        """Timing of a miss/upgrade transaction through the home bank."""
        # line % num_cores == AddressMap.home_bank(line * line_bytes); the
        # direct form skips re-deriving the line from a synthesized address.
        home = line % self._num_cores
        unicast = self.mesh.unicast
        # Miss detected in L1, request travels to the home bank.
        t = now + self._l1_latency
        t = unicast(t, core, home, REQUEST_BITS)
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
        if entry is None:
            entry = self.directory.entry(line)
        # Fetch the dirty copy from a remote owner if there is one.
        if entry.state is _MODIFIED and entry.owner is not None and entry.owner != core:
            t = unicast(t, home, entry.owner, REQUEST_BITS)
            t += self._l1_latency
            t = unicast(t, entry.owner, home, LINE_BITS)
            self._owner_forwards_counter.value += 1
        # Writes must invalidate every other copy and collect acks.
        if for_write:
            targets = self.directory.invalidation_targets(line, core, entry)
            if targets:
                # Flight latency is symmetric: the home bank's row times both
                # the invalidation and its ack.
                row = self.mesh.flight_row(home, REQUEST_BITS)
                l1 = self._l1
                ack_time = t
                for index, target in enumerate(sorted(targets) if len(targets) > 1 else targets):
                    l1[target].invalidate(line)
                    ack = t + index * INVALIDATION_ISSUE + 2 * row[target]
                    if ack > ack_time:
                        ack_time = ack
                self._invalidations_counter.value += len(targets)
                t = ack_time
        self._line_busy_until[line] = t
        # Data/ownership grant returns to the requester.
        return unicast(t, home, core, LINE_BITS)

    def _fill_l1(self, core: int, line: int) -> None:
        victim = self._l1[core].fill(line)
        if victim is not None:
            self.directory.evict(victim, core)


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
