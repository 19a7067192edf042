"""Time-travel debugging: step a simulation backward as cheaply as forward.

:class:`TimeTravelDebugger` drives one :class:`~repro.snapshot.execution.
SpecExecution` forward in event steps, banking an auto-snapshot into a
:class:`~repro.snapshot.ring.CheckpointRing` at every interval boundary.
Travelling backward (``back``/``goto``) restores the newest banked snapshot
at or before the target and advances the remainder.  The restore is native,
i.e. O(machine state), so stepping 2 events back out of 2 million costs
about as much as stepping 2 events forward.

Determinism makes revisiting exact: a restored-and-re-advanced machine is
bit-identical to the one originally observed (the restore itself is
verified against the snapshot's native sections), so the debugger's
timeline is stable no matter how many times it is traversed.

:class:`DebugSession` is the ``repro debug`` command interpreter built on
top; it is driven interactively from stdin or scripted via ``--exec``.
"""

from __future__ import annotations

import json
import shlex
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.errors import ReproError, SnapshotError
from repro.runner.spec import RunSpec
from repro.snapshot.execution import DEFAULT_MAX_EVENTS, SpecExecution
from repro.snapshot.format import Snapshot, save_snapshot
from repro.snapshot.ring import CheckpointRing

#: Auto-snapshot cadence when the user does not pick one: frequent enough
#: that ``back`` lands close to where you were, cheap enough to forget.
DEFAULT_INTERVAL = 5_000
#: Ring capacity: how far the reachable past stretches (the run's start is
#: pinned outside the ring, so event 0 is always reachable).
DEFAULT_RING = 16


class TimeTravelDebugger:
    """One spec's simulation with a navigable past."""

    def __init__(
        self,
        spec: Optional[RunSpec] = None,
        snapshot: Optional[Snapshot] = None,
        interval: int = DEFAULT_INTERVAL,
        capacity: int = DEFAULT_RING,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        if (spec is None) == (snapshot is None):
            raise ReproError(
                "the debugger starts from exactly one of a spec or a snapshot"
            )
        if interval < 1:
            raise ReproError(f"--interval must be >= 1 events, got {interval}")
        self.interval = interval
        self.max_events = max_events
        self.ring = CheckpointRing(capacity)
        if snapshot is not None:
            self.execution = SpecExecution.from_snapshot(snapshot, max_events=max_events)
            self._genesis = snapshot
        else:
            self.execution = SpecExecution(spec, max_events=max_events)
            self._genesis = self.execution.capture()
        #: Strategy of the most recent backward/lateral restore (None while
        #: only ever having moved forward).
        self.last_restore: Optional[str] = None

    # -------------------------------------------------------------- position
    @property
    def spec(self) -> RunSpec:
        return self.execution.spec

    @property
    def events(self) -> int:
        return self.execution.events_processed

    @property
    def clock(self) -> int:
        return self.execution.clock

    def complete(self) -> bool:
        return self.execution.complete()

    # ------------------------------------------------------------- movement
    def step(self, events: Optional[int] = None) -> int:
        """Advance ``events`` (default: one interval); returns events fired."""
        if events is not None and events < 1:
            raise ReproError(f"step size must be >= 1 events, got {events}")
        return self._advance_to(self.events + (events or self.interval))

    def run(self) -> int:
        """Advance until the run completes (or its event budget drains)."""
        return self._advance_to(self.max_events)

    def goto(self, target: int) -> Dict[str, Any]:
        """Travel to exactly ``target`` events, in either direction.

        Launches from the best banked moment at or before the target — the
        current position if it qualifies, else a ring entry, else the
        pinned genesis — and advances the difference.  Returns a summary of
        the hop: where it launched from and which restore strategy paid for
        the backward part (``None`` for a pure forward advance).
        """
        if target < self._genesis.events_processed:
            raise ReproError(
                f"cannot travel to event {target}: this session starts at "
                f"event {self._genesis.events_processed}"
            )
        restored: Optional[str] = None
        launch = self.events
        best = self.ring.newest_at_or_before(target)
        candidate: Optional[Snapshot] = None
        if target < self.events or (best is not None and best.events > self.events):
            # Backward, or forward past a banked moment we can jump to.
            candidate = best.load() if best is not None else self._genesis
        if candidate is not None:
            self.execution = SpecExecution.from_snapshot(
                candidate, max_events=self.max_events
            )
            restored = candidate.strategy
            self.last_restore = restored
            launch = candidate.events_processed
        self._advance_to(target)
        return {
            "target": target,
            "events": self.events,
            "launched_from": launch,
            "restored": restored,
        }

    def back(self, checkpoints: int = 1) -> Dict[str, Any]:
        """Hop ``checkpoints`` banked moments into the past (min: genesis)."""
        if checkpoints < 1:
            raise ReproError(f"back must hop >= 1 checkpoints, got {checkpoints}")
        past = [e.events for e in self.ring.entries() if e.events < self.events]
        if len(past) >= checkpoints:
            target = past[-checkpoints]
        else:
            target = self._genesis.events_processed
        return self.goto(target)

    def _advance_to(self, target: int) -> int:
        """Advance to ``target`` events, banking a snapshot per interval."""
        fired_total = 0
        while self.events < target and not self.execution.complete():
            fired = self.execution.advance(min(self.interval, target - self.events))
            if fired == 0:
                break  # event budget exhausted; inspect() will say so
            fired_total += fired
            if not self.execution.complete():
                self.ring.push(self.execution.capture())
        return fired_total

    # ------------------------------------------------------------ inspection
    def inspect(self) -> Dict[str, Any]:
        """Where the simulation is and what past is reachable."""
        threads = [t.state.value for t in self.execution.machine.threads]
        states = {state: threads.count(state) for state in sorted(set(threads))}
        return {
            "spec": self.spec.label(),
            "events": self.events,
            "clock": self.clock,
            "complete": self.complete(),
            "threads": states,
            "interval": self.interval,
            "ring": [entry.events for entry in self.ring.entries()],
            "genesis": self._genesis.events_processed,
            "last_restore": self.last_restore,
        }

    def threads(self) -> List[Dict[str, Any]]:
        """Per-thread progress: state, frame stack, ops."""
        rows: List[Dict[str, Any]] = []
        for thread in self.execution.machine.threads:
            if thread.frames is not None:
                stack = [f"{frame.routine}@{frame.label}" for frame in thread.frames]
                body = " > ".join(stack) if stack else "(empty stack)"
            else:
                body = "(finished)"
            rows.append(
                {
                    "thread": thread.thread_id,
                    "core": thread.core_id,
                    "state": thread.state.value,
                    "body": body,
                    "operations": thread.operations_issued,
                }
            )
        return rows

    def stats(self, prefix: str = "") -> Dict[str, Any]:
        """The machine's stats counters, optionally filtered by prefix."""
        counters = self.execution.machine.stats.to_dict().get("counters", {})
        return {
            name: value
            for name, value in sorted(counters.items())
            if name.startswith(prefix)
        }

    def save(self, path: str) -> Snapshot:
        """Write the current moment as an ordinary snapshot file."""
        snapshot = self.execution.capture()
        save_snapshot(snapshot, path)
        return snapshot

    def result(self) -> Dict[str, Any]:
        """Finish-line summary once the run is complete."""
        if not self.complete():
            raise ReproError(
                f"the run is still in flight at {self.events} events; "
                f"'continue' to the end first"
            )
        return self.execution.result().to_dict()


_HELP = """\
commands (unique prefixes work, e.g. 's 100', 'b', 'g 2000'):
  step [N]      advance N events (default: one auto-snapshot interval)
  continue      run to completion, auto-snapshotting along the way
  back [K]      hop K banked checkpoints into the past (O(state) restore)
  goto EVENTS   travel to an exact event count, forward or backward
  inspect       position, thread-state census, reachable past
  threads       per-thread state and frame stack
  stats [PFX]   stats counters, optionally filtered by prefix
  save PATH     write the current moment as a snapshot file
  result        final SimResult (once complete)
  help          this text
  quit          leave the debugger"""


class DebugSession:
    """The ``repro debug`` command interpreter over a TimeTravelDebugger."""

    def __init__(
        self,
        debugger: TimeTravelDebugger,
        emit: Callable[[str], None] = print,
    ) -> None:
        self.debugger = debugger
        self.emit = emit

    # ---------------------------------------------------------------- loop
    def run(self, commands: Iterable[str]) -> int:
        """Execute commands until exhausted or 'quit'; returns an exit code."""
        self.emit(
            f"debugging [{self.debugger.spec.label()}] at event "
            f"{self.debugger.events} (cycle {self.debugger.clock}); "
            f"'help' lists commands"
        )
        for line in commands:
            try:
                if not self.execute(line):
                    break
            except (ReproError, SnapshotError) as error:
                self.emit(f"error: {error}")
        return 0

    def execute(self, line: str) -> bool:
        """One command; returns False when the session should end."""
        words = shlex.split(line.strip())
        if not words:
            return True
        command, args = words[0].lower(), words[1:]
        handler = self._resolve(command)
        if handler is None:
            self.emit(f"unknown command {command!r}; 'help' lists commands")
            return True
        return handler(args)

    def _resolve(self, command: str) -> Optional[Callable[[List[str]], bool]]:
        table = {
            "step": self._cmd_step,
            "continue": self._cmd_continue,
            "back": self._cmd_back,
            "goto": self._cmd_goto,
            "inspect": self._cmd_inspect,
            "threads": self._cmd_threads,
            "stats": self._cmd_stats,
            "save": self._cmd_save,
            "result": self._cmd_result,
            "help": self._cmd_help,
            "quit": self._cmd_quit,
        }
        matches = sorted(name for name in table if name.startswith(command))
        if len(matches) == 1:
            return table[matches[0]]
        if command in table:  # exact name wins over a prefix collision
            return table[command]
        if matches:
            self.emit(f"ambiguous command {command!r}: {' or '.join(matches)}")
            return self._cmd_noop
        return None

    def _cmd_noop(self, args: List[str]) -> bool:
        return True

    # ------------------------------------------------------------- commands
    def _int(self, args: List[str], what: str) -> int:
        if len(args) != 1:
            raise ReproError(f"{what} takes exactly one number")
        try:
            return int(args[0])
        except ValueError:
            raise ReproError(f"{what} must be an integer, got {args[0]!r}")

    def _position(self) -> str:
        d = self.debugger
        tail = " (complete)" if d.complete() else ""
        return f"at event {d.events}, cycle {d.clock}{tail}"

    def _cmd_step(self, args: List[str]) -> bool:
        events = self._int(args, "step") if args else None
        fired = self.debugger.step(events)
        self.emit(f"stepped {fired} events; {self._position()}")
        return True

    def _cmd_continue(self, args: List[str]) -> bool:
        fired = self.debugger.run()
        self.emit(f"ran {fired} events; {self._position()}")
        return True

    def _cmd_back(self, args: List[str]) -> bool:
        hops = self._int(args, "back") if args else 1
        hop = self.debugger.back(hops)
        self.emit(self._describe_hop(hop))
        return True

    def _cmd_goto(self, args: List[str]) -> bool:
        hop = self.debugger.goto(self._int(args, "goto"))
        self.emit(self._describe_hop(hop))
        return True

    def _describe_hop(self, hop: Dict[str, Any]) -> str:
        if hop["restored"] is None:
            return f"advanced; {self._position()}"
        replayed = hop["events"] - hop["launched_from"]
        return (
            f"travelled via {hop['restored']} restore of checkpoint "
            f"@{hop['launched_from']} (+{replayed} events); {self._position()}"
        )

    def _cmd_inspect(self, args: List[str]) -> bool:
        self.emit(json.dumps(self.debugger.inspect(), indent=2))
        return True

    def _cmd_threads(self, args: List[str]) -> bool:
        for row in self.debugger.threads():
            self.emit(
                f"  t{row['thread']:<3} core {row['core']:<3} "
                f"{row['state']:<8} ops={row['operations']:<6} {row['body']}"
            )
        return True

    def _cmd_stats(self, args: List[str]) -> bool:
        prefix = args[0] if args else ""
        self.emit(json.dumps(self.debugger.stats(prefix), indent=2))
        return True

    def _cmd_save(self, args: List[str]) -> bool:
        if len(args) != 1:
            raise ReproError("save takes exactly one path")
        snapshot = self.debugger.save(args[0])
        self.emit(
            f"saved {snapshot.strategy} snapshot at event "
            f"{snapshot.events_processed} to {args[0]}"
        )
        return True

    def _cmd_result(self, args: List[str]) -> bool:
        self.emit(json.dumps(self.debugger.result(), indent=2, sort_keys=True))
        return True

    def _cmd_help(self, args: List[str]) -> bool:
        self.emit(_HELP)
        return True

    def _cmd_quit(self, args: List[str]) -> bool:
        return False


def script_commands(script: str) -> List[str]:
    """Split an ``--exec`` script into commands (';'-separated)."""
    return [part.strip() for part in script.split(";") if part.strip()]
