"""Machine-state codec: one generic capture and restore over declared state.

``capture_machine`` turns a live :class:`~repro.machine.manycore.Manycore`
into a JSON-canonical payload; ``restore_machine`` applies one to a *freshly
built* machine for the same spec (``begin()`` already called) and leaves it
cycle-exact at the captured point, in O(state), re-running no event.

The codec knows no simulator class by hand.  It reads two kinds of object:

* A *part* is an object the deterministic build creates (the machine, the
  engine, threads, cores, the memory system, channels, controllers, sync
  objects).  Its class declares ``STATE``, the attributes a checkpoint
  captures, and ``REBUILT``, the ones the build recreates; a subclass lists
  only its own names.  Capture first finds every part, descending only
  through parts' ``STATE`` attributes and plain lists and dicts, and records
  each part's path (parent part, attribute, container keys).  Restore resolves the same paths
  in the fresh machine and overwrites only ``STATE``, so every part keeps its
  identity: subsystems hold each other, and the stats flyweights, directly.
* A *record* is an object created at run time (channel attempts, pending
  sends and BM operations, waiters, frames, directory and BM entries).  Its
  state is its ``__slots__`` or dataclass fields, and its class, like every
  enum and NamedTuple a payload may name, is listed in :data:`REGISTRY`.
  Restore builds no other class.  A record reached twice is encoded once and
  referenced afterwards, so cycles (an RMW operation and the send whose hook
  is that operation's bound method) and sharing (a ticket and the in-flight
  send) survive the round trip.
* A callback is a bound method of a part or record, encoded as that object
  and the method's name.

The payload holds ``schema`` (the field list of every class it names),
``parts`` (one ``[class, parent, attribute, keys]`` path each), ``state``
(each part's ``STATE`` values, by position), ``stats``
(:meth:`StatsRegistry.to_dict`) and ``rng`` (the derivation tree's
``tree_getstate``).  Values are JSON-canonical: scalars as themselves, lists
as lists, and everything else as a one-key object whose key is a tag from
:data:`TAGS`.  Dicts keep their insertion order as flat key/value lists, and
sets, which DET002 keeps membership-only, are sorted.

Restore checks the payload before it writes anything: its schema must equal
the running code's declarations, and every part path must resolve to a part
of the recorded class.  The schema compares field names only, so a field
that changes shape (a dict that becomes a list, say) must change its name.  Otherwise it raises :class:`SnapshotError`, and
:meth:`SpecExecution.resume` runs the spec from scratch.  Capture is
read-only; a value it cannot describe (a thread parked on a lambda) raises
:class:`SnapshotError`.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import deque
from itertools import chain, repeat
from operator import attrgetter
from types import MethodType
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.bm_controller import PendingBmOp, RmwResult
from repro.core.broadcast_memory import BmEntry
from repro.core.fabric import _PendingRmw
from repro.core.fabric import _Waiter as _FabricWaiter
from repro.core.tone_controller import ActiveBEntry, AllocBEntry
from repro.cpu.frames import Frame
from repro.cpu.thread import ThreadState
from repro.errors import SnapshotError
from repro.isa.predicates import Eq, Ge, Lt, Ne
from repro.mem.hierarchy import DirectoryEntry
from repro.mem.hierarchy import _Waiter as _MemWaiter
from repro.sim.collector import gc_paused
from repro.sim.stats import StatsRegistry
from repro.wireless.channel import WirelessMessage, _Attempt
from repro.wireless.tone import _ActiveBarrier
from repro.wireless.transceiver import _PendingSend


def _name(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


#: Every class a payload may name other than a part: runtime records,
#: NamedTuples and enums.
REGISTRY: Dict[str, type] = {
    _name(cls): cls
    for cls in (
        _Attempt, _PendingSend, PendingBmOp, _PendingRmw, _FabricWaiter, _MemWaiter,
        Frame, DirectoryEntry, BmEntry, AllocBEntry, ActiveBEntry, _ActiveBarrier,
        Eq, Ne, Ge, Lt, WirelessMessage, RmwResult, ThreadState,
    )
}
_REGISTERED = frozenset(REGISTRY.values())

#: Value tags: a tuple, dict, set or deque; a part by index; a record's
#: first encoding and later references; a NamedTuple; an enum member; a
#: bound method of a part or record.
TAGS = ("T", "D", "S", "Q", "P", "R", "r", "N", "E", "M")

_PLAIN = frozenset({int, float, str, bool, type(None)})


def _declares(cls: type) -> bool:
    return any("STATE" in vars(k) or "REBUILT" in vars(k) for k in cls.__mro__)


def _union(cls: type, attribute: str) -> Tuple[str, ...]:
    names: List[str] = []
    for klass in reversed(cls.__mro__):
        names.extend(n for n in vars(klass).get(attribute, ()) if n not in names)
    return tuple(names)


def _fields_of(cls: type) -> Optional[List[Any]]:
    """The schema fields of a part, record, NamedTuple or enum class.

    A part's fields are its ``STATE``; an enum's are its member values.
    ``None`` means the codec cannot describe the class.
    """
    if _declares(cls):
        return list(_union(cls, "STATE"))
    if issubclass(cls, enum.Enum):
        return [member.value for member in cls]
    if issubclass(cls, tuple) and hasattr(cls, "_fields"):
        return list(cls._fields)
    if dataclasses.is_dataclass(cls):
        return [f.name for f in dataclasses.fields(cls)]
    if hasattr(cls, "__slots__"):
        return list(_union(cls, "__slots__"))
    return None


# -------------------------------------------------------------------- capture
class _Capture:
    """One capture: part discovery, then positional encoding."""

    def __init__(self) -> None:
        self.schema: List[list] = []
        self.classes: Dict[type, Tuple[int, Optional[List[Any]]]] = {}
        self.parts: Dict[int, int] = {}
        self.objects: List[Any] = []
        self.paths: List[list] = []
        self.records: Dict[int, int] = {}
        self.declared: Dict[type, bool] = {}
        self.encoders: Dict[type, Callable[[Any], Any]] = {
            list: self.items,
            dict: lambda value: {"D": self.pairs(value)},
            tuple: lambda value: {"T": self.items(value)},
            set: lambda value: {"S": self.items(sorted(value))},
            deque: lambda value: {"Q": self.items(value)},
            MethodType: self._method,
        }

    def kind(self, cls: type) -> Tuple[int, Optional[List[Any]]]:
        """``(schema index, fields)`` of a class, adding it on first use."""
        entry = self.classes.get(cls)
        if entry is None:
            fields = _fields_of(cls)
            entry = self.classes[cls] = (len(self.schema), fields)
            self.schema.append([_name(cls), fields])
        return entry

    def discover(self, root: Any) -> None:
        self._add(root, None, None, [])
        index = 0
        while index < len(self.objects):  # breadth first: parents precede children
            part = self.objects[index]
            for name in self.kind(type(part))[1]:
                self._scan(getattr(part, name), index, name, [])
            index += 1

    def _add(
        self, part: Any, parent: Optional[int], name: Optional[str], keys: list
    ) -> None:
        self.parts[id(part)] = len(self.objects)
        self.objects.append(part)
        self.paths.append([self.kind(type(part))[0], parent, name, keys])

    def _scan(self, value: Any, parent: int, name: str, keys: list) -> None:
        # Parts are owned through attributes, lists and dicts; a tuple (an
        # event, say) only refers to parts its owners already hold.
        cls = type(value)
        if cls is list:
            for key, item in enumerate(value):
                if type(item) not in _PLAIN:
                    self._scan(item, parent, name, keys + [key])
        elif cls is dict:
            for key, item in value.items():
                if type(item) not in _PLAIN:
                    self._scan(item, parent, name, keys + [key])
        elif id(value) not in self.parts:
            if cls not in self.declared:
                self.declared[cls] = _declares(cls)
            if self.declared[cls]:
                self._add(value, parent, name, keys)

    def encode(self, value: Any) -> Any:
        cls = type(value)
        if cls in _PLAIN:
            return value
        encoder = self.encoders.get(cls)
        if encoder is None:
            encoder = self.encoders[cls] = self._encoder(cls)
        return encoder(value)

    def items(self, values) -> List[Any]:
        return [item if type(item) in _PLAIN else self.encode(item) for item in values]

    def pairs(self, mapping: Dict[Any, Any]) -> List[Any]:
        return self.items(chain.from_iterable(mapping.items()))

    def _method(self, method: MethodType) -> Any:
        if getattr(type(method.__self__), method.__name__, None) is not method.__func__:
            raise SnapshotError(
                f"{method!r} is an opaque callable, not a method of its object"
            )
        return {"M": [self.encode(method.__self__), method.__name__]}

    def _encoder(self, cls: type) -> Callable[[Any], Any]:
        """The encoder of a part, record, NamedTuple or enum class."""
        parts, records, items = self.parts, self.records, self.items
        if _declares(cls):
            def part(value: Any) -> Any:
                if id(value) not in parts:
                    raise SnapshotError(f"{value!r} is a part no declared state reaches")
                return {"P": parts[id(value)]}
            return part
        if cls not in _REGISTERED:
            def opaque(value: Any) -> Any:
                raise SnapshotError(
                    f"{value!r} is an opaque callable or an object of a class the "
                    f"codec does not register; a checkpoint cannot capture it"
                )
            return opaque
        index, fields = self.kind(cls)
        if issubclass(cls, enum.Enum):
            return lambda value: {"E": [index, value.value]}
        if issubclass(cls, tuple):
            def named(value: Any) -> Any:  # a value, shared by identity
                if id(value) in records:
                    return {"r": records[id(value)]}
                body = [index, *items(value)]
                records[id(value)] = len(records)
                return {"N": body}
            return named
        get = attrgetter(*fields)
        single = len(fields) == 1

        def record(value: Any) -> Any:
            if id(value) in records:
                return {"r": records[id(value)]}
            records[id(value)] = len(records)
            return {"R": [index, *items((get(value),) if single else get(value))]}
        return record


def capture_machine(machine) -> Dict[str, Any]:
    """Serialize the complete runtime state of a live machine, read-only.

    Raises :class:`SnapshotError` if any live state is not describable.
    """
    capture = _Capture()
    with gc_paused():
        capture.discover(machine)
        state = [
            capture.items(getattr(part, name) for name in capture.kind(type(part))[1])
            for part in capture.objects
        ]
    return {
        "schema": capture.schema,
        "parts": capture.paths,
        "state": state,
        "stats": machine.stats.to_dict(),
        "rng": machine.rng.tree_getstate(),
    }


# -------------------------------------------------------------------- restore
def _changed(name: str, fields: List[Any], cls: Optional[type]) -> SnapshotError:
    return SnapshotError(
        f"the simulation code has changed since the checkpoint was "
        f"written: the checkpoint holds {name} as {fields}, the running "
        f"code declares {'no such class' if cls is None else _fields_of(cls)}"
    )


def _resolve(machine, payload: Dict[str, Any]) -> List[Any]:
    """Every part of the payload, found at its path in the fresh machine.

    A part's fields are checked when it is found, before any part below it
    is looked up, so a part the running code no longer holds is reported as
    a code change, not as an unresolvable path.
    """
    schema = payload["schema"]
    parts: List[Any] = []
    checked = set()
    for index, (cls_index, parent, name, keys) in enumerate(payload["parts"]):
        recorded, fields = schema[cls_index]
        try:
            part = machine if parent is None else getattr(parts[parent], name)
            for key in keys:
                part = part[key]
        except (AttributeError, LookupError, TypeError):
            part = None
        if _name(type(part)) != recorded or not _declares(type(part)):
            raise SnapshotError(
                f"part {index} ({recorded} at {name}{keys}) does not resolve to a "
                f"{recorded} in the rebuilt machine"
            )
        if cls_index not in checked:
            if _fields_of(type(part)) != fields:
                raise _changed(recorded, fields, type(part))
            checked.add(cls_index)
        parts.append(part)
    return parts


def restore_machine(machine, payload: Dict[str, Any]) -> None:
    """Apply a ``capture_machine`` payload to a freshly built machine.

    Raises :class:`SnapshotError`, before writing anything, when the
    payload's schema differs from the running code's declarations or a part
    path does not resolve to a part of the recorded class.
    """
    parts = _resolve(machine, payload)
    running = {_name(type(part)): type(part) for part in parts}
    classes: List[Optional[type]] = []
    for name, fields in payload["schema"]:
        cls = running.get(name) or REGISTRY.get(name)
        if cls is None or _fields_of(cls) != fields:
            raise _changed(name, fields, cls)
        classes.append(None if name in running else cls)
    fields = [names for _name_, names in payload["schema"]]
    records: List[Any] = []

    def decode(value: Any) -> Any:
        if type(value) is list:
            return [item if type(item) in _PLAIN else decode(item) for item in value]
        if type(value) is not dict:
            return value
        for tag, body in value.items():
            if tag == "P":
                return parts[body]
            return decoders[tag](body)

    def items(body: List[Any]) -> List[Any]:
        return [item if type(item) in _PLAIN else decode(item) for item in body]

    def pairs(body: List[Any]):
        values = iter(items(body))
        return zip(values, values)

    def registered(index: int) -> type:
        if classes[index] is None:
            raise SnapshotError(f"the payload builds {payload['schema'][index][0]}, a part")
        return classes[index]

    def record(body: List[Any]) -> Any:
        names = fields[body[0]]
        obj = object.__new__(registered(body[0]))
        records.append(obj)
        values = items(body[1:])
        if len(values) != len(names):
            raise SnapshotError(
                f"a {payload['schema'][body[0]][0]} record has the wrong arity"
            )
        any(map(object.__setattr__, repeat(obj), names, values))  # one C loop
        return obj

    def named(body: List[Any]) -> Any:
        value = registered(body[0])(*items(body[1:]))
        records.append(value)
        return value

    decoders: Dict[str, Callable[[Any], Any]] = {
        "r": records.__getitem__,
        "R": record,
        "N": named,
        "T": lambda body: tuple(items(body)),
        "D": lambda body: dict(pairs(body)),
        "S": lambda body: set(items(body)),
        "Q": lambda body: deque(items(body)),
        "E": lambda body: registered(body[0])(body[1]),
        "M": lambda body: getattr(decode(body[0]), body[1]),
    }
    with gc_paused():
        decoded = [items(values) for values in payload["state"]]
    for part, (cls_index, *_path), values in zip(
        parts, payload["parts"], decoded, strict=True
    ):
        for name, value in zip(fields[cls_index], values, strict=True):
            setattr(part, name, value)
    _restore_stats(machine.stats, payload["stats"])
    machine.rng.tree_setstate(payload["rng"])


def _restore_stats(stats: StatsRegistry, payload: Dict[str, Any]) -> None:
    """Apply a ``StatsRegistry.to_dict`` payload to live flyweight handles.

    Subsystems hold direct references to counter/histogram objects, so the
    restore must mutate the existing instances in place: zero everything,
    then apply the captured values.
    """
    for counter in stats.counters.values():
        counter.value = 0
    for histogram in stats.histograms.values():
        histogram.samples = []
        histogram._sorted = None
    for tracker in stats.utilizations.values():
        tracker.busy_cycles = 0
        tracker.busy_intervals = 0
    for name, value in payload.get("counters", {}).items():
        stats.counter(name).value = value
    for name, samples in payload.get("histograms", {}).items():
        histogram = stats.histogram(name)
        histogram.samples = list(samples)
        histogram._sorted = None
    for name, entry in payload.get("utilizations", {}).items():
        tracker = stats.utilization(name)
        tracker.busy_cycles = entry["busy_cycles"]
        tracker.busy_intervals = entry["busy_intervals"]
