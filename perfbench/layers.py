"""Per-layer host-time attribution for the benchmark's traced pass.

The tracer wraps the public entry points of each simulator layer (and every
event callback the engine fires) in spans kept on one in-memory stack.  A
layer's self time is the time its spans cover minus the time their child
spans cover, so the self times of all layers add up to the traced wall time.

The wrappers are installed on the *classes*, and must be installed before a
machine is built: ``Manycore`` and several components bind methods such as
``sim.schedule`` at construction.  They call the original functions with the
original arguments and return their results untouched, so a traced run's
simulated outputs are bit-identical to an untraced one (the benchmark checks
this on every traced pass).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from typing import Any, Callable, Dict, Iterator, List

#: Layers in report order.  The names are the package names under
#: ``src/repro/``; ``runner`` covers ``execute_spec`` itself (config,
#: machine and workload construction, result assembly) on in-process runs.
LAYERS = ("sim", "machine", "cpu", "mem", "noc", "wireless", "core", "sync", "runner")

#: Packages whose event callbacks count towards a layer other than their own
#: name: workload bodies run on the thread trampoline, so their callbacks are
#: ``cpu`` time.
_PACKAGE_LAYER = {"workloads": "cpu", "isa": "cpu"}


def layer_of_module(module: str) -> str:
    """The layer a ``repro.<package>...`` module belongs to."""
    parts = module.split(".")
    package = parts[1] if len(parts) > 1 and parts[0] == "repro" else ""
    if package in LAYERS:
        return package
    return _PACKAGE_LAYER.get(package, "sim")


class LayerTracer:
    """Span stack plus per-layer call counts and self time."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        # One [layer, start, covered-by-children] entry per open span.
        self._stack: List[list] = []
        self._callback_layers: Dict[Any, str] = {}

    def enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def exit(self) -> None:
        layer, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        self.calls[layer] += 1
        self.self_s[layer] += duration - children
        if self._stack:
            self._stack[-1][2] += duration

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        self.enter(layer)
        try:
            yield
        finally:
            self.exit()

    # --------------------------------------------------------------- wrappers
    def wrap(self, fn: Callable, layer: str) -> Callable:
        """``fn`` inside a ``layer`` span."""
        enter, leave = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        traced.traced_layer = layer
        return traced

    def wrap_generator(self, fn: Callable, layer: str) -> Callable:
        """Generator function ``fn`` with every resumption in a ``layer`` span.

        The simulated threads only ever ``send`` into their generators, so
        the wrapper forwards values and the return value and nothing else.
        """
        enter, leave = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any):
            inner = fn(*args, **kwargs)
            value = None
            while True:
                enter(layer)
                try:
                    operation = inner.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    leave()
                value = yield operation

        traced.traced_layer = layer
        return traced

    def callback(self, callback: Callable) -> Callable:
        """``callback`` in a span of the layer of the module defining it."""
        function = getattr(callback, "__func__", callback)
        if getattr(function, "traced_layer", None) is not None:
            return callback  # already a span of its own layer
        key = function if inspect.isfunction(function) else type(callback)
        layer = self._callback_layers.get(key)
        if layer is None:
            module = getattr(key, "__module__", "") or ""
            layer = self._callback_layers[key] = layer_of_module(module)
        return _TracedCallback(self, callback, layer)


class _TracedCallback:
    """An engine event callback run inside a span of its layer."""

    __slots__ = ("tracer", "callback", "layer")

    def __init__(self, tracer: LayerTracer, callback: Callable, layer: str) -> None:
        self.tracer = tracer
        self.callback = callback
        self.layer = layer

    def __call__(self, *args: Any) -> Any:
        tracer = self.tracer
        tracer.enter(self.layer)
        try:
            return self.callback(*args)
        finally:
            tracer.exit()


def _span_targets():
    """(class, method names, layer) for every public layer entry point."""
    from repro.core.bm_controller import BmController
    from repro.core.fabric import BroadcastFabric
    from repro.core.tone_controller import ToneController
    from repro.cpu.core import Core
    from repro.machine.manycore import Manycore
    from repro.mem.hierarchy import MemorySystem
    from repro.noc.mesh import MeshNetwork
    from repro.sim.engine import Simulator
    from repro.wireless.channel import DataChannel
    from repro.wireless.transceiver import Transceiver

    return [
        (Simulator, ("run",), "sim"),
        (Manycore, ("_advance",), "machine"),
        (Core, ("run_compute",), "cpu"),
        (MemorySystem, ("read", "write", "atomic", "wait_until"), "mem"),
        (MeshNetwork, ("unicast", "broadcast", "multicast"), "noc"),
        (DataChannel, ("transmit",), "wireless"),
        (Transceiver, tuple(n for n in vars(Transceiver) if n.startswith("send_")), "wireless"),
        (BmController, ("load", "store", "bulk_load", "bulk_store", "rmw"), "core"),
        (ToneController, ("arrive",), "core"),
        (BroadcastFabric, ("apply_store", "wait_until"), "core"),
    ]


def _sync_generator_methods():
    """(class, name) of every generator-bodied sync routine (generator path)."""
    import importlib
    import pkgutil

    import repro.sync

    found = []
    for info in pkgutil.iter_modules(repro.sync.__path__):
        module = importlib.import_module(f"repro.sync.{info.name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                for name, member in vars(cls).items():
                    if inspect.isgeneratorfunction(member):
                        found.append((cls, name))
    return found


@contextlib.contextmanager
def traced_layers() -> Iterator[LayerTracer]:
    """Install the span wrappers for the ``with`` body; yields the tracer.

    Machines must be built inside the block.  Every patched attribute is
    restored on exit, so untraced passes afterwards run the original code.
    """
    from repro.cpu.thread import SimThread
    from repro.sim.engine import Simulator
    from repro.sync.frames import SYNC_ROUTINES

    tracer = LayerTracer()
    saved: List[tuple] = []
    saved_routines = dict(SYNC_ROUTINES)

    def patch(cls: Any, name: str, replacement: Any) -> None:
        saved.append((cls, name, vars(cls)[name]))
        setattr(cls, name, replacement)

    try:
        for cls, names, layer in _span_targets():
            for name in names:
                patch(cls, name, tracer.wrap(vars(cls)[name], layer))
        for cls, name in _sync_generator_methods():
            patch(cls, name, tracer.wrap_generator(vars(cls)[name], "sync"))

        # The thread trampoline: frame bodies resolve ``_frame_send`` on the
        # class; generator bodies bind the generator's own ``send`` in start().
        patch(SimThread, "_frame_send", tracer.wrap(vars(SimThread)["_frame_send"], "cpu"))
        original_start = vars(SimThread)["start"]

        def start(thread: SimThread) -> None:
            original_start(thread)
            if thread.generator is not None:
                thread.send = tracer.wrap(thread.send, "cpu")

        patch(SimThread, "start", start)

        # Every event callback, attributed to its defining module's layer.
        for name in ("schedule", "schedule_at"):
            original = vars(Simulator)[name]

            def scheduled(sim, when, callback, *args, _original=original, **kwargs):
                return _original(sim, when, tracer.callback(callback), *args, **kwargs)

            patch(Simulator, name, scheduled)

        # Frame-bodied sync routines: Manycore copies this table at construction.
        for name, step in saved_routines.items():
            SYNC_ROUTINES[name] = tracer.wrap(step, "sync")
        yield tracer
    finally:
        SYNC_ROUTINES.update(saved_routines)
        for cls, name, original in reversed(saved):
            setattr(cls, name, original)
