"""The one pause of Python's cyclic garbage collector.

The event loop and the checkpoint codec allocate millions of short-lived,
acyclic objects (events, heap tuples, operation records, payload values).
Reference counting frees them, so a generational scan that their
allocations trigger finds nothing to free; it cost ~15% of a run.
:meth:`~repro.machine.manycore.Manycore.advance`, the codec's
``capture_machine`` and ``restore_machine``, and
:func:`~repro.runner.executor.execute_spec` run under :func:`gc_paused`.
``execute_spec`` holds the pause for the whole spec, so that one young
collection frees the finished machine (its docstring says why).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def gc_paused() -> Iterator[bool]:
    """Pause automatic collection for the block, then restore the collector
    as it was.  Yields whether it was enabled on entry: a nested pause
    yields False and leaves re-enabling to the outermost one."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield enabled
    finally:
        if enabled:
            gc.enable()
