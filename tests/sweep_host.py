"""Test helpers: the one-job store and worker plane of a sweep host.

A ``--distributed``/``--bind`` sweep runs as the one job of a ``drain``
:class:`~repro.service.jobstore.JobStore`, served by the worker plane
(:class:`~repro.service.daemon.ServiceBroker`); these helpers build that
fabric without the executor around it, so tests can drive workers, kills,
and restarts by hand.
"""

from __future__ import annotations

import time

from repro.service import JobStore, ServiceBroker
from repro.service.jobstore import SWEEP_JOB


def sweep_store(specs, **options):
    """A ``drain`` store running ``specs`` as its one job (10 s leases)."""
    options.setdefault("lease_seconds", 10.0)
    store = JobStore(drain=True, **options)
    store.submit_sweep(specs)
    return store


def serve(store, port=0):
    """Start the worker plane on ``store``; the caller closes it."""
    return ServiceBroker(store, "127.0.0.1", port).start()


def sweep_task(store, position=0):
    """The store-side task of one grid point of the sweep job."""
    return store._jobs[SWEEP_JOB].tasks[position]


def collect(store, job=SWEEP_JOB, timeout=60.0):
    """``{position: result}`` of one job (the sweep's), once it has settled."""
    deadline = time.monotonic() + timeout
    results, settled = {}, False
    while not settled:
        assert time.monotonic() < deadline, "the sweep never settled"
        runs, settled = store.wait_for_landed(job, len(results), 1.0)
        results.update(runs)
    return results
