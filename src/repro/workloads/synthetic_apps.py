"""Synthetic proxies of the SPLASH-2 and PARSEC applications (Figure 10).

The paper runs the full suites on Multi2Sim.  We cannot execute x86 binaries,
so each application is replaced by a synthetic proxy with the same
*synchronization profile*: how often it crosses a barrier, how often it takes
locks and how long it holds them, how much computation separates
synchronization points, and whether it performs shared reductions.  The
profiles below are calibrated from the paper's own characterization
(Section 7.4): streamcluster and the ocean codes are barrier-intensive;
raytrace and radiosity are lock-intensive; water-ns and fluidanimate mix
both; dedup and fluidanimate use lock arrays larger than the 16 KB BM (their
locks spill to regular memory); most of the remaining applications
synchronize too rarely for WiSync to matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cpu.frames import START, FrameBody, Op, Ret
from repro.errors import WorkloadError
from repro.isa.operations import Compute, Read
from repro.machine.manycore import Manycore
from repro.runner.registry import register_workload
from repro.sync.api import SyncFactory
from repro.sync.frames import barrier_wait, cell_fetch_add, lock_acquire, lock_release
from repro.workloads.base import WorkloadHandle


@dataclass(frozen=True)
class AppProfile:
    """Synchronization profile of one application."""

    name: str
    suite: str                      # "parsec" or "splash2"
    phases: int                     # synchronization phases per thread
    compute_per_phase: int          # cycles of computation per phase
    barriers_per_phase: int = 0     # barrier crossings per phase
    locks_per_phase: int = 0        # lock acquisitions per phase
    num_locks: int = 8              # distinct locks (contention spreads over them)
    critical_section_cycles: int = 30
    reductions_per_phase: int = 0
    shared_lines_per_phase: int = 4  # shared-data lines touched per phase

    def total_barriers(self) -> int:
        return self.phases * self.barriers_per_phase

    def total_lock_acquisitions(self) -> int:
        return self.phases * self.locks_per_phase


# ---------------------------------------------------------------------------
# Profiles.  compute_per_phase values are chosen so that, on the 64-core
# Baseline, synchronization-heavy applications spend most of their time in
# synchronization (large WiSync gains) while compute-bound ones do not —
# reproducing the shape of Figure 10.
# ---------------------------------------------------------------------------
APPLICATION_PROFILES: List[AppProfile] = [
    # PARSEC
    AppProfile("blackscholes", "parsec", phases=6, compute_per_phase=300000, barriers_per_phase=1),
    AppProfile("bodytrack", "parsec", phases=10, compute_per_phase=80000,
               barriers_per_phase=1, locks_per_phase=2, num_locks=16),
    AppProfile("canneal", "parsec", phases=8, compute_per_phase=100000, locks_per_phase=3,
               num_locks=32, critical_section_cycles=20),
    AppProfile("dedup", "parsec", phases=10, compute_per_phase=40000, locks_per_phase=6,
               num_locks=320, critical_section_cycles=40),
    AppProfile("facesim", "parsec", phases=8, compute_per_phase=200000, barriers_per_phase=1),
    AppProfile("ferret", "parsec", phases=8, compute_per_phase=150000, locks_per_phase=2,
               num_locks=16),
    AppProfile("fluidanimate", "parsec", phases=12, compute_per_phase=30000,
               barriers_per_phase=1, locks_per_phase=8, num_locks=400,
               critical_section_cycles=15),
    AppProfile("freqmine", "parsec", phases=8, compute_per_phase=150000, locks_per_phase=2,
               num_locks=16),
    AppProfile("streamcluster", "parsec", phases=30, compute_per_phase=90000,
               barriers_per_phase=2, reductions_per_phase=1),
    AppProfile("swaptions", "parsec", phases=6, compute_per_phase=300000),
    AppProfile("vips", "parsec", phases=8, compute_per_phase=200000, locks_per_phase=1,
               num_locks=8),
    AppProfile("x264", "parsec", phases=8, compute_per_phase=200000, locks_per_phase=1,
               num_locks=16),
    # SPLASH-2
    AppProfile("barnes", "splash2", phases=10, compute_per_phase=80000, barriers_per_phase=1,
               locks_per_phase=2, num_locks=64),
    AppProfile("cholesky", "splash2", phases=8, compute_per_phase=100000, locks_per_phase=2,
               num_locks=32),
    AppProfile("fft", "splash2", phases=8, compute_per_phase=120000, barriers_per_phase=1),
    AppProfile("fmm", "splash2", phases=10, compute_per_phase=80000, barriers_per_phase=1,
               locks_per_phase=2, num_locks=64),
    AppProfile("lu-c", "splash2", phases=12, compute_per_phase=100000, barriers_per_phase=1),
    AppProfile("lu-nc", "splash2", phases=12, compute_per_phase=120000, barriers_per_phase=1),
    AppProfile("ocean-c", "splash2", phases=24, compute_per_phase=120000, barriers_per_phase=2),
    AppProfile("ocean-nc", "splash2", phases=24, compute_per_phase=140000, barriers_per_phase=2),
    AppProfile("radiosity", "splash2", phases=16, compute_per_phase=8000, locks_per_phase=6,
               num_locks=12, critical_section_cycles=40),
    AppProfile("radix", "splash2", phases=10, compute_per_phase=80000, barriers_per_phase=1,
               reductions_per_phase=1),
    AppProfile("raytrace", "splash2", phases=16, compute_per_phase=12000, locks_per_phase=8,
               num_locks=8, critical_section_cycles=30),
    AppProfile("volrend", "splash2", phases=10, compute_per_phase=60000, barriers_per_phase=1,
               locks_per_phase=2, num_locks=16),
    AppProfile("water-ns", "splash2", phases=14, compute_per_phase=120000, barriers_per_phase=1,
               locks_per_phase=4, num_locks=16, critical_section_cycles=25),
    AppProfile("water-sp", "splash2", phases=10, compute_per_phase=100000, barriers_per_phase=1,
               locks_per_phase=1, num_locks=16),
]

_PROFILE_INDEX: Dict[str, AppProfile] = {profile.name: profile for profile in APPLICATION_PROFILES}


def application_names(suite: Optional[str] = None) -> List[str]:
    """Names of all modelled applications, optionally filtered by suite."""
    return [p.name for p in APPLICATION_PROFILES if suite is None or p.suite == suite]


def profile_by_name(name: str) -> AppProfile:
    if name not in _PROFILE_INDEX:
        raise WorkloadError(f"unknown application {name!r}; known: {sorted(_PROFILE_INDEX)}")
    return _PROFILE_INDEX[name]


def build_application(
    machine: Manycore,
    profile: AppProfile,
    num_threads: Optional[int] = None,
    phase_scale: float = 1.0,
) -> WorkloadHandle:
    """Register an application proxy on ``machine``.

    ``phase_scale`` shrinks the number of phases (keeping the profile's
    per-phase behaviour) so that sweep experiments such as the sensitivity
    study stay fast; 1.0 reproduces the full profile.
    """
    if num_threads is None:
        num_threads = machine.config.num_cores
    phases = max(1, int(round(profile.phases * phase_scale)))
    program = machine.new_program(profile.name)
    sync = SyncFactory(program)
    barrier = sync.create_barrier(num_threads) if profile.barriers_per_phase else None
    locks = sync.create_locks(profile.num_locks) if profile.locks_per_phase else []
    accumulator = sync.create_cell() if profile.reductions_per_phase else None
    shared_lines = [program.alloc_shared() for _ in range(32)]
    line_bytes = machine.config.cache.line_bytes
    barrier_sid = barrier.sync_id if barrier is not None else None
    lock_sids = [lock.sync_id for lock in locks]
    accumulator_sid = accumulator.sync_id if accumulator is not None else None

    def _lock_sid(tid: int, phase: int, acquisition: int) -> int:
        return lock_sids[(tid + phase + acquisition) % len(lock_sids)]

    def body(frame, value, env):
        L, label = frame.locals, frame.label
        tid = env.ctx.thread_id

        # The phase runs compute -> shared touches -> critical sections ->
        # reductions -> barriers; each helper advances to the next stage
        # when its counter is exhausted.
        def begin_phase():
            # Compute portion of the phase, with a little per-thread jitter
            # so that arrivals are not perfectly synchronized.
            compute = env.ctx.rng.jitter(profile.compute_per_phase, fraction=0.05)
            return Op(Compute(compute), "computed")

        def touches():
            touch = L["touch"]
            if touch < profile.shared_lines_per_phase:
                addr = shared_lines[(L["phase"] + touch + tid) % len(shared_lines)]
                return Op(Read(addr), "touched")
            return critical_sections()

        def critical_sections():
            acq = L["acq"]
            if acq < profile.locks_per_phase:
                return lock_acquire(_lock_sid(tid, L["phase"], acq), "acquired")
            return reductions()

        def reductions():
            if L["red"] < profile.reductions_per_phase:
                return cell_fetch_add(accumulator_sid, 1, "reduced")
            return barriers()

        def barriers():
            if L["bar"] < profile.barriers_per_phase:
                return barrier_wait(barrier_sid, "joined")
            return end_phase()

        def end_phase():
            L["work"] += 1
            phase = L["phase"] + 1
            if phase < phases:
                L["phase"] = phase
                return begin_phase()
            return Ret(L["work"])

        if label == START:
            L["work"] = 0
            L["phase"] = 0
            return begin_phase()
        if label == "computed":
            L["touch"] = 0
            L["acq"] = 0
            L["red"] = 0
            L["bar"] = 0
            return touches()
        if label == "touched":
            L["touch"] += 1
            return touches()
        if label == "acquired":
            return Op(Compute(profile.critical_section_cycles), "cs_done")
        if label == "cs_done":
            return lock_release(_lock_sid(tid, L["phase"], L["acq"]), "released")
        if label == "released":
            L["acq"] += 1
            return critical_sections()
        if label == "reduced":
            L["red"] += 1
            return reductions()
        if label == "joined":
            L["bar"] += 1
            return barriers()
        return Ret(L["work"])

    machine.register_frame_routine("application.body", body)
    for _ in range(num_threads):
        program.add_thread(FrameBody("application.body"))
    return WorkloadHandle(
        name=profile.name,
        machine=machine,
        program=program,
        num_threads=num_threads,
        metadata={
            "iterations": phases,
            "suite": 1.0 if profile.suite == "parsec" else 2.0,
        },
    )


@register_workload("application")
def build_application_by_name(
    machine: Manycore,
    app: str,
    num_threads: Optional[int] = None,
    phase_scale: float = 1.0,
) -> WorkloadHandle:
    """Registry-addressable variant of :func:`build_application`.

    Takes the application *name* instead of an :class:`AppProfile` so that a
    :class:`~repro.runner.spec.RunSpec` can carry it as a JSON parameter.
    """
    return build_application(
        machine, profile_by_name(app), num_threads=num_threads, phase_scale=phase_scale
    )
