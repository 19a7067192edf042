"""WiSync reproduction library.

A behavioural/timing reproduction of *WiSync: An Architecture for Fast
Synchronization through On-Chip Wireless Communication* (ASPLOS 2016): a
manycore timing model with a conventional cache-coherent memory hierarchy, a
wired 2D mesh, and the WiSync wireless Broadcast Memory with its Data and
Tone channels, plus the synchronization library, workloads, and experiment
harness needed to regenerate every table and figure of the paper's
evaluation.

Typical use::

    from repro import Manycore, SyncFactory, wisync
    from repro.cpu.frames import START, FrameBody, Op, Ret
    from repro.isa.operations import Compute
    from repro.sync.frames import barrier_wait

    machine = Manycore(wisync(num_cores=16))
    program = machine.new_program("demo")
    sync = SyncFactory(program)
    barrier = sync.create_barrier(num_threads=16)

    def body(frame, value, env):
        # A frame routine: compute, cross the barrier, finish.
        if frame.label == START:
            return Op(Compute(100), "computed")
        if frame.label == "computed":
            return barrier_wait(barrier.sync_id, "crossed")
        return Ret(None)

    machine.register_frame_routine("demo.body", body)
    for _ in range(16):
        program.add_thread(FrameBody("demo.body"))
    result = machine.run()
    print(result.summary())
"""

from repro._lazy import lazy_exports

__version__ = "1.2.0"

__all__ = [
    "__version__",
    # configuration
    "MachineConfig",
    "CoreConfig",
    "CacheConfig",
    "NocConfig",
    "MemoryConfig",
    "BroadcastMemoryConfig",
    "DataChannelConfig",
    "ToneChannelConfig",
    "BackoffConfig",
    "SyncConfig",
    "default_machine_config",
    # machine
    "Manycore",
    "Program",
    "SimResult",
    "baseline",
    "baseline_plus",
    "wisync",
    "wisync_not",
    "paper_configurations",
    "sensitivity_variants",
    "config_by_name",
    # synchronization
    "SyncFactory",
    # declarative run API
    "RunSpec",
    "SweepSpec",
    "Runner",
    "SweepResult",
    "SerialExecutor",
    "ParallelExecutor",
    "DistributedExecutor",
    "ResultCache",
    "register_workload",
    "workload_names",
    # analysis API
    "MetricFrame",
    "Report",
    "compare_frames",
    "load_frame",
]

_EXPORTS = {
    "BackoffConfig": "repro.config",
    "BroadcastMemoryConfig": "repro.config",
    "CacheConfig": "repro.config",
    "CoreConfig": "repro.config",
    "DataChannelConfig": "repro.config",
    "MachineConfig": "repro.config",
    "MemoryConfig": "repro.config",
    "NocConfig": "repro.config",
    "SyncConfig": "repro.config",
    "ToneChannelConfig": "repro.config",
    "default_machine_config": "repro.config",
    "Manycore": "repro.machine.manycore",
    "Program": "repro.machine.manycore",
    "SimResult": "repro.machine.results",
    "baseline": "repro.machine.configs",
    "baseline_plus": "repro.machine.configs",
    "config_by_name": "repro.machine.configs",
    "paper_configurations": "repro.machine.configs",
    "sensitivity_variants": "repro.machine.configs",
    "wisync": "repro.machine.configs",
    "wisync_not": "repro.machine.configs",
    "MetricFrame": "repro.analysis.frame",
    "Report": "repro.analysis.report",
    "compare_frames": "repro.analysis.compare",
    "load_frame": "repro.analysis.compare",
    "DistributedExecutor": "repro.runner.distributed",
    "ParallelExecutor": "repro.runner.executor",
    "ResultCache": "repro.runner.cache",
    "Runner": "repro.runner.runner",
    "RunSpec": "repro.runner.spec",
    "SerialExecutor": "repro.runner.executor",
    "SweepResult": "repro.runner.runner",
    "SweepSpec": "repro.runner.spec",
    "register_workload": "repro.runner.registry",
    "workload_names": "repro.runner.registry",
    "SyncFactory": "repro.sync.api",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
