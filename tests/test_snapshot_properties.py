"""Property tests for native O(state) restore.

For every workload family — tightloop (fig7), the CAS kernels (fig9), the
Livermore loops (fig8), the application proxies (fig10), and the five
contention scenarios — a mid-run capture must restore without re-running
an event, and two oracles must agree with it:

* replay as the oracle: a fresh run of the spec to the same cut holds the
  same machine state as the restored machine, field for field
  (``capture_machine`` of both);
* the restored run, finished, is bit-identical to the uninterrupted run.

The second half pins the fallback contract: checkpoint files that are
corrupt, carry a stale envelope version, or were written by the replay
strategy of earlier builds are discarded with a structured
:class:`SnapshotWarning` and the run silently starts from scratch.
"""

import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.fig8_livermore import fig8_sweep
from repro.experiments.fig9_cas import fig9_sweep
from repro.experiments.fig10_applications import fig10_sweep
from repro.experiments.scenarios import scenario_sweep
from repro.machine.manycore import Manycore
from repro.runner import RunSpec
from repro.runner.executor import execute_spec
from repro.snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    Snapshot,
    SnapshotWarning,
    SpecExecution,
    checkpoint_path,
    run_prefix,
    snapshot_after,
    snapshot_document,
)
from repro.snapshot.format import body_hash
from repro.snapshot.native import capture_machine
from repro.workloads.cas_kernels import CasKernelKind
from repro.workloads.livermore import LivermoreLoop
from test_snapshot import assert_identical


# --------------------------------------------------------------- spec builders
def _tight(iterations=3, num_cores=8, seed=0):
    return RunSpec(
        workload="tightloop", params={"iterations": iterations},
        config="WiSync", num_cores=num_cores, seed=seed,
    )


def _cas(kind, crit=8):
    sweep = fig9_sweep(
        kinds=[kind], core_counts=[8], critical_sections=[crit],
        successes_per_thread=2, configs=["WiSync"],
    )
    return list(sweep)[0]


def _livermore(loop, length=32):
    sweep = fig8_sweep(
        loops=[loop], core_counts=[8], vector_lengths={loop: [length]},
        repetitions=1, configs=["WiSync"],
    )
    return list(sweep)[0]


def _application(app):
    sweep = fig10_sweep(apps=[app], num_cores=8, phase_scale=0.25, configs=["WiSync"])
    return [spec for spec in sweep if spec.config == "WiSync"][0]


SCENARIOS = ["barrier_storm", "mixed_phases", "pc_ring", "rwlock", "work_steal"]


def _scenario(scenario, config="WiSync", level="high"):
    sweep = scenario_sweep(
        scenarios=[scenario], core_counts=[8], configs=[config], contention=[level],
    )
    return sweep.specs[0]


#: One representative per ported family; the deterministic sweep below walks
#: every member, the hypothesis property samples random corners.
PORTED_SPECS = st.one_of(
    st.builds(
        _tight,
        iterations=st.integers(min_value=2, max_value=4),
        num_cores=st.sampled_from([4, 8, 16]),
        seed=st.integers(min_value=0, max_value=3),
    ),
    st.builds(
        _cas,
        kind=st.sampled_from(list(CasKernelKind)),
        crit=st.sampled_from([8, 16]),
    ),
    st.builds(
        _livermore,
        loop=st.sampled_from(list(LivermoreLoop)),
        length=st.sampled_from([16, 32]),
    ),
    st.builds(_application, app=st.sampled_from(["blackscholes", "bodytrack"])),
    st.builds(
        _scenario,
        scenario=st.sampled_from(SCENARIOS),
        config=st.sampled_from(["WiSync", "Baseline"]),
        level=st.sampled_from(["low", "high"]),
    ),
)


def _three_way_identity(spec, cut):
    """restored == fresh prefix at ``cut``, and restored-then-finished ==
    uninterrupted.  Returns the snapshot taken at ``cut``."""
    full = execute_spec(spec)
    cut = min(max(1, cut), full.events_processed - 1)

    snapshot = snapshot_after(spec, cut)
    assert snapshot.machine is not None
    assert snapshot.events_processed == cut

    # Restore re-runs no event: the machine is rebuilt from the payload.
    with mock.patch.object(Manycore, "advance", side_effect=AssertionError("restore ran events")):
        restored = SpecExecution.from_snapshot(snapshot)
    oracle = run_prefix(spec, cut)
    assert capture_machine(restored.machine) == capture_machine(oracle.machine)

    assert_identical(restored.run_to_completion(), full)
    return snapshot


# ---------------------------------------------------------------------------
# Deterministic sweep: every ported workload, one mid-run cut
# ---------------------------------------------------------------------------
EVERY_PORTED = (
    [_tight()]
    + [_cas(kind) for kind in CasKernelKind]
    + [_livermore(loop) for loop in LivermoreLoop]
    + [_application(app) for app in ("blackscholes", "bodytrack")]
    + [_scenario(name, config) for name in SCENARIOS for config in ("WiSync", "Baseline")]
)


@pytest.mark.parametrize("spec", EVERY_PORTED, ids=lambda spec: spec.label())
def test_every_ported_workload_restores_natively(spec):
    full = execute_spec(spec)
    _three_way_identity(spec, full.events_processed // 2)


#: 488 of the run's 498 events: the eureka is posted (its cell reads 1) while
#: the poster's write is still completing, some waiters have woken, and two
#: threads have not yet reached the eureka at all, so their sense flags still
#: live only in the OrBarrier's captured per-thread state.
EUREKA_SPEC = _scenario("work_steal", "Baseline")
EUREKA_CUT = 488


def test_work_steal_restores_after_the_eureka_post():
    prefix = run_prefix(EUREKA_SPEC, EUREKA_CUT)
    machine = prefix.machine
    eureka = next(o for o in machine.sync_objects if type(o).__name__ == "OrBarrier")
    assert machine.memory.peek(eureka.cell.addr) == 1  # posted
    unfinished = [t.thread_id for t in machine.threads if not t.finished]
    assert unfinished and len(unfinished) < len(machine.threads)
    assert set(eureka._sense) < {t.thread_id for t in machine.threads}
    _three_way_identity(EUREKA_SPEC, EUREKA_CUT)


#: Half-way through this contention run, seven of the eight MACs have heard
#: a success they have not yet folded into their backoff.  That lag lives in
#: the channel's transfer counter and the transceivers' marks, which no
#: capture holds, so the fresh-prefix oracle alone cannot see it.
LAG_SPEC = _scenario("rwlock", "WiSync")
LAG_CUT = 969

#: The channel and transceiver payload keys: those of earlier builds, less
#: the arbitration-pending set, which the by-cycle attempt map already holds.
CHANNEL_KEYS = {"busy_until", "next_attempt_id", "attempts", "by_cycle", "messages", "collisions"}
TRANSCEIVER_KEYS = {"queue", "in_flight", "next_send_id", "sent", "collisions", "backoff"}


def test_restore_keeps_the_successes_a_mac_has_not_folded():
    machine = run_prefix(LAG_SPEC, LAG_CUT).machine
    channel = machine.fabric.data_channel
    assert any(node.transceiver._seen < channel.completed for node in machine.fabric.nodes)

    snapshot = _three_way_identity(LAG_SPEC, LAG_CUT)
    fabric = snapshot.machine["fabric"]
    assert set(fabric["channel"]) == CHANNEL_KEYS
    for node in fabric["nodes"]:
        assert set(node["transceiver"]) == TRANSCEIVER_KEYS

    # Checkpoints written by earlier builds also carry the arbitration-
    # pending cycles; restore ignores them and levels every mark.
    fabric["channel"]["arb_pending"] = sorted(cycle for cycle, _ in fabric["channel"]["by_cycle"])
    restored = SpecExecution.from_snapshot(snapshot)
    channel = restored.machine.fabric.data_channel
    assert all(node.transceiver._seen == channel.completed for node in restored.machine.fabric.nodes)
    assert_identical(restored.run_to_completion(), execute_spec(LAG_SPEC))


# ---------------------------------------------------------------------------
# Property: random cut fractions across random ported-grid corners
# ---------------------------------------------------------------------------
class TestNativeRestoreProperty:
    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        spec=PORTED_SPECS,
        fraction=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_restore_equals_fresh_prefix_and_uninterrupted(self, spec, fraction):
        full = execute_spec(spec)
        _three_way_identity(spec, int(full.events_processed * fraction))


# ---------------------------------------------------------------------------
# Restore shape: native restore does not grow with the cut depth
# ---------------------------------------------------------------------------
#: A 17,626-event run, cut at 10%, 50% and 90% of its events.
RESTORE_SHAPE_SPEC = _tight(iterations=100, num_cores=16, seed=7)
RESTORE_SHAPE_CUTS = (1_762, 8_813, 15_863)


def test_native_restore_shape_is_flat_across_cuts():
    """The restore shape, pinned without a clock.

    At each cut restore runs no event and lands on the fresh-prefix state
    (both checked by ``_three_way_identity``), and the native payload keeps
    one size, so a payload that grows with history fails.
    """
    total = execute_spec(RESTORE_SHAPE_SPEC).events_processed
    assert total == 17_626
    assert RESTORE_SHAPE_CUTS == tuple(int(total * f) for f in (0.1, 0.5, 0.9))
    sizes = [
        len(json.dumps(snapshot_document(_three_way_identity(RESTORE_SHAPE_SPEC, cut))))
        for cut in RESTORE_SHAPE_CUTS
    ]
    assert max(sizes) < 1.05 * min(sizes), sizes


# ---------------------------------------------------------------------------
# Fallback: unusable checkpoints are discarded with a warning
# ---------------------------------------------------------------------------
class TestCheckpointFallback:
    def test_corrupt_checkpoint_falls_back_with_warning(self, tmp_path):
        spec = _tight()
        full = execute_spec(spec)
        path = checkpoint_path(tmp_path, spec)
        path.write_text("{ this is not a snapshot", encoding="utf-8")
        with pytest.warns(SnapshotWarning, match="running from scratch"):
            result = execute_spec(spec, checkpoint_dir=tmp_path)
        assert_identical(result, full)
        assert not path.exists()  # the unusable file is evicted

    def test_v1_envelope_falls_back_with_warning(self, tmp_path):
        spec = _tight(seed=1)
        full = execute_spec(spec)
        snap = snapshot_after(spec, max(1, full.events_processed // 2))
        document = snapshot_document(snap)
        document["version"] = 1
        path = checkpoint_path(tmp_path, spec)
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.warns(SnapshotWarning, match="unsupported snapshot version 1"):
            result = execute_spec(spec, checkpoint_dir=tmp_path)
        assert_identical(result, full)
        assert not path.exists()

    def test_tampered_machine_payload_falls_back_with_warning(self, tmp_path):
        spec = _tight(seed=2)
        full = execute_spec(spec)
        snap = snapshot_after(spec, max(1, full.events_processed // 2))
        stripped = Snapshot(
            spec=snap.spec, events_processed=snap.events_processed,
            clock=snap.clock, native=snap.native, machine=None,
        )
        path = checkpoint_path(tmp_path, spec)
        path.write_text(
            json.dumps(snapshot_document(stripped)), encoding="utf-8"
        )
        with pytest.warns(SnapshotWarning, match="no machine payload"):
            result = execute_spec(spec, checkpoint_dir=tmp_path)
        assert_identical(result, full)

    def test_replay_checkpoint_from_earlier_builds_falls_back_with_one_warning(
        self, tmp_path
    ):
        # Earlier builds wrote this v2 body for every checkpoint of a workload
        # they could not capture natively (the contention scenarios):
        # strategy "replay" and no machine payload.
        spec = _scenario("barrier_storm", level="low")
        full = execute_spec(spec)
        body = dict(
            snapshot_after(spec, full.events_processed // 2).to_dict(),
            strategy="replay", machine=None,
        )
        document = {
            "format": SNAPSHOT_FORMAT, "version": SNAPSHOT_VERSION,
            "sha256": body_hash(body), "snapshot": body,
        }
        path = checkpoint_path(tmp_path, spec)
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.warns(SnapshotWarning) as warned:
            result = execute_spec(spec, checkpoint_dir=tmp_path)
        assert len(warned) == 1
        assert "unknown snapshot strategy 'replay'" in str(warned[0].message)
        assert_identical(result, full)
        assert result.thread_results == full.thread_results
        assert not path.exists()
