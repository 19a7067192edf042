"""Property tests for the native O(1) restore strategy (PR 10).

For every frame-ported workload family — tightloop (fig7), the CAS kernels
(fig9), the Livermore loops (fig8), and the application proxies (fig10) —
three executions of the same spec must be bit-identical:

* the uninterrupted run,
* a native O(state) restore from a mid-run capture, and
* a deterministic replay restore forced from the very same capture (the
  strategy downgraded to ``replay`` and the machine payload dropped, which
  is exactly what a v2 snapshot written by a frame-less build looks like).

The second half pins the fallback contract: checkpoint files that are
corrupt or carry a stale envelope version are discarded with a structured
:class:`SnapshotWarning` and the run silently starts from scratch.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.fig8_livermore import fig8_sweep
from repro.experiments.fig9_cas import fig9_sweep
from repro.experiments.fig10_applications import fig10_sweep
from repro.runner import RunSpec
from repro.runner.executor import execute_spec
from repro.snapshot import (
    STRATEGY_NATIVE,
    STRATEGY_REPLAY,
    Snapshot,
    SnapshotWarning,
    checkpoint_path,
    execute_with_checkpoints,
    resume_to_completion,
    snapshot_after,
    snapshot_document,
)
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
)


def _three_way_identity(spec, cut):
    """native restore == forced replay restore == uninterrupted, at ``cut``.

    Returns the native snapshot taken at ``cut``.
    """
    full = execute_spec(spec)
    cut = min(max(1, cut), full.events_processed - 1)

    native_snap = snapshot_after(spec, cut)
    assert native_snap.strategy == STRATEGY_NATIVE
    assert native_snap.machine is not None
    assert native_snap.events_processed == cut

    restored = resume_to_completion(native_snap)
    assert restored.extra.get("native_restore") == 1.0
    assert restored.extra.get("events_replayed") == 0.0
    assert_identical(restored, full)

    replay_snap = Snapshot(
        spec=native_snap.spec,
        events_processed=native_snap.events_processed,
        clock=native_snap.clock,
        strategy=STRATEGY_REPLAY,
        native=native_snap.native,
    )
    replayed = resume_to_completion(replay_snap)
    assert replayed.extra.get("native_restore") == 0.0
    assert replayed.extra.get("events_replayed") == float(cut)
    assert_identical(replayed, full)
    return native_snap


# ---------------------------------------------------------------------------
# Deterministic sweep: every ported workload, one mid-run cut
# ---------------------------------------------------------------------------
EVERY_PORTED = (
    [_tight()]
    + [_cas(kind) for kind in CasKernelKind]
    + [_livermore(loop) for loop in LivermoreLoop]
    + [_application(app) for app in ("blackscholes", "bodytrack")]
)


@pytest.mark.parametrize("spec", EVERY_PORTED, ids=lambda spec: spec.label())
def test_every_ported_workload_restores_natively(spec):
    full = execute_spec(spec)
    _three_way_identity(spec, full.events_processed // 2)


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
    def test_native_equals_replay_equals_uninterrupted(self, spec, fraction):
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

    At each cut native restore replays nothing and forced replay replays the
    whole prefix (both checked by ``_three_way_identity``), and the native
    payload keeps one size, so a payload that grows with history fails.
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
            result = execute_with_checkpoints(spec, checkpoint_dir=tmp_path)
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
            result = execute_with_checkpoints(spec, checkpoint_dir=tmp_path)
        assert_identical(result, full)
        assert not path.exists()

    def test_tampered_machine_payload_falls_back_with_warning(self, tmp_path):
        spec = _tight(seed=2)
        full = execute_spec(spec)
        snap = snapshot_after(spec, max(1, full.events_processed // 2))
        stripped = Snapshot(
            spec=snap.spec, events_processed=snap.events_processed,
            clock=snap.clock, strategy=STRATEGY_NATIVE, native=snap.native,
            machine=None,
        )
        path = checkpoint_path(tmp_path, spec)
        path.write_text(
            json.dumps(snapshot_document(stripped)), encoding="utf-8"
        )
        with pytest.warns(SnapshotWarning, match="no machine payload"):
            result = execute_with_checkpoints(spec, checkpoint_dir=tmp_path)
        assert_identical(result, full)
