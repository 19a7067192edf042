"""Tests for the auto-snapshot ring and the ``repro debug`` time-travel layer.

The contract under test: banked moments form a bounded, unambiguous ring
(one entry per event count, oldest dropped first); travelling backward
restores the newest banked moment at or before the target and re-advances;
and — because every restore is verified and every advance is deterministic —
revisiting an event count observes bit-identical machine state no matter
how the debugger got there.
"""

import json

import pytest

from repro.errors import ReproError, SnapshotError
from repro.runner import RunSpec
from repro.runner.cli import main
from repro.runner.executor import execute_spec
from repro.snapshot import (
    CheckpointRing,
    load_snapshot,
    ring_path,
    ring_paths,
    snapshot_after,
)
from repro.snapshot.debugger import (
    DebugSession,
    TimeTravelDebugger,
    script_commands,
)


def tight(iterations=60, num_cores=16, seed=0):
    return RunSpec(
        workload="tightloop", params={"iterations": iterations},
        config="WiSync", num_cores=num_cores, seed=seed,
    )


# ---------------------------------------------------------------------------
# CheckpointRing
# ---------------------------------------------------------------------------
class TestCheckpointRing:
    def _snapshots(self, spec, cuts):
        return {cut: snapshot_after(spec, cut) for cut in cuts}

    def test_capacity_prunes_oldest(self):
        spec = tight()
        snaps = self._snapshots(spec, [1000, 2000, 3000, 4000])
        ring = CheckpointRing(3)
        for cut in sorted(snaps):
            ring.push(snaps[cut])
        assert [e.events for e in ring.entries()] == [2000, 3000, 4000]
        assert len(ring) == 3

    def test_push_supersedes_stale_futures(self):
        # After travelling backward and re-advancing, re-captured moments
        # replace the old entries at or past the new event count.
        spec = tight()
        snaps = self._snapshots(spec, [1000, 2000, 3000])
        ring = CheckpointRing(8)
        for cut in [1000, 2000, 3000]:
            ring.push(snaps[cut])
        ring.push(snaps[2000])
        assert [e.events for e in ring.entries()] == [1000, 2000]

    def test_disk_ring_unlinks_dropped_files(self, tmp_path):
        spec = tight()
        snaps = self._snapshots(spec, [1000, 2000, 3000])
        ring = CheckpointRing(2, directory=tmp_path, keep_in_memory=False)
        for cut in sorted(snaps):
            ring.push(snaps[cut])
        assert ring_paths(tmp_path, spec) == [
            ring_path(tmp_path, spec, 2000),
            ring_path(tmp_path, spec, 3000),
        ]
        # Disk-only entries reload (and re-validate) their snapshot.
        entry = ring.newest_at_or_before(2500)
        assert entry.events == 2000 and entry.snapshot is None
        assert entry.load().events_processed == 2000

    def test_ring_files_are_plain_snapshots(self, tmp_path):
        spec = tight()
        ring = CheckpointRing(2, directory=tmp_path)
        ring.push(snapshot_after(spec, 1500))
        loaded = load_snapshot(ring_path(tmp_path, spec, 1500))
        assert loaded.events_processed == 1500
        assert loaded.machine is not None

    def test_newest_at_or_before(self):
        spec = tight()
        ring = CheckpointRing(4)
        for cut in [1000, 2000]:
            ring.push(snapshot_after(spec, cut))
        assert ring.newest_at_or_before(999) is None
        assert ring.newest_at_or_before(1000).events == 1000
        assert ring.newest_at_or_before(5000).events == 2000

    def test_rejects_degenerate_configurations(self):
        with pytest.raises(SnapshotError, match="capacity must be >= 1"):
            CheckpointRing(0)
        with pytest.raises(SnapshotError, match="neither a directory nor"):
            CheckpointRing(4, directory=None, keep_in_memory=False)


# ---------------------------------------------------------------------------
# TimeTravelDebugger
# ---------------------------------------------------------------------------
class TestTimeTravelDebugger:
    def test_step_banks_interval_checkpoints(self):
        debugger = TimeTravelDebugger(spec=tight(), interval=1000, capacity=8)
        debugger.step(3000)
        assert debugger.events == 3000
        assert debugger.inspect()["ring"] == [1000, 2000, 3000]
        assert debugger.last_restore is False

    def test_back_restores_natively_and_revisit_is_bit_identical(self):
        debugger = TimeTravelDebugger(spec=tight(), interval=1000, capacity=8)
        debugger.step(3000)
        seen_clock = debugger.clock
        seen_stats = debugger.stats()
        hop = debugger.back()
        assert hop == {
            "target": 2000, "events": 2000, "launched_from": 2000,
            "restored": True,
        }
        assert debugger.last_restore is True
        debugger.goto(3000)
        assert debugger.clock == seen_clock
        assert debugger.stats() == seen_stats

    def test_goto_backward_launches_from_best_banked_moment(self):
        debugger = TimeTravelDebugger(spec=tight(), interval=1000, capacity=8)
        debugger.step(4000)
        hop = debugger.goto(2500)
        assert hop["launched_from"] == 2000
        assert hop["restored"] is True
        assert debugger.events == 2500

    def test_back_past_the_ring_lands_on_genesis(self):
        debugger = TimeTravelDebugger(spec=tight(), interval=1000, capacity=8)
        debugger.step(2000)
        hop = debugger.back(10)
        assert hop["launched_from"] == 0
        assert debugger.events == 0

    def test_goto_below_genesis_is_an_error(self):
        snapshot = snapshot_after(tight(), 2000)
        debugger = TimeTravelDebugger(snapshot=snapshot, interval=1000)
        with pytest.raises(ReproError, match="starts at event 2000"):
            debugger.goto(1999)

    def test_result_after_time_travel_matches_uninterrupted(self):
        spec = tight()
        full = execute_spec(spec)
        debugger = TimeTravelDebugger(spec=spec, interval=1000, capacity=8)
        debugger.step(3000)
        debugger.back(2)
        debugger.run()
        assert debugger.complete()
        result = debugger.result()
        assert result["total_cycles"] == full.total_cycles
        assert result["events_processed"] == full.events_processed

    def test_result_before_completion_is_an_error(self):
        debugger = TimeTravelDebugger(spec=tight(), interval=1000)
        debugger.step(1000)
        with pytest.raises(ReproError, match="still in flight"):
            debugger.result()

    def test_threads_view_shows_frame_stacks(self):
        debugger = TimeTravelDebugger(spec=tight(), interval=1000)
        debugger.step(2000)
        rows = debugger.threads()
        assert rows
        bodies = " ".join(row["body"] for row in rows)
        assert "tightloop.body@" in bodies

    def test_save_writes_a_restorable_snapshot(self, tmp_path):
        debugger = TimeTravelDebugger(spec=tight(), interval=1000)
        debugger.step(2000)
        path = tmp_path / "moment.ckpt.json"
        saved = debugger.save(str(path))
        assert saved.machine is not None
        assert load_snapshot(path).events_processed == 2000

    def test_requires_exactly_one_starting_point(self):
        with pytest.raises(ReproError, match="exactly one"):
            TimeTravelDebugger()
        with pytest.raises(ReproError, match="exactly one"):
            TimeTravelDebugger(
                spec=tight(), snapshot=snapshot_after(tight(), 1000)
            )


# ---------------------------------------------------------------------------
# DebugSession command interpreter
# ---------------------------------------------------------------------------
class TestDebugSession:
    def _session(self, **kwargs):
        lines = []
        debugger = TimeTravelDebugger(
            spec=tight(), interval=1000, capacity=8, **kwargs
        )
        return DebugSession(debugger, emit=lines.append), lines

    def test_script_commands_split(self):
        assert script_commands("step 100; back ;; quit") == [
            "step 100", "back", "quit",
        ]

    def test_unique_prefixes_resolve(self):
        session, lines = self._session()
        session.execute("g 1500")  # only 'goto' starts with g
        assert session.debugger.events == 1500
        session.execute("i")
        assert json.loads(lines[-1])["events"] == 1500

    def test_ambiguous_prefix_is_reported(self):
        session, lines = self._session()
        assert session.execute("s 100") is True  # save/stats/step collide
        assert "ambiguous" in lines[-1]
        assert session.debugger.events == 0  # nothing moved

    def test_unknown_command_is_reported(self):
        session, lines = self._session()
        assert session.execute("warp 9") is True
        assert "unknown command" in lines[-1]

    def test_errors_are_printed_not_raised(self):
        session, lines = self._session()
        session.run(["goto -5", "quit"])
        assert any("error:" in line for line in lines)

    def test_scripted_session_time_travels(self):
        session, lines = self._session()
        exit_code = session.run(script_commands(
            "step 3000; back; inspect; continue; result; quit"
        ))
        assert exit_code == 0
        text = "\n".join(lines)
        assert "travelled via native restore of checkpoint @2000" in text
        assert '"last_restore": true' in text
        assert '"completed": true' in text


# ---------------------------------------------------------------------------
# CLI plumbing: repro debug --exec and repro run --auto-snapshot
# ---------------------------------------------------------------------------
class TestDebugCli:
    def test_debug_exec_from_spec(self, capsys):
        exit_code = main([
            "debug", "--workload", "tightloop", "--param", "iterations=60",
            "--cores", "16", "--interval", "1000",
            "--exec", "step 3000; back; quit",
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "debugging [tightloop[iterations=60]" in out
        assert "travelled via native restore of checkpoint @2000" in out

    def test_debug_from_ring_file(self, tmp_path, capsys):
        spec = tight()
        ring = CheckpointRing(2, directory=tmp_path)
        ring.push(snapshot_after(spec, 2000))
        path = ring_path(tmp_path, spec, 2000)
        exit_code = main([
            "debug", "--from", str(path), "--interval", "1000",
            "--exec", "inspect; quit",
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert '"genesis": 2000' in out

    def test_debug_needs_exactly_one_source(self, capsys):
        assert main(["debug"]) != 0
        assert main([
            "debug", "--workload", "tightloop", "--from", "x.json",
        ]) != 0

    def test_run_auto_snapshot_banks_ring_files(self, tmp_path, capsys):
        exit_code = main([
            "run", "fig7", "--configs", "WiSync", "--cores", "16",
            "--iterations", "200", "--checkpoint-every", "3000",
            "--auto-snapshot", "2", "--run-id", "drill",
            "--runs-dir", str(tmp_path), "--quiet",
        ])
        assert exit_code == 0
        checkpoints = tmp_path / "drill" / "checkpoints"
        ring_files = sorted(checkpoints.glob("*.ring-*.ckpt.json"))
        # The trail survives completion, pruned to the last K per spec...
        assert ring_files
        by_spec = {}
        for path in ring_files:
            by_spec.setdefault(path.name.split(".ring-")[0], []).append(path)
        assert all(len(paths) <= 2 for paths in by_spec.values())
        # ...while the single-cursor checkpoint files are gone.
        assert not [
            p for p in checkpoints.glob("*.ckpt.json") if ".ring-" not in p.name
        ]
        # Any ring file boots the debugger.
        exit_code = main([
            "debug", "--from", str(ring_files[-1]), "--exec", "inspect; quit",
        ])
        assert exit_code == 0

    def test_auto_snapshot_validation(self, tmp_path, capsys):
        # Needs --checkpoint-every to have anything to bank.
        assert main([
            "run", "fig7", "--quick", "--auto-snapshot", "4",
            "--runs-dir", str(tmp_path), "--quiet",
        ]) != 0
        # Needs a manifest for the checkpoints/ directory.
        assert main([
            "run", "fig7", "--quick", "--auto-snapshot", "4",
            "--checkpoint-every", "3000", "--no-manifest", "--quiet",
        ]) != 0
