"""Write-ahead journal tests: file format, replay, restart recovery.

Three layers:

* file level — :class:`ServiceJournal` append/replay semantics: header,
  idempotence, torn-tail tolerance, corruption detection, record aggregation
  into per-job :class:`TaskReplay` states;
* property level — hypothesis sweeps over random record sequences and random
  truncation points (replay is a pure function of the file; a torn tail
  costs exactly the last record);
* restart level — a journaled daemon store killed mid-job and rebuilt with
  :meth:`~repro.service.jobstore.JobStore.recover` resumes the *same* job:
  completed specs are re-emitted without re-running, and the recovered
  results are bit-identical to a serial run.  A killed sweep host keeps no
  journal; hypothesis sweeps its recovery (a fresh store given the specs
  that have no result yet) over random grids and kill points via the
  embedded chaos drill.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import JournalError
from repro.runner import (
    JournalWarning,
    RunSpec,
    SerialExecutor,
    ServiceJournal,
    SweepSpec,
    TaskReplay,
)
from repro.runner.chaos import (
    ChaosSchedule,
    KillEvent,
    run_embedded_drill,
    verify_against_serial,
)
from repro.service import JobStore
from sweep_host import collect, serve

SRC = str(Path(__file__).resolve().parent.parent / "src")


def tightloop_spec(num_cores=8, iterations=2):
    return RunSpec(
        workload="tightloop", params={"iterations": iterations},
        config="WiSync", num_cores=num_cores,
    )


JOB = "j"


def _write(directory, *records):
    """Append task records of job ``JOB`` (submitted on a fresh journal)."""
    with ServiceJournal(directory) as journal:
        if not journal.exists():
            journal.append({"kind": "job-submitted", "job": JOB})
        for record in records:
            journal.append({"job": JOB, **record})


def _replay(directory):
    """The replayed task states of job ``JOB``."""
    return ServiceJournal(directory).replay_jobs()[JOB].tasks


class TestJournalFile:
    def test_missing_journal_replays_empty(self, tmp_path):
        journal = ServiceJournal(tmp_path)
        assert not journal.exists()
        assert journal.replay_jobs() == {}

    def test_first_append_writes_the_header(self, tmp_path):
        with ServiceJournal(tmp_path) as journal:
            journal.append({"kind": "job-submitted", "job": JOB})
        lines = journal.path.read_text().splitlines()
        assert len(lines) == 2
        header = lines[0]
        assert "wisync-broker-journal" in header

    def test_assigned_then_completed_round_trips(self, tmp_path):
        _write(
            tmp_path,
            {"kind": "assigned", "key": "k", "worker": "w"},
            {"kind": "completed", "key": "k", "result": {"total_cycles": 7}},
        )
        states = _replay(tmp_path)
        assert set(states) == {"k"}
        state = states["k"]
        assert state.result == {"total_cycles": 7}
        assert not state.leased
        assert not state.failed

    def test_in_flight_attempt_is_refunded(self, tmp_path):
        # The broker died while the task was leased: its death is not the
        # worker's fault, so the attempt must not be charged on restart.
        _write(tmp_path, {"kind": "assigned", "key": "k", "worker": "w"})
        state = _replay(tmp_path)["k"]
        assert state.attempts == 1
        assert state.leased
        assert state.settled_attempts() == 0

    def test_released_lease_is_refunded_too(self, tmp_path):
        _write(
            tmp_path,
            {"kind": "assigned", "key": "k", "worker": "w"},
            {"kind": "released", "key": "k"},
        )
        state = _replay(tmp_path)["k"]
        assert state.attempts == 0
        assert not state.leased
        assert state.settled_attempts() == 0

    def test_exclusion_burns_the_attempt_and_sticks(self, tmp_path):
        _write(
            tmp_path,
            {"kind": "assigned", "key": "k", "worker": "w1"},
            {"kind": "excluded", "key": "k",
             "worker": "w1", "reason": "worker crashed"},
        )
        state = _replay(tmp_path)["k"]
        assert state.excluded == {"w1"}
        assert state.errors == ["worker crashed"]
        assert state.attempts == 1
        assert not state.leased
        assert state.settled_attempts() == 1

    def test_old_checkpointed_records_warn_and_are_skipped(self, tmp_path):
        # Journals once carried each shipped snapshot a second time; the
        # checkpoint files are its one home now, so replay skips the copy.
        _write(
            tmp_path,
            {"kind": "assigned", "key": "k", "worker": "w"},
            {"kind": "checkpointed", "key": "k",
             "snapshot": {"events_processed": 500}},
            {"kind": "completed", "key": "k", "result": {"total_cycles": 1}},
        )
        with pytest.warns(JournalWarning, match="'checkpointed'"):
            state = _replay(tmp_path)["k"]
        assert state.result == {"total_cycles": 1}
        assert not state.leased

    def test_terminal_state_wins_over_late_records(self, tmp_path):
        # A completed record followed by stale transitions (late heartbeat
        # bookkeeping, a duplicate report) must not reopen the task.
        _write(
            tmp_path,
            {"kind": "completed", "key": "k", "result": {"total_cycles": 3}},
            {"kind": "assigned", "key": "k", "worker": "w"},
            {"kind": "failed", "key": "k", "reasons": ["late"]},
        )
        state = _replay(tmp_path)["k"]
        assert state.result == {"total_cycles": 3}
        assert not state.failed
        assert state.attempts == 0

    def test_failed_record_restores_the_reasons(self, tmp_path):
        _write(tmp_path, {"kind": "failed", "key": "k", "reasons": ["a", "b"]})
        state = _replay(tmp_path)["k"]
        assert state.failed
        assert state.errors == ["a", "b"]

    def test_torn_tail_warns_and_drops_only_the_tail(self, tmp_path):
        _write(
            tmp_path,
            {"kind": "assigned", "key": "k", "worker": "w"},
            {"kind": "completed", "key": "k", "result": {"total_cycles": 1}},
        )
        with open(ServiceJournal(tmp_path).path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "assi')  # killed mid-append: no newline
        with pytest.warns(JournalWarning, match="torn tail"):
            states = _replay(tmp_path)
        assert states["k"].result == {"total_cycles": 1}

    def test_mid_file_corruption_raises(self, tmp_path):
        _write(tmp_path, {"kind": "assigned", "key": "k", "worker": "w"})
        path = ServiceJournal(tmp_path).path
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0] + "not json\n" + "".join(lines[1:]))
        with pytest.raises(JournalError, match="corrupt at line 2"):
            ServiceJournal(tmp_path).replay_jobs()

    def test_foreign_header_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"format": "someone-elses-log", "version": 1}\n')
        with pytest.raises(JournalError, match="not a wisync-broker-journal"):
            ServiceJournal(tmp_path).replay_jobs()

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"format": "wisync-broker-journal", "version": 99}\n')
        with pytest.raises(JournalError, match="version 99"):
            ServiceJournal(tmp_path).replay_jobs()

    def test_unknown_kind_warns_and_is_skipped(self, tmp_path):
        _write(
            tmp_path,
            {"kind": "teleported", "key": "k"},
            {"kind": "assigned", "key": "k", "worker": "w"},
        )
        with pytest.warns(JournalWarning, match="unrecognized"):
            states = _replay(tmp_path)
        assert states["k"].attempts == 1

    def test_reopening_appends_without_a_second_header(self, tmp_path):
        _write(tmp_path, {"kind": "assigned", "key": "k", "worker": "w"})
        _write(tmp_path, {"kind": "released", "key": "k"})
        lines = ServiceJournal(tmp_path).path.read_text().splitlines()
        assert len(lines) == 4  # header + submission + two records
        assert _replay(tmp_path)["k"].attempts == 0


_KEYS = ("k-a", "k-b", "k-c")

_RECORDS = st.sampled_from(_KEYS).flatmap(lambda key: st.one_of(
    st.just({"kind": "assigned", "key": key, "worker": "w1"}),
    st.just({"kind": "assigned", "key": key, "worker": "w2"}),
    st.just({"kind": "released", "key": key}),
    st.just({"kind": "excluded", "key": key, "worker": "w1", "reason": "boom"}),
    st.just({"kind": "completed", "key": key, "result": {"total_cycles": 1}}),
    st.just({"kind": "failed", "key": key, "reasons": ["x"]}),
))


class TestReplayProperties:
    @given(records=st.lists(_RECORDS, max_size=25))
    @settings(max_examples=25, deadline=None)
    def test_replay_is_a_pure_idempotent_function_of_the_file(self, records):
        with tempfile.TemporaryDirectory() as directory:
            _write(directory, *records)
            first = _replay(directory)
            second = _replay(directory)
        assert first == second
        for state in first.values():
            assert isinstance(state, TaskReplay)
            assert state.attempts >= 0
            assert 0 <= state.settled_attempts() <= state.attempts
            if state.result is not None or state.failed:
                assert not state.leased  # terminal tasks hold no lease

    @given(records=st.lists(_RECORDS, min_size=1, max_size=10), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_any_torn_tail_costs_exactly_the_last_record(self, records, data):
        # For every journal and every truncation point inside the last
        # record, replay must warn and produce exactly the state of the
        # journal without that record — no more, no less.
        with tempfile.TemporaryDirectory() as reference:
            _write(reference, *records[:-1])
            expected = _replay(reference)
        with tempfile.TemporaryDirectory() as directory:
            _write(directory, *records)
            path = ServiceJournal(directory).path
            raw = path.read_text(encoding="utf-8")
            lines = raw.splitlines(keepends=True)
            last = lines[-1]
            # Cut at least the newline plus one byte of the record: any
            # proper prefix of a serialized JSON object is invalid JSON.
            cut = data.draw(st.integers(min_value=2, max_value=len(last) - 1))
            path.write_text("".join(lines[:-1]) + last[:-cut], encoding="utf-8")
            with pytest.warns(JournalWarning, match="torn tail"):
                got = _replay(directory)
        assert got == expected


class TestDaemonRestartRecovery:
    """A SIGKILL'd ``repro serve`` store rebuilt from its journal."""

    def _worker(self, port, *extra):
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--connect", f"127.0.0.1:{port}", *extra],
            env={"PYTHONPATH": SRC},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

    def _recovered(self, journal_dir):
        store = JobStore(journal=ServiceJournal(journal_dir))
        assert store.recover() == 1
        return store

    def _complete_one(self, specs, journal_dir):
        """Phase 1: a --max-tasks 1 worker completes exactly one spec, then
        the daemon "dies" (its sockets drop; the journal is what survives,
        exactly as under SIGKILL — fsync'd per record)."""
        store = JobStore(journal=ServiceJournal(journal_dir))
        job = store.submit(SweepSpec(name="night", specs=tuple(specs)))["job"]
        broker = serve(store)
        try:
            proc = self._worker(broker.port, "--max-tasks", "1")
            [(position, result)], _ = store.wait_for_landed(job, 0, 30.0)
            proc.wait(timeout=30)
        finally:
            broker.close()
            store.close_journal()
        return job, position, result

    def test_restart_reemits_completed_specs_without_rerunning(self, tmp_path):
        specs = [tightloop_spec(8), tightloop_spec(16), tightloop_spec(4, 50)]
        job, done_position, done_result = self._complete_one(specs, tmp_path)

        # Phase 2: a fresh store on the same journal replays the completed
        # spec (re-emitted, not re-run) and serves only the remaining two.
        second = self._recovered(tmp_path)
        assert second.stats["replayed"] == 1
        assert second.job_summary(job)["pending"] == 2
        broker = serve(second)
        try:
            drainer = self._worker(broker.port, "--max-tasks", "2")
            collected = collect(second, job)
            drainer.wait(timeout=30)
        finally:
            broker.close()
            second.close_journal()

        assert sorted(collected) == [0, 1, 2]
        # Zero re-runs of the completed spec: only two fresh assignments.
        assert second.stats["assigned"] == 2
        serial = SerialExecutor().run(specs)
        for position, result in collected.items():
            assert result.total_cycles == serial[position].total_cycles
            assert result.events_processed == serial[position].events_processed
            assert result.stats.to_dict() == serial[position].stats.to_dict()
        assert collected[done_position].total_cycles == done_result.total_cycles

    def test_restart_tolerates_a_torn_tail(self, tmp_path):
        specs = [tightloop_spec(8), tightloop_spec(16)]
        job, _, _ = self._complete_one(specs, tmp_path)
        with open(ServiceJournal(tmp_path).path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "assigned", "key": ')  # died mid-append
        with pytest.warns(JournalWarning, match="torn tail"):
            second = self._recovered(tmp_path)
        second.close_journal()
        assert second.stats["replayed"] == 1
        assert second.job_summary(job)["pending"] == 1

    def test_replaying_twice_is_idempotent_at_the_broker_too(self, tmp_path):
        specs = [tightloop_spec(8)]
        job, _, _ = self._complete_one(specs, tmp_path)
        for _ in range(2):  # recover from the journal twice: same state
            store = self._recovered(tmp_path)
            assert store.stats["replayed"] == 1
            assert store.job_summary(job)["state"] == "completed"
            store.close_journal()

    def test_old_job_less_journal_warns_and_recovers_nothing(self, tmp_path):
        # A journal the old single-sweep broker left behind has no ``job``
        # field: its records are reported and skipped, and no job comes back.
        spec = tightloop_spec(8)
        with ServiceJournal(tmp_path) as journal:
            journal.append({"kind": "assigned", "key": spec.key(), "worker": "w"})
            journal.append({
                "kind": "completed", "key": spec.key(),
                "result": SerialExecutor().run([spec])[0].to_dict(),
            })
        store = JobStore(journal=ServiceJournal(tmp_path))
        with pytest.warns(JournalWarning, match="job-less"):
            assert store.recover() == 0
        assert store.list_jobs() == []


class TestRestartRecoveryProperty:
    @given(data=st.data())
    @settings(
        max_examples=3, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_random_grid_random_kill_point_recovers_bit_identical(self, data):
        # For a random tightloop grid and a random kill point, kill the
        # sweep host -> resume it on the specs without a result -> rejoin
        # yields results bit-identical to serial.
        grid = data.draw(st.lists(
            st.tuples(st.sampled_from([20, 60, 120]), st.sampled_from([8, 16])),
            min_size=2, max_size=4, unique=True,
        ))
        kill_at = data.draw(st.floats(min_value=0.05, max_value=1.2))
        specs = [
            tightloop_spec(num_cores, iterations)
            for iterations, num_cores in grid
        ]
        schedule = ChaosSchedule(
            seed=0, kills=(KillEvent(target="broker", at=kill_at),)
        )
        with tempfile.TemporaryDirectory() as checkpoint_dir:
            report = run_embedded_drill(
                specs, schedule, checkpoint_dir,
                pool=2, lease_seconds=10.0, timeout=120.0,
            )
        problems = verify_against_serial(specs, report)
        assert problems == [], f"kill@{kill_at:.2f}s: {problems}"
