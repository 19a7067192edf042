"""Tests for the multi-tenant sweep service (`repro serve`).

Unit layers drive the :class:`JobStore` state machine directly (no sockets);
the socket layer exercises the real TCP plane with raw JSON-lines clients;
the e2e layer runs whole sweeps through HTTP + live workers and holds the
results to the paper contract: bit-identical to :class:`SerialExecutor`,
with the short-circuit/coalescing counters proving overlapping submissions
never reach a worker twice.
"""

import json
import socket
import threading
import time

import pytest

from repro.errors import ConfigurationError, ExecutionError, ServiceError
from repro.experiments.fig7_tightloop import fig7_sweep
from repro.machine.results import SimResult
from repro.runner import ResultCache, Runner, RunSpec, SerialExecutor, SweepSpec
from repro.runner.chaos import results_identical
from repro.runner.distributed import run_worker
from repro.runner.executor import execute_spec
from repro.runner.journal import ServiceJournal
from repro.runner.service_client import ServiceClient, ServiceExecutor
from repro.service import (
    JOB_CANCELLED,
    JOB_COMPLETED,
    JOB_FAILED,
    JOB_QUEUED,
    JobStore,
    SweepService,
    format_task_id,
    parse_task_id,
)


def tightloop_spec(num_cores=8, iterations=2):
    return RunSpec(
        workload="tightloop", params={"iterations": iterations},
        config="WiSync", num_cores=num_cores,
    )


def small_sweep(name="unit", cores=(4, 8), iterations=2):
    return SweepSpec(
        name=name,
        specs=tuple(tightloop_spec(c, iterations) for c in cores),
    )


def finish(store, message, worker):
    """Execute an assigned task message like a real worker would."""
    assert message["type"] == "task"
    job_id, position = parse_task_id(message["task"])
    result = execute_spec(RunSpec.from_dict(message["payload"])).to_dict()
    store.complete(job_id, position, worker, result)
    return job_id, position


class TestTaskId:
    def test_roundtrip(self):
        assert parse_task_id(format_task_id("job-1", 7)) == ("job-1", 7)

    def test_job_ids_containing_slashes_roundtrip(self):
        assert parse_task_id(format_task_id("a/b", 0)) == ("a/b", 0)

    def test_foreign_ids_are_rejected(self):
        assert parse_task_id(3) is None
        assert parse_task_id("no-separator") is None
        assert parse_task_id("job/x") is None
        assert parse_task_id("/3") is None


class TestJobStoreBasics:
    def test_submit_assign_complete_roundtrip(self):
        store = JobStore()
        job = store.submit(small_sweep())
        assert job["state"] == JOB_QUEUED and job["total"] == 2
        store.claim_worker("w")
        for _ in range(2):
            finish(store, store.assign("w"), "w")
        summary = store.job_summary(job["job"])
        assert summary["state"] == JOB_COMPLETED
        assert summary["done"] == 2
        assert store.assign("w")["type"] == "idle"  # never drains

    def test_empty_sweep_is_rejected(self):
        with pytest.raises(ConfigurationError, match="no specs"):
            JobStore().submit(SweepSpec(name="empty"))

    def test_duplicate_job_id_is_rejected(self):
        store = JobStore()
        store.submit(small_sweep(), job_id="fixed")
        with pytest.raises(ServiceError, match="already registered"):
            store.submit(small_sweep(), job_id="fixed")

    def test_bad_priority_is_rejected(self):
        with pytest.raises(ConfigurationError, match="priority"):
            JobStore().submit(small_sweep(), priority=0)

    def test_worker_name_collisions_get_ordinals(self):
        store = JobStore()
        assert store.claim_worker("host-1") == "host-1"
        assert store.claim_worker("host-1") == "host-1#2"
        assert store.claim_worker("host-1") == "host-1#3"
        store.drop_worker("host-1#2")
        assert store.claim_worker("host-1") == "host-1#2"

    def test_per_job_exclusion_does_not_leak_across_jobs(self):
        # One tenant's crashing spec excludes the worker for *that* spec
        # only: the other job's identical-core spec still assigns to it.
        store = JobStore(max_attempts=2)
        a = store.submit(small_sweep("a", cores=(4,)))
        b = store.submit(small_sweep("b", cores=(8,)))
        store.claim_worker("w")
        store.claim_worker("v")
        message = store.assign("w")
        job_id, position = parse_task_id(message["task"])
        assert job_id == a["job"]
        store.error(job_id, position, "w", "boom")
        # Job a's spec now excludes w; job b's spec must not.
        message = store.assign("w")
        assert parse_task_id(message["task"])[0] == b["job"]


class TestFairShare:
    def test_priority_weights_the_interleaving(self):
        store = JobStore()
        # Distinct iteration counts keep the two grids from coalescing.
        lo = store.submit(
            small_sweep("lo", cores=(4, 8, 16), iterations=2), priority=1
        )
        hi = store.submit(
            small_sweep("hi", cores=(4, 8, 16), iterations=3), priority=2
        )
        store.claim_worker("w")
        order = []
        for _ in range(6):
            message = store.assign("w")
            job_id, position = parse_task_id(message["task"])
            order.append("hi" if job_id == hi["job"] else "lo")
            store.complete(
                job_id, position, "w",
                execute_spec(RunSpec.from_dict(message["payload"])).to_dict(),
            )
        # Priority 2 gets two slots for every one of priority 1 while both
        # queues are non-empty (hi drains after its 3 specs), and the
        # schedule is deterministic.
        assert order == ["lo", "hi", "hi", "lo", "hi", "lo"]

    def test_cross_job_coalescing_runs_the_spec_once(self):
        store = JobStore()
        a = store.submit(small_sweep("a", cores=(4,)))
        b = store.submit(small_sweep("b", cores=(4,)))  # identical spec
        store.claim_worker("w")
        finish(store, store.assign("w"), "w")
        assert store.assign("w")["type"] == "idle"  # nothing left to run
        for job in (a, b):
            summary = store.job_summary(job["job"])
            assert summary["state"] == JOB_COMPLETED
        assert store.job_summary(b["job"])["coalesced"] == 1
        assert store.stats["assigned"] == 1
        results_a = store.job_results(a["job"])["runs"]
        results_b = store.job_results(b["job"])["runs"]
        assert results_a[0]["result"] == results_b[0]["result"]

    def test_failed_head_promotes_follower_with_fresh_budget(self):
        store = JobStore(max_attempts=1)
        a = store.submit(small_sweep("a", cores=(4,)))
        b = store.submit(small_sweep("b", cores=(4,)))
        store.claim_worker("w")
        message = store.assign("w")
        job_id, position = parse_task_id(message["task"])
        assert job_id == a["job"]
        store.error(job_id, position, "w", "boom")
        assert store.job_summary(a["job"])["state"] == JOB_FAILED
        # The follower re-runs under its own (fresh) attempt budget.
        message = store.assign("w")
        assert parse_task_id(message["task"])[0] == b["job"]
        finish(store, message, "w")
        assert store.job_summary(b["job"])["state"] == JOB_COMPLETED


class TestCacheShortCircuit:
    def test_cached_spec_never_reaches_a_worker(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = tightloop_spec(4)
        cache.put(spec, execute_spec(spec))
        store = JobStore(cache=cache)
        job = store.submit(small_sweep(cores=(4, 8)))
        summary = store.job_summary(job["job"])
        assert summary["short_circuited"] == 1
        assert summary["done"] == 1 and summary["pending"] == 1
        store.claim_worker("w")
        message = store.assign("w")
        assert RunSpec.from_dict(message["payload"]).num_cores == 8
        finish(store, message, "w")
        assert store.job_summary(job["job"])["state"] == JOB_COMPLETED
        assert store.stats["assigned"] == 1
        # The results payload marks which runs were answered from cache.
        runs = store.job_results(job["job"])["runs"]
        assert [run["cached"] for run in runs] == [True, False]

    def test_completed_results_are_banked_for_the_next_job(self, tmp_path):
        store = JobStore(cache=ResultCache(tmp_path / "cache"))
        store.submit(small_sweep("first", cores=(4,)))
        store.claim_worker("w")
        finish(store, store.assign("w"), "w")
        second = store.submit(small_sweep("second", cores=(4,)))
        assert store.job_summary(second["job"])["state"] == JOB_COMPLETED
        assert store.job_summary(second["job"])["short_circuited"] == 1
        assert store.stats["assigned"] == 1


class TestCancellation:
    def test_cancel_drops_queued_and_refunds_leased_once(self):
        store = JobStore()
        job = store.submit(small_sweep(cores=(4, 8)))
        store.claim_worker("w")
        message = store.assign("w")
        cancelled = store.cancel(job["job"])
        assert cancelled["state"] == JOB_CANCELLED
        assert cancelled["refunded"] == 1  # the leased spec, exactly once
        assert cancelled["cancelled"] == 2
        assert store.queue_depth() == 0
        # Cancelling again reports "nothing to do".
        assert store.cancel(job["job"]) is None
        # The straggler's eventual report lands on a terminal task:
        # counted as a duplicate, not a crash, and not a state change.
        job_id, position = parse_task_id(message["task"])
        result = execute_spec(RunSpec.from_dict(message["payload"])).to_dict()
        store.complete(job_id, position, "w", result)
        assert store.stats["duplicates"] == 1
        assert store.job_summary(job["job"])["state"] == JOB_CANCELLED

    def test_cancelled_heads_follower_is_promoted(self):
        store = JobStore()
        a = store.submit(small_sweep("a", cores=(4,)))
        b = store.submit(small_sweep("b", cores=(4,)))
        store.claim_worker("w")
        message = store.assign("w")
        assert parse_task_id(message["task"])[0] == a["job"]
        store.cancel(a["job"])
        message = store.assign("w")
        assert parse_task_id(message["task"])[0] == b["job"]
        finish(store, message, "w")
        assert store.job_summary(b["job"])["state"] == JOB_COMPLETED

    def test_straggler_result_completes_the_promoted_successor(self, tmp_path):
        # Job a's lease is cancelled while job b re-runs the same key: the
        # straggler's valid result is banked and completes b immediately.
        store = JobStore(cache=ResultCache(tmp_path / "cache"))
        a = store.submit(small_sweep("a", cores=(4,)))
        b = store.submit(small_sweep("b", cores=(4,)))
        store.claim_worker("w")
        message = store.assign("w")
        store.cancel(a["job"])
        job_id, position = parse_task_id(message["task"])
        result = execute_spec(RunSpec.from_dict(message["payload"])).to_dict()
        store.complete(job_id, position, "w", result)
        assert store.job_summary(b["job"])["state"] == JOB_COMPLETED
        assert store.stats["assigned"] == 1


class TestRecovery:
    def test_restart_replays_jobs_and_refunds_inflight(self, tmp_path):
        journal = ServiceJournal(tmp_path / "journal")
        store = JobStore(journal=journal)
        job = store.submit(small_sweep(cores=(4, 8)), name="night", priority=3)
        store.claim_worker("w")
        finish(store, store.assign("w"), "w")   # one spec done
        store.assign("w")                       # one spec in flight at death
        # SIGKILL: no graceful close; a fresh store replays the same dir.
        restarted = JobStore(journal=ServiceJournal(tmp_path / "journal"))
        assert restarted.recover() == 1
        summary = restarted.job_summary(job["job"])
        assert summary["name"] == "night"
        assert summary["priority"] == 3
        assert summary["done"] == 1      # finished spec re-emitted, not re-run
        assert summary["pending"] == 1   # in-flight lease refunded to ready
        assert restarted.stats["replayed"] == 1
        task = restarted._jobs[job["job"]].tasks[1]
        assert task.attempts == 0        # broker death is not worker fault
        restarted.claim_worker("w")
        finish(restarted, restarted.assign("w"), "w")
        assert restarted.job_summary(job["job"])["state"] == JOB_COMPLETED

    def test_cancelled_job_stays_cancelled_after_restart(self, tmp_path):
        store = JobStore(journal=ServiceJournal(tmp_path / "journal"))
        job = store.submit(small_sweep())
        store.cancel(job["job"])
        restarted = JobStore(journal=ServiceJournal(tmp_path / "journal"))
        assert restarted.recover() == 1
        assert restarted.job_summary(job["job"])["state"] == JOB_CANCELLED
        assert restarted.queue_depth() == 0

    def test_recovery_does_not_rejournal(self, tmp_path):
        store = JobStore(journal=ServiceJournal(tmp_path / "journal"))
        store.submit(small_sweep())
        path = tmp_path / "journal" / "journal.jsonl"
        before = path.read_text()
        restarted = JobStore(journal=ServiceJournal(tmp_path / "journal"))
        restarted.recover()
        assert path.read_text() == before

    def test_graceful_stop_charges_no_attempt(self, tmp_path):
        # Closing the service severs a worker that holds a lease, through
        # no fault of the worker's: the journal a restart replays must be
        # the one a SIGKILL leaves, with no attempt charged and nobody
        # excluded.
        journal_dir = str(tmp_path / "journal")
        svc = SweepService(journal_dir=journal_dir).start()
        try:
            job = svc.store.submit(small_sweep(cores=(4,)))["job"]
            sock = socket.create_connection(svc.worker_address)
            reader = sock.makefile("r", encoding="utf-8")
            sock.sendall(b'{"type": "hello", "worker": "w1"}\n')
            assert json.loads(reader.readline())["type"] == "welcome"
            sock.sendall(b'{"type": "next"}\n')
            assert json.loads(reader.readline())["type"] == "task"
        finally:
            svc.close()
        sock.close()
        restarted = JobStore(journal=ServiceJournal(journal_dir))
        assert restarted.recover() == 1
        task = restarted._jobs[job].tasks[0]
        assert task.attempts == 0
        assert task.excluded == set()
        assert restarted.job_summary(job)["pending"] == 1

    def test_recovered_job_resumes_from_its_checkpoint_file(self, tmp_path):
        # Shipped snapshots live in <journal dir>/checkpoints/, never in the
        # journal: a SIGKILL'd daemon's recovered job resumes the spec from
        # the file, bit-identical to serial.
        from repro.snapshot import (
            checkpoint_path,
            parse_document,
            snapshot_after,
            snapshot_document,
        )

        journal_dir = tmp_path / "journal"
        options = dict(journal_dir=str(journal_dir), checkpoint_every=2000)
        spec = tightloop_spec(16, iterations=60)
        store = SweepService(**options).store
        job = store.submit(SweepSpec(name="night", specs=(spec,)))["job"]
        store.claim_worker("w1")
        assert store.assign("w1")["checkpoint_every"] == 2000
        store.checkpoint(
            job, 0, "w1", snapshot_document(snapshot_after(spec, 2000))
        )
        path = checkpoint_path(str(journal_dir / "checkpoints"), spec)
        assert path.is_file()
        # SIGKILL: the store is replaced without being closed.
        restarted = SweepService(**options)
        assert restarted.recovered_jobs == 1
        restarted.store.claim_worker("w2")
        message = restarted.store.assign("w2")
        assert restarted.store.stats["resumed"] == 1
        snapshot = parse_document(message["checkpoint"])
        assert snapshot.events_processed == 2000
        result = execute_spec(spec, resume_from=snapshot)
        assert results_identical(result, SerialExecutor().run([spec])[0])
        restarted.store.complete(job, 0, "w2", result.to_dict())
        assert restarted.store.job_summary(job)["state"] == JOB_COMPLETED
        assert not path.exists()
        records = [
            json.loads(line)
            for line in (journal_dir / "journal.jsonl").read_text().splitlines()
        ]
        assert not any("snapshot" in record for record in records)
        store.close_journal()
        restarted.store.close_journal()


class TestServiceBrokerSocket:
    def _hello(self, port, payload):
        sock = socket.create_connection(("127.0.0.1", port))
        reader = sock.makefile("r", encoding="utf-8")
        sock.sendall((json.dumps(payload) + "\n").encode())
        reply = json.loads(reader.readline())
        return sock, reader, reply

    def test_bad_token_is_rejected(self):
        with SweepService(token="sekrit") as svc:
            sock, _, reply = self._hello(
                svc.worker_address[1],
                {"type": "hello", "worker": "spy", "token": "wrong"},
            )
            assert reply["type"] == "reject"
            sock.close()

    def test_welcome_assigns_unique_worker_names(self):
        with SweepService() as svc:
            port = svc.worker_address[1]
            sock1, _, reply1 = self._hello(port, {"type": "hello", "worker": "twin"})
            sock2, _, reply2 = self._hello(port, {"type": "hello", "worker": "twin"})
            assert reply1["worker"] == "twin"
            assert reply2["worker"] == "twin#2"
            sock1.close()
            sock2.close()

    def test_idle_reply_never_drains(self):
        with SweepService() as svc:
            sock, reader, _ = self._hello(
                svc.worker_address[1], {"type": "hello", "worker": "w"}
            )
            sock.sendall(b'{"type": "next"}\n')
            assert json.loads(reader.readline())["type"] == "idle"
            sock.close()

    def test_closing_service_never_answers_drain(self):
        # Only a sweep host's store drains its workers.  A daemon that is
        # stopping — even with every job finished — just hangs up, so a
        # --redial pool rides out its restart.
        svc = SweepService().start()
        try:
            job = svc.store.submit(small_sweep(cores=(4,)))["job"]
            sock, reader, _ = self._hello(
                svc.worker_address[1], {"type": "hello", "worker": "w"}
            )
            sock.sendall(b'{"type": "next"}\n')
            task = json.loads(reader.readline())
            result = execute_spec(RunSpec.from_dict(task["payload"]))
            sock.sendall((json.dumps({
                "type": "result", "task": task["task"],
                "result": result.to_dict(),
            }) + "\n").encode())
            svc.store.shutdown()  # the first step of close()
            sock.sendall(b'{"type": "next"}\n')
            assert json.loads(reader.readline())["type"] == "idle"
            assert svc.store.job_summary(job)["state"] == JOB_COMPLETED
        finally:
            svc.close()
        assert reader.readline() == ""  # hung up, never drained
        sock.close()


class TestPromptTeardown:
    """Stopping the daemon wakes its blocked threads; it waits out nothing."""

    def test_close_with_idle_planes_is_prompt(self):
        svc = SweepService().start()
        started = time.monotonic()
        svc.close()
        assert time.monotonic() - started < 0.5

    def test_close_with_a_connected_idle_worker_is_prompt(self):
        svc = SweepService().start()
        sock = socket.create_connection(svc.worker_address)
        reader = sock.makefile("r", encoding="utf-8")
        sock.sendall(b'{"type": "hello", "worker": "idle"}\n')
        assert json.loads(reader.readline())["type"] == "welcome"
        started = time.monotonic()
        svc.close()
        assert time.monotonic() - started < 0.5
        assert reader.readline() == ""  # the daemon hung up on the worker
        sock.close()

    def test_close_answers_a_held_long_poll_at_once(self):
        svc = SweepService().start()
        client = ServiceClient(svc.http_url)
        job = client.submit(small_sweep())
        answers = []
        poller = threading.Thread(target=lambda: answers.append(
            client.results(job["job"], after=0, wait=30.0)
        ))
        poller.start()
        deadline = time.monotonic() + 10.0
        while not svc.store._changed._waiters:  # until the poll is held
            assert time.monotonic() < deadline, "long-poll never reached the store"
            time.sleep(0.01)
        started = time.monotonic()
        svc.close()
        poller.join(timeout=5.0)
        assert time.monotonic() - started < 0.5
        assert answers[0]["state"] == JOB_QUEUED and answers[0]["runs"] == []


class TestLongPoll:
    def _store_with_landings(self, order):
        """A 3-spec job whose specs landed in ``order`` (positions)."""
        store = JobStore()
        job = store.submit(small_sweep(cores=(4, 8, 16)))["job"]
        store.claim_worker("w")
        leased = [store.assign("w") for _ in range(3)]
        for position in order:
            message = leased[position]
            result = execute_spec(RunSpec.from_dict(message["payload"]))
            store.complete(job, position, "w", result.to_dict())
        return store, job

    def test_after_returns_each_run_once_in_landing_order(self):
        store, job = self._store_with_landings([2, 0])  # 16 cores, then 4
        after_cursor = {
            after: [
                RunSpec.from_dict(run["spec"]).num_cores
                for run in store.wait_for_results(job, after, 0.0)["runs"]
            ]
            for after in (0, 1, 2)
        }
        assert after_cursor == {0: [16, 4], 1: [4], 2: []}
        # Without ``after``, runs stay sorted by position.
        assert [
            RunSpec.from_dict(run["spec"]).num_cores
            for run in store.job_results(job)["runs"]
        ] == [4, 16]

    def test_no_progress_returns_empty_at_its_wait(self):
        store, job = self._store_with_landings([1])
        started = time.monotonic()
        payload = store.wait_for_results(job, 1, 0.3)
        elapsed = time.monotonic() - started
        assert payload["runs"] == [] and payload["state"] == "running"
        assert 0.3 <= elapsed < 2.0

    def test_a_landing_run_wakes_a_held_long_poll(self):
        store, job = self._store_with_landings([])  # all three leased
        result = execute_spec(tightloop_spec(8)).to_dict()
        threading.Timer(0.2, store.complete, (job, 1, "w", result)).start()
        started = time.monotonic()
        payload = store.wait_for_results(job, 0, 10.0)
        assert time.monotonic() - started < 2.0
        assert [RunSpec.from_dict(run["spec"]).num_cores
                for run in payload["runs"]] == [8]

    def test_http_long_poll_returns_promptly_on_cancel(self):
        with SweepService() as svc:
            client = ServiceClient(svc.http_url)
            job = client.submit(small_sweep())["job"]
            threading.Timer(0.2, client.cancel, (job,)).start()
            started = time.monotonic()
            payload = client.results(job, after=0, wait=10.0)
            assert payload["state"] == JOB_CANCELLED and payload["runs"] == []
            # A terminal job answers at once, cursor or not.
            assert client.results(job, after=0, wait=10.0)["runs"] == []
            assert time.monotonic() - started < 2.0

    def test_http_rejects_malformed_cursors(self):
        with SweepService() as svc:
            client = ServiceClient(svc.http_url)
            job = client.submit(small_sweep())["job"]
            for query in ("after=-1", "after=x", "after=0&wait=nan"):
                with pytest.raises(ServiceError, match="400"):
                    client._request("GET", f"/jobs/{job}/results?{query}")

    def test_first_result_streams_before_the_job_is_terminal(self):
        with SweepService() as svc:
            host, port = svc.worker_address
            # A long wait: the first result must not wait it out.
            executor = ServiceExecutor(svc.http_url, poll_seconds=5.0)
            iterator = executor.run_iter([tightloop_spec(4), tightloop_spec(8)])
            threading.Thread(
                target=run_worker, args=(host, port),
                kwargs={"max_tasks": 1}, daemon=True,
            ).start()
            started = time.monotonic()
            first, _ = next(iterator)
            assert time.monotonic() - started < 2.5
            [job] = svc.store.list_jobs()
            assert job["state"] == "running"  # one spec still has no worker
            threading.Thread(
                target=run_worker, args=(host, port),
                kwargs={"max_tasks": 1}, daemon=True,
            ).start()
            assert [position for position, _ in iterator] == [1 - first]
            assert executor.last_job["state"] == JOB_COMPLETED

    def test_client_never_spins_on_a_daemon_that_ignores_the_cursor(self):
        # An older daemon answers ``?after=N&wait=S`` at once with every run
        # landed so far: the client must sleep out each wait, not spin.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        specs = [tightloop_spec(4), tightloop_spec(8)]
        runs = [
            {"spec": spec.to_dict(), "result": execute_spec(spec).to_dict(),
             "cached": False}
            for spec in specs
        ]
        requests = []
        opened = time.monotonic()

        class OldDaemon(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _reply(self, status, payload):
                body = json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                self._reply(201, {"job": "old", "state": "queued"})

            def do_GET(self):
                if not self.path.startswith("/jobs/old/results"):
                    self._reply(200, {"job": "old", "state": "completed"})
                    return
                requests.append(self.path)
                age = time.monotonic() - opened
                landed = runs[:1] if age < 0.8 else runs
                self._reply(200, {
                    "state": "running" if age < 0.8 else "completed",
                    "runs": landed, "failures": [],
                })

        server = ThreadingHTTPServer(("127.0.0.1", 0), OldDaemon)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            poll = 0.1
            executor = ServiceExecutor(
                f"http://127.0.0.1:{server.server_address[1]}",
                poll_seconds=poll,
            )
            yielded = [position for position, _ in executor.run_iter(specs)]
            elapsed = time.monotonic() - opened
        finally:
            server.shutdown()
            server.server_close()
        assert sorted(yielded) == [0, 1]
        assert "after=" in requests[0] and "wait=" in requests[0]
        # Answers with nothing new are paced one per ``poll``; only the
        # ones that bring a new run may follow without a pause.
        assert len(requests) <= elapsed / poll + len(specs) + 1


def _poll_terminal(client, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        summary = client.job(job_id)
        if summary["state"] in ("completed", "failed", "cancelled"):
            return summary
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not settle in {timeout}s")


class TestHttpApi:
    def test_statuses_and_streaming(self, tmp_path):
        with SweepService(cache_dir=str(tmp_path / "cache")) as svc:
            client = ServiceClient(svc.http_url)
            assert client.healthz() == {"status": "ok"}
            with pytest.raises(ServiceError, match="404"):
                client.job("nope")
            with pytest.raises(ServiceError, match="404"):
                client.cancel("nope")
            with pytest.raises(ServiceError, match="400"):
                client.submit(SweepSpec(name="empty"))
            job = client.submit(small_sweep(), name="probe", priority=2)
            assert job["name"] == "probe"
            # Results on a non-terminal job: 409 unless ?partial=1.
            with pytest.raises(ServiceError, match="409"):
                client.results(job["job"])
            partial = client.results(job["job"], partial=True)
            assert partial["runs"] == []
            assert [j["job"] for j in client.jobs()] == [job["job"]]
            stats = client.stats()
            assert stats["queue_depth"] == 2
            assert stats["service"]["jobs_submitted"] == 1
            cancelled = client.cancel(job["job"])
            assert cancelled["state"] == "cancelled"
            with pytest.raises(ServiceError, match="409"):
                client.cancel(job["job"])

    def test_negative_content_length_is_a_400(self):
        # rfile.read(-1) would read until the client hangs up, and the
        # client is waiting for the reply: answer at once instead.
        with SweepService() as svc:
            with socket.create_connection(svc.http.address, timeout=5.0) as sock:
                sock.sendall(
                    b"POST /jobs HTTP/1.0\r\nContent-Length: -1\r\n\r\n{}"
                )
                status = sock.makefile("rb").readline()
        assert b" 400 " in status

    def test_http_auth_is_enforced(self):
        with SweepService(token="sekrit") as svc:
            open_client = ServiceClient(svc.http_url)
            assert open_client.healthz() == {"status": "ok"}  # always open
            with pytest.raises(ServiceError, match="401"):
                open_client.jobs()
            assert ServiceClient(svc.http_url, token="sekrit").jobs() == []

    def test_client_rejects_non_http_url(self):
        with pytest.raises(ConfigurationError, match="http"):
            ServiceClient("sweephost:7788")


class TestEndToEnd:
    def test_two_clients_overlapping_grids_bit_identical(self, tmp_path):
        # The acceptance scenario: one daemon, two concurrent HTTP clients
        # with overlapping fig7-quick grids, results bit-identical to
        # SerialExecutor, and the overlap never reaches a worker twice.
        sweep_a = fig7_sweep(core_counts=[8, 16], iterations=2)
        sweep_b = fig7_sweep(core_counts=[16, 32], iterations=2)
        overlap = {s.key() for s in sweep_a} & {s.key() for s in sweep_b}
        unique = {s.key() for s in sweep_a} | {s.key() for s in sweep_b}
        assert overlap  # the scenario requires overlapping grids
        with SweepService(cache_dir=str(tmp_path / "cache")) as svc:
            host, port = svc.worker_address
            workers = [
                threading.Thread(
                    target=run_worker, args=(host, port),
                    kwargs={"max_tasks": len(unique)}, daemon=True,
                )
                for _ in range(2)
            ]
            for worker in workers:
                worker.start()
            outcome = {}

            def submit(name, sweep):
                executor = ServiceExecutor(
                    svc.http_url, name=name, poll_seconds=0.05
                )
                outcome[name] = executor.run(list(sweep.specs))

            threads = [
                threading.Thread(target=submit, args=("a", sweep_a)),
                threading.Thread(target=submit, args=("b", sweep_b)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180)
                assert not thread.is_alive()
            stats = svc.store.stats_snapshot()["service"]
        serial = SerialExecutor()
        for name, sweep in (("a", sweep_a), ("b", sweep_b)):
            expected = serial.run(list(sweep.specs))
            assert len(outcome[name]) == len(expected)
            assert all(
                results_identical(mine, theirs)
                for mine, theirs in zip(outcome[name], expected)
            )
        # Every unique spec ran exactly once; every overlapping spec was
        # answered broker-side (coalesced mid-flight or cache-hit).
        assert stats["assigned"] == len(unique)
        assert stats["coalesced"] + stats["short_circuited"] == len(overlap)

    def test_resubmission_is_all_short_circuit(self, tmp_path):
        sweep = small_sweep(cores=(4, 8))
        with SweepService(cache_dir=str(tmp_path / "cache")) as svc:
            host, port = svc.worker_address
            threading.Thread(
                target=run_worker, args=(host, port),
                kwargs={"max_tasks": 2}, daemon=True,
            ).start()
            client = ServiceClient(svc.http_url)
            first = client.submit(sweep)
            _poll_terminal(client, first["job"])
            second = client.submit(sweep)
            assert second["state"] == "completed"  # settled at submit time
            assert second["short_circuited"] == 2
            first_runs = client.results(first["job"])["runs"]
            second_runs = client.results(second["job"])["runs"]
            assert [r["result"] for r in first_runs] == [
                r["result"] for r in second_runs
            ]
            assert svc.store.stats["assigned"] == 2

    def test_daemon_restart_resumes_queued_job(self, tmp_path):
        # Submit with no workers connected, tear the daemon down, restart on
        # the same journal/cache directories: the job must come back and
        # then run to a result bit-identical to serial.
        sweep = small_sweep(cores=(4, 8))
        dirs = dict(
            journal_dir=str(tmp_path / "journal"),
            cache_dir=str(tmp_path / "cache"),
        )
        with SweepService(**dirs) as svc:
            job = ServiceClient(svc.http_url).submit(sweep, name="survivor")
        with SweepService(**dirs) as svc:
            assert svc.recovered_jobs == 1
            client = ServiceClient(svc.http_url)
            assert client.job(job["job"])["name"] == "survivor"
            host, port = svc.worker_address
            threading.Thread(
                target=run_worker, args=(host, port),
                kwargs={"max_tasks": 2}, daemon=True,
            ).start()
            summary = _poll_terminal(client, job["job"])
            assert summary["state"] == "completed"
            runs = client.results(job["job"])["runs"]
        expected = SerialExecutor().run(list(sweep.specs))
        assert all(
            results_identical(SimResult.from_dict(run["result"]), theirs)
            for run, theirs in zip(runs, expected)
        )

    def test_worker_token_end_to_end(self):
        with SweepService(token="sekrit") as svc:
            host, port = svc.worker_address
            with pytest.raises(ExecutionError, match="rejected"):
                run_worker(host, port, token="wrong")
            client = ServiceClient(svc.http_url, token="sekrit")
            job = client.submit(small_sweep(cores=(4,)))
            threading.Thread(
                target=run_worker, args=(host, port),
                kwargs={"token": "sekrit", "max_tasks": 1}, daemon=True,
            ).start()
            assert _poll_terminal(client, job["job"])["state"] == "completed"


class TestServiceExecutorContract:
    def test_runner_cache_and_manifest_path_composes(self, tmp_path):
        # `repro run --submit` rides the normal Runner path: the local cache
        # filters the grid before submission, so a second run submits nothing.
        sweep = small_sweep(cores=(4, 8))
        with SweepService() as svc:
            host, port = svc.worker_address
            threading.Thread(
                target=run_worker, args=(host, port),
                kwargs={"max_tasks": 2}, daemon=True,
            ).start()
            cache = ResultCache(tmp_path / "cache")
            runner = Runner(
                executor=ServiceExecutor(svc.http_url, poll_seconds=0.05),
                cache=cache,
            )
            first = runner.run(sweep)
            jobs_seen = len(svc.store.list_jobs())
            second = runner.run(sweep)
            assert len(svc.store.list_jobs()) == jobs_seen  # all local hits
        expected = SerialExecutor().run(list(sweep.specs))
        for sweep_result in (first, second):
            assert all(
                results_identical(mine, theirs)
                for (_, mine), theirs in zip(sweep_result, expected)
            )

    def test_failures_surface_after_successes(self):
        specs = [
            tightloop_spec(4),
            RunSpec(
                workload="fault_probe", params={"fail_times": 99},
                config="WiSync", num_cores=4,
            ),
        ]
        with SweepService() as svc:
            host, port = svc.worker_address
            threading.Thread(
                target=run_worker, args=(host, port), daemon=True,
            ).start()
            executor = ServiceExecutor(svc.http_url, poll_seconds=0.05)
            yielded = []
            with pytest.raises(ExecutionError, match="failed after retries"):
                for position, result in executor.run_iter(specs):
                    yielded.append(position)
            assert yielded == [0]  # the good spec still came through

    def test_abandoned_generator_cancels_the_job(self, tmp_path):
        # A client that walks away (Ctrl-C mid-iteration) must not leave its
        # job competing for the shared pool: the generator's cleanup path
        # withdraws it.  Pre-bank one spec in the service cache so the first
        # ``next()`` yields immediately; the second spec has no workers and
        # would hang forever if the close didn't cancel.
        cache = ResultCache(tmp_path / "cache")
        done_spec = tightloop_spec(4)
        cache.put(done_spec, execute_spec(done_spec))
        with SweepService(cache_dir=str(tmp_path / "cache")) as svc:
            executor = ServiceExecutor(svc.http_url, poll_seconds=0.05)
            iterator = executor.run_iter([done_spec, tightloop_spec(8)])
            position, result = next(iterator)
            assert position == 0
            iterator.close()  # walk away with one spec still pending
            jobs = ServiceClient(svc.http_url).jobs()
            assert len(jobs) == 1
            assert jobs[0]["state"] == "cancelled"

    def test_executor_rejects_bad_poll(self):
        with pytest.raises(ConfigurationError, match="poll"):
            ServiceExecutor("http://localhost:1", poll_seconds=0)


class TestCli:
    def test_run_submit_is_exclusive_with_local_executors(self, tmp_path):
        from repro.runner.cli import main

        assert main([
            "run", "fig7", "--quick", "--submit", "http://localhost:1",
            "--parallel", "2", "--no-manifest",
        ]) == 2  # ReproError -> exit 2

    def test_jobs_verbs_against_live_service(self, tmp_path, capsys):
        from repro.runner.cli import main

        with SweepService() as svc:
            job = ServiceClient(svc.http_url).submit(
                small_sweep(), name="cli-probe"
            )
            assert main(["jobs", "list", svc.http_url]) == 0
            listed = capsys.readouterr().out
            assert job["job"] in listed and "cli-probe" in listed
            assert main(["jobs", "show", svc.http_url, job["job"]]) == 0
            shown = capsys.readouterr().out
            assert "tightloop" in shown
            assert main(["jobs", "cancel", svc.http_url, job["job"]]) == 0
            assert "cancelled" in capsys.readouterr().out
            assert main(["jobs", "show", svc.http_url, "missing"]) == 2
            assert "404" in capsys.readouterr().err
