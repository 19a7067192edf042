"""Tests for the ``repro lint`` static-analysis subsystem.

Per-rule positive/negative fixtures are tiny module trees written to
``tmp_path``; path-scope classification uses the directory names, so a file
under ``<tmp>/sim/`` is sim-core and one under ``<tmp>/runner/`` is
infrastructure, exactly as in the real package.
"""

import json
import textwrap
from pathlib import Path

import pytest

import repro
from repro.errors import LintError
from repro.lint import (
    Finding,
    LintEngine,
    apply_baseline,
    default_rules,
    load_baseline,
    write_baseline,
)
from repro.runner.cli import main


def write_tree(root: Path, files: dict) -> str:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return str(root)


def lint(root, select=None, ignore=None):
    engine = LintEngine(default_rules(), select=select, ignore=ignore)
    return engine.run([str(root)])


def rule_ids(findings):
    return [finding.rule for finding in findings]


# ---------------------------------------------------------------- DET001
class TestDet001:
    def test_flags_ambient_entropy_in_sim_core(self, tmp_path):
        write_tree(tmp_path, {
            "sim/mod.py": """
                import os
                import random
                import time
                import uuid

                def bad():
                    a = random.random()
                    b = time.time()
                    c = uuid.uuid4()
                    d = os.urandom(8)
                    return a, b, c, d
            """,
        })
        findings = lint(tmp_path, select=["DET001"])
        assert len(findings) == 4
        messages = " ".join(f.message for f in findings)
        for banned in ("random.random", "time.time", "uuid.uuid4", "os.urandom"):
            assert banned in messages

    def test_flags_aliased_and_from_imports(self, tmp_path):
        write_tree(tmp_path, {
            "core/mod.py": """
                import random as rnd
                from time import monotonic
                from datetime import datetime

                def bad():
                    return rnd.Random(3), monotonic(), datetime.now()
            """,
        })
        findings = lint(tmp_path, select=["DET001"])
        assert len(findings) == 3

    def test_infrastructure_paths_exempt_by_scope(self, tmp_path):
        write_tree(tmp_path, {
            "runner/mod.py": """
                import time

                def fine():
                    return time.time()
            """,
        })
        assert lint(tmp_path, select=["DET001"]) == []

    def test_deterministic_rng_usage_is_clean(self, tmp_path):
        write_tree(tmp_path, {
            "wireless/mod.py": """
                def backoff(rng):
                    return rng.randint(0, 7)
            """,
        })
        assert lint(tmp_path, select=["DET001"]) == []


# ---------------------------------------------------------------- DET002
class TestDet002:
    def test_flags_iteration_over_bare_set(self, tmp_path):
        write_tree(tmp_path, {
            "noc/mod.py": """
                def bad(items):
                    pending = set(items)
                    for item in pending:
                        item.fire()
            """,
        })
        findings = lint(tmp_path, select=["DET002"])
        assert rule_ids(findings) == ["DET002"]
        assert "bare set" in findings[0].message

    def test_flags_materialized_set_and_attribute_sets(self, tmp_path):
        write_tree(tmp_path, {
            "mem/mod.py": """
                class Directory:
                    def __init__(self):
                        self.sharers = set()

                    def bad(self):
                        return [s for s in list(self.sharers)]
            """,
        })
        assert rule_ids(lint(tmp_path, select=["DET002"])) == ["DET002"]

    def test_sorted_iteration_is_clean(self, tmp_path):
        write_tree(tmp_path, {
            "mem/mod.py": """
                def fine(items):
                    targets = set(items)
                    for target in sorted(targets):
                        target.fire()
            """,
        })
        assert lint(tmp_path, select=["DET002"]) == []

    def test_dict_view_flagged_only_in_scheduling_functions(self, tmp_path):
        write_tree(tmp_path, {
            "sync/mod.py": """
                def schedules(sim, waiters):
                    for key, waiter in waiters.items():
                        sim.schedule(1, waiter)

                def accumulates(stats, counters):
                    for name in counters.keys():
                        stats.bump(name)
            """,
        })
        findings = lint(tmp_path, select=["DET002"])
        assert len(findings) == 1
        assert "dict view" in findings[0].message


# ---------------------------------------------------------------- ERR001
class TestErr001:
    def test_flags_builtin_and_local_exceptions(self, tmp_path):
        write_tree(tmp_path, {
            "runner/mod.py": """
                class LocalOops(Exception):
                    pass

                def bad(flag):
                    if flag:
                        raise ValueError("nope")
                    raise LocalOops()
            """,
        })
        findings = lint(tmp_path, select=["ERR001"])
        assert len(findings) == 2
        assert "ValueError" in findings[0].message or "ValueError" in findings[1].message

    def test_repro_errors_and_idioms_are_clean(self, tmp_path):
        write_tree(tmp_path, {
            "runner/mod.py": """
                from repro.errors import ConfigurationError, ReproError

                class LocalFine(ReproError):
                    pass

                def fine(flag):
                    if flag:
                        raise ConfigurationError("bad knob")
                    if flag is None:
                        raise NotImplementedError
                    raise LocalFine("derived")
            """,
        })
        assert lint(tmp_path, select=["ERR001"]) == []

    def test_reraise_of_bound_name_is_ignored(self, tmp_path):
        write_tree(tmp_path, {
            "runner/mod.py": """
                def fine():
                    try:
                        return 1
                    except Exception as error:
                        raise error
            """,
        })
        assert lint(tmp_path, select=["ERR001"]) == []


# --------------------------------------------------------------- SLOT001
class TestSlot001:
    def test_flags_undeclared_slot_assignment(self, tmp_path):
        write_tree(tmp_path, {
            "sim/mod.py": """
                class Event:
                    __slots__ = ("time", "seq")

                    def __init__(self, time, seq):
                        self.time = time
                        self.seq = seq
                        self.extra = None
            """,
        })
        findings = lint(tmp_path, select=["SLOT001"])
        assert rule_ids(findings) == ["SLOT001"]
        assert "self.extra" in findings[0].message

    def test_inherited_slots_and_unslotted_classes_are_clean(self, tmp_path):
        write_tree(tmp_path, {
            "sim/mod.py": """
                class Base:
                    __slots__ = ("name",)

                class Child(Base):
                    __slots__ = ("value",)

                    def __init__(self):
                        self.name = "x"
                        self.value = 0

                class Plain:
                    def __init__(self):
                        self.anything = 1
            """,
        })
        assert lint(tmp_path, select=["SLOT001"]) == []

    def test_unresolvable_base_skips_class(self, tmp_path):
        write_tree(tmp_path, {
            "sim/mod.py": """
                from collections import UserDict

                class Odd(UserDict):
                    __slots__ = ("x",)

                    def __init__(self):
                        self.whatever = 1
            """,
        })
        assert lint(tmp_path, select=["SLOT001"]) == []


# --------------------------------------------------------------- SNAP001
class TestSnap001:
    def test_flags_attribute_missing_from_checkpoint(self, tmp_path):
        write_tree(tmp_path, {
            "sim/engine.py": """
                class Simulator:
                    def __init__(self):
                        self.now = 0
                        self._seq = 0
                        self.leaked = []

                    def checkpoint_state(self):
                        return {"now": self.now, "seq": self._seq}
            """,
        })
        findings = lint(tmp_path, select=["SNAP001"])
        assert rule_ids(findings) == ["SNAP001"]
        assert "self.leaked" in findings[0].message

    def test_exempt_attributes_and_stale_keys(self, tmp_path):
        write_tree(tmp_path, {
            "sim/engine.py": """
                class Simulator:
                    def __init__(self):
                        self.now = 0
                        self._queue = []

                    def checkpoint_state(self):
                        return {"now": self.now, "ghost": 1}
            """,
        })
        findings = lint(tmp_path, select=["SNAP001"])
        # _queue is in the documented exemption table; 'ghost' is stale.
        assert len(findings) == 1
        assert "ghost" in findings[0].message

    def test_manycore_capture_cross_file(self, tmp_path):
        write_tree(tmp_path, {
            "machine/manycore.py": """
                class Manycore:
                    def __init__(self):
                        self.sim = object()
                        self.stats = object()
                        self.new_cache = {}
            """,
            "snapshot/execution.py": """
                def _native_state(machine):
                    return {
                        "engine": machine.sim,
                        "stats": machine.stats,
                    }
            """,
        })
        findings = lint(tmp_path, select=["SNAP001"])
        assert rule_ids(findings) == ["SNAP001"]
        assert "self.new_cache" in findings[0].message

    def test_frame_slot_missing_from_capture(self, tmp_path):
        write_tree(tmp_path, {
            "cpu/frames.py": """
                class Frame:
                    __slots__ = ("routine", "label", "locals", "widget")
            """,
            "snapshot/native.py": """
                def _capture_thread(thread):
                    return [
                        {"routine": frame.routine, "label": frame.label,
                         "locals": dict(frame.locals)}
                        for frame in thread.frames
                    ]
            """,
        })
        findings = lint(tmp_path, select=["SNAP001"])
        assert rule_ids(findings) == ["SNAP001"]
        assert "'widget'" in findings[0].message

    def test_frame_slots_all_captured(self, tmp_path):
        write_tree(tmp_path, {
            "cpu/frames.py": """
                class Frame:
                    __slots__ = ("routine", "label", "locals")
            """,
            "snapshot/native.py": """
                def _capture_thread(thread):
                    return [
                        {"routine": frame.routine, "label": frame.label,
                         "locals": dict(frame.locals)}
                        for frame in thread.frames
                    ]
            """,
        })
        assert lint(tmp_path, select=["SNAP001"]) == []


# --------------------------------------------------------------- SNAP002
class TestSnap002:
    def test_flags_closure_and_set_stores(self, tmp_path):
        write_tree(tmp_path, {
            "workloads/mod.py": """
                def _step(frame, value, env):
                    L, label = frame.locals, frame.label
                    L["callback"] = lambda x: x + 1
                    L["pending"] = set()
                    L["seen"] = {1, 2, 3}
                    frame.locals["table"] = {"a": 1}
                    return None
            """,
        })
        findings = lint(tmp_path, select=["SNAP002"])
        assert rule_ids(findings) == ["SNAP002"] * 4
        messages = " ".join(f.message for f in findings)
        assert "'callback'" in messages and "lambda" in messages
        assert "'pending'" in messages
        assert "'table'" in messages and "dict" in messages

    def test_plain_data_stores_are_clean(self, tmp_path):
        write_tree(tmp_path, {
            "workloads/mod.py": """
                def _step(frame, value, env):
                    L, label = frame.locals, frame.label
                    L["iter"] = 0
                    L["name"] = "x"
                    L["pair"] = (1, 2)
                    L["flags"] = [True, False]
                    old, success = value
                    L["old"] = old
                    return None
            """,
        })
        assert lint(tmp_path, select=["SNAP002"]) == []

    def test_alias_free_functions_not_confused(self, tmp_path):
        # Subscript stores into unrelated dicts are not frame locals.
        write_tree(tmp_path, {
            "workloads/mod.py": """
                def _step(frame, value, env):
                    cache = {}
                    cache["fn"] = lambda x: x
                    return None

                def helper(table):
                    table["fn"] = lambda x: x
            """,
        })
        assert lint(tmp_path, select=["SNAP002"]) == []

    def test_flags_bad_locals_template(self, tmp_path):
        write_tree(tmp_path, {
            "workloads/mod.py": """
                def build(sid):
                    return Call("sync.barrier.wait", {sid: 1}, "waited")

                def spawn():
                    return FrameBody("body", {"hook": lambda: None})
            """,
        })
        findings = lint(tmp_path, select=["SNAP002"])
        assert rule_ids(findings) == ["SNAP002"] * 2
        messages = " ".join(f.message for f in findings)
        assert "string constant" in messages
        assert "lambda" in messages

    def test_good_locals_template_is_clean(self, tmp_path):
        write_tree(tmp_path, {
            "workloads/mod.py": """
                def build(sid, label):
                    return Call("sync.barrier.wait", {"sid": sid}, label)

                def spawn():
                    return FrameBody("body")
            """,
        })
        assert lint(tmp_path, select=["SNAP002"]) == []


# -------------------------------------------------------------- PROTO001
class TestProto001:
    DISTRIBUTED = """
        class ServiceBroker:
            def serve(self, kind):
                if kind == "hello":
                    return {"type": "welcome"}
                if kind == "result":
                    return {"type": "task"}
                return None

        def run_worker(reply):
            t = reply["type"]
            if t == "welcome":
                return {"type": "hello"}
            if t == "task":
                return {"type": "result"}
            return {"type": "orphan"}
    """

    def test_flags_sent_but_never_handled_kind(self, tmp_path):
        write_tree(tmp_path, {"runner/distributed.py": self.DISTRIBUTED})
        findings = lint(tmp_path, select=["PROTO001"])
        assert rule_ids(findings) == ["PROTO001"]
        assert "'orphan'" in findings[0].message
        assert "never handles" in findings[0].message

    def test_flags_journaled_but_never_replayed_kind(self, tmp_path):
        write_tree(tmp_path, {
            "runner/distributed.py": """
                class Broker:
                    def record(self):
                        self._journal_append({"kind": "assigned", "task": 1})
                        self._journal_append({"kind": "zombie", "task": 2})
            """,
            "runner/journal.py": """
                KIND_ASSIGNED = "assigned"

                def replay(kind):
                    if kind == KIND_ASSIGNED:
                        return True
                    return False
            """,
        })
        findings = lint(tmp_path, select=["PROTO001"])
        assert rule_ids(findings) == ["PROTO001"]
        assert "'zombie'" in findings[0].message
        assert "never aggregates" in findings[0].message

    def test_closed_protocol_is_clean(self, tmp_path):
        closed = self.DISTRIBUTED.replace('return {"type": "orphan"}', "return None")
        write_tree(tmp_path, {"runner/distributed.py": closed})
        assert lint(tmp_path, select=["PROTO001"]) == []

    def test_service_module_kind_without_worker_handler_is_flagged(self, tmp_path):
        # A kind built inside ServiceBroker/JobStore in a service/ module
        # that no worker-side code compares leaves the vocabulary open.
        closed = self.DISTRIBUTED.replace('return {"type": "orphan"}', "return None")
        write_tree(tmp_path, {
            "runner/distributed.py": closed,
            "service/daemon.py": """
                class ServiceBroker:
                    def serve(self):
                        return {"type": "reject"}
            """,
        })
        findings = lint(tmp_path, select=["PROTO001"])
        assert rule_ids(findings) == ["PROTO001"]
        assert "'reject'" in findings[0].message
        assert findings[0].rel == "service/daemon.py"

    def test_service_kind_handled_by_worker_in_other_module_is_clean(self, tmp_path):
        # Closure is aggregated across modules: the worker-side handshake in
        # runner/distributed.py satisfies a ServiceBroker-sent 'reject', and
        # JobStore's broker-side dispatch satisfies worker-sent kinds.
        closed = self.DISTRIBUTED.replace(
            'return {"type": "orphan"}', 'return {"type": "release"}'
        )
        write_tree(tmp_path, {
            "runner/distributed.py": closed + """

        def handshake(welcome):
            if welcome.get("type") == "reject":
                raise RuntimeError("rejected")
            """,
            "service/daemon.py": """
                class ServiceBroker:
                    def serve(self, kind):
                        if kind == "release":
                            return {"type": "reject"}
                        return None
            """,
        })
        assert lint(tmp_path, select=["PROTO001"]) == []

    def test_service_journal_kind_without_replay_is_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "runner/distributed.py": """
                class Broker:
                    def record(self):
                        self._journal_append({"kind": "assigned", "task": 1})
            """,
            "service/jobstore.py": """
                class JobStore:
                    def submit(self):
                        self._journal_append({"kind": "job-submitted"})
            """,
            "runner/journal.py": """
                KIND_ASSIGNED = "assigned"

                def replay(kind):
                    if kind == KIND_ASSIGNED:
                        return True
                    return False
            """,
        })
        findings = lint(tmp_path, select=["PROTO001"])
        assert rule_ids(findings) == ["PROTO001"]
        assert "'job-submitted'" in findings[0].message
        assert "never aggregates" in findings[0].message


# ----------------------------------------------------------- suppressions
class TestNoqa:
    def test_noqa_with_rule_id_suppresses(self, tmp_path):
        write_tree(tmp_path, {
            "sim/mod.py": """
                import time

                def stamped():
                    return time.time()  # repro: noqa[DET001] -- test fixture
            """,
        })
        assert lint(tmp_path, select=["DET001"]) == []

    def test_blanket_noqa_suppresses_everything(self, tmp_path):
        write_tree(tmp_path, {
            "sim/mod.py": """
                import time

                def stamped():
                    return time.time()  # repro: noqa
            """,
        })
        assert lint(tmp_path) == []

    def test_noqa_for_other_rule_does_not_suppress(self, tmp_path):
        write_tree(tmp_path, {
            "sim/mod.py": """
                import time

                def stamped():
                    return time.time()  # repro: noqa[ERR001]
            """,
        })
        assert rule_ids(lint(tmp_path, select=["DET001"])) == ["DET001"]


# -------------------------------------------------------------- baselines
class TestBaseline:
    def make_finding(self, line):
        return Finding(
            rule="DET001",
            path="src/repro/sim/mod.py",
            rel="sim/mod.py",
            line=line,
            column=1,
            message="call to time.time() in sim-core code",
        )

    def test_fingerprint_survives_line_drift(self):
        assert self.make_finding(10).fingerprint() == self.make_finding(99).fingerprint()

    def test_roundtrip_and_filtering(self, tmp_path):
        baseline_file = tmp_path / "baseline.json"
        grandfathered = self.make_finding(10)
        write_baseline([grandfathered], baseline_file)
        fingerprints = load_baseline(baseline_file)
        fresh = Finding(
            rule="ERR001",
            path="src/repro/runner/mod.py",
            rel="runner/mod.py",
            line=5,
            column=1,
            message="raise of builtin ValueError",
        )
        new, baselined = apply_baseline([self.make_finding(42), fresh], fingerprints)
        assert [f.rule for f in new] == ["ERR001"]
        assert [f.rule for f in baselined] == ["DET001"]

    def test_malformed_baseline_raises_lint_error(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("[]")
        with pytest.raises(LintError):
            load_baseline(bad)


# -------------------------------------------------------------------- CLI
class TestCli:
    def test_exit_zero_and_text_output_on_clean_tree(self, tmp_path, capsys):
        write_tree(tmp_path, {"sim/mod.py": "x = 1\n"})
        assert main(["lint", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_with_file_line_and_rule_id(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "sim/mod.py": """
                import time

                def stamped():
                    return time.time()
            """,
        })
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "sim/mod.py:5:" in out
        assert "DET001" in out

    def test_json_output_schema(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "sim/mod.py": """
                import time

                def stamped():
                    return time.time()
            """,
        })
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["total"] == 1
        assert payload["counts"] == {"DET001": 1}
        finding = payload["findings"][0]
        for key in ("rule", "path", "line", "column", "severity", "message",
                    "fix_hint", "fingerprint"):
            assert key in finding
        assert finding["rule"] == "DET001"

    def test_baseline_grandfathers_findings(self, tmp_path, capsys):
        root = tmp_path / "tree"
        write_tree(root, {
            "sim/mod.py": """
                import time

                def stamped():
                    return time.time()
            """,
        })
        baseline = tmp_path / "baseline.json"
        assert main([
            "lint", str(root), "--baseline", str(baseline), "--write-baseline",
        ]) == 0
        capsys.readouterr()
        assert main(["lint", str(root), "--baseline", str(baseline)]) == 0
        assert "grandfathered" in capsys.readouterr().out

    def test_select_and_ignore_validation(self, tmp_path, capsys):
        write_tree(tmp_path, {"sim/mod.py": "x = 1\n"})
        assert main(["lint", str(tmp_path), "--select", "NOPE99"]) == 2
        assert "unknown rule" in capsys.readouterr().err
        assert main(["lint", str(tmp_path), "--ignore", "DET001"]) == 0

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "DET001",
            "DET002",
            "SNAP001",
            "SNAP002",
            "PROTO001",
            "ERR001",
            "SLOT001",
        ):
            assert rule_id in out


# ---------------------------------------------------------------- self-lint
class TestSelfLint:
    def test_shipped_tree_is_clean(self):
        """The committed package passes its own battery with no baseline."""
        package_dir = Path(repro.__file__).parent
        findings = LintEngine(default_rules()).run([str(package_dir)])
        assert findings == [], "\n".join(f.format_text() for f in findings)

    def test_seeded_violation_in_package_copy_is_caught(self, tmp_path):
        """Acceptance drill: a time.time() smuggled into sim/engine.py fails lint."""
        import shutil

        package_dir = Path(repro.__file__).parent
        copy = tmp_path / "repro"
        shutil.copytree(package_dir, copy)
        engine_py = copy / "sim" / "engine.py"
        source = engine_py.read_text().replace(
            "self.now: int = 0",
            "self.now: int = 0\n        import time\n        self.booted = time.time()",
        )
        engine_py.write_text(source)
        findings = LintEngine(default_rules()).run([str(copy)])
        rules = {finding.rule for finding in findings}
        assert "DET001" in rules  # the wall-clock read
        assert "SNAP001" in rules  # the uncaptured attribute
