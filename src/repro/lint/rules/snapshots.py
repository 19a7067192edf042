"""SNAP001/SNAP002: snapshot-completeness and frame-serializability drift.

Checkpoint/restore (PR 6) verifies a restored machine bit-for-bit against a
captured *native state*; that capture is a hand-maintained list.  A new
mutable attribute on :class:`Simulator` or :class:`Manycore` that nobody adds
to the capture silently weakens `_verify_native` until a restore diverges in
production.  SNAP001 turns that drift into a lint failure at the moment the
attribute is introduced: every ``__init__`` attribute must either be captured
or appear in the rule's exemption table with a reason.  It also checks the v2
thread-frame fields: every slot of :class:`~repro.cpu.frames.Frame` must be
read by ``snapshot/native.py:_capture_thread``.

SNAP002 enforces the frame-serializability contract documented in
:mod:`repro.cpu.frames`: everything stored in ``Frame.locals`` must be plain
data (ints, floats, strings, bools, None, Predicate records, and
tuples/lists thereof).  Lambdas, generators, sets, and dicts stored in a
frame local only blow up later, at the first native capture of that thread —
this rule rejects them where they are written, including in the locals
templates passed to ``Call(...)`` and ``FrameBody(...)``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import (
    Finding,
    ModuleInfo,
    ModuleWalker,
    ProjectRule,
    Rule,
    class_slots,
    find_class,
    find_method,
    init_self_attributes,
)


def _norm(name: str) -> str:
    return name.lstrip("_")


class Snap001SnapshotCompleteness(ProjectRule):
    id = "SNAP001"
    title = "snapshot capture out of sync with machine state"
    fix_hint = (
        "capture the new attribute in engine.checkpoint_state() / "
        "snapshot/execution.py:_native_state(), or exempt it in "
        "lint/rules/snapshots.py with a reason"
    )

    #: Simulator.__init__ attributes deliberately not in checkpoint_state():
    ENGINE_EXEMPT: Dict[str, str] = {
        "_queue": "captured by the native machine payload as describable "
        "callback records (snapshot/native.py:_capture_events)",
        "_running": "transient run-loop flag, always False between slices",
        "_stop": "transient stop request, always False between slices",
    }

    #: Manycore.__init__ attributes deliberately not in _native_state():
    MANYCORE_EXEMPT: Dict[str, str] = {
        "config": "validated immutable configuration; recorded in the spec",
        "tracer": "side-channel event log, not simulation state",
        "topology": "pure function of config.num_cores",
        "mesh": "captured by the native machine payload; externally visible "
        "state lands in stats",
        "memory": "captured by the native machine payload; externally "
        "visible state lands in stats",
        "cores": "captured by the native machine payload; externally visible "
        "state lands in stats",
        "fabric": "captured by the native machine payload; externally "
        "visible state lands in stats and the rng tree",
        "process_table": "rebuilt deterministically by the workload build "
        "that precedes every restore",
        "scheduler": "captured by the native machine payload",
        "programs": "workload definitions; recorded in the spec",
        "_soft_bm_next": "captured by the native machine payload",
        "_ran": "one-shot guard flag, set by begin() on the rebuilt machine",
        "_events_start": "captured by the native machine payload",
        "_bm_spill_base": "pure function of config",
        "_schedule": "hot-path bound method, not state",
        "_dispatch_table": "hot-path dispatch table, not state",
        "_dispatch_get": "hot-path bound method, not state",
        "frame_routines": "build-time routine table (static sync routines + "
        "workload closures), rebuilt identically by a deterministic build",
    }

    #: Flyweight slots that are not simulation state:
    FLYWEIGHT_EXEMPT: Set[str] = {"name"}

    def check_project(
        self, modules: Sequence[ModuleInfo], walker: ModuleWalker
    ) -> Iterable[Finding]:
        findings: List[Finding] = []
        engine = walker.find(modules, "sim/engine.py")
        if engine is not None:
            findings.extend(self._check_engine(engine))
        manycore = walker.find(modules, "machine/manycore.py")
        if manycore is not None:
            execution = walker.find(list(modules) + [manycore], "snapshot/execution.py")
            findings.extend(self._check_manycore(manycore, execution))
        stats = walker.find(modules, "sim/stats.py")
        if stats is not None:
            findings.extend(self._check_flyweights(stats))
        frames = walker.find(modules, "cpu/frames.py")
        if frames is not None:
            native = walker.find(list(modules) + [frames], "snapshot/native.py")
            if native is not None:
                findings.extend(self._check_frames(frames, native))
        return findings

    # ------------------------------------------------------------- Simulator
    def _check_engine(self, module: ModuleInfo) -> List[Finding]:
        simulator = find_class(module.tree, "Simulator")
        if simulator is None:
            return []
        checkpoint = find_method(simulator, "checkpoint_state")
        attrs = init_self_attributes(simulator)
        captured = self._dict_keys(checkpoint) if checkpoint is not None else set()
        properties = {
            item.name
            for item in simulator.body
            if isinstance(item, ast.FunctionDef)
            and any(
                isinstance(d, ast.Name) and d.id == "property"
                for d in item.decorator_list
            )
        }
        findings: List[Finding] = []
        captured_norm = {_norm(key) for key in captured}
        for attr, lineno in sorted(attrs.items()):
            if _norm(attr) in captured_norm or attr in self.ENGINE_EXEMPT:
                continue
            findings.append(
                self._at(
                    module,
                    lineno,
                    f"Simulator.__init__ assigns self.{attr} but "
                    f"checkpoint_state() does not capture it; restored "
                    f"simulations would silently lose it",
                )
            )
        known_norm = {_norm(a) for a in attrs} | {_norm(p) for p in properties}
        for key in sorted(captured):
            if _norm(key) not in known_norm:
                findings.append(
                    self._at(
                        module,
                        checkpoint.lineno if checkpoint is not None else 0,
                        f"checkpoint_state() captures {key!r}, which is not an "
                        f"attribute or property of Simulator (stale capture)",
                    )
                )
        return findings

    # -------------------------------------------------------------- Manycore
    def _check_manycore(
        self, module: ModuleInfo, execution: Optional[ModuleInfo]
    ) -> List[Finding]:
        manycore = find_class(module.tree, "Manycore")
        if manycore is None or execution is None:
            return []
        native_state = None
        for node in ast.walk(execution.tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_native_state":
                native_state = node
                break
        captured: Set[str] = set()
        if native_state is not None:
            for node in ast.walk(native_state):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "machine"
                ):
                    captured.add(node.attr)
        findings: List[Finding] = []
        captured_norm = {_norm(name) for name in captured}
        for attr, lineno in sorted(init_self_attributes(manycore).items()):
            if _norm(attr) in captured_norm or attr in self.MANYCORE_EXEMPT:
                continue
            findings.append(
                self._at(
                    module,
                    lineno,
                    f"Manycore.__init__ assigns self.{attr} but "
                    f"snapshot/execution.py:_native_state() does not capture "
                    f"it; checkpoints would silently omit it",
                )
            )
        return findings

    # ------------------------------------------------------------ flyweights
    def _check_flyweights(self, module: ModuleInfo) -> List[Finding]:
        registry = find_class(module.tree, "StatsRegistry")
        to_dict = find_method(registry, "to_dict") if registry is not None else None
        if to_dict is None:
            return []
        serialized = {
            node.attr for node in ast.walk(to_dict) if isinstance(node, ast.Attribute)
        }
        findings: List[Finding] = []
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            slots = class_slots(node)
            if not slots:
                continue
            for slot in slots:
                if slot in self.FLYWEIGHT_EXEMPT or slot.startswith("_"):
                    continue  # identity / derived caches, rebuilt on demand
                if slot not in serialized:
                    findings.append(
                        self._at(
                            module,
                            node.lineno,
                            f"{node.name}.__slots__ declares {slot!r} but "
                            f"StatsRegistry.to_dict() never serializes it; "
                            f"snapshots would silently drop it",
                        )
                    )
        return findings

    # --------------------------------------------------------- thread frames
    def _check_frames(
        self, frames: ModuleInfo, native: ModuleInfo
    ) -> List[Finding]:
        frame_class = find_class(frames.tree, "Frame")
        if frame_class is None:
            return []
        slots = class_slots(frame_class)
        capture = None
        for node in ast.walk(native.tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_capture_thread":
                capture = node
                break
        if capture is None:
            return []
        captured: Set[str] = set()
        for node in ast.walk(capture):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "frame"
            ):
                captured.add(node.attr)
        findings: List[Finding] = []
        for slot in sorted(slots):
            if slot in captured:
                continue
            findings.append(
                self._at(
                    frames,
                    frame_class.lineno,
                    f"Frame.__slots__ declares {slot!r} but "
                    f"snapshot/native.py:_capture_thread() never reads "
                    f"frame.{slot}; native thread captures would silently "
                    f"drop it",
                )
            )
        return findings

    # --------------------------------------------------------------- helpers
    def _dict_keys(self, function: ast.FunctionDef) -> Set[str]:
        keys: Set[str] = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        keys.add(key.value)
        return keys

    def _at(self, module: ModuleInfo, lineno: int, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=module.display,
            rel=module.rel,
            line=lineno,
            column=1,
            message=message,
            severity=self.severity,
            fix_hint=self.fix_hint,
        )


class Snap002FrameLocalsPlainData(Rule):
    """Frame locals must hold plain data, checked where they are written."""

    id = "SNAP002"
    title = "frame local holds non-serializable data"
    fix_hint = (
        "store only ints, floats, strings, bools, None, Predicate records, "
        "and tuples/lists of those in frame locals; unpack composite results "
        "inside the step and rebuild derived structures on demand"
    )

    #: Frame constructors whose second positional argument is a locals
    #: template that restore round-trips through JSON.
    TEMPLATE_CALLS = ("Call", "FrameBody")

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.FunctionDef) and self._takes_frame(node):
                findings.extend(self._check_step(module, node))
        findings.extend(self._check_templates(module))
        return findings

    # ------------------------------------------------------- step functions
    def _takes_frame(self, func: ast.FunctionDef) -> bool:
        args = func.args
        every = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        return any(arg.arg == "frame" for arg in every)

    def _check_step(self, module: ModuleInfo, func: ast.FunctionDef) -> List[Finding]:
        aliases = self._locals_aliases(func)
        findings: List[Finding] = []
        for stmt in ast.walk(func):
            if isinstance(stmt, ast.Assign):
                pairs = []
                for target in stmt.targets:
                    pairs.extend(self._store_pairs(target, stmt.value))
            elif isinstance(stmt, ast.AugAssign):
                pairs = list(self._store_pairs(stmt.target, stmt.value))
            else:
                continue
            for target, value in pairs:
                if not self._is_locals_store(target, aliases):
                    continue
                reason = self._bad_value(value)
                if reason is None:
                    continue
                findings.append(
                    self.finding(
                        module,
                        value,
                        f"{func.name}: frame local {self._key_repr(target)} is "
                        f"assigned {reason}; frame locals must be plain data "
                        f"so native snapshots can capture the frame",
                    )
                )
        return findings

    def _locals_aliases(self, func: ast.FunctionDef) -> Set[str]:
        """Names bound to ``frame.locals`` anywhere in the step."""
        aliases: Set[str] = set()
        for stmt in ast.walk(func):
            if not isinstance(stmt, ast.Assign):
                continue
            for target in stmt.targets:
                self._collect_aliases(target, stmt.value, aliases)
        return aliases

    def _collect_aliases(
        self, target: ast.expr, value: ast.expr, aliases: Set[str]
    ) -> None:
        if isinstance(target, ast.Name) and self._is_frame_locals(value):
            aliases.add(target.id)
            return
        if (
            isinstance(target, (ast.Tuple, ast.List))
            and isinstance(value, (ast.Tuple, ast.List))
            and len(target.elts) == len(value.elts)
        ):
            for t, v in zip(target.elts, value.elts):
                self._collect_aliases(t, v, aliases)

    def _is_frame_locals(self, node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "locals"
            and isinstance(node.value, ast.Name)
            and node.value.id == "frame"
        )

    def _store_pairs(
        self, target: ast.expr, value: ast.expr
    ) -> Iterator[Tuple[ast.expr, ast.expr]]:
        """(subscript-target, assigned-expression) pairs for one statement."""
        if isinstance(target, ast.Subscript):
            yield target, value
        elif isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, (ast.Tuple, ast.List)) and len(target.elts) == len(
                value.elts
            ):
                for t, v in zip(target.elts, value.elts):
                    yield from self._store_pairs(t, v)
            else:
                # Unmatched unpack: pair each element with the whole value,
                # which only ever flags literal bad expressions.
                for t in target.elts:
                    yield from self._store_pairs(t, value)

    def _is_locals_store(self, target: ast.expr, aliases: Set[str]) -> bool:
        if not isinstance(target, ast.Subscript):
            return False
        base = target.value
        if isinstance(base, ast.Name):
            return base.id in aliases
        return self._is_frame_locals(base)

    def _key_repr(self, target: ast.Subscript) -> str:
        key = target.slice
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            return repr(key.value)
        return "(dynamic key)"

    # ------------------------------------------------------ locals templates
    def _check_templates(self, module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self.TEMPLATE_CALLS
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Dict)
            ):
                continue
            template = node.args[1]
            for key in template.keys:
                if key is None:
                    continue
                if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"{node.func.id}(...) locals template key must be "
                            f"a string constant; non-string keys do not "
                            f"survive the snapshot JSON round trip",
                        )
                    )
            for value in template.values:
                reason = self._bad_value(value)
                if reason is None:
                    continue
                findings.append(
                    self.finding(
                        module,
                        value,
                        f"{node.func.id}(...) locals template holds {reason}; "
                        f"frame locals must be plain data so native "
                        f"snapshots can capture the frame",
                    )
                )
        return findings

    # ---------------------------------------------------------------- values
    def _bad_value(self, expr: ast.expr) -> Optional[str]:
        """Why ``expr`` cannot live in frame locals, or None if it can."""
        if isinstance(expr, ast.Lambda):
            return "a lambda (live code, not serializable)"
        if isinstance(expr, ast.GeneratorExp):
            return "a generator expression (live frame, not serializable)"
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "a set (unordered; not capturable by _encode_value)"
        if isinstance(expr, (ast.Dict, ast.DictComp)):
            return "a dict (not capturable as a frame-local value)"
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id in ("set", "frozenset", "dict")
        ):
            return f"a {expr.func.id}() (not capturable by _encode_value)"
        if isinstance(expr, (ast.Tuple, ast.List)):
            for element in expr.elts:
                reason = self._bad_value(element)
                if reason is not None:
                    return reason
        return None
