"""PROTO001: wire-protocol and journal closure.

The broker and its workers speak JSON-lines-over-TCP messages tagged with a
``"type"`` literal, and the crash-safety journal appends records tagged with
a ``"kind"`` literal.  Both vocabularies are stringly-typed, so adding a
message the other side never handles — or journaling a record replay never
aggregates — compiles, passes unit tests that don't exercise it, and then
loses data in production.  This rule extracts both vocabularies from the AST
and flags any kind that is sent-but-never-handled or journaled-but-never-
replayed.

Side attribution: dict literals built *inside* a broker-side class (the
one broker's two halves, ``ServiceBroker`` and ``JobStore``) are
broker-sent (must be compared somewhere outside those classes — the worker
functions); literals built outside are worker-sent (must be compared inside
a broker-side class).  Both vocabularies are aggregated across
``runner/distributed.py`` (the worker side) *and* every ``service/`` module
(the broker side) — a broker message (``reject``) handled only in the
worker's handshake, or a journal kind (``job-submitted``) written only by
``JobStore``, closes the vocabulary across module boundaries.  Journal replay handling counts only equality comparisons in
``runner/journal.py``, so a deleted ``elif kind == KIND_X`` aggregation
branch is caught even while ``_KNOWN_KINDS`` still lists the kind.

The service's HTTP payloads deliberately stay out of this vocabulary: they
tag with ``state``, never ``type``/``kind``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import (
    Finding,
    ModuleInfo,
    ModuleWalker,
    ProjectRule,
    module_string_env,
    str_constants,
)


class Proto001ProtocolClosure(ProjectRule):
    id = "PROTO001"
    title = "wire-protocol or journal vocabulary not closed"
    fix_hint = (
        "handle the kind on the receiving side (broker dispatch / worker "
        "reply loop / journal replay), or remove the dead sender"
    )

    #: Classes whose dict literals count as broker-sent: the worker plane
    #: and the store behind it.
    BROKER_CLASSES = ("ServiceBroker", "JobStore")

    def check_project(
        self, modules: Sequence[ModuleInfo], walker: ModuleWalker
    ) -> Iterable[Finding]:
        distributed = walker.find(modules, "runner/distributed.py")
        if distributed is None:
            return []
        wire_modules = [distributed] + [
            module
            for module in modules
            if module is not distributed
            and (module.rel.startswith("service/") or "/service/" in module.rel)
        ]
        findings: List[Finding] = []
        findings.extend(self._check_wire(wire_modules))
        journal = walker.find(list(modules) + [distributed], "runner/journal.py")
        findings.extend(self._check_journal(wire_modules, journal))
        return findings

    # ------------------------------------------------------------- wire kinds
    def _check_wire(self, modules: Sequence[ModuleInfo]) -> List[Finding]:
        broker_sent: Dict[str, Tuple[ModuleInfo, int]] = {}
        worker_sent: Dict[str, Tuple[ModuleInfo, int]] = {}
        handled_in_broker: Set[str] = set()
        handled_outside: Set[str] = set()
        for module in modules:
            env = module_string_env(module.tree)
            sent = self._tagged_dicts(module.tree, "type")
            for (kind, in_broker), line in sent.items():
                side = broker_sent if in_broker else worker_sent
                side.setdefault(kind, (module, line))
            for kind, in_broker in self._compared_strings(module.tree, env):
                (handled_in_broker if in_broker else handled_outside).add(kind)

        classes = "/".join(self.BROKER_CLASSES)
        findings: List[Finding] = []
        for kind in sorted(set(worker_sent) - handled_in_broker):
            module, line = worker_sent[kind]
            findings.append(
                self._at(
                    module,
                    line,
                    f"message kind {kind!r} is sent by workers but the broker "
                    f"never handles it (no comparison inside class {classes})",
                )
            )
        for kind in sorted(set(broker_sent) - handled_outside):
            module, line = broker_sent[kind]
            findings.append(
                self._at(
                    module,
                    line,
                    f"message kind {kind!r} is sent by the broker but workers "
                    f"never handle it (no comparison outside class {classes})",
                )
            )
        return findings

    # ---------------------------------------------------------- journal kinds
    def _check_journal(
        self, modules: Sequence[ModuleInfo], journal: Optional[ModuleInfo]
    ) -> List[Finding]:
        journaled: Dict[str, Tuple[ModuleInfo, int]] = {}
        for module in modules:
            for (kind, _in_broker), line in self._tagged_dicts(
                module.tree, "kind"
            ).items():
                journaled.setdefault(kind, (module, line))
        if not journaled or journal is None:
            return []
        env = module_string_env(journal.tree)
        replayed: Set[str] = set()
        for node in ast.walk(journal.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not all(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            for expr in [node.left] + list(node.comparators):
                replayed.update(self._resolve(expr, env))
        findings: List[Finding] = []
        for kind in sorted(set(journaled) - replayed):
            module, line = journaled[kind]
            findings.append(
                self._at(
                    module,
                    line,
                    f"journal record kind {kind!r} is written by the broker "
                    f"but runner/journal.py replay never aggregates it "
                    f"(no equality comparison)",
                )
            )
        return findings

    # --------------------------------------------------------------- helpers
    def _tagged_dicts(
        self, tree: ast.Module, tag: str
    ) -> Dict[Tuple[str, bool], int]:
        """``{(literal, built-in-a-broker-class): first lineno}`` for every
        dict literal carrying ``tag`` as a constant-string key."""
        found: Dict[Tuple[str, bool], int] = {}

        def visit(node: ast.AST, in_broker: bool) -> None:
            for child in ast.iter_child_nodes(node):
                child_in_broker = in_broker
                if isinstance(child, ast.ClassDef):
                    child_in_broker = child.name in self.BROKER_CLASSES
                elif isinstance(child, ast.Dict):
                    for key, value in zip(child.keys, child.values):
                        if (
                            isinstance(key, ast.Constant)
                            and key.value == tag
                            and isinstance(value, ast.Constant)
                            and isinstance(value.value, str)
                        ):
                            found.setdefault((value.value, in_broker), child.lineno)
                visit(child, child_in_broker)

        visit(tree, False)
        return found

    def _compared_strings(
        self, tree: ast.Module, env: Dict[str, List[str]]
    ) -> Set[Tuple[str, bool]]:
        """``(literal, compared-in-a-broker-class)`` for every string that
        appears in a comparison (``==``, ``!=``, ``in``, ``not in``)."""
        found: Set[Tuple[str, bool]] = set()

        def visit(node: ast.AST, in_broker: bool) -> None:
            for child in ast.iter_child_nodes(node):
                child_in_broker = in_broker
                if isinstance(child, ast.ClassDef):
                    child_in_broker = child.name in self.BROKER_CLASSES
                elif isinstance(child, ast.Compare):
                    for expr in [child.left] + list(child.comparators):
                        for literal in self._resolve(expr, env):
                            found.add((literal, in_broker))
                visit(child, child_in_broker)

        visit(tree, False)
        return found

    def _resolve(self, expr: ast.expr, env: Dict[str, List[str]]) -> List[str]:
        values = str_constants(expr)
        if values:
            return values
        if isinstance(expr, ast.Name):
            return env.get(expr.id, [])
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            resolved: List[str] = []
            for element in expr.elts:
                resolved.extend(self._resolve(element, env))
            return resolved
        return []

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
