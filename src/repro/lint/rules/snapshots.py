"""SNAP001/SNAP002: declared simulator state and frame-serializability drift.

Checkpoints capture exactly what simulator classes declare: a class lists
the attributes a checkpoint captures in a ``STATE`` tuple and the ones the
deterministic build recreates in a ``REBUILT`` tuple, and the generic codec
in :mod:`repro.snapshot.native` reads nothing else.  An attribute in neither
list would be silently dropped by every checkpoint.  SNAP001 turns that drift
into a lint failure where the attribute is introduced: in every sim-core
class that declares ``STATE`` or ``REBUILT`` (with its base classes in the
same module), each ``__init__`` attribute and dataclass field must be
declared, and each declared name must be assigned by some ``__init__`` or be
a dataclass field.

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
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.lint.engine import (
    SCOPE_SIM_CORE,
    Finding,
    ModuleInfo,
    Rule,
    dotted_name,
    str_constants,
)

_DECLARATIONS = ("STATE", "REBUILT")


def _declared(node: ast.ClassDef) -> Optional[List[str]]:
    """The names a class body declares in STATE/REBUILT, or None if neither."""
    names: Optional[List[str]] = None
    for item in node.body:
        if isinstance(item, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in _DECLARATIONS for t in item.targets
        ):
            names = (names or []) + str_constants(item.value)
    return names


def _assigned(node: ast.ClassDef) -> Dict[str, ast.AST]:
    """``self.X`` targets of ``__init__``/``__post_init__``, and dataclass fields."""
    found: Dict[str, ast.AST] = {}
    decorators = [dotted_name(getattr(d, "func", d)) for d in node.decorator_list]
    if {"dataclass", "dataclasses.dataclass"} & set(decorators):
        for item in node.body:
            if (
                isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and "ClassVar" not in ast.dump(item.annotation)
            ):
                found.setdefault(item.target.id, item)
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name in ("__init__", "__post_init__"):
            for stmt in ast.walk(item):
                targets = getattr(stmt, "targets", None) or [getattr(stmt, "target", None)]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        found.setdefault(target.attr, target)
    return found


class Snap001SnapshotCompleteness(Rule):
    """Simulator attributes are declared checkpoint state or rebuilt."""

    id = "SNAP001"
    title = "simulator attribute missing from its class's state declaration"
    scope = SCOPE_SIM_CORE
    fix_hint = (
        "list the attribute in the class's STATE tuple (checkpoints capture it) "
        "or its REBUILT tuple (the deterministic build recreates it)"
    )

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        classes = {n.name: n for n in module.tree.body if isinstance(n, ast.ClassDef)}
        declared = {name: _declared(node) for name, node in classes.items()}
        assigned = {name: _assigned(node) for name, node in classes.items()}
        lineage = {name: self._lineage(name, classes) for name in classes}
        findings: List[Finding] = []
        for name, node in classes.items():
            if all(declared[c] is None for c in lineage[name]):
                continue
            names = {n for c in lineage[name] for n in declared[c] or ()}
            for attr, target in assigned[name].items():
                if attr not in names:
                    findings.append(self.finding(
                        module, target,
                        f"{name} assigns self.{attr}, which neither STATE nor "
                        f"REBUILT declares; checkpoints would silently drop it",
                    ))
            kin = [c for c in classes if name in lineage[c]] + lineage[name]
            for attr in declared[name] or ():
                if not any(attr in assigned[c] for c in kin):
                    findings.append(self.finding(
                        module, node,
                        f"{name} declares {attr!r}, which no __init__ assigns "
                        f"(stale declaration)",
                    ))
        return findings

    def _lineage(self, name: str, classes: Dict[str, ast.ClassDef]) -> List[str]:
        """The class and its base classes defined in the same module."""
        chain, pending = [], [name]
        while pending:
            current = pending.pop(0)
            if current in classes and current not in chain:
                chain.append(current)
                bases = classes[current].bases
                pending.extend(b.id for b in bases if isinstance(b, ast.Name))
        return chain


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
