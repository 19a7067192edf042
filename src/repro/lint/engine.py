"""Core machinery for ``repro lint``: findings, rules, walking, baselines.

The engine is deliberately small: rules are plain objects with a ``check``
method over parsed modules, the walker parses every file exactly once and
shares the trees, and suppression/baseline handling lives here so individual
rules never need to think about it.

Two kinds of rules exist:

* **module rules** (:class:`Rule`) look at one module at a time, optionally
  restricted to sim-core paths (``scope = SCOPE_SIM_CORE``);
* **project rules** (:class:`ProjectRule`) cross-check several modules
  against each other (snapshot completeness, wire-protocol closure) and may
  pull anchor modules from disk when they were not part of the scanned set.

Findings carry a line-number-independent *fingerprint* (rule + module-relative
path + message) so a committed baseline survives unrelated edits that shift
line numbers.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import LintError

#: Packages whose code runs *inside* the simulated machine: everything here
#: must be bit-identical across serial/parallel/distributed/restored runs, so
#: the determinism rules (DET001/DET002) apply.  Everything else —
#: ``runner/``, ``snapshot/``, ``analysis/``, ``experiments/`` — is host-side
#: infrastructure where wall-clock time and real entropy are legitimate
#: (retry jitter, cache staleness stamps, run ids); that is the path-scope
#: exemption the rule catalog documents.
SIM_CORE_PACKAGES = frozenset(
    {
        "sim",
        "core",
        "cpu",
        "mem",
        "noc",
        "wireless",
        "sync",
        "machine",
        "workloads",
        "isa",
    }
)

SCOPE_SIM_CORE = "sim-core"
SCOPE_LIBRARY = "library"
SCOPE_PROJECT = "project"

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: ``# repro: noqa[DET001]`` or ``# repro: noqa[DET001, ERR001]`` suppresses
#: the named rules on that line; ``# repro: noqa`` with no bracket suppresses
#: every rule.  Anything after ``--`` is a free-form reason (encouraged).
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_\-,\s]+)\])?(?:\s*--\s*(?P<reason>.*))?"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str  #: path as scanned (what the user sees, file:line clickable)
    rel: str  #: package-relative path (stable across checkouts; fingerprinted)
    line: int
    column: int
    message: str
    severity: str = SEVERITY_ERROR
    fix_hint: Optional[str] = None

    def fingerprint(self) -> str:
        """Stable identity for baseline matching, independent of line numbers."""
        digest = hashlib.sha256(
            f"{self.rule}|{self.rel}|{self.message}".encode("utf-8")
        ).hexdigest()
        return digest[:16]

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "severity": self.severity,
            "message": self.message,
            "fix_hint": self.fix_hint,
            "fingerprint": self.fingerprint(),
        }

    def format_text(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: {self.rule} {self.message}"


@dataclass
class ModuleInfo:
    """A parsed module plus everything rules need to reason about it."""

    path: Path  #: resolved absolute path
    display: str  #: path as given on the command line (used in findings)
    rel: str  #: posix path relative to the ``repro`` package / scan root
    source: str
    tree: ast.Module
    #: line -> suppressed rule ids (``None`` means every rule) for that line.
    noqa: Dict[int, Optional[frozenset]] = field(default_factory=dict)

    @property
    def top_package(self) -> str:
        return self.rel.split("/", 1)[0] if "/" in self.rel else ""

    @property
    def is_sim_core(self) -> bool:
        return self.top_package in SIM_CORE_PACKAGES

    def suppressed(self, line: int, rule_id: str) -> bool:
        rules = self.noqa.get(line, False)
        if rules is False:
            return False
        return rules is None or rule_id in rules


def _parse_noqa(source: str) -> Dict[int, Optional[frozenset]]:
    table: Dict[int, Optional[frozenset]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "noqa" not in text:
            continue
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            table[lineno] = None
        else:
            table[lineno] = frozenset(
                part.strip().upper() for part in rules.split(",") if part.strip()
            )
    return table


def _relative_module_path(path: Path, root: Optional[Path]) -> str:
    """Path of ``path`` relative to its ``repro`` package (or the scan root).

    ``src/repro/sim/engine.py`` -> ``sim/engine.py`` regardless of where the
    checkout lives; a fixture tree without a ``repro`` directory falls back to
    the scanned root, so ``<tmp>/sim/mod.py`` scanned from ``<tmp>`` still
    classifies as sim-core.
    """
    parts = path.parts
    for index in range(len(parts) - 1, 0, -1):
        if parts[index - 1] == "repro":
            return "/".join(parts[index:])
    if root is not None:
        try:
            return path.relative_to(root).as_posix()
        except ValueError:
            pass
    return path.name


class ModuleWalker:
    """Loads and parses modules exactly once; shared by every rule."""

    def __init__(self) -> None:
        self._cache: Dict[Path, ModuleInfo] = {}

    def load(
        self, path: Path, display: Optional[str] = None, root: Optional[Path] = None
    ) -> ModuleInfo:
        resolved = Path(path).resolve()
        cached = self._cache.get(resolved)
        if cached is not None:
            return cached
        try:
            source = resolved.read_text(encoding="utf-8")
        except OSError as error:
            raise LintError(f"cannot read {path}: {error}")
        try:
            tree = ast.parse(source, filename=str(resolved))
        except SyntaxError as error:
            raise LintError(
                f"{display or path}:{error.lineno or 0}: syntax error: {error.msg}"
            )
        info = ModuleInfo(
            path=resolved,
            display=str(display or path),
            rel=_relative_module_path(resolved, root),
            source=source,
            tree=tree,
            noqa=_parse_noqa(source),
        )
        self._cache[resolved] = info
        return info

    def collect(self, paths: Sequence[str]) -> List[ModuleInfo]:
        """Every ``.py`` module under ``paths``, sorted for stable output."""
        modules: List[ModuleInfo] = []
        seen: Set[Path] = set()
        for raw in paths:
            path = Path(raw)
            if not path.exists():
                raise LintError(f"no such file or directory: {raw}")
            if path.is_dir():
                root = path.resolve()
                for file_path in sorted(path.rglob("*.py")):
                    info = self.load(file_path, display=str(file_path), root=root)
                    if info.path not in seen:
                        seen.add(info.path)
                        modules.append(info)
            elif path.suffix == ".py":
                info = self.load(path, display=raw, root=path.resolve().parent)
                if info.path not in seen:
                    seen.add(info.path)
                    modules.append(info)
            else:
                raise LintError(f"not a python file: {raw}")
        return modules

    def find(self, modules: Sequence[ModuleInfo], rel_suffix: str) -> Optional[ModuleInfo]:
        """The scanned module whose package-relative path ends with ``rel_suffix``,
        falling back to loading it from disk next to a scanned sibling."""
        for module in modules:
            if module.rel == rel_suffix or module.rel.endswith("/" + rel_suffix):
                return module
        for module in modules:
            rel_parts = module.rel.split("/")
            if len(module.path.parts) < len(rel_parts):
                continue
            package_root = Path(*module.path.parts[: len(module.path.parts) - len(rel_parts)])
            candidate = package_root / rel_suffix
            if candidate.is_file():
                return self.load(candidate, display=str(candidate))
        return None


class Rule:
    """A single-module check.  Subclasses set the class attributes and
    implement :meth:`check_module`."""

    id: str = ""
    title: str = ""
    scope: str = SCOPE_LIBRARY
    severity: str = SEVERITY_ERROR
    fix_hint: str = ""

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self,
        module: ModuleInfo,
        node: ast.AST,
        message: str,
        fix_hint: Optional[str] = None,
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=module.display,
            rel=module.rel,
            line=getattr(node, "lineno", 0),
            column=getattr(node, "col_offset", 0) + 1,
            message=message,
            severity=self.severity,
            fix_hint=fix_hint if fix_hint is not None else (self.fix_hint or None),
        )


class ProjectRule(Rule):
    """A cross-module check over the whole scanned set."""

    scope = SCOPE_PROJECT

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        return ()

    def check_project(
        self, modules: Sequence[ModuleInfo], walker: ModuleWalker
    ) -> Iterable[Finding]:
        raise NotImplementedError


class LintEngine:
    """Runs a rule battery over a set of paths and returns ordered findings."""

    def __init__(
        self,
        rules: Sequence[Rule],
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
    ) -> None:
        known = {rule.id for rule in rules}
        chosen = list(rules)
        if select is not None:
            wanted = {rule_id.upper() for rule_id in select}
            unknown = wanted - known
            if unknown:
                raise LintError(f"unknown rule id(s) in --select: {', '.join(sorted(unknown))}")
            chosen = [rule for rule in chosen if rule.id in wanted]
        if ignore is not None:
            dropped = {rule_id.upper() for rule_id in ignore}
            unknown = dropped - known
            if unknown:
                raise LintError(f"unknown rule id(s) in --ignore: {', '.join(sorted(unknown))}")
            chosen = [rule for rule in chosen if rule.id not in dropped]
        self.rules: Tuple[Rule, ...] = tuple(chosen)

    def run(self, paths: Sequence[str]) -> List[Finding]:
        walker = ModuleWalker()
        modules = walker.collect(paths)
        by_path = {module.path: module for module in modules}
        findings: List[Finding] = []
        for rule in self.rules:
            if isinstance(rule, ProjectRule):
                raw = rule.check_project(modules, walker)
            else:
                raw = []
                for module in modules:
                    if rule.scope == SCOPE_SIM_CORE and not module.is_sim_core:
                        continue
                    raw.extend(rule.check_module(module))
            for item in raw:
                module = by_path.get(Path(item.path).resolve())
                if module is None:
                    # Finding in an anchor module pulled from disk: look it
                    # up in the walker cache so noqa still applies.
                    module = walker._cache.get(Path(item.path).resolve())
                if module is not None and module.suppressed(item.line, item.rule):
                    continue
                findings.append(item)
        findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule, f.message))
        return findings


# --------------------------------------------------------------- baselines
def load_baseline(path: Path) -> Set[str]:
    """Fingerprints grandfathered by a committed baseline file."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as error:
        raise LintError(f"cannot read baseline {path}: {error}")
    except ValueError as error:
        raise LintError(f"baseline {path} is not valid JSON: {error}")
    if not isinstance(payload, dict) or "findings" not in payload:
        raise LintError(f"baseline {path} must be an object with a 'findings' list")
    fingerprints: Set[str] = set()
    for entry in payload["findings"]:
        if not isinstance(entry, dict) or not isinstance(entry.get("fingerprint"), str):
            raise LintError(f"baseline {path} has an entry without a fingerprint")
        fingerprints.add(entry["fingerprint"])
    return fingerprints


def write_baseline(findings: Sequence[Finding], path: Path) -> None:
    payload = {
        "version": 1,
        "comment": (
            "Grandfathered `repro lint` findings.  Entries are matched by "
            "fingerprint (rule + module path + message, line-independent); "
            "fix the finding and delete its entry rather than adding new ones."
        ),
        "findings": [
            {
                "fingerprint": finding.fingerprint(),
                "rule": finding.rule,
                "module": finding.rel,
                "message": finding.message,
            }
            for finding in findings
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def apply_baseline(
    findings: Sequence[Finding], fingerprints: Set[str]
) -> Tuple[List[Finding], List[Finding]]:
    """Split findings into (new, baselined)."""
    new: List[Finding] = []
    baselined: List[Finding] = []
    for finding in findings:
        (baselined if finding.fingerprint() in fingerprints else new).append(finding)
    return new, baselined


# ---------------------------------------------------------- shared AST kit
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def str_constants(node: ast.AST) -> List[str]:
    """Every string literal directly in ``node`` (constant or tuple/list/set)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        values: List[str] = []
        for element in node.elts:
            values.extend(str_constants(element))
        return values
    return []


def module_string_env(tree: ast.Module) -> Dict[str, List[str]]:
    """Top-level ``NAME = "literal"`` (and tuple-unpack / collection) bindings.

    Lets rules resolve comparisons like ``kind == KIND_ASSIGNED`` without
    importing the module under analysis.
    """
    env: Dict[str, List[str]] = {}
    for statement in tree.body:
        if not isinstance(statement, ast.Assign):
            continue
        for target in statement.targets:
            if isinstance(target, ast.Name):
                values = str_constants(statement.value)
                if values:
                    env[target.id] = values
            elif isinstance(target, ast.Tuple) and isinstance(statement.value, ast.Tuple):
                if len(target.elts) == len(statement.value.elts):
                    for name_node, value_node in zip(target.elts, statement.value.elts):
                        if isinstance(name_node, ast.Name):
                            values = str_constants(value_node)
                            if values:
                                env[name_node.id] = values
    return env


def class_slots(class_node: ast.ClassDef) -> Optional[List[str]]:
    """The ``__slots__`` literal of a class body, or ``None`` if absent."""
    for item in class_node.body:
        if isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return str_constants(item.value)
    return None
