"""Workload registry: name -> builder.

Workload modules self-register their builders with the
:func:`register_workload` decorator::

    @register_workload("tightloop")
    def build_tightloop(machine, iterations=10, ...):
        ...

which is what makes a :class:`~repro.runner.spec.RunSpec` serializable — the
spec carries only the *name* plus JSON parameters, and any process (including
a pool worker) can rebuild the workload by importing :mod:`repro.workloads`
and looking the name up here.  New scenario modules only need the decorator;
the runner, cache, and CLI pick them up automatically.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple, TYPE_CHECKING

from repro.errors import WorkloadError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.machine.manycore import Manycore
    from repro.workloads.base import WorkloadHandle

#: A workload builder: ``builder(machine, **params) -> WorkloadHandle``.
WorkloadBuilder = Callable[..., "WorkloadHandle"]


class WorkloadRegistry:
    """Mutable mapping from workload names to builder callables."""

    def __init__(self) -> None:
        self._builders: Dict[str, WorkloadBuilder] = {}
        self._populated = False

    # ---------------------------------------------------------- registration
    def register(self, name: str) -> Callable[[WorkloadBuilder], WorkloadBuilder]:
        """Decorator registering ``builder`` under ``name``.

        Re-registering the same name is an error unless it is the same
        callable (module reloads in interactive sessions are harmless).
        """
        if not name or not isinstance(name, str):
            raise WorkloadError("workload names must be non-empty strings")

        def decorator(builder: WorkloadBuilder) -> WorkloadBuilder:
            existing = self._builders.get(name)
            if existing is not None and getattr(existing, "__qualname__", None) != getattr(
                builder, "__qualname__", None
            ):
                raise WorkloadError(f"workload {name!r} is already registered as {existing!r}")
            self._builders[name] = builder
            return builder

        return decorator

    # --------------------------------------------------------------- lookup
    def get(self, name: str) -> WorkloadBuilder:
        self._ensure_populated()
        if name not in self._builders:
            raise WorkloadError(
                f"unknown workload {name!r}; registered workloads: {self.names()}"
            )
        return self._builders[name]

    def names(self) -> List[str]:
        self._ensure_populated()
        return sorted(self._builders)

    def __contains__(self, name: str) -> bool:
        self._ensure_populated()
        return name in self._builders

    def build(self, machine: "Manycore", name: str, params: Dict[str, object]) -> "WorkloadHandle":
        """Instantiate workload ``name`` on ``machine`` with ``params``.

        The parameters are checked against the builder's signature before it
        runs: an unknown or missing one raises :class:`WorkloadError` naming
        the workload and every such parameter.  A ``TypeError`` raised inside
        the builder propagates unchanged.
        """
        builder = self.get(name)
        unknown, missing = _unbound(builder, params)
        if unknown or missing:
            problems = []
            if unknown:
                problems.append(f"unknown parameter(s) {', '.join(map(repr, unknown))}")
            if missing:
                problems.append(f"missing parameter(s) {', '.join(map(repr, missing))}")
            raise WorkloadError(f"workload {name!r}: {'; '.join(problems)}")
        return builder(machine, **params)

    # ------------------------------------------------------------ internals
    def _ensure_populated(self) -> None:
        """Import the workload package so its modules self-register.

        Lazy so that ``repro.runner`` stays importable from workload modules
        themselves without a cycle, and so worker processes populate the
        registry on first lookup.
        """
        if not self._populated:
            # Flag, not an emptiness check: a user-registered workload must
            # not suppress the import that registers the built-in ones.
            self._populated = True
            import repro.workloads  # noqa: F401  (import side effect registers builders)


def _unbound(builder: WorkloadBuilder, params: Dict[str, object]) -> Tuple[List[str], List[str]]:
    """The parameters ``builder(machine, **params)`` would reject: those it
    does not take, and the required ones ``params`` leaves out."""
    # Local import: only a process that builds a machine needs it, and that
    # process has loaded inspect already (dataclasses imports it).
    import inspect

    # The first parameter is the machine, which params cannot name.
    taken = list(inspect.signature(builder).parameters.values())[1:]
    named = [p for p in taken if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)]
    names = {p.name for p in named}
    if any(p.kind is p.VAR_KEYWORD for p in taken):
        unknown: List[str] = []
    else:
        unknown = sorted(key for key in params if key not in names)
    missing = [p.name for p in named if p.default is p.empty and p.name not in params]
    return unknown, missing


#: The process-wide registry used by the executor and CLI.
REGISTRY = WorkloadRegistry()


def register_workload(name: str) -> Callable[[WorkloadBuilder], WorkloadBuilder]:
    """Register a workload builder on the global :data:`REGISTRY`."""
    return REGISTRY.register(name)


def workload_names() -> List[str]:
    """Names of every registered workload."""
    return REGISTRY.names()
