"""Lazy package namespaces (PEP 562).

A lazy package ``__init__`` imports nothing: it holds its docstring, its
``__all__`` and an ``_EXPORTS`` table from every public name to the module
that defines it, and hands the table to :func:`lazy_exports`.  So
``from repro import Manycore`` imports :mod:`repro.machine.manycore` on
first use, and a process loads only the layers its execution path runs: a
warm ``--cache`` run, the ``--submit`` client, the ``--distributed`` host
and the ``repro serve`` daemon never import the simulator.

Two packages stay eager: importing :mod:`repro.workloads` registers the
workload builders with :data:`~repro.runner.registry.REGISTRY`, and
:mod:`repro.lint.rules` assembles the rule set that ``repro lint`` always
needs whole.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each public name to its defining module.  The first
    lookup of a name imports that module and binds the name in the package,
    so later lookups never reach ``__getattr__``.  ``dir()`` lists every
    exported name, imported yet or not.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")  # repro: noqa[ERR001] -- PEP 562: hasattr() and from-imports need AttributeError
        # __import__, not importlib.import_module: ``python -X importtime``
        # reports only modules imported through __import__.
        __import__(module)
        value = namespace[name] = getattr(sys.modules[module], name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
