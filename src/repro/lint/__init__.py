"""Static analysis for the determinism & contract rules of the reproduction.

Every guarantee the repo makes — golden-pinned figures, distributed sweeps
bit-identical to serial, snapshot restore checked against declared state, chaos
recovery identical to baseline — rests on contracts nothing used to check
statically.  ``repro lint`` walks the AST and fails fast on:

==========  ==============================================================
DET001      ambient entropy (``random``/``os.urandom``/``uuid4``/wall
            clock) inside sim-core packages
DET002      iteration over bare sets / dict views where order leaks into
            event order or stats
SNAP001     simulator attributes missing from their class's ``STATE`` /
            ``REBUILT`` declaration, or stale declared names
PROTO001    broker/worker message kinds or journal record kinds that one
            side emits and the other never handles
ERR001      ``raise`` of exception types outside the ReproError hierarchy
SLOT001     assignment to attributes missing from ``__slots__``
==========  ==============================================================

Suppress a deliberate violation inline with ``# repro: noqa[RULE-ID] --
reason``; grandfather pre-existing findings with a baseline file
(``--baseline``).  See the README's "Static analysis" section.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Finding",
    "LintEngine",
    "ModuleInfo",
    "ModuleWalker",
    "ProjectRule",
    "Rule",
    "SCOPE_LIBRARY",
    "SCOPE_PROJECT",
    "SCOPE_SIM_CORE",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "SIM_CORE_PACKAGES",
    "apply_baseline",
    "default_rules",
    "load_baseline",
    "write_baseline",
]

_EXPORTS = {
    "Finding": "repro.lint.engine",
    "LintEngine": "repro.lint.engine",
    "ModuleInfo": "repro.lint.engine",
    "ModuleWalker": "repro.lint.engine",
    "ProjectRule": "repro.lint.engine",
    "Rule": "repro.lint.engine",
    "SCOPE_LIBRARY": "repro.lint.engine",
    "SCOPE_PROJECT": "repro.lint.engine",
    "SCOPE_SIM_CORE": "repro.lint.engine",
    "SEVERITY_ERROR": "repro.lint.engine",
    "SEVERITY_WARNING": "repro.lint.engine",
    "SIM_CORE_PACKAGES": "repro.lint.engine",
    "apply_baseline": "repro.lint.engine",
    "load_baseline": "repro.lint.engine",
    "write_baseline": "repro.lint.engine",
    "default_rules": "repro.lint.rules",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
