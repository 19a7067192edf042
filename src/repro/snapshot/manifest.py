"""Run manifests: the on-disk record behind ``repro run --resume``.

Every manifest-tracked sweep owns a directory under the runs root
(``.wisync-runs/`` by default, overridable with ``--runs-dir`` or the
``REPRO_RUNS_DIR`` environment variable)::

    .wisync-runs/<run-id>/
        manifest.json      # sweep-shaping CLI args and status
        checkpoints/       # mid-spec snapshots (<spec key>.ckpt.json)
        results/           # per-spec results; doubles as the ResultCache dir

Each piece of recovery state has one home.  The manifest records the
arguments that shaped the grid, so ``repro run --resume <run-id>`` can
rebuild the *same* sweep without the user repeating them; the result cache
(``results/``, or the ``--cache`` the run was given) lets the resumed run
skip every finished grid point; ``checkpoints/`` then fast-forwards the spec
that was mid-flight when the run died, serial or ``--distributed``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import SnapshotError

MANIFEST_FORMAT = "wisync-run-manifest"
MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"

#: Default runs root, relative to the working directory.
DEFAULT_RUNS_DIR = ".wisync-runs"
#: Environment override for the runs root (e.g. a scratch filesystem).
RUNS_DIR_ENV = "REPRO_RUNS_DIR"

#: Lifecycle states recorded in the manifest.
STATUS_RUNNING = "running"
STATUS_COMPLETED = "completed"
STATUS_FAILED = "failed"


def runs_root(runs_dir: Optional[Union[str, Path]] = None) -> Path:
    """Resolve the runs root: explicit argument > environment > default."""
    if runs_dir is not None:
        return Path(runs_dir)
    return Path(os.environ.get(RUNS_DIR_ENV) or DEFAULT_RUNS_DIR)


def new_run_id() -> str:
    """A sortable, collision-resistant run id (timestamp + random suffix)."""
    # Host-side entropy for run-id uniqueness, never simulation state;
    # snapshot/ is outside the sim-core packages, so DET001's path scope
    # exempts it.
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return f"{stamp}-{os.urandom(3).hex()}"


def available_runs(runs_dir: Optional[Union[str, Path]] = None) -> List[str]:
    """Run ids with a manifest under the runs root, oldest first."""
    root = runs_root(runs_dir)
    if not root.is_dir():
        return []
    return sorted(
        entry.name for entry in root.iterdir() if (entry / MANIFEST_NAME).is_file()
    )


class RunManifest:
    """One sweep's on-disk run record; all mutations are written through."""

    def __init__(self, root: Path, payload: Dict[str, Any]) -> None:
        self.root = Path(root)
        self.payload = payload

    # --------------------------------------------------------- construction
    @classmethod
    def create(
        cls,
        experiment: str,
        args: Dict[str, Any],
        runs_dir: Optional[Union[str, Path]] = None,
        run_id: Optional[str] = None,
        cache_dir: Optional[str] = None,
    ) -> "RunManifest":
        """Start a new tracked run; the run directory must not already exist."""
        root = runs_root(runs_dir) / (run_id or new_run_id())
        if (root / MANIFEST_NAME).exists():
            raise SnapshotError(
                f"run {root.name!r} already exists under {root.parent}; "
                f"use 'repro run --resume {root.name}' to continue it"
            )
        root.mkdir(parents=True, exist_ok=True)
        (root / "checkpoints").mkdir(exist_ok=True)
        (root / "results").mkdir(exist_ok=True)
        payload = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "run_id": root.name,
            "experiment": experiment,
            "args": dict(args),
            "cache_dir": cache_dir,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "status": STATUS_RUNNING,
        }
        manifest = cls(root, payload)
        manifest._save()
        return manifest

    @classmethod
    def load(
        cls, run_id: str, runs_dir: Optional[Union[str, Path]] = None
    ) -> "RunManifest":
        """Open an existing run's manifest; raises :class:`SnapshotError`."""
        root = runs_root(runs_dir) / run_id
        path = root / MANIFEST_NAME
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except OSError:
            known = available_runs(runs_dir)
            hint = f"; known runs: {', '.join(known[-5:])}" if known else ""
            raise SnapshotError(f"no run manifest at {path}{hint}")
        except ValueError as error:
            raise SnapshotError(f"run manifest {path} is not valid JSON: {error}")
        if payload.get("format") != MANIFEST_FORMAT:
            raise SnapshotError(f"{path} is not a {MANIFEST_FORMAT} document")
        if payload.get("version") != MANIFEST_VERSION:
            raise SnapshotError(
                f"{path} has unsupported manifest version "
                f"{payload.get('version')!r} (this build reads {MANIFEST_VERSION})"
            )
        return cls(root, payload)

    # ------------------------------------------------------------ accessors
    @property
    def run_id(self) -> str:
        return self.payload["run_id"]

    @property
    def experiment(self) -> str:
        return self.payload["experiment"]

    @property
    def args(self) -> Dict[str, Any]:
        return dict(self.payload.get("args") or {})

    @property
    def status(self) -> str:
        return self.payload.get("status", STATUS_RUNNING)

    @property
    def path(self) -> Path:
        return self.root / MANIFEST_NAME

    @property
    def checkpoint_dir(self) -> Path:
        path = self.root / "checkpoints"
        path.mkdir(parents=True, exist_ok=True)
        return path

    @property
    def results_dir(self) -> Path:
        path = self.root / "results"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def cache_dir(self) -> str:
        """The result-cache directory this run records into.

        The ``--cache`` the user originally passed, if any; otherwise the
        manifest's own ``results/`` directory, so a resumed run can skip
        completed grid points even when the user never asked for a cache.
        """
        return self.payload.get("cache_dir") or str(self.results_dir)

    # ------------------------------------------------------------- mutation
    def mark_status(self, status: str) -> None:
        self.payload["status"] = status
        self._save()

    def _save(self) -> None:
        data = json.dumps(self.payload, indent=2, sort_keys=True)
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.root), prefix=MANIFEST_NAME, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(data)
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
