"""On-disk JSON result cache keyed by ``RunSpec.key()``.

Re-running a figure with one changed axis (an extra core count, one more
configuration) only simulates the delta; every grid point already on disk is
loaded back instead of re-simulated.  One JSON file per spec keeps concurrent
sweeps safe — writers go through a same-directory temp file + ``os.replace``
so readers never observe a partial file.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional, Set, Union

from repro.machine.results import SimResult
from repro.runner.spec import RunSpec

#: Bump when the on-disk layout or SimResult serialization changes shape.
#: v2: results carry ``extra["operations"]`` / ``extra["wall_seconds"]``,
#: which the MetricFrame analysis layer derives per-op metrics from.
CACHE_FORMAT_VERSION = 2

#: ``*.tmp`` files older than this are orphans: a writer that died between
#: ``mkstemp`` and ``os.replace``.  A live writer holds its temp file for the
#: milliseconds one ``json.dump`` takes, so ten minutes is a wide margin even
#: for distributed workers sharing the directory over a slow network mount.
STALE_TMP_AGE_SECONDS = 600.0


class ResultCache:
    """Directory of ``<spec-key>.json`` files storing serialized results."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    # ---------------------------------------------------------------- paths
    def entry_path(self, spec: RunSpec) -> Path:
        return self.path / f"{spec.key()}.json"

    def __contains__(self, spec: RunSpec) -> bool:
        return self.entry_path(spec).is_file()

    def __len__(self) -> int:
        return sum(1 for _ in self.path.glob("*.json"))

    def contains(self, key: str) -> bool:
        """Fast-path presence check by spec *key* — one stat, no body read.

        Purely an existence test: a corrupt or stale-version entry still
        "contains" until the eventual :meth:`get` evicts it.  That is the
        contract the sweep service's broker-side short-circuit relies on —
        it always follows a positive ``contains`` with a ``get``, so dead
        entries fall through to normal scheduling instead of being served.
        """
        return (self.path / f"{key}.json").is_file()

    def keys(self) -> Set[str]:
        """Spec keys of every entry currently on disk (no bodies read)."""
        return {entry.stem for entry in self.path.glob("*.json")}

    # ------------------------------------------------------------ get / put
    def get(self, spec: RunSpec) -> Optional[SimResult]:
        """The cached result for ``spec``, or None on a miss.

        Dead entries (see :meth:`_load`) are deleted on the spot: they can
        never be served again (``put`` would overwrite them anyway), and
        leaving them around would make ``len(cache)`` count dead files.
        """
        entry = self.entry_path(spec)
        try:
            result = self._load(entry)
        except OSError:
            self.misses += 1
            return None
        if result is None:
            self.misses += 1
            self._evict(entry)
            return None
        self.hits += 1
        return result

    def put(self, spec: RunSpec, result: SimResult) -> None:
        """Store ``result`` under ``spec``'s key (atomic replace)."""
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "spec": spec.to_dict(),
            "result": result.to_dict(),
        }
        handle, temp_name = tempfile.mkstemp(dir=self.path, suffix=".tmp")
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                json.dump(payload, stream)
            os.replace(temp_name, self.entry_path(spec))
        except FileNotFoundError:
            # A concurrent clear() swept our in-flight temp file out from
            # under us.  The entry is simply not cached; losing that race
            # must not abort a sweep that already simulated the result.
            pass
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------- maintenance
    def clear(self) -> int:
        """Delete every cache entry and temp file; returns the number removed.

        Race-safe against other maintainers (multi-host shared directories):
        an entry someone else already removed is simply not counted.
        """
        removed = 0
        for entry in self.path.glob("*.json"):
            removed += self._evict(entry)
        return removed + self._sweep_tmp(max_age=None)

    def prune(self, stale_tmp_age: float = STALE_TMP_AGE_SECONDS) -> int:
        """Delete every dead entry (see :meth:`_load`); returns the count.

        ``get`` already evicts dead entries it happens to touch; ``prune``
        sweeps the whole directory, e.g. after bumping
        :data:`CACHE_FORMAT_VERSION`.  Orphaned ``*.tmp`` files older than
        ``stale_tmp_age`` seconds — leaked by writers that died mid-``put``,
        a recurring state when many distributed workers share the directory —
        are swept too; younger ones may belong to a live writer and are kept.
        """
        removed = 0
        for entry in self.path.glob("*.json"):
            try:
                if self._load(entry) is None:
                    removed += self._evict(entry)
            except OSError:
                continue  # concurrently removed; nothing to prune
        return removed + self._sweep_tmp(max_age=stale_tmp_age)

    @staticmethod
    def _load(entry: Path) -> Optional[SimResult]:
        """The result stored in ``entry``, or None if the entry is dead.

        Dead means it cannot be served: not JSON, not this
        :data:`CACHE_FORMAT_VERSION`, or not the shape ``put`` writes.
        Raises ``OSError`` when the file cannot be read at all.
        """
        data = entry.read_bytes()
        try:
            payload = json.loads(data)
            if payload["version"] == CACHE_FORMAT_VERSION:
                return SimResult.from_dict(payload["result"])
        except (AttributeError, KeyError, TypeError, ValueError):
            pass
        return None

    def _sweep_tmp(self, max_age: Optional[float]) -> int:
        """Delete ``*.tmp`` files older than ``max_age`` seconds (None = all)."""
        removed = 0
        # Host-side wall clock for cache-file staleness; runner/ is outside
        # the sim-core packages, so DET001's path scope exempts it.
        now = time.time()
        for entry in self.path.glob("*.tmp"):
            if max_age is not None:
                try:
                    if now - entry.stat().st_mtime < max_age:
                        continue
                except OSError:
                    continue  # its writer just finished or another sweeper won
            removed += self._evict(entry)
        return removed

    @staticmethod
    def _evict(entry: Path) -> int:
        try:
            entry.unlink()
            return 1
        except OSError:
            return 0  # lost a race with another evictor; already gone

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self)}
