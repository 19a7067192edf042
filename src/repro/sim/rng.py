"""Deterministic random-number streams.

Every stochastic component (e.g. the exponential-backoff MAC in each
transceiver, workload think-time jitter) draws from its own named stream so
results are reproducible and independent of the order in which components
happen to be constructed.

Streams are also *checkpointable*: :meth:`DeterministicRng.getstate` /
:meth:`DeterministicRng.setstate` round-trip one stream's Mersenne-Twister
state through JSON, and every stream remembers the children derived from it
(:meth:`DeterministicRng.child`), so :meth:`tree_getstate` /
:meth:`tree_setstate` can capture and restore the whole derivation tree of a
machine — a restored simulation draws the identical random sequence.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, Iterator, List, Sequence, TypeVar

from repro.errors import SimulationError, SnapshotError

T = TypeVar("T")


def _derive_seed(root_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class DeterministicRng:
    """A named, reproducible random stream derived from a root seed."""

    def __init__(self, root_seed: int, name: str) -> None:
        self.root_seed = int(root_seed)
        self.name = name
        self._random = random.Random(  # repro: noqa[DET001] -- this IS the determinism boundary: seeded from the sha256-derived stream name, never from ambient entropy
            _derive_seed(self.root_seed, name)
        )
        self._children: List["DeterministicRng"] = []

    def child(self, name: str) -> "DeterministicRng":
        """Derive an independent sub-stream, e.g. per node or per thread.

        The child is remembered so checkpointing can enumerate the whole
        derivation tree; each call derives a *fresh* stream (two calls with
        the same name yield two independent objects with identical state).
        """
        rng = DeterministicRng(self.root_seed, f"{self.name}/{name}")
        self._children.append(rng)
        return rng

    # ----------------------------------------------------------- primitives
    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], inclusive.

        Draws exactly as ``random.Random.randint`` does (CPython's rejection
        loop over ``getrandbits``), without its three Python-level frames:
        this is the backoff MAC's per-collision draw.
        """
        width = high - low + 1
        if width <= 0:
            raise SimulationError(f"empty range for randint({low}, {high})")
        getrandbits = self._random.getrandbits
        bits = width.bit_length()
        draw = getrandbits(bits)
        while draw >= width:
            draw = getrandbits(bits)
        return low + draw

    def random(self) -> float:
        return self._random.random()

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        return self._random.expovariate(rate)

    def choice(self, seq: Sequence[T]) -> T:
        return self._random.choice(seq)

    def shuffle(self, items: List[T]) -> List[T]:
        """Return a shuffled copy (the input list is not modified)."""
        copy = list(items)
        self._random.shuffle(copy)
        return copy

    def jitter(self, mean: int, fraction: float = 0.1) -> int:
        """An integer near ``mean`` with +/- ``fraction`` relative jitter."""
        if mean <= 0:
            return 0
        spread = max(1, int(mean * fraction))
        return max(0, mean + self.randint(-spread, spread))

    # -------------------------------------------------------- state capture
    def getstate(self) -> Dict[str, Any]:
        """This stream's state as a JSON-safe dict (inverse of :meth:`setstate`).

        Carries the derivation info (``root_seed`` + full ``name`` path) so a
        restore can verify it is being applied to the same stream.
        """
        version, internal, gauss_next = self._random.getstate()
        return {
            "root_seed": self.root_seed,
            "name": self.name,
            "state": [int(version), [int(word) for word in internal], gauss_next],
        }

    def setstate(self, payload: Dict[str, Any]) -> None:
        """Restore a state captured by :meth:`getstate` on the same stream."""
        if (
            payload.get("name") != self.name
            or int(payload.get("root_seed", -1)) != self.root_seed
        ):
            raise SnapshotError(
                f"rng state for stream {payload.get('name')!r} "
                f"(root seed {payload.get('root_seed')!r}) cannot be applied to "
                f"stream {self.name!r} (root seed {self.root_seed})"
            )
        try:
            version, internal, gauss_next = payload["state"]
            self._random.setstate(
                (int(version), tuple(int(word) for word in internal), gauss_next)
            )
        except (KeyError, TypeError, ValueError) as error:
            raise SnapshotError(
                f"malformed rng state for stream {self.name!r}: {error}"
            )

    def iter_tree(self) -> Iterator["DeterministicRng"]:
        """This stream and every stream derived from it, depth-first."""
        yield self
        for child in self._children:
            yield from child.iter_tree()

    def tree_getstate(self) -> Dict[str, Dict[str, Any]]:
        """State of the whole derivation tree, keyed by full stream name."""
        states: Dict[str, Dict[str, Any]] = {}
        for rng in self.iter_tree():
            if rng.name in states:
                raise SnapshotError(
                    f"rng stream name {rng.name!r} is not unique in the "
                    f"derivation tree; checkpointing needs distinct names"
                )
            states[rng.name] = rng.getstate()
        return states

    def tree_setstate(self, states: Dict[str, Dict[str, Any]]) -> None:
        """Restore every stream of the tree from :meth:`tree_getstate` output.

        The tree shapes must match exactly: a stream with no captured state,
        or leftover captured states with no matching stream, mean the
        restored machine diverged from the one that was checkpointed.
        """
        remaining = dict(states)
        for rng in self.iter_tree():
            payload = remaining.pop(rng.name, None)
            if payload is None:
                raise SnapshotError(
                    f"no captured rng state for stream {rng.name!r}; the "
                    f"restored machine derived streams the snapshot never saw"
                )
            rng.setstate(payload)
        if remaining:
            raise SnapshotError(
                f"captured rng states for {sorted(remaining)} have no matching "
                f"stream in the restored machine"
            )
