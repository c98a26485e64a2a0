"""Profile storage: the ``P`` array consumed by Algorithm 1.

A :class:`ProfileTable` holds every measured operating point of one
workload.  The Segment Configurator's TRIPLETDECISION iterates over it;
lookup helpers keep the baselines honest (they may only use profiled
points, never the analytic model directly).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Optional

#: Relative tolerance when comparing profiled throughputs: profile noise
#: below this level must not flip a triplet decision (shared with the
#: Segment Configurator's demand-matching comparisons).
PROFILE_EPS = 1e-12


@dataclass(frozen=True)
class ProfileEntry:
    """One measured operating point — a row of ``P`` in Algorithm 1."""

    model: str
    instance_size: int  #: GPCs: 1, 2, 3, 4 or 7
    batch_size: int
    num_processes: int
    latency_ms: float  #: ``P[j].lat``
    throughput: float  #: ``P[j].tp`` (requests/s)
    memory_gb: float
    sm_activity: float

    @property
    def triplet(self) -> tuple[int, int, int]:
        """The (instance, batch, procs) triplet identity."""
        return (self.instance_size, self.batch_size, self.num_processes)

    @property
    def throughput_per_gpc(self) -> float:
        return self.throughput / self.instance_size


class ProfileTable:
    """All profiled operating points of one workload."""

    def __init__(self, model: str, entries: Iterable[ProfileEntry] = ()):
        self.model = model
        self._entries: list[ProfileEntry] = []
        self._by_triplet: dict[tuple[int, int, int], ProfileEntry] = {}
        self._by_size: dict[int, list[ProfileEntry]] = {}
        #: (effective SLO ms, max processes) -> TRIPLETDECISION result.
        self._triplet_cache: dict[tuple[float, int], dict[int, ProfileEntry]] = {}
        for e in entries:
            self.add(e)

    def add(self, entry: ProfileEntry) -> None:
        if entry.model != self.model:
            raise ValueError(
                f"entry for {entry.model!r} added to table of {self.model!r}"
            )
        if entry.triplet in self._by_triplet:
            raise ValueError(f"duplicate profile point {entry.triplet}")
        self._entries.append(entry)
        self._by_triplet[entry.triplet] = entry
        self._by_size.setdefault(entry.instance_size, []).append(entry)
        self._triplet_cache.clear()  # new points can change any decision

    def __iter__(self) -> Iterator[ProfileEntry]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self, instance_size: int, batch_size: int, num_processes: int
    ) -> Optional[ProfileEntry]:
        """Exact operating-point lookup, ``None`` when unprofiled/OOM."""
        return self._by_triplet.get((instance_size, batch_size, num_processes))

    def entries_for_size(self, instance_size: int) -> list[ProfileEntry]:
        """Points of one instance size, in insertion order (pre-indexed)."""
        return list(self._by_size.get(instance_size, ()))

    def has_triplet_decision(self, slo_ms: float, max_processes: int) -> bool:
        """Whether a TRIPLETDECISION result is already memoized."""
        return (slo_ms, max_processes) in self._triplet_cache

    def seed_triplet_decision(
        self,
        slo_ms: float,
        max_processes: int,
        triplets: Iterable[tuple[int, tuple[int, int, int]]],
    ) -> None:
        """Install a TRIPLETDECISION result computed elsewhere.

        ``triplets`` is ``(instance_size, (size, batch, procs))`` pairs
        in decision-scan order — operating-point *identities*, as a
        shard worker returns them after scoring a pickled copy of this
        table (:func:`repro.parallel.warm_triplet_decisions`).  Each
        identity must resolve against this table; the seeded cache entry
        is then indistinguishable from one :meth:`best_triplets` would
        have memoized itself, because the decision is a pure function of
        the table's contents.
        """
        best: dict[int, ProfileEntry] = {}
        for size, tri in triplets:
            entry = self._by_triplet.get(tuple(tri))
            if entry is None:
                raise ValueError(
                    f"cannot seed {self.model!r}: operating point "
                    f"{tuple(tri)} is not in this table"
                )
            best[size] = entry
        self._triplet_cache[(slo_ms, max_processes)] = best

    def clear_caches(self) -> None:
        """Drop memoized triplet decisions (pure cache; results identical).

        Cache hygiene for long-lived processes: profiles are produced
        once and reused (SIII-C), so the cache otherwise only grows with
        the set of distinct (SLO, max-processes) keys ever scheduled.
        """
        self._triplet_cache.clear()

    def best_triplets(
        self, slo_ms: float, max_processes: int, memoize: bool = True
    ) -> dict[int, ProfileEntry]:
        """``TRIPLETDECISION``'s per-table core: instance size -> the
        maximum-throughput point whose latency beats ``slo_ms`` among
        points of at most ``max_processes`` processes.

        The result is memoized per ``(slo_ms, max_processes)`` — services
        sharing a model and an effective SLO re-derive identical
        ``opt_tri_array``s, so fleet-scale re-scheduling (the fleet
        controller re-planning every rate epoch) hits the cache instead of rescanning the
        table.  The cache is invalidated when a point is added, and
        callers get a fresh dict so mutating it never poisons the cache.
        """
        key = (slo_ms, max_processes)
        if memoize:
            hit = self._triplet_cache.get(key)
            if hit is not None:
                return dict(hit)
        best: dict[int, ProfileEntry] = {}
        for entry in self._entries:
            if entry.num_processes > max_processes:
                continue
            if entry.latency_ms >= slo_ms:
                continue
            cur = best.get(entry.instance_size)
            if cur is None or entry.throughput > cur.throughput * (1 + PROFILE_EPS):
                best[entry.instance_size] = entry
        if memoize:
            self._triplet_cache[key] = best
            return dict(best)
        return best

    def filtered(self, predicate: Callable[[ProfileEntry], bool]) -> list[ProfileEntry]:
        return [e for e in self._entries if predicate(e)]

    def under_latency(self, latency_ms: float) -> list[ProfileEntry]:
        """Points satisfying a latency bound (Algorithm 1 line 6)."""
        return [e for e in self._entries if e.latency_ms < latency_ms]

    def instance_sizes(self) -> tuple[int, ...]:
        return tuple(sorted({e.instance_size for e in self._entries}))

    # ------------------------------------------------------------------ #
    # serialization (profiles are produced once and reused, SIII-C)
    # ------------------------------------------------------------------ #

    def to_json(self) -> str:
        return json.dumps(
            {"model": self.model, "entries": [asdict(e) for e in self._entries]},
            indent=2,
        )

    @classmethod
    def from_json(cls, payload: str) -> "ProfileTable":
        doc = json.loads(payload)
        return cls(
            doc["model"], (ProfileEntry(**entry) for entry in doc["entries"])
        )
