"""Per-size free-slot indexes — the Segment Allocator's fast path.

Algorithm 2's ``ALLOCATION`` is first-fit: every segment linearly probes
every GPU's preferred slots, then every GPU's fallback slots.  That scan
is O(GPUs x slots) per segment and quadratic over a whole schedule —
invisible at the paper's 8-64 GPU scale, a wall for fleet-scale runs.

:class:`SlotIndex` replaces the probe with a candidate lookup.  For every
``(geometry, instance size, preferred/fallback)`` key it keeps a min-heap
of GPU *list positions* that may still host such an instance.  First-fit
identity is the design constraint, not an accident:

- the heap minimum is exactly the first GPU the linear scan would reach,
  because candidates are keyed by position in the allocator's GPU list
  (the order the naive loop walks), not by GPU id;
- the slot chosen within the winning GPU is ``_GPUState.first_free_slot``,
  the same preference-ordered probe ``try_place`` runs;
- placing a segment only ever *shrinks* feasibility, so entries are never
  pushed after a placement — they go stale in place and are discarded
  lazily when a query finds them infeasible.  Capacity only *grows* on
  segment removal (``touch`` re-registers the GPU).

Both of Algorithm 2's probe orders are supported: ``ALLOCATION`` exhausts
preferred slots across the whole fleet before trying any fallback slot
(``interleave=False``), while the compaction pass tries preferred-then-
fallback per GPU (``interleave=True``).  A ``limit`` bounds the search to
positions below a cutoff, which is how compaction only looks at GPUs in
front of the segment being moved.

Amortized cost: each GPU is pushed O(sizes) times per capacity-growing
event and popped at most once per push, so a schedule of S segments over
G GPUs runs in O((S + G) log G) heap work instead of O(S x G) probes.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.allocator import _GPUState
    from repro.core.segments import Segment

#: Heap key: (geometry registry name, instance size, is_fallback).
_Key = tuple[str, int, bool]


class SlotIndex:
    """Candidate-GPU index over a shared ``_GPUState`` list.

    The allocator keeps appending to the same list object; ``sync`` picks
    up the new tail.  The index may outlive one allocation: the
    deployment manager keeps it alive across incremental re-plans while
    it drops emptied GPUs from the list and rebuilds the spare tail.
    Whoever changes which state sits at a position calls ``reindex``
    from the first such position; entries left behind for positions past
    the list's end, or for a previous occupant, are candidates like any
    other and are validated (and discarded) lazily at query time.
    """

    def __init__(self, gpus: list["_GPUState"]) -> None:
        self._gpus = gpus
        self._heaps: dict[_Key, list[int]] = {}
        self._members: dict[_Key, set[int]] = {}
        self._known = 0
        self.sync()

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #

    def sync(self) -> None:
        """Register every GPU appended to the list since the last call."""
        while self._known < len(self._gpus):
            self.touch(self._known)
            self._known += 1

    def touch(self, pos: int) -> None:
        """Re-register ``pos`` after its free capacity may have *grown*.

        Pushes the position into every key of the GPU's own geometry
        *without* probing feasibility: candidates are a superset, and
        ``first_candidate`` validates (and lazily discards) them at query
        time anyway.  Probing here would cost O(sizes x slots) per GPU on
        every index build — most of which pays for keys the allocation
        never queries (a failover replan only places the victim's sizes).
        Idempotent; shrinking events need no call.
        """
        state = self._gpus[pos]
        if state.blocked:  # retired id sentinels never host anything
            return
        geometry = state.geometry
        for size in geometry.instance_sizes:
            for fallback in (False, True):
                self._push((geometry.name, size, fallback), pos)

    def reindex(self, pos: int) -> None:
        """Re-register every position from ``pos`` on: their occupants
        changed (the list was compacted, truncated or re-extended)."""
        self._known = min(self._known, pos)
        self.sync()

    def rebuild(self) -> None:
        """Drop everything and re-index the whole list from scratch."""
        self._heaps.clear()
        self._members.clear()
        self._known = 0
        self.sync()

    def _push(self, key: _Key, pos: int) -> None:
        members = self._members.setdefault(key, set())
        if pos not in members:
            members.add(pos)
            heapq.heappush(self._heaps.setdefault(key, []), pos)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def first_candidate(
        self,
        geometry_name: str,
        size: int,
        fallback: bool = False,
        limit: Optional[int] = None,
    ) -> Optional[int]:
        """Lowest GPU position that can host ``size`` right now, or None.

        ``limit`` restricts the answer to positions strictly below it.
        Infeasible heap heads are popped for good (feasibility only
        returns via ``touch``); a feasible head at/beyond ``limit`` stays.
        A head past the list's end or now held by a GPU of another
        geometry is infeasible too.
        """
        key = (geometry_name, size, fallback)
        heap = self._heaps.get(key)
        if not heap:
            return None
        members = self._members[key]
        gpus = self._gpus
        while heap:
            pos = heap[0]
            if pos < len(gpus):
                state = gpus[pos]
                if state.geometry.name == geometry_name and state.has_free_slot(
                    size, fallback=fallback
                ):
                    if limit is not None and pos >= limit:
                        return None
                    return pos
            heapq.heappop(heap)
            members.discard(pos)
        return None

    def place(
        self,
        seg: "Segment",
        limit: Optional[int] = None,
        interleave: bool = False,
    ) -> Optional[int]:
        """First-fit ``seg`` onto an existing GPU; its position, or None.

        ``interleave=False`` replays ``ALLOCATION``'s order: any preferred
        slot anywhere beats every fallback slot.  ``interleave=True``
        replays the compaction order: the first GPU with *either* kind of
        slot wins, preferring its preferred slot on a tie.
        """
        name = seg.geometry.name
        size = seg.instance_size
        preferred = self.first_candidate(name, size, False, limit)
        if interleave:
            fb = self.first_candidate(name, size, True, limit)
            if preferred is None or (fb is not None and fb < preferred):
                pos, use_fallback = fb, True
            else:
                pos, use_fallback = preferred, False
        else:
            if preferred is not None:
                pos, use_fallback = preferred, False
            else:
                pos = self.first_candidate(name, size, True, limit)
                use_fallback = True
        if pos is None:
            return None
        start = self._gpus[pos].try_place(seg, fallback=use_fallback)
        if start is None:  # pragma: no cover - candidates are validated
            raise RuntimeError(
                f"slot index returned infeasible GPU {pos} for "
                f"{seg.describe()}"
            )
        return pos
