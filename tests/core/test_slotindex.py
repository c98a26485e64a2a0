"""Unit tests for the allocator's free-slot index.

The index's contract: after any sequence of places, removals, drains, and
GPU appends (with ``touch``/``sync`` at the capacity-growing events), a
candidate query returns exactly the GPU the naive linear scan would pick
— or None exactly when the scan finds nothing.
"""

import random

import pytest

from repro.core.allocator import _GPUState
from repro.core.segments import Segment
from repro.core.slotindex import SlotIndex
from repro.gpu.geometry import get_geometry

MIG = get_geometry("mig")
MI300X = get_geometry("mi300x")


def _segment(size, geometry=MIG, sid="svc"):
    return Segment(
        service_id=sid,
        model="resnet-50",
        instance_size=size,
        batch_size=4,
        num_processes=1,
        throughput=100.0,
        latency_ms=10.0,
        sm_activity=0.5,
        geometry=geometry,
    )


def _naive_first_fit(gpus, size, fallback, geometry, limit=None):
    """Reference: lowest list position with a feasible slot."""
    for pos, state in enumerate(gpus):
        if limit is not None and pos >= limit:
            break
        if state.geometry.name != geometry.name:
            continue
        if state.has_free_slot(size, fallback=fallback):
            return pos
    return None


def _assert_matches_naive(index, gpus, geometry):
    for size in geometry.instance_sizes:
        for fallback in (False, True):
            assert index.first_candidate(
                geometry.name, size, fallback
            ) == _naive_first_fit(gpus, size, fallback, geometry), (
                size,
                fallback,
            )


class TestSlotIndex:
    def test_empty_list_has_no_candidates(self):
        index = SlotIndex([])
        assert index.first_candidate("mig", 1) is None

    def test_place_tracks_first_fit(self):
        gpus = [_GPUState(gpu_id=i) for i in range(3)]
        index = SlotIndex(gpus)
        # Fill GPU 0 with a size-7, so size queries fall through to GPU 1.
        assert index.place(_segment(7)) == 0
        assert index.first_candidate("mig", 1) == 1
        _assert_matches_naive(index, gpus, MIG)

    def test_remove_then_touch_restores_candidacy(self):
        gpus = [_GPUState(gpu_id=0), _GPUState(gpu_id=1)]
        index = SlotIndex(gpus)
        index.place(_segment(7))
        assert index.first_candidate("mig", 7) == 1
        seg, start = gpus[0].placed[0]
        gpus[0].placed.remove((seg, start))
        gpus[0].layout.remove(MIG.place(seg.instance_size, start))
        index.touch(0)
        assert index.first_candidate("mig", 7) == 0
        _assert_matches_naive(index, gpus, MIG)

    def test_sync_registers_appended_gpus(self):
        gpus = [_GPUState(gpu_id=0)]
        index = SlotIndex(gpus)
        index.place(_segment(7))
        assert index.place(_segment(7)) is None  # fleet is full
        gpus.append(_GPUState(gpu_id=1))
        index.sync()
        assert index.place(_segment(7)) == 1

    def test_limit_bounds_the_search(self):
        gpus = [_GPUState(gpu_id=i) for i in range(3)]
        index = SlotIndex(gpus)
        index.place(_segment(7))  # occupies position 0
        assert index.first_candidate("mig", 1, limit=1) is None
        assert index.first_candidate("mig", 1, limit=2) == 1
        assert index.place(_segment(1), limit=1) is None

    def test_foreign_geometry_never_matches(self):
        gpus = [
            _GPUState(gpu_id=0, geometry=MI300X),
            _GPUState(gpu_id=1, geometry=MIG),
        ]
        index = SlotIndex(gpus)
        assert index.first_candidate("mig", 1) == 1
        assert index.place(_segment(1)) == 1

    def test_uniform_size_rule_reflected(self):
        """On MI300X, placing one size evicts the others' candidacy."""
        gpus = [_GPUState(gpu_id=0, geometry=MI300X)]
        index = SlotIndex(gpus)
        assert index.place(_segment(2, geometry=MI300X)) == 0
        assert index.first_candidate("mi300x", 2) == 0  # three slots left
        assert index.first_candidate("mi300x", 4) is None  # mode is fixed
        _assert_matches_naive(index, gpus, MI300X)

    def test_rebuild_matches_fresh_index(self):
        gpus = [_GPUState(gpu_id=i) for i in range(4)]
        index = SlotIndex(gpus)
        for size in (7, 4, 3, 2, 1):
            index.place(_segment(size))
        index.rebuild()
        _assert_matches_naive(index, gpus, MIG)

    @pytest.mark.parametrize("geometry", [MIG, MI300X], ids=lambda g: g.name)
    def test_randomized_operations_match_naive(self, geometry):
        """Fuzz place/remove/drain/append; the index never drifts."""
        rng = random.Random(1234)
        gpus = []
        index = SlotIndex(gpus)
        for step in range(300):
            op = rng.random()
            if op < 0.55:  # place a random size via the index
                size = rng.choice(geometry.instance_sizes)
                seg = _segment(size, geometry=geometry)
                expected = _naive_first_fit(
                    gpus, size, False, geometry
                )
                if expected is None:
                    expected = _naive_first_fit(gpus, size, True, geometry)
                assert (index.place(seg) is not None) == (expected is not None)
            elif op < 0.75 and gpus:  # remove a random placed segment
                pos = rng.randrange(len(gpus))
                if gpus[pos].placed:
                    seg, start = rng.choice(gpus[pos].placed)
                    gpus[pos].placed.remove((seg, start))
                    gpus[pos].layout.remove(
                        geometry.place(seg.instance_size, start)
                    )
                    index.touch(pos)
            elif op < 0.85 and gpus:  # drain a whole GPU
                pos = rng.randrange(len(gpus))
                gpus[pos].free_all()
                index.touch(pos)
            else:  # append a fresh GPU
                gpus.append(
                    _GPUState(gpu_id=len(gpus), geometry=geometry)
                )
                index.sync()
            if step % 25 == 0:
                _assert_matches_naive(index, gpus, geometry)
        _assert_matches_naive(index, gpus, geometry)

    def test_reindex_after_list_surgery_matches_naive(self):
        """A long-lived index: the list is compacted, truncated and
        re-extended (with GPUs of another geometry landing on old
        positions); ``reindex`` from the first changed position keeps
        every query equal to the linear scan, stale entries included."""
        rng = random.Random(99)
        gpus = [_GPUState(gpu_id=i) for i in range(6)]
        index = SlotIndex(gpus)
        next_id = 6
        for step in range(200):
            op = rng.random()
            geometry = rng.choice([MIG, MI300X])
            if op < 0.5:
                index.place(_segment(rng.choice(geometry.instance_sizes),
                                     geometry=geometry))
            elif op < 0.7 and gpus:  # drop the empty states, as a commit does
                kept = [s for s in gpus if s.placed]
                first = next(
                    (i for i, (a, b) in enumerate(zip(gpus, kept)) if a is not b),
                    len(kept),
                )
                gpus[:] = kept
                index.reindex(first)
            elif op < 0.85 and gpus:  # delete one position outright
                pos = rng.randrange(len(gpus))
                del gpus[pos]
                index.reindex(pos)
            else:  # a tail of fresh GPUs, any geometry
                for _ in range(rng.randint(1, 3)):
                    gpus.append(_GPUState(
                        gpu_id=next_id, geometry=rng.choice([MIG, MI300X])
                    ))
                    next_id += 1
                index.sync()
            if step % 10 == 0:
                _assert_matches_naive(index, gpus, MIG)
                _assert_matches_naive(index, gpus, MI300X)
