"""Deployment and the SIII-F SLO-update path.

``DeploymentManager`` owns a :class:`~repro.gpu.cluster.Cluster` and keeps
it in sync with the latest placement.  The SLO-update path re-runs the
Segment Configurator for *one* service, removes only that service's
segments from the deployment map, re-relocates them into the existing map
and re-optimizes — so services whose placement did not change are not
reconfigured (the paper's reconfiguration-overhead argument).

The manager keeps the allocator state of the deployed map alive across
events — the per-GPU ``_GPUState`` list in placement order and its
:class:`~repro.core.slotindex.SlotIndex` (pyFogSim's long-lived
``Placement`` shape: one initial allocation, then a run per activation).
A full deployment drops it; the first incremental re-plan after that
seeds it through :func:`~repro.core.allocator.states_from_placement`, and
every later re-plan (SLO updates, departures, failover) patches it for
its delta only: untouched GPUs keep their ``GPUPlan`` objects, only
touched GPUs are diffed against the cluster, and only services whose
segments or rate changed are re-routed.  ``fast_path=False`` re-plans
from scratch through :meth:`DeploymentManager.build_states` instead —
the naive reference the identity checks replay.

The manager also tracks **spare GPUs**: devices that are known-good but
currently host nothing, e.g. a preempted spot GPU that came back
(:meth:`~repro.core.failover.FailoverController.restore_gpu`).  Every
re-plan appends the spares as empty per-GPU states *after* the live GPUs
— restored capacity is visible to the very next re-plan, but first-fit
still prefers holes in the live fleet, so a spare is only drafted when no
existing hole fits.
"""

from __future__ import annotations

from typing import Container, Mapping, Optional, Sequence, cast

from repro.core.allocator import (
    SegmentAllocator,
    _GPUState,
    render_plan,
    states_from_placement,
)
from repro.core.configurator import SegmentConfigurator
from repro.core.placement import GPUPlan, Placement
from repro.core.segments import Segment
from repro.core.service import Service
from repro.core.slotindex import SlotIndex
from repro.gpu.cluster import Cluster, InstanceSpec, ReconfigurationPlan
from repro.gpu.geometry import PartitionGeometry, get_geometry
from repro.gpu.mig import MIG_GEOMETRY
from repro.profiler.table import ProfileTable


def _hosts(states: Sequence[_GPUState]) -> dict[str, set[int]]:
    """Service id -> ids of the GPUs hosting its segments."""
    hosts: dict[str, set[int]] = {}
    for state in states:
        for seg, _ in state.placed:
            hosts.setdefault(seg.service_id, set()).add(state.gpu_id)
    return hosts


class _LiveState:
    """The deployed map's allocator state, kept alive across re-plans.

    ``states`` runs parallel to ``placement.gpus`` (one state per plan,
    same order) between re-plans; ``pos`` maps GPU id to that position,
    ``hosts`` maps service id to the GPUs hosting it.  ``specs`` holds
    each occupied GPU's instance specs in the cluster's instance order,
    so a plan's ``unchanged`` list stays complete without re-diffing
    untouched GPUs.  ``rates`` are the request rates the map was last
    routed with (None until a re-plan has routed every service).
    """

    def __init__(self, placement: Placement, cluster: Cluster) -> None:
        self.states = states_from_placement(placement)
        self.index = SlotIndex(self.states)
        self.pos = {s.gpu_id: i for i, s in enumerate(self.states)}
        self.hosts = _hosts(self.states)
        self.rates: Optional[dict[str, float]] = None
        self.specs: dict[int, tuple[InstanceSpec, ...]] = {}
        for g in cluster.gpus:
            if g.instances:
                by_key = {
                    (s.start, s.size, s.owner): s
                    for s in placement.gpus[self.pos[g.gpu_id]].instance_specs()
                }
                self.specs[g.gpu_id] = tuple(
                    by_key[(i.start, i.size, i.owner or "")]
                    for i in g.instances
                )

    def mismatch(self, reference: Sequence[_GPUState]) -> Optional[str]:
        """Why these states disagree with ``reference`` (a fresh rebuild of
        the deployed map), or None when they match state for state."""

        def key(s: _GPUState) -> tuple:
            return (
                s.gpu_id, s.geometry.name, s.blocked, s.layout.mask,
                tuple(s.placed),
            )

        if len(self.states) != len(reference) or any(
            key(a) != key(b) for a, b in zip(self.states, reference)
        ):
            return "persistent allocator state does not match the deployment map"
        if self.pos != {s.gpu_id: i for i, s in enumerate(self.states)}:
            return "persistent GPU positions are stale"
        if _hosts(self.states) != self.hosts:
            return "persistent service-to-GPU map is stale"
        return None


class DeploymentManager:
    """Keeps a physical (simulated) cluster in sync with placements.

    ``geometry`` is the geometry of the *profiles* handed in — the one the
    SLO-update path re-plans with (MIG by default).  Per-GPU state during
    incremental re-planning always follows each plan's own geometry.
    """

    def __init__(
        self,
        profiles: Mapping[str, ProfileTable],
        cluster: Optional[Cluster] = None,
        geometry: PartitionGeometry = MIG_GEOMETRY,
    ) -> None:
        self.profiles = profiles
        self.geometry = geometry
        self.cluster = (
            cluster if cluster is not None else Cluster(geometry=geometry)
        )
        self.current: Optional[Placement] = None
        #: Known-good empty GPUs available to re-plans: gpu_id -> geometry
        #: name.  Populated by ``FailoverController.restore_gpu``.
        self.spare_gpus: dict[int, str] = {}
        #: GPUs out of service (failed/preempted, not yet restored):
        #: gpu_id -> geometry name.  Their ids stay reserved — a re-plan
        #: must never hand a dead device's id to a fresh GPU, or a later
        #: restore would collide with live capacity.
        self.retired_gpus: dict[int, str] = {}
        self._live: Optional[_LiveState] = None

    # ------------------------------------------------------------------ #
    # deployment
    # ------------------------------------------------------------------ #

    def deploy(
        self, placement: Placement, touched: Optional[set[int]] = None
    ) -> ReconfigurationPlan:
        """Reconfigure the cluster to host ``placement``.

        Returns the reconfiguration plan that was executed; its
        ``unchanged`` list is the set of instances that kept serving
        throughout (the paper's shadow-process-free fast path).

        ``touched`` is for incremental re-plans only: the ids of GPUs
        whose plans changed or that left the map.  Every other plan is
        the deployed map's own, so only the touched GPUs are validated
        and diffed.  Without it the whole map is, and the persistent
        allocator state is dropped until the next re-plan seeds it.
        """
        if touched is None:
            placement.validate()
            plan = self.cluster.plan_reconfiguration(
                placement.to_instance_specs()
            )
            self.cluster.execute(plan)
            self._live = None
            occupied = {g.gpu_id for g in placement.gpus if not g.is_empty}
        else:
            plan, occupied = self._deploy_delta(placement, touched)
        self.current = placement
        # A spare that the re-plan drafted is spare no longer.
        if self.spare_gpus:
            self.spare_gpus = {
                gid: name
                for gid, name in self.spare_gpus.items()
                if gid not in occupied
            }
        return plan

    def _deploy_delta(
        self, placement: Placement, touched: set[int]
    ) -> tuple[ReconfigurationPlan, set[int]]:
        """Diff and execute the touched GPUs; the plan stays complete.
        Also returns the touched GPUs that host instances now."""
        live = self._live_state()
        plans = [g for g in placement.gpus if g.gpu_id in touched]
        for g in plans:
            g.validate()
        delta = self.cluster.plan_reconfiguration(
            [spec for g in plans for spec in g.instance_specs()],
            gpu_ids=touched,
        )
        kept: dict[int, list[InstanceSpec]] = {}
        for spec in delta.unchanged:
            kept.setdefault(spec.gpu_id, []).append(spec)
        plan = ReconfigurationPlan(destroy=delta.destroy, create=delta.create)
        for gid in sorted(live.specs):
            plan.unchanged.extend(
                kept.get(gid, ()) if gid in touched else live.specs[gid]
            )
        self.cluster.execute(plan)
        # The cluster keeps survivors in order and appends what it created.
        for spec in delta.create:
            kept.setdefault(spec.gpu_id, []).append(spec)
        for gid in touched:
            if kept.get(gid):
                live.specs[gid] = tuple(kept[gid])
            else:
                live.specs.pop(gid, None)
        return plan, {gid for gid in touched if gid in live.specs}

    # ------------------------------------------------------------------ #
    # allocator state
    # ------------------------------------------------------------------ #

    def build_states(
        self,
        exclude_service: Optional[str] = None,
        skip_gpu: Optional[int] = None,
    ) -> list[_GPUState]:
        """Allocator build-state of the live map, rebuilt from scratch.

        The naive reference of every incremental re-plan (``fast_path=
        False``) and of the per-step state check: per-GPU states are
        rebuilt from the current placement (each under its own geometry)
        and the registered spare GPUs are appended as empty states in
        gpu-id order, so restored capacity is drafted only when no hole
        in the live fleet fits.  The persistent state the fast path
        patches must equal this rebuild's live part at every step.

        Retired GPUs (failed, not yet restored) are appended as *blocked*
        sentinel states: first-fit can never place on them and
        ``_to_placement`` drops them, but their presence keeps the
        allocator's fresh-GPU id counter above every dead device's id —
        so a later restore never collides with live capacity.
        """
        if self.current is None:
            raise RuntimeError("nothing deployed yet")
        states = states_from_placement(
            self.current, exclude_service=exclude_service, skip_gpu=skip_gpu
        )
        live = {s.gpu_id for s in states}
        states.extend(self._tail(live, skip_gpu))
        return states

    def _tail(
        self, live: Container[int], skip_gpu: Optional[int]
    ) -> list[_GPUState]:
        """The spare states, then the retired sentinels, in gpu-id order."""
        tail = [
            _GPUState(gpu_id=gid, geometry=get_geometry(self.spare_gpus[gid]))
            for gid in sorted(self.spare_gpus)
            if gid not in live and gid != skip_gpu
        ]
        tail.extend(
            _GPUState(
                gpu_id=gid,
                geometry=get_geometry(self.retired_gpus[gid]),
                blocked=True,
            )
            for gid in sorted(self.retired_gpus)
            if gid not in live or gid == skip_gpu
        )
        return tail

    def _live_state(self) -> _LiveState:
        """The persistent allocator state, seeded by a fresh rebuild."""
        if self.current is None:
            raise RuntimeError("nothing deployed yet")
        if self._live is None:
            self._live = _LiveState(self.current, self.cluster)
        return self._live

    def live_state_mismatch(
        self, reference: Sequence[_GPUState]
    ) -> Optional[str]:
        """Why the persistent allocator state disagrees with ``reference``
        (a :meth:`build_states` rebuild), or None — also when no
        incremental re-plan has seeded it since the last full deploy."""
        if self._live is None or self.current is None:
            return None
        return self._live.mismatch(reference[: len(self.current.gpus)])

    def replan(
        self,
        services: Sequence[Service],
        *,
        segments: Sequence[Segment] = (),
        geometry: Optional[PartitionGeometry] = None,
        exclude_service: Optional[str] = None,
        skip_gpu: Optional[int] = None,
        optimize: bool = False,
        fast_path: bool = True,
    ) -> tuple[Placement, ReconfigurationPlan]:
        """One incremental re-plan: the shared core of SLO updates,
        departures and failover.

        Drops ``exclude_service``'s segments and the ``skip_gpu`` state,
        relocates ``segments`` (under ``geometry``) into the map, runs
        allocation optimization when asked, and deploys the result.  The
        fast path patches the persistent allocator state in time
        proportional to the delta; a re-plan that raises leaves the
        deployed map, the cluster and (reseeded on the next call) the
        allocator state as they were.  ``fast_path=False`` is the naive
        reference: a from-scratch :meth:`build_states`, Algorithm 2 on
        the linear first-fit scans, full re-routing and a full diff.
        """
        geometry = geometry or self.geometry
        if not fast_path:
            gpus = self.build_states(exclude_service, skip_gpu)
            allocator = SegmentAllocator(
                optimize=optimize, geometry=geometry, indexed=False
            )
            queues = allocator._new_queues(geometry.instance_sizes)
            for seg in segments:
                allocator._enqueue(queues, seg)
            allocator._allocation(queues, gpus, geometry)
            if optimize:
                gpus = allocator.allocation_optimization(gpus, list(services))
            placement = allocator._to_placement(gpus)
            assert self.current is not None
            placement.framework = self.current.framework
            placement.assign_rates({s.id: s.request_rate for s in services})
            return placement, self.deploy(placement)
        live = self._live_state()
        try:
            placement, touched = self._patch(
                live, services, segments, geometry,
                exclude_service, skip_gpu, optimize,
            )
            plan = self.deploy(placement, touched=touched)
        except BaseException:
            self._live = None
            raise
        return placement, plan

    def _patch(
        self,
        live: _LiveState,
        services: Sequence[Service],
        segments: Sequence[Segment],
        geometry: PartitionGeometry,
        exclude_service: Optional[str],
        skip_gpu: Optional[int],
        optimize: bool,
    ) -> tuple[Placement, set[int]]:
        """Patch ``live`` for one re-plan; returns the new map and the
        GPUs to diff (changed plans, emptied GPUs, the failed victim)."""
        current = self.current
        assert current is not None
        gpus = live.states
        index = live.index
        touched: set[int] = set()
        first = len(gpus)  # the first position whose occupant may change
        if exclude_service is not None:
            for gid in live.hosts.get(exclude_service, ()):
                pos = live.pos[gid]
                state = gpus[pos]
                for seg, start in [
                    p for p in state.placed
                    if p[0].service_id == exclude_service
                ]:
                    state.remove(seg, start)
                index.touch(pos)
        if skip_gpu is not None:
            touched.add(skip_gpu)
            first = live.pos[skip_gpu]
            del gpus[first]
            index.reindex(first)
        num_live = len(gpus)
        if segments or optimize:
            gpus.extend(self._tail(live.pos, skip_gpu))
            allocator = SegmentAllocator(optimize=optimize, geometry=geometry)
            queues = allocator._new_queues(geometry.instance_sizes)
            for seg in segments:
                allocator._enqueue(queues, seg)
            allocator._allocation(queues, gpus, geometry, index=index)
            if optimize:
                allocator.allocation_optimization(
                    gpus, list(services), index=index
                )

        # The new live list is the non-empty states in list order; a
        # state whose plan cache is gone changed (or joined the map).
        new_live: list[_GPUState] = []
        left: list[int] = []
        shift: Optional[int] = None
        for i, state in enumerate(gpus):
            if not state.placed:
                if i < num_live:
                    left.append(state.gpu_id)
                    if state.plan is None:  # it hosted segments until now
                        touched.add(state.gpu_id)
                if shift is None:
                    shift = i
                continue
            if state.plan is None:
                touched.add(state.gpu_id)
            new_live.append(state)
        moved: set[str] = set()  # services whose segment set may differ
        for gid in touched:
            pos = live.pos.get(gid)
            if pos is not None:
                for seg in current.gpus[pos].segments:
                    moved.add(seg.service_id)
                    live.hosts[seg.service_id].discard(gid)
        for gid in left:
            del live.pos[gid]
        live.pos.pop(skip_gpu, None)
        gpus[:] = new_live
        if shift is not None:
            first = min(first, shift)
        for i in range(first, len(gpus)):
            live.pos[gpus[i].gpu_id] = i
        if shift is not None:
            index.reindex(shift)
        fresh: set[int] = set()  # plans made here, not yet handed out
        for state in new_live:
            if state.plan is None:
                state.plan = render_plan(state)
                fresh.add(state.gpu_id)
                for seg, _ in state.placed:
                    moved.add(seg.service_id)
                    live.hosts.setdefault(seg.service_id, set()).add(
                        state.gpu_id
                    )
        for sid in moved:
            if sid in live.hosts and not live.hosts[sid]:
                del live.hosts[sid]

        rates = {s.id: s.request_rate for s in services}
        if live.rates is None:
            rerate = set(rates) | set(live.hosts)
        else:
            prev = live.rates
            rerate = moved | (prev.keys() - rates.keys())
            rerate.update(
                sid for sid, rate in rates.items() if prev.get(sid) != rate
            )
        for sid, rate in rates.items():
            if sid in rerate:
                self._route(live, fresh, sid, rate)
        for sid in rerate - rates.keys():
            if sid in live.hosts:
                self._route(live, fresh, sid, None)
        live.rates = rates

        placement = Placement(
            framework=current.framework,
            # every live state was rendered above
            gpus=cast(list[GPUPlan], [state.plan for state in new_live]),
            rates_assigned=True,
        )
        return placement, touched

    @staticmethod
    def _route(
        live: _LiveState, fresh: set[int], sid: str, rate: Optional[float]
    ) -> None:
        """Proportional routing of one service, copy-on-write.

        Byte-identical to ``Placement.assign_rates`` for that service:
        partitions in placement order, the same sum and the same share
        formula.  ``rate=None`` routes nothing (a hosted service missing
        from the fleet, as a fresh rebuild leaves it).  A plan still
        shared with an earlier placement is copied before its first write.
        """
        gids = live.hosts.get(sid)
        if not gids:
            raise ValueError(f"no partitions for service {sid!r}")
        hosting: list[tuple[_GPUState, GPUPlan, list[int]]] = []
        for gid in sorted(gids, key=live.pos.__getitem__):
            state = live.states[live.pos[gid]]
            plan = state.plan
            assert plan is not None  # every live state is rendered
            hosting.append((state, plan, [
                i for i, seg in enumerate(plan.segments) if seg.service_id == sid
            ]))
        total = sum(
            plan.segments[i].capacity for _, plan, idx in hosting for i in idx
        )
        for state, plan, idx in hosting:
            for i in idx:
                seg = plan.segments[i]
                share = 0.0 if rate is None else rate * seg.capacity / total
                if seg.served_rate == share:
                    continue
                if state.gpu_id not in fresh:
                    plan = state.plan = GPUPlan(
                        gpu_id=plan.gpu_id,
                        segments=list(plan.segments),
                        geometry=plan.geometry,
                    )
                    fresh.add(state.gpu_id)
                plan.segments[i] = seg.with_served_rate(share)

    # ------------------------------------------------------------------ #
    # service departure
    # ------------------------------------------------------------------ #

    def remove_service(
        self,
        services: Sequence[Service],
        departed_id: str,
        fast_path: bool = True,
    ) -> tuple[Placement, ReconfigurationPlan]:
        """Tear down one service, leaving every other segment in place.

        ``services`` is the *remaining* fleet (the departed service
        excluded) — its rates are re-assigned over the surviving map.
        GPUs fully emptied by the departure are released (scale-in), not
        kept as spares: a spare records restored capacity, not a tenant
        leaving.  ``fast_path=False`` rebuilds the map from scratch (the
        naive reference).
        """
        if self.current is None:
            raise RuntimeError("nothing deployed yet")
        if not (
            departed_id in self._live_state().hosts
            if fast_path
            else self.current.segments_of(departed_id)
        ):
            raise ValueError(f"service {departed_id!r} hosts no segments")
        return self.replan(
            services, exclude_service=departed_id, fast_path=fast_path
        )

    # ------------------------------------------------------------------ #
    # SLO update (SIII-F)
    # ------------------------------------------------------------------ #

    def update_slo(
        self,
        services: Sequence[Service],
        changed: Service,
        new_slo_ms: Optional[float] = None,
        new_rate: Optional[float] = None,
        use_mps: bool = True,
        optimize: bool = True,
        fast_path: bool = True,
    ) -> tuple[Placement, ReconfigurationPlan]:
        """Re-plan one service without re-profiling or moving the others.

        Implements SIII-F: the Segment Configurator reconstructs only the
        changed service's segments; the deployment map keeps every other
        service where it is; relocation + optimization run for the changed
        service's segments only.  ``fast_path=False`` re-plans on the
        naive scans over a from-scratch rebuild of the allocator state
        (identical placements, reference baseline).  An update that
        raises leaves ``changed``, the deployed map and the cluster as
        they were.
        """
        if self.current is None:
            raise RuntimeError("nothing deployed yet")
        saved = dict(vars(changed))
        try:
            if new_slo_ms is not None:
                changed.slo_latency_ms = new_slo_ms
            if new_rate is not None:
                changed.request_rate = new_rate
            changed.reset_plan()
            configurator = SegmentConfigurator(
                self.profiles, max_processes=3 if use_mps else 1,
                geometry=self.geometry, memoize=fast_path,
            )
            configurator.configure([changed])
            return self.replan(
                services,
                segments=changed.segments(),
                exclude_service=changed.id,
                optimize=optimize,
                fast_path=fast_path,
            )
        except BaseException:
            vars(changed).update(saved)
            raise
