"""GPU failure handling on top of the SIII-F incremental machinery.

Cloud GPUs fail (or get preempted — the paper cites SpotServe's preemptible
instances as a serving reality).  When a GPU dies, every segment it hosted
loses capacity; the recovery path mirrors the SLO-update path: the affected
services' lost segments are re-enqueued and relocated into the surviving
map (growing the fleet only if no hole fits), while untouched services keep
serving.

Failures are not permanent: a preempted spot GPU that comes back (or a
failed device that is repaired) rejoins the fleet through
:meth:`FailoverController.restore_gpu`, which registers it as a *spare*
with the :class:`~repro.core.deployment.DeploymentManager` — the next
incremental re-plan sees the restored capacity as an empty GPU appended
after the live fleet, so it is drafted exactly when no existing hole fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.deployment import DeploymentManager
from repro.core.placement import Placement
from repro.core.segments import Segment
from repro.core.service import Service
from repro.gpu.geometry import get_geometry
from repro.gpu.reconfig import ReconfigurationCost, price_plan
from repro.profiler.table import ProfileTable


@dataclass(frozen=True)
class FailoverResult:
    """Outcome of recovering from one GPU failure."""

    failed_gpu: int
    affected_services: tuple[str, ...]
    lost_capacity: Mapping[str, float]  #: requests/s lost per service
    placement: Placement  #: the recovered deployment map
    cost: ReconfigurationCost
    gpus_before: int
    gpus_after: int
    reconfig_ops: int = 0  #: MIG/MPS create+destroy operations executed


class FailoverController:
    """Recovers deployments from GPU failures (and takes GPUs back)."""

    def __init__(
        self,
        profiles: Mapping[str, ProfileTable],
        manager: DeploymentManager,
        optimize: bool = True,
        fast_path: bool = True,
    ) -> None:
        self.profiles = profiles
        self.manager = manager
        self.optimize = optimize
        # fast_path=False recovers on the naive scans — identical
        # placements, kept as the reference baseline.
        self.fast_path = fast_path

    @property
    def failed(self) -> dict[int, str]:
        """GPUs currently out of the fleet: gpu_id -> geometry name.

        Shared with the deployment manager (``retired_gpus``), which
        keeps every re-plan from reusing a dead device's id.
        ``restore_gpu`` consumes entries; a full re-schedule renumbers
        GPU ids, so callers that re-plan from scratch must ``reset()``.
        """
        return self.manager.retired_gpus

    def fail_gpu(
        self, gpu_id: int, services: Sequence[Service]
    ) -> FailoverResult:
        """Handle the loss of ``gpu_id``: relocate its segments elsewhere."""
        current = self.manager.current
        if current is None:
            raise RuntimeError("nothing deployed yet")
        victim = next((g for g in current.gpus if g.gpu_id == gpu_id), None)
        if victim is None or victim.is_empty:
            raise ValueError(f"GPU {gpu_id} hosts no segments")

        # Recovery re-plans *every* hosted service's capacity accounting
        # (allocation optimization splits survivors' segments too), so a
        # hosted service missing from ``services`` would surface deep in
        # Algorithm 2 as a bare KeyError.  Fail up front with names.
        known = {s.id for s in services}
        hosted = {seg.service_id for _, seg in current.iter_segments()}
        missing = sorted(hosted - known)
        if missing:
            raise ValueError(
                "deployment hosts services missing from the `services` "
                f"argument: {', '.join(missing)}"
            )

        victim_geometry = get_geometry(victim.geometry)
        lost: dict[str, float] = {}
        lost_segments: list[Segment] = []
        for seg in victim.segments:
            lost[seg.service_id] = lost.get(seg.service_id, 0.0) + seg.capacity
            lost_segments.append(
                Segment(
                    service_id=seg.service_id,
                    model=seg.model,
                    instance_size=int(seg.gpcs),
                    batch_size=seg.batch_size,
                    num_processes=seg.num_processes,
                    throughput=seg.capacity,
                    latency_ms=seg.latency_ms,
                    sm_activity=seg.sm_activity,
                    geometry=victim_geometry,
                )
            )

        # Retire the victim first: its id must stay reserved (a blocked
        # sentinel in the allocator state) so relocation can neither place
        # on the dead device nor hand its id to a fresh GPU.  The fast path
        # patches the manager's persistent state; the naive reference
        # rebuilds it from every *surviving* GPU (plus any registered
        # spares), each under its own geometry.
        gpus_before = current.num_gpus
        self.manager.retired_gpus[gpu_id] = victim.geometry
        try:
            placement, plan = self.manager.replan(
                services,
                segments=lost_segments,
                geometry=victim_geometry,
                skip_gpu=gpu_id,
                optimize=self.optimize,
                fast_path=self.fast_path,
            )
        except BaseException:
            del self.manager.retired_gpus[gpu_id]
            raise
        return FailoverResult(
            failed_gpu=gpu_id,
            affected_services=tuple(sorted(lost)),
            lost_capacity=lost,
            placement=placement,
            cost=price_plan(plan),
            gpus_before=gpus_before,
            gpus_after=placement.num_gpus,
            reconfig_ops=plan.num_operations,
        )

    def restore_gpu(self, gpu_id: int) -> str:
        """Return a failed/preempted GPU to the free pool.

        The GPU re-registers as a spare with the deployment manager — the
        incremental allocator state every re-plan builds includes spares
        as empty GPUs, so the restored capacity is visible to the very
        next re-plan without touching anything currently serving.
        Returns the geometry name of the restored device.
        """
        try:
            geometry = self.failed.pop(gpu_id)
        except KeyError:
            raise ValueError(
                f"GPU {gpu_id} is not registered as failed"
            ) from None
        current = self.manager.current
        if current is not None and any(
            g.gpu_id == gpu_id and not g.is_empty for g in current.gpus
        ):  # pragma: no cover - registry corruption guard
            raise ValueError(f"GPU {gpu_id} is currently hosting segments")
        self.manager.spare_gpus[gpu_id] = geometry
        return geometry

    def reset(self) -> None:
        """Forget failed/spare bookkeeping (after a from-scratch re-plan).

        A full re-schedule renumbers GPU ids, so failed-GPU ids recorded
        against the old map are meaningless; callers that fall back to a
        full re-plan clear both registries.
        """
        self.manager.retired_gpus.clear()
        self.manager.spare_gpus.clear()
