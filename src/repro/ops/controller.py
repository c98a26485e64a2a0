"""The closed-loop fleet controller.

``FleetController.run`` drives a deployment through an adversarial
operational timeline: at every timeline instant it applies the batch of
due events through the *cheapest correct path* — the SIII-F incremental
machinery (one-service SLO updates, single-GPU failover, spare restores,
service teardown) for single-service and single-GPU deltas, a full
re-schedule only when the structural delta demands it (bootstrap, or a
churn burst touching more than ``full_replan_fraction`` of the fleet) —
prices every transition with the reconfiguration cost model, and (when
asked) measures each interval's serving quality with the simulation fast
path.

Two identity checks guard every run:

- **state round-trip** (always on with ``check=True``): after each
  interval the placement must survive
  ``build_states() -> _to_placement() -> assign_rates()`` byte-identically
  — incremental bookkeeping (spares, preserved GPU ids, partial updates)
  cannot have corrupted the map — the deployment manager's persistent
  allocator state must equal that from-scratch rebuild state for state,
  and the live cluster's instances must mirror the map exactly;
- **fast vs naive replay** (:func:`run_identity_checked`): the same
  timeline replayed from scratch on the naive reference machinery
  (unindexed allocator, unmemoized configurator, per-request event-driven
  simulator) must produce fingerprint-identical placements — and
  fingerprint-identical serving statistics — at every interval.

Determinism: timelines are pure data, victim selection derives from event
draws plus the controller seed, and the simulator is seeded — two runs
(or the fast/naive pair) see the exact same trajectory.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from heapq import heappop, heappush
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional, Sequence

from repro.core.allocator import SegmentAllocator
from repro.core.deployment import DeploymentManager
from repro.core.failover import FailoverController
from repro.core.parvagpu import ParvaGPU
from repro.core.placement import Placement
from repro.core.service import Service
from repro.gpu.geometry import get_geometry
from repro.gpu.reconfig import ReconfigurationCost, ShadowBudget, price_plan
from repro.ops.checkpoint import (
    CheckpointError,
    placement_from_doc,
    placement_to_doc,
    report_from_doc,
    report_to_doc,
    resolve_resume,
    service_from_doc,
    service_to_doc,
    timeline_digest,
    write_checkpoint,
)
from repro.ops.events import (
    GpuFailure,
    GpuRecovery,
    OpsEvent,
    RateEpoch,
    ServiceArrival,
    ServiceDeparture,
    SloChange,
    SpotPreemptionWave,
    event_from_doc,
    event_to_doc,
    timeline_key,
)
from repro.obs import ObsHub
from repro.ops.report import FailureRecord, IntervalRecord, OpsReport
from repro.parallel import FaultInjector, ShardHealth
from repro.profiler.table import ProfileTable

if TYPE_CHECKING:  # imported lazily at runtime, like every repro.sim use here
    from repro.sim.shard import ShardContext


def _record_digest(canonical: str) -> str:
    """Collapse a canonical fingerprint string to its sha256 hex digest.

    Interval records store digests, not the multi-hundred-KB canonical
    renderings: identity checks only ever compare fingerprints for
    equality (between replays, across resume, fast vs. naive), and a
    digest comparison is the same check — while keeping fleet-scale
    reports and their checkpoints a couple of MB instead of hundreds.
    """
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class OpsIdentityError(RuntimeError):
    """An identity check failed: incremental state diverged from reference."""


class OutOfOrderEventError(ValueError):
    """The step API received an instant or event that moves time backwards.

    :meth:`FleetController.step` requires monotonically non-decreasing
    instants and refuses events stamped *after* the instant they are
    applied at — the two ways an unsorted input stream would silently
    corrupt a replay.
    """


@dataclass
class _RunState:
    """Everything one begin()/step()/finish() cycle carries between steps."""

    work: list[Service]
    by_id: dict[str, Service]
    report: OpsReport
    horizon_s: float
    measure_s: float
    warmup_s: float
    sim_seed: int
    check: bool
    #: serve every Nth interval only (1 = every interval; the
    #: ``--verify-every`` sampling knob for expensive dual replays)
    measure_every: int
    #: the run's shard pool + segment memo (see _open_shard_context)
    shard: ShardContext
    #: controller-scheduled events (wave restores): (key, seq, event)
    pending: list[tuple[tuple[float, int, str], int, OpsEvent]] = field(
        default_factory=list
    )
    last_t: Optional[float] = None
    steps: int = 0


class FleetController:
    """Consumes an event timeline, keeping one deployment correct throughout."""

    def __init__(
        self,
        profiles: Optional[Mapping[str, ProfileTable]] = None,
        geometry: str = "mig",
        use_mps: bool = True,
        optimize: bool = True,
        fast_path: bool = True,
        seed: int = 0,
        spare_shadow_gpus: int = 4,
        full_replan_fraction: float = 0.5,
        workers: int = 0,
        fault_injector: Optional["FaultInjector"] = None,
        obs: Optional[ObsHub] = None,
    ) -> None:
        geo = get_geometry(geometry)
        if profiles is None:
            from repro.profiler import profile_workloads

            profiles = (
                profile_workloads()
                if geo.name == "mig"
                else profile_workloads(geometry=geo)
            )
        self.profiles = profiles
        self.geometry = geo
        self.fast_path = fast_path
        self.seed = seed
        if not 0.0 < full_replan_fraction <= 1.0:
            raise ValueError("full_replan_fraction must be in (0, 1]")
        #: fraction of the fleet an interval's arrivals+departures must
        #: exceed before a full re-schedule replaces per-service updates
        self.full_replan_fraction = full_replan_fraction
        self.scheduler = ParvaGPU(
            profiles,
            use_mps=use_mps,
            optimize=optimize,
            geometry=geo,
            fast_path=fast_path,
        )
        self.spare_shadow_gpus = spare_shadow_gpus
        if workers < 0:
            raise ValueError("workers must be >= 0")
        #: shard count for the serving measurement: 0 and 1 run the
        #: single shard inline; N >= 2 fans per-interval measurement and
        #: replan triplet scoring across N worker processes, with
        #: bit-identical results at any count (repro.sim.shard)
        self.workers = workers
        #: infrastructure fault-injection hook handed to the shard pool
        #: (tests and the resilience benchmark suite; None in production)
        self.fault_injector = fault_injector
        #: the last closed run's pool health (what the run survived)
        self.last_shard_health: Optional[ShardHealth] = None
        #: failure event_id -> the GPU id the draw resolved to
        self._eid_to_gpu: dict[str, int] = {}
        #: the active begin()/step()/finish() cycle, if any
        self._run: Optional[_RunState] = None
        self._pending_seq = 0
        #: the observability hub: metrics + spans + flight recorder.
        #: Recording is sidecar-only — nothing the hub stores ever
        #: reaches fingerprinted state, so replays stay bit-identical
        #: with observability enabled (the default).
        self.obs = obs if obs is not None else ObsHub()
        self._m_intervals = self.obs.counter(
            "ops_intervals_total", "intervals the controller closed"
        )
        self._m_events = self.obs.counter(
            "ops_events_applied_total",
            "timeline events applied, by event kind",
            ("kind",),
        )
        self._m_replans = self.obs.counter(
            "ops_replans_total",
            "interval re-plans taken, by path (full vs incremental)",
            ("path",),
        )
        self._m_failures = self.obs.counter(
            "ops_failures_total", "GPU failures/preemptions handled"
        )
        self._m_services = self.obs.gauge(
            "ops_fleet_services", "services currently deployed"
        )
        self._m_gpus = self.obs.gauge(
            "ops_fleet_gpus", "GPUs in the deployed placement"
        )
        self._m_spares = self.obs.gauge(
            "ops_spare_gpus", "spare GPUs held back for failover"
        )
        self._m_ckpt_writes = self.obs.counter(
            "ops_checkpoint_writes_total", "checkpoints flushed to disk"
        )
        self._m_stage_wall = self.obs.histogram(
            "ops_stage_wall_seconds",
            "wall-clock sidecar per decision-path stage (0 when "
            "deterministic)",
            ("stage",),
        )
        self._reset_deployment()

    def _reset_deployment(self) -> None:
        """Fresh deployment state: manager, failover, shadow budget.

        Called at construction *and* at the top of every :meth:`run`, so
        a controller is reentrant — a second run bootstraps from scratch
        instead of silently continuing from the previous run's final
        deployment (the module's determinism guarantee).  The final
        state of the last run stays inspectable on ``self.manager``
        until the next run begins.
        """
        self.manager = DeploymentManager(self.profiles, geometry=self.geometry)
        self.failover = FailoverController(
            self.profiles,
            self.manager,
            optimize=self.scheduler.optimize,
            fast_path=self.fast_path,
        )
        self.shadows = ShadowBudget(spare_gpus=self.spare_shadow_gpus)
        self._eid_to_gpu = {}

    # ------------------------------------------------------------------ #
    # the re-entrant step API
    # ------------------------------------------------------------------ #

    def begin(
        self,
        services: Sequence[Service],
        horizon_s: float,
        measure_s: float = 0.0,
        warmup_s: float = 0.1,
        sim_seed: int = 0,
        check: bool = True,
        measure_every: int = 1,
    ) -> OpsReport:
        """Open a run: fresh deployment state, an empty report, no steps.

        The returned :class:`OpsReport` is *live* — :meth:`step` appends
        to it in place, so a long-running caller (the serve gateway) can
        snapshot it between steps.  ``measure_every`` samples serving
        measurement to every Nth interval (1 = every interval).
        """
        if self._run is not None:
            raise RuntimeError(
                "a run is already active on this controller; call finish()"
            )
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        if measure_every < 1:
            raise ValueError("measure_every must be >= 1")
        self._reset_deployment()
        # Private copies: the run rewrites rates/SLOs/plan state, and
        # callers reasonably reuse their Service objects afterwards.
        work = [
            Service(
                id=s.id,
                model=s.model,
                slo_latency_ms=s.slo_latency_ms,
                request_rate=s.request_rate,
                slo_factor=s.slo_factor,
            )
            for s in services
        ]
        by_id = {s.id: s for s in work}
        if len(by_id) != len(work):
            raise ValueError("duplicate service ids")
        report = OpsReport(
            horizon_s=horizon_s,
            geometry=self.geometry.name,
            fast_path=self.fast_path,
            workers=self.workers,
        )
        self._pending_seq = 0
        self._eid_to_gpu = {}
        self._run = _RunState(
            work=work,
            by_id=by_id,
            report=report,
            horizon_s=horizon_s,
            measure_s=measure_s,
            warmup_s=warmup_s,
            sim_seed=sim_seed,
            check=check,
            measure_every=measure_every,
            shard=self._open_shard_context(),
        )
        return report

    def _open_shard_context(self) -> ShardContext:
        """The run's shard pool and segment memo, one per run.

        The worker pool (if ``workers`` >= 2) spawns once, and the memo
        carries across intervals: an event only perturbs a handful of
        services, so most segments resolve from cache and only the
        changed ones are simulated.
        """
        from repro.sim.shard import ShardContext

        ctx = ShardContext(
            self.workers, fault_injector=self.fault_injector, obs=self.obs,
        )
        self.obs.registry.attach("shard", ctx.pool.health)
        return ctx

    def _require_run(self) -> _RunState:
        if self._run is None:
            raise RuntimeError("no active run; call begin() first")
        return self._run

    def step(self, t: float, events: Sequence[OpsEvent] = ()) -> IntervalRecord:
        """Apply one instant's event batch and record the interval.

        Instants must be monotonically non-decreasing across steps, and
        every event must be stamped at or before the instant it is
        applied at; violating either raises
        :class:`OutOfOrderEventError` (the run loop used to silently
        assume sorted input).  Events inside the batch are applied in
        :func:`~repro.ops.events.timeline_key` order regardless of the
        order given.

        The previous interval's duration is closed off as ``t`` minus
        its instant; the new interval provisionally extends to the
        horizon until a later step (or nothing) supersedes it — interval
        accounting therefore never looks ahead, which is what lets a
        live gateway drive this API one instant at a time.
        """
        run = self._require_run()
        if t < 0:
            raise ValueError("step instant must be non-negative")
        if t >= run.horizon_s:
            raise ValueError(
                f"step instant t={t:g} is at or beyond the horizon "
                f"({run.horizon_s:g} s)"
            )
        if run.last_t is not None and t < run.last_t:
            raise OutOfOrderEventError(
                f"step instant t={t:g} precedes the already-applied instant "
                f"t={run.last_t:g}; instants must be monotonically "
                "non-decreasing"
            )
        batch = sorted(events, key=timeline_key)
        for e in batch:
            if e.time_s > t:
                raise OutOfOrderEventError(
                    f"{e.kind} stamped time_s={e.time_s:g} cannot apply at "
                    f"the earlier instant t={t:g}"
                )
        if run.report.intervals:
            prev = run.report.intervals[-1]
            prev.duration_s = t - prev.time_s
        failures_before = len(run.report.failures)
        with self.obs.span(
            "interval", t_s=t, cat="interval", step=run.steps,
            events=len(batch),
        ) as interval_span:
            with self.obs.span("apply", t_s=t, cat="interval") as sp:
                record = self._apply_batch(
                    t, batch, run.work, run.by_id, run.report, run.pending
                )
                sp.args["path"] = record.path
            self._m_stage_wall.observe(sp.wall_s, stage="apply")
            if run.check:
                with self.obs.span("check", t_s=t, cat="interval") as sp:
                    self._check_state(run.work)
                self._m_stage_wall.observe(sp.wall_s, stage="check")
            placement = self.manager.current
            with self.obs.span("fingerprint", t_s=t, cat="interval") as sp:
                record.fingerprint = _record_digest(placement.fingerprint())
            self._m_stage_wall.observe(sp.wall_s, stage="fingerprint")
            if run.measure_s > 0 and run.steps % run.measure_every == 0:
                with self.obs.span(
                    "measure", t_s=t, cat="interval",
                    services=len(run.work), workers=self.workers,
                ) as sp:
                    self._measure(
                        record, placement, run.work, run.measure_s,
                        run.warmup_s, run.sim_seed, run.shard,
                    )
                self._m_stage_wall.observe(sp.wall_s, stage="measure")
            with self.obs.span("report", t_s=t, cat="interval") as sp:
                record.duration_s = run.horizon_s - t
                run.report.intervals.append(record)
            interval_span.args["path"] = record.path
        self._m_stage_wall.observe(interval_span.wall_s, stage="interval")
        self._m_intervals.inc()
        self._m_replans.inc(path=record.path)
        for kind in sorted(record.events):
            self._m_events.inc(record.events[kind], kind=kind)
        new_failures = len(run.report.failures) - failures_before
        if new_failures:
            self._m_failures.inc(new_failures)
        self._m_services.set(len(run.work))
        self._m_gpus.set(record.num_gpus)
        self._m_spares.set(record.spare_gpus)
        self.obs.note(
            "decision", t_s=t, step=run.steps, path=record.path,
            events=dict(record.events), skipped=record.skipped,
            failures=new_failures,
        )
        run.last_t = t
        run.steps += 1
        return record

    def pending_due(self, t: float) -> list[OpsEvent]:
        """Pop controller-scheduled events (wave restores) due at ``t``."""
        run = self._require_run()
        out: list[OpsEvent] = []
        while run.pending and run.pending[0][0][0] <= t:
            out.append(heappop(run.pending)[2])
        return out

    def next_pending_time(self) -> Optional[float]:
        """Earliest controller-scheduled event time, or None."""
        run = self._require_run()
        return run.pending[0][0][0] if run.pending else None

    def would_full_replan(self, events: Iterable[OpsEvent]) -> bool:
        """Would this batch take the full re-schedule path if stepped now?

        The serve gateway's deadline scheduler asks this *before*
        committing to a step, so it can defer an expensive full re-plan
        past a blown budget; the predicate is exactly the branch
        :meth:`step` takes.
        """
        run = self._require_run()
        if self.manager.current is None:
            return True
        structural = sum(
            1
            for e in events
            if isinstance(e, (ServiceDeparture, ServiceArrival))
        )
        return structural > self.full_replan_fraction * max(1, len(run.work))

    def finish(self) -> OpsReport:
        """Close the run and return its report.

        The last interval keeps its provisional duration (to the
        horizon); the final deployment stays inspectable on
        ``self.manager`` until the next :meth:`begin`.
        """
        run = self._require_run()
        self.last_shard_health = run.shard.pool.health
        run.shard.close()
        self._run = None
        return run.report

    def shard_health(self) -> Optional[ShardHealth]:
        """The shard pool's survival counters — live during a run, the
        last run's afterwards, None before the first run."""
        if self._run is not None:
            return self._run.shard.pool.health
        return self.last_shard_health

    # ------------------------------------------------------------------ #
    # checkpoint / restore
    # ------------------------------------------------------------------ #

    #: controller configuration a checkpoint must match to be restorable
    #: (``workers`` is deliberately absent: results are worker-count-
    #: invariant, so a resumed run may shard differently)
    _CONFIG_FIELDS = (
        "geometry",
        "seed",
        "fast_path",
        "use_mps",
        "optimize",
        "full_replan_fraction",
        "spare_shadow_gpus",
    )

    def _config_doc(self) -> dict[str, Any]:
        return {
            "geometry": self.geometry.name,
            "seed": self.seed,
            "fast_path": self.fast_path,
            "use_mps": self.scheduler.use_mps,
            "optimize": self.scheduler.optimize,
            "full_replan_fraction": self.full_replan_fraction,
            "spare_shadow_gpus": self.spare_shadow_gpus,
        }

    def checkpoint(
        self, cursor: int = 0, timeline_sha: Optional[str] = None
    ) -> dict[str, Any]:
        """Freeze the active run's full control-plane state as a document.

        Everything a resumed run needs to be bit-identical to an
        uninterrupted one is captured: the fleet's services (in work-list
        order — full replans iterate it), the deployed placement and the
        spare/retired GPU ledgers, the pending (controller-scheduled)
        event heap with its tie-break sequence, the live report with
        every accumulator, and the caller's timeline ``cursor``.  Memo
        caches are *not* captured — a rewarmed memo is bit-identical to
        a restored one by purity.  Pass the result to
        :func:`~repro.ops.checkpoint.write_checkpoint` (or use the
        ``run(..., checkpoint_path=...)`` wiring).
        """
        run = self._require_run()
        state: dict[str, Any] = {
            "kind": "fleet-controller",
            "config": self._config_doc(),
            "cursor": cursor,
            "timeline_sha": timeline_sha,
            # post-mortem breadcrumb only: where the last automatic
            # flight-recorder dump landed (None almost always); restore
            # ignores it, so it never influences a resumed run
            "flight_dump": self.obs.flight.last_dump_path,
            "pending_seq": self._pending_seq,
            "eid_to_gpu": sorted(self._eid_to_gpu.items()),
            "run": {
                "horizon_s": run.horizon_s,
                "measure_s": run.measure_s,
                "warmup_s": run.warmup_s,
                "sim_seed": run.sim_seed,
                "check": run.check,
                "measure_every": run.measure_every,
                "last_t": run.last_t,
                "steps": run.steps,
                "services": [service_to_doc(s) for s in run.work],
                "pending": [
                    {"seq": seq, "event": event_to_doc(ev)}
                    for _key, seq, ev in sorted(run.pending)
                ],
            },
            "manager": {
                "placement": (
                    None
                    if self.manager.current is None
                    else placement_to_doc(self.manager.current)
                ),
                "spare_gpus": sorted(self.manager.spare_gpus.items()),
                "retired_gpus": sorted(self.manager.retired_gpus.items()),
            },
            "report": report_to_doc(run.report),
        }
        return state

    def restore(self, state: Mapping[str, Any]) -> OpsReport:
        """Rehydrate a checkpointed run; the next :meth:`step` continues it.

        The checkpoint's controller configuration must match this
        controller exactly (geometry, seed, path flags, replan fraction,
        shadow budget) — anything less would diverge silently; a
        mismatch raises :class:`~repro.ops.checkpoint.CheckpointError`.
        ``workers`` may differ: sharding is bit-identical at any width.

        Restore order matters: the placement is re-deployed onto a
        fresh cluster first (``deploy`` prunes drafted spares), *then*
        the spare/retired ledgers are overlaid, then the pending heap
        and the live report.  The returned report is the same live
        object later steps append to.
        """
        if self._run is not None:
            raise RuntimeError(
                "a run is already active on this controller; call finish()"
            )
        if state.get("kind") != "fleet-controller":
            raise CheckpointError(
                f"not a fleet-controller checkpoint: kind={state.get('kind')!r}"
            )
        config = state["config"]
        mine = self._config_doc()
        mismatched = [
            f"{name} (checkpoint {config.get(name)!r} != controller "
            f"{mine[name]!r})"
            for name in self._CONFIG_FIELDS
            if config.get(name) != mine[name]
        ]
        if mismatched:
            raise CheckpointError(
                "checkpoint was taken under a different controller "
                "configuration: " + ", ".join(mismatched)
            )
        run_doc = state["run"]
        self._reset_deployment()
        work = [service_from_doc(d) for d in run_doc["services"]]
        by_id = {s.id: s for s in work}
        if len(by_id) != len(work):
            raise CheckpointError("checkpoint carries duplicate service ids")
        mgr_doc = state["manager"]
        if mgr_doc["placement"] is not None:
            self.manager.deploy(placement_from_doc(mgr_doc["placement"]))
        self.manager.spare_gpus.clear()
        self.manager.spare_gpus.update(
            (int(gid), name) for gid, name in mgr_doc["spare_gpus"]
        )
        self.manager.retired_gpus.clear()
        self.manager.retired_gpus.update(
            (int(gid), name) for gid, name in mgr_doc["retired_gpus"]
        )
        self._eid_to_gpu = {
            eid: int(gid) for eid, gid in state["eid_to_gpu"]
        }
        self._pending_seq = int(state["pending_seq"])
        pending: list[tuple[tuple[float, int, str], int, OpsEvent]] = []
        for entry in run_doc["pending"]:
            ev = event_from_doc(entry["event"])
            heappush(pending, (timeline_key(ev), int(entry["seq"]), ev))
        report = report_from_doc(state["report"])
        # The report describes the *resumed* run from here on.
        report.workers = self.workers
        self._run = _RunState(
            work=work,
            by_id=by_id,
            report=report,
            horizon_s=run_doc["horizon_s"],
            measure_s=run_doc["measure_s"],
            warmup_s=run_doc["warmup_s"],
            sim_seed=run_doc["sim_seed"],
            check=run_doc["check"],
            measure_every=run_doc["measure_every"],
            shard=self._open_shard_context(),
            pending=pending,
            last_t=run_doc["last_t"],
            steps=run_doc["steps"],
        )
        return report

    # ------------------------------------------------------------------ #
    # the offline run loop (a driver over the step API)
    # ------------------------------------------------------------------ #

    def run(
        self,
        services: Sequence[Service],
        timeline: Iterable[OpsEvent],
        horizon_s: float,
        measure_s: float = 0.0,
        warmup_s: float = 0.1,
        sim_seed: int = 0,
        check: bool = True,
        measure_every: int = 1,
        *,
        checkpoint_every: int = 0,
        checkpoint_path: Optional[str | Path] = None,
        resume: Optional[str | Path | Mapping[str, Any]] = None,
        max_steps: Optional[int] = None,
    ) -> OpsReport:
        """Drive ``services`` through ``timeline`` until ``horizon_s``.

        With ``measure_s > 0`` every ``measure_every``-th interval's
        deployment is *served* for that long (after ``warmup_s`` of
        warmup) and per-tenant SLO compliance is recorded.  The serving
        engine follows the controller's ``fast_path``, so a
        naive-reference replay also exercises the event-driven
        simulation engine.

        Crash resilience: ``checkpoint_path`` (with ``checkpoint_every=N``)
        writes an atomic checkpoint after every Nth interval boundary, and
        ``resume`` (a checkpoint path or an in-memory state document)
        restores one and continues — bit-identical, interval for
        interval, to the run that was never interrupted.  The resume's
        run parameters and timeline must match the checkpointed run's
        (verified; the timeline via a stored digest).  ``max_steps``
        stops after that many total intervals, flushing a final
        checkpoint first — the planned-drain counterpart of a crash.
        """
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if checkpoint_every and checkpoint_path is None:
            raise ValueError("checkpoint_every requires checkpoint_path")
        static = sorted(
            (e for e in timeline if e.time_s < horizon_s), key=timeline_key
        )
        digest = timeline_digest(static)
        if resume is not None:
            try:
                state = resolve_resume(resume)
                self._check_resume_args(
                    state,
                    horizon_s=horizon_s,
                    measure_s=measure_s,
                    warmup_s=warmup_s,
                    sim_seed=sim_seed,
                    check=check,
                    measure_every=measure_every,
                    timeline_sha=digest,
                )
                report = self.restore(state)
            except CheckpointError:
                self.obs.dump_flight("checkpoint-error")
                raise
            si = int(state["cursor"])
            t = self._next_instant(static, si)
        else:
            report = self.begin(
                services,
                horizon_s,
                measure_s=measure_s,
                warmup_s=warmup_s,
                sim_seed=sim_seed,
                check=check,
                measure_every=measure_every,
            )
            si = 0
            # the bootstrap interval exists even on an empty timeline
            t = 0.0
        def flush_checkpoint() -> None:
            assert checkpoint_path is not None
            try:
                write_checkpoint(
                    checkpoint_path,
                    self.checkpoint(cursor=si, timeline_sha=digest),
                )
            except (CheckpointError, OSError):
                # Post-mortem evidence first, then the crash proceeds.
                self.obs.dump_flight("checkpoint-error")
                raise
            self._m_ckpt_writes.inc()

        try:
            while t is not None:
                batch: list[OpsEvent] = []
                while si < len(static) and static[si].time_s <= t:
                    batch.append(static[si])
                    si += 1
                batch.extend(self.pending_due(t))
                self.step(t, batch)
                steps = self._require_run().steps
                if (
                    checkpoint_path is not None
                    and checkpoint_every
                    and steps % checkpoint_every == 0
                ):
                    flush_checkpoint()
                if max_steps is not None and steps >= max_steps:
                    if checkpoint_path is not None:
                        flush_checkpoint()
                    break
                t = self._next_instant(static, si)
        finally:
            report = self.finish()
        return report

    def _next_instant(
        self, static: Sequence[OpsEvent], si: int
    ) -> Optional[float]:
        """The run loop's next step instant, or None when drained."""
        next_times = []
        if si < len(static):
            next_times.append(static[si].time_s)
        pt = self.next_pending_time()
        if pt is not None:
            next_times.append(pt)
        return min(next_times) if next_times else None

    @staticmethod
    def _check_resume_args(
        state: Mapping[str, Any],
        *,
        horizon_s: float,
        measure_s: float,
        warmup_s: float,
        sim_seed: int,
        check: bool,
        measure_every: int,
        timeline_sha: str,
    ) -> None:
        """Resuming under different run parameters would diverge silently."""
        run_doc = state.get("run", {})
        wanted = {
            "horizon_s": horizon_s,
            "measure_s": measure_s,
            "warmup_s": warmup_s,
            "sim_seed": sim_seed,
            "check": check,
            "measure_every": measure_every,
        }
        mismatched = [
            f"{name} (checkpoint {run_doc.get(name)!r} != {value!r})"
            for name, value in wanted.items()
            if run_doc.get(name) != value
        ]
        if mismatched:
            raise CheckpointError(
                "resume parameters differ from the checkpointed run: "
                + ", ".join(mismatched)
            )
        stored_sha = state.get("timeline_sha")
        if stored_sha is not None and stored_sha != timeline_sha:
            raise CheckpointError(
                "resume timeline differs from the checkpointed run's "
                "(digest mismatch) — continuing would silently diverge"
            )

    # ------------------------------------------------------------------ #
    # event application
    # ------------------------------------------------------------------ #

    def _apply_batch(
        self,
        t: float,
        batch: list[OpsEvent],
        work: list[Service],
        by_id: dict[str, Service],
        report: OpsReport,
        pending: list,
    ) -> IntervalRecord:
        counts: dict[str, int] = {}
        skipped = 0
        costs: list[ReconfigurationCost] = []
        ops = 0
        path = "incremental"

        def count(e: OpsEvent) -> None:
            counts[e.kind] = counts.get(e.kind, 0) + 1

        service_events = [
            e
            for e in batch
            if isinstance(e, (ServiceDeparture, ServiceArrival, SloChange, RateEpoch))
        ]
        gpu_events = [
            e
            for e in batch
            if isinstance(e, (GpuRecovery, GpuFailure, SpotPreemptionWave))
        ]

        structural = sum(
            1
            for e in service_events
            if isinstance(e, (ServiceDeparture, ServiceArrival))
        )
        bootstrap = self.manager.current is None
        if bootstrap or structural > self.full_replan_fraction * max(1, len(work)):
            # The delta demands a full re-plan: fold every service-level
            # event into the fleet state, then schedule from scratch.
            path = "full"
            for e in service_events:
                skipped += 0 if self._apply_to_state(e, work, by_id) else 1
                count(e)
            for svc in work:
                svc.request_rate = max(svc.request_rate, 1e-6)
                svc.reset_plan()
            if self.workers > 1 and self.fast_path:
                # Per-service triplet scoring is independent: fan the
                # uncached TRIPLETDECISION keys across the shard pool
                # and seed the memo caches before the serial schedule.
                from repro.parallel import warm_triplet_decisions

                warm_triplet_decisions(
                    self.profiles,
                    work,
                    self.scheduler.configurator.max_processes,
                    self._require_run().shard.pool,
                )
            placement = self.scheduler.schedule(work)
            plan = self.manager.deploy(placement)
            cost = price_plan(plan)
            if bootstrap:
                # Initial deployment precedes serving: the setup work is
                # real, but no tenant was interrupted — recording the
                # instance-creation time as per-service downtime would
                # dominate every run's headline downtime with a gap
                # nobody experienced.
                cost = ReconfigurationCost(
                    total_work_s=cost.total_work_s,
                    downtime_s={},
                    shadow_gpus=0,
                )
            costs.append(cost)
            ops += plan.num_operations
            # A from-scratch map renumbers GPUs: failed/spare ids recorded
            # against the old map are meaningless now.
            self.failover.reset()
            self._eid_to_gpu.clear()
        else:
            for e in service_events:
                applied, cost, n = self._apply_incremental(e, work, by_id)
                if not applied:
                    skipped += 1
                if cost is not None:
                    costs.append(cost)
                    ops += n
                count(e)

        for e in gpu_events:
            applied, applied_costs, n = self._apply_gpu_event(
                t, e, work, report, pending
            )
            if not applied:
                skipped += 1
            costs.extend(applied_costs)
            ops += n
            count(e)

        total = ReconfigurationCost.combine(costs)
        return IntervalRecord(
            time_s=t,
            duration_s=0.0,  # filled by the run loop
            path=path,
            events=counts,
            skipped=skipped,
            services=len(work),
            num_gpus=self.manager.current.num_gpus,
            spare_gpus=len(self.manager.spare_gpus),
            reconfig_ops=ops,
            reconfig_work_s=total.total_work_s,
            max_downtime_s=total.max_downtime_s,
            downtime_total_s=sum(total.downtime_s.values()),
            zero_downtime=self.shadows.admit(t, total),
        )

    def _apply_to_state(
        self, e: OpsEvent, work: list[Service], by_id: dict[str, Service]
    ) -> bool:
        """Fold one service-level event into the fleet state (no re-plan)."""
        if isinstance(e, ServiceDeparture):
            svc = by_id.pop(e.service_id, None)
            if svc is None:
                return False
            work.remove(svc)
            return True
        if isinstance(e, ServiceArrival):
            if e.service_id in by_id:
                return False
            svc = Service(
                id=e.service_id,
                model=e.model,
                slo_latency_ms=e.slo_latency_ms,
                request_rate=e.request_rate,
            )
            work.append(svc)
            by_id[svc.id] = svc
            return True
        if isinstance(e, SloChange):
            svc = by_id.get(e.service_id)
            if svc is None:
                return False
            svc.slo_latency_ms = e.slo_latency_ms
            return True
        if isinstance(e, RateEpoch):
            svc = by_id.get(e.service_id)
            if svc is None:
                return False
            svc.request_rate = max(e.rate, 1e-6)
            return True
        raise TypeError(f"not a service-level event: {e!r}")  # pragma: no cover

    def _apply_incremental(
        self, e: OpsEvent, work: list[Service], by_id: dict[str, Service]
    ) -> tuple[bool, Optional[ReconfigurationCost], int]:
        """One service-level event through the SIII-F incremental path."""
        kw = dict(
            use_mps=self.scheduler.use_mps,
            optimize=self.scheduler.optimize,
            fast_path=self.fast_path,
        )
        # Departures/arrivals mutate the fleet state through the same
        # code path the full-replan branch uses; SLO/rate changes are
        # applied by update_slo itself (the old value is needed first
        # for the no-op check).
        if isinstance(e, ServiceDeparture):
            if not self._apply_to_state(e, work, by_id):
                return False, None, 0
            _, plan = self.manager.remove_service(
                work, e.service_id, fast_path=self.fast_path
            )
            return True, price_plan(plan), plan.num_operations
        if isinstance(e, ServiceArrival):
            if not self._apply_to_state(e, work, by_id):
                return False, None, 0
            _, plan = self.manager.update_slo(work, by_id[e.service_id], **kw)
            return True, price_plan(plan), plan.num_operations
        if isinstance(e, SloChange):
            svc = by_id.get(e.service_id)
            if svc is None:
                return False, None, 0
            if svc.slo_latency_ms == e.slo_latency_ms:
                return True, None, 0
            _, plan = self.manager.update_slo(
                work, svc, new_slo_ms=e.slo_latency_ms, **kw
            )
            return True, price_plan(plan), plan.num_operations
        if isinstance(e, RateEpoch):
            svc = by_id.get(e.service_id)
            if svc is None:
                return False, None, 0
            rate = max(e.rate, 1e-6)
            if svc.request_rate == rate:
                return True, None, 0
            _, plan = self.manager.update_slo(work, svc, new_rate=rate, **kw)
            return True, price_plan(plan), plan.num_operations
        raise TypeError(f"not a service-level event: {e!r}")  # pragma: no cover

    def _occupied(self) -> list[int]:
        current = self.manager.current
        if current is None:
            return []
        return sorted(g.gpu_id for g in current.gpus if not g.is_empty)

    def _fail_one(
        self,
        t: float,
        gpu_id: int,
        kind: str,
        event_id: str,
        work: list[Service],
        report: OpsReport,
    ) -> tuple[ReconfigurationCost, int]:
        result = self.failover.fail_gpu(gpu_id, work)
        report.failures.append(
            FailureRecord(
                time_s=t,
                gpu_id=gpu_id,
                kind=kind,
                event_id=event_id,
                affected_services=result.affected_services,
                lost_capacity=sum(result.lost_capacity.values()),
                replan_work_s=result.cost.total_work_s,
                max_downtime_s=result.cost.max_downtime_s,
            )
        )
        return result.cost, result.reconfig_ops

    def _apply_gpu_event(
        self,
        t: float,
        e: OpsEvent,
        work: list[Service],
        report: OpsReport,
        pending: list,
    ) -> tuple[bool, list[ReconfigurationCost], int]:
        if isinstance(e, GpuRecovery):
            gid = e.gpu_id if e.gpu_id is not None else self._eid_to_gpu.get(e.ref)
            if gid is None or gid not in self.failover.failed:
                return False, [], 0
            self.failover.restore_gpu(gid)
            for rec in reversed(report.failures):
                if rec.gpu_id == gid and rec.restored_at_s is None:
                    rec.restored_at_s = t
                    break
            return True, [], 0
        if isinstance(e, GpuFailure):
            if e.gpu_id is not None and e.gpu_id in self.manager.spare_gpus:
                # Losing a spare tears down nothing: drop it from the
                # free pool and remember it as failed so it can return.
                # Still a real GPU loss — record it (zero lost capacity,
                # zero relocation work) so restores find their failure
                # and the report's failure tally matches the timeline.
                geometry = self.manager.spare_gpus.pop(e.gpu_id)
                self.failover.failed[e.gpu_id] = geometry
                self._eid_to_gpu[e.event_id] = e.gpu_id
                report.failures.append(
                    FailureRecord(
                        time_s=t,
                        gpu_id=e.gpu_id,
                        kind="failure",
                        event_id=e.event_id,
                        affected_services=(),
                        lost_capacity=0.0,
                        replan_work_s=0.0,
                        max_downtime_s=0.0,
                    )
                )
                return True, [], 0
            occupied = self._occupied()
            if not occupied:
                return False, [], 0
            if e.gpu_id is not None:
                if e.gpu_id not in occupied:
                    return False, [], 0
                gid = e.gpu_id
            else:
                gid = occupied[int(e.draw * len(occupied))]
            cost, ops = self._fail_one(t, gid, "failure", e.event_id, work, report)
            self._eid_to_gpu[e.event_id] = gid
            return True, [cost], ops
        if isinstance(e, SpotPreemptionWave):
            occupied = self._occupied()
            if not occupied:
                return False, [], 0
            count = min(
                len(occupied), max(1, math.ceil(e.fraction * len(occupied)))
            )
            rng = random.Random(f"{self.seed}:{e.event_id}:{e.draw}")
            victims = sorted(rng.sample(occupied, count))
            costs: list[ReconfigurationCost] = []
            ops = 0
            for gid in victims:
                if gid not in self._occupied():
                    # an earlier victim's relocation drained this GPU;
                    # preempting idle hardware tears down nothing
                    continue
                cost, n = self._fail_one(
                    t, gid, "preemption", f"{e.event_id}/{gid}", work, report
                )
                costs.append(cost)
                ops += n
                if e.restore_delay_s is not None:
                    back = t + e.restore_delay_s
                    if back < report.horizon_s:
                        ev = GpuRecovery(time_s=back, gpu_id=gid)
                        heappush(
                            pending,
                            (timeline_key(ev), self._pending_seq, ev),
                        )
                        self._pending_seq += 1
            return True, costs, ops
        raise TypeError(f"not a GPU-level event: {e!r}")  # pragma: no cover

    # ------------------------------------------------------------------ #
    # identity checks & measurement
    # ------------------------------------------------------------------ #

    def _check_state(self, work: Sequence[Service]) -> None:
        """The per-interval round-trip + cluster-mirror identity check.

        The from-scratch rebuild of the allocator state also pins the
        persistent state the fast path patches: it must equal the
        rebuild's live part, state for state.
        """
        placement = self.manager.current
        fp = placement.fingerprint()
        states = self.manager.build_states()
        problem = self.manager.live_state_mismatch(states)
        if problem is not None:
            raise OpsIdentityError(problem)
        rebuilt = SegmentAllocator(geometry=self.geometry)._to_placement(states)
        rebuilt.framework = placement.framework
        rebuilt.assign_rates({s.id: s.request_rate for s in work})
        if rebuilt.fingerprint() != fp:
            raise OpsIdentityError(
                "incremental placement does not survive the allocator-state "
                "round trip (build_states -> _to_placement)"
            )
        want = {
            (s.gpu_id, s.start, s.size, s.owner)
            for s in placement.to_instance_specs()
        }
        have = {
            (g.gpu_id, inst.start, inst.size, inst.owner or "")
            for g, inst in self.manager.cluster.instances()
        }
        if want != have:
            raise OpsIdentityError(
                "live cluster instances do not mirror the deployment map"
            )

    def _measure(
        self,
        record: IntervalRecord,
        placement: Placement,
        work: Sequence[Service],
        measure_s: float,
        warmup_s: float,
        sim_seed: int,
        shard: ShardContext,
    ) -> None:
        # Looked up at call time, so patching the module attribute
        # (perfbench's layer probe) reaches every measurement.
        from repro.sim.runner import measure_interval

        m = measure_interval(
            placement,
            work,
            measure_s=measure_s,
            warmup_s=warmup_s,
            seed=sim_seed,
            fast_path=self.fast_path,
            shard_context=shard if self.fast_path else None,
        )
        record.compliance = m.compliance
        record.sim_fingerprint = _record_digest(m.fingerprint)
        record.per_service_compliance = m.per_service
        if m.per_service:
            record.worst_service = m.worst_service
            record.worst_service_compliance = m.worst_compliance


def assert_reports_identical(fast: OpsReport, naive: OpsReport) -> None:
    """Raise :class:`OpsIdentityError` unless two replays of one timeline
    agree on every interval's time, placement fingerprint, and (when
    measured) simulation stats fingerprint.

    The single definition of the replay identity contract — shared by
    :func:`run_identity_checked` and the perf harness's recorded runs.
    """
    if len(fast.intervals) != len(naive.intervals):
        raise OpsIdentityError(
            f"interval counts differ: {len(fast.intervals)} vs "
            f"{len(naive.intervals)}"
        )
    for a, b in zip(fast.intervals, naive.intervals):
        if a.time_s != b.time_s or a.fingerprint != b.fingerprint:
            raise OpsIdentityError(
                f"placement fingerprints diverge at t={a.time_s}"
            )
        # Intervals one side skipped (``measure_every`` sampling) carry
        # no stats fingerprint; the contract binds the measured pairs.
        if (
            a.sim_fingerprint is not None
            and b.sim_fingerprint is not None
            and a.sim_fingerprint != b.sim_fingerprint
        ):
            raise OpsIdentityError(
                f"simulation fingerprints diverge at t={a.time_s}"
            )


def run_identity_checked(
    services: Sequence[Service],
    timeline: Iterable[OpsEvent],
    horizon_s: float,
    measure_s: float = 0.0,
    warmup_s: float = 0.1,
    sim_seed: int = 0,
    workers: int = 0,
    verify_every: int = 1,
    **controller_kwargs: object,
) -> tuple[OpsReport, OpsReport]:
    """Replay one timeline on the fast path *and* the naive reference.

    Both controllers consume the identical timeline from scratch; every
    interval's placement fingerprint — and, when serving is measured, its
    simulation stats fingerprint — must match exactly, or
    :class:`OpsIdentityError` is raised.  The reference replay serves on
    the per-request event-driven engine.

    ``workers`` applies to the fast replay only — the naive reference
    always runs inline, so ``workers`` >= 2 additionally asserts that the
    process fan-out matches the reference machinery interval-for-interval.

    ``verify_every=N`` samples the naive replay's *serving measurement*
    to every Nth interval — the event-driven simulator dominates big
    dual replays, so sampling buys a cheap smoke mode.  Placement
    fingerprints are still checked at every interval; simulation
    fingerprints at the sampled ones.  ``N=1`` (the default) is the full
    contract, byte-identical to what this function always did.

    Returns ``(fast_report, naive_report)``.
    """
    if verify_every < 1:
        raise ValueError("verify_every must be >= 1")
    timeline = tuple(timeline)
    fast = FleetController(
        fast_path=True, workers=workers, **controller_kwargs
    ).run(
        services, timeline, horizon_s,
        measure_s=measure_s, warmup_s=warmup_s, sim_seed=sim_seed,
    )
    naive = FleetController(fast_path=False, **controller_kwargs).run(
        services, timeline, horizon_s,
        measure_s=measure_s, warmup_s=warmup_s, sim_seed=sim_seed,
        measure_every=verify_every,
    )
    assert_reports_identical(fast, naive)
    return fast, naive
