"""The traced run: timing wrappers around each layer's public calls.

:class:`LayerProbe` patches the public entry points of ``core``, ``gpu``,
``sim``, ``serve`` and ``ops.checkpoint`` for the duration of one traced
replay, so the program's own code stays untouched.  It also watches the
controller's existing stage spans (``apply`` / ``check`` /
``fingerprint`` / ``measure``) on an ``ObsHub.live()`` hub, which lets
it reconcile the two views of one run: the ``apply`` span sum against
the wrapper time spent directly inside ``apply``.

Wrappers and stage spans both read the hub's clock, so the two views
share one: the thread's CPU time on an offline replay (unscaled, unlike
the replay's own times), and the live gateway's process clock (see
``bench_workloads``) on a live session.

Wrapper times are inclusive: ``core.update_slo_s`` contains the
``core.configure_s`` and ``core.build_states_s`` it calls.  Only the
outermost wrapped call inside a stage counts towards reconciliation, so
nothing is counted twice there.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Iterator, Optional

#: metric stem -> (module, class or None, attribute)
TARGETS: dict[str, tuple[str, Optional[str], str]] = {
    "core.build_states": ("repro.core.deployment", "DeploymentManager", "build_states"),
    "core.update_slo": ("repro.core.deployment", "DeploymentManager", "update_slo"),
    "core.remove_service": ("repro.core.deployment", "DeploymentManager", "remove_service"),
    "core.deploy": ("repro.core.deployment", "DeploymentManager", "deploy"),
    "core.fail_gpu": ("repro.core.failover", "FailoverController", "fail_gpu"),
    "core.fingerprint": ("repro.core.placement", "Placement", "fingerprint"),
    "core.schedule": ("repro.core.parvagpu", "ParvaGPU", "schedule"),
    "core.configure": ("repro.core.configurator", "SegmentConfigurator", "configure"),
    "core.alloc_opt": ("repro.core.allocator", "SegmentAllocator", "allocation_optimization"),
    "core.assign_rates": ("repro.core.placement", "Placement", "assign_rates"),
    "core.instance_specs": ("repro.core.placement", "Placement", "to_instance_specs"),
    "gpu.plan_reconfig": ("repro.gpu.cluster", "Cluster", "plan_reconfiguration"),
    # the controller imports measure_interval at call time, so patching
    # the module attribute reaches it
    "sim.measure": ("repro.sim.runner", None, "measure_interval"),
    "serve.journal_append": ("repro.serve.journal", "Journal", "append"),
    # the gateway calls write_checkpoint through its own module namespace
    "ckpt.write": ("repro.serve.gateway", None, "write_checkpoint"),
}

STAGES = ("apply", "check", "fingerprint", "measure")


class LayerProbe:
    """Per-layer call counts and inclusive process seconds for one replay."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: outermost wrapped seconds per controller stage
        self.outermost: dict[str, float] = defaultdict(float)
        self.instances_unchanged = 0
        self.instances_deployed = 0
        self.ckpt_bytes = 0
        self.segments = 0
        self.segments_unchanged = 0
        self._prev_segments: Optional[Counter] = None
        self._depth = 0
        self._stage: Optional[str] = None
        self._now: Any = time.thread_time
        self._patched: list[tuple[Any, str, Any]] = []

    # -- wrappers -------------------------------------------------------

    def _wrap(self, stem: str, fn: Any) -> Any:
        probe = self

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            probe._depth += 1
            t0 = probe._now()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = probe._now() - t0
                probe._depth -= 1
                probe.seconds[stem] += dt
                probe.calls[stem] += 1
                if probe._depth == 0 and probe._stage is not None:
                    probe.outermost[probe._stage] += dt
            probe._observe(stem, args, result)
            return result

        return timed

    def _observe(self, stem: str, args: tuple, result: Any) -> None:
        if stem == "core.deploy":
            self.instances_unchanged += len(result.unchanged)
            self.instances_deployed += len(result.unchanged) + len(result.create)
        elif stem == "ckpt.write":
            self.ckpt_bytes += os.path.getsize(args[0])

    @contextmanager
    def installed(self, hub: Any) -> Iterator["LayerProbe"]:
        """Patch every target and watch ``hub``'s stage spans; time both
        on the hub's clock (CPU time until a live gateway rebinds it)."""
        hub.set_wall(time.thread_time)
        self._now = hub.wall
        for stem, (module, cls, attr) in TARGETS.items():
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(stem, original))
            self._patched.append((owner, attr, original))
        inner_span = hub.span
        probe = self

        @contextmanager
        def span(name: str, **kwargs: Any) -> Iterator[Any]:
            outer = probe._stage
            if name in STAGES:
                probe._stage = name
            try:
                with inner_span(name, **kwargs) as sp:
                    yield sp
            finally:
                probe._stage = outer

        hub.span = span
        try:
            yield self
        finally:
            del hub.span
            for owner, attr, original in reversed(self._patched):
                setattr(owner, attr, original)
            self._patched.clear()

    # -- per-step placement diff ----------------------------------------

    def after_step(self, controller: Any) -> None:
        """Count this step's segments whose simulation signature (model,
        partition, batch, processes, latency, routed rate) the previous
        step's placement already had: the work a cross-step memo could
        skip.  GPU ids and owners are left out, as a memo would."""
        current = Counter(
            (s.model, s.kind, s.gpcs, s.batch_size, s.num_processes,
             s.latency_ms, s.served_rate, s.geometry)
            for _, s in controller.manager.current.iter_segments()
        )
        if self._prev_segments is not None:
            self.segments += sum(current.values())
            self.segments_unchanged += sum((current & self._prev_segments).values())
        self._prev_segments = current


def span_seconds(hub: Any) -> dict[str, float]:
    """Process seconds per stage, summed from the hub's recorded spans."""
    out = {stage: 0.0 for stage in STAGES}
    for sp in hub.tracer.spans:
        if sp.name in out:
            out[sp.name] += sp.wall_s
    return out


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(probe: LayerProbe, hub: Any, replay: Any) -> dict[str, float]:
    """Every per-layer figure of one traced replay, keyed by metric name."""
    from repro.serve.gateway import reaction_percentile

    stages = span_seconds(hub)
    report = replay.report
    out: dict[str, float] = {f"ops.{s}_s": v for s, v in stages.items()}
    out["ops.apply_gap_s"] = stages["apply"] - probe.outermost["apply"]
    out["ops.apply_accounted_share"] = share(probe.outermost["apply"], stages["apply"])
    out["ops.step_p50_ms"] = reaction_percentile(replay.step_times_s, 0.5) * 1e3
    out["ops.steps"] = len(report.intervals)
    out["ops.steps_full"] = sum(1 for r in report.intervals if r.path == "full")
    skipped = sum(r.skipped for r in report.intervals)
    out["ops.events_applied"] = sum(sum(r.events.values()) for r in report.intervals) - skipped
    out["ops.events_skipped"] = skipped
    for stem in TARGETS:
        out[f"{stem}_s"] = probe.seconds[stem]
        out[f"{stem}_calls"] = probe.calls[stem]
    out["gpu.unchanged_instance_share"] = share(
        probe.instances_unchanged, probe.instances_deployed
    )
    out["sim.segments"] = probe.segments
    out["sim.unchanged_segment_share"] = share(probe.segments_unchanged, probe.segments)
    out["ckpt.bytes"] = probe.ckpt_bytes
    return out
