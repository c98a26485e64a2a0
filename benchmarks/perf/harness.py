#!/usr/bin/env python
"""Fleet-scale perf harness (opt-in — not part of tier-1).

Two suites, selected with ``--suite``:

- ``schedule`` (default): schedules deterministic synthetic fleets (see
  ``repro.scenarios.fleet``) of 100/1000/5000 services on the MIG,
  MI300X, and mixed geometries with the fast-path scheduler (indexed
  allocator + memoized configurator) and, up to ``--naive-cap``
  services, with the naive reference path.  Every fast/naive pair is
  checked for byte-identical placements; wall-clocks, GPU counts, and
  speedups land in ``BENCH_schedule.json``.  The S10 pass drives a
  phase-shifted diurnal fleet through ``FleetController``'s SIII-F
  incremental path, one interval per trace epoch (the row keeps its
  historical ``"autoscaler"`` key and ``--autoscaler-*`` flags).

- ``simulate``: *serves* high-rate fleets of 100/1000 services on each
  geometry through the batch-granularity simulation fast path and, up
  to ``--naive-cap`` services, through the per-request event-driven
  reference engine — every recorded fast/reference pair must pass the
  stats-fingerprint identity check (exact integer statistics + float
  sums within 1e-9).  The S10 pass measures per-interval SLO
  compliance of the same FleetController trace run; the S11 pass
  replays the million-request fleet, which only the fast path can
  execute in reasonable time.  Results land in ``BENCH_simulate.json``.

- ``ops``: drives 100/1000-service fleets through one simulated day of
  fleet operations (MTBF failures + repairs, spot preemption/restore
  waves, tenant churn, SLO renegotiations — see
  ``repro.scenarios.ops.bench_ops_run``) with the closed-loop
  FleetController, measuring per-interval SLO compliance.  Up to
  ``--naive-cap`` services the identical timeline is replayed on the
  naive reference machinery (unindexed allocator, unmemoized
  configurator, event-driven simulator) and every interval's placement
  *and* simulation fingerprints must match.  Results — including the
  full per-interval report — land in ``BENCH_ops.json``.

- ``serve``: the live-serving gateway tier.  Replays an S12 slice and
  the full S16 flash-crowd session through the virtual-clock
  ``ServeGateway`` at workers 0/1/2, asserting per-interval fingerprint
  identity against the offline FleetController (any divergence is
  fatal), then streams S16 live — 100 services through the scripted
  driver on a scaled monotonic clock — recording per-event reaction
  latency (p50/p95/p99) and verifying the recorded session's virtual
  replay.  Results land in ``BENCH_serve.json``.

- ``resilience``: the crash-resilience tier.  For each ops tier the
  run is (a) checkpointed every ``RESILIENCE_CKPT_EVERY`` intervals
  and compared against the uncheckpointed wall-clock (write overhead),
  (b) killed at an interval boundary and resumed from the checkpoint —
  the resumed report must be **bit-identical** to the uninterrupted
  one — and (c) replayed on the sharded control plane while a seeded
  ``FaultPlan`` kills worker processes mid-measurement, asserting the
  recovered parallel replay still matches the serial reference
  interval-for-interval.  Two scenario specials ride along: the full
  S13 degraded week killed/resumed *twice* (chained resume), and an
  S15 chaos-week prefix with worker crashes at 10k services.  Results
  land in ``BENCH_resilience.json``.

- ``obs``: the observability-overhead tier.  Each ops tier is replayed
  twice — once with the observability plane on (the default
  ``ObsHub``: metrics registry, trace spans, flight recorder) and once
  with a disabled hub — best-of-``OBS_REPEATS`` walls each.  The two
  reports must be **bit-identical** (recording is sidecar-only; the
  obs plane may cost wall-clock but can never move a fingerprint) and
  the overhead percentage is the committed evidence that the cost
  stays marginal.  ``--obs-budget`` turns the overhead into a gate
  (non-zero exit past the budget).  Results — including span counts
  and the Prometheus scrape size — land in ``BENCH_obs.json``.

Run from the repository root::

    PYTHONPATH=src python benchmarks/perf/harness.py
    PYTHONPATH=src python benchmarks/perf/harness.py --suite simulate
    PYTHONPATH=src python benchmarks/perf/harness.py --suite ops
    PYTHONPATH=src python benchmarks/perf/harness.py \
        --tiers 100 --baseline benchmarks/perf/baseline.json

With ``--baseline``, fast-path wall-clocks are compared against the
committed reference; the exit code is non-zero when any matched tier
regresses by more than ``--max-regress`` (the CI perf-smoke gate).
File names here deliberately avoid the ``test_`` prefix so pytest never
collects the harness into the tier-1 run.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.hetero import make_mixed_scheduler  # noqa: E402
from repro.core.parvagpu import ParvaGPU  # noqa: E402
from repro.gpu.geometry import get_geometry  # noqa: E402
from repro.profiler import profile_workloads  # noqa: E402
from repro.scenarios.fleet import (  # noqa: E402
    FLEET_TIERS,
    S10_EPOCHS,
    S10_FLEET_SIZE,
    S11_DURATION_S,
    S11_FLEET_SIZE,
    S11_RATE_SCALE,
    fleet_services,
    fleet_traces,
)
from repro.sim import simulate_placement  # noqa: E402

# Defaults are gitignored sidecars (the repo's wall-clock convention, cf.
# benchmarks/out/*.local.txt): casual runs must never clobber the
# committed BENCH_*.json reproduction evidence.  Pass e.g. --out
# benchmarks/perf/BENCH_schedule.json to regenerate one deliberately.
DEFAULT_OUTS = {
    "schedule": pathlib.Path(__file__).parent / "BENCH_schedule.local.json",
    "simulate": pathlib.Path(__file__).parent / "BENCH_simulate.local.json",
    "ops": pathlib.Path(__file__).parent / "BENCH_ops.local.json",
    "serve": pathlib.Path(__file__).parent / "BENCH_serve.local.json",
    "resilience": (
        pathlib.Path(__file__).parent / "BENCH_resilience.local.json"
    ),
    "obs": pathlib.Path(__file__).parent / "BENCH_obs.local.json",
}
GEOMETRIES = ("mig", "mi300x", "mixed")

#: The simulate suite's sweep: service tiers (the event-driven reference
#: at 5000 services would take minutes per geometry), rate scale (the
#: high-rate regime S11 formalizes), and the simulated window.
SIM_TIERS = (100, 1000)
SIM_RATE_SCALE = S11_RATE_SCALE
SIM_DURATION_S = 1.0
SIM_WARMUP_S = 0.25

#: The ops suite's sweep: the FleetController is MIG-only here (one
#: geometry per controller), so tiers vary the fleet size only; every
#: interval is served for OPS_MEASURE_S simulated seconds.  The 10_000
#: tier replays the S15 chaos week (``ops_run("S15")``) instead of the
#: synthetic one-day bench and serves each interval for OPS_MEASURE_10K
#: simulated seconds — long enough that serving measurement (the stage
#: the sharded control plane accelerates) dominates the replay, which is
#: exactly the regime the 10k fleet operates in.
OPS_TIERS = (100, 1000, 10_000)
OPS_MEASURE_S = 0.25
OPS_MEASURE_10K = 6.0
OPS_WARMUP_S = 0.1
OPS_WORKERS = 2

#: The serve suite: (scenario, horizon cap) slices for the virtual-clock
#: identity replays, the shard counts the gateway is checked at, and the
#: live S16 session's clock compression / deadline budget.
SERVE_SLICES = (("S12", 3 * 3600.0), ("S16", None))
SERVE_MEASURE_S = 0.25
SERVE_WORKERS = (1, 2)
SERVE_TIME_SCALE = 600.0
SERVE_DEADLINE_S = 0.25

#: The resilience suite: ops tiers run with checkpoint/kill/resume and
#: with seeded worker-crash injection on the sharded control plane.
#: Checkpoints land every RESILIENCE_CKPT_EVERY intervals (the overhead
#: the committed BENCH holds under 5% at the 1000-service tier); the
#: S15 special replays a chaos-week *prefix* (the full week is a
#: 17-minute serial run) at a lighter measurement than the ops suite's
#: 10k tier — crash recovery, not throughput, is what it checks.
RESILIENCE_TIERS = (100, 1000)
RESILIENCE_CKPT_EVERY = 5
#: Base and checkpointed walls are best-of-N: replays are deterministic,
#: so wall-clock spread between repeats is pure scheduler/container
#: noise, and at sub-10 s scales that noise dwarfs the real checkpoint
#: overhead being measured.
RESILIENCE_REPEATS = 3
RESILIENCE_CRASHES = 3
RESILIENCE_S15_HORIZON = 86_400.0
RESILIENCE_S15_MEASURE = 1.0

#: The obs suite: ops tiers replayed with the observability plane on
#: vs off.  Best-of-N for the same reason as the resilience suite —
#: replays are deterministic, so wall-clock spread is pure scheduler
#: noise, and the overhead being measured is small by design.
OBS_TIERS = (100, 1000)
OBS_REPEATS = 3


def _make_scheduler(geometry: str, fast_path: bool):
    """A fresh scheduler for one fleet run (profiles cached per process)."""
    if geometry == "mixed":
        return make_mixed_scheduler(fast_path=fast_path)
    geo = get_geometry(geometry)
    profiles = (
        profile_workloads()
        if geo.name == "mig"
        else profile_workloads(geometry=geo)
    )
    return ParvaGPU(profiles, geometry=geo, fast_path=fast_path)


def _timed_schedule(scheduler, services):
    t0 = time.perf_counter()
    placement = scheduler.schedule(services)
    return placement, time.perf_counter() - t0


def run_fleet_sweep(tiers, geometries, naive_cap):
    """The S9 sweep: schedule each tier on each geometry, fast vs naive."""
    rows = []
    for tier in tiers:
        for geometry in geometries:
            services = fleet_services(tier)
            fast, fast_wall = _timed_schedule(
                _make_scheduler(geometry, fast_path=True), services
            )
            row = {
                "scenario": "S9",
                "tier": tier,
                "geometry": geometry,
                "services": len(services),
                "segments": sum(1 for _ in fast.iter_segments()),
                "gpus": fast.num_gpus,
                "indexed_wall_s": round(fast_wall, 6),
                "naive_wall_s": None,
                "speedup": None,
                "identical": None,
            }
            if tier <= naive_cap:
                naive, naive_wall = _timed_schedule(
                    _make_scheduler(geometry, fast_path=False), services
                )
                row["naive_wall_s"] = round(naive_wall, 6)
                row["speedup"] = round(naive_wall / fast_wall, 2)
                row["identical"] = naive.fingerprint() == fast.fingerprint()
                if not row["identical"]:
                    raise SystemExit(
                        f"FATAL: indexed and naive placements differ for "
                        f"{tier} services on {geometry}"
                    )
            rows.append(row)
            speedup = (
                f"{row['speedup']}x vs naive" if row["speedup"] else "naive skipped"
            )
            print(
                f"  S9 {geometry:>6} n={tier:<5} "
                f"{row['indexed_wall_s']*1e3:8.1f} ms  "
                f"{row['gpus']:>5} GPUs  ({speedup})"
            )
    return rows


def run_autoscaler_trace(num_services, epochs, measure_s=0.0):
    """The S10 pass: a diurnal fleet through FleetController's SIII-F
    incremental path, one interval per trace epoch.

    With ``measure_s > 0`` every interval's deployment is additionally
    served for that long in the simulation fast path and the mean
    measured SLO compliance (unweighted, over intervals) is recorded.
    """
    from repro.ops import FleetController
    from repro.ops.chaos import rate_epochs

    services = fleet_services(num_services)
    timeline = rate_epochs(fleet_traces(services, epochs=epochs))
    controller = FleetController(profile_workloads(), spare_shadow_gpus=2)
    t0 = time.perf_counter()
    report = controller.run(
        services,
        timeline,
        horizon_s=max(e.time_s for e in timeline) + 1.0,
        measure_s=measure_s,
        warmup_s=0.0,
        sim_seed=0,
    )
    wall = time.perf_counter() - t0
    intervals = report.intervals
    measured = [r.compliance for r in intervals if r.compliance is not None]
    mean_compliance = sum(measured) / len(measured) if measured else None
    row = {
        "scenario": "S10",
        "services": num_services,
        "trace_epochs": epochs,
        "steps": len(intervals),
        "wall_s": round(wall, 6),
        "peak_gpus": report.peak_gpus,
        "mean_gpus": round(
            sum(r.num_gpus for r in intervals) / len(intervals), 2
        ),
        "reconfig_ops": report.total_reconfig_ops,
        "measure_s": measure_s,
        "mean_compliance": (
            None if mean_compliance is None else round(mean_compliance, 6)
        ),
    }
    compliance = (
        f", compliance {100 * mean_compliance:.2f}%"
        if mean_compliance is not None
        else ""
    )
    print(
        f"  S10 {num_services} services x {epochs} epochs: "
        f"{wall:.2f} s, {len(intervals)} steps, "
        f"peak {report.peak_gpus} GPUs{compliance}"
    )
    return row


def _timed_simulate(placement, services, fast_path, seed=0):
    t0 = time.perf_counter()
    report = simulate_placement(
        placement,
        services,
        duration_s=SIM_DURATION_S,
        warmup_s=SIM_WARMUP_S,
        seed=seed,
        fast_path=fast_path,
    )
    return report, time.perf_counter() - t0


def run_simulate_sweep(tiers, geometries, naive_cap):
    """The simulate tiers: serve each high-rate fleet, fast vs reference.

    Every recorded fast/reference pair must pass the stats-fingerprint
    identity check: exact integer statistics (batches, violations,
    requests, completions, worst latencies) plus order-sensitive float
    sums within 1e-9 relative.
    """
    rows = []
    for tier in tiers:
        for geometry in geometries:
            services = fleet_services(tier, rate_scale=SIM_RATE_SCALE)
            placement = _make_scheduler(geometry, fast_path=True).schedule(
                services
            )
            offered = sum(
                seg.served_rate for _, seg in placement.iter_segments()
            )
            fast, fast_wall = _timed_simulate(placement, services, True)
            row = {
                "scenario": "SIM",
                "tier": tier,
                "geometry": geometry,
                "rate_scale": SIM_RATE_SCALE,
                "duration_s": SIM_DURATION_S,
                "offered_rate": round(offered, 1),
                "requests_measured": sum(
                    st.requests for st in fast.services.values()
                ),
                "compliance": round(fast.overall_compliance, 6),
                "fast_wall_s": round(fast_wall, 6),
                "reference_wall_s": None,
                "speedup": None,
                "identical": None,
            }
            if tier <= naive_cap:
                ref, ref_wall = _timed_simulate(placement, services, False)
                row["reference_wall_s"] = round(ref_wall, 6)
                row["speedup"] = round(ref_wall / fast_wall, 2)
                row["identical"] = (
                    fast.fingerprint() == ref.fingerprint()
                    and fast.close_to(ref)
                )
                if not row["identical"]:
                    raise SystemExit(
                        f"FATAL: fast-path and event-driven reports differ "
                        f"for {tier} services on {geometry}"
                    )
            rows.append(row)
            speedup = (
                f"{row['speedup']}x vs reference"
                if row["speedup"]
                else "reference skipped"
            )
            print(
                f"  SIM {geometry:>6} n={tier:<5} "
                f"{row['fast_wall_s']*1e3:8.1f} ms  "
                f"{row['requests_measured']:>9} reqs  ({speedup})"
            )
    return rows


def run_million_request_replay():
    """The S11 pass: the million-request fleet, fast path only."""
    services = fleet_services(S11_FLEET_SIZE, rate_scale=S11_RATE_SCALE)
    placement = ParvaGPU(profile_workloads(), fast_path=True).schedule(
        services
    )
    t0 = time.perf_counter()
    report = simulate_placement(
        placement,
        services,
        duration_s=S11_DURATION_S,
        warmup_s=SIM_WARMUP_S,
        fast_path=True,
    )
    wall = time.perf_counter() - t0
    offered = sum(seg.served_rate for _, seg in placement.iter_segments())
    row = {
        "scenario": "S11",
        "services": S11_FLEET_SIZE,
        "rate_scale": S11_RATE_SCALE,
        "duration_s": S11_DURATION_S,
        "offered_requests": round(offered * S11_DURATION_S),
        "requests_measured": sum(
            st.requests for st in report.services.values()
        ),
        "compliance": round(report.overall_compliance, 6),
        "wall_s": round(wall, 6),
    }
    print(
        f"  S11 {S11_FLEET_SIZE} services: ~{row['offered_requests']} "
        f"requests offered, {row['requests_measured']} measured in "
        f"{wall:.2f} s (compliance {100 * report.overall_compliance:.2f}%)"
    )
    return row


def run_ops_sweep(tiers, naive_cap, measure_s=None, workers=OPS_WORKERS):
    """The ops tiers: a simulated day of fleet operations per fleet size
    (the 10_000 tier replays the S15 chaos week instead).

    Every recorded fast/naive pair must agree on *every* interval's
    placement fingerprint and simulation stats fingerprint — the
    closed-loop analogue of the schedule and simulate identity checks.
    With ``workers > 0`` every tier is additionally replayed through the
    sharded parallel control plane and checked interval-for-interval
    against the serial fast replay; any divergence is fatal.  At tiers
    past ``naive_cap`` (where the naive replay is skipped) this
    parallel-vs-serial identity is the recorded correctness check.
    """
    from repro.ops import FleetController, OpsIdentityError
    from repro.ops.controller import assert_reports_identical
    from repro.scenarios.ops import OPS_SEED, bench_ops_run, ops_run

    def tier_run(tier):
        if tier >= 10_000:
            return ops_run("S15")
        return bench_ops_run(tier)

    def replay(run, fast_path, measure, workers=0):
        ctrl = FleetController(
            fast_path=fast_path, seed=OPS_SEED, workers=workers
        )
        t0 = time.perf_counter()
        report = ctrl.run(
            run.services,
            run.timeline,
            run.horizon_s,
            measure_s=measure,
            warmup_s=OPS_WARMUP_S,
            sim_seed=OPS_SEED,
        )
        return report, time.perf_counter() - t0

    rows = []
    for tier in tiers:
        run = tier_run(tier)
        measure = measure_s
        if measure is None:
            measure = OPS_MEASURE_10K if tier >= 10_000 else OPS_MEASURE_S
        fast, fast_wall = replay(run, fast_path=True, measure=measure)
        attainment = fast.slo_attainment(target=0.99)
        row = {
            "scenario": "OPS",
            "tier": tier,
            "geometry": "mig",
            "run": run.name,
            "measure_s": measure,
            "services": len(run.services),
            "timeline_events": run.num_events,
            "intervals": len(fast.intervals),
            "failures": len(fast.failures),
            "preemptions": sum(
                1 for f in fast.failures if f.kind == "preemption"
            ),
            "restored": fast.restored_count,
            "peak_gpus": fast.peak_gpus,
            "gpu_hours": round(fast.gpu_hours, 1),
            "reconfig_ops": fast.total_reconfig_ops,
            # None when --ops-measure 0 disabled serving measurement
            "mean_compliance": (
                None
                if fast.mean_compliance is None
                else round(fast.mean_compliance, 6)
            ),
            "min_compliance": (
                None
                if fast.min_compliance is None
                else round(fast.min_compliance, 6)
            ),
            "tenants_measured": len(attainment),
            "tenants_99pct": sum(
                1 for v in attainment.values() if v >= 1.0 - 1e-12
            ),
            "fast_wall_s": round(fast_wall, 6),
            "naive_wall_s": None,
            "speedup": None,
            "identical": None,
            "parallel_wall_s": None,
            "parallel_workers": None,
            "parallel_speedup": None,
            "parallel_identical": None,
            "report": fast.to_doc(),
        }
        if workers > 0:
            par, par_wall = replay(
                run, fast_path=True, measure=measure, workers=workers
            )
            row["parallel_wall_s"] = round(par_wall, 6)
            row["parallel_workers"] = workers
            row["parallel_speedup"] = round(fast_wall / par_wall, 2)
            try:
                assert_reports_identical(par, fast)
            except OpsIdentityError as exc:
                raise SystemExit(
                    f"FATAL: sharded (x{workers}) and serial ops replays "
                    f"differ for {tier} services: {exc}"
                )
            row["parallel_identical"] = True
        if tier <= naive_cap:
            naive, naive_wall = replay(run, fast_path=False, measure=measure)
            row["naive_wall_s"] = round(naive_wall, 6)
            row["speedup"] = round(naive_wall / fast_wall, 2)
            try:
                assert_reports_identical(fast, naive)
            except OpsIdentityError as exc:
                raise SystemExit(
                    f"FATAL: fast and naive ops replays differ for "
                    f"{tier} services: {exc}"
                )
            row["identical"] = True
        rows.append(row)
        speedup = (
            f"{row['speedup']}x vs naive" if row["speedup"] else "naive skipped"
        )
        parallel = (
            f"sharded x{workers} {row['parallel_wall_s']:.2f} s, "
            f"{row['parallel_speedup']}x, identical;  "
            if row["parallel_identical"]
            else ""
        )
        compliance = (
            f"compliance {100 * row['mean_compliance']:6.2f}%  "
            if row["mean_compliance"] is not None
            else ""
        )
        print(
            f"  OPS n={tier:<5} {row['fast_wall_s']:8.2f} s  "
            f"{row['intervals']:>3} intervals  {row['failures']:>3} failures "
            f"({row['restored']} restored)  {compliance}({parallel}{speedup})"
        )
    return rows


def run_serve_sweep(workers_list=SERVE_WORKERS):
    """The serve identity tier: virtual-clock gateway vs offline replay.

    For each slice (an S12 prefix and the full S16 flash-crowd session)
    the offline ``FleetController.run`` report is the reference; the
    ``ServeGateway`` then replays the identical timeline under the
    deterministic virtual clock — serial and at every shard count in
    ``workers_list`` — and every interval's placement and simulation
    fingerprints must match.  Any divergence is fatal: the gateway's
    whole claim is that going live costs zero reproducibility.
    """
    from repro.ops import FleetController, OpsIdentityError
    from repro.ops.controller import assert_reports_identical
    from repro.scenarios.ops import OPS_SEED, ops_run
    from repro.serve import replay_gateway

    rows = []
    for scenario, cap in SERVE_SLICES:
        run = ops_run(scenario)
        horizon = run.horizon_s if cap is None else min(cap, run.horizon_s)
        events = sum(1 for e in run.timeline if e.time_s < horizon)
        ctrl = FleetController(seed=OPS_SEED)
        t0 = time.perf_counter()
        offline = ctrl.run(
            run.services,
            run.timeline,
            horizon,
            measure_s=SERVE_MEASURE_S,
            warmup_s=OPS_WARMUP_S,
            sim_seed=OPS_SEED,
        )
        offline_wall = time.perf_counter() - t0
        row = {
            "scenario": "SERVE",
            "tier": run.name,
            "geometry": "mig",
            "services": len(run.services),
            "horizon_s": horizon,
            "measure_s": SERVE_MEASURE_S,
            "timeline_events": events,
            "intervals": len(offline.intervals),
            "mean_compliance": (
                None
                if offline.mean_compliance is None
                else round(offline.mean_compliance, 6)
            ),
            "offline_wall_s": round(offline_wall, 6),
            "replays": [],
        }
        for w in (0, *workers_list):
            t0 = time.perf_counter()
            report = replay_gateway(
                run.services,
                run.timeline,
                horizon,
                measure_s=SERVE_MEASURE_S,
                warmup_s=OPS_WARMUP_S,
                sim_seed=OPS_SEED,
                deadline_budget_s=SERVE_DEADLINE_S,
                seed=OPS_SEED,
                workers=w,
            )
            wall = time.perf_counter() - t0
            try:
                assert_reports_identical(report, offline)
            except OpsIdentityError as exc:
                raise SystemExit(
                    f"FATAL: virtual-clock gateway replay (workers={w}) "
                    f"diverges from the offline controller on {run.name}: "
                    f"{exc}"
                )
            row["replays"].append(
                {"workers": w, "wall_s": round(wall, 6), "identical": True}
            )
        # the serial gateway replay is the baseline-checked wall-clock
        row["gateway_wall_s"] = row["replays"][0]["wall_s"]
        rows.append(row)
        walls = "  ".join(
            f"x{r['workers']} {r['wall_s']:.2f}s" for r in row["replays"]
        )
        compliance = (
            f"compliance {100 * row['mean_compliance']:6.2f}%  "
            if row["mean_compliance"] is not None
            else ""
        )
        print(
            f"  SERVE {run.name:<4} {row['intervals']:>3} intervals "
            f"{events:>4} events  {compliance}offline "
            f"{offline_wall:6.2f}s  gateway {walls}  (all identical)"
        )
    return rows


def run_serve_live(time_scale=SERVE_TIME_SCALE):
    """The live pass: stream S16 through a real-clock gateway session.

    100 services, two simulated hours compressed by ``time_scale``,
    steered by the scripted driver.  Records the gateway's health
    counters and per-event reaction latency percentiles, then replays
    the *recorded* session under the virtual clock against the offline
    controller — live sessions must leave reproducible evidence behind.
    """
    import asyncio

    from repro.ops import FleetController, OpsIdentityError
    from repro.scenarios.ops import OPS_SEED, ops_run
    from repro.serve import (
        MonotonicClock,
        ScriptedDriver,
        ServeGateway,
        replay_identity_checked,
    )

    run = ops_run("S16")
    clock = MonotonicClock(time_scale=time_scale)
    gateway = ServeGateway(
        FleetController(seed=OPS_SEED),
        run.services,
        run.horizon_s,
        clock,
        measure_s=SERVE_MEASURE_S,
        warmup_s=OPS_WARMUP_S,
        sim_seed=OPS_SEED,
        deadline_budget_s=SERVE_DEADLINE_S,
    )
    driver = ScriptedDriver(run.timeline)
    t0 = time.perf_counter()
    report = asyncio.run(gateway.run(driver.source(clock)))
    wall = time.perf_counter() - t0
    health = gateway.health
    pct = health.reaction_percentiles()
    try:
        replay_identity_checked(
            run.services,
            tuple(driver.sent),
            run.horizon_s,
            measure_s=SERVE_MEASURE_S,
            warmup_s=OPS_WARMUP_S,
            sim_seed=OPS_SEED,
            seed=OPS_SEED,
        )
    except OpsIdentityError as exc:
        raise SystemExit(
            f"FATAL: the recorded live S16 session does not replay "
            f"identically offline: {exc}"
        )
    doc = {
        "scenario": "S16",
        "services": len(run.services),
        "time_scale": time_scale,
        "horizon_s": run.horizon_s,
        "events_streamed": len(driver.sent),
        "wall_s": round(wall, 6),
        "mean_compliance": (
            None
            if report.mean_compliance is None
            else round(report.mean_compliance, 6)
        ),
        "reaction_p50_ms": round(pct["p50_ms"], 3) if pct else None,
        "reaction_p95_ms": round(pct["p95_ms"], 3) if pct else None,
        "reaction_p99_ms": round(pct["p99_ms"], 3) if pct else None,
        "recorded_replay_identical": True,
        "health": health.to_doc(),
    }
    compliance = (
        f"compliance {100 * doc['mean_compliance']:6.2f}%  "
        if doc["mean_compliance"] is not None
        else ""
    )
    print(
        f"  LIVE  S16  {doc['events_streamed']} events in {wall:6.2f}s "
        f"(x{time_scale:g} time)  {health.steps} steps  {compliance}"
        f"reaction p50 {doc['reaction_p50_ms']} ms  "
        f"p99 {doc['reaction_p99_ms']} ms  (recording replays identically)"
    )
    return doc


def _resilience_replay(run, *, measure, workers=0, fault_injector=None,
                       horizon=None, **run_kwargs):
    """One timed FleetController replay for the resilience suite."""
    from repro.ops import FleetController
    from repro.scenarios.ops import OPS_SEED

    ctrl = FleetController(
        fast_path=True, seed=OPS_SEED, workers=workers,
        fault_injector=fault_injector,
    )
    t0 = time.perf_counter()
    report = ctrl.run(
        run.services,
        run.timeline,
        run.horizon_s if horizon is None else horizon,
        measure_s=measure,
        warmup_s=OPS_WARMUP_S,
        sim_seed=OPS_SEED,
        **run_kwargs,
    )
    return ctrl, report, time.perf_counter() - t0


def _crash_plan(workers, crashes=RESILIENCE_CRASHES):
    """A seeded worker-crash plan whose sites can actually fire.

    ``max_index`` is pinned to the shard count so every sampled site
    names a job position a ``workers``-wide batch really dispatches.
    """
    from repro.resilience import FaultPlan
    from repro.scenarios.ops import OPS_SEED

    return FaultPlan(
        seed=OPS_SEED, worker_crashes=crashes,
        max_batch=6, max_index=max(1, workers),
    ).injector()


def _kill_resume(run, base, *, measure, kill_at, ckpt_path, resume_from=None,
                 horizon=None):
    """Kill a (possibly already-resumed) run at an interval boundary,
    resume it from the flushed checkpoint, and demand bit-identity.

    Returns ``(resumed_report, kill_wall_s, resume_wall_s)``; the caller
    chains by passing ``resume_from=ckpt_path`` with a later
    ``kill_at`` (or ``None`` to run to completion).
    """
    _, _, kill_wall = _resilience_replay(
        run, measure=measure, horizon=horizon,
        checkpoint_every=1, checkpoint_path=ckpt_path,
        resume=resume_from, max_steps=kill_at,
    )
    _, resumed, resume_wall = _resilience_replay(
        run, measure=measure, horizon=horizon, resume=ckpt_path,
    )
    if resumed.to_doc() != base.to_doc():
        raise SystemExit(
            f"FATAL: resume after kill@{kill_at} diverged from the "
            f"uninterrupted {run.name} replay"
        )
    return resumed, kill_wall, resume_wall


def run_resilience_sweep(tiers, workers=OPS_WORKERS):
    """Per-tier checkpoint overhead, kill/resume identity, and seeded
    worker-crash recovery on the sharded control plane."""
    import os
    import tempfile

    from repro.ops import OpsIdentityError
    from repro.ops.controller import assert_reports_identical
    from repro.scenarios.ops import bench_ops_run

    rows = []
    for tier in tiers:
        run = bench_ops_run(tier)
        measure = OPS_MEASURE_S
        _, base, base_wall = _resilience_replay(run, measure=measure)
        for _ in range(RESILIENCE_REPEATS - 1):
            _, _, wall = _resilience_replay(run, measure=measure)
            base_wall = min(base_wall, wall)
        with tempfile.TemporaryDirectory() as td:
            ck = os.path.join(td, "checkpoint.json")
            # (a) checkpoint write overhead on the full run
            _, ckpted, ckpt_wall = _resilience_replay(
                run, measure=measure,
                checkpoint_every=RESILIENCE_CKPT_EVERY, checkpoint_path=ck,
            )
            assert_reports_identical(ckpted, base)
            for _ in range(RESILIENCE_REPEATS - 1):
                _, _, wall = _resilience_replay(
                    run, measure=measure,
                    checkpoint_every=RESILIENCE_CKPT_EVERY,
                    checkpoint_path=ck,
                )
                ckpt_wall = min(ckpt_wall, wall)
            ckpt_bytes = os.path.getsize(ck)
            # (b) kill at the middle interval boundary, resume, compare
            kill_at = max(1, len(base.intervals) // 2)
            _, kill_wall, resume_wall = _kill_resume(
                run, base, measure=measure, kill_at=kill_at, ckpt_path=ck,
            )
        # (c) worker crashes mid-measurement on the sharded replay
        wctrl, crashed, crash_wall = _resilience_replay(
            run, measure=measure, workers=workers,
            fault_injector=_crash_plan(workers),
        )
        try:
            assert_reports_identical(crashed, base)
        except OpsIdentityError as exc:
            raise SystemExit(
                f"FATAL: crash-recovered sharded replay diverged at "
                f"{tier} services: {exc}"
            )
        health = wctrl.shard_health()
        if health is None or health.worker_crashes == 0:
            raise SystemExit(
                f"FATAL: the fault plan injected no worker crash at "
                f"{tier} services — the recovery path went unexercised"
            )
        _, parallel_clean, clean_wall = _resilience_replay(
            run, measure=measure, workers=workers,
        )
        assert_reports_identical(parallel_clean, base)
        overhead = (ckpt_wall - base_wall) / base_wall
        row = {
            "scenario": "RESILIENCE",
            "tier": tier,
            "geometry": "mig",
            "run": run.name,
            "measure_s": measure,
            "intervals": len(base.intervals),
            "checkpoint_every": RESILIENCE_CKPT_EVERY,
            "checkpoint_bytes": ckpt_bytes,
            "timing_repeats": RESILIENCE_REPEATS,
            "base_wall_s": round(base_wall, 6),
            "checkpointed_wall_s": round(ckpt_wall, 6),
            "checkpoint_overhead_pct": round(100 * overhead, 2),
            "kill_at_step": kill_at,
            "killed_wall_s": round(kill_wall, 6),
            "resume_wall_s": round(resume_wall, 6),
            "resume_identical": True,
            "crash_workers": workers,
            "crashed_wall_s": round(crash_wall, 6),
            "parallel_clean_wall_s": round(clean_wall, 6),
            "degraded_slowdown": round(crash_wall / clean_wall, 2),
            "parallel_identical": True,
            "shard_health": health.to_doc(),
        }
        rows.append(row)
        print(
            f"  RES n={tier:<5} base {base_wall:7.2f} s  ckpt overhead "
            f"{row['checkpoint_overhead_pct']:+5.2f}%  kill@{kill_at} "
            f"resume {resume_wall:6.2f} s identical;  "
            f"{health.worker_crashes} worker crashes "
            f"({health.pool_rebuilds} rebuilds, "
            f"{health.degradations} degradations) recovered identical "
            f"x{row['degraded_slowdown']:.2f}"
        )
    return rows


def run_resilience_s13():
    """The S13 degraded week, killed and resumed *twice* (chained)."""
    import os
    import tempfile

    from repro.scenarios.ops import ops_run

    run = ops_run("S13")
    measure = OPS_MEASURE_S
    _, base, base_wall = _resilience_replay(run, measure=measure)
    n = len(base.intervals)
    first, second = max(1, n // 3), max(2, (2 * n) // 3)
    with tempfile.TemporaryDirectory() as td:
        ck = os.path.join(td, "checkpoint.json")
        walls = []
        _, k1, r1 = _kill_resume(
            run, base, measure=measure, kill_at=first, ckpt_path=ck,
        )
        walls.append((first, k1, r1))
        # chain: resume from the first checkpoint, die again, resume again
        _, _, kill2_wall = _resilience_replay(
            run, measure=measure, checkpoint_every=1, checkpoint_path=ck,
            resume=ck, max_steps=second,
        )
        _, resumed2, r2 = _resilience_replay(
            run, measure=measure, resume=ck,
        )
        if resumed2.to_doc() != base.to_doc():
            raise SystemExit(
                "FATAL: S13 chained kill/resume diverged from the "
                "uninterrupted replay"
            )
        walls.append((second, kill2_wall, r2))
    print(
        f"  RES S13   base {base_wall:7.2f} s  kills at steps "
        f"{first} and {second} of {n}, chained resume identical"
    )
    return {
        "run": run.name,
        "measure_s": measure,
        "intervals": n,
        "base_wall_s": round(base_wall, 6),
        "kills": [
            {
                "kill_at_step": at,
                "killed_wall_s": round(kw, 6),
                "resume_wall_s": round(rw, 6),
            }
            for at, kw, rw in walls
        ],
        "chained_resume_identical": True,
    }


def run_resilience_s15(horizon_s=RESILIENCE_S15_HORIZON, workers=OPS_WORKERS):
    """Worker crashes mid-chaos-week at 10k services (truncated prefix)."""
    from repro.ops import OpsIdentityError
    from repro.ops.controller import assert_reports_identical
    from repro.scenarios.ops import ops_run

    run = ops_run("S15")
    horizon = min(horizon_s, run.horizon_s)
    measure = RESILIENCE_S15_MEASURE
    _, base, base_wall = _resilience_replay(
        run, measure=measure, horizon=horizon,
    )
    wctrl, crashed, crash_wall = _resilience_replay(
        run, measure=measure, horizon=horizon, workers=workers,
        fault_injector=_crash_plan(workers),
    )
    try:
        assert_reports_identical(crashed, base)
    except OpsIdentityError as exc:
        raise SystemExit(
            f"FATAL: S15 crash-recovered sharded replay diverged: {exc}"
        )
    health = wctrl.shard_health()
    if health is None or health.worker_crashes == 0:
        raise SystemExit(
            "FATAL: the S15 fault plan injected no worker crash — the "
            "recovery path went unexercised"
        )
    print(
        f"  RES S15   prefix {horizon / 3600:g} h of "
        f"{run.horizon_s / 3600:g} h, {len(base.intervals)} intervals: "
        f"{health.worker_crashes} worker crashes recovered, "
        f"parallel identical (serial {base_wall:.2f} s, crashed "
        f"x{workers} {crash_wall:.2f} s)"
    )
    return {
        "run": run.name,
        "horizon_s": horizon,
        "measure_s": measure,
        "intervals": len(base.intervals),
        "services": len(run.services),
        "crash_workers": workers,
        "serial_wall_s": round(base_wall, 6),
        "crashed_wall_s": round(crash_wall, 6),
        "parallel_identical": True,
        "shard_health": health.to_doc(),
    }


def run_obs_sweep(tiers, repeats=OBS_REPEATS):
    """Observability overhead: identical ops replays, obs on vs off.

    Each tier's one-day bench run is replayed with the default
    ``ObsHub`` (metrics + spans + flight recorder all recording) and
    with a disabled hub, best-of-``repeats`` walls each.  The two
    reports must be bit-identical — recording is sidecar-only, so the
    obs plane may cost wall-clock but can never move a fingerprint; any
    divergence is fatal.  The recorded overhead percentage is the
    committed evidence that full observability stays marginal.
    """
    from repro.obs import ObsHub, render_prometheus
    from repro.ops import FleetController, OpsIdentityError
    from repro.ops.controller import assert_reports_identical
    from repro.scenarios.ops import OPS_SEED, bench_ops_run

    def replay(run, enabled):
        hub = ObsHub(enabled=enabled)
        ctrl = FleetController(fast_path=True, seed=OPS_SEED, obs=hub)
        t0 = time.perf_counter()
        report = ctrl.run(
            run.services,
            run.timeline,
            run.horizon_s,
            measure_s=OPS_MEASURE_S,
            warmup_s=OPS_WARMUP_S,
            sim_seed=OPS_SEED,
        )
        return ctrl, report, time.perf_counter() - t0

    rows = []
    for tier in tiers:
        run = bench_ops_run(tier)
        ctrl_on, on_report, on_wall = replay(run, enabled=True)
        for _ in range(repeats - 1):
            _, _, wall = replay(run, enabled=True)
            on_wall = min(on_wall, wall)
        _, off_report, off_wall = replay(run, enabled=False)
        for _ in range(repeats - 1):
            _, _, wall = replay(run, enabled=False)
            off_wall = min(off_wall, wall)
        try:
            assert_reports_identical(on_report, off_report)
        except OpsIdentityError as exc:
            raise SystemExit(
                f"FATAL: the observability plane changed the {tier}-service "
                f"replay — recording leaked into fingerprinted state: {exc}"
            )
        overhead = (on_wall - off_wall) / off_wall
        scrape = render_prometheus(ctrl_on.obs.registry)
        row = {
            "scenario": "OBS",
            "tier": tier,
            "geometry": "mig",
            "run": run.name,
            "measure_s": OPS_MEASURE_S,
            "intervals": len(on_report.intervals),
            "timing_repeats": repeats,
            "enabled_wall_s": round(on_wall, 6),
            "disabled_wall_s": round(off_wall, 6),
            "overhead_pct": round(100 * overhead, 2),
            "identical": True,
            "spans": len(ctrl_on.obs.tracer.spans),
            "metric_families": sum(
                1 for _ in ctrl_on.obs.registry.collect()
            ),
            "scrape_bytes": len(scrape.encode("utf-8")),
        }
        rows.append(row)
        print(
            f"  OBS n={tier:<5} on {on_wall:7.2f} s  off {off_wall:7.2f} s  "
            f"overhead {row['overhead_pct']:+5.2f}%  "
            f"{row['spans']} spans  {row['metric_families']} families  "
            f"scrape {row['scrape_bytes']} B  (reports identical)"
        )
    return rows


def check_baseline(rows, baseline_path, max_regress, section, field):
    """Compare fast-path wall-clocks to the committed baseline (>Nx fails).

    ``section``/``field`` select the baseline list and the wall-clock
    key: ``("fleets", "indexed_wall_s")`` for the schedule suite,
    ``("simulate", "fast_wall_s")`` for the simulate suite.
    """
    baseline = json.loads(pathlib.Path(baseline_path).read_text())
    reference = {
        (r["tier"], r["geometry"]): r[field]
        for r in baseline.get(section, [])
    }
    regressions = []
    for row in rows:
        ref = reference.get((row["tier"], row["geometry"]))
        if ref is None:
            continue
        ratio = row[field] / ref
        marker = "REGRESSION" if ratio > max_regress else "ok"
        print(
            f"  baseline {row['geometry']:>6} n={row['tier']:<5} "
            f"{ratio:5.2f}x of reference ({marker})"
        )
        if ratio > max_regress:
            regressions.append((row["tier"], row["geometry"], ratio))
    return regressions


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=("schedule", "simulate", "ops", "serve", "resilience", "obs"),
        default="schedule",
        help="schedule: time the scheduler's fleet sweep (S9/S10); "
        "simulate: serve high-rate fleets through the simulation fast "
        "path (SIM tiers, S10 measured, S11); ops: drive fleets through "
        "a simulated day of failures/preemptions/churn with the "
        "closed-loop FleetController; serve: virtual-clock gateway "
        "identity replays plus a live S16 session with reaction-latency "
        "percentiles; resilience: checkpoint/kill/resume bit-identity, "
        "checkpoint overhead, and seeded worker-crash recovery; obs: "
        "observability-plane overhead, obs-on vs obs-off replays with "
        "bit-identity (default: %(default)s)",
    )
    parser.add_argument(
        "--tiers",
        default=None,
        help="comma-separated fleet sizes (default: "
        f"{','.join(str(t) for t in FLEET_TIERS)} for schedule, "
        f"{','.join(str(t) for t in SIM_TIERS)} for simulate, "
        f"{','.join(str(t) for t in OPS_TIERS)} for ops)",
    )
    parser.add_argument(
        "--geometries",
        default=None,
        help="comma-separated geometries (default: "
        f"{','.join(GEOMETRIES)}; the ops suite is MIG-only and rejects "
        "this flag)",
    )
    parser.add_argument(
        "--naive-cap",
        type=int,
        default=1000,
        help="largest tier also run on the naive/event-driven reference "
        "path (default: %(default)s)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="result JSON path (default: a gitignored "
        "BENCH_<suite>.local.json sidecar)",
    )
    parser.add_argument(
        "--baseline", type=pathlib.Path, default=None,
        help="committed baseline JSON to regress against",
    )
    parser.add_argument(
        "--max-regress", type=float, default=2.0,
        help="fail when a fast-path wall-clock exceeds baseline by this "
        "factor",
    )
    parser.add_argument(
        "--skip-autoscaler", action="store_true",
        help="skip the S10 diurnal trace pass (run through "
        "FleetController; the JSON key stays \"autoscaler\")",
    )
    parser.add_argument(
        "--skip-s11", action="store_true",
        help="skip the S11 million-request replay (simulate suite)",
    )
    parser.add_argument(
        "--autoscaler-services", type=int, default=S10_FLEET_SIZE,
        help="services in the S10 diurnal trace pass (default: "
        "%(default)s)",
    )
    parser.add_argument(
        "--autoscaler-epochs", type=int, default=S10_EPOCHS,
        help="trace epochs (FleetController intervals) in the S10 pass "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--autoscaler-measure", type=float, default=0.5,
        help="seconds of serving simulated per S10 interval in the "
        "simulate suite (default: %(default)s)",
    )
    parser.add_argument(
        "--ops-measure", type=float, default=None,
        help="seconds of serving simulated per ops interval (default: "
        f"{OPS_MEASURE_S} per tier, {OPS_MEASURE_10K} at the 10k tier)",
    )
    parser.add_argument(
        "--workers", type=int, default=OPS_WORKERS,
        help="shard count for the parallel ops replay recorded next to "
        "the serial one (0 disables it; default: %(default)s)",
    )
    parser.add_argument(
        "--skip-live", action="store_true",
        help="serve suite: skip the wall-clock live S16 session and "
        "record only the virtual-clock identity replays",
    )
    parser.add_argument(
        "--serve-time-scale", type=float, default=SERVE_TIME_SCALE,
        help="serve suite: scenario seconds per wall second for the live "
        "S16 session (default: %(default)s)",
    )
    parser.add_argument(
        "--skip-s13", action="store_true",
        help="resilience suite: skip the S13 chained kill/resume special "
        "(the CI smoke runs the tier rows only)",
    )
    parser.add_argument(
        "--obs-budget", type=float, default=None,
        help="obs suite: fail when any tier's observability overhead "
        "exceeds this percentage (default: record only)",
    )
    parser.add_argument(
        "--s15-horizon", type=float, default=RESILIENCE_S15_HORIZON,
        help="resilience suite: chaos-week prefix replayed for the 10k "
        "worker-crash special, in scenario seconds (0 skips it; "
        "default: %(default)s)",
    )
    args = parser.parse_args(argv)

    default_tiers = {
        "schedule": FLEET_TIERS,
        "simulate": SIM_TIERS,
        "ops": OPS_TIERS,
        "serve": (),
        "resilience": RESILIENCE_TIERS,
        "obs": OBS_TIERS,
    }[args.suite]
    tiers = (
        [int(t) for t in args.tiers.split(",") if t]
        if args.tiers
        else list(default_tiers)
    )
    if (
        args.suite in ("ops", "serve", "resilience", "obs")
        and args.geometries is not None
    ):
        # The FleetController runs one geometry per fleet and the ops
        # tiers are MIG-only; silently ignoring the flag would let a
        # user believe they benchmarked MI300X ops behavior.
        parser.error(f"--geometries is not supported by the {args.suite} "
                     "suite (MIG-only)")
    geometries = [
        g.strip()
        for g in (args.geometries or ",".join(GEOMETRIES)).split(",")
        if g.strip()
    ]
    out = args.out if args.out is not None else DEFAULT_OUTS[args.suite]

    doc = {
        "version": 2,
        "suite": args.suite,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
    }
    if args.suite == "schedule":
        print(f"fleet sweep: tiers={tiers} geometries={geometries}")
        rows = run_fleet_sweep(tiers, geometries, args.naive_cap)
        doc["fleets"] = rows
        doc["autoscaler"] = (
            None
            if args.skip_autoscaler
            else run_autoscaler_trace(
                args.autoscaler_services, args.autoscaler_epochs
            )
        )
        section, field = "fleets", "indexed_wall_s"
    elif args.suite == "ops":
        measure = (
            f"{args.ops_measure}s"
            if args.ops_measure is not None
            else f"{OPS_MEASURE_S}s ({OPS_MEASURE_10K}s at 10k)"
        )
        print(
            f"ops sweep: tiers={tiers} measure={measure} "
            f"workers={args.workers} (a simulated day of failures + "
            f"preemptions + churn each; the 10k tier replays the S15 "
            f"chaos week)"
        )
        rows = run_ops_sweep(
            tiers,
            args.naive_cap,
            measure_s=args.ops_measure,
            workers=args.workers,
        )
        doc["ops"] = rows
        section, field = "ops", "fast_wall_s"
    elif args.suite == "serve":
        slices = ", ".join(
            name if cap is None else f"{name}[:{cap / 3600:g}h]"
            for name, cap in SERVE_SLICES
        )
        print(
            f"serve sweep: slices=({slices}) workers={SERVE_WORKERS} "
            f"deadline={SERVE_DEADLINE_S}s (virtual-clock identity vs the "
            f"offline FleetController, then a live S16 session)"
        )
        rows = run_serve_sweep()
        doc["serve"] = rows
        doc["live"] = (
            None
            if args.skip_live
            else run_serve_live(time_scale=args.serve_time_scale)
        )
        section, field = "serve", "gateway_wall_s"
    elif args.suite == "resilience":
        print(
            f"resilience sweep: tiers={tiers} workers={args.workers} "
            f"ckpt_every={RESILIENCE_CKPT_EVERY} (checkpoint overhead + "
            f"kill/resume bit-identity + seeded worker-crash recovery)"
        )
        rows = run_resilience_sweep(tiers, workers=args.workers)
        doc["resilience"] = rows
        doc["s13_kill_resume"] = None if args.skip_s13 else run_resilience_s13()
        doc["s15_worker_crash"] = (
            None
            if args.s15_horizon <= 0
            else run_resilience_s15(
                horizon_s=args.s15_horizon, workers=args.workers
            )
        )
        section, field = "resilience", "base_wall_s"
    elif args.suite == "obs":
        print(
            f"obs sweep: tiers={tiers} repeats={OBS_REPEATS} "
            f"(identical ops replays with the observability plane "
            f"enabled vs disabled; sidecar-only recording must not move "
            f"a fingerprint)"
        )
        rows = run_obs_sweep(tiers)
        doc["obs"] = rows
        section, field = "obs", "enabled_wall_s"
    else:
        print(
            f"simulate sweep: tiers={tiers} geometries={geometries} "
            f"rate_scale={SIM_RATE_SCALE} duration={SIM_DURATION_S}s"
        )
        rows = run_simulate_sweep(tiers, geometries, args.naive_cap)
        doc["simulate"] = rows
        doc["autoscaler"] = (
            None
            if args.skip_autoscaler
            else run_autoscaler_trace(
                args.autoscaler_services,
                args.autoscaler_epochs,
                measure_s=args.autoscaler_measure,
            )
        )
        doc["s11"] = None if args.skip_s11 else run_million_request_replay()
        section, field = "simulate", "fast_wall_s"

    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")

    if args.suite == "obs" and args.obs_budget is not None:
        over = [r for r in rows if r["overhead_pct"] > args.obs_budget]
        if over:
            tiers_over = ", ".join(
                f"n={r['tier']} {r['overhead_pct']:+.2f}%" for r in over
            )
            print(
                f"FAIL: observability overhead exceeds the "
                f"{args.obs_budget}% budget ({tiers_over})"
            )
            return 1

    if args.baseline is not None:
        regressions = check_baseline(
            rows, args.baseline, args.max_regress, section, field
        )
        if regressions:
            print(f"FAIL: {len(regressions)} tier(s) regressed "
                  f">{args.max_regress}x against {args.baseline}")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
