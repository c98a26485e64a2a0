"""Identity gates: fleet-scale replays that must be bit-identical.

Each gate runs one fixed input two ways and demands the same result:
the batch-granularity simulation vs the event-driven engine, the fast
control plane vs the naive reference and vs the sharded one, the
virtual-clock gateway vs the offline ``FleetController``, a recorded
live session vs its replay, and checkpointed, killed-and-resumed and
worker-crashed runs vs the uninterrupted one.  There are no timers, no
output files and no flags: a gate passes or fails.

The file name does not match ``test_*.py``, so tier-1's directory walk
(``testpaths`` in ``pyproject.toml``) does not collect it; the gates
take ~45 s, too slow for tier-1.  CI runs them by name::

    PYTHONPATH=src python -m pytest benchmarks/perf/identity_gates.py -q

Speed is measured by ``perfbench/``; the ``BENCH_*.json`` files next to
this one are frozen history from an earlier wall-clock harness.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.hetero import make_mixed_scheduler
from repro.core.parvagpu import ParvaGPU
from repro.gpu.geometry import get_geometry
from repro.ops import FleetController
from repro.ops.controller import assert_reports_identical
from repro.profiler import profile_workloads
from repro.resilience import FaultPlan
from repro.scenarios.fleet import S11_RATE_SCALE, fleet_services
from repro.scenarios.ops import OPS_SEED, bench_ops_run, ops_run
from repro.serve import (
    MonotonicClock,
    ScriptedDriver,
    ServeGateway,
    replay_gateway,
    replay_identity_checked,
)
from repro.sim import simulate_placement

#: Serving measured per interval and its warmup, in simulated seconds.
MEASURE_S = 0.25
WARMUP_S = 0.1
#: The sharded width every serial-vs-sharded gate runs at.
WORKERS = 2
#: Checkpoint cadence of the checkpointed replay, in intervals.
CKPT_EVERY = 5
#: The serve gateway's deadline budget and the live session's speed-up.
DEADLINE_S = 0.25
TIME_SCALE = 600.0


def replay(run, *, fast_path=True, workers=0, fault_injector=None,
           horizon=None, **kwargs):
    """One ``FleetController`` replay of an ops run at the gate settings."""
    ctrl = FleetController(
        fast_path=fast_path, seed=OPS_SEED, workers=workers,
        fault_injector=fault_injector,
    )
    report = ctrl.run(
        run.services,
        run.timeline,
        run.horizon_s if horizon is None else horizon,
        measure_s=MEASURE_S,
        warmup_s=WARMUP_S,
        sim_seed=OPS_SEED,
        **kwargs,
    )
    return ctrl, report


def kill_and_resume(run, base, ckpt, *, kill_at, resume_from=None):
    """Stop a run after ``kill_at`` intervals, resume it from the flushed
    checkpoint and demand the uninterrupted report, byte for byte."""
    replay(
        run, checkpoint_every=1, checkpoint_path=ckpt,
        resume=resume_from, max_steps=kill_at,
    )
    _, resumed = replay(run, resume=ckpt)
    assert resumed.to_doc() == base.to_doc(), f"kill@{kill_at} diverged"


@pytest.fixture(scope="module")
def tier100():
    """The 100-service ops day and its serial fast-path report."""
    run = bench_ops_run(100)
    return run, replay(run)[1]


@pytest.mark.parametrize("geometry", ["mig", "mi300x", "mixed"])
def test_simulate_fast_path_matches_event_engine(geometry):
    services = fleet_services(100, rate_scale=S11_RATE_SCALE)
    if geometry == "mixed":
        scheduler = make_mixed_scheduler()
    else:
        geo = get_geometry(geometry)
        profiles = (
            profile_workloads()
            if geo.name == "mig"
            else profile_workloads(geometry=geo)
        )
        scheduler = ParvaGPU(profiles, geometry=geo)
    placement = scheduler.schedule(services)
    fast, ref = (
        simulate_placement(
            placement, services, duration_s=1.0, warmup_s=0.25, seed=0,
            fast_path=fast_path,
        )
        for fast_path in (True, False)
    )
    assert fast.fingerprint() == ref.fingerprint()
    assert fast.close_to(ref)


def test_ops_fast_path_matches_naive_reference(tier100):
    run, base = tier100
    assert_reports_identical(base, replay(run, fast_path=False)[1])


def test_ops_sharded_matches_serial(tier100):
    run, base = tier100
    assert_reports_identical(replay(run, workers=WORKERS)[1], base)


def test_ops_survives_worker_crashes(tier100):
    run, base = tier100
    plan = FaultPlan(
        seed=OPS_SEED, worker_crashes=3, max_batch=6, max_index=WORKERS
    )
    ctrl, crashed = replay(
        run, workers=WORKERS, fault_injector=plan.injector()
    )
    assert_reports_identical(crashed, base)
    assert ctrl.shard_health().worker_crashes > 0, "no worker crashed"


def test_checkpointing_does_not_move_the_report(tier100, tmp_path):
    run, base = tier100
    ckpt = tmp_path / "checkpoint.json"
    _, ckpted = replay(
        run, checkpoint_every=CKPT_EVERY, checkpoint_path=ckpt
    )
    assert_reports_identical(ckpted, base)


def test_kill_and_resume_is_bit_identical(tier100, tmp_path):
    run, base = tier100
    kill_and_resume(
        run, base, tmp_path / "checkpoint.json",
        kill_at=max(1, len(base.intervals) // 2),
    )


def test_s13_chained_kill_and_resume(tmp_path):
    run = ops_run("S13")
    _, base = replay(run)
    n = len(base.intervals)
    ckpt = tmp_path / "checkpoint.json"
    kill_and_resume(run, base, ckpt, kill_at=max(1, n // 3))
    kill_and_resume(
        run, base, ckpt, kill_at=max(2, 2 * n // 3), resume_from=ckpt
    )


@pytest.mark.parametrize(
    "scenario,cap_s", [("S12", 3 * 3600.0), ("S16", None)]
)
def test_virtual_clock_gateway_matches_offline(scenario, cap_s):
    run = ops_run(scenario)
    horizon = run.horizon_s if cap_s is None else min(cap_s, run.horizon_s)
    _, offline = replay(run, horizon=horizon)
    for workers in (0, 1, WORKERS):
        report = replay_gateway(
            run.services,
            run.timeline,
            horizon,
            measure_s=MEASURE_S,
            warmup_s=WARMUP_S,
            sim_seed=OPS_SEED,
            deadline_budget_s=DEADLINE_S,
            seed=OPS_SEED,
            workers=workers,
        )
        assert_reports_identical(report, offline)


def test_recorded_live_session_replays_offline():
    run = ops_run("S16")
    clock = MonotonicClock(time_scale=TIME_SCALE)
    gateway = ServeGateway(
        FleetController(seed=OPS_SEED),
        run.services,
        run.horizon_s,
        clock,
        measure_s=MEASURE_S,
        warmup_s=WARMUP_S,
        sim_seed=OPS_SEED,
        deadline_budget_s=DEADLINE_S,
    )
    driver = ScriptedDriver(run.timeline)
    asyncio.run(gateway.run(driver.source(clock)))
    assert driver.sent
    replay_identity_checked(
        run.services,
        tuple(driver.sent),
        run.horizon_s,
        measure_s=MEASURE_S,
        warmup_s=WARMUP_S,
        sim_seed=OPS_SEED,
        seed=OPS_SEED,
    )
